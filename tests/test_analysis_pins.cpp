// Exact-text pins of the analysis layer's output on the paper's
// configurations: every finding lint_variance_options and
// lint_training_options report (severity, code, location and message,
// in order), and the hexfloat cells of a reduced predict_variance_grid.
// Serve admission and `qbarren lint`/`qbarren predict` print these
// values, so a rewrite of the dataflow, lint or predictor internals must
// leave every byte unchanged.
//
// The expected text lives in fixtures/analysis_pins.txt, one section per
// case ("== <case>" header, then one line per finding or grid cell). A
// mismatch prints the text this build produces, ready to compare.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "qbarren/analysis/predict.hpp"
#include "qbarren/analysis/preflight.hpp"

namespace qbarren {
namespace {

std::map<std::string, std::string> load_pins() {
  std::ifstream in(std::string(QBARREN_FIXTURE_DIR) + "/analysis_pins.txt");
  EXPECT_TRUE(in) << "cannot open fixtures/analysis_pins.txt";
  std::map<std::string, std::string> pins;
  std::string line;
  std::string* section = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      section = &pins[line.substr(3)];
    } else if (section != nullptr) {
      *section += line;
      *section += '\n';
    }
  }
  return pins;
}

void expect_pinned(const std::string& name, const std::string& got) {
  static const std::map<std::string, std::string> pins = load_pins();
  const auto it = pins.find(name);
  if (it == pins.end()) {
    ADD_FAILURE() << "no pinned section '" << name << "'; this build gives\n"
                  << "== " << name << "\n"
                  << got;
    return;
  }
  EXPECT_EQ(got, it->second) << "== " << name;
}

std::string render(const Diagnostics& diagnostics) {
  std::string text;
  for (const Diagnostic& d : diagnostics) {
    text += severity_name(d.severity) + '\t' + d.code + '\t' + d.location +
            '\t' + d.message + '\n';
  }
  return text;
}

std::string render(const PredictionGrid& grid) {
  std::string text;
  char line[160];
  for (const PredictionSeries& series : grid.series) {
    for (const CellPrediction& cell : series.cells) {
      std::snprintf(line, sizeof(line), "%s %zu %a %a %zu %zu\n",
                    series.initializer.c_str(), cell.qubits, cell.variance,
                    cell.noise_floor, cell.structures, cell.dead_structures);
      text += line;
    }
  }
  return text;
}

const std::vector<std::pair<std::string, CostKind>> kCosts = {
    {"global", CostKind::kGlobalZero},
    {"local", CostKind::kLocalZero},
    {"zz", CostKind::kPauliZZ}};

TEST(AnalysisPins, VariancePreflightOnThePaperGrid) {
  for (const auto& [name, cost] : kCosts) {
    VarianceExperimentOptions options;  // q = 2..10, 50 layers, seed 42
    options.cost = cost;
    expect_pinned("lint_variance_options cost=" + name,
                  render(lint_variance_options(options)));
  }
}

TEST(AnalysisPins, TrainingPreflightAtTheDefaults) {
  for (const auto& [name, cost] : kCosts) {
    if (cost == CostKind::kPauliZZ) continue;  // training costs only
    TrainingExperimentOptions options;  // q = 10, 5 layers
    options.cost = cost;
    expect_pinned("lint_training_options cost=" + name,
                  render(lint_training_options(options)));
  }
}

TEST(AnalysisPins, ReducedPredictionGrid) {
  const std::vector<std::string> paper_set = {
      "random", "xavier-normal", "xavier-uniform", "he", "lecun",
      "orthogonal"};
  for (const auto& [name, cost] : kCosts) {
    VarianceExperimentOptions options;
    options.cost = cost;
    expect_pinned("predict_variance_grid structures=6 cost=" + name,
                  render(predict_variance_grid(options, paper_set, {}, 6)));
  }
}

}  // namespace
}  // namespace qbarren
