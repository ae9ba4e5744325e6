#include "qbarren/analysis/preflight.hpp"

#include <algorithm>
#include <iostream>
#include <utility>

#include "qbarren/analysis/stream_graph.hpp"
#include "qbarren/circuit/ansatz.hpp"

namespace qbarren {

LintMode lint_mode_from_name(const std::string& name) {
  if (name == "off") return LintMode::kOff;
  if (name == "warn") return LintMode::kWarn;
  if (name == "error") return LintMode::kError;
  throw NotFound("lint_mode_from_name: unknown lint mode '" + name +
                 "' (expected off, warn, or error)");
}

LintError::LintError(std::string context, Diagnostics diagnostics)
    : Error(std::move(context) + ": " +
            std::to_string(count_severity(diagnostics, Severity::kError)) +
            " error-severity lint finding(s); run with --lint=warn to "
            "launch anyway"),
      diagnostics_(std::move(diagnostics)) {}

Diagnostics lint_variance_options(const VarianceExperimentOptions& options,
                                  const LintOptions& lint_options) {
  QBARREN_REQUIRE(!options.qubit_counts.empty(),
                  "lint_variance_options: qubit_counts must be non-empty");
  // Lint the widest requested configuration — the BP-relevant one — using
  // the exact circuit the run itself would sample first at that width
  // (variance_structure, as in VarianceExperiment::run), so findings refer
  // to a circuit the experiment will really execute.
  const auto max_it =
      std::max_element(options.qubit_counts.begin(), options.qubit_counts.end());
  const std::size_t qi =
      static_cast<std::size_t>(max_it - options.qubit_counts.begin());
  const std::size_t q = *max_it;
  const Circuit circuit = variance_structure(options, qi, 0);

  CircuitLintContext context;
  context.observable_qubits = cost_observable_qubits(options.cost, q);
  context.global_cost = is_global_cost(options.cost);
  if (circuit.num_parameters() > 0) {
    context.differentiated_parameter =
        sampled_parameter(circuit, options.which_parameter);
  }
  return lint_circuit(circuit, context, lint_options);
}

Diagnostics lint_training_options(const TrainingExperimentOptions& options,
                                  const LintOptions& lint_options) {
  TrainingAnsatzOptions ansatz_options;
  ansatz_options.layers = options.layers;
  const Circuit circuit = training_ansatz(options.qubits, ansatz_options);

  CircuitLintContext context;
  context.observable_qubits =
      cost_observable_qubits(options.cost, options.qubits);
  context.global_cost = is_global_cost(options.cost);
  // Training differentiates every parameter, so no single parameter is
  // escalated; dead parameters still surface as QB001 warnings.
  return lint_circuit(circuit, context, lint_options);
}

Diagnostics lint_sweep_options(const TrainingSweepOptions& options,
                               const LintOptions& lint_options) {
  Diagnostics out = lint_training_options(options.base, lint_options);
  // QB007 over the sweep's derived per-repetition seeds. The (label, seed)
  // pairs come from the stream-graph enumerator — the single model of the
  // derivation run_training_sweep performs — so this preflight, the
  // runner, and `qbarren audit` can never disagree about which root seeds
  // a sweep draws. splitmix64 makes collisions practically impossible for
  // distinct reps, but a hand-rolled TrainingSweepOptions patched to reuse
  // seeds (or a future derivation bug) is caught here before any cell
  // trains.
  std::vector<std::pair<std::string, std::uint64_t>> cells;
  for (const StreamGraph& graph : sweep_stream_graphs(options)) {
    cells.emplace_back(graph.label, graph.root_seed);
  }
  Diagnostics seed_findings = lint_seed_assignments(cells, lint_options);
  out.insert(out.end(), std::make_move_iterator(seed_findings.begin()),
             std::make_move_iterator(seed_findings.end()));
  return out;
}

bool enforce_preflight(const Diagnostics& diagnostics, LintMode mode,
                       const std::string& context) {
  if (mode == LintMode::kOff || diagnostics.empty()) return true;
  std::cerr << context << ": " << diagnostics.size()
            << " lint finding(s) before launch\n"
            << diagnostics_table(diagnostics).to_ascii();
  if (mode == LintMode::kError && has_errors(diagnostics)) {
    throw LintError(context, diagnostics);
  }
  return true;
}

}  // namespace qbarren
