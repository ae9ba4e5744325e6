// Pre-run lint gates for the bp experiment runners.
//
// Each experiment's options fully determine the circuits it will build and
// the observable it will measure, so the linter can analyze a run *before*
// any cell executes: build one representative circuit per configuration,
// derive the observable support from the cost kind, and hand both to
// lint_circuit. The runners (and the CLI's --lint flag) call these to
// refuse provably broken configurations — e.g. a variance run whose
// sampled parameter is outside the cost observable's light cone would
// spend hours measuring exactly zero.
#pragma once

#include <string>

#include "qbarren/analysis/lint.hpp"
#include "qbarren/bp/training.hpp"
#include "qbarren/bp/variance.hpp"
#include "qbarren/common/error.hpp"

namespace qbarren {

/// How preflight findings gate a run.
enum class LintMode {
  kOff,    ///< skip preflight entirely
  kWarn,   ///< print findings, always launch (the default)
  kError,  ///< print findings; refuse to launch on any error finding
};

/// Parses "off" / "warn" / "error"; throws NotFound otherwise.
[[nodiscard]] LintMode lint_mode_from_name(const std::string& name);

/// Thrown by enforce_preflight when LintMode::kError meets error-severity
/// findings. Carries the findings so callers can render them once more.
class LintError : public Error {
 public:
  LintError(std::string context, Diagnostics diagnostics);

  [[nodiscard]] const Diagnostics& diagnostics() const noexcept {
    return diagnostics_;
  }

 private:
  Diagnostics diagnostics_;
};

/// Lints a variance experiment: one Eq-2 circuit at the largest requested
/// qubit count (axes drawn from the run's own seed, entangler/topology as
/// configured), observable support from the cost kind, and the sampled
/// parameter (which_parameter) as the differentiated parameter — the
/// configuration under which a dead sampled parameter is an error.
[[nodiscard]] Diagnostics lint_variance_options(
    const VarianceExperimentOptions& options,
    const LintOptions& lint_options = {});

/// Lints a training experiment: the Eq-3 circuit at the configured width
/// and depth, observable support and global-cost flag from the cost kind
/// (the paper's global cost at n = 10, L = 5 triggers QB002).
[[nodiscard]] Diagnostics lint_training_options(
    const TrainingExperimentOptions& options,
    const LintOptions& lint_options = {});

/// Lints a training sweep: the base experiment's findings plus QB007 over
/// the per-repetition derived seeds (and a direct check that no derived
/// seed collides with another repetition's).
[[nodiscard]] Diagnostics lint_sweep_options(
    const TrainingSweepOptions& options,
    const LintOptions& lint_options = {});

/// Applies a lint mode to findings: under kOff does nothing; under kWarn
/// and kError prints non-empty findings as a table to stderr (prefixed
/// with `context`); under kError additionally throws LintError when any
/// finding is error-severity. Returns true when the run may proceed
/// (always, unless it throws).
bool enforce_preflight(const Diagnostics& diagnostics, LintMode mode,
                       const std::string& context);

}  // namespace qbarren
