// Admission control: the lint preflight as a yes/no gate for the serve
// layer.
//
// A multi-tenant service must refuse provably broken requests *before*
// dispatching them to workers — a variance spec whose sampled parameter is
// structurally dead (QB001) would burn a worker pool for hours measuring
// exactly zero. admission_check wraps the PR 3 preflight linters
// (preflight.hpp) into a decision object: admitted = no error-severity
// findings, and the full findings list rides along so the service can
// stream the existing QB/QP diagnostic JSON back to the client instead of
// a bare rejection.
#pragma once

#include "qbarren/analysis/preflight.hpp"

namespace qbarren {

/// Verdict of an admission preflight. `findings` carries every
/// diagnostic (warnings included), serializable via to_json(Diagnostics);
/// `admitted` is false exactly when an error-severity finding exists.
struct AdmissionDecision {
  bool admitted = true;
  Diagnostics findings;

  [[nodiscard]] JsonValue findings_json() const { return to_json(findings); }
};

[[nodiscard]] AdmissionDecision admission_check(
    const VarianceExperimentOptions& options,
    const LintOptions& lint_options = {});

[[nodiscard]] AdmissionDecision admission_check(
    const TrainingExperimentOptions& options,
    const LintOptions& lint_options = {});

}  // namespace qbarren
