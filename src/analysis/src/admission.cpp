#include "qbarren/analysis/admission.hpp"

namespace qbarren {

namespace {

AdmissionDecision decide(Diagnostics findings) {
  AdmissionDecision decision;
  decision.admitted = !has_errors(findings);
  decision.findings = std::move(findings);
  return decision;
}

}  // namespace

AdmissionDecision admission_check(const VarianceExperimentOptions& options,
                                  const LintOptions& lint_options) {
  return decide(lint_variance_options(options, lint_options));
}

AdmissionDecision admission_check(const TrainingExperimentOptions& options,
                                  const LintOptions& lint_options) {
  return decide(lint_training_options(options, lint_options));
}

}  // namespace qbarren
