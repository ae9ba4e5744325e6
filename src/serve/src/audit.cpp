#include "qbarren/serve/audit.hpp"

#include <algorithm>

#include "qbarren/serve/service.hpp"

namespace qbarren::serve {

namespace {

/// Appends the process-wide options-table findings for `kind`, minus any
/// rule `lint` disables.
void append_table_findings(Diagnostics& out, SpecKind kind,
                           const LintOptions& lint) {
  for (const Diagnostic& finding : options_table_findings(kind)) {
    if (std::ranges::find(lint.disabled_codes, finding.code) ==
        lint.disabled_codes.end()) {
      out.push_back(finding);
    }
  }
}

}  // namespace

StreamGraph request_stream_graph(const RequestSpec& spec) {
  const std::string label = "request:" + spec.id;
  switch (spec.kind) {
    case SpecKind::kVariance:
      return variance_stream_graph(spec.variance, label);
    case SpecKind::kTraining:
      return training_stream_graph(spec.training, label);
  }
  return variance_stream_graph(spec.variance, label);
}

const Diagnostics& options_table_findings(SpecKind kind) {
  static const Diagnostics variance = audit_fingerprint_probes(
      options_table_probes(kVarianceOptionsTable), "variance");
  static const Diagnostics training = audit_fingerprint_probes(
      options_table_probes(kTrainingOptionsTable), "training");
  return kind == SpecKind::kVariance ? variance : training;
}

Diagnostics audit_request(const RequestSpec& spec, const LintOptions& lint) {
  Diagnostics out = audit_stream_graph(request_stream_graph(spec), lint);
  append_table_findings(out, spec.kind, lint);
  return out;
}

Diagnostics audit_requests(const std::vector<RequestSpec>& specs,
                           const LintOptions& lint) {
  // QD100/QD103 per graph plus QD101 across requests comes from the graph
  // collection; each request's options-table findings are appended after.
  std::vector<StreamGraph> graphs;
  graphs.reserve(specs.size());
  for (const RequestSpec& spec : specs) {
    graphs.push_back(request_stream_graph(spec));
  }
  Diagnostics out = audit_stream_graphs(graphs, lint);
  for (const RequestSpec& spec : specs) {
    append_table_findings(out, spec.kind, lint);
  }
  return out;
}

StoreAuditOptions store_expectations(const RequestSpec& spec,
                                     bool cache_store) {
  StoreAuditOptions expectations;
  for (const PlanCell& cell : request_cell_plan(spec)) {
    expectations.expected_cells.push_back(cell.key);
  }
  if (cache_store) {
    expectations.expected_fingerprint = ExperimentService::kCacheFingerprint;
    expectations.cell_namespace = spec_fingerprint(spec) + "|";
  } else {
    expectations.expected_fingerprint = spec_fingerprint(spec);
  }
  return expectations;
}

}  // namespace qbarren::serve
