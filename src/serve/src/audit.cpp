#include "qbarren/serve/audit.hpp"

#include <utility>

#include "qbarren/serve/service.hpp"

namespace qbarren::serve {

namespace {

std::string wire_encoding(SpecKind kind,
                          const VarianceExperimentOptions& variance,
                          const TrainingExperimentOptions& training) {
  switch (kind) {
    case SpecKind::kVariance: return variance_options_to_json(variance).dump(0);
    case SpecKind::kTraining: return training_options_to_json(training).dump(0);
  }
  return variance_options_to_json(variance).dump(0);
}

/// Fingerprint of the options after a full wire round-trip (encode →
/// parse → decode) — what a worker process would actually compute under.
std::string roundtrip_fingerprint(SpecKind kind,
                                  const VarianceExperimentOptions& variance,
                                  const TrainingExperimentOptions& training) {
  switch (kind) {
    case SpecKind::kVariance:
      return options_fingerprint(variance_options_from_json(
          parse_json(variance_options_to_json(variance).dump(0))));
    case SpecKind::kTraining:
      return options_fingerprint(training_options_from_json(
          parse_json(training_options_to_json(training).dump(0))));
  }
  return options_fingerprint(variance);
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

std::vector<FingerprintProbe> request_fingerprint_probes(
    const RequestSpec& spec) {
  std::vector<FingerprintProbe> probes;
  const std::string wire_base =
      wire_encoding(spec.kind, spec.variance, spec.training);
  switch (spec.kind) {
    case SpecKind::kVariance: {
      probes = variance_fingerprint_probes(spec.variance);
      const std::vector<VariancePerturbation> perturbations =
          variance_perturbations(spec.variance);
      for (FingerprintProbe& probe : probes) {
        for (const VariancePerturbation& p : perturbations) {
          if (p.field != probe.field) continue;
          probe.wire_base = wire_base;
          probe.wire_perturbed =
              wire_encoding(spec.kind, p.options, spec.training);
          probe.wire_roundtrip =
              roundtrip_fingerprint(spec.kind, p.options, spec.training);
          break;
        }
      }
      break;
    }
    case SpecKind::kTraining: {
      probes = training_fingerprint_probes(spec.training);
      const std::vector<TrainingPerturbation> perturbations =
          training_perturbations(spec.training);
      for (FingerprintProbe& probe : probes) {
        for (const TrainingPerturbation& p : perturbations) {
          if (p.field != probe.field) continue;
          probe.wire_base = wire_base;
          probe.wire_perturbed =
              wire_encoding(spec.kind, spec.variance, p.options);
          probe.wire_roundtrip =
              roundtrip_fingerprint(spec.kind, spec.variance, p.options);
          break;
        }
      }
      break;
    }
  }
  return probes;
}

Diagnostics audit_request(const RequestSpec& spec, const LintOptions& lint) {
  Diagnostics out = audit_stream_graph(request_stream_graph(spec), lint);
  Diagnostics probes = audit_fingerprint_probes(
      request_fingerprint_probes(spec), "request:" + spec.id, lint);
  out.insert(out.end(), std::make_move_iterator(probes.begin()),
             std::make_move_iterator(probes.end()));
  return out;
}

Diagnostics audit_requests(const std::vector<RequestSpec>& specs,
                           const LintOptions& lint) {
  // QD100/QD103 per graph plus QD101 across requests comes from the graph
  // collection; the per-request fingerprint probes are appended after.
  std::vector<StreamGraph> graphs;
  graphs.reserve(specs.size());
  for (const RequestSpec& spec : specs) {
    graphs.push_back(request_stream_graph(spec));
  }
  Diagnostics out = audit_stream_graphs(graphs, lint);
  for (const RequestSpec& spec : specs) {
    Diagnostics probes = audit_fingerprint_probes(
        request_fingerprint_probes(spec), "request:" + spec.id, lint);
    out.insert(out.end(), std::make_move_iterator(probes.begin()),
               std::make_move_iterator(probes.end()));
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
