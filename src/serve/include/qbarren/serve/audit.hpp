// Static determinism audit of serve requests — the analysis→serve bridge.
//
// The serve layer's core claim is "byte-identical to the serial runner at
// any shard count and crash schedule". That claim has three static
// preconditions the stream-graph auditor (analysis/stream_graph.hpp) can
// verify before any worker is forked:
//
//   1. the request's RNG stream graph is collision-free (QD100) and its
//      cell enumeration is key-unique (QD103) — otherwise resume/cache
//      restore aliases cells;
//   2. the options fingerprint moves under every result-affecting field
//      (QD102) — otherwise the shared result cache serves stale cells
//      across requests;
//   3. the worker-visible options encoding carries every fingerprinted
//      field and round-trips it exactly (QD103 wire probes) — otherwise a
//      worker computes under defaults while the cache files the result
//      under the perturbed fingerprint: cache poisoning.
//
// 2 and 3 hold or fail for the options tables (bp/options_table.hpp) as a
// whole, whatever the request's values, so they are checked once per
// process (options_table_findings) and each request adds only its own
// stream-graph audit. audit_request runs all three; the service merges its
// findings into admission control (errors reject the request, exit code 3,
// same as the physical-feasibility admission_check), and
// `qbarren audit --request` runs it offline.
#pragma once

#include "qbarren/analysis/store_audit.hpp"
#include "qbarren/analysis/stream_graph.hpp"
#include "qbarren/serve/protocol.hpp"

namespace qbarren::serve {

/// Stream derivation graph of the request's underlying experiment,
/// labelled "request:<id>", built from the request_cell_plan the service
/// dispatches.
[[nodiscard]] StreamGraph request_stream_graph(const RequestSpec& spec);

/// QD102/QD103 over the options table of `kind`, computed once per
/// process; locations name the table ("variance option layers").
[[nodiscard]] const Diagnostics& options_table_findings(SpecKind kind);

/// The full static determinism audit of one request: stream-graph rules
/// (QD100/QD103) under `lint`, then options_table_findings(spec.kind)
/// (QD102, QD103 wire coverage) minus the codes `lint` disables. Error
/// findings mean the request must not run.
[[nodiscard]] Diagnostics audit_request(const RequestSpec& spec,
                                        const LintOptions& lint = {});

/// As audit_request across several requests, adding QD101 across their
/// graphs: requests presented as independent must not share root seeds.
[[nodiscard]] Diagnostics audit_requests(
    const std::vector<RequestSpec>& specs, const LintOptions& lint = {});

/// What a store serving this request should contain — feeds
/// `qbarren fsck --request`. `cache_store` selects the shared result
/// cache layout (ExperimentService::kCacheFingerprint as the store
/// fingerprint, cells namespaced "<spec_fingerprint>|<cell>") over the
/// per-run checkpoint layout (spec fingerprint, bare cell keys).
[[nodiscard]] StoreAuditOptions store_expectations(const RequestSpec& spec,
                                                   bool cache_store);

}  // namespace qbarren::serve
