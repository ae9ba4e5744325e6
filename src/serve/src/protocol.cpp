#include "qbarren/serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qbarren/common/error.hpp"
#include "qbarren/init/registry.hpp"

namespace qbarren::serve {

namespace {

/// Rejects unknown members so a typo'd option name fails the request
/// instead of silently running with the default.
void check_keys(const JsonValue& object,
                std::initializer_list<const char*> allowed,
                const std::string& where) {
  for (const std::string& key : object.keys()) {
    const bool known =
        std::any_of(allowed.begin(), allowed.end(),
                    [&key](const char* a) { return key == a; });
    if (!known) {
      throw InvalidArgument("request: unknown key '" + key + "' in " + where);
    }
  }
}

std::size_t get_size(const JsonValue& object, const char* key,
                     std::size_t fallback) {
  if (!object.contains(key)) return fallback;
  const std::int64_t v = object.at(key).as_integer();
  if (v < 0) {
    throw InvalidArgument(std::string("request: '") + key +
                          "' must be non-negative");
  }
  return static_cast<std::size_t>(v);
}

std::uint64_t get_u64(const JsonValue& object, const char* key,
                      std::uint64_t fallback) {
  if (!object.contains(key)) return fallback;
  return static_cast<std::uint64_t>(object.at(key).as_integer());
}

double get_double(const JsonValue& object, const char* key, double fallback) {
  if (!object.contains(key)) return fallback;
  return object.at(key).as_number();
}

bool get_bool(const JsonValue& object, const char* key, bool fallback) {
  if (!object.contains(key)) return fallback;
  return object.at(key).as_bool();
}

std::string get_string(const JsonValue& object, const char* key,
                       std::string fallback) {
  if (!object.contains(key)) return fallback;
  return object.at(key).as_string();
}

const char* gradient_parameter_name(GradientParameter p) noexcept {
  switch (p) {
    case GradientParameter::kLast: return "last";
    case GradientParameter::kMiddle: return "middle";
    case GradientParameter::kFirst: return "first";
  }
  return "last";
}

GradientParameter gradient_parameter_from_name(const std::string& name) {
  if (name == "last") return GradientParameter::kLast;
  if (name == "middle") return GradientParameter::kMiddle;
  if (name == "first") return GradientParameter::kFirst;
  throw NotFound("request: unknown which_parameter '" + name + "'");
}

const char* non_finite_policy_name(NonFinitePolicy p) noexcept {
  switch (p) {
    case NonFinitePolicy::kThrow: return "throw";
    case NonFinitePolicy::kAbortSeries: return "abort";
    case NonFinitePolicy::kFallbackEngine: return "fallback";
  }
  return "throw";
}

NonFinitePolicy non_finite_policy_from_name(const std::string& name) {
  if (name == "throw") return NonFinitePolicy::kThrow;
  if (name == "abort") return NonFinitePolicy::kAbortSeries;
  if (name == "fallback") return NonFinitePolicy::kFallbackEngine;
  throw NotFound("request: unknown non_finite_policy '" + name + "'");
}

const char* entangler_gate_name(EntanglerGate gate) noexcept {
  switch (gate) {
    case EntanglerGate::kCz: return "cz";
    case EntanglerGate::kCnot: return "cnot";
  }
  return "cz";
}

EntanglerGate entangler_gate_from_name(const std::string& name) {
  if (name == "cz") return EntanglerGate::kCz;
  if (name == "cnot") return EntanglerGate::kCnot;
  throw NotFound("request: unknown entangler '" + name + "'");
}

const char* entangler_topology_name(EntanglerTopology topology) noexcept {
  switch (topology) {
    case EntanglerTopology::kLinear: return "linear";
    case EntanglerTopology::kRing: return "ring";
    case EntanglerTopology::kAllToAll: return "all-to-all";
  }
  return "linear";
}

EntanglerTopology entangler_topology_from_name(const std::string& name) {
  if (name == "linear") return EntanglerTopology::kLinear;
  if (name == "ring") return EntanglerTopology::kRing;
  if (name == "all-to-all") return EntanglerTopology::kAllToAll;
  throw NotFound("request: unknown topology '" + name + "'");
}

}  // namespace

const char* spec_kind_name(SpecKind kind) noexcept {
  switch (kind) {
    case SpecKind::kVariance: return "variance";
    case SpecKind::kTraining: return "training";
  }
  return "variance";
}

SpecKind spec_kind_from_name(const std::string& name) {
  if (name == "variance") return SpecKind::kVariance;
  if (name == "training") return SpecKind::kTraining;
  throw NotFound("request: unknown kind '" + name + "'");
}

JsonValue variance_options_to_json(const VarianceExperimentOptions& options) {
  JsonValue out = JsonValue::object();
  JsonValue counts = JsonValue::array();
  for (const std::size_t q : options.qubit_counts) {
    counts.push_back(JsonValue::integer(static_cast<std::int64_t>(q)));
  }
  out.set("qubit_counts", std::move(counts));
  out.set("circuits_per_point", options.circuits_per_point);
  out.set("layers", options.layers);
  out.set("cost", cost_kind_name(options.cost));
  out.set("seed", static_cast<std::int64_t>(options.seed));
  out.set("entangle", options.entangle);
  out.set("gradient_engine", options.gradient_engine);
  out.set("which_parameter",
          gradient_parameter_name(options.which_parameter));
  // entangler/topology are part of the options fingerprint, so they MUST
  // cross the wire: a worker blind to them would compute under the default
  // gate/topology while the cache files the result under the perturbed
  // fingerprint (the QD103 poisoning scenario qbarren audit checks for).
  out.set("entangler", entangler_gate_name(options.entangler));
  out.set("topology", entangler_topology_name(options.topology));
  out.set("keep_samples", options.keep_samples);
  return out;
}

VarianceExperimentOptions variance_options_from_json(const JsonValue& value) {
  check_keys(value,
             {"qubit_counts", "circuits_per_point", "layers", "cost", "seed",
              "entangle", "gradient_engine", "which_parameter", "entangler",
              "topology", "keep_samples"},
             "variance options");
  VarianceExperimentOptions options;
  if (value.contains("qubit_counts")) {
    const JsonValue& counts = value.at("qubit_counts");
    options.qubit_counts.clear();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const std::int64_t q = counts.at(i).as_integer();
      if (q < 1) {
        throw InvalidArgument("request: qubit_counts entries must be >= 1");
      }
      options.qubit_counts.push_back(static_cast<std::size_t>(q));
    }
  }
  options.circuits_per_point =
      get_size(value, "circuits_per_point", options.circuits_per_point);
  options.layers = get_size(value, "layers", options.layers);
  options.cost =
      cost_kind_from_name(get_string(value, "cost", cost_kind_name(options.cost)));
  options.seed = get_u64(value, "seed", options.seed);
  options.entangle = get_bool(value, "entangle", options.entangle);
  options.gradient_engine =
      get_string(value, "gradient_engine", options.gradient_engine);
  options.which_parameter = gradient_parameter_from_name(get_string(
      value, "which_parameter",
      gradient_parameter_name(options.which_parameter)));
  options.entangler = entangler_gate_from_name(
      get_string(value, "entangler", entangler_gate_name(options.entangler)));
  options.topology = entangler_topology_from_name(get_string(
      value, "topology", entangler_topology_name(options.topology)));
  options.keep_samples = get_bool(value, "keep_samples", options.keep_samples);
  return options;
}

JsonValue training_options_to_json(const TrainingExperimentOptions& options) {
  JsonValue out = JsonValue::object();
  out.set("qubits", options.qubits);
  out.set("layers", options.layers);
  out.set("iterations", options.iterations);
  out.set("learning_rate", options.learning_rate);
  out.set("optimizer", options.optimizer);
  out.set("gradient_engine", options.gradient_engine);
  out.set("cost", cost_kind_name(options.cost));
  out.set("seed", static_cast<std::int64_t>(options.seed));
  out.set("non_finite_policy",
          non_finite_policy_name(options.non_finite_policy));
  if (std::isfinite(options.deadline_seconds)) {
    out.set("deadline_seconds", options.deadline_seconds);
  }
  return out;
}

TrainingExperimentOptions training_options_from_json(const JsonValue& value) {
  check_keys(value,
             {"qubits", "layers", "iterations", "learning_rate", "optimizer",
              "gradient_engine", "cost", "seed", "non_finite_policy",
              "deadline_seconds"},
             "training options");
  TrainingExperimentOptions options;
  options.qubits = get_size(value, "qubits", options.qubits);
  options.layers = get_size(value, "layers", options.layers);
  options.iterations = get_size(value, "iterations", options.iterations);
  options.learning_rate =
      get_double(value, "learning_rate", options.learning_rate);
  options.optimizer = get_string(value, "optimizer", options.optimizer);
  options.gradient_engine =
      get_string(value, "gradient_engine", options.gradient_engine);
  options.cost =
      cost_kind_from_name(get_string(value, "cost", cost_kind_name(options.cost)));
  options.seed = get_u64(value, "seed", options.seed);
  options.non_finite_policy = non_finite_policy_from_name(get_string(
      value, "non_finite_policy",
      non_finite_policy_name(options.non_finite_policy)));
  options.deadline_seconds =
      get_double(value, "deadline_seconds", options.deadline_seconds);
  return options;
}

RequestSpec request_from_json(const JsonValue& value) {
  check_keys(value, {"id", "kind", "options", "control"}, "request");
  RequestSpec spec;
  spec.id = get_string(value, "id", "");
  if (spec.id.empty()) {
    throw InvalidArgument("request: missing or empty 'id'");
  }
  spec.kind = spec_kind_from_name(get_string(value, "kind", ""));
  if (value.contains("options")) {
    switch (spec.kind) {
      case SpecKind::kVariance:
        spec.variance = variance_options_from_json(value.at("options"));
        break;
      case SpecKind::kTraining:
        spec.training = training_options_from_json(value.at("options"));
        break;
    }
  }
  if (value.contains("control")) {
    const JsonValue& control = value.at("control");
    check_keys(control,
               {"max_cell_failures", "max_cell_attempts", "deadline_seconds"},
               "control");
    spec.max_cell_failures =
        get_size(control, "max_cell_failures", spec.max_cell_failures);
    spec.max_cell_attempts =
        get_size(control, "max_cell_attempts", spec.max_cell_attempts);
    if (spec.max_cell_attempts == 0) {
      throw InvalidArgument("request: max_cell_attempts must be >= 1");
    }
    spec.deadline_seconds =
        get_double(control, "deadline_seconds", spec.deadline_seconds);
    if (!(spec.deadline_seconds > 0.0)) {
      throw InvalidArgument("request: deadline_seconds must be positive");
    }
  }
  return spec;
}

JsonValue to_json(const RequestSpec& spec) {
  JsonValue out = JsonValue::object();
  out.set("id", spec.id);
  out.set("kind", spec_kind_name(spec.kind));
  out.set("options", spec.kind == SpecKind::kVariance
                         ? variance_options_to_json(spec.variance)
                         : training_options_to_json(spec.training));
  JsonValue control = JsonValue::object();
  control.set("max_cell_failures", spec.max_cell_failures);
  control.set("max_cell_attempts", spec.max_cell_attempts);
  if (std::isfinite(spec.deadline_seconds)) {
    control.set("deadline_seconds", spec.deadline_seconds);
  }
  out.set("control", std::move(control));
  return out;
}

std::string spec_fingerprint(const RequestSpec& spec) {
  switch (spec.kind) {
    case SpecKind::kVariance: return options_fingerprint(spec.variance);
    case SpecKind::kTraining: return options_fingerprint(spec.training);
  }
  return options_fingerprint(spec.variance);
}

CellPlan request_cell_plan(const RequestSpec& spec) {
  switch (spec.kind) {
    case SpecKind::kVariance:
      return variance_cell_plan(spec.variance, paper_initializer_names());
    case SpecKind::kTraining:
      return training_cell_plan(spec.training, paper_initializer_names());
  }
  return variance_cell_plan(spec.variance, paper_initializer_names());
}

JsonValue to_json(const WorkerJob& job) {
  JsonValue out = JsonValue::object();
  out.set("job", static_cast<std::int64_t>(job.job_id));
  out.set("kind", spec_kind_name(job.kind));
  out.set("options", job.options);
  JsonValue cell = JsonValue::object();
  cell.set("key", job.cell.key);
  cell.set("qubit_index", job.cell.qubit_index);
  cell.set("initializer_index", job.cell.initializer_index);
  out.set("cell", std::move(cell));
  out.set("engine_attempt", job.engine_attempt);
  return out;
}

WorkerJob worker_job_from_json(const JsonValue& value) {
  WorkerJob job;
  job.job_id = static_cast<std::uint64_t>(value.at("job").as_integer());
  job.kind = spec_kind_from_name(value.at("kind").as_string());
  job.options = value.at("options");
  const JsonValue& cell = value.at("cell");
  job.cell.key = cell.at("key").as_string();
  job.cell.qubit_index =
      static_cast<std::size_t>(cell.at("qubit_index").as_integer());
  job.cell.initializer_index =
      static_cast<std::size_t>(cell.at("initializer_index").as_integer());
  job.engine_attempt =
      static_cast<std::size_t>(value.at("engine_attempt").as_integer());
  return job;
}

namespace {

const char* reply_type_name(WorkerReply::Type type) noexcept {
  switch (type) {
    case WorkerReply::Type::kStart: return "start";
    case WorkerReply::Type::kOk: return "ok";
    case WorkerReply::Type::kFail: return "fail";
  }
  return "start";
}

WorkerReply::Type reply_type_from_name(const std::string& name) {
  if (name == "start") return WorkerReply::Type::kStart;
  if (name == "ok") return WorkerReply::Type::kOk;
  if (name == "fail") return WorkerReply::Type::kFail;
  throw NotFound("worker reply: unknown type '" + name + "'");
}

}  // namespace

JsonValue to_json(const WorkerReply& reply) {
  JsonValue out = JsonValue::object();
  out.set("reply", reply_type_name(reply.type));
  out.set("job", static_cast<std::int64_t>(reply.job_id));
  out.set("cell", reply.cell_key);
  switch (reply.type) {
    case WorkerReply::Type::kStart:
      break;
    case WorkerReply::Type::kOk:
      out.set("payload", reply.payload);
      break;
    case WorkerReply::Type::kFail:
      out.set("error", reply.error);
      out.set("message", reply.message);
      break;
  }
  return out;
}

WorkerReply worker_reply_from_json(const JsonValue& value) {
  WorkerReply reply;
  reply.type = reply_type_from_name(value.at("reply").as_string());
  reply.job_id = static_cast<std::uint64_t>(value.at("job").as_integer());
  reply.cell_key = value.at("cell").as_string();
  switch (reply.type) {
    case WorkerReply::Type::kStart:
      break;
    case WorkerReply::Type::kOk:
      reply.payload = value.at("payload").as_string();
      break;
    case WorkerReply::Type::kFail:
      reply.error = value.at("error").as_string();
      reply.message = value.at("message").as_string();
      break;
  }
  return reply;
}

std::string ndjson_line(const JsonValue& value) { return value.dump(0) + "\n"; }

}  // namespace qbarren::serve
