#include "qbarren/serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qbarren/bp/options_table.hpp"
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

double get_double(const JsonValue& object, const char* key, double fallback) {
  if (!object.contains(key)) return fallback;
  return object.at(key).as_number();
}

std::string get_string(const JsonValue& object, const char* key,
                       std::string fallback) {
  if (!object.contains(key)) return fallback;
  return object.at(key).as_string();
}

}  // namespace

constexpr EnumNames<SpecKind, 2> kSpecKindNames{{"variance", "training"},
                                                 "request: unknown kind"};

const char* spec_kind_name(SpecKind kind) noexcept {
  return kSpecKindNames.name(kind);
}

SpecKind spec_kind_from_name(const std::string& name) {
  return kSpecKindNames.parse(name);
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
        spec.variance =
            options_from_json(kVarianceOptionsTable, value.at("options"));
        break;
      case SpecKind::kTraining:
        spec.training =
            options_from_json(kTrainingOptionsTable, value.at("options"));
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
  out.set("options",
          spec.kind == SpecKind::kVariance
              ? options_to_json(kVarianceOptionsTable, spec.variance)
              : options_to_json(kTrainingOptionsTable, spec.training));
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

constexpr EnumNames<WorkerReply::Type, 3> kReplyTypeNames{
    {"start", "ok", "fail"}, "worker reply: unknown type"};

}  // namespace

JsonValue to_json(const WorkerReply& reply) {
  JsonValue out = JsonValue::object();
  out.set("reply", kReplyTypeNames.name(reply.type));
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
  reply.type = kReplyTypeNames.parse(value.at("reply").as_string());
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
