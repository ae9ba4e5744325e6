#include "qbarren/analysis/plan_verify.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "qbarren/linalg/checks.hpp"

namespace qbarren {
namespace {

using exec::CompiledCircuit;
using Kernel = CompiledCircuit::Kernel;
using PlanOp = CompiledCircuit::PlanOp;

constexpr std::size_t kNoOp = ExecutionPlan::kNoOperation;

ComplexMatrix to_matrix(const gates::Mat2& m) {
  ComplexMatrix out(2, 2);
  out(0, 0) = m.m00;
  out(0, 1) = m.m01;
  out(1, 0) = m.m10;
  out(1, 1) = m.m11;
  return out;
}

std::string pool_location(const char* pool, std::size_t index) {
  std::ostringstream loc;
  loc << pool << "[" << index << "]";
  return loc.str();
}

std::string plan_op_location(std::size_t index) {
  return "plan op " + std::to_string(index);
}

const char* kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kRotation: return "kRotation";
    case Kernel::kControlledRotation: return "kControlledRotation";
    case Kernel::kFixedSingle: return "kFixedSingle";
    case Kernel::kFusedSingle: return "kFusedSingle";
    case Kernel::kCnot: return "kCnot";
    case Kernel::kCzGate: return "kCzGate";
    case Kernel::kFixedTwo: return "kFixedTwo";
    case Kernel::kCzLadder: return "kCzLadder";
  }
  return "<unknown kernel>";
}

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kRotation: return "kRotation";
    case OpKind::kFixedRotation: return "kFixedRotation";
    case OpKind::kControlledRotation: return "kControlledRotation";
    case OpKind::kHadamard: return "kHadamard";
    case OpKind::kPauliX: return "kPauliX";
    case OpKind::kPauliY: return "kPauliY";
    case OpKind::kPauliZ: return "kPauliZ";
    case OpKind::kSGate: return "kSGate";
    case OpKind::kTGate: return "kTGate";
    case OpKind::kCz: return "kCz";
    case OpKind::kCnot: return "kCnot";
    case OpKind::kSwap: return "kSwap";
    case OpKind::kCustomSingle: return "kCustomSingle";
    case OpKind::kCustomTwo: return "kCustomTwo";
  }
  return "<unknown kind>";
}

/// True for source kinds the compiler lowers to kFixedSingle / a fused run:
/// constant gates on one qubit.
bool is_constant_single(OpKind kind) {
  switch (kind) {
    case OpKind::kFixedRotation:
    case OpKind::kHadamard:
    case OpKind::kPauliX:
    case OpKind::kPauliY:
    case OpKind::kPauliZ:
    case OpKind::kSGate:
    case OpKind::kTGate:
    case OpKind::kCustomSingle:
      return true;
    default:
      return false;
  }
}

bool is_custom(OpKind kind) {
  return kind == OpKind::kCustomSingle || kind == OpKind::kCustomTwo;
}

/// A custom op whose stored matrix has the wrong dimensions for its kind.
/// compile() refuses such circuits, so any plan claiming to cover one is
/// itself the defect (QP106); every other check skips the op.
bool custom_matrix_malformed(const Circuit& circuit, const Operation& op) {
  if (!is_custom(op.kind)) return false;
  const std::size_t dim = op.kind == OpKind::kCustomSingle ? 2 : 4;
  const ComplexMatrix& m = circuit.custom_gate(op).matrix;
  return m.rows() != dim || m.cols() != dim;
}

/// Same per-code capping policy as lint.cpp's RuleSink.
class CodeSink {
 public:
  CodeSink(Diagnostics& out, const PlanVerifyOptions& options,
           Severity severity, std::string code)
      : out_(out),
        cap_(options.max_findings_per_code),
        severity_(severity),
        code_(std::move(code)) {}

  void add(std::string message, std::string location,
           std::optional<Severity> severity = std::nullopt) {
    ++total_;
    if (total_ <= cap_) {
      out_.push_back({severity.value_or(severity_), code_, std::move(message),
                      std::move(location)});
    }
  }

  ~CodeSink() {
    if (total_ > cap_) {
      std::string message = "... and ";
      message += std::to_string(total_ - cap_);
      message += " more ";
      message += code_;
      message += " finding(s) suppressed (max_findings_per_code = ";
      message += std::to_string(cap_);
      message += ")";
      out_.push_back({severity_, code_, std::move(message), ""});
    }
  }

  CodeSink(const CodeSink&) = delete;
  CodeSink& operator=(const CodeSink&) = delete;

 private:
  Diagnostics& out_;
  std::size_t cap_;
  std::size_t total_ = 0;
  Severity severity_;
  std::string code_;
};

/// Which source kinds reference each pool entry. Valid plans intern one
/// (kind, axis, angle, custom-gate) combination per entry, so the two
/// flags are mutually exclusive there; a corrupted plan may set both.
struct PoolReferences {
  std::vector<bool> builtin2, custom2;
  std::vector<bool> builtin4, custom4;
};

PoolReferences collect_pool_references(const Circuit& circuit,
                                       const CompiledCircuit& plan) {
  const auto pool = plan.matrix_pool();
  const auto& ops = circuit.operations();
  PoolReferences refs;
  refs.builtin2.assign(pool.single.size(), false);
  refs.custom2.assign(pool.single.size(), false);
  refs.builtin4.assign(pool.two.size(), false);
  refs.custom4.assign(pool.two.size(), false);

  auto mark2 = [&](std::size_t index, std::size_t source) {
    if (index >= refs.builtin2.size()) return;  // range errors: QP103/QP105
    const bool custom = source < ops.size() && is_custom(ops[source].kind);
    (custom ? refs.custom2 : refs.builtin2)[index] = true;
  };
  auto mark4 = [&](std::size_t index, std::size_t source) {
    if (index >= refs.builtin4.size()) return;
    const bool custom = source < ops.size() && is_custom(ops[source].kind);
    (custom ? refs.custom4 : refs.builtin4)[index] = true;
  };

  for (const PlanOp& op : plan.plan_ops()) {
    switch (op.kernel) {
      case Kernel::kFixedSingle:
      case Kernel::kCnot:
        mark2(op.matrix, op.source_index);
        break;
      case Kernel::kFusedSingle:
        for (std::size_t j = 0; j < op.fused_count; ++j) {
          const std::size_t slot = op.fused_begin + j;
          if (slot >= pool.fused.size()) break;
          mark2(pool.fused[slot], op.source_index + j);
        }
        break;
      case Kernel::kFixedTwo:
        mark4(op.matrix, op.source_index);
        break;
      case Kernel::kRotation:
      case Kernel::kControlledRotation:
      case Kernel::kCzGate:
      case Kernel::kCzLadder:
        break;  // no pooled matrix
    }
  }
  return refs;
}

// --- QP100: shape agreement -------------------------------------------------

/// Returns false when the parameter counts disagree. The plan's parameter
/// tables cannot then be trusted to hold num_parameters() entries, so the
/// binding checks (QP104), which walk them, must not run.
bool check_shapes(const Circuit& circuit, const CompiledCircuit& plan,
                  const PlanVerifyOptions& options, Diagnostics& out) {
  CodeSink sink(out, options, Severity::kError, "QP100");
  if (plan.num_qubits() != circuit.num_qubits()) {
    std::ostringstream msg;
    msg << "plan is lowered for " << plan.num_qubits()
        << " qubit(s) but the circuit has " << circuit.num_qubits();
    sink.add(msg.str(), "num_qubits");
  }
  const bool params_agree = plan.num_parameters() == circuit.num_parameters();
  if (!params_agree) {
    std::ostringstream msg;
    msg << "plan binds " << plan.num_parameters()
        << " parameter(s) but the circuit has " << circuit.num_parameters();
    sink.add(msg.str(), "num_parameters");
  }
  if (plan.stats().source_ops != circuit.num_operations()) {
    std::ostringstream msg;
    msg << "plan records " << plan.stats().source_ops
        << " source op(s) but the circuit has " << circuit.num_operations();
    sink.add(msg.str(), "source_ops");
  }
  return params_agree;
}

// --- QP101: matrix-pool unitarity -------------------------------------------

void check_pool_unitarity(const Circuit& circuit, const CompiledCircuit& plan,
                          const PoolReferences& refs,
                          const PlanVerifyOptions& options, Diagnostics& out) {
  (void)circuit;
  const auto pool = plan.matrix_pool();
  CodeSink sink(out, options, Severity::kError, "QP101");
  auto report = [&](const char* name, std::size_t i, bool builtin_ref) {
    std::ostringstream msg;
    msg << name << "[" << i << "] is not unitary (max |u^H u - I| exceeds "
        << options.unitarity_tolerance << ")";
    if (!builtin_ref) {
      msg << "; only custom gates (applied verbatim by both execution "
          << "paths) reference it — see QB006 for the modeling problem";
    }
    sink.add(msg.str(), pool_location(name, i),
             builtin_ref ? Severity::kError : Severity::kWarning);
  };
  for (std::size_t i = 0; i < pool.single.size(); ++i) {
    if (!is_unitary(to_matrix(pool.single[i]), options.unitarity_tolerance)) {
      report("pool2", i, refs.builtin2[i]);
    }
  }
  for (std::size_t i = 0; i < pool.two.size(); ++i) {
    const ComplexMatrix& m = pool.two[i];
    if (m.rows() != 4 || m.cols() != 4 ||
        !is_unitary(m, options.unitarity_tolerance)) {
      report("pool4", i, refs.builtin4[i]);
    }
  }
}

// --- QP102: forward / inverse pairing ---------------------------------------

void check_pool_inverses(const Circuit& circuit, const CompiledCircuit& plan,
                         const PoolReferences& refs,
                         const PlanVerifyOptions& options, Diagnostics& out) {
  (void)circuit;
  const auto pool = plan.matrix_pool();
  CodeSink sink(out, options, Severity::kError, "QP102");
  if (pool.single.size() != pool.single_inverse.size()) {
    std::ostringstream msg;
    msg << "forward/inverse 2x2 pools have different sizes ("
        << pool.single.size() << " vs " << pool.single_inverse.size() << ")";
    sink.add(msg.str(), "pool2");
  }
  if (pool.two.size() != pool.two_inverse.size()) {
    std::ostringstream msg;
    msg << "forward/inverse 4x4 pools have different sizes ("
        << pool.two.size() << " vs " << pool.two_inverse.size() << ")";
    sink.add(msg.str(), "pool4");
  }

  // Custom gates invert by adjoint(m), which is the inverse only when m is
  // unitary — the pairing contract is "the adjoint of the source matrix",
  // so the check is the adjoint itself.
  // Everything else: forward x inverse must be the identity.
  const ComplexMatrix identity2 = ComplexMatrix::identity(2);
  const std::size_t n2 = std::min(pool.single.size(),
                                  pool.single_inverse.size());
  for (std::size_t i = 0; i < n2; ++i) {
    const bool referenced = refs.builtin2[i] || refs.custom2[i];
    if (!referenced) continue;  // cannot affect execution
    const ComplexMatrix fwd = to_matrix(pool.single[i]);
    const ComplexMatrix inv = to_matrix(pool.single_inverse[i]);
    if (refs.custom2[i]) {
      if (max_abs_diff(inv, adjoint(fwd)) > options.match_tolerance) {
        sink.add(
            "inverse entry is not the adjoint of its forward entry "
            "(custom gates invert by adjoint)",
            pool_location("pool2", i));
      }
    } else if (max_abs_diff(fwd * inv, identity2) >
               options.product_tolerance) {
      sink.add("forward x inverse deviates from the identity",
               pool_location("pool2", i));
    }
  }
  const ComplexMatrix identity4 = ComplexMatrix::identity(4);
  const std::size_t n4 = std::min(pool.two.size(), pool.two_inverse.size());
  for (std::size_t i = 0; i < n4; ++i) {
    const bool referenced = refs.builtin4[i] || refs.custom4[i];
    if (!referenced) continue;
    const ComplexMatrix& fwd = pool.two[i];
    const ComplexMatrix& inv = pool.two_inverse[i];
    if (fwd.rows() != 4 || fwd.cols() != 4 || inv.rows() != 4 ||
        inv.cols() != 4) {
      sink.add("pool entry is not 4x4", pool_location("pool4", i));
      continue;
    }
    if (refs.custom4[i]) {
      if (max_abs_diff(inv, adjoint(fwd)) > options.match_tolerance) {
        sink.add(
            "inverse entry is not the adjoint of its forward entry "
            "(custom gates invert by adjoint)",
            pool_location("pool4", i));
      }
    } else if (max_abs_diff(fwd * inv, identity4) >
               options.product_tolerance) {
      sink.add("forward x inverse deviates from the identity",
               pool_location("pool4", i));
    }
  }
}

// --- QP103: fusion legality -------------------------------------------------

void check_fusion(const Circuit& circuit, const CompiledCircuit& plan,
                  const PlanVerifyOptions& options, Diagnostics& out) {
  const auto pool = plan.matrix_pool();
  const auto& ops = circuit.operations();
  const auto plan_ops = plan.plan_ops();
  CodeSink sink(out, options, Severity::kError, "QP103");
  for (std::size_t k = 0; k < plan_ops.size(); ++k) {
    const PlanOp& op = plan_ops[k];
    if (op.kernel != Kernel::kFusedSingle) continue;
    if (op.fused_count < 2) {
      std::ostringstream msg;
      msg << "fused run has " << op.fused_count
          << " element(s); runs of fewer than 2 must lower to kFixedSingle";
      sink.add(msg.str(), plan_op_location(k));
      continue;
    }
    if (op.fused_begin + op.fused_count > pool.fused.size()) {
      std::ostringstream msg;
      msg << "fused run [" << op.fused_begin << ", "
          << op.fused_begin + op.fused_count
          << ") exceeds the run list (size " << pool.fused.size() << ")";
      sink.add(msg.str(), plan_op_location(k));
      continue;
    }

    // Pool side: the run applies pool2[fused[begin]], then the next, ...,
    // so the effective matrix is the reversed-order product.
    bool pool_ok = true;
    ComplexMatrix pool_product = ComplexMatrix::identity(2);
    for (std::size_t j = 0; j < op.fused_count; ++j) {
      const std::uint32_t index = pool.fused[op.fused_begin + j];
      if (index >= pool.single.size()) {
        std::ostringstream msg;
        msg << "fused element " << j << " references pool2[" << index
            << "] out of range (pool size " << pool.single.size() << ")";
        sink.add(msg.str(), plan_op_location(k));
        pool_ok = false;
        break;
      }
      pool_product = to_matrix(pool.single[index]) * pool_product;
    }
    if (!pool_ok) continue;

    // Source side: the covered ops must all be constant single-qubit
    // gates (QP105 reports wire/kind mismatches in detail).
    if (op.source_index + op.fused_count > ops.size()) continue;  // QP105
    bool source_ok = true;
    ComplexMatrix source_product = ComplexMatrix::identity(2);
    for (std::size_t j = 0; j < op.fused_count; ++j) {
      const std::size_t i = op.source_index + j;
      if (!is_constant_single(ops[i].kind) ||
          custom_matrix_malformed(circuit, ops[i])) {
        std::ostringstream msg;
        msg << "fused run covers source op " << i << " ("
            << op_kind_name(ops[i].kind)
            << "), which is not a fusable constant single-qubit gate";
        sink.add(msg.str(), plan_op_location(k));
        source_ok = false;
        break;
      }
      source_product = circuit.operation_matrix(i, {}) * source_product;
    }
    if (!source_ok) continue;

    const double deviation = max_abs_diff(pool_product, source_product);
    if (deviation > options.product_tolerance) {
      std::ostringstream msg;
      msg << "fused run product deviates from the source ops' product by "
          << deviation << " (source ops [" << op.source_index << ", "
          << op.source_index + op.fused_count << "))";
      sink.add(msg.str(), plan_op_location(k));
    }
  }
}

// --- QP104: binding-table completeness / bijectivity ------------------------

void check_bindings(const Circuit& circuit, const CompiledCircuit& plan,
                    const PlanVerifyOptions& options, Diagnostics& out) {
  const auto& ops = circuit.operations();
  const auto plan_ops = plan.plan_ops();
  // verify_plan runs this only when the plan's parameter count agrees.
  const std::size_t num_params = circuit.num_parameters();

  std::vector<std::size_t> source_first(num_params, kNoOp);
  std::vector<std::size_t> source_uses(num_params, 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!is_parameterized(ops[i].kind)) continue;
    const std::size_t p = ops[i].param_index;
    if (p >= num_params) continue;  // QP100/QP105 report the shape problem
    if (source_first[p] == kNoOp) source_first[p] = i;
    ++source_uses[p];
  }
  std::vector<std::size_t> plan_first(num_params, kNoOp);
  std::vector<std::size_t> plan_uses(num_params, 0);
  for (std::size_t k = 0; k < plan_ops.size(); ++k) {
    const Kernel kernel = plan_ops[k].kernel;
    if (kernel != Kernel::kRotation && kernel != Kernel::kControlledRotation) {
      continue;
    }
    const std::size_t p = plan_ops[k].param;
    if (p >= num_params) continue;
    if (plan_first[p] == kNoOp) plan_first[p] = k;
    ++plan_uses[p];
  }

  const std::vector<CompiledCircuit::ParamBinding> bindings =
      plan.param_bindings();
  CodeSink sink(out, options, Severity::kError, "QP104");
  for (std::size_t p = 0; p < num_params; ++p) {
    const std::string location = "param " + std::to_string(p);
    if (plan_uses[p] != source_uses[p]) {
      std::ostringstream msg;
      msg << "parameter " << p << " is consumed by " << source_uses[p]
          << " source op(s) but " << plan_uses[p]
          << " parameterized plan op(s)";
      sink.add(msg.str(), location);
    }
    if (p >= bindings.size()) continue;
    if (bindings[p].source_op != source_first[p]) {
      std::ostringstream msg;
      msg << "binding table maps parameter " << p << " to source op ";
      if (bindings[p].source_op == kNoOp) {
        msg << "<none>";
      } else {
        msg << bindings[p].source_op;
      }
      msg << " but its first consumer is ";
      if (source_first[p] == kNoOp) {
        msg << "<none>";
      } else {
        msg << "op " << source_first[p];
      }
      sink.add(msg.str(), location);
    }
    // plan_op is recorded only for uniquely consumed parameters (a second
    // consumer disables prefix reuse, matching compile()'s record_param).
    const std::size_t expected_plan_op =
        (source_uses[p] == 1 && plan_uses[p] == 1) ? plan_first[p] : kNoOp;
    if (bindings[p].plan_op != expected_plan_op) {
      std::ostringstream msg;
      msg << "binding table maps parameter " << p << " to plan op ";
      if (bindings[p].plan_op == kNoOp) {
        msg << "<none>";
      } else {
        msg << bindings[p].plan_op;
      }
      msg << " but its consuming plan op is ";
      if (expected_plan_op == kNoOp) {
        msg << "<none>";
      } else {
        msg << expected_plan_op;
      }
      sink.add(msg.str(), location);
    }
  }
}

// --- QP105: kernel-op coverage ----------------------------------------------

void mismatch(CodeSink& sink, std::size_t k, const PlanOp& plan_op,
              std::size_t i, const Operation& source, const char* what) {
  std::ostringstream msg;
  msg << kernel_name(plan_op.kernel) << " plan op lowering source op " << i
      << " (" << op_kind_name(source.kind) << "): " << what;
  sink.add(msg.str(), plan_op_location(k));
}

/// Checks one (plan op, covered source op) pair: kernel choice, wires,
/// axis, parameter, and the pooled matrix the kernel will actually apply.
void check_op_pair(const Circuit& circuit, const CompiledCircuit& plan,
                   const PlanVerifyOptions& options, CodeSink& sink,
                   std::size_t k, const PlanOp& plan_op, std::size_t j,
                   std::size_t i) {
  const Operation& source = circuit.operations()[i];
  const auto pool = plan.matrix_pool();

  switch (source.kind) {
    case OpKind::kRotation:
      if (plan_op.kernel != Kernel::kRotation) {
        mismatch(sink, k, plan_op, i, source, "wrong kernel");
        return;
      }
      if (plan_op.qubit0 != source.qubit0) {
        mismatch(sink, k, plan_op, i, source, "wrong target qubit");
      }
      if (plan_op.axis != source.axis) {
        mismatch(sink, k, plan_op, i, source, "wrong rotation axis");
      }
      if (plan_op.param != source.param_index) {
        mismatch(sink, k, plan_op, i, source, "wrong parameter index");
      }
      return;

    case OpKind::kControlledRotation:
      if (plan_op.kernel != Kernel::kControlledRotation) {
        mismatch(sink, k, plan_op, i, source, "wrong kernel");
        return;
      }
      if (plan_op.qubit0 != source.qubit0 || plan_op.qubit1 != source.qubit1) {
        mismatch(sink, k, plan_op, i, source,
                 "wrong control/target qubits (qubit0 must be the control)");
      }
      if (plan_op.axis != source.axis) {
        mismatch(sink, k, plan_op, i, source, "wrong rotation axis");
      }
      if (plan_op.param != source.param_index) {
        mismatch(sink, k, plan_op, i, source, "wrong parameter index");
      }
      return;

    case OpKind::kCz:
      if (plan_op.kernel == Kernel::kCzLadder) {
        // Which pair the ladder applies for this op is its mask's business
        // (check_ladder_cover); here the op must be a neighbour pair.
        if (std::max(source.qubit0, source.qubit1) !=
            std::min(source.qubit0, source.qubit1) + 1) {
          mismatch(sink, k, plan_op, i, source,
                   "a CZ ladder covers only neighbour pairs (k, k+1)");
        }
        return;
      }
      if (plan_op.kernel != Kernel::kCzGate) {
        mismatch(sink, k, plan_op, i, source, "wrong kernel");
        return;
      }
      // CZ is symmetric; either qubit order applies the same gate.
      if (std::min(plan_op.qubit0, plan_op.qubit1) !=
              std::min(source.qubit0, source.qubit1) ||
          std::max(plan_op.qubit0, plan_op.qubit1) !=
              std::max(source.qubit0, source.qubit1)) {
        mismatch(sink, k, plan_op, i, source, "wrong qubit pair");
      }
      return;

    case OpKind::kCnot: {
      if (plan_op.kernel != Kernel::kCnot) {
        mismatch(sink, k, plan_op, i, source, "wrong kernel");
        return;
      }
      if (plan_op.qubit0 != source.qubit0 || plan_op.qubit1 != source.qubit1) {
        mismatch(sink, k, plan_op, i, source,
                 "wrong control/target qubits (qubit0 must be the control)");
      }
      if (plan_op.matrix >= pool.single.size()) {
        mismatch(sink, k, plan_op, i, source, "pool2 index out of range");
        return;
      }
      const ComplexMatrix x = to_matrix(pool.single[plan_op.matrix]);
      if (max_abs_diff(x, gates::pauli_x()) > options.match_tolerance) {
        mismatch(sink, k, plan_op, i, source,
                 "pooled matrix is not Pauli-X");
      }
      return;
    }

    case OpKind::kSwap: {
      if (plan_op.kernel != Kernel::kFixedTwo) {
        mismatch(sink, k, plan_op, i, source, "wrong kernel");
        return;
      }
      const auto expected = std::minmax(source.qubit0, source.qubit1);
      if (plan_op.qubit0 != expected.first ||
          plan_op.qubit1 != expected.second) {
        mismatch(sink, k, plan_op, i, source,
                 "wrong qubit pair (must be lowered as (min, max))");
      }
      if (plan_op.matrix >= pool.two.size()) {
        mismatch(sink, k, plan_op, i, source, "pool4 index out of range");
        return;
      }
      const ComplexMatrix& m = pool.two[plan_op.matrix];
      if (m.rows() != 4 || m.cols() != 4 ||
          max_abs_diff(m, gates::swap()) > options.match_tolerance) {
        mismatch(sink, k, plan_op, i, source, "pooled matrix is not SWAP");
      }
      return;
    }

    case OpKind::kCustomTwo: {
      if (custom_matrix_malformed(circuit, source)) return;  // QP106
      if (plan_op.kernel != Kernel::kFixedTwo) {
        mismatch(sink, k, plan_op, i, source, "wrong kernel");
        return;
      }
      if (plan_op.qubit0 != source.qubit0 || plan_op.qubit1 != source.qubit1) {
        mismatch(sink, k, plan_op, i, source, "wrong qubit pair");
      }
      if (plan_op.matrix >= pool.two.size()) {
        mismatch(sink, k, plan_op, i, source, "pool4 index out of range");
        return;
      }
      const ComplexMatrix& m = pool.two[plan_op.matrix];
      if (m.rows() != 4 || m.cols() != 4 ||
          max_abs_diff(m, circuit.custom_gate(source).matrix) >
              options.match_tolerance) {
        mismatch(sink, k, plan_op, i, source,
                 "pooled matrix differs from the custom gate's matrix");
      }
      return;
    }

    default:
      break;  // constant single-qubit kinds, below
  }

  // Constant single-qubit source op: lowered either standalone
  // (kFixedSingle) or as element j of a fused run.
  if (custom_matrix_malformed(circuit, source)) return;  // QP106
  std::size_t pool_index = 0;
  if (plan_op.kernel == Kernel::kFixedSingle) {
    pool_index = plan_op.matrix;
  } else if (plan_op.kernel == Kernel::kFusedSingle) {
    const std::size_t slot = plan_op.fused_begin + j;
    if (slot >= pool.fused.size()) return;  // QP103
    pool_index = pool.fused[slot];
  } else {
    mismatch(sink, k, plan_op, i, source, "wrong kernel");
    return;
  }
  if (plan_op.qubit0 != source.qubit0) {
    mismatch(sink, k, plan_op, i, source, "wrong target qubit");
  }
  if (pool_index >= pool.single.size()) {
    mismatch(sink, k, plan_op, i, source, "pool2 index out of range");
    return;
  }
  const ComplexMatrix pooled = to_matrix(pool.single[pool_index]);
  const ComplexMatrix expected = circuit.operation_matrix(i, {});
  if (max_abs_diff(pooled, expected) > options.match_tolerance) {
    mismatch(sink, k, plan_op, i, source,
             "pooled matrix differs from the source op's matrix");
  }
}

/// A kCzLadder op covering source ops [begin, begin + fused_count) must
/// apply exactly their CZs: its mask holds one bit per covered op, and
/// each covered neighbour CZ's bit is in it. (Since the mask has
/// fused_count bits, the covered pairs are then distinct.)
void check_ladder_cover(const Circuit& circuit, const CompiledCircuit& plan,
                        CodeSink& sink, std::size_t k, const PlanOp& op) {
  const auto ladders = plan.matrix_pool().cz_ladders;
  if (op.matrix >= ladders.size()) {
    std::ostringstream msg;
    msg << "kCzLadder plan op references ladder " << op.matrix
        << " out of range (pool size " << ladders.size() << ")";
    sink.add(msg.str(), plan_op_location(k));
    return;
  }
  const std::uint64_t mask = ladders[op.matrix].mask;
  const auto pairs = static_cast<std::size_t>(std::popcount(mask));
  if (pairs != op.fused_count) {
    std::ostringstream msg;
    msg << "kCzLadder mask names " << pairs << " pair(s) but the op covers "
        << op.fused_count << " source CZ(s)";
    sink.add(msg.str(), plan_op_location(k));
  }
  const auto& ops = circuit.operations();
  std::uint64_t covered = 0;
  for (std::size_t j = 0; j < op.fused_count; ++j) {
    const Operation& source = ops[op.source_index + j];
    const std::size_t low = std::min(source.qubit0, source.qubit1);
    if (source.kind != OpKind::kCz || low >= 64) continue;  // check_op_pair
    const std::uint64_t bit = std::uint64_t{1} << low;
    if ((mask & bit) == 0) {
      std::ostringstream msg;
      msg << "kCzLadder mask lacks the pair (" << low << ", " << low + 1
          << ") of source op " << op.source_index + j;
      sink.add(msg.str(), plan_op_location(k));
    }
    covered |= bit;
  }
  if ((mask & ~covered) != 0) {
    std::ostringstream msg;
    msg << "kCzLadder mask applies CZ(" << std::countr_zero(mask & ~covered)
        << ", " << std::countr_zero(mask & ~covered) + 1
        << "), which no covered source op specifies";
    sink.add(msg.str(), plan_op_location(k));
  }
}

void check_coverage(const Circuit& circuit, const CompiledCircuit& plan,
                    const PlanVerifyOptions& options, Diagnostics& out) {
  const auto& ops = circuit.operations();
  const auto plan_ops = plan.plan_ops();
  CodeSink sink(out, options, Severity::kError, "QP105");
  std::size_t next_source = 0;
  for (std::size_t k = 0; k < plan_ops.size(); ++k) {
    const PlanOp& op = plan_ops[k];
    const bool multi = op.kernel == Kernel::kFusedSingle ||
                       op.kernel == Kernel::kCzLadder;
    const std::size_t count = multi ? op.fused_count : 1;
    const std::size_t begin = op.source_index;
    const std::size_t end = begin + count;
    if (begin != next_source) {
      std::ostringstream msg;
      msg << "plan op covers source ops [" << begin << ", " << end
          << ") but coverage should resume at op " << next_source
          << " (every source op must be lowered exactly once, in order)";
      sink.add(msg.str(), plan_op_location(k));
    }
    next_source = std::max(next_source, end);
    if (end > ops.size()) {
      std::ostringstream msg;
      msg << "plan op covers source ops [" << begin << ", " << end
          << ") past the end of the circuit (" << ops.size()
          << " source ops)";
      sink.add(msg.str(), plan_op_location(k));
      continue;
    }
    for (std::size_t j = 0; j < count; ++j) {
      check_op_pair(circuit, plan, options, sink, k, op, j, begin + j);
    }
    if (op.kernel == Kernel::kCzLadder) {
      check_ladder_cover(circuit, plan, sink, k, op);
    }
  }
  if (next_source != ops.size()) {
    std::ostringstream msg;
    msg << "plan covers source ops [0, " << next_source << ") of "
        << ops.size() << "; the remaining op(s) would never execute";
    sink.add(msg.str(), "plan");
  }
}

// --- QP106: malformed custom gates must not compile --------------------------

void check_custom_fallback(const Circuit& circuit, const CompiledCircuit& plan,
                           const PlanVerifyOptions& options,
                           Diagnostics& out) {
  (void)plan;
  const auto& ops = circuit.operations();
  CodeSink sink(out, options, Severity::kError, "QP106");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!custom_matrix_malformed(circuit, ops[i])) continue;
    const CustomGate& gate = circuit.custom_gate(ops[i]);
    const std::size_t dim = ops[i].kind == OpKind::kCustomSingle ? 2 : 4;
    std::ostringstream msg;
    msg << "a compiled plan exists although custom gate '" << gate.name
        << "' is " << gate.matrix.rows() << "x" << gate.matrix.cols()
        << " (needs " << dim << "x" << dim
        << "): compile() must refuse such circuits, so executing them "
        << "throws the compile error";
    sink.add(msg.str(), "op " + std::to_string(i));
  }
}

// --- QP108: CZ-ladder sign tables ------------------------------------------

void check_ladder_signs(const Circuit& circuit, const CompiledCircuit& plan,
                        const PlanVerifyOptions& options, Diagnostics& out) {
  const auto ladders = plan.matrix_pool().cz_ladders;
  CodeSink sink(out, options, Severity::kError, "QP108");
  const std::size_t q = circuit.num_qubits();
  for (std::size_t l = 0; l < ladders.size(); ++l) {
    const CompiledCircuit::CzLadder& ladder = ladders[l];
    const std::string location = pool_location("cz_ladders", l);
    // Pair (k, k+1) needs k + 1 < q.
    if (q < 2 || (q <= 64 && (ladder.mask >> (q - 1)) != 0)) {
      sink.add("mask names a pair outside the " + std::to_string(q) +
                   "-qubit register",
               location);
    }
    for (std::size_t w = 0; w < exec::kCzLadderSignWords; ++w) {
      if (ladder.signs[w] != exec::cz_ladder_sign_word(ladder.mask, w)) {
        std::ostringstream msg;
        msg << "sign word " << w << " differs from the one its mask implies "
            << "(the pass would negate the wrong amplitudes)";
        sink.add(msg.str(), location);
      }
    }
  }
}

}  // namespace

Diagnostics verify_plan(const Circuit& circuit,
                        const exec::CompiledCircuit& plan,
                        const PlanVerifyOptions& options) {
  Diagnostics out;
  const PoolReferences refs = collect_pool_references(circuit, plan);
  const bool params_agree = check_shapes(circuit, plan, options, out);
  check_pool_unitarity(circuit, plan, refs, options, out);
  check_pool_inverses(circuit, plan, refs, options, out);
  check_fusion(circuit, plan, options, out);
  if (params_agree) check_bindings(circuit, plan, options, out);
  check_coverage(circuit, plan, options, out);
  check_custom_fallback(circuit, plan, options, out);
  check_ladder_signs(circuit, plan, options, out);
  return out;
}

Diagnostics verify_circuit_lowering(const Circuit& circuit,
                                    const PlanVerifyOptions& options) {
  std::shared_ptr<const exec::CompiledCircuit> plan;
  try {
    plan = exec::CompiledCircuit::compile(circuit);
  } catch (const InvalidArgument& error) {
    std::string message = "circuit cannot be lowered (";
    message += error.what();
    message += "); executing the circuit throws this error";
    return {{Severity::kInfo, "QP106", std::move(message), ""}};
  }
  return verify_plan(circuit, *plan, options);
}

PlanResourceEstimate estimate_plan_resources(
    const exec::CompiledCircuit& plan) {
  // Cost model: each kernel is charged the flops it performs. A complex
  // multiply is 6 flops, a complex add 2, an amplitude 16 bytes. A generic
  // 2x2 applied to an amplitude pair is 4 mul + 2 add = 28 flops; a
  // parameterized rotation takes its axis-specialised body, 12 flops per
  // pair (RX/RY: 8 real mul + 4 real add; RZ: 2 complex mul); a 4x4
  // applied to a quadruple is 16 mul + 12 add = 120 flops. Controlled
  // kernels touch only the control-set half of the register; CZ negates
  // the quarter with both bits set, and a CZ ladder makes one pass over
  // the register for all its gates.
  constexpr double kMat2Flops = 28.0;
  constexpr double kRotationFlops = 12.0;
  constexpr double kMat4Flops = 120.0;
  constexpr double kAmpBytes = 16.0;
  const double amps =
      std::ldexp(1.0, static_cast<int>(plan.num_qubits()));
  const double pairs = amps / 2.0;
  const double quads = amps / 4.0;

  PlanResourceEstimate estimate;
  estimate.plan_ops = plan.num_plan_ops();
  estimate.fused_runs = plan.stats().fused_runs;
  estimate.cz_ladders = plan.stats().cz_ladders;
  estimate.cz_ladder_gates = plan.stats().cz_ladder_source_ops;
  for (const PlanOp& op : plan.plan_ops()) {
    switch (op.kernel) {
      case Kernel::kRotation:
        estimate.flops += kRotationFlops * pairs;
        estimate.bytes += 2.0 * amps * kAmpBytes;
        break;
      case Kernel::kFixedSingle:
        estimate.flops += kMat2Flops * pairs;
        estimate.bytes += 2.0 * amps * kAmpBytes;
        break;
      case Kernel::kFusedSingle:
        // One pass over the register regardless of run length — the whole
        // point of fusion: flops scale with the run, bytes do not.
        estimate.flops += static_cast<double>(op.fused_count) * kMat2Flops *
                          pairs;
        estimate.bytes += 2.0 * amps * kAmpBytes;
        break;
      case Kernel::kControlledRotation:
      case Kernel::kCnot:
        estimate.flops += kMat2Flops * quads;
        estimate.bytes += 2.0 * (amps / 2.0) * kAmpBytes;
        break;
      case Kernel::kCzGate:
        estimate.flops += 2.0 * quads;
        estimate.bytes += 2.0 * quads * kAmpBytes;
        break;
      case Kernel::kCzLadder:
        estimate.flops += static_cast<double>(op.fused_count) * 2.0 * quads;
        estimate.bytes += 2.0 * amps * kAmpBytes;
        break;
      case Kernel::kFixedTwo:
        estimate.flops += kMat4Flops * quads;
        estimate.bytes += 2.0 * amps * kAmpBytes;
        break;
    }
  }
  return estimate;
}

PlanVerificationError::PlanVerificationError(const std::string& context,
                                             Diagnostics diagnostics)
    : Error(context + ": " +
            std::to_string(count_severity(diagnostics, Severity::kError)) +
            " error-severity plan-verification finding(s)"),
      diagnostics_(std::move(diagnostics)) {}

ScopedPlanVerification::ScopedPlanVerification(PlanVerifyOptions options)
    : counters_(std::make_shared<Counters>()) {
  const std::shared_ptr<Counters> counters = counters_;
  previous_ = exec::set_plan_attach_hook(
      [counters, options](const Circuit& circuit,
                          const exec::CompiledCircuit& plan) {
        Diagnostics diagnostics = verify_plan(circuit, plan, options);
        counters->plans.fetch_add(1, std::memory_order_relaxed);
        counters->warnings.fetch_add(
            count_severity(diagnostics, Severity::kWarning),
            std::memory_order_relaxed);
        if (has_errors(diagnostics)) {
          throw PlanVerificationError("compiled plan failed verification",
                                      std::move(diagnostics));
        }
      });
}

ScopedPlanVerification::~ScopedPlanVerification() {
  exec::set_plan_attach_hook(std::move(previous_));
}

std::size_t ScopedPlanVerification::plans_verified() const noexcept {
  return counters_->plans.load(std::memory_order_relaxed);
}

std::size_t ScopedPlanVerification::warnings() const noexcept {
  return counters_->warnings.load(std::memory_order_relaxed);
}

}  // namespace qbarren
