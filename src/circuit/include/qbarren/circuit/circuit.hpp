// Parameterized circuit intermediate representation.
//
// A `Circuit` is an ordered list of operations on a fixed-width register.
// Parameterized rotations reference an entry of the external parameter
// vector by index; executing the circuit (exec::simulate, which runs its
// compiled plan) binds a caller-supplied parameter vector. This separation
// (structure vs parameters) is what the paper's experiments need: the same
// circuit is evaluated at shifted parameters (parameter-shift rule) and
// re-initialized by different strategies.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "qbarren/qsim/gates.hpp"
#include "qbarren/qsim/statevector.hpp"

namespace qbarren {

/// Interface of a compiled execution plan (the exec layer's lowered form of
/// a circuit). Declared here so a `Circuit` can carry an attached plan as
/// opaque derived data without the circuit layer depending on exec; the
/// only concrete implementation is `CompiledCircuit` in
/// qbarren/exec/compiled_circuit.hpp.
class ExecutionPlan {
 public:
  virtual ~ExecutionPlan() = default;

  /// Sentinel for "no operation consumes this parameter".
  static constexpr std::size_t kNoOperation = static_cast<std::size_t>(-1);

  /// Index, into the source circuit's operations(), of the first operation
  /// that consumes `param_index`; kNoOperation when none does.
  [[nodiscard]] virtual std::size_t source_op_for_parameter(
      std::size_t param_index) const noexcept = 0;
};

namespace detail {

/// Holds a circuit's attached execution plan behind a mutex so concurrent
/// readers (the parallel experiment executor simulates shared circuits
/// from many threads) are safe. Copying a circuit copies the attachment —
/// the plan is immutable and describes the same operation list. The lock
/// guards only the const paths: clear() serves non-const mutation, which
/// already has the circuit to itself.
class ExecutionPlanSlot {
 public:
  ExecutionPlanSlot() = default;
  ExecutionPlanSlot(const ExecutionPlanSlot& other) : plan_(other.get()) {}
  ExecutionPlanSlot& operator=(const ExecutionPlanSlot& other) {
    if (this != &other) set(other.get());
    return *this;
  }

  [[nodiscard]] std::shared_ptr<const ExecutionPlan> get() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return plan_;
  }
  void set(std::shared_ptr<const ExecutionPlan> plan) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    plan_ = std::move(plan);
  }
  /// Detaches without locking. Only for a caller with exclusive access to
  /// the owning circuit (a non-const member): no other thread may be
  /// reading or attaching concurrently, as for the operation list itself.
  void clear() noexcept { plan_.reset(); }

 private:
  mutable std::mutex mutex_;
  mutable std::shared_ptr<const ExecutionPlan> plan_;
};

}  // namespace detail

enum class OpKind {
  kRotation,   ///< parameterized R_axis(theta_i) on one qubit
  kFixedRotation,  ///< R_axis(angle) with a literal, non-trainable angle
  kControlledRotation,  ///< parameterized controlled-R_axis (control =
                        ///< qubit0, target = qubit1). NOTE: the two-term
                        ///< parameter-shift rule is NOT exact for these;
                        ///< ParameterShiftEngine applies the four-term
                        ///< rule automatically.
  kHadamard,
  kPauliX,
  kPauliY,
  kPauliZ,
  kSGate,
  kTGate,
  kCz,
  kCnot,
  kSwap,
  kCustomSingle,  ///< caller-supplied 2x2 matrix (see Circuit::add_custom_gate)
  kCustomTwo,     ///< caller-supplied 4x4 matrix on an ordered qubit pair
};

/// True for two-qubit op kinds.
[[nodiscard]] bool is_two_qubit(OpKind kind) noexcept;

/// True when the op consumes a trainable parameter.
[[nodiscard]] bool is_parameterized(OpKind kind) noexcept;

struct Operation {
  OpKind kind = OpKind::kRotation;
  gates::Axis axis = gates::Axis::kX;  ///< rotation axis (rotation kinds only)
  std::size_t qubit0 = 0;              ///< target / first qubit
  std::size_t qubit1 = 0;              ///< second qubit (two-qubit kinds only)
  std::size_t param_index = 0;         ///< parameterized kinds only
  double fixed_angle = 0.0;            ///< kFixedRotation only
  std::size_t custom_index = 0;        ///< kCustom*: index into custom_gates()
};

/// A caller-supplied gate matrix referenced by kCustomSingle / kCustomTwo
/// operations. The matrix is stored exactly as given: dimensions and
/// unitarity are intentionally NOT validated at insertion, so that static
/// analysis (lint rule QB006) can flag inconsistent definitions before any
/// simulation runs; compiling the circuit for execution validates the
/// dimensions and throws InvalidArgument there.
struct CustomGate {
  std::string name;       ///< label used in listings and diagnostics
  ComplexMatrix matrix;   ///< 2x2 (single) or 4x4 (two-qubit) when valid
};

/// Layer-tensor shape metadata attached by ansatz builders: the parameter
/// vector is conceptually a (layers x params_per_layer) tensor. Classical
/// initializers use this as the fan-in/fan-out of each "layer".
struct LayerShape {
  std::size_t layers = 0;
  std::size_t params_per_layer = 0;
};

class Circuit {
 public:
  explicit Circuit(std::size_t num_qubits);

  [[nodiscard]] std::size_t num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t num_parameters() const noexcept {
    return num_params_;
  }
  [[nodiscard]] std::size_t num_operations() const noexcept {
    return ops_.size();
  }
  [[nodiscard]] const std::vector<Operation>& operations() const noexcept {
    return ops_;
  }

  /// Number of two-qubit operations (entangling gate count).
  [[nodiscard]] std::size_t two_qubit_gate_count() const noexcept;

  /// Circuit depth: length of the longest chain of operations that share
  /// qubits (the standard "layers after greedy parallelization" metric).
  /// 0 for an empty circuit.
  [[nodiscard]] std::size_t depth() const;

  /// The operation that consumes `param_index` (gradient engines use this
  /// to select the correct shift rule). Throws NotFound when no operation
  /// uses the index (possible only for hand-built inconsistent indices).
  [[nodiscard]] const Operation& operation_for_parameter(
      std::size_t param_index) const;

  /// Layer-tensor shape if an ansatz builder recorded one.
  [[nodiscard]] const std::optional<LayerShape>& layer_shape() const noexcept {
    return layer_shape_;
  }
  void set_layer_shape(LayerShape shape);

  // --- building ------------------------------------------------------------

  /// Reserves room for `count` operations, so a builder that knows its
  /// final size leaves the operation list at exact capacity.
  void reserve_operations(std::size_t count) { ops_.reserve(count); }

  /// Appends a trainable rotation; returns its parameter index.
  std::size_t add_rotation(gates::Axis axis, std::size_t qubit);

  /// Appends a trainable controlled rotation (R_axis on `target` when
  /// `control` is |1>); returns its parameter index.
  std::size_t add_controlled_rotation(gates::Axis axis, std::size_t control,
                                      std::size_t target);

  /// Appends a rotation with a literal angle (not trainable).
  void add_fixed_rotation(gates::Axis axis, std::size_t qubit, double angle);

  void add_hadamard(std::size_t qubit);
  void add_pauli_x(std::size_t qubit);
  void add_pauli_y(std::size_t qubit);
  void add_pauli_z(std::size_t qubit);
  void add_s(std::size_t qubit);
  void add_t(std::size_t qubit);
  void add_cz(std::size_t a, std::size_t b);
  void add_cnot(std::size_t control, std::size_t target);
  void add_swap(std::size_t a, std::size_t b);

  /// Appends a fixed gate with a caller-supplied matrix on one qubit. The
  /// matrix should be 2x2 unitary; neither is checked here (see CustomGate
  /// — lint rule QB006 performs the static check, compilation enforces the
  /// dimensions).
  void add_custom_gate(std::string name, ComplexMatrix matrix,
                       std::size_t qubit);

  /// Appends a fixed two-qubit gate with a caller-supplied matrix. The
  /// matrix's bit 0 corresponds to `q_low`; requires q_low < q_high. The
  /// matrix should be 4x4 unitary (unchecked, as above).
  void add_custom_two_qubit_gate(std::string name, ComplexMatrix matrix,
                                 std::size_t q_low, std::size_t q_high);

  /// Custom-gate table referenced by kCustomSingle / kCustomTwo ops.
  [[nodiscard]] const std::vector<CustomGate>& custom_gates() const noexcept {
    return custom_gates_;
  }

  /// The custom gate an operation references; requires a custom kind.
  [[nodiscard]] const CustomGate& custom_gate(const Operation& op) const;

  // --- dense matrices ------------------------------------------------------
  //
  // Execution itself lives in the exec layer: exec::simulate(circuit,
  // params) runs the circuit's compiled plan.

  /// Dense 2^n x 2^n unitary of the bound circuit (reference path for
  /// tests; exponential in width).
  [[nodiscard]] ComplexMatrix unitary(std::span<const double> params) const;

  /// Dense matrix of the single operation at `op_index` (2x2 or 4x4,
  /// matrix bit 0 = qubit0). Shared by the noisy simulator and the dense
  /// reference path.
  [[nodiscard]] ComplexMatrix operation_matrix(
      std::size_t op_index, std::span<const double> params) const;

  // --- execution plan (exec layer cache) -----------------------------------

  /// The attached compiled plan, or nullptr. Plans are derived data: they
  /// change how fast the circuit executes, never what it computes.
  [[nodiscard]] std::shared_ptr<const ExecutionPlan> execution_plan() const {
    return plan_slot_.get();
  }

  /// Attaches a compiled plan (nullptr detaches). Const because the plan
  /// is a cache keyed on the circuit's structure; any structural mutation
  /// (add_*) detaches it automatically. Thread-safe.
  void attach_execution_plan(std::shared_ptr<const ExecutionPlan> plan) const {
    plan_slot_.set(std::move(plan));
  }

 private:
  void check_qubit(std::size_t q) const;
  void invalidate_execution_plan() noexcept { plan_slot_.clear(); }
  void push_op(const Operation& op);
  [[nodiscard]] ComplexMatrix op_matrix(const Operation& op,
                                        std::span<const double> params) const;

  std::size_t num_qubits_ = 0;
  std::size_t num_params_ = 0;
  std::vector<Operation> ops_;
  std::vector<CustomGate> custom_gates_;
  std::optional<LayerShape> layer_shape_;
  detail::ExecutionPlanSlot plan_slot_;
};

}  // namespace qbarren
