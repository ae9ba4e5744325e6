// Tests for compiled multi-qubit Pauli rotations and the HVA builder.
#include "qbarren/circuit/pauli_rotation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "qbarren/exec/cost.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/linalg/checks.hpp"
#include "qbarren/obs/hva.hpp"
#include "qbarren/opt/trainer.hpp"

namespace qbarren {
namespace {

// Dense reference: exp(-i theta/2 P) = cos(theta/2) I - i sin(theta/2) P
// because every Pauli string squares to the identity.
ComplexMatrix pauli_string_matrix(const std::string& paulis) {
  const ComplexMatrix id = ComplexMatrix::identity(1);
  ComplexMatrix out = id;
  for (std::size_t q = paulis.size(); q-- > 0;) {
    ComplexMatrix factor(2, 2);
    switch (paulis[q]) {
      case 'I':
        factor = gates::identity2();
        break;
      case 'X':
        factor = gates::pauli_x();
        break;
      case 'Y':
        factor = gates::pauli_y();
        break;
      case 'Z':
        factor = gates::pauli_z();
        break;
    }
    out = kron(out, factor);
  }
  return out;
}

ComplexMatrix reference_rotation(const std::string& paulis, double theta) {
  const std::size_t dim = std::size_t{1} << paulis.size();
  const ComplexMatrix p = pauli_string_matrix(paulis);
  const Complex c{std::cos(theta / 2.0), 0.0};
  const Complex s{0.0, -std::sin(theta / 2.0)};
  return c * ComplexMatrix::identity(dim) + s * p;
}

class PauliRotationCase : public ::testing::TestWithParam<const char*> {};

TEST_P(PauliRotationCase, CompiledCircuitMatchesMatrixExponential) {
  const std::string paulis = GetParam();
  for (const double theta : {0.0, 0.4, -1.3, M_PI / 2.0, 2.9}) {
    Circuit c(paulis.size());
    const std::size_t param = add_pauli_rotation(c, paulis);
    EXPECT_EQ(param, 0u);
    const ComplexMatrix compiled = c.unitary(std::vector<double>{theta});
    const ComplexMatrix expected = reference_rotation(paulis, theta);
    EXPECT_LT(max_abs_diff(compiled, expected), 1e-10)
        << paulis << " at theta " << theta;
  }
}

INSTANTIATE_TEST_SUITE_P(Strings, PauliRotationCase,
                         ::testing::Values("Z", "X", "Y", "ZZ", "XX", "YY",
                                           "XY", "ZX", "IZ", "ZIZ", "XYZ",
                                           "IXIY"));

TEST(PauliRotation, Validation) {
  Circuit c(2);
  EXPECT_THROW((void)add_pauli_rotation(c, "Z"), InvalidArgument);
  EXPECT_THROW((void)add_pauli_rotation(c, "II"), InvalidArgument);
  EXPECT_THROW((void)add_pauli_rotation(c, "ZA"), InvalidArgument);
}

TEST(PauliRotation, ConsumesOneParameter) {
  Circuit c(3);
  (void)add_pauli_rotation(c, "ZZI");
  (void)add_pauli_rotation(c, "IXX");
  EXPECT_EQ(c.num_parameters(), 2u);
}

TEST(PauliRotation, ParameterShiftIsExact) {
  // The compiled rotation has generator P/2, so the standard two-term
  // shift rule applies.
  Circuit c(2);
  (void)add_pauli_rotation(c, "ZZ");
  c.add_hadamard(0);  // make the cost non-trivial
  const GlobalZeroObservable obs(2);
  const ParameterShiftEngine shift;
  const FiniteDifferenceEngine fd(1e-6);
  const std::vector<double> params{0.8};
  EXPECT_NEAR(shift.gradient(c, obs, params)[0],
              fd.gradient(c, obs, params)[0], 1e-6);
}

TEST(Hva, StructureForTfi) {
  const PauliSumObservable h = transverse_field_ising(4, 1.0, 0.5);
  HvaOptions options;
  options.layers = 3;
  const Circuit c = hva_ansatz(h, options);
  // 3 ZZ + 4 X terms -> 7 parameters per layer.
  EXPECT_EQ(c.num_parameters(), 21u);
  ASSERT_TRUE(c.layer_shape().has_value());
  EXPECT_EQ(c.layer_shape()->params_per_layer, 7u);
  // Hadamard wall present.
  EXPECT_EQ(c.operations()[0].kind, OpKind::kHadamard);
}

TEST(Hva, NoHadamardStart) {
  const PauliSumObservable h = transverse_field_ising(2, 1.0, 1.0);
  HvaOptions options;
  options.layers = 1;
  options.hadamard_start = false;
  const Circuit c = hva_ansatz(h, options);
  EXPECT_NE(c.operations()[0].kind, OpKind::kHadamard);
}

TEST(Hva, RejectsIdentityOnlyHamiltonian) {
  const PauliSumObservable h({{1.0, "II"}});
  EXPECT_THROW((void)hva_ansatz(h), InvalidArgument);
}

TEST(Hva, ReachesTfiGroundStateAtCriticalPoint) {
  // Two-qubit TFI at J = h = 1: a 2-layer HVA can represent the ground
  // state; Adam training should approach E0 = -sqrt(5).
  const auto h = std::make_shared<PauliSumObservable>(
      transverse_field_ising(2, 1.0, 1.0));
  HvaOptions options;
  options.layers = 2;
  auto circuit = std::make_shared<const Circuit>(hva_ansatz(*h, options));
  const CostFunction cost(circuit, h);
  const AdjointEngine engine;
  auto optimizer = make_optimizer("adam", 0.1);
  TrainOptions train_options;
  train_options.max_iterations = 150;
  const std::vector<double> init(circuit->num_parameters(), 0.1);
  const TrainResult result =
      train(cost, engine, *optimizer, init, train_options);
  EXPECT_NEAR(result.final_loss, -std::sqrt(5.0), 0.01);
}

}  // namespace
}  // namespace qbarren
