// Tests for the Fubini-Study metric and quantum natural gradient training.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/metric.hpp"
#include "qbarren/linalg/checks.hpp"
#include "qbarren/linalg/solve.hpp"
#include "qbarren/opt/natural_gradient.hpp"
#include "reference_interpreter.hpp"

namespace qbarren {
namespace {

TEST(DerivativeStates, MatchFiniteDifferencesOfTheState) {
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit c = training_ansatz(2, options);
  Rng rng(1);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 2.0);

  const auto derivatives = derivative_states(c, params);
  ASSERT_EQ(derivatives.size(), c.num_parameters());

  const double h = 1e-6;
  for (std::size_t i = 0; i < params.size(); i += 3) {
    std::vector<double> shifted(params);
    shifted[i] += h;
    const StateVector plus = exec::simulate(c, shifted);
    shifted[i] = params[i] - h;
    const StateVector minus = exec::simulate(c, shifted);
    for (std::size_t k = 0; k < plus.dimension(); ++k) {
      const Complex fd =
          (plus.amplitude(k) - minus.amplitude(k)) / (2.0 * h);
      EXPECT_NEAR(std::abs(derivatives[i].amplitude(k) - fd), 0.0, 1e-6)
          << "param " << i << " amp " << k;
    }
  }
}

/// Every op kind the builders expose, each added three times in a random
/// order on random wires.
Circuit every_op_kind_circuit(Rng& rng, std::size_t qubits) {
  Circuit c(qubits);
  const auto axis = [&] { return static_cast<gates::Axis>(rng.index(3)); };
  const auto q = [&] { return rng.index(qubits); };
  const auto pair = [&] {
    const std::size_t a = rng.index(qubits);
    std::size_t b = rng.index(qubits - 1);
    if (b >= a) ++b;
    return std::pair{a, b};
  };
  const std::vector<std::function<void()>> builders = {
      [&] { c.add_rotation(axis(), q()); },
      [&] { c.add_fixed_rotation(axis(), q(), rng.uniform(-M_PI, M_PI)); },
      [&] {
        const auto [a, b] = pair();
        c.add_controlled_rotation(axis(), a, b);
      },
      [&] { c.add_hadamard(q()); },
      [&] { c.add_pauli_x(q()); },
      [&] { c.add_pauli_y(q()); },
      [&] { c.add_pauli_z(q()); },
      [&] { c.add_s(q()); },
      [&] { c.add_t(q()); },
      [&] {
        const auto [a, b] = pair();
        c.add_cz(a, b);
      },
      [&] {
        const auto [a, b] = pair();
        c.add_cnot(a, b);
      },
      [&] {
        const auto [a, b] = pair();
        c.add_swap(a, b);
      },
      [&] { c.add_custom_gate("u3", gates::u3(0.7, 1.9, -0.4), q()); },
      [&] {
        const auto [a, b] = pair();
        c.add_custom_two_qubit_gate("crz", gates::crz(0.6), std::min(a, b),
                                    std::max(a, b));
      },
  };
  std::vector<std::size_t> order;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t k = 0; k < builders.size(); ++k) order.push_back(k);
  }
  for (std::size_t i = order.size(); i-- > 1;) {
    std::swap(order[i], order[rng.index(i + 1)]);
  }
  for (const std::size_t k : order) builders[k]();
  return c;
}

TEST(DerivativeStates, MatchTheOpByOpOracleExactly) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    Rng rng(seed);
    const Circuit c = every_op_kind_circuit(rng, 3);
    const auto params = rng.uniform_vector(c.num_parameters(), -M_PI, M_PI);

    // Oracle: for each parameter, the source ops before its consumer, the
    // consumer's derivative, then the rest — each op applied on its own.
    std::vector<StateVector> want(params.size(), StateVector(3));
    const auto& ops = c.operations();
    for (std::size_t k = 0; k < ops.size(); ++k) {
      if (!is_parameterized(ops[k].kind)) continue;
      StateVector d(3);
      for (std::size_t j = 0; j < k; ++j) {
        reference::apply_operation(c, j, d, params);
      }
      reference::apply_operation_derivative(c, k, d, params);
      for (std::size_t j = k + 1; j < ops.size(); ++j) {
        reference::apply_operation(c, j, d, params);
      }
      want[ops[k].param_index] = d;
    }
    const StateVector psi = reference::simulate(c, params);
    RealMatrix want_f(params.size(), params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      const Complex ai = psi.inner_product(want[i]);
      for (std::size_t j = i; j < params.size(); ++j) {
        const Complex aj = psi.inner_product(want[j]);
        want_f(i, j) = (want[i].inner_product(want[j]) - std::conj(ai) * aj)
                           .real();
        want_f(j, i) = want_f(i, j);
      }
    }

    const std::vector<StateVector> got = derivative_states(c, params);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
      EXPECT_EQ(got[p].amplitudes(), want[p].amplitudes())
          << "seed " << seed << " param " << p;
    }
    const RealMatrix f = fubini_study_metric(c, params);
    for (std::size_t i = 0; i < params.size(); ++i) {
      for (std::size_t j = 0; j < params.size(); ++j) {
        EXPECT_EQ(f(i, j), want_f(i, j)) << "seed " << seed << " " << i << ","
                                         << j;
      }
    }
  }
}

TEST(Metric, SingleRyIsQuarter) {
  // For |psi> = RY(theta)|0>, the Fubini-Study metric is 1/4 at any angle.
  Circuit c(1);
  c.add_rotation(gates::Axis::kY, 0);
  for (const double theta : {0.0, 0.7, M_PI / 2.0, 2.5}) {
    const RealMatrix f =
        fubini_study_metric(c, std::vector<double>{theta});
    ASSERT_EQ(f.rows(), 1u);
    EXPECT_NEAR(f(0, 0), 0.25, 1e-11) << theta;
  }
}

TEST(Metric, TwoIndependentQubitsIsDiagonalQuarter) {
  // RY on each of two qubits, no entangler: parameters act on orthogonal
  // factors, so F = diag(1/4, 1/4) for generic angles... the off-diagonal
  // term <d0|d1> - <d0|psi><psi|d1> vanishes because the Berry connection
  // exactly cancels the product term for real RY states.
  Circuit c(2);
  c.add_rotation(gates::Axis::kY, 0);
  c.add_rotation(gates::Axis::kY, 1);
  const std::vector<double> params{0.8, 1.7};
  const RealMatrix f = fubini_study_metric(c, params);
  EXPECT_NEAR(f(0, 0), 0.25, 1e-11);
  EXPECT_NEAR(f(1, 1), 0.25, 1e-11);
  EXPECT_NEAR(f(0, 1), 0.0, 1e-11);
  EXPECT_NEAR(f(1, 0), 0.0, 1e-11);
}

TEST(Metric, SequentialRzRyOnOneQubitKnownValue) {
  // |psi> = RY(b) RZ(a) |0>: standard QNG example. The metric's diagonal
  // entries are Var of the generators: F_aa = 1/4 (1 - <Z>^2) with <Z> on
  // |0> = 1 -> F_aa = 0; F_bb = 1/4.
  Circuit c(1);
  c.add_rotation(gates::Axis::kZ, 0);
  c.add_rotation(gates::Axis::kY, 0);
  const RealMatrix f =
      fubini_study_metric(c, std::vector<double>{0.3, 1.1});
  EXPECT_NEAR(f(0, 0), 0.0, 1e-11);   // RZ acts trivially on |0>
  EXPECT_NEAR(f(1, 1), 0.25, 1e-11);
}

TEST(Metric, SymmetricPositiveSemidefinite) {
  TrainingAnsatzOptions options;
  options.layers = 2;
  const Circuit c = training_ansatz(3, options);
  Rng rng(5);
  const auto params = rng.uniform_vector(c.num_parameters(), 0.0, 6.0);
  const RealMatrix f = fubini_study_metric(c, params);

  EXPECT_LT(max_abs_diff(f, f.transpose()), 1e-11);
  // PSD check: Cholesky of F + tiny ridge succeeds.
  RealMatrix ridged = f;
  for (std::size_t i = 0; i < ridged.rows(); ++i) {
    ridged(i, i) += 1e-9;
  }
  EXPECT_NO_THROW((void)cholesky(ridged));
}

TEST(Metric, ValidatesArguments) {
  const Circuit no_params(1);
  EXPECT_THROW((void)fubini_study_metric(no_params, {}), InvalidArgument);

  Circuit c(1);
  c.add_rotation(gates::Axis::kY, 0);
  EXPECT_THROW((void)derivative_states(c, std::vector<double>{1.0, 2.0}),
               InvalidArgument);
}

TEST(Qng, ConvergesOnIdentityTask) {
  TrainingAnsatzOptions ansatz_options;
  ansatz_options.layers = 2;
  auto circuit =
      std::make_shared<const Circuit>(training_ansatz(3, ansatz_options));
  const CostFunction cost = make_identity_cost(circuit);
  const AdjointEngine engine;

  NaturalGradientOptions options;
  options.max_iterations = 30;
  options.learning_rate = 0.2;
  const std::vector<double> init(cost.num_parameters(), 0.4);
  const TrainResult result =
      train_natural_gradient(cost, engine, init, options);
  EXPECT_LT(result.final_loss, 0.01);
  EXPECT_EQ(result.loss_history.size(), 31u);
  EXPECT_EQ(result.gradient_norm_history.size(), 30u);
}

TEST(Qng, BeatsVanillaGdPerIteration) {
  // QNG rescales flat directions, converging in fewer iterations than GD
  // at the same learning rate on the identity task.
  TrainingAnsatzOptions ansatz_options;
  ansatz_options.layers = 2;
  auto circuit =
      std::make_shared<const Circuit>(training_ansatz(4, ansatz_options));
  const CostFunction cost = make_identity_cost(circuit);
  const AdjointEngine engine;
  const std::vector<double> init(cost.num_parameters(), 0.35);

  NaturalGradientOptions qng_options;
  qng_options.max_iterations = 15;
  qng_options.learning_rate = 0.1;
  const TrainResult qng =
      train_natural_gradient(cost, engine, init, qng_options);

  GradientDescent gd(0.1);
  TrainOptions gd_options;
  gd_options.max_iterations = 15;
  const TrainResult vanilla = train(cost, engine, gd, init, gd_options);

  EXPECT_LT(qng.final_loss, vanilla.final_loss);
}

TEST(Qng, ValidatesOptions) {
  Circuit raw(1);
  raw.add_rotation(gates::Axis::kY, 0);
  auto circuit = std::make_shared<const Circuit>(std::move(raw));
  const CostFunction cost = make_identity_cost(circuit);
  const AdjointEngine engine;

  EXPECT_THROW((void)train_natural_gradient(cost, engine, {1.0, 2.0}),
               InvalidArgument);
  NaturalGradientOptions bad;
  bad.learning_rate = 0.0;
  EXPECT_THROW((void)train_natural_gradient(cost, engine, {1.0}, bad),
               InvalidArgument);
  bad = NaturalGradientOptions{};
  bad.lambda = -1.0;
  EXPECT_THROW((void)train_natural_gradient(cost, engine, {1.0}, bad),
               InvalidArgument);
}

}  // namespace
}  // namespace qbarren
