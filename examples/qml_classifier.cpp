// Quantum machine-learning classifier — the paper's title domain in
// action. Trains a data-reuploading PQC binary classifier (Perez-Salinas
// et al. 2020 style) on a synthetic two-circles dataset and compares
// random vs Xavier initialization of the trainable parameters.
//
// Model: per layer, each qubit gets RY(w * x0) RZ(w' * x1) data encoders
// (weights fixed to 1 here; the *trainable* parameters are the RX/RY
// rotations between encodings) followed by the CZ ladder. The prediction
// is <Z_0> in [-1, 1]; class = sign. Loss = mean squared error against
// labels in {-1, +1}. Gradients: adjoint engine per sample (the encoders
// are fixed rotations, so only the trainable angles carry gradients).
//
// Run: ./qml_classifier [--qubits 2] [--layers 3] [--samples 48]
//                       [--iterations 30] [--seed 21]
#include <cmath>
#include <cstdio>
#include <exception>

#include "qbarren/circuit/circuit.hpp"
#include "qbarren/common/cli.hpp"
#include "qbarren/common/rng.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/grad/engine.hpp"
#include "qbarren/init/registry.hpp"
#include "qbarren/obs/observable.hpp"
#include "qbarren/opt/optimizers.hpp"

namespace {

using namespace qbarren;

struct Sample {
  double x0 = 0.0;
  double x1 = 0.0;
  double label = 0.0;  // -1 (inner circle) or +1 (outer ring)
};

std::vector<Sample> make_two_circles(std::size_t count, Rng& rng) {
  std::vector<Sample> data;
  data.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const bool outer = rng.bernoulli(0.5);
    const double radius =
        outer ? rng.uniform(1.4, 2.0) : rng.uniform(0.0, 0.8);
    const double angle = rng.uniform(0.0, 2.0 * M_PI);
    data.push_back(Sample{radius * std::cos(angle),
                          radius * std::sin(angle), outer ? 1.0 : -1.0});
  }
  return data;
}

// Builds the reuploading circuit for one sample: the data enters as fixed
// rotations, the trainable parameters sit between encodings. The circuit
// *structure* (and hence the trainable parameter count) is identical for
// every sample, so one parameter vector serves the whole dataset.
Circuit build_model(const Sample& s, std::size_t qubits,
                    std::size_t layers) {
  Circuit c(qubits);
  for (std::size_t layer = 0; layer < layers; ++layer) {
    for (std::size_t q = 0; q < qubits; ++q) {
      c.add_fixed_rotation(gates::Axis::kY, q, s.x0);   // data encoder
      c.add_fixed_rotation(gates::Axis::kZ, q, s.x1);
      (void)c.add_rotation(gates::Axis::kX, q);         // trainable
      (void)c.add_rotation(gates::Axis::kY, q);
    }
    for (std::size_t q = 0; q + 1 < qubits; ++q) {
      c.add_cz(q, q + 1);
    }
  }
  c.set_layer_shape(LayerShape{layers, 2 * qubits});
  return c;
}

struct EpochStats {
  double mse = 0.0;
  double accuracy = 0.0;
};

EpochStats evaluate(const std::vector<Sample>& data,
                    const std::vector<double>& params, std::size_t qubits,
                    std::size_t layers, const Observable& z0) {
  EpochStats stats;
  for (const Sample& s : data) {
    const Circuit c = build_model(s, qubits, layers);
    const double prediction = z0.expectation(exec::simulate(c, params));
    const double err = prediction - s.label;
    stats.mse += err * err;
    if ((prediction >= 0.0) == (s.label > 0.0)) {
      stats.accuracy += 1.0;
    }
  }
  stats.mse /= static_cast<double>(data.size());
  stats.accuracy /= static_cast<double>(data.size());
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"qubits", "layers", "samples", "iterations", "seed"});
    const auto qubits = static_cast<std::size_t>(args.get_int("qubits", 2));
    const auto layers = static_cast<std::size_t>(args.get_int("layers", 3));
    const auto samples =
        static_cast<std::size_t>(args.get_int("samples", 48));
    const auto iterations =
        static_cast<std::size_t>(args.get_int("iterations", 30));
    const std::uint64_t seed = args.get_uint("seed", 21);

    Rng data_rng(seed);
    const std::vector<Sample> train_set = make_two_circles(samples, data_rng);
    const std::vector<Sample> test_set =
        make_two_circles(samples / 2, data_rng);
    const auto z0 = make_z_observable(0, qubits);
    const AdjointEngine engine;
    const Circuit prototype = build_model(train_set[0], qubits, layers);

    std::printf(
        "two-circles classification: %zu train / %zu test samples,\n"
        "%zu qubits x %zu reuploading layers, %zu trainable parameters\n\n",
        train_set.size(), test_set.size(), qubits, layers,
        prototype.num_parameters());

    for (const char* init_name : {"random", "xavier-normal"}) {
      Rng rng(seed + 1);
      std::vector<double> params =
          make_initializer(init_name)->initialize(prototype, rng);
      AdamOptimizer optimizer(0.1);
      optimizer.reset(params.size());

      std::printf("%s init:\n", init_name);
      for (std::size_t it = 0; it < iterations; ++it) {
        // Full-batch MSE gradient: dL/dtheta = mean 2 (pred - y) d<Z0>.
        std::vector<double> grad(params.size(), 0.0);
        for (const Sample& s : train_set) {
          const Circuit c = build_model(s, qubits, layers);
          const auto vg = engine.value_and_gradient(c, *z0, params);
          const double factor =
              2.0 * (vg.value - s.label) / static_cast<double>(train_set.size());
          for (std::size_t k = 0; k < grad.size(); ++k) {
            grad[k] += factor * vg.gradient[k];
          }
        }
        optimizer.step(params, grad);
        if ((it + 1) % 10 == 0) {
          const EpochStats train_stats =
              evaluate(train_set, params, qubits, layers, *z0);
          std::printf("  iter %3zu  train mse %.4f  train acc %.1f%%\n",
                      it + 1, train_stats.mse,
                      100.0 * train_stats.accuracy);
        }
      }
      const EpochStats final_train =
          evaluate(train_set, params, qubits, layers, *z0);
      const EpochStats final_test =
          evaluate(test_set, params, qubits, layers, *z0);
      std::printf("  final     train acc %.1f%%  test acc %.1f%%\n\n",
                  100.0 * final_train.accuracy,
                  100.0 * final_test.accuracy);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
