#include "qbarren/bp/expressibility.hpp"

#include <cmath>

#include "qbarren/circuit/ansatz.hpp"
#include "qbarren/exec/compiled_circuit.hpp"
#include "qbarren/qsim/entanglement.hpp"

namespace qbarren {

double haar_frame_potential(std::size_t t, std::size_t dimension) {
  QBARREN_REQUIRE(t >= 1, "haar_frame_potential: t >= 1");
  QBARREN_REQUIRE(dimension >= 2, "haar_frame_potential: dimension >= 2");
  double value = 1.0;
  for (std::size_t k = 0; k < t; ++k) {
    value *= static_cast<double>(k + 1) /
             static_cast<double>(dimension + k);
  }
  return value;
}

double haar_fidelity_mass(double f_lo, double f_hi, std::size_t dimension) {
  QBARREN_REQUIRE(dimension >= 2, "haar_fidelity_mass: dimension >= 2");
  QBARREN_REQUIRE(0.0 <= f_lo && f_lo <= f_hi && f_hi <= 1.0,
                  "haar_fidelity_mass: need 0 <= f_lo <= f_hi <= 1");
  const double n1 = static_cast<double>(dimension) - 1.0;
  return std::pow(1.0 - f_lo, n1) - std::pow(1.0 - f_hi, n1);
}

std::vector<ExpressibilityResult> analyze_expressibility(
    const std::vector<const Initializer*>& initializers,
    const ExpressibilityOptions& options) {
  QBARREN_REQUIRE(!initializers.empty(),
                  "analyze_expressibility: no initializers");
  QBARREN_REQUIRE(options.pairs >= 10,
                  "analyze_expressibility: need >= 10 pairs");
  QBARREN_REQUIRE(options.bins >= 2,
                  "analyze_expressibility: need >= 2 bins");
  for (const Initializer* init : initializers) {
    QBARREN_REQUIRE(init != nullptr,
                    "analyze_expressibility: null initializer");
  }

  TrainingAnsatzOptions ansatz_options;
  ansatz_options.layers = options.layers;
  const Circuit circuit = training_ansatz(options.qubits, ansatz_options);
  const auto plan = exec::plan_for(circuit);
  const std::size_t dim = std::size_t{1} << options.qubits;
  const Rng root(options.seed);

  std::vector<ExpressibilityResult> results;
  for (std::size_t t = 0; t < initializers.size(); ++t) {
    const Initializer& init = *initializers[t];
    const Rng init_stream = root.child(t);

    std::vector<std::size_t> histogram(options.bins, 0);
    double fidelity_sum = 0.0;
    double fidelity_sq_sum = 0.0;
    double entanglement_sum = 0.0;
    for (std::size_t s = 0; s < options.pairs; ++s) {
      Rng rng_a = init_stream.child(2 * s);
      Rng rng_b = init_stream.child(2 * s + 1);
      const StateVector psi_a =
          plan->simulate(init.initialize(circuit, rng_a));
      const StateVector psi_b =
          plan->simulate(init.initialize(circuit, rng_b));
      const double f = psi_a.fidelity(psi_b);
      fidelity_sum += f;
      fidelity_sq_sum += f * f;
      entanglement_sum +=
          0.5 * (meyer_wallach(psi_a) + meyer_wallach(psi_b));
      auto bin = static_cast<std::size_t>(f * static_cast<double>(options.bins));
      bin = std::min(bin, options.bins - 1);
      ++histogram[bin];
    }

    // KL(empirical || Haar) over the binned distributions. Empty empirical
    // bins contribute zero (0 * log 0 = 0); the Haar mass is positive on
    // every bin of [0, 1) so the divergence is finite.
    double kl = 0.0;
    for (std::size_t b = 0; b < options.bins; ++b) {
      if (histogram[b] == 0) continue;
      const double p = static_cast<double>(histogram[b]) /
                       static_cast<double>(options.pairs);
      const double f_lo =
          static_cast<double>(b) / static_cast<double>(options.bins);
      const double f_hi =
          static_cast<double>(b + 1) / static_cast<double>(options.bins);
      const double q = haar_fidelity_mass(f_lo, f_hi, dim);
      kl += p * std::log(p / q);
    }

    ExpressibilityResult result;
    result.initializer = init.name();
    result.kl_divergence = kl;
    result.mean_fidelity =
        fidelity_sum / static_cast<double>(options.pairs);
    result.mean_entanglement =
        entanglement_sum / static_cast<double>(options.pairs);
    result.frame_potential_2 =
        fidelity_sq_sum / static_cast<double>(options.pairs);
    result.frame_potential_ratio =
        result.frame_potential_2 / haar_frame_potential(2, dim);
    results.push_back(result);
  }
  return results;
}

Table expressibility_table(
    const std::vector<ExpressibilityResult>& results) {
  Table table({"initializer", "KL(ensemble || Haar)", "mean fidelity",
               "mean Meyer-Wallach Q", "F2 / F2_Haar"});
  for (const ExpressibilityResult& r : results) {
    table.begin_row();
    table.push(r.initializer);
    table.push(r.kl_divergence, 4);
    table.push(r.mean_fidelity, 4);
    table.push(r.mean_entanglement, 4);
    table.push(r.frame_potential_ratio, 2);
  }
  return table;
}

}  // namespace qbarren
