#include "qbarren/dsim/channels.hpp"

#include <cmath>

#include "qbarren/qsim/gates.hpp"

namespace qbarren::channels {

namespace {

void check_probability(double p, const char* who) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw InvalidArgument(std::string(who) +
                          ": probability must be in [0, 1]");
  }
}

ComplexMatrix scaled(double factor, const ComplexMatrix& m) {
  return Complex{factor, 0.0} * m;
}

}  // namespace

KrausChannel depolarizing(double p) {
  check_probability(p, "depolarizing");
  std::vector<ComplexMatrix> ops;
  ops.push_back(scaled(std::sqrt(1.0 - p), gates::identity2()));
  const double q = std::sqrt(p / 3.0);
  ops.push_back(scaled(q, gates::pauli_x()));
  ops.push_back(scaled(q, gates::pauli_y()));
  ops.push_back(scaled(q, gates::pauli_z()));
  return KrausChannel(std::move(ops), "depolarizing(" + std::to_string(p) +
                                          ")");
}

KrausChannel depolarizing_2q(double p) {
  check_probability(p, "depolarizing_2q");
  const ComplexMatrix paulis[4] = {gates::identity2(), gates::pauli_x(),
                                   gates::pauli_y(), gates::pauli_z()};
  std::vector<ComplexMatrix> ops;
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      const double weight =
          (a == 0 && b == 0) ? std::sqrt(1.0 - p) : std::sqrt(p / 15.0);
      if (weight == 0.0) continue;
      // Matrix bit 0 = first tensor factor => kron(high, low).
      ops.push_back(scaled(weight, kron(paulis[b], paulis[a])));
    }
  }
  return KrausChannel(std::move(ops),
                      "depolarizing-2q(" + std::to_string(p) + ")");
}

}  // namespace qbarren::channels
