// Textual circuit rendering: an OpenQASM-2.0-compatible dump (useful for
// eyeballing circuits or feeding them to external tools).
#pragma once

#include <string>

#include "qbarren/circuit/circuit.hpp"

namespace qbarren {

/// OpenQASM 2.0 program for the circuit bound to `params`.
[[nodiscard]] std::string to_qasm(const Circuit& circuit,
                                  std::span<const double> params);

}  // namespace qbarren
