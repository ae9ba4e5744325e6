// OpenQASM 2.0 parser (the subset qbarren's printer emits).
//
// Supported statements:
//   OPENQASM 2.0;            include "qelib1.inc";
//   qreg <name>[<n>];        creg <name>[<n>];        (creg accepted, ignored)
//   rx(<expr>) q[i];  ry(...)  rz(...)                (rotations)
//   h/x/y/z/s/t q[i];                                 (fixed 1q gates)
//   cz/cx/swap q[i], q[j];                            (2q gates)
// Angle expressions support decimal literals, `pi`, unary minus, and
// products/quotients like `pi/2`, `3*pi/4`. Comments (`// ...`) and blank
// lines are skipped. Anything else throws qbarren::InvalidArgument with
// the offending line number.
//
// Parsed rotations become *trainable* parameters; their literal angles are
// returned alongside the circuit, so
//   auto [c, params] = parse_qasm(text);  exec::simulate(c, params);
// reproduces the dumped circuit exactly and the circuit remains usable
// with every initializer / gradient engine.
#pragma once

#include <string>
#include <vector>

#include "qbarren/circuit/circuit.hpp"

namespace qbarren {

struct ParsedQasm {
  Circuit circuit;
  /// One entry per rotation, in program order: the literal angles.
  std::vector<double> parameters;
};

/// Parses an OpenQASM 2.0 program. Throws InvalidArgument on syntax the
/// subset does not cover (with a line number) and on semantic errors
/// (missing qreg, qubit index out of range, ...).
[[nodiscard]] ParsedQasm parse_qasm(const std::string& source);

}  // namespace qbarren
