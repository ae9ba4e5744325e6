// Standard noise-channel factories.
//
// All channels are CPTP maps in Kraus form, validated at construction.
// Parameters follow the usual conventions:
//   depolarizing(p):      rho -> (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z)
//   depolarizing_2q(p):   rho -> (1-p) rho + (p/15) sum_{P != II} P rho P
#pragma once

#include "qbarren/dsim/density_matrix.hpp"

namespace qbarren::channels {

[[nodiscard]] KrausChannel depolarizing(double p);
[[nodiscard]] KrausChannel depolarizing_2q(double p);

}  // namespace qbarren::channels
