// Name-based initializer construction and the paper's strategy set.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "qbarren/init/initializers.hpp"

namespace qbarren {

/// Builds an initializer by canonical name:
///   "random", "xavier-normal", "xavier-uniform", "he", "he-uniform",
///   "lecun", "lecun-uniform", "orthogonal", "orthogonal-full", "beta",
///   "zeros", "small-normal".
/// Throws NotFound for anything else.
[[nodiscard]] std::unique_ptr<Initializer> make_initializer(
    const std::string& name, FanMode mode = FanMode::kLayerTensor);

/// All canonical names accepted by make_initializer.
[[nodiscard]] std::vector<std::string> initializer_names();

/// The paper's evaluated set T = {Random, X-Normal, X-Uniform, He, LeCun,
/// Orthogonal}, in the paper's order. Random first — it is the baseline
/// the improvement percentages are computed against.
[[nodiscard]] std::vector<std::unique_ptr<Initializer>> paper_initializers(
    FanMode mode = FanMode::kLayerTensor);

/// The names of paper_initializers(), in the same order.
[[nodiscard]] std::vector<std::string> paper_initializer_names();

}  // namespace qbarren
