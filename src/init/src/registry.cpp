#include "qbarren/init/registry.hpp"

namespace qbarren {

std::unique_ptr<Initializer> make_initializer(const std::string& name,
                                              FanMode mode) {
  if (name == "random") return std::make_unique<RandomInitializer>();
  if (name == "xavier-normal")
    return std::make_unique<XavierNormalInitializer>(mode);
  if (name == "xavier-uniform")
    return std::make_unique<XavierUniformInitializer>(mode);
  if (name == "he") return std::make_unique<HeInitializer>(mode);
  if (name == "he-uniform")
    return std::make_unique<HeUniformInitializer>(mode);
  if (name == "lecun") return std::make_unique<LeCunNormalInitializer>(mode);
  if (name == "lecun-uniform")
    return std::make_unique<LeCunUniformInitializer>(mode);
  if (name == "orthogonal")
    return std::make_unique<OrthogonalInitializer>(mode);
  if (name == "orthogonal-full")
    return std::make_unique<OrthogonalInitializer>(
        mode, 1.0, OrthogonalBlockMode::kFullTensor);
  if (name == "beta") return std::make_unique<BetaInitializer>();
  if (name == "zeros") return std::make_unique<ZerosInitializer>();
  if (name == "small-normal")
    return std::make_unique<SmallNormalInitializer>();
  throw NotFound("make_initializer: unknown initializer '" + name + "'");
}

std::vector<std::string> initializer_names() {
  return {"random",          "xavier-normal", "xavier-uniform",
          "he",              "he-uniform",    "lecun",
          "lecun-uniform",   "orthogonal",    "orthogonal-full",
          "beta",            "zeros",         "small-normal"};
}

std::vector<std::unique_ptr<Initializer>> paper_initializers(FanMode mode) {
  std::vector<std::unique_ptr<Initializer>> out;
  out.push_back(std::make_unique<RandomInitializer>());
  out.push_back(std::make_unique<XavierNormalInitializer>(mode));
  out.push_back(std::make_unique<XavierUniformInitializer>(mode));
  out.push_back(std::make_unique<HeInitializer>(mode));
  out.push_back(std::make_unique<LeCunNormalInitializer>(mode));
  out.push_back(std::make_unique<OrthogonalInitializer>(mode));
  return out;
}

std::vector<std::string> paper_initializer_names() {
  std::vector<std::string> names;
  for (const auto& init : paper_initializers()) names.push_back(init->name());
  return names;
}

}  // namespace qbarren
