#include "oracles/equivalence_oracle.hpp"

#include <map>
#include <stdexcept>

namespace hyde::net {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

EquivalenceResult simulate_equivalence_reference(
    const Network& a, const Network& b, const EquivalenceOptions& options) {
  if (a.outputs().size() != b.outputs().size() ||
      a.inputs().size() != b.inputs().size()) {
    throw std::invalid_argument("simulate_equivalence_reference: interface");
  }
  std::map<std::string, int> a_index;
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    a_index.emplace(a.node(a.inputs()[i]).name, static_cast<int>(i));
  }
  std::vector<int> b_to_a(b.inputs().size());
  for (std::size_t i = 0; i < b.inputs().size(); ++i) {
    b_to_a[i] = a_index.at(b.node(b.inputs()[i]).name);
  }
  const int n = static_cast<int>(a.inputs().size());

  EquivalenceResult result;
  auto compare_vector = [&](const std::vector<bool>& assign) {
    std::vector<bool> b_assign(assign.size());
    for (std::size_t i = 0; i < b_to_a.size(); ++i) {
      b_assign[i] = assign[static_cast<std::size_t>(b_to_a[i])];
    }
    const auto oa = a.eval(assign);
    const auto ob = b.eval(b_assign);
    for (std::size_t o = 0; o < oa.size(); ++o) {
      if (oa[o] != ob[o]) {
        result.equivalent = false;
        result.failing_output = static_cast<int>(o);
        result.counterexample = assign;
        return false;
      }
    }
    return true;
  };

  result.equivalent = true;
  if (n <= options.exhaustive_max_inputs) {
    result.method = EquivalenceMethod::kExhaustiveSim;
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
      std::vector<bool> assign(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) assign[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
      if (!compare_vector(assign)) return result;
    }
    return result;
  }
  result.method = EquivalenceMethod::kRandomSim;
  std::uint64_t state = options.seed;
  for (int probe = 0; probe < options.random_vectors; ++probe) {
    std::vector<bool> assign(static_cast<std::size_t>(n));
    for (auto&& v : assign) v = (splitmix64(state) & 1) != 0;
    if (!compare_vector(assign)) return result;
  }
  return result;
}

}  // namespace hyde::net
