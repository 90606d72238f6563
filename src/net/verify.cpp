#include "net/verify.hpp"

#include <map>
#include <stdexcept>

namespace hyde::net {

namespace {

/// Computed-table cap of the throw-away formal manager. The table otherwise
/// doubles up to 2^20 entries (about 24 MB) on the circuits whose formal
/// attempt runs into the node budget. The cap cannot change the outcome: no
/// GC runs below a budget of at most 2^18 nodes (200k by default), because
/// the first GC waits for 2^18 live nodes. So the allocated nodes, and the
/// point where the budget trips, do not depend on cache hits.
constexpr std::size_t kFormalCacheEntries = std::size_t{1} << 16;

/// SplitMix64 for deterministic random vectors.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Maps b's PI index -> a's PI index, by name.
std::vector<int> match_inputs(const Network& a, const Network& b) {
  std::map<std::string, int> a_index;
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    a_index.emplace(a.node(a.inputs()[i]).name, static_cast<int>(i));
  }
  if (a.inputs().size() != b.inputs().size()) {
    throw std::invalid_argument("check_equivalence: PI count mismatch");
  }
  std::vector<int> map(b.inputs().size(), -1);
  for (std::size_t i = 0; i < b.inputs().size(); ++i) {
    const auto it = a_index.find(b.node(b.inputs()[i]).name);
    if (it == a_index.end()) {
      throw std::invalid_argument("check_equivalence: PI name mismatch: " +
                                  b.node(b.inputs()[i]).name);
    }
    map[i] = it->second;
  }
  return map;
}

}  // namespace

EquivalenceResult check_equivalence(const Network& a, const Network& b,
                                    const EquivalenceOptions& options) {
  if (a.outputs().size() != b.outputs().size()) {
    throw std::invalid_argument("check_equivalence: PO count mismatch");
  }
  const std::vector<int> b_to_a = match_inputs(a, b);
  const int n = static_cast<int>(a.inputs().size());

  EquivalenceResult result;

  // --- Formal attempt: shared manager, canonical comparison.
  try {
    bdd::Manager global(std::max(1, n));
    global.set_node_limit(options.bdd_node_budget);
    global.set_cache_limit(kFormalCacheEntries);
    std::vector<int> a_pi_var;
    for (int i = 0; i < n; ++i) a_pi_var.push_back(i);
    std::vector<int> b_pi_var(b_to_a.begin(), b_to_a.end());

    std::vector<NodeId> a_roots, b_roots;
    for (const auto& o : a.outputs()) a_roots.push_back(o.driver);
    for (const auto& o : b.outputs()) b_roots.push_back(o.driver);
    const auto fa = a.global_bdds(a_roots, global, a_pi_var);
    const auto fb = b.global_bdds(b_roots, global, b_pi_var);

    result.method = EquivalenceMethod::kFormalBdd;
    result.equivalent = true;
    for (std::size_t o = 0; o < fa.size(); ++o) {
      if (fa[o] == fb[o]) continue;
      result.equivalent = false;
      result.failing_output = static_cast<int>(o);
      const bdd::Bdd diff = fa[o] ^ fb[o];
      std::vector<std::pair<int, bool>> witness;
      global.pick_one_minterm(diff, &witness);
      result.counterexample.assign(static_cast<std::size_t>(n), false);
      for (auto [v, value] : witness) {
        result.counterexample[static_cast<std::size_t>(v)] = value;
      }
      break;
    }
    return result;
  } catch (const std::length_error&) {
    // BDD blow-up: fall through to simulation.
  }

  // --- Simulation fallback.
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
