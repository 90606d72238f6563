#include "net/verify.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <stdexcept>
#include <unordered_map>

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

/// Vectors simulated per batch: eight 64-bit words per node row, so the
/// exhaustive path's 2^14 vectors run in 32 batches on any network size.
constexpr std::uint64_t kBatchVectors = 512;
constexpr std::size_t kBatchWords = kBatchVectors / 64;

/// Word of PI i < 6 under exhaustive enumeration: bit p is bit i of p.
constexpr std::uint64_t kVarPattern[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

/// Word-parallel simulator of one network: bit p of a row's word w is the
/// node's value under vector 64 * w + p of the batch. Each logic node's
/// local BDD is compiled once, in topological order, into mux steps
/// dst = sel ? hi : lo over rows; a local variable at or beyond the node's
/// arity takes its low branch, as it reads false in Network::eval.
class WordSimulator {
 public:
  explicit WordSimulator(const Network& network) {
    const std::uint32_t node_rows = 2 + static_cast<std::uint32_t>(network.num_nodes());
    std::unordered_map<std::uint32_t, std::uint32_t> memo;
    std::uint32_t temps = 0, max_temps = 0;
    std::function<std::uint32_t(const bdd::Bdd&, const Node&)> compile =
        [&](const bdd::Bdd& f, const Node& node) -> std::uint32_t {
      if (f.is_zero()) return kZeroRow;
      if (f.is_one()) return kOneRow;
      if (auto it = memo.find(f.id()); it != memo.end()) return it->second;
      const std::size_t v = static_cast<std::size_t>(f.top_var());
      std::uint32_t row;
      if (v >= node.fanins.size()) {
        row = compile(f.low(), node);
      } else {
        const std::uint32_t lo = compile(f.low(), node);
        const std::uint32_t hi = compile(f.high(), node);
        row = node_rows + temps++;
        steps_.push_back({row, node_row(node.fanins[v]), hi, lo});
      }
      memo.emplace(f.id(), row);
      return row;
    };
    for (NodeId id : network.topo_order()) {
      const Node& node = network.node(id);
      if (node.kind != NodeKind::kLogic) continue;
      memo.clear();
      temps = 0;
      const std::uint32_t root = compile(node.local, node);
      max_temps = std::max(max_temps, temps);
      if (root >= node_rows) {
        // A temporary root is the last step's output and nothing reads it.
        steps_.back().dst = node_row(id);
      } else {
        steps_.push_back({node_row(id), kZeroRow, root, root});
      }
    }
    rows_.assign(static_cast<std::size_t>(node_rows + max_temps) * kBatchWords, 0);
    std::fill_n(rows_.begin() + kOneRow * kBatchWords, kBatchWords, ~std::uint64_t{0});
  }

  /// The kBatchWords words of node \p id. Callers write the PI rows; run()
  /// writes every logic node's row.
  std::uint64_t* row(NodeId id) { return &rows_[node_row(id) * kBatchWords]; }

  /// Evaluates every logic node on the first \p words words of each row.
  void run(std::size_t words) {
    std::uint64_t* rows = rows_.data();
    for (const Step& s : steps_) {
      std::uint64_t* dst = rows + s.dst * kBatchWords;
      const std::uint64_t* sel = rows + s.sel * kBatchWords;
      const std::uint64_t* hi = rows + s.hi * kBatchWords;
      const std::uint64_t* lo = rows + s.lo * kBatchWords;
      for (std::size_t w = 0; w < words; ++w) {
        dst[w] = (sel[w] & hi[w]) | (~sel[w] & lo[w]);
      }
    }
  }

 private:
  static constexpr std::uint32_t kZeroRow = 0, kOneRow = 1;
  struct Step {
    std::uint32_t dst, sel, hi, lo;
  };
  static std::uint32_t node_row(NodeId id) { return 2 + static_cast<std::uint32_t>(id); }

  std::vector<Step> steps_;
  std::vector<std::uint64_t> rows_;  ///< row r: words [r, r + 1) * kBatchWords
};

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

  // --- Simulation fallback: the same vectors in the same order as one
  // Network::eval per vector, 64 vectors per word.
  WordSimulator sim_a(a);
  WordSimulator sim_b(b);
  const std::size_t num_pis = static_cast<std::size_t>(n);
  std::vector<std::uint64_t*> a_pi(num_pis);
  for (std::size_t i = 0; i < num_pis; ++i) a_pi[i] = sim_a.row(a.inputs()[i]);

  // Simulates the batch's \p count vectors, whose PI words are in a_pi, and
  // records the first failing one, if any.
  auto compare_batch = [&](std::uint64_t count) {
    const std::size_t words = static_cast<std::size_t>((count + 63) / 64);
    for (std::size_t i = 0; i < b.inputs().size(); ++i) {
      std::copy_n(a_pi[static_cast<std::size_t>(b_to_a[i])], words,
                  sim_b.row(b.inputs()[i]));
    }
    sim_a.run(words);
    sim_b.run(words);
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t valid =
          count - 64 * w >= 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << (count - 64 * w)) - 1;
      std::uint64_t diff = 0;
      for (std::size_t o = 0; o < a.outputs().size(); ++o) {
        diff |= sim_a.row(a.outputs()[o].driver)[w] ^
                sim_b.row(b.outputs()[o].driver)[w];
      }
      diff &= valid;
      if (diff == 0) continue;
      const int bit = std::countr_zero(diff);
      for (std::size_t o = 0;; ++o) {
        if (((sim_a.row(a.outputs()[o].driver)[w] ^
              sim_b.row(b.outputs()[o].driver)[w]) >> bit) & 1) {
          result.failing_output = static_cast<int>(o);
          break;
        }
      }
      result.equivalent = false;
      result.counterexample.resize(num_pis);
      for (std::size_t i = 0; i < num_pis; ++i) {
        result.counterexample[i] = ((a_pi[i][w] >> bit) & 1) != 0;
      }
      return false;
    }
    return true;
  };

  result.equivalent = true;
  if (n <= options.exhaustive_max_inputs) {
    // Vector m drives PI i with bit i of m.
    result.method = EquivalenceMethod::kExhaustiveSim;
    const std::uint64_t total = std::uint64_t{1} << n;
    for (std::uint64_t first = 0; first < total; first += kBatchVectors) {
      const std::uint64_t count = std::min(total - first, kBatchVectors);
      for (std::size_t w = 0; w < (count + 63) / 64; ++w) {
        const std::uint64_t word_index = first / 64 + w;
        for (std::size_t i = 0; i < num_pis; ++i) {
          if (i < 6) {
            a_pi[i][w] = kVarPattern[i];
          } else {
            a_pi[i][w] = ((word_index >> (i - 6)) & 1) != 0 ? ~std::uint64_t{0} : 0;
          }
        }
      }
      if (!compare_batch(count)) return result;
    }
    return result;
  }
  // Vector p takes n consecutive splitmix64 draws, one per PI in a's order.
  result.method = EquivalenceMethod::kRandomSim;
  std::uint64_t state = options.seed;
  const std::uint64_t total =
      static_cast<std::uint64_t>(std::max(0, options.random_vectors));
  for (std::uint64_t first = 0; first < total; first += kBatchVectors) {
    const std::uint64_t count = std::min(total - first, kBatchVectors);
    for (std::size_t i = 0; i < num_pis; ++i) {
      std::fill_n(a_pi[i], (count + 63) / 64, 0);
    }
    for (std::uint64_t p = 0; p < count; ++p) {
      for (std::size_t i = 0; i < num_pis; ++i) {
        a_pi[i][p / 64] |= (splitmix64(state) & 1) << (p % 64);
      }
    }
    if (!compare_batch(count)) return result;
  }
  return result;
}

}  // namespace hyde::net
