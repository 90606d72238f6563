#include <algorithm>
#include <array>
#include <stdexcept>

#include "mcnc/benchmarks.hpp"

namespace hyde::mcnc {

namespace {

struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

}  // namespace

net::Network seeded_pla(const std::string& name, int num_inputs, int num_outputs,
                        int support_size, int cubes_per_output, int group_size,
                        std::uint64_t seed) {
  if (support_size > num_inputs) {
    throw std::invalid_argument("seeded_pla: support larger than input count");
  }
  net::Network net(name);
  SplitMix rng{seed};
  std::vector<net::NodeId> pis;
  for (int i = 0; i < num_inputs; ++i) {
    pis.push_back(net.add_input(std::string("x").append(std::to_string(i))));
  }
  for (int base = 0; base < num_outputs; base += group_size) {
    // Draw the group's shared support.
    std::vector<int> perm(static_cast<std::size_t>(num_inputs));
    for (int i = 0; i < num_inputs; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (int i = num_inputs - 1; i > 0; --i) {
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(rng.below(
                    static_cast<std::uint64_t>(i + 1)))]);
    }
    std::vector<net::NodeId> support;
    for (int i = 0; i < support_size; ++i) {
      support.push_back(pis[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])]);
    }
    // Real two-level benchmarks decompose well because their covers hide
    // cluster structure. Emulate it: split the support into clusters of ≤4
    // variables, draw a small pool of subfunctions per cluster, and make
    // each output a random combiner of one subfunction per cluster. Outputs
    // in the same group share subfunctions — exactly the common sub-logic
    // the decomposition flows compete on extracting.
    const int num_clusters = (support_size + 3) / 4;
    std::vector<std::vector<int>> clusters(static_cast<std::size_t>(num_clusters));
    for (int v = 0; v < support_size; ++v) {
      clusters[static_cast<std::size_t>(v % num_clusters)].push_back(v);
    }
    auto random_sop = [&rng](int arity, int cubes) {
      tt::TruthTable fn(arity);
      for (int c = 0; c < cubes; ++c) {
        tt::TruthTable cube = tt::TruthTable::ones(arity);
        for (int v = 0; v < arity; ++v) {
          const std::uint64_t r = rng.next();
          if ((r & 3) == 0) continue;
          const tt::TruthTable lit = tt::TruthTable::var(arity, v);
          cube &= (r & 4) ? lit : ~lit;
        }
        fn |= cube;
      }
      return fn;
    };
    // Two candidate subfunctions per cluster, embedded in the full support.
    std::vector<std::array<tt::TruthTable, 2>> sub_pool;
    for (const auto& cluster : clusters) {
      std::array<tt::TruthTable, 2> pair{
          random_sop(static_cast<int>(cluster.size()), 2)
              .expand(support_size, cluster),
          random_sop(static_cast<int>(cluster.size()), 3)
              .expand(support_size, cluster)};
      sub_pool.push_back(std::move(pair));
    }
    const int end = std::min(num_outputs, base + group_size);
    const int combiner_cubes = std::max(2, cubes_per_output / 4);
    for (int o = base; o < end; ++o) {
      const tt::TruthTable combiner = random_sop(num_clusters, combiner_cubes);
      tt::TruthTable function(support_size);
      for (std::uint64_t cm = 0; cm < combiner.size(); ++cm) {
        if (!combiner.bit(cm)) continue;
        tt::TruthTable minterm_fn = tt::TruthTable::ones(support_size);
        for (int cl = 0; cl < num_clusters; ++cl) {
          // Outputs alternate between the cluster's two subfunctions, so
          // group members overlap without being identical.
          const tt::TruthTable& chosen =
              sub_pool[static_cast<std::size_t>(cl)][(o + cl) & 1];
          minterm_fn &= ((cm >> cl) & 1) ? chosen : ~chosen;
        }
        function |= minterm_fn;
      }
      const std::string out_name = std::string("o").append(std::to_string(o));
      net.add_output(out_name,
                     net.add_logic_tt(out_name, support, function));
    }
  }
  return net;
}

net::Network random_multilevel(const std::string& name, int num_inputs,
                               int num_outputs, int num_nodes, int min_arity,
                               int max_arity, std::uint64_t seed) {
  net::Network net(name);
  SplitMix rng{seed};
  std::vector<net::NodeId> signals;
  for (int i = 0; i < num_inputs; ++i) {
    signals.push_back(
        net.add_input(std::string("x").append(std::to_string(i))));
  }
  for (int n = 0; n < num_nodes; ++n) {
    const int arity = min_arity + static_cast<int>(rng.below(
                                      static_cast<std::uint64_t>(
                                          max_arity - min_arity + 1)));
    std::vector<net::NodeId> fanins;
    for (int a = 0; a < arity; ++a) {
      // Bias toward recent signals to create depth, but keep PI fanins too.
      net::NodeId pick;
      if ((rng.next() & 3) == 0 || signals.size() <= 4) {
        pick = signals[static_cast<std::size_t>(rng.below(signals.size()))];
      } else {
        const std::size_t window = std::min<std::size_t>(signals.size(), 24);
        pick = signals[signals.size() - 1 - static_cast<std::size_t>(rng.below(window))];
      }
      if (std::find(fanins.begin(), fanins.end(), pick) == fanins.end()) {
        fanins.push_back(pick);
      }
    }
    if (fanins.empty()) fanins.push_back(signals.front());
    const int real_arity = static_cast<int>(fanins.size());
    // Gate-like local functions: an OR of a few cubes (optionally XORed with
    // one input), the texture of technology-independent multi-level logic.
    tt::TruthTable function(real_arity);
    const int cubes = 1 + static_cast<int>(rng.below(3));
    for (int c = 0; c < cubes; ++c) {
      tt::TruthTable cube = tt::TruthTable::ones(real_arity);
      for (int v = 0; v < real_arity; ++v) {
        const std::uint64_t r = rng.next();
        if ((r & 3) == 0) continue;
        const tt::TruthTable lit = tt::TruthTable::var(real_arity, v);
        cube &= (r & 4) ? lit : ~lit;
      }
      function |= cube;
    }
    if ((rng.next() & 7) == 0) {
      function ^= tt::TruthTable::var(
          real_arity, static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(real_arity))));
    }
    signals.push_back(net.add_logic_tt(
        std::string("n").append(std::to_string(n)), fanins, function));
  }
  for (int o = 0; o < num_outputs; ++o) {
    // Prefer recent nodes as outputs so most of the DAG stays live.
    const std::size_t window =
        std::min<std::size_t>(static_cast<std::size_t>(num_nodes),
                              static_cast<std::size_t>(2 * num_outputs + 8));
    const net::NodeId driver =
        signals[signals.size() - 1 - static_cast<std::size_t>(rng.below(window))];
    net.add_output(std::string("o").append(std::to_string(o)), driver);
  }
  net.sweep();
  return net;
}

}  // namespace hyde::mcnc
