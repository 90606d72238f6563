/// Micro-benchmarks of the substrate libraries (google-benchmark): BDD
/// operations, exact NPN canonicalization, chart enumeration, compatible
/// classes, graph matching, the mapper cleanup, XC3000 CLB packing,
/// simulation-based equivalence checking and the encoder itself.

#include <benchmark/benchmark.h>

#include <random>

#include "core/encoder.hpp"
#include "decomp/compatible.hpp"
#include "decomp/search.hpp"
#include "graph/matching.hpp"
#include "mapper/lutmap.hpp"
#include "mapper/xc3000.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/verify.hpp"
#include "tt/npn.hpp"
#include "tt/truth_table.hpp"

namespace {

using namespace hyde;

tt::TruthTable random_table(int vars, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return tt::TruthTable::from_lambda(
      vars, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
}

void BM_BddFromTruthTable(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const auto table = random_table(vars, 42);
  for (auto _ : state) {
    bdd::Manager mgr(vars);
    benchmark::DoNotOptimize(mgr.from_truth_table(table));
  }
}
BENCHMARK(BM_BddFromTruthTable)->Arg(8)->Arg(12)->Arg(16);

void BM_BddApplyChain(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  for (auto _ : state) {
    bdd::Manager mgr(vars);
    bdd::Bdd acc = mgr.zero();
    for (int i = 0; i + 1 < vars; ++i) {
      acc = acc ^ (mgr.var(i) & mgr.var(i + 1));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_BddApplyChain)->Arg(16)->Arg(32)->Arg(64);

/// One exact canonicalization per iteration; range(0) is the input count,
/// range(1) selects a random dcset beside the onset (0: onset only).
void BM_NpnCanonize(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const auto on = random_table(vars, 17);
  const auto dc = state.range(1) != 0 ? random_table(vars, 19) & ~on
                                      : tt::TruthTable::zeros(vars);
  const tt::Isf f{on, dc};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tt::npn_canonize(f));
  }
}
BENCHMARK(BM_NpnCanonize)
    ->ArgsProduct({{5, 6, 7}, {0, 1}})
    ->ArgNames({"vars", "dc"})
    ->Unit(benchmark::kMicrosecond);

void BM_EnumerateColumns(benchmark::State& state) {
  const int bound = static_cast<int>(state.range(0));
  bdd::Manager mgr(16);
  const auto f = mgr.from_truth_table(random_table(12, 7));
  decomp::DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = decomp::IsfBdd{f, mgr.zero()};
  for (int v = 0; v < bound; ++v) spec.bound.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decomp::enumerate_columns(spec));
  }
}
BENCHMARK(BM_EnumerateColumns)->Arg(4)->Arg(6)->Arg(8);

void BM_CompatibleClassesIsf(benchmark::State& state) {
  bdd::Manager mgr(16);
  std::mt19937_64 rng(11);
  const auto on = mgr.from_truth_table(random_table(10, 3));
  const auto dc_raw = mgr.from_truth_table(random_table(10, 5));
  decomp::DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = decomp::IsfBdd{on & ~dc_raw, dc_raw & ~on};
  spec.bound = {0, 1, 2, 3, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(decomp::compute_compatible_classes(spec));
  }
}
BENCHMARK(BM_CompatibleClassesIsf);

void BM_VariablePartitioning(benchmark::State& state) {
  bdd::Manager mgr(16);
  const auto f = mgr.from_truth_table(random_table(12, 9));
  const auto support = mgr.support(f);
  decomp::VarPartitionOptions options;
  options.bound_size = 5;
  options.require_nontrivial = false;
  for (auto _ : state) {
    decomp::BoundSetSearch search(mgr);
    benchmark::DoNotOptimize(
        search.select(decomp::IsfBdd{f, mgr.zero()}, support, options));
  }
}
BENCHMARK(BM_VariablePartitioning);

void BM_CliquePartition(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(5);
  std::vector<std::vector<char>> adj(static_cast<std::size_t>(n),
                                     std::vector<char>(static_cast<std::size_t>(n), 0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng() % 3 == 0) {
        adj[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
        adj[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = 1;
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::clique_partition(n, adj));
  }
}
BENCHMARK(BM_CliquePartition)->Arg(16)->Arg(32)->Arg(64);

/// Args: vertex count, inverse edge density. The small sparse graphs are the
/// encoder's row-set combination; n = 2048 at density 1/2 has the shape of
/// an XC3000 pairing graph.
void BM_BlossomMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto denominator = static_cast<std::uint64_t>(state.range(1));
  std::mt19937_64 rng(13);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng() % denominator == 0) edges.emplace_back(i, j);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_cardinality_matching(n, edges));
  }
}
BENCHMARK(BM_BlossomMatching)
    ->Args({16, 4})
    ->Args({64, 4})
    ->Args({128, 4})
    ->Args({2048, 2})
    ->Unit(benchmark::kMicrosecond);

/// A scale netlist of random 2..5-input gates (already 5-feasible, so no
/// flow runs first); \p gates are generated, of which the live cone keeps
/// about a third.
net::Network scale_netlist(benchmark::State& state) {
  return mcnc::random_multilevel("pack", 64, 16,
                                 static_cast<int>(state.range(0)), 2, 5, 3);
}

/// XC3000 packing of the scale netlist; counters: its LUTs and the pairing
/// graph's edges. Neither bound holds on random gates, so this times the
/// blossom on the full pairing graph.
void BM_PackXc3000(benchmark::State& state) {
  const net::Network network = scale_netlist(state);
  const mapper::PairingGraph graph = mapper::xc3000_pairing_graph(network);
  state.counters["luts"] = graph.num_luts;
  state.counters["edges"] =
      static_cast<double>(graph.adjacency.neighbours.size() / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper::pack_xc3000(network));
  }
}
BENCHMARK(BM_PackXc3000)->Arg(8000)->Arg(32000)->Unit(benchmark::kMillisecond);

/// The mapper cleanup the flows run before packing (dedup, collapse into
/// fanouts, dedup) on a fresh copy of the scale netlist per iteration;
/// counters: merges and collapses.
void BM_DedupCollapse(benchmark::State& state) {
  int merges = 0;
  int collapses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    net::Network network = scale_netlist(state);
    state.ResumeTiming();
    merges = mapper::dedup_shared_nodes(network);
    collapses = mapper::collapse_into_fanouts(network, 5);
    merges += mapper::dedup_shared_nodes(network);
  }
  state.counters["merges"] = merges;
  state.counters["collapses"] = collapses;
}
BENCHMARK(BM_DedupCollapse)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);

/// check_equivalence's simulation fallback on a registry circuit against a
/// second copy of itself: a one-node budget skips the formal attempt. Arg 0:
/// e64 (65 inputs) on 256 random vectors; arg 1: misex3 (14 inputs) on all
/// 2^14 vectors.
void BM_CheckEquivalenceSim(benchmark::State& state) {
  const bool exhaustive = state.range(0) != 0;
  const std::string name = exhaustive ? "misex3" : "e64";
  const net::Network a = mcnc::make_circuit(name);
  const net::Network b = mcnc::make_circuit(name);
  net::EquivalenceOptions options;
  options.bdd_node_budget = 1;
  options.random_vectors = 256;
  state.SetLabel(name);
  state.counters["nodes"] = a.num_logic_nodes();
  for (auto _ : state) {
    const net::EquivalenceResult result = net::check_equivalence(a, b, options);
    benchmark::DoNotOptimize(result);
    if (!result.equivalent || result.method == net::EquivalenceMethod::kFormalBdd) {
      state.SkipWithError("expected a simulated equivalence");
      break;
    }
  }
}
BENCHMARK(BM_CheckEquivalenceSim)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_ChartAssembly(benchmark::State& state) {
  // Example 3.2's ten partitions, the canonical encoder workload.
  const std::vector<decomp::Partition> partitions = {
      {{0, 1, 2, 3}}, {{0, 2, 1, 3}}, {{3, 0, 1, 3}}, {{2, 1, 0, 1}},
      {{0, 1, 3, 1}}, {{0, 1, 0, 2}}, {{1, 0, 0, 0}}, {{1, 1, 2, 1}},
      {{1, 2, 1, 2}}, {{3, 2, 1, 0}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::assemble_chart(partitions, 4, 4));
  }
}
BENCHMARK(BM_ChartAssembly);

}  // namespace

BENCHMARK_MAIN();
