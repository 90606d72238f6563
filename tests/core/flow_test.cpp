#include "core/flow.hpp"

#include <gtest/gtest.h>

#include <random>

#include "tt/truth_table.hpp"

namespace hyde::core {
namespace {

using hyde::net::Network;
using hyde::net::NodeId;
using hyde::tt::TruthTable;

/// Exhaustively checks that two networks with identical PI lists compute the
/// same outputs (requires few PIs).
void expect_equivalent(const Network& a, const Network& b) {
  ASSERT_EQ(a.inputs().size(), b.inputs().size());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  const int n = static_cast<int>(a.inputs().size());
  ASSERT_LE(n, 14);
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
    std::vector<bool> assign(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) assign[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
    ASSERT_EQ(a.eval(assign), b.eval(assign)) << "minterm " << m;
  }
}

/// A 9-input symmetric benchmark (the 9sym function).
Network nine_sym() {
  Network net("9sym");
  std::vector<NodeId> pis;
  for (int i = 0; i < 9; ++i) {
    pis.push_back(net.add_input(std::string("x").append(std::to_string(i))));
  }
  const NodeId f =
      net.add_logic_tt("f", pis, TruthTable::symmetric(9, {3, 4, 5, 6}));
  net.add_output("f", f);
  return net;
}

/// A small multi-output circuit: 6-input adder-ish slice with 3 outputs.
Network three_output_circuit() {
  Network net("mo3");
  std::vector<NodeId> pis;
  for (int i = 0; i < 6; ++i) {
    pis.push_back(net.add_input(std::string("x").append(std::to_string(i))));
  }
  const auto f0 = TruthTable::from_lambda(6, [](std::uint64_t m) {
    return std::popcount(m & 0x3Full) % 2 == 1;
  });
  const auto f1 = TruthTable::from_lambda(6, [](std::uint64_t m) {
    return std::popcount(m & 0x3Full) >= 3;
  });
  const auto f2 = TruthTable::from_lambda(6, [](std::uint64_t m) {
    return ((m & 7) + ((m >> 3) & 7)) >= 5;
  });
  net.add_output("parity", net.add_logic_tt("parity", pis, f0));
  net.add_output("majority", net.add_logic_tt("majority", pis, f1));
  net.add_output("geq5", net.add_logic_tt("geq5", pis, f2));
  return net;
}

TEST(Flow, HydeDecomposes9symTo5Feasible) {
  const Network input = nine_sym();
  const auto result = run_flow(input, hyde_options(5));
  EXPECT_TRUE(result.network.is_k_feasible(5));
  EXPECT_TRUE(result.stats.collapse_mode);
  expect_equivalent(input, result.network);
  // 9sym fits in a handful of 5-LUTs (paper: 6-7 CLBs).
  EXPECT_LE(result.network.num_logic_nodes(), 12);
  EXPECT_GE(result.network.num_logic_nodes(), 3);
}

TEST(Flow, HydeHandlesMultiOutputWithHyper) {
  const Network input = three_output_circuit();
  const auto result = run_flow(input, hyde_options(5));
  EXPECT_TRUE(result.network.is_k_feasible(5));
  expect_equivalent(input, result.network);
  EXPECT_GE(result.stats.hyper_groups, 1);
  // No temporary PPI inputs survive.
  EXPECT_EQ(result.network.inputs().size(), 6u);
}

TEST(Flow, AllPresetsProduceEquivalentKFeasibleNetworks) {
  const Network input = three_output_circuit();
  for (const auto& options :
       {hyde_options(5), fgsyn_like_options(5), imodec_like_options(5),
        sawada_like_options(5)}) {
    const auto result = run_flow(input, options);
    EXPECT_TRUE(result.network.is_k_feasible(5));
    expect_equivalent(input, result.network);
  }
}

TEST(Flow, K4AlsoWorks) {
  const Network input = three_output_circuit();
  const auto result = run_flow(input, hyde_options(4));
  EXPECT_TRUE(result.network.is_k_feasible(4));
  expect_equivalent(input, result.network);
}

TEST(Flow, OutputsDrivenByPiAndConstant) {
  Network input("edge");
  const NodeId a = input.add_input("a");
  const NodeId b = input.add_input("b");
  const NodeId c1 = input.add_constant("one", true);
  input.add_output("pass", a);
  input.add_output("const", c1);
  input.add_output("nb", input.add_logic_tt("nb", {b}, ~TruthTable::var(1, 0)));
  const auto result = run_flow(input, hyde_options(5));
  expect_equivalent(input, result.network);
}

TEST(Flow, PerNodeModeOnWideCircuit) {
  // 20 PIs -> per-node mode. Two wide nodes (7 inputs each) sharing the same
  // support exercise per-node hyper grouping.
  Network input("wide");
  std::vector<NodeId> pis;
  for (int i = 0; i < 20; ++i) {
    pis.push_back(input.add_input(std::string("x").append(std::to_string(i))));
  }
  std::vector<NodeId> first7(pis.begin(), pis.begin() + 7);
  const auto g0 = TruthTable::from_lambda(7, [](std::uint64_t m) {
    return std::popcount(m) % 3 == 0;
  });
  const auto g1 = TruthTable::from_lambda(7, [](std::uint64_t m) {
    return ((m * 37) ^ (m >> 2)) % 5 < 2;
  });
  const NodeId n0 = input.add_logic_tt("w0", first7, g0);
  const NodeId n1 = input.add_logic_tt("w1", first7, g1);
  // A narrow combiner plus untouched PIs downstream.
  const auto comb = TruthTable::from_lambda(4, [](std::uint64_t m) {
    return std::popcount(m) % 2 == 1;
  });
  const NodeId top =
      input.add_logic_tt("top", {n0, n1, pis[10], pis[19]}, comb);
  input.add_output("o", top);
  input.add_output("w0", n0);

  const auto result = run_flow(input, hyde_options(5));
  EXPECT_FALSE(result.stats.collapse_mode);
  EXPECT_TRUE(result.network.is_k_feasible(5));
  // Spot-check equivalence on random vectors (20 PIs is too many for
  // exhaustive checking).
  std::mt19937_64 rng(3);
  for (int probe = 0; probe < 200; ++probe) {
    std::vector<bool> assign(20);
    for (auto&& v : assign) v = (rng() & 1) != 0;
    ASSERT_EQ(input.eval(assign), result.network.eval(assign)) << probe;
  }
}

TEST(Flow, RandomCircuitsAllPolicies) {
  std::mt19937_64 rng(2718);
  for (int trial = 0; trial < 6; ++trial) {
    Network input(std::string("rand").append(std::to_string(trial)));
    std::vector<NodeId> pis;
    const int num_pis = 7 + static_cast<int>(rng() % 3);
    for (int i = 0; i < num_pis; ++i) {
      pis.push_back(
          input.add_input(std::string("x").append(std::to_string(i))));
    }
    const int num_outputs = 1 + static_cast<int>(rng() % 3);
    for (int o = 0; o < num_outputs; ++o) {
      const auto table = TruthTable::from_lambda(
          num_pis, [&rng](std::uint64_t) { return (rng() % 3) == 0; });
      const std::string name = std::string("f").append(std::to_string(o));
      input.add_output(name, input.add_logic_tt(name, pis, table));
    }
    const FlowOptions options =
        (trial % 2 == 0) ? hyde_options(5) : fgsyn_like_options(5);
    const auto result = run_flow(input, options);
    EXPECT_TRUE(result.network.is_k_feasible(5)) << trial;
    expect_equivalent(input, result.network);
  }
}

TEST(Flow, StatsAreConsistent) {
  const auto result = run_flow(three_output_circuit(), hyde_options(5));
  EXPECT_GE(result.stats.decomposition_steps, 1);
  EXPECT_GE(result.stats.encoder_runs, result.stats.encoder_random_kept);
}

}  // namespace
}  // namespace hyde::core
