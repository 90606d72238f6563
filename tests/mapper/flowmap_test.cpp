#include "mapper/flowmap.hpp"

#include <gtest/gtest.h>

#include <random>

#include "mapper/lutmap.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/verify.hpp"
#include "tt/truth_table.hpp"

namespace hyde::mapper {
namespace {

using net::Network;
using net::NodeId;
using tt::TruthTable;

Network wide_and_tree(int leaves) {
  Network net("andtree");
  std::vector<NodeId> pis;
  for (int i = 0; i < leaves; ++i) {
    pis.push_back(net.add_input(std::string("x").append(std::to_string(i))));
  }
  const TruthTable and_all = TruthTable::from_lambda(
      leaves, [leaves](std::uint64_t m) {
        return m == (std::uint64_t{1} << leaves) - 1;
      });
  net.add_output("o", net.add_logic_tt("o", pis, and_all));
  return net;
}

TEST(TechDecompose, ProducesTwoBoundedEquivalent) {
  std::mt19937_64 rng(1);
  for (int trial = 0; trial < 6; ++trial) {
    Network input("t");
    std::vector<NodeId> pis;
    const int n = 5 + static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) {
      pis.push_back(
          input.add_input(std::string("x").append(std::to_string(i))));
    }
    const auto table = TruthTable::from_lambda(
        n, [&rng](std::uint64_t) { return (rng() % 3) == 0; });
    input.add_output("f", input.add_logic_tt("f", pis, table));
    const Network two = tech_decompose(input);
    EXPECT_LE(two.max_fanin(), 2);
    EXPECT_TRUE(net::check_equivalence(input, two).equivalent) << trial;
  }
}

TEST(TechDecompose, HandlesConstantsAndBuffers) {
  Network input("t");
  const NodeId a = input.add_input("a");
  input.add_output("c1", input.add_constant("one", true));
  input.add_output("buf", a);
  input.add_output("inv", input.add_logic_tt("inv", {a}, ~TruthTable::var(1, 0)));
  const Network two = tech_decompose(input);
  EXPECT_TRUE(net::check_equivalence(input, two).equivalent);
}

TEST(FlowMap, AndTreeDepthIsOptimal) {
  // A 16-input AND with k=4: depth-optimal mapping needs exactly 2 levels.
  const Network input = wide_and_tree(16);
  const auto result = flowmap(input, 4);
  EXPECT_TRUE(result.network.is_k_feasible(4));
  EXPECT_EQ(result.depth, 2);
  EXPECT_LE(result.luts, 5);  // 4 leaves + 1 root is the optimum
  EXPECT_TRUE(net::check_equivalence(input, result.network).equivalent);
}

TEST(FlowMap, SingleLutWhenItFits) {
  const Network input = wide_and_tree(5);
  const auto result = flowmap(input, 5);
  EXPECT_EQ(result.depth, 1);
  EXPECT_EQ(result.luts, 1);
  EXPECT_TRUE(net::check_equivalence(input, result.network).equivalent);
}

TEST(FlowMap, RandomNetworksEquivalentAndFeasible) {
  std::mt19937_64 rng(2);
  for (int trial = 0; trial < 6; ++trial) {
    const auto input = mcnc::random_multilevel(
        std::string("fm").append(std::to_string(trial)), 10, 4, 30, 2, 5,
        500 + trial);
    for (int k : {3, 4, 5}) {
      const auto result = flowmap(input, k);
      EXPECT_TRUE(result.network.is_k_feasible(k)) << trial << " k" << k;
      EXPECT_TRUE(net::check_equivalence(input, result.network).equivalent)
          << trial << " k" << k;
      EXPECT_EQ(result.luts, result.network.num_logic_nodes());
    }
  }
}

TEST(FlowMap, DepthNeverWorseThanGreedyCovering) {
  // FlowMap's depth optimality: compare against the decomposition flow's
  // covering on tree-ish circuits.
  for (const char* name : {"rd73", "9sym", "misex1"}) {
    const auto input = mcnc::make_circuit(name);
    const auto fm = flowmap(input, 5);
    // The HYDE flow's depth on the same circuit.
    const auto base = mcnc::make_circuit(name);
    auto flow_net = tech_decompose(base);
    collapse_into_fanouts(flow_net, 5);
    EXPECT_LE(fm.depth, network_depth(flow_net)) << name;
    EXPECT_TRUE(net::check_equivalence(input, fm.network).equivalent) << name;
  }
}

TEST(FlowMap, MixedOutputsIncludingPiPassThrough) {
  Network input("t");
  const NodeId a = input.add_input("a");
  const NodeId b = input.add_input("b");
  input.add_output("pass", a);
  input.add_output("and",
                   input.add_logic_tt("g", {a, b},
                                      TruthTable::var(2, 0) & TruthTable::var(2, 1)));
  const auto result = flowmap(input, 4);
  EXPECT_TRUE(net::check_equivalence(input, result.network).equivalent);
}

TEST(FlowMap, RejectsTinyK) {
  const Network input = wide_and_tree(4);
  EXPECT_THROW(flowmap(input, 1), std::invalid_argument);
}

TEST(FlowMap, LabelsMonotoneWithK) {
  // Bigger LUTs can only reduce the optimal depth.
  const auto input = mcnc::make_circuit("rd84");
  int previous = 1 << 20;
  for (int k : {3, 4, 5, 6}) {
    const auto result = flowmap(input, k);
    EXPECT_LE(result.depth, previous) << "k=" << k;
    previous = result.depth;
  }
}

}  // namespace
}  // namespace hyde::mapper
