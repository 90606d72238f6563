#include "mapper/lutmap.hpp"
#include "mapper/xc3000.hpp"

#include <gtest/gtest.h>

#include "tt/truth_table.hpp"

namespace hyde::mapper {
namespace {

using net::Network;
using net::NodeId;
using tt::TruthTable;

TEST(Dedup, MergesIdenticalNodes) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const TruthTable xor2 = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
  const NodeId g1 = net.add_logic_tt("g1", {a, b}, and2);
  const NodeId g2 = net.add_logic_tt("g2", {a, b}, and2);  // duplicate
  const NodeId top = net.add_logic_tt("top", {g1, g2}, xor2);
  net.add_output("o", top);
  const int merged = dedup_shared_nodes(net);
  EXPECT_EQ(merged, 1);
  // g1 ^ g1 == 0: the whole network collapses to constant 0.
  EXPECT_FALSE(net.eval({true, true})[0]);
  EXPECT_LE(net.num_logic_nodes(), 1);
}

TEST(Dedup, MergesUnderFaninPermutation) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  // g1 = a & !b over (a,b); g2 = !b & a over (b,a) — same function.
  const TruthTable g1f = TruthTable::var(2, 0) & ~TruthTable::var(2, 1);
  const TruthTable g2f = ~TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const NodeId g1 = net.add_logic_tt("g1", {a, b}, g1f);
  const NodeId g2 = net.add_logic_tt("g2", {b, a}, g2f);
  const NodeId top = net.add_logic_tt(
      "top", {g1, g2}, TruthTable::var(2, 0) | TruthTable::var(2, 1));
  net.add_output("o", top);
  const auto before = net.eval({true, false});
  EXPECT_EQ(dedup_shared_nodes(net), 1);
  EXPECT_EQ(net.eval({true, false}), before);
}

TEST(Dedup, LeavesDistinctNodesAlone) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g1 = net.add_logic_tt(
      "g1", {a, b}, TruthTable::var(2, 0) & TruthTable::var(2, 1));
  const NodeId g2 = net.add_logic_tt(
      "g2", {a, b}, TruthTable::var(2, 0) | TruthTable::var(2, 1));
  net.add_output("o1", g1);
  net.add_output("o2", g2);
  EXPECT_EQ(dedup_shared_nodes(net), 0);
  EXPECT_EQ(net.num_logic_nodes(), 2);
}

TEST(Collapse, MergesChainsIntoOneLut) {
  // A chain of 2-input ANDs over 5 inputs collapses into a single 5-LUT.
  Network net("chain");
  std::vector<NodeId> pis;
  for (int i = 0; i < 5; ++i) {
    pis.push_back(net.add_input(std::string("x").append(std::to_string(i))));
  }
  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  NodeId acc = pis[0];
  for (int i = 1; i < 5; ++i) {
    acc = net.add_logic_tt(std::string("n").append(std::to_string(i)),
                           {acc, pis[static_cast<std::size_t>(i)]}, and2);
  }
  net.add_output("o", acc);
  collapse_into_fanouts(net, 5);
  EXPECT_EQ(net.num_logic_nodes(), 1);
  EXPECT_TRUE(net.eval({true, true, true, true, true})[0]);
  EXPECT_FALSE(net.eval({true, true, false, true, true})[0]);
}

TEST(Collapse, RespectsKLimit) {
  // 6-input AND chain with k=5 cannot fit in a single node.
  Network net("chain6");
  std::vector<NodeId> pis;
  for (int i = 0; i < 6; ++i) {
    pis.push_back(net.add_input(std::string("x").append(std::to_string(i))));
  }
  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  NodeId acc = pis[0];
  for (int i = 1; i < 6; ++i) {
    acc = net.add_logic_tt(std::string("n").append(std::to_string(i)),
                           {acc, pis[static_cast<std::size_t>(i)]}, and2);
  }
  net.add_output("o", acc);
  collapse_into_fanouts(net, 5);
  EXPECT_EQ(net.num_logic_nodes(), 2);
  EXPECT_TRUE(net.is_k_feasible(5));
}

TEST(Collapse, KeepsMultiFanoutNodes) {
  Network net("mf");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const TruthTable or2 = TruthTable::var(2, 0) | TruthTable::var(2, 1);
  const NodeId shared = net.add_logic_tt("sh", {a, b}, and2);
  const NodeId u = net.add_logic_tt("u", {shared, c}, or2);
  const NodeId v = net.add_logic_tt("v", {shared, c}, and2);
  net.add_output("u", u);
  net.add_output("v", v);
  collapse_into_fanouts(net, 5);
  // 'shared' has two fanouts; it must survive (no duplication).
  EXPECT_EQ(net.num_logic_nodes(), 3);
}

TEST(Resub, EliminatesRedundantFanin) {
  // f = x XOR g where g = x XOR y: f depends on x only through g... actually
  // f(x,y,g) = x ^ g = y when g = x^y. Resub should drop x (and then y-based
  // simplification gives a buffer).
  Network net("r");
  const NodeId x = net.add_input("x");
  const NodeId y = net.add_input("y");
  const TruthTable xor2 = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
  const NodeId g = net.add_logic_tt("g", {x, y}, xor2);
  const NodeId f = net.add_logic_tt("f", {x, g}, xor2);
  net.add_output("o", f);
  net.add_output("g", g);
  const int eliminated = resubstitute(net);
  EXPECT_GE(eliminated, 1);
  // Behaviour preserved: o == y.
  for (int xv = 0; xv < 2; ++xv) {
    for (int yv = 0; yv < 2; ++yv) {
      const auto out = net.eval({xv != 0, yv != 0});
      EXPECT_EQ(out[0], yv != 0);
      EXPECT_EQ(out[1], (xv ^ yv) != 0);
    }
  }
}

TEST(Resub, NoChangeWhenNotPossible) {
  Network net("r");
  const NodeId x = net.add_input("x");
  const NodeId y = net.add_input("y");
  const NodeId z = net.add_input("z");
  const TruthTable maj = TruthTable::symmetric(3, {2, 3});
  const NodeId g = net.add_logic_tt("g", {x, y, z}, maj);
  net.add_output("o", g);
  EXPECT_EQ(resubstitute(net), 0);
}

TEST(Xc3000, PairsSmallNodes) {
  Network net("p");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const TruthTable or2 = TruthTable::var(2, 0) | TruthTable::var(2, 1);
  const NodeId u = net.add_logic_tt("u", {a, b}, and2);
  const NodeId v = net.add_logic_tt("v", {b, c}, or2);
  net.add_output("u", u);
  net.add_output("v", v);
  const auto packing = pack_xc3000(net);
  // Union of inputs {a,b,c} fits a single CLB.
  EXPECT_EQ(packing.num_clbs, 1);
  EXPECT_EQ(packing.paired, 1);
  EXPECT_EQ(packing.singles, 0);
}

TEST(Xc3000, FiveInputNodesStandAlone) {
  Network net("p5");
  std::vector<NodeId> pis;
  for (int i = 0; i < 5; ++i) {
    pis.push_back(net.add_input(std::string("x").append(std::to_string(i))));
  }
  const TruthTable f5 = TruthTable::symmetric(5, {2, 3});
  const NodeId u = net.add_logic_tt("u", pis, f5);
  const NodeId v = net.add_logic_tt("v", pis, TruthTable::symmetric(5, {1, 4}));
  net.add_output("u", u);
  net.add_output("v", v);
  const auto packing = pack_xc3000(net);
  EXPECT_EQ(packing.num_clbs, 2);
  EXPECT_EQ(packing.paired, 0);
}

TEST(Xc3000, NoPairWhenInputsExceedFive) {
  Network net("p6");
  std::vector<NodeId> pis;
  for (int i = 0; i < 8; ++i) {
    pis.push_back(net.add_input(std::string("x").append(std::to_string(i))));
  }
  const TruthTable and4 = TruthTable::from_lambda(4, [](std::uint64_t m) {
    return m == 15;
  });
  const NodeId u = net.add_logic_tt("u", {pis[0], pis[1], pis[2], pis[3]}, and4);
  const NodeId v = net.add_logic_tt("v", {pis[4], pis[5], pis[6], pis[7]}, and4);
  net.add_output("u", u);
  net.add_output("v", v);
  EXPECT_EQ(pack_xc3000(net).num_clbs, 2);
}

TEST(Xc3000, RejectsWideNodes) {
  Network net("w");
  std::vector<NodeId> pis;
  for (int i = 0; i < 6; ++i) {
    pis.push_back(net.add_input(std::string("x").append(std::to_string(i))));
  }
  net.add_output("o", net.add_logic_tt("wide", pis,
                                       TruthTable::symmetric(6, {3})));
  EXPECT_THROW(pack_xc3000(net), std::invalid_argument);
}

TEST(Xc3000, NoInternalFeedPairs) {
  // v reads u: they may not share a CLB.
  Network net("feed");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const NodeId u = net.add_logic_tt("u", {a, b}, and2);
  const NodeId v = net.add_logic_tt("v", {u, a}, and2);
  net.add_output("u", u);
  net.add_output("v", v);
  EXPECT_EQ(pack_xc3000(net).num_clbs, 2);
}

TEST(Depth, CountsLevels) {
  Network net("d");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const NodeId l1 = net.add_logic_tt("l1", {a, b}, and2);
  const NodeId l2 = net.add_logic_tt("l2", {l1, a}, and2);
  const NodeId l3 = net.add_logic_tt("l3", {l2, l1}, and2);
  net.add_output("o", l3);
  EXPECT_EQ(network_depth(net), 3);
  EXPECT_EQ(lut_count(net), 3);
}

}  // namespace
}  // namespace hyde::mapper
