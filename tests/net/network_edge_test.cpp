/// Network lifecycle edge cases: sweep idempotence, input retirement,
/// stats, and global-BDD consistency on reconvergent structures.

#include "net/network.hpp"

#include <gtest/gtest.h>

#include <random>

#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "tt/truth_table.hpp"

namespace hyde::net {
namespace {

using tt::TruthTable;

TEST(NetworkEdge, SweepIsIdempotent) {
  auto net = mcnc::random_multilevel("s", 8, 4, 30, 2, 5, 99);
  net.sweep();
  const std::string once = write_blif_string(net);
  net.sweep();
  EXPECT_EQ(write_blif_string(net), once);
}

TEST(NetworkEdge, SweepPreservesBehaviourOnRandomNets) {
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 6; ++trial) {
    auto net = mcnc::random_multilevel(
        std::string("s").append(std::to_string(trial)), 8, 4, 25, 1, 4,
        1000 + trial);
    // Record behaviour, sweep, compare.
    std::vector<std::vector<bool>> before;
    std::vector<std::vector<bool>> probes;
    for (int p = 0; p < 32; ++p) {
      std::vector<bool> assign(8);
      for (auto&& v : assign) v = (rng() & 1) != 0;
      probes.push_back(assign);
      before.push_back(net.eval(assign));
    }
    net.sweep();
    for (std::size_t p = 0; p < probes.size(); ++p) {
      EXPECT_EQ(net.eval(probes[p]), before[p]) << trial << " probe " << p;
    }
  }
}

TEST(NetworkEdge, DropUnusedInputsGuards) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  const NodeId g = net.add_logic_tt("g", {a},
                                    ~TruthTable::var(1, 0));
  net.add_output("o", g);
  net.add_output("p", b);
  // a is read, b drives a PO, c is free.
  EXPECT_THROW(net.drop_unused_inputs({a}), std::logic_error);
  EXPECT_THROW(net.drop_unused_inputs({b}), std::logic_error);
  EXPECT_THROW(net.drop_unused_inputs({g}), std::logic_error);  // not an input
  net.drop_unused_inputs({c});
  EXPECT_EQ(net.inputs().size(), 2u);
  // eval still works with the reduced PI vector.
  EXPECT_TRUE(net.eval({false, true})[0]);
}

TEST(NetworkEdge, GlobalBddsOnReconvergence) {
  // Diamond: f = (a&b) ^ (a|b) — shared PIs through two paths.
  Network net("d");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId top = net.add_logic_tt("and", {a, b},
                                      TruthTable::var(2, 0) & TruthTable::var(2, 1));
  const NodeId bot = net.add_logic_tt("or", {a, b},
                                      TruthTable::var(2, 0) | TruthTable::var(2, 1));
  const NodeId root = net.add_logic_tt("x", {top, bot},
                                       TruthTable::var(2, 0) ^ TruthTable::var(2, 1));
  net.add_output("o", root);
  bdd::Manager global(2);
  const auto bdds = net.global_bdds({root}, global, {0, 1});
  EXPECT_EQ(bdds[0], global.var(0) ^ global.var(1));
}

TEST(NetworkEdge, StatsMentionEverything) {
  const auto net = mcnc::make_circuit("rd73");
  const std::string stats = net.stats();
  EXPECT_NE(stats.find("rd73"), std::string::npos);
  EXPECT_NE(stats.find("7 PIs"), std::string::npos);
  EXPECT_NE(stats.find("3 POs"), std::string::npos);
}

TEST(NetworkEdge, ReplaceEverywhereOnPo) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId g = net.add_logic_tt("g", {a}, TruthTable::var(1, 0));
  net.add_output("o", g);
  net.replace_everywhere(g, a);
  net.sweep();
  EXPECT_EQ(net.outputs()[0].driver, a);
  EXPECT_EQ(net.num_logic_nodes(), 0);
}

TEST(NetworkEdge, ConstantOnlyNetwork) {
  Network net("c");
  net.add_input("unused");
  net.add_output("t", net.add_constant("one", true));
  net.add_output("f", net.add_constant("zero", false));
  net.sweep();
  const auto out = net.eval({false});
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
  // BLIF round trip keeps constants.
  const auto reparsed = read_blif_string(write_blif_string(net));
  EXPECT_EQ(reparsed.eval({true}), out);
}

TEST(NetworkEdge, DeepChainTopoOrder) {
  // 500-deep buffer chain: topological order must not overflow or reorder.
  Network net("deep");
  NodeId cur = net.add_input("a");
  for (int i = 0; i < 500; ++i) {
    cur = net.add_logic_tt(std::string("n").append(std::to_string(i)), {cur},
                           ~TruthTable::var(1, 0));
  }
  net.add_output("o", cur);
  const auto order = net.topo_order();
  EXPECT_EQ(order.size(), 501u);
  // 500 inversions = identity.
  EXPECT_TRUE(net.eval({true})[0]);
  EXPECT_FALSE(net.eval({false})[0]);
  net.sweep();  // collapses the inverter chain pairwise
  EXPECT_LE(net.num_logic_nodes(), 1);
}

}  // namespace
}  // namespace hyde::net
