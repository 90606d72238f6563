#include "net/network.hpp"

#include <gtest/gtest.h>

#include <random>

#include "net/blif.hpp"

namespace hyde::net {
namespace {

using hyde::tt::TruthTable;

/// Builds a full adder network: sum and carry over a, b, cin.
Network full_adder() {
  Network net("full_adder");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId cin = net.add_input("cin");
  const TruthTable x0 = TruthTable::var(3, 0);
  const TruthTable x1 = TruthTable::var(3, 1);
  const TruthTable x2 = TruthTable::var(3, 2);
  const NodeId sum = net.add_logic_tt("sum", {a, b, cin}, x0 ^ x1 ^ x2);
  const NodeId carry = net.add_logic_tt(
      "carry", {a, b, cin}, (x0 & x1) | (x0 & x2) | (x1 & x2));
  net.add_output("sum", sum);
  net.add_output("cout", carry);
  return net;
}

TEST(Network, BuildAndQuery) {
  Network net = full_adder();
  EXPECT_EQ(net.inputs().size(), 3u);
  EXPECT_EQ(net.outputs().size(), 2u);
  EXPECT_EQ(net.num_logic_nodes(), 2);
  EXPECT_EQ(net.max_fanin(), 3);
  EXPECT_TRUE(net.is_k_feasible(3));
  EXPECT_FALSE(net.is_k_feasible(2));
  EXPECT_NE(net.find("sum"), kNoNode);
  EXPECT_EQ(net.find("nonexistent"), kNoNode);
}

TEST(Network, DuplicateNameThrows) {
  Network net("t");
  net.add_input("a");
  EXPECT_THROW(net.add_input("a"), std::invalid_argument);
  EXPECT_THROW(net.add_logic_tt("a", {}, TruthTable::ones(0)),
               std::invalid_argument);
}

TEST(Network, EvalFullAdder) {
  Network net = full_adder();
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int c = 0; c < 2; ++c) {
        const auto out = net.eval({a != 0, b != 0, c != 0});
        const int total = a + b + c;
        EXPECT_EQ(out[0], (total & 1) != 0) << a << b << c;
        EXPECT_EQ(out[1], total >= 2) << a << b << c;
      }
    }
  }
}

TEST(Network, TopoOrderRespectsFanins) {
  Network net = full_adder();
  const auto order = net.topo_order();
  std::vector<int> position(static_cast<std::size_t>(net.num_nodes()), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  for (NodeId id : order) {
    for (NodeId f : net.node(id).fanins) {
      EXPECT_LT(position[static_cast<std::size_t>(f)],
                position[static_cast<std::size_t>(id)]);
    }
  }
}

TEST(Network, LocalTtMatches) {
  Network net = full_adder();
  const NodeId sum = net.find("sum");
  const TruthTable expected = TruthTable::var(3, 0) ^ TruthTable::var(3, 1) ^
                              TruthTable::var(3, 2);
  EXPECT_EQ(net.local_tt(sum), expected);
}

TEST(Network, SweepRemovesUnreachable) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId keep = net.add_logic_tt("keep", {a, b},
                                       TruthTable::var(2, 0) & TruthTable::var(2, 1));
  net.add_logic_tt("orphan", {a, b},
                   TruthTable::var(2, 0) | TruthTable::var(2, 1));
  net.add_output("o", keep);
  EXPECT_EQ(net.num_logic_nodes(), 2);
  const int removed = net.sweep();
  EXPECT_EQ(removed, 1);
  EXPECT_EQ(net.num_logic_nodes(), 1);
}

TEST(Network, SweepFoldsConstantsAndBuffers) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId one = net.add_constant("one", true);
  // g = one AND a  ==> buffer of a after constant folding.
  const NodeId g = net.add_logic_tt("g", {one, a},
                                    TruthTable::var(2, 0) & TruthTable::var(2, 1));
  // h = g OR g  ==> buffer of g ==> PO should end up driven by a.
  const NodeId h = net.add_logic_tt("h", {g, g},
                                    TruthTable::var(2, 0) | TruthTable::var(2, 1));
  net.add_output("o", h);
  net.sweep();
  EXPECT_EQ(net.outputs()[0].driver, a);
  EXPECT_EQ(net.num_logic_nodes(), 0);
}

TEST(Network, SweepAbsorbsInverters) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId inv = net.add_logic_tt("inv", {a}, ~TruthTable::var(1, 0));
  const NodeId g = net.add_logic_tt("g", {inv, b},
                                    TruthTable::var(2, 0) & TruthTable::var(2, 1));
  net.add_output("o", g);
  // Behaviour before sweeping: o = !a & b.
  const auto before00 = net.eval({false, true});
  net.sweep();
  EXPECT_EQ(net.num_logic_nodes(), 1);  // inverter absorbed
  EXPECT_EQ(net.eval({false, true}), before00);
  EXPECT_TRUE(net.eval({false, true})[0]);
  EXPECT_FALSE(net.eval({true, true})[0]);
}

TEST(Network, ReplaceEverywhere) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId f = net.add_logic_tt("f", {a}, ~TruthTable::var(1, 0));
  const NodeId g = net.add_logic_tt("g", {f, b},
                                    TruthTable::var(2, 0) ^ TruthTable::var(2, 1));
  net.add_output("o", g);
  net.add_output("p", f);
  net.replace_everywhere(f, a);
  EXPECT_EQ(net.node(g).fanins[0], a);
  EXPECT_EQ(net.outputs()[1].driver, a);
}

TEST(Network, GlobalBddsMatchEval) {
  Network net = full_adder();
  bdd::Manager global(3);
  const std::vector<int> pi_var{0, 1, 2};
  std::vector<NodeId> roots;
  for (const auto& o : net.outputs()) roots.push_back(o.driver);
  const auto bdds = net.global_bdds(roots, global, pi_var);
  for (std::uint64_t m = 0; m < 8; ++m) {
    std::vector<bool> assign{(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    const auto expected = net.eval(assign);
    EXPECT_EQ(global.eval(bdds[0], assign), expected[0]) << m;
    EXPECT_EQ(global.eval(bdds[1], assign), expected[1]) << m;
  }
}

TEST(Network, FreshNamesAreUnique) {
  Network net("t");
  net.add_input("n_0");
  const std::string fresh = net.fresh_name("n");
  EXPECT_NE(fresh, "n_0");
  EXPECT_EQ(net.find(fresh), kNoNode);
}

TEST(Network, CycleDetection) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId f = net.add_logic_tt("f", {a}, TruthTable::var(1, 0));
  const NodeId g = net.add_logic_tt("g", {f}, TruthTable::var(1, 0));
  net.add_output("o", g);
  // Manually create a cycle f -> g -> f.
  net.node(f).fanins[0] = g;
  EXPECT_THROW(net.topo_order(), std::logic_error);
}

TEST(Network, FanoutCount) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId f = net.add_logic_tt("f", {a, b},
                                    TruthTable::var(2, 0) & TruthTable::var(2, 1));
  net.add_logic_tt("g", {f, a}, TruthTable::var(2, 0) | TruthTable::var(2, 1));
  net.add_logic_tt("h", {f, f}, TruthTable::var(2, 0) ^ TruthTable::var(2, 1));
  EXPECT_EQ(net.fanout_count(f), 3);  // g once + h twice
  EXPECT_EQ(net.fanout_count(a), 2);
}

TEST(Network, ManagerIsCreatedOnFirstLogicNode) {
  // Inputs and outputs only: evaluation and a BLIF round trip never need a
  // BDD manager, so none is allocated.
  Network net;
  net.add_input("a");
  const NodeId b = net.add_input("b");
  net.add_output("b", b);
  EXPECT_EQ(net.eval({false, true}), std::vector<bool>{true});
  const Network back = read_blif_string(write_blif_string(net));
  EXPECT_EQ(back.eval({true, false}), std::vector<bool>{false});
  EXPECT_FALSE(net.has_manager());
  EXPECT_FALSE(back.has_manager());

  // Adding logic creates the manager before the node lands.
  net.add_constant("one", true);
  EXPECT_TRUE(net.has_manager());
  Network tt_net;
  tt_net.add_logic_tt("c", {}, TruthTable::zeros(0));
  EXPECT_TRUE(tt_net.has_manager());
}

TEST(TransferCompose, MovesAcrossManagers) {
  bdd::Manager src(3), dst(6);
  const bdd::Bdd f = src.var(0) ^ (src.var(1) & src.var(2));
  std::vector<bdd::Bdd> subst{dst.var(5), dst.var(4), dst.var(3) & dst.var(2)};
  const bdd::Bdd g = transfer_compose(f, dst, subst);
  EXPECT_EQ(g, dst.var(5) ^ (dst.var(4) & dst.var(3) & dst.var(2)));
}

TEST(Transfer, RenamesVariables) {
  bdd::Manager src(2), dst(8);
  const bdd::Bdd f = src.var(0) | src.var(1);
  const bdd::Bdd g = transfer(f, dst, {6, 7});
  EXPECT_EQ(g, dst.var(6) | dst.var(7));
}

}  // namespace
}  // namespace hyde::net
