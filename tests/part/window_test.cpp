/// Window extraction invariants: partitioning, budgets, convexity /
/// stitchability, MFFC fanout-freeness and sub-network semantics.

#include "part/window.hpp"

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "core/flow.hpp"
#include "gtest/gtest.h"
#include "mapper/lutmap.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "net/network.hpp"
#include "tt/truth_table.hpp"

namespace hyde::part {
namespace {

/// Simulates every node of \p network under a PI assignment (inputs() order)
/// via the local BDDs, so wide nodes cost nothing exponential.
std::vector<bool> simulate(const net::Network& network,
                           const std::vector<bool>& pi_values) {
  std::vector<bool> value(static_cast<std::size_t>(network.num_nodes()), false);
  for (std::size_t i = 0; i < network.inputs().size(); ++i) {
    value[static_cast<std::size_t>(network.inputs()[i])] = pi_values[i];
  }
  for (net::NodeId id : network.topo_order()) {
    const net::Node& n = network.node(id);
    if (n.kind != net::NodeKind::kLogic) continue;
    std::vector<bool> local(n.fanins.size());
    for (std::size_t i = 0; i < n.fanins.size(); ++i) {
      local[i] = value[static_cast<std::size_t>(n.fanins[i])];
    }
    value[static_cast<std::size_t>(id)] =
        network.manager().eval(n.local, local);
  }
  return value;
}

/// Checks every documented extraction invariant over \p windows.
void check_invariants(const net::Network& network,
                      const std::vector<Window>& windows,
                      const WindowOptions& options) {
  // Partition: every live logic node in exactly one window.
  std::set<net::NodeId> live;
  for (net::NodeId id : network.topo_order()) {
    if (network.node(id).kind == net::NodeKind::kLogic) live.insert(id);
  }
  std::vector<int> window_of(static_cast<std::size_t>(network.num_nodes()), -1);
  std::set<net::NodeId> seen;
  for (const Window& w : windows) {
    for (net::NodeId m : w.members) {
      EXPECT_TRUE(seen.insert(m).second) << "node in two windows";
      ASSERT_EQ(network.node(m).kind, net::NodeKind::kLogic);
      window_of[static_cast<std::size_t>(m)] = w.index;
    }
  }
  EXPECT_EQ(seen, live);

  for (const Window& w : windows) {
    EXPECT_LE(static_cast<int>(w.members.size()), options.max_nodes);
    if (!w.over_budget) {
      EXPECT_LE(static_cast<int>(w.inputs.size()), options.max_inputs);
    } else {
      EXPECT_EQ(w.members.size(), 1u);
    }
    // Inputs are outside; roots are members.
    for (net::NodeId i : w.inputs) {
      EXPECT_NE(window_of[static_cast<std::size_t>(i)], w.index);
    }
    for (net::NodeId r : w.roots) {
      EXPECT_EQ(window_of[static_cast<std::size_t>(r)], w.index);
    }
    // Stitchability (acyclic condensation): every member fanin is a PI, a
    // member, or a member of an earlier-indexed window.
    bool wide = false;
    for (net::NodeId m : w.members) {
      const net::Node& n = network.node(m);
      if (static_cast<int>(n.fanins.size()) > options.k) wide = true;
      for (net::NodeId f : n.fanins) {
        const int src = window_of[static_cast<std::size_t>(f)];
        EXPECT_TRUE(src == w.index ||
                    (src == -1 &&
                     network.node(f).kind == net::NodeKind::kInput) ||
                    src < w.index)
            << "fanin from a later window breaks the stitch order";
      }
    }
    EXPECT_EQ(w.needs_resynthesis, wide);
    // Every member read from outside (or driving a PO) is a root.
    for (net::NodeId m : w.members) {
      bool outside = false;
      for (const net::Output& o : network.outputs()) {
        if (o.driver == m) outside = true;
      }
      for (net::NodeId id : network.topo_order()) {
        if (window_of[static_cast<std::size_t>(id)] == w.index) continue;
        const net::Node& n = network.node(id);
        if (std::find(n.fanins.begin(), n.fanins.end(), m) != n.fanins.end()) {
          outside = true;
        }
      }
      const bool is_root =
          std::find(w.roots.begin(), w.roots.end(), m) != w.roots.end();
      EXPECT_EQ(is_root, outside);
    }
  }
}

TEST(WindowTest, LevelizeCountsLogicDepth) {
  net::Network n("lvl");
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  n.manager().ensure_vars(2);
  const auto g1 = n.add_logic("g1", {a, b},
                              n.manager().var(0) & n.manager().var(1));
  const auto g2 = n.add_logic("g2", {g1, a},
                              n.manager().var(0) | n.manager().var(1));
  n.add_output("y", g2);
  const std::vector<int> level = levelize(n);
  EXPECT_EQ(level[static_cast<std::size_t>(a)], 0);
  EXPECT_EQ(level[static_cast<std::size_t>(g1)], 1);
  EXPECT_EQ(level[static_cast<std::size_t>(g2)], 2);
}

TEST(WindowTest, MffcIsFanoutFree) {
  for (const char* name : {"rd73", "9sym", "b9", "apex7"}) {
    const net::Network network = mcnc::make_circuit(name);
    for (net::NodeId root : network.topo_order()) {
      if (network.node(root).kind != net::NodeKind::kLogic) continue;
      const std::vector<net::NodeId> cone = mffc(network, root);
      ASSERT_FALSE(cone.empty());
      EXPECT_EQ(cone.back(), root) << name;
      std::set<net::NodeId> in_cone(cone.begin(), cone.end());
      for (net::NodeId m : cone) {
        if (m == root) continue;
        // Fanout-free: every reader of a non-root member is in the cone,
        // and no PO escapes through it.
        for (const net::Output& o : network.outputs()) {
          EXPECT_NE(o.driver, m) << name;
        }
        for (net::NodeId id : network.topo_order()) {
          const net::Node& n = network.node(id);
          if (n.kind != net::NodeKind::kLogic) continue;
          if (std::find(n.fanins.begin(), n.fanins.end(), m) !=
              n.fanins.end()) {
            EXPECT_TRUE(in_cone.count(id)) << name;
          }
        }
      }
    }
  }
}

TEST(WindowTest, ExtractionInvariantsAcrossBudgets) {
  const std::vector<WindowOptions> budgets = {
      {/*max_inputs=*/4, /*max_nodes=*/8, /*k=*/5},
      {/*max_inputs=*/8, /*max_nodes=*/32, /*k=*/5},
      {/*max_inputs=*/12, /*max_nodes=*/64, /*k=*/5},
  };
  for (const char* name : {"rd84", "clip", "b9", "apex7", "count"}) {
    const net::Network network = mcnc::make_circuit(name);
    for (const WindowOptions& options : budgets) {
      const std::vector<Window> windows = extract_windows(network, options);
      ASSERT_FALSE(windows.empty()) << name;
      check_invariants(network, windows, options);
    }
  }
}

TEST(WindowTest, ExtractionIsDeterministic) {
  const net::Network network = mcnc::make_circuit("apex7");
  WindowOptions options;
  const std::vector<Window> a = extract_windows(network, options);
  const std::vector<Window> b = extract_windows(network, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].members, b[i].members);
    EXPECT_EQ(a[i].inputs, b[i].inputs);
    EXPECT_EQ(a[i].roots, b[i].roots);
  }
}

TEST(WindowTest, OverBudgetSingletonIsFlagged) {
  net::Network n("wide");
  std::vector<net::NodeId> pis;
  for (int i = 0; i < 6; ++i) {
    pis.push_back(n.add_input(std::string("i").append(std::to_string(i))));
  }
  n.manager().ensure_vars(6);
  bdd::Bdd f = n.manager().one();
  for (int i = 0; i < 6; ++i) f = f & n.manager().var(i);
  const auto g = n.add_logic("g", pis, std::move(f));
  n.add_output("y", g);
  WindowOptions options;
  options.max_inputs = 4;
  options.max_nodes = 8;
  const std::vector<Window> windows = extract_windows(n, options);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_TRUE(windows[0].over_budget);
  EXPECT_TRUE(windows[0].needs_resynthesis);
  EXPECT_EQ(windows[0].inputs.size(), 6u);
}

TEST(WindowTest, SubnetworkMatchesHostOnRandomVectors) {
  const net::Network network = mcnc::make_circuit("rd84");
  WindowOptions options;
  options.max_inputs = 6;
  options.max_nodes = 16;
  const std::vector<Window> windows = extract_windows(network, options);
  std::mt19937_64 rng(7);
  for (const Window& w : windows) {
    const net::Network sub = window_subnetwork(network, w);
    ASSERT_EQ(sub.inputs().size(), w.inputs.size());
    ASSERT_EQ(sub.outputs().size(), w.roots.size());
    for (int vec = 0; vec < 16; ++vec) {
      std::vector<bool> pi_values(network.inputs().size());
      for (std::size_t i = 0; i < pi_values.size(); ++i) {
        pi_values[i] = (rng() & 1) != 0;
      }
      const std::vector<bool> host_value = simulate(network, pi_values);
      std::vector<bool> sub_pi(w.inputs.size());
      for (std::size_t i = 0; i < w.inputs.size(); ++i) {
        sub_pi[i] = host_value[static_cast<std::size_t>(w.inputs[i])];
      }
      const std::vector<bool> sub_out = sub.eval(sub_pi);
      for (std::size_t j = 0; j < w.roots.size(); ++j) {
        EXPECT_EQ(sub_out[j],
                  host_value[static_cast<std::size_t>(w.roots[j])]);
      }
    }
  }
}

TEST(WindowTest, SnapshotMaterializesTheExactSubnetwork) {
  // The plain-data snapshot must reproduce window_subnetwork bit for bit —
  // same names, wiring, functions and output order — since the windowed
  // engine materializes it on worker threads in place of a host extraction.
  const net::Network network = mcnc::make_circuit("rd84");
  WindowOptions options;
  options.max_inputs = 6;
  options.max_nodes = 16;
  const std::vector<Window> windows = extract_windows(network, options);
  ASSERT_FALSE(windows.empty());
  for (const Window& w : windows) {
    WindowSnapshot snapshot;
    ASSERT_TRUE(snapshot_window(network, w, &snapshot));
    EXPECT_EQ(snapshot.input_names.size(), w.inputs.size());
    EXPECT_EQ(snapshot.members.size(), w.members.size());
    EXPECT_EQ(snapshot.roots.size(), w.roots.size());
    const net::Network from_snapshot = materialize_snapshot(snapshot);
    const net::Network from_host = window_subnetwork(network, w);
    EXPECT_EQ(net::write_blif_string(from_snapshot),
              net::write_blif_string(from_host));
  }
}

TEST(WindowTest, NetworkSnapshotRoundTripsCornerCases) {
  // The windowed engine hands each mapped window back as a snapshot, so a
  // capture must survive the shapes a mapped network takes: a PO driven
  // straight by a PI, a constant, one node driving two POs, and a node read
  // on two pins of one reader.
  net::Network n("corners");
  const net::NodeId a = n.add_input("a");
  const net::NodeId b = n.add_input("b");
  const net::NodeId c = n.add_input("c");
  const net::NodeId one = n.add_constant("one", true);
  const net::NodeId x =
      n.add_logic_tt("x", {a, b}, tt::TruthTable::from_bits("0110"));
  const net::NodeId y = n.add_logic_tt("y", {x, x, c, one},
                                       tt::TruthTable::from_bits(
                                           "1011001010110010"));
  n.add_output("pa", a);
  n.add_output("k", one);
  n.add_output("y1", y);
  n.add_output("y2", y);
  const WindowSnapshot snapshot = snapshot_network(n);
  EXPECT_EQ(snapshot.input_names.size(), 3u);
  EXPECT_EQ(snapshot.members.size(), 3u);
  ASSERT_EQ(snapshot.roots.size(), 4u);
  EXPECT_EQ(snapshot.roots[0].driver, 0);
  EXPECT_EQ(snapshot.roots[2].driver, snapshot.roots[3].driver);
  EXPECT_EQ(net::write_blif_string(materialize_snapshot(snapshot)),
            net::write_blif_string(n));
}

TEST(WindowTest, NetworkSnapshotRoundTripsMappedWindows) {
  // Every mapped window of a wide random netlist, as the engine captures it.
  const net::Network network = mcnc::random_multilevel(
      "wide", /*num_inputs=*/24, /*num_outputs=*/6, /*num_nodes=*/200,
      /*min_arity=*/3, /*max_arity=*/8, /*seed=*/5);
  int mapped = 0;
  for (const Window& w : extract_windows(network, WindowOptions{})) {
    if (!w.needs_resynthesis) continue;
    core::FlowResult flow =
        core::run_flow(window_subnetwork(network, w), core::hyde_options(5));
    mapper::dedup_shared_nodes(flow.network);
    mapper::collapse_into_fanouts(flow.network, 5);
    EXPECT_EQ(net::write_blif_string(
                  materialize_snapshot(snapshot_network(flow.network))),
              net::write_blif_string(flow.network));
    ++mapped;
  }
  EXPECT_GT(mapped, 4);
}

TEST(WindowTest, SnapshotRefusesMembersTooWideForATruthTable) {
  // A member past tt::TruthTable::kMaxVars fanins cannot be captured as a
  // table; the engine must fall back to a prebuilt window_subnetwork clone.
  const int width = tt::TruthTable::kMaxVars + 1;
  net::Network n("toowide");
  std::vector<net::NodeId> pis;
  for (int i = 0; i < width; ++i) {
    pis.push_back(n.add_input(std::string("i").append(std::to_string(i))));
  }
  n.manager().ensure_vars(width);
  bdd::Bdd f = n.manager().one();
  for (int i = 0; i < width; ++i) f = f & n.manager().var(i);
  const auto g = n.add_logic("g", pis, std::move(f));
  n.add_output("y", g);
  const std::vector<Window> windows = extract_windows(n, WindowOptions{});
  ASSERT_EQ(windows.size(), 1u);
  WindowSnapshot snapshot;
  EXPECT_FALSE(snapshot_window(n, windows[0], &snapshot));
}

TEST(WindowTest, MakeWindowSplitHalvesStayStitchable) {
  const net::Network network = mcnc::make_circuit("apex7");
  WindowOptions options;
  options.max_inputs = 12;
  options.max_nodes = 40;
  const std::vector<Window> windows = extract_windows(network, options);
  const Window* big = nullptr;
  for (const Window& w : windows) {
    if (w.members.size() >= 2 && (big == nullptr ||
                                  w.members.size() > big->members.size())) {
      big = &w;
    }
  }
  ASSERT_NE(big, nullptr);
  const std::size_t mid = big->members.size() / 2;
  std::vector<net::NodeId> lo(big->members.begin(),
                              big->members.begin() +
                                  static_cast<std::ptrdiff_t>(mid));
  std::vector<net::NodeId> hi(big->members.begin() +
                                  static_cast<std::ptrdiff_t>(mid),
                              big->members.end());
  const Window first = make_window(network, lo, big->index, options.k);
  const Window second = make_window(network, hi, big->index, options.k);
  EXPECT_EQ(first.members, lo);
  EXPECT_EQ(second.members, hi);
  // The first half never reads the second: topological halves stay ordered.
  for (net::NodeId i : first.inputs) {
    EXPECT_EQ(std::find(hi.begin(), hi.end(), i), hi.end());
  }
  // Signals crossing the cut show up as the second half's inputs.
  for (net::NodeId i : second.inputs) {
    const bool from_first = std::find(lo.begin(), lo.end(), i) != lo.end();
    const bool from_outside =
        std::find(big->inputs.begin(), big->inputs.end(), i) !=
        big->inputs.end();
    EXPECT_TRUE(from_first || from_outside);
  }
}

}  // namespace
}  // namespace hyde::part
