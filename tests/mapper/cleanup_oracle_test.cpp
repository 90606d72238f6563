/// \file cleanup_oracle_test.cpp
/// \brief The mapper cleanup against its reference: dedup_shared_nodes and
/// collapse_into_fanouts must return the reference passes' counts and leave
/// the same network, compared as written BLIF byte for byte. Each case builds
/// its network twice (every builder is deterministic), runs the flows'
/// cleanup sequence on one copy with the production passes and on the other
/// with the reference passes.

#include <fstream>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "baseline/flows.hpp"
#include "gtest/gtest.h"
#include "mapper/lutmap.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "oracles/cleanup_oracle.hpp"
#include "part/windowed.hpp"
#include "tt/truth_table.hpp"

namespace hyde::mapper {
namespace {

using net::Network;
using net::NodeId;
using tt::TruthTable;

struct Passes {
  std::function<int(Network&)> dedup;
  std::function<int(Network&, int)> collapse;
};

const Passes kProduction{dedup_shared_nodes, collapse_into_fanouts};
const Passes kReference{dedup_shared_nodes_reference,
                        collapse_into_fanouts_reference};

/// The cleanup sequence of baseline::run_system (with the resubstitution
/// round of RK-resub when \p resub), returning every pass's count.
std::vector<int> cleanup(Network& network, const Passes& passes, int k,
                         bool resub) {
  std::vector<int> counts;
  counts.push_back(passes.dedup(network));
  counts.push_back(passes.collapse(network, k));
  if (resub) {
    counts.push_back(resubstitute(network));
    counts.push_back(passes.dedup(network));
    counts.push_back(passes.collapse(network, k));
  }
  counts.push_back(passes.dedup(network));
  return counts;
}

/// Returns the production passes' counts.
std::vector<int> expect_identical(const std::function<Network()>& build,
                                  int k, bool resub, const std::string& label) {
  Network fast = build();
  Network slow = build();
  EXPECT_EQ(net::write_blif_string(fast), net::write_blif_string(slow))
      << label << ": the builder is not deterministic";
  const std::vector<int> counts = cleanup(fast, kProduction, k, resub);
  EXPECT_EQ(counts, cleanup(slow, kReference, k, resub)) << label;
  EXPECT_EQ(net::write_blif_string(fast), net::write_blif_string(slow))
      << label;
  return counts;
}

/// prefix followed by n (appending, not prepending, keeps GCC 12's
/// -Wrestrict quiet).
template <typename Int>
std::string numbered(const char* prefix, Int n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

/// A random network of 1- to 4-input nodes, biased to narrow ones. About a
/// quarter of the nodes copy an earlier node's function over a permutation
/// of its fanins, some read one signal twice, and a sixth drive outputs
/// (duplicates included).
Network random_network(std::uint64_t seed, int num_nodes) {
  std::mt19937_64 rng(seed);
  Network network(numbered("r", seed));
  std::vector<NodeId> signals;
  std::vector<NodeId> logic;
  for (int i = 0; i < 6; ++i) {
    signals.push_back(network.add_input(numbered("x", i)));
  }
  for (int n = 0; n < num_nodes; ++n) {
    const std::string name = numbered("n", n);
    NodeId id = net::kNoNode;
    const std::uint64_t kind = rng() % 8;
    if (kind < 2 && !logic.empty()) {
      // A permuted copy: fanin i of the copy is fanin perm[i] of the
      // original, and permute() moves the table to match.
      const NodeId original = logic[rng() % logic.size()];
      std::vector<NodeId> fanins = network.node(original).fanins;
      std::vector<int> perm(fanins.size());
      std::iota(perm.begin(), perm.end(), 0);
      std::shuffle(perm.begin(), perm.end(), rng);
      std::vector<NodeId> permuted;
      for (const int p : perm) {
        permuted.push_back(fanins[static_cast<std::size_t>(p)]);
      }
      id = network.add_logic_tt(name, permuted,
                                network.local_tt(original).permute(perm));
    } else {
      const int arity = 1 + static_cast<int>(rng() % 7) / 2;  // 1..4, narrow
      std::vector<NodeId> fanins;
      for (int a = 0; a < arity; ++a) {
        fanins.push_back(signals[rng() % signals.size()]);
      }
      if (kind == 2) fanins.push_back(fanins.front());  // read twice
      TruthTable table(static_cast<int>(fanins.size()));
      for (std::uint64_t m = 0; m < table.size(); ++m) {
        table.set_bit(m, (rng() & 1U) != 0);
      }
      id = network.add_logic_tt(name, fanins, table);
    }
    signals.push_back(id);
    logic.push_back(id);
    if (rng() % 6 == 0) {
      network.add_output(numbered("o", n), id);
    }
  }
  network.add_output("last", logic.back());
  return network;
}

TEST(CleanupOracle, RandomNetworksWithPermutedDuplicates) {
  int merges = 0;
  int collapses = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const int k = seed % 3 == 0 ? 4 : 5;
    const int size = 80 + 10 * static_cast<int>(seed);
    const std::vector<int> counts =
        expect_identical([&] { return random_network(seed, size); }, k,
                         seed % 4 == 0, numbered("seed ", seed));
    merges += counts.front() + counts.back();
    collapses += counts[1];
  }
  // The cases exercise both passes.
  EXPECT_GT(merges, 24);
  EXPECT_GT(collapses, 24);
}

/// n1 and n2 are duplicates. Their merge turns r1 = AND(n1, n2, c) into
/// AND(n1, n1, c); only the sweep after the first pass reduces that to
/// AND(n1, c), which r2 already computes, so r1 and r2 merge on the second
/// pass, and their readers s1 and s2 later in that same pass.
Network second_pass_chain() {
  Network network("chain");
  const NodeId a = network.add_input("a");
  const NodeId b = network.add_input("b");
  const NodeId c = network.add_input("c");
  const NodeId d = network.add_input("d");
  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const TruthTable and3 = and2.expand(3, {0, 1}) & TruthTable::var(3, 2);
  const TruthTable xor2 = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
  const NodeId n1 = network.add_logic_tt("n1", {a, b}, xor2);
  const NodeId n2 = network.add_logic_tt("n2", {b, a}, xor2);
  const NodeId r1 = network.add_logic_tt("r1", {n1, n2, c}, and3);
  const NodeId r2 = network.add_logic_tt("r2", {c, n1}, and2);
  const TruthTable or2 = TruthTable::var(2, 0) | TruthTable::var(2, 1);
  const NodeId s1 = network.add_logic_tt("s1", {r1, d}, or2);
  const NodeId s2 = network.add_logic_tt("s2", {d, r2}, or2);
  network.add_output("o1", s1);
  network.add_output("o2", s2);
  network.add_output("o3", network.add_logic_tt("t", {s1, s2}, xor2));
  return network;
}

TEST(CleanupOracle, ChainThatMergesOnLaterPasses) {
  {
    Network network = second_pass_chain();
    EXPECT_EQ(dedup_shared_nodes(network), 3);
  }
  expect_identical(second_pass_chain, 5, false, "chain");
}

/// A reader that lists one duplicate twice, and duplicates that drive
/// outputs directly, so merging redirects both pins and outputs.
Network doubled_reads_and_outputs() {
  Network network("reads");
  const NodeId a = network.add_input("a");
  const NodeId b = network.add_input("b");
  const NodeId c = network.add_input("c");
  const TruthTable or2 = TruthTable::var(2, 0) | TruthTable::var(2, 1);
  const TruthTable maj = TruthTable::symmetric(3, {2, 3});
  const NodeId g1 = network.add_logic_tt("g1", {a, b}, or2);
  const NodeId g2 = network.add_logic_tt("g2", {b, a}, or2);
  const NodeId g3 = network.add_logic_tt("g3", {a, b}, or2);
  const NodeId r = network.add_logic_tt("r", {g2, c, g3}, maj);
  const NodeId q = network.add_logic_tt("q", {g3, g3, c}, maj);
  network.add_output("o_g1", g1);
  network.add_output("o_g2", g2);
  network.add_output("o_g3", g3);
  network.add_output("o_r", r);
  network.add_output("o_q", q);
  network.add_output("o_q_again", q);
  return network;
}

TEST(CleanupOracle, DoubledReadsAndOutputDrivers) {
  expect_identical(doubled_reads_and_outputs, 5, false, "reads");
  expect_identical(doubled_reads_and_outputs, 4, true, "reads, resub");
}

TEST(CleanupOracle, RegistryUnderFourSystems) {
  const baseline::System systems[] = {
      baseline::System::kHyde, baseline::System::kImodecLike,
      baseline::System::kSawadaLike, baseline::System::kSawadaResubLike};
  for (const std::string& name : mcnc::all_circuits()) {
    const Network input = mcnc::make_circuit(name);
    for (const baseline::System system : systems) {
      core::FlowOptions options = baseline::system_flow_options(system, 5);
      options.seed = 1;
      expect_identical(
          [&] { return core::run_flow(input, options).network; }, 5,
          system == baseline::System::kSawadaResubLike,
          name + "/" + baseline::system_name(system));
    }
  }
}

TEST(CleanupOracle, WindowedFixtures) {
  for (const std::string file : {"win_mid.blif", "win_wide.blif"}) {
    const std::string path = std::string(HYDE_BLIF_FIXTURE_DIR) + "/" + file;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing fixture " << path;
    const Network input = std::move(net::read_blif_model(in).network);
    part::WindowedFlowOptions options;
    options.flow = baseline::system_flow_options(baseline::System::kHyde, 5);
    options.flow.seed = 1;
    expect_identical(
        [&] { return part::run_windowed_flow(input, options).network; }, 5,
        false, file);
  }
}

}  // namespace
}  // namespace hyde::mapper
