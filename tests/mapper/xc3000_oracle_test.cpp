/// \file xc3000_oracle_test.cpp
/// \brief The XC3000 packer against its reference: the CSR pairing graph
/// must list exactly the std::set builder's edges, in the same order, the
/// matcher must return the reference mate vector, and pack_xc3000 must
/// return the reference packing field for field — on every registry circuit
/// under four systems, on the committed BLIF fixtures after the windowed and
/// the whole-network flow, on seeded random 5-feasible networks (some biased
/// to 1- and 2-input LUTs), and on networks with constants and repeated
/// fanins. The bound, not the blossom fallback, decides on the fixtures and
/// on a scale tile.

#include <algorithm>
#include <fstream>
#include <random>
#include <string>
#include <unordered_map>

#include "baseline/flows.hpp"
#include "gtest/gtest.h"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "oracles/matching_oracle.hpp"
#include "part/windowed.hpp"
#include "graph/matching.hpp"
#include "tt/truth_table.hpp"

namespace hyde::mapper {
namespace {

/// prefix followed by n (appending, not prepending, keeps GCC 12's
/// -Wrestrict quiet).
template <typename Int>
std::string numbered(const char* prefix, Int n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

/// Position of every node in the reference's vertex numbering (every live
/// logic node, in topological order).
std::unordered_map<net::NodeId, int> reference_index(
    const PairingEdgesReference& reference) {
  std::unordered_map<net::NodeId, int> index;
  for (std::size_t i = 0; i < reference.nodes.size(); ++i) {
    index[reference.nodes[i]] = static_cast<int>(i);
  }
  return index;
}

/// Returns pack_xc3000's result.
ClbPacking expect_matches_reference(const net::Network& network,
                                    const std::string& label) {
  const PairingEdgesReference reference =
      xc3000_pairing_edges_reference(network);
  const auto index = reference_index(reference);
  const PairingGraph graph = xc3000_pairing_graph(network);
  EXPECT_EQ(graph.num_luts, static_cast<int>(reference.nodes.size()))
      << label;
  auto renumber = [&](int v) {
    return index.at(graph.nodes[static_cast<std::size_t>(v)]);
  };

  // The CSR rows, read back as (i, j), i < j edges in the reference's
  // numbering, are the reference edge list in its order; and each row is
  // ascending, which is the order the reference's list builds rows in.
  const auto& adj = graph.adjacency;
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v < adj.num_vertices(); ++v) {
    const auto row_begin = adj.neighbours.begin() +
                           static_cast<std::ptrdiff_t>(
                               adj.offsets[static_cast<std::size_t>(v)]);
    const auto row_end = adj.neighbours.begin() +
                         static_cast<std::ptrdiff_t>(
                             adj.offsets[static_cast<std::size_t>(v) + 1]);
    EXPECT_TRUE(std::is_sorted(row_begin, row_end)) << label << " row " << v;
    for (auto it = row_begin; it != row_end; ++it) {
      if (*it > v) edges.emplace_back(renumber(v), renumber(*it));
    }
  }
  EXPECT_EQ(edges, reference.edges) << label;

  // The matching itself, not just its size.
  const auto mate = graph::max_cardinality_matching(adj);
  std::vector<int> renumbered(reference.nodes.size(), -1);
  for (int v = 0; v < adj.num_vertices(); ++v) {
    const int m = mate[static_cast<std::size_t>(v)];
    if (m >= 0) renumbered[static_cast<std::size_t>(renumber(v))] = renumber(m);
  }
  EXPECT_EQ(renumbered, graph::max_cardinality_matching_reference(
                            static_cast<int>(reference.nodes.size()),
                            reference.edges))
      << label;

  const ClbPacking got = pack_xc3000(network);
  const ClbPacking want = pack_xc3000_reference(network);
  EXPECT_EQ(got.num_clbs, want.num_clbs) << label;
  EXPECT_EQ(got.paired, want.paired) << label;
  EXPECT_EQ(got.singles, want.singles) << label;
  return got;
}

net::Network mapped_fixture(const std::string& file, bool latches) {
  const std::string path = std::string(HYDE_BLIF_FIXTURE_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  net::BlifReadOptions read_options;
  read_options.latch_combinational = latches;
  const net::Network input =
      std::move(net::read_blif_model(in, read_options).network);
  part::WindowedFlowOptions options;
  options.flow = baseline::system_flow_options(baseline::System::kHyde, 5);
  options.flow.seed = 1;
  return baseline::run_windowed_system(input, options, 0).network;
}

TEST(Xc3000Oracle, MatchesReferenceOnMappedFixtures) {
  const net::Network mid = mapped_fixture("win_mid.blif", false);
  const ClbPacking mid_packing = expect_matches_reference(mid, "win_mid");
  EXPECT_EQ(mid_packing.num_clbs, 605);
  EXPECT_TRUE(mid_packing.certified);
  const net::Network wide = mapped_fixture("win_wide.blif", false);
  const ClbPacking wide_packing = expect_matches_reference(wide, "win_wide");
  EXPECT_EQ(wide_packing.num_clbs, 870);
  EXPECT_TRUE(wide_packing.certified);
  expect_matches_reference(mapped_fixture("win_latch.blif", true),
                           "win_latch");
}

TEST(Xc3000Oracle, MatchesReferenceOnWholeNetworkFixtures) {
  for (const std::string file : {"win_mid.blif", "win_wide.blif"}) {
    const std::string path = std::string(HYDE_BLIF_FIXTURE_DIR) + "/" + file;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing fixture " << path;
    const net::Network input = std::move(net::read_blif_model(in).network);
    const baseline::BaselineResult result =
        baseline::run_system(input, baseline::System::kHyde, 5, 0);
    expect_matches_reference(result.network, file + " whole");
  }
}

TEST(Xc3000Oracle, MatchesReferenceOnRegistryUnderFourSystems) {
  const baseline::System systems[] = {
      baseline::System::kHyde, baseline::System::kImodecLike,
      baseline::System::kSawadaLike, baseline::System::kSawadaResubLike};
  for (const std::string& name : mcnc::all_circuits()) {
    const net::Network input = mcnc::make_circuit(name);
    for (const baseline::System system : systems) {
      const baseline::BaselineResult result =
          baseline::run_system(input, system, 5, 0);
      expect_matches_reference(result.network,
                               name + "/" + baseline::system_name(system));
    }
  }
}

/// One tile of the scale netlist (perfbench's `windowed` input is two of
/// them side by side) after the windowed flow and its cleanup: thousands of
/// LUTs, too many for the reference, so the certified count is checked
/// against the blossom on the full pairing graph.
TEST(Xc3000Oracle, BoundDecidesOnAScaleTile) {
  const net::Network tile =
      mcnc::random_multilevel("scale_tile", 64, 16, 40000, 3, 9, 21);
  part::WindowedFlowOptions options;
  options.flow = baseline::system_flow_options(baseline::System::kHyde, 5);
  options.flow.seed = 1;
  options.threads = 2;
  const net::Network network =
      baseline::run_windowed_system(tile, options, 0).network;
  const ClbPacking packing = pack_xc3000(network);
  EXPECT_TRUE(packing.certified);
  const PairingGraph graph = xc3000_pairing_graph(network);
  const auto mate = graph::max_cardinality_matching(graph.adjacency);
  int paired = 0;
  for (std::size_t v = 0; v < mate.size(); ++v) {
    if (mate[v] > static_cast<int>(v)) ++paired;
  }
  EXPECT_EQ(packing.paired, paired);
  EXPECT_EQ(packing.num_clbs, graph.num_luts - paired);
  EXPECT_GT(graph.num_luts, 3000);
}

TEST(Xc3000Oracle, MatchesReferenceOnRandomFiveFeasibleNetworks) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const net::Network network = mcnc::random_multilevel(
        numbered("r", seed), 12, 6, 150 + 40 * static_cast<int>(seed),
        1, 5, seed);
    ASSERT_TRUE(network.is_k_feasible(5));
    expect_matches_reference(network, numbered("random seed ", seed));
  }
}

/// Mostly 1- and 2-input LUTs, each drawing its fanins from the last few
/// signals so the narrow LUTs read each other, with repeated fanins and
/// constants: the regime where the narrow LUTs outnumber the free wide ones
/// and pair among themselves.
net::Network narrow_network(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  net::Network network("narrow");
  std::vector<net::NodeId> signals;
  for (int i = 0; i < 8; ++i) {
    signals.push_back(network.add_input(numbered("x", i)));
  }
  const int num_nodes = 60 + static_cast<int>(rng() % 120);
  for (int n = 0; n < num_nodes; ++n) {
    // Arity 0 with odds 1/16, 1 with 5/16, 2 with 6/16, 3..5 with 4/16.
    const int draw = static_cast<int>(rng() % 16);
    const int arity = draw < 1    ? 0
                      : draw < 6  ? 1
                      : draw < 12 ? 2
                                  : 3 + draw % 3;
    std::vector<net::NodeId> fanins;
    for (int a = 0; a < arity; ++a) {
      const std::size_t window = std::min<std::size_t>(signals.size(), 6);
      fanins.push_back(signals[signals.size() - 1 - rng() % window]);
    }
    if (arity > 0 && arity < 5 && rng() % 5 == 0) {
      fanins.push_back(fanins.front());
    }
    tt::TruthTable table(static_cast<int>(fanins.size()));
    for (std::uint64_t m = 0; m < table.size(); ++m) {
      table.set_bit(m, (rng() & 1U) != 0);
    }
    signals.push_back(
        network.add_logic_tt(numbered("n", n), fanins, table));
    if (rng() % 5 == 0) {
      network.add_output(numbered("o", n), signals.back());
    }
  }
  return network;
}

/// Networks of random 2- to 5-input gates, the texture of `BM_PackXc3000`'s
/// netlist: their unmatched vertices are 4-input LUTs whose only partners
/// have at most one input, which neither bound sees, so the blossom on the
/// full pairing graph decides.
TEST(Xc3000Oracle, MatchesReferenceOnGateNetworks) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const net::Network network = mcnc::random_multilevel(
        numbered("gates", seed), 12, 4, 900 + 10 * static_cast<int>(seed), 2,
        5, seed);
    expect_matches_reference(network, numbered("gates seed ", seed));
  }
}

TEST(Xc3000Oracle, MatchesReferenceOnNarrowNetworks) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    expect_matches_reference(narrow_network(seed),
                             numbered("narrow seed ", seed));
  }
}

TEST(Xc3000Oracle, MatchesReferenceWithConstantsAndRepeatedFanins) {
  // Zero-input nodes, and nodes listing a fanin twice (a 5-entry fanin list
  // with 4 distinct signals still pairs as a 4-input node).
  std::mt19937_64 rng(2718);
  for (int trial = 0; trial < 8; ++trial) {
    net::Network network(numbered("dup", trial));
    std::vector<net::NodeId> signals;
    for (int i = 0; i < 6; ++i) {
      signals.push_back(network.add_input(numbered("x", i)));
    }
    for (int n = 0; n < 120; ++n) {
      const int arity = static_cast<int>(rng() % 6);
      std::vector<net::NodeId> fanins;
      for (int a = 0; a < arity; ++a) {
        fanins.push_back(signals[rng() % signals.size()]);
      }
      const net::NodeId id = network.add_logic_tt(
          numbered("n", n), fanins, tt::TruthTable(arity));
      signals.push_back(id);
      if (n % 7 == 0) network.add_output(numbered("o", n), id);
    }
    expect_matches_reference(network, numbered("trial ", trial));
  }
}

}  // namespace
}  // namespace hyde::mapper
