/// \file xc3000_oracle_test.cpp
/// \brief The XC3000 packer against its reference: the CSR pairing graph
/// must list exactly the std::set builder's edges, in the same order, the
/// matcher must return the reference mate vector, and pack_xc3000 must
/// return the reference packing field for field — on the
/// committed BLIF fixtures after the windowed flow, on seeded random
/// 5-feasible networks, and on networks with constants and repeated fanins.

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
#include "tt/truth_table.hpp"

namespace hyde::mapper {
namespace {

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

void expect_matches_reference(const net::Network& network,
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
  expect_matches_reference(mid, "win_mid");
  EXPECT_EQ(pack_xc3000(mid).num_clbs, 605);
  const net::Network wide = mapped_fixture("win_wide.blif", false);
  expect_matches_reference(wide, "win_wide");
  EXPECT_EQ(pack_xc3000(wide).num_clbs, 870);
  expect_matches_reference(mapped_fixture("win_latch.blif", true),
                           "win_latch");
}

TEST(Xc3000Oracle, MatchesReferenceOnRandomFiveFeasibleNetworks) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const net::Network network = mcnc::random_multilevel(
        "r" + std::to_string(seed), 12, 6, 150 + 40 * static_cast<int>(seed),
        1, 5, seed);
    ASSERT_TRUE(network.is_k_feasible(5));
    expect_matches_reference(network, "random seed " + std::to_string(seed));
  }
}

TEST(Xc3000Oracle, MatchesReferenceWithConstantsAndRepeatedFanins) {
  // Zero-input nodes, and nodes listing a fanin twice (a 5-entry fanin list
  // with 4 distinct signals still pairs as a 4-input node).
  std::mt19937_64 rng(2718);
  for (int trial = 0; trial < 8; ++trial) {
    net::Network network("dup" + std::to_string(trial));
    std::vector<net::NodeId> signals;
    for (int i = 0; i < 6; ++i) {
      signals.push_back(network.add_input("x" + std::to_string(i)));
    }
    for (int n = 0; n < 120; ++n) {
      const int arity = static_cast<int>(rng() % 6);
      std::vector<net::NodeId> fanins;
      for (int a = 0; a < arity; ++a) {
        fanins.push_back(signals[rng() % signals.size()]);
      }
      const net::NodeId id = network.add_logic_tt(
          "n" + std::to_string(n), fanins, tt::TruthTable(arity));
      signals.push_back(id);
      if (n % 7 == 0) network.add_output("o" + std::to_string(n), id);
    }
    expect_matches_reference(network, "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace hyde::mapper
