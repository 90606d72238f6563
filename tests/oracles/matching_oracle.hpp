/// \file matching_oracle.hpp
/// \brief The textbook Edmonds blossom and the std::set XC3000 pairing-edge
/// builder: the equivalence oracles for graph::max_cardinality_matching and
/// mapper::xc3000_pairing_graph / pack_xc3000.

#pragma once

#include <utility>
#include <vector>

#include "mapper/xc3000.hpp"
#include "net/network.hpp"

namespace hyde::graph {

/// The original formulation of max_cardinality_matching: vector-of-vector
/// adjacency in edge-list order, three O(V) label resets per search, an O(V)
/// scratch array per LCA walk and a full 0..V-1 rescan per contraction. The
/// production matcher must return exactly this mate vector.
std::vector<int> max_cardinality_matching_reference(
    int n, const std::vector<std::pair<int, int>>& edges);

}  // namespace hyde::graph

namespace hyde::mapper {

/// The original pairing graph: one vertex per live logic node of any width
/// (topological order), and an edge (i, j), i < j, for every pair of nodes
/// with at most 4 distinct fanins each, neither reading the other and a
/// std::set fanin union of at most 5 signals; all pairs tested, in (i, j)
/// order.
struct PairingEdgesReference {
  std::vector<net::NodeId> nodes;
  std::vector<std::pair<int, int>> edges;
};
PairingEdgesReference xc3000_pairing_edges_reference(
    const net::Network& network);

/// pack_xc3000 on the reference pairing edges and the reference matcher.
ClbPacking pack_xc3000_reference(const net::Network& network);

}  // namespace hyde::mapper
