/// \file matching.hpp
/// \brief Graph algorithms backing the encoding procedure.
///
/// Three algorithms the paper relies on:
///  - clique partitioning (NP-complete; the polynomial heuristic of
///    Tseng/Siewiorek as presented in Gajski et al., "High-Level Synthesis"
///    [9]) — used for the don't-care assignment of Section 3.1;
///  - maximum-weight bipartite b-matching [12] — used for column-set
///    combination (Step 5 of the encoding algorithm, Figure 5);
///  - maximum-cardinality matching on general graphs [12] (Edmonds' blossom
///    algorithm) — used for row-set combination (Step 7).

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hyde::graph {

/// Partitions the vertices {0..n-1} of an undirected graph into a small
/// number of cliques, each vertex in exactly one clique.
///
/// \param n number of vertices.
/// \param adjacent symmetric adjacency matrix (self loops ignored).
/// \returns cliques as vertex-index lists; their union is {0..n-1}.
///
/// Heuristic: repeatedly merge the adjacent pair of super-vertices with the
/// largest number of common neighbours (ties broken by smaller index) until
/// no adjacent pair remains. Polynomial time, deterministic.
///
/// Implementation: packed bitset adjacency rows with common-neighbour counts
/// maintained incrementally across merges (AND + popcount). Produces exactly
/// the partition of the recount-from-scratch formulation — the selection
/// order, the tie-break, and the member order are all preserved.
std::vector<std::vector<int>> clique_partition(
    int n, const std::vector<std::vector<char>>& adjacent);

/// One edge of a bipartite b-matching instance.
struct BMatchEdge {
  int left;       ///< left vertex index in [0, num_left)
  int right;      ///< right vertex index in [0, num_right)
  double weight;  ///< edge weight (only positive-weight edges can be chosen)
};

/// Result of max_weight_b_matching.
struct BMatchResult {
  /// For each left vertex, the matched right vertex or -1.
  std::vector<int> left_match;
  double total_weight = 0.0;
};

/// Maximum-weight bipartite b-matching: every left vertex is matched at most
/// once; right vertex j is matched at most right_capacity[j] times. Solved
/// exactly by successive shortest augmenting paths on a min-cost flow
/// network; augmentation stops when the best remaining path has non-positive
/// profit, so the result maximizes total weight (not cardinality).
BMatchResult max_weight_b_matching(int num_left, int num_right,
                                   const std::vector<int>& right_capacity,
                                   const std::vector<BMatchEdge>& edges);

/// Undirected graph in compressed sparse row form: vertex v's neighbours are
/// neighbours[offsets[v] .. offsets[v + 1]), in the order the matcher scans
/// them. Every edge appears in both endpoints' rows.
struct CsrGraph {
  std::vector<std::size_t> offsets{0};  ///< num_vertices() + 1 entries
  std::vector<int> neighbours;

  int num_vertices() const { return static_cast<int>(offsets.size()) - 1; }
};

/// Maximum-cardinality matching on a general undirected graph (Edmonds'
/// blossom algorithm): one BFS search per still-unmatched vertex, in
/// ascending vertex order, each growing an alternating tree and contracting
/// blossoms until it finds an augmenting path or exhausts the tree.
///
/// Cost: a search costs what it touches, not O(V). It scans the rows of the
/// vertices it labels outer, where a neighbour that is inner or already in
/// the scanning vertex's blossom costs one load, and resets only the labels
/// it set; the LCA walk marks with a timestamp instead of a fresh O(V)
/// array; and a contraction visits (and sorts) only the members of the
/// blossoms it merges instead of rescanning all V vertices.
///
/// Output contract: the mate vector is a pure function of the vertex count
/// and the row order of the adjacency. It is the matching of the textbook
/// formulation that rescans all V vertices per search and per contraction
/// (tests/oracles/matching_oracle.hpp), element for element: a contraction
/// enqueues the new outer vertices in ascending index order, exactly as
/// that full scan does. The encoder's row-set combination (Step 7) depends
/// on this, so changes here must keep the oracle tests passing.
///
/// \param graph symmetric adjacency; self loops are skipped.
/// \returns mate vector: mate[v] is v's partner or -1 if unmatched.
std::vector<int> max_cardinality_matching(const CsrGraph& graph);

/// Edge-list entry point: builds the CSR rows with a stable counting pass
/// (each vertex's neighbours in edge-list order, self loops dropped,
/// duplicates kept) and matches them. Throws std::invalid_argument on an
/// edge endpoint outside [0, n).
///
/// \param n number of vertices.
/// \param edges undirected edges as (u, v) vertex pairs in [0, n).
/// \returns mate vector: mate[v] is v's partner or -1 if unmatched.
std::vector<int> max_cardinality_matching(
    int n, const std::vector<std::pair<int, int>>& edges);

}  // namespace hyde::graph
