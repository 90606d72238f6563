/// \file xc3000.hpp
/// \brief Xilinx XC3000 CLB packing (the xl_partition -tm stand-in).
///
/// An XC3000 CLB realizes either one function of up to 5 inputs or two
/// functions of up to 4 inputs each sharing at most 5 distinct input
/// signals. Packing a 5-feasible network is therefore a maximum-matching
/// problem on the pairing graph of ≤4-input nodes — solved here exactly with
/// the blossom algorithm from graph/matching.hpp.
///
/// The pairing graph's vertices are the ≤4-input nodes (5-input nodes cannot
/// pair and take one CLB each), counting distinct fanins. A pair is
/// compatible when neither node reads the other and their fanin union has at
/// most 5 signals. So two nodes whose sizes sum to at most 5 always pair
/// unless one reads the other, and every other compatible pair shares an
/// input. The graph is dense (a 2-input node fits beside any ≤3-input node),
/// but only its shared-input edges carry information; they are found through
/// the readers of each signal.
///
/// pack_xc3000 needs only the matching's size, and it gets it without the
/// dense graph, from rows kept implicit: a vertex's partners are the
/// vertices of each size that fit beside it, scanned past its few read
/// relations, plus its shared-input row.
///  - Let A be the vertices of at most 2 inputs and H the rest; every edge
///    inside H is a shared-input one. The blossom matches H; a bipartite
///    matching extends that into A, and the A vertices left over pair among
///    themselves.
///  - Deleting a vertex lowers the matching number by at most one, so
///    ν(G) ≤ ν(H) + |A|; and ν(G) ≤ ⌊V/2⌋. A result that reaches either is
///    maximum.
/// A result proved maximum this way is ClbPacking::certified. If neither
/// bound is reached, it runs the blossom on the full graph, whose rows are
/// merged from the sorted size classes and the shared-input rows in
/// O(V + E). The fallback decides on some small registry networks and on
/// random-gate netlists, whose unmatched vertices are 4-input LUTs whose
/// only partners have at most one input.

#pragma once

#include <vector>

#include "graph/matching.hpp"
#include "net/network.hpp"

namespace hyde::mapper {

struct ClbPacking {
  int num_clbs = 0;   ///< total CLBs used
  int paired = 0;     ///< CLBs hosting two functions
  int singles = 0;    ///< CLBs hosting one function
  /// True when an upper bound proved the matching maximum, false when the
  /// blossom on the full pairing graph decided.
  bool certified = false;
};

/// The XC3000 pairing graph of a 5-feasible network.
struct PairingGraph {
  int num_luts = 0;  ///< live logic nodes of any width: the CLB demand
  /// Vertex v is the node nodes[v]: the ≤4-input logic nodes (counting
  /// distinct fanins) in topological order.
  std::vector<net::NodeId> nodes;
  graph::CsrGraph adjacency;  ///< pair-compatible vertices, rows ascending
};

/// Builds the pairing graph. Throws std::invalid_argument if some node has
/// more than 5 inputs.
PairingGraph xc3000_pairing_graph(const net::Network& network);

/// Packs a 5-feasible network into XC3000 CLBs. Throws std::invalid_argument
/// if some node has more than 5 inputs.
ClbPacking pack_xc3000(const net::Network& network);

}  // namespace hyde::mapper
