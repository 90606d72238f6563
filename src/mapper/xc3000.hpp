/// \file xc3000.hpp
/// \brief Xilinx XC3000 CLB packing (the xl_partition -tm stand-in).
///
/// An XC3000 CLB realizes either one function of up to 5 inputs or two
/// functions of up to 4 inputs each sharing at most 5 distinct input
/// signals. Packing a 5-feasible network is therefore a maximum-matching
/// problem on the pairing graph of ≤4-input nodes — solved here exactly with
/// the blossom algorithm from graph/matching.hpp.
///
/// The pairing graph is built over the ≤4-input nodes only (5-input nodes
/// cannot pair and take one CLB each). Each node becomes a sorted,
/// deduplicated fanin array of at most 4 ids; a pair is compatible when
/// neither node reads the other and the two arrays share enough ids that
/// their union has at most 5 signals. One pass over the pairs counts the degrees and a
/// second writes the rows straight into an exact-size CSR adjacency, so no
/// edge list is ever materialised. Pairs are visited in (i, j) order, so
/// every row lists its neighbours in ascending vertex order.
///
/// Size: the graph is dense by nature, because a 2-input node fits beside
/// any ≤3-input node it does not read. On the 19k-node benchmark netlist
/// (perfbench's `windowed` input), the mapped result has 14,560 LUTs, of
/// which 8,778 have at most 4 inputs, and the pairing graph has 8,562,895
/// edges (68.5 MB of CSR rows). Building it takes about 1 s and matching it
/// about 1 s (Release, 4-CPU Xeon host; see docs/PERF.md).

#pragma once

#include <vector>

#include "graph/matching.hpp"
#include "net/network.hpp"

namespace hyde::mapper {

struct ClbPacking {
  int num_clbs = 0;   ///< total CLBs used
  int paired = 0;     ///< CLBs hosting two functions
  int singles = 0;    ///< CLBs hosting one function
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
