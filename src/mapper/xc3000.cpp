#include "mapper/xc3000.hpp"

#include <array>
#include <stdexcept>

namespace hyde::mapper {

namespace {

/// A ≤4-input node as the pair test sees it: its id and its distinct
/// fanins, sorted, padded with kNoNode to a fixed width.
struct PairLut {
  net::NodeId id = net::kNoNode;
  int size = 0;
  std::array<net::NodeId, 4> fanins{net::kNoNode, net::kNoNode, net::kNoNode,
                                    net::kNoNode};
};

/// Whether a and b fit one CLB: neither reads the other (a CLB has no
/// internal feed path between its two LUT halves on the XC3000) and their
/// fanin union has at most 5 distinct signals. Branch-free over the padded
/// arrays: padding never equals an id, and the pad-against-pad equalities
/// are subtracted from the shared count.
// hyde-hot
inline bool pair_compatible(const PairLut& a, const PairLut& b) {
  int reads = 0;
  int equal = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    reads |= static_cast<int>(a.fanins[k] == b.id) |
             static_cast<int>(b.fanins[k] == a.id);
    for (std::size_t l = 0; l < 4; ++l) {
      equal += static_cast<int>(a.fanins[k] == b.fanins[l]);
    }
  }
  const int shared = equal - (4 - a.size) * (4 - b.size);
  return (reads == 0) & (a.size + b.size - shared <= 5);
}

}  // namespace

PairingGraph xc3000_pairing_graph(const net::Network& network) {
  PairingGraph graph;
  std::vector<PairLut> luts;
  for (net::NodeId id : network.topo_order()) {
    const net::Node& node = network.node(id);
    if (node.kind != net::NodeKind::kLogic || node.dead) continue;
    if (node.fanins.size() > 5) {
      throw std::invalid_argument("pack_xc3000: node wider than 5 inputs: " +
                                  node.name);
    }
    ++graph.num_luts;
    // Insertion into a sorted, duplicate-free array of at most 4 ids.
    PairLut lut;
    lut.id = id;
    bool too_wide = false;
    for (const net::NodeId f : node.fanins) {
      int pos = 0;
      while (pos < lut.size && lut.fanins[static_cast<std::size_t>(pos)] < f) {
        ++pos;
      }
      if (pos < lut.size && lut.fanins[static_cast<std::size_t>(pos)] == f) {
        continue;
      }
      if (lut.size == 4) {
        too_wide = true;
        break;
      }
      for (int k = lut.size; k > pos; --k) {
        lut.fanins[static_cast<std::size_t>(k)] =
            lut.fanins[static_cast<std::size_t>(k - 1)];
      }
      lut.fanins[static_cast<std::size_t>(pos)] = f;
      ++lut.size;
    }
    if (too_wide) continue;
    luts.push_back(lut);
    graph.nodes.push_back(id);
  }

  // Pass 1 counts every vertex's degree, pass 2 writes the rows. Pairs come
  // in (i, j) order, so row v receives its lower neighbours ascending (while
  // i < v) and then its higher ones ascending (at i = v).
  const std::size_t n = luts.size();
  std::vector<std::size_t>& offsets = graph.adjacency.offsets;
  offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (pair_compatible(luts[i], luts[j])) {
        ++offsets[i + 1];
        ++offsets[j + 1];
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<int>& neighbours = graph.adjacency.neighbours;
  neighbours.resize(offsets[n]);
  std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (pair_compatible(luts[i], luts[j])) {
        neighbours[fill[i]++] = static_cast<int>(j);
        neighbours[fill[j]++] = static_cast<int>(i);
      }
    }
  }
  return graph;
}

ClbPacking pack_xc3000(const net::Network& network) {
  const PairingGraph graph = xc3000_pairing_graph(network);
  const auto mate = graph::max_cardinality_matching(graph.adjacency);
  ClbPacking packing;
  for (std::size_t v = 0; v < mate.size(); ++v) {
    if (mate[v] > static_cast<int>(v)) ++packing.paired;
  }
  packing.singles = graph.num_luts - 2 * packing.paired;
  packing.num_clbs = packing.singles + packing.paired;
  return packing;
}

}  // namespace hyde::mapper
