#include "mapper/xc3000.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>
#include <utility>

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

/// The largest size of a partner that fits beside \p lut without sharing an
/// input (a partner of at most 4 inputs, so 4 for the narrowest).
inline std::size_t room(const PairLut& lut) {
  return static_cast<std::size_t>(std::min(4, 5 - lut.size));
}

/// Whether one of a and b reads the other (a CLB has no internal feed path
/// between its two LUT halves on the XC3000).
// hyde-hot
inline bool reads_either(const PairLut& a, const PairLut& b) {
  int reads = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    reads |= static_cast<int>(a.fanins[k] == b.id) |
             static_cast<int>(b.fanins[k] == a.id);
  }
  return reads != 0;
}

/// Whether a and b fit one CLB: neither reads the other and their fanin
/// union has at most 5 distinct signals. Branch-free over the padded
/// arrays: padding never equals an id, and the pad-against-pad equalities
/// are subtracted from the shared count.
// hyde-hot
inline bool pair_compatible(const PairLut& a, const PairLut& b) {
  int equal = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t l = 0; l < 4; ++l) {
      equal += static_cast<int>(a.fanins[k] == b.fanins[l]);
    }
  }
  const int shared = equal - (4 - a.size) * (4 - b.size);
  return !reads_either(a, b) & (a.size + b.size - shared <= 5);
}

/// The pairing graph's vertices and the part of its edges that depends on
/// shared inputs. Two vertices whose sizes sum to at most 5 pair unless one
/// reads the other, so only pairs summing to 6 or more need their fanins
/// compared; those are found through the readers of each signal.
struct PairingParts {
  int num_luts = 0;
  std::vector<PairLut> luts;  ///< vertex v is luts[v], topological order
  /// Readers of each signal (indexed by node id) that are vertices, as CSR
  /// rows in ascending vertex order.
  std::vector<std::size_t> reader_offsets;
  std::vector<int> readers;
  /// The compatible pairs whose sizes sum to 6 or more, rows ascending.
  graph::CsrGraph shared;

  int size(int v) const { return luts[static_cast<std::size_t>(v)].size; }

  /// Vertices reading node \p id.
  std::pair<const int*, const int*> readers_of(net::NodeId id) const {
    const std::size_t i = static_cast<std::size_t>(id);
    return {readers.data() + reader_offsets[i],
            readers.data() + reader_offsets[i + 1]};
  }
  std::pair<const int*, const int*> shared_row(int v) const {
    const std::size_t i = static_cast<std::size_t>(v);
    return {shared.neighbours.data() + shared.offsets[i],
            shared.neighbours.data() + shared.offsets[i + 1]};
  }
};

PairingParts pairing_parts(const net::Network& network) {
  PairingParts parts;
  for (net::NodeId id : network.topo_order()) {
    const net::Node& node = network.node(id);
    if (node.kind != net::NodeKind::kLogic || node.dead) continue;
    if (node.fanins.size() > 5) {
      throw std::invalid_argument("pack_xc3000: node wider than 5 inputs: " +
                                  node.name);
    }
    ++parts.num_luts;
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
    if (!too_wide) parts.luts.push_back(lut);
  }

  const std::size_t n = parts.luts.size();
  const std::size_t num_nodes = static_cast<std::size_t>(network.num_nodes());
  parts.reader_offsets.assign(num_nodes + 1, 0);
  for (const PairLut& lut : parts.luts) {
    for (int k = 0; k < lut.size; ++k) {
      ++parts.reader_offsets[static_cast<std::size_t>(
                                 lut.fanins[static_cast<std::size_t>(k)]) +
                             1];
    }
  }
  std::partial_sum(parts.reader_offsets.begin(), parts.reader_offsets.end(),
                   parts.reader_offsets.begin());
  parts.readers.resize(parts.reader_offsets[num_nodes]);
  std::vector<std::size_t> fill(parts.reader_offsets.begin(),
                                parts.reader_offsets.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    const PairLut& lut = parts.luts[v];
    for (int k = 0; k < lut.size; ++k) {
      parts.readers[fill[static_cast<std::size_t>(
          lut.fanins[static_cast<std::size_t>(k)])]++] = static_cast<int>(v);
    }
  }

  // Each vertex's shared-input partners: readers of its fanins whose size
  // brings the pair to 6 or more, each tested once (a stamp per candidate).
  std::vector<std::size_t>& offsets = parts.shared.offsets;
  std::vector<int>& neighbours = parts.shared.neighbours;
  offsets.assign(n + 1, 0);
  std::vector<int> stamp(n, -1);
  for (std::size_t v = 0; v < n; ++v) {
    const PairLut& lut = parts.luts[v];
    const std::size_t row_begin = neighbours.size();
    for (int k = 0; k < lut.size; ++k) {
      const auto [begin, end] =
          parts.readers_of(lut.fanins[static_cast<std::size_t>(k)]);
      for (const int* u = begin; u != end; ++u) {
        const std::size_t uu = static_cast<std::size_t>(*u);
        if (uu == v || stamp[uu] == static_cast<int>(v) ||
            lut.size + parts.luts[uu].size < 6) {
          continue;
        }
        stamp[uu] = static_cast<int>(v);
        if (pair_compatible(lut, parts.luts[uu])) neighbours.push_back(*u);
      }
    }
    std::sort(neighbours.begin() + static_cast<std::ptrdiff_t>(row_begin),
              neighbours.end());
    offsets[v + 1] = neighbours.size();
  }
  return parts;
}

/// The full pairing graph's rows, planned: row v is every vertex whose size
/// leaves room beside v (at most 5 - size(v) inputs), except v and the
/// vertices it reads or that read it, merged with v's shared-input
/// partners. The plan holds those lists and every row's offset, so the edge
/// count is known before any row is written.
struct RowPlan {
  /// by_size[m]: the vertices of at most m inputs, ascending (m = 1..4).
  std::array<std::vector<int>, 5> by_size;
  std::vector<std::vector<int>> excluded;  ///< per vertex, sorted
  std::vector<std::size_t> offsets;
};

RowPlan plan_rows(const net::Network& network, const PairingParts& parts) {
  const std::size_t n = parts.luts.size();
  std::vector<int> vertex_of(static_cast<std::size_t>(network.num_nodes()), -1);
  for (std::size_t v = 0; v < n; ++v) {
    vertex_of[static_cast<std::size_t>(parts.luts[v].id)] = static_cast<int>(v);
  }
  RowPlan plan;
  for (std::size_t v = 0; v < n; ++v) {
    for (int m = std::max(parts.luts[v].size, 1); m <= 4; ++m) {
      plan.by_size[static_cast<std::size_t>(m)].push_back(static_cast<int>(v));
    }
  }
  plan.excluded.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const PairLut& lut = parts.luts[v];
    std::vector<int>& out = plan.excluded[v];
    for (int k = 0; k < lut.size; ++k) {
      const int u = vertex_of[static_cast<std::size_t>(
          lut.fanins[static_cast<std::size_t>(k)])];
      if (u >= 0) out.push_back(u);
    }
    const auto [begin, end] = parts.readers_of(lut.id);
    out.insert(out.end(), begin, end);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  plan.offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t m = room(parts.luts[v]);
    const std::size_t shared =
        parts.shared.offsets[v + 1] - parts.shared.offsets[v];
    std::size_t degree = plan.by_size[m].size() + shared;
    if (parts.luts[v].size <= static_cast<int>(m)) --degree;  // v itself
    for (const int u : plan.excluded[v]) {
      if (parts.size(u) <= static_cast<int>(m)) --degree;
    }
    plan.offsets[v + 1] = plan.offsets[v] + degree;
  }
  return plan;
}

/// Writes the planned rows. Each is a merge of sorted lists, so it comes out
/// ascending.
graph::CsrGraph write_rows(const PairingParts& parts, RowPlan plan) {
  const std::size_t n = parts.luts.size();
  graph::CsrGraph graph;
  graph.neighbours.resize(plan.offsets[n]);
  for (std::size_t v = 0; v < n; ++v) {
    const std::vector<int>& implied = plan.by_size[room(parts.luts[v])];
    const std::vector<int>& skip = plan.excluded[v];
    const auto [shared_begin, shared_end] =
        parts.shared_row(static_cast<int>(v));
    int* out = graph.neighbours.data() + plan.offsets[v];
    const int* s = shared_begin;
    auto x = skip.begin();
    for (const int u : implied) {
      while (x != skip.end() && *x < u) ++x;
      if (u == static_cast<int>(v) || (x != skip.end() && *x == u)) continue;
      while (s != shared_end && *s < u) *out++ = *s++;
      *out++ = u;
    }
    while (s != shared_end) *out++ = *s++;
  }
  graph.offsets = std::move(plan.offsets);
  return graph;
}

/// Smallest index at or after i that has not been removed, over 0..n (n is
/// the end). Path halving keeps repeated scans near-linear.
class NextPresent {
 public:
  explicit NextPresent(std::size_t n) : next_(n + 1) {
    std::iota(next_.begin(), next_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t i) {
    while (next_[i] != i) {
      next_[i] = next_[next_[i]];
      i = next_[i];
    }
    return i;
  }
  bool present(std::size_t i) const { return next_[i] == i; }
  void remove(std::size_t i) { next_[i] = i + 1; }

 private:
  std::vector<std::size_t> next_;
};

/// The matching of vertices of at most 2 inputs (the left side) into the
/// vertices of 3 or 4 inputs that the matching of those among themselves
/// left free (the right side). Left vertex a is adjacent to every right
/// vertex it does not read and that does not read it, except that a
/// 2-input vertex reaches a 4-input one only through a shared input. So the
/// rows are implicit: the right vertices of each size in ascending order,
/// scanned past the few read relations, plus the shared-input rows.
class Extension {
 public:
  /// \p mate holds the matching of the right vertices among themselves; the
  /// extension adds its pairs to it.
  Extension(const PairingParts& parts, std::vector<int>& mate)
      : parts_(parts), mate_(mate), slot_(parts.luts.size(), -1) {
    for (std::size_t v = 0; v < parts.luts.size(); ++v) {
      const int size = parts.luts[v].size;
      if (size <= 2) {
        left_.push_back(static_cast<int>(v));
      } else if (mate[v] < 0) {
        std::vector<int>& side = right_[size == 3 ? kThree : kFour];
        slot_[v] = static_cast<int>(side.size());
        side.push_back(static_cast<int>(v));
      }
    }
    // 2-input vertices first: they have the fewer partners.
    std::stable_sort(left_.begin(), left_.end(), [&](int a, int b) {
      return parts.size(a) > parts.size(b);
    });
  }

  /// Matches as many left vertices as possible: a greedy pass, then phases
  /// of augmenting-path searches that share their visited marks, until a
  /// phase finds none. Returns the number of left vertices matched.
  int match() {
    int matched = 0;
    Available taken = available();
    for (const int a : left_) {
      Frame frame{a, 0, 0, -1};
      const int h = next_partner(frame, taken);
      if (h >= 0) {
        mate_[static_cast<std::size_t>(a)] = h;
        mate_[static_cast<std::size_t>(h)] = a;
        ++matched;
      }
    }
    bool augmented = true;
    while (augmented) {
      augmented = false;
      Available visited = available();
      for (const int a : left_) {
        if (mate_[static_cast<std::size_t>(a)] < 0 && augment(a, visited)) {
          augmented = true;
          ++matched;
        }
      }
    }
    return matched;
  }

  int num_left() const { return static_cast<int>(left_.size()); }

  /// The left vertices still unmatched, ascending.
  std::vector<int> unmatched() const {
    std::vector<int> out;
    for (const int a : left_) {
      if (mate_[static_cast<std::size_t>(a)] < 0) out.push_back(a);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  enum Side : std::size_t { kThree, kFour, kSides };
  using Available = std::array<NextPresent, kSides>;

  Available available() const {
    return {NextPresent(right_[kThree].size()),
            NextPresent(right_[kFour].size())};
  }

  /// A left vertex's place in its implicit row. A 2-input vertex scans its
  /// shared-input row (4-input partners), then the 3-input side; a narrower
  /// one scans the 4-input side, then the 3-input side.
  struct Frame {
    int left;
    int stage;
    std::size_t pos;
    int picked;
  };

  /// The next right vertex adjacent to frame.left that is still present in
  /// \p avail, removed from it; -1 when the row is exhausted.
  int next_partner(Frame& frame, Available& avail) {
    const PairLut& a = parts_.luts[static_cast<std::size_t>(frame.left)];
    if (a.size == 2 && frame.stage == 0) {
      const auto [begin, end] = parts_.shared_row(frame.left);
      while (begin + frame.pos < end) {
        const int h = begin[frame.pos++];
        const int slot = slot_[static_cast<std::size_t>(h)];
        if (slot >= 0 &&
            avail[kFour].present(static_cast<std::size_t>(slot))) {
          avail[kFour].remove(static_cast<std::size_t>(slot));
          return h;
        }
      }
      frame.stage = 1;
      frame.pos = 0;
    }
    for (; frame.stage < 2; ++frame.stage, frame.pos = 0) {
      const Side side = frame.stage == 0 ? kFour : kThree;
      const std::vector<int>& vertices = right_[side];
      while (true) {
        const std::size_t j = avail[side].find(frame.pos);
        if (j == vertices.size()) break;
        frame.pos = j + 1;
        const int h = vertices[j];
        if (reads_either(a, parts_.luts[static_cast<std::size_t>(h)])) {
          continue;
        }
        avail[side].remove(j);
        return h;
      }
    }
    return -1;
  }

  /// One depth-first search for an augmenting path from the unmatched left
  /// vertex \p root.
  bool augment(int root, Available& visited) {
    std::vector<Frame> stack{Frame{root, 0, 0, -1}};
    while (!stack.empty()) {
      Frame& top = stack.back();
      const int h = next_partner(top, visited);
      if (h < 0) {
        stack.pop_back();
        continue;
      }
      top.picked = h;
      const int owner = mate_[static_cast<std::size_t>(h)];
      if (owner >= 0) {
        stack.push_back(Frame{owner, 0, 0, -1});
        continue;
      }
      for (const Frame& frame : stack) {
        mate_[static_cast<std::size_t>(frame.picked)] = frame.left;
        mate_[static_cast<std::size_t>(frame.left)] = frame.picked;
      }
      return true;
    }
    return false;
  }

  const PairingParts& parts_;
  std::vector<int>& mate_;
  std::vector<int> left_;  ///< the vertices of at most 2 inputs
  std::array<std::vector<int>, kSides> right_;  ///< free 3-, 4-input ones
  std::vector<int> slot_;  ///< per right vertex: its index in its side
};

/// Pairs the vertices of at most 2 inputs left over by the extension among
/// themselves (any two pair unless one reads the other) and returns the
/// number of pairs.
int pair_leftovers(const PairingParts& parts, const std::vector<int>& rest,
                   std::vector<int>& mate) {
  NextPresent unpaired(rest.size());
  int pairs = 0;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (!unpaired.present(i)) continue;
    unpaired.remove(i);
    const PairLut& a = parts.luts[static_cast<std::size_t>(rest[i])];
    for (std::size_t j = unpaired.find(i + 1); j < rest.size();
         j = unpaired.find(j + 1)) {
      if (!reads_either(a, parts.luts[static_cast<std::size_t>(rest[j])])) {
        unpaired.remove(j);
        mate[static_cast<std::size_t>(rest[i])] = rest[j];
        mate[static_cast<std::size_t>(rest[j])] = rest[i];
        ++pairs;
        break;
      }
    }
  }
  return pairs;
}

/// Whether \p mate pairs \p pairs disjoint couples of compatible vertices.
bool is_matching(const PairingParts& parts, const std::vector<int>& mate,
                 int pairs) {
  int found = 0;
  for (std::size_t v = 0; v < mate.size(); ++v) {
    const int m = mate[v];
    if (m < 0) continue;
    const std::size_t mm = static_cast<std::size_t>(m);
    if (mate[mm] != static_cast<int>(v) ||
        !pair_compatible(parts.luts[v], parts.luts[mm])) {
      return false;
    }
    found += static_cast<int>(mm > v);
  }
  return found == pairs;
}

ClbPacking packing_of(int num_luts, int paired, bool certified) {
  ClbPacking packing;
  packing.paired = paired;
  packing.singles = num_luts - 2 * paired;
  packing.num_clbs = packing.singles + packing.paired;
  packing.certified = certified;
  return packing;
}

}  // namespace

PairingGraph xc3000_pairing_graph(const net::Network& network) {
  const PairingParts parts = pairing_parts(network);
  PairingGraph graph;
  graph.num_luts = parts.num_luts;
  for (const PairLut& lut : parts.luts) graph.nodes.push_back(lut.id);
  graph.adjacency = write_rows(parts, plan_rows(network, parts));
  return graph;
}

ClbPacking pack_xc3000(const net::Network& network) {
  const PairingParts parts = pairing_parts(network);
  const std::size_t n = parts.luts.size();

  // H: the vertices of 3 or 4 inputs, whose edges are all shared-input ones.
  std::vector<int> h_index(n, -1);
  std::vector<int> h_vertices;
  for (std::size_t v = 0; v < n; ++v) {
    if (parts.luts[v].size >= 3) {
      h_index[v] = static_cast<int>(h_vertices.size());
      h_vertices.push_back(static_cast<int>(v));
    }
  }
  graph::CsrGraph h_graph;
  h_graph.offsets.assign(h_vertices.size() + 1, 0);
  for (std::size_t i = 0; i < h_vertices.size(); ++i) {
    const auto [begin, end] = parts.shared_row(h_vertices[i]);
    for (const int* u = begin; u != end; ++u) {
      const int hu = h_index[static_cast<std::size_t>(*u)];
      if (hu >= 0) h_graph.neighbours.push_back(hu);
    }
    h_graph.offsets[i + 1] = h_graph.neighbours.size();
  }
  const std::vector<int> h_mate = graph::max_cardinality_matching(h_graph);
  std::vector<int> mate(n, -1);
  int matched = 0;
  for (std::size_t i = 0; i < h_vertices.size(); ++i) {
    if (h_mate[i] < 0) continue;
    mate[static_cast<std::size_t>(h_vertices[i])] =
        h_vertices[static_cast<std::size_t>(h_mate[i])];
    if (h_mate[i] > static_cast<int>(i)) ++matched;
  }

  // Deleting a vertex lowers the matching number by at most one, so
  // ν(G) ≤ ν(H) + |A| for the vertices A of at most 2 inputs. Also
  // ν(G) ≤ ⌊V/2⌋. A valid matching that reaches either is maximum.
  Extension extension(parts, mate);
  const int deleted_bound = matched + extension.num_left();
  matched += extension.match();
  matched += pair_leftovers(parts, extension.unmatched(), mate);
  const bool maximum =
      matched == deleted_bound || matched == static_cast<int>(n / 2);
  if (maximum && is_matching(parts, mate, matched)) {
    return packing_of(parts.num_luts, matched, true);
  }

  const graph::CsrGraph full = write_rows(parts, plan_rows(network, parts));
  const std::vector<int> full_mate = graph::max_cardinality_matching(full);
  int paired = 0;
  for (std::size_t v = 0; v < full_mate.size(); ++v) {
    if (full_mate[v] > static_cast<int>(v)) ++paired;
  }
  return packing_of(parts.num_luts, paired, false);
}

}  // namespace hyde::mapper
