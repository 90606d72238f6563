#include "graph/matching.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace hyde::graph {

// ---------------------------------------------------------------------------
// Clique partitioning (Tseng/Siewiorek-style heuristic, per [9])
// ---------------------------------------------------------------------------

namespace {

// Packed-adjacency primitives. A super-vertex's neighbourhood is a bitset of
// `words` uint64 words; rows carry no self bits and dead super-vertices keep
// all-zero rows with their columns cleared everywhere, so raw word ops need
// no alive mask.

// hyde-hot
inline bool row_bit(const std::uint64_t* row, int k) {
  return ((row[static_cast<std::size_t>(k) >> 6U] >>
           (static_cast<unsigned>(k) & 63U)) &
          1U) != 0U;
}

// hyde-hot
inline void row_bit_assign(std::uint64_t* row, int k, bool value) {
  const std::uint64_t mask = std::uint64_t{1}
                             << (static_cast<unsigned>(k) & 63U);
  if (value) {
    row[static_cast<std::size_t>(k) >> 6U] |= mask;
  } else {
    row[static_cast<std::size_t>(k) >> 6U] &= ~mask;
  }
}

// hyde-hot
inline int row_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words) {
  int count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    count += std::popcount(a[w] & b[w]);
  }
  return count;
}

/// Merge-pair selection: scans alive adjacent pairs in ascending (a, b)
/// order and keeps the first pair attaining the maximum common-neighbour
/// count — the reference implementation's tie-break (strict `>`).
// hyde-hot
inline bool select_merge_pair(int n, std::size_t words, const char* alive,
                              const std::uint64_t* adj, const int* cn,
                              int* best_a, int* best_b) {
  int best_common = -1;
  *best_a = -1;
  *best_b = -1;
  for (int a = 0; a < n; ++a) {
    if (alive[static_cast<std::size_t>(a)] == 0) continue;
    const std::uint64_t* row = adj + static_cast<std::size_t>(a) * words;
    const int* counts =
        cn + static_cast<std::size_t>(a) * static_cast<std::size_t>(n);
    for (int b = a + 1; b < n; ++b) {
      if (alive[static_cast<std::size_t>(b)] == 0) continue;
      if (!row_bit(row, b)) continue;
      if (counts[static_cast<std::size_t>(b)] > best_common) {
        best_common = counts[static_cast<std::size_t>(b)];
        *best_a = a;
        *best_b = b;
      }
    }
  }
  return *best_a >= 0;
}

/// Adds `delta` to the common-neighbour count of every unordered pair drawn
/// from `list[0..count)` — the inclusion-exclusion building block of the
/// incremental merge update.
// hyde-hot
inline void adjust_pair_counts(const int* list, int count, int delta, int* cn,
                               int n) {
  for (int i = 0; i < count; ++i) {
    int* row = cn + static_cast<std::size_t>(list[i]) *
                        static_cast<std::size_t>(n);
    for (int j = i + 1; j < count; ++j) {
      row[static_cast<std::size_t>(list[j])] += delta;
      cn[static_cast<std::size_t>(list[j]) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(list[i])] += delta;
    }
  }
}

}  // namespace

std::vector<std::vector<int>> clique_partition(
    int n, const std::vector<std::vector<char>>& adjacent) {
  if (static_cast<int>(adjacent.size()) != n) {
    throw std::invalid_argument("clique_partition: adjacency size mismatch");
  }
  if (n == 0) return {};
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t words = (un + 63) / 64;

  // Packed super-vertex adjacency rows (self loops dropped) plus the dense
  // common-neighbour matrix cn[a·n+b] = |N(a) ∩ N(b)|. Both are maintained
  // incrementally across merges; cn always equals the reference recount
  // because rows carry no self bits and dead columns are cleared, so the
  // popcount of a row intersection never counts a, b, or dead vertices.
  std::vector<std::uint64_t> adj(un * words, 0);
  for (int i = 0; i < n; ++i) {
    std::uint64_t* row = adj.data() + static_cast<std::size_t>(i) * words;
    for (int j = 0; j < n; ++j) {
      if (i != j &&
          adjacent[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] !=
              0) {
        row_bit_assign(row, j, true);
      }
    }
  }
  std::vector<int> cn(un * un, 0);
  for (int a = 0; a < n; ++a) {
    const std::uint64_t* row_a = adj.data() + static_cast<std::size_t>(a) * words;
    for (int b = a + 1; b < n; ++b) {
      const int c = row_and_popcount(
          row_a, adj.data() + static_cast<std::size_t>(b) * words, words);
      cn[static_cast<std::size_t>(a) * un + static_cast<std::size_t>(b)] = c;
      cn[static_cast<std::size_t>(b) * un + static_cast<std::size_t>(a)] = c;
    }
  }

  std::vector<std::vector<int>> members(un);
  std::vector<char> alive(un, 1);
  for (int i = 0; i < n; ++i) members[static_cast<std::size_t>(i)] = {i};

  // Scratch neighbour lists, reused across merges.
  std::vector<int> na, nb, nab;
  na.reserve(un);
  nb.reserve(un);
  nab.reserve(un);

  int best_a = -1;
  int best_b = -1;
  while (select_merge_pair(n, words, alive.data(), adj.data(), cn.data(),
                           &best_a, &best_b)) {
    std::uint64_t* row_a = adj.data() + static_cast<std::size_t>(best_a) * words;
    std::uint64_t* row_b = adj.data() + static_cast<std::size_t>(best_b) * words;
    // Gather N(a)\{b}, N(b)\{a} and N(a)∩N(b) before touching the rows.
    na.clear();
    nb.clear();
    nab.clear();
    for (int k = 0; k < n; ++k) {
      const bool in_a = row_bit(row_a, k);
      const bool in_b = row_bit(row_b, k);
      if (in_a && k != best_b) na.push_back(k);
      if (in_b && k != best_a) nb.push_back(k);
      if (in_a && in_b) nab.push_back(k);
    }
    // For every pair (k, l) of other super-vertices the merged vertex
    // contributes one common neighbour iff k, l ⊆ N(a) ∩ N(b), where a and b
    // contributed independently before, so
    //   Δcn(k,l) = [k,l ⊆ N(a)∩N(b)] − [k,l ⊆ N(a)] − [k,l ⊆ N(b)].
    adjust_pair_counts(na.data(), static_cast<int>(na.size()), -1, cn.data(),
                       n);
    adjust_pair_counts(nb.data(), static_cast<int>(nb.size()), -1, cn.data(),
                       n);
    adjust_pair_counts(nab.data(), static_cast<int>(nab.size()), +1, cn.data(),
                       n);

    // Merge b into a: a's members grow (b's appended, the reference order),
    // b dies, a's row becomes the neighbourhood intersection, the b column
    // disappears everywhere and the a column mirrors the new row.
    auto& ma = members[static_cast<std::size_t>(best_a)];
    auto& mb = members[static_cast<std::size_t>(best_b)];
    ma.insert(ma.end(), mb.begin(), mb.end());
    mb.clear();
    alive[static_cast<std::size_t>(best_b)] = 0;
    for (std::size_t w = 0; w < words; ++w) {
      row_a[w] &= row_b[w];
      row_b[w] = 0;
    }
    for (int k = 0; k < n; ++k) {
      std::uint64_t* row_k = adj.data() + static_cast<std::size_t>(k) * words;
      row_bit_assign(row_k, best_b, false);
      if (k != best_a) row_bit_assign(row_k, best_a, row_bit(row_a, k));
    }
    // The merged vertex's own counts are recomputed outright: its
    // neighbourhood changed wholesale, so the pairwise deltas do not apply.
    for (int k = 0; k < n; ++k) {
      int c = 0;
      if (alive[static_cast<std::size_t>(k)] != 0 && k != best_a) {
        c = row_and_popcount(
            row_a, adj.data() + static_cast<std::size_t>(k) * words, words);
      }
      cn[static_cast<std::size_t>(best_a) * un + static_cast<std::size_t>(k)] =
          c;
      cn[static_cast<std::size_t>(k) * un + static_cast<std::size_t>(best_a)] =
          c;
    }
  }

  std::vector<std::vector<int>> cliques;
  for (int i = 0; i < n; ++i) {
    if (alive[static_cast<std::size_t>(i)]) {
      auto clique = members[static_cast<std::size_t>(i)];
      std::sort(clique.begin(), clique.end());
      cliques.push_back(std::move(clique));
    }
  }
  return cliques;
}

// ---------------------------------------------------------------------------
// Maximum-weight bipartite b-matching via min-cost flow
// ---------------------------------------------------------------------------

namespace {

struct FlowEdge {
  int to;
  int cap;
  double cost;
  std::size_t rev;  // index of the reverse edge in graph[to]
};

/// One Bellman-Ford sweep over every residual edge; returns whether any
/// distance label improved (the caller stops early when none did).
// hyde-hot
inline bool relax_all_edges(const std::vector<std::vector<FlowEdge>>& graph,
                            double* dist, int* prev_node,
                            std::size_t* prev_edge) {
  bool changed = false;
  const int n = static_cast<int>(graph.size());
  for (int u = 0; u < n; ++u) {
    if (!std::isfinite(dist[u])) continue;
    const std::vector<FlowEdge>& edges = graph[static_cast<std::size_t>(u)];
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].cap <= 0) continue;
      const double nd = dist[u] + edges[e].cost;
      const std::size_t to = static_cast<std::size_t>(edges[e].to);
      if (nd < dist[to] - 1e-12) {
        dist[to] = nd;
        prev_node[to] = u;
        prev_edge[to] = e;
        changed = true;
      }
    }
  }
  return changed;
}

/// Augments one unit of flow along the predecessor chain sink → source.
// hyde-hot
inline void push_unit_along_path(std::vector<std::vector<FlowEdge>>& graph,
                                 const int* prev_node,
                                 const std::size_t* prev_edge, int source,
                                 int sink) {
  for (int v = sink; v != source; v = prev_node[v]) {
    const int u = prev_node[v];
    FlowEdge& e =
        graph[static_cast<std::size_t>(u)][prev_edge[static_cast<std::size_t>(
            v)]];
    e.cap -= 1;
    graph[static_cast<std::size_t>(e.to)][e.rev].cap += 1;
  }
}

class FlowNetwork {
 public:
  explicit FlowNetwork(int num_nodes) : graph_(static_cast<std::size_t>(num_nodes)) {}

  void add_edge(int from, int to, int cap, double cost) {
    graph_[static_cast<std::size_t>(from)].push_back(
        {to, cap, cost, graph_[static_cast<std::size_t>(to)].size()});
    graph_[static_cast<std::size_t>(to)].push_back(
        {from, 0, -cost, graph_[static_cast<std::size_t>(from)].size() - 1});
  }

  /// Augments unit flows along cheapest paths while the path cost is
  /// negative; returns total (negated) profit.
  double run_negative_paths(int source, int sink) {
    const int n = static_cast<int>(graph_.size());
    double total = 0.0;
    // Scratch labels hoisted out of the augmentation loop and reset per path.
    std::vector<double> dist(static_cast<std::size_t>(n));
    std::vector<int> prev_node(static_cast<std::size_t>(n));
    std::vector<std::size_t> prev_edge(static_cast<std::size_t>(n));
    while (true) {
      // Bellman-Ford (costs can be negative; graphs here are tiny).
      std::fill(dist.begin(), dist.end(),
                std::numeric_limits<double>::infinity());
      std::fill(prev_node.begin(), prev_node.end(), -1);
      std::fill(prev_edge.begin(), prev_edge.end(), std::size_t{0});
      dist[static_cast<std::size_t>(source)] = 0.0;
      for (int iter = 0; iter < n; ++iter) {
        if (!relax_all_edges(graph_, dist.data(), prev_node.data(),
                             prev_edge.data())) {
          break;
        }
      }
      if (!std::isfinite(dist[static_cast<std::size_t>(sink)]) ||
          dist[static_cast<std::size_t>(sink)] >= -1e-12) {
        break;  // no remaining path with positive profit
      }
      push_unit_along_path(graph_, prev_node.data(), prev_edge.data(), source,
                           sink);
      total += dist[static_cast<std::size_t>(sink)];
    }
    return total;
  }

  const std::vector<FlowEdge>& edges_from(int node) const {
    return graph_[static_cast<std::size_t>(node)];
  }

 private:
  std::vector<std::vector<FlowEdge>> graph_;
};

}  // namespace

BMatchResult max_weight_b_matching(int num_left, int num_right,
                                   const std::vector<int>& right_capacity,
                                   const std::vector<BMatchEdge>& edges) {
  if (static_cast<int>(right_capacity.size()) != num_right) {
    throw std::invalid_argument("max_weight_b_matching: capacity size mismatch");
  }
  // Node layout: 0 = source, 1..num_left = left, then right, then sink.
  const int source = 0;
  const int left_base = 1;
  const int right_base = left_base + num_left;
  const int sink = right_base + num_right;
  FlowNetwork net(sink + 1);
  for (int i = 0; i < num_left; ++i) net.add_edge(source, left_base + i, 1, 0.0);
  for (int j = 0; j < num_right; ++j) {
    net.add_edge(right_base + j, sink, right_capacity[static_cast<std::size_t>(j)], 0.0);
  }
  for (const auto& e : edges) {
    if (e.left < 0 || e.left >= num_left || e.right < 0 || e.right >= num_right) {
      throw std::invalid_argument("max_weight_b_matching: edge out of range");
    }
    net.add_edge(left_base + e.left, right_base + e.right, 1, -e.weight);
  }
  const double neg_profit = net.run_negative_paths(source, sink);

  BMatchResult result;
  result.left_match.assign(static_cast<std::size_t>(num_left), -1);
  result.total_weight = -neg_profit;
  for (int i = 0; i < num_left; ++i) {
    for (const auto& e : net.edges_from(left_base + i)) {
      // A saturated forward edge to a right node indicates a match.
      if (e.to >= right_base && e.to < sink && e.cap == 0 && e.cost <= 0.0) {
        result.left_match[static_cast<std::size_t>(i)] = e.to - right_base;
        break;
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Edmonds' blossom maximum-cardinality matching
// ---------------------------------------------------------------------------

namespace {

inline std::size_t ix(int v) { return static_cast<std::size_t>(v); }

/// Stamp-array helper: returns a fresh stamp, clearing \p marks on the rare
/// wrap-around so an old stamp can never read as current.
inline std::uint32_t next_stamp(std::uint32_t& stamp,
                                std::vector<std::uint32_t>& marks) {
  if (++stamp == 0) {
    std::fill(marks.begin(), marks.end(), 0U);
    stamp = 1;
  }
  return stamp;
}

/// Edmonds' blossom matcher over CSR rows. Between searches every search
/// label is clean: free, no parent, its own base, and a singleton member
/// list. A search records each vertex it labels in touched_ and restores
/// exactly those afterwards, so a search costs what it touches.
///
/// label_ folds the textbook `used` flag and the base into one load per
/// scanned neighbour: an outer (used) vertex's label is its base, an inner
/// vertex (parent set, not used) is kInner, any other vertex is kFree. A
/// neighbour that is inner, or outer in v's own blossom, is skipped at once;
/// the textbook checks would do nothing for it either, since an inner
/// vertex's mate never has a parent (mark_path sets the parent of a vertex
/// only together with marking its mate's blossom, which makes the mate
/// outer).
///
/// Blossom members are kept as intrusive lists headed by their base (a base
/// is its own base, so it heads its own list): a contraction walks only the
/// lists of the bases it marked, and visits their members in ascending index
/// order, which is the order the full 0..n-1 rescan of the textbook
/// formulation enqueues them.
class Blossom {
 public:
  explicit Blossom(const CsrGraph& graph)
      : graph_(graph),
        n_(graph.num_vertices()),
        match_(ix(n_), -1),
        parent_(ix(n_), -1),
        base_(ix(n_)),
        next_member_(ix(n_), -1),
        last_member_(ix(n_)),
        label_(ix(n_), kFree),
        lca_mark_(ix(n_), 0),
        blossom_mark_(ix(n_), 0) {
    std::iota(base_.begin(), base_.end(), 0);
    std::iota(last_member_.begin(), last_member_.end(), 0);
  }

  std::vector<int> solve() {
    for (int v = 0; v < n_; ++v) {
      if (match_[ix(v)] == -1) {
        const int u = find_augmenting_path(v);
        if (u != -1) augment(u);
        reset_touched();
      }
    }
    return std::move(match_);
  }

 private:
  static constexpr int kFree = -1;
  static constexpr int kInner = -2;

  void reset_touched() {
    for (const int v : touched_) {
      label_[ix(v)] = kFree;
      parent_[ix(v)] = -1;
      base_[ix(v)] = v;
      next_member_[ix(v)] = -1;
      last_member_[ix(v)] = v;
    }
    touched_.clear();
  }

  int lca(int a, int b) {
    const std::uint32_t stamp = next_stamp(lca_stamp_, lca_mark_);
    while (true) {
      a = base_[ix(a)];
      lca_mark_[ix(a)] = stamp;
      if (match_[ix(a)] == -1) break;
      a = parent_[ix(match_[ix(a)])];
    }
    while (true) {
      b = base_[ix(b)];
      if (lca_mark_[ix(b)] == stamp) return b;
      b = parent_[ix(match_[ix(b)])];
    }
  }

  void mark_base(int b) {
    if (blossom_mark_[ix(b)] != blossom_stamp_) {
      blossom_mark_[ix(b)] = blossom_stamp_;
      marked_bases_.push_back(b);
    }
  }

  void mark_path(int v, int b, int child) {
    while (base_[ix(v)] != b) {
      const int mv = match_[ix(v)];
      mark_base(base_[ix(v)]);
      mark_base(base_[ix(mv)]);
      parent_[ix(v)] = child;
      child = mv;
      v = parent_[ix(mv)];
    }
  }

  /// Contracts the blossom closed by the edge (v, to): every member of a
  /// marked blossom joins cur_base's blossom, and the ones not yet outer
  /// become outer and are enqueued, in ascending index order.
  void contract(int v, int to) {
    const int cur_base = lca(v, to);
    next_stamp(blossom_stamp_, blossom_mark_);
    marked_bases_.clear();
    mark_path(v, cur_base, to);
    mark_path(to, cur_base, v);
    members_.clear();
    for (const int b : marked_bases_) {
      for (int i = b; i != -1; i = next_member_[ix(i)]) members_.push_back(i);
    }
    std::sort(members_.begin(), members_.end());
    for (const int i : members_) {
      base_[ix(i)] = cur_base;
      if (label_[ix(i)] < 0) {
        touched_.push_back(i);
        queue_.push_back(i);
      }
      label_[ix(i)] = cur_base;
    }
    for (const int b : marked_bases_) {
      if (b == cur_base) continue;
      next_member_[ix(last_member_[ix(cur_base)])] = b;
      last_member_[ix(cur_base)] = last_member_[ix(b)];
    }
  }

  /// First row position at or after \p e whose neighbour is neither inner
  /// nor outer in blossom \p v_base: the only ones a scan acts on.
  // hyde-hot
  std::size_t skip_settled(std::size_t e, std::size_t end, int v_base) const {
    const int* neighbours = graph_.neighbours.data();
    const int* label = label_.data();
    for (; e < end; ++e) {
      const int to_label = label[neighbours[e]];
      if (to_label != kInner && to_label != v_base) break;
    }
    return e;
  }

  int find_augmenting_path(int root) {
    label_[ix(root)] = root;
    touched_.push_back(root);
    queue_.clear();
    queue_.push_back(root);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const int v = queue_[head];
      int v_base = base_[ix(v)];
      const std::size_t end = graph_.offsets[ix(v) + 1];
      for (std::size_t e = graph_.offsets[ix(v)];
           (e = skip_settled(e, end, v_base)) < end; ++e) {
        const int to = graph_.neighbours[e];
        if (v_base == base_[ix(to)] || match_[ix(v)] == to) continue;
        const int to_mate = match_[ix(to)];
        if (to == root || (to_mate != -1 && parent_[ix(to_mate)] != -1)) {
          contract(v, to);
          v_base = base_[ix(v)];
        } else if (parent_[ix(to)] == -1) {
          parent_[ix(to)] = v;
          label_[ix(to)] = kInner;
          touched_.push_back(to);
          if (to_mate == -1) return to;  // augmenting path found
          label_[ix(to_mate)] = base_[ix(to_mate)];
          touched_.push_back(to_mate);
          queue_.push_back(to_mate);
        }
      }
    }
    return -1;
  }

  void augment(int v) {
    while (v != -1) {
      const int pv = parent_[ix(v)];
      const int ppv = match_[ix(pv)];
      match_[ix(v)] = pv;
      match_[ix(pv)] = v;
      v = ppv;
    }
  }

  const CsrGraph& graph_;
  int n_;
  std::vector<int> match_, parent_, base_;
  std::vector<int> next_member_, last_member_;  ///< blossom member lists
  std::vector<int> label_;  ///< base if outer, else kInner or kFree
  std::vector<std::uint32_t> lca_mark_, blossom_mark_;
  std::uint32_t lca_stamp_ = 0;
  std::uint32_t blossom_stamp_ = 0;
  std::vector<int> touched_, queue_, marked_bases_, members_;
};

}  // namespace

std::vector<int> max_cardinality_matching(const CsrGraph& graph) {
  return Blossom(graph).solve();
}

std::vector<int> max_cardinality_matching(
    int n, const std::vector<std::pair<int, int>>& edges) {
  CsrGraph graph;
  graph.offsets.assign(ix(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u < 0 || u >= n || v < 0 || v >= n) {
      throw std::invalid_argument(
          "max_cardinality_matching: edge out of range");
    }
    if (u == v) continue;
    ++graph.offsets[ix(u) + 1];
    ++graph.offsets[ix(v) + 1];
  }
  for (int v = 0; v < n; ++v) graph.offsets[ix(v) + 1] += graph.offsets[ix(v)];
  graph.neighbours.resize(graph.offsets[ix(n)]);
  std::vector<std::size_t> fill(graph.offsets.begin(), graph.offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    graph.neighbours[fill[ix(u)]++] = v;
    graph.neighbours[fill[ix(v)]++] = u;
  }
  return max_cardinality_matching(graph);
}

}  // namespace hyde::graph
