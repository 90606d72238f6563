#include "oracles/matching_oracle.hpp"

#include <queue>
#include <set>
#include <stdexcept>

namespace hyde::graph {

namespace {

class BlossomReference {
 public:
  BlossomReference(int n, const std::vector<std::pair<int, int>>& edges)
      : n_(n), adj_(static_cast<std::size_t>(n)) {
    for (const auto& [u, v] : edges) {
      if (u == v) continue;
      adj_[static_cast<std::size_t>(u)].push_back(v);
      adj_[static_cast<std::size_t>(v)].push_back(u);
    }
    match_.assign(static_cast<std::size_t>(n), -1);
  }

  std::vector<int> solve() {
    for (int v = 0; v < n_; ++v) {
      if (match_[static_cast<std::size_t>(v)] == -1) {
        const int u = find_augmenting_path(v);
        if (u != -1) augment(u);
      }
    }
    return match_;
  }

 private:
  int lca(int a, int b) {
    std::vector<char> used(static_cast<std::size_t>(n_), 0);
    while (true) {
      a = base_[static_cast<std::size_t>(a)];
      used[static_cast<std::size_t>(a)] = 1;
      if (match_[static_cast<std::size_t>(a)] == -1) break;
      a = parent_[static_cast<std::size_t>(match_[static_cast<std::size_t>(a)])];
    }
    while (true) {
      b = base_[static_cast<std::size_t>(b)];
      if (used[static_cast<std::size_t>(b)]) return b;
      b = parent_[static_cast<std::size_t>(match_[static_cast<std::size_t>(b)])];
    }
  }

  void mark_path(int v, int b, int child) {
    while (base_[static_cast<std::size_t>(v)] != b) {
      const int mv = match_[static_cast<std::size_t>(v)];
      blossom_[static_cast<std::size_t>(base_[static_cast<std::size_t>(v)])] = 1;
      blossom_[static_cast<std::size_t>(base_[static_cast<std::size_t>(mv)])] = 1;
      parent_[static_cast<std::size_t>(v)] = child;
      child = mv;
      v = parent_[static_cast<std::size_t>(mv)];
    }
  }

  int find_augmenting_path(int root) {
    used_.assign(static_cast<std::size_t>(n_), 0);
    parent_.assign(static_cast<std::size_t>(n_), -1);
    base_.resize(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) base_[static_cast<std::size_t>(i)] = i;

    used_[static_cast<std::size_t>(root)] = 1;
    std::queue<int> q;
    q.push(root);
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      for (const int to : adj_[static_cast<std::size_t>(v)]) {
        if (base_[static_cast<std::size_t>(v)] == base_[static_cast<std::size_t>(to)] ||
            match_[static_cast<std::size_t>(v)] == to) {
          continue;
        }
        if (to == root ||
            (match_[static_cast<std::size_t>(to)] != -1 &&
             parent_[static_cast<std::size_t>(match_[static_cast<std::size_t>(to)])] != -1)) {
          // Found a blossom; contract it.
          const int cur_base = lca(v, to);
          blossom_.assign(static_cast<std::size_t>(n_), 0);
          mark_path(v, cur_base, to);
          mark_path(to, cur_base, v);
          for (int i = 0; i < n_; ++i) {
            if (blossom_[static_cast<std::size_t>(base_[static_cast<std::size_t>(i)])]) {
              base_[static_cast<std::size_t>(i)] = cur_base;
              if (!used_[static_cast<std::size_t>(i)]) {
                used_[static_cast<std::size_t>(i)] = 1;
                q.push(i);
              }
            }
          }
        } else if (parent_[static_cast<std::size_t>(to)] == -1) {
          parent_[static_cast<std::size_t>(to)] = v;
          if (match_[static_cast<std::size_t>(to)] == -1) {
            return to;  // augmenting path found
          }
          used_[static_cast<std::size_t>(match_[static_cast<std::size_t>(to)])] = 1;
          q.push(match_[static_cast<std::size_t>(to)]);
        }
      }
    }
    return -1;
  }

  void augment(int v) {
    while (v != -1) {
      const int pv = parent_[static_cast<std::size_t>(v)];
      const int ppv = match_[static_cast<std::size_t>(pv)];
      match_[static_cast<std::size_t>(v)] = pv;
      match_[static_cast<std::size_t>(pv)] = v;
      v = ppv;
    }
  }

  int n_;
  std::vector<std::vector<int>> adj_;
  std::vector<int> match_, parent_, base_;
  std::vector<char> used_, blossom_;
};

}  // namespace

std::vector<int> max_cardinality_matching_reference(
    int n, const std::vector<std::pair<int, int>>& edges) {
  return BlossomReference(n, edges).solve();
}

}  // namespace hyde::graph

namespace hyde::mapper {

PairingEdgesReference xc3000_pairing_edges_reference(
    const net::Network& network) {
  PairingEdgesReference out;
  std::vector<net::NodeId>& nodes = out.nodes;
  for (net::NodeId id : network.topo_order()) {
    const net::Node& node = network.node(id);
    if (node.kind != net::NodeKind::kLogic || node.dead) continue;
    if (node.fanins.size() > 5) {
      throw std::invalid_argument("pack_xc3000: node wider than 5 inputs: " +
                                  node.name);
    }
    nodes.push_back(id);
  }

  std::vector<std::set<net::NodeId>> fanin_sets(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& fanins = network.node(nodes[i]).fanins;
    fanin_sets[i] = std::set<net::NodeId>(fanins.begin(), fanins.end());
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (fanin_sets[i].size() > 4) continue;
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (fanin_sets[j].size() > 4) continue;
      if (fanin_sets[i].count(nodes[j]) != 0 ||
          fanin_sets[j].count(nodes[i]) != 0) {
        continue;
      }
      std::set<net::NodeId> merged = fanin_sets[i];
      merged.insert(fanin_sets[j].begin(), fanin_sets[j].end());
      if (merged.size() <= 5) {
        out.edges.emplace_back(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  return out;
}

ClbPacking pack_xc3000_reference(const net::Network& network) {
  const PairingEdgesReference graph = xc3000_pairing_edges_reference(network);
  const auto mate = graph::max_cardinality_matching_reference(
      static_cast<int>(graph.nodes.size()), graph.edges);
  ClbPacking packing;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const int m = mate[i];
    if (m < 0) {
      ++packing.singles;
    } else if (m > static_cast<int>(i)) {
      ++packing.paired;
    }
  }
  packing.num_clbs = packing.singles + packing.paired;
  return packing;
}

}  // namespace hyde::mapper
