#include "oracles/cleanup_oracle.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "tt/truth_table.hpp"

namespace hyde::mapper {

namespace {

/// Canonical key for functional node equality: fanins sorted ascending with
/// the local truth table permuted to match.
struct NodeKey {
  std::vector<net::NodeId> fanins;
  std::string bits;

  bool operator<(const NodeKey& rhs) const {
    if (fanins != rhs.fanins) return fanins < rhs.fanins;
    return bits < rhs.bits;
  }
};

NodeKey canonical_key(const net::Network& network, net::NodeId id) {
  const net::Node& node = network.node(id);
  tt::TruthTable table = network.local_tt(id);
  // Sort fanin ids; permute table variables accordingly.
  std::vector<int> order(node.fanins.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&node](int a, int b) {
    return node.fanins[static_cast<std::size_t>(a)] <
           node.fanins[static_cast<std::size_t>(b)];
  });
  // order[i] = old position that lands at new position i; permute() wants
  // perm[new] = old.
  std::vector<int> perm(order.begin(), order.end());
  table = table.permute(perm);
  NodeKey key;
  for (int old_pos : order) {
    key.fanins.push_back(node.fanins[static_cast<std::size_t>(old_pos)]);
  }
  key.bits = table.to_bits();
  return key;
}

}  // namespace

int dedup_shared_nodes_reference(net::Network& network) {
  int merged_total = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    network.sweep();
    std::map<NodeKey, net::NodeId> canonical;
    for (net::NodeId id : network.topo_order()) {
      const net::Node& node = network.node(id);
      if (node.kind != net::NodeKind::kLogic || node.dead) continue;
      NodeKey key = canonical_key(network, id);
      auto [it, inserted] = canonical.emplace(std::move(key), id);
      if (!inserted) {
        network.replace_everywhere(id, it->second);
        ++merged_total;
        changed = true;
      }
    }
  }
  network.sweep();
  return merged_total;
}

int collapse_into_fanouts_reference(net::Network& network, int k) {
  int collapsed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    network.sweep();
    // Occurrence counts and the unique reader of each node.
    const std::size_t num_nodes = static_cast<std::size_t>(network.num_nodes());
    std::vector<int> fanout(num_nodes, 0);
    std::vector<net::NodeId> reader(num_nodes, net::kNoNode);
    std::vector<char> drives_po(num_nodes, 0);
    for (net::NodeId id : network.topo_order()) {
      for (net::NodeId f : network.node(id).fanins) {
        ++fanout[static_cast<std::size_t>(f)];
        reader[static_cast<std::size_t>(f)] = id;
      }
    }
    for (const auto& out : network.outputs()) {
      drives_po[static_cast<std::size_t>(out.driver)] = 1;
    }
    for (net::NodeId id : network.topo_order()) {
      const net::Node& inner = network.node(id);
      if (inner.kind != net::NodeKind::kLogic || inner.dead) continue;
      if (drives_po[static_cast<std::size_t>(id)]) continue;
      if (fanout[static_cast<std::size_t>(id)] != 1) continue;
      const net::NodeId r = reader[static_cast<std::size_t>(id)];
      if (r == net::kNoNode) continue;
      const net::Node& outer = network.node(r);
      if (outer.kind != net::NodeKind::kLogic) continue;

      // Merged fanins: the reader's other pins plus the inner node's pins.
      std::vector<net::NodeId> merged;
      for (net::NodeId f : outer.fanins) {
        if (f != id &&
            std::find(merged.begin(), merged.end(), f) == merged.end()) {
          merged.push_back(f);
        }
      }
      for (net::NodeId f : inner.fanins) {
        if (std::find(merged.begin(), merged.end(), f) == merged.end()) {
          merged.push_back(f);
        }
      }
      if (static_cast<int>(merged.size()) > k) continue;

      const tt::TruthTable inner_tt = network.local_tt(id);
      const tt::TruthTable outer_tt = network.local_tt(r);
      auto pin_of = [&merged](net::NodeId f) {
        return static_cast<int>(std::find(merged.begin(), merged.end(), f) -
                                merged.begin());
      };
      const tt::TruthTable combined = tt::TruthTable::from_lambda(
          static_cast<int>(merged.size()), [&](std::uint64_t m) {
            std::uint64_t inner_minterm = 0;
            for (std::size_t p = 0; p < inner.fanins.size(); ++p) {
              if ((m >> pin_of(inner.fanins[p])) & 1) {
                inner_minterm |= std::uint64_t{1} << p;
              }
            }
            const bool inner_value = inner_tt.bit(inner_minterm);
            std::uint64_t outer_minterm = 0;
            for (std::size_t p = 0; p < outer.fanins.size(); ++p) {
              const bool v = outer.fanins[p] == id
                                 ? inner_value
                                 : (((m >> pin_of(outer.fanins[p])) & 1) != 0);
              if (v) outer_minterm |= std::uint64_t{1} << p;
            }
            return outer_tt.bit(outer_minterm);
          });
      net::Node& mutable_outer = network.node(r);
      mutable_outer.fanins = merged;
      mutable_outer.local = network.manager().from_truth_table(combined);
      ++collapsed;
      changed = true;
    }
  }
  network.sweep();
  return collapsed;
}

}  // namespace hyde::mapper
