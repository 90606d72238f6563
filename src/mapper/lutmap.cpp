#include "mapper/lutmap.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_set>
#include <vector>

namespace hyde::mapper {

namespace {

/// A node's dedup key: its fanins sorted ascending, followed by the words of
/// its local table with the variables permuted to match. Two live logic nodes
/// with equal keys compute the same function of the same signals.
using NodeKey = std::vector<std::uint64_t>;

NodeKey canonical_key(const net::Network& network, net::NodeId id) {
  const net::Node& node = network.node(id);
  // Sort fanin ids; permute table variables accordingly.
  std::vector<int> order(node.fanins.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&node](int a, int b) {
    return node.fanins[static_cast<std::size_t>(a)] <
           node.fanins[static_cast<std::size_t>(b)];
  });
  // order[i] = old position that lands at new position i; permute() wants
  // perm[new] = old.
  const tt::TruthTable table = network.local_tt(id).permute(order);
  NodeKey key;
  key.reserve(order.size() + table.words().size());
  for (int old_pos : order) {
    key.push_back(static_cast<std::uint64_t>(
        node.fanins[static_cast<std::size_t>(old_pos)]));
  }
  key.insert(key.end(), table.words().begin(), table.words().end());
  return key;
}

/// One node's key, with the fanins and local function it was computed from:
/// the key stays valid for as long as both are unchanged.
struct CachedKey {
  std::vector<net::NodeId> fanins;
  bdd::Bdd local;
  NodeKey key;
  std::size_t hash = 0;
};

std::size_t hash_key(const NodeKey& key) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ key.size();
  for (const std::uint64_t word : key) {
    h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6U) + (h >> 2U);
  }
  return static_cast<std::size_t>(h);
}

/// The live readers of every node as CSR rows (a reader that uses a node on
/// two pins is listed twice).
struct Readers {
  std::vector<int> offsets;
  std::vector<net::NodeId> ids;

  Readers(const net::Network& network, const std::vector<net::NodeId>& topo)
      : offsets(static_cast<std::size_t>(network.num_nodes()) + 1, 0) {
    for (const net::NodeId id : topo) {
      for (const net::NodeId f : network.node(id).fanins) {
        ++offsets[static_cast<std::size_t>(f) + 1];
      }
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    ids.resize(static_cast<std::size_t>(offsets.back()));
    std::vector<int> fill(offsets.begin(), offsets.end() - 1);
    for (const net::NodeId id : topo) {
      for (const net::NodeId f : network.node(id).fanins) {
        ids[static_cast<std::size_t>(fill[static_cast<std::size_t>(f)]++)] =
            id;
      }
    }
  }
};

/// Network::replace_everywhere(old_node, new_node), touching only the
/// readers the index lists for old_node (and the outputs).
void redirect(net::Network& network, const Readers& readers,
              net::NodeId old_node, net::NodeId new_node) {
  const std::size_t v = static_cast<std::size_t>(old_node);
  for (int r = readers.offsets[v]; r < readers.offsets[v + 1]; ++r) {
    for (net::NodeId& f :
         network.node(readers.ids[static_cast<std::size_t>(r)]).fanins) {
      if (f == old_node) f = new_node;
    }
  }
  for (net::Output& out : network.outputs()) {
    if (out.driver == old_node) out.driver = new_node;
  }
}

}  // namespace

int dedup_shared_nodes(net::Network& network) {
  int merged_total = 0;
  std::vector<CachedKey> cache;
  network.sweep();
  while (true) {
    const std::vector<net::NodeId> topo = network.topo_order();
    const Readers readers(network, topo);
    cache.resize(static_cast<std::size_t>(network.num_nodes()));
    auto hash = [&cache](net::NodeId id) {
      return cache[static_cast<std::size_t>(id)].hash;
    };
    auto equal = [&cache](net::NodeId a, net::NodeId b) {
      return cache[static_cast<std::size_t>(a)].key ==
             cache[static_cast<std::size_t>(b)].key;
    };
    // The first node of each key in topological order survives; a later
    // one's readers move to it. Those readers come later still, so each node
    // is keyed once per pass, on its fanins after every earlier merge.
    std::unordered_set<net::NodeId, decltype(hash), decltype(equal)> canonical(
        topo.size(), hash, equal);
    bool changed = false;
    for (const net::NodeId id : topo) {
      const net::Node& node = network.node(id);
      if (node.kind != net::NodeKind::kLogic || node.dead) continue;
      CachedKey& entry = cache[static_cast<std::size_t>(id)];
      if (!entry.local.is_valid() || entry.local != node.local ||
          entry.fanins != node.fanins) {
        entry.fanins = node.fanins;
        entry.local = node.local;
        entry.key = canonical_key(network, id);
        entry.hash = hash_key(entry.key);
      }
      const auto [it, inserted] = canonical.insert(id);
      if (!inserted) {
        redirect(network, readers, id, *it);
        ++merged_total;
        changed = true;
      }
    }
    if (!changed) break;
    network.sweep();
  }
  return merged_total;
}

namespace {

/// Tries to re-express node \p id over (fanins \ remove) ∪ {divisor}. The
/// semantic condition: whenever two full assignments agree outside \p remove
/// and on the divisor's value, f agrees. On success installs the new
/// function/fanins and returns true.
bool try_resub(net::Network& network, net::NodeId id, net::NodeId divisor,
               const std::vector<net::NodeId>& remove, int k) {
  const net::Node& node = network.node(id);
  const net::Node& dnode = network.node(divisor);
  // Joint pin space V = fanins(f) ∪ fanins(g) ∪ {g}.
  std::vector<net::NodeId> joint = node.fanins;
  for (net::NodeId gf : dnode.fanins) {
    if (std::find(joint.begin(), joint.end(), gf) == joint.end()) {
      joint.push_back(gf);
    }
  }
  const bool divisor_is_fanin =
      std::find(joint.begin(), joint.end(), divisor) != joint.end();
  if (joint.size() > 12) return false;  // keep truth tables small
  const int arity = static_cast<int>(joint.size());
  auto pin_of = [&joint](net::NodeId n) {
    return static_cast<int>(std::find(joint.begin(), joint.end(), n) -
                            joint.begin());
  };
  std::vector<int> f_place, g_place;
  for (net::NodeId fin : node.fanins) f_place.push_back(pin_of(fin));
  for (net::NodeId fin : dnode.fanins) g_place.push_back(pin_of(fin));
  const tt::TruthTable f = network.local_tt(id).expand(arity, f_place);
  const tt::TruthTable g_fn = network.local_tt(divisor).expand(arity, g_place);

  // Candidate pins of the rebuilt function: the kept fanins of f, the
  // divisor's fanins outside the removal set, and the divisor signal itself.
  // The true support is computed afterwards and must shrink.
  std::vector<net::NodeId> candidates;
  std::vector<int> candidate_pins;
  auto add_candidate = [&](net::NodeId n) {
    if (n == divisor) return;
    if (std::find(remove.begin(), remove.end(), n) != remove.end()) return;
    if (std::find(candidates.begin(), candidates.end(), n) != candidates.end()) {
      return;
    }
    candidates.push_back(n);
    candidate_pins.push_back(pin_of(n));
  };
  for (net::NodeId fin : node.fanins) add_candidate(fin);
  for (net::NodeId fin : dnode.fanins) add_candidate(fin);
  const int new_arity = static_cast<int>(candidates.size()) + 1;
  if (new_arity > 12) return false;

  // Consistency check + construction in one sweep over the joint space:
  // key = (candidate values, divisor value) must determine f on reachable
  // assignments.
  const std::size_t table_size = std::size_t{1} << new_arity;
  std::vector<char> defined(table_size, 0);
  std::vector<char> value(table_size, 0);
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << arity); ++m) {
    // If the divisor is itself a pin of f, only consider assignments where
    // that pin carries the divisor's computed value.
    if (divisor_is_fanin &&
        (((m >> pin_of(divisor)) & 1) != 0) != g_fn.bit(m)) {
      continue;
    }
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < candidate_pins.size(); ++i) {
      if ((m >> candidate_pins[i]) & 1) key |= std::uint64_t{1} << i;
    }
    if (g_fn.bit(m)) key |= std::uint64_t{1} << candidate_pins.size();
    const bool fv = f.bit(m);
    if (!defined[static_cast<std::size_t>(key)]) {
      defined[static_cast<std::size_t>(key)] = 1;
      value[static_cast<std::size_t>(key)] = fv ? 1 : 0;
    } else if ((value[static_cast<std::size_t>(key)] != 0) != fv) {
      return false;  // f is not a function of (candidates, divisor)
    }
  }
  tt::TruthTable rebuilt(new_arity);
  for (std::uint64_t key = 0; key < table_size; ++key) {
    if (defined[static_cast<std::size_t>(key)] &&
        value[static_cast<std::size_t>(key)]) {
      rebuilt.set_bit(key, true);
    }
  }
  // Accept only if the true support shrank below f's current fanin count
  // and fits a k-LUT.
  const auto support = rebuilt.support();
  if (static_cast<int>(support.size()) >=
          static_cast<int>(node.fanins.size()) ||
      static_cast<int>(support.size()) > k) {
    return false;
  }
  std::vector<net::NodeId> new_fanins;
  for (int v : support) {
    new_fanins.push_back(v < static_cast<int>(candidates.size())
                             ? candidates[static_cast<std::size_t>(v)]
                             : divisor);
  }
  net::Node& mutable_node = network.node(id);
  mutable_node.local =
      network.manager().from_truth_table(rebuilt.project(support));
  mutable_node.fanins = std::move(new_fanins);
  return true;
}

}  // namespace

int resubstitute(net::Network& network) {
  int eliminated = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto topo = network.topo_order();
    // Topological position: divisors must precede the node (keeps the DAG).
    std::vector<int> position(static_cast<std::size_t>(network.num_nodes()), -1);
    for (std::size_t i = 0; i < topo.size(); ++i) {
      position[static_cast<std::size_t>(topo[i])] = static_cast<int>(i);
    }
    for (net::NodeId id : topo) {
      const net::Node& node = network.node(id);
      if (node.kind != net::NodeKind::kLogic || node.dead) continue;
      if (node.fanins.size() < 2) continue;
      for (net::NodeId divisor : topo) {
        if (divisor == id) continue;
        const net::Node& dnode = network.node(divisor);
        if (dnode.kind != net::NodeKind::kLogic || dnode.dead) continue;
        if (position[static_cast<std::size_t>(divisor)] >=
            position[static_cast<std::size_t>(id)]) {
          break;  // topo order: everything after here is not usable
        }
        // Common fanins of f and the divisor are removal candidates.
        std::vector<net::NodeId> common;
        for (net::NodeId fin : node.fanins) {
          if (std::find(dnode.fanins.begin(), dnode.fanins.end(), fin) !=
              dnode.fanins.end()) {
            common.push_back(fin);
          }
        }
        bool applied = false;
        const bool divisor_is_fanin =
            std::find(node.fanins.begin(), node.fanins.end(), divisor) !=
            node.fanins.end();
        // Single-elimination needs the divisor already wired; replacing a
        // pair of inputs by the divisor pays even for an external node.
        if (divisor_is_fanin) {
          for (net::NodeId x : common) {
            if (try_resub(network, id, divisor, {x}, 32)) {
              applied = true;
              break;
            }
          }
        }
        if (!applied && common.size() >= 2) {
          for (std::size_t a = 0; a < common.size() && !applied; ++a) {
            for (std::size_t b = a + 1; b < common.size() && !applied; ++b) {
              applied = try_resub(network, id, divisor,
                                  {common[a], common[b]}, 32);
            }
          }
        }
        if (applied) {
          ++eliminated;
          changed = true;
          break;  // re-derive fanins before trying more divisors
        }
      }
    }
    if (changed) network.sweep();
  }
  return eliminated;
}

namespace {

/// f(x_0, ..., x_{p-1}) as a table: \p f has p variables and x_v is the
/// table inputs[v], all of \p width words. A multiplexer tree over f's
/// minterms resolves one variable per level.
std::vector<std::uint64_t> evaluate(
    const tt::TruthTable& f,
    const std::vector<std::vector<std::uint64_t>>& inputs,
    std::size_t width) {
  std::size_t slots = static_cast<std::size_t>(f.size());
  std::vector<std::uint64_t> tree(slots * width, 0);
  for (std::size_t m = 0; m < slots; ++m) {
    if (f.bit(m)) {
      std::fill_n(tree.begin() + static_cast<std::ptrdiff_t>(m * width),
                  width, ~std::uint64_t{0});
    }
  }
  for (const std::vector<std::uint64_t>& x : inputs) {
    slots >>= 1U;
    for (std::size_t i = 0; i < slots; ++i) {
      for (std::size_t w = 0; w < width; ++w) {
        tree[i * width + w] = (x[w] & tree[(2 * i + 1) * width + w]) |
                              (~x[w] & tree[2 * i * width + w]);
      }
    }
  }
  tree.resize(width);
  return tree;
}

}  // namespace

int collapse_into_fanouts(net::Network& network, int k) {
  int collapsed = 0;
  network.sweep();
  while (true) {
    const std::vector<net::NodeId> topo = network.topo_order();
    // Occurrence counts and the unique reader of each node, as of the start
    // of the pass.
    const std::size_t num_nodes = static_cast<std::size_t>(network.num_nodes());
    std::vector<int> fanout(num_nodes, 0);
    std::vector<net::NodeId> reader(num_nodes, net::kNoNode);
    std::vector<char> drives_po(num_nodes, 0);
    for (net::NodeId id : topo) {
      for (net::NodeId f : network.node(id).fanins) {
        ++fanout[static_cast<std::size_t>(f)];
        reader[static_cast<std::size_t>(f)] = id;
      }
    }
    for (const auto& out : network.outputs()) {
      drives_po[static_cast<std::size_t>(out.driver)] = 1;
    }
    bool changed = false;
    for (net::NodeId id : topo) {
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

      // Both tables evaluated on the merged pins' variable tables: first the
      // inner node, then the reader with the inner node's table on its pin.
      const int arity = static_cast<int>(merged.size());
      const std::size_t width = tt::TruthTable(arity).words().size();
      auto pin_table = [&](net::NodeId f) {
        const auto pos =
            std::find(merged.begin(), merged.end(), f) - merged.begin();
        return tt::TruthTable::var(arity, static_cast<int>(pos)).words();
      };
      std::vector<std::vector<std::uint64_t>> inputs;
      for (net::NodeId f : inner.fanins) inputs.push_back(pin_table(f));
      const std::vector<std::uint64_t> inner_words =
          evaluate(network.local_tt(id), inputs, width);
      inputs.clear();
      for (net::NodeId f : outer.fanins) {
        inputs.push_back(f == id ? inner_words : pin_table(f));
      }
      const tt::TruthTable combined = tt::TruthTable::from_words(
          arity, evaluate(network.local_tt(r), inputs, width));
      net::Node& mutable_outer = network.node(r);
      mutable_outer.fanins = std::move(merged);
      mutable_outer.local = network.manager().from_truth_table(combined);
      ++collapsed;
      changed = true;
    }
    if (!changed) break;
    network.sweep();
  }
  return collapsed;
}

int lut_count(const net::Network& network) { return network.num_logic_nodes(); }

int network_depth(const net::Network& network) {
  std::vector<int> level(static_cast<std::size_t>(network.num_nodes()), 0);
  int depth = 0;
  for (net::NodeId id : network.topo_order()) {
    const net::Node& node = network.node(id);
    if (node.kind != net::NodeKind::kLogic) continue;
    int best = 0;
    for (net::NodeId f : node.fanins) {
      best = std::max(best, level[static_cast<std::size_t>(f)]);
    }
    level[static_cast<std::size_t>(id)] = best + 1;
    depth = std::max(depth, best + 1);
  }
  return depth;
}

}  // namespace hyde::mapper
