#include "part/window.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace hyde::part {

namespace {

/// Live logic nodes in a cone-affine topological order: iterative DFS from
/// the primary-output drivers (in output order), fanins first, then any
/// remaining live logic nodes in id order. Keeping each output cone
/// contiguous is what lets the interval packer approximate MFFC windows.
std::vector<net::NodeId> cone_topo_order(const net::Network& network) {
  std::vector<net::NodeId> order;
  order.reserve(static_cast<std::size_t>(network.num_nodes()));
  std::vector<char> state(static_cast<std::size_t>(network.num_nodes()), 0);

  const auto visit = [&](net::NodeId start) {
    if (state[static_cast<std::size_t>(start)] != 0) return;
    // Explicit stack of (node, next-fanin-index) frames: host networks can be
    // thousands of levels deep, too deep for recursion.
    std::vector<std::pair<net::NodeId, std::size_t>> stack{{start, 0}};
    state[static_cast<std::size_t>(start)] = 1;
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      const net::Node& n = network.node(id);
      if (next < n.fanins.size()) {
        const net::NodeId f = n.fanins[next++];
        if (state[static_cast<std::size_t>(f)] == 0) {
          state[static_cast<std::size_t>(f)] = 1;
          stack.emplace_back(f, 0);
        }
        continue;
      }
      state[static_cast<std::size_t>(id)] = 2;
      if (n.kind == net::NodeKind::kLogic) order.push_back(id);
      stack.pop_back();
    }
  };

  for (const net::Output& o : network.outputs()) {
    if (o.driver != net::kNoNode) visit(o.driver);
  }
  for (net::NodeId id = 0; id < network.num_nodes(); ++id) {
    if (!network.node(id).dead) visit(id);
  }
  return order;
}

/// Reader lists (live logic nodes only) and PO-driver flags, both indexed by
/// NodeId.
struct FanoutInfo {
  std::vector<std::vector<net::NodeId>> readers;
  std::vector<char> drives_po;
};

FanoutInfo fanout_info(const net::Network& network) {
  FanoutInfo info;
  info.readers.resize(static_cast<std::size_t>(network.num_nodes()));
  info.drives_po.assign(static_cast<std::size_t>(network.num_nodes()), 0);
  for (net::NodeId id = 0; id < network.num_nodes(); ++id) {
    const net::Node& n = network.node(id);
    if (n.dead || n.kind != net::NodeKind::kLogic) continue;
    for (net::NodeId f : n.fanins) {
      info.readers[static_cast<std::size_t>(f)].push_back(id);
    }
  }
  for (const net::Output& o : network.outputs()) {
    if (o.driver != net::kNoNode) {
      info.drives_po[static_cast<std::size_t>(o.driver)] = 1;
    }
  }
  return info;
}

/// Fills a window's inputs, roots and flags from its member list.
void finish_window(const net::Network& host, const FanoutInfo& fanout,
                   Window* window, int k) {
  std::vector<char> in_window(static_cast<std::size_t>(host.num_nodes()), 0);
  for (net::NodeId m : window->members) {
    in_window[static_cast<std::size_t>(m)] = 1;
  }
  std::vector<char> seen_input(static_cast<std::size_t>(host.num_nodes()), 0);
  window->inputs.clear();
  window->roots.clear();
  window->needs_resynthesis = false;
  for (net::NodeId m : window->members) {
    const net::Node& n = host.node(m);
    if (static_cast<int>(n.fanins.size()) > k) window->needs_resynthesis = true;
    for (net::NodeId f : n.fanins) {
      if (in_window[static_cast<std::size_t>(f)] ||
          seen_input[static_cast<std::size_t>(f)]) {
        continue;
      }
      seen_input[static_cast<std::size_t>(f)] = 1;
      window->inputs.push_back(f);
    }
    bool is_root = fanout.drives_po[static_cast<std::size_t>(m)] != 0;
    for (net::NodeId r : fanout.readers[static_cast<std::size_t>(m)]) {
      if (!in_window[static_cast<std::size_t>(r)]) {
        is_root = true;
        break;
      }
    }
    if (is_root) window->roots.push_back(m);
  }
}

/// Captures \p members of \p host (topological; each fanin one of \p inputs
/// or an earlier member) as plain data, with \p roots as its POs.
WindowSnapshot capture(const net::Network& host, std::string model_name,
                       const std::vector<net::NodeId>& inputs,
                       const std::vector<net::NodeId>& members,
                       const std::vector<net::Output>& roots) {
  WindowSnapshot out;
  out.model_name = std::move(model_name);
  std::unordered_map<net::NodeId, int> signal_index;
  out.input_names.reserve(inputs.size());
  for (net::NodeId i : inputs) {
    signal_index.emplace(i, static_cast<int>(signal_index.size()));
    out.input_names.push_back(host.node(i).name);
  }
  out.members.reserve(members.size());
  for (net::NodeId m : members) {
    const net::Node& n = host.node(m);
    WindowSnapshot::Member member;
    member.name = n.name;
    member.fanins.reserve(n.fanins.size());
    for (net::NodeId f : n.fanins) member.fanins.push_back(signal_index.at(f));
    member.function = host.local_tt(m);
    signal_index.emplace(m, static_cast<int>(signal_index.size()));
    out.members.push_back(std::move(member));
  }
  for (const net::Output& r : roots) {
    out.roots.push_back({r.name, signal_index.at(r.driver)});
  }
  return out;
}

}  // namespace

std::vector<int> levelize(const net::Network& network) {
  std::vector<int> level(static_cast<std::size_t>(network.num_nodes()), -1);
  for (net::NodeId id : network.topo_order()) {
    const net::Node& n = network.node(id);
    if (n.kind != net::NodeKind::kLogic) {
      level[static_cast<std::size_t>(id)] = 0;
      continue;
    }
    int depth = 0;
    for (net::NodeId f : n.fanins) {
      depth = std::max(depth, level[static_cast<std::size_t>(f)] + 1);
    }
    level[static_cast<std::size_t>(id)] = depth;
  }
  return level;
}

std::vector<net::NodeId> mffc(const net::Network& network, net::NodeId root) {
  if (root < 0 || root >= network.num_nodes() ||
      network.node(root).kind != net::NodeKind::kLogic ||
      network.node(root).dead) {
    throw std::invalid_argument("mffc: root must be a live logic node");
  }
  const FanoutInfo fanout = fanout_info(network);

  // Transitive fanin of the root, in topological order.
  std::vector<net::NodeId> tfi;
  std::vector<char> in_tfi(static_cast<std::size_t>(network.num_nodes()), 0);
  {
    std::vector<net::NodeId> stack{root};
    in_tfi[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      const net::NodeId id = stack.back();
      stack.pop_back();
      tfi.push_back(id);
      for (net::NodeId f : network.node(id).fanins) {
        if (network.node(f).kind != net::NodeKind::kLogic) continue;
        if (in_tfi[static_cast<std::size_t>(f)]) continue;
        in_tfi[static_cast<std::size_t>(f)] = 1;
        stack.push_back(f);
      }
    }
  }
  // Decide membership in reverse topological order (readers before their
  // fanins): a node joins when the root does, or when every reader already
  // joined and no PO escapes through it.
  std::vector<int> position(static_cast<std::size_t>(network.num_nodes()), -1);
  {
    int p = 0;
    for (net::NodeId id : network.topo_order()) {
      position[static_cast<std::size_t>(id)] = p++;
    }
  }
  std::sort(tfi.begin(), tfi.end(), [&](net::NodeId a, net::NodeId b) {
    return position[static_cast<std::size_t>(a)] >
           position[static_cast<std::size_t>(b)];
  });
  std::vector<char> in_cone(static_cast<std::size_t>(network.num_nodes()), 0);
  std::vector<net::NodeId> cone;
  for (net::NodeId id : tfi) {
    if (id != root) {
      if (fanout.drives_po[static_cast<std::size_t>(id)] != 0) continue;
      const auto& readers = fanout.readers[static_cast<std::size_t>(id)];
      if (readers.empty()) continue;
      bool contained = true;
      for (net::NodeId r : readers) {
        if (!in_cone[static_cast<std::size_t>(r)]) {
          contained = false;
          break;
        }
      }
      if (!contained) continue;
    }
    in_cone[static_cast<std::size_t>(id)] = 1;
    cone.push_back(id);
  }
  std::reverse(cone.begin(), cone.end());  // topological order, root last
  return cone;
}

std::vector<Window> extract_windows(const net::Network& network,
                                    const WindowOptions& options) {
  const int max_inputs = std::max(1, options.max_inputs);
  const int max_nodes = std::max(1, options.max_nodes);
  const std::vector<net::NodeId> order = cone_topo_order(network);
  const FanoutInfo fanout = fanout_info(network);

  std::vector<Window> windows;
  std::vector<char> in_current(static_cast<std::size_t>(network.num_nodes()), 0);
  std::vector<char> is_input(static_cast<std::size_t>(network.num_nodes()), 0);
  std::vector<net::NodeId> current;
  int current_inputs = 0;

  const auto close_current = [&]() {
    if (current.empty()) return;
    Window w;
    w.index = static_cast<int>(windows.size());
    w.members = current;
    w.over_budget = current.size() == 1 && current_inputs > max_inputs;
    finish_window(network, fanout, &w, options.k);
    windows.push_back(std::move(w));
    for (net::NodeId m : current) in_current[static_cast<std::size_t>(m)] = 0;
    // is_input is only ever set for the current window; reset via members'
    // fanins rather than a full clear.
    for (net::NodeId m : current) {
      for (net::NodeId f : network.node(m).fanins) {
        is_input[static_cast<std::size_t>(f)] = 0;
      }
    }
    current.clear();
    current_inputs = 0;
  };

  for (net::NodeId id : order) {
    const net::Node& n = network.node(id);
    // New external inputs this node would add. Members appear in topological
    // order, so a later node can never become an input of the current window
    // — the input set only grows.
    int fresh = 0;
    for (net::NodeId f : n.fanins) {
      if (!in_current[static_cast<std::size_t>(f)] &&
          !is_input[static_cast<std::size_t>(f)]) {
        ++fresh;
      }
    }
    const bool fits = !current.empty() &&
                      static_cast<int>(current.size()) < max_nodes &&
                      current_inputs + fresh <= max_inputs;
    if (!current.empty() && !fits) close_current();
    current.push_back(id);
    in_current[static_cast<std::size_t>(id)] = 1;
    for (net::NodeId f : n.fanins) {
      if (!in_current[static_cast<std::size_t>(f)] &&
          !is_input[static_cast<std::size_t>(f)]) {
        is_input[static_cast<std::size_t>(f)] = 1;
        ++current_inputs;
      }
    }
    // The node itself may have been registered as an input before being
    // absorbed — impossible here (topological order), but keep the invariant
    // explicit for the budget count.
    if (is_input[static_cast<std::size_t>(id)]) {
      is_input[static_cast<std::size_t>(id)] = 0;
      --current_inputs;
    }
  }
  close_current();
  return windows;
}

// NOLINTNEXTLINE(bugprone-easily-swappable-parameters): see window.hpp.
Window make_window(const net::Network& host, std::vector<net::NodeId> members,
                   int index, int k) {
  Window w;
  w.index = index;
  w.members = std::move(members);
  finish_window(host, fanout_info(host), &w, k);
  return w;
}

bool snapshot_window(const net::Network& host, const Window& window,
                     WindowSnapshot* out) {
  for (net::NodeId m : window.members) {
    if (static_cast<int>(host.node(m).fanins.size()) >
        tt::TruthTable::kMaxVars) {
      return false;
    }
  }
  std::vector<net::Output> roots;
  for (net::NodeId r : window.roots) roots.push_back({host.node(r).name, r});
  *out = capture(host, host.model_name() + "_w" + std::to_string(window.index),
                 window.inputs, window.members, roots);
  return true;
}

WindowSnapshot snapshot_network(const net::Network& network) {
  std::vector<net::NodeId> members;
  for (net::NodeId id : network.topo_order()) {
    if (network.node(id).kind == net::NodeKind::kLogic) members.push_back(id);
  }
  return capture(network, network.model_name(), network.inputs(), members,
                 network.outputs());
}

net::Network materialize_snapshot(const WindowSnapshot& snapshot) {
  net::Network sub(snapshot.model_name);
  std::vector<net::NodeId> signal_ids;
  signal_ids.reserve(snapshot.input_names.size() + snapshot.members.size());
  for (const std::string& name : snapshot.input_names) {
    signal_ids.push_back(sub.add_input(name));
  }
  for (const WindowSnapshot::Member& m : snapshot.members) {
    std::vector<net::NodeId> fanins;
    fanins.reserve(m.fanins.size());
    for (int f : m.fanins) {
      fanins.push_back(signal_ids[static_cast<std::size_t>(f)]);
    }
    signal_ids.push_back(sub.add_logic_tt(m.name, std::move(fanins),
                                          m.function));
  }
  for (const net::Output& r : snapshot.roots) {
    sub.add_output(r.name, signal_ids[static_cast<std::size_t>(r.driver)]);
  }
  return sub;
}

net::Network window_subnetwork(const net::Network& host, const Window& window) {
  net::Network sub(host.model_name() + "_w" + std::to_string(window.index));
  std::unordered_map<net::NodeId, net::NodeId> host_to_sub;
  for (net::NodeId i : window.inputs) {
    host_to_sub.emplace(i, sub.add_input(host.node(i).name));
  }
  for (net::NodeId m : window.members) {
    const net::Node& n = host.node(m);
    std::vector<net::NodeId> fanins;
    fanins.reserve(n.fanins.size());
    for (net::NodeId f : n.fanins) fanins.push_back(host_to_sub.at(f));
    // Identity variable map: local var i is fanin i in both networks.
    std::vector<int> var_map(n.fanins.size());
    for (std::size_t i = 0; i < var_map.size(); ++i) {
      var_map[i] = static_cast<int>(i);
    }
    sub.manager().ensure_vars(static_cast<int>(n.fanins.size()));
    host_to_sub.emplace(
        m, sub.add_logic(n.name, std::move(fanins),
                         bdd::transfer(n.local, sub.manager(), var_map)));
  }
  for (net::NodeId r : window.roots) {
    sub.add_output(host.node(r).name, host_to_sub.at(r));
  }
  return sub;
}

}  // namespace hyde::part
