#include "net/network.hpp"

#include <algorithm>
#include <utility>
#include <sstream>
#include <stdexcept>

namespace hyde::net {

Network::Network(std::string model_name)
    : model_name_(std::move(model_name)) {}

bdd::Manager& Network::manager() const {
  if (!mgr_) mgr_ = std::make_unique<bdd::Manager>(64);
  return *mgr_;
}

NodeId Network::add_input(const std::string& name) {
  if (by_name_.count(name) != 0) {
    throw std::invalid_argument("Network: duplicate node name " + name);
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.kind = NodeKind::kInput;
  n.name = name;
  nodes_.push_back(std::move(n));
  inputs_.push_back(id);
  by_name_.emplace(name, id);
  return id;
}

NodeId Network::add_logic(const std::string& name, std::vector<NodeId> fanins,
                          bdd::Bdd local) {
  if (by_name_.count(name) != 0) {
    throw std::invalid_argument("Network: duplicate node name " + name);
  }
  for (NodeId f : fanins) {
    if (f < 0 || f >= num_nodes()) {
      throw std::invalid_argument("Network: fanin out of range for " + name);
    }
  }
  manager().ensure_vars(static_cast<int>(fanins.size()));
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.kind = NodeKind::kLogic;
  n.name = name;
  n.fanins = std::move(fanins);
  n.local = std::move(local);
  nodes_.push_back(std::move(n));
  by_name_.emplace(name, id);
  return id;
}

NodeId Network::add_logic_tt(const std::string& name, std::vector<NodeId> fanins,
                             const tt::TruthTable& table) {
  if (table.num_vars() != static_cast<int>(fanins.size())) {
    throw std::invalid_argument("Network: table arity mismatch for " + name);
  }
  bdd::Manager& mgr = manager();
  mgr.ensure_vars(table.num_vars());
  bdd::Bdd local = mgr.from_truth_table(table);
  return add_logic(name, std::move(fanins), std::move(local));
}

NodeId Network::add_constant(const std::string& name, bool value) {
  return add_logic(name, {}, manager().constant(value));
}

void Network::add_output(const std::string& name, NodeId driver) {
  outputs_.push_back(Output{name, driver});
}

NodeId Network::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoNode : it->second;
}

std::string Network::fresh_name(const std::string& prefix) {
  std::string candidate;
  do {
    candidate = prefix + "_" + std::to_string(name_counter_++);
  } while (by_name_.count(candidate) != 0);
  return candidate;
}

std::vector<NodeId> Network::topo_order() const {
  // Depth-first post-order with an explicit stack of (node, next fanin), so
  // the depth of the netlist never reaches the call stack.
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  std::vector<char> state(nodes_.size(), 0);  // 0 unseen, 1 open, 2 done
  std::vector<std::pair<NodeId, std::size_t>> stack;
  auto open = [&](NodeId id) {
    if (state[static_cast<std::size_t>(id)] == 1) {
      throw std::logic_error("Network: combinational cycle at " +
                             nodes_[static_cast<std::size_t>(id)].name);
    }
    state[static_cast<std::size_t>(id)] = 1;
    stack.emplace_back(id, 0);
  };
  for (NodeId root = 0; root < num_nodes(); ++root) {
    if (nodes_[static_cast<std::size_t>(root)].dead ||
        state[static_cast<std::size_t>(root)] == 2) {
      continue;
    }
    open(root);
    while (!stack.empty()) {
      const NodeId id = stack.back().first;
      const std::vector<NodeId>& fanins = nodes_[static_cast<std::size_t>(id)].fanins;
      if (stack.back().second < fanins.size()) {
        const NodeId f = fanins[stack.back().second++];
        if (state[static_cast<std::size_t>(f)] != 2) open(f);
        continue;
      }
      state[static_cast<std::size_t>(id)] = 2;
      order.push_back(id);
      stack.pop_back();
    }
  }
  return order;
}

int Network::num_logic_nodes() const {
  int count = 0;
  for (const Node& n : nodes_) {
    if (!n.dead && n.kind == NodeKind::kLogic) ++count;
  }
  return count;
}

int Network::max_fanin() const {
  int best = 0;
  for (const Node& n : nodes_) {
    if (!n.dead && n.kind == NodeKind::kLogic) {
      best = std::max(best, static_cast<int>(n.fanins.size()));
    }
  }
  return best;
}

bool Network::is_k_feasible(int k) const { return max_fanin() <= k; }

int Network::fanout_count(NodeId id) const {
  int count = 0;
  for (const Node& n : nodes_) {
    if (n.dead) continue;
    for (NodeId f : n.fanins) {
      if (f == id) ++count;
    }
  }
  return count;
}

void Network::replace_everywhere(NodeId old_node, NodeId new_node) {
  for (Node& n : nodes_) {
    if (n.dead) continue;
    for (NodeId& f : n.fanins) {
      if (f == old_node) f = new_node;
    }
  }
  for (Output& out : outputs_) {
    if (out.driver == old_node) out.driver = new_node;
  }
}

namespace {

/// Classification of a node's local function for sweeping.
enum class LocalShape { kGeneral, kConst0, kConst1, kBuffer, kInverter };

struct ShapeInfo {
  LocalShape shape = LocalShape::kGeneral;
  int pin = -1;  // fanin index for buffer/inverter
};

/// Read off the root: a reduced BDD depends on exactly one variable iff its
/// root's two children are both constants.
ShapeInfo classify(const Node& n) {
  if (n.kind != NodeKind::kLogic) return {LocalShape::kGeneral, -1};
  if (n.local.is_zero()) return {LocalShape::kConst0, -1};
  if (n.local.is_one()) return {LocalShape::kConst1, -1};
  const bdd::Bdd lo = n.local.low();
  const bdd::Bdd hi = n.local.high();
  if (lo.is_zero() && hi.is_one()) {
    return {LocalShape::kBuffer, n.local.top_var()};
  }
  if (lo.is_one() && hi.is_zero()) {
    return {LocalShape::kInverter, n.local.top_var()};
  }
  return {LocalShape::kGeneral, -1};
}

}  // namespace

int Network::sweep() {
  int removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    // Normalize every live logic node: fold constant / buffer / inverter
    // fanins, merge duplicate fanins, and drop fanins outside the support.
    for (NodeId id = 0; id < num_nodes(); ++id) {
      Node& n = nodes_[static_cast<std::size_t>(id)];
      if (n.dead || n.kind != NodeKind::kLogic) continue;
      bool node_changed = false;
      // Fold special fanins into the local function.
      for (std::size_t j = 0; j < n.fanins.size(); ++j) {
        const Node& fin = nodes_[static_cast<std::size_t>(n.fanins[j])];
        if (fin.kind != NodeKind::kLogic) continue;
        const ShapeInfo info = classify(fin);
        const int var = static_cast<int>(j);
        switch (info.shape) {
          case LocalShape::kConst0:
            n.local = mgr_->cofactor(n.local, var, false);
            node_changed = true;
            break;
          case LocalShape::kConst1:
            n.local = mgr_->cofactor(n.local, var, true);
            node_changed = true;
            break;
          case LocalShape::kBuffer:
            n.fanins[j] = fin.fanins[static_cast<std::size_t>(info.pin)];
            node_changed = true;
            break;
          case LocalShape::kInverter:
            n.fanins[j] = fin.fanins[static_cast<std::size_t>(info.pin)];
            n.local = mgr_->compose(n.local, var, mgr_->nvar(var));
            node_changed = true;
            break;
          case LocalShape::kGeneral:
            break;
        }
      }
      // Merge duplicate fanins.
      for (std::size_t j = 0; j < n.fanins.size(); ++j) {
        for (std::size_t l = j + 1; l < n.fanins.size(); ++l) {
          if (n.fanins[j] != n.fanins[l]) continue;
          const std::vector<int> sup = mgr_->support(n.local);
          if (std::find(sup.begin(), sup.end(), static_cast<int>(l)) !=
              sup.end()) {
            n.local = mgr_->compose(n.local, static_cast<int>(l),
                                    mgr_->var(static_cast<int>(j)));
            node_changed = true;
          }
        }
      }
      // Compact away fanins outside the support (ascending, so it covers
      // every fanin exactly when it is as long as the fanin list).
      const auto sup = mgr_->support(n.local);
      if (!sup.empty() && sup.back() >= static_cast<int>(n.fanins.size())) {
        throw std::logic_error("Network: local function exceeds fanin arity");
      }
      if (sup.size() < n.fanins.size()) {
        std::vector<char> used(n.fanins.size(), 0);
        for (int v : sup) used[static_cast<std::size_t>(v)] = 1;
        std::vector<int> perm(n.fanins.size(), -1);
        std::vector<NodeId> new_fanins;
        for (std::size_t j = 0; j < n.fanins.size(); ++j) {
          if (used[j]) {
            perm[j] = static_cast<int>(new_fanins.size());
            new_fanins.push_back(n.fanins[j]);
          }
        }
        if (new_fanins.size() != n.fanins.size()) {
          n.local = mgr_->permute(n.local, perm);
          n.fanins = std::move(new_fanins);
          node_changed = true;
        }
      }
      changed = changed || node_changed;
    }
    // Redirect outputs through buffers.
    for (Output& out : outputs_) {
      while (out.driver != kNoNode) {
        const Node& d = nodes_[static_cast<std::size_t>(out.driver)];
        if (d.kind != NodeKind::kLogic) break;
        const ShapeInfo info = classify(d);
        if (info.shape != LocalShape::kBuffer) break;
        out.driver = d.fanins[static_cast<std::size_t>(info.pin)];
        changed = true;
      }
    }
    // Kill logic unreachable from any PO.
    std::vector<char> reachable(nodes_.size(), 0);
    std::vector<NodeId> stack;
    for (const Output& out : outputs_) {
      if (out.driver != kNoNode) stack.push_back(out.driver);
    }
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      if (reachable[static_cast<std::size_t>(id)]) continue;
      reachable[static_cast<std::size_t>(id)] = 1;
      for (NodeId f : nodes_[static_cast<std::size_t>(id)].fanins) {
        stack.push_back(f);
      }
    }
    for (NodeId id = 0; id < num_nodes(); ++id) {
      Node& n = nodes_[static_cast<std::size_t>(id)];
      if (!n.dead && n.kind == NodeKind::kLogic &&
          !reachable[static_cast<std::size_t>(id)]) {
        n.dead = true;
        n.fanins.clear();
        n.local = bdd::Bdd();
        ++removed;
        changed = true;
      }
    }
  }
  return removed;
}

void Network::drop_unused_inputs(const std::vector<NodeId>& candidates) {
  for (NodeId id : candidates) {
    Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.kind != NodeKind::kInput) {
      throw std::logic_error("drop_unused_inputs: not an input: " + n.name);
    }
    if (fanout_count(id) != 0) {
      throw std::logic_error("drop_unused_inputs: input still read: " + n.name);
    }
    for (const Output& out : outputs_) {
      if (out.driver == id) {
        throw std::logic_error("drop_unused_inputs: input drives PO: " + n.name);
      }
    }
    n.dead = true;
    inputs_.erase(std::find(inputs_.begin(), inputs_.end(), id));
  }
}

tt::TruthTable Network::local_tt(NodeId id) const {
  const Node& n = nodes_[static_cast<std::size_t>(id)];
  if (n.kind != NodeKind::kLogic) {
    throw std::invalid_argument("Network::local_tt: not a logic node");
  }
  std::vector<int> vars(n.fanins.size());
  for (std::size_t i = 0; i < vars.size(); ++i) vars[i] = static_cast<int>(i);
  return mgr_->to_truth_table(n.local, vars);
}

std::vector<bool> Network::eval(const std::vector<bool>& pi_values) const {
  if (pi_values.size() != inputs_.size()) {
    throw std::invalid_argument("Network::eval: PI value count mismatch");
  }
  std::vector<char> value(nodes_.size(), 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    value[static_cast<std::size_t>(inputs_[i])] = pi_values[i] ? 1 : 0;
  }
  for (NodeId id : topo_order()) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.kind != NodeKind::kLogic) continue;
    std::vector<bool> local_assign(n.fanins.size());
    for (std::size_t j = 0; j < n.fanins.size(); ++j) {
      local_assign[j] = value[static_cast<std::size_t>(n.fanins[j])] != 0;
    }
    // Pad so manager variables beyond the arity read as false.
    local_assign.resize(static_cast<std::size_t>(mgr_->num_vars()), false);
    value[static_cast<std::size_t>(id)] = mgr_->eval(n.local, local_assign) ? 1 : 0;
  }
  std::vector<bool> result(outputs_.size());
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    result[i] = value[static_cast<std::size_t>(outputs_[i].driver)] != 0;
  }
  return result;
}

std::vector<bdd::Bdd> Network::global_bdds(const std::vector<NodeId>& roots,
                                           bdd::Manager& target,
                                           const std::vector<int>& pi_var) const {
  if (pi_var.size() != inputs_.size()) {
    throw std::invalid_argument("Network::global_bdds: pi_var size mismatch");
  }
  std::unordered_map<NodeId, bdd::Bdd> global;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    target.ensure_vars(pi_var[i] + 1);
    global.emplace(inputs_[i], target.var(pi_var[i]));
  }
  for (NodeId id : topo_order()) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.kind != NodeKind::kLogic) continue;
    std::vector<bdd::Bdd> subst;
    subst.reserve(n.fanins.size());
    for (NodeId f : n.fanins) subst.push_back(global.at(f));
    global.emplace(id, transfer_compose(n.local, target, subst));
  }
  std::vector<bdd::Bdd> result;
  result.reserve(roots.size());
  for (NodeId r : roots) result.push_back(global.at(r));
  return result;
}

std::string Network::stats() const {
  std::ostringstream os;
  os << model_name_ << ": " << inputs_.size() << " PIs, " << outputs_.size()
     << " POs, " << num_logic_nodes() << " logic nodes, max fanin "
     << max_fanin();
  return os.str();
}

}  // namespace hyde::net
