/// \file network.hpp
/// \brief Boolean network: the SIS-style netlist substrate.
///
/// A Network is a DAG of nodes. Each internal node carries a *local* function
/// over its fanins, stored as a BDD in the network's private manager (local
/// variable i denotes fanin i). Primary inputs are variable nodes; primary
/// outputs name a driving node.
///
/// The network is the common currency between BLIF I/O, the decomposition
/// flows (which replace one node by a tree of smaller nodes) and the LUT/CLB
/// mappers (which count and pack nodes).

#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/transfer.hpp"
#include "tt/truth_table.hpp"

namespace hyde::net {

using NodeId = int;
inline constexpr NodeId kNoNode = -1;

/// Node kinds: primary input or internal logic node.
enum class NodeKind { kInput, kLogic };

/// One network node. Logic nodes own a local function over their fanins.
struct Node {
  NodeKind kind = NodeKind::kLogic;
  std::string name;
  std::vector<NodeId> fanins;
  bdd::Bdd local;  ///< local function; var i == fanins[i] (logic nodes only)
  bool dead = false;
};

/// A named primary output and the node driving it.
struct Output {
  std::string name;
  NodeId driver = kNoNode;
};

class Network {
 public:
  explicit Network(std::string model_name = "top");
  Network(Network&&) noexcept = default;
  /// Move assignment must retire the old nodes' BDD handles *before*
  /// replacing the manager they point into (member order would otherwise
  /// destroy the manager first — use-after-free).
  Network& operator=(Network&& other) noexcept {
    if (this != &other) {
      nodes_.clear();
      outputs_.clear();
      inputs_.clear();
      by_name_.clear();
      model_name_ = std::move(other.model_name_);
      mgr_ = std::move(other.mgr_);
      nodes_ = std::move(other.nodes_);
      inputs_ = std::move(other.inputs_);
      outputs_ = std::move(other.outputs_);
      by_name_ = std::move(other.by_name_);
      name_counter_ = other.name_counter_;
    }
    return *this;
  }
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const std::string& model_name() const { return model_name_; }
  void set_model_name(std::string name) { model_name_ = std::move(name); }

  /// The manager holding all local node functions, created on first use.
  /// Usable on const networks too: the manager is a workspace, not part of
  /// the logical value. Every path that adds a logic node creates it first,
  /// so a network holding a logic node already owns its manager and
  /// read-only use of such a network from several threads never races on
  /// the creation; a network of inputs and outputs only never allocates one.
  bdd::Manager& manager() const;
  /// True once the manager exists (see manager()).
  bool has_manager() const { return mgr_ != nullptr; }

  /// Adds a primary input; names must be unique network-wide.
  NodeId add_input(const std::string& name);
  /// Adds a logic node computing \p local over \p fanins (local var i is
  /// fanins[i]); \p local must live in this network's manager.
  NodeId add_logic(const std::string& name, std::vector<NodeId> fanins,
                   bdd::Bdd local);
  /// Convenience: adds a logic node from a truth table over the fanins.
  NodeId add_logic_tt(const std::string& name, std::vector<NodeId> fanins,
                      const tt::TruthTable& table);
  /// Adds a constant node (no fanins).
  NodeId add_constant(const std::string& name, bool value);
  /// Declares a primary output driven by \p driver.
  void add_output(const std::string& name, NodeId driver);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const Node& node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  Node& node(NodeId id) { return nodes_[static_cast<std::size_t>(id)]; }
  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<Output>& outputs() const { return outputs_; }
  std::vector<Output>& outputs() { return outputs_; }

  /// Looks up a node id by name; kNoNode when absent.
  NodeId find(const std::string& name) const;
  /// Generates a fresh node name with the given prefix.
  std::string fresh_name(const std::string& prefix);

  /// All live node ids in topological order (inputs first).
  std::vector<NodeId> topo_order() const;

  /// Number of live logic nodes (constants included, inputs excluded).
  int num_logic_nodes() const;
  /// Largest fanin count among live logic nodes.
  int max_fanin() const;
  /// True iff every live logic node has at most k fanins.
  bool is_k_feasible(int k) const;

  /// Number of live logic nodes reading \p id as a fanin (POs not counted).
  int fanout_count(NodeId id) const;

  /// Redirects every reader of \p old_node (fanins and POs) to \p new_node.
  void replace_everywhere(NodeId old_node, NodeId new_node);

  /// Removes dead logic: nodes not reachable from any PO, constant and
  /// buffer/inverter propagation. Returns the number of removed nodes.
  /// Inverters feeding logic nodes are absorbed into the reader's function.
  int sweep();

  /// Removes the given primary inputs, which must be unused (no live reader,
  /// no PO). Used to retire temporary pseudo primary inputs after recovery.
  /// Throws std::logic_error if any listed input is still referenced.
  void drop_unused_inputs(const std::vector<NodeId>& candidates);

  /// Local function of a node as a truth table over its fanins.
  tt::TruthTable local_tt(NodeId id) const;

  /// Evaluates the whole network on a PI assignment (indexed like inputs()).
  /// Returns output values in outputs() order.
  std::vector<bool> eval(const std::vector<bool>& pi_values) const;

  /// Builds global BDDs for the requested nodes in \p target, where primary
  /// input i (in inputs() order) is \p target's variable pi_var[i].
  std::vector<bdd::Bdd> global_bdds(const std::vector<NodeId>& roots,
                                    bdd::Manager& target,
                                    const std::vector<int>& pi_var) const;

  /// Structural statistics string for reports.
  std::string stats() const;

 private:
  std::string model_name_;
  /// Lazily created by manager(); declared before nodes_ so node handles are
  /// destroyed first.
  mutable std::unique_ptr<bdd::Manager> mgr_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<Output> outputs_;
  std::unordered_map<std::string, NodeId> by_name_;
  int name_counter_ = 0;
};

// Cross-manager transfer now lives in bdd/transfer.hpp; re-exported here for
// the network-building call sites.
using bdd::transfer;
using bdd::transfer_compose;

}  // namespace hyde::net
