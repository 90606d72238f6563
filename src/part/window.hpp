/// \file window.hpp
/// \brief Netlist windowing: partitioning a network into bounded-support,
/// convex windows for per-window resynthesis.
///
/// A window is a set of live logic nodes extracted from a host network
/// together with its boundary: *inputs* (signals the members read from
/// outside the window) and *roots* (members read from outside the window or
/// driving a primary output). Windows partition the live logic nodes — every
/// node belongs to exactly one window — and are **convex**: no path between
/// two members leaves the window. Convexity is what makes the per-window
/// results stitchable: the window condensation graph is acyclic, so windows
/// can be re-instantiated in extraction order with every input already
/// available.
///
/// Extraction walks a cone-affine topological order (depth-first from the
/// primary outputs, so a node's maximum-fanout-free cone lands contiguously)
/// and packs consecutive nodes into a window while the input and node
/// budgets hold. Contiguous intervals of a topological order are convex by
/// construction — any path between two interval members only visits nodes
/// with intermediate topological positions. Shared-fanout absorption falls
/// out of the same construction: a member whose readers are split between
/// the inside and the outside simply becomes an extra root instead of
/// blocking the window.

#pragma once

#include <vector>

#include "net/network.hpp"

namespace hyde::part {

struct WindowOptions {
  /// Budget on distinct signals a window reads from outside. A single node
  /// whose own fanin count exceeds this still forms a (flagged) singleton
  /// window — a node cannot be split.
  int max_inputs = 12;
  /// Budget on logic nodes per window.
  int max_nodes = 64;
  /// LUT feasibility threshold: a window whose members all have <= k fanins
  /// needs no resynthesis and is marked pass-through.
  int k = 5;
};

/// One extracted window over host-node ids.
struct Window {
  int index = 0;
  /// Member logic nodes in topological order (extraction order).
  std::vector<net::NodeId> members;
  /// Boundary signals read from outside: host PIs or members of
  /// earlier-indexed windows, in first-read order.
  std::vector<net::NodeId> inputs;
  /// Members visible outside: read by another window or driving a PO,
  /// in member order.
  std::vector<net::NodeId> roots;
  /// True when some member has more than WindowOptions::k fanins.
  bool needs_resynthesis = false;
  /// True for a singleton window whose node alone exceeds max_inputs.
  bool over_budget = false;
};

/// Per-node logic depth: PIs at level 0, a logic node one past its deepest
/// fanin. Indexed by NodeId; dead nodes get -1.
std::vector<int> levelize(const net::Network& network);

/// The maximum-fanout-free cone of \p root: every logic node (root included)
/// all of whose fanout paths run through \p root. Returned in topological
/// order, root last. Nodes driving a primary output other than through
/// \p root stay outside the cone.
std::vector<net::NodeId> mffc(const net::Network& network, net::NodeId root);

/// Partitions every live logic node of \p network into convex windows under
/// \p options. Deterministic: a pure function of the network and options.
std::vector<Window> extract_windows(const net::Network& network,
                                    const WindowOptions& options);

/// Rebuilds a window from an explicit member set (used when splitting a
/// window that blew its resynthesis budget). \p members must be a subset of
/// live logic nodes in topological order; inputs and roots are derived
/// against the host network with "outside" meaning "not in \p members".
// NOLINTNEXTLINE(bugprone-easily-swappable-parameters): index labels the
// piece, k is the LUT size; both come straight from the split site's locals.
Window make_window(const net::Network& host, std::vector<net::NodeId> members,
                   int index, int k);

/// Materializes a window as a standalone network: window inputs become PIs
/// (named after the host signals), members are cloned with their host local
/// functions, roots become POs named after the host nodes they re-implement.
net::Network window_subnetwork(const net::Network& host, const Window& window);

/// Self-contained, manager-free capture of a network: boundary names, member
/// wiring and local functions as truth tables. Plain data — no BDD handles,
/// no reference into the source network — so a snapshot can cross threads
/// and outlive the manager it was read from. The windowed engine ships a
/// window's sub-network to a worker this way, and the worker's mapped result
/// back to the stitch.
struct WindowSnapshot {
  std::string model_name;
  /// PI names (a window's in Window::inputs order).
  std::vector<std::string> input_names;
  struct Member {
    std::string name;
    /// Fanins as signal indices: [0, input_names.size()) are the PIs, then
    /// earlier members offset by input_names.size().
    std::vector<int> fanins;
    /// Local function over the fanins (var i == fanins[i]).
    tt::TruthTable function;
  };
  /// Members in topological order (a window's in Window::members order).
  std::vector<Member> members;
  /// POs in output order (a window's in Window::roots order), each driven
  /// by a signal index: a PI or a member.
  std::vector<net::Output> roots;
};

/// Captures \p window as plain data, reading the host's BDDs (serialize
/// against other host-manager users — typically called from the single
/// up-front extraction pass). Returns false when some member's fanin count
/// exceeds tt::TruthTable::kMaxVars; such a window must be cloned with
/// window_subnetwork instead.
bool snapshot_window(const net::Network& host, const Window& window,
                     WindowSnapshot* out);

/// Captures a network whose nodes have at most tt::TruthTable::kMaxVars
/// fanins (a mapped one, say): PIs, live logic in topo_order() and POs, each
/// in order, so materialize_snapshot rebuilds the same BLIF.
WindowSnapshot snapshot_network(const net::Network& network);

/// Materializes a snapshot as a standalone network with its own manager —
/// the same network window_subnetwork builds from the snapshot's source
/// (names, wiring, functions and output order all identical), but computed
/// from plain data, so it is safe on any thread.
net::Network materialize_snapshot(const WindowSnapshot& snapshot);

}  // namespace hyde::part
