/// \file windowed.hpp
/// \brief Windowed decomposition engine: resynthesize a network of arbitrary
/// size one bounded window at a time.
///
/// `run_windowed_flow` partitions the host network into convex windows
/// (window.hpp), runs the existing decomposition flow (`core::run_flow`) on
/// each window that contains wide nodes — every window gets its own
/// `bdd::Manager`, freed on its worker once the mapped result is captured as
/// a plain-data `WindowSnapshot` — and stitches those results back together
/// in a deterministic, topological-order merge. One up-front pass captures each
/// resynthesis candidate as a self-contained task (a plain-data
/// `WindowSnapshot`, or a prebuilt clone when a member is too wide for a
/// truth table), so workers materialize and resynthesize without ever
/// touching the host network, its manager, or any shared lock; split
/// fallback re-extracts from the worker's own materialized sub-network.
/// Window-level parallelism runs on `runtime::JobScheduler` via its
/// cost-ordered submit path (longest-processing-time placement plus work
/// stealing); results are collected by window index, so the stitched network
/// is bit-identical at every thread count and steal pattern. The worker
/// count auto-clamps to the number of resynthesis tasks, and a run with at
/// most one such task skips the scheduler entirely.
///
/// Memory governance: each window flow runs under a BDD node budget. A
/// window that blows past it is split in half (topological halves stay
/// convex) and retried; when the split depth is exhausted the window passes
/// through unmapped. A window whose resynthesis fails its local equivalence
/// check likewise passes through (counted, never silently wrong); windows
/// that are already k-feasible skip resynthesis entirely. The engine never
/// aborts the run for a budget reason.

#pragma once

#include <cstddef>

#include "core/flow.hpp"
#include "net/network.hpp"
#include "part/window.hpp"

namespace hyde::part {

struct WindowedFlowOptions {
  /// Extraction budgets. WindowOptions::k is overridden by flow.k.
  WindowOptions window;
  /// Per-window flow configuration (seed, encoding policy, engine knobs).
  core::FlowOptions flow;
  /// Worker threads for window-level parallelism. Result-identical at any
  /// value — per-window flows are shared-nothing and seeded independently of
  /// the schedule.
  int threads = 1;
  /// Per-window BDD node budget for the flow's global manager (0 = no
  /// limit). A window exceeding it is split or passed through, never fatal.
  std::size_t window_bdd_budget = std::size_t{1} << 20;
  /// How many times a budget-blown window may be halved before passing
  /// through unmapped.
  int max_split_depth = 3;
};

struct WindowedFlowResult {
  net::Network network;
  /// Per-window FlowStats summed in window-index order, plus the windows_*
  /// counters (extraction, fallbacks, peaks, phase wall-clock).
  core::FlowStats stats;
};

/// Resynthesizes \p input window by window; the result computes the same
/// primary outputs. Deterministic for fixed (input, options) at every thread
/// count.
WindowedFlowResult run_windowed_flow(const net::Network& input,
                                     const WindowedFlowOptions& options);

}  // namespace hyde::part
