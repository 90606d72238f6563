#include "part/windowed.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mapper/lutmap.hpp"
#include "net/verify.hpp"
#include "runtime/scheduler.hpp"

namespace hyde::part {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// One stitchable unit: a (possibly split-descendant) window either carrying
/// its resynthesized sub-network or marked pass-through. The window's ids are
/// host ids, and the mapped sub-network is plain data (PI i is
/// window.inputs[i]), so a piece holds no BDD manager: each window's manager
/// dies on its worker, and stitching never needs the worker-side networks.
struct StitchPiece {
  Window window;
  bool resynthesized = false;
  WindowSnapshot mapped;
};

/// Result of resynthesizing one extracted window, possibly as several split
/// pieces (topological order preserved).
struct WindowOutcome {
  std::vector<StitchPiece> pieces;
  core::FlowStats stats;
  /// Wall-clock for the whole job (materialization, flow, splits, verify).
  double seconds = 0.0;
};

/// Everything a worker needs to resynthesize one window without touching the
/// host network or its manager: the host-id window (for stitching and split
/// bookkeeping) and a self-contained capture of its sub-network. The capture
/// is a plain-data snapshot in the common case; a member too wide for a
/// truth table (> tt::TruthTable::kMaxVars fanins) forces a prebuilt clone
/// with its own manager, built during the serial extraction pass.
struct WindowTask {
  std::size_t slot = 0;  ///< outcome index (== window index)
  Window window;
  WindowSnapshot snapshot;
  net::Network prebuilt{"unmapped"};
  bool has_prebuilt = false;
  /// Scheduling estimate: node count x support width.
  std::uint64_t cost = 0;
};

WindowOutcome resynthesize_window(const net::Network& sub, Window window,
                                  const WindowedFlowOptions& options,
                                  int depth);

/// Handles one split half: pass-through when it needs no work, otherwise
/// clones the half out of the parent's already-materialized sub-network
/// (never the host) and recurses. \p sub_half is the half's window over
/// parent-sub ids; \p host_half is the same window translated to host ids.
WindowOutcome resynthesize_half(const net::Network& parent_sub,
                                const Window& sub_half, Window host_half,
                                const WindowedFlowOptions& options,
                                int depth) {
  if (!host_half.needs_resynthesis || host_half.roots.empty()) {
    WindowOutcome outcome;
    outcome.stats.windows_passthrough += 1;
    outcome.pieces.push_back(StitchPiece{std::move(host_half), false, {}});
    return outcome;
  }
  const net::Network half_sub = window_subnetwork(parent_sub, sub_half);
  return resynthesize_window(half_sub, std::move(host_half), options, depth);
}

/// Resynthesizes one window from its standalone sub-network, splitting on
/// budget blowouts; never throws for a budget reason. \p sub mirrors
/// \p window exactly — node id j < window.inputs.size() is the image of
/// window.inputs[j], id inputs.size()+i the image of window.members[i]
/// (window_subnetwork and materialize_snapshot both build in that order) —
/// so split recursion re-extracts from \p sub and translates ids back,
/// keeping the host untouched on worker threads.
WindowOutcome resynthesize_window(const net::Network& sub, Window window,
                                  const WindowedFlowOptions& options,
                                  int depth) {
  WindowOutcome outcome;
  core::FlowOptions flow_options = options.flow;
  flow_options.bdd_node_limit = options.window_bdd_budget;
  bool blew_budget = false;
  core::FlowResult flow;
  try {
    flow = core::run_flow(sub, flow_options);
  } catch (const std::length_error&) {
    blew_budget = true;
  } catch (const std::bad_alloc&) {
    blew_budget = true;
  }

  if (blew_budget) {
    outcome.stats.windows_budget_fallbacks += 1;
    if (depth < options.max_split_depth && window.members.size() >= 2) {
      // Halve along the member interval: topological halves of a convex
      // window stay convex, so the pieces remain stitchable in order. Host
      // and sub member lists run in lockstep (sub id = inputs + position),
      // so the halves are formed once over sub ids and translated back.
      outcome.stats.windows_split += 1;
      const std::size_t mid = window.members.size() / 2;
      const net::NodeId member_base =
          static_cast<net::NodeId>(window.inputs.size());
      std::vector<net::NodeId> sub_to_host(
          window.inputs.size() + window.members.size(), net::kNoNode);
      for (std::size_t j = 0; j < window.inputs.size(); ++j) {
        sub_to_host[j] = window.inputs[j];
      }
      for (std::size_t i = 0; i < window.members.size(); ++i) {
        sub_to_host[window.inputs.size() + i] = window.members[i];
      }
      const auto translate = [&sub_to_host](const std::vector<net::NodeId>& v) {
        std::vector<net::NodeId> host_ids;
        host_ids.reserve(v.size());
        for (net::NodeId id : v) {
          host_ids.push_back(sub_to_host[static_cast<std::size_t>(id)]);
        }
        return host_ids;
      };
      for (const auto& range :
           {std::pair<std::size_t, std::size_t>{0, mid},
            std::pair<std::size_t, std::size_t>{mid, window.members.size()}}) {
        std::vector<net::NodeId> sub_members;
        sub_members.reserve(range.second - range.first);
        for (std::size_t i = range.first; i < range.second; ++i) {
          sub_members.push_back(member_base + static_cast<net::NodeId>(i));
        }
        const Window sub_half = make_window(sub, std::move(sub_members),
                                            window.index, options.flow.k);
        Window host_half;
        host_half.index = sub_half.index;
        host_half.needs_resynthesis = sub_half.needs_resynthesis;
        host_half.over_budget = sub_half.over_budget;
        host_half.members = translate(sub_half.members);
        host_half.inputs = translate(sub_half.inputs);
        host_half.roots = translate(sub_half.roots);
        WindowOutcome part = resynthesize_half(sub, sub_half,
                                               std::move(host_half), options,
                                               depth + 1);
        core::merge(outcome.stats, part.stats);
        for (StitchPiece& piece : part.pieces) {
          outcome.pieces.push_back(std::move(piece));
        }
      }
      return outcome;
    }
    outcome.stats.windows_passthrough += 1;
    outcome.pieces.push_back(StitchPiece{std::move(window), false, {}});
    return outcome;
  }

  core::merge(outcome.stats, flow.stats);
  // Per-window mapper cleanup (dedup + collapse into fanouts), so the
  // stitched network is mapping-quality, not just k-feasible.
  const auto map_start = std::chrono::steady_clock::now();
  mapper::dedup_shared_nodes(flow.network);
  mapper::collapse_into_fanouts(flow.network, options.flow.k);
  mapper::dedup_shared_nodes(flow.network);
  outcome.stats.mapping_seconds += seconds_since(map_start);

  // Check the window against its sub-network (exact for windows within the
  // input budget). A failure means a bug somewhere upstream; degrade to
  // pass-through (counted, never silently wrong) instead of stitching a bad
  // window into the result.
  if (!net::check_equivalence(sub, flow.network).equivalent) {
    outcome.stats.windows_verify_failures += 1;
    outcome.stats.windows_passthrough += 1;
    outcome.pieces.push_back(StitchPiece{std::move(window), false, {}});
    return outcome;
  }

  // The stitch wires the capture's PI i to window.inputs[i].
  WindowSnapshot mapped = snapshot_network(flow.network);
  for (std::size_t j = 0; j < mapped.input_names.size(); ++j) {
    if (sub.find(mapped.input_names[j]) != static_cast<net::NodeId>(j)) {
      throw std::logic_error("windowed: mapped window reordered its inputs");
    }
  }
  outcome.stats.windows_resynthesized += 1;
  outcome.pieces.push_back(
      StitchPiece{std::move(window), true, std::move(mapped)});
  return outcome;
}

/// Runs one window task end to end on the calling thread: materialize the
/// captured sub-network, resynthesize, time the whole job for the per-window
/// high-water mark. Touches nothing but the task and its own materialization.
WindowOutcome run_window_task(WindowTask& task,
                              const WindowedFlowOptions& options,
                              bool on_worker) {
  const auto start = std::chrono::steady_clock::now();
  net::Network sub = task.has_prebuilt ? std::move(task.prebuilt)
                                       : materialize_snapshot(task.snapshot);
  task.snapshot = WindowSnapshot();
  WindowOutcome outcome =
      resynthesize_window(sub, std::move(task.window), options, 0);
  if (!task.has_prebuilt && on_worker) {
    outcome.stats.windows_extract_parallel += 1;
  }
  outcome.seconds = seconds_since(start);
  return outcome;
}

/// Clones a pass-through window's members verbatim (host names kept when
/// free; readers connect by id, so a rename is cosmetic).
void stitch_passthrough(const net::Network& host, const Window& window,
                        net::Network* result,
                        std::vector<net::NodeId>* host_to_result) {
  for (net::NodeId m : window.members) {
    const net::Node& n = host.node(m);
    std::vector<net::NodeId> fanins;
    fanins.reserve(n.fanins.size());
    for (net::NodeId f : n.fanins) {
      fanins.push_back((*host_to_result)[static_cast<std::size_t>(f)]);
    }
    std::vector<int> var_map(n.fanins.size());
    for (std::size_t i = 0; i < var_map.size(); ++i) {
      var_map[i] = static_cast<int>(i);
    }
    const std::string name =
        result->find(n.name) == net::kNoNode ? n.name
                                             : result->fresh_name(n.name);
    (*host_to_result)[static_cast<std::size_t>(m)] = result->add_logic(
        name, std::move(fanins),
        bdd::transfer(n.local, result->manager(), var_map));
  }
}

/// Instantiates a resynthesized window's mapped sub-network into the result,
/// wiring its PIs to the already-stitched boundary signals and registering
/// its PO drivers as the window roots' new implementations.
void stitch_resynthesized(const StitchPiece& piece, net::Network* result,
                          std::vector<net::NodeId>* host_to_result) {
  const Window& window = piece.window;
  const WindowSnapshot& mapped = piece.mapped;
  const std::string prefix =
      std::string("w").append(std::to_string(window.index));
  std::vector<net::NodeId> signals;
  signals.reserve(mapped.input_names.size() + mapped.members.size());
  for (std::size_t j = 0; j < mapped.input_names.size(); ++j) {
    signals.push_back(
        (*host_to_result)[static_cast<std::size_t>(window.inputs[j])]);
  }
  for (const WindowSnapshot::Member& m : mapped.members) {
    std::vector<net::NodeId> fanins;
    fanins.reserve(m.fanins.size());
    for (int f : m.fanins) {
      fanins.push_back(signals[static_cast<std::size_t>(f)]);
    }
    signals.push_back(result->add_logic_tt(result->fresh_name(prefix),
                                           std::move(fanins), m.function));
  }
  // Sub-network POs were declared in window.roots order by
  // window_subnetwork/materialize_snapshot, and run_flow plus the mapper
  // preserve output order.
  for (std::size_t j = 0; j < window.roots.size(); ++j) {
    (*host_to_result)[static_cast<std::size_t>(window.roots[j])] =
        signals[static_cast<std::size_t>(mapped.roots[j].driver)];
  }
}

}  // namespace

WindowedFlowResult run_windowed_flow(const net::Network& input,
                                     const WindowedFlowOptions& options) {
  WindowedFlowResult result;
  core::FlowStats& stats = result.stats;

  WindowOptions window_options = options.window;
  window_options.k = options.flow.k;
  const auto extract_start = std::chrono::steady_clock::now();
  const std::vector<Window> windows = extract_windows(input, window_options);
  stats.windows_extracted = static_cast<int>(windows.size());
  for (const Window& w : windows) {
    stats.window_peak_inputs =
        std::max(stats.window_peak_inputs, static_cast<int>(w.inputs.size()));
    stats.window_peak_nodes =
        std::max(stats.window_peak_nodes, static_cast<int>(w.members.size()));
  }

  // Snapshot pass: one serial sweep over the host materializes every
  // resynthesis candidate as a self-contained task — plain-data snapshot in
  // the common case, a prebuilt clone when a member is too wide for a truth
  // table. This is the only phase that reads host BDDs (their handle
  // reference counts are not atomic); workers get handed the tasks and
  // never touch the host or a shared lock.
  std::vector<WindowOutcome> outcomes(windows.size());
  std::vector<WindowTask> tasks;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Window& w = windows[i];
    if (!w.needs_resynthesis || w.roots.empty()) {
      outcomes[i].stats.windows_passthrough += 1;
      outcomes[i].pieces.push_back(StitchPiece{w, false, {}});
      continue;
    }
    WindowTask task;
    task.slot = i;
    task.window = w;
    if (!snapshot_window(input, w, &task.snapshot)) {
      task.prebuilt = window_subnetwork(input, w);
      task.has_prebuilt = true;
    }
    task.cost = static_cast<std::uint64_t>(w.members.size()) *
                std::max<std::uint64_t>(1, w.inputs.size());
    tasks.push_back(std::move(task));
  }
  stats.window_extract_seconds = seconds_since(extract_start);

  // Worker count auto-clamps to the real resynthesis workload: no point
  // spinning up threads (or a scheduler at all) for fewer tasks than asked.
  const int effective_threads =
      std::min(options.threads, static_cast<int>(tasks.size()));
  if (effective_threads <= 1) {
    for (WindowTask& task : tasks) {
      outcomes[task.slot] = run_window_task(task, options, /*on_worker=*/false);
    }
  } else {
    std::vector<std::exception_ptr> errors(tasks.size());
    runtime::SchedulerStats sched;
    {
      runtime::JobScheduler pool(effective_threads);
      std::vector<runtime::OrderedTask> jobs;
      jobs.reserve(tasks.size());
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        jobs.push_back(runtime::OrderedTask{
            tasks[t].cost, [&tasks, &outcomes, &errors, &options, t] {
              try {
                outcomes[tasks[t].slot] =
                    run_window_task(tasks[t], options, /*on_worker=*/true);
              } catch (...) {
                errors[t] = std::current_exception();
              }
            }});
      }
      pool.submit_ordered(std::move(jobs));
      pool.wait_idle();
      sched = pool.stats();
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    stats.window_steals = sched.steals;
    stats.window_workers = static_cast<int>(sched.workers.size());
    for (const runtime::WorkerUtilization& u : sched.workers) {
      stats.window_worker_busy_seconds += u.busy_seconds;
      stats.window_worker_busy_peak_seconds =
          std::max(stats.window_worker_busy_peak_seconds, u.busy_seconds);
    }
  }

  // Deterministic stitch: windows in extraction order (their condensation is
  // acyclic by convexity), pieces in split order within each window.
  const auto stitch_start = std::chrono::steady_clock::now();
  net::Network& out = result.network;
  out.set_model_name(input.model_name());
  std::vector<net::NodeId> host_to_result(
      static_cast<std::size_t>(input.num_nodes()), net::kNoNode);
  for (net::NodeId pi : input.inputs()) {
    host_to_result[static_cast<std::size_t>(pi)] =
        out.add_input(input.node(pi).name);
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    WindowOutcome& outcome = outcomes[i];
    core::merge(stats, outcome.stats);
    if (outcome.seconds > stats.window_max_seconds) {
      stats.window_max_seconds = outcome.seconds;
      stats.window_max_index = static_cast<int>(i);
    }
    for (const StitchPiece& piece : outcome.pieces) {
      if (piece.resynthesized) {
        stitch_resynthesized(piece, &out, &host_to_result);
      } else {
        stitch_passthrough(input, piece.window, &out, &host_to_result);
      }
    }
  }
  for (const net::Output& o : input.outputs()) {
    out.add_output(o.name,
                   host_to_result[static_cast<std::size_t>(o.driver)]);
  }
  out.sweep();
  stats.window_stitch_seconds = seconds_since(stitch_start);
  return result;
}

}  // namespace hyde::part
