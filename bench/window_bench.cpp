/// \file window_bench.cpp
/// \brief Windowed-flow benchmark: the memory-governance and determinism
/// proof for the part/ subsystem, emitting JSON rows for BENCH_window.json.
///
/// Three netlists (the two committed tests/data fixtures regenerated
/// in-process, plus a ~19k-node tiled netlist no fixture could reasonably
/// hold) run under every engine configuration:
///
///  - `*_t1/_t2/_t4`: the windowed flow at 1/2/4 worker threads. The engine
///    contract is bit-identical output at every thread count, so the three
///    rows of one base name must share a checksum — the harness verifies
///    this itself and fails (exit 1) on any mismatch, making a committed
///    BENCH_window.json a determinism proof for the machine that produced
///    it.
///  - `*reorder_t1/_t2/_t4`: the same windowed flow with auto variable
///    reordering enabled inside every window (docs/REORDER.md). Same thread-identity contract; reordering must
///    never map fewer windows than the identity order.
///  - `scalestress*`: the large netlist again (one row per configuration,
///    at 4 threads), with window caps wide enough that its order-adversarial
///    cones (make_scale) stay whole. Identity order must blow the 2^17
///    budget on those windows (split fallbacks); the reorder row must map
///    strictly more windows — fewer pass-throughs + splits — under the very
///    same budget. This is the reorder payoff gate.
///  - `*whole_gov/_free`: the whole-network flow under the same per-manager
///    BDD node budget the windowed engine gives each window, and unbounded.
///    On the fixture-sized netlists both complete with identical networks
///    (the budget knob is result-neutral when the flow fits), so they share
///    a base name too.  On the large netlist the governed run MUST throw —
///    one global manager cannot hold a 19k-node netlist inside a budget any
///    single window sits far below — and the harness fails if it completes,
///    making the committed JSON a memory-governance proof as well.
///
/// Scaling gates: resynthesis is shared-nothing end to end (snapshot
/// extraction, no host lock), so the thread sweep doubles as a speedup
/// claim — `scale` must run >= 2.5x faster at t4 than t1, and the
/// fixture-sized sweeps must at least break even. Each gate arms only when
/// `std::thread::hardware_concurrency()` provides enough CPUs to make the
/// claim falsifiable; on a smaller host it records itself as "skipped" in
/// the JSON (with the observed ratio) rather than passing or failing on
/// noise. The committed BENCH_window.json therefore states the machine's
/// CPU count alongside every gate verdict.
///
/// Protocol:
///
///     window_bench --label=windowed --out=BENCH_window.json   (full run)
///     window_bench --quick                                    (CI smoke)
///
/// --quick drops the large netlist and runs the fixture-sized workloads
/// only; the thread-identity, budget-neutrality and fixture-scaling gates
/// still apply.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/flows.hpp"
#include "tt/truth_table.hpp"
#include "mapper/lutmap.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "net/verify.hpp"
#include "part/windowed.hpp"

namespace {

using hyde::core::FlowOptions;
using hyde::net::Network;
using hyde::part::WindowedFlowOptions;

/// The per-manager BDD node budget shared by every configuration: each
/// window's flow runs under it, and the `whole_gov` rows give the
/// whole-network flow the very same cap.  Chosen with ~6x headroom over the
/// largest per-window peak yet a factor of two below what the whole-network
/// path needs on the large netlist.
constexpr std::size_t kBudget = std::size_t{1} << 17;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFull;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::uint64_t fnv1a_string(std::uint64_t hash, const std::string& text) {
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

struct WorkloadResult {
  std::string name;
  double seconds = 0.0;
  std::uint64_t checksum = 0;  ///< schedule-independent functional invariant
  bool completed = true;       ///< false: blew the budget (expected for gov)
  int luts = 0;
  /// Windows the engine could not map under the budget (pass-throughs plus
  /// splits); the reorder gate compares this between the off and reorder
  /// configurations of the scale netlist.
  std::uint64_t unmapped = 0;
  // Scheduling telemetry (volatile, never folded into the checksum).
  std::uint64_t steals = 0;
  double max_window_seconds = 0.0;  ///< slowest single window wall clock
  int max_window_index = -1;        ///< extraction index of that window
};

/// One self-gated scaling claim. Speedup gates arm only when the machine has
/// enough CPUs to make the claim falsifiable — a single-core host cannot
/// demonstrate (or refute) a multi-thread win, so the gate records itself as
/// skipped instead of rubber-stamping noise either way.
struct GateResult {
  std::string name;
  double required = 0.0;  ///< minimum t1/t4 speedup the claim demands
  double observed = 0.0;
  unsigned cpus_needed = 0;
  bool armed = false;  ///< hardware_concurrency() >= cpus_needed
  bool pass = true;    ///< vacuously true when not armed
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The two committed tests/data fixtures, regenerated bit-for-bit (the
/// generators are pure functions of their arguments — see tests/data/README).
Network make_mid() {
  return hyde::mcnc::random_multilevel("win_mid", 32, 8, 700, 2, 9, 5);
}
Network make_wide() {
  return hyde::mcnc::random_multilevel("win_wide", 40, 10, 1500, 3, 10, 9);
}

/// Pairs per order-adversarial cone (see add_adversarial_cone).
constexpr int kConePairs = 15;
/// Cones appended to the scale netlist by make_scale.
constexpr int kConeCount = 6;
/// Window caps for the `scalestress*` rows: wide enough that extraction
/// keeps a whole adversarial cone (2*kConePairs boundary inputs) in one
/// window, so the per-window manager actually faces the bad identity order.
constexpr int kStressInputs = 2 * kConePairs + 2;
constexpr int kStressNodes = 96;

/// Appends one order-sensitive cone to \p out: two outputs over shared
/// inputs x1..xn, y1..yn,
///
///     f = (x1 & ... & xn) | OR_i (xi & yi)
///     g = OR_i (xi & y_{i+1 mod n})
///
/// built entirely from 2-input nodes as *linear* chains — one apply per
/// network node, which is exactly the granularity at which the manager's
/// governance ladder gets to run (operation entry points).  The leading
/// all-x AND *spine* makes every x the first-referenced fanin of the cone,
/// so a window cloning it registers its boundary inputs as x1..xn, y1..yn —
/// the order under which either disjoint quadratic form needs ~2^n BDD
/// nodes.  Any interleaved order (xi adjacent to its partners) is linear,
/// which is what converging sifting finds: under the 2^17 per-window budget
/// the identity order must blow the window while auto reordering maps it.
void add_adversarial_cone(Network& out, int index) {
  namespace htt = hyde::tt;
  const std::string p = "adv" + std::to_string(index) + "_";
  const int n = kConePairs;
  std::vector<hyde::net::NodeId> xs(n);
  std::vector<hyde::net::NodeId> ys(n);
  for (int i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] = out.add_input(p + "x" + std::to_string(i));
  }
  for (int i = 0; i < n; ++i) {
    ys[static_cast<std::size_t>(i)] = out.add_input(p + "y" + std::to_string(i));
  }
  const htt::TruthTable and2 =
      htt::TruthTable::var(2, 0) & htt::TruthTable::var(2, 1);
  const htt::TruthTable or2 =
      htt::TruthTable::var(2, 0) | htt::TruthTable::var(2, 1);
  // The spine: AND of all x's as a 2-input chain. A depth-first window clone
  // dives here before touching any product, so the x block registers first.
  hyde::net::NodeId spine = xs[0];
  for (int i = 1; i < n; ++i) {
    spine = out.add_logic_tt(p + "s" + std::to_string(i),
                             {spine, xs[static_cast<std::size_t>(i)]}, and2);
  }
  hyde::net::NodeId acc = spine;
  for (int i = 0; i < n; ++i) {
    const hyde::net::NodeId prod = out.add_logic_tt(
        p + "fp" + std::to_string(i),
        {xs[static_cast<std::size_t>(i)], ys[static_cast<std::size_t>(i)]},
        and2);
    acc = out.add_logic_tt(p + "fo" + std::to_string(i), {acc, prod}, or2);
  }
  out.add_output(p + "f", acc);
  // g chain: same inputs, shifted pairing. Its own identity order is equally
  // bad, and both chains are linear under any interleaved order, so one
  // sifted order serves the whole window.
  hyde::net::NodeId gcc = hyde::net::kNoNode;
  for (int i = 0; i < n; ++i) {
    const hyde::net::NodeId prod = out.add_logic_tt(
        p + "gp" + std::to_string(i),
        {xs[static_cast<std::size_t>(i)],
         ys[static_cast<std::size_t>((i + 1) % n)]},
        and2);
    gcc = (i == 0) ? prod
                   : out.add_logic_tt(p + "go" + std::to_string(i),
                                      {gcc, prod}, or2);
  }
  out.add_output(p + "g", gcc);
}

/// Large workload: two independently seeded multilevel DAGs tiled side by
/// side into one ~19k-node netlist (random_multilevel's live cone saturates
/// around 6k nodes, so scale comes from tiling), plus a handful of
/// order-adversarial cones (add_adversarial_cone) whose windows are
/// unmappable under the identity variable order but trivial after sifting.
/// Deterministic.
Network make_scale() {
  Network out("scale");
  for (int c = 0; c < 2; ++c) {
    const Network tile = hyde::mcnc::random_multilevel(
        "scale_tile", 64, 16, 40000, 3, 9, 21 + static_cast<std::uint64_t>(c));
    std::unordered_map<hyde::net::NodeId, hyde::net::NodeId> map;
    const std::string prefix = "t" + std::to_string(c) + "_";
    for (hyde::net::NodeId id : tile.topo_order()) {
      const hyde::net::Node& n = tile.node(id);
      if (n.kind == hyde::net::NodeKind::kInput) {
        map[id] = out.add_input(prefix + n.name);
        continue;
      }
      std::vector<hyde::net::NodeId> fanins;
      fanins.reserve(n.fanins.size());
      for (hyde::net::NodeId f : n.fanins) fanins.push_back(map.at(f));
      map[id] = out.add_logic_tt(prefix + n.name, fanins, tile.local_tt(id));
    }
    for (const hyde::net::Output& po : tile.outputs()) {
      out.add_output(prefix + po.name, map.at(po.driver));
    }
  }
  for (int c = 0; c < kConeCount; ++c) add_adversarial_cone(out, c);
  return out;
}

FlowOptions hyde_flow_options() {
  return hyde::baseline::system_flow_options(hyde::baseline::System::kHyde, 5);
}

/// Windowed flow at \p threads workers; checksum mixes the stitched BLIF
/// text with every windows_* counter, so the thread sweep proves both the
/// network and the bookkeeping are schedule-independent.
WorkloadResult bench_windowed(const std::string& base, const Network& input,
                              int threads, bool reorder = false,
                              int max_inputs = 0, int max_nodes = 0) {
  WindowedFlowOptions options;
  options.flow = hyde_flow_options();
  options.threads = threads;
  options.window_bdd_budget = kBudget;
  if (max_inputs > 0) {
    options.window.max_inputs = max_inputs;
    // Widened windows only exercise the reorder-sensitive path if the
    // per-window flow still collapses the whole window into one global
    // function; lift the collapse ceiling to match the window cap.
    options.flow.max_collapse_support =
        std::max(options.flow.max_collapse_support, max_inputs);
  }
  if (max_nodes > 0) options.window.max_nodes = max_nodes;
  if (reorder) {
    // The governance configuration under test: auto sifting inside every
    // window manager. It is deterministic, so the t1/t2/t4 checksum gate
    // applies unchanged.
    options.flow.reorder = hyde::bdd::ReorderMode::kAuto;
  }

  WorkloadResult result;
  result.name = base + "_t" + std::to_string(threads);
  const auto start = std::chrono::steady_clock::now();
  const hyde::part::WindowedFlowResult flow =
      hyde::part::run_windowed_flow(input, options);
  result.seconds = seconds_since(start);

  std::uint64_t checksum = fnv1a_string(0xCBF29CE484222325ull,
                                        hyde::net::write_blif_string(flow.network));
  checksum = fnv1a(checksum, static_cast<std::uint64_t>(flow.stats.windows_extracted));
  checksum = fnv1a(checksum, flow.stats.windows_resynthesized);
  checksum = fnv1a(checksum, flow.stats.windows_passthrough);
  checksum = fnv1a(checksum, flow.stats.windows_budget_fallbacks);
  checksum = fnv1a(checksum, flow.stats.windows_split);
  checksum = fnv1a(checksum, flow.stats.windows_verify_failures);
  result.checksum = checksum;
  result.luts = hyde::mapper::lut_count(flow.network);
  result.unmapped =
      static_cast<std::uint64_t>(flow.stats.windows_passthrough) +
      static_cast<std::uint64_t>(flow.stats.windows_split);
  result.steals = flow.stats.window_steals;
  result.max_window_seconds = flow.stats.window_max_seconds;
  result.max_window_index = flow.stats.window_max_index;
  std::fprintf(stderr,
               "window_bench: %s extracted=%d resynth=%d passthrough=%d "
               "fallbacks=%d split=%d reorders=%llu steals=%llu "
               "extract_par=%d maxwin=%.3fs@%d\n",
               result.name.c_str(), flow.stats.windows_extracted,
               flow.stats.windows_resynthesized, flow.stats.windows_passthrough,
               flow.stats.windows_budget_fallbacks, flow.stats.windows_split,
               static_cast<unsigned long long>(flow.stats.bdd_reorder_runs),
               static_cast<unsigned long long>(flow.stats.window_steals),
               flow.stats.windows_extract_parallel,
               flow.stats.window_max_seconds, flow.stats.window_max_index);

  if (flow.stats.windows_verify_failures != 0) {
    std::fprintf(stderr, "window_bench: %s had window verify failures\n",
                 result.name.c_str());
    std::exit(1);
  }
  if (!flow.network.is_k_feasible(options.flow.k)) {
    std::fprintf(stderr, "window_bench: %s result is not k-feasible\n",
                 result.name.c_str());
    std::exit(1);
  }
  if (threads == 1 &&
      !hyde::net::check_equivalence(input, flow.network).equivalent) {
    std::fprintf(stderr, "window_bench: %s result is not equivalent\n",
                 result.name.c_str());
    std::exit(1);
  }
  return result;
}

/// Whole-network flow; \p budget 0 = unbounded.  A std::length_error is the
/// expected outcome for the governed run on the large netlist and is
/// recorded, not fatal (the caller asserts which way it must go).
WorkloadResult bench_whole(const std::string& name, const Network& input,
                           std::size_t budget) {
  FlowOptions options = hyde_flow_options();
  options.bdd_node_limit = budget;

  WorkloadResult result;
  result.name = name;
  const auto start = std::chrono::steady_clock::now();
  try {
    const hyde::core::FlowResult flow = hyde::core::run_flow(input, options);
    result.seconds = seconds_since(start);
    result.checksum = fnv1a_string(0xCBF29CE484222325ull,
                                   hyde::net::write_blif_string(flow.network));
    result.luts = hyde::mapper::lut_count(flow.network);
  } catch (const std::length_error&) {
    result.seconds = seconds_since(start);
    result.completed = false;
    result.checksum = fnv1a_string(0xCBF29CE484222325ull, "did-not-complete");
  }
  return result;
}

void append_json(std::string& out, const WorkloadResult& r, bool last) {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"%s\", \"seconds\": %.6f, \"checksum\": %llu, "
                "\"completed\": %s, \"luts\": %d, \"unmapped\": %llu, "
                "\"steals\": %llu, \"max_window_seconds\": %.6f, "
                "\"max_window_index\": %d}%s\n",
                r.name.c_str(), r.seconds,
                static_cast<unsigned long long>(r.checksum),
                r.completed ? "true" : "false", r.luts,
                static_cast<unsigned long long>(r.unmapped),
                static_cast<unsigned long long>(r.steals),
                r.max_window_seconds, r.max_window_index, last ? "" : ",");
  out += buf;
}

void append_gate_json(std::string& out, const GateResult& g, bool last) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"%s\", \"required_speedup\": %.2f, "
                "\"observed_speedup\": %.3f, \"cpus_needed\": %u, "
                "\"status\": \"%s\"}%s\n",
                g.name.c_str(), g.required, g.observed, g.cpus_needed,
                g.armed ? (g.pass ? "pass" : "fail") : "skipped",
                last ? "" : ",");
  out += buf;
}

/// Workloads with the same base name must agree on the checksum across every
/// configuration; returns false (and reports) on any divergence.
bool checksums_agree(const std::vector<WorkloadResult>& results) {
  std::map<std::string, std::uint64_t> expected;
  bool ok = true;
  for (const auto& r : results) {
    const std::size_t cut = r.name.rfind('_');
    const std::string base = r.name.substr(0, cut);
    const auto [it, inserted] = expected.emplace(base, r.checksum);
    if (!inserted && it->second != r.checksum) {
      std::fprintf(stderr,
                   "window_bench: checksum mismatch for %s (%llu != %llu)\n",
                   r.name.c_str(),
                   static_cast<unsigned long long>(r.checksum),
                   static_cast<unsigned long long>(it->second));
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "windowed";
  std::string out_path;
  bool quick = false;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--label=", 0) == 0) {
      label = arg.substr(8);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--probe") {
      probe = true;
    } else {
      std::fprintf(stderr,
                   "usage: window_bench [--label=NAME] [--out=FILE] [--quick] "
                   "[--probe]\n");
      return 2;
    }
  }

  if (probe) {
    const Network input = make_scale();
    std::fprintf(stderr, "probe: scale netlist has %d logic nodes\n",
                 input.num_logic_nodes());
    const std::pair<int, int> sizes[] = {{0, 0},
                                         {kStressInputs, kStressNodes}};
    for (const auto& [mi, mn] : sizes) {
      for (const bool ro : {false, true}) {
        char name[64];
        std::snprintf(name, sizeof(name), "probe_i%d_n%d_%s", mi, mn,
                      ro ? "reorder" : "off");
        bench_windowed(name, input, /*threads=*/4, ro, mi, mn);
      }
    }
    return 0;
  }

  std::vector<WorkloadResult> results;

  // Fixture-sized netlists: thread sweep plus governed/unbounded whole-path
  // rows (same base → the budget knob must be result-neutral when it fits).
  const std::pair<std::string, Network (*)()> small[] = {
      {"mid", &make_mid}, {"wide", &make_wide}};
  for (const auto& [base, make] : small) {
    const Network input = make();
    for (int threads : {1, 2, 4}) {
      results.push_back(bench_windowed(base, input, threads));
    }
    // Reorder configuration: own base name (its counters differ from
    // the off rows by design), same thread-identity gate.
    for (int threads : {1, 2, 4}) {
      results.push_back(
          bench_windowed(base + "reorder", input, threads, /*reorder=*/true));
    }
    results.push_back(bench_whole(base + "whole_gov", input, kBudget));
    results.push_back(bench_whole(base + "whole_free", input, 0));
  }

  if (!quick) {
    const Network input = make_scale();
    std::fprintf(stderr, "window_bench: scale netlist has %d logic nodes\n",
                 input.num_logic_nodes());
    for (int threads : {1, 2, 4}) {
      results.push_back(bench_windowed("scale", input, threads));
    }
    // At the default window caps the adversarial cones are chopped into
    // narrow, order-insensitive windows, so reordering must simply never be
    // worse here.
    const std::uint64_t off_unmapped = results.back().unmapped;
    for (int threads : {1, 2, 4}) {
      results.push_back(
          bench_windowed("scalereorder", input, threads, /*reorder=*/true));
    }
    if (results.back().unmapped > off_unmapped) {
      std::fprintf(stderr,
                   "window_bench: reorder increased unmapped windows on "
                   "the scale netlist (%llu -> %llu)\n",
                   static_cast<unsigned long long>(off_unmapped),
                   static_cast<unsigned long long>(results.back().unmapped));
      return 1;
    }
    // The reorder payoff claim: with windows wide enough to hold a whole
    // adversarial cone, the identity order blows the 2^17 budget (split
    // fallbacks) while auto sifting must map strictly more windows — fewer
    // pass-throughs and splits — under the identical budget.
    // One row per configuration: the stressed windows do orders of magnitude
    // more BDD work than the default caps (every blown window builds to the
    // budget before splitting), and thread-count identity is already proven
    // by the default rows above and by windowed_reorder_test.
    results.push_back(bench_windowed("scalestress", input, /*threads=*/4,
                                     /*reorder=*/false, kStressInputs,
                                     kStressNodes));
    const std::uint64_t stress_off_unmapped = results.back().unmapped;
    results.push_back(bench_windowed("scalestressreorder", input,
                                     /*threads=*/4, /*reorder=*/true,
                                     kStressInputs, kStressNodes));
    if (results.back().unmapped >= stress_off_unmapped) {
      std::fprintf(stderr,
                   "window_bench: reorder did not reduce unmapped windows on "
                   "the stressed scale netlist (%llu -> %llu)\n",
                   static_cast<unsigned long long>(stress_off_unmapped),
                   static_cast<unsigned long long>(results.back().unmapped));
      return 1;
    }
    if (stress_off_unmapped == 0) {
      std::fprintf(stderr,
                   "window_bench: stress rows exerted no budget pressure "
                   "(identity order mapped everything)\n");
      return 1;
    }
    // The governance claim: under the budget every window sits far below,
    // one global manager for the whole netlist must blow up.
    WorkloadResult gov = bench_whole("scalegov_whole", input, kBudget);
    if (gov.completed) {
      std::fprintf(stderr,
                   "window_bench: whole-network flow unexpectedly fit the "
                   "window budget on the scale netlist\n");
      return 1;
    }
    results.push_back(gov);
    // Unbounded whole-path row for wall-clock context.
    results.push_back(bench_whole("scalefree_whole", input, 0));
  }

  if (!checksums_agree(results)) return 1;

  // Scaling gates: snapshot extraction removed every shared lock from the
  // resynthesis phase, so on a machine with real parallelism the thread
  // sweep must show it. Each gate arms only when the host has enough CPUs
  // for the claim to be falsifiable and records itself either way.
  const unsigned cpus = std::thread::hardware_concurrency();
  std::vector<GateResult> gates;
  const auto seconds_of = [&results](const std::string& name) {
    for (const WorkloadResult& r : results) {
      if (r.name == name) return r.seconds;
    }
    return -1.0;
  };
  const auto speedup_gate = [&](const std::string& base, double required,
                                unsigned cpus_needed) {
    const double t1 = seconds_of(base + "_t1");
    const double t4 = seconds_of(base + "_t4");
    if (t1 < 0.0 || t4 < 0.0) return;
    GateResult g;
    g.name = base + "_t4_speedup";
    g.required = required;
    g.observed = t4 > 0.0 ? t1 / t4 : 0.0;
    g.cpus_needed = cpus_needed;
    g.armed = cpus >= cpus_needed;
    g.pass = !g.armed || g.observed >= required;
    gates.push_back(g);
    if (!g.armed) {
      std::fprintf(stderr,
                   "window_bench: gate %s skipped (%u CPUs < %u needed); "
                   "observed %.3fx\n",
                   g.name.c_str(), cpus, cpus_needed, g.observed);
    }
  };
  // Fixture-sized rows: with 4 CPUs the parallel path must at least break
  // even against serial (0.95 absorbs timer noise on sub-second runs).
  speedup_gate("mid", 0.95, 4);
  speedup_gate("wide", 0.95, 4);
  if (!quick) {
    // The headline claim: ~400 shared-nothing windows must scale. 2.5x at
    // four threads is far below linear but far above anything a shared
    // host lock would allow.
    speedup_gate("scale", 2.5, 4);
  }
  bool gates_ok = true;
  for (const GateResult& g : gates) {
    if (g.armed && !g.pass) {
      std::fprintf(stderr,
                   "window_bench: gate %s FAILED (%.3fx < required %.2fx)\n",
                   g.name.c_str(), g.observed, g.required);
      gates_ok = false;
    }
  }
  if (!gates_ok) return 1;

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"hyde.bench_window.v1\",\n";
  json += "  \"engine\": \"" + label + "\",\n";
  json += "  \"budget\": " + std::to_string(kBudget) + ",\n";
  json += "  \"cpus\": " + std::to_string(cpus) + ",\n";
  json += "  \"configs\": [\"t1\", \"t2\", \"t4\", \"reorder_t1..t4\", "
          "\"stress_t4\", \"whole_gov\", \"whole_free\"],\n";
  json += "  \"gates\": [\n";
  for (std::size_t i = 0; i < gates.size(); ++i) {
    append_gate_json(json, gates[i], i + 1 == gates.size());
  }
  json += "  ],\n";
  json += "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    append_json(json, results[i], i + 1 == results.size());
  }
  json += "  ]\n}\n";

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "window_bench: cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}
