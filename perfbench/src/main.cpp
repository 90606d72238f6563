/// \file main.cpp
/// \brief hyde_perfbench: one workload, one run, one JSON result line.
///
///     hyde_perfbench --workload suite|systems|windowed --seed N
///                    --seconds S --trace 0|1 [--trace-out FILE]
///
/// Untraced (--trace 0): set-up is repeated and timed, then production
/// passes (runtime::run_batch, or parse + run_windowed_system) repeat while
/// another pass fits in S seconds (at least one). Batch workloads end with one more
/// pass through baseline::run_system that keeps the mapped networks. Every
/// network is simulated against its source and hashed; every pass must
/// agree with the reference on every job. The last stdout line is the
/// end-to-end result.
///
/// Traced (--trace 1): set-up, one production pass (the untraced wall), one
/// traced pass with spans around each public call, and for batch
/// workloads a one-worker pass through run_system. All three must agree.
/// The spans go to FILE as Chrome trace-event JSON; the last stdout line
/// holds the per-layer counters (span-derived times are computed from FILE
/// by run.py).

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::JobResult;
using perfbench::Workload;

/// Set-up repetitions (median reported); the windowed set-up takes ~1 s.
constexpr int kSetupRuns = 21;
constexpr int kWindowedSetupRuns = 3;

struct Args {
  Workload workload = Workload::kSuite;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload_name = value;
      have_workload = perfbench::parse_workload(value, &args->workload);
      if (!have_workload) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Linear-interpolated quantile of \p values (q in [0, 1]).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Metrics in emission order, serialized as the result line's object.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    entries_.push_back("\"" + name + "\": {\"value\": " + buf +
                       ", \"unit\": \"" + unit + "\"}");
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + entries_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> entries_;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The workload's inputs, rebuilt by every set-up repetition.
struct Inputs {
  std::vector<hyde::runtime::BatchJob> jobs;
  std::vector<hyde::net::Network> circuits;  ///< batch: one per registry name
  std::vector<const hyde::net::Network*> sources;  ///< per job
  hyde::net::Network netlist{"windowed"};
  std::string blif;            ///< windowed
};

/// Builds the inputs; returns the input-generation seconds (the mcnc layer).
double build_inputs(const Args& args, Inputs* in) {
  *in = Inputs{};
  double generate_s = 0.0;
  if (args.workload == Workload::kWindowed) {
    const Clock::time_point start = Clock::now();
    in->netlist = perfbench::windowed_netlist();
    generate_s = seconds_since(start);
    in->blif = hyde::net::write_blif_string(in->netlist);
    in->sources.push_back(&in->netlist);
  } else {
    in->jobs = perfbench::batch_jobs(args.workload, args.seed);
    const Clock::time_point start = Clock::now();
    const std::vector<std::string> names = hyde::mcnc::all_circuits();
    for (const std::string& name : names) {
      in->circuits.push_back(hyde::mcnc::make_circuit(name));
    }
    generate_s = seconds_since(start);
    for (const hyde::runtime::BatchJob& job : in->jobs) {
      const auto it = std::find(names.begin(), names.end(), job.circuit);
      in->sources.push_back(
          &in->circuits[static_cast<std::size_t>(it - names.begin())]);
    }
  }
  return generate_s;
}

/// Counts the jobs of \p pass that fail on their own (threw, failed the
/// program's verification or the independent simulation) or disagree with
/// \p reference. Prints the first few reasons to stderr.
int count_failures(const std::vector<JobResult>& pass,
                   const std::vector<JobResult>& reference,
                   const std::string& label) {
  int failed = 0;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    const JobResult& r = pass[i];
    const JobResult& ref = reference[i];
    std::string why;
    if (!r.error.empty()) {
      why = "threw: " + r.error;
    } else if (!r.verified) {
      why = "failed the program's equivalence check";
    } else if (r.has_network && !r.sim_equal) {
      why = "failed simulation: " + r.sim_detail;
    } else if (r.luts != ref.luts || r.clbs != ref.clbs || r.depth != ref.depth) {
      why = "luts/clbs/depth differ from the reference";
    } else if (r.has_network && ref.has_network && r.blif_hash != ref.blif_hash) {
      why = "BLIF differs from the reference";
    }
    if (why.empty()) continue;
    if (++failed <= 5) {
      std::fprintf(stderr, "perfbench: %s job %zu %s\n", label.c_str(), i,
                   why.c_str());
    }
  }
  return failed;
}

/// Sums FlowStats over a pass the way RunReport aggregates them.
hyde::core::FlowStats total_stats(const std::vector<JobResult>& pass) {
  hyde::core::FlowStats t;
  for (const JobResult& r : pass) {
    const hyde::core::FlowStats& s = r.stats;
    t.absorb_search_and_phases(s);
    t.hyper_groups += s.hyper_groups;
    t.shannon_fallbacks += s.shannon_fallbacks;
    t.encoder_runs += s.encoder_runs;
    t.encoder_random_kept += s.encoder_random_kept;
    t.bdd_cache_hits += s.bdd_cache_hits;
    t.bdd_cache_misses += s.bdd_cache_misses;
    t.bdd_gc_runs += s.bdd_gc_runs;
    t.bdd_peak_live_nodes = std::max(t.bdd_peak_live_nodes, s.bdd_peak_live_nodes);
    t.window_extract_seconds += s.window_extract_seconds;
    t.window_stitch_seconds += s.window_stitch_seconds;
    t.window_worker_busy_seconds += s.window_worker_busy_seconds;
    t.window_max_seconds = std::max(t.window_max_seconds, s.window_max_seconds);
    t.window_steals += s.window_steals;
    t.window_workers = std::max(t.window_workers, s.window_workers);
    t.windows_resynthesized += s.windows_resynthesized;
    t.windows_passthrough += s.windows_passthrough;
  }
  return t;
}

std::vector<JobResult> production_pass(const Args& args, const Inputs& in,
                                       int workers) {
  if (args.workload == Workload::kWindowed) {
    std::vector<JobResult> one;
    one.push_back(perfbench::run_windowed_pass(
        in.blif, perfbench::windowed_options(args.seed, workers)));
    return one;
  }
  return perfbench::run_batch_pass(in.jobs, workers);
}

void print_result(bool correct, long attempted, long failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.json().c_str());
}

int run_untraced(const Args& args, int workers, double setup_s,
                 const Inputs& in) {
  const bool windowed = args.workload == Workload::kWindowed;
  std::vector<std::vector<JobResult>> passes;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> job_seconds;
  const Clock::time_point run_start = Clock::now();
  do {
    const double cpu0 = cpu_seconds();
    const Clock::time_point start = Clock::now();
    std::vector<JobResult> pass = production_pass(args, in, workers);
    walls.push_back(seconds_since(start));
    cpus.push_back(cpu_seconds() - cpu0);
    for (const JobResult& r : pass) job_seconds.push_back(r.seconds);
    // Untimed: hash and simulate whatever networks the pass returned.
    perfbench::check_networks(pass, in.sources, args.seed, workers);
    passes.push_back(std::move(pass));
    // Stop before a pass like the median one would overrun the budget.
  } while (seconds_since(run_start) + quantile(walls, 0.5) <= args.seconds);

  // Batch passes return no networks: one more pass through run_system
  // produces them, and every timed pass must agree with it job by job.
  std::vector<JobResult> reference;
  if (windowed) {
    reference = std::move(passes.front());
    passes.erase(passes.begin());
  } else {
    reference = perfbench::run_network_pass(in.jobs, workers);
    perfbench::check_networks(reference, in.sources, args.seed, workers);
    // Its jobs run the same run_system calls on the same worker count, so
    // their latencies join the pool (JobReport::seconds is
    // BaselineResult::seconds).
    for (const JobResult& r : reference) job_seconds.push_back(r.seconds);
  }
  long attempted = static_cast<long>(reference.size());
  long failed = count_failures(reference, reference, "reference");
  for (const std::vector<JobResult>& pass : passes) {
    attempted += static_cast<long>(pass.size());
    failed += count_failures(pass, reference, "pass");
  }

  double luts = 0;
  double clbs = 0;
  double depth = 0;
  for (const JobResult& r : reference) {
    luts += r.luts;
    clbs += r.clbs;
    depth += r.depth;
  }
  std::printf("perfbench: workload=%s seed=%" PRIu64 " workers=%d passes=%zu "
              "jobs=%zu job_samples=%zu netlist_nodes=%d checksum=%016" PRIx64
              " result_checksum=%016" PRIx64
              " attempted=%ld failed=%ld fail_ratio=%.6f\n",
              args.workload_name.c_str(), args.seed, workers, walls.size(),
              reference.size(), job_seconds.size(),
              windowed ? in.netlist.num_logic_nodes() : 0,
              perfbench::results_checksum(reference, true),
              perfbench::results_checksum(reference, false), attempted, failed,
              static_cast<double>(failed) / static_cast<double>(attempted));

  Metrics m;
  m.add("wall_s", quantile(walls, 0.5), "s");
  m.add("cpu_s", quantile(cpus, 0.5), "s");
  m.add("job_p50_s", quantile(job_seconds, 0.5), "s");
  m.add("job_p90_s", quantile(job_seconds, 0.9), "s");
  m.add("luts", luts, "count");
  m.add("clbs", clbs, "count");
  m.add("lut_depth", depth, "count");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("setup_s", setup_s, "s");
  print_result(failed == 0, attempted, failed, m);
  return 0;
}

int run_traced(const Args& args, int workers, const Inputs& in,
               double generate_s) {
  const bool windowed = args.workload == Workload::kWindowed;
  const Clock::time_point start = Clock::now();
  std::vector<JobResult> untraced = production_pass(args, in, workers);
  const double untraced_s = seconds_since(start);
  perfbench::check_networks(untraced, in.sources, args.seed, workers);

  perfbench::Tracer tracer;
  perfbench::TracedBatchExtras extras;
  std::vector<JobResult> traced;
  if (windowed) {
    traced.push_back(perfbench::run_traced_windowed_pass(
        in.blif, perfbench::windowed_options(args.seed, workers), tracer));
  } else {
    traced = perfbench::run_traced_batch_pass(in.jobs, workers, tracer, &extras);
  }
  perfbench::check_networks(traced, in.sources, args.seed, workers);

  // Reference with networks: the windowed production pass has them; batch
  // workloads get a one-worker pass through run_system.
  std::vector<JobResult> reference;
  if (windowed) {
    reference = std::move(untraced);
    untraced.clear();
  } else {
    reference = perfbench::run_network_pass(in.jobs, 1);
    perfbench::check_networks(reference, in.sources, args.seed, 1);
  }
  long attempted = static_cast<long>(reference.size() + traced.size() + untraced.size());
  long failed = count_failures(reference, reference, "reference") +
                count_failures(traced, reference, "traced") +
                count_failures(untraced, reference, "untraced");
  const bool canon_ok = extras.canonize_mismatches == 0;
  if (!canon_ok) {
    std::fprintf(stderr, "perfbench: npn_canonize replay changed %" PRIu64 " keys\n",
                 extras.canonize_mismatches);
  }
  std::printf("perfbench: workload=%s seed=%" PRIu64 " workers=%d traced "
              "checksum=%016" PRIx64 " reference_checksum=%016" PRIx64
              " attempted=%ld failed=%ld\n",
              args.workload_name.c_str(), args.seed, workers,
              perfbench::results_checksum(traced, true),
              perfbench::results_checksum(reference, true), attempted, failed);

  if (!args.trace_out.empty()) {
    if (!tracer.write_chrome_json(args.trace_out,
                                  args.workload_name + " seed " +
                                      std::to_string(args.seed))) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  const hyde::core::FlowStats s = total_stats(traced);
  long sim_jobs = 0;
  for (const JobResult& r : traced) sim_jobs += r.verify_by_simulation ? 1 : 0;
  Metrics m;
  m.add("trace.untraced_pass_s", untraced_s, "s");
  m.add("runtime.workers", workers, "count");
  m.add("mcnc.generate_s", generate_s, "s");
  m.add("tt.canonize_calls", static_cast<double>(extras.canonize_calls), "count");
  m.add("tt.canonize_s", extras.canonize_seconds, "s");
  m.add("runtime.npn_lookups", static_cast<double>(extras.npn_lookups), "count");
  m.add("runtime.npn_hit_ratio",
        ratio(static_cast<double>(extras.npn_hits),
              static_cast<double>(extras.npn_hits + extras.npn_misses)),
        "ratio");
  m.add("runtime.npn_unique", static_cast<double>(extras.npn_unique), "count");
  m.add("runtime.npn_call_s", extras.npn_call_seconds, "s");
  m.add("runtime.template_s", extras.template_seconds, "s");
  m.add("runtime.template_orphans", static_cast<double>(extras.template_orphans), "count");
  m.add("core.encoding_s", s.encoding_seconds, "s");
  m.add("core.encoder_runs", s.encoder_runs, "count");
  m.add("core.encoder_random_kept_ratio",
        ratio(s.encoder_random_kept, s.encoder_runs), "ratio");
  m.add("core.hyper_groups", s.hyper_groups, "count");
  m.add("core.shannon_fallbacks", s.shannon_fallbacks, "count");
  m.add("decomp.varpart_s", s.varpart_seconds, "s");
  m.add("decomp.candidates_evaluated",
        static_cast<double>(s.search_candidates_evaluated), "count");
  m.add("decomp.pruned_ratio",
        ratio(static_cast<double>(s.search_candidates_pruned),
              static_cast<double>(s.search_candidates_evaluated)),
        "ratio");
  m.add("decomp.classes_s", s.classes_seconds, "s");
  m.add("decomp.signature_pair_ratio",
        ratio(static_cast<double>(s.class_signature_pairs),
              static_cast<double>(s.class_signature_pairs + s.class_bdd_pairs)),
        "ratio");
  m.add("part.extract_s", s.window_extract_seconds, "s");
  m.add("part.stitch_s", s.window_stitch_seconds, "s");
  m.add("part.worker_busy_s", s.window_worker_busy_seconds, "s");
  m.add("part.window_workers", s.window_workers, "count");
  m.add("part.window_max_s", s.window_max_seconds, "s");
  m.add("part.steals", static_cast<double>(s.window_steals), "count");
  m.add("part.windows_resynthesized", s.windows_resynthesized, "count");
  m.add("part.windows_passthrough", s.windows_passthrough, "count");
  m.add("net.verify_sim_jobs", static_cast<double>(sim_jobs), "count");
  m.add("bdd.cache_hit_ratio",
        ratio(static_cast<double>(s.bdd_cache_hits),
              static_cast<double>(s.bdd_cache_hits + s.bdd_cache_misses)),
        "ratio");
  m.add("bdd.peak_live_nodes", static_cast<double>(s.bdd_peak_live_nodes), "count");
  m.add("bdd.gc_runs", static_cast<double>(s.bdd_gc_runs), "count");
  print_result(failed == 0 && canon_ok, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hyde_perfbench --workload suite|systems|windowed "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int workers = static_cast<int>(std::clamp(hw, 1U, 4U));

  Inputs in;
  std::vector<double> setup;
  std::vector<double> generate;
  const int setup_runs =
      args.workload == Workload::kWindowed ? kWindowedSetupRuns : kSetupRuns;
  for (int i = 0; i < setup_runs; ++i) {
    const Clock::time_point start = Clock::now();
    generate.push_back(build_inputs(args, &in));
    setup.push_back(seconds_since(start));
  }
  const double setup_s = quantile(setup, 0.5);
  const double generate_s = quantile(generate, 0.5);
  return args.trace ? run_traced(args, workers, in, generate_s)
                    : run_untraced(args, workers, setup_s, in);
}
