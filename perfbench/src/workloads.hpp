/// \file workloads.hpp
/// \brief The benchmark's workloads and the passes that run them.
///
///  - `suite`: the 25-circuit MCNC-like registry under HYDE, k=5, through
///    runtime::run_batch with default BatchOptions (NPN cache on, 128
///    verify vectors) and the default job seed.
///  - `systems`: the same registry under the IMODEC-like, RK-noresub and
///    RK-resub presets (75 jobs), same options, job seed from --seed.
///  - `windowed`: a ~19k-node netlist (the two random_multilevel tiles of
///    bench/window_bench) serialized to BLIF, parsed back and run through
///    baseline::run_windowed_system as `hyde_cli --in` does (HYDE, k=5, no
///    NPN cache), flow seed from --seed.
///
/// --seed also seeds the independent simulation check's random vectors.
///
/// Every pass returns one JobResult per job in job order. The production
/// passes call the public entry points; the traced passes call the same
/// steps one by one with a span around each.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "part/windowed.hpp"
#include "runtime/batch.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Workload { kSuite, kSystems, kWindowed };

bool parse_workload(const std::string& name, Workload* out);

/// One job's outcome as the benchmark checks it.
struct JobResult {
  int luts = 0;
  int clbs = 0;
  int depth = 0;
  bool verified = false;  ///< the program's own equivalence check
  std::string error;      ///< nonempty when the job threw
  double seconds = 0.0;   ///< JobReport::seconds / BaselineResult::seconds
  hyde::core::FlowStats stats;
  bool verify_by_simulation = false;  ///< check_equivalence fell back to sim
  bool has_network = false;
  hyde::net::Network network;
  // Filled by check_networks.
  std::uint64_t blif_hash = 0;
  bool sim_equal = false;
  std::string sim_detail;
};

// ---- batch workloads -----------------------------------------------------

std::vector<hyde::runtime::BatchJob> batch_jobs(Workload workload,
                                                std::uint64_t seed);
hyde::runtime::BatchOptions batch_options(int workers);

/// Production pass: runtime::run_batch. No networks come back.
std::vector<JobResult> run_batch_pass(
    const std::vector<hyde::runtime::BatchJob>& jobs, int workers);

/// Every job through baseline::run_system on a JobScheduler with one shared
/// NpnResultCache, as run_batch does, but keeping each mapped network.
std::vector<JobResult> run_network_pass(
    const std::vector<hyde::runtime::BatchJob>& jobs, int workers);

/// Counters of the traced batch pass beyond the per-job FlowStats.
struct TracedBatchExtras {
  std::uint64_t npn_lookups = 0;
  std::uint64_t npn_hits = 0;
  std::uint64_t npn_misses = 0;
  std::uint64_t npn_unique = 0;
  std::uint64_t template_orphans = 0;
  double npn_call_seconds = 0.0;
  double template_seconds = 0.0;
  std::uint64_t canonize_calls = 0;
  double canonize_seconds = 0.0;
  std::uint64_t canonize_mismatches = 0;  ///< replay not idempotent
};

/// Traced pass: the steps of baseline::run_system one by one per job, with
/// a TimingDecompCache around the shared NpnResultCache. After the pass,
/// tt::npn_canonize is replayed and timed on every looked-up key.
std::vector<JobResult> run_traced_batch_pass(
    const std::vector<hyde::runtime::BatchJob>& jobs, int workers,
    Tracer& tracer, TracedBatchExtras* extras);

// ---- windowed workload ---------------------------------------------------

inline constexpr int kWindowedVerifyVectors = 256;

hyde::net::Network windowed_netlist();
hyde::part::WindowedFlowOptions windowed_options(std::uint64_t seed,
                                                 int threads);

/// Production pass: parse \p blif, then baseline::run_windowed_system.
JobResult run_windowed_pass(const std::string& blif,
                            const hyde::part::WindowedFlowOptions& options);

/// Traced pass: the steps of run_windowed_system one by one.
JobResult run_traced_windowed_pass(const std::string& blif,
                                   const hyde::part::WindowedFlowOptions& options,
                                   Tracer& tracer);

// ---- checks --------------------------------------------------------------

/// Hashes each network's BLIF text and simulates it against its source
/// (sources[i] for job i), on \p workers threads.
void check_networks(std::vector<JobResult>& results,
                    const std::vector<const hyde::net::Network*>& sources,
                    std::uint64_t seed, int workers);

/// FNV-1a over every job's BLIF hash (when it has a network) and
/// luts/clbs/depth, in job order.
std::uint64_t results_checksum(const std::vector<JobResult>& results,
                               bool include_blif);

}  // namespace perfbench
