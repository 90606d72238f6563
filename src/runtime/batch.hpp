/// \file batch.hpp
/// \brief Parallel batch execution of whole-flow synthesis jobs.
///
/// `run_batch` fans a job list out over a `JobScheduler` thread pool. Every
/// job is an independent end-to-end flow (`baseline::run_system`): it builds
/// its circuit, decomposes, maps and verifies on its worker thread with
/// job-private state — one `bdd::Manager` per flow invocation, constructed on
/// the thread that runs it. Jobs share exactly one mutable object, the
/// `NpnResultCache`, whose purity contract (core/decomp_cache.hpp) makes
/// batch results bit-identical across worker counts and schedules for the
/// same job list and seeds.
///
/// Job seeds are fixed up front in the job list — derived from the caller's
/// base seed by `suite_jobs`, never from scheduling order.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/flows.hpp"
#include "runtime/report.hpp"

namespace hyde::runtime {

/// One unit of schedulable work: a circuit from the MCNC-like registry, a
/// system preset (flow + mapper policy bundle) and the LUT size.
struct BatchJob {
  std::string circuit;
  baseline::System system = baseline::System::kHyde;
  int k = 5;
  std::uint64_t seed = 1;
};

struct BatchOptions {
  int workers = 1;          ///< thread-pool size (clamped to >= 1)
  int verify_vectors = 128; ///< random-vector equivalence check per job (0 = off)
  bool use_cache = true;    ///< share an NpnResultCache across all jobs
  int cache_max_support = 7;
  /// Dynamic variable reordering inside each job's flow manager
  /// (docs/REORDER.md). Result-affecting — part of the NPN-cache
  /// fingerprint — but still bit-identical across worker counts.
  bdd::ReorderMode reorder = bdd::ReorderMode::kOff;
  double reorder_max_growth = 2.0;
};

/// Number of workers to use when the caller has no preference: the hardware
/// concurrency, or 1 when it cannot be determined.
int default_worker_count();

/// Builds the cross product \p circuits x \p systems in row-major order
/// (every system of circuit 0, then circuit 1, ...). Every job gets
/// \p base_seed: seeds are a function of the job list alone, so reports are
/// comparable with the serial single-circuit drivers and independent of
/// scheduling.
std::vector<BatchJob> suite_jobs(const std::vector<std::string>& circuits,
                                 const std::vector<baseline::System>& systems,
                                 int k, std::uint64_t base_seed);

/// Executes \p jobs on \p options.workers threads and aggregates a RunReport
/// (jobs reported in submission order). Per-job exceptions are captured in
/// JobReport::error, never propagated.
RunReport run_batch(const std::vector<BatchJob>& jobs,
                    const BatchOptions& options);

}  // namespace hyde::runtime
