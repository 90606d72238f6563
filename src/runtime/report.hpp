/// \file report.hpp
/// \brief Structured results of a batch-synthesis run.
///
/// A RunReport aggregates per-job flow/mapper outcomes, NPN-cache figures and
/// wall-clock into deterministic JSON/CSV. Fields split into two groups:
///
///  - *deterministic*: pure functions of (jobs, seeds, flow options). Two
///    runs of the same batch agree on these regardless of worker count or
///    scheduling — the scheduler-determinism test diffs exactly this subset
///    (`to_json(report, /*include_volatile=*/false)`).
///  - *volatile*: wall-clock times, worker count, the cache's observed
///    hit/miss/race counters (a key another job already published counts as
///    a hit, so these legitimately move with scheduling) and every FlowStats
///    field core::kFlowFields does not mark deterministic. Emitted only when
///    `include_volatile` is set.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "runtime/npn_cache.hpp"
#include "store/persistent_cache.hpp"

namespace hyde::runtime {

/// Outcome of one synthesis job (circuit x system x k).
struct JobReport {
  std::string circuit;
  std::string system;
  int k = 5;
  std::uint64_t seed = 1;
  int luts = 0;
  int clbs = 0;  ///< XC3000 CLB count; 0 unless k == 5
  int depth = 0;
  bool verified = false;
  std::string error;  ///< nonempty when the job threw; other fields are zero
  core::FlowStats stats;
  double seconds = 0.0;  ///< volatile: per-job wall-clock on its worker
};

/// Aggregated NPN-cache figures for the whole batch: the shared cache's
/// observed traffic counters (volatile) plus its configuration and size.
struct CacheReport : NpnCacheCounters {
  bool enabled = false;
  int max_support = 0;
  /// Distinct memoized functions (the needed-key closure). Deterministic for
  /// memory-only runs; volatile once a persistent store is attached, because
  /// disk promotions and whole-job replays change which keys reach the
  /// memory tier.
  std::uint64_t unique_functions = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Persistent on-disk store figures for the whole run: the store's own
/// counters (src/store/persistent_cache.hpp) snapshotted after the final
/// flush, plus how it was opened. Volatile: which lookups reach the disk
/// tier depends on which worker warmed the memory tier first, and the byte
/// counters track actual disk traffic.
struct StoreReport : store::StoreCounters {
  bool enabled = false;
  bool readonly = false;
};

struct RunReport {
  int verify_vectors = 0;
  std::vector<JobReport> jobs;  ///< submission order, independent of finish order
  CacheReport cache;
  StoreReport store;  ///< volatile; persistent-cache runs only
  /// Every job's FlowStats folded by core::merge, in submission order.
  core::FlowStats totals;
  int workers = 1;            ///< volatile
  double wall_seconds = 0.0;  ///< volatile

  bool all_ok() const {
    for (const JobReport& job : jobs) {
      if (!job.error.empty() || !job.verified) return false;
    }
    return true;
  }
};

/// Deterministically formatted JSON. With include_volatile=false the output
/// is bit-identical across worker counts and schedules for the same batch.
std::string to_json(const RunReport& report, bool include_volatile = true);

/// One CSV row per job under a header generated from core::kFlowFields
/// (`group.key` per FlowStats field). Text fields are quoted per RFC 4180.
std::string to_csv(const RunReport& report);

}  // namespace hyde::runtime
