/// \file decomp_cache.hpp
/// \brief Cross-flow memoization interface for small-support decompositions.
///
/// The flow's recursive decomposer spends most of its time re-decomposing
/// functions it has seen before — the same NPN class shows up across outputs,
/// across circuits of a batch sweep, and across the solo/hyper candidate runs
/// of `GroupChoice::kAuto`. A `DecompCache` memoizes one decomposition per
/// NPN-canonical (onset, dcset) pair and replays it everywhere else.
///
/// Determinism contract (load-bearing for the parallel batch runtime): the
/// value stored under a key must be a *pure function of the key*. The flow
/// guarantees this by decomposing the canonical representative with a seed
/// derived from the key content (never from FlowOptions::seed or from which
/// job got there first), so racing workers that miss on the same key compute
/// bit-identical entries and it does not matter whose insert wins. A batch
/// run's results are therefore independent of scheduling order and worker
/// count.
///
/// Thread-safety contract: implementations must allow concurrent lookup and
/// insert from many threads. Cached values are immutable after insert and are
/// deliberately stored as plain truth-table node lists — *not* as
/// `net::Network`, whose BDD manager mutates its operation cache even on
/// reads and must never be shared across threads.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tt/truth_table.hpp"

namespace hyde::core {

/// One node of a cached decomposition template. Fanin index i < num_inputs
/// denotes template input i (canonical variable i); index num_inputs + j
/// denotes template node j. Nodes are stored in topological order.
struct TemplateNode {
  std::vector<int> fanins;
  tt::TruthTable table;  ///< local function, variable p == fanins[p]
};

/// Counters a cached decomposition contributes to the using flow's stats —
/// added identically on hits and misses so FlowStats stay schedule-independent.
struct TemplateStats {
  int decomposition_steps = 0;
  int shannon_fallbacks = 0;
  int encoder_runs = 0;
  int encoder_random_kept = 0;
};

/// A memoized k-feasible realization of one NPN-canonical function.
struct CachedDecomposition {
  int num_inputs = 0;
  std::vector<TemplateNode> nodes;
  int root = -1;  ///< combined index (num_inputs + node offset) of the output
  TemplateStats stats;
};

/// Cache key: the NPN-canonical (onset, dcset) pair plus a fingerprint of
/// every FlowOptions knob that shapes the template decomposition (k, encoding
/// policy, DC policy, ...). Keys with different fingerprints never share
/// entries, so e.g. an IMODEC-like sweep cannot replay HYDE decompositions.
struct NpnCacheKey {
  tt::TruthTable on;
  tt::TruthTable dc;
  std::uint64_t options_fingerprint = 0;

  bool operator==(const NpnCacheKey&) const = default;

  std::uint64_t hash() const {
    std::uint64_t h = on.hash() * 0x9E3779B97F4A7C15ull;
    h ^= dc.hash() + 0x517CC1B727220A95ull + (h << 6) + (h >> 2);
    h ^= options_fingerprint + 0x2545F4914F6CDD1Dull + (h << 6) + (h >> 2);
    return h;
  }
};

/// Whether a lookup hit. Kept, with lookup_tiered and has_persistent_tier
/// below, only because perfbench/src/timing_cache.hpp overrides them.
enum class LookupTier {
  kMiss = 0,
  kMemory = 1,
};

/// Abstract memo table. The concrete sharded implementation lives in
/// src/runtime/npn_cache; core only needs the interface so FlowOptions can
/// carry an optional cache pointer without depending on the runtime layer.
class DecompCache {
 public:
  virtual ~DecompCache() = default;

  /// Returns the entry for \p key, or nullptr on miss.
  virtual std::shared_ptr<const CachedDecomposition> lookup(
      const NpnCacheKey& key) = 0;

  /// Like lookup, but additionally reports whether it hit (when \p tier is
  /// non-null): kMemory on a hit, kMiss otherwise.
  virtual std::shared_ptr<const CachedDecomposition> lookup_tiered(
      const NpnCacheKey& key, LookupTier* tier) {
    auto entry = lookup(key);
    if (tier != nullptr) {
      *tier = entry ? LookupTier::kMemory : LookupTier::kMiss;
    }
    return entry;
  }

  /// Always false here; see LookupTier.
  virtual bool has_persistent_tier() const { return false; }

  /// Publishes \p value under \p key and returns the entry now stored there.
  /// When another thread raced the computation, the first insert wins and its
  /// (bit-identical, see determinism contract) entry is returned instead.
  virtual std::shared_ptr<const CachedDecomposition> insert(
      const NpnCacheKey& key, CachedDecomposition value) = 0;
};

}  // namespace hyde::core
