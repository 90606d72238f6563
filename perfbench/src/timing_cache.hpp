/// \file timing_cache.hpp
/// \brief A core::DecompCache that forwards to runtime::NpnResultCache and
/// measures the NPN-cache layer from outside the flow.
///
/// The flow calls `lookup_tiered` once per cacheable function and, on a
/// miss, computes the template and calls `insert` from the same thread. The
/// wrapper counts lookups, hits, misses and inserts, times every
/// lookup/insert call, and times the miss-to-insert interval (the template
/// compute) per thread as a `runtime.template` span. Misses nest: a template
/// sub-flow may itself miss on a smaller function, so pending misses form a
/// per-thread stack. A miss that never inserts (a degenerate template the
/// flow discards) is counted as an orphan and closed at the next insert or
/// at the end of the enclosing span. Every looked-up key is kept so the
/// caller can replay `tt::npn_canonize` on it afterwards.
///
/// Results are unaffected: every call is forwarded unchanged.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/decomp_cache.hpp"
#include "runtime/npn_cache.hpp"
#include "trace.hpp"

namespace perfbench {

struct CacheLayerCounters {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t orphans = 0;   ///< misses never followed by an insert
  double call_seconds = 0.0;   ///< inside lookup/insert calls
  double template_seconds = 0.0;  ///< miss-to-insert intervals
};

class TimingDecompCache final : public hyde::core::DecompCache {
 public:
  TimingDecompCache(hyde::runtime::NpnResultCache& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::shared_ptr<const hyde::core::CachedDecomposition> lookup(
      const hyde::core::NpnCacheKey& key) override {
    return lookup_tiered(key, nullptr);
  }
  std::shared_ptr<const hyde::core::CachedDecomposition> lookup_tiered(
      const hyde::core::NpnCacheKey& key,
      hyde::core::LookupTier* tier) override;
  bool has_persistent_tier() const override {
    return inner_.has_persistent_tier();
  }
  std::shared_ptr<const hyde::core::CachedDecomposition> insert(
      const hyde::core::NpnCacheKey& key,
      hyde::core::CachedDecomposition value) override;

  CacheLayerCounters counters() const;
  /// Every looked-up key, one entry per lookup.
  std::vector<hyde::core::NpnCacheKey> looked_up_keys() const;

 private:
  void add_seconds(std::atomic<std::int64_t>& total, Clock::time_point from,
                   Clock::time_point to);

  hyde::runtime::NpnResultCache& inner_;
  Tracer& tracer_;
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::int64_t> call_ns_{0};
  std::atomic<std::int64_t> template_ns_{0};
  mutable std::mutex keys_mu_;
  std::vector<hyde::core::NpnCacheKey> keys_;  // guarded by keys_mu_
};

}  // namespace perfbench
