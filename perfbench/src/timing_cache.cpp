#include "timing_cache.hpp"

namespace perfbench {

namespace {

/// A miss whose template is being computed on this thread.
struct PendingMiss {
  const TimingDecompCache* cache = nullptr;
  std::uint64_t key_hash = 0;
  int span = -1;
  Clock::time_point start;
};

std::vector<PendingMiss>& pending() {
  thread_local std::vector<PendingMiss> stack;
  return stack;
}

}  // namespace

void TimingDecompCache::add_seconds(std::atomic<std::int64_t>& total,
                                    Clock::time_point from,
                                    Clock::time_point to) {
  total.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

std::shared_ptr<const hyde::core::CachedDecomposition>
TimingDecompCache::lookup_tiered(const hyde::core::NpnCacheKey& key,
                                 hyde::core::LookupTier* tier) {
  {
    std::lock_guard<std::mutex> lock(keys_mu_);
    keys_.push_back(key);
  }
  lookups_.fetch_add(1);
  std::shared_ptr<const hyde::core::CachedDecomposition> entry;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(&tracer_, "runtime.npn_call");
    entry = inner_.lookup_tiered(key, tier);
  }
  const Clock::time_point stop = Clock::now();
  add_seconds(call_ns_, start, stop);
  if (entry != nullptr) {
    hits_.fetch_add(1);
  } else {
    misses_.fetch_add(1);
    pending().push_back(
        PendingMiss{this, key.hash(), tracer_.begin("runtime.template"), stop});
  }
  return entry;
}

std::shared_ptr<const hyde::core::CachedDecomposition>
TimingDecompCache::insert(const hyde::core::NpnCacheKey& key,
                          hyde::core::CachedDecomposition value) {
  const Clock::time_point start = Clock::now();
  // Close the matching pending miss; anything above it (or left behind by
  // another cache instance) never inserted.
  std::vector<PendingMiss>& stack = pending();
  const std::uint64_t hash = key.hash();
  while (!stack.empty()) {
    const PendingMiss miss = stack.back();
    stack.pop_back();
    if (miss.cache != this) continue;
    tracer_.end(miss.span);
    if (miss.key_hash == hash) {
      add_seconds(template_ns_, miss.start, start);
      break;
    }
  }
  inserts_.fetch_add(1);
  std::shared_ptr<const hyde::core::CachedDecomposition> entry;
  {
    ScopedSpan span(&tracer_, "runtime.npn_call");
    entry = inner_.insert(key, std::move(value));
  }
  add_seconds(call_ns_, start, Clock::now());
  return entry;
}

CacheLayerCounters TimingDecompCache::counters() const {
  CacheLayerCounters c;
  c.lookups = lookups_.load();
  c.hits = hits_.load();
  c.misses = misses_.load();
  c.inserts = inserts_.load();
  c.orphans = c.misses - c.inserts;
  c.call_seconds = static_cast<double>(call_ns_.load()) * 1e-9;
  c.template_seconds = static_cast<double>(template_ns_.load()) * 1e-9;
  return c;
}

std::vector<hyde::core::NpnCacheKey> TimingDecompCache::looked_up_keys() const {
  std::lock_guard<std::mutex> lock(keys_mu_);
  return keys_;
}

}  // namespace perfbench
