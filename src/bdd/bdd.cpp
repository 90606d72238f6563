#include "bdd/bdd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "bdd/bdd_internal.hpp"

namespace hyde::bdd {

using namespace internal;

namespace {
constexpr std::size_t kCacheInitialEntries = std::size_t{1} << 8;
constexpr std::size_t kCacheMinEntries = std::size_t{1} << 10;
/// kAuto never fires below this many live nodes — reordering a tiny manager
/// costs more than it can ever save.
constexpr std::size_t kAutoReorderFloor = std::size_t{1} << 12;

std::uint64_t next_manager_serial() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(Manager* mgr, std::uint32_t id) : mgr_(mgr), id_(id) {
  if (mgr_ != nullptr) mgr_->inc_ref(id_);
#ifdef HYDE_CHECKED
  if (mgr_ != nullptr) mgr_serial_ = mgr_->serial_;
#endif
}

Bdd::Bdd(const Bdd& other) : mgr_(other.mgr_), id_(other.id_) {
  if (mgr_ != nullptr) mgr_->inc_ref(id_);
#ifdef HYDE_CHECKED
  mgr_serial_ = other.mgr_serial_;
#endif
}

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), id_(other.id_) {
  other.mgr_ = nullptr;
  other.id_ = 0;
#ifdef HYDE_CHECKED
  mgr_serial_ = other.mgr_serial_;
  other.mgr_serial_ = 0;
#endif
}

Bdd& Bdd::operator=(const Bdd& other) {
  if (this == &other) return *this;
  if (other.mgr_ != nullptr) other.mgr_->inc_ref(other.id_);
  if (mgr_ != nullptr) mgr_->dec_ref(id_);
  mgr_ = other.mgr_;
  id_ = other.id_;
#ifdef HYDE_CHECKED
  mgr_serial_ = other.mgr_serial_;
#endif
  return *this;
}

// NOLINTNEXTLINE(bugprone-exception-escape): dec_ref throws only on refcount
// underflow, i.e. a corrupted table; terminating beats unwinding over it.
Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_ != nullptr) mgr_->dec_ref(id_);
  mgr_ = other.mgr_;
  id_ = other.id_;
  other.mgr_ = nullptr;
  other.id_ = 0;
#ifdef HYDE_CHECKED
  mgr_serial_ = other.mgr_serial_;
  other.mgr_serial_ = 0;
#endif
  return *this;
}

// NOLINTNEXTLINE(bugprone-exception-escape): same contract as move-assign —
// an underflow throw out of a destructor should terminate, not unwind.
Bdd::~Bdd() {
  if (mgr_ != nullptr) mgr_->dec_ref(id_);
}

bool Bdd::is_zero() const { return mgr_ != nullptr && id_ == kZero; }
bool Bdd::is_one() const { return mgr_ != nullptr && id_ == kOne; }

int Bdd::top_var() const {
  if (!is_valid() || id_ <= kOne) {
    throw std::logic_error("Bdd::top_var on constant or null BDD");
  }
  return mgr_->nodes_[id_].var;
}

Bdd Bdd::low() const {
  if (!is_valid() || id_ <= kOne) {
    throw std::logic_error("Bdd::low on constant or null BDD");
  }
  return Bdd(mgr_, mgr_->nodes_[id_].lo);
}

Bdd Bdd::high() const {
  if (!is_valid() || id_ <= kOne) {
    throw std::logic_error("Bdd::high on constant or null BDD");
  }
  return Bdd(mgr_, mgr_->nodes_[id_].hi);
}

Bdd Bdd::operator&(const Bdd& rhs) const { return mgr_->bdd_and(*this, rhs); }
Bdd Bdd::operator|(const Bdd& rhs) const { return mgr_->bdd_or(*this, rhs); }
Bdd Bdd::operator^(const Bdd& rhs) const { return mgr_->bdd_xor(*this, rhs); }
Bdd Bdd::operator~() const { return mgr_->bdd_not(*this); }
bool Bdd::implies(const Bdd& rhs) const { return mgr_->implies(*this, rhs); }

// ---------------------------------------------------------------------------
// Manager: construction, node store, unique table, reference counting, GC
// ---------------------------------------------------------------------------

Manager::Manager(int num_vars) : num_vars_(num_vars) {
  serial_ = next_manager_serial();
  nodes_.reserve(1024);
  nodes_.push_back(Node{-1, kZero, kZero, kNil, 1});  // constant 0
  nodes_.push_back(Node{-1, kOne, kOne, kNil, 1});    // constant 1
  total_ext_refs_ = 2;
  ensure_level_capacity(num_vars_);
  rehash_unique(1024);
}

Manager::~Manager() {
  serial_ = 0;  // HYDE_CHECKED stale handles see a mismatching serial
}

void Manager::ensure_vars(int num_vars) {
  num_vars_ = std::max(num_vars_, num_vars);
  ensure_level_capacity(num_vars_);
}

void Manager::ensure_level_capacity(int count) {
  while (static_cast<int>(level_of_.size()) < count) {
    const int level = static_cast<int>(level_of_.size());
    level_of_.push_back(level);
    var_at_.push_back(level);
  }
}

Bdd Manager::make_external(std::uint32_t id) { return Bdd(this, id); }

void Manager::inc_ref(std::uint32_t id) {
  ++nodes_[id].ext_refs;
  ++total_ext_refs_;
}

void Manager::dec_ref(std::uint32_t id) {
  if (nodes_[id].ext_refs == 0) {
    throw std::logic_error("BDD reference count underflow");
  }
  --nodes_[id].ext_refs;
  --total_ext_refs_;
}

// Buckets are keyed by the variable's *level*, not its index: after a swap
// the affected nodes are re-homed, so placement always reflects the current
// order (audited by audit_invariants).
// hyde-hot
std::uint32_t Manager::unique_lookup(std::int32_t var, std::uint32_t lo,
                                     std::uint32_t hi) {
  const std::size_t bucket =
      triple_hash(level_of_[static_cast<std::size_t>(var)], lo, hi) &
      (unique_buckets_.size() - 1);
  for (std::uint32_t id = unique_buckets_[bucket]; id != kNil;
       id = nodes_[id].next) {
    const Node& n = nodes_[id];
    if (n.var == var && n.lo == lo && n.hi == hi) return id;
  }
  return kNil;
}

void Manager::unique_insert(std::uint32_t id) {
  const Node& n = nodes_[id];
  const std::size_t bucket =
      triple_hash(level_of_[static_cast<std::size_t>(n.var)], n.lo, n.hi) &
      (unique_buckets_.size() - 1);
  nodes_[id].next = unique_buckets_[bucket];
  unique_buckets_[bucket] = id;
}

void Manager::unique_unlink(std::uint32_t id) {
  const Node& n = nodes_[id];
  const std::size_t bucket =
      triple_hash(level_of_[static_cast<std::size_t>(n.var)], n.lo, n.hi) &
      (unique_buckets_.size() - 1);
  std::uint32_t* slot = &unique_buckets_[bucket];
  while (*slot != id) slot = &nodes_[*slot].next;
  *slot = nodes_[id].next;
  nodes_[id].next = kNil;
}

void Manager::rehash_unique(std::size_t new_bucket_count) {
  unique_buckets_.assign(new_bucket_count, kNil);
  for (std::uint32_t id = 2; id < nodes_.size(); ++id) {
    if (nodes_[id].var >= 0) unique_insert(id);
  }
}

std::uint32_t Manager::make_node(std::int32_t var, std::uint32_t lo,
                                 std::uint32_t hi) {
  if (lo == hi) return lo;  // reduction rule
  if (var >= static_cast<std::int32_t>(level_of_.size())) {
    ensure_level_capacity(var + 1);
  }
  std::uint32_t id = unique_lookup(var, lo, hi);
  if (id != kNil) return id;
  // The hard limit is suspended mid-reorder: a swap rewrites nodes in place
  // and must never tear halfway through (reordering shrinks the DAG anyway).
  if (!in_reorder_ && node_limit_ != 0 &&
      nodes_.size() - free_list_.size() >= node_limit_) {
    throw std::length_error("BDD manager node limit exceeded");
  }
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    nodes_[id] = Node{var, lo, hi, kNil, 0};
  } else {
    id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{var, lo, hi, kNil, 0});
  }
  unique_insert(id);
  const std::size_t live = nodes_.size() - free_list_.size();
  peak_live_nodes_ = std::max(peak_live_nodes_, live);
  // Growth rehash is deferred while a swap has levels detached from the
  // table (rehash_unique would re-home them mid-rewrite).
  if (!in_reorder_ && live * 2 > unique_buckets_.size()) {
    rehash_unique(unique_buckets_.size() * 2);
  }
  return id;
}

void Manager::collect_garbage() {
  ++gc_runs_;
  std::vector<char> marked(nodes_.size(), 0);
  marked[kZero] = marked[kOne] = 1;
  std::vector<std::uint32_t> stack;
  for (std::uint32_t id = 2; id < nodes_.size(); ++id) {
    if (nodes_[id].var >= 0 && nodes_[id].ext_refs > 0) stack.push_back(id);
  }
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    if (marked[id]) continue;
    marked[id] = 1;
    const Node& n = nodes_[id];
    if (!marked[n.lo]) stack.push_back(n.lo);
    if (!marked[n.hi]) stack.push_back(n.hi);
  }
  free_list_.clear();
  for (std::uint32_t id = 2; id < nodes_.size(); ++id) {
    if (!marked[id]) {
      nodes_[id].var = -2;  // dead
      free_list_.push_back(id);
    }
  }
  // Freed ids may be recycled from here on, so every cached result and every
  // registered compose context is potentially stale: invalidate them all.
  cache_clear();
  compose_maps_.clear();
  compose_fingerprints_.clear();
  rehash_unique(unique_buckets_.size());
#ifdef HYDE_CHECKED
  check_invariants();
#endif
}

// Governance ladder, evaluated at operation entry points only (never
// mid-recursion): the growth trigger (kAuto) or a blown soft budget first
// runs GC; if the soft budget is still exceeded and a reorder mode is
// enabled, converging sifting runs next. Only when both rungs leave the
// manager over budget does growth continue toward the hard node_limit,
// whose std::length_error the windowed flow converts into its
// split/pass-through ladder.
void Manager::maybe_gc() {
  const std::size_t live = nodes_.size() - free_list_.size();
  if (reorder_mode_ == ReorderMode::kAuto &&
      live > static_cast<std::size_t>(static_cast<double>(reorder_watermark_) *
                                      reorder_max_growth_) &&
      live > kAutoReorderFloor) {
    reorder_sift(reorder_options_);  // GCs internally, resets the watermark
    return;
  }
  const bool soft_hit = soft_node_limit_ != 0 && live > soft_node_limit_;
  if (live <= gc_threshold_ && !soft_hit) return;
  collect_garbage();
  const std::size_t after = nodes_.size() - free_list_.size();
  // Adaptive threshold: a GC that reclaims less than 25% of the pre-GC live
  // set was not worth its cost — double the threshold so the next one runs
  // against a genuinely larger population.
  if ((live - after) * 4 < live) gc_threshold_ *= 2;
  if (soft_hit && after > soft_node_limit_ &&
      reorder_mode_ != ReorderMode::kOff) {
    reorder_sift(reorder_options_);
  }
}

void Manager::set_reorder_mode(ReorderMode mode, double max_growth,
                               const ReorderOptions& options) {
  if (!(max_growth > 1.0)) {
    throw std::invalid_argument(
        "Manager::set_reorder_mode: max_growth must be > 1.0");
  }
  reorder_mode_ = mode;
  reorder_max_growth_ = max_growth;
  reorder_options_ = options;
  reorder_watermark_ =
      std::max<std::size_t>(nodes_.size() - free_list_.size(), 2);
}

std::size_t Manager::live_node_count() const {
  std::size_t live = 0;
  for (std::uint32_t id = 2; id < nodes_.size(); ++id) {
    if (nodes_[id].var >= 0) ++live;
  }
  return live;
}

// ---------------------------------------------------------------------------
// Unified computed table
// ---------------------------------------------------------------------------

// hyde-hot
bool Manager::cache_lookup(std::uint64_t a, std::uint64_t b,
                           std::uint32_t* result) {
  if (cache_.empty()) {
    ++cache_misses_;
    return false;
  }
  const CacheEntry& entry = cache_[cache_hash(a, b) & (cache_.size() - 1)];
  if (entry.a == a && entry.b == b) {
    ++cache_hits_;
    *result = entry.result;
    return true;
  }
  ++cache_misses_;
  return false;
}

void Manager::cache_insert(std::uint64_t a, std::uint64_t b,
                           std::uint32_t result) {
  if (cache_.empty()) {
    cache_.assign(std::min(kCacheInitialEntries, cache_max_entries_),
                  CacheEntry{});
  } else if (++inserts_since_grow_ > cache_.size() * 2 &&
             cache_.size() < cache_max_entries_) {
    // Sustained insert pressure: the working set outgrew the table. Doubling
    // drops the current contents (the table is lossy anyway) but halves the
    // future collision rate.
    cache_.assign(cache_.size() * 2, CacheEntry{});
    inserts_since_grow_ = 0;
  }
  CacheEntry& entry = cache_[cache_hash(a, b) & (cache_.size() - 1)];
  if (entry.a != 0 && (entry.a != a || entry.b != b)) ++cache_overwrites_;
  entry.a = a;
  entry.b = b;
  entry.result = result;
  ++cache_inserts_;
}

void Manager::cache_clear() {
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  inserts_since_grow_ = 0;
}

void Manager::set_cache_limit(std::size_t max_entries) {
  max_entries = std::max(max_entries, kCacheMinEntries);
  cache_max_entries_ = std::bit_floor(max_entries);
  if (cache_.size() > cache_max_entries_) {
    cache_.assign(cache_max_entries_, CacheEntry{});
    inserts_since_grow_ = 0;
  }
}

ManagerStats Manager::stats() const {
  ManagerStats s;
  s.cache_hits = cache_hits_;
  s.cache_misses = cache_misses_;
  s.cache_inserts = cache_inserts_;
  s.cache_overwrites = cache_overwrites_;
  s.cache_capacity = cache_.size();
  for (const CacheEntry& entry : cache_) {
    if (entry.a != 0) ++s.cache_occupied;
  }
  s.live_nodes = nodes_.size() - free_list_.size();
  s.store_nodes = nodes_.size();
  s.peak_live_nodes = peak_live_nodes_;
  s.unique_buckets = unique_buckets_.size();
  s.gc_runs = gc_runs_;
  s.reorder_runs = reorder_runs_;
  return s;
}

// ---------------------------------------------------------------------------
// Core operations
// ---------------------------------------------------------------------------

Bdd Manager::var(int index) {
  if (index < 0 || index >= num_vars_) {
    throw std::invalid_argument("Manager::var: variable index out of range");
  }
  return make_external(make_node(index, kZero, kOne));
}

Bdd Manager::nvar(int index) {
  if (index < 0 || index >= num_vars_) {
    throw std::invalid_argument("Manager::nvar: variable index out of range");
  }
  return make_external(make_node(index, kOne, kZero));
}

// hyde-hot
std::uint32_t Manager::not_rec(std::uint32_t f) {
  if (f <= kOne) return f ^ 1u;
  const std::uint64_t a = op_key(kOpNot, f);
  std::uint32_t result;
  if (cache_lookup(a, 0, &result)) return result;
  // Copy fields: make_node below can reallocate the node store.
  const std::int32_t n_var = nodes_[f].var;
  const std::uint32_t n_lo = nodes_[f].lo;
  const std::uint32_t n_hi = nodes_[f].hi;
  result = make_node(n_var, not_rec(n_lo), not_rec(n_hi));
  cache_insert(a, 0, result);
  // NOT is an involution: record the reverse direction for free.
  cache_insert(op_key(kOpNot, result), 0, f);
  return result;
}

// hyde-hot
std::uint32_t Manager::and_rec(std::uint32_t f, std::uint32_t g) {
  if (f == kZero || g == kZero) return kZero;
  if (f == kOne) return g;
  if (g == kOne) return f;
  if (f == g) return f;
  if (f > g) std::swap(f, g);  // commutative: normalize operand order
  const std::uint64_t a = op_key(kOpAnd, f);
  std::uint32_t result;
  if (cache_lookup(a, g, &result)) return result;
  const std::int32_t fv = nodes_[f].var;
  const std::int32_t gv = nodes_[g].var;
  const bool f_top = level_of(fv) <= level_of(gv);
  const bool g_top = level_of(gv) <= level_of(fv);
  const std::int32_t top = f_top ? fv : gv;
  const std::uint32_t f0 = f_top ? nodes_[f].lo : f;
  const std::uint32_t f1 = f_top ? nodes_[f].hi : f;
  const std::uint32_t g0 = g_top ? nodes_[g].lo : g;
  const std::uint32_t g1 = g_top ? nodes_[g].hi : g;
  result = make_node(top, and_rec(f0, g0), and_rec(f1, g1));
  cache_insert(a, g, result);
  return result;
}

// hyde-hot
std::uint32_t Manager::or_rec(std::uint32_t f, std::uint32_t g) {
  if (f == kOne || g == kOne) return kOne;
  if (f == kZero) return g;
  if (g == kZero) return f;
  if (f == g) return f;
  if (f > g) std::swap(f, g);
  const std::uint64_t a = op_key(kOpOr, f);
  std::uint32_t result;
  if (cache_lookup(a, g, &result)) return result;
  const std::int32_t fv = nodes_[f].var;
  const std::int32_t gv = nodes_[g].var;
  const bool f_top = level_of(fv) <= level_of(gv);
  const bool g_top = level_of(gv) <= level_of(fv);
  const std::int32_t top = f_top ? fv : gv;
  const std::uint32_t f0 = f_top ? nodes_[f].lo : f;
  const std::uint32_t f1 = f_top ? nodes_[f].hi : f;
  const std::uint32_t g0 = g_top ? nodes_[g].lo : g;
  const std::uint32_t g1 = g_top ? nodes_[g].hi : g;
  result = make_node(top, or_rec(f0, g0), or_rec(f1, g1));
  cache_insert(a, g, result);
  return result;
}

// hyde-hot
std::uint32_t Manager::xor_rec(std::uint32_t f, std::uint32_t g) {
  if (f == g) return kZero;
  if (f == kZero) return g;
  if (g == kZero) return f;
  if (f == kOne) return not_rec(g);
  if (g == kOne) return not_rec(f);
  if (f > g) std::swap(f, g);
  const std::uint64_t a = op_key(kOpXor, f);
  std::uint32_t result;
  if (cache_lookup(a, g, &result)) return result;
  const std::int32_t fv = nodes_[f].var;
  const std::int32_t gv = nodes_[g].var;
  const bool f_top = level_of(fv) <= level_of(gv);
  const bool g_top = level_of(gv) <= level_of(fv);
  const std::int32_t top = f_top ? fv : gv;
  const std::uint32_t f0 = f_top ? nodes_[f].lo : f;
  const std::uint32_t f1 = f_top ? nodes_[f].hi : f;
  const std::uint32_t g0 = g_top ? nodes_[g].lo : g;
  const std::uint32_t g1 = g_top ? nodes_[g].hi : g;
  result = make_node(top, xor_rec(f0, g0), xor_rec(f1, g1));
  cache_insert(a, g, result);
  return result;
}

// hyde-hot
std::uint32_t Manager::ite_rec(std::uint32_t f, std::uint32_t g,
                               std::uint32_t h) {
  // Terminal cases, then degenerate forms routed to the dedicated kernels so
  // e.g. ite(f, g, 0) and f & g share one computed-table entry.
  if (f == kOne) return g;
  if (f == kZero) return h;
  if (g == h) return g;
  if (g == kOne && h == kZero) return f;
  if (g == kZero && h == kOne) return not_rec(f);
  if (g == kOne) return or_rec(f, h);
  if (h == kZero) return and_rec(f, g);
  if (g == kZero) return and_rec(not_rec(f), h);
  if (h == kOne) return or_rec(not_rec(f), g);
  if (f == g) return or_rec(f, h);
  if (f == h) return and_rec(f, g);

  const std::uint64_t a = op_key(kOpIte, f);
  const std::uint64_t b = (static_cast<std::uint64_t>(g) << 32) | h;
  std::uint32_t result;
  if (cache_lookup(a, b, &result)) return result;

  auto level_of_id = [this](std::uint32_t id) {
    return id <= kOne ? INT32_MAX : level_of(nodes_[id].var);
  };
  const std::int32_t top_level =
      std::min({level_of_id(f), level_of_id(g), level_of_id(h)});
  const std::int32_t top = var_at(top_level);
  auto cof = [this, top](std::uint32_t id, bool hi) {
    if (id <= kOne || nodes_[id].var != top) return id;
    return hi ? nodes_[id].hi : nodes_[id].lo;
  };
  const std::uint32_t lo = ite_rec(cof(f, false), cof(g, false), cof(h, false));
  const std::uint32_t hi = ite_rec(cof(f, true), cof(g, true), cof(h, true));
  result = make_node(top, lo, hi);
  cache_insert(a, b, result);
  return result;
}

void Manager::check_owned(const Bdd& f) const {
  if (f.mgr_ != this) {
    throw std::invalid_argument("Bdd handle belongs to a different manager");
  }
#ifdef HYDE_CHECKED
  if (f.mgr_serial_ != serial_) {
    throw std::logic_error(
        "stale Bdd handle: owning manager was destroyed (serial mismatch)");
  }
  if (f.id_ >= nodes_.size() || (f.id_ > 1 && nodes_[f.id_].var < 0)) {
    throw std::logic_error("Bdd handle references a dead or invalid node");
  }
#endif
}

Bdd Manager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  check_owned(f);
  check_owned(g);
  check_owned(h);
  maybe_gc();
  return make_external(ite_rec(f.id_, g.id_, h.id_));
}

Bdd Manager::bdd_and(const Bdd& f, const Bdd& g) {
  check_owned(f);
  check_owned(g);
  maybe_gc();
  return make_external(and_rec(f.id_, g.id_));
}

Bdd Manager::bdd_or(const Bdd& f, const Bdd& g) {
  check_owned(f);
  check_owned(g);
  maybe_gc();
  return make_external(or_rec(f.id_, g.id_));
}

Bdd Manager::bdd_xor(const Bdd& f, const Bdd& g) {
  check_owned(f);
  check_owned(g);
  maybe_gc();
  return make_external(xor_rec(f.id_, g.id_));
}

Bdd Manager::bdd_not(const Bdd& f) {
  check_owned(f);
  maybe_gc();
  return make_external(not_rec(f.id_));
}

// hyde-hot
bool Manager::disjoint_rec(std::uint32_t f, std::uint32_t g) {
  if (f == kZero || g == kZero) return true;
  if (f == kOne || g == kOne) return false;  // the other side is nonzero here
  if (f == g) return false;  // nonconstant node has a satisfying assignment
  if (f > g) std::swap(f, g);
  const std::uint64_t a = op_key(kOpDisjoint, f);
  std::uint32_t cached;
  if (cache_lookup(a, g, &cached)) return cached != 0;
  const std::int32_t fv = nodes_[f].var;
  const std::int32_t gv = nodes_[g].var;
  const bool f_top = level_of(fv) <= level_of(gv);
  const bool g_top = level_of(gv) <= level_of(fv);
  const std::uint32_t f0 = f_top ? nodes_[f].lo : f;
  const std::uint32_t f1 = f_top ? nodes_[f].hi : f;
  const std::uint32_t g0 = g_top ? nodes_[g].lo : g;
  const std::uint32_t g1 = g_top ? nodes_[g].hi : g;
  const bool result = disjoint_rec(f0, g0) && disjoint_rec(f1, g1);
  cache_insert(a, g, result ? 1u : 0u);
  return result;
}

bool Manager::disjoint(const Bdd& f, const Bdd& g) {
  check_owned(f);
  check_owned(g);
  return disjoint_rec(f.id_, g.id_);
}

// hyde-hot
std::uint32_t Manager::cofactor_rec(std::uint32_t f, int var, bool value) {
  if (f <= kOne) return f;
  // Copy fields: make_node below can reallocate the node store.
  const std::int32_t n_var = nodes_[f].var;
  const std::uint32_t n_lo = nodes_[f].lo;
  const std::uint32_t n_hi = nodes_[f].hi;
  if (level_of(n_var) > level_of(var)) return f;  // var is above f's support
  if (n_var == var) return value ? n_hi : n_lo;
  const std::uint64_t a = op_key(kOpCofactor, f);
  const std::uint64_t b =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(var)) << 1) |
      (value ? 1u : 0u);
  std::uint32_t result;
  if (cache_lookup(a, b, &result)) return result;
  const std::uint32_t lo = cofactor_rec(n_lo, var, value);
  const std::uint32_t hi = cofactor_rec(n_hi, var, value);
  result = make_node(n_var, lo, hi);
  cache_insert(a, b, result);
  return result;
}

Bdd Manager::cofactor(const Bdd& f, int var, bool value) {
  check_owned(f);
  // A variable the manager has never seen cannot occur in f's support.
  if (var < 0 || var >= static_cast<int>(level_of_.size())) return f;
  maybe_gc();
  return make_external(cofactor_rec(f.id_, var, value));
}

Bdd Manager::cofactor_cube(const Bdd& f,
                           const std::vector<std::pair<int, bool>>& cube) {
  Bdd result = f;
  for (const auto& [var, value] : cube) {
    result = cofactor(result, var, value);
  }
  return result;
}

std::uint32_t Manager::build_cube(const std::vector<int>& vars) {
  std::vector<int> sorted = vars;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (!sorted.empty()) ensure_level_capacity(sorted.back() + 1);
  // Cube nodes must be chained top level first, so order by current level.
  std::sort(sorted.begin(), sorted.end(),
            [this](int a, int b) { return level_of(a) < level_of(b); });
  std::uint32_t cube = kOne;
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    cube = make_node(*it, kZero, cube);
  }
  return cube;
}

// hyde-hot
std::uint32_t Manager::quantify_rec(std::uint32_t f, std::uint32_t cube,
                                    bool existential) {
  if (f <= kOne) return f;
  const std::int32_t fv = nodes_[f].var;
  const int f_level = level_of(fv);
  // Skip quantified variables above f's support: they cannot occur in f.
  while (cube > kOne && level_of(nodes_[cube].var) < f_level) {
    cube = nodes_[cube].hi;
  }
  if (cube <= kOne) return f;
  const std::uint64_t a = op_key(existential ? kOpExists : kOpForall, f);
  std::uint32_t result;
  if (cache_lookup(a, cube, &result)) return result;
  // Copy fields: make_node and the kernels below can reallocate the store.
  const std::uint32_t n_lo = nodes_[f].lo;
  const std::uint32_t n_hi = nodes_[f].hi;
  const std::int32_t cube_var = nodes_[cube].var;
  const std::uint32_t sub_cube = nodes_[cube].hi;
  if (fv == cube_var) {
    const std::uint32_t lo = quantify_rec(n_lo, sub_cube, existential);
    // Dominant short-circuits: x | 1 = 1, x & 0 = 0.
    if (existential && lo == kOne) {
      result = kOne;
    } else if (!existential && lo == kZero) {
      result = kZero;
    } else {
      const std::uint32_t hi = quantify_rec(n_hi, sub_cube, existential);
      result = existential ? or_rec(lo, hi) : and_rec(lo, hi);
    }
  } else {  // fv is above cube_var: keep the node, quantify below
    const std::uint32_t lo = quantify_rec(n_lo, cube, existential);
    const std::uint32_t hi = quantify_rec(n_hi, cube, existential);
    result = make_node(fv, lo, hi);
  }
  cache_insert(a, cube, result);
  return result;
}

Bdd Manager::exists(const Bdd& f, const std::vector<int>& vars) {
  check_owned(f);
  maybe_gc();
  const std::uint32_t cube = build_cube(vars);
  return make_external(quantify_rec(f.id_, cube, /*existential=*/true));
}

Bdd Manager::forall(const Bdd& f, const std::vector<int>& vars) {
  check_owned(f);
  maybe_gc();
  const std::uint32_t cube = build_cube(vars);
  return make_external(quantify_rec(f.id_, cube, /*existential=*/false));
}

std::uint64_t Manager::compose_context(const std::vector<std::int64_t>& map) {
  std::uint64_t fingerprint = 0xC0117E87ull;
  for (std::size_t v = 0; v < map.size(); ++v) {
    if (map[v] < 0) continue;
    fingerprint ^= (static_cast<std::uint64_t>(v) << 32 |
                    static_cast<std::uint64_t>(map[v])) *
                   0x9E3779B97F4A7C15ull;
    fingerprint *= 0xBF58476D1CE4E5B9ull;
    fingerprint ^= fingerprint >> 29;
  }
  const auto it = compose_fingerprints_.find(fingerprint);
  if (it != compose_fingerprints_.end() &&
      compose_maps_[it->second] == map) {
    return it->second + 1;
  }
  // New map this GC epoch (or a — vanishingly unlikely — fingerprint
  // collision, which simply gets a fresh id and never aliases cached
  // results of the old one).
  compose_maps_.push_back(map);
  const std::uint32_t id =
      static_cast<std::uint32_t>(compose_maps_.size() - 1);
  compose_fingerprints_[fingerprint] = id;
  return id + 1;
}

// hyde-hot
std::uint32_t Manager::compose_rec(std::uint32_t f,
                                   const std::vector<std::int64_t>& map,
                                   std::uint64_t ctx) {
  if (f <= kOne) return f;
  const std::uint64_t a = op_key(kOpCompose, f);
  std::uint32_t result;
  if (cache_lookup(a, ctx, &result)) return result;
  // Copy fields: make_node/ite_rec below can reallocate the node store.
  const std::int32_t n_var = nodes_[f].var;
  const std::uint32_t n_lo = nodes_[f].lo;
  const std::uint32_t n_hi = nodes_[f].hi;
  const std::uint32_t lo = compose_rec(n_lo, map, ctx);
  const std::uint32_t hi = compose_rec(n_hi, map, ctx);
  std::uint32_t sub;
  if (static_cast<std::size_t>(n_var) < map.size() && map[n_var] >= 0) {
    sub = static_cast<std::uint32_t>(map[n_var]);
  } else {
    sub = make_node(n_var, kZero, kOne);
  }
  result = ite_rec(sub, hi, lo);
  cache_insert(a, ctx, result);
  return result;
}

Bdd Manager::compose(const Bdd& f, int var, const Bdd& g) {
  check_owned(f);
  check_owned(g);
  if (var < 0 || var >= num_vars_) {
    throw std::invalid_argument("Manager::compose: variable index out of range");
  }
  maybe_gc();
  std::vector<std::int64_t> map(num_vars_, -1);
  map[static_cast<std::size_t>(var)] = g.id_;
  return make_external(compose_rec(f.id_, map, compose_context(map)));
}

Bdd Manager::vector_compose(
    const Bdd& f, const std::unordered_map<int, Bdd, std::hash<int>>& map) {
  check_owned(f);
  // Visit substitutions in sorted-variable order: unordered_map visit order
  // is hash-seed- and history-dependent, and which of several bad entries
  // gets rejected first must not depend on it.
  std::vector<int> vars;
  vars.reserve(map.size());
  // hyde-unordered-ok: key collection only; sorted before any use.
  for (const auto& [var, g] : map) vars.push_back(var);
  std::sort(vars.begin(), vars.end());
  for (const int var : vars) {
    check_owned(map.at(var));
    if (var < 0 || var >= num_vars_) {
      throw std::invalid_argument(
          "Manager::vector_compose: variable index out of range");
    }
  }
  maybe_gc();
  std::vector<std::int64_t> raw(num_vars_, -1);
  for (const int var : vars) {
    raw[static_cast<std::size_t>(var)] = map.at(var).id_;
  }
  return make_external(compose_rec(f.id_, raw, compose_context(raw)));
}

Bdd Manager::permute(const Bdd& f, const std::vector<int>& perm) {
  check_owned(f);
  maybe_gc();
  // perm maps every var in [0, perm.size()) to a target, so both the domain
  // and the targets must exist before `map` (sized num_vars_) is indexed.
  ensure_vars(static_cast<int>(perm.size()));
  for (const int target : perm) ensure_vars(target + 1);
  std::vector<std::int64_t> map(num_vars_, -1);
  for (std::size_t v = 0; v < perm.size(); ++v) {
    if (perm[v] >= 0 && perm[v] != static_cast<int>(v)) {
      map[v] = make_node(perm[v], kZero, kOne);
    }
  }
  return make_external(compose_rec(f.id_, map, compose_context(map)));
}

void Manager::support_rec(std::uint32_t f, std::vector<char>& seen,
                          std::vector<char>& visited) {
  if (f <= kOne || visited[f]) return;
  visited[f] = 1;
  const Node& n = nodes_[f];
  seen[n.var] = 1;
  support_rec(n.lo, seen, visited);
  support_rec(n.hi, seen, visited);
}

std::vector<int> Manager::support(const Bdd& f) {
  check_owned(f);
  std::vector<char> seen(num_vars_, 0);
  std::vector<char> visited(nodes_.size(), 0);
  support_rec(f.id_, seen, visited);
  std::vector<int> vars;
  for (int v = 0; v < num_vars_; ++v) {
    if (seen[v]) vars.push_back(v);
  }
  return vars;
}

double Manager::sat_count_rec(std::uint32_t f,
                              std::unordered_map<std::uint32_t, double>& memo) {
  // Returns the fraction of the full input space satisfying f.
  if (f == kZero) return 0.0;
  if (f == kOne) return 1.0;
  if (auto it = memo.find(f); it != memo.end()) return it->second;
  const Node& n = nodes_[f];
  const double p = 0.5 * (sat_count_rec(n.lo, memo) + sat_count_rec(n.hi, memo));
  memo.emplace(f, p);
  return p;
}

double Manager::sat_count(const Bdd& f, int num_vars) {
  std::unordered_map<std::uint32_t, double> memo;
  const double fraction = sat_count_rec(f.id_, memo);
  return fraction * std::pow(2.0, num_vars);
}

bool Manager::pick_one_minterm(const Bdd& f,
                               std::vector<std::pair<int, bool>>* out) {
  out->clear();
  std::uint32_t cur = f.id_;
  if (cur == kZero) return false;
  while (cur > kOne) {
    const Node& n = nodes_[cur];
    if (n.lo != kZero) {
      out->emplace_back(n.var, false);
      cur = n.lo;
    } else {
      out->emplace_back(n.var, true);
      cur = n.hi;
    }
  }
  return true;
}

std::size_t Manager::node_count(const Bdd& f) {
  std::vector<char> visited(nodes_.size(), 0);
  std::vector<std::uint32_t> stack{f.id_};
  std::size_t count = 0;
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    if (id <= kOne || visited[id]) continue;
    visited[id] = 1;
    ++count;
    stack.push_back(nodes_[id].lo);
    stack.push_back(nodes_[id].hi);
  }
  return count;
}

double Manager::one_path_count(const Bdd& f) {
  check_owned(f);
  std::unordered_map<std::uint32_t, double> memo;
  std::function<double(std::uint32_t)> rec = [&](std::uint32_t id) -> double {
    if (id == kZero) return 0.0;
    if (id == kOne) return 1.0;
    if (auto it = memo.find(id); it != memo.end()) return it->second;
    const double total = rec(nodes_[id].lo) + rec(nodes_[id].hi);
    memo.emplace(id, total);
    return total;
  };
  return rec(f.id_);
}

// ---------------------------------------------------------------------------
// Truth-table bridge and evaluation
// ---------------------------------------------------------------------------

Bdd Manager::from_truth_table(const tt::TruthTable& table,
                              const std::vector<int>& var_map) {
  maybe_gc();
  const int n = table.num_vars();
  std::vector<int> map(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    map[static_cast<std::size_t>(i)] =
        var_map.empty() ? i : var_map[static_cast<std::size_t>(i)];
  }
  ensure_vars(n == 0 ? 0 : 1 + *std::max_element(map.begin(), map.end()));
  // Table variables sorted by ascending manager *level*: the recursion
  // branches on the topmost variable first and builds bottom levels deepest.
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [this, &map](int a, int b) {
    return level_of(map[static_cast<std::size_t>(a)]) <
           level_of(map[static_cast<std::size_t>(b)]);
  });

  std::function<std::uint32_t(int, std::uint64_t)> rec =
      [&](int depth, std::uint64_t offset) -> std::uint32_t {
    if (depth == n) return table.bit(offset) ? kOne : kZero;
    const int tv = order[static_cast<std::size_t>(depth)];
    const std::uint32_t lo = rec(depth + 1, offset);
    const std::uint32_t hi = rec(depth + 1, offset | (std::uint64_t{1} << tv));
    return make_node(map[static_cast<std::size_t>(tv)], lo, hi);
  };
  return make_external(rec(0, 0));
}

tt::TruthTable Manager::to_truth_table(const Bdd& f,
                                       const std::vector<int>& vars) {
  const int n = static_cast<int>(vars.size());
  if (n > tt::TruthTable::kMaxVars) {
    throw std::invalid_argument("to_truth_table: too many variables");
  }
  std::vector<int> table_pos(num_vars_, -1);
  for (int i = 0; i < n; ++i) table_pos[vars[static_cast<std::size_t>(i)]] = i;
  tt::TruthTable result(n);
  for (std::uint64_t m = 0; m < result.size(); ++m) {
    std::uint32_t cur = f.id_;
    while (cur > kOne) {
      const Node& node = nodes_[cur];
      const int level = table_pos[node.var];
      if (level < 0) {
        throw std::invalid_argument(
            "to_truth_table: function depends on a variable outside vars");
      }
      cur = ((m >> level) & 1) ? node.hi : node.lo;
    }
    if (cur == kOne) result.set_bit(m, true);
  }
  return result;
}

bool Manager::eval(const Bdd& f, const std::vector<bool>& assignment) {
  std::uint32_t cur = f.id_;
  while (cur > kOne) {
    const Node& node = nodes_[cur];
    cur = assignment[static_cast<std::size_t>(node.var)] ? node.hi : node.lo;
  }
  return cur == kOne;
}

std::string Manager::to_dot(const Bdd& f, const std::string& name) {
  std::ostringstream os;
  os << "digraph \"" << name << "\" {\n";
  std::vector<char> visited(nodes_.size(), 0);
  std::vector<std::uint32_t> stack{f.id_};
  os << "  n0 [shape=box,label=\"0\"];\n  n1 [shape=box,label=\"1\"];\n";
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    if (id <= kOne || visited[id]) continue;
    visited[id] = 1;
    const Node& n = nodes_[id];
    os << "  n" << id << " [label=\"x" << n.var << "\"];\n";
    os << "  n" << id << " -> n" << n.lo << " [style=dashed];\n";
    os << "  n" << id << " -> n" << n.hi << ";\n";
    stack.push_back(n.lo);
    stack.push_back(n.hi);
  }
  os << "}\n";
  return os.str();
}

}  // namespace hyde::bdd
