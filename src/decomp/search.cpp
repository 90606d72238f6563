#include "decomp/search.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <climits>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace hyde::decomp {

namespace {

// hyde-hot
std::size_t combine_hash(std::size_t seed, std::size_t value) {
  // Boost-style mix; the constant is the 64-bit golden ratio.
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Strict-weak order of the greedy selection: smaller column count first,
/// then the smaller variable index. Matches the legacy select_bound_set
/// update rule, so the reduction is independent of evaluation order.
// hyde-hot
bool better_candidate(int cost, int var, int best_cost, int best_var) {
  if (best_var < 0) return true;
  if (cost != best_cost) return cost < best_cost;
  return var < best_var;
}

}  // namespace

DecompSpec BoundSetSearch::make_spec(const IsfBdd& f,
                                     const std::vector<int>& support,
                                     const std::vector<int>& bound) const {
  DecompSpec spec;
  spec.mgr = &mgr_;
  spec.f = f;
  spec.bound = bound;
  for (int v : support) {
    if (!std::binary_search(bound.begin(), bound.end(), v)) {
      spec.free.push_back(v);
    }
  }
  return spec;
}

/// Memoized column count for one (ISF, bound set). `lower_bound == false`
/// means `count` is exact; otherwise the candidate was pruned when this was
/// recorded and `count` is a proven lower bound on the true column count.
/// Entries hold the ISF root handles: the external references pin the nodes,
/// so the (on id, dc id) pair in the key denotes this function — and no
/// other — for as long as the entry lives.
struct BoundSetSearch::Memo {
  struct Key {
    std::uint32_t on_id = 0;
    std::uint32_t dc_id = 0;
    std::vector<int> bound;  ///< sorted (counts are order-invariant)

    bool operator==(const Key& rhs) const {
      return on_id == rhs.on_id && dc_id == rhs.dc_id && bound == rhs.bound;
    }
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::size_t h = combine_hash(key.on_id, key.dc_id);
      for (int v : key.bound) {
        h = combine_hash(h, static_cast<std::size_t>(v));
      }
      return h;
    }
  };

  struct Entry {
    bdd::Bdd on;
    bdd::Bdd dc;
    int count = 0;
    bool lower_bound = false;
  };

  std::unordered_map<Key, Entry, KeyHash> table;
};

BoundSetSearch::BoundSetSearch(bdd::Manager& mgr)
    : mgr_(mgr), memo_(new Memo) {}

BoundSetSearch::~BoundSetSearch() = default;

std::size_t BoundSetSearch::memo_size() const { return memo_->table.size(); }

void BoundSetSearch::clear_memo() { memo_->table.clear(); }

std::pair<int, int> BoundSetSearch::grow_step(
    const IsfBdd& f, const std::vector<int>& support,
    const std::vector<int>& bound, const std::vector<int>& pool) {
  struct Candidate {
    int var = -1;
    int cost = -1;       ///< exact column count once known
    bool exact = false;  ///< cost is exact (memo hit or evaluated)
    bool pruned = false;
    int memo_lb = 0;  ///< lower bound from a pruned memo entry, 0 if none
    std::vector<int> sorted_bound;  ///< bound ∪ {var}, sorted (memo key)
  };
  std::vector<Candidate> candidates(pool.size());

  // Pre-pass: resolve memo hits, establish the initial pruning incumbent
  // from exact entries.
  int incumbent = INT_MAX;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Candidate& c = candidates[i];
    c.var = pool[i];
    c.sorted_bound = bound;
    c.sorted_bound.push_back(c.var);
    std::sort(c.sorted_bound.begin(), c.sorted_bound.end());
    Memo::Key key{f.on.id(), f.dc.id(), c.sorted_bound};
    auto it = memo_->table.find(key);
    if (it == memo_->table.end()) continue;
    if (it->second.lower_bound) {
      c.memo_lb = it->second.count;
    } else {
      c.cost = it->second.count;
      c.exact = true;
      ++stats_.memo_hits;
      incumbent = std::min(incumbent, c.cost);
    }
  }

  // A memo lower bound that already exceeds an exact incumbent proves the
  // candidate cannot win (cost >= lb > incumbent rules out even the
  // tie-break), so it is pruned without touching a chart. The remaining
  // candidates are swept with a running incumbent: later candidates prune
  // against the best exact cost seen so far.
  for (Candidate& c : candidates) {
    if (c.exact) continue;
    if (incumbent != INT_MAX && c.memo_lb > incumbent) {
      c.pruned = true;
      c.cost = c.memo_lb;
      ++stats_.candidates_pruned;
    }
  }
  for (Candidate& c : candidates) {
    if (c.exact || c.pruned) continue;
    ++stats_.candidates_evaluated;
    const int threshold = incumbent != INT_MAX ? incumbent : 0;
    BoundedCount bc;
    if (chart_.loaded()) {
      ++stats_.candidates_tt;
      bc = chart_.count_columns(c.sorted_bound, threshold);
    } else {
      bc = count_columns_bounded(make_spec(f, support, c.sorted_bound),
                                 threshold);
    }
    c.cost = bc.count;
    if (bc.pruned) {
      c.pruned = true;
      ++stats_.candidates_pruned;
    } else {
      c.exact = true;
      incumbent = std::min(incumbent, c.cost);
    }
  }

  // Reduction in candidate index order. Only exact candidates compete; a
  // pruned candidate's true cost strictly exceeds some exact cost, so it
  // can never be the (min cost, min var) winner.
  int best_var = -1;
  int best_cost = -1;
  for (const Candidate& c : candidates) {
    if (!c.exact) continue;
    if (better_candidate(c.cost, c.var, best_cost, best_var)) {
      best_var = c.var;
      best_cost = c.cost;
    }
  }
  assert(best_var >= 0);  // the step winner is never pruned

  // Memo update after the reduction, so recorded bounds are deterministic:
  // exact counts as-is; pruned candidates get step_best + 1, valid because
  // a pruned cost strictly exceeds a threshold that was itself an exact
  // cost >= step_best.
  if (memo_->table.size() + candidates.size() > kMemoCapacity) {
    memo_->table.clear();
    ++stats_.memo_clears;
  }
  for (Candidate& c : candidates) {
    Memo::Key key{f.on.id(), f.dc.id(), std::move(c.sorted_bound)};
    auto [it, inserted] = memo_->table.try_emplace(key);
    Memo::Entry& entry = it->second;
    if (inserted) {
      entry.on = f.on;
      entry.dc = f.dc;
      entry.count = c.exact ? c.cost : best_cost + 1;
      entry.lower_bound = !c.exact;
    } else if (entry.lower_bound) {
      if (c.exact) {
        entry.count = c.cost;
        entry.lower_bound = false;
      } else {
        entry.count = std::max(entry.count, best_cost + 1);
      }
    }
  }

  return {best_var, best_cost};
}

VarPartitionResult BoundSetSearch::select(const IsfBdd& f,
                                          const std::vector<int>& support,
                                          const VarPartitionOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  ++stats_.selects;

  // hyde-reorder-scope: the memo keys on raw node ids of mgr_, valid only
  // within one reorder epoch of the source manager.
  if (mgr_.reorder_epoch() != observed_epoch_) {
    if (!memo_->table.empty()) ++stats_.memo_clears;
    clear_memo();
    observed_epoch_ = mgr_.reorder_epoch();
  }

  VarPartitionResult result;
  if (options.bound_size <= 0 ||
      options.bound_size > static_cast<int>(support.size())) {
    stats_.seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return result;  // no valid partition
  }
  if (options.bound_size > kMaxBoundVars) {
    throw std::invalid_argument("select_bound_set: bound size too large");
  }

  // One conversion serves every candidate of this select and its final
  // class count; wider supports leave the chart unloaded (BDD-cut path).
  chart_.load(mgr_, f);

  std::vector<int> preferred, avoided;
  for (int v : support) {
    if (std::find(options.avoid.begin(), options.avoid.end(), v) !=
        options.avoid.end()) {
      avoided.push_back(v);
    } else {
      preferred.push_back(v);
    }
  }

  // Greedy growth: add the candidate minimizing the column count; avoided
  // variables are considered only once the preferred pool is exhausted.
  std::vector<int> bound;
  while (static_cast<int>(bound.size()) < options.bound_size) {
    std::vector<int>& pool = !preferred.empty() ? preferred : avoided;
    if (pool.empty()) break;
    const auto [best_var, best_cost] =
        grow_step(f, support, bound, pool);
    (void)best_cost;
    bound.push_back(best_var);
    pool.erase(std::find(pool.begin(), pool.end(), best_var));
  }
  std::sort(bound.begin(), bound.end());

  const DecompSpec spec = make_spec(f, support, bound);
  result.bound = spec.bound;
  result.free = spec.free;
  result.num_classes =
      chart_.loaded()
          ? count_compatible_classes(chart_, spec.bound, options.dc_policy)
          : count_compatible_classes(spec, options.dc_policy);
  result.success = true;
  if (options.require_nontrivial &&
      result.code_bits() >= static_cast<int>(result.bound.size())) {
    result.success = false;
  }

  stats_.seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace hyde::decomp
