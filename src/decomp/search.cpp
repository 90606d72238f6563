#include "decomp/search.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

namespace hyde::decomp {

namespace {

/// Strict-weak order of the greedy selection: smaller column count first,
/// then the smaller variable index. Matches the plain greedy search's
/// update rule, so the reduction is independent of evaluation order.
// hyde-hot
bool better_candidate(int cost, int var, int best_cost, int best_var) {
  if (best_var < 0) return true;
  if (cost != best_cost) return cost < best_cost;
  return var < best_var;
}

/// The variables of \p support outside \p bound, in support order.
std::vector<int> free_vars(const std::vector<int>& support,
                           const std::vector<int>& bound) {
  std::vector<int> free;
  for (int v : support) {
    if (std::find(bound.begin(), bound.end(), v) == bound.end()) {
      free.push_back(v);
    }
  }
  return free;
}

}  // namespace

int BoundSetSearch::grow_step(const IsfBdd& f, const std::vector<int>& bound,
                              const std::vector<int>& pool) {
  // One sweep with a running incumbent: a candidate whose partial count
  // exceeds the best exact count seen so far cannot win (its cost strictly
  // exceeds an exact cost, which rules out even the tie-break), so its count
  // is abandoned there. The winner is never pruned.
  int best_var = -1;
  int best_cost = 0;
  std::vector<int> trial;
  for (int v : pool) {
    trial = bound;
    trial.push_back(v);
    std::sort(trial.begin(), trial.end());
    ++stats_.candidates_evaluated;
    const int threshold = best_var >= 0 ? best_cost : 0;
    BoundedCount bc;
    if (chart_.loaded()) {
      ++stats_.candidates_tt;
      bc = chart_.count_columns(trial, threshold);
    } else {
      bc = count_columns_bounded(DecompSpec{&mgr_, f, trial}, threshold);
    }
    if (bc.pruned) {
      ++stats_.candidates_pruned;
    } else if (better_candidate(bc.count, v, best_cost, best_var)) {
      best_var = v;
      best_cost = bc.count;
    }
  }
  assert(best_var >= 0);  // the step winner is never pruned
  return best_var;
}

VarPartitionResult BoundSetSearch::select(const IsfBdd& f,
                                          const std::vector<int>& support,
                                          const VarPartitionOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  ++stats_.selects;

  VarPartitionResult result;
  if (options.bound_size <= 0 ||
      options.bound_size > static_cast<int>(support.size())) {
    stats_.seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return result;  // no valid partition
  }
  if (options.bound_size > kMaxBoundVars) {
    throw std::invalid_argument("BoundSetSearch::select: bound size too large");
  }

  // One conversion serves every candidate of this select and its final
  // class counts; wider supports leave the chart unloaded (cofactor walk).
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

  // Greedy growth, in pick order: add the candidate minimizing the column
  // count; avoided variables are considered only once the preferred pool is
  // exhausted.
  std::vector<int> picked;
  while (static_cast<int>(picked.size()) < options.bound_size) {
    std::vector<int>& pool = !preferred.empty() ? preferred : avoided;
    if (pool.empty()) break;
    const int best_var = grow_step(f, picked, pool);
    picked.push_back(best_var);
    pool.erase(std::find(pool.begin(), pool.end(), best_var));
  }

  // The greedy set of each smaller size is a prefix of the picks, so a
  // trivial partition walks down the prefixes to 2 instead of regrowing.
  for (int size = static_cast<int>(picked.size());; --size) {
    result.bound.assign(picked.begin(), picked.begin() + size);
    std::sort(result.bound.begin(), result.bound.end());
    result.free = free_vars(support, result.bound);
    if (chart_.loaded()) {
      result.class_groups =
          class_groups(chart_, result.bound, options.dc_policy);
      result.num_classes = static_cast<int>(result.class_groups.size());
    } else {
      result.num_classes = count_compatible_classes(
          DecompSpec{&mgr_, f, result.bound}, options.dc_policy);
    }
    result.success = !options.require_nontrivial ||
                     result.code_bits() < static_cast<int>(result.bound.size());
    if (result.success || size <= 2) break;
  }

  stats_.seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

VarPartitionResult BoundSetSearch::evaluate(const IsfBdd& f,
                                            const std::vector<int>& support,
                                            const std::vector<int>& bound,
                                            DcPolicy policy,
                                            ClassStats* stats) {
  VarPartitionResult result;
  result.success = true;
  result.bound = bound;
  result.free = free_vars(support, bound);
  if (chart_.load(mgr_, f)) {
    result.class_groups = class_groups(chart_, bound, policy, stats);
    result.num_classes = static_cast<int>(result.class_groups.size());
  } else {
    result.num_classes =
        count_compatible_classes(DecompSpec{&mgr_, f, bound}, policy, stats);
  }
  return result;
}

ClassResult BoundSetSearch::classes(const IsfBdd& f,
                                    const VarPartitionResult& vp,
                                    DcPolicy policy, ClassStats* stats) {
  if (vp.class_groups.empty()) {
    return compute_compatible_classes(DecompSpec{&mgr_, f, vp.bound}, policy,
                                      stats);
  }
  return build_classes(mgr_, chart_.layout(vp.bound), vp.class_groups);
}

}  // namespace hyde::decomp
