/// \file search.hpp
/// \brief Intra-flow bound-set search engine: memoized, pruned evaluation of
/// candidate λ-sets.
///
/// `select_bound_set` (varpart.hpp) greedily grows a bound set, evaluating
/// O(|support| × bound_size) candidate charts per decomposition step — and
/// the flow re-runs the *same* growth for every trial bound size and every
/// encoder trial image. The engine closes two gaps while staying
/// bit-identical to the plain greedy search:
///
///  1. **Chart memo** — column counts are memoized per (ISF roots, candidate
///     bound set). Re-searches at a smaller bound size replay the identical
///     candidate sequence, so they resolve almost entirely out of the memo.
///     Entries pin their root handles, which keeps node ids unique for the
///     lifetime of the entry; the memo clears itself when it outgrows
///     kMemoCapacity.
///  2. **Monotone lower-bound pruning** — the cut traversal only ever
///     *discovers* columns, so a partial count is a lower bound on the true
///     count. A candidate whose partial count exceeds the incumbent best is
///     abandoned mid-enumeration (`count_columns_bounded`); the winner is
///     never pruned, so results are unchanged.
///  3. **Truth-table charts** — when the ISF's support (the union of the
///     supports of on and dc) has at most kTruthTableChartMaxVars variables,
///     select() converts f to two packed truth tables once and counts every
///     candidate, and the final compatible-class count, from them
///     (TruthTableChart in chart.hpp) instead of building a BDD manager per
///     candidate chart. The tables give exactly count_columns_bounded's
///     counts and pruning verdicts and the BDD path's class count, so the
///     search evaluates and prunes the identical candidates either way.
///     Wider supports keep the BDD-cut path. SearchStats::candidates_tt
///     counts the candidates the tables served.
///
/// Determinism contract: for a fixed (f, support, options) the returned
/// `VarPartitionResult` is bit-identical to the plain greedy search that
/// counts every candidate's columns in full. The counters (`SearchStats`)
/// depend on memo contents and are reported only in volatile report
/// sections.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "decomp/varpart.hpp"

namespace hyde::decomp {

/// Engine counters, accumulated across select() calls. Memo contents depend
/// on the engine's history, so treat every field as volatile for report
/// purposes.
struct SearchStats {
  std::uint64_t selects = 0;               ///< select() invocations
  std::uint64_t candidates_evaluated = 0;  ///< charts actually traversed
  std::uint64_t candidates_pruned = 0;     ///< abandoned early (incl. by memo bound)
  std::uint64_t memo_hits = 0;             ///< exact counts served from the memo
  std::uint64_t memo_clears = 0;           ///< capacity resets
  std::uint64_t candidates_tt = 0;  ///< evaluated on the truth-table path
  double seconds = 0.0;                    ///< wall-clock inside select()
};

/// Bound-set search engine over one BDD manager. Not thread-safe: one engine
/// per flow/Decomposer, called from that flow's thread only.
class BoundSetSearch {
 public:
  /// Memo entry cap; the memo clears itself when it would exceed this.
  static constexpr std::size_t kMemoCapacity = std::size_t{1} << 14;

  explicit BoundSetSearch(bdd::Manager& mgr);
  ~BoundSetSearch();

  BoundSetSearch(const BoundSetSearch&) = delete;
  BoundSetSearch& operator=(const BoundSetSearch&) = delete;

  /// Drop-in replacement for select_bound_set: same greedy growth, same
  /// tie-breaks, same result — served through the memo and pruning.
  VarPartitionResult select(const IsfBdd& f, const std::vector<int>& support,
                            const VarPartitionOptions& options);

  const SearchStats& stats() const { return stats_; }
  std::size_t memo_size() const;
  void clear_memo();

 private:
  struct Memo;

  /// One greedy step: picks the pool variable minimizing the column count of
  /// bound ∪ {v} (ties to the smallest variable). Returns the winning
  /// variable and its exact cost.
  std::pair<int, int> grow_step(const IsfBdd& f,
                                const std::vector<int>& support,
                                const std::vector<int>& bound,
                                const std::vector<int>& pool);

  /// The chart of (f, support, \p bound) with bound sorted: the BDD-path
  /// spec; the free set is support minus bound.
  DecompSpec make_spec(const IsfBdd& f, const std::vector<int>& support,
                       const std::vector<int>& bound) const;

  bdd::Manager& mgr_;
  SearchStats stats_;
  /// f of the current select() as truth tables, when its support fits.
  TruthTableChart chart_;
  /// Reorder epoch of mgr_ the memo was built against. Memo entries pin
  /// their roots (ids stay unique) and column counts are order-invariant,
  /// but the epoch contract is observed anyway: a reorder flushes
  /// everything, so a stale hit is impossible by construction.
  std::uint64_t observed_epoch_ = 0;
  std::unique_ptr<Memo> memo_;
};

}  // namespace hyde::decomp
