/// \file search.hpp
/// \brief Intra-flow bound-set search engine: pruned evaluation of candidate
/// λ-sets.
///
/// The bound-set selection of varpart.hpp: select() greedily grows a bound
/// set, evaluating O(|support| × bound_size) candidate charts per
/// decomposition step. The engine grows each bound set once and stays
/// bit-identical to the plain greedy search:
///
///  1. **One growth per step** — the greedy set of a smaller size is a
///     prefix of the larger one's picks (a step never looks at the target
///     size), so a non-trivial search grows to bound_size once and walks the
///     prefixes from the full size down to 2 instead of regrowing each size.
///  2. **Monotone lower-bound pruning** — the column walk only ever
///     *discovers* columns, so a partial count is a lower bound on the true
///     count. A candidate whose partial count exceeds the incumbent best is
///     abandoned mid-enumeration (`count_columns_bounded`); the winner is
///     never pruned, so results are unchanged.
///  3. **Truth-table charts** — when the ISF's support (the union of the
///     supports of on and dc) has at most kTruthTableChartMaxVars variables,
///     select() converts f to two packed truth tables once and counts every
///     candidate from them (TruthTableChart in chart.hpp) instead of
///     walking each candidate's cofactors. The tables give exactly
///     count_columns_bounded's counts and pruning verdicts, so the search
///     evaluates and prunes the identical candidates either way. Wider
///     supports take the cofactor walk. SearchStats::candidates_tt counts the
///     candidates the tables served.
///  4. **One chart per step** — on the table path select() also returns
///     the column groups of its result's classes
///     (VarPartitionResult::class_groups), and classes() builds the
///     ClassResult from the same chart: no second enumeration and no second
///     clique partition. evaluate() gives a caller-chosen bound set (the
///     encoder's λ' hint) the same treatment.
///
/// Determinism contract: for a fixed (f, support, options) the returned
/// `VarPartitionResult` (class_groups aside) is bit-identical to the plain
/// greedy search that counts every candidate's columns in full, rerun at
/// every size from bound_size down to 2 when a non-trivial partition is
/// required.

#pragma once

#include <cstdint>
#include <vector>

#include "decomp/varpart.hpp"

namespace hyde::decomp {

/// Engine counters, accumulated across select() calls. With the NPN cache on,
/// which job computes a template (and so runs its searches) depends on the
/// schedule, so treat every field as volatile for report purposes.
struct SearchStats {
  std::uint64_t selects = 0;               ///< select() invocations
  std::uint64_t candidates_evaluated = 0;  ///< charts actually traversed
  std::uint64_t candidates_pruned = 0;     ///< abandoned early
  std::uint64_t candidates_tt = 0;  ///< evaluated on the truth-table path
  double seconds = 0.0;                    ///< wall-clock inside select()
};

/// Bound-set search engine over one BDD manager. Not thread-safe: one engine
/// per flow/Decomposer, called from that flow's thread only.
class BoundSetSearch {
 public:
  explicit BoundSetSearch(bdd::Manager& mgr) : mgr_(mgr) {}

  BoundSetSearch(const BoundSetSearch&) = delete;
  BoundSetSearch& operator=(const BoundSetSearch&) = delete;

  /// Selects a bound set of options.bound_size variables out of \p support
  /// (f's support), minimizing the compatible-class count: the greedy growth
  /// of varpart.hpp, served through pruning and truth tables; the rest of
  /// the support becomes the free set. With options.require_nontrivial the
  /// result is the largest greedy prefix of at least 2 variables whose
  /// classes need fewer code bits than its size (success=false when none
  /// does).
  VarPartitionResult select(const IsfBdd& f, const std::vector<int>& support,
                            const VarPartitionOptions& options);

  /// The partition of f with the given bound set and the rest of \p support
  /// free, as select() would report it (success set, class groups on the
  /// table path), without a search: no SearchStats move. \p stats counts
  /// the column pairs decided.
  VarPartitionResult evaluate(const IsfBdd& f, const std::vector<int>& support,
                              const std::vector<int>& bound, DcPolicy policy,
                              ClassStats* stats = nullptr);

  /// The compatible classes of \p vp, the result of the latest select() or
  /// evaluate() for f: built from that call's chart and class groups when it
  /// has them, else by compute_compatible_classes (which counts its pairs in
  /// \p stats). The same ClassResult either way.
  ClassResult classes(const IsfBdd& f, const VarPartitionResult& vp,
                      DcPolicy policy, ClassStats* stats = nullptr);

  const SearchStats& stats() const { return stats_; }

 private:
  /// One greedy step: returns the pool variable minimizing the column count
  /// of bound ∪ {v} (ties to the smallest variable).
  int grow_step(const IsfBdd& f, const std::vector<int>& bound,
                const std::vector<int>& pool);

  bdd::Manager& mgr_;
  SearchStats stats_;
  /// f of the latest select() or evaluate() as truth tables, when its
  /// support fits.
  TruthTableChart chart_;
};

}  // namespace hyde::decomp
