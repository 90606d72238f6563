/// \file compatible.hpp
/// \brief Compatible classes and don't-care assignment (paper Section 3.1).
///
/// For a completely specified function, chart columns with equal patterns are
/// compatible and compatibility is an equivalence — classes are simply the
/// distinct columns. With don't cares, two columns are compatible iff they
/// agree wherever *both* care; this relation is not transitive, so grouping
/// columns into a minimum number of classes is the NP-complete *clique
/// partitioning* problem on the column-compatibility graph. The paper assigns
/// don't cares by solving it with the polynomial heuristic of [9]
/// (graph/matching.hpp), minimizing the class count rather than the supports
/// as [8] did.

#pragma once

#include <vector>

#include "decomp/chart.hpp"

namespace hyde::decomp {

/// One compatible class: merged behaviour of its member columns.
struct CompatibleClass {
  IsfBdd function;     ///< class function over the free variables
  bdd::Bdd indicator;  ///< function of the bound variables selecting the class
  std::vector<int> columns;  ///< member column indices (into ClassResult::columns)
};

/// The outcome of compatible-class computation.
struct ClassResult {
  std::vector<Column> columns;
  std::vector<CompatibleClass> classes;

  int num_classes() const { return static_cast<int>(classes.size()); }
  /// Number of α-functions needed by a rigid strict encoding.
  int code_bits() const;
};

/// Policy for grouping columns into classes.
enum class DcPolicy {
  /// Treat each distinct (on, dc) column as its own class; no DC merging.
  kDistinctColumns,
  /// Merge compatible columns via clique partitioning (the paper's method).
  kCliquePartition,
};

/// Counters for the class-computation engine. All values are volatile
/// observations (which fast path fired); results never depend on them.
struct ClassStats {
  /// Column pairs decided by packed-signature word operations.
  std::uint64_t signature_pairs = 0;
  /// Column pairs decided by BDD disjointness tests (fallback path).
  std::uint64_t bdd_pairs = 0;

  void operator+=(const ClassStats& other) {
    signature_pairs += other.signature_pairs;
    bdd_pairs += other.bdd_pairs;
  }
};

/// Computes the compatible classes of the chart of \p spec. When the support
/// of spec.f has at most kTruthTableChartMaxVars variables and the row space
/// fits kSignatureMaxRows, the chart is one TruthTableChart: columns, class
/// functions and indicators are built from its blocks (build_classes).
/// Otherwise the chart is enumerated by the cofactor walk, and column pairs
/// are decided by packed row signatures when the shared row space of the
/// patterns fits kSignatureMaxRows, else by per-pair BDD disjointness tests.
/// Every path gives the same result, BDD for BDD. \p stats, when non-null,
/// counts which test decided the pairs.
ClassResult compute_compatible_classes(
    const DecompSpec& spec, DcPolicy policy = DcPolicy::kCliquePartition,
    ClassStats* stats = nullptr);

/// Number of compatible classes only (convenience for cost functions); takes
/// the truth-table path under the same condition as
/// compute_compatible_classes.
int count_compatible_classes(const DecompSpec& spec,
                             DcPolicy policy = DcPolicy::kCliquePartition,
                             ClassStats* stats = nullptr);

/// count_compatible_classes of the chart with bound set \p bound, on a
/// loaded TruthTableChart of the same f: the columns come from the tables in
/// enumerate_columns' order and go through the same signature adjacency and
/// clique partition, so the result is identical.
int count_compatible_classes(TruthTableChart& chart,
                             const std::vector<int>& bound,
                             DcPolicy policy = DcPolicy::kCliquePartition,
                             ClassStats* stats = nullptr);

/// The member columns of each class of the chart with bound set \p bound on a
/// loaded TruthTableChart, in ChartLayout's column order: one group per
/// column under kDistinctColumns or without don't cares (distinct columns of
/// a completely specified chart are pairwise incompatible), else the clique
/// partition of the signature compatibility graph, exactly as
/// compute_compatible_classes groups them. \p stats, when non-null, counts
/// the pairs decided.
std::vector<std::vector<int>> class_groups(TruthTableChart& chart,
                                           const std::vector<int>& bound,
                                           DcPolicy policy,
                                           ClassStats* stats = nullptr);

/// The ClassResult of a laid-out chart whose columns are grouped by
/// \p groups (from class_groups): what compute_compatible_classes returns
/// for the same chart.
ClassResult build_classes(bdd::Manager& mgr, const ChartLayout& layout,
                          const std::vector<std::vector<int>>& groups);

/// True iff two column patterns agree on their common care set.
bool columns_compatible(bdd::Manager& mgr, const IsfBdd& a, const IsfBdd& b);

/// An ISF and its support (isf_support of the function).
struct ReducedIsf {
  IsfBdd f;
  std::vector<int> support;
};

/// Drops every variable whose two cofactors are compatible (the ISF does
/// not need to depend on it), merging the cofactors, and repeats until no
/// variable drops. Only don't cares can make the cofactors of a support
/// variable compatible, so a completely specified f is returned as it is,
/// with the support of f.on.
ReducedIsf reduce_support(bdd::Manager& mgr, IsfBdd f);

/// Merges a set of pairwise-compatible columns into one class function:
/// onset is the union of onsets, don't-care set shrinks to the positions no
/// member cares about.
IsfBdd merge_columns(bdd::Manager& mgr, const std::vector<Column>& columns,
                     const std::vector<int>& members);

}  // namespace hyde::decomp
