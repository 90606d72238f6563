/// \file chart.hpp
/// \brief Decomposition-chart enumeration (Roth–Karp / Ashenhurst substrate).
///
/// Given an incompletely specified function f over a manager's variables and
/// a bound (λ) set X, the *decomposition chart* has one column per
/// assignment to X; a column's *pattern* is the residual function f(x, ·) of
/// the remaining (free, μ) variables. This module enumerates the distinct
/// patterns (as ISF pairs of BDDs) together with, per pattern, its indicator
/// function over X.
///
/// Enumeration is a depth-first cofactor walk over X in f's own manager:
/// 2^|X| cofactor pairs, cheap for bound sets capped by the LUT size, with
/// an early exit for bounded counts.
///
/// Functions with at most kTruthTableChartMaxVars support variables have a
/// second path: TruthTableChart holds f as two packed truth tables, where a
/// chart's columns are the distinct blocks of the tables once the bound set
/// is swapped to the top positions. It counts columns for the bound-set
/// search and lays a chart out for class construction (class functions and
/// indicators come from the blocks by one BDD build each), with exactly the
/// results of the cofactor walk (see TruthTableChart for the contract). The
/// walk stays the only path for wider supports; loaded with a larger
/// `max_vars`, the table chart is its test reference.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"

namespace hyde::decomp {

/// An incompletely specified function inside a BDD manager.
struct IsfBdd {
  bdd::Bdd on;
  bdd::Bdd dc;

  /// The offset (specified-0 set); requires a manager.
  bdd::Bdd off() const { return ~(on | dc); }
};

/// The variables f.on or f.dc depends on, ascending. A completely specified
/// f (dc = 0) takes the support of f.on alone.
std::vector<int> isf_support(bdd::Manager& mgr, const IsfBdd& f);

/// A decomposition problem instance: which function, which bound set. Every
/// other variable of f is free (a chart row variable).
struct DecompSpec {
  bdd::Manager* mgr = nullptr;
  IsfBdd f;
  std::vector<int> bound;  ///< λ-set variable indices (chart columns)
};

/// One distinct chart column pattern.
struct Column {
  IsfBdd pattern;   ///< residual function of the free variables
  bdd::Bdd indicator;  ///< function of the bound variables: 1 on this column's minterms
};

/// Hard cap on the bound-set size: the cofactor walk visits every
/// assignment to the bound set, so charts keep an exhaustively enumerable
/// bound region.
inline constexpr int kMaxBoundVars = 16;

/// Packed row-space signature of a chart column. Bit m (bit m%64 of word
/// m/64) is row minterm m over the shared signature variable set — the sorted
/// union of the member pattern supports, a subset of the free set. `on` is
/// the pattern onset, `care` the complement of its dc-set; bits beyond the
/// row count are zero in both, so whole-word operations need no tail mask.
///
/// Two columns are compatible iff
///   (a.on & b.care & ~b.on) == 0  and  (b.on & a.care & ~a.on) == 0
/// word-wise — exactly the BDD test `disjoint(a.on, b.off())` ∧
/// `disjoint(b.on, a.off())`, because every pattern is fully determined by
/// the signature variables.
struct ColumnSignature {
  std::vector<std::uint64_t> on;
  std::vector<std::uint64_t> care;
};

/// Row-space bound for column signatures (rows = 2^|support union|). Wider
/// charts decide compatibility with BDD disjointness tests instead.
inline constexpr int kSignatureMaxRows = 4096;

/// Derives the row signatures of \p columns, or returns an empty vector when
/// the shared row space exceeds kSignatureMaxRows (the caller then falls back
/// to BDD compatibility tests).
std::vector<ColumnSignature> column_signatures(
    const DecompSpec& spec, const std::vector<Column>& columns);

/// Enumerates the distinct column patterns of the chart and their
/// indicators. Deterministic: columns are in first-occurrence order of the
/// assignments walked with bound[0] as the most significant bit (low before
/// high). Bound variables outside f's support double every column's
/// assignments and change no pattern.
/// Throws std::invalid_argument if |bound| exceeds kMaxBoundVars or the
/// manager is null (as do the two counts below).
std::vector<Column> enumerate_columns(const DecompSpec& spec);

/// Number of distinct column patterns, without building indicators. ISFs
/// count distinct (on, dc) pattern pairs, so this is exactly the
/// compatible-class count for completely specified functions and an upper
/// bound for ISFs.
int count_columns(const DecompSpec& spec);

/// Outcome of a bounded column count. When `pruned` is set the walk was
/// abandoned early and `count` is a *lower bound* on the true column count
/// (columns are only ever discovered, never retracted, as the walk
/// proceeds); otherwise `count` is exact.
struct BoundedCount {
  int count = 0;
  bool pruned = false;
};

/// count_columns with an early-exit threshold: the walk stops as soon as
/// more than \p max_columns distinct columns have been discovered (then
/// count == max_columns + 1), so candidate bound sets that are already worse
/// than an incumbent cost the search engine only a prefix of the full
/// enumeration. max_columns <= 0 means unlimited.
BoundedCount count_columns_bounded(const DecompSpec& spec, int max_columns);

/// Support limit of the truth-table chart path: at 16 variables a table is
/// 1024 words, so one candidate costs a few variable swaps and one pass of
/// block hashing. Wider supports (for example 16 primary plus 2 pseudo
/// primary inputs in a hyper-function) take the cofactor walk.
inline constexpr int kTruthTableChartMaxVars = 16;

/// A chart of TruthTableChart laid out for class construction: its columns
/// in enumerate_columns' order and where their bits live.
struct ChartLayout {
  /// Column signatures over row_vars: row minterm m is bit m (bit i of m is
  /// row_vars[i]). Below 64 rows the single word keeps only the low 2^|rows|
  /// bits.
  std::vector<ColumnSignature> columns;
  std::vector<int> row_vars;     ///< the free support variables
  std::vector<int> column_vars;  ///< bound variable of each block-index bit
  /// Column of every block: block b assigns column_vars[j] the bit j of b.
  std::vector<int> block_column;
};

/// A chart engine over f = (on, dc) held as two packed truth tables, one
/// position per variable. Counting a bound set swaps its variables to the
/// top positions (word-level swaps, so at most one swap per variable that is
/// not already there), which makes every chart column a contiguous block of
/// both tables; the columns are the distinct (on, dc) block pairs. Bound
/// variables outside f's support do not shape the columns and are ignored;
/// table variables f does not depend on change no count and no class.
///
/// Identity contract, for every bound set and threshold:
///  - count_columns(bound, t) equals count_columns_bounded(spec, t) — exact
///    when not pruned, pruned iff the true count exceeds t > 0, and then
///    count == t + 1;
///  - layout(bound) lists the columns in enumerate_columns' order (first
///    occurrence with bound[0] as the most significant assignment bit), so
///    the compatible classes derived from it (compatible.hpp) are those of
///    the cofactor walk, BDD for BDD.
///
/// Holds scratch buffers and no shared state: one chart per search engine.
class TruthTableChart {
 public:
  /// Converts f to tables over the union of the supports of f.on and f.dc.
  /// Returns false, leaving the chart unloaded, when that support exceeds
  /// \p max_vars (the search engine always passes the default; tests and
  /// benches pass a larger limit to check or measure past it).
  bool load(bdd::Manager& mgr, const IsfBdd& f,
            int max_vars = kTruthTableChartMaxVars);
  /// Adopts f as packed tables over \p vars (bit i of a minterm is
  /// vars[i], the layout of tt::TruthTable::words()). Returns false, leaving
  /// the chart unloaded, when vars has more than kTruthTableChartMaxVars
  /// entries.
  bool load(std::vector<int> vars, std::vector<std::uint64_t> on,
            std::vector<std::uint64_t> dc);
  bool loaded() const { return loaded_; }

  /// Column count of the chart with bound set \p bound, stopping once more
  /// than \p max_columns distinct columns are found (<= 0: unlimited).
  BoundedCount count_columns(const std::vector<int>& bound, int max_columns);

  /// True iff f's don't-care set is empty.
  bool dc_is_zero() const;

  /// The chart with bound set \p bound, laid out for class construction.
  ChartLayout layout(const std::vector<int>& bound);

 private:
  /// Swaps the in-support variables of \p bound to the top positions (in
  /// bound order from position n-1 down when \p exact, else in whatever
  /// order needs the fewest swaps); returns how many there are.
  int arrange(const std::vector<int>& bound, bool exact);
  /// Distinct-block count with the top \p p positions bound; leaves the
  /// first block of every column in reps_, and the column of every block in
  /// \p block_column when that is non-null.
  BoundedCount count_blocks(int p, int max_columns,
                            std::vector<int>* block_column);

  bool loaded_ = false;
  int num_vars_ = 0;
  std::vector<std::uint64_t> on_;
  std::vector<std::uint64_t> dc_;
  std::vector<int> at_;        ///< variable at each table position
  std::vector<int> top_vars_;  ///< scratch: in-support bound variables
  std::vector<std::int32_t> slots_;  ///< scratch: open-addressed column set
  std::vector<std::size_t> reps_;    ///< scratch: first block per column
};

/// Builds the BDD cube for an assignment to the given variables
/// (bit i of \p minterm corresponds to vars[i]).
bdd::Bdd minterm_cube(bdd::Manager& mgr, const std::vector<int>& vars,
                      std::uint64_t minterm);

}  // namespace hyde::decomp
