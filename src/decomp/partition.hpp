/// \file partition.hpp
/// \brief Partitions (Π) — symbolic column-pattern notation (Definition 3.1).
///
/// A partition is the symbolic signature of a function's chart w.r.t. a
/// *position* variable set P: position p (an assignment to P) carries a
/// symbol identifying the residual pattern f(p, ·). Two positions carry the
/// same symbol iff their patterns are equal. Symbols are *global,
/// content-based* identifiers drawn from a shared SymbolTable, so that
/// symbols can be compared across partitions — Example 3.2's Π's and the Bc
/// benefit of Step 7 require exactly this.
///
/// The module also provides the conjunction partition Πc (vertical stacking
/// in the same chart column), the disjunction partition Πd (horizontal
/// concatenation in the same row), multiplicity, and containment
/// (Definition 4.6), which underpins the pliable-sharing Theorems 4.3/4.4.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "decomp/chart.hpp"

namespace hyde::decomp {

/// Interns pattern content as dense symbol ids shared across partitions.
class SymbolTable {
 public:
  /// Returns the symbol for an (on, dc) pattern pair, interning new content.
  int id_of(const bdd::Bdd& on, const bdd::Bdd& dc);
  /// Number of distinct symbols interned so far ("n kinds of symbols").
  int size() const { return static_cast<int>(holders_.size()); }

 private:
  std::unordered_map<std::uint64_t, int> ids_;
  std::vector<std::pair<bdd::Bdd, bdd::Bdd>> holders_;  // keeps content alive
};

/// A partition: symbols[p] is the symbol at position p.
struct Partition {
  std::vector<int> symbols;

  int num_positions() const { return static_cast<int>(symbols.size()); }
  /// Number of distinct symbols (the paper's "multiplicity").
  int multiplicity() const;
  /// Groups of positions carrying equal symbols, each of size >= 2,
  /// deterministically ordered — the paper's "positions with the same
  /// content" (Psc) sets of Figure 4(a).
  std::vector<std::vector<int>> same_content_position_sets() const;
  /// Renumbers symbols by first occurrence (canonical form, content ignored).
  Partition canonical() const;
  /// "<s0,s1,...>" display form used throughout the paper.
  std::string to_string() const;

  bool operator==(const Partition&) const = default;
};

/// Builds the partition of \p f w.r.t. the position variables: position p is
/// an assignment to \p position_vars (bit i ↦ position_vars[i]); the symbol
/// is the interned content of the residual cofactor.
Partition make_partition(bdd::Manager& mgr, const IsfBdd& f,
                         const std::vector<int>& position_vars,
                         SymbolTable& symbols);

/// Conjunction partition Πc: position-wise tuples of the operands' symbols,
/// renumbered by first occurrence. Note the result's symbols live in a local
/// namespace (tuples have no global content); use it for multiplicity and
/// containment analysis. All operands must share the position count.
Partition conjunction(const std::vector<Partition>& parts);

/// Disjunction partition Πd: concatenation of the operands' symbol strings
/// (global symbols preserved), as used to represent merged row sets.
Partition disjunction(const std::vector<Partition>& parts);

/// Definition 4.6: A is contained by B iff multiplicity(B) equals
/// multiplicity(Πc{A, B}).
bool contained_in(const Partition& a, const Partition& b);

}  // namespace hyde::decomp
