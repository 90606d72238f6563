/// \file truth_table.hpp
/// \brief Value-semantic dynamic truth tables for small Boolean functions.
///
/// A TruthTable represents a completely specified Boolean function
/// f : B^n -> B with n up to TruthTable::kMaxVars, stored as a packed bit
/// vector of 2^n bits (minterm m holds f(m), with variable 0 as the least
/// significant bit of the minterm index).
///
/// Truth tables are the fast path of the decomposition engine for functions
/// whose support fits; larger functions use the BDD package (src/bdd), which
/// can convert to/from TruthTable on demand.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace hyde::tt {

/// Completely specified Boolean function over a fixed number of variables.
///
/// All bitwise operators act pointwise on the function table and require both
/// operands to have the same number of variables.
class TruthTable {
 public:
  /// Hard cap on the variable count (2^24 bits = 2 MiB per table).
  static constexpr int kMaxVars = 24;

  /// Constructs the constant-zero function over \p num_vars variables.
  explicit TruthTable(int num_vars = 0);

  /// Returns the constant-zero function over \p num_vars variables.
  static TruthTable zeros(int num_vars) { return TruthTable(num_vars); }
  /// Returns the constant-one function over \p num_vars variables.
  static TruthTable ones(int num_vars);
  /// Returns the projection function f = x_{var} over \p num_vars variables.
  static TruthTable var(int num_vars, int var);
  /// Parses a bit string, most significant minterm first, e.g. "0110" is XOR
  /// of two variables (bit i of the string is minterm 2^n-1-i).
  static TruthTable from_bits(std::string_view bits);
  /// Builds the minterm indicator: 1 exactly on \p minterm.
  static TruthTable minterm(int num_vars, std::uint64_t minterm);
  /// Builds a totally symmetric function: output is 1 iff the number of input
  /// ones appears in \p ones_counts.
  static TruthTable symmetric(int num_vars, const std::vector<int>& ones_counts);
  /// Builds a function from a per-minterm predicate.
  static TruthTable from_lambda(int num_vars,
                                const std::function<bool(std::uint64_t)>& fn);
  /// Adopts packed words in the layout of words(); bits past 2^num_vars are
  /// cleared. Throws std::invalid_argument on a wrong word count.
  static TruthTable from_words(int num_vars, std::vector<std::uint64_t> words);

  int num_vars() const { return num_vars_; }
  /// Number of minterms, 2^num_vars().
  std::uint64_t size() const { return std::uint64_t{1} << num_vars_; }

  bool bit(std::uint64_t m) const {
    return (words_[m >> 6] >> (m & 63)) & 1u;
  }
  void set_bit(std::uint64_t m, bool value);

  /// Evaluates the function on a full input assignment given as a minterm.
  bool eval(std::uint64_t minterm_index) const { return bit(minterm_index); }

  bool is_zero() const;
  bool is_one() const;

  /// Number of onset minterms.
  std::uint64_t count_ones() const;

  /// True iff the function's value depends on variable \p var.
  bool depends_on(int var) const;
  /// Indices of all variables the function depends on, ascending.
  std::vector<int> support() const;

  /// Cofactor with respect to x_{var} = value; the result still ranges over
  /// the same variable set but no longer depends on \p var.
  TruthTable cofactor(int var, bool value) const;

  /// Existential quantification over \p var (f|var=0 | f|var=1).
  TruthTable exists(int var) const;
  /// Universal quantification over \p var (f|var=0 & f|var=1).
  TruthTable forall(int var) const;

  /// Reorders variables: new variable i corresponds to old variable
  /// \p perm[i]; \p perm must be a permutation of [0, num_vars).
  TruthTable permute(const std::vector<int>& perm) const;

  /// Substitutes !x_{var} for x_{var}: bit m of the result is bit
  /// m ^ (1 << var) of this table (swaps the two cofactor halves).
  TruthTable flip_var(int var) const;

  /// Projects onto the given variables: the result has vars.size() variables,
  /// where new variable i is old variable vars[i]. The function must not
  /// depend on any variable outside \p vars.
  TruthTable project(const std::vector<int>& vars) const;

  /// Inverse of project: embeds this table into a space of \p new_num_vars
  /// variables, mapping current variable i to \p placement[i] (in range;
  /// two variables on one position read the same input). Word-level.
  TruthTable expand(int new_num_vars, const std::vector<int>& placement) const;

  TruthTable operator~() const;
  TruthTable& operator&=(const TruthTable& rhs);
  TruthTable& operator|=(const TruthTable& rhs);
  TruthTable& operator^=(const TruthTable& rhs);
  friend TruthTable operator&(TruthTable a, const TruthTable& b) { return a &= b; }
  friend TruthTable operator|(TruthTable a, const TruthTable& b) { return a |= b; }
  friend TruthTable operator^(TruthTable a, const TruthTable& b) { return a ^= b; }
  bool operator==(const TruthTable& rhs) const = default;

  /// True iff this function implies \p rhs pointwise (this <= rhs).
  bool implies(const TruthTable& rhs) const;

  /// Bit string, most significant minterm first (inverse of from_bits).
  std::string to_bits() const;

  /// 64-bit content hash (FNV-1a over words and the variable count).
  std::uint64_t hash() const;

  /// Raw 64-bit words of the function table, minterm 0 in bit 0 of word 0.
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  void check_same_shape(const TruthTable& rhs) const;
  void mask_tail();

  int num_vars_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Exchanges variables \p i and \p j of a packed table over \p num_vars
/// variables in place (the layout of TruthTable::words()). Word-level: a
/// delta swap inside every word when both variables are below 6, a masked
/// exchange between word pairs when one is, and a swap of whole word blocks
/// when neither is.
void swap_vars_in_place(std::uint64_t* words, int num_vars, int i, int j);

/// Incompletely specified function as an (onset, dcset) pair over the same
/// variables. The offset is everything not in onset or dcset. A consistent
/// ISF has disjoint onset and dcset.
struct Isf {
  TruthTable on;
  TruthTable dc;

  Isf() = default;
  /// Completely specified ISF with an empty don't-care set.
  explicit Isf(TruthTable onset)
      : on(std::move(onset)), dc(TruthTable::zeros(on.num_vars())) {}
  Isf(TruthTable onset, TruthTable dcset)
      : on(std::move(onset)), dc(std::move(dcset)) {}

  int num_vars() const { return on.num_vars(); }
  /// The offset: minterms where the function is specified to be 0.
  TruthTable off() const { return ~(on | dc); }
  /// True iff onset and dcset are disjoint.
  bool is_consistent() const { return (on & dc).is_zero(); }
  /// True iff the don't-care set is empty.
  bool is_completely_specified() const { return dc.is_zero(); }

  /// Two ISFs are combinable (can be realized by one function) iff neither
  /// one's onset intersects the other's offset.
  bool compatible_with(const Isf& rhs) const;

  /// Intersection of behaviours: onset = union of onsets, care set = union of
  /// care sets. Precondition: compatible_with(rhs).
  Isf merged_with(const Isf& rhs) const;

  Isf cofactor(int var, bool value) const {
    return {on.cofactor(var, value), dc.cofactor(var, value)};
  }

  bool operator==(const Isf& rhs) const = default;

  std::uint64_t hash() const;
};

}  // namespace hyde::tt
