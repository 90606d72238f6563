/// \file npn.hpp
/// \brief Exact NPN canonicalization of small truth tables.
///
/// Two functions are NPN-equivalent when one becomes the other under some
/// combination of input Negation, input Permutation and output Negation. The
/// canonicalizer maps every function of an NPN class to one distinguished
/// representative, which makes NPN classes usable as dictionary keys — the
/// runtime's decomposition cache (src/runtime/npn_cache) memoizes one
/// decomposition per class and replays it for every class member.
///
/// Canonicalization is exact (exhaustive over all n! * 2^n * 2 transforms)
/// and supported up to `kMaxExactNpnVars` variables. Incompletely specified
/// functions are canonicalized as (onset, dcset) pairs: the input transform
/// acts on both tables, output negation exchanges onset and offset and fixes
/// the dcset.
///
/// The kernel is fixed-width and allocates nothing per candidate: onset and
/// dcset live in two 64-bit words each. Each permutation is applied to the
/// original function by at most n delta-swap variable transpositions, and
/// the negations are walked in Gray-code order, so each candidate is one
/// in-word mask-and-shift (or, for variable 6, a word swap) away from the
/// previous one. A call costs tens of microseconds at 5 inputs and a few
/// milliseconds at 7 (bench/micro_substrates, BM_NpnCanonize).
///
/// Bit-identity contract: candidates are enumerated in a fixed order
/// (std::next_permutation x Gray-code negations x output phase 0 then 1) and
/// the first strict minimum of the lexicographic (onset words, dcset words)
/// order wins. Both `canonical` and `transform` are therefore pure functions
/// of the input, equal to the TruthTable-based reference in tests/oracles,
/// and stable across releases: NPN cache keys, template seeds and every
/// netlist replayed from them depend on them.

#pragma once

#include <cstdint>
#include <vector>

#include "tt/truth_table.hpp"

namespace hyde::tt {

/// Largest variable count `npn_canonize` handles exactly: 7 variables is
/// 5040 * 128 * 2 candidates over two-word tables.
inline constexpr int kMaxExactNpnVars = 7;

/// The transform linking a function to its canonical representative g:
///
///   f(x) = output_negated XOR g(y)   with   y_j = x_{perm[j]} XOR neg_j
///
/// where neg_j is bit j of `input_negations` (for incompletely specified
/// functions the identity holds on the care set and the dcsets correspond).
/// In other words: canonical input j reads original variable perm[j],
/// complemented when neg_j is set.
struct NpnTransform {
  std::vector<int> perm;
  std::uint32_t input_negations = 0;
  bool output_negated = false;
};

/// A canonical representative plus the transform recovering the original.
struct NpnCanonization {
  Isf canonical;
  NpnTransform transform;
};

/// Exact NPN canonicalization of an incompletely specified function. Every
/// member of an NPN class (with dcsets transformed alongside) yields the
/// same `canonical`. Throws std::invalid_argument above kMaxExactNpnVars.
NpnCanonization npn_canonize(const Isf& f);

/// Completely specified convenience overload (empty dcset).
NpnCanonization npn_canonize(const TruthTable& f);

/// Applies \p transform to \p canonical, recovering the original function
/// (the inverse direction of npn_canonize).
Isf npn_apply(const Isf& canonical, const NpnTransform& transform);

}  // namespace hyde::tt
