#include "tt/npn.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <tuple>

namespace hyde::tt {

namespace {

// Repeating masks of variable i within one 64-bit word, for i < 6:
// bit m of kVarMask[i] is (m >> i) & 1.
constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

/// A truth table of at most 7 variables held in two words: w0 carries
/// minterms 0..63, w1 minterms 64..127 (always zero below 7 variables).
/// Bits at or above 2^n stay zero under every operation below.
struct Table7 {
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
};

Table7 load(const TruthTable& t) {
  const auto& words = t.words();
  return {words[0], words.size() > 1 ? words[1] : 0};
}

TruthTable store(int n, const Table7& t) {
  TruthTable r(n);
  for (std::uint64_t m = 0; m < r.size(); ++m) {
    if (((m < 64 ? t.w0 : t.w1) >> (m & 63)) & 1) r.set_bit(m, true);
  }
  return r;
}

/// Substitutes !x_v for x_v (TruthTable::flip_var). Below 7 variables
/// (kTwoWords false) w1 is zero and stays untouched.
template <bool kTwoWords>
Table7 flip(const Table7& t, int v) {
  if (kTwoWords && v == 6) return {t.w1, t.w0};
  const std::uint64_t hi = kVarMask[v];
  const int s = 1 << v;
  const auto move = [&](std::uint64_t w) {
    return ((w & hi) >> s) | ((w & ~hi) << s);
  };
  return {move(t.w0), kTwoWords ? move(t.w1) : 0};
}

/// Exchanges variables i < j: a delta swap of the minterms where x_i = 1,
/// x_j = 0 with those where x_i = 0, x_j = 1.
Table7 swap_vars(const Table7& t, int i, int j) {
  const int s = 1 << i;
  if (j == 6) {
    // Bits of w0 with x_i = 1 trade places with bits of w1 with x_i = 0.
    const std::uint64_t d = ((t.w0 >> s) ^ t.w1) & ~kVarMask[i];
    return {t.w0 ^ (d << s), t.w1 ^ d};
  }
  const int shift = (1 << j) - s;
  const std::uint64_t low = kVarMask[i] & ~kVarMask[j];
  const auto delta = [&](std::uint64_t w) {
    const std::uint64_t d = ((w >> shift) ^ w) & low;
    return w ^ d ^ (d << shift);
  };
  return {delta(t.w0), delta(t.w1)};
}

/// Lexicographic order on (onset, dcset) words — the order the canonical
/// representative minimizes.
template <bool kTwoWords>
bool pair_less(const Table7& a_on, const Table7& a_dc, const Table7& b_on,
               const Table7& b_dc) {
  if constexpr (kTwoWords) {
    return std::tie(a_on.w0, a_on.w1, a_dc.w0, a_dc.w1) <
           std::tie(b_on.w0, b_on.w1, b_dc.w0, b_dc.w1);
  } else {
    return std::tie(a_on.w0, a_dc.w0) < std::tie(b_on.w0, b_dc.w0);
  }
}

/// The smallest candidate and the transform producing it.
struct Incumbent {
  Table7 on, dc;
  std::array<int, kMaxExactNpnVars> perm{};
  std::uint32_t input_negations = 0;
  bool output_negated = false;
};

/// Walks every candidate of the n-variable function (on, dc): permutations
/// in std::next_permutation order, negations in Gray-code order, output
/// phase 0 then 1, first strict minimum kept.
template <bool kTwoWords>
Incumbent search(int n, const Table7& on, const Table7& dc) {
  const std::uint64_t live0 =
      n >= 6 ? ~std::uint64_t{0} : (std::uint64_t{1} << (1 << n)) - 1;
  // The first candidate (identity, no negation) seeds the incumbent; every
  // later one must be strictly smaller to replace it.
  std::array<int, kMaxExactNpnVars> q{};
  std::iota(q.begin(), q.begin() + n, 0);
  Table7 best_on = on, best_dc = dc;
  std::array<int, kMaxExactNpnVars> best_perm = q;
  std::uint32_t best_negations = 0;
  bool best_output_negated = false;
  const std::uint32_t num_masks = std::uint32_t{1} << n;
  do {
    // g(y) = f(x) with x_{q[j]} = y_j: move original variable q[j] into
    // slot j by transpositions, then Gray-walk the negations so every step
    // is a single cofactor-halves swap.
    Table7 cur_on = on, cur_dc = dc;
    std::array<int, kMaxExactNpnVars> at{};  // at[j]: original var in slot j
    std::iota(at.begin(), at.begin() + n, 0);
    for (int j = 0; j < n; ++j) {
      if (at[j] == q[j]) continue;
      const int k = static_cast<int>(
          std::find(at.begin() + j + 1, at.begin() + n, q[j]) - at.begin());
      cur_on = swap_vars(cur_on, j, k);
      cur_dc = swap_vars(cur_dc, j, k);
      std::swap(at[j], at[k]);
    }
    std::uint32_t gray = 0;
    for (std::uint32_t idx = 0; idx < num_masks; ++idx) {
      if (idx != 0) {
        const int flipped = std::countr_zero(idx);
        gray ^= std::uint32_t{1} << flipped;
        cur_on = flip<kTwoWords>(cur_on, flipped);
        cur_dc = flip<kTwoWords>(cur_dc, flipped);
      }
      const Table7 cur_off{~(cur_on.w0 | cur_dc.w0) & live0,
                           kTwoWords ? ~(cur_on.w1 | cur_dc.w1) : 0};
      for (int o = 0; o < 2; ++o) {
        const Table7& cand_on = o == 0 ? cur_on : cur_off;
        if (!pair_less<kTwoWords>(cand_on, cur_dc, best_on, best_dc)) continue;
        best_on = cand_on;
        best_dc = cur_dc;
        best_perm = q;
        best_negations = gray;
        best_output_negated = o != 0;
      }
    }
  } while (std::next_permutation(q.begin(), q.begin() + n));
  return {best_on, best_dc, best_perm, best_negations, best_output_negated};
}

}  // namespace

NpnCanonization npn_canonize(const Isf& f) {
  const int n = f.num_vars();
  if (n > kMaxExactNpnVars) {
    throw std::invalid_argument("npn_canonize: too many variables for exact "
                                "canonicalization");
  }
  if (!f.is_consistent()) {
    throw std::invalid_argument("npn_canonize: inconsistent ISF");
  }
  const Table7 on = load(f.on);
  const Table7 dc = load(f.dc);
  const Incumbent best =
      n == 7 ? search<true>(n, on, dc) : search<false>(n, on, dc);

  NpnCanonization result;
  result.canonical = Isf{store(n, best.on), store(n, best.dc)};
  result.transform.perm.assign(best.perm.begin(), best.perm.begin() + n);
  result.transform.input_negations = best.input_negations;
  result.transform.output_negated = best.output_negated;
  return result;
}

NpnCanonization npn_canonize(const TruthTable& f) {
  return npn_canonize(Isf{f});
}

Isf npn_apply(const Isf& canonical, const NpnTransform& t) {
  const int n = canonical.num_vars();
  if (static_cast<int>(t.perm.size()) != n) {
    throw std::invalid_argument("npn_apply: transform arity mismatch");
  }
  const auto map_minterm = [&](std::uint64_t x) {
    std::uint64_t y = 0;
    for (int j = 0; j < n; ++j) {
      const bool bit = ((x >> t.perm[static_cast<std::size_t>(j)]) & 1) ^
                       ((t.input_negations >> j) & 1);
      if (bit) y |= std::uint64_t{1} << j;
    }
    return y;
  };
  const TruthTable off = canonical.off();
  const TruthTable& on_src = t.output_negated ? off : canonical.on;
  Isf f;
  f.on = TruthTable::from_lambda(n, [&](std::uint64_t x) {
    return on_src.bit(map_minterm(x));
  });
  f.dc = TruthTable::from_lambda(n, [&](std::uint64_t x) {
    return canonical.dc.bit(map_minterm(x));
  });
  return f;
}

}  // namespace hyde::tt
