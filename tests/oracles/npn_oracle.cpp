#include "oracles/npn_oracle.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace hyde::tt {

namespace {

/// Lexicographic order on (onset, dcset) word arrays.
bool pair_less(const TruthTable& a_on, const TruthTable& a_dc,
               const TruthTable& b_on, const TruthTable& b_dc) {
  if (a_on != b_on) {
    return std::lexicographical_compare(
        a_on.words().begin(), a_on.words().end(), b_on.words().begin(),
        b_on.words().end());
  }
  return std::lexicographical_compare(a_dc.words().begin(), a_dc.words().end(),
                                      b_dc.words().begin(), b_dc.words().end());
}

}  // namespace

NpnCanonization npn_canonize_reference(const Isf& f) {
  const int n = f.num_vars();
  if (n > kMaxExactNpnVars) {
    throw std::invalid_argument("npn_canonize: too many variables for exact "
                                "canonicalization");
  }
  if (!f.is_consistent()) {
    throw std::invalid_argument("npn_canonize: inconsistent ISF");
  }

  NpnCanonization best;
  bool have_best = false;

  std::vector<int> q(static_cast<std::size_t>(n));
  std::iota(q.begin(), q.end(), 0);
  const std::uint32_t num_masks = std::uint32_t{1} << n;
  do {
    // g(y) = f(x) with x_{q[j]} = y_j: permute, then Gray-walk the negations
    // so every step is a single cofactor-halves swap.
    TruthTable cur_on = f.on.permute(q);
    TruthTable cur_dc = f.dc.permute(q);
    std::uint32_t gray = 0;
    for (std::uint32_t idx = 0; idx < num_masks; ++idx) {
      if (idx != 0) {
        const int flipped = std::countr_zero(idx);
        gray ^= std::uint32_t{1} << flipped;
        cur_on = cur_on.flip_var(flipped);
        cur_dc = cur_dc.flip_var(flipped);
      }
      const TruthTable cur_off = ~(cur_on | cur_dc);
      for (int o = 0; o < 2; ++o) {
        const TruthTable& cand_on = o == 0 ? cur_on : cur_off;
        if (have_best &&
            !pair_less(cand_on, cur_dc, best.canonical.on, best.canonical.dc)) {
          continue;
        }
        best.canonical = Isf{cand_on, cur_dc};
        best.transform.perm = q;
        best.transform.input_negations = gray;
        best.transform.output_negated = o != 0;
        have_best = true;
      }
    }
  } while (std::next_permutation(q.begin(), q.end()));
  return best;
}

}  // namespace hyde::tt
