/// Theorems 4.1/4.2: pseudo-primary-input analogues of the encoding
/// theorems, checked semantically on constructed hyper-functions.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/hyper.hpp"
#include "decomp/compatible.hpp"
#include "tt/truth_table.hpp"

namespace hyde::core {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::decomp::IsfBdd;
using hyde::tt::TruthTable;

std::vector<IsfBdd> random_ingredients(Manager& mgr, std::mt19937_64& rng,
                                       int count, int vars) {
  std::vector<IsfBdd> fns;
  for (int i = 0; i < count; ++i) {
    fns.push_back(IsfBdd{mgr.from_truth_table(TruthTable::from_lambda(
                             vars,
                             [&rng](std::uint64_t) { return (rng() & 1) != 0; })),
                         mgr.zero()});
  }
  return fns;
}

int hyper_class_count(Manager& mgr, const std::vector<IsfBdd>& ingredients,
                      const decomp::Encoding& codes,
                      const std::vector<int>& ppi_vars,
                      const std::vector<int>& bound) {
  const IsfBdd h = decomp::build_image(mgr, ingredients, codes, ppi_vars);
  return decomp::count_compatible_classes(decomp::DecompSpec{&mgr, h, bound});
}

TEST(Theorem41, PpisTogetherMakeIngredientCodingIrrelevant) {
  std::mt19937_64 rng(41);
  for (int trial = 0; trial < 6; ++trial) {
    Manager mgr(16);
    const auto ingredients = random_ingredients(mgr, rng, 4, 6);
    const std::vector<int> ppi_vars{10, 11};
    // λ choices with both PPIs on one side (the rest of the support free).
    const std::vector<int> bound_with{10, 11, 0};
    const std::vector<int> bound_without{0, 1, 2};

    std::vector<int> with_counts, without_counts;
    std::vector<std::uint32_t> codes{0, 1, 2, 3};
    int permutation = 0;
    do {
      decomp::Encoding enc;
      enc.num_bits = 2;
      enc.codes = codes;
      with_counts.push_back(
          hyper_class_count(mgr, ingredients, enc, ppi_vars, bound_with));
      without_counts.push_back(
          hyper_class_count(mgr, ingredients, enc, ppi_vars, bound_without));
    } while (std::next_permutation(codes.begin(), codes.end()) &&
             ++permutation < 8);
    for (std::size_t i = 1; i < with_counts.size(); ++i) {
      EXPECT_EQ(with_counts[i], with_counts[0]) << trial;
    }
    for (std::size_t i = 1; i < without_counts.size(); ++i) {
      EXPECT_EQ(without_counts[i], without_counts[0]) << trial;
    }
  }
}

TEST(Theorem42, SplitPpisMakeCodingMatterOnlyThroughGrouping) {
  // With one PPI in λ and one in μ, swapping the *row* code plane or the
  // *column* code plane leaves the class count unchanged (Theorem 4.2), but
  // regrouping which ingredient shares a column can change it.
  std::mt19937_64 rng(42);
  int spread_seen = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Manager mgr(16);
    // Structured ingredients: per (x0,x1) position each picks a pattern from
    // a small pool over {y0, y1}, so stacked chart columns can collide.
    const std::vector<Bdd> pool{mgr.var(4), ~mgr.var(4), mgr.var(5),
                                mgr.var(4) & mgr.var(5)};
    std::vector<IsfBdd> ingredients;
    for (int i = 0; i < 4; ++i) {
      Bdd f = mgr.zero();
      for (std::uint64_t p = 0; p < 4; ++p) {
        const Bdd cell = (p & 1 ? mgr.var(0) : mgr.nvar(0)) &
                         (p & 2 ? mgr.var(1) : mgr.nvar(1));
        f = f | (cell & pool[rng() % pool.size()]);
      }
      ingredients.push_back(IsfBdd{f, mgr.zero()});
    }
    const std::vector<int> ppi_vars{10, 11};  // bit0 = column, bit1 = row
    const std::vector<int> bound{10, 0, 1};  // free: {4, 5, 11}

    auto count_for = [&](bool flip_col, bool flip_row) {
      decomp::Encoding enc;
      enc.num_bits = 2;
      enc.codes.resize(4);
      for (int i = 0; i < 4; ++i) {
        const std::uint32_t col = ((i >> 1) & 1) ^ (flip_col ? 1u : 0u);
        const std::uint32_t row = (i & 1) ^ (flip_row ? 1u : 0u);
        enc.codes[static_cast<std::size_t>(i)] = col | (row << 1);
      }
      return hyper_class_count(mgr, ingredients, enc, ppi_vars, bound);
    };
    const int base = count_for(false, false);
    EXPECT_EQ(count_for(true, false), base) << trial;
    EXPECT_EQ(count_for(false, true), base) << trial;
    EXPECT_EQ(count_for(true, true), base) << trial;

    // Different grouping: base pairs {0,1} and {2,3} in columns; regroup to
    // pair {0,2} and {1,3} instead.
    decomp::Encoding regrouped;
    regrouped.num_bits = 2;
    regrouped.codes = {0, 1, 2, 3};
    const int other =
        hyper_class_count(mgr, ingredients, regrouped, ppi_vars, bound);
    if (other != base) ++spread_seen;
  }
  // Grouping usually matters for random ingredients.
  EXPECT_GE(spread_seen, 1);
}

TEST(HyperEncoder, UsesChartMachineryWhenPpisSplit) {
  // Force a situation where the ingredient encoder must engage (image not
  // κ-feasible, PPIs split by λ'). The returned codes must be strict.
  std::mt19937_64 rng(43);
  Manager mgr(20);
  const auto ingredients = random_ingredients(mgr, rng, 4, 8);
  EncoderOptions options;
  options.k = 4;
  const auto choice = encode_functions(mgr, ingredients, {16, 17}, options);
  choice.encoding.validate(4);
  EXPECT_FALSE(choice.trace.trivially_feasible);
}

}  // namespace
}  // namespace hyde::core
