/// \file expand_oracle_test.cpp
/// \brief The word-level TruthTable::expand against the minterm loop it
/// replaced: random tables of 0–6 variables placed into 1–16 variables, in
/// shuffled (non-monotone) order and with several variables on one position.

#include "tt/truth_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "oracles/expand_oracle.hpp"

namespace hyde::tt {
namespace {

TruthTable random_table(int num_vars, std::mt19937_64& rng) {
  return TruthTable::from_lambda(
      num_vars, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
}

TEST(ExpandOracle, InjectivePlacementsMatchTheMintermLoop) {
  std::mt19937_64 rng(28);
  for (int trial = 0; trial < 600; ++trial) {
    const int small = static_cast<int>(rng() % 7);
    const int low = std::max(small, 1);
    const int big =
        low + static_cast<int>(rng() % static_cast<unsigned>(17 - low));
    std::vector<int> placement(static_cast<std::size_t>(big));
    std::iota(placement.begin(), placement.end(), 0);
    std::shuffle(placement.begin(), placement.end(), rng);
    placement.resize(static_cast<std::size_t>(small));
    const TruthTable f = random_table(small, rng);
    ASSERT_EQ(f.expand(big, placement), expand_reference(f, big, placement))
        << "trial " << trial << ": " << small << " into " << big;
  }
}

TEST(ExpandOracle, SharedPositionsMatchTheMintermLoop) {
  // Positions drawn with replacement, so variables often share one and a
  // table can be wider than the space it lands in.
  std::mt19937_64 rng(29);
  for (int trial = 0; trial < 400; ++trial) {
    const int small = 1 + static_cast<int>(rng() % 6);
    const int big = 1 + static_cast<int>(rng() % 10);
    std::vector<int> placement;
    for (int i = 0; i < small; ++i) {
      placement.push_back(static_cast<int>(rng() % static_cast<unsigned>(big)));
    }
    const TruthTable f = random_table(small, rng);
    ASSERT_EQ(f.expand(big, placement), expand_reference(f, big, placement))
        << "trial " << trial << ": " << small << " into " << big;
  }
}

TEST(ExpandOracle, EveryPlacementOfThreeVariablesIntoFour) {
  std::mt19937_64 rng(30);
  const TruthTable f = random_table(3, rng);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int c = 0; c < 4; ++c) {
        const std::vector<int> placement = {a, b, c};
        EXPECT_EQ(f.expand(4, placement), expand_reference(f, 4, placement))
            << a << b << c;
      }
    }
  }
}

TEST(ExpandOracle, PlacementOutOfRangeThrows) {
  const TruthTable f = TruthTable::var(2, 1);
  EXPECT_THROW(f.expand(3, {0, 3}), std::invalid_argument);
  EXPECT_THROW(f.expand(3, {-1, 0}), std::invalid_argument);
}

}  // namespace
}  // namespace hyde::tt
