/// Randomized invariants of the Steps-5-7 chart assembly: every partition
/// placed exactly once, per-row column uniqueness, chart-budget compliance,
/// bounded iterations, and the multi-copy u-vertex path of Step 5.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/encoder.hpp"

namespace hyde::core {
namespace {

using decomp::Partition;

std::vector<Partition> random_partitions(std::mt19937_64& rng, int count,
                                         int positions, int symbol_kinds) {
  std::vector<Partition> parts;
  for (int i = 0; i < count; ++i) {
    Partition p;
    for (int pos = 0; pos < positions; ++pos) {
      p.symbols.push_back(static_cast<int>(rng() % symbol_kinds));
    }
    parts.push_back(std::move(p));
  }
  return parts;
}

struct AssemblyCase {
  int count, positions, kinds, rows, cols;
  std::uint64_t seed;
};

class AssemblyProperty : public ::testing::TestWithParam<AssemblyCase> {};

TEST_P(AssemblyProperty, InvariantsHold) {
  const auto [count, positions, kinds, rows, cols, seed] = GetParam();
  ASSERT_LE(count, rows * cols) << "bad test case";
  std::mt19937_64 rng(seed);
  const auto partitions = random_partitions(rng, count, positions, kinds);
  const auto assembly = assemble_chart(partitions, rows, cols);
  ASSERT_TRUE(assembly.success);

  // Placement: every partition in exactly one row set and one column set.
  std::set<int> placed;
  for (const auto& row : assembly.row_sets) {
    for (int m : row) EXPECT_TRUE(placed.insert(m).second);
  }
  EXPECT_EQ(static_cast<int>(placed.size()), count);
  std::set<int> col_placed;
  for (const auto& cs : assembly.final_column_sets) {
    for (int m : cs) EXPECT_TRUE(col_placed.insert(m).second);
  }
  EXPECT_EQ(static_cast<int>(col_placed.size()), count);

  // Budget: #rows <= R, #cols <= C; cells unique.
  EXPECT_LE(static_cast<int>(assembly.row_sets.size()), rows);
  EXPECT_LE(static_cast<int>(assembly.final_column_sets.size()), cols);
  std::set<std::pair<int, int>> cells;
  for (int m = 0; m < count; ++m) {
    EXPECT_GE(assembly.row_of[static_cast<std::size_t>(m)], 0);
    EXPECT_GE(assembly.col_of[static_cast<std::size_t>(m)], 0);
    EXPECT_TRUE(cells
                    .insert({assembly.row_of[static_cast<std::size_t>(m)],
                             assembly.col_of[static_cast<std::size_t>(m)]})
                    .second)
        << "cell collision " << m;
  }
  // Iterations bounded (no runaway Step-7 loops).
  EXPECT_LE(assembly.iterations, 64);
}

std::vector<AssemblyCase> assembly_cases() {
  std::vector<AssemblyCase> cases;
  std::uint64_t seed = 1;
  for (const auto& [count, rows, cols] :
       {std::tuple{4, 2, 2}, std::tuple{8, 2, 4}, std::tuple{8, 4, 2},
        std::tuple{10, 4, 4}, std::tuple{16, 4, 4}, std::tuple{12, 2, 8},
        std::tuple{7, 8, 1}, std::tuple{7, 1, 8}, std::tuple{30, 8, 4}}) {
    for (int variant = 0; variant < 3; ++variant) {
      cases.push_back({count, 4, 3 + variant, rows, cols, seed++});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Random, AssemblyProperty, ::testing::ValuesIn(assembly_cases()),
    [](const ::testing::TestParamInfo<AssemblyCase>& param_info) {
      const auto& c = param_info.param;
      return std::string("n")
          .append(std::to_string(c.count))
          .append("r")
          .append(std::to_string(c.rows))
          .append("c")
          .append(std::to_string(c.cols))
          .append("s")
          .append(std::to_string(c.seed));
    });

TEST(AssemblyStep5, MultiCopyUVerticesWhenPscIsPopular) {
  // 9 partitions all sharing the same Psc p0p1 with a 2-row chart: a single
  // u vertex (capacity 2) cannot host them; ceil((9-1)/2) = 4 copies must.
  std::vector<Partition> partitions;
  for (int i = 0; i < 9; ++i) {
    // <s,s,x,y>: p0p1 share content; tail positions distinct-ish.
    partitions.push_back(Partition{{100, 100, i, i + 50}});
  }
  const auto assembly = assemble_chart(partitions, /*rows=*/2, /*cols=*/8);
  ASSERT_TRUE(assembly.success);
  ASSERT_EQ(assembly.psc_table.size(), 1u);
  EXPECT_EQ(assembly.psc_table[0].positions, (std::vector<int>{0, 1}));
  EXPECT_EQ(assembly.psc_table[0].partitions.size(), 9u);
  // Step-5 column sets of size ≤ #R = 2, several of them.
  int multi = 0;
  for (const auto& cs : assembly.column_sets) {
    EXPECT_LE(cs.size(), 2u);
    if (cs.size() == 2) ++multi;
  }
  EXPECT_GE(multi, 4);
}

TEST(AssemblyStep5, SingletonChartDegenerates) {
  const std::vector<Partition> one{Partition{{0, 1, 0, 2}}};
  const auto assembly = assemble_chart(one, 1, 1);
  ASSERT_TRUE(assembly.success);
  EXPECT_EQ(assembly.row_of[0], 0);
  EXPECT_EQ(assembly.col_of[0], 0);
}

}  // namespace
}  // namespace hyde::core
