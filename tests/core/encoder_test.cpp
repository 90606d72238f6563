#include "core/encoder.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "tt/truth_table.hpp"

namespace hyde::core {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::decomp::IsfBdd;
using hyde::decomp::Partition;
using hyde::tt::TruthTable;

TEST(RowBenefits, BrRewardsSharedSymbols) {
  // Same symbols -> Br = n; disjoint symbols -> Br = n - |a| - |b| kinds.
  const Partition a{{0, 1, 0, 1}};
  const Partition b{{1, 0, 1, 0}};
  const Partition c{{2, 3, 2, 3}};
  EXPECT_DOUBLE_EQ(row_benefit_br(a, b, 4), 4.0);
  EXPECT_DOUBLE_EQ(row_benefit_br(a, c, 4), 0.0);
}

TEST(RowBenefits, BcCountsCommonSymbolMass) {
  // k = m/n = 8/4 = 2; common symbols {0,1} each appearing 2+2 times:
  // Bc = (4-2) + (4-2) = 4.
  const Partition a{{0, 1, 0, 1}};
  const Partition b{{1, 0, 1, 0}};
  EXPECT_DOUBLE_EQ(row_benefit_bc(a, b, 4), 4.0);
  // No common symbols -> 0.
  const Partition c{{2, 3, 2, 3}};
  EXPECT_DOUBLE_EQ(row_benefit_bc(a, c, 4), 0.0);
}

/// Builds a function over bound {0,1,2} ∪ free {3,4,5,6} whose classes are
/// interesting enough to exercise the whole encoder.
IsfBdd interesting_function(Manager& mgr) {
  const Bdd x0 = mgr.var(0), x1 = mgr.var(1), x2 = mgr.var(2);
  const Bdd y0 = mgr.var(3), y1 = mgr.var(4), y2 = mgr.var(5), y3 = mgr.var(6);
  // Patterns chosen so different bound minterms produce several distinct
  // residual functions with shared sub-structure.
  const Bdd f = (x0 & x1 & (y0 ^ y1)) | (x0 & ~x1 & (y0 ^ y2)) |
                (~x0 & x1 & (y1 & y3)) | (~x0 & ~x1 & x2 & (y2 | y3)) |
                (~x0 & ~x1 & ~x2 & y0 & y1 & y2);
  return IsfBdd{f, mgr.zero()};
}

TEST(Encoder, ProducesValidStrictEncoding) {
  Manager mgr(16);
  const IsfBdd f = interesting_function(mgr);
  decomp::DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = f;
  spec.bound = {0, 1, 2};
  const auto classes = decomp::compute_compatible_classes(spec);
  ASSERT_GE(classes.num_classes(), 3);
  std::vector<int> alpha_vars;
  for (int j = 0; j < classes.code_bits(); ++j) alpha_vars.push_back(8 + j);
  EncoderOptions options;
  options.k = 4;
  const auto choice = encode_classes(mgr, classes, alpha_vars, options);
  choice.encoding.validate(classes.num_classes());
  // The encoding must produce a correct decomposition.
  const auto step = decomp::build_step(mgr, classes, spec.bound, {3, 4, 5, 6},
                                       choice.encoding, alpha_vars);
  EXPECT_TRUE(decomp::verify_step(mgr, f, step));
}

TEST(Encoder, NeverWorseThanRandom) {
  // Step 8 guarantees the returned encoding's image class count is at most
  // the random encoding's.
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    Manager mgr(16);
    const Bdd on = mgr.from_truth_table(TruthTable::from_lambda(
        8, [&rng](std::uint64_t) { return (rng() % 3) == 0; }));
    decomp::DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = IsfBdd{on, mgr.zero()};
    spec.bound = {0, 1, 2};
    const auto classes = decomp::compute_compatible_classes(spec);
    if (classes.num_classes() < 2) continue;
    std::vector<int> alpha_vars;
    for (int j = 0; j < classes.code_bits(); ++j) alpha_vars.push_back(10 + j);
    EncoderOptions options;
    options.k = 4;
    options.seed = trial;
    const auto choice = encode_classes(mgr, classes, alpha_vars, options);
    if (choice.trace.chosen_image_classes >= 0 &&
        choice.trace.random_image_classes >= 0 && !choice.trace.used_random) {
      EXPECT_LE(choice.trace.chosen_image_classes,
                choice.trace.random_image_classes)
          << "trial " << trial;
    }
    choice.encoding.validate(classes.num_classes());
  }
}

TEST(Encoder, TrivialSingleClass) {
  Manager mgr(4);
  const std::vector<IsfBdd> fns{IsfBdd{mgr.var(0), mgr.zero()}};
  EncoderOptions options;
  const auto choice = encode_functions(mgr, fns, {}, options);
  EXPECT_TRUE(choice.trace.trivially_feasible);
  EXPECT_EQ(choice.encoding.num_bits, 0);
}

TEST(Encoder, KFeasibleImageShortCircuits) {
  // Two small functions over 2 variables: image has 1 alpha + 2 vars = 3
  // supports <= k -> Step 2 exits early.
  Manager mgr(8);
  const std::vector<IsfBdd> fns{IsfBdd{mgr.var(0) & mgr.var(1), mgr.zero()},
                                IsfBdd{mgr.var(0) ^ mgr.var(1), mgr.zero()}};
  EncoderOptions options;
  options.k = 5;
  const auto choice = encode_functions(mgr, fns, {4}, options);
  EXPECT_TRUE(choice.trace.trivially_feasible);
}

TEST(Encoder, RejectsBadAlphaCount) {
  Manager mgr(8);
  const std::vector<IsfBdd> fns{IsfBdd{mgr.var(0), mgr.zero()},
                                IsfBdd{mgr.var(1), mgr.zero()},
                                IsfBdd{mgr.var(0) & mgr.var(1), mgr.zero()}};
  EncoderOptions options;
  EXPECT_THROW(encode_functions(mgr, fns, {4}, options),
               std::invalid_argument);
  EXPECT_THROW(encode_functions(mgr, {}, {}, options),
               std::invalid_argument);
}

TEST(Encoder, TraceRecordsChartGeometry) {
  Manager mgr(20);
  // Eight distinct functions over five variables force a 3-bit code and a
  // non-trivial image, exercising Steps 3-9.
  std::vector<IsfBdd> fns;
  const Bdd y0 = mgr.var(0), y1 = mgr.var(1), y2 = mgr.var(2), y3 = mgr.var(3),
            y4 = mgr.var(4);
  fns.push_back(IsfBdd{y0 ^ y1, mgr.zero()});
  fns.push_back(IsfBdd{y1 ^ y2, mgr.zero()});
  fns.push_back(IsfBdd{y2 ^ y3, mgr.zero()});
  fns.push_back(IsfBdd{y3 ^ y4, mgr.zero()});
  fns.push_back(IsfBdd{y0 & y1 & y2, mgr.zero()});
  fns.push_back(IsfBdd{y2 & y3 & y4, mgr.zero()});
  fns.push_back(IsfBdd{y0 | y4, mgr.zero()});
  fns.push_back(IsfBdd{(y0 & y2) | (y1 & y3), mgr.zero()});
  EncoderOptions options;
  options.k = 4;
  const auto choice = encode_functions(mgr, fns, {10, 11, 12}, options);
  choice.encoding.validate(8);
  const auto& trace = choice.trace;
  EXPECT_FALSE(trace.trivially_feasible);
  if (!trace.theorem31_exit) {
    // Chart geometry consistent: #R * #C = 2^t and the partitions cover all
    // classes with the right position count.
    EXPECT_EQ(trace.num_rows * trace.num_cols, 8);
    EXPECT_EQ(trace.partitions.size(), 8u);
    for (const auto& p : trace.partitions) {
      EXPECT_EQ(p.num_positions(), 1 << trace.position_vars.size());
    }
    if (!trace.used_random) {
      // Row sets fit the chart and partition the class indices.
      EXPECT_LE(static_cast<int>(trace.row_sets.size()), trace.num_rows);
      EXPECT_LE(static_cast<int>(trace.final_column_sets.size()), trace.num_cols);
      std::set<int> seen;
      for (const auto& row : trace.row_sets) {
        for (int m : row) EXPECT_TRUE(seen.insert(m).second);
      }
      EXPECT_EQ(seen.size(), 8u);
    }
  }
}

TEST(Encoder, DeterministicAcrossRuns) {
  for (int run = 0; run < 2; ++run) {
    static std::vector<std::uint32_t> first_codes;
    Manager mgr(16);
    const IsfBdd f = interesting_function(mgr);
    decomp::DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = f;
    spec.bound = {0, 1, 2};
    const auto classes = decomp::compute_compatible_classes(spec);
    std::vector<int> alpha_vars;
    for (int j = 0; j < classes.code_bits(); ++j) alpha_vars.push_back(8 + j);
    EncoderOptions options;
    options.k = 4;
    const auto choice = encode_classes(mgr, classes, alpha_vars, options);
    if (run == 0) {
      first_codes = choice.encoding.codes;
    } else {
      EXPECT_EQ(choice.encoding.codes, first_codes);
    }
  }
}

}  // namespace
}  // namespace hyde::core
