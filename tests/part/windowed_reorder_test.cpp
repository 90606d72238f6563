/// \file windowed_reorder_test.cpp
/// \brief Windowed flow x reorder x threads: every reorder mode must stay
/// bit-identical across thread counts, and reorder must never hurt the
/// fallback ladder under a tight budget.

#include "part/windowed.hpp"

#include <string>

#include "baseline/flows.hpp"
#include "gtest/gtest.h"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "net/verify.hpp"

namespace hyde::part {
namespace {

WindowedFlowOptions reorder_options(bdd::ReorderMode mode, int threads) {
  WindowedFlowOptions options;
  options.flow = baseline::system_flow_options(baseline::System::kHyde, 5);
  options.flow.reorder = mode;
  options.window.max_inputs = 10;
  options.window.max_nodes = 40;
  options.threads = threads;
  return options;
}

TEST(WindowedReorderTest, BitIdenticalAcrossThreadsInEveryMode) {
  const net::Network input = mcnc::make_circuit("apex7");
  for (const bdd::ReorderMode mode :
       {bdd::ReorderMode::kOff, bdd::ReorderMode::kSift,
        bdd::ReorderMode::kAuto}) {
    std::string reference_blif;
    for (int threads : {1, 2, 4}) {
      const WindowedFlowResult result =
          run_windowed_flow(input, reorder_options(mode, threads));
      const std::string blif = net::write_blif_string(result.network);
      if (threads == 1) {
        EXPECT_TRUE(net::check_equivalence(input, result.network).equivalent)
            << "mode " << static_cast<int>(mode);
        reference_blif = blif;
        continue;
      }
      EXPECT_EQ(blif, reference_blif)
          << "mode " << static_cast<int>(mode) << " diverges at threads="
          << threads;
    }
  }
}

TEST(WindowedReorderTest, TightBudgetLadderNeverGetsWorseWithReorder) {
  // Under a per-window node budget, the governance ladder (GC -> sift ->
  // split/pass-through) may rescue windows that blow the budget under the
  // identity order, and must never *create* fallbacks: sifting only shrinks
  // the working set the hard limit sees.
  const net::Network input = mcnc::random_multilevel(
      "ladder", /*num_inputs=*/22, /*num_outputs=*/6, /*num_nodes=*/100,
      /*min_arity=*/4, /*max_arity=*/8, /*seed=*/7);

  WindowedFlowOptions off = reorder_options(bdd::ReorderMode::kOff, 2);
  off.window_bdd_budget = 3000;
  off.max_split_depth = 3;
  const WindowedFlowResult off_result = run_windowed_flow(input, off);
  EXPECT_TRUE(net::check_equivalence(input, off_result.network).equivalent);

  WindowedFlowOptions sift = reorder_options(bdd::ReorderMode::kSift, 2);
  sift.window_bdd_budget = 3000;
  sift.max_split_depth = 3;
  const WindowedFlowResult sift_result = run_windowed_flow(input, sift);
  EXPECT_TRUE(net::check_equivalence(input, sift_result.network).equivalent);

  EXPECT_LE(sift_result.stats.windows_budget_fallbacks,
            off_result.stats.windows_budget_fallbacks);
  EXPECT_LE(sift_result.stats.windows_passthrough +
                sift_result.stats.windows_split,
            off_result.stats.windows_passthrough +
                off_result.stats.windows_split);
}

}  // namespace
}  // namespace hyde::part
