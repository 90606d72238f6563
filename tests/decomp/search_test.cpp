/// \file search_test.cpp
/// \brief Bound-set search engine correctness: bounded (pruned) column
/// counting against the truth-table chart, and bit-identical selection
/// against a verbatim copy of the historical greedy loop (counting every
/// candidate on a truth-table chart loaded past the search's support limit)
/// and the flow's old size-retry loop around it — fresh, repeated, on one
/// engine across many functions, across bound sizes and on both sides of
/// the truth-table support limit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "core/encoder.hpp"
#include "decomp/search.hpp"
#include "decomp/step.hpp"
#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

/// Support limit of the reference tables: past every function built here.
constexpr int kReferenceMaxVars = 24;

/// Exact column count of \p spec's chart, on a truth-table chart of spec.f.
int table_count(const DecompSpec& spec) {
  TruthTableChart chart;
  EXPECT_TRUE(chart.load(*spec.mgr, spec.f, kReferenceMaxVars));
  return chart.count_columns(spec.bound, 0).count;
}

Bdd random_bdd(Manager& mgr, int num_vars, std::mt19937_64& rng) {
  const TruthTable table = TruthTable::from_lambda(
      num_vars, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
  return mgr.from_truth_table(table);
}

/// Random function of \p vars (table variable i is vars[i]); about one
/// minterm in \p period is in the onset.
Bdd random_on(Manager& mgr, const std::vector<int>& vars, int period,
              std::mt19937_64& rng) {
  const TruthTable table = TruthTable::from_lambda(
      static_cast<int>(vars.size()), [&rng, period](std::uint64_t) {
        return rng() % static_cast<std::uint64_t>(period) == 0;
      });
  return mgr.from_truth_table(table, vars);
}

/// Random ISF over variables 0..n-1; about one minterm in \p dc_period is a
/// don't care (0: completely specified). A \p structured onset is the XOR
/// of random functions, each depending on all of a 4-variable group, over
/// groups that overlap in one variable; its dc set is a function of 5
/// random variables. Such ISFs have small BDDs, and their chart columns
/// often coincide, unlike a dense random table's.
IsfBdd random_isf(Manager& mgr, int n, int dc_period, std::mt19937_64& rng,
                  bool structured = false) {
  std::vector<int> vars(static_cast<std::size_t>(n));
  std::iota(vars.begin(), vars.end(), 0);
  Bdd on = mgr.zero();
  if (!structured) {
    on = random_on(mgr, vars, 2, rng);
  } else {
    std::shuffle(vars.begin(), vars.end(), rng);
    for (int start = 0; start == 0 || start + 1 < n; start += 3) {
      const int first = std::max(0, std::min(start, n - 4));
      const std::vector<int> group(vars.begin() + first,
                                   vars.begin() + std::min(n, first + 4));
      Bdd term = random_on(mgr, group, 2, rng);
      while (mgr.support(term).size() < group.size()) {
        term = random_on(mgr, group, 2, rng);
      }
      on = on ^ term;
    }
  }
  if (dc_period == 0) return IsfBdd{on, mgr.zero()};
  if (structured) {
    std::shuffle(vars.begin(), vars.end(), rng);
    vars.resize(static_cast<std::size_t>(std::min(n, 5)));
  }
  return IsfBdd{on, random_on(mgr, vars, dc_period, rng) & ~on};
}

/// Verbatim re-implementation of the historical greedy loop (pre-engine):
/// evaluates every candidate from scratch with an exact count, here read off
/// one truth-table chart of f.
VarPartitionResult legacy_greedy(Manager& mgr, const IsfBdd& f,
                                 const std::vector<int>& support,
                                 const VarPartitionOptions& options) {
  VarPartitionResult result;
  if (options.bound_size <= 0 ||
      options.bound_size > static_cast<int>(support.size())) {
    return result;
  }
  std::vector<int> preferred, avoided;
  for (int v : support) {
    if (std::find(options.avoid.begin(), options.avoid.end(), v) !=
        options.avoid.end()) {
      avoided.push_back(v);
    } else {
      preferred.push_back(v);
    }
  }
  TruthTableChart chart;
  EXPECT_TRUE(chart.load(mgr, f, kReferenceMaxVars));
  std::vector<int> bound;
  while (static_cast<int>(bound.size()) < options.bound_size) {
    std::vector<int>& pool = !preferred.empty() ? preferred : avoided;
    if (pool.empty()) break;
    int best_var = -1;
    int best_cost = 0;
    for (int v : pool) {
      std::vector<int> trial = bound;
      trial.push_back(v);
      const int cost = chart.count_columns(trial, 0).count;
      if (best_var < 0 || cost < best_cost ||
          (cost == best_cost && v < best_var)) {
        best_var = v;
        best_cost = cost;
      }
    }
    bound.push_back(best_var);
    pool.erase(std::find(pool.begin(), pool.end(), best_var));
  }
  std::sort(bound.begin(), bound.end());
  result.bound = bound;
  for (int v : support) {
    if (std::find(bound.begin(), bound.end(), v) == bound.end()) {
      result.free.push_back(v);
    }
  }
  result.num_classes =
      count_compatible_classes(DecompSpec{&mgr, f, bound}, options.dc_policy);
  result.success = true;
  if (options.require_nontrivial &&
      result.code_bits() >= static_cast<int>(result.bound.size())) {
    result.success = false;
  }
  return result;
}

/// The engine's reference: the legacy greedy, rerun from scratch at every
/// size from bound_size down to 2 until one is non-trivial when
/// require_nontrivial is set (the flow's historical size-retry loop). The
/// engine must reproduce this bit for bit.
VarPartitionResult legacy_select(Manager& mgr, const IsfBdd& f,
                                 const std::vector<int>& support,
                                 const VarPartitionOptions& options) {
  VarPartitionOptions sized = options;
  for (;; --sized.bound_size) {
    const VarPartitionResult result = legacy_greedy(mgr, f, support, sized);
    if (result.success || !options.require_nontrivial ||
        sized.bound_size <= 2) {
      return result;
    }
  }
}

void expect_same_result(const VarPartitionResult& a,
                        const VarPartitionResult& b, const char* what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.bound, b.bound) << what;
  EXPECT_EQ(a.free, b.free) << what;
  EXPECT_EQ(a.num_classes, b.num_classes) << what;
}

TEST(BoundedCountTest, ExactWhenThresholdNotExceeded) {
  std::mt19937_64 rng(61);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 4 + static_cast<int>(rng() % 5);  // 4..8 variables
    Manager mgr(n);
    const Bdd on = random_bdd(mgr, n, rng);
    const Bdd dc = random_bdd(mgr, n, rng) & ~on;
    const int bound_size = 1 + static_cast<int>(rng() % (n - 1));
    DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = IsfBdd{on, dc};
    for (int v = 0; v < bound_size; ++v) spec.bound.push_back(v);
    const int exact = table_count(spec);
    // Unlimited and at-threshold counts are exact and unpruned.
    const BoundedCount unlimited = count_columns_bounded(spec, 0);
    EXPECT_FALSE(unlimited.pruned);
    EXPECT_EQ(unlimited.count, exact);
    const BoundedCount at = count_columns_bounded(spec, exact);
    EXPECT_FALSE(at.pruned);
    EXPECT_EQ(at.count, exact);
    const BoundedCount above = count_columns_bounded(spec, exact + 3);
    EXPECT_FALSE(above.pruned);
    EXPECT_EQ(above.count, exact);
  }
}

TEST(BoundedCountTest, PrunedCountIsALowerBoundPastTheThreshold) {
  std::mt19937_64 rng(62);
  int pruned_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 5 + static_cast<int>(rng() % 4);  // 5..8 variables
    Manager mgr(n);
    const Bdd on = random_bdd(mgr, n, rng);
    const int bound_size = 2 + static_cast<int>(rng() % (n - 2));
    DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = IsfBdd{on, mgr.zero()};
    for (int v = 0; v < bound_size; ++v) spec.bound.push_back(v);
    const int exact = table_count(spec);
    for (int threshold = 1; threshold < exact; ++threshold) {
      const BoundedCount bc = count_columns_bounded(spec, threshold);
      ASSERT_TRUE(bc.pruned) << "threshold " << threshold << " exact " << exact;
      // The walk stops right after proving the threshold is beaten.
      EXPECT_EQ(bc.count, threshold + 1);
      ++pruned_seen;
    }
  }
  EXPECT_GT(pruned_seen, 0);  // the loop actually exercised pruning
}

TEST(BoundSetSearchTruthTableTest, CountsMatchTheCutPathAndTheOracle) {
  // Random ISFs of 1..16 variables at dc densities none / sparse / dense;
  // bound sets of 1..min(n, 6) variables drawn from a manager with two
  // variables outside the support; every threshold 0..2^|bound|+1. The
  // table count must honour the pruning contract against its own exact
  // count and equal the cofactor walk's (count_columns_bounded); the
  // table-derived class count must equal count_compatible_classes under
  // both policies.
  std::mt19937_64 rng(81);
  for (int n = 1; n <= kTruthTableChartMaxVars; ++n) {
    for (const int dc_period : {0, 16, 2}) {
      Manager mgr(n + 2);
      // Dense random tables up to 10 variables, and completely specified
      // ones at every width; structured ISFs carry the wide don't cares.
      const bool structured = n > 10 && dc_period != 0;
      const IsfBdd f = random_isf(mgr, n, dc_period, rng, structured);
      TruthTableChart chart;
      ASSERT_TRUE(chart.load(mgr, f));
      std::vector<int> vars(static_cast<std::size_t>(n + 2));
      std::iota(vars.begin(), vars.end(), 0);
      for (int size = 1; size <= std::min(n, 6); ++size) {
        std::shuffle(vars.begin(), vars.end(), rng);
        DecompSpec spec;
        spec.mgr = &mgr;
        spec.f = f;
        spec.bound.assign(vars.begin(), vars.begin() + size);
        const int exact = chart.count_columns(spec.bound, 0).count;
        const int last = (1 << size) + 1;
        for (int t = 0; t <= last; ++t) {
          const BoundedCount table = chart.count_columns(spec.bound, t);
          const bool over = t > 0 && exact > t;
          EXPECT_EQ(table.pruned, over)
              << "n=" << n << " size=" << size << " t=" << t;
          EXPECT_EQ(table.count, over ? t + 1 : exact)
              << "n=" << n << " size=" << size << " t=" << t;
          // A walk cofactors the whole BDD at every assignment (milliseconds
          // at 16 random variables), so wide random tables compare it only
          // where the verdict can change: the ends and around the exact
          // count.
          if (!structured && n > 12 && t > 1 && std::abs(t - exact) > 1 &&
              t != last) {
            continue;
          }
          const BoundedCount walk = count_columns_bounded(spec, t);
          EXPECT_EQ(table.count, walk.count)
              << "n=" << n << " size=" << size << " t=" << t;
          EXPECT_EQ(table.pruned, walk.pruned)
              << "n=" << n << " size=" << size << " t=" << t;
        }
        for (const DcPolicy policy :
             {DcPolicy::kDistinctColumns, DcPolicy::kCliquePartition}) {
          EXPECT_EQ(count_compatible_classes(chart, spec.bound, policy),
                    count_compatible_classes(spec, policy))
              << "n=" << n << " size=" << size << " dc 1/" << dc_period;
        }
      }
    }
  }
}

TEST(BoundSetSearchTruthTableTest, WiderSupportsStayOnTheCutPath) {
  std::mt19937_64 rng(83);
  const int n = kTruthTableChartMaxVars + 1;
  Manager mgr(n);
  const IsfBdd f = random_isf(mgr, n, 0, rng);
  ASSERT_EQ(static_cast<int>(mgr.support(f.on).size()), n);
  TruthTableChart chart;
  EXPECT_FALSE(chart.load(mgr, f));
  EXPECT_FALSE(chart.loaded());
}

TEST(BoundSetSearchTest, EngineMatchesTheLegacyGreedyAcrossTheTableLimit) {
  // 10, 14 and 16 support variables take the truth-table path, 17 the
  // cofactor walk; both must reproduce the legacy greedy and its size-retry
  // loop, with and without an avoid set, also when the candidate pool is
  // narrower than the ISF support (the flow's hard-mu mode keeps pseudo
  // primary inputs out of the pool).
  std::mt19937_64 rng(82);
  for (const int n : {10, 14, 16, 17}) {
    Manager mgr(n);
    const IsfBdd f = random_isf(mgr, n, 16, rng, /*structured=*/true);
    const std::vector<int> support = mgr.support(f.on | f.dc);
    ASSERT_EQ(static_cast<int>(support.size()), n);
    std::vector<int> pool;
    for (int v : support) {
      if (v % 3 != 0) pool.push_back(v);
    }

    BoundSetSearch engine(mgr);
    for (const bool narrow : {false, true}) {
      const std::vector<int>& candidates = narrow ? pool : support;
      for (const bool avoid : {false, true}) {
        for (const bool nontrivial : {false, true}) {
          VarPartitionOptions options;
          options.bound_size = 4;
          options.require_nontrivial = nontrivial;
          if (avoid) options.avoid = {support[1], support[2], support[4]};
          expect_same_result(engine.select(f, candidates, options),
                             legacy_select(mgr, f, candidates, options),
                             narrow ? "narrow pool" : "full pool");
        }
      }
    }
    EXPECT_GT(engine.stats().candidates_evaluated, 0u);
    EXPECT_EQ(engine.stats().candidates_tt,
              n <= kTruthTableChartMaxVars
                  ? engine.stats().candidates_evaluated
                  : 0u)
        << "n=" << n;
  }
}

TEST(BoundSetSearchTest, EngineMatchesTheLegacyGreedy) {
  // Random ISFs of 6..8 variables in one manager. Each select must match the
  // legacy reference on a fresh engine, on a repeat, and on an engine that
  // has served every function before it.
  std::mt19937_64 rng(63);
  Manager mgr(8);
  BoundSetSearch shared(mgr);
  int walked_to_two = 0;  // non-trivial searches that failed at every size
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 6 + static_cast<int>(rng() % 3);  // 6..8 variables
    const Bdd on = random_bdd(mgr, n, rng);
    const Bdd dc = random_bdd(mgr, n, rng) & ~on;
    const IsfBdd f{on, dc};
    const std::vector<int> support = mgr.support(on | dc);
    if (static_cast<int>(support.size()) < 4) continue;

    VarPartitionOptions options;
    options.bound_size = 3 + static_cast<int>(rng() % 2);
    options.require_nontrivial = (rng() & 1) != 0;
    if ((rng() & 1) != 0) options.avoid = {support[0], support[1]};

    const VarPartitionResult reference =
        legacy_select(mgr, f, support, options);
    if (!reference.success && options.require_nontrivial) ++walked_to_two;

    BoundSetSearch engine(mgr);
    expect_same_result(engine.select(f, support, options), reference,
                       "single select");
    expect_same_result(engine.select(f, support, options), reference,
                       "repeat select");
    expect_same_result(shared.select(f, support, options), reference,
                       "shared engine");
  }
  EXPECT_GT(walked_to_two, 0);  // the prefix walk was exercised to its end
}

TEST(BoundSetSearchTest, GreedySetsOfSmallerSizesArePrefixes) {
  // The greedy growth never looks at the target size, so the set grown to
  // each size is contained in the set grown to the next: a non-trivial
  // search may grow once and walk the prefixes down. Each size must match
  // the legacy greedy.
  std::mt19937_64 rng(65);
  Manager mgr(8);
  const Bdd on = random_bdd(mgr, 8, rng);
  const IsfBdd f{on, mgr.zero()};
  const std::vector<int> support = mgr.support(on);
  ASSERT_GE(support.size(), 5u);

  BoundSetSearch engine(mgr);
  VarPartitionOptions options;
  options.require_nontrivial = false;
  std::vector<std::vector<int>> by_size(6);
  for (int size = 2; size <= 5; ++size) {
    options.bound_size = size;
    const VarPartitionResult got = engine.select(f, support, options);
    expect_same_result(got, legacy_select(mgr, f, support, options),
                       "bound size");
    by_size[static_cast<std::size_t>(size)] = got.bound;
  }
  for (std::size_t size = 2; size < 5; ++size) {
    EXPECT_TRUE(std::includes(by_size[size + 1].begin(),
                              by_size[size + 1].end(), by_size[size].begin(),
                              by_size[size].end()))
        << "size " << size;
  }
}

TEST(BoundSetSearchTest, OversizeBoundThrowsLikeLegacy) {
  Manager mgr(2);
  const IsfBdd f{mgr.var(0) & mgr.var(1), mgr.zero()};
  std::vector<int> support(kMaxBoundVars + 2);
  for (int v = 0; v < kMaxBoundVars + 2; ++v) support[v] = v;
  VarPartitionOptions options;
  options.bound_size = kMaxBoundVars + 1;
  BoundSetSearch engine(mgr);
  EXPECT_THROW(engine.select(f, support, options), std::invalid_argument);
}

TEST(BoundSetSearchTest, EncoderHookMatchesHookFreeEncoding) {
  // encode_classes with EncoderOptions::search must produce the identical
  // EncodingChoice (encoding, lambda hint, trace geometry) as without it.
  std::mt19937_64 rng(67);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 7;
    Manager mgr(n + 4);
    const Bdd on = random_bdd(mgr, n, rng);
    const IsfBdd f{on, mgr.zero()};
    const std::vector<int> support = mgr.support(on);
    if (static_cast<int>(support.size()) < 6) continue;

    DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = f;
    spec.bound.assign(support.begin(), support.begin() + 4);
    const auto classes =
        compute_compatible_classes(spec, DcPolicy::kCliquePartition);
    if (classes.num_classes() < 3) continue;
    std::vector<int> alpha_vars;
    for (int j = 0; j < classes.code_bits(); ++j) alpha_vars.push_back(n + j);

    core::EncoderOptions base;
    base.k = 4;
    base.seed = 11 + static_cast<std::uint64_t>(trial);
    const auto plain = core::encode_classes(mgr, classes, alpha_vars, base);

    BoundSetSearch engine(mgr);
    core::EncoderOptions hooked = base;
    hooked.search = &engine;
    const auto via_engine =
        core::encode_classes(mgr, classes, alpha_vars, hooked);

    EXPECT_EQ(plain.encoding.codes, via_engine.encoding.codes);
    EXPECT_EQ(plain.lambda_hint, via_engine.lambda_hint);
    EXPECT_EQ(plain.trace.used_random, via_engine.trace.used_random);
    EXPECT_EQ(plain.trace.num_rows, via_engine.trace.num_rows);
    EXPECT_EQ(plain.trace.num_cols, via_engine.trace.num_cols);
  }
}

}  // namespace
}  // namespace hyde::decomp
