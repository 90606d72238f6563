/// \file class_oracle_test.cpp
/// \brief The truth-table class path against the BDD-path oracle: for
/// supports of at most kTruthTableChartMaxVars variables,
/// compute_compatible_classes, count_compatible_classes,
/// BoundSetSearch::classes and the encoder's Step-8 costs must reproduce the
/// BDD path exactly — class count, member columns, and the node ids of every
/// column pattern, class function and indicator.

#include "oracles/class_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "core/encoder.hpp"
#include "decomp/search.hpp"
#include "decomp/step.hpp"
#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

constexpr DcPolicy kPolicies[] = {DcPolicy::kCliquePartition,
                                  DcPolicy::kDistinctColumns};

/// A random ISF over \p vars: onset with probability 1/on_mod, and, off the
/// onset, don't-care with probability 1/dc_mod (dc_mod 0: no don't cares).
/// With \p overlap the dc-set may also cover onset minterms, which only
/// merge_columns' formula (not an OR of dc-sets) resolves.
IsfBdd random_isf(Manager& mgr, std::mt19937_64& rng,
                  const std::vector<int>& vars, int on_mod, int dc_mod,
                  bool overlap = false) {
  const int n = static_cast<int>(vars.size());
  const Bdd on = mgr.from_truth_table(
      TruthTable::from_lambda(
          n, [&](std::uint64_t) { return rng() % on_mod == 0; }),
      vars);
  if (dc_mod == 0) return IsfBdd{on, mgr.zero()};
  const Bdd dc = mgr.from_truth_table(
      TruthTable::from_lambda(
          n, [&](std::uint64_t) { return rng() % dc_mod == 0; }),
      vars);
  return IsfBdd{on, overlap ? dc : dc & ~on};
}

void expect_same_classes(const ClassResult& got, const ClassResult& want,
                         const std::string& what) {
  ASSERT_EQ(got.num_classes(), want.num_classes()) << what;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << what;
  for (std::size_t c = 0; c < want.columns.size(); ++c) {
    EXPECT_EQ(got.columns[c].pattern.on, want.columns[c].pattern.on) << what;
    EXPECT_EQ(got.columns[c].pattern.dc, want.columns[c].pattern.dc) << what;
    EXPECT_EQ(got.columns[c].indicator, want.columns[c].indicator) << what;
  }
  for (std::size_t k = 0; k < want.classes.size(); ++k) {
    const CompatibleClass& a = got.classes[k];
    const CompatibleClass& b = want.classes[k];
    EXPECT_EQ(a.columns, b.columns) << what << " class " << k;
    EXPECT_EQ(a.function.on.id(), b.function.on.id()) << what << " class " << k;
    EXPECT_EQ(a.function.dc.id(), b.function.dc.id()) << what << " class " << k;
    EXPECT_EQ(a.indicator.id(), b.indicator.id()) << what << " class " << k;
  }
}

/// Checks every class entry point on one spec under both policies.
void expect_spec_matches_oracle(const DecompSpec& spec,
                                const std::string& what) {
  for (const DcPolicy policy : kPolicies) {
    const std::string label =
        what + (policy == DcPolicy::kCliquePartition ? " clique" : " distinct");
    ClassStats got_stats, want_stats;
    const ClassResult want =
        compute_compatible_classes_bdd(spec, policy, &want_stats);
    expect_same_classes(compute_compatible_classes(spec, policy, &got_stats),
                        want, label);
    EXPECT_EQ(got_stats.signature_pairs, want_stats.signature_pairs) << label;
    EXPECT_EQ(got_stats.bdd_pairs, want_stats.bdd_pairs) << label;
    // The λ-hint count.
    EXPECT_EQ(count_compatible_classes(spec, policy),
              count_compatible_classes_bdd(spec, policy))
        << label;
    EXPECT_EQ(count_compatible_classes(spec, policy), want.num_classes())
        << label;
  }
}

TEST(ClassOracle, RandomIsfsUpToTheTableLimit) {
  std::mt19937_64 rng(4242);
  for (int n = 1; n <= kTruthTableChartMaxVars; ++n) {
    for (int trial = 0; trial < (n <= 10 ? 4 : 1); ++trial) {
      // Two spare manager variables: the support is a shuffled subset.
      Manager mgr(n + 2);
      std::vector<int> vars(static_cast<std::size_t>(n + 2));
      for (int v = 0; v < n + 2; ++v) vars[static_cast<std::size_t>(v)] = v;
      std::shuffle(vars.begin(), vars.end(), rng);
      const std::vector<int> support(vars.begin(), vars.begin() + n);
      const int dc_mod = trial % 2 == 0 ? 0 : (n % 3 == 0 ? 2 : 5);
      const IsfBdd f = random_isf(mgr, rng, support, 3, dc_mod, trial == 3);
      const int bound_size =
          std::min(n, 1 + static_cast<int>(rng() % 6));
      DecompSpec spec;
      spec.mgr = &mgr;
      spec.f = f;
      spec.bound.assign(support.begin(), support.begin() + bound_size);
      const std::string what = "n=" + std::to_string(n) + " trial " +
                               std::to_string(trial);
      expect_spec_matches_oracle(spec, what);

      // A bound variable outside the support.
      DecompSpec odd = spec;
      odd.bound.push_back(vars[static_cast<std::size_t>(n)]);
      expect_spec_matches_oracle(odd, what + " odd lists");
    }
  }
}

TEST(ClassOracle, AllBoundSupportHasNoFreePositions) {
  std::mt19937_64 rng(77);
  for (const int dc_mod : {0, 2}) {
    Manager mgr(6);
    const IsfBdd f = random_isf(mgr, rng, {0, 1, 2, 3, 4}, 2, dc_mod);
    DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = f;
    spec.bound = {4, 0, 2, 1, 3};
    expect_spec_matches_oracle(spec, "all bound dc_mod=" +
                                         std::to_string(dc_mod));
  }
}

TEST(ClassOracle, DcHeavyChartsMergeColumns) {
  // Half the space don't-care: clique partitioning merges many columns,
  // so class functions differ from every member pattern.
  std::mt19937_64 rng(91);
  for (int trial = 0; trial < 6; ++trial) {
    Manager mgr(12);
    std::vector<int> vars(12);
    for (int v = 0; v < 12; ++v) vars[static_cast<std::size_t>(v)] = v;
    const IsfBdd f = random_isf(mgr, rng, vars, 5, 2, trial % 2 == 1);
    DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = f;
    spec.bound = {1, 3, 5, 7, 9, 11, 0, 2};
    const ClassResult classes = compute_compatible_classes(spec);
    EXPECT_LT(classes.num_classes(), static_cast<int>(classes.columns.size()));
    expect_spec_matches_oracle(spec, "dc heavy " + std::to_string(trial));
  }
}

TEST(ClassOracle, WideRowSpaceFallsBackToBddPairs) {
  // 13 free variables: past kSignatureMaxRows the table path decides pairs
  // by BDD tests, as the BDD path does.
  std::mt19937_64 rng(5);
  Manager mgr(16);
  std::vector<int> vars(16);
  for (int v = 0; v < 16; ++v) vars[static_cast<std::size_t>(v)] = v;
  DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = random_isf(mgr, rng, vars, 3, 4);
  spec.bound = {0, 1, 2};
  expect_spec_matches_oracle(spec, "wide rows");
}

TEST(ClassOracle, SearchClassesReuseTheSelectChart) {
  std::mt19937_64 rng(313);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 6 + trial % 7;
    Manager mgr(n);
    std::vector<int> support(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) support[static_cast<std::size_t>(v)] = v;
    const IsfBdd f = random_isf(mgr, rng, support, 3, trial % 3 == 0 ? 0 : 3);
    BoundSetSearch engine(mgr);
    for (const DcPolicy policy : kPolicies) {
      VarPartitionOptions options;
      options.bound_size = 4;
      options.dc_policy = policy;
      const VarPartitionResult vp = engine.select(f, support, options);
      if (!vp.success) continue;
      EXPECT_EQ(static_cast<int>(vp.class_groups.size()), vp.num_classes);
      DecompSpec spec;
      spec.mgr = &mgr;
      spec.f = f;
      spec.bound = vp.bound;
      ClassStats stats;
      expect_same_classes(engine.classes(f, vp, policy, &stats),
                          compute_compatible_classes_bdd(spec, policy),
                          "trial " + std::to_string(trial));
    }
  }
}

TEST(ClassOracle, StepEightCostsMatchTheBddRecount) {
  std::mt19937_64 rng(2718);
  int structured_checked = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 8 + trial % 3;
    Manager mgr(n + 6);
    std::vector<int> vars(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) vars[static_cast<std::size_t>(v)] = v;
    DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = random_isf(mgr, rng, vars, 3, trial % 2 == 0 ? 4 : 0);
    spec.bound.assign(vars.begin(), vars.begin() + (n - 3));
    const DcPolicy policy = kPolicies[trial % 2];
    const ClassResult classes = compute_compatible_classes(spec, policy);
    if (classes.num_classes() < 2) continue;
    std::vector<int> alpha_vars;
    for (int j = 0; j < classes.code_bits(); ++j) alpha_vars.push_back(n + j);
    core::EncoderOptions options;
    options.k = 4;
    options.seed = static_cast<std::uint64_t>(trial) + 1;
    options.dc_policy = policy;
    const core::EncodingChoice choice =
        core::encode_classes(mgr, classes, alpha_vars, options);
    if (choice.trace.random_image_classes < 0) continue;

    std::vector<IsfBdd> functions;
    for (const CompatibleClass& cls : classes.classes) {
      functions.push_back(cls.function);
    }
    const auto recount = [&](const Encoding& encoding) {
      DecompSpec image;
      image.mgr = &mgr;
      image.f = build_image(mgr, functions, encoding, alpha_vars);
      image.bound = choice.trace.lambda_prime;
      return count_compatible_classes_bdd(image, policy);
    };
    const Encoding random_enc =
        random_encoding(classes.num_classes(), options.seed);
    EXPECT_EQ(choice.trace.random_image_classes, recount(random_enc))
        << "trial " << trial;
    if (!choice.trace.used_random) {
      EXPECT_EQ(choice.trace.chosen_image_classes, recount(choice.encoding))
          << "trial " << trial;
      ++structured_checked;
    }
  }
  EXPECT_GT(structured_checked, 0);
}

}  // namespace
}  // namespace hyde::decomp
