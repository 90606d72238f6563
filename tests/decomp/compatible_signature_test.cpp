/// \file compatible_signature_test.cpp
/// \brief The class-computation engine against its references: the packed
/// row-signature compatibility test must agree pair by pair with the BDD
/// predicate, the production classes must equal the ones built from the BDD
/// predicate and the recount-from-scratch clique partitioner, and the
/// ClassStats counters must attribute pairs to the test that decided them —
/// including the BDD fallback that wide row spaces select.

#include "decomp/compatible.hpp"

#include <gtest/gtest.h>

#include <random>

#include "oracles/clique_oracle.hpp"
#include "tt/truth_table.hpp"

namespace hyde::decomp {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

DecompSpec make_spec(Manager& mgr, const Bdd& on, const Bdd& dc,
                     std::vector<int> bound) {
  DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = IsfBdd{on, dc};
  spec.bound = std::move(bound);
  return spec;
}

/// A DC-rich ISF over \p n variables: roughly a third of the space is on, a
/// quarter don't-care; the first three variables form the bound set.
DecompSpec random_isf_spec(Manager& mgr, std::mt19937_64& rng, int n = 6) {
  const Bdd on = mgr.from_truth_table(TruthTable::from_lambda(
      n, [&rng](std::uint64_t) { return (rng() % 3) == 0; }));
  const Bdd dc_raw = mgr.from_truth_table(TruthTable::from_lambda(
      n, [&rng](std::uint64_t) { return (rng() % 4) == 0; }));
  return make_spec(mgr, on, dc_raw & ~on, {0, 1, 2});
}

/// Column patterns over 13 free variables: the 2^13-row space exceeds
/// kSignatureMaxRows, so compatibility falls back to BDD tests.
constexpr int kWideVars = 16;

/// Class groups built the reference way: every column pair decided by
/// columns_compatible, grouped by the recount-from-scratch partitioner.
std::vector<std::vector<int>> reference_groups(const DecompSpec& spec) {
  const std::vector<Column> columns = enumerate_columns(spec);
  const int n = static_cast<int>(columns.size());
  std::vector<std::vector<char>> adjacent(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (columns_compatible(*spec.mgr,
                             columns[static_cast<std::size_t>(i)].pattern,
                             columns[static_cast<std::size_t>(j)].pattern)) {
        adjacent[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
        adjacent[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = 1;
      }
    }
  }
  return graph::clique_partition_reference(n, adjacent);
}

void expect_reference_classes(const DecompSpec& spec, const char* label) {
  const ClassResult result =
      compute_compatible_classes(spec, DcPolicy::kCliquePartition);
  const std::vector<std::vector<int>> groups = reference_groups(spec);
  ASSERT_EQ(result.classes.size(), groups.size()) << label;
  for (std::size_t k = 0; k < groups.size(); ++k) {
    EXPECT_EQ(result.classes[k].columns, groups[k]) << label;
    const IsfBdd merged = merge_columns(*spec.mgr, result.columns, groups[k]);
    EXPECT_EQ(result.classes[k].function.on, merged.on) << label;
    EXPECT_EQ(result.classes[k].function.dc, merged.dc) << label;
  }
}

TEST(CompatibleSignature, NoDontCaresPoliciesAgree) {
  // Completely specified charts: compatibility degenerates to equality, so
  // clique partitioning must return exactly the distinct columns.
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    Manager mgr(6);
    const Bdd on = mgr.from_truth_table(TruthTable::from_lambda(
        6, [&rng](std::uint64_t) { return (rng() & 1) != 0; }));
    const auto spec = make_spec(mgr, on, mgr.zero(), {0, 1, 2});
    const int distinct =
        count_compatible_classes(spec, DcPolicy::kDistinctColumns);
    EXPECT_EQ(count_compatible_classes(spec, DcPolicy::kCliquePartition),
              distinct)
        << "trial " << trial;
    const auto result =
        compute_compatible_classes(spec, DcPolicy::kCliquePartition);
    EXPECT_EQ(result.num_classes(), distinct);
    for (const auto& cls : result.classes) {
      EXPECT_EQ(cls.columns.size(), 1u) << "trial " << trial;
    }
  }
}

TEST(CompatibleSignature, DcRichClassesMatchTheReferenceOracle) {
  // Signature path (narrow rows) and BDD fallback (wide rows) must both
  // reproduce the classes of the BDD predicate + reference partitioner.
  std::mt19937_64 rng(909);
  for (int trial = 0; trial < 12; ++trial) {
    Manager mgr(6);
    expect_reference_classes(random_isf_spec(mgr, rng), "signature rows");
  }
  for (int trial = 0; trial < 2; ++trial) {
    Manager mgr(kWideVars);
    expect_reference_classes(random_isf_spec(mgr, rng, kWideVars),
                             "wide rows");
  }
}

TEST(CompatibleSignature, StatsAttributePairsToTheDecidingPath) {
  std::mt19937_64 rng(606);
  {
    Manager mgr(6);
    const auto spec = random_isf_spec(mgr, rng);
    ClassStats stats;
    const auto result =
        compute_compatible_classes(spec, DcPolicy::kCliquePartition, &stats);
    const auto n = static_cast<std::uint64_t>(result.columns.size());
    ASSERT_GE(n, 2u);
    // Signatures fit (row space is 2^3 <= 4096): every pair decided by words.
    EXPECT_EQ(stats.signature_pairs, n * (n - 1) / 2);
    EXPECT_EQ(stats.bdd_pairs, 0u);
  }
  {
    // 13 free variables: the row space exceeds kSignatureMaxRows, so every
    // pair is decided by BDD disjointness tests.
    Manager mgr(kWideVars);
    const auto spec = random_isf_spec(mgr, rng, kWideVars);
    ClassStats stats;
    const auto result =
        compute_compatible_classes(spec, DcPolicy::kCliquePartition, &stats);
    const auto n = static_cast<std::uint64_t>(result.columns.size());
    ASSERT_GE(n, 2u);
    EXPECT_TRUE(column_signatures(spec, result.columns).empty());
    EXPECT_EQ(stats.bdd_pairs, n * (n - 1) / 2);
    EXPECT_EQ(stats.signature_pairs, 0u);
  }
}

TEST(CompatibleSignature, SignatureAgreesWithBddPredicatePerPair) {
  // Direct cross-check of the two compatibility tests, pair by pair: derive
  // signatures for the enumerated columns and compare the word-form verdict
  // against columns_compatible for every column pair.
  std::mt19937_64 rng(1717);
  for (int trial = 0; trial < 8; ++trial) {
    Manager mgr(6);
    const auto spec = random_isf_spec(mgr, rng);
    const auto columns = enumerate_columns(spec);
    const auto sigs = column_signatures(spec, columns);
    ASSERT_EQ(sigs.size(), columns.size()) << "trial " << trial;
    for (std::size_t i = 0; i < columns.size(); ++i) {
      for (std::size_t j = i + 1; j < columns.size(); ++j) {
        bool word_ok = true;
        for (std::size_t w = 0; w < sigs[i].on.size(); ++w) {
          const std::uint64_t clash =
              (sigs[i].on[w] & sigs[j].care[w] & ~sigs[j].on[w]) |
              (sigs[j].on[w] & sigs[i].care[w] & ~sigs[i].on[w]);
          if (clash != 0) {
            word_ok = false;
            break;
          }
        }
        EXPECT_EQ(word_ok, columns_compatible(mgr, columns[i].pattern,
                                              columns[j].pattern))
            << "trial " << trial << " pair " << i << "," << j;
      }
    }
  }
}

}  // namespace
}  // namespace hyde::decomp
