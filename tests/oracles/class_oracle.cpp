#include "oracles/class_oracle.hpp"

#include <cstdint>
#include <vector>

#include "graph/matching.hpp"

namespace hyde::decomp {

namespace {

/// Word test behind the signature fast path: incompatibility is a nonzero
/// word of (a.on & b.care & ~b.on) | (b.on & a.care & ~a.on) — the packed
/// form of the two BDD disjointness tests of columns_compatible.
// hyde-hot
inline bool signature_pair_compatible(const std::uint64_t* a_on,
                                      const std::uint64_t* a_care,
                                      const std::uint64_t* b_on,
                                      const std::uint64_t* b_care,
                                      std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    if (((a_on[w] & b_care[w] & ~b_on[w]) |
         (b_on[w] & a_care[w] & ~a_on[w])) != 0) {
      return false;
    }
  }
  return true;
}

/// Pairwise-compatibility loop, signature form: O(c²·R/64) word ops.
// hyde-hot
void fill_adjacency_from_signatures(const std::vector<ColumnSignature>& sigs,
                                    std::vector<std::vector<char>>* adjacent) {
  const int n = static_cast<int>(sigs.size());
  const std::size_t words = sigs.empty() ? 0 : sigs[0].on.size();
  for (int i = 0; i < n; ++i) {
    const ColumnSignature& a = sigs[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < n; ++j) {
      const ColumnSignature& b = sigs[static_cast<std::size_t>(j)];
      if (signature_pair_compatible(a.on.data(), a.care.data(), b.on.data(),
                                    b.care.data(), words)) {
        (*adjacent)[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            1;
        (*adjacent)[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
            1;
      }
    }
  }
}

/// Pairwise-compatibility loop, BDD form. The per-column off() BDDs are
/// hoisted by the caller so the O(c²) pair loop stops recomputing them.
// hyde-hot
void fill_adjacency_from_bdds(bdd::Manager& mgr,
                              const std::vector<Column>& columns,
                              const std::vector<bdd::Bdd>& offs,
                              std::vector<std::vector<char>>* adjacent) {
  const int n = static_cast<int>(columns.size());
  for (int i = 0; i < n; ++i) {
    const IsfBdd& a = columns[static_cast<std::size_t>(i)].pattern;
    for (int j = i + 1; j < n; ++j) {
      const IsfBdd& b = columns[static_cast<std::size_t>(j)].pattern;
      if (mgr.disjoint(a.on, offs[static_cast<std::size_t>(j)]) &&
          mgr.disjoint(b.on, offs[static_cast<std::size_t>(i)])) {
        (*adjacent)[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            1;
        (*adjacent)[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
            1;
      }
    }
  }
}

}  // namespace

ClassResult compute_compatible_classes_bdd(const DecompSpec& spec,
                                           DcPolicy policy,
                                           ClassStats* stats) {
  bdd::Manager& mgr = *spec.mgr;
  ClassResult result;
  result.columns = enumerate_columns(spec);
  const int n = static_cast<int>(result.columns.size());

  std::vector<std::vector<int>> groups;
  if (policy == DcPolicy::kDistinctColumns) {
    for (int i = 0; i < n; ++i) groups.push_back({i});
  } else {
    // Build the column-compatibility graph and clique-partition it, exactly
    // the formulation of Section 3.1. The signature fast path and the BDD
    // fallback decide every pair identically (see ColumnSignature).
    std::vector<std::vector<char>> adjacent(
        static_cast<std::size_t>(n),
        std::vector<char>(static_cast<std::size_t>(n), 0));
    const std::uint64_t pairs =
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n > 0 ? n - 1 : 0) / 2;
    const std::vector<ColumnSignature> sigs =
        column_signatures(spec, result.columns);
    if (!sigs.empty()) {
      fill_adjacency_from_signatures(sigs, &adjacent);
      if (stats != nullptr) stats->signature_pairs += pairs;
    } else {
      // Hoist the per-column off() BDD out of the O(c²) pair loop.
      std::vector<bdd::Bdd> offs;
      offs.reserve(static_cast<std::size_t>(n));
      for (const Column& c : result.columns) {
        offs.push_back(c.pattern.off());
      }
      fill_adjacency_from_bdds(mgr, result.columns, offs, &adjacent);
      if (stats != nullptr) stats->bdd_pairs += pairs;
    }
    groups = graph::clique_partition(n, adjacent);
  }

  for (const auto& members : groups) {
    CompatibleClass cls;
    cls.columns = members;
    cls.function = merge_columns(mgr, result.columns, members);
    bdd::Bdd indicator = mgr.zero();
    for (int m : members) {
      indicator = indicator | result.columns[static_cast<std::size_t>(m)].indicator;
    }
    cls.indicator = std::move(indicator);
    result.classes.push_back(std::move(cls));
  }
  return result;
}

int count_compatible_classes_bdd(const DecompSpec& spec, DcPolicy policy) {
  if (policy == DcPolicy::kDistinctColumns || spec.f.dc.is_zero()) {
    return count_columns(spec);
  }
  return compute_compatible_classes_bdd(spec, policy).num_classes();
}

}  // namespace hyde::decomp
