#include "decomp/compatible.hpp"

#include <cstdint>
#include <utility>

#include "graph/matching.hpp"
#include "tt/truth_table.hpp"

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

/// True when the truth-table chart serves \p spec; loads spec.f into
/// \p chart then. Malformed specs go to the BDD path, which rejects them.
bool load_chart(TruthTableChart& chart, const DecompSpec& spec) {
  return spec.mgr != nullptr &&
         static_cast<int>(spec.bound.size()) <= kMaxBoundVars &&
         chart.load(*spec.mgr, spec.f);
}

/// The function of \p words as a table over \p num_vars variables.
tt::TruthTable table_of(int num_vars, std::vector<std::uint64_t> words) {
  return tt::TruthTable::from_words(num_vars, std::move(words));
}

std::vector<std::uint64_t> complement(std::vector<std::uint64_t> words) {
  for (std::uint64_t& w : words) w = ~w;
  return words;
}

/// Column groups of signature-laid-out columns: one per column under
/// kDistinctColumns, else the clique partition of their compatibility graph.
std::vector<std::vector<int>> group_columns(
    const std::vector<ColumnSignature>& columns, DcPolicy policy,
    ClassStats* stats) {
  const std::size_t n = columns.size();
  std::vector<std::vector<int>> groups;
  if (policy == DcPolicy::kDistinctColumns) {
    for (std::size_t i = 0; i < n; ++i) groups.push_back({static_cast<int>(i)});
    return groups;
  }
  std::vector<std::vector<char>> adjacent(n, std::vector<char>(n, 0));
  fill_adjacency_from_signatures(columns, &adjacent);
  if (stats != nullptr) stats->signature_pairs += n * (n > 0 ? n - 1 : 0) / 2;
  return graph::clique_partition(static_cast<int>(n), adjacent);
}

}  // namespace

int ClassResult::code_bits() const {
  const int n = num_classes();
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

bool columns_compatible(bdd::Manager& mgr, const IsfBdd& a, const IsfBdd& b) {
  return mgr.disjoint(a.on, b.off()) && mgr.disjoint(b.on, a.off());
}

ReducedIsf reduce_support(bdd::Manager& mgr, IsfBdd f) {
  if (f.dc.is_zero()) return {f, mgr.support(f.on)};
  std::vector<int> support;
  bool changed = true;
  while (changed) {
    changed = false;
    // The pass that drops nothing leaves f as this support describes it.
    support = isf_support(mgr, f);
    for (int v : support) {
      const IsfBdd f0{mgr.cofactor(f.on, v, false), mgr.cofactor(f.dc, v, false)};
      const IsfBdd f1{mgr.cofactor(f.on, v, true), mgr.cofactor(f.dc, v, true)};
      if (columns_compatible(mgr, f0, f1)) {
        const bdd::Bdd on = f0.on | f1.on;
        const bdd::Bdd care = f0.on | f0.off() | f1.on | f1.off();
        f = IsfBdd{on, ~care};
        changed = true;
      }
    }
  }
  return {f, std::move(support)};
}

IsfBdd merge_columns(bdd::Manager& mgr, const std::vector<Column>& columns,
                     const std::vector<int>& members) {
  bdd::Bdd on = mgr.zero();
  bdd::Bdd care = mgr.zero();
  for (int m : members) {
    const IsfBdd& p = columns[static_cast<std::size_t>(m)].pattern;
    on = on | p.on;
    care = care | p.on | p.off();
  }
  return IsfBdd{on, ~care};
}

ClassResult build_classes(bdd::Manager& mgr, const ChartLayout& layout,
                          const std::vector<std::vector<int>>& groups) {
  const int rows = static_cast<int>(layout.row_vars.size());
  const int p = static_cast<int>(layout.column_vars.size());
  const std::size_t blocks = layout.block_column.size();
  ClassResult result;
  // Columns: pattern and indicator, one from_truth_table call each.
  std::vector<std::vector<std::uint64_t>> indicators(
      layout.columns.size(), std::vector<std::uint64_t>((blocks + 63) / 64, 0));
  for (std::size_t b = 0; b < blocks; ++b) {
    indicators[static_cast<std::size_t>(layout.block_column[b])][b >> 6] |=
        std::uint64_t{1} << (b & 63);
  }
  result.columns.resize(layout.columns.size());
  for (std::size_t c = 0; c < layout.columns.size(); ++c) {
    const ColumnSignature& sig = layout.columns[c];
    Column& column = result.columns[c];
    column.pattern.on =
        mgr.from_truth_table(table_of(rows, sig.on), layout.row_vars);
    column.pattern.dc = mgr.from_truth_table(
        table_of(rows, complement(sig.care)), layout.row_vars);
    column.indicator =
        mgr.from_truth_table(table_of(p, indicators[c]), layout.column_vars);
  }
  // Classes: the members' blocks merged by merge_columns' formula,
  // care |= on | ~(on | dc), where a signature's care is ~dc. A single
  // column whose onset misses its dc-set is its own class function.
  result.classes.reserve(groups.size());
  for (const std::vector<int>& members : groups) {
    CompatibleClass cls;
    cls.columns = members;
    const auto first = static_cast<std::size_t>(members.front());
    std::vector<std::uint64_t> on = layout.columns[first].on;
    std::vector<std::uint64_t> care = layout.columns[first].care;
    std::vector<std::uint64_t> indicator = indicators[first];
    bool on_hits_dc = false;
    for (std::size_t w = 0; w < on.size(); ++w) {
      on_hits_dc |= (on[w] & ~care[w]) != 0;
      care[w] |= on[w];
    }
    if (members.size() == 1 && !on_hits_dc) {
      cls.function = result.columns[first].pattern;
      cls.indicator = result.columns[first].indicator;
    } else {
      for (std::size_t k = 1; k < members.size(); ++k) {
        const auto m = static_cast<std::size_t>(members[k]);
        const ColumnSignature& sig = layout.columns[m];
        for (std::size_t w = 0; w < on.size(); ++w) {
          on[w] |= sig.on[w];
          care[w] |= sig.on[w] | sig.care[w];
        }
        for (std::size_t w = 0; w < indicator.size(); ++w) {
          indicator[w] |= indicators[m][w];
        }
      }
      cls.function.on =
          mgr.from_truth_table(table_of(rows, std::move(on)), layout.row_vars);
      cls.function.dc = mgr.from_truth_table(
          table_of(rows, complement(std::move(care))), layout.row_vars);
      cls.indicator = mgr.from_truth_table(table_of(p, std::move(indicator)),
                                           layout.column_vars);
    }
    result.classes.push_back(std::move(cls));
  }
  return result;
}

ClassResult compute_compatible_classes(const DecompSpec& spec, DcPolicy policy,
                                       ClassStats* stats) {
  bdd::Manager& mgr = *spec.mgr;
  TruthTableChart chart;
  if (load_chart(chart, spec)) {
    const ChartLayout layout = chart.layout(spec.bound);
    // Past kSignatureMaxRows the pairs are BDD tests, as below.
    if ((std::int64_t{1} << layout.row_vars.size()) <= kSignatureMaxRows) {
      return build_classes(mgr, layout,
                           group_columns(layout.columns, policy, stats));
    }
  }

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

int count_compatible_classes(const DecompSpec& spec, DcPolicy policy,
                              ClassStats* stats) {
  TruthTableChart chart;
  if (load_chart(chart, spec)) {
    return count_compatible_classes(chart, spec.bound, policy, stats);
  }
  if (policy == DcPolicy::kDistinctColumns || spec.f.dc.is_zero()) {
    return count_columns(spec);
  }
  return compute_compatible_classes(spec, policy, stats).num_classes();
}

std::vector<std::vector<int>> class_groups(TruthTableChart& chart,
                                           const std::vector<int>& bound,
                                           DcPolicy policy,
                                           ClassStats* stats) {
  if (policy == DcPolicy::kDistinctColumns || chart.dc_is_zero()) {
    // Without don't cares distinct columns are pairwise incompatible, so
    // the clique partition is every column alone, in column order.
    std::vector<std::vector<int>> groups(
        static_cast<std::size_t>(chart.count_columns(bound, 0).count));
    for (std::size_t i = 0; i < groups.size(); ++i) {
      groups[i] = {static_cast<int>(i)};
    }
    return groups;
  }
  return group_columns(chart.layout(bound).columns, policy, stats);
}

int count_compatible_classes(TruthTableChart& chart,
                             const std::vector<int>& bound, DcPolicy policy,
                             ClassStats* stats) {
  return static_cast<int>(class_groups(chart, bound, policy, stats).size());
}

}  // namespace hyde::decomp
