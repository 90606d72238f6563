#include "core/encoder.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "decomp/search.hpp"
#include "graph/matching.hpp"
#include "tt/truth_table.hpp"

namespace hyde::core {

namespace {

using decomp::Encoding;
using decomp::IsfBdd;
using decomp::Partition;

int bits_for(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

std::map<int, int> symbol_counts(const Partition& p) {
  std::map<int, int> counts;
  for (int s : p.symbols) ++counts[s];
  return counts;
}

int total_symbol_kinds(const std::vector<Partition>& parts) {
  std::set<int> all;
  for (const Partition& p : parts) all.insert(p.symbols.begin(), p.symbols.end());
  return static_cast<int>(all.size());
}

/// Writes \p block (the low 2^width bits of a table over width variables)
/// as block number \p index of \p table.
void place_block(std::vector<std::uint64_t>* table,
                 const std::vector<std::uint64_t>& block, int width,
                 std::size_t index) {
  if (width >= 6) {
    const auto at = static_cast<std::ptrdiff_t>(index * block.size());
    std::copy(block.begin(), block.end(), table->begin() + at);
    return;
  }
  const std::size_t bit = index << width;
  (*table)[bit >> 6] |= block[0] << (bit & 63);
}

/// Number of compatible classes of the image built from \p functions under
/// \p encoding, decomposed with bound set \p lambda (the Step-8 cost). When
/// the functions' support and the α variables fit one TruthTableChart, the
/// image is assembled on tables, one block per code (build_image's image:
/// a class's on and dc under its code, an all-dc block under an unused
/// one), and counted there; otherwise it is built and counted as BDDs.
int image_class_cost(bdd::Manager& mgr, const std::vector<IsfBdd>& functions,
                     const Encoding& encoding, const std::vector<int>& alpha_vars,
                     const std::vector<int>& lambda,
                     decomp::DcPolicy dc_policy,
                     decomp::ClassStats* class_stats) {
  std::set<int> input_set;
  for (const IsfBdd& fn : functions) {
    for (int v : mgr.support(fn.on)) input_set.insert(v);
    for (int v : mgr.support(fn.dc)) input_set.insert(v);
  }
  std::vector<int> vars(input_set.begin(), input_set.end());
  const bool alpha_apart = std::none_of(
      alpha_vars.begin(), alpha_vars.end(),
      [&input_set](int v) { return input_set.count(v) != 0; });
  const int width = static_cast<int>(vars.size());
  const int num_vars = width + static_cast<int>(alpha_vars.size());
  if (alpha_apart && num_vars <= decomp::kTruthTableChartMaxVars) {
    const std::size_t words =
        num_vars <= 6 ? 1 : std::size_t{1} << (num_vars - 6);
    std::vector<std::uint64_t> on(words, 0);
    std::vector<std::uint64_t> dc(words, 0);
    std::vector<char> used(std::size_t{1} << alpha_vars.size(), 0);
    for (std::size_t i = 0; i < functions.size(); ++i) {
      const std::uint32_t code = encoding.codes[i];
      used[code] = 1;
      place_block(&on, mgr.to_truth_table(functions[i].on, vars).words(),
                  width, code);
      place_block(&dc, mgr.to_truth_table(functions[i].dc, vars).words(),
                  width, code);
    }
    const std::vector<std::uint64_t> all_dc =
        tt::TruthTable::ones(width).words();
    for (std::size_t code = 0; code < used.size(); ++code) {
      if (used[code] == 0) place_block(&dc, all_dc, width, code);
    }
    vars.insert(vars.end(), alpha_vars.begin(), alpha_vars.end());
    decomp::TruthTableChart chart;
    chart.load(std::move(vars), std::move(on), std::move(dc));
    return decomp::count_compatible_classes(chart, lambda, dc_policy,
                                            class_stats);
  }
  return decomp::count_compatible_classes(
      decomp::DecompSpec{
          &mgr, decomp::build_image(mgr, functions, encoding, alpha_vars),
          lambda},
      dc_policy, class_stats);
}

}  // namespace

double row_benefit_br(const Partition& a, const Partition& b,
                      int total_kinds) {
  const auto ca = symbol_counts(a);
  const auto cb = symbol_counts(b);
  int only_a = 0, only_b = 0;
  for (const auto& [s, cnt] : ca) {
    if (cb.find(s) == cb.end()) ++only_a;
  }
  for (const auto& [s, cnt] : cb) {
    if (ca.find(s) == ca.end()) ++only_b;
  }
  // n_ij - n_i counts symbols of b missing from a and vice versa.
  return static_cast<double>(total_kinds) - only_b - only_a;
}

double row_benefit_bc(const Partition& a, const Partition& b,
                      int total_kinds) {
  const auto ca = symbol_counts(a);
  const auto cb = symbol_counts(b);
  const double m = static_cast<double>(a.symbols.size() + b.symbols.size());
  const double k = total_kinds > 0 ? m / total_kinds : 0.0;
  double benefit = 0.0;
  for (const auto& [s, cnt] : ca) {
    const auto it = cb.find(s);
    if (it != cb.end()) {
      benefit += static_cast<double>(cnt + it->second) - k;
    }
  }
  return benefit;
}

ChartAssembly assemble_chart(const std::vector<Partition>& partitions,
                             int num_rows, int num_cols) {
  const int n = static_cast<int>(partitions.size());
  ChartAssembly assembly;
  const int total_kinds = total_symbol_kinds(partitions);

  // ---- Step 5: CombineColumnSets — Psc table + column-graph b-matching.
  // A partition "has" Psc S when one of its same-content position groups
  // *contains* S (Figure 4(b) lists Π7 under p0p3 because Π7's group is
  // p0p1p3). Candidates are the maximal groups observed in any partition.
  std::vector<std::vector<std::vector<int>>> groups_of(
      static_cast<std::size_t>(n));
  std::set<std::vector<int>> candidates;
  for (int i = 0; i < n; ++i) {
    groups_of[static_cast<std::size_t>(i)] =
        partitions[static_cast<std::size_t>(i)].same_content_position_sets();
    for (const auto& g : groups_of[static_cast<std::size_t>(i)]) {
      candidates.insert(g);
    }
  }
  std::map<std::vector<int>, std::vector<int>> psc_map;
  for (const auto& candidate : candidates) {
    for (int i = 0; i < n; ++i) {
      for (const auto& g : groups_of[static_cast<std::size_t>(i)]) {
        if (std::includes(g.begin(), g.end(), candidate.begin(),
                          candidate.end())) {
          psc_map[candidate].push_back(i);
          break;
        }
      }
    }
  }
  std::vector<graph::BMatchEdge> gc_edges;
  std::vector<int> u_capacity;
  std::vector<int> u_psc;  // psc_table entry realized by each u vertex
  for (auto& [positions, parts] : psc_map) {
    if (parts.size() < 2) continue;
    assembly.psc_table.push_back(PscRecord{positions, parts});
    const int record = static_cast<int>(assembly.psc_table.size()) - 1;
    const int copies =
        (static_cast<int>(parts.size()) - 1 + num_rows - 1) / num_rows;
    const double weight =
        static_cast<double>(positions.size()) + static_cast<double>(parts.size());
    for (int c = 0; c < copies; ++c) {
      const int u = static_cast<int>(u_capacity.size());
      u_capacity.push_back(num_rows);
      u_psc.push_back(record);
      for (int p : parts) {
        gc_edges.push_back(graph::BMatchEdge{p, u, weight});
      }
    }
  }
  const auto gc_match = graph::max_weight_b_matching(
      n, static_cast<int>(u_capacity.size()), u_capacity, gc_edges);

  std::vector<int> colset_of(static_cast<std::size_t>(n), -1);
  std::vector<double> gc_weight(static_cast<std::size_t>(n), 0.0);
  std::vector<std::vector<int>> colsets;
  {
    std::map<int, std::vector<int>> by_u;
    for (int i = 0; i < n; ++i) {
      const int u = gc_match.left_match[static_cast<std::size_t>(i)];
      if (u >= 0) {
        by_u[u].push_back(i);
        const PscRecord& rec =
            assembly.psc_table[static_cast<std::size_t>(u_psc[static_cast<std::size_t>(u)])];
        gc_weight[static_cast<std::size_t>(i)] =
            static_cast<double>(rec.positions.size()) +
            static_cast<double>(rec.partitions.size());
      }
    }
    for (auto& [u, members] : by_u) {
      for (int m : members) {
        colset_of[static_cast<std::size_t>(m)] = static_cast<int>(colsets.size());
      }
      colsets.push_back(members);
    }
    for (int i = 0; i < n; ++i) {
      if (colset_of[static_cast<std::size_t>(i)] < 0) {
        colset_of[static_cast<std::size_t>(i)] = static_cast<int>(colsets.size());
        colsets.push_back({i});
      }
    }
    assembly.column_sets = colsets;
  }

  // ---- Steps 6-7: merge row sets (and column sets) until the chart fits.
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) rows[static_cast<std::size_t>(i)] = {i};

  auto row_rep = [&](const std::vector<int>& members) {
    std::vector<Partition> parts;
    for (int m : members) parts.push_back(partitions[static_cast<std::size_t>(m)]);
    return decomp::disjunction(parts);
  };
  auto live_colsets = [&]() {
    int count = 0;
    for (const auto& cs : colsets) {
      if (!cs.empty()) ++count;
    }
    return count;
  };
  auto merge_rows = [&](std::size_t r1, std::size_t r2) {
    // Step-7 priority: members of r2 clashing with r1's column sets are torn
    // out of their column set into fresh singletons.
    std::set<int> used;
    for (int m : rows[r1]) used.insert(colset_of[static_cast<std::size_t>(m)]);
    for (int m : rows[r2]) {
      int& cs = colset_of[static_cast<std::size_t>(m)];
      if (used.count(cs) != 0) {
        auto& old_members = colsets[static_cast<std::size_t>(cs)];
        old_members.erase(std::find(old_members.begin(), old_members.end(), m));
        cs = static_cast<int>(colsets.size());
        colsets.push_back({m});
      }
      used.insert(cs);
    }
    rows[r1].insert(rows[r1].end(), rows[r2].begin(), rows[r2].end());
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(r2));
  };

  bool assembled = true;
  const int max_iterations = 4 * (bits_for(n) + 4);
  while (static_cast<int>(rows.size()) > num_rows || live_colsets() > num_cols) {
    if (++assembly.iterations > max_iterations) {
      assembled = false;
      break;
    }
    const int sigma = std::max(0, static_cast<int>(rows.size()) - num_rows);
    const int tau = std::max(0, live_colsets() - num_cols);

    if (static_cast<int>(rows.size()) > num_rows) {
      // Benefits over current row sets (represented by their Πd).
      std::vector<Partition> reps;
      reps.reserve(rows.size());
      for (const auto& members : rows) reps.push_back(row_rep(members));
      std::vector<std::pair<int, int>> gr_edges;
      std::map<std::pair<int, int>, double> benefit;
      for (std::size_t a = 0; a < rows.size(); ++a) {
        for (std::size_t b = a + 1; b < rows.size(); ++b) {
          if (static_cast<int>(rows[a].size() + rows[b].size()) > num_cols) {
            continue;  // the merged row could not be encoded
          }
          double w = sigma * row_benefit_br(reps[a], reps[b], total_kinds) +
                     tau * row_benefit_bc(reps[a], reps[b], total_kinds);
          // Same-column-set tearing penalty.
          std::set<int> cs_a;
          for (int m : rows[a]) cs_a.insert(colset_of[static_cast<std::size_t>(m)]);
          for (int m : rows[b]) {
            if (cs_a.count(colset_of[static_cast<std::size_t>(m)]) != 0) {
              w -= gc_weight[static_cast<std::size_t>(m)];
            }
          }
          gr_edges.emplace_back(static_cast<int>(a), static_cast<int>(b));
          benefit[{static_cast<int>(a), static_cast<int>(b)}] = w;
        }
      }
      const auto mate =
          graph::max_cardinality_matching(static_cast<int>(rows.size()), gr_edges);
      std::vector<std::pair<double, std::pair<int, int>>> chosen;
      for (int v = 0; v < static_cast<int>(rows.size()); ++v) {
        const int u = mate[static_cast<std::size_t>(v)];
        if (u > v) {
          chosen.push_back({benefit[{v, u}], {v, u}});
        }
      }
      std::sort(chosen.begin(), chosen.end(), [](const auto& x, const auto& y) {
        if (x.first != y.first) return x.first > y.first;
        return x.second < y.second;
      });
      // Merge matched pairs, best first, until the row budget is met.
      std::vector<std::vector<int>> merged_pairs;
      for (const auto& [w, pair] : chosen) {
        if (static_cast<int>(rows.size()) - static_cast<int>(merged_pairs.size()) <=
            num_rows) {
          break;
        }
        merged_pairs.push_back({pair.first, pair.second});
      }
      if (!merged_pairs.empty()) {
        // Apply merges from the highest indices downward so indices stay valid.
        std::sort(merged_pairs.begin(), merged_pairs.end(),
                  [](const auto& x, const auto& y) { return x[1] > y[1]; });
        for (const auto& pair : merged_pairs) {
          merge_rows(static_cast<std::size_t>(pair[0]),
                     static_cast<std::size_t>(pair[1]));
        }
        continue;
      }
      // No matching progress: redistribute the smallest row set.
      std::size_t smallest = 0;
      for (std::size_t r = 1; r < rows.size(); ++r) {
        if (rows[r].size() < rows[smallest].size()) smallest = r;
      }
      std::vector<int> homeless = rows[smallest];
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(smallest));
      for (int m : homeless) {
        bool placed = false;
        for (auto& row : rows) {
          if (static_cast<int>(row.size()) < num_cols) {
            std::set<int> used;
            for (int x : row) used.insert(colset_of[static_cast<std::size_t>(x)]);
            int& cs = colset_of[static_cast<std::size_t>(m)];
            if (used.count(cs) != 0) {
              auto& old_members = colsets[static_cast<std::size_t>(cs)];
              old_members.erase(
                  std::find(old_members.begin(), old_members.end(), m));
              cs = static_cast<int>(colsets.size());
              colsets.push_back({m});
            }
            row.push_back(m);
            placed = true;
            break;
          }
        }
        if (!placed) {
          assembled = false;
          break;
        }
      }
      if (!assembled) break;
      continue;
    }

    // Rows fit; too many column sets: merge the pair with the smallest
    // conjunction-multiplicity increase among row-compatible pairs.
    int best_c1 = -1, best_c2 = -1;
    long best_increase = std::numeric_limits<long>::max();
    long best_mult = std::numeric_limits<long>::max();
    auto colset_conjunction_mult = [&](const std::vector<int>& members) {
      std::vector<Partition> parts;
      for (int m : members) parts.push_back(partitions[static_cast<std::size_t>(m)]);
      return static_cast<long>(decomp::conjunction(parts).multiplicity());
    };
    auto row_of_member = [&](int member) {
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (std::find(rows[r].begin(), rows[r].end(), member) != rows[r].end()) {
          return static_cast<int>(r);
        }
      }
      return -1;
    };
    for (std::size_t c1 = 0; c1 < colsets.size(); ++c1) {
      if (colsets[c1].empty()) continue;
      for (std::size_t c2 = c1 + 1; c2 < colsets.size(); ++c2) {
        if (colsets[c2].empty()) continue;
        // Row compatibility: no row may contain members of both sets.
        std::set<int> rows1;
        for (int m : colsets[c1]) rows1.insert(row_of_member(m));
        bool conflict = false;
        for (int m : colsets[c2]) {
          if (rows1.count(row_of_member(m)) != 0) {
            conflict = true;
            break;
          }
        }
        if (conflict) continue;
        std::vector<int> combined = colsets[c1];
        combined.insert(combined.end(), colsets[c2].begin(), colsets[c2].end());
        const long mult = colset_conjunction_mult(combined);
        const long base = std::max(colset_conjunction_mult(colsets[c1]),
                                   colset_conjunction_mult(colsets[c2]));
        const long increase = mult - base;
        if (increase < best_increase ||
            (increase == best_increase && mult < best_mult)) {
          best_increase = increase;
          best_mult = mult;
          best_c1 = static_cast<int>(c1);
          best_c2 = static_cast<int>(c2);
        }
      }
    }
    if (best_c1 < 0) {
      assembled = false;
      break;
    }
    for (int m : colsets[static_cast<std::size_t>(best_c2)]) {
      colset_of[static_cast<std::size_t>(m)] = best_c1;
      colsets[static_cast<std::size_t>(best_c1)].push_back(m);
    }
    colsets[static_cast<std::size_t>(best_c2)].clear();
  }

  if (!assembled) {
    // The benefit-driven merger dead-ended (tight charts can exhaust the
    // row-compatible column merges). Fall back to an arbitrary valid
    // placement: row r = partitions [r*#C, (r+1)*#C), column = offset.
    // Theorem 3.2 guarantees this is still a correct strict encoding; the
    // caller's Step-8 comparison guards against quality loss.
    rows.clear();
    colsets.assign(static_cast<std::size_t>(num_cols), {});
    for (int m = 0; m < n; ++m) {
      const int r = m / num_cols;
      const int c = m % num_cols;
      if (r >= static_cast<int>(rows.size())) rows.emplace_back();
      rows[static_cast<std::size_t>(r)].push_back(m);
      colsets[static_cast<std::size_t>(c)].push_back(m);
      colset_of[static_cast<std::size_t>(m)] = c;
    }
    if (static_cast<int>(rows.size()) > num_rows) {
      return assembly;  // n > #R * #C: genuinely impossible
    }
  }

  // Final grouping: rank live column sets, record per-partition coordinates.
  std::vector<int> col_rank(colsets.size(), -1);
  int next_rank = 0;
  for (std::size_t c = 0; c < colsets.size(); ++c) {
    if (!colsets[c].empty()) {
      col_rank[c] = next_rank++;
      assembly.final_column_sets.push_back(colsets[c]);
    }
  }
  assembly.row_sets = rows;
  assembly.row_of.assign(static_cast<std::size_t>(n), -1);
  assembly.col_of.assign(static_cast<std::size_t>(n), -1);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (int m : rows[r]) {
      assembly.row_of[static_cast<std::size_t>(m)] = static_cast<int>(r);
      assembly.col_of[static_cast<std::size_t>(m)] =
          col_rank[static_cast<std::size_t>(colset_of[static_cast<std::size_t>(m)])];
    }
  }
  assembly.success = true;
  return assembly;
}

decomp::Encoding encode_cube_min(bdd::Manager& mgr,
                                 const decomp::ClassResult& classes,
                                 const std::vector<int>& alpha_vars,
                                 std::uint64_t seed, int max_passes) {
  const int n = classes.num_classes();
  Encoding enc = decomp::random_encoding(n, seed);
  if (n <= 1) return enc;
  std::vector<IsfBdd> functions;
  functions.reserve(static_cast<std::size_t>(n));
  for (const auto& cls : classes.classes) functions.push_back(cls.function);

  auto cost = [&](const Encoding& candidate) {
    const IsfBdd image =
        decomp::build_image(mgr, functions, candidate, alpha_vars);
    return mgr.one_path_count(image.on);
  };
  double best_cost = cost(enc);
  const std::uint32_t code_space = 1u << enc.num_bits;

  for (int pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    // Swap pairs of class codes.
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        Encoding candidate = enc;
        std::swap(candidate.codes[static_cast<std::size_t>(a)],
                  candidate.codes[static_cast<std::size_t>(b)]);
        const double c = cost(candidate);
        if (c < best_cost) {
          best_cost = c;
          enc = std::move(candidate);
          improved = true;
        }
      }
    }
    // Move classes onto unused code words.
    std::vector<char> used(code_space, 0);
    for (std::uint32_t c : enc.codes) used[c] = 1;
    for (int a = 0; a < n; ++a) {
      for (std::uint32_t w = 0; w < code_space; ++w) {
        if (used[w]) continue;
        Encoding candidate = enc;
        candidate.codes[static_cast<std::size_t>(a)] = w;
        const double c = cost(candidate);
        if (c < best_cost) {
          best_cost = c;
          used[enc.codes[static_cast<std::size_t>(a)]] = 0;
          used[w] = 1;
          enc = std::move(candidate);
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
  return enc;
}

EncodingChoice encode_classes(bdd::Manager& mgr,
                              const decomp::ClassResult& classes,
                              const std::vector<int>& alpha_vars,
                              const EncoderOptions& options) {
  std::vector<IsfBdd> functions;
  functions.reserve(classes.classes.size());
  for (const auto& cls : classes.classes) functions.push_back(cls.function);
  return encode_functions(mgr, functions, alpha_vars, options);
}

EncodingChoice encode_functions(bdd::Manager& mgr,
                                const std::vector<IsfBdd>& functions,
                                const std::vector<int>& alpha_vars,
                                const EncoderOptions& options) {
  const int n = static_cast<int>(functions.size());
  if (n == 0) throw std::invalid_argument("encode_functions: no functions");
  const int t = bits_for(n);
  if (static_cast<int>(alpha_vars.size()) != t) {
    throw std::invalid_argument("encode_functions: need ceil(log2 n) alpha vars");
  }

  EncodingChoice choice;
  choice.encoding = decomp::random_encoding(n, options.seed);
  if (n == 1) {
    choice.trace.trivially_feasible = true;
    return choice;
  }

  // Step 1: the trial image under a random encoding.
  const Encoding random_enc = choice.encoding;
  const IsfBdd g_trial =
      decomp::build_image(mgr, functions, random_enc, alpha_vars);

  // Step 2: if g' is already κ-feasible any encoding does.
  const std::vector<int> support = decomp::isf_support(mgr, g_trial);
  if (static_cast<int>(support.size()) <= options.k) {
    choice.trace.trivially_feasible = true;
    return choice;
  }

  // Step 3: variable partitioning of g' picks λ'.
  decomp::VarPartitionOptions vp_options;
  vp_options.bound_size = std::min(options.k, static_cast<int>(support.size()) - 1);
  vp_options.require_nontrivial = false;
  vp_options.dc_policy = options.dc_policy;
  std::optional<decomp::BoundSetSearch> local;
  decomp::BoundSetSearch& search =
      options.search != nullptr ? *options.search : local.emplace(mgr);
  const auto vp = search.select(g_trial, support, vp_options);
  if (!vp.success) {
    choice.trace.trivially_feasible = true;  // nothing sensible to do
    return choice;
  }
  EncodingTrace& trace = choice.trace;
  trace.lambda_prime = vp.bound;
  choice.lambda_hint = vp.bound;

  // Split λ' into α bits (columns) and free variables (positions Y1).
  for (int j = 0; j < t; ++j) {
    const int v = alpha_vars[static_cast<std::size_t>(j)];
    if (std::find(vp.bound.begin(), vp.bound.end(), v) != vp.bound.end()) {
      trace.column_alpha_bits.push_back(j);
    } else {
      trace.row_alpha_bits.push_back(j);
    }
  }
  for (int v : vp.bound) {
    if (std::find(alpha_vars.begin(), alpha_vars.end(), v) == alpha_vars.end()) {
      trace.position_vars.push_back(v);
    }
  }

  // Theorem 3.1: with all α's on one side the encoding cannot matter.
  if (trace.column_alpha_bits.empty() ||
      static_cast<int>(trace.column_alpha_bits.size()) == t) {
    trace.theorem31_exit = true;
    return choice;
  }

  const int num_cols = 1 << trace.column_alpha_bits.size();
  const int num_rows = 1 << trace.row_alpha_bits.size();
  trace.num_cols = num_cols;
  trace.num_rows = num_rows;

  // Step 4: partitions of the class functions w.r.t. Y1, interned in
  // class-index order so symbol ids are deterministic.
  decomp::SymbolTable symbols;
  for (const IsfBdd& fn : functions) {
    trace.partitions.push_back(
        decomp::make_partition(mgr, fn, trace.position_vars, symbols));
  }

  // Steps 5-7.
  const ChartAssembly assembly =
      assemble_chart(trace.partitions, num_rows, num_cols);
  trace.psc_table = assembly.psc_table;
  trace.column_sets = assembly.column_sets;
  trace.step7_iterations = assembly.iterations;

  Encoding structured;
  bool assembled = assembly.success;
  if (assembled) {
    // Step 9: row index → row α bits, column-set rank → column α bits.
    structured.num_bits = t;
    structured.codes.assign(static_cast<std::size_t>(n), 0);
    for (int m = 0; m < n; ++m) {
      std::uint32_t code = 0;
      const int col = assembly.col_of[static_cast<std::size_t>(m)];
      const int row = assembly.row_of[static_cast<std::size_t>(m)];
      for (std::size_t bit = 0; bit < trace.column_alpha_bits.size(); ++bit) {
        if ((static_cast<std::uint32_t>(col) >> bit) & 1) {
          code |= 1u << trace.column_alpha_bits[bit];
        }
      }
      for (std::size_t bit = 0; bit < trace.row_alpha_bits.size(); ++bit) {
        if ((static_cast<std::uint32_t>(row) >> bit) & 1) {
          code |= 1u << trace.row_alpha_bits[bit];
        }
      }
      structured.codes[static_cast<std::size_t>(m)] = code;
    }
    trace.row_sets = assembly.row_sets;
    trace.final_column_sets = assembly.final_column_sets;
    try {
      structured.validate(n);
    } catch (const std::invalid_argument&) {
      assembled = false;
    }
  }

  // Step 8: keep whichever encoding yields fewer image classes.
  // The random encoding's image is g' and λ' its bound set, so Step 3
  // already counted its classes.
  trace.random_image_classes = vp.num_classes;
  if (assembled) {
    trace.chosen_image_classes =
        image_class_cost(mgr, functions, structured, alpha_vars, vp.bound,
                         options.dc_policy, options.class_stats);
  }
  if (!assembled ||
      trace.random_image_classes < trace.chosen_image_classes) {
    trace.used_random = true;
    choice.encoding = random_enc;
  } else {
    choice.encoding = structured;
  }
  return choice;
}

}  // namespace hyde::core
