/// \file bdd_micro.cpp
/// \brief BDD-kernel microbenchmark: the workloads every HYDE step bottoms
/// out in (apply/ITE chains, repeated cofactoring, quantification/compose and
/// chart-column enumeration), timed and emitted as JSON.
///
/// The harness is deliberately written against the public Manager/chart API
/// only, so the *same* source runs on the seed kernel (per-call memo maps,
/// unordered_map ITE cache) and on the unified-computed-table kernel; the
/// committed BENCH_bdd.json holds one run of each, produced by
///
///     bdd_micro --label=seed      (at the pre-overhaul commit)
///     bdd_micro --label=unified   (after)
///
/// Checksums are function-level invariants (satisfy counts, column counts) so
/// a kernel change that alters results — not just speed — is caught here too.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "decomp/chart.hpp"
#include "tt/truth_table.hpp"

namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Bdd random_bdd(Manager& mgr, int num_vars, std::uint64_t& state) {
  const TruthTable table = TruthTable::from_lambda(
      num_vars, [&state](std::uint64_t) { return (splitmix64(state) & 1) != 0; });
  return mgr.from_truth_table(table);
}

struct WorkloadResult {
  std::string name;
  double seconds = 0.0;
  std::uint64_t checksum = 0;  ///< kernel-independent functional invariant
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Pairwise AND/XOR/OR/NOT chains over a pool of random 12-var functions —
/// the shape of image construction and encoder trials.
WorkloadResult bench_apply_mix(int rounds) {
  const int n = 12;
  Manager mgr(n);
  std::uint64_t state = 0x5EEDull;
  std::vector<Bdd> pool;
  for (int i = 0; i < 16; ++i) pool.push_back(random_bdd(mgr, n, state));

  WorkloadResult result;
  result.name = "apply_mix";
  const auto start = std::chrono::steady_clock::now();
  double sat_sum = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      for (std::size_t j = i + 1; j < pool.size(); ++j) {
        const Bdd conj = pool[i] & pool[j];
        const Bdd parity = pool[i] ^ pool[j];
        const Bdd mix = conj | ~parity;
        // Checksum sparsely: sat_count is not a kernel under test and would
        // otherwise dominate the loop.
        if ((i + j) % 8 == 0) sat_sum += mgr.sat_count(mix, n);
      }
    }
  }
  result.seconds = seconds_since(start);
  result.checksum = static_cast<std::uint64_t>(sat_sum);
  return result;
}

/// Repeated single-variable cofactoring of the same functions — the access
/// pattern of the greedy bound-set search (column_cost probes every
/// candidate variable against the same f over and over).
WorkloadResult bench_cofactor_sweep(int rounds) {
  const int n = 14;
  Manager mgr(n);
  std::uint64_t state = 0xC0Full;
  const Bdd f = random_bdd(mgr, n, state);
  const Bdd g = random_bdd(mgr, n, state);

  WorkloadResult result;
  result.name = "cofactor_sweep";
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t count = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int v = 0; v < n; ++v) {
      for (int value = 0; value < 2; ++value) {
        const Bdd fc = mgr.cofactor(f, v, value != 0);
        const Bdd gc = mgr.cofactor(g, v, value != 0);
        for (int w = v + 1; w < n; ++w) {
          const Bdd fcw = mgr.cofactor(fc, w, true);
          const Bdd gcw = mgr.cofactor(gc, w, false);
          if (w == v + 1) {
            count += mgr.node_count(fcw) + mgr.node_count(gcw);
          } else {
            count += fcw.is_constant() ? 1u : 0u;
          }
        }
      }
    }
  }
  result.seconds = seconds_since(start);
  result.checksum = count;
  return result;
}

/// Quantification and composition over fixed variable sets — the shape of
/// image verification (vector_compose) and support manipulation.
WorkloadResult bench_quantify_compose(int rounds) {
  const int n = 12;
  Manager mgr(n);
  std::uint64_t state = 0x9047ull;
  const Bdd f = random_bdd(mgr, n, state);
  Manager small_mgr(4);
  std::vector<std::vector<int>> var_sets = {
      {0, 1}, {2, 3, 4}, {5, 6, 7, 8}, {0, 4, 8}, {9, 10, 11}};

  WorkloadResult result;
  result.name = "quantify_compose";
  const auto start = std::chrono::steady_clock::now();
  double sat_sum = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (const auto& vars : var_sets) {
      const Bdd ex = mgr.exists(f, vars);
      const Bdd fa = mgr.forall(f, vars);
      const Bdd sub = mgr.var(vars[0]) ^ mgr.var((vars[0] + 5) % n);
      const Bdd comp = mgr.compose(f, vars.back(), sub);
      if (r % 10 == 0) {
        sat_sum += mgr.sat_count(ex, n) - mgr.sat_count(fa, n);
        sat_sum += mgr.sat_count(comp, n);
      }
    }
  }
  result.seconds = seconds_since(start);
  result.checksum = static_cast<std::uint64_t>(sat_sum);
  return result;
}

hyde::decomp::DecompSpec chart_spec(Manager& mgr, const Bdd& f,
                                    int bound_size) {
  hyde::decomp::DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = hyde::decomp::IsfBdd{f, mgr.zero()};
  for (int v = 0; v < bound_size; ++v) spec.bound.push_back(v);
  return spec;
}

/// Column counting at growing bound-set sizes.
std::vector<WorkloadResult> bench_count_columns(int max_bound) {
  const int n = 14;
  std::vector<WorkloadResult> results;
  for (int bound_size = 8; bound_size <= max_bound; ++bound_size) {
    Manager mgr(n);
    std::uint64_t state = 0xC071 + static_cast<std::uint64_t>(bound_size);
    const Bdd f = random_bdd(mgr, n, state);
    const auto spec = chart_spec(mgr, f, bound_size);

    WorkloadResult res;
    res.name = "count_columns_x" + std::to_string(bound_size);
    const auto start = std::chrono::steady_clock::now();
    const int count = hyde::decomp::count_columns(spec);
    res.seconds = seconds_since(start);
    res.checksum = static_cast<std::uint64_t>(count);
    results.push_back(res);
  }
  return results;
}

/// Reorder workload: the interleaved pairing pattern OR_i (x_i & x_{p+i}),
/// exponential under the identity order and linear once sifted.  The same
/// function is built twice — once untouched, once through reorder_sift — and
/// both paths fold the identical semantic checksum (sat count plus oracle
/// evaluation on shared pseudo-random assignments, both order-invariant), so
/// the two rows must agree bit for bit: that parity is the self-check the
/// harness enforces in main, together with the >=25% live-node reduction.
struct ReorderOutcome {
  WorkloadResult off;
  WorkloadResult sift;
  std::size_t live_before = 0;
  std::size_t live_after = 0;
};

std::uint64_t reorder_checksum(Manager& mgr, const Bdd& f, int n, int probes) {
  std::uint64_t state = 0x0DDE4ull;
  std::uint64_t checksum =
      static_cast<std::uint64_t>(mgr.sat_count(f, n)) * 0x9E3779B97F4A7C15ull;
  std::vector<bool> assignment(static_cast<std::size_t>(n));
  for (int p = 0; p < probes; ++p) {
    const std::uint64_t bits = splitmix64(state);
    for (int v = 0; v < n; ++v) assignment[v] = ((bits >> v) & 1) != 0;
    checksum = checksum * 31 + (mgr.eval(f, assignment) ? 1 : 0);
  }
  return checksum;
}

ReorderOutcome bench_reorder(int pairs, int probes) {
  const int n = 2 * pairs;
  ReorderOutcome outcome;
  const auto build = [pairs](Manager& mgr) {
    Bdd f = mgr.zero();
    for (int i = 0; i < pairs; ++i) {
      f = f | (mgr.var(i) & mgr.var(pairs + i));
    }
    return f;
  };

  {
    Manager mgr(n);
    outcome.off.name = "reorder_off";
    const auto start = std::chrono::steady_clock::now();
    const Bdd f = build(mgr);
    outcome.off.checksum = reorder_checksum(mgr, f, n, probes);
    outcome.off.seconds = seconds_since(start);
  }
  {
    Manager mgr(n);
    outcome.sift.name = "reorder_sift";
    const auto start = std::chrono::steady_clock::now();
    const Bdd f = build(mgr);
    outcome.live_before = mgr.live_node_count();
    mgr.reorder_sift();
    outcome.live_after = mgr.live_node_count();
    outcome.sift.checksum = reorder_checksum(mgr, f, n, probes);
    outcome.sift.seconds = seconds_since(start);
  }
  return outcome;
}

/// Full chart construction (patterns + indicators). The checksum adds 31 per
/// bound minterm, counted from each column's indicator.
std::vector<WorkloadResult> bench_enumerate_columns(int max_bound) {
  const int n = 14;
  std::vector<WorkloadResult> results;
  for (int bound_size = 8; bound_size <= max_bound; ++bound_size) {
    Manager mgr(n);
    std::uint64_t state = 0xE4471 + static_cast<std::uint64_t>(bound_size);
    const Bdd f = random_bdd(mgr, n, state);
    const auto spec = chart_spec(mgr, f, bound_size);

    WorkloadResult res;
    res.name = "enumerate_columns_x" + std::to_string(bound_size);
    const auto start = std::chrono::steady_clock::now();
    const auto columns = hyde::decomp::enumerate_columns(spec);
    res.seconds = seconds_since(start);
    std::uint64_t checksum = columns.size();
    for (const auto& c : columns) {
      checksum +=
          static_cast<std::uint64_t>(mgr.sat_count(c.indicator, bound_size)) *
          31;
    }
    res.checksum = checksum;
    results.push_back(res);
  }
  return results;
}

void append_json(std::string& out, const WorkloadResult& r, bool last) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"%s\", \"seconds\": %.6f, \"checksum\": %llu}%s\n",
                r.name.c_str(), r.seconds,
                static_cast<unsigned long long>(r.checksum), last ? "" : ",");
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "unified";
  std::string out_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--label=", 0) == 0) {
      label = arg.substr(8);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: bdd_micro [--label=NAME] [--out=FILE] [--quick]\n");
      return 2;
    }
  }

  const int apply_rounds = quick ? 1 : 6;
  const int cofactor_rounds = quick ? 4 : 40;
  const int quantify_rounds = quick ? 10 : 100;
  const int max_bound = quick ? 9 : 12;

  std::vector<WorkloadResult> results;
  results.push_back(bench_apply_mix(apply_rounds));
  results.push_back(bench_cofactor_sweep(cofactor_rounds));
  results.push_back(bench_quantify_compose(quantify_rounds));
  for (auto& r : bench_count_columns(max_bound)) results.push_back(r);
  for (auto& r : bench_enumerate_columns(max_bound)) results.push_back(r);

  // Reorder workload with its two self-checks: semantic parity between the
  // untouched and sifted paths, and the live-node reduction the sifter must
  // deliver on the pairing pattern.
  const int reorder_pairs = quick ? 10 : 13;
  const ReorderOutcome reorder = bench_reorder(reorder_pairs, 256);
  if (reorder.off.checksum != reorder.sift.checksum) {
    std::fprintf(stderr,
                 "bdd_micro: reorder checksum parity FAILED (%llu != %llu)\n",
                 static_cast<unsigned long long>(reorder.off.checksum),
                 static_cast<unsigned long long>(reorder.sift.checksum));
    return 1;
  }
  if (reorder.live_after * 4 > reorder.live_before * 3) {
    std::fprintf(stderr,
                 "bdd_micro: reorder live-node reduction below 25%% "
                 "(%zu -> %zu)\n",
                 reorder.live_before, reorder.live_after);
    return 1;
  }
  results.push_back(reorder.off);
  results.push_back(reorder.sift);
  WorkloadResult live_before;
  live_before.name = "reorder_live_before";
  live_before.checksum = reorder.live_before;
  results.push_back(live_before);
  WorkloadResult live_after;
  live_after.name = "reorder_live_after";
  live_after.checksum = reorder.live_after;
  results.push_back(live_after);

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"hyde.bench_bdd.v1\",\n";
  json += "  \"kernel\": \"" + label + "\",\n";
  json += "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    append_json(json, results[i], i + 1 == results.size());
  }
  json += "  ]\n}\n";

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bdd_micro: cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}
