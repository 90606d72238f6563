/// hyde_cli — command-line front end for the whole flow.
///
///   hyde_cli [options] <circuit.blif|circuit.pla|@benchmark>
///   hyde_cli --batch [options]
///
///   -k <n>        LUT input count, 3..8 (default 5)
///   -s <system>   hyde | imodec | fgsyn | rk | rk-resub | all (default hyde)
///   -o <file>     write the mapped network as BLIF (default: no output file)
///   --pla-out <f> write the mapped network as a flattened PLA
///   --no-verify   skip the random-vector equivalence check
///   --profile     print the per-phase wall-clock breakdown (varpart /
///                 classes / encoding / mapping / pack / verify) plus
///                 search-engine counters; the same numbers always land in
///                 the volatile RunReport JSON/CSV sections regardless of
///                 this flag
///   --reorder <m>  dynamic BDD variable reordering: off (default), sift
///                 (soft-budget ladder) or auto (adds the growth trigger);
///                 see docs/REORDER.md. Result-affecting: runs with
///                 different --reorder settings are different experiments.
///   --reorder-max-growth <x>  auto-reorder growth factor, > 1.0 (default 2.0)
///   --manager-pool  recycle warmed BDD managers across flow invocations
///                 (bdd/pool.hpp); result-neutral allocation reuse
///   --read-latches  accept sequential BLIF by extracting the combinational
///                 core (latch outputs become PIs, latch inputs become POs)
///
/// Flow-shaping knobs (single-circuit and --in windowed runs; they override
/// the -s system preset, so e.g. `-s hyde --encoding random` is HYDE with
/// Step-1 random encoding only). Batch mode runs the preset systems as
/// published and rejects these, except --cache-max-support which maps onto a
/// batch option:
///
///   --encoding random|classes|cubes   class-encoding policy
///   --dc-policy columns|clique        DC assignment (distinct columns vs
///                 the paper's clique partitioning)
///   --no-hyper            never group outputs into hyper-functions
///   --group-choice auto|always|never  how a multi-output group is realized
///   --ppi-hard-mu         FGSyn-like: PPIs never enter a bound set
///   --max-group-size <n>  ingredients per hyper-function (default 4)
///   --collapse-support <n>  PI-count threshold for collapse mode
///   --passes <n>          flow re-applications (default 1)
///   --cache-max-support <n>  NPN-cache support ceiling (default 7)
///   --node-limit <n>      live-BDD-node hard cap (0 = unlimited)
///   --tear-penalty <x>    encoder tearing-penalty weight (default 1.0)
///
/// Windowed mode handles netlists too large to decompose whole by
/// resynthesizing bounded windows (src/part/) and stitching them back:
///
///   --in <file.blif>      run the windowed flow on a BLIF file; the mapped
///                 result goes to -o. Output is bit-identical at every
///                 --window-threads value. A `.blif.gz` archive is inflated
///                 transparently (zlib builds; trailing garbage after the
///                 gzip stream rejects the file). Positional BLIF arguments
///                 accept `.gz` the same way.
///   --window-inputs <n>   per-window external-signal budget (default 12)
///   --window-nodes <n>    per-window logic-node budget (default 64)
///   --window-threads <n>  windows resynthesized concurrently (default 1)
///
/// Batch mode sweeps the whole built-in MCNC-like suite (times the selected
/// systems) in parallel through the runtime scheduler and NPN result cache:
///
///   --batch           run the suite sweep instead of a single circuit
///   --workers <n>     thread-pool size (default: hardware concurrency)
///   --seed <n>        base seed for every job (default 1)
///   --json <file>     write the full RunReport as JSON
///   --csv <file>      write per-job rows as CSV
///   --deterministic-json  strip volatile fields (wall-clock, worker count,
///                     observed cache hits) from the JSON output, leaving the
///                     schedule-independent subset
///   --no-cache        disable the shared NPN decomposition cache
///
/// Parallelism lives between flows (--workers) and between windows
/// (--window-threads); each flow runs its bound-set search and encoder on
/// one thread.
///
/// Persistent cache (all three modes; docs/CACHE.md): a fingerprint-keyed
/// on-disk store (src/store/) layered behind the in-memory NPN cache. Warm
/// runs replay cached decompositions bit-identically, including across
/// separate hyde_cli processes sharing one directory:
///
///   --cache-dir <dir>     attach the on-disk template store rooted at <dir>
///                 (created if missing). In single-circuit and --in modes the
///                 cache is only active when this flag is given.
///   --cache-readonly      consult the store but never write or evict
///   --cache-max-bytes <n> on-disk byte budget enforced at flush by
///                 LRU-by-generation eviction (0 = unlimited)
///
/// `@name` pulls a circuit from the built-in MCNC-like suite (e.g. @9sym).
/// PLA inputs with `-` outputs feed their don't cares into the flow.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "baseline/flows.hpp"
#include "core/flow.hpp"
#include "mapper/lutmap.hpp"
#include "mapper/xc3000.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "net/gzio.hpp"
#include "net/pla.hpp"
#include "runtime/batch.hpp"
#include "runtime/npn_cache.hpp"
#include "store/persistent_cache.hpp"

namespace {

const std::vector<std::pair<std::string, hyde::baseline::System>>&
known_systems() {
  static const std::vector<std::pair<std::string, hyde::baseline::System>> k{
      {"hyde", hyde::baseline::System::kHyde},
      {"imodec", hyde::baseline::System::kImodecLike},
      {"fgsyn", hyde::baseline::System::kFgsynLike},
      {"rk", hyde::baseline::System::kSawadaLike},
      {"rk-resub", hyde::baseline::System::kSawadaResubLike},
  };
  return k;
}

int usage() {
  std::fprintf(stderr,
               "usage: hyde_cli [-k n] [-s hyde|imodec|fgsyn|rk|rk-resub|all] "
               "[-o out.blif] [--pla-out out.pla] [--no-verify] [--profile] "
               "[--reorder off|sift|auto] [--reorder-max-growth x] "
               "[--manager-pool] [flow knobs] "
               "<circuit.blif|circuit.pla|@benchmark>\n"
               "  flow knobs: [--encoding random|classes|cubes] "
               "[--dc-policy columns|clique] [--no-hyper] "
               "[--group-choice auto|always|never] [--ppi-hard-mu] "
               "[--max-group-size n] [--collapse-support n] [--passes n] "
               "[--cache-max-support n] [--node-limit n] [--tear-penalty x]\n"
               "       hyde_cli --batch [--circuits a,b,c] [-k n] "
               "[-s system|all] [--workers n] "
               "[--seed n] [--json file] [--csv file] [--deterministic-json] "
               "[--no-cache] [--no-verify] [--profile] "
               "[--reorder off|sift|auto] [--reorder-max-growth x] "
               "[--manager-pool]\n"
               "       hyde_cli --in circuit.blif [-k n] [-s system] "
               "[-o out.blif] [--window-inputs n] [--window-nodes n] "
               "[--window-threads n] [--reorder off|sift|auto] "
               "[--reorder-max-growth x] [--manager-pool] [--read-latches] "
               "[--no-verify] [--profile]\n"
               "  persistent cache (all modes): [--cache-dir dir] "
               "[--cache-readonly] [--cache-max-bytes n]\n");
  return 2;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Loads a BLIF model from \p path, transparently inflating `.gz` archives
/// (net/gzio.hpp). Gzip errors — truncation, corruption, trailing garbage —
/// surface as exceptions naming the file, exactly like a missing file.
hyde::net::BlifModel load_blif_model(const std::string& path,
                                     const hyde::net::BlifReadOptions& options) {
  if (hyde::net::is_gzip_name(path)) {
    const std::string text = hyde::net::gunzip_file(path);
    std::istringstream in(text);
    return hyde::net::read_blif_model(in, options);
  }
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return hyde::net::read_blif_model(in, options);
}

/// Strict decimal parse: the whole argument must be a number. Guards against
/// `-k banana` silently becoming k=0 through atoi.
bool parse_long(const std::string& arg, long* out) {
  if (arg.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(arg.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

/// Strict decimal parse for floating-point knobs; same contract as
/// parse_long (the whole argument must be a number).
bool parse_double(const std::string& arg, double* out) {
  if (arg.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(arg.c_str(), &end);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

/// Maps a --reorder argument to the kernel mode; false on unknown names.
bool parse_reorder_mode(const std::string& arg, hyde::bdd::ReorderMode* out) {
  if (arg == "off") {
    *out = hyde::bdd::ReorderMode::kOff;
  } else if (arg == "sift") {
    *out = hyde::bdd::ReorderMode::kSift;
  } else if (arg == "auto") {
    *out = hyde::bdd::ReorderMode::kAuto;
  } else {
    return false;
  }
  return true;
}

/// Maps an --encoding argument to the flow policy; false on unknown names.
bool parse_encoding(const std::string& arg, hyde::core::EncodingPolicy* out) {
  if (arg == "random") {
    *out = hyde::core::EncodingPolicy::kRandom;
  } else if (arg == "classes") {
    *out = hyde::core::EncodingPolicy::kCompatibleClass;
  } else if (arg == "cubes") {
    *out = hyde::core::EncodingPolicy::kCubeCount;
  } else {
    return false;
  }
  return true;
}

/// Maps a --dc-policy argument to the class policy; false on unknown names.
bool parse_dc_policy(const std::string& arg, hyde::decomp::DcPolicy* out) {
  if (arg == "columns") {
    *out = hyde::decomp::DcPolicy::kDistinctColumns;
  } else if (arg == "clique") {
    *out = hyde::decomp::DcPolicy::kCliquePartition;
  } else {
    return false;
  }
  return true;
}

/// Maps a --group-choice argument to the realization rule.
bool parse_group_choice(const std::string& arg, hyde::core::GroupChoice* out) {
  if (arg == "auto") {
    *out = hyde::core::GroupChoice::kAuto;
  } else if (arg == "always") {
    *out = hyde::core::GroupChoice::kAlwaysHyper;
  } else if (arg == "never") {
    *out = hyde::core::GroupChoice::kNeverHyper;
  } else {
    return false;
  }
  return true;
}

/// FlowOptions overrides collected from the flow-shaping flags. Every field
/// starts "unset" so the -s system preset keeps its published defaults
/// unless the user explicitly turned a knob.
struct FlowOverrides {
  bool has_encoding = false;
  hyde::core::EncodingPolicy encoding =
      hyde::core::EncodingPolicy::kCompatibleClass;
  bool has_dc_policy = false;
  hyde::decomp::DcPolicy dc_policy = hyde::decomp::DcPolicy::kCliquePartition;
  bool no_hyper = false;
  bool has_group_choice = false;
  hyde::core::GroupChoice group_choice = hyde::core::GroupChoice::kAuto;
  bool ppi_hard_mu = false;
  int max_group_size = 0;        ///< 0 = unset
  int max_collapse_support = 0;  ///< 0 = unset
  int passes = 0;                ///< 0 = unset
  int cache_max_support = -1;    ///< -1 = unset
  bool has_node_limit = false;
  std::size_t bdd_node_limit = 0;
  bool has_tear_penalty = false;
  double tear_penalty_scale = 1.0;

  void apply(hyde::core::FlowOptions* o) const {
    if (has_encoding) o->encoding = encoding;
    if (has_dc_policy) o->dc_policy = dc_policy;
    if (no_hyper) o->use_hyper = false;
    if (has_group_choice) o->group_choice = group_choice;
    if (ppi_hard_mu) o->ppi_hard_mu = true;
    if (max_group_size > 0) o->max_group_size = max_group_size;
    if (max_collapse_support > 0) {
      o->max_collapse_support = max_collapse_support;
    }
    if (passes > 0) o->passes = passes;
    if (cache_max_support >= 0) o->cache_max_support = cache_max_support;
    if (has_node_limit) o->bdd_node_limit = bdd_node_limit;
    if (has_tear_penalty) o->tear_penalty_scale = tear_penalty_scale;
  }
};

void print_profile(const hyde::core::FlowStats& stats, const char* indent) {
  std::printf(
      "%svarpart %.3fs (selects %llu, evaluated %llu, pruned %llu, "
      "memo hits %llu) | classes %.3fs | encoding %.3fs | mapping %.3fs | "
      "pack %.3fs | verify %.3fs\n",
      indent, stats.varpart_seconds,
      static_cast<unsigned long long>(stats.search_selects),
      static_cast<unsigned long long>(stats.search_candidates_evaluated),
      static_cast<unsigned long long>(stats.search_candidates_pruned),
      static_cast<unsigned long long>(stats.search_memo_hits),
      stats.classes_seconds, stats.encoding_seconds, stats.mapping_seconds,
      stats.pack_seconds, stats.verify_seconds);
}

/// One-line summary of the persistent store's traffic. Printed with a stable
/// shape in every mode that attaches --cache-dir: the cross-process reuse
/// test and the CI cold→warm job grep this line for the disk-hit count.
void print_store_summary(const hyde::store::StoreCounters& sc,
                         bool readonly) {
  std::printf("store: %llu disk hits, %llu disk misses, %llu records "
              "(%llu appended), %llu bytes read, %llu bytes written, "
              "codec ratio %.3f, %llu evictions, %llu corrupt, "
              "%llu job replays (%llu committed)%s\n",
              static_cast<unsigned long long>(sc.disk_hits),
              static_cast<unsigned long long>(sc.disk_misses),
              static_cast<unsigned long long>(sc.records),
              static_cast<unsigned long long>(sc.appends),
              static_cast<unsigned long long>(sc.bytes_read),
              static_cast<unsigned long long>(sc.bytes_written),
              sc.codec_ratio(), static_cast<unsigned long long>(sc.evictions),
              static_cast<unsigned long long>(sc.corrupt_records),
              static_cast<unsigned long long>(sc.job_hits),
              static_cast<unsigned long long>(sc.job_appends),
              readonly ? " (readonly)" : "");
}

int run_batch_mode(const std::string& system_name, int k, int workers,
                   std::uint64_t seed, bool verify, bool use_cache,
                   const std::string& json_path, const std::string& csv_path,
                   bool deterministic_json, bool profile,
                   int cache_max_support, hyde::bdd::ReorderMode reorder,
                   double reorder_max_growth, bool manager_pool,
                   const std::string& cache_dir, bool cache_readonly,
                   std::uint64_t cache_max_bytes,
                   const std::string& circuits_filter) {
  using namespace hyde;
  std::vector<baseline::System> systems;
  for (const auto& [name, system] : known_systems()) {
    if (system_name == "all" || system_name == name) systems.push_back(system);
  }

  std::vector<std::string> circuits = mcnc::all_circuits();
  if (!circuits_filter.empty()) {
    // --circuits a,b,c: restrict the suite, keeping the given order. Unknown
    // names fail fast instead of silently shrinking the batch.
    circuits.clear();
    std::stringstream stream(circuits_filter);
    std::string name;
    while (std::getline(stream, name, ',')) {
      if (name.empty()) continue;
      const std::vector<std::string> known = mcnc::all_circuits();
      if (std::find(known.begin(), known.end(), name) == known.end()) {
        std::fprintf(stderr, "error: unknown circuit in --circuits: %s\n",
                     name.c_str());
        return 2;
      }
      circuits.push_back(name);
    }
    if (circuits.empty()) {
      std::fprintf(stderr, "error: --circuits selected no circuits\n");
      return 2;
    }
  }
  const auto jobs = runtime::suite_jobs(circuits, systems, k, seed);
  runtime::BatchOptions options;
  options.workers = workers;
  options.verify_vectors = verify ? 128 : 0;
  options.use_cache = use_cache;
  options.cache_max_support = cache_max_support;
  options.reorder = reorder;
  options.reorder_max_growth = reorder_max_growth;
  options.manager_pool = manager_pool;
  options.cache_dir = cache_dir;
  options.cache_readonly = cache_readonly;
  options.cache_max_bytes = cache_max_bytes;

  std::printf("batch: %zu jobs (%zu circuits x %zu systems), k=%d, "
              "%d workers, cache %s\n",
              jobs.size(), circuits.size(), systems.size(), k, options.workers,
              use_cache ? "on" : "off");
  const runtime::RunReport report = runtime::run_batch(jobs, options);

  std::printf("%-10s %-10s %6s %6s %6s  %s\n", "circuit", "system", "LUTs",
              "CLBs", "depth", verify ? "verified" : "unverified");
  for (const auto& job : report.jobs) {
    if (!job.error.empty()) {
      std::printf("%-10s %-10s  ERROR: %s\n", job.circuit.c_str(),
                  job.system.c_str(), job.error.c_str());
      continue;
    }
    std::printf("%-10s %-10s %6d %6d %6d  %s\n", job.circuit.c_str(),
                job.system.c_str(), job.luts, job.clbs, job.depth,
                !verify           ? "-"
                : job.verified    ? "ok"
                                  : "FAILED");
    if (profile) print_profile(job.stats, "             ");
  }
  if (profile) {
    std::printf("\nsearch engine: %llu selects, %llu candidates evaluated, "
                "%llu pruned, %llu memo hits, %llu memo clears\n",
                static_cast<unsigned long long>(report.totals.search_selects),
                static_cast<unsigned long long>(
                    report.totals.search_candidates_evaluated),
                static_cast<unsigned long long>(
                    report.totals.search_candidates_pruned),
                static_cast<unsigned long long>(report.totals.search_memo_hits),
                static_cast<unsigned long long>(
                    report.totals.search_memo_clears));
  }
  std::printf("\n%zu jobs in %.2fs wall on %d workers\n", report.jobs.size(),
              report.wall_seconds, report.workers);
  std::printf("NPN cache: %llu lookups, %llu unique functions, "
              "%llu hits / %llu misses observed (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(report.totals.cache_lookups),
              static_cast<unsigned long long>(report.cache.unique_functions),
              static_cast<unsigned long long>(report.cache.hits),
              static_cast<unsigned long long>(report.cache.misses),
              100.0 * report.cache.hit_rate());
  if (report.store.enabled) {
    print_store_summary(report.store, report.store.readonly);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << runtime::to_json(report, !deterministic_json);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", csv_path.c_str());
      return 1;
    }
    out << runtime::to_csv(report);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  return report.all_ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hyde;
  int k = 5;
  std::string system_name = "hyde";
  std::string out_blif, out_pla, source, json_path, csv_path;
  bool verify = true;
  bool batch = false;
  bool use_cache = true;
  bool deterministic_json = false;
  bool profile = false;
  int workers = runtime::default_worker_count();
  std::uint64_t seed = 1;
  std::string in_file;
  int window_inputs = 12;
  int window_nodes = 64;
  int window_threads = 1;
  bool read_latches = false;
  bdd::ReorderMode reorder = bdd::ReorderMode::kOff;
  double reorder_max_growth = 2.0;
  bool manager_pool = false;
  std::string cache_dir;
  bool cache_readonly = false;
  std::uint64_t cache_max_bytes = 0;
  std::string batch_circuits;
  FlowOverrides ov;
  // First flow-shaping flag seen; batch mode rejects these (it runs the
  // preset systems as published), so remember the name for the error.
  std::string shape_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-k" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 2) {
        std::fprintf(stderr,
                     "error: -k expects an integer >= 2, got '%s'\n", argv[i]);
        return 2;
      }
      if (value < 3 || value > 8) {
        std::fprintf(stderr,
                     "error: -k %ld is outside the supported range 3..8\n",
                     value);
        return 2;
      }
      k = static_cast<int>(value);
    } else if (arg == "-s" && i + 1 < argc) {
      system_name = argv[++i];
      bool known = system_name == "all";
      for (const auto& [name, system] : known_systems()) {
        (void)system;
        known = known || system_name == name;
      }
      if (!known) {
        std::fprintf(stderr,
                     "error: unknown system '%s' for -s; expected one of "
                     "hyde, imodec, fgsyn, rk, rk-resub, all\n",
                     system_name.c_str());
        return 2;
      }
    } else if (arg == "-o" && i + 1 < argc) {
      out_blif = argv[++i];
    } else if (arg == "--pla-out" && i + 1 < argc) {
      out_pla = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 1 || value > 1024) {
        std::fprintf(stderr,
                     "error: --workers expects an integer in 1..1024, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      workers = static_cast<int>(value);
    } else if (arg == "--seed" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 0) {
        std::fprintf(stderr, "error: --seed expects a non-negative integer, "
                             "got '%s'\n",
                     argv[i]);
        return 2;
      }
      seed = static_cast<std::uint64_t>(value);
    } else if (arg == "--in" && i + 1 < argc) {
      in_file = argv[++i];
    } else if (arg == "--window-inputs" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 1 || value > 64) {
        std::fprintf(stderr,
                     "error: --window-inputs expects an integer in 1..64, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      window_inputs = static_cast<int>(value);
    } else if (arg == "--window-nodes" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 1 || value > 100000) {
        std::fprintf(stderr,
                     "error: --window-nodes expects an integer in 1..100000, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      window_nodes = static_cast<int>(value);
    } else if (arg == "--window-threads" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 1 || value > 256) {
        std::fprintf(stderr,
                     "error: --window-threads expects an integer in 1..256, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      window_threads = static_cast<int>(value);
    } else if (arg == "--encoding" && i + 1 < argc) {
      if (!parse_encoding(argv[++i], &ov.encoding)) {
        std::fprintf(stderr,
                     "error: --encoding expects random, classes or cubes, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      ov.has_encoding = true;
      if (shape_flag.empty()) shape_flag = arg;
    } else if (arg == "--dc-policy" && i + 1 < argc) {
      if (!parse_dc_policy(argv[++i], &ov.dc_policy)) {
        std::fprintf(stderr,
                     "error: --dc-policy expects columns or clique, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      ov.has_dc_policy = true;
      if (shape_flag.empty()) shape_flag = arg;
    } else if (arg == "--no-hyper") {
      ov.no_hyper = true;
      if (shape_flag.empty()) shape_flag = arg;
    } else if (arg == "--group-choice" && i + 1 < argc) {
      if (!parse_group_choice(argv[++i], &ov.group_choice)) {
        std::fprintf(stderr,
                     "error: --group-choice expects auto, always or never, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      ov.has_group_choice = true;
      if (shape_flag.empty()) shape_flag = arg;
    } else if (arg == "--ppi-hard-mu") {
      ov.ppi_hard_mu = true;
      if (shape_flag.empty()) shape_flag = arg;
    } else if (arg == "--max-group-size" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 1 || value > 64) {
        std::fprintf(stderr,
                     "error: --max-group-size expects an integer in 1..64, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      ov.max_group_size = static_cast<int>(value);
      if (shape_flag.empty()) shape_flag = arg;
    } else if (arg == "--collapse-support" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 1 || value > 64) {
        std::fprintf(stderr,
                     "error: --collapse-support expects an integer in 1..64, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      ov.max_collapse_support = static_cast<int>(value);
      if (shape_flag.empty()) shape_flag = arg;
    } else if (arg == "--passes" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 1 || value > 16) {
        std::fprintf(stderr,
                     "error: --passes expects an integer in 1..16, got '%s'\n",
                     argv[i]);
        return 2;
      }
      ov.passes = static_cast<int>(value);
      if (shape_flag.empty()) shape_flag = arg;
    } else if (arg == "--cache-max-support" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 0 || value > 32) {
        std::fprintf(stderr,
                     "error: --cache-max-support expects an integer in "
                     "0..32, got '%s'\n",
                     argv[i]);
        return 2;
      }
      ov.cache_max_support = static_cast<int>(value);
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache_dir = argv[++i];
      if (cache_dir.empty()) {
        std::fprintf(stderr, "error: --cache-dir expects a directory path\n");
        return 2;
      }
    } else if (arg == "--cache-readonly") {
      cache_readonly = true;
    } else if (arg == "--cache-max-bytes" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 0) {
        std::fprintf(stderr,
                     "error: --cache-max-bytes expects a non-negative integer "
                     "(0 = unlimited), got '%s'\n",
                     argv[i]);
        return 2;
      }
      cache_max_bytes = static_cast<std::uint64_t>(value);
    } else if (arg == "--node-limit" && i + 1 < argc) {
      long value = 0;
      if (!parse_long(argv[++i], &value) || value < 0) {
        std::fprintf(stderr,
                     "error: --node-limit expects a non-negative integer "
                     "(0 = unlimited), got '%s'\n",
                     argv[i]);
        return 2;
      }
      ov.bdd_node_limit = static_cast<std::size_t>(value);
      ov.has_node_limit = true;
      if (shape_flag.empty()) shape_flag = arg;
    } else if (arg == "--tear-penalty" && i + 1 < argc) {
      double value = 0.0;
      if (!parse_double(argv[++i], &value) || !(value >= 0.0) ||
          !(value <= 1024.0)) {
        std::fprintf(stderr,
                     "error: --tear-penalty expects a number in [0, 1024], "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      ov.tear_penalty_scale = value;
      ov.has_tear_penalty = true;
      if (shape_flag.empty()) shape_flag = arg;
    } else if (arg == "--reorder" && i + 1 < argc) {
      const std::string mode_name = argv[++i];
      if (!parse_reorder_mode(mode_name, &reorder)) {
        std::fprintf(stderr,
                     "error: --reorder expects off, sift or auto, got '%s'\n",
                     mode_name.c_str());
        return 2;
      }
    } else if (arg == "--reorder-max-growth" && i + 1 < argc) {
      double value = 0.0;
      if (!parse_double(argv[++i], &value) || !(value > 1.0) ||
          !(value <= 64.0)) {
        std::fprintf(stderr,
                     "error: --reorder-max-growth expects a number in "
                     "(1.0, 64.0], got '%s'\n",
                     argv[i]);
        return 2;
      }
      reorder_max_growth = value;
    } else if (arg == "--manager-pool") {
      manager_pool = true;
    } else if (arg == "--read-latches") {
      read_latches = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--batch") {
      batch = true;
    } else if (arg == "--circuits" && i + 1 < argc) {
      batch_circuits = argv[++i];
    } else if (arg == "--no-cache") {
      use_cache = false;
    } else if (arg == "--deterministic-json") {
      deterministic_json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      source = arg;
    }
  }

  if (cache_dir.empty() && (cache_readonly || cache_max_bytes != 0)) {
    std::fprintf(stderr,
                 "error: --cache-readonly and --cache-max-bytes only apply "
                 "to a persistent store; add --cache-dir\n");
    return 2;
  }
  if (!cache_dir.empty() && !use_cache) {
    std::fprintf(stderr,
                 "error: --cache-dir layers the store behind the NPN cache; "
                 "drop --no-cache\n");
    return 2;
  }

  if (!batch_circuits.empty() && !batch) {
    std::fprintf(stderr,
                 "error: --circuits filters the --batch suite; add --batch\n");
    return 2;
  }

  if (batch) {
    if (!source.empty()) {
      std::fprintf(stderr,
                   "error: --batch sweeps the built-in suite; drop the "
                   "circuit argument '%s'\n",
                   source.c_str());
      return 2;
    }
    if (!shape_flag.empty()) {
      std::fprintf(stderr,
                   "error: %s shapes a single flow; --batch runs the preset "
                   "systems as published (only --cache-max-support carries "
                   "over to batch options)\n",
                   shape_flag.c_str());
      return 2;
    }
    return run_batch_mode(system_name, k, workers, seed, verify, use_cache,
                          json_path, csv_path, deterministic_json, profile,
                          ov.cache_max_support >= 0 ? ov.cache_max_support : 7,
                          reorder, reorder_max_growth, manager_pool, cache_dir,
                          cache_readonly, cache_max_bytes, batch_circuits);
  }

  if (!in_file.empty()) {
    if (!source.empty()) {
      std::fprintf(stderr,
                   "error: --in runs the windowed flow; drop the positional "
                   "circuit argument '%s'\n",
                   source.c_str());
      return 2;
    }
    if (system_name == "all") {
      std::fprintf(stderr, "error: --in needs a single system for -s\n");
      return 2;
    }
    baseline::System system = baseline::System::kHyde;
    for (const auto& [name, sys] : known_systems()) {
      if (system_name == name) system = sys;
    }
    net::Network input("empty");
    int latches = 0;
    try {
      net::BlifReadOptions read_options;
      read_options.latch_combinational = read_latches;
      net::BlifModel model = load_blif_model(in_file, read_options);
      input = std::move(model.network);
      latches = model.latches;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error loading %s: %s\n", in_file.c_str(),
                   e.what());
      return 1;
    }
    std::printf("loaded %s", input.stats().c_str());
    if (latches > 0) std::printf(" (combinational core of %d latches)", latches);
    std::printf("\n");

    part::WindowedFlowOptions options;
    options.flow = baseline::system_flow_options(system, k);
    options.flow.seed = seed;
    options.flow.reorder = reorder;
    options.flow.reorder_max_growth = reorder_max_growth;
    ov.apply(&options.flow);
    // One warmed pool shared by all window workers; it must outlive the run,
    // so it lives in this scope rather than inside the windowed engine.
    bdd::ManagerPool window_pool;
    if (manager_pool) options.flow.manager_pool = &window_pool;
    options.window.max_inputs = window_inputs;
    options.window.max_nodes = window_nodes;
    options.threads = window_threads;
    // Attaching a cache is result-affecting versus the historical uncached
    // windowed run (sub-flow seeds derive from cache keys), so the tiered
    // memory+disk cache is opt-in via --cache-dir here.
    runtime::NpnResultCache window_mem_cache;
    std::unique_ptr<store::PersistentStore> window_disk;
    std::unique_ptr<store::TieredCache> window_tiered;
    if (!cache_dir.empty()) {
      window_disk = std::make_unique<store::PersistentStore>(
          store::StoreOptions{cache_dir, cache_readonly, cache_max_bytes});
      window_tiered = std::make_unique<store::TieredCache>(&window_mem_cache,
                                                           window_disk.get());
      options.flow.cache = window_tiered.get();
    }
    const baseline::BaselineResult result =
        baseline::run_windowed_system(input, options, verify ? 256 : 0);
    const core::FlowStats& stats = result.stats;
    std::printf("%-10s %5d LUTs", system_name.c_str(), result.luts);
    if (k == 5 && result.clbs > 0) std::printf("  %5d CLBs", result.clbs);
    std::printf("  depth %2d  %.3fs  %s\n", result.depth, result.seconds,
                !verify           ? "unverified"
                : result.verified ? "verified"
                                  : "VERIFY FAILED");
    std::printf("windows: %d extracted (peak %d inputs, %d nodes), "
                "%d resynthesized, %d pass-through, %d budget fallbacks, "
                "%d split, %d local verify failures\n",
                stats.windows_extracted, stats.window_peak_inputs,
                stats.window_peak_nodes, stats.windows_resynthesized,
                stats.windows_passthrough, stats.windows_budget_fallbacks,
                stats.windows_split, stats.windows_verify_failures);
    if (stats.window_workers > 0) {
      std::printf("scheduling: %d workers, %d snapshots materialized on "
                  "workers, %llu steals, busy %.3fs total / %.3fs peak\n",
                  stats.window_workers, stats.windows_extract_parallel,
                  static_cast<unsigned long long>(stats.window_steals),
                  stats.window_worker_busy_seconds,
                  stats.window_worker_busy_peak_seconds);
    }
    if (stats.window_max_index >= 0) {
      std::printf("slowest window: #%d at %.3fs\n", stats.window_max_index,
                  stats.window_max_seconds);
    }
    if (window_disk != nullptr) {
      window_disk->flush();
      print_store_summary(window_disk->counters(), cache_readonly);
    }
    if (profile) {
      print_profile(stats, "  ");
      std::printf("  extract %.3fs | stitch %.3fs\n",
                  stats.window_extract_seconds, stats.window_stitch_seconds);
    }
    if (!out_blif.empty()) {
      std::ofstream out(out_blif);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", out_blif.c_str());
        return 1;
      }
      net::write_blif(result.network, out);
      std::printf("wrote %s\n", out_blif.c_str());
    }
    if (!out_pla.empty()) {
      std::ofstream out(out_pla);
      net::write_pla(result.network, out);
      std::printf("wrote %s\n", out_pla.c_str());
    }
    return (verify && !result.verified) ? 1 : 0;
  }

  if (source.empty()) return usage();

  // Load the circuit (and possible external don't cares).
  net::Network input("empty");
  net::Network dc("empty_dc");
  bool has_dc = false;
  try {
    if (source[0] == '@') {
      input = mcnc::make_circuit(source.substr(1));
    } else if (ends_with(source, ".pla")) {
      std::ifstream in(source);
      if (!in) throw std::runtime_error("cannot open " + source);
      net::PlaModel model = net::read_pla(in, source);
      input = std::move(model.onset);
      dc = std::move(model.dont_care);
      has_dc = model.has_dont_cares;
    } else {
      net::BlifReadOptions read_options;
      read_options.latch_combinational = read_latches;
      net::BlifModel model = load_blif_model(source, read_options);
      input = std::move(model.network);
      dc = std::move(model.dont_care);
      has_dc = model.has_dont_cares;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error loading %s: %s\n", source.c_str(), e.what());
    return 1;
  }
  std::printf("loaded %s%s\n", input.stats().c_str(),
              has_dc ? " (+ external don't cares)" : "");

  net::Network best_network("none");
  int best_luts = -1;
  // Shared across the per-system runs below so a manager warmed by one
  // system seeds the next; only handed out when --manager-pool was given.
  bdd::ManagerPool single_run_pool;
  // Opt-in persistent cache, shared by every -s system run: the FlowOptions
  // fingerprint inside each cache key keeps entries from different systems
  // apart, exactly as in batch mode.
  runtime::NpnResultCache single_mem_cache;
  std::unique_ptr<store::PersistentStore> single_disk;
  std::unique_ptr<store::TieredCache> single_tiered;
  if (!cache_dir.empty()) {
    single_disk = std::make_unique<store::PersistentStore>(
        store::StoreOptions{cache_dir, cache_readonly, cache_max_bytes});
    single_tiered = std::make_unique<store::TieredCache>(&single_mem_cache,
                                                         single_disk.get());
  }
  for (const auto& [name, system] : known_systems()) {
    if (system_name != "all" && system_name != name) continue;
    // For DC-aware runs use the core flow directly (baseline::run_system
    // does not thread external don't cares).
    if (has_dc && system == baseline::System::kHyde) {
      core::FlowOptions dc_flow_options = core::hyde_options(k);
      ov.apply(&dc_flow_options);
      if (single_tiered != nullptr) dc_flow_options.cache = single_tiered.get();
      auto flow = core::run_flow(input, dc_flow_options, &dc);
      mapper::dedup_shared_nodes(flow.network);
      mapper::collapse_into_fanouts(flow.network, k);
      const int luts = mapper::lut_count(flow.network);
      std::printf("%-10s %5d LUTs  depth %2d  (with external DCs; "
                  "equivalence holds on the care set only)\n",
                  name.c_str(), luts, mapper::network_depth(flow.network));
      if (best_luts < 0 || luts < best_luts) {
        best_luts = luts;
        best_network = std::move(flow.network);
      }
      continue;
    }
    core::FlowOptions flow_options = baseline::system_flow_options(system, k);
    flow_options.reorder = reorder;
    flow_options.reorder_max_growth = reorder_max_growth;
    flow_options.manager_pool = manager_pool ? &single_run_pool : nullptr;
    ov.apply(&flow_options);
    if (single_tiered != nullptr) flow_options.cache = single_tiered.get();
    auto result =
        baseline::run_system(input, system, flow_options, verify ? 256 : 0);
    std::printf("%-10s %5d LUTs", name.c_str(), result.luts);
    if (k == 5) std::printf("  %5d CLBs", result.clbs);
    std::printf("  depth %2d  %.3fs  %s\n", result.depth, result.seconds,
                !verify          ? "unverified"
                : result.verified ? "verified"
                                  : "VERIFY FAILED");
    if (profile) print_profile(result.stats, "  ");
    if (verify && !result.verified) return 1;
    if (best_luts < 0 || result.luts < best_luts) {
      best_luts = result.luts;
      best_network = std::move(result.network);
    }
  }
  if (single_disk != nullptr) {
    single_disk->flush();
    print_store_summary(single_disk->counters(), cache_readonly);
  }
  if (best_luts < 0) return usage();

  if (!out_blif.empty()) {
    std::ofstream out(out_blif);
    net::write_blif(best_network, out);
    std::printf("wrote %s\n", out_blif.c_str());
  }
  if (!out_pla.empty()) {
    std::ofstream out(out_pla);
    net::write_pla(best_network, out);
    std::printf("wrote %s\n", out_pla.c_str());
  }
  return 0;
}
