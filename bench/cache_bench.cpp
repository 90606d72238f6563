/// \file cache_bench.cpp
/// \brief Persistent-store benchmark: the warm-over-cold payoff and codec
/// proof for the store/ subsystem, emitting BENCH_cache.json.
///
/// Four batch runs over the same job list (every registry circuit under the
/// HYDE system at k=5, seed 1 — the `hyde_cli --batch -s hyde` workload):
///
///  - `nocache`: the NPN cache off (`--no-cache`), the cost every cached
///    run is weighed against. Its networks differ from the cached runs', so
///    its checksum does too.
///  - `memory`: the in-memory NPN cache only, for wall-clock context.
///  - `cold`: a fresh --cache-dir. Every job synthesizes, every template and
///    every finished job outcome is entropy-coded and committed to disk.
///  - `warm`: the same --cache-dir again in a fresh process state (new
///    NpnResultCache, new store handle). Every job must replay from disk.
///
/// Self-gates (exit 1 on violation), making a committed BENCH_cache.json a
/// determinism-and-payoff proof for the machine that produced it:
///
///  - cold and warm must agree byte-for-byte on the deterministic report
///    subset (`to_json(report, /*include_volatile=*/false)`) — checksummed
///    here, so the JSON rows carry the proof.
///  - the warm run must replay every job from disk (job_replays == jobs) and
///    synthesize nothing (appends == 0).
///  - the cold run's entropy-coded bytes must be < 0.6 of the fixed-width
///    payload bytes (the Huffman codec earns its keep).
///  - full runs only: warm wall-clock must beat cold by >= 3x.
///
/// Protocol:
///
///     cache_bench --label=store --out=BENCH_cache.json   (full run)
///     cache_bench --quick                                (CI smoke)
///
/// --quick shrinks the suite to two circuits, skips the nocache and memory
/// runs and drops the 3x wall-clock gate (sub-second workloads are all
/// noise); the identity, replay and codec gates still apply.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "baseline/flows.hpp"
#include "mcnc/benchmarks.hpp"
#include "runtime/batch.hpp"
#include "runtime/report.hpp"

#include <unistd.h>

namespace {

namespace fs = std::filesystem;

std::uint64_t fnv1a_string(std::uint64_t hash, const std::string& text) {
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct RunResult {
  std::string name;
  double seconds = 0.0;
  std::uint64_t checksum = 0;  ///< fnv1a over the deterministic JSON subset
  std::uint64_t disk_hits = 0;
  std::uint64_t job_replays = 0;
  std::uint64_t appends = 0;
  double codec_ratio = 0.0;  ///< coded/raw for this run's puts (0: no puts)
  bool all_ok = false;
};

/// One whole batch over \p jobs; empty \p cache_dir keeps the cache
/// memory-only, \p use_cache false turns it off. Each call builds a fresh
/// NpnResultCache and store handle, so a second run against the same
/// directory models a separate process.
RunResult run_once(const std::string& name,
                   const std::vector<hyde::runtime::BatchJob>& jobs,
                   const std::string& cache_dir, bool use_cache = true) {
  hyde::runtime::BatchOptions options;
  options.workers = hyde::runtime::default_worker_count();
  options.use_cache = use_cache;
  options.cache_dir = cache_dir;

  RunResult result;
  result.name = name;
  const auto start = std::chrono::steady_clock::now();
  const hyde::runtime::RunReport report = hyde::runtime::run_batch(jobs, options);
  result.seconds = seconds_since(start);

  result.checksum = fnv1a_string(
      0xCBF29CE484222325ull,
      hyde::runtime::to_json(report, /*include_volatile=*/false));
  result.disk_hits = report.store.disk_hits;
  result.job_replays = report.store.job_hits;
  result.appends = report.store.appends;
  result.codec_ratio = report.store.codec_ratio();
  result.all_ok = report.all_ok();
  std::fprintf(stderr,
               "cache_bench: %s %.3fs, %llu disk hits, %llu job replays, "
               "%llu appends, codec ratio %.3f\n",
               name.c_str(), result.seconds,
               static_cast<unsigned long long>(result.disk_hits),
               static_cast<unsigned long long>(result.job_replays),
               static_cast<unsigned long long>(result.appends),
               result.codec_ratio);
  return result;
}

void append_json(std::string& out, const RunResult& r, bool last) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"%s\", \"seconds\": %.6f, \"checksum\": %llu, "
                "\"disk_hits\": %llu, \"job_replays\": %llu, "
                "\"appends\": %llu, \"codec_ratio\": %.4f}%s\n",
                r.name.c_str(), r.seconds,
                static_cast<unsigned long long>(r.checksum),
                static_cast<unsigned long long>(r.disk_hits),
                static_cast<unsigned long long>(r.job_replays),
                static_cast<unsigned long long>(r.appends), r.codec_ratio,
                last ? "" : ",");
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "store";
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
                   "usage: cache_bench [--label=NAME] [--out=FILE] [--quick]\n");
      return 2;
    }
  }

  std::vector<std::string> circuits = hyde::mcnc::all_circuits();
  if (quick) circuits = {"rd73", "misex1"};
  const std::vector<hyde::runtime::BatchJob> jobs = hyde::runtime::suite_jobs(
      circuits, {hyde::baseline::System::kHyde}, /*k=*/5, /*base_seed=*/1);

  const fs::path cache_dir =
      fs::temp_directory_path() /
      ("hyde_cache_bench_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(cache_dir);

  std::vector<RunResult> results;
  if (!quick) {
    results.push_back(run_once("nocache", jobs, "", /*use_cache=*/false));
    results.push_back(run_once("memory", jobs, ""));
  }
  const RunResult cold = run_once("cold", jobs, cache_dir.string());
  const RunResult warm = run_once("warm", jobs, cache_dir.string());
  results.push_back(cold);
  results.push_back(warm);
  fs::remove_all(cache_dir);

  bool ok = true;
  for (const RunResult& r : results) {
    if (!r.all_ok) {
      std::fprintf(stderr, "cache_bench: %s run had job failures\n",
                   r.name.c_str());
      ok = false;
    }
  }
  if (cold.checksum != warm.checksum) {
    std::fprintf(stderr,
                 "cache_bench: warm output diverged from cold "
                 "(%llu != %llu)\n",
                 static_cast<unsigned long long>(warm.checksum),
                 static_cast<unsigned long long>(cold.checksum));
    ok = false;
  }
  if (warm.job_replays != jobs.size()) {
    std::fprintf(stderr,
                 "cache_bench: warm run replayed %llu of %zu jobs\n",
                 static_cast<unsigned long long>(warm.job_replays),
                 jobs.size());
    ok = false;
  }
  if (warm.appends != 0) {
    std::fprintf(stderr,
                 "cache_bench: warm run appended %llu records (expected 0)\n",
                 static_cast<unsigned long long>(warm.appends));
    ok = false;
  }
  if (cold.codec_ratio <= 0.0 || cold.codec_ratio >= 0.6) {
    std::fprintf(stderr,
                 "cache_bench: cold codec ratio %.4f outside (0, 0.6)\n",
                 cold.codec_ratio);
    ok = false;
  }
  if (!quick && warm.seconds * 3.0 > cold.seconds) {
    std::fprintf(stderr,
                 "cache_bench: warm run not >= 3x faster than cold "
                 "(%.3fs vs %.3fs)\n",
                 warm.seconds, cold.seconds);
    ok = false;
  }
  if (!ok) return 1;

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"hyde.bench_cache.v1\",\n";
  json += "  \"engine\": \"" + label + "\",\n";
  json += "  \"jobs\": " + std::to_string(jobs.size()) + ",\n";
  char speedup[64];
  std::snprintf(speedup, sizeof(speedup), "  \"warm_speedup\": %.2f,\n",
                warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0);
  json += speedup;
  json += "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    append_json(json, results[i], i + 1 == results.size());
  }
  json += "  ]\n}\n";

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cache_bench: cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}
