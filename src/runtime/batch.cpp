#include "runtime/batch.hpp"

#include <chrono>
#include <exception>
#include <thread>

#include "mcnc/benchmarks.hpp"
#include "runtime/npn_cache.hpp"
#include "runtime/scheduler.hpp"

namespace hyde::runtime {

int default_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<BatchJob> suite_jobs(const std::vector<std::string>& circuits,
                                 const std::vector<baseline::System>& systems,
                                 int k, std::uint64_t base_seed) {
  std::vector<BatchJob> jobs;
  jobs.reserve(circuits.size() * systems.size());
  for (const std::string& circuit : circuits) {
    for (baseline::System system : systems) {
      jobs.push_back(BatchJob{circuit, system, k, base_seed});
    }
  }
  return jobs;
}

RunReport run_batch(const std::vector<BatchJob>& jobs,
                    const BatchOptions& options) {
  RunReport report;
  report.workers = options.workers < 1 ? 1 : options.workers;
  report.verify_vectors = options.verify_vectors;
  report.jobs.resize(jobs.size());
  report.cache.enabled = options.use_cache;
  report.cache.max_support = options.cache_max_support;

  NpnResultCache cache;
  core::DecompCache* shared_cache = options.use_cache ? &cache : nullptr;
  const auto start = std::chrono::steady_clock::now();
  {
    JobScheduler pool(report.workers);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      pool.submit([&jobs, &report, &options, shared_cache, i] {
        const BatchJob& job = jobs[i];
        JobReport& out = report.jobs[i];
        out.circuit = job.circuit;
        out.system = baseline::system_name(job.system);
        out.k = job.k;
        out.seed = job.seed;
        try {
          const net::Network input = mcnc::make_circuit(job.circuit);
          core::FlowOptions flow_options =
              baseline::system_flow_options(job.system, job.k);
          flow_options.seed = job.seed;
          flow_options.cache = shared_cache;
          flow_options.cache_max_support = options.cache_max_support;
          flow_options.reorder = options.reorder;
          flow_options.reorder_max_growth = options.reorder_max_growth;
          const baseline::BaselineResult result = baseline::run_system(
              input, job.system, flow_options, options.verify_vectors);
          out.luts = result.luts;
          out.clbs = result.clbs;
          out.depth = result.depth;
          out.verified = result.verified;
          out.seconds = result.seconds;
          out.stats = result.stats;
        } catch (const std::exception& e) {
          out.error = e.what();
        } catch (...) {
          out.error = "unknown exception";
        }
      });
    }
    pool.wait_idle();
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (const JobReport& job : report.jobs) {
    core::merge(report.totals, job.stats);
  }
  report.cache.unique_functions = cache.size();
  static_cast<NpnCacheCounters&>(report.cache) = cache.counters();
  return report;
}

}  // namespace hyde::runtime
