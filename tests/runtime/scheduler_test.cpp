/// Tests for the job scheduler and the scheduling-independence of batch runs.
///
/// The headline acceptance property of the runtime: a batch executed on one
/// worker and the same batch on several workers produce bit-identical
/// deterministic reports (`to_json(report, /*include_volatile=*/false)`) —
/// results depend on the job list and seeds, never on scheduling.

#include "runtime/scheduler.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "csv_split.hpp"
#include "gtest/gtest.h"
#include "runtime/batch.hpp"
#include "runtime/report.hpp"

namespace hyde::runtime {
namespace {

TEST(JobSchedulerTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  JobScheduler pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);

  // The pool stays usable after an idle barrier.
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 201);
}

TEST(JobSchedulerTest, WorkerCountClampedToAtLeastOne) {
  JobScheduler pool(0);
  EXPECT_EQ(pool.num_workers(), 1);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(JobSchedulerTest, WaitIdleOnEmptyPoolReturns) {
  JobScheduler pool(2);
  pool.wait_idle();
}

TEST(JobSchedulerTest, DestructorDrainsQueuedWork) {
  std::atomic<int> counter{0};
  {
    JobScheduler pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(JobSchedulerTest, OrderedSubmitRunsEveryTaskAndAccountsForAll) {
  std::atomic<int> counter{0};
  JobScheduler pool(3);
  std::vector<OrderedTask> tasks;
  for (int i = 0; i < 60; ++i) {
    tasks.push_back(OrderedTask{static_cast<std::uint64_t>(i % 7),
                                [&counter] { counter.fetch_add(1); }});
  }
  pool.submit_ordered(std::move(tasks));
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 60);

  const SchedulerStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 60u);
  EXPECT_EQ(stats.executed, 60u);
  ASSERT_EQ(stats.workers.size(), 3u);
  std::uint64_t worker_tasks = 0;
  std::uint64_t worker_steals = 0;
  for (const WorkerUtilization& u : stats.workers) {
    worker_tasks += u.tasks;
    worker_steals += u.steals;
    EXPECT_GE(u.busy_seconds, 0.0);
  }
  EXPECT_EQ(worker_tasks, 60u);
  EXPECT_EQ(worker_steals, stats.steals);
}

TEST(JobSchedulerTest, ForcedStealsStillFillEveryOutcomeSlotExactlyOnce) {
  // Lie to the scheduler: one "expensive" instant task pins worker A's
  // deque, many "cheap" slow tasks pile onto worker B. A drains instantly
  // and must steal from B's back to stay busy. Outcomes land in per-index
  // slots, so the result is identical no matter who ran what.
  JobScheduler pool(2);
  constexpr int kSlow = 8;
  std::vector<std::atomic<int>> hits(kSlow + 1);
  for (auto& h : hits) h.store(0);
  std::vector<OrderedTask> tasks;
  tasks.push_back(OrderedTask{1000, [&hits] { hits[0].fetch_add(1); }});
  for (int i = 1; i <= kSlow; ++i) {
    tasks.push_back(OrderedTask{10, [&hits, i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }});
  }
  pool.submit_ordered(std::move(tasks));
  pool.wait_idle();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  const SchedulerStats stats = pool.stats();
  EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(kSlow) + 1);
  EXPECT_GE(stats.steals, 1u);
}

TEST(JobSchedulerTest, ThrowingOrderedTaskDoesNotKillItsWorker) {
  std::atomic<int> counter{0};
  JobScheduler pool(2);
  std::vector<OrderedTask> tasks;
  for (int i = 0; i < 20; ++i) {
    if (i % 5 == 0) {
      tasks.push_back(OrderedTask{5, [] { throw std::runtime_error("boom"); }});
    } else {
      tasks.push_back(OrderedTask{5, [&counter] { counter.fetch_add(1); }});
    }
  }
  pool.submit_ordered(std::move(tasks));
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 16);
  EXPECT_EQ(pool.stats().executed, 20u);

  // Every worker survived the strays and keeps taking work on both paths.
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.submit_ordered({OrderedTask{1, [&counter] { counter.fetch_add(1); }}});
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 18);
}

TEST(JobSchedulerTest, FifoAndOrderedPathsShareOnePool) {
  std::atomic<int> counter{0};
  JobScheduler pool(2);
  std::vector<OrderedTask> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(OrderedTask{static_cast<std::uint64_t>(10 - i),
                                [&counter] { counter.fetch_add(1); }});
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.submit_ordered(std::move(tasks));
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
  EXPECT_EQ(pool.stats().submitted, 20u);
}

TEST(BatchDeterminismTest, OneWorkerAndFourWorkersAgreeBitForBit) {
  const std::vector<std::string> circuits = {"rd73", "z4ml", "misex1", "f51m"};
  const std::vector<baseline::System> systems = {
      baseline::System::kHyde, baseline::System::kImodecLike};
  const std::vector<BatchJob> jobs = suite_jobs(circuits, systems, 5, 1);
  ASSERT_EQ(jobs.size(), circuits.size() * systems.size());

  BatchOptions serial;
  serial.workers = 1;
  BatchOptions parallel = serial;
  parallel.workers = 4;

  const RunReport a = run_batch(jobs, serial);
  const RunReport b = run_batch(jobs, parallel);
  EXPECT_TRUE(a.all_ok());
  EXPECT_TRUE(b.all_ok());
  EXPECT_GT(a.totals.cache_lookups, 0);

  // The deterministic JSON subset (results, stats, seeds, cache closure) is
  // bit-identical; only wall-clock/worker/observed-traffic fields may differ.
  EXPECT_EQ(to_json(a, /*include_volatile=*/false),
            to_json(b, /*include_volatile=*/false));
}

TEST(BatchDeterminismTest, CacheOffStillDeterministicAndErrorsAreCaptured) {
  std::vector<BatchJob> jobs = suite_jobs({"rd73"}, {baseline::System::kHyde},
                                          5, 1);
  jobs.push_back(BatchJob{"no_such_circuit", baseline::System::kHyde, 5, 1});

  BatchOptions options;
  options.workers = 2;
  options.use_cache = false;
  const RunReport report = run_batch(jobs, options);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_TRUE(report.jobs[0].error.empty());
  EXPECT_TRUE(report.jobs[0].verified);
  EXPECT_FALSE(report.jobs[1].error.empty());
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.cache.unique_functions, 0u);

  const std::string json = to_json(report, /*include_volatile=*/false);
  EXPECT_NE(json.find("no_such_circuit"), std::string::npos);
  const std::string csv = to_csv(report);
  EXPECT_NE(csv.find("rd73"), std::string::npos);
}

TEST(BatchReportTest, CsvQuotesTextFieldsPerRfc4180) {
  // Failing jobs echo their circuit name into the error text, so separators,
  // quotes and line breaks reach three text columns.
  const std::vector<BatchJob> jobs = {
      BatchJob{"rd73", baseline::System::kHyde, 5, 1},
      BatchJob{"no,such", baseline::System::kHyde, 5, 1},
      BatchJob{"say \"hi\"\nagain", baseline::System::kHyde, 5, 1}};
  BatchOptions options;
  options.use_cache = false;
  const RunReport report = run_batch(jobs, options);

  const auto records = testing::split_csv(to_csv(report));
  ASSERT_EQ(records.size(), jobs.size() + 1);
  for (const auto& record : records) {
    EXPECT_EQ(record.size(), records[0].size());
  }
  EXPECT_EQ(records[2][0], "no,such");
  EXPECT_EQ(records[2][8], "make_circuit: unknown benchmark no,such");
  EXPECT_EQ(records[3][0], "say \"hi\"\nagain");
}

}  // namespace
}  // namespace hyde::runtime
