/// Tests for the FlowStats field table (core::kFlowFields) and the report
/// writers driven by it.

#include "runtime/report.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "csv_split.hpp"
#include "gtest/gtest.h"
#include "runtime/batch.hpp"

namespace hyde::runtime {
namespace {

using core::FlowGroup;
using core::FlowStats;
using core::MergeRule;

TEST(FlowFieldTableTest, KeysAreUniqueWithinEachGroup) {
  std::set<std::pair<FlowGroup, std::string>> seen;
  core::for_each_flow_field([&seen](const auto& field) {
    EXPECT_TRUE(seen.emplace(field.group, field.key).second)
        << "duplicate key " << field.key;
  });
}

/// Gives every field of \p stats a distinct nonzero value derived from its
/// table index; \p offset shifts the value up (even rows) or down (odd rows)
/// so max() must pick a different side from row to row.
void fill_distinct(FlowStats& stats, int offset) {
  int row = 0;
  core::for_each_flow_field([&](const auto& field) {
    auto& value = stats.*field.member;
    using T = std::remove_reference_t<decltype(value)>;
    if constexpr (std::is_same_v<T, bool>) {
      value = offset != 0;
    } else {
      const int shift = row % 2 == 0 ? offset : -offset;
      value = static_cast<T>(10 * (row + 1) + shift);
    }
    ++row;
  });
}

TEST(FlowFieldTableTest, MergeFollowsEachFieldsRule) {
  FlowStats into;
  FlowStats from;
  fill_distinct(into, 0);
  fill_distinct(from, 3);
  const FlowStats before = into;
  core::merge(into, from);
  core::for_each_flow_field([&](const auto& field) {
    const auto a = before.*field.member;
    const auto b = from.*field.member;
    const auto got = into.*field.member;
    SCOPED_TRACE(field.key);
    switch (field.rule) {
      case MergeRule::kSum:
        EXPECT_EQ(got, a + b);
        break;
      case MergeRule::kMax:
        EXPECT_EQ(got, a > b ? a : b);
        break;
      case MergeRule::kKeep:
        EXPECT_EQ(got, a);
        break;
    }
  });
}

TEST(FlowFieldTableTest, AbsorbSearchAndPhasesTouchesOnlyItsGroups) {
  FlowStats into;
  FlowStats from;
  fill_distinct(into, 0);
  fill_distinct(from, 3);
  const FlowStats before = into;
  into.absorb_search_and_phases(from);
  core::for_each_flow_field([&](const auto& field) {
    SCOPED_TRACE(field.key);
    const bool absorbed = field.group == FlowGroup::kSearch ||
                          field.group == FlowGroup::kClasses ||
                          field.group == FlowGroup::kProfile;
    const auto a = before.*field.member;
    const auto b = from.*field.member;
    const auto folded = field.rule == MergeRule::kMax ? (a > b ? a : b) : a + b;
    EXPECT_EQ(into.*field.member, absorbed ? folded : a);
  });
}

TEST(FlowFieldTableTest, CsvHeaderAndRowsHaveTheSameColumnCount) {
  RunReport report;
  report.jobs.resize(2);
  report.jobs[0].circuit = "rd73";
  report.jobs[0].system = "HYDE";
  fill_distinct(report.jobs[0].stats, 3);
  report.jobs[1].circuit = "bad";
  report.jobs[1].system = "HYDE";
  report.jobs[1].error = "failed, \"badly\"";

  const auto records = testing::split_csv(to_csv(report));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].size(),
            10 + std::tuple_size_v<decltype(core::kFlowFields)>);
  for (const auto& record : records) {
    EXPECT_EQ(record.size(), records[0].size());
  }
  EXPECT_EQ(records[2][8], "failed, \"badly\"");
}

TEST(RunReportGoldenTest, DeterministicJsonMatchesCommittedFile) {
  const std::vector<BatchJob> jobs = suite_jobs(
      {"rd73", "misex1", "9sym"},
      {baseline::System::kHyde, baseline::System::kImodecLike,
       baseline::System::kFgsynLike, baseline::System::kSawadaLike,
       baseline::System::kSawadaResubLike},
      5, 1);
  BatchOptions options;
  options.workers = 2;
  const std::string json =
      to_json(run_batch(jobs, options), /*include_volatile=*/false);

  std::ifstream in(std::string(HYDE_TEST_DATA_DIR) +
                   "/run_report_deterministic.json");
  ASSERT_TRUE(in) << "missing golden file";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(json, golden.str());
}

}  // namespace
}  // namespace hyde::runtime
