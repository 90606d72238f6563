#include "runtime/report.hpp"

#include <cstdio>
#include <iterator>
#include <type_traits>

namespace hyde::runtime {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Appends \p s as one CSV field, quoted per RFC 4180 when it holds a
/// separator, a quote or a line break.
void append_csv_text(std::string& out, const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) {
    out += s;
    return;
  }
  out.push_back('"');
  for (char c : s) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

/// A FlowStats value as JSON (\p json) or CSV, which spells booleans 1/0.
template <typename T>
std::string format_value(T value, bool json) {
  if constexpr (std::is_same_v<T, bool>) {
    if (json) return value ? "true" : "false";
    return value ? "1" : "0";
  } else if constexpr (std::is_floating_point_v<T>) {
    return format_double(value);
  } else {
    return std::to_string(value);
  }
}

/// Object name of each core::FlowGroup, indexed by its value: per job, and
/// for the run-level totals. The run level has no `stats` block (those are
/// per-job results) and takes its `store` block from the store itself.
constexpr const char* kJobGroupNames[] = {
    "stats", "bdd", "search", "classes", "windows", "store", "profile"};
constexpr const char* kRunGroupNames[] = {
    nullptr, "bdd_kernel", "search", "classes", "windows", nullptr, "profile"};
static_assert(std::size(kJobGroupNames) ==
              static_cast<std::size_t>(core::FlowGroup::kProfile) + 1);
static_assert(std::size(kRunGroupNames) == std::size(kJobGroupNames));

/// `"key": value` pairs of the \p group fields of \p stats that \p take
/// selects, comma-separated in table order.
template <typename Take>
std::string group_fields(const core::FlowStats& stats, std::size_t group,
                         Take take) {
  std::string out;
  core::for_each_flow_field([&](const auto& field) {
    if (static_cast<std::size_t>(field.group) != group || !take(field)) return;
    if (!out.empty()) out += ", ";
    out += std::string("\"") + field.key +
           "\": " + format_value(stats.*field.member, true);
  });
  return out;
}

}  // namespace

std::string to_json(const RunReport& report, bool include_volatile) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"hyde.run_report.v1\",\n";
  out += "  \"verify_vectors\": " + std::to_string(report.verify_vectors) + ",\n";
  if (include_volatile) {
    out += "  \"workers\": " + std::to_string(report.workers) + ",\n";
    out += "  \"wall_seconds\": " + format_double(report.wall_seconds) + ",\n";
    const core::FlowStats& t = report.totals;
    for (std::size_t g = 0; g < std::size(kRunGroupNames); ++g) {
      if (kRunGroupNames[g] == nullptr) continue;
      // Keep-rule fields are never folded, so they have no run-level total.
      std::string fields = group_fields(t, g, [](const auto& field) {
        return field.rule != core::MergeRule::kKeep;
      });
      if (g == static_cast<std::size_t>(core::FlowGroup::kBdd)) {
        const std::uint64_t probes = t.bdd_cache_hits + t.bdd_cache_misses;
        fields += ", \"hit_rate\": " +
                  format_double(probes == 0
                                    ? 0.0
                                    : static_cast<double>(t.bdd_cache_hits) /
                                          static_cast<double>(probes));
      }
      out += std::string("  \"") + kRunGroupNames[g] + "\": {" + fields +
             "},\n";
    }
    out += "  \"store\": {";
    out += std::string("\"enabled\": ") +
           (report.store.enabled ? "true" : "false");
    out += std::string(", \"readonly\": ") +
           (report.store.readonly ? "true" : "false");
    out += ", \"disk_hits\": " + std::to_string(report.store.disk_hits);
    out += ", \"disk_misses\": " + std::to_string(report.store.disk_misses);
    out += ", \"bytes_read\": " + std::to_string(report.store.bytes_read);
    out += ", \"bytes_written\": " + std::to_string(report.store.bytes_written);
    out += ", \"raw_bytes\": " + std::to_string(report.store.raw_bytes);
    out += ", \"coded_bytes\": " + std::to_string(report.store.coded_bytes);
    out += ", \"codec_ratio\": " + format_double(report.store.codec_ratio());
    out += ", \"evictions\": " + std::to_string(report.store.evictions);
    out += ", \"corrupt_records\": " +
           std::to_string(report.store.corrupt_records);
    out += ", \"appends\": " + std::to_string(report.store.appends);
    out += ", \"records\": " + std::to_string(report.store.records);
    out += ", \"job_hits\": " + std::to_string(report.store.job_hits);
    out += ", \"job_appends\": " + std::to_string(report.store.job_appends);
    out += "},\n";
  }
  out += "  \"cache\": {\n";
  out += std::string("    \"enabled\": ") +
         (report.cache.enabled ? "true" : "false") + ",\n";
  out += "    \"max_support\": " + std::to_string(report.cache.max_support) + ",\n";
  out += "    \"flow_lookups\": " + std::to_string(report.totals.cache_lookups);
  // The memory tier's distinct-function count is a pure function of the job
  // list only while no persistent tier exists; with a store attached, disk
  // promotions and whole-job replays legitimately change which keys the
  // memory tier ever sees, so the field moves to the volatile group (keeping
  // cold and warm deterministic outputs diffable).
  if (!report.store.enabled || include_volatile) {
    out += ",\n    \"unique_functions\": " +
           std::to_string(report.cache.unique_functions);
  }
  if (include_volatile) {
    out += ",\n";
    out += "    \"hits\": " + std::to_string(report.cache.hits) + ",\n";
    out += "    \"misses\": " + std::to_string(report.cache.misses) + ",\n";
    out += "    \"races_lost\": " + std::to_string(report.cache.races_lost) + ",\n";
    out += "    \"hit_rate\": " + format_double(report.cache.hit_rate()) + "\n";
  } else {
    out += "\n";
  }
  out += "  },\n";
  out += "  \"jobs\": [\n";
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const JobReport& job = report.jobs[i];
    out += "    {\n";
    out += "      \"circuit\": ";
    append_escaped(out, job.circuit);
    out += ",\n      \"system\": ";
    append_escaped(out, job.system);
    out += ",\n      \"k\": " + std::to_string(job.k);
    out += ",\n      \"seed\": " + std::to_string(job.seed);
    out += ",\n      \"luts\": " + std::to_string(job.luts);
    out += ",\n      \"clbs\": " + std::to_string(job.clbs);
    out += ",\n      \"depth\": " + std::to_string(job.depth);
    out += std::string(",\n      \"verified\": ") +
           (job.verified ? "true" : "false");
    out += ",\n      \"error\": ";
    append_escaped(out, job.error);
    if (include_volatile) {
      out += ",\n      \"seconds\": " + format_double(job.seconds);
    }
    for (std::size_t g = 0; g < std::size(kJobGroupNames); ++g) {
      const std::string fields =
          group_fields(job.stats, g, [include_volatile](const auto& field) {
            return include_volatile || field.deterministic;
          });
      if (fields.empty()) continue;
      out += std::string(",\n      \"") + kJobGroupNames[g] + "\": {" +
             fields + "}";
    }
    out += "\n    }";
    out += i + 1 < report.jobs.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string to_csv(const RunReport& report) {
  std::string out =
      "circuit,system,k,seed,luts,clbs,depth,verified,error,seconds";
  core::for_each_flow_field([&out](const auto& field) {
    out += std::string(",") +
           kJobGroupNames[static_cast<std::size_t>(field.group)] + "." +
           field.key;
  });
  out += "\n";
  const auto cell = [&out](const auto& value) {
    out += ',';
    out += format_value(value, false);
  };
  for (const JobReport& job : report.jobs) {
    append_csv_text(out, job.circuit);
    out += ',';
    append_csv_text(out, job.system);
    cell(job.k);
    cell(job.seed);
    cell(job.luts);
    cell(job.clbs);
    cell(job.depth);
    cell(job.verified);
    out += ',';
    append_csv_text(out, job.error);
    cell(job.seconds);
    core::for_each_flow_field(
        [&cell, &job](const auto& field) { cell(job.stats.*field.member); });
    out += '\n';
  }
  return out;
}

}  // namespace hyde::runtime
