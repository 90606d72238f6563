#include "lint/sarif.hpp"

#include <algorithm>
#include <sstream>

namespace hyde::lint {

namespace {

/// JSON string escaping (control characters, quotes, backslashes).
std::string json_escape(const std::string& s) {
  std::ostringstream os;
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  return os.str();
}

struct RuleMeta {
  const char* id;
  const char* description;
};

/// Short descriptions for the rules table (driver.rules). Rules not listed
/// here (future families) still serialize; they just get a generic text.
const RuleMeta kRules[] = {
    {"determinism",
     "Results must be reproducible run-to-run: no ambient RNG or wall-clock "
     "seeds, no iteration over unordered containers on result-affecting "
     "paths."},
    {"hot-path",
     "Regions marked hyde-hot must stay allocation-free (no node-hashing or "
     "growing containers, no heap allocation, no std::string)."},
    {"iostream-layering",
     "Library code under src/ must not print; output belongs to the CLI and "
     "the report layer."},
    {"include-hygiene",
     "Headers carry #pragma once; no parent-relative includes; no `using "
     "namespace` in headers; no include cycles."},
    {"reorder-epoch",
     "Regions marked hyde-reorder-scope cache raw BDD levels or node ids and "
     "must gate every reuse on Manager::reorder_epoch()."},
    {"handle-lifetime",
     "A raw node id must not outlive the Bdd handle pinning it: no id keys "
     "in long-lived containers, no ids off temporaries, no reuse across "
     "kernel calls that can GC or reorder, no cross-manager handle mixing."},
    {"dead-knob",
     "Every option-struct field must be reachable from hyde_cli flags or "
     "surfaced in RunReport; unreachable knobs are dead weight."},
    {"stale-allowlist",
     "Allowlist entries that match no scanned file or suppress zero "
     "diagnostics must be pruned."},
};

const char* rule_description(const std::string& id) {
  for (const RuleMeta& r : kRules) {
    if (id == r.id) return r.description;
  }
  return "hyde_lint repo-specific rule.";
}

}  // namespace

std::string to_sarif(const std::vector<Diagnostic>& diags) {
  // Distinct rule ids, in first-appearance order, mapped to rule indices.
  std::vector<std::string> rule_ids;
  for (const Diagnostic& d : diags) {
    if (std::find(rule_ids.begin(), rule_ids.end(), d.rule) ==
        rule_ids.end()) {
      rule_ids.push_back(d.rule);
    }
  }

  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": "
        "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
        "Schemata/sarif-schema-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"hyde_lint\",\n"
     << "          \"informationUri\": "
        "\"https://example.invalid/hyde/docs/ANALYSIS.md\",\n"
     << "          \"rules\": [\n";
  for (std::size_t i = 0; i < rule_ids.size(); ++i) {
    os << "            {\n"
       << "              \"id\": \"" << json_escape(rule_ids[i]) << "\",\n"
       << "              \"shortDescription\": { \"text\": \""
       << json_escape(rule_description(rule_ids[i])) << "\" }\n"
       << "            }" << (i + 1 < rule_ids.size() ? "," : "") << "\n";
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    const std::size_t rule_index = static_cast<std::size_t>(
        std::find(rule_ids.begin(), rule_ids.end(), d.rule) -
        rule_ids.begin());
    std::string text = d.message;
    if (!d.hint.empty()) text += " (hint: " + d.hint + ")";
    os << "        {\n"
       << "          \"ruleId\": \"" << json_escape(d.rule) << "\",\n"
       << "          \"ruleIndex\": " << rule_index << ",\n"
       << "          \"level\": \"error\",\n"
       << "          \"message\": { \"text\": \"" << json_escape(text)
       << "\" },\n"
       << "          \"locations\": [\n"
       << "            {\n"
       << "              \"physicalLocation\": {\n"
       << "                \"artifactLocation\": { \"uri\": \""
       << json_escape(d.file) << "\" },\n"
       << "                \"region\": { \"startLine\": "
       << (d.line > 0 ? d.line : 1) << " }\n"
       << "              }\n"
       << "            }\n"
       << "          ]\n"
       << "        }" << (i + 1 < diags.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
  return os.str();
}

}  // namespace hyde::lint
