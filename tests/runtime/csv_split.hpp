/// \file csv_split.hpp
/// \brief RFC 4180 reader for report tests: records of fields, where a
/// quoted field may hold separators, doubled quotes and line breaks.

#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace hyde::runtime::testing {

inline std::vector<std::vector<std::string>> split_csv(
    const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c != '"') {
        field.push_back(c);
      } else if (i + 1 < text.size() && text[i + 1] == '"') {
        field.push_back('"');
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',' || c == '\n') {
      record.push_back(std::move(field));
      field.clear();
      if (c == '\n') {
        records.push_back(std::move(record));
        record.clear();
      }
    } else {
      field.push_back(c);
    }
  }
  if (!field.empty() || !record.empty()) {
    record.push_back(std::move(field));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace hyde::runtime::testing
