#include "lint/scopes.hpp"

#include <algorithm>

namespace hyde::lint {

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

/// Keywords that can directly precede a parenthesized list + `{` without
/// the `{` opening a function body.
bool non_function_keyword(const std::string& name) {
  static const char* const kKeywords[] = {
      "if",     "for",      "while",   "switch",  "catch",
      "return", "constexpr", "sizeof", "alignof", "decltype",
      "noexcept"};
  return std::any_of(std::begin(kKeywords), std::end(kKeywords),
                     [&](const char* k) { return name == k; });
}

/// Qualifier-ish tokens that may sit between a function's `)` and its `{`:
/// cv/ref qualifiers, `noexcept`, `override`/`final`, and trailing return
/// types (`-> std::vector<int>`).
bool skippable_between_paren_and_brace(const Token& t) {
  if (t.kind == Token::Kind::kIdentifier || t.kind == Token::Kind::kNumber) {
    return true;
  }
  if (t.kind != Token::Kind::kPunct) return false;
  static const char* const kPuncts[] = {"::", "<", ">", "*", "&",
                                        "->", ",",  ":"};
  return std::any_of(std::begin(kPuncts), std::end(kPuncts),
                     [&](const char* p) { return t.text == p; });
}

}  // namespace

std::vector<std::size_t> match_braces(const std::vector<Token>& tokens) {
  std::vector<std::size_t> match(tokens.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (is_punct(tokens[i], "{")) {
      stack.push_back(i);
    } else if (is_punct(tokens[i], "}")) {
      if (!stack.empty()) {
        match[stack.back()] = i;
        stack.pop_back();
      }
    }
  }
  for (const std::size_t open : stack) match[open] = tokens.size();
  return match;
}

std::vector<FunctionInfo> find_functions(const LexedFile& lexed) {
  const std::vector<Token>& tokens = lexed.tokens;
  const std::vector<std::size_t> brace_match = match_braces(tokens);
  std::vector<FunctionInfo> out;
  std::size_t skip_until = 0;  // end of the function body being skipped

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i < skip_until) continue;
    if (!is_punct(tokens[i], "{")) continue;

    // Walk backward over qualifiers / a trailing return type to the
    // parameter list's `)`. Stop tokens bound the search so a struct or
    // namespace brace never reaches into unrelated code.
    std::size_t j = i;
    std::size_t close_paren = tokens.size();
    for (int steps = 0; j > 0 && steps < 24; ++steps) {
      --j;
      if (is_punct(tokens[j], ")")) {
        close_paren = j;
        break;
      }
      if (is_punct(tokens[j], ";") || is_punct(tokens[j], "{") ||
          is_punct(tokens[j], "}") || is_punct(tokens[j], "=")) {
        break;
      }
      if (!skippable_between_paren_and_brace(tokens[j])) break;
    }
    if (close_paren == tokens.size()) continue;

    // Match backward to the opening `(`.
    int depth = 0;
    std::size_t open_paren = tokens.size();
    for (std::size_t k = close_paren + 1; k-- > 0;) {
      if (is_punct(tokens[k], ")")) ++depth;
      if (is_punct(tokens[k], "(")) {
        --depth;
        if (depth == 0) {
          open_paren = k;
          break;
        }
      }
    }
    if (open_paren == tokens.size() || open_paren == 0) continue;

    const Token& before = tokens[open_paren - 1];
    FunctionInfo fn;
    if (before.kind == Token::Kind::kIdentifier) {
      if (non_function_keyword(before.text)) continue;
      fn.name = before.text;
    } else if (is_punct(before, "]")) {
      fn.name = "<lambda>";
    } else {
      continue;
    }
    fn.body_begin = i;
    fn.body_end = brace_match[i];
    out.push_back(fn);
    skip_until = fn.body_end;  // nested blocks belong to this function
  }
  return out;
}

std::vector<MarkerRegion> find_marker_regions(const LexedFile& lexed,
                                              const std::string& marker) {
  std::vector<MarkerRegion> out;
  for (const CommentSpan& c : lexed.comments) {
    std::size_t start = c.text.find_first_not_of(" \t/*");
    if (start == std::string::npos) continue;
    if (c.text.compare(start, marker.size(), marker) != 0) continue;
    MarkerRegion region;
    region.marker_line = c.line;

    // Bind to the first `{` within the window, then walk braces to the
    // matching close (same per-char mechanics as the hot-region tracker).
    int brace_depth = 0;
    const int lines = static_cast<int>(lexed.code_lines.size());
    for (int line = c.line;
         line <= lines && (region.bound || line - c.line < kMarkerBindWindow);
         ++line) {
      const std::string& code = lexed.code_lines[static_cast<std::size_t>(
          line - 1)];
      bool closed = false;
      for (const char ch : code) {
        if (ch == '{') {
          if (!region.bound) {
            region.bound = true;
            region.first_line = line;
          }
          ++brace_depth;
        } else if (ch == '}') {
          if (brace_depth > 0) --brace_depth;
          if (region.bound && brace_depth == 0) {
            closed = true;
            break;
          }
        }
      }
      if (closed) {
        region.last_line = line;
        break;
      }
    }
    if (region.bound && region.last_line == 0) {
      region.last_line = lines;  // unbalanced: region runs to end of file
    }
    out.push_back(region);
  }
  return out;
}

bool marker_on_line(const LexedFile& lexed, int line,
                    const std::string& marker) {
  for (const CommentSpan& c : lexed.comments) {
    if (c.line != line) continue;
    const std::size_t start = c.text.find_first_not_of(" \t/*");
    if (start == std::string::npos) continue;
    if (c.text.compare(start, marker.size(), marker) == 0) return true;
  }
  return false;
}

bool line_in_regions(const std::vector<MarkerRegion>& regions, int line) {
  return std::any_of(regions.begin(), regions.end(),
                     [&](const MarkerRegion& r) {
                       return r.bound && line >= r.first_line &&
                              line <= r.last_line;
                     });
}

}  // namespace hyde::lint
