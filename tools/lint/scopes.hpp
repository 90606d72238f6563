/// \file scopes.hpp
/// \brief Brace/scope tracking over a lexed file: top-level function bodies
/// and comment-marker regions that bind to the next braced block (the
/// `hyde-hot` binding mechanics, generalized).
///
/// The function finder is a heuristic (this is a linter, not a parser): a
/// `{` whose backward token context looks like `name(params) [qualifiers]`
/// opens a function body. Constructors with member-init lists are captured
/// with the wrong name but the right body span, which is all the rules
/// need. Only top-level (non-nested) functions are returned; lambda bodies
/// belong to their enclosing function's token range.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace hyde::lint {

/// One top-level function (or constructor / lambda assigned at namespace
/// scope). Token indices are half-open into LexedFile::tokens.
struct FunctionInfo {
  std::string name;            ///< best-effort; "<lambda>" for lambdas
  std::size_t body_begin = 0;  ///< the opening '{'
  std::size_t body_end = 0;    ///< the matching '}' (== tokens.size() if
                               ///< unbalanced)
};

std::vector<FunctionInfo> find_functions(const LexedFile& lexed);

/// For each token index holding '{', the index of its matching '}'
/// (tokens.size() when unbalanced). Non-brace indices map to 0.
std::vector<std::size_t> match_braces(const std::vector<Token>& tokens);

/// One comment-marker region: `// marker` binds to the first `{`
/// opened within kMarkerBindWindow lines of the marker (possibly on the
/// marker line itself, as a trailing comment); the region ends at the
/// matching brace. A marker that never binds has `bound == false`.
struct MarkerRegion {
  int marker_line = 0;  ///< 1-based line of the marker comment
  int first_line = 0;   ///< line opening the region (the bound '{')
  int last_line = 0;    ///< line closing the region
  bool bound = false;
};

inline constexpr int kMarkerBindWindow = 5;

/// Finds regions for comments whose trimmed text starts with \p marker.
/// (Start-anchored so prose that merely mentions the marker name — this
/// file, say — does not open a region.)
std::vector<MarkerRegion> find_marker_regions(const LexedFile& lexed,
                                              const std::string& marker);

/// True iff some comment on `line` has trimmed text starting with `marker`.
bool marker_on_line(const LexedFile& lexed, int line,
                    const std::string& marker);

/// True iff `line` lies inside a bound region of `regions` (inclusive of
/// the opening and closing lines).
bool line_in_regions(const std::vector<MarkerRegion>& regions, int line);

}  // namespace hyde::lint
