/// \file lexer.hpp
/// \brief A self-contained C++ lexer for hyde_lint (no libclang).
///
/// Produces three synchronized views of one translation unit:
///
///  - `raw_lines`   the physical lines, verbatim;
///  - `code_lines`  the same lines with comments, string/char literal
///                  contents, backslash-continued comment tails and
///                  `#if 0` regions blanked to spaces (literal delimiters
///                  are kept, so legacy pattern rules keep their column
///                  accuracy);
///  - `tokens`      a flat token stream (identifiers, numbers, literals,
///                  punctuators) that skips everything the code view blanks.
///
/// Handled beyond the old line-regex pass: raw string literals (including
/// custom delimiters and multi-line bodies), backslash line continuations in
/// any context (a `// comment \` swallows the next physical line, exactly as
/// the compiler does), adjacent string concatenation (two string tokens),
/// digit separators vs. char literals, and `#if 0` / `#if false` regions
/// (nested, `#else` re-activates). Preprocessor conditionals with
/// non-literal conditions are treated as active — the linter must see both
/// branches of real feature gates.
///
/// Comments are not discarded: they are recorded per line so rule markers
/// (`hyde-hot`, `hyde-reorder-scope`, escape hatches) can
/// be matched without ever confusing a marker inside a string literal for a
/// real one.

#pragma once

#include <string>
#include <vector>

namespace hyde::lint {

struct Token {
  enum class Kind {
    kIdentifier,  ///< identifiers and keywords (no keyword table needed)
    kNumber,      ///< integer/float literal, including separators/suffixes
    kString,      ///< one string literal (ordinary or raw); text is blanked
    kChar,        ///< one character literal; text is blanked
    kPunct,       ///< punctuator, multi-character where C++ has one
  };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;  ///< 1-based physical line of the token's first character
};

/// One physical line's worth of comment text (a block comment spanning n
/// lines yields n entries). `text` is the comment content on that line.
struct CommentSpan {
  int line = 0;
  std::string text;
};

/// One #include directive.
struct IncludeDirective {
  int line = 0;
  std::string target;  ///< path between the quotes/angles
  bool angled = false;
};

struct LexedFile {
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;
  std::vector<Token> tokens;
  std::vector<CommentSpan> comments;
  std::vector<IncludeDirective> includes;

  /// True iff some comment on `line` contains `marker` as a substring.
  bool comment_on_line_contains(int line, const std::string& marker) const;
};

/// Lexes one file's content. Never fails: malformed input degrades to
/// best-effort tokens (an unterminated literal runs to end of line, an
/// unterminated block comment or #if 0 to end of file).
LexedFile lex_file(const std::string& content);

}  // namespace hyde::lint
