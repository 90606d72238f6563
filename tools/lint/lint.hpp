/// \file lint.hpp
/// \brief hyde_lint: repo-specific static checks, no external dependencies.
///
/// A self-contained analyzer (not a compiler plugin): a real lexer
/// (lexer.hpp) feeds per-line pattern rules and token/scope-aware semantic
/// rules. Per-file rule families, with their path scope:
///
///  - `determinism`       banned nondeterminism sources (std::rand, srand,
///                        time(nullptr)-style seeds, std::random_device)
///                        outside bench/; plus, under src/, range-for
///                        iteration over `unordered_map`/`unordered_set`
///                        (member-order is hash-seed- and history-dependent,
///                        so any result that depends on visit order breaks
///                        run-to-run reproducibility). Escape hatch for
///                        provably order-free loops: `// hyde-unordered-ok`.
///  - `hot-path`          no allocating or node-hashing containers inside
///                        regions marked `// hyde-hot` (the marker covers
///                        the function whose body opens on or shortly after
///                        the marker line; a marker that never binds to a
///                        body is itself diagnosed)
///  - `iostream-layering` no <iostream>/<cstdio> use in library code under
///                        src/ (the CLI and report layer are exempt via the
///                        allowlist)
///  - `include-hygiene`   headers carry #pragma once, no `#include "../`,
///                        no `using namespace` in headers
///  - `reorder-epoch`     regions marked `// hyde-reorder-scope` (code that
///                        intentionally caches raw BDD levels or node ids
///                        across calls — both are remapped by dynamic
///                        variable reordering, see docs/REORDER.md) must
///                        mention `reorder_epoch` inside the region; raw
///                        `level_of(` / `var_at(` reads in an epoch-less
///                        region are flagged line-by-line, and a marker that
///                        never binds to a braced region is itself diagnosed
///  - `handle-lifetime`   under src/ (except src/bdd/, whose manager
///                        internals legitimately manipulate raw slots): a
///                        raw node id must not outlive the `Bdd` handle that
///                        pins it — no `.id()` keys in long-lived (member)
///                        containers, no ids taken off temporary handles,
///                        no id locals reused after a kernel call that can
///                        GC or reorder, no handles passed to a different
///                        manager than the one that made them. Escape:
///                        `// hyde-pinned` on the flagged line (say why).
///
/// Cross-file rules (`dead-knob`, include-cycle detection, stale-allowlist
/// pruning) live in project.hpp. See docs/ANALYSIS.md for the rationale
/// behind each rule and the allowlist format.

#pragma once

#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace hyde::lint {

/// One finding. `line` is 1-based.
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string hint;  ///< suggested fix, printed in --fix-hints mode
};

/// One allowlist entry: suppresses `rule` for any file whose path contains
/// `path_fragment` as a substring.
struct AllowEntry {
  std::string rule;
  std::string path_fragment;
  int line = 0;  ///< 1-based line in the allowlist file (0 if synthetic)
};

struct Options {
  std::vector<AllowEntry> allow;
  bool fix_hints = false;
};

/// Parses the allowlist format: one `rule path-fragment` pair per line,
/// `#` starts a comment, blank lines ignored.
std::vector<AllowEntry> parse_allowlist(const std::string& text);

/// True iff an allowlist entry suppresses `rule` for `path`.
bool is_allowed(const std::vector<AllowEntry>& allow, const std::string& rule,
                const std::string& path);

/// Lints one file's content. `path` selects the applicable rules (see file
/// comment); it does not need to exist on disk.
std::vector<Diagnostic> lint_content(const std::string& path,
                                     const std::string& content,
                                     const Options& opts);

/// Same, over an already-lexed file. When `allow_hits` is non-null it must
/// parallel `opts.allow`; the first entry suppressing each diagnostic gets
/// its count bumped (stale-allowlist detection builds on this).
std::vector<Diagnostic> lint_lexed(const std::string& path,
                                   const LexedFile& lexed, const Options& opts,
                                   std::vector<int>* allow_hits);

/// Formats a diagnostic as `file:line: [rule] message` (plus a hint line in
/// fix-hints mode).
std::string format_diagnostic(const Diagnostic& d, bool fix_hints);

}  // namespace hyde::lint
