#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>

#include "lint/scopes.hpp"

namespace hyde::lint {

namespace {

bool path_contains(const std::string& path, const std::string& fragment) {
  return path.find(fragment) != std::string::npos;
}

bool is_header(const std::string& path) {
  return path.size() >= 4 && (path.rfind(".hpp") == path.size() - 4 ||
                              path.rfind(".h") == path.size() - 2);
}

struct TokenRule {
  std::regex pattern;
  std::string what;
  std::string hint;
};

const std::vector<TokenRule>& determinism_rules() {
  static const std::vector<TokenRule> rules = {
      {std::regex(R"(\bstd::rand\b|[^\w:.]rand\s*\(\s*\))"),
       "banned RNG: rand()",
       "use a std::mt19937 seeded from an explicit parameter"},
      {std::regex(R"(\bsrand\s*\()"), "banned RNG seeding: srand()",
       "thread the seed through the call chain instead of global state"},
      {std::regex(R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\))"),
       "wall-clock seed: time(...)",
       "derive seeds from inputs (e.g. a key hash) so runs are reproducible"},
      {std::regex(R"(\bstd::random_device\b|\brandom_device\b)"),
       "nondeterministic source: std::random_device",
       "accept a seed argument; reserve random_device for bench/ only"},
  };
  return rules;
}

const std::vector<TokenRule>& hot_path_rules() {
  static const std::vector<TokenRule> rules = {
      {std::regex(R"(\bstd::unordered_(map|set)\b)"),
       "node-hashing container in a hyde-hot region",
       "use the manager's computed table or a flat array keyed by node id"},
      {std::regex(R"(\bstd::(map|set|multimap|multiset)\b)"),
       "ordered container in a hyde-hot region",
       "hot kernels must be allocation-free; hoist the container out"},
      {std::regex(R"(\bstd::function\b)"),
       "type-erased callable in a hyde-hot region",
       "use a template parameter or a plain function pointer"},
      {std::regex(R"(\bnew\b|\bmalloc\s*\()"),
       "heap allocation in a hyde-hot region",
       "preallocate in the manager and reuse storage across calls"},
      {std::regex(R"(\b(push_back|emplace_back)\s*\(|\.(resize|reserve)\s*\()"),
       "growing a container in a hyde-hot region",
       "size the buffer before entering the kernel"},
      {std::regex(R"(\bstd::string\b)"),
       "std::string in a hyde-hot region",
       "format diagnostics outside the kernel"},
  };
  return rules;
}

const std::vector<TokenRule>& iostream_rules() {
  static const std::vector<TokenRule> rules = {
      {std::regex(R"(#\s*include\s*<(iostream|cstdio|stdio\.h)>)"),
       "stream/stdio include in library code",
       "return data or use std::ostringstream; printing belongs to the CLI "
       "and report layers"},
      {std::regex(R"(\bstd::(cout|cerr|clog)\b)"),
       "console output in library code",
       "surface results through return values; only the CLI prints"},
      {std::regex(R"(\b(printf|fprintf|puts)\s*\()"),
       "stdio output in library code",
       "surface results through return values; only the CLI prints"},
  };
  return rules;
}

/// Raw level-map / variable-map reads: the values these return are remapped
/// by every dynamic reorder, so caching them across calls is only sound
/// within one reorder epoch.
const std::regex& raw_level_pattern() {
  static const std::regex pattern(R"(\b(level_of|var_at)\s*\()");
  return pattern;
}

// ---------------------------------------------------------------------------
// Token helpers for the semantic rule families.

bool punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool ident(const Token& t) { return t.kind == Token::Kind::kIdentifier; }

bool ident(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdentifier && t.text == text;
}

bool member_access(const Token& t) {
  return punct(t, ".") || punct(t, "->");
}

bool any_of_names(const std::string& name, const char* const* names,
                  std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (name == names[i]) return true;
  }
  return false;
}

/// Index of the token matching the opener at `open` ('(' / '['), or
/// tokens.size() when unbalanced.
std::size_t match_forward(const std::vector<Token>& tokens, std::size_t open,
                          const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (punct(tokens[i], open_text)) ++depth;
    if (punct(tokens[i], close_text)) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return tokens.size();
}

/// Manager kernel entry points: every one of them runs `maybe_gc()`, which
/// in auto-reorder mode runs `reorder_sift()` — so any of these calls can
/// remap or free raw node ids.
bool gc_capable_call(const std::string& name) {
  static const char* const kCalls[] = {
      "ite",         "cofactor",      "cofactor_cube", "exists",
      "forall",      "compose",       "vector_compose", "permute",
      "bdd_and",     "bdd_or",        "bdd_xor",        "bdd_not",
      "from_truth_table", "transfer", "collect_garbage", "maybe_gc",
      "reorder_sift"};
  return any_of_names(name, kCalls, std::size(kCalls));
}

/// Manager methods that take Bdd-handle arguments (cross-manager checks).
bool handle_kernel(const std::string& name) {
  static const char* const kCalls[] = {
      "ite",     "cofactor", "cofactor_cube", "exists",        "forall",
      "compose", "vector_compose", "permute", "bdd_and",       "bdd_or",
      "bdd_xor", "bdd_not"};
  return any_of_names(name, kCalls, std::size(kCalls));
}

/// Manager methods whose Bdd result is owned by the receiver (used to infer
/// which manager a local handle belongs to).
bool handle_factory(const std::string& name) {
  static const char* const kCalls[] = {
      "ite",     "cofactor", "cofactor_cube", "exists",   "forall",
      "compose", "vector_compose", "permute", "bdd_and",  "bdd_or",
      "bdd_xor", "bdd_not",  "var",           "nvar",     "zero",
      "one",     "constant", "from_truth_table", "transfer"};
  return any_of_names(name, kCalls, std::size(kCalls));
}

bool container_access_method(const std::string& name) {
  static const char* const kMethods[] = {
      "find",  "emplace", "try_emplace", "insert",       "count",
      "at",    "contains", "push_back",  "emplace_back"};
  return any_of_names(name, kMethods, std::size(kMethods));
}

// ---------------------------------------------------------------------------
// determinism (unordered iteration)

bool unordered_container_name(const std::string& name) {
  static const char* const kNames[] = {"unordered_map", "unordered_set",
                                       "unordered_multimap",
                                       "unordered_multiset"};
  return any_of_names(name, kNames, std::size(kNames));
}

/// Names declared with an unordered container type anywhere in the file —
/// locals, parameters, members, and functions returning one (iterating a
/// freshly built unordered container is just as order-dependent).
std::vector<std::string> collect_unordered_names(
    const std::vector<Token>& tokens) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!ident(tokens[i]) || !unordered_container_name(tokens[i].text)) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < tokens.size() && punct(tokens[j], "<")) {
      int depth = 0;
      for (; j < tokens.size(); ++j) {
        if (punct(tokens[j], "<")) ++depth;
        if (punct(tokens[j], ">") && --depth == 0) {
          ++j;
          break;
        }
        if (punct(tokens[j], ";") || punct(tokens[j], "{")) break;
      }
    }
    while (j < tokens.size() &&
           (punct(tokens[j], "&") || punct(tokens[j], "*") ||
            ident(tokens[j], "const"))) {
      ++j;
    }
    if (j < tokens.size() && ident(tokens[j])) names.push_back(tokens[j].text);
  }
  return names;
}

template <typename Report>
void check_unordered_iteration(const LexedFile& lexed, const Report& report) {
  const std::vector<Token>& tokens = lexed.tokens;
  const std::vector<std::string> names = collect_unordered_names(tokens);
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!ident(tokens[i], "for") || !punct(tokens[i + 1], "(")) continue;
    // Find the range-for `:` at the for-parens' own depth; a `;` first
    // means a classic for loop.
    const std::size_t close = match_forward(tokens, i + 1, "(", ")");
    if (close == tokens.size()) continue;
    int depth = 0;
    std::size_t colon = tokens.size();
    for (std::size_t j = i + 1; j < close; ++j) {
      if (punct(tokens[j], "(") || punct(tokens[j], "[")) ++depth;
      if (punct(tokens[j], ")") || punct(tokens[j], "]")) --depth;
      if (depth != 1) continue;
      if (punct(tokens[j], ";")) break;
      if (punct(tokens[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon == tokens.size()) continue;
    bool unordered = false;
    for (std::size_t j = colon + 1; j < close && !unordered; ++j) {
      if (!ident(tokens[j])) continue;
      if (unordered_container_name(tokens[j].text)) unordered = true;
      if (std::find(names.begin(), names.end(), tokens[j].text) !=
          names.end()) {
        unordered = true;
      }
    }
    if (!unordered) continue;
    // The escape may sit on the loop line or on its own line just above.
    const int line = tokens[i].line;
    if (lexed.comment_on_line_contains(line, "hyde-unordered-ok") ||
        lexed.comment_on_line_contains(line - 1, "hyde-unordered-ok")) {
      continue;
    }
    report(line, "determinism",
           "iteration over an unordered container (visit order is "
           "hash-seed- and history-dependent)",
           "iterate sorted keys (or a std::map/std::vector) so results are "
           "reproducible; if order provably cannot affect any result, "
           "annotate the loop with // hyde-unordered-ok and say why");
  }
}

// ---------------------------------------------------------------------------
// handle-lifetime

template <typename Report>
void check_handle_lifetime(const LexedFile& lexed,
                           const std::vector<FunctionInfo>& functions,
                           const Report& report) {
  const std::vector<Token>& tokens = lexed.tokens;
  const std::vector<MarkerRegion> reorder_scopes =
      find_marker_regions(lexed, "hyde-reorder-scope");
  const auto pinned = [&](int line) {
    return lexed.comment_on_line_contains(line, "hyde-pinned");
  };

  // (a) Raw node ids keyed into long-lived containers: `member_.find(x.id())`
  // and `member_[x.id()]`. The container outlives the statement, the pinning
  // handle does not have to — and GC or a reorder then leaves dangling keys.
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!ident(tokens[i]) || tokens[i].text.size() < 2 ||
        tokens[i].text.back() != '_') {
      continue;
    }
    std::size_t span_begin = 0;
    std::size_t span_end = 0;
    if (member_access(tokens[i + 1]) && i + 3 < tokens.size() &&
        ident(tokens[i + 2]) && container_access_method(tokens[i + 2].text) &&
        punct(tokens[i + 3], "(")) {
      span_begin = i + 4;
      span_end = match_forward(tokens, i + 3, "(", ")");
    } else if (punct(tokens[i + 1], "[")) {
      span_begin = i + 2;
      span_end = match_forward(tokens, i + 1, "[", "]");
    } else {
      continue;
    }
    for (std::size_t j = span_begin; j + 3 < span_end; ++j) {
      if (member_access(tokens[j]) && ident(tokens[j + 1], "id") &&
          punct(tokens[j + 2], "(") && punct(tokens[j + 3], ")")) {
        const int line = tokens[j + 1].line;
        if (!pinned(line)) {
          report(line, "handle-lifetime",
                 "raw node id keyed into a long-lived container",
                 "key on the Bdd handle itself (bdd::BddHash) so the entry "
                 "pins its node, or annotate with // hyde-pinned and state "
                 "what keeps the id alive and un-reordered");
        }
      }
    }
  }

  // (b) Ids taken off temporary handles: `... = make(...).id()` or
  // `return make(...).id()`. The temporary dies at the end of the full
  // expression, so nothing pins the node afterwards.
  std::size_t stmt_begin = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (punct(tokens[i], ";") || punct(tokens[i], "{") ||
        punct(tokens[i], "}")) {
      stmt_begin = i + 1;
      continue;
    }
    if (i + 4 >= tokens.size() || !punct(tokens[i], ")") ||
        !member_access(tokens[i + 1]) || !ident(tokens[i + 2], "id") ||
        !punct(tokens[i + 3], "(") || !punct(tokens[i + 4], ")")) {
      continue;
    }
    bool stored = stmt_begin < tokens.size() &&
                  ident(tokens[stmt_begin], "return");
    for (std::size_t j = stmt_begin; j < i && !stored; ++j) {
      if (punct(tokens[j], "=")) stored = true;
    }
    if (!stored) continue;
    const int line = tokens[i + 2].line;
    if (pinned(line)) continue;
    report(line, "handle-lifetime",
           "raw node id taken from a temporary Bdd handle",
           "bind the Bdd to a named local first (the handle must outlive "
           "every use of the id), or annotate with // hyde-pinned");
  }

  // (c) Id locals reused after a kernel call that can GC or reorder: every
  // kernel runs maybe_gc(), which in auto-reorder mode sifts — and a sift
  // remaps ids even for pinned handles. hyde-reorder-scope regions are
  // exempt (the reorder-epoch rule audits those).
  // (d) Handles applied on a different manager than the one that made them.
  for (const FunctionInfo& fn : functions) {
    std::vector<std::string> id_locals;
    std::vector<std::pair<std::string, std::string>> owners;  // var -> mgr
    bool barrier_seen = false;
    const std::size_t end = std::min(fn.body_end, tokens.size());
    for (std::size_t i = fn.body_begin; i < end; ++i) {
      // Declaration `name = recv.id()`: track the raw-id local.
      if (i + 6 < end && ident(tokens[i]) && punct(tokens[i + 1], "=") &&
          ident(tokens[i + 2]) && member_access(tokens[i + 3]) &&
          ident(tokens[i + 4], "id") && punct(tokens[i + 5], "(") &&
          punct(tokens[i + 6], ")")) {
        id_locals.push_back(tokens[i].text);
        i += 6;
        continue;
      }
      // Declaration `Bdd name = mgr.factory(...)`: remember the owner.
      if (i + 4 < end && ident(tokens[i], "Bdd") && ident(tokens[i + 1]) &&
          punct(tokens[i + 2], "=") && ident(tokens[i + 3]) &&
          member_access(tokens[i + 4]) && i + 5 < end &&
          ident(tokens[i + 5]) && handle_factory(tokens[i + 5].text)) {
        owners.emplace_back(tokens[i + 1].text, tokens[i + 3].text);
      }
      // Kernel call `mgr.kernel(args...)`: a GC/reorder barrier, and the
      // cross-manager check point.
      if (ident(tokens[i]) && i + 1 < end && punct(tokens[i + 1], "(") &&
          gc_capable_call(tokens[i].text)) {
        barrier_seen = true;
      }
      if (i + 2 < end && ident(tokens[i]) && member_access(tokens[i + 1]) &&
          ident(tokens[i + 2]) && handle_kernel(tokens[i + 2].text) &&
          i + 3 < end && punct(tokens[i + 3], "(")) {
        const std::string& mgr = tokens[i].text;
        const std::size_t close = match_forward(tokens, i + 3, "(", ")");
        for (std::size_t j = i + 4; j < close && j < end; ++j) {
          if (!ident(tokens[j])) continue;
          for (const auto& [var, owner] : owners) {
            if (tokens[j].text == var && owner != mgr &&
                !pinned(tokens[j].line)) {
              report(tokens[j].line, "handle-lifetime",
                     "Bdd handle from manager '" + owner +
                         "' passed to a kernel of manager '" + mgr + "'",
                     "handles are manager-private; move the value across "
                     "with transfer() first");
            }
          }
        }
      }
      // Use of a tracked raw-id local after a barrier.
      if (barrier_seen && ident(tokens[i])) {
        const auto it =
            std::find(id_locals.begin(), id_locals.end(), tokens[i].text);
        if (it != id_locals.end()) {
          const int line = tokens[i].line;
          if (!line_in_regions(reorder_scopes, line) && !pinned(line)) {
            report(line, "handle-lifetime",
                   "raw node id '" + tokens[i].text +
                       "' used after a kernel call that can GC or reorder",
                   "re-read .id() from the pinning Bdd handle after the "
                   "call (auto-reorder remaps ids), or guard the cached id "
                   "with the reorder epoch in a hyde-reorder-scope region");
          }
          id_locals.erase(it);  // one finding per local is enough
        }
      }
    }
  }
}

}  // namespace

std::vector<AllowEntry> parse_allowlist(const std::string& text) {
  std::vector<AllowEntry> entries;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    AllowEntry entry;
    if (fields >> entry.rule >> entry.path_fragment) {
      entry.line = line_no;
      entries.push_back(entry);
    }
  }
  return entries;
}

bool is_allowed(const std::vector<AllowEntry>& allow, const std::string& rule,
                const std::string& path) {
  for (const AllowEntry& entry : allow) {
    if ((entry.rule == rule || entry.rule == "*") &&
        path_contains(path, entry.path_fragment)) {
      return true;
    }
  }
  return false;
}

std::vector<Diagnostic> lint_content(const std::string& path,
                                     const std::string& content,
                                     const Options& opts) {
  return lint_lexed(path, lex_file(content), opts, nullptr);
}

std::vector<Diagnostic> lint_lexed(const std::string& path,
                                   const LexedFile& lexed, const Options& opts,
                                   std::vector<int>* allow_hits) {
  std::vector<Diagnostic> diags;
  const std::vector<std::string>& lines = lexed.raw_lines;
  const std::vector<std::string>& code = lexed.code_lines;

  auto report = [&](int line, const std::string& rule,
                    const std::string& message, const std::string& hint) {
    for (std::size_t i = 0; i < opts.allow.size(); ++i) {
      const AllowEntry& entry = opts.allow[i];
      if ((entry.rule == rule || entry.rule == "*") &&
          path_contains(path, entry.path_fragment)) {
        if (allow_hits != nullptr && i < allow_hits->size()) {
          ++(*allow_hits)[i];
        }
        return;
      }
    }
    diags.push_back({path, line, rule, message, hint});
  };
  auto apply_rules = [&](const std::vector<TokenRule>& rules,
                         const std::string& rule_name, int line_index) {
    for (const TokenRule& rule : rules) {
      if (std::regex_search(code[static_cast<std::size_t>(line_index)],
                            rule.pattern)) {
        report(line_index + 1, rule_name, rule.what, rule.hint);
      }
    }
  };

  const bool in_bench = path_contains(path, "bench/");
  const bool in_library = path_contains(path, "src/");

  // Hot-region tracking: a `// hyde-hot` comment covers the function whose
  // opening brace follows the marker (possibly on the marker line itself, as
  // a trailing comment); the region ends at the matching brace. A marker
  // that finds no brace within kMarkerBindWindow lines never binds —
  // diagnose it rather than silently latching onto some unrelated later
  // function.
  bool hot_pending = false;
  int hot_depth = 0;
  int hot_marker_line = 0;

  // Reorder-scope tracking, same binding mechanics as hyde-hot: a
  // `// hyde-reorder-scope` comment marks a region that intentionally holds
  // raw levels or node ids across calls (docs/REORDER.md). Such a region
  // must consult `reorder_epoch` somewhere inside — capture it with the
  // cached state, compare it before reuse — or the cache replays stale
  // levels after the first reorder. The check is closed out when the region
  // ends, because the epoch mention may legitimately follow the raw reads.
  bool scope_pending = false;
  int scope_depth = 0;
  int scope_marker_line = 0;
  bool scope_has_epoch = false;
  std::vector<int> scope_raw_reads;

  const auto close_scope = [&]() {
    if (!scope_has_epoch) {
      report(scope_marker_line, "reorder-epoch",
             "hyde-reorder-scope region never checks reorder_epoch",
             "capture Manager::reorder_epoch() alongside the cached state "
             "and compare it before every reuse");
      for (const int read_line : scope_raw_reads) {
        report(read_line, "reorder-epoch",
               "raw level/id read cached in a region that ignores the "
               "reorder epoch",
               "levels and variable positions move on every reorder; gate "
               "the cached value on reorder_epoch()");
      }
    }
    scope_has_epoch = false;
    scope_raw_reads.clear();
  };

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int line_no = static_cast<int>(i) + 1;
    const std::string& c = code[i];

    const bool marker_here = marker_on_line(lexed, line_no, "hyde-hot");
    if (marker_here) {  // marker lives in a comment, as intended
      hot_pending = true;
      hot_marker_line = line_no;
    }

    // A line belongs to the hot region if the region was already open, or
    // if the marker is pending and this line opens the function body.
    const bool line_in_hot =
        hot_depth > 0 ||
        (hot_pending && c.find('{') != std::string::npos);
    if (hot_pending || hot_depth > 0) {
      for (const char ch : c) {
        if (ch == '{') {
          hot_depth += 1;
          hot_pending = false;
        } else if (ch == '}') {
          if (hot_depth > 0) hot_depth -= 1;
          if (hot_depth == 0 && !hot_pending) break;
        }
      }
    }
    if (hot_pending && line_no - hot_marker_line >= kMarkerBindWindow) {
      hot_pending = false;
      report(hot_marker_line, "hot-path",
             "hyde-hot marker does not bind to a function body",
             "place the marker directly above (or on) the line that opens "
             "the function it covers");
    }

    const bool scope_marker_here =
        marker_on_line(lexed, line_no, "hyde-reorder-scope");
    if (scope_marker_here) {
      scope_pending = true;
      scope_marker_line = line_no;
      scope_has_epoch = false;
      scope_raw_reads.clear();
    }
    const bool line_in_scope =
        scope_depth > 0 ||
        (scope_pending && c.find('{') != std::string::npos);
    bool scope_closed = false;
    if (scope_pending || scope_depth > 0) {
      for (const char ch : c) {
        if (ch == '{') {
          scope_depth += 1;
          scope_pending = false;
        } else if (ch == '}') {
          if (scope_depth > 0) scope_depth -= 1;
          if (scope_depth == 0 && !scope_pending) {
            scope_closed = true;
            break;
          }
        }
      }
    }
    if (line_in_scope) {
      if (c.find("reorder_epoch") != std::string::npos) {
        scope_has_epoch = true;
      }
      if (std::regex_search(c, raw_level_pattern())) {
        scope_raw_reads.push_back(line_no);
      }
    }
    if (scope_closed) close_scope();
    if (scope_pending && line_no - scope_marker_line >= kMarkerBindWindow) {
      scope_pending = false;
      report(scope_marker_line, "reorder-epoch",
             "hyde-reorder-scope marker does not bind to a braced region",
             "place the marker directly above (or on) the line that opens "
             "the region holding the cached levels");
    }

    // The marker line itself is exempt from the token rules: it is
    // commentary, and for a trailing marker the function signature on that
    // line is not kernel body.
    if (marker_here) continue;

    if (!in_bench) apply_rules(determinism_rules(), "determinism",
                               static_cast<int>(i));
    if (line_in_hot) {
      apply_rules(hot_path_rules(), "hot-path", static_cast<int>(i));
    }
    if (in_library) {
      apply_rules(iostream_rules(), "iostream-layering", static_cast<int>(i));
    }

    // Include hygiene applies everywhere. The directive survives literal
    // blanking but the quoted path does not, so pair the code view (proves
    // it is a real directive, not a comment) with the raw text.
    if (c.find("#include") != std::string::npos &&
        lines[i].find("\"../") != std::string::npos) {
      report(line_no, "include-hygiene",
             "parent-relative include path",
             "include project headers by their src/-relative path");
    }
    if (is_header(path) && c.find("using namespace") != std::string::npos) {
      report(line_no, "include-hygiene", "`using namespace` in a header",
             "qualify names explicitly; headers leak into every consumer");
    }
  }

  if (hot_pending) {
    report(hot_marker_line, "hot-path",
           "hyde-hot marker does not bind to a function body",
           "place the marker directly above (or on) the line that opens "
           "the function it covers");
  }

  if (scope_pending) {
    report(scope_marker_line, "reorder-epoch",
           "hyde-reorder-scope marker does not bind to a braced region",
           "place the marker directly above (or on) the line that opens "
           "the region holding the cached levels");
  }
  // A region still open at end of file (truncated fixture or unbalanced
  // braces) is judged on what it contained.
  if (scope_depth > 0) close_scope();

  if (is_header(path)) {
    bool has_pragma_once = false;
    for (const std::string& line : code) {
      if (line.find("#pragma once") != std::string::npos) {
        has_pragma_once = true;
        break;
      }
    }
    if (!has_pragma_once) {
      report(1, "include-hygiene", "header missing #pragma once",
             "add `#pragma once` as the first directive");
    }
  }

  // Token/scope-aware families. Scoping: unordered iteration matters where
  // results are produced (src/, minus bench-style throwaway code);
  // handle-lifetime everywhere under src/ except the manager's own
  // internals (src/bdd/ manipulates raw slots by design — reviewed by the
  // invariant auditor instead).
  const std::vector<FunctionInfo> functions = find_functions(lexed);
  if (in_library && !in_bench) {
    check_unordered_iteration(lexed, report);
  }
  if (in_library && !path_contains(path, "src/bdd/")) {
    check_handle_lifetime(lexed, functions, report);
  }

  return diags;
}

std::string format_diagnostic(const Diagnostic& d, bool fix_hints) {
  std::ostringstream os;
  os << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message;
  if (fix_hints && !d.hint.empty()) {
    os << "\n    hint: " << d.hint;
  }
  return os.str();
}

}  // namespace hyde::lint
