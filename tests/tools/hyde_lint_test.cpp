/// Tests for tools/hyde_lint: fixture files with known violations must
/// produce exact diagnostics, allowlisting must suppress them, and the real
/// library tree must lint clean under the committed allowlist.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lexer.hpp"
#include "lint/lint.hpp"
#include "lint/project.hpp"
#include "lint/sarif.hpp"

namespace hyde::lint {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string fixture(const std::string& name) {
  return read_file(fs::path(HYDE_FIXTURE_DIR) / name);
}

/// Sorted (line, rule) pairs for compact assertions.
std::vector<std::pair<int, std::string>> summarize(
    const std::vector<Diagnostic>& diags) {
  std::vector<std::pair<int, std::string>> out;
  out.reserve(diags.size());
  for (const Diagnostic& d : diags) out.emplace_back(d.line, d.rule);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(HydeLintTest, ReportsBannedRngWithExactLines) {
  const auto diags =
      lint_content("src/fake/rng.cpp", fixture("banned_rng.cpp"), {});
  const auto got = summarize(diags);
  const std::vector<std::pair<int, std::string>> want = {
      {7, "determinism"},   // std::rand
      {8, "determinism"},   // srand
      {9, "determinism"},   // time(nullptr)
      {10, "determinism"},  // std::random_device
  };
  EXPECT_EQ(got, want);
}

TEST(HydeLintTest, BenchPathsAreExemptFromDeterminismRule) {
  const auto diags =
      lint_content("bench/fake/rng.cpp", fixture("banned_rng.cpp"), {});
  EXPECT_TRUE(diags.empty());
}

TEST(HydeLintTest, ReportsHotPathAllocationOnlyInsideMarkedRegion) {
  const auto diags =
      lint_content("src/fake/hot.cpp", fixture("hot_alloc.cpp"), {});
  const auto got = summarize(diags);
  const std::vector<std::pair<int, std::string>> want = {
      {7, "hot-path"},  // unordered_map in the marked kernel
      {8, "hot-path"},  // new in the marked kernel
  };
  EXPECT_EQ(got, want);
}

TEST(HydeLintTest, TrailingMarkerOnBraceLineOpensRegionThere) {
  // The opening brace shares a line with the marker: that brace must be
  // counted, so the region spans exactly hot_kernel and ends at its
  // closing brace instead of leaking into cold_helper.
  const auto diags = lint_content("src/fake/hot_trailing.cpp",
                                  fixture("hot_trailing.cpp"), {});
  const auto got = summarize(diags);
  const std::vector<std::pair<int, std::string>> want = {
      {7, "hot-path"},  // new inside the region opened on the marker line
  };
  EXPECT_EQ(got, want);
}

TEST(HydeLintTest, UnboundMarkerIsDiagnosedAndDoesNotLatch) {
  // A marker over a bodiless declaration must be reported as dangling and
  // must not hot-lint the next function that happens to open a brace.
  const auto diags = lint_content("src/fake/hot_unbound.cpp",
                                  fixture("hot_unbound.cpp"), {});
  const auto got = summarize(diags);
  const std::vector<std::pair<int, std::string>> want = {
      {5, "hot-path"},  // the dangling marker itself; later_fn stays clean
  };
  EXPECT_EQ(got, want);
}

TEST(HydeLintTest, ReportsEpochlessReorderScopeWithRawLevelReads) {
  const auto diags = lint_content("src/fake/levels.cpp",
                                  fixture("reorder_scope_bad.cpp"), {});
  const auto got = summarize(diags);
  const std::vector<std::pair<int, std::string>> want = {
      {6, "reorder-epoch"},  // the marker: region never checks the epoch
      {8, "reorder-epoch"},  // level_of read inside the epoch-less region
      {9, "reorder-epoch"},  // var_at read inside the epoch-less region
  };
  EXPECT_EQ(got, want);
}

TEST(HydeLintTest, ReorderScopeThatChecksEpochIsClean) {
  const auto diags = lint_content("src/fake/levels.cpp",
                                  fixture("reorder_scope_good.cpp"), {});
  EXPECT_TRUE(diags.empty());
}

TEST(HydeLintTest, UnboundReorderScopeMarkerIsDiagnosedAndDoesNotLatch) {
  // A marker over a bodiless declaration must be reported as dangling and
  // must not flag the epoch-free function that opens a brace later on.
  const auto diags = lint_content("src/fake/levels.cpp",
                                  fixture("reorder_scope_unbound.cpp"), {});
  const auto got = summarize(diags);
  const std::vector<std::pair<int, std::string>> want = {
      {5, "reorder-epoch"},  // the dangling marker; later_fn stays clean
  };
  EXPECT_EQ(got, want);
}

TEST(HydeLintTest, ReportsIostreamInLibraryCode) {
  const auto diags =
      lint_content("src/fake/print.cpp", fixture("lib_iostream.cpp"), {});
  const auto got = summarize(diags);
  const std::vector<std::pair<int, std::string>> want = {
      {3, "iostream-layering"},  // #include <iostream>
      {6, "iostream-layering"},  // std::cout
  };
  EXPECT_EQ(got, want);
}

TEST(HydeLintTest, IostreamRuleOnlyAppliesUnderSrc) {
  const auto diags = lint_content("examples/fake/print.cpp",
                                  fixture("lib_iostream.cpp"), {});
  EXPECT_TRUE(diags.empty());
}

TEST(HydeLintTest, ReportsIncludeHygieneInHeaders) {
  const auto diags =
      lint_content("src/fake/bad.hpp", fixture("bad_header.hpp"), {});
  const auto got = summarize(diags);
  const std::vector<std::pair<int, std::string>> want = {
      {1, "include-hygiene"},  // missing #pragma once
      {3, "include-hygiene"},  // parent-relative include
      {5, "include-hygiene"},  // using namespace in a header
  };
  EXPECT_EQ(got, want);
}

TEST(HydeLintTest, AllowlistSuppressesMatchingRuleAndPath) {
  Options options;
  options.allow = parse_allowlist(
      "# comment line\n"
      "iostream-layering src/fake/print.cpp\n");
  const auto diags =
      lint_content("src/fake/print.cpp", fixture("lib_iostream.cpp"), options);
  EXPECT_TRUE(diags.empty());
  // The entry is rule-specific: other rules still fire on the same path.
  const auto rng =
      lint_content("src/fake/print.cpp", fixture("banned_rng.cpp"), options);
  EXPECT_EQ(rng.size(), 4u);
}

TEST(HydeLintTest, WildcardAllowlistSuppressesEverything) {
  Options options;
  options.allow = parse_allowlist("* fixtures/\n");
  const auto diags = lint_content("src/fixtures/rng.cpp",
                                  fixture("banned_rng.cpp"), options);
  EXPECT_TRUE(diags.empty());
}

TEST(HydeLintTest, DiagnosticsCarryFixHints) {
  const auto diags =
      lint_content("src/fake/rng.cpp", fixture("banned_rng.cpp"), {});
  ASSERT_FALSE(diags.empty());
  for (const Diagnostic& d : diags) {
    EXPECT_FALSE(d.hint.empty());
    const std::string rendered = format_diagnostic(d, /*fix_hints=*/true);
    EXPECT_NE(rendered.find("hint: "), std::string::npos);
    EXPECT_NE(rendered.find(d.rule), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// handle-lifetime

TEST(HydeLintTest, ReportsHandleLifetimeViolationsWithExactLines) {
  const auto diags = lint_content("src/fake/handles.cpp",
                                  fixture("handle_lifetime_bad.cpp"), {});
  const auto got = summarize(diags);
  const std::vector<std::pair<int, std::string>> want = {
      {5, "handle-lifetime"},   // memo_.find(f.id()): raw id as container key
      {7, "handle-lifetime"},   // memo_[f.id()]: same, operator[]
      {11, "handle-lifetime"},  // .id() off a temporary handle
      {18, "handle-lifetime"},  // raw reused after a GC/reorder-capable call
      {23, "handle-lifetime"},  // handle from manager a into kernel of b
  };
  EXPECT_EQ(got, want);
}

TEST(HydeLintTest, HandleLifetimeEscapesAndHandleKeyedTablesAreClean) {
  const auto diags = lint_content("src/fake/handles.cpp",
                                  fixture("handle_lifetime_good.cpp"), {});
  EXPECT_TRUE(summarize(diags).empty());
}

TEST(HydeLintTest, HandleLifetimeRuleSkipsTheManagerInternals) {
  // src/bdd/ manipulates raw slots by design; the rule must not fire there.
  const auto diags = lint_content("src/bdd/fake.cpp",
                                  fixture("handle_lifetime_bad.cpp"), {});
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// determinism: unordered-container iteration

TEST(HydeLintTest, ReportsUnorderedIterationWithLoopTargetResolution) {
  const auto diags = lint_content("src/fake/iter.cpp",
                                  fixture("unordered_iter_bad.cpp"), {});
  const auto got = summarize(diags);
  const std::vector<std::pair<int, std::string>> want = {
      {8, "determinism"},  // range-for over the unordered_map parameter
  };
  EXPECT_EQ(got, want);
}

TEST(HydeLintTest, UnorderedIterationEscapeAndSortedTargetsAreClean) {
  const auto diags = lint_content("src/fake/iter.cpp",
                                  fixture("unordered_iter_good.cpp"), {});
  EXPECT_TRUE(summarize(diags).empty());
}

TEST(HydeLintTest, UnorderedIterationRuleIsScopedOutOfBench) {
  const auto diags = lint_content("bench/fake/iter.cpp",
                                  fixture("unordered_iter_bad.cpp"), {});
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// lexer edge cases

TEST(HydeLintLexerTest, RawStringContentIsNeverLinted) {
  const std::string content =
      "const char* s = R\"(\n"
      "#include \"../secret.hpp\"\n"
      "std::rand();\n"
      ")\";\n"
      "std::rand();\n";
  const auto got = summarize(lint_content("src/fake/raw.cpp", content, {}));
  const std::vector<std::pair<int, std::string>> want = {
      {5, "determinism"},  // only the rand() outside the raw string
  };
  EXPECT_EQ(got, want);
  EXPECT_TRUE(lex_file(content).includes.empty());
}

TEST(HydeLintLexerTest, RawStringDelimiterGuardsEmbeddedQuoteParen) {
  // The `)"` inside the delimited raw string must not terminate it; the
  // trailing real rand() on the same line must still be seen.
  const std::string content =
      "const char* s = R\"ab(quote )\" inside std::rand())ab\"; "
      "std::rand();\n";
  const auto got = summarize(lint_content("src/fake/raw2.cpp", content, {}));
  const std::vector<std::pair<int, std::string>> want = {{1, "determinism"}};
  EXPECT_EQ(got, want);
}

TEST(HydeLintLexerTest, BackslashContinuationExtendsLineComment) {
  const std::string content =
      "int before = 1;\n"
      "// the next line is still commentary \\\n"
      "std::rand();\n"
      "std::rand();\n";
  const auto got = summarize(lint_content("src/fake/cont.cpp", content, {}));
  const std::vector<std::pair<int, std::string>> want = {{4, "determinism"}};
  EXPECT_EQ(got, want);
}

TEST(HydeLintLexerTest, AdjacentStringLiteralsLexAsTwoStringTokens) {
  const std::string content =
      "const char* s = \"std::rand()\" \" time(nullptr)\";\n";
  EXPECT_TRUE(lint_content("src/fake/concat.cpp", content, {}).empty());
  const LexedFile lexed = lex_file(content);
  int strings = 0;
  for (const Token& t : lexed.tokens) {
    if (t.kind == Token::Kind::kString) ++strings;
  }
  EXPECT_EQ(strings, 2);
}

TEST(HydeLintLexerTest, IfZeroRegionIsDeadUntilElse) {
  const std::string content =
      "#if 0\n"
      "std::rand();\n"
      "#else\n"
      "std::rand();\n"
      "#endif\n";
  const auto got = summarize(lint_content("src/fake/cond.cpp", content, {}));
  const std::vector<std::pair<int, std::string>> want = {{4, "determinism"}};
  EXPECT_EQ(got, want);
}

TEST(HydeLintLexerTest, IfOneMakesTheElseBranchDead) {
  const std::string content =
      "#if 1\n"
      "std::rand();\n"
      "#else\n"
      "std::rand();\n"
      "#endif\n";
  const auto got = summarize(lint_content("src/fake/cond.cpp", content, {}));
  const std::vector<std::pair<int, std::string>> want = {{2, "determinism"}};
  EXPECT_EQ(got, want);
}

TEST(HydeLintLexerTest, UnknownConditionLintsBothBranches) {
  const std::string content =
      "#if HYDE_FAKE_MACRO\n"
      "std::rand();\n"
      "#else\n"
      "std::rand();\n"
      "#endif\n";
  const auto got = summarize(lint_content("src/fake/cond.cpp", content, {}));
  const std::vector<std::pair<int, std::string>> want = {
      {2, "determinism"}, {4, "determinism"}};
  EXPECT_EQ(got, want);
}

TEST(HydeLintLexerTest, DigitSeparatorsAreNotCharLiterals) {
  const std::string content = "long n = 1'000'000;\nstd::rand();\n";
  const auto got = summarize(lint_content("src/fake/sep.cpp", content, {}));
  const std::vector<std::pair<int, std::string>> want = {{2, "determinism"}};
  EXPECT_EQ(got, want);
  const LexedFile lexed = lex_file(content);
  bool found = false;
  for (const Token& t : lexed.tokens) {
    if (t.kind == Token::Kind::kNumber && t.text == "1'000'000") found = true;
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// cross-file pass (project.hpp)

TEST(HydeLintProjectTest, DeadKnobFlagsFieldUnreachableFromCliAndReport) {
  const std::vector<ProjectFile> files = {
      {"src/core/opts.hpp",
       "#pragma once\n"
       "struct FlowOptions {\n"
       "  int live_knob = 1;\n"
       "  int dead_knob = 2;\n"
       "};\n"},
      {"examples/hyde_cli.cpp",
       "int main() { int live_knob = 3; return live_knob; }\n"},
      {"src/runtime/report.cpp", "int report_nothing() { return 0; }\n"},
  };
  const auto diags = lint_project(files, {}, "", false);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/core/opts.hpp");
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_EQ(diags[0].rule, "dead-knob");
}

TEST(HydeLintProjectTest, DeadKnobStaysSilentOnPartialScans) {
  // Without the report layer in the scanned set every knob would look dead;
  // the rule must disarm instead.
  const std::vector<ProjectFile> files = {
      {"src/core/opts.hpp",
       "#pragma once\n"
       "struct FlowOptions {\n"
       "  int dead_knob = 2;\n"
       "};\n"},
      {"examples/hyde_cli.cpp", "int main() { return 0; }\n"},
  };
  EXPECT_TRUE(lint_project(files, {}, "", false).empty());
}

TEST(HydeLintProjectTest, KnobOkAnnotationSuppressesDeadKnob) {
  const std::vector<ProjectFile> files = {
      {"src/core/opts.hpp",
       "#pragma once\n"
       "struct FlowOptions {\n"
       "  // hyde-knob-ok: engine-internal, set from other knobs.\n"
       "  int internal_knob = 2;\n"
       "};\n"},
      {"examples/hyde_cli.cpp", "int main() { return 0; }\n"},
      {"src/runtime/report.cpp", "int report_nothing() { return 0; }\n"},
  };
  EXPECT_TRUE(lint_project(files, {}, "", false).empty());
}

TEST(HydeLintProjectTest, ReportsIncludeCyclesAmongScannedHeaders) {
  const std::vector<ProjectFile> files = {
      {"src/a.hpp", "#pragma once\n#include \"b.hpp\"\n"},
      {"src/b.hpp", "#pragma once\n#include \"a.hpp\"\n"},
  };
  const auto diags = lint_project(files, {}, "", false);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "include-hygiene");
  EXPECT_NE(diags[0].message.find("include cycle"), std::string::npos);
}

TEST(HydeLintProjectTest, PruneHintsReportsStaleAllowlistEntries) {
  Options options;
  options.allow = parse_allowlist(
      "determinism src/real.cpp\n"   // suppresses the rand() below: live
      "determinism src/ghost.cpp\n"  // matches no scanned file
      "hot-path src/real.cpp\n");    // matches the file, suppresses nothing
  const std::vector<ProjectFile> files = {
      {"src/real.cpp", "int f() { return std::rand(); }\n"},
  };
  const auto diags =
      lint_project(files, options, "tools/hyde_lint.allow", true);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "stale-allowlist");
  EXPECT_EQ(diags[0].file, "tools/hyde_lint.allow");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("matches no scanned file"),
            std::string::npos);
  EXPECT_EQ(diags[1].rule, "stale-allowlist");
  EXPECT_EQ(diags[1].line, 3);
  EXPECT_NE(diags[1].message.find("suppresses zero diagnostics"),
            std::string::npos);
}

TEST(HydeLintProjectTest, StaleEntriesStaySilentWithoutPruneHints) {
  Options options;
  options.allow = parse_allowlist("determinism src/ghost.cpp\n");
  const std::vector<ProjectFile> files = {
      {"src/real.cpp", "int f() { return 0; }\n"},
  };
  EXPECT_TRUE(lint_project(files, options, "", false).empty());
}

// ---------------------------------------------------------------------------
// SARIF output

TEST(HydeLintSarifTest, SerializesDiagnosticsWithRuleTableAndLocations) {
  const std::vector<Diagnostic> diags = {
      {"src/fake/a.cpp", 12, "determinism", "banned RNG: rand()",
       "use a seeded engine"},
      {"src/fake/b.cpp", 3, "hot-path", "heap allocation in a hyde-hot region",
       ""},
  };
  const std::string sarif = to_sarif(diags);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"hyde_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"determinism\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"hot-path\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"determinism\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\": 0"), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\": 1"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/fake/a.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
  // The hint rides along in the message text; an empty hint adds nothing.
  EXPECT_NE(sarif.find("(hint: use a seeded engine)"), std::string::npos);
  EXPECT_EQ(sarif.find("(hint: )"), std::string::npos);
}

TEST(HydeLintSarifTest, EmptyRunIsStillACompleteDocument) {
  const std::string sarif = to_sarif({});
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_EQ(sarif.find("\"ruleId\""), std::string::npos);
}

TEST(HydeLintSarifTest, EscapesQuotesAndBackslashesInMessages) {
  const std::vector<Diagnostic> diags = {
      {"src\\weird.cpp", 1, "determinism", "bad \"quote\"\npath", ""},
  };
  const std::string sarif = to_sarif(diags);
  EXPECT_NE(sarif.find("bad \\\"quote\\\"\\npath"), std::string::npos);
  EXPECT_NE(sarif.find("src\\\\weird.cpp"), std::string::npos);
}

TEST(HydeLintTest, RealLibraryTreeIsCleanUnderCommittedAllowlist) {
  const fs::path root = fs::path(HYDE_SOURCE_DIR);
  Options options;
  options.allow =
      parse_allowlist(read_file(root / "tools" / "hyde_lint.allow"));
  std::vector<std::string> offenders;
  for (const auto& entry :
       fs::recursive_directory_iterator(root / "src")) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
    const std::string path = entry.path().generic_string();
    for (const Diagnostic& d :
         lint_content(path, read_file(entry.path()), options)) {
      offenders.push_back(format_diagnostic(d, /*fix_hints=*/false));
    }
  }
  EXPECT_TRUE(offenders.empty()) << [&] {
    std::ostringstream os;
    for (const auto& o : offenders) os << o << "\n";
    return os.str();
  }();
}

}  // namespace
}  // namespace hyde::lint
