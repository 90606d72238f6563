/// hyde_cli's argument handling, driven through real child processes
/// (HYDE_CLI_PATH is injected by CMake): every value-range error, the
/// missing-value / unknown-flag / wrong-run rejections generated from the
/// flag table, --help, output files that cannot be written, one accepted
/// run per mode whose output must not drift, and gzip input to --in.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/gzio.hpp"

#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace fs = std::filesystem;

struct CliRun {
  int status = -1;  ///< exit code; -1 when the child did not exit normally
  std::string out;
  std::string err;
};

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

fs::path temp_dir() {
  static const fs::path dir = [] {
    const fs::path d =
        fs::temp_directory_path() /
        ("hyde_cli_args_" + std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

CliRun run_cli(const std::string& args) {
  const fs::path out = temp_dir() / "stdout.txt";
  const fs::path err = temp_dir() / "stderr.txt";
  const std::string command = std::string(HYDE_CLI_PATH) + " " + args + " > " +
                              out.string() + " 2> " + err.string();
  const int status = std::system(command.c_str());
  CliRun run;
  if (status != -1 && WIFEXITED(status)) run.status = WEXITSTATUS(status);
  run.out = read_text(out);
  run.err = read_text(err);
  return run;
}

std::string data_file(const std::string& name) {
  return std::string(HYDE_TEST_DATA_DIR) + "/" + name;
}

/// Replaces every timing ("0.123s") with "T".
std::string mask_times(const std::string& text) {
  static const std::regex seconds(R"([0-9]+\.[0-9]+s)");
  return std::regex_replace(text, seconds, "T");
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Every flag of the table, a valid value for it, and the runs that read it
/// (s = single circuit, b = --batch, i = --in).
struct FlagCase {
  std::string flag;
  std::string value;
  std::string runs;
};

std::vector<FlagCase> flag_cases() {
  const std::string tmp = temp_dir().string();
  return {
      {"--batch", "", "b"},
      {"--in", data_file("win_mid.blif"), "i"},
      {"-k", "5", "sbi"},
      {"-s", "hyde", "sbi"},
      {"-o", tmp + "/x.blif", "si"},
      {"--pla-out", tmp + "/x.pla", "si"},
      {"--no-verify", "", "sbi"},
      {"--profile", "", "sbi"},
      {"--read-latches", "", "si"},
      {"--reorder", "off", "sbi"},
      {"--reorder-max-growth", "2", "sbi"},
      {"--encoding", "classes", "si"},
      {"--dc-policy", "clique", "si"},
      {"--no-hyper", "", "si"},
      {"--group-choice", "auto", "si"},
      {"--ppi-hard-mu", "", "si"},
      {"--max-group-size", "4", "si"},
      {"--collapse-support", "8", "si"},
      {"--passes", "1", "si"},
      {"--node-limit", "0", "si"},
      {"--tear-penalty", "1", "si"},
      {"--seed", "1", "bi"},
      {"--window-inputs", "12", "i"},
      {"--window-nodes", "64", "i"},
      {"--window-threads", "1", "i"},
      {"--circuits", "rd73", "b"},
      {"--workers", "1", "b"},
      {"--json", tmp + "/x.json", "b"},
      {"--csv", tmp + "/x.csv", "b"},
      {"--deterministic-json", "", "b"},
      {"--no-cache", "", "b"},
      {"--cache-max-support", "7", "b"},
  };
}

TEST(CliArgsTest, ValueErrorsAreStable) {
  const std::string mid = data_file("win_mid.blif");
  const std::pair<std::string, std::string> cases[] = {
      {"@rd73 -k banana", "error: -k expects an integer >= 2, got 'banana'"},
      {"@rd73 -k 1", "error: -k expects an integer >= 2, got '1'"},
      {"@rd73 -k 9", "error: -k 9 is outside the supported range 3..8"},
      {"@rd73 -s foo",
       "error: unknown system 'foo' for -s; expected one of hyde, imodec, "
       "fgsyn, rk, rk-resub, all"},
      {"--batch --workers 0",
       "error: --workers expects an integer in 1..1024, got '0'"},
      {"--batch --seed -1",
       "error: --seed expects a non-negative integer, got '-1'"},
      {"--in " + mid + " --window-inputs 0",
       "error: --window-inputs expects an integer in 1..64, got '0'"},
      {"--in " + mid + " --window-nodes 0",
       "error: --window-nodes expects an integer in 1..100000, got '0'"},
      {"--in " + mid + " --window-threads 0",
       "error: --window-threads expects an integer in 1..256, got '0'"},
      {"@rd73 --encoding foo",
       "error: --encoding expects random, classes or cubes, got 'foo'"},
      {"@rd73 --dc-policy foo",
       "error: --dc-policy expects columns or clique, got 'foo'"},
      {"@rd73 --group-choice foo",
       "error: --group-choice expects auto, always or never, got 'foo'"},
      {"@rd73 --max-group-size 0",
       "error: --max-group-size expects an integer in 1..64, got '0'"},
      {"@rd73 --collapse-support 0",
       "error: --collapse-support expects an integer in 1..64, got '0'"},
      {"@rd73 --passes 0",
       "error: --passes expects an integer in 1..16, got '0'"},
      {"@rd73 --cache-max-support 33",
       "error: --cache-max-support expects an integer in 0..32, got '33'"},
      {"@rd73 --node-limit -1",
       "error: --node-limit expects a non-negative integer (0 = unlimited), "
       "got '-1'"},
      {"@rd73 --tear-penalty -1",
       "error: --tear-penalty expects a number in [0, 1024], got '-1'"},
      {"@rd73 --reorder foo",
       "error: --reorder expects off, sift or auto, got 'foo'"},
      {"@rd73 --reorder-max-growth 1",
       "error: --reorder-max-growth expects a number in (1.0, 64.0], got '1'"},
      {"--in " + mid + " -s all", "error: --in needs a single system for -s"},
      {"--batch --circuits foo", "error: unknown circuit in --circuits: foo"},
      {"--batch --circuits ,", "error: --circuits selected no circuits"},
  };
  for (const auto& [args, message] : cases) {
    const CliRun run = run_cli(args);
    EXPECT_EQ(run.status, 2) << args;
    EXPECT_EQ(run.err, message + "\n") << args;
    EXPECT_EQ(run.out, "") << args;
  }
}

TEST(CliArgsTest, MissingValueAndUnknownFlagPrintUsage) {
  const CliRun missing = run_cli("@rd73 -k");
  EXPECT_EQ(missing.status, 2);
  EXPECT_EQ(missing.err.rfind("error: -k is missing its <n> value\nusage: ", 0),
            0u)
      << missing.err;

  const CliRun unknown = run_cli("@rd73 --bogus");
  EXPECT_EQ(unknown.status, 2);
  EXPECT_EQ(unknown.err.rfind("error: unknown flag '--bogus'\nusage: ", 0), 0u)
      << unknown.err;

  // Flags of deleted features are unknown, not silently accepted.
  const std::pair<std::string, std::string> removed[] = {
      {"--manager-pool", "--manager-pool"},
      {"--cache-dir D", "--cache-dir"},
      {"--cache-readonly", "--cache-readonly"},
      {"--cache-max-bytes 0", "--cache-max-bytes"},
  };
  for (const auto& [args, flag] : removed) {
    const CliRun run = run_cli("@rd73 " + args);
    EXPECT_EQ(run.status, 2) << args;
    EXPECT_EQ(run.err.rfind("error: unknown flag '" + flag + "'\n", 0), 0u)
        << run.err;
  }

  const CliRun nothing = run_cli("");
  EXPECT_EQ(nothing.status, 2);
  EXPECT_EQ(nothing.err.rfind("usage: ", 0), 0u) << nothing.err;
}

TEST(CliArgsTest, FlagsOutsideTheirRunsAreRejected) {
  const std::pair<char, std::string> runs[] = {
      {'s', "@rd73"},
      {'b', "--batch"},
      {'i', "--in " + data_file("win_mid.blif")},
  };
  const auto mode_name = [](char run) -> std::string {
    return run == 's' ? "single-circuit" : run == 'b' ? "--batch" : "--in";
  };
  for (const FlagCase& c : flag_cases()) {
    if (c.flag == "--batch" || c.flag == "--in") continue;  // select a run
    for (const auto& [run, head] : runs) {
      if (c.runs.find(run) != std::string::npos) continue;
      const std::string args = head + " " + c.flag + " " + c.value;
      const CliRun result = run_cli(args);
      EXPECT_EQ(result.status, 2) << args;
      EXPECT_EQ(result.err, "error: " + c.flag + " does not apply to " +
                                mode_name(run) + " runs\n")
          << args;
      EXPECT_EQ(result.out, "") << args;
    }
  }

  // Only --batch attaches an NPN cache.
  const CliRun support = run_cli("@rd73 --cache-max-support 5");
  EXPECT_EQ(support.status, 2);
  EXPECT_EQ(support.err,
            "error: --cache-max-support does not apply to single-circuit "
            "runs\n");

  const std::string mid = data_file("win_mid.blif");
  EXPECT_EQ(run_cli("--batch --in " + mid).err,
            "error: --batch does not apply to --in runs\n");
  EXPECT_EQ(run_cli("--in " + mid + " --batch").err,
            "error: --in does not apply to --batch runs\n");
  EXPECT_EQ(run_cli("--batch @rd73").err,
            "error: the circuit argument '@rd73' does not apply to --batch "
            "runs\n");
  const CliRun two = run_cli("@rd73 @9sym");
  EXPECT_EQ(two.status, 2);
  EXPECT_EQ(two.err,
            "error: more than one circuit argument ('@rd73' and '@9sym'); "
            "give one\n");
  EXPECT_EQ(two.out, "");
}

TEST(CliArgsTest, HelpListsEveryFlagOnceWithItsRuns) {
  const CliRun run = run_cli("--help");
  EXPECT_EQ(run.status, 0);
  EXPECT_EQ(run.err, "");
  std::vector<std::string> lines;
  std::istringstream stream(run.out);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);

  int rows = 0;
  for (const FlagCase& c : flag_cases()) {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::istringstream words(lines[i]);
      std::string first;
      words >> first;
      if (first == c.flag) at.push_back(i);
    }
    ASSERT_EQ(at.size(), 1u) << c.flag;
    ++rows;
    // The run column follows the flag and its <value>, on the same line or,
    // for a long value, on the next.
    std::istringstream words(lines[at[0]]);
    std::string word;
    words >> word;
    if (!c.value.empty()) words >> word;
    std::string column;
    if (!(words >> column)) {
      ASSERT_LT(at[0] + 1, lines.size());
      std::istringstream next(lines[at[0] + 1]);
      next >> column;
    }
    const std::string expected = {
        c.runs.find('s') != std::string::npos ? 's' : '-',
        c.runs.find('b') != std::string::npos ? 'b' : '-',
        c.runs.find('i') != std::string::npos ? 'i' : '-'};
    EXPECT_EQ(column, expected) << c.flag;
  }
  // Every line that starts with a flag is one of the table's.
  int flag_lines = 0;
  for (const std::string& line : lines) {
    if (line.rfind("  -", 0) == 0) ++flag_lines;
  }
  EXPECT_EQ(flag_lines, rows);
  EXPECT_EQ(rows, 32);
}

TEST(CliArgsTest, UnwritableOutputsFailLoudly) {
  const CliRun blif = run_cli("@rd73 -o /nonexistent/dir/x.blif");
  EXPECT_EQ(blif.status, 1);
  EXPECT_EQ(blif.err, "error: cannot write /nonexistent/dir/x.blif\n");
  EXPECT_EQ(blif.out.find("wrote"), std::string::npos);

  // win_mid has 32 PIs, more than a flattened PLA can express.
  const std::string pla = (temp_dir() / "wide.pla").string();
  const CliRun wide =
      run_cli("--in " + data_file("win_mid.blif") + " --pla-out " + pla);
  EXPECT_EQ(wide.status, 1);
  EXPECT_EQ(wide.err, "error: cannot write " + pla +
                          ": write_pla: too many primary inputs\n");
  EXPECT_FALSE(fs::exists(pla));
}

TEST(CliArgsTest, SingleCircuitRunIsUnchanged) {
  const CliRun run = run_cli("@rd73 -s all");
  EXPECT_EQ(run.status, 0) << run.err;
  EXPECT_EQ(mask_times(run.out),
            "loaded rd73: 7 PIs, 3 POs, 3 logic nodes, max fanin 7\n"
            "hyde           8 LUTs      7 CLBs  depth  2  T  verified\n"
            "imodec         8 LUTs      7 CLBs  depth  2  T  verified\n"
            "fgsyn          8 LUTs      7 CLBs  depth  2  T  verified\n"
            "rk             8 LUTs      7 CLBs  depth  2  T  verified\n"
            "rk-resub       8 LUTs      7 CLBs  depth  3  T  verified\n");
}

TEST(CliArgsTest, BatchRunIsUnchanged) {
  // The committed golden report comes from this very command line (see
  // tests/data/README.md); the deterministic JSON omits the worker count.
  const std::string json = (temp_dir() / "batch.json").string();
  const CliRun run =
      run_cli("--batch -s all --circuits rd73,misex1,9sym --workers 1 "
              "--deterministic-json --json " +
              json);
  EXPECT_EQ(run.status, 0) << run.err;
  EXPECT_EQ(read_text(json),
            read_text(data_file("run_report_deterministic.json")));
  EXPECT_EQ(
      mask_times(run.out),
      "batch: 15 jobs (3 circuits x 5 systems), k=5, 1 workers, cache on\n"
      "circuit    system       LUTs   CLBs  depth  verified\n"
      "rd73       HYDE            8      7      2  ok\n"
      "rd73       IMODEC-like      8      7      2  ok\n"
      "rd73       FGSyn-like      8      7      2  ok\n"
      "rd73       RK-noresub      7      6      2  ok\n"
      "rd73       RK-resub        7      6      2  ok\n"
      "misex1     HYDE            8      6      2  ok\n"
      "misex1     IMODEC-like      8      6      2  ok\n"
      "misex1     FGSyn-like      8      6      2  ok\n"
      "misex1     RK-noresub      9      6      2  ok\n"
      "misex1     RK-resub        9      6      3  ok\n"
      "9sym       HYDE            6      6      3  ok\n"
      "9sym       IMODEC-like      7      7      3  ok\n"
      "9sym       FGSyn-like      7      7      3  ok\n"
      "9sym       RK-noresub      7      7      3  ok\n"
      "9sym       RK-resub        7      7      3  ok\n"
      "\n"
      "15 jobs in T wall on 1 workers\n"
      "NPN cache: 41 lookups, 30 unique functions, 11 hits / 30 misses "
      "observed (26.8% hit rate)\n"
      "wrote " +
          json + "\n");
}

TEST(CliArgsTest, WindowedRunIsUnchanged) {
  const std::string blif = (temp_dir() / "win_mid_out.blif").string();
  const CliRun run =
      run_cli("--in " + data_file("win_mid.blif") + " -o " + blif);
  EXPECT_EQ(run.status, 0) << run.err;
  // The slowest window's index depends on timing; every other line is fixed.
  static const std::regex slowest("slowest window: [^\n]*\n");
  EXPECT_EQ(mask_times(std::regex_replace(run.out, slowest, "")),
            "loaded win_mid: 32 PIs, 8 POs, 488 logic nodes, max fanin 9\n"
            "hyde         760 LUTs    605 CLBs  depth 145  T  verified\n"
            "windows: 160 extracted (peak 12 inputs, 13 nodes), 106 "
            "resynthesized, 54 pass-through, 0 budget fallbacks, 0 split, 0 "
            "local verify failures\n"
            "wrote " +
                blif + "\n");
  EXPECT_EQ(fnv1a(read_text(blif)), 0x0422551C94C26FF2ull);
}

/// A small but non-trivial BLIF the gzip tests synthesize both ways.
const char* kBlifText = R"(.model gztest
.inputs a b c d e
.outputs f g
.names a b c x
111 1
100 1
.names c d e y
1-1 1
011 1
.names x y f
11 1
.names a x y g
1-0 1
011 1
.end
)";

void write_gzip(const fs::path& path, const std::string& trailer) {
  const auto archive = hyde::net::gzip_compress(kBlifText);
  std::ofstream out(path.string(), std::ios::binary);
  out.write(reinterpret_cast<const char*>(archive.data()),
            static_cast<std::streamsize>(archive.size()));
  out << trailer;
}

TEST(CrossProcessCacheTest, GzipInputMatchesPlainInput) {
  if (!hyde::net::gzip_available()) {
    GTEST_SKIP() << "built without zlib";
  }
  const fs::path plain = temp_dir() / "circuit.blif";
  const fs::path gz = temp_dir() / "circuit.blif.gz";
  { std::ofstream(plain.string()) << kBlifText; }
  write_gzip(gz, "");

  const fs::path out_plain = temp_dir() / "out_plain.blif";
  const fs::path out_gz = temp_dir() / "out_gz.blif";
  const CliRun run1 =
      run_cli("--in " + plain.string() + " -o " + out_plain.string());
  ASSERT_EQ(run1.status, 0) << run1.err;
  const CliRun run2 = run_cli("--in " + gz.string() + " -o " + out_gz.string());
  ASSERT_EQ(run2.status, 0) << run2.err;
  const std::string a = read_text(out_plain);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, read_text(out_gz));
}

TEST(CrossProcessCacheTest, TrailingGarbageArchiveIsRejectedByName) {
  if (!hyde::net::gzip_available()) {
    GTEST_SKIP() << "built without zlib";
  }
  const fs::path gz = temp_dir() / "bad_circuit.blif.gz";
  write_gzip(gz, "trailing junk");
  const CliRun run = run_cli("--in " + gz.string());
  EXPECT_NE(run.status, 0);
  const std::string text = run.out + run.err;
  // The error must name the file (there is no line number to give).
  EXPECT_NE(text.find(gz.filename().string()), std::string::npos) << text;
  EXPECT_NE(text.find("trailing garbage"), std::string::npos) << text;
}

}  // namespace
