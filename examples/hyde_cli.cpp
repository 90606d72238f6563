/// hyde_cli — command-line front end for the whole flow: one circuit, the
/// built-in MCNC-like suite (--batch) or a large BLIF in windows (--in).
/// Every flag is declared once, in kFlags below, together with the runs that
/// read it; `hyde_cli --help` prints that table.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "baseline/flows.hpp"
#include "core/flow.hpp"
#include "mapper/lutmap.hpp"
#include "mapper/xc3000.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "net/gzio.hpp"
#include "net/pla.hpp"
#include "part/windowed.hpp"
#include "runtime/batch.hpp"

using namespace hyde;

namespace {

const std::vector<std::pair<std::string, baseline::System>>& known_systems() {
  static const std::vector<std::pair<std::string, baseline::System>> k{
      {"hyde", baseline::System::kHyde},
      {"imodec", baseline::System::kImodecLike},
      {"fgsyn", baseline::System::kFgsynLike},
      {"rk", baseline::System::kSawadaLike},
      {"rk-resub", baseline::System::kSawadaResubLike},
  };
  return k;
}

/// The three kinds of run. Each flag lists the ones that read it; giving a
/// flag to any other run is an error rather than a silent no-op.
enum Mode : unsigned { kSingle = 1, kBatch = 2, kWindowed = 4 };
constexpr unsigned kFlowRuns = kSingle | kWindowed;
constexpr unsigned kAllRuns = kSingle | kBatch | kWindowed;

const char* mode_name(Mode mode) {
  return mode == kBatch ? "--batch" : mode == kWindowed ? "--in"
                                                        : "single-circuit";
}

/// Everything the command line sets.
struct Config {
  Mode mode = kSingle;          ///< switched by --batch / --in
  std::string source;           ///< the positional circuit argument
  std::string in_file;          ///< --in
  std::vector<std::string> circuits = mcnc::all_circuits();  ///< --batch suite
  int k = 5;
  std::string system = "hyde";  ///< a known_systems() name or "all"
  std::string out_blif, out_pla, json_path, csv_path;
  bool verify = true;
  bool profile = false;
  bool read_latches = false;
  bool deterministic_json = false;
  bool use_cache = true;
  int workers = runtime::default_worker_count();
  part::WindowOptions window;
  int window_threads = 1;
  /// Flow-level flags in command-line order. They are applied on top of the
  /// -s preset, so a preset keeps its published value for every knob the
  /// user did not turn (`-s hyde --encoding random` is HYDE with Step-1
  /// random encoding only).
  std::vector<std::function<void(core::FlowOptions&)>> knobs;

  core::FlowOptions with_knobs(core::FlowOptions options) const {
    for (const auto& knob : knobs) knob(options);
    return options;
  }
  std::vector<std::pair<std::string, baseline::System>> systems() const {
    std::vector<std::pair<std::string, baseline::System>> selected;
    for (const auto& entry : known_systems()) {
      if (system == "all" || system == entry.first) selected.push_back(entry);
    }
    return selected;
  }
};

/// Strict decimal parse: the whole argument must be a number. Guards against
/// `-k banana` silently becoming k=0 through atoi.
bool parse_long(const std::string& arg, long* out) {
  if (arg.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(arg.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

/// Strict decimal parse for floating-point knobs; same contract as
/// parse_long (the whole argument must be a number).
bool parse_double(const std::string& arg, double* out) {
  if (arg.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(arg.c_str(), &end);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

/// Prints the standard bad-value error and fails.
bool expects(const char* flag, const std::string& what,
             const std::string& arg) {
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", flag, what.c_str(),
               arg.c_str());
  return false;
}

/// An integer in [lo, hi]; \p what overrides the "an integer in lo..hi"
/// wording of the error.
template <typename T>
bool set_int(const char* flag, const std::string& arg, long lo, long hi,
             T* out, const char* what = nullptr) {
  long value = 0;
  if (parse_long(arg, &value) && value >= lo && value <= hi) {
    *out = static_cast<T>(value);
    return true;
  }
  return expects(flag,
                 what != nullptr ? what
                                 : "an integer in " + std::to_string(lo) +
                                       ".." + std::to_string(hi),
                 arg);
}

/// One of the named \p choices; the error lists them as "a, b or c".
template <typename E>
bool set_choice(const char* flag, const std::string& arg,
                std::initializer_list<std::pair<const char*, E>> choices,
                E* out) {
  std::string names;
  std::size_t i = 0;
  for (const auto& [name, value] : choices) {
    if (arg == name) {
      *out = value;
      return true;
    }
    if (i > 0) names += i + 1 == choices.size() ? " or " : ", ";
    names += name;
    ++i;
  }
  return expects(flag, names, arg);
}

/// Records a flag that sets one FlowOptions field (see Config::knobs).
template <typename T>
bool knob(Config& c, T core::FlowOptions::*field,
          std::type_identity_t<T> value) {
  c.knobs.push_back([field, value](core::FlowOptions& o) { o.*field = value; });
  return true;
}

// Setters shared by many flags: a switch storing a constant, a string
// argument, and an integer range either stored in Config or recorded as a
// FlowOptions knob.
template <auto Field, auto Value>
bool set_to(Config& c, const char*, const std::string&) {
  c.*Field = Value;
  return true;
}
template <auto Field>
bool set_arg(Config& c, const char*, const std::string& arg) {
  c.*Field = arg;
  return true;
}
template <auto Field, long Lo, long Hi>
bool set_range(Config& c, const char* flag, const std::string& arg) {
  return set_int(flag, arg, Lo, Hi, &(c.*Field));
}
template <auto Field, auto Value>
bool knob_to(Config& c, const char*, const std::string&) {
  return knob(c, Field, Value);
}
template <auto Field, long Lo, long Hi>
bool knob_range(Config& c, const char* flag, const std::string& arg) {
  std::remove_reference_t<decltype(core::FlowOptions{}.*Field)> value{};
  return set_int(flag, arg, Lo, Hi, &value) && knob(c, Field, value);
}

/// One command-line flag: its name, the value it takes ("" for a switch),
/// the runs that read it, one help line, and the setter that parses,
/// range-checks and stores the value (printing an `error:` line and
/// returning false on a bad one).
struct Flag {
  const char* name;
  const char* value;
  unsigned modes;
  const char* help;
  bool (*set)(Config& c, const char* flag, const std::string& arg);
};

const Flag kFlags[] = {
    {"--batch", "", kBatch, "sweep the built-in suite x the -s systems",
     set_to<&Config::mode, kBatch>},
    {"--in", "file.blif", kWindowed, "run the windowed flow on a BLIF (.gz ok)",
     [](Config& c, const char*, const std::string& arg) {
       c.mode = kWindowed;
       c.in_file = arg;
       return true;
     }},
    {"-k", "n", kAllRuns, "LUT input count, 3..8 (default 5)",
     [](Config& c, const char* flag, const std::string& arg) {
       long value = 0;
       if (!parse_long(arg, &value) || value < 2) {
         return expects(flag, "an integer >= 2", arg);
       }
       if (value < 3 || value > 8) {
         std::fprintf(stderr,
                      "error: -k %ld is outside the supported range 3..8\n",
                      value);
         return false;
       }
       c.k = static_cast<int>(value);
       return true;
     }},
    {"-s", "hyde|imodec|fgsyn|rk|rk-resub|all", kAllRuns,
     "system preset, or all (default hyde)",
     [](Config& c, const char*, const std::string& arg) {
       c.system = arg;
       if (arg == "all" || !c.systems().empty()) return true;
       std::fprintf(stderr,
                    "error: unknown system '%s' for -s; expected one of "
                    "hyde, imodec, fgsyn, rk, rk-resub, all\n",
                    arg.c_str());
       return false;
     }},
    {"-o", "file", kFlowRuns, "write the mapped network as BLIF",
     set_arg<&Config::out_blif>},
    {"--pla-out", "file", kFlowRuns,
     "write the mapped network as a flattened PLA", set_arg<&Config::out_pla>},
    {"--no-verify", "", kAllRuns, "skip the random-vector equivalence check",
     set_to<&Config::verify, false>},
    {"--profile", "", kAllRuns, "print per-phase times and search counters",
     set_to<&Config::profile, true>},
    {"--read-latches", "", kFlowRuns,
     "read a sequential BLIF's combinational core",
     set_to<&Config::read_latches, true>},
    {"--reorder", "off|sift|auto", kAllRuns,
     "dynamic BDD reordering (docs/REORDER.md)",
     [](Config& c, const char* flag, const std::string& arg) {
       bdd::ReorderMode mode = bdd::ReorderMode::kOff;
       return set_choice(flag, arg,
                         {{"off", bdd::ReorderMode::kOff},
                          {"sift", bdd::ReorderMode::kSift},
                          {"auto", bdd::ReorderMode::kAuto}},
                         &mode) &&
              knob(c, &core::FlowOptions::reorder, mode);
     }},
    {"--reorder-max-growth", "x", kAllRuns,
     "auto-reorder growth trigger (default 2.0)",
     [](Config& c, const char* flag, const std::string& arg) {
       double value = 0.0;
       if (!parse_double(arg, &value) || !(value > 1.0) || !(value <= 64.0)) {
         return expects(flag, "a number in (1.0, 64.0]", arg);
       }
       return knob(c, &core::FlowOptions::reorder_max_growth, value);
     }},
    {"--encoding", "random|classes|cubes", kFlowRuns,
     "class encoding (random = Step 1 only)",
     [](Config& c, const char* flag, const std::string& arg) {
       core::EncodingPolicy policy = core::EncodingPolicy::kCompatibleClass;
       return set_choice(flag, arg,
                         {{"random", core::EncodingPolicy::kRandom},
                          {"classes", core::EncodingPolicy::kCompatibleClass},
                          {"cubes", core::EncodingPolicy::kCubeCount}},
                         &policy) &&
              knob(c, &core::FlowOptions::encoding, policy);
     }},
    {"--dc-policy", "columns|clique", kFlowRuns,
     "DC assignment (clique = the paper's)",
     [](Config& c, const char* flag, const std::string& arg) {
       decomp::DcPolicy policy = decomp::DcPolicy::kCliquePartition;
       return set_choice(flag, arg,
                         {{"columns", decomp::DcPolicy::kDistinctColumns},
                          {"clique", decomp::DcPolicy::kCliquePartition}},
                         &policy) &&
              knob(c, &core::FlowOptions::dc_policy, policy);
     }},
    {"--no-hyper", "", kFlowRuns, "never group outputs into hyper-functions",
     knob_to<&core::FlowOptions::use_hyper, false>},
    {"--group-choice", "auto|always|never", kFlowRuns,
     "how a multi-output group is realized",
     [](Config& c, const char* flag, const std::string& arg) {
       core::GroupChoice choice = core::GroupChoice::kAuto;
       return set_choice(flag, arg,
                         {{"auto", core::GroupChoice::kAuto},
                          {"always", core::GroupChoice::kAlwaysHyper},
                          {"never", core::GroupChoice::kNeverHyper}},
                         &choice) &&
              knob(c, &core::FlowOptions::group_choice, choice);
     }},
    {"--ppi-hard-mu", "", kFlowRuns, "FGSyn-like: PPIs never enter a bound set",
     knob_to<&core::FlowOptions::ppi_hard_mu, true>},
    {"--max-group-size", "n", kFlowRuns,
     "ingredients per hyper-function (default 4)",
     knob_range<&core::FlowOptions::max_group_size, 1, 64>},
    {"--collapse-support", "n", kFlowRuns,
     "PI-count threshold for collapse mode",
     knob_range<&core::FlowOptions::max_collapse_support, 1, 64>},
    {"--passes", "n", kFlowRuns, "flow re-applications (default 1)",
     knob_range<&core::FlowOptions::passes, 1, 16>},
    {"--node-limit", "n", kFlowRuns, "live-BDD-node hard cap (0 = unlimited)",
     [](Config& c, const char* flag, const std::string& arg) {
       std::size_t value = 0;
       return set_int(flag, arg, 0, LONG_MAX, &value,
                      "a non-negative integer (0 = unlimited)") &&
              knob(c, &core::FlowOptions::bdd_node_limit, value);
     }},
    {"--tear-penalty", "x", kFlowRuns,
     "encoder tearing-penalty weight (default 1.0)",
     [](Config& c, const char* flag, const std::string& arg) {
       double value = 0.0;
       if (!parse_double(arg, &value) || !(value >= 0.0) ||
           !(value <= 1024.0)) {
         return expects(flag, "a number in [0, 1024]", arg);
       }
       return knob(c, &core::FlowOptions::tear_penalty_scale, value);
     }},
    {"--seed", "n", kBatch | kWindowed, "base seed (default 1)",
     [](Config& c, const char* flag, const std::string& arg) {
       std::uint64_t value = 0;
       return set_int(flag, arg, 0, LONG_MAX, &value,
                      "a non-negative integer") &&
              knob(c, &core::FlowOptions::seed, value);
     }},
    {"--window-inputs", "n", kWindowed, "window input budget (default 12)",
     [](Config& c, const char* flag, const std::string& arg) {
       return set_int(flag, arg, 1, 64, &c.window.max_inputs);
     }},
    {"--window-nodes", "n", kWindowed, "window node budget (default 64)",
     [](Config& c, const char* flag, const std::string& arg) {
       return set_int(flag, arg, 1, 100000, &c.window.max_nodes);
     }},
    {"--window-threads", "n", kWindowed, "concurrent windows (default 1)",
     set_range<&Config::window_threads, 1, 256>},
    {"--circuits", "a,b,c", kBatch, "restrict the suite, in the given order",
     [](Config& c, const char*, const std::string& arg) {
       const std::vector<std::string> known = mcnc::all_circuits();
       c.circuits.clear();
       std::stringstream stream(arg);
       std::string name;
       while (std::getline(stream, name, ',')) {
         if (name.empty()) continue;
         if (std::find(known.begin(), known.end(), name) == known.end()) {
           std::fprintf(stderr, "error: unknown circuit in --circuits: %s\n",
                        name.c_str());
           return false;
         }
         c.circuits.push_back(name);
       }
       if (c.circuits.empty()) {
         std::fprintf(stderr, "error: --circuits selected no circuits\n");
         return false;
       }
       return true;
     }},
    {"--workers", "n", kBatch, "thread-pool size (default: all CPUs)",
     set_range<&Config::workers, 1, 1024>},
    {"--json", "file", kBatch, "write the full RunReport as JSON",
     set_arg<&Config::json_path>},
    {"--csv", "file", kBatch, "write per-job rows as CSV",
     set_arg<&Config::csv_path>},
    {"--deterministic-json", "", kBatch,
     "keep timings and worker counts out of JSON",
     set_to<&Config::deterministic_json, true>},
    {"--no-cache", "", kBatch, "disable the shared NPN decomposition cache",
     set_to<&Config::use_cache, false>},
    {"--cache-max-support", "n", kBatch,
     "NPN-cache support ceiling (default 7)",
     knob_range<&core::FlowOptions::cache_max_support, 0, 32>},
};

const char* const kCircuitArg = "<circuit.blif|circuit.pla|@benchmark>";

std::string flag_text(const Flag& flag) {
  std::string text = flag.name;
  if (*flag.value != '\0') text += std::string(" <") + flag.value + ">";
  return text;
}

/// The synopsis of every run with the flags it reads, wrapped at 80 columns.
/// A run's selector flag (--batch, --in) leads its line unbracketed.
int usage() {
  for (const Mode mode : {kSingle, kBatch, kWindowed}) {
    std::string line = mode == kSingle ? "usage: hyde_cli" : "       hyde_cli";
    std::vector<std::string> words;
    for (const Flag& flag : kFlags) {
      if ((flag.modes & mode) == 0) continue;
      if (std::strcmp(flag.name, mode_name(mode)) == 0) {
        words.insert(words.begin(), flag_text(flag));
      } else {
        words.push_back("[" + flag_text(flag) + "]");
      }
    }
    if (mode == kSingle) words.push_back(kCircuitArg);
    for (const std::string& word : words) {
      if (line.size() + 1 + word.size() > 79) {
        std::fprintf(stderr, "%s\n", line.c_str());
        line = "           ";
      }
      line += " " + word;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  std::fprintf(stderr, "run 'hyde_cli --help' for what each flag does\n");
  return 2;
}

/// --help: one line per flag with the runs that read it.
int help() {
  std::printf(
      "usage: hyde_cli [flags] %s\n"
      "       hyde_cli --batch [flags]\n"
      "       hyde_cli --in <file.blif> [flags]\n\n"
      "A circuit is a BLIF or PLA file (PLA `-` outputs are don't cares) or\n"
      "@name from the built-in suite. The column after each flag names the\n"
      "runs that read it (s = single circuit, b = batch, i = windowed); the\n"
      "other runs reject it.\n\n",
      kCircuitArg);
  for (const Flag& flag : kFlags) {
    std::string text = flag_text(flag);
    const std::string modes = {(flag.modes & kSingle) != 0 ? 's' : '-',
                               (flag.modes & kBatch) != 0 ? 'b' : '-',
                               (flag.modes & kWindowed) != 0 ? 'i' : '-'};
    if (text.size() > 26) {  // a long value gets a line of its own
      std::printf("  %s\n", text.c_str());
      text.clear();
    }
    std::printf("  %-26s %s  %s\n", text.c_str(), modes.c_str(), flag.help);
  }
  return 0;
}

/// Loads a circuit argument — `@name` from the built-in suite, a PLA file
/// or a BLIF file, `.gz` archives inflated (net/gzio.hpp) — and prints the
/// "loaded" line. A read error, gzip ones included, prints an error naming
/// the file and yields nothing.
std::optional<net::BlifModel> load_circuit(const std::string& source,
                                           bool read_latches) {
  net::BlifModel model;
  try {
    if (source.starts_with("@")) {
      model.network = mcnc::make_circuit(source.substr(1));
    } else if (source.ends_with(".pla")) {
      std::ifstream in(source);
      if (!in) throw std::runtime_error("cannot open " + source);
      net::PlaModel pla = net::read_pla(in, source);
      model.network = std::move(pla.onset);
      model.dont_care = std::move(pla.dont_care);
      model.has_dont_cares = pla.has_dont_cares;
    } else {
      net::BlifReadOptions options;
      options.latch_combinational = read_latches;
      if (net::is_gzip_name(source)) {
        std::istringstream in(net::gunzip_file(source));
        model = net::read_blif_model(in, options);
      } else {
        std::ifstream in(source);
        if (!in) throw std::runtime_error("cannot open " + source);
        model = net::read_blif_model(in, options);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error loading %s: %s\n", source.c_str(), e.what());
    return std::nullopt;
  }
  std::printf("loaded %s", model.network.stats().c_str());
  if (model.latches > 0) {
    std::printf(" (combinational core of %d latches)", model.latches);
  }
  std::printf("%s\n", model.has_dont_cares ? " (+ external don't cares)" : "");
  return model;
}

/// Writes \p render's text to \p path (nothing when the path is empty). A
/// file that cannot be written, or a network the format cannot express,
/// prints an error naming the path and fails.
bool write_output(const std::string& path,
                  const std::function<std::string()>& render) {
  if (path.empty()) return true;
  std::string text;
  try {
    text = render();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", path.c_str(),
                 e.what());
    return false;
  }
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// The -o and --pla-out files of a single-circuit or --in run.
bool write_network(const Config& c, const net::Network& network) {
  return write_output(c.out_blif,
                      [&] { return net::write_blif_string(network); }) &&
         write_output(c.out_pla,
                      [&] { return net::write_pla_string(network); });
}

/// The result line of a single-circuit or --in run.
void print_result(const Config& c, const std::string& name,
                  const baseline::BaselineResult& result) {
  std::printf("%-10s %5d LUTs", name.c_str(), result.luts);
  if (c.k == 5) std::printf("  %5d CLBs", result.clbs);
  std::printf("  depth %2d  %.3fs  %s\n", result.depth, result.seconds,
              !c.verify         ? "unverified"
              : result.verified ? "verified"
                                : "VERIFY FAILED");
}

void print_profile(const core::FlowStats& stats, const char* indent) {
  std::printf(
      "%svarpart %.3fs (selects %llu, evaluated %llu, pruned %llu, "
      "memo hits %llu, truth-table %llu) | classes %.3fs | encoding %.3fs | "
      "mapping %.3fs | pack %.3fs | verify %.3fs\n",
      indent, stats.varpart_seconds,
      static_cast<unsigned long long>(stats.search_selects),
      static_cast<unsigned long long>(stats.search_candidates_evaluated),
      static_cast<unsigned long long>(stats.search_candidates_pruned),
      static_cast<unsigned long long>(stats.search_memo_hits),
      static_cast<unsigned long long>(stats.search_candidates_tt),
      stats.classes_seconds, stats.encoding_seconds, stats.mapping_seconds,
      stats.pack_seconds, stats.verify_seconds);
}

int run_batch_mode(const Config& c) {
  std::vector<baseline::System> systems;
  for (const auto& entry : c.systems()) systems.push_back(entry.second);
  // Batch runs the presets as published; the flow-level flags it accepts
  // land on BatchOptions and the job seeds.
  const core::FlowOptions knobs = c.with_knobs({});
  const auto jobs = runtime::suite_jobs(c.circuits, systems, c.k, knobs.seed);
  runtime::BatchOptions options;
  options.workers = c.workers;
  options.verify_vectors = c.verify ? 128 : 0;
  options.use_cache = c.use_cache;
  options.cache_max_support = knobs.cache_max_support;
  options.reorder = knobs.reorder;
  options.reorder_max_growth = knobs.reorder_max_growth;

  std::printf("batch: %zu jobs (%zu circuits x %zu systems), k=%d, "
              "%d workers, cache %s\n",
              jobs.size(), c.circuits.size(), systems.size(), c.k,
              options.workers, c.use_cache ? "on" : "off");
  const runtime::RunReport report = runtime::run_batch(jobs, options);

  std::printf("%-10s %-10s %6s %6s %6s  %s\n", "circuit", "system", "LUTs",
              "CLBs", "depth", c.verify ? "verified" : "unverified");
  for (const auto& job : report.jobs) {
    if (!job.error.empty()) {
      std::printf("%-10s %-10s  ERROR: %s\n", job.circuit.c_str(),
                  job.system.c_str(), job.error.c_str());
      continue;
    }
    std::printf("%-10s %-10s %6d %6d %6d  %s\n", job.circuit.c_str(),
                job.system.c_str(), job.luts, job.clbs, job.depth,
                !c.verify         ? "-"
                : job.verified    ? "ok"
                                  : "FAILED");
    if (c.profile) print_profile(job.stats, "             ");
  }
  if (c.profile) {
    std::printf("\nsearch engine: %llu selects, %llu candidates evaluated "
                "(%llu on truth tables), %llu pruned, %llu memo hits, "
                "%llu memo clears\n",
                static_cast<unsigned long long>(report.totals.search_selects),
                static_cast<unsigned long long>(
                    report.totals.search_candidates_evaluated),
                static_cast<unsigned long long>(
                    report.totals.search_candidates_tt),
                static_cast<unsigned long long>(
                    report.totals.search_candidates_pruned),
                static_cast<unsigned long long>(report.totals.search_memo_hits),
                static_cast<unsigned long long>(
                    report.totals.search_memo_clears));
  }
  std::printf("\n%zu jobs in %.2fs wall on %d workers\n", report.jobs.size(),
              report.wall_seconds, report.workers);
  std::printf("NPN cache: %llu lookups, %llu unique functions, "
              "%llu hits / %llu misses observed (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(report.totals.cache_lookups),
              static_cast<unsigned long long>(report.cache.unique_functions),
              static_cast<unsigned long long>(report.cache.hits),
              static_cast<unsigned long long>(report.cache.misses),
              100.0 * report.cache.hit_rate());

  const bool written =
      write_output(c.json_path,
                   [&] {
                     return runtime::to_json(report, !c.deterministic_json);
                   }) &&
      write_output(c.csv_path, [&] { return runtime::to_csv(report); });
  return written && report.all_ok() ? 0 : 1;
}

int run_windowed_mode(const Config& c) {
  if (c.system == "all") {
    std::fprintf(stderr, "error: --in needs a single system for -s\n");
    return 2;
  }
  const auto [system_name, system] = c.systems().front();
  const std::optional<net::BlifModel> circuit =
      load_circuit(c.in_file, c.read_latches);
  if (!circuit) return 1;

  part::WindowedFlowOptions options;
  options.flow = c.with_knobs(baseline::system_flow_options(system, c.k));
  options.window = c.window;
  options.threads = c.window_threads;
  const baseline::BaselineResult result =
      baseline::run_windowed_system(circuit->network, options,
                                    c.verify ? 256 : 0);
  const core::FlowStats& stats = result.stats;
  print_result(c, system_name, result);
  std::printf("windows: %d extracted (peak %d inputs, %d nodes), "
              "%d resynthesized, %d pass-through, %d budget fallbacks, "
              "%d split, %d local verify failures\n",
              stats.windows_extracted, stats.window_peak_inputs,
              stats.window_peak_nodes, stats.windows_resynthesized,
              stats.windows_passthrough, stats.windows_budget_fallbacks,
              stats.windows_split, stats.windows_verify_failures);
  if (stats.window_workers > 0) {
    std::printf("scheduling: %d workers, %d snapshots materialized on "
                "workers, %llu steals, busy %.3fs total / %.3fs peak\n",
                stats.window_workers, stats.windows_extract_parallel,
                static_cast<unsigned long long>(stats.window_steals),
                stats.window_worker_busy_seconds,
                stats.window_worker_busy_peak_seconds);
  }
  if (stats.window_max_index >= 0) {
    std::printf("slowest window: #%d at %.3fs\n", stats.window_max_index,
                stats.window_max_seconds);
  }
  if (c.profile) {
    print_profile(stats, "  ");
    std::printf("  extract %.3fs | stitch %.3fs\n",
                stats.window_extract_seconds, stats.window_stitch_seconds);
  }
  if (!write_network(c, result.network)) return 1;
  return (c.verify && !result.verified) ? 1 : 0;
}

int run_single_mode(const Config& c) {
  const std::optional<net::BlifModel> circuit =
      load_circuit(c.source, c.read_latches);
  if (!circuit) return 1;
  const net::Network& input = circuit->network;

  net::Network best_network("none");
  int best_luts = -1;
  for (const auto& [name, system] : c.systems()) {
    core::FlowOptions flow_options =
        c.with_knobs(baseline::system_flow_options(system, c.k));
    // For DC-aware runs use the core flow directly (baseline::run_system
    // does not thread external don't cares).
    if (circuit->has_dont_cares && system == baseline::System::kHyde) {
      auto flow = core::run_flow(input, flow_options, &circuit->dont_care);
      mapper::dedup_shared_nodes(flow.network);
      mapper::collapse_into_fanouts(flow.network, c.k);
      const int luts = mapper::lut_count(flow.network);
      std::printf("%-10s %5d LUTs  depth %2d  (with external DCs; "
                  "equivalence holds on the care set only)\n",
                  name.c_str(), luts, mapper::network_depth(flow.network));
      if (best_luts < 0 || luts < best_luts) {
        best_luts = luts;
        best_network = std::move(flow.network);
      }
      continue;
    }
    auto result =
        baseline::run_system(input, system, flow_options, c.verify ? 256 : 0);
    print_result(c, name, result);
    if (c.profile) print_profile(result.stats, "  ");
    if (c.verify && !result.verified) return 1;
    if (best_luts < 0 || result.luts < best_luts) {
      best_luts = result.luts;
      best_network = std::move(result.network);
    }
  }
  return write_network(c, best_network) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config c;
  std::vector<const Flag*> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") return help();
    if (arg.empty() || arg[0] != '-') {
      if (!c.source.empty()) {
        std::fprintf(stderr,
                     "error: more than one circuit argument ('%s' and "
                     "'%s'); give one\n",
                     c.source.c_str(), arg.c_str());
        return 2;
      }
      c.source = arg;
      continue;
    }
    const auto flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const Flag& f) { return arg == f.name; });
    if (flag == std::end(kFlags)) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return usage();
    }
    std::string value;
    if (*flag->value != '\0') {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s is missing its <%s> value\n",
                     flag->name, flag->value);
        return usage();
      }
      value = argv[++i];
    }
    if (!flag->set(c, flag->name, value)) return 2;
    given.push_back(&*flag);
  }

  for (const Flag* flag : given) {
    if ((flag->modes & c.mode) == 0) {
      std::fprintf(stderr, "error: %s does not apply to %s runs\n", flag->name,
                   mode_name(c.mode));
      return 2;
    }
  }
  if (!c.source.empty() && c.mode != kSingle) {
    std::fprintf(stderr,
                 "error: the circuit argument '%s' does not apply to %s "
                 "runs\n",
                 c.source.c_str(), mode_name(c.mode));
    return 2;
  }

  if (c.mode == kBatch) return run_batch_mode(c);
  if (c.mode == kWindowed) return run_windowed_mode(c);
  return c.source.empty() ? usage() : run_single_mode(c);
}
