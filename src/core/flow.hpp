/// \file flow.hpp
/// \brief End-to-end technology-mapping flows: HYDE and the knobs that turn
/// it into the published baselines it is compared against.
///
/// The flow turns an arbitrary Boolean network into a k-feasible network
/// (every node ≤ k inputs) by recursive Roth–Karp decomposition:
///
///  - *collapse mode* (small circuits, as in the paper's experimental setup):
///    primary-output global functions are decomposed directly;
///  - *per-node mode* (large circuits): each wide node is decomposed over its
///    fanins; wide nodes sharing identical supports can be grouped into
///    hyper-functions (the paper's partially-collapsed **des** treatment).
///
/// Knobs map to the systems of Tables 1 and 2 (see DESIGN.md §3):
///  - HYDE: hyper-functions + compatible-class encoding + clique-partition DC
///    assignment, PPIs biased to the free set (Section 4.3);
///  - FGSyn-like [4]: hyper-functions with PPIs *always* free (column
///    encoding as the degenerate case), random encoding;
///  - IMODEC-like [5]: per-output decomposition, rigid random encoding,
///    DC merging on (sharing comes from downstream functional dedup);
///  - Sawada-like [8] (no resub): per-output decomposition, random encoding,
///    distinct-column classes (no clique partitioning).

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/decomp_cache.hpp"
#include "core/encoder.hpp"
#include "decomp/search.hpp"
#include "core/hyper.hpp"
#include "net/network.hpp"

namespace hyde::core {

/// How compatible classes (and hyper-function ingredients) are encoded.
enum class EncodingPolicy {
  kRandom,           ///< Step-1 random encoding only
  kCompatibleClass,  ///< the paper's Figure-3 procedure
  kCubeCount,        ///< Murgai et al. [3]: minimize the image's cube count
};

/// How a multi-output group is realized.
enum class GroupChoice {
  kAuto,         ///< decompose both ways, keep the cheaper (Section 4.3)
  kAlwaysHyper,  ///< always take the hyper-function result
  kNeverHyper,   ///< always take the per-output result
};

struct FlowOptions {
  int k = 5;  ///< LUT input count
  EncodingPolicy encoding = EncodingPolicy::kCompatibleClass;
  decomp::DcPolicy dc_policy = decomp::DcPolicy::kCliquePartition;
  /// Weight of the encoder's same-column-set tearing penalty in the Step-6
  /// row benefit (threaded into EncoderOptions::tear_penalty_scale; the
  /// paper subtracts the matched Gc edge weight, i.e. factor 1).
  /// Result-affecting — it steers which rows pair — so non-default values
  /// enter the NPN-cache fingerprint.
  double tear_penalty_scale = 1.0;
  bool use_hyper = true;   ///< group outputs into hyper-functions
  GroupChoice group_choice = GroupChoice::kAuto;
  bool ppi_hard_mu = false;  ///< FGSyn-like: PPIs never enter a bound set
  int max_group_size = 4;  ///< ingredients per hyper-function
  /// PI-count threshold for collapse mode; wider circuits run per-node.
  int max_collapse_support = 16;
  std::uint64_t seed = 1;
  /// Number of flow applications (the paper re-applies its multi-level
  /// script "several times"); each pass feeds the previous pass's network.
  int passes = 1;
  /// Optional NPN decomposition memo shared across flows/threads (see
  /// decomp_cache.hpp for the determinism and thread-safety contracts).
  /// Null keeps the historical uncached behaviour.
  DecompCache* cache = nullptr;
  /// Functions with support in (k, cache_max_support] go through the cache;
  /// capped at tt::kMaxExactNpnVars by the canonicalizer.
  int cache_max_support = 7;

  /// Hard cap on live nodes in the flow's global BDD manager (0 = no limit).
  /// Exceeding it makes the flow throw std::length_error; the windowed
  /// engine (part/windowed.hpp) catches it and splits or passes the window
  /// through. Result-neutral whenever the flow completes, so excluded from
  /// the NPN-cache fingerprint.
  std::size_t bdd_node_limit = 0;

  /// Dynamic variable reordering in the flow's global BDD manager (see
  /// docs/REORDER.md). kSift arms the soft-budget ladder (half the hard
  /// bdd_node_limit when one is set), kAuto adds the growth trigger. Unlike
  /// bdd_node_limit these are **result-affecting**: the variable
  /// order steers one_path_count cube costs and which windows fit a budget,
  /// so both enter the NPN-cache fingerprint.
  bdd::ReorderMode reorder = bdd::ReorderMode::kOff;
  /// kAuto growth trigger: reorder when live nodes exceed this factor of the
  /// watermark left by the last reorder. Must be > 1.
  double reorder_max_growth = 2.0;
};

/// Flow outcome counters (area is the post-sweep logic node count; the
/// mapper refines it with functional dedup / CLB packing). Every field has
/// one row in kFlowFields below, which records its report key, its merge
/// rule and whether it is deterministic.
struct FlowStats {
  int decomposition_steps = 0;
  int shannon_fallbacks = 0;
  int hyper_groups = 0;
  int encoder_runs = 0;
  int encoder_random_kept = 0;  ///< Step-8 chose the random encoding
  bool collapse_mode = false;
  /// NPN-cache consultations by this flow (global hit/miss totals live on
  /// the cache itself, which is shared state).
  int cache_lookups = 0;

  // BDD kernel, summed over every manager the flow created (the global
  // manager plus one per NPN-cache template miss).
  std::uint64_t bdd_cache_hits = 0;
  std::uint64_t bdd_cache_misses = 0;
  std::uint64_t bdd_cache_overwrites = 0;
  std::uint64_t bdd_gc_runs = 0;
  std::uint64_t bdd_reorder_runs = 0;
  std::uint64_t bdd_peak_live_nodes = 0;

  // Bound-set search engine (decomp/search.hpp).
  std::uint64_t search_selects = 0;
  std::uint64_t search_candidates_evaluated = 0;
  std::uint64_t search_candidates_pruned = 0;
  std::uint64_t search_memo_hits = 0;
  std::uint64_t search_memo_clears = 0;
  std::uint64_t search_candidates_tt = 0;  ///< counted on truth tables

  // Class computation (decomp/compatible.hpp): which compatibility test
  // decided a column pair.
  std::uint64_t class_signature_pairs = 0;
  std::uint64_t class_bdd_pairs = 0;

  // Windowed engine (part/windowed.hpp); zero for whole-network flows.
  int windows_extracted = 0;
  int windows_resynthesized = 0;
  int windows_passthrough = 0;
  int windows_budget_fallbacks = 0;  ///< window flows that blew the BDD budget
  int windows_split = 0;             ///< windows halved after a budget blowout
  int windows_verify_failures = 0;   ///< per-window checks that forced pass-through
  int window_peak_inputs = 0;        ///< widest extracted window (boundary signals)
  int window_peak_nodes = 0;         ///< largest extracted window (members)
  double window_extract_seconds = 0.0;
  double window_stitch_seconds = 0.0;
  int windows_extract_parallel = 0;  ///< snapshots materialized on workers
  std::uint64_t window_steals = 0;   ///< tasks stolen across worker deques
  int window_workers = 0;            ///< scheduler workers (0 = serial path)
  double window_worker_busy_seconds = 0.0;       ///< summed worker busy time
  double window_worker_busy_peak_seconds = 0.0;  ///< busiest single worker
  double window_max_seconds = 0.0;  ///< slowest single window, wall clock
  int window_max_index = -1;        ///< extraction index of that window

  // Per-phase wall clock. varpart is the bound-set search engine's
  // self-timed total, classes covers compatible-class computation, encoding
  // is encoder wall time net of the nested bound-set searches it triggers,
  // mapping is filled in by the baseline mapper after the flow proper. pack
  // (XC3000 CLB packing) and verify (the equivalence check) are filled in by
  // the baseline runner and lie outside BaselineResult::seconds.
  double varpart_seconds = 0.0;
  double classes_seconds = 0.0;
  double encoding_seconds = 0.0;
  double mapping_seconds = 0.0;
  double pack_seconds = 0.0;
  double verify_seconds = 0.0;

  /// Folds one manager's counters into the flow totals.
  void absorb_bdd_stats(const bdd::ManagerStats& s) {
    bdd_cache_hits += s.cache_hits;
    bdd_cache_misses += s.cache_misses;
    bdd_cache_overwrites += s.cache_overwrites;
    bdd_gc_runs += static_cast<std::uint64_t>(s.gc_runs);
    bdd_reorder_runs += static_cast<std::uint64_t>(s.reorder_runs);
    if (s.peak_live_nodes > bdd_peak_live_nodes) {
      bdd_peak_live_nodes = s.peak_live_nodes;
    }
  }

  /// Folds one search engine's counters into the flow totals; the engine's
  /// self-timed wall clock is the varpart phase.
  void absorb_search_stats(const decomp::SearchStats& s) {
    search_selects += s.selects;
    search_candidates_evaluated += s.candidates_evaluated;
    search_candidates_pruned += s.candidates_pruned;
    search_memo_hits += s.memo_hits;
    search_memo_clears += s.memo_clears;
    search_candidates_tt += s.candidates_tt;
    varpart_seconds += s.seconds;
  }

  /// Folds another flow's search, classes and profile groups into
  /// this one (NPN-template sub-flows); merge() folds every group.
  void absorb_search_and_phases(const FlowStats& s);
};

/// Report section of a FlowStats field: the per-job JSON object it lives in.
enum class FlowGroup : unsigned {
  kStats,
  kBdd,
  kSearch,
  kClasses,
  kWindows,
  kProfile,
};

/// How merge() folds a field: add, take the larger, or leave the receiving
/// side unchanged (a value assigned once, never folded).
enum class MergeRule { kSum, kMax, kKeep };

/// One FlowStats field. \p deterministic marks a pure function of (input,
/// system, seed, options): only those fields appear in the deterministic
/// report, so they must be identical at every worker count. Every other
/// field is volatile: it moves with cache hit patterns, schedule or wall
/// clock.
template <typename T>
struct FlowField {
  T FlowStats::*member;
  const char* key;  ///< JSON key inside the group's object
  FlowGroup group;
  MergeRule rule;
  bool deterministic = false;
};

/// The FlowStats field table, in report order: groups in FlowGroup order,
/// fields in JSON order within each group.
inline constexpr auto kFlowFields = [] {
  using enum FlowGroup;
  using enum MergeRule;
  using S = FlowStats;
  return std::tuple{
      FlowField{&S::decomposition_steps, "decomposition_steps", kStats, kSum,
                true},
      FlowField{&S::shannon_fallbacks, "shannon_fallbacks", kStats, kSum,
                true},
      FlowField{&S::hyper_groups, "hyper_groups", kStats, kSum, true},
      FlowField{&S::encoder_runs, "encoder_runs", kStats, kSum, true},
      FlowField{&S::encoder_random_kept, "encoder_random_kept", kStats, kSum,
                true},
      FlowField{&S::collapse_mode, "collapse_mode", kStats, kKeep, true},
      FlowField{&S::cache_lookups, "cache_lookups", kStats, kSum, true},
      FlowField{&S::bdd_cache_hits, "cache_hits", kBdd, kSum},
      FlowField{&S::bdd_cache_misses, "cache_misses", kBdd, kSum},
      FlowField{&S::bdd_cache_overwrites, "cache_overwrites", kBdd, kSum},
      FlowField{&S::bdd_gc_runs, "gc_runs", kBdd, kSum},
      FlowField{&S::bdd_reorder_runs, "reorder_runs", kBdd, kSum},
      FlowField{&S::bdd_peak_live_nodes, "peak_live_nodes", kBdd, kMax},
      FlowField{&S::search_selects, "selects", kSearch, kSum},
      FlowField{&S::search_candidates_evaluated, "candidates_evaluated",
                kSearch, kSum},
      FlowField{&S::search_candidates_pruned, "candidates_pruned", kSearch,
                kSum},
      FlowField{&S::search_memo_hits, "memo_hits", kSearch, kSum},
      FlowField{&S::search_memo_clears, "memo_clears", kSearch, kSum},
      FlowField{&S::search_candidates_tt, "candidates_tt", kSearch, kSum},
      FlowField{&S::class_signature_pairs, "signature_pairs", kClasses, kSum},
      FlowField{&S::class_bdd_pairs, "bdd_pairs", kClasses, kSum},
      FlowField{&S::windows_extracted, "extracted", kWindows, kSum},
      FlowField{&S::windows_resynthesized, "resynthesized", kWindows, kSum},
      FlowField{&S::windows_passthrough, "passthrough", kWindows, kSum},
      FlowField{&S::windows_budget_fallbacks, "budget_fallbacks", kWindows,
                kSum},
      FlowField{&S::windows_split, "split", kWindows, kSum},
      FlowField{&S::windows_verify_failures, "verify_failures", kWindows,
                kSum},
      FlowField{&S::window_peak_inputs, "peak_inputs", kWindows, kMax},
      FlowField{&S::window_peak_nodes, "peak_nodes", kWindows, kMax},
      FlowField{&S::window_extract_seconds, "extract_seconds", kWindows,
                kSum},
      FlowField{&S::window_stitch_seconds, "stitch_seconds", kWindows, kSum},
      FlowField{&S::windows_extract_parallel, "extract_parallel", kWindows,
                kSum},
      FlowField{&S::window_steals, "steals", kWindows, kSum},
      FlowField{&S::window_workers, "workers", kWindows, kMax},
      FlowField{&S::window_worker_busy_seconds, "worker_busy_seconds",
                kWindows, kSum},
      FlowField{&S::window_worker_busy_peak_seconds,
                "worker_busy_peak_seconds", kWindows, kMax},
      FlowField{&S::window_max_seconds, "max_window_seconds", kWindows, kMax},
      FlowField{&S::window_max_index, "max_window_index", kWindows, kKeep},
      FlowField{&S::varpart_seconds, "varpart_seconds", kProfile, kSum},
      FlowField{&S::classes_seconds, "classes_seconds", kProfile, kSum},
      FlowField{&S::encoding_seconds, "encoding_seconds", kProfile, kSum},
      FlowField{&S::mapping_seconds, "mapping_seconds", kProfile, kSum},
      FlowField{&S::pack_seconds, "pack_seconds", kProfile, kSum},
      FlowField{&S::verify_seconds, "verify_seconds", kProfile, kSum},
  };
}();

/// Calls \p fn on every kFlowFields row, in table order.
template <typename Fn>
constexpr void for_each_flow_field(Fn&& fn) {
  std::apply([&fn](const auto&... field) { (fn(field), ...); }, kFlowFields);
}

/// Mask bit of \p group for merge().
constexpr unsigned group_bit(FlowGroup group) {
  return 1u << static_cast<unsigned>(group);
}

/// Folds \p from into \p into, each field by its rule, restricted to the
/// groups whose bits are set in \p groups.
inline void merge(FlowStats& into, const FlowStats& from,
                  unsigned groups = ~0u) {
  for_each_flow_field([&into, &from, groups](const auto& field) {
    if ((groups & group_bit(field.group)) == 0) return;
    auto& to = into.*field.member;
    const auto& value = from.*field.member;
    if (field.rule == MergeRule::kSum) {
      to += value;
    } else if (field.rule == MergeRule::kMax) {
      to = std::max(to, value);
    }
  });
}

inline void FlowStats::absorb_search_and_phases(const FlowStats& s) {
  merge(*this, s,
        group_bit(FlowGroup::kSearch) | group_bit(FlowGroup::kClasses) |
            group_bit(FlowGroup::kProfile));
}

struct FlowResult {
  net::Network network;
  FlowStats stats;
};

/// Runs the configured flow over \p input and returns a k-feasible network
/// computing the same primary outputs.
///
/// \p external_dc optionally supplies per-output external don't cares (e.g.
/// from a PLA's `-` outputs or a BLIF `.exdc` section): a network with the
/// same primary-input names whose output named like one of \p input's POs
/// gives that PO's don't-care function. Honoured in collapse mode (the mode
/// used for the circuits small enough to exploit DCs globally); per-node
/// mode ignores it.
FlowResult run_flow(const net::Network& input, const FlowOptions& options,
                    const net::Network* external_dc = nullptr);

/// Convenience preset builders for the published points of comparison.
FlowOptions hyde_options(int k);
FlowOptions fgsyn_like_options(int k);
FlowOptions imodec_like_options(int k);
FlowOptions sawada_like_options(int k);

}  // namespace hyde::core
