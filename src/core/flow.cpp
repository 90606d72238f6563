#include "core/flow.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "tt/npn.hpp"

namespace hyde::core {

namespace {

using decomp::IsfBdd;

int bits_for(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Digest of every FlowOptions knob that shapes a cached template
/// decomposition. Part of the cache key: runs with different policies never
/// share entries (job seeds deliberately excluded — templates derive their
/// seed from the canonical function, see compute_template).
std::uint64_t cache_fingerprint(const FlowOptions& options) {
  std::uint64_t h = 0x243F6A8885A308D3ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(options.k));
  mix(static_cast<std::uint64_t>(options.encoding));
  mix(static_cast<std::uint64_t>(options.dc_policy));
  mix(options.ppi_hard_mu ? 1 : 0);
  // The reorder mode is result-affecting (the variable order steers
  // cube-min costs and budget outcomes), so templates computed under
  // different reorder policies must not be shared. The constant is the bit
  // pattern of 2.0, the manager's auto-reorder growth factor; template seeds
  // derive from this key, so changing it changes --reorder results.
  if (options.reorder != bdd::ReorderMode::kOff) {
    mix(static_cast<std::uint64_t>(options.reorder));
    mix(0x4000000000000000ull);
  }
  return h;
}

/// Recursive Roth–Karp decomposer writing k-feasible nodes into a network.
class Decomposer {
 public:
  /// \p cache_ceiling caps the support size consulted in the NPN cache; the
  /// default derives it from the options. Template sub-decomposers pass their
  /// own function's arity minus one so the top-level call cannot look itself
  /// up while it is being computed.
  Decomposer(bdd::Manager& gm, net::Network& out, const FlowOptions& options,
             FlowStats& stats, int cache_ceiling = -1)
      : gm_(gm),
        out_(out),
        options_(options),
        stats_(stats),
        cache_ceiling_(cache_ceiling >= 0
                           ? cache_ceiling
                           : std::min(options.cache_max_support,
                                      tt::kMaxExactNpnVars)),
        search_(gm) {}

  /// The flow-lifetime bound-set search engine, shared by every
  /// decomposition step and encoder trial over gm_. The engine's counters
  /// are folded into FlowStats at the end of the flow (and its self-timed
  /// seconds become the varpart phase).
  decomp::BoundSetSearch& search() { return search_; }

  /// Counter sink for every class computation this decomposer runs.
  decomp::ClassStats& class_stats() { return class_stats_; }

  /// Declares that manager variable \p var is computed by network node.
  void map_var(int var, net::NodeId node) { var_node_[var] = node; }

  void set_ppi_vars(std::vector<int> ppis) { ppi_vars_ = std::move(ppis); }

  int alloc_var() {
    const int v = next_var_ >= gm_.num_vars() ? next_var_ : gm_.num_vars();
    next_var_ = v + 1;
    gm_.ensure_vars(next_var_);
    return v;
  }
  void reserve_vars(int count) {
    next_var_ = std::max(next_var_, count);
    gm_.ensure_vars(next_var_);
  }

  /// Decomposes f into k-feasible nodes; returns the root node.
  net::NodeId decompose(IsfBdd f, std::vector<int> preferred = {}) {
    const auto support_start = std::chrono::steady_clock::now();
    decomp::ReducedIsf reduced = decomp::reduce_support(gm_, std::move(f));
    stats_.support_seconds += seconds_since(support_start);
    f = std::move(reduced.f);
    const std::vector<int>& support = reduced.support;
    stats_.max_support =
        std::max(stats_.max_support, static_cast<int>(support.size()));
    if (static_cast<int>(support.size()) <= options_.k) {
      return leaf(f, support);
    }

    if (options_.cache != nullptr &&
        static_cast<int>(support.size()) <= cache_ceiling_) {
      const net::NodeId cached = from_cache(f, support);
      if (cached != net::kNoNode) return cached;
    }

    // Bound-set selection: honour a caller hint (the encoder's λ'), else
    // search for the largest non-trivial greedy set of at most k variables;
    // hard-μ mode keeps PPIs out of the candidates.
    decomp::VarPartitionResult vp;
    preferred = filter_to(preferred, support);
    if (static_cast<int>(preferred.size()) >= 2 &&
        static_cast<int>(preferred.size()) <= options_.k &&
        preferred.size() < support.size()) {
      const auto classes_start = std::chrono::steady_clock::now();
      decomp::VarPartitionResult hinted = search_.evaluate(
          f, support, preferred, options_.dc_policy, &class_stats_);
      stats_.classes_seconds += seconds_since(classes_start);
      if (bits_for(hinted.num_classes) < static_cast<int>(preferred.size())) {
        vp = std::move(hinted);
      }
    }
    if (!vp.success) {
      std::vector<int> candidates = support;
      if (options_.ppi_hard_mu) {
        std::vector<int> filtered;
        for (int v : support) {
          if (!is_ppi(v)) filtered.push_back(v);
        }
        if (static_cast<int>(filtered.size()) > 2) candidates = filtered;
      }
      // One greedy growth to the largest size; the search itself walks its
      // prefixes down to 2 until one gives a non-trivial partition.
      const int size =
          std::min(options_.k, static_cast<int>(candidates.size()) - 1);
      if (size >= 2) {
        decomp::VarPartitionOptions vp_options;
        vp_options.bound_size = size;
        vp_options.dc_policy = options_.dc_policy;
        vp_options.require_nontrivial = true;
        if (!options_.ppi_hard_mu) vp_options.avoid = ppi_vars_;
        vp = search_.select(f, candidates, vp_options);
      }
      if (vp.success && candidates.size() != support.size()) {
        // Re-derive the free set over the full support.
        vp.free.clear();
        for (int v : support) {
          if (std::find(vp.bound.begin(), vp.bound.end(), v) == vp.bound.end()) {
            vp.free.push_back(v);
          }
        }
      }
    }
    if (!vp.success) return shannon(f, support);

    // The search's chart of f serves the classes when it chose vp.
    const auto classes_start = std::chrono::steady_clock::now();
    const auto classes =
        search_.classes(f, vp, options_.dc_policy, &class_stats_);
    stats_.classes_seconds += seconds_since(classes_start);
    if (classes.num_classes() == 1) {
      // The function does not truly depend on the bound set.
      return decompose(classes.classes[0].function);
    }

    const int t = classes.code_bits();
    std::vector<int> alpha_vars;
    for (int j = 0; j < t; ++j) alpha_vars.push_back(alloc_var());

    decomp::Encoding encoding;
    std::vector<int> lambda_hint;
    // Encoder wall time is booked net of the nested bound-set searches the
    // encoder triggers (those are varpart time, self-timed by the engine).
    const double search_before = search_.stats().seconds;
    const auto encode_start = std::chrono::steady_clock::now();
    if (options_.encoding == EncodingPolicy::kCompatibleClass) {
      ++stats_.encoder_runs;
      EncoderOptions enc_options;
      enc_options.k = options_.k;
      enc_options.seed = options_.seed + static_cast<std::uint64_t>(
                                             stats_.decomposition_steps);
      enc_options.dc_policy = options_.dc_policy;
      enc_options.search = &search_;
      enc_options.class_stats = &class_stats_;
      EncodingChoice choice =
          encode_classes(gm_, classes, alpha_vars, enc_options);
      encoding = choice.encoding;
      lambda_hint = choice.lambda_hint;
      if (choice.trace.used_random) ++stats_.encoder_random_kept;
    } else if (options_.encoding == EncodingPolicy::kCubeCount) {
      encoding = encode_cube_min(
          gm_, classes, alpha_vars,
          options_.seed + static_cast<std::uint64_t>(stats_.decomposition_steps));
    } else {
      encoding = decomp::random_encoding(
          classes.num_classes(),
          options_.seed + static_cast<std::uint64_t>(stats_.decomposition_steps));
    }
    stats_.encoding_seconds += seconds_since(encode_start) -
                               (search_.stats().seconds - search_before);

    const auto step = decomp::build_step(gm_, classes, vp.bound, vp.free,
                                         encoding, alpha_vars);
    ++stats_.decomposition_steps;
    for (int j = 0; j < t; ++j) {
      // α-functions range over the bound set (≤ k variables): always leaves.
      const net::NodeId alpha_node =
          decompose(IsfBdd{step.alphas[static_cast<std::size_t>(j)], gm_.zero()});
      map_var(alpha_vars[static_cast<std::size_t>(j)], alpha_node);
    }
    return decompose(step.image, lambda_hint);
  }

 private:
  /// Realizes f through the NPN memo: canonicalize, look up (computing and
  /// publishing the template on a miss), then replay the template over the
  /// actual support with the NPN transform folded into the instantiated LUTs.
  /// Returns kNoNode for degenerate templates, falling back to the normal
  /// recursion.
  net::NodeId from_cache(const IsfBdd& f, const std::vector<int>& support) {
    ++stats_.cache_lookups;
    const tt::Isf table{gm_.to_truth_table(f.on, support),
                        gm_.to_truth_table(f.dc, support)};
    const tt::NpnCanonization canon = tt::npn_canonize(table);
    const NpnCacheKey key{canon.canonical.on, canon.canonical.dc,
                          cache_fingerprint(options_)};
    auto entry = options_.cache->lookup(key);
    if (entry == nullptr) {
      CachedDecomposition fresh = compute_template(key);
      if (fresh.root < fresh.num_inputs) return net::kNoNode;
      entry = options_.cache->insert(key, std::move(fresh));
    }
    // Identical on hits and misses, so FlowStats (and the encoder seeds they
    // feed) never depend on which job populated the cache first.
    stats_.decomposition_steps += entry->stats.decomposition_steps;
    stats_.shannon_fallbacks += entry->stats.shannon_fallbacks;
    stats_.encoder_runs += entry->stats.encoder_runs;
    stats_.encoder_random_kept += entry->stats.encoder_random_kept;
    return instantiate(*entry, canon.transform, support);
  }

  /// Decomposes the canonical function in a private manager/network and packs
  /// the result into a plain, shareable template. Pure function of \p key:
  /// the sub-flow's seed comes from the key content, never from the job.
  CachedDecomposition compute_template(const NpnCacheKey& key) {
    const int n = key.on.num_vars();
    net::Network tmpl("npn_template");
    bdd::Manager tm(std::max(2, n));
    FlowOptions sub_options = options_;
    sub_options.seed = key.hash() | 1;
    FlowStats sub_stats;
    Decomposer sub(tm, tmpl, sub_options, sub_stats, n - 1);
    std::vector<int> vars;
    for (int i = 0; i < n; ++i) {
      vars.push_back(i);
      sub.map_var(i,
                  tmpl.add_input(std::string("x").append(std::to_string(i))));
    }
    sub.reserve_vars(n);
    const IsfBdd g{tm.from_truth_table(key.on, vars),
                   tm.from_truth_table(key.dc, vars)};
    tmpl.add_output("f", sub.decompose(g));
    tmpl.sweep();

    CachedDecomposition entry;
    entry.num_inputs = n;
    std::unordered_map<net::NodeId, int> index;
    for (std::size_t i = 0; i < tmpl.inputs().size(); ++i) {
      index.emplace(tmpl.inputs()[i], static_cast<int>(i));
    }
    for (net::NodeId id : tmpl.topo_order()) {
      const net::Node& node = tmpl.node(id);
      if (node.kind != net::NodeKind::kLogic) continue;
      TemplateNode tn;
      for (net::NodeId fi : node.fanins) tn.fanins.push_back(index.at(fi));
      tn.table = tmpl.local_tt(id);
      index.emplace(id,
                    n + static_cast<int>(entry.nodes.size()));
      entry.nodes.push_back(std::move(tn));
    }
    entry.root = index.at(tmpl.outputs()[0].driver);
    entry.stats.decomposition_steps = sub_stats.decomposition_steps;
    entry.stats.shannon_fallbacks = sub_stats.shannon_fallbacks;
    entry.stats.encoder_runs = sub_stats.encoder_runs;
    entry.stats.encoder_random_kept = sub_stats.encoder_random_kept;
    // Kernel counters go straight to this flow's totals, not into the shared
    // template: replaying a cached template costs no BDD work, so charging
    // them per-hit would fabricate work that only the miss performed. Search
    // counters and phase timings follow the same policy — they are volatile,
    // so the deterministic cached entry.stats never carries them.
    stats_.absorb_bdd_stats(tm.stats());
    sub_stats.absorb_search_stats(sub.search().stats());
    sub_stats.class_signature_pairs += sub.class_stats().signature_pairs;
    sub_stats.class_bdd_pairs += sub.class_stats().bdd_pairs;
    stats_.absorb_search_and_phases(sub_stats);
    return entry;
  }

  /// Replays a template into the output network. Canonical input j reads the
  /// node of support[transform.perm[j]]; input negations are folded into the
  /// consuming LUTs' tables and the output negation into the root LUT, so the
  /// instantiation adds exactly nodes.size() nodes.
  net::NodeId instantiate(const CachedDecomposition& entry,
                          const tt::NpnTransform& t,
                          const std::vector<int>& support) {
    const int n = entry.num_inputs;
    std::vector<net::NodeId> ref(static_cast<std::size_t>(n) +
                                 entry.nodes.size());
    std::vector<char> negated(static_cast<std::size_t>(n), 0);
    for (int j = 0; j < n; ++j) {
      const int var = support[static_cast<std::size_t>(t.perm[static_cast<std::size_t>(j)])];
      const auto it = var_node_.find(var);
      if (it == var_node_.end()) {
        throw std::logic_error("Decomposer: unmapped variable in template");
      }
      ref[static_cast<std::size_t>(j)] = it->second;
      negated[static_cast<std::size_t>(j)] = (t.input_negations >> j) & 1;
    }
    for (std::size_t i = 0; i < entry.nodes.size(); ++i) {
      const TemplateNode& tn = entry.nodes[i];
      tt::TruthTable local = tn.table;
      std::vector<net::NodeId> fanins;
      fanins.reserve(tn.fanins.size());
      for (std::size_t p = 0; p < tn.fanins.size(); ++p) {
        const int fi = tn.fanins[p];
        if (fi < n && negated[static_cast<std::size_t>(fi)]) {
          local = local.flip_var(static_cast<int>(p));
        }
        fanins.push_back(ref[static_cast<std::size_t>(fi)]);
      }
      if (static_cast<int>(n + i) == entry.root && t.output_negated) {
        local = ~local;
      }
      ref[static_cast<std::size_t>(n) + i] =
          out_.add_logic_tt(out_.fresh_name("n"), std::move(fanins), local);
    }
    return ref[static_cast<std::size_t>(entry.root)];
  }

  bool is_ppi(int v) const {
    return std::find(ppi_vars_.begin(), ppi_vars_.end(), v) != ppi_vars_.end();
  }

  static std::vector<int> filter_to(const std::vector<int>& vars,
                                    const std::vector<int>& support) {
    std::vector<int> result;
    for (int v : vars) {
      if (std::find(support.begin(), support.end(), v) != support.end()) {
        result.push_back(v);
      }
    }
    return result;
  }

  /// Materializes a ≤k-support function as one LUT node (don't cares are
  /// completed to 0 — the completion does not change the LUT count).
  net::NodeId leaf(const IsfBdd& f, const std::vector<int>& support) {
    const tt::TruthTable table = gm_.to_truth_table(f.on, support);
    std::vector<net::NodeId> fanins;
    fanins.reserve(support.size());
    for (int v : support) {
      const auto it = var_node_.find(v);
      if (it == var_node_.end()) {
        throw std::logic_error("Decomposer: unmapped variable in leaf");
      }
      fanins.push_back(it->second);
    }
    return out_.add_logic_tt(out_.fresh_name("n"), std::move(fanins), table);
  }

  /// Shannon-expansion fallback when no non-trivial bound set exists:
  /// f = x ? f1 : f0 with a 3-input mux node (requires k >= 3).
  net::NodeId shannon(const IsfBdd& f, const std::vector<int>& support) {
    if (options_.k < 3) {
      throw std::logic_error("Decomposer: Shannon fallback needs k >= 3");
    }
    ++stats_.shannon_fallbacks;
    // Prefer splitting on a non-PPI variable (Section 4.3: keep PPIs out).
    int v = support.front();
    for (int candidate : support) {
      if (!is_ppi(candidate)) {
        v = candidate;
        break;
      }
    }
    const IsfBdd f0{gm_.cofactor(f.on, v, false), gm_.cofactor(f.dc, v, false)};
    const IsfBdd f1{gm_.cofactor(f.on, v, true), gm_.cofactor(f.dc, v, true)};
    const net::NodeId n0 = decompose(f0);
    const net::NodeId n1 = decompose(f1);
    if (n0 == n1) return n0;
    const auto it = var_node_.find(v);
    if (it == var_node_.end()) {
      throw std::logic_error("Decomposer: unmapped Shannon variable");
    }
    // mux(sel, lo, hi) with sel as variable 0.
    const tt::TruthTable sel = tt::TruthTable::var(3, 0);
    const tt::TruthTable lo = tt::TruthTable::var(3, 1);
    const tt::TruthTable hi = tt::TruthTable::var(3, 2);
    const tt::TruthTable mux = (sel & hi) | (~sel & lo);
    return out_.add_logic_tt(out_.fresh_name("mux"), {it->second, n0, n1}, mux);
  }

  bdd::Manager& gm_;
  net::Network& out_;
  const FlowOptions& options_;
  FlowStats& stats_;
  std::unordered_map<int, net::NodeId> var_node_;
  std::vector<int> ppi_vars_;
  int next_var_ = 0;
  int cache_ceiling_ = 0;
  decomp::BoundSetSearch search_;
  decomp::ClassStats class_stats_;
};

/// Greedy support-overlap grouping of primary outputs for hyper-functions.
std::vector<std::vector<int>> group_outputs(
    const std::vector<std::vector<int>>& supports, int max_group_size) {
  std::vector<std::vector<int>> groups;
  std::vector<std::set<int>> group_support;
  for (int o = 0; o < static_cast<int>(supports.size()); ++o) {
    const auto& sup = supports[static_cast<std::size_t>(o)];
    bool placed = false;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (static_cast<int>(groups[g].size()) >= max_group_size) continue;
      int overlap = 0;
      for (int v : sup) {
        if (group_support[g].count(v) != 0) ++overlap;
      }
      const int smaller = std::min(static_cast<int>(sup.size()),
                                   static_cast<int>(group_support[g].size()));
      if (smaller == 0 || 2 * overlap >= smaller) {
        groups[g].push_back(o);
        group_support[g].insert(sup.begin(), sup.end());
        placed = true;
        break;
      }
    }
    if (!placed) {
      groups.push_back({o});
      group_support.emplace_back(sup.begin(), sup.end());
    }
  }
  return groups;
}

/// Decomposes one hyper-function group and returns per-ingredient roots.
std::vector<net::NodeId> run_hyper_group_raw(
    bdd::Manager& gm, net::Network& out, Decomposer& decomposer,
    const FlowOptions& options, FlowStats& stats,
    const std::vector<IsfBdd>& ingredients, const std::vector<int>& input_vars,
    std::vector<net::NodeId>& ppi_nodes_accum) {
  const int n = static_cast<int>(ingredients.size());
  std::vector<int> ppi_vars;
  std::vector<net::NodeId> ppi_nodes;
  for (int b = 0; b < bits_for(n); ++b) {
    const int v = decomposer.alloc_var();
    ppi_vars.push_back(v);
    const net::NodeId node = out.add_input(out.fresh_name("__ppi"));
    ppi_nodes.push_back(node);
    decomposer.map_var(v, node);
    ppi_nodes_accum.push_back(node);
  }
  EncoderOptions enc_options;
  enc_options.k = options.k;
  enc_options.seed = options.seed;
  enc_options.dc_policy = options.dc_policy;
  enc_options.search = &decomposer.search();
  enc_options.class_stats = &decomposer.class_stats();
  const double search_before = decomposer.search().stats().seconds;
  const auto encode_start = std::chrono::steady_clock::now();
  const HyperFunction hyper = build_hyper_function(
      gm, ingredients, input_vars, ppi_vars, enc_options,
      options.encoding == EncodingPolicy::kCompatibleClass);
  stats.encoding_seconds +=
      seconds_since(encode_start) -
      (decomposer.search().stats().seconds - search_before);
  ++stats.hyper_groups;
  if (options.encoding == EncodingPolicy::kCompatibleClass) {
    ++stats.encoder_runs;
    if (hyper.trace.used_random) ++stats.encoder_random_kept;
  }
  decomposer.set_ppi_vars(ppi_vars);
  const net::NodeId root =
      decomposer.decompose(hyper.function, hyper.trace.lambda_prime);
  decomposer.set_ppi_vars({});
  return recover_ingredients(out, root, ppi_nodes, hyper.codes);
}

/// Decomposes a multi-output group both ways — per-output and as a
/// hyper-function — and keeps whichever created fewer nodes. This is the
/// Section-4.3 trade-off in practice: hyper-sharing wins when the extracted
/// common sub-logic outweighs the duplication cone, and loses on functions
/// (e.g. symmetric ones) whose per-output decompositions are already tight.
/// The losing candidate's nodes die at the final sweep.
std::vector<net::NodeId> run_group_best(
    bdd::Manager& gm, net::Network& out, Decomposer& decomposer,
    const FlowOptions& options, FlowStats& stats,
    const std::vector<IsfBdd>& ingredients, const std::vector<int>& input_vars,
    std::vector<net::NodeId>& ppi_nodes_accum) {
  if (options.group_choice == GroupChoice::kAlwaysHyper) {
    return run_hyper_group_raw(gm, out, decomposer, options, stats, ingredients,
                               input_vars, ppi_nodes_accum);
  }
  const int before_solo = out.num_nodes();
  std::vector<net::NodeId> solo_roots;
  for (const IsfBdd& f : ingredients) {
    solo_roots.push_back(decomposer.decompose(f));
  }
  if (options.group_choice == GroupChoice::kNeverHyper) return solo_roots;
  const int solo_cost = out.num_nodes() - before_solo;

  const int before_hyper = out.num_nodes();
  const auto hyper_roots =
      run_hyper_group_raw(gm, out, decomposer, options, stats, ingredients,
                          input_vars, ppi_nodes_accum);
  const int hyper_cost = out.num_nodes() - before_hyper;

  return hyper_cost <= solo_cost ? hyper_roots : solo_roots;
}

}  // namespace

namespace {
FlowResult run_flow_once(const net::Network& input, const FlowOptions& options,
                         const net::Network* external_dc);
}  // namespace

FlowResult run_flow(const net::Network& input, const FlowOptions& options,
                    const net::Network* external_dc) {
  FlowResult result = run_flow_once(input, options, external_dc);
  for (int pass = 1; pass < options.passes; ++pass) {
    // Re-apply the flow to its own output (external DCs only make sense on
    // the original interface, so they only feed the first pass).
    FlowResult next = run_flow_once(result.network, options, nullptr);
    merge(next.stats, result.stats);
    result = std::move(next);
  }
  return result;
}

namespace {

FlowResult run_flow_once(const net::Network& input, const FlowOptions& options,
                         const net::Network* external_dc) {
  FlowResult result;
  FlowStats& stats = result.stats;
  net::Network& out = result.network;
  out.set_model_name(input.model_name());

  // Declared before every Bdd local so the manager is destroyed last.
  bdd::Manager gm(std::max(2, input.num_nodes()));
  if (options.bdd_node_limit != 0) gm.set_node_limit(options.bdd_node_limit);
  if (options.reorder != bdd::ReorderMode::kOff) {
    gm.set_reorder_mode(options.reorder);
    // Soft budget at half the hard cap: GC, then sifting, get a chance to
    // shrink the DAG before growth runs into the std::length_error rung.
    if (options.bdd_node_limit != 0) {
      gm.set_soft_node_limit(options.bdd_node_limit / 2);
    }
  }
  Decomposer decomposer(gm, out, options, stats);

  stats.collapse_mode =
      static_cast<int>(input.inputs().size()) <= options.max_collapse_support;

  std::vector<net::NodeId> ppi_nodes;

  if (stats.collapse_mode) {
    // Collapse mode: decompose primary-output global functions directly.
    std::vector<int> pi_var;
    for (std::size_t i = 0; i < input.inputs().size(); ++i) {
      const int v = static_cast<int>(i);
      pi_var.push_back(v);
      const net::NodeId pi =
          out.add_input(input.node(input.inputs()[i]).name);
      decomposer.map_var(v, pi);
    }
    decomposer.reserve_vars(static_cast<int>(input.inputs().size()));

    std::vector<net::NodeId> roots;
    for (const auto& o : input.outputs()) roots.push_back(o.driver);
    const auto bdds = input.global_bdds(roots, gm, pi_var);

    // External don't cares: per-output DC functions matched by PO name and
    // mapped over the same PI variables (inputs matched by name).
    std::vector<bdd::Bdd> dcs(bdds.size(), gm.zero());
    if (external_dc != nullptr) {
      std::vector<int> dc_pi_var(external_dc->inputs().size(), -1);
      for (std::size_t i = 0; i < external_dc->inputs().size(); ++i) {
        const std::string& name =
            external_dc->node(external_dc->inputs()[i]).name;
        for (std::size_t j = 0; j < input.inputs().size(); ++j) {
          if (input.node(input.inputs()[j]).name == name) {
            dc_pi_var[i] = pi_var[j];
            break;
          }
        }
        if (dc_pi_var[i] < 0) {
          throw std::invalid_argument(
              "run_flow: external DC input not found in the network: " + name);
        }
      }
      for (std::size_t o = 0; o < input.outputs().size(); ++o) {
        for (const auto& dc_out : external_dc->outputs()) {
          if (dc_out.name != input.outputs()[o].name) continue;
          const auto dc_bdds = external_dc->global_bdds(
              {dc_out.driver}, gm, dc_pi_var);
          // Keep the ISF consistent: DC may not overlap the onset.
          dcs[o] = dc_bdds[0] & ~bdds[o];
          break;
        }
      }
    }

    std::vector<std::vector<int>> supports;
    for (const auto& b : bdds) supports.push_back(gm.support(b));
    std::vector<std::vector<int>> groups =
        options.use_hyper
            ? group_outputs(supports, options.max_group_size)
            : std::vector<std::vector<int>>{};
    if (!options.use_hyper) {
      for (int o = 0; o < static_cast<int>(bdds.size()); ++o) groups.push_back({o});
    }

    // Collect every output's root first, then declare POs in the original
    // order (groups are processed out of order).
    std::vector<net::NodeId> out_root(bdds.size(), net::kNoNode);
    for (const auto& group : groups) {
      if (group.size() == 1 || !options.use_hyper) {
        for (int o : group) {
          out_root[static_cast<std::size_t>(o)] = decomposer.decompose(
              IsfBdd{bdds[static_cast<std::size_t>(o)],
                     dcs[static_cast<std::size_t>(o)]});
        }
        continue;
      }
      std::vector<IsfBdd> ingredients;
      std::set<int> input_var_set;
      for (int o : group) {
        ingredients.push_back(IsfBdd{bdds[static_cast<std::size_t>(o)],
                                     dcs[static_cast<std::size_t>(o)]});
        input_var_set.insert(supports[static_cast<std::size_t>(o)].begin(),
                             supports[static_cast<std::size_t>(o)].end());
      }
      const std::vector<int> input_vars(input_var_set.begin(), input_var_set.end());
      const auto group_roots =
          run_group_best(gm, out, decomposer, options, stats, ingredients,
                          input_vars, ppi_nodes);
      for (std::size_t i = 0; i < group.size(); ++i) {
        out_root[static_cast<std::size_t>(group[i])] = group_roots[i];
      }
    }
    for (std::size_t o = 0; o < bdds.size(); ++o) {
      out.add_output(input.outputs()[o].name, out_root[o]);
    }
  } else {
    // Per-node mode: clone narrow nodes, decompose wide ones; wide nodes
    // sharing an identical fanin set can form a hyper-function.
    decomposer.reserve_vars(input.num_nodes());
    std::unordered_map<net::NodeId, net::NodeId> node_map;
    for (std::size_t i = 0; i < input.inputs().size(); ++i) {
      const net::NodeId pi = out.add_input(input.node(input.inputs()[i]).name);
      node_map.emplace(input.inputs()[i], pi);
      decomposer.map_var(static_cast<int>(input.inputs()[i]), pi);
    }

    // Group wide nodes by identical fanin sets.
    const auto topo = input.topo_order();
    std::unordered_map<net::NodeId, int> wide_group_of;
    std::vector<std::vector<net::NodeId>> wide_groups;
    if (options.use_hyper) {
      std::map<std::vector<net::NodeId>, std::vector<net::NodeId>> by_fanins;
      for (net::NodeId id : topo) {
        const net::Node& node = input.node(id);
        if (node.kind != net::NodeKind::kLogic ||
            static_cast<int>(node.fanins.size()) <= options.k) {
          continue;
        }
        std::vector<net::NodeId> key = node.fanins;
        std::sort(key.begin(), key.end());
        key.erase(std::unique(key.begin(), key.end()), key.end());
        by_fanins[key].push_back(id);
      }
      for (auto& [key, members] : by_fanins) {
        for (std::size_t start = 0; start < members.size();
             start += static_cast<std::size_t>(options.max_group_size)) {
          const std::size_t end = std::min(
              members.size(), start + static_cast<std::size_t>(options.max_group_size));
          if (end - start >= 2) {
            std::vector<net::NodeId> chunk(members.begin() + static_cast<std::ptrdiff_t>(start),
                                           members.begin() + static_cast<std::ptrdiff_t>(end));
            for (net::NodeId m : chunk) {
              wide_group_of[m] = static_cast<int>(wide_groups.size());
            }
            wide_groups.push_back(std::move(chunk));
          }
        }
      }
    }
    std::vector<char> group_done(wide_groups.size(), 0);

    for (net::NodeId id : topo) {
      const net::Node& node = input.node(id);
      if (node.kind != net::NodeKind::kLogic || node_map.count(id) != 0) continue;
      const auto make_target = [&](net::NodeId target) {
        std::vector<bdd::Bdd> subst;
        for (net::NodeId f : input.node(target).fanins) {
          gm.ensure_vars(static_cast<int>(f) + 1);
          subst.push_back(gm.var(static_cast<int>(f)));
        }
        return IsfBdd{net::transfer_compose(input.node(target).local, gm, subst),
                      gm.zero()};
      };
      if (static_cast<int>(node.fanins.size()) <= options.k) {
        std::vector<net::NodeId> fanins;
        for (net::NodeId f : node.fanins) fanins.push_back(node_map.at(f));
        const net::NodeId clone =
            out.add_logic_tt(out.fresh_name("c"), std::move(fanins),
                             input.local_tt(id));
        node_map.emplace(id, clone);
        decomposer.map_var(static_cast<int>(id), clone);
        continue;
      }
      const auto group_it = wide_group_of.find(id);
      if (group_it == wide_group_of.end()) {
        const net::NodeId root = decomposer.decompose(make_target(id));
        node_map.emplace(id, root);
        decomposer.map_var(static_cast<int>(id), root);
        continue;
      }
      if (group_done[static_cast<std::size_t>(group_it->second)]) continue;
      group_done[static_cast<std::size_t>(group_it->second)] = 1;
      const auto& members = wide_groups[static_cast<std::size_t>(group_it->second)];
      std::vector<IsfBdd> ingredients;
      std::set<int> input_var_set;
      for (net::NodeId m : members) {
        ingredients.push_back(make_target(m));
        for (net::NodeId f : input.node(m).fanins) {
          input_var_set.insert(static_cast<int>(f));
        }
      }
      const std::vector<int> input_vars(input_var_set.begin(), input_var_set.end());
      const auto roots =
          run_group_best(gm, out, decomposer, options, stats, ingredients,
                          input_vars, ppi_nodes);
      for (std::size_t i = 0; i < members.size(); ++i) {
        node_map.emplace(members[i], roots[i]);
        decomposer.map_var(static_cast<int>(members[i]), roots[i]);
      }
    }
    for (const auto& o : input.outputs()) {
      out.add_output(o.name, node_map.at(o.driver));
    }
  }

  out.sweep();
  out.drop_unused_inputs(ppi_nodes);
  stats.absorb_bdd_stats(gm.stats());
  stats.absorb_search_stats(decomposer.search().stats());
  stats.class_signature_pairs += decomposer.class_stats().signature_pairs;
  stats.class_bdd_pairs += decomposer.class_stats().bdd_pairs;
  return result;
}
}  // namespace

FlowOptions hyde_options(int k) {
  FlowOptions options;
  options.k = k;
  options.encoding = EncodingPolicy::kCompatibleClass;
  options.dc_policy = decomp::DcPolicy::kCliquePartition;
  options.use_hyper = true;
  options.ppi_hard_mu = false;
  return options;
}

FlowOptions fgsyn_like_options(int k) {
  FlowOptions options;
  options.k = k;
  options.encoding = EncodingPolicy::kRandom;
  options.dc_policy = decomp::DcPolicy::kCliquePartition;
  options.use_hyper = true;
  options.ppi_hard_mu = true;  // column encoding: PPIs always stay free
  return options;
}

FlowOptions imodec_like_options(int k) {
  FlowOptions options;
  options.k = k;
  options.encoding = EncodingPolicy::kRandom;
  options.dc_policy = decomp::DcPolicy::kCliquePartition;
  options.use_hyper = false;
  return options;
}

FlowOptions sawada_like_options(int k) {
  FlowOptions options;
  options.k = k;
  options.encoding = EncodingPolicy::kRandom;
  options.dc_policy = decomp::DcPolicy::kDistinctColumns;
  options.use_hyper = false;
  return options;
}

}  // namespace hyde::core
