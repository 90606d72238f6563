#include "baseline/flows.hpp"

#include <chrono>
#include <stdexcept>

#include "net/verify.hpp"

namespace hyde::baseline {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

std::string system_name(System system) {
  switch (system) {
    case System::kHyde:
      return "HYDE";
    case System::kImodecLike:
      return "IMODEC-like";
    case System::kFgsynLike:
      return "FGSyn-like";
    case System::kSawadaLike:
      return "RK-noresub";
    case System::kSawadaResubLike:
      return "RK-resub";
  }
  return "?";
}

core::FlowOptions system_flow_options(System system, int k) {
  switch (system) {
    case System::kHyde:
      return core::hyde_options(k);
    case System::kImodecLike:
      return core::imodec_like_options(k);
    case System::kFgsynLike:
      return core::fgsyn_like_options(k);
    case System::kSawadaLike:
    case System::kSawadaResubLike:
      return core::sawada_like_options(k);
  }
  return core::hyde_options(k);
}

BaselineResult run_system(const net::Network& input, System system, int k,
                          int verify_vectors, std::uint64_t seed,
                          core::DecompCache* cache, int cache_max_support) {
  core::FlowOptions options = system_flow_options(system, k);
  options.seed = seed;
  options.cache = cache;
  options.cache_max_support = cache_max_support;
  return run_system(input, system, options, verify_vectors);
}

BaselineResult run_system(const net::Network& input, System system,
                          const core::FlowOptions& options,
                          int verify_vectors) {
  const int k = options.k;
  const auto start = std::chrono::steady_clock::now();
  core::FlowResult flow = core::run_flow(input, options);
  const auto map_start = std::chrono::steady_clock::now();
  mapper::dedup_shared_nodes(flow.network);
  mapper::collapse_into_fanouts(flow.network, k);
  if (system == System::kSawadaResubLike) {
    mapper::resubstitute(flow.network);
    mapper::dedup_shared_nodes(flow.network);
    mapper::collapse_into_fanouts(flow.network, k);
  }
  mapper::dedup_shared_nodes(flow.network);
  const auto stop = std::chrono::steady_clock::now();
  flow.stats.mapping_seconds +=
      std::chrono::duration<double>(stop - map_start).count();

  BaselineResult result;
  result.stats = flow.stats;
  result.luts = mapper::lut_count(flow.network);
  result.depth = mapper::network_depth(flow.network);
  if (k == 5) {
    const auto pack_start = std::chrono::steady_clock::now();
    result.clbs = mapper::pack_xc3000(flow.network).num_clbs;
    result.stats.pack_seconds = seconds_since(pack_start);
  }
  result.seconds =
      std::chrono::duration<double>(stop - start).count();
  if (verify_vectors <= 0) {
    result.verified = true;
  } else {
    net::EquivalenceOptions eq_options;
    eq_options.random_vectors = verify_vectors;
    eq_options.seed = options.seed * 7919 + 17;
    const auto verify_start = std::chrono::steady_clock::now();
    result.verified =
        net::check_equivalence(input, flow.network, eq_options).equivalent;
    result.stats.verify_seconds = seconds_since(verify_start);
  }
  result.network = std::move(flow.network);
  return result;
}

BaselineResult run_windowed_system(const net::Network& input,
                                   const part::WindowedFlowOptions& options,
                                   int verify_vectors) {
  const int k = options.flow.k;
  const auto start = std::chrono::steady_clock::now();
  part::WindowedFlowResult windowed = part::run_windowed_flow(input, options);

  // Cross-window cleanup. The dedup/collapse passes build per-node truth
  // tables (exponential in fanin count), so they only run when every
  // pass-through window was already k-feasible.
  const auto map_start = std::chrono::steady_clock::now();
  if (windowed.network.is_k_feasible(k)) {
    mapper::dedup_shared_nodes(windowed.network);
    mapper::collapse_into_fanouts(windowed.network, k);
    mapper::dedup_shared_nodes(windowed.network);
  }
  const auto stop = std::chrono::steady_clock::now();
  windowed.stats.mapping_seconds +=
      std::chrono::duration<double>(stop - map_start).count();

  BaselineResult result;
  result.stats = windowed.stats;
  result.luts = mapper::lut_count(windowed.network);
  result.depth = mapper::network_depth(windowed.network);
  if (k == 5 && windowed.network.is_k_feasible(k)) {
    const auto pack_start = std::chrono::steady_clock::now();
    result.clbs = mapper::pack_xc3000(windowed.network).num_clbs;
    result.stats.pack_seconds = seconds_since(pack_start);
  }
  result.seconds = std::chrono::duration<double>(stop - start).count();
  if (verify_vectors <= 0) {
    result.verified = true;
  } else {
    net::EquivalenceOptions eq_options;
    eq_options.random_vectors = verify_vectors;
    eq_options.seed = options.flow.seed * 7919 + 17;
    const auto verify_start = std::chrono::steady_clock::now();
    result.verified =
        net::check_equivalence(input, windowed.network, eq_options).equivalent;
    result.stats.verify_seconds = seconds_since(verify_start);
  }
  result.network = std::move(windowed.network);
  return result;
}

}  // namespace hyde::baseline
