/// \file flows.hpp
/// \brief Complete benchmark flows: HYDE and the simplified reimplementations
/// of the three published systems the paper compares against (IMODEC [5],
/// FGSyn [4], Sawada et al. [8]). Each flow = decomposition (core) + cleanup
/// and mapping (mapper), timed, with a built-in random-vector equivalence
/// check against the source network.

#pragma once

#include <string>

#include "core/flow.hpp"
#include "mapper/lutmap.hpp"
#include "mapper/xc3000.hpp"
#include "part/windowed.hpp"

namespace hyde::baseline {

struct BaselineResult {
  net::Network network;       ///< the mapped k-feasible network
  int luts = 0;               ///< 5-input LUT count (Table 2 metric)
  int clbs = 0;               ///< XC3000 CLB count (Table 1 metric; k=5 only)
  int depth = 0;              ///< LUT levels
  double seconds = 0.0;       ///< wall-clock flow time
  bool verified = false;      ///< random-vector equivalence check passed
  core::FlowStats stats;
};

/// Which system a flow models.
enum class System {
  kHyde,        ///< the paper's algorithm
  kImodecLike,  ///< [5]: per-output, rigid random encoding, DC merging
  kFgsynLike,   ///< [4]: hyper-sharing with PPIs pinned to the free set
  kSawadaLike,  ///< [8] without resubstitution
  kSawadaResubLike,  ///< [8] with resubstitution (support minimization)
};

/// Human-readable system name for reports.
std::string system_name(System system);

/// The core flow configuration modelling \p system (seed, cache and reorder
/// left at their defaults; callers overwrite what they need).
core::FlowOptions system_flow_options(System system, int k);

/// Runs the full flow for \p system over \p input with k-input LUTs.
/// \p verify_vectors random input vectors are checked (0 disables).
/// \p cache optionally shares NPN-memoized decompositions across runs (see
/// core/decomp_cache.hpp; the runtime's batch scheduler passes one cache to
/// every job).
BaselineResult run_system(const net::Network& input, System system, int k,
                          int verify_vectors = 256, std::uint64_t seed = 1,
                          core::DecompCache* cache = nullptr,
                          int cache_max_support = 7);

/// Fully-explicit variant: runs \p system's mapping pipeline (including the
/// resubstitution pass for kSawadaResubLike) over an arbitrary FlowOptions.
/// Callers typically start from system_flow_options(system, k) and override
/// individual knobs; the convenience overload above delegates here.
BaselineResult run_system(const net::Network& input, System system,
                          const core::FlowOptions& options,
                          int verify_vectors = 256);

/// Windowed variant of run_system for networks too large to decompose whole:
/// runs part::run_windowed_flow under \p options (callers typically seed
/// options.flow from system_flow_options), then the global mapper cleanup —
/// skipped when budget-exhausted pass-through windows left wide nodes behind,
/// since the cleanup's truth tables are exponential in fanin count — and the
/// end-to-end equivalence check against \p input. Deterministic at every
/// options.threads value. CLB packing, like the cleanup, needs a k-feasible
/// network, so clbs stays 0 when any wide node survives.
BaselineResult run_windowed_system(const net::Network& input,
                                   const part::WindowedFlowOptions& options,
                                   int verify_vectors = 256);

}  // namespace hyde::baseline
