/// \file sim_check.hpp
/// \brief Independent output check: bit-parallel simulation of two networks.
///
/// Walks each network in topological order and evaluates every logic node
/// from its local truth table, 64 input vectors per machine word. Primary
/// inputs are matched by name and outputs compared by position, as
/// net::check_equivalence does, but nothing of that checker is reused, so a
/// bug there cannot hide a wrong netlist here. Networks with at most
/// kExhaustiveInputs primary inputs are compared on every input vector;
/// wider ones on seeded random vectors.

#pragma once

#include <cstdint>
#include <string>

#include "net/network.hpp"

namespace perfbench {

inline constexpr int kExhaustiveInputs = 16;

struct SimCheck {
  bool equal = false;
  bool exhaustive = false;
  std::uint64_t vectors = 0;
  std::string detail;  ///< why the networks differ; empty when equal
};

/// Compares \p source and \p mapped; \p seed picks the random vectors and
/// \p random_words the number of 64-vector words when not exhaustive.
SimCheck simulate_compare(const hyde::net::Network& source,
                          const hyde::net::Network& mapped, std::uint64_t seed,
                          int random_words = 64);

}  // namespace perfbench
