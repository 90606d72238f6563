/// \file verify.hpp
/// \brief Network equivalence checking.
///
/// Two strategies, picked automatically:
///  - *formal*: build both networks' global BDDs over a shared manager and
///    compare canonically — exact, used whenever the BDDs stay within a node
///    budget;
///  - *simulation*: exhaustive for small PI counts, seeded random vectors
///    otherwise (a fallback the caller can size).
///
/// The simulation is word-parallel: each network's topological order and
/// local functions are compiled once, then 64 vectors per machine word run
/// through every logic node, in batches of 512 vectors. It applies the
/// vectors of a scalar one-Network::eval-per-vector loop, in the same order:
/// vector m of the exhaustive path drives PI i with bit i of m, and each
/// random vector takes one splitmix64 draw per PI in \p a's order. The
/// result is therefore identical field by field: `failing_output` is the
/// lowest output differing at the first failing vector, and
/// `counterexample` is that vector in \p a's PI order.
///
/// Networks must have identically named primary inputs (any order) and the
/// same number of outputs (compared positionally, by the output list).

#pragma once

#include <cstdint>
#include <string>

#include "net/network.hpp"

namespace hyde::net {

enum class EquivalenceMethod {
  kFormalBdd,        ///< canonical BDD comparison (exact)
  kExhaustiveSim,    ///< all 2^n input vectors (exact)
  kRandomSim,        ///< seeded random vectors (probabilistic)
};

struct EquivalenceResult {
  bool equivalent = false;
  EquivalenceMethod method = EquivalenceMethod::kRandomSim;
  /// Index of the first differing output (-1 if equivalent).
  int failing_output = -1;
  /// A witness input assignment when not equivalent (PI order of \p a).
  std::vector<bool> counterexample;
};

struct EquivalenceOptions {
  /// Give up on the formal method when a global BDD exceeds this many nodes.
  std::size_t bdd_node_budget = 200000;
  /// Exhaustive simulation bound (2^n vectors) — used if formal is skipped.
  int exhaustive_max_inputs = 14;
  /// Random vectors when both exact methods are out of reach.
  int random_vectors = 512;
  std::uint64_t seed = 1;
};

/// Checks whether \p a and \p b compute the same outputs.
/// Throws std::invalid_argument on interface mismatch (different PI name
/// sets or output counts).
EquivalenceResult check_equivalence(const Network& a, const Network& b,
                                    const EquivalenceOptions& options = {});

}  // namespace hyde::net
