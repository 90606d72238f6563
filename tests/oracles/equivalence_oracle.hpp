/// \file equivalence_oracle.hpp
/// \brief The scalar simulation fallback of check_equivalence: the
/// equivalence oracle for its word-parallel simulator.

#pragma once

#include "net/verify.hpp"

namespace hyde::net {

/// The original simulation fallback, without the formal attempt: one
/// Network::eval per vector on each side, exhaustive when a has at most
/// options.exhaustive_max_inputs PIs (vector m drives PI i with bit i of m),
/// otherwise options.random_vectors vectors of one splitmix64 draw per PI in
/// a's order. It stops at the first vector where an output differs and
/// reports the lowest such output. check_equivalence, once its formal
/// attempt gives up, must return exactly this result.
EquivalenceResult simulate_equivalence_reference(
    const Network& a, const Network& b, const EquivalenceOptions& options);

}  // namespace hyde::net
