/// \file npn_oracle.hpp
/// \brief The TruthTable-based exhaustive NPN canonicalizer: the equivalence
/// oracle for the fixed-width tt::npn_canonize.

#pragma once

#include "tt/npn.hpp"

namespace hyde::tt {

/// The original formulation of npn_canonize: every candidate is built as a
/// heap-backed TruthTable (permute, flip_var, ~(on | dc)) and compared word
/// by word. The production canonicalizer must return exactly this canonical
/// form and transform, tie-breaks included.
NpnCanonization npn_canonize_reference(const Isf& f);

}  // namespace hyde::tt
