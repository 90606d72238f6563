/// \file expand_oracle.hpp
/// \brief TruthTable::expand one minterm at a time: the reference the
/// word-level expand is checked against.

#pragma once

#include <vector>

#include "tt/truth_table.hpp"

namespace hyde::tt {

/// Bit m of the result is bit s of \p f, where bit i of s is bit
/// placement[i] of m.
TruthTable expand_reference(const TruthTable& f, int new_num_vars,
                            const std::vector<int>& placement);

}  // namespace hyde::tt
