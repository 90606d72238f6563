/// \file chart_oracle.hpp
/// \brief Recursive-cofactor chart enumeration: the Θ(2^|bound|) reference
/// that the cut-based enumerate_columns / count_columns are checked against.

#pragma once

#include <vector>

#include "decomp/chart.hpp"

namespace hyde::decomp {

/// Reference implementation of enumerate_columns by recursive cofactoring
/// (Θ(2^|bound|) cofactor pairs). Produces identical columns in identical
/// order. Throws std::invalid_argument like enumerate_columns.
std::vector<Column> enumerate_columns_recursive(const DecompSpec& spec);

/// Reference implementation of count_columns by recursive cofactoring.
int count_columns_recursive(const DecompSpec& spec);

}  // namespace hyde::decomp
