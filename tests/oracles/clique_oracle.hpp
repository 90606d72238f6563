/// \file clique_oracle.hpp
/// \brief The recount-from-scratch clique partitioner: the equivalence oracle
/// for the incremental graph::clique_partition.

#pragma once

#include <vector>

namespace hyde::graph {

/// The original formulation of clique_partition: merge the adjacent
/// super-vertex pair with the most common neighbours (ties to the smaller
/// index), recounting every pair after each merge. O(n^4) worst case; the
/// production partitioner must return exactly this partition.
std::vector<std::vector<int>> clique_partition_reference(
    int n, const std::vector<std::vector<char>>& adjacent);

}  // namespace hyde::graph
