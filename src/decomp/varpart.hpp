/// \file varpart.hpp
/// \brief Bound (λ) set selection, in the spirit of the BDD-based algorithm
/// of Jiang et al. [2] that the paper adopts for Problem 1.
///
/// The selection greedily grows a bound set of the requested size, at each
/// step adding the variable that minimizes the number of chart columns
/// (equivalently compatible classes for completely specified functions) —
/// the same cost the paper's encoding minimizes downstream. Pseudo primary
/// inputs can be biased toward the free set (Section 4.3 recommends keeping
/// them close to the output). BoundSetSearch::select (search.hpp) runs it;
/// this header holds its option and result types.

#pragma once

#include <vector>

#include "decomp/chart.hpp"
#include "decomp/compatible.hpp"

namespace hyde::decomp {

struct VarPartitionOptions {
  int bound_size = 4;  ///< desired λ-set size (usually the LUT input count k)
  /// Variables to keep out of the bound set unless unavoidable (e.g. pseudo
  /// primary inputs, per Section 4.3).
  std::vector<int> avoid;
  /// Require a non-trivial decomposition (code bits < bound size). The
  /// result is then the largest non-trivial greedy prefix of at least 2
  /// variables, and reports success=false when there is none.
  bool require_nontrivial = true;
  DcPolicy dc_policy = DcPolicy::kCliquePartition;
};

struct VarPartitionResult {
  bool success = false;
  std::vector<int> bound;
  std::vector<int> free;
  int num_classes = 0;
  /// Member columns of each class of `bound` (class_groups in
  /// compatible.hpp) when BoundSetSearch counted them on its truth-table
  /// chart, empty otherwise; BoundSetSearch::classes builds on them.
  std::vector<std::vector<int>> class_groups;
  int code_bits() const {
    int bits = 0;
    while ((1 << bits) < num_classes) ++bits;
    return bits;
  }
};

}  // namespace hyde::decomp
