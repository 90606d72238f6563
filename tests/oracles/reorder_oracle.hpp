/// \file reorder_oracle.hpp
/// \brief Static variable reordering by transfer-based sifting.
///
/// This module searches for a good *placement* of a function's support
/// variables and rebuilds the BDD under it in a scratch manager: greedy
/// sifting — every support variable is tried at every position, keeping the
/// best. O(n² · |BDD|) per round, intended for the ≤ 24-variable functions
/// this project handles. This rebuild-based path is the determinism oracle
/// for the in-place dynamic reorderer (Manager::reorder_sift, sift.cpp):
/// node_count_under_order must agree, level for level,
/// with the sizes the in-place sifter reports for the same order — the
/// rebuilt DAG and the swapped-in-place DAG are the same canonical ROBDD.

#pragma once

#include <vector>

#include "bdd/bdd.hpp"

namespace hyde::bdd {

struct ReorderResult {
  /// order[level] = source variable placed at that level (support vars only,
  /// topmost first).
  std::vector<int> order;
  std::size_t initial_nodes = 0;
  std::size_t final_nodes = 0;
  int rounds_used = 0;
};

/// Sifts f's support variables into a smaller order. Deterministic.
ReorderResult sift_order(Manager& mgr, const Bdd& f, int max_rounds = 2);

/// Number of nodes f would have if its support were placed in \p order
/// (order[level] = source variable).
std::size_t node_count_under_order(Manager& mgr, const Bdd& f,
                                   const std::vector<int>& order);

/// Rebuilds f in \p target with order[level] mapped to target variable
/// base + level.
Bdd apply_order(const Bdd& f, Manager& target, const std::vector<int>& order,
                int base = 0);

}  // namespace hyde::bdd
