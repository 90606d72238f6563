#include "oracles/reorder_oracle.hpp"

#include <algorithm>
#include <stdexcept>

#include "bdd/transfer.hpp"

namespace hyde::bdd {

Bdd apply_order(const Bdd& f, Manager& target, const std::vector<int>& order,
                int base) {
  const int max_source =
      order.empty() ? 0 : *std::max_element(order.begin(), order.end());
  std::vector<int> var_map(static_cast<std::size_t>(max_source) + 1, -1);
  for (std::size_t level = 0; level < order.size(); ++level) {
    var_map[static_cast<std::size_t>(order[level])] =
        base + static_cast<int>(level);
  }
  return transfer(f, target, var_map);
}

std::size_t node_count_under_order(Manager& mgr, const Bdd& f,
                                   const std::vector<int>& order) {
  mgr.check_owned(f);
  Manager scratch(std::max(1, static_cast<int>(order.size())));
  const Bdd moved = apply_order(f, scratch, order, 0);
  return scratch.node_count(moved);
}

ReorderResult sift_order(Manager& mgr, const Bdd& f, int max_rounds) {
  mgr.check_owned(f);
  ReorderResult result;
  result.order = mgr.support(f);
  result.initial_nodes = node_count_under_order(mgr, f, result.order);
  result.final_nodes = result.initial_nodes;
  const std::size_t n = result.order.size();
  if (n < 3) return result;

  for (int round = 0; round < max_rounds; ++round) {
    bool improved = false;
    ++result.rounds_used;
    // Sift variables one by one, biggest-impact-first heuristic replaced by
    // simple index order (deterministic and adequate at this scale).
    for (std::size_t pick = 0; pick < n; ++pick) {
      const int var = result.order[pick];
      std::vector<int> best_order = result.order;
      std::size_t best_nodes = result.final_nodes;
      std::vector<int> without = result.order;
      without.erase(without.begin() + static_cast<std::ptrdiff_t>(pick));
      for (std::size_t pos = 0; pos <= without.size(); ++pos) {
        std::vector<int> candidate = without;
        candidate.insert(candidate.begin() + static_cast<std::ptrdiff_t>(pos),
                         var);
        if (candidate == result.order) continue;
        const std::size_t nodes = node_count_under_order(mgr, f, candidate);
        if (nodes < best_nodes) {
          best_nodes = nodes;
          best_order = std::move(candidate);
        }
      }
      if (best_nodes < result.final_nodes) {
        result.final_nodes = best_nodes;
        result.order = std::move(best_order);
        improved = true;
      }
    }
    if (!improved) break;
  }
  return result;
}

}  // namespace hyde::bdd
