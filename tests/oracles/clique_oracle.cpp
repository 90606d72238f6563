#include "oracles/clique_oracle.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyde::graph {

std::vector<std::vector<int>> clique_partition_reference(
    int n, const std::vector<std::vector<char>>& adjacent) {
  if (static_cast<int>(adjacent.size()) != n) {
    throw std::invalid_argument("clique_partition: adjacency size mismatch");
  }
  // Super-vertex state: members and pairwise adjacency between super-vertices.
  // Two super-vertices are adjacent iff every cross pair of members is
  // adjacent (so merging adjacent super-vertices keeps cliques cliques).
  std::vector<std::vector<int>> members(static_cast<std::size_t>(n));
  std::vector<char> alive(static_cast<std::size_t>(n), 1);
  std::vector<std::vector<char>> adj(static_cast<std::size_t>(n),
                                     std::vector<char>(static_cast<std::size_t>(n), 0));
  for (int i = 0; i < n; ++i) {
    members[static_cast<std::size_t>(i)] = {i};
    for (int j = 0; j < n; ++j) {
      if (i != j) {
        adj[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            adjacent[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      }
    }
  }

  auto common_neighbours = [&](int a, int b) {
    int count = 0;
    for (int k = 0; k < n; ++k) {
      if (alive[static_cast<std::size_t>(k)] && k != a && k != b &&
          adj[static_cast<std::size_t>(a)][static_cast<std::size_t>(k)] &&
          adj[static_cast<std::size_t>(b)][static_cast<std::size_t>(k)]) {
        ++count;
      }
    }
    return count;
  };

  while (true) {
    int best_a = -1, best_b = -1, best_common = -1;
    for (int a = 0; a < n; ++a) {
      if (!alive[static_cast<std::size_t>(a)]) continue;
      for (int b = a + 1; b < n; ++b) {
        if (!alive[static_cast<std::size_t>(b)]) continue;
        if (!adj[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]) continue;
        const int c = common_neighbours(a, b);
        if (c > best_common) {
          best_common = c;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_a < 0) break;
    // Merge b into a: a's members grow; a stays adjacent only to super-
    // vertices adjacent to both.
    auto& ma = members[static_cast<std::size_t>(best_a)];
    auto& mb = members[static_cast<std::size_t>(best_b)];
    ma.insert(ma.end(), mb.begin(), mb.end());
    mb.clear();
    alive[static_cast<std::size_t>(best_b)] = 0;
    for (int k = 0; k < n; ++k) {
      const char both =
          adj[static_cast<std::size_t>(best_a)][static_cast<std::size_t>(k)] &&
          adj[static_cast<std::size_t>(best_b)][static_cast<std::size_t>(k)];
      adj[static_cast<std::size_t>(best_a)][static_cast<std::size_t>(k)] = both;
      adj[static_cast<std::size_t>(k)][static_cast<std::size_t>(best_a)] = both;
      adj[static_cast<std::size_t>(best_b)][static_cast<std::size_t>(k)] = 0;
      adj[static_cast<std::size_t>(k)][static_cast<std::size_t>(best_b)] = 0;
    }
  }

  std::vector<std::vector<int>> cliques;
  for (int i = 0; i < n; ++i) {
    if (alive[static_cast<std::size_t>(i)]) {
      auto clique = members[static_cast<std::size_t>(i)];
      std::sort(clique.begin(), clique.end());
      cliques.push_back(std::move(clique));
    }
  }
  return cliques;
}

}  // namespace hyde::graph
