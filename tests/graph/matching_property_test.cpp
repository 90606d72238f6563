/// \file matching_property_test.cpp
/// \brief Randomized property tests for the graph algorithms behind class
/// grouping and chart assembly: the incremental packed-bitset
/// clique_partition must reproduce the recount-from-scratch reference
/// partition exactly (same cliques, same order), max_weight_b_matching /
/// Edmonds blossom matching must match exhaustive brute force on every small
/// seeded instance, and the blossom must return the textbook reference
/// matcher's mate vector element for element.

#include "graph/matching.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "oracles/clique_oracle.hpp"
#include "oracles/matching_oracle.hpp"

namespace hyde::graph {
namespace {

std::vector<std::vector<char>> random_adjacency(std::mt19937_64& rng, int n,
                                                int edge_denominator) {
  std::vector<std::vector<char>> adj(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng() % static_cast<std::uint64_t>(edge_denominator) == 0) {
        adj[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
        adj[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = 1;
      }
    }
  }
  return adj;
}

TEST(CliquePartitionEquivalence, IncrementalMatchesReferenceOnRandomGraphs) {
  // The incremental engine must be *partition-identical* to the reference,
  // not merely valid: the flow's class order (hence encodings and networks)
  // depends on the exact cliques in their exact order.
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 24);
    const int denominator = 2 + static_cast<int>(rng() % 4);
    const auto adj = random_adjacency(rng, n, denominator);
    EXPECT_EQ(clique_partition(n, adj), clique_partition_reference(n, adj))
        << "trial " << trial << " n=" << n;
  }
}

TEST(CliquePartitionEquivalence, DenseAndSparseExtremes) {
  for (int n : {1, 2, 3, 8, 17, 33, 64, 65}) {
    std::vector<std::vector<char>> empty(
        static_cast<std::size_t>(n),
        std::vector<char>(static_cast<std::size_t>(n), 0));
    EXPECT_EQ(clique_partition(n, empty), clique_partition_reference(n, empty))
        << "empty n=" << n;
    std::vector<std::vector<char>> complete = empty;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j) {
          complete[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
              1;
        }
      }
    }
    EXPECT_EQ(clique_partition(n, complete),
              clique_partition_reference(n, complete))
        << "complete n=" << n;
  }
}

TEST(BMatchingProperty, OptimalOnSeededRandomInstances) {
  // Independent of matching_test's sweep: denser weight range, capacities up
  // to 3, and instances where edges repeat a (left, right) pair.
  std::mt19937_64 rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const int nl = 1 + static_cast<int>(rng() % 5);
    const int nr = 1 + static_cast<int>(rng() % 3);
    std::vector<int> cap(static_cast<std::size_t>(nr));
    for (auto& c : cap) c = 1 + static_cast<int>(rng() % 3);
    std::vector<BMatchEdge> edges;
    const int num_edges = static_cast<int>(rng() % 9);
    for (int e = 0; e < num_edges; ++e) {
      edges.push_back({static_cast<int>(rng() % static_cast<std::uint64_t>(nl)),
                       static_cast<int>(rng() % static_cast<std::uint64_t>(nr)),
                       static_cast<double>(1 + rng() % 20)});
    }
    // Brute force: every left vertex picks one incident edge or none.
    double best = 0.0;
    std::vector<int> choice(static_cast<std::size_t>(nl), -1);
    std::function<void(int, double)> enumerate = [&](int left, double acc) {
      if (left == nl) {
        best = std::max(best, acc);
        return;
      }
      enumerate(left + 1, acc);
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].left != left) continue;
        int used = 0;
        for (int prev = 0; prev < left; ++prev) {
          if (choice[static_cast<std::size_t>(prev)] >= 0 &&
              edges[static_cast<std::size_t>(
                        choice[static_cast<std::size_t>(prev)])].right ==
                  edges[e].right) {
            ++used;
          }
        }
        if (used < cap[static_cast<std::size_t>(edges[e].right)]) {
          choice[static_cast<std::size_t>(left)] = static_cast<int>(e);
          enumerate(left + 1, acc + edges[e].weight);
          choice[static_cast<std::size_t>(left)] = -1;
        }
      }
    };
    enumerate(0, 0.0);
    const auto result = max_weight_b_matching(nl, nr, cap, edges);
    EXPECT_DOUBLE_EQ(result.total_weight, best) << "trial " << trial;
  }
}

TEST(BlossomProperty, MaximumOnSeededGraphsUpToEight) {
  // Every n <= 8 with a fresh seeded edge set per trial; includes the dense
  // regime (denominator 2) where blossom contractions are common.
  std::mt19937_64 rng(90210);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 7);
    const int denominator = 2 + static_cast<int>(rng() % 2);
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng() % static_cast<std::uint64_t>(denominator) == 0) {
          edges.emplace_back(i, j);
        }
      }
    }
    int best = 0;
    std::function<void(std::size_t, std::vector<char>&, int)> enumerate =
        [&](std::size_t e, std::vector<char>& used, int size) {
          best = std::max(best, size);
          if (e == edges.size()) return;
          enumerate(e + 1, used, size);
          auto [u, v] = edges[e];
          if (!used[static_cast<std::size_t>(u)] &&
              !used[static_cast<std::size_t>(v)]) {
            used[static_cast<std::size_t>(u)] = 1;
            used[static_cast<std::size_t>(v)] = 1;
            enumerate(e + 1, used, size + 1);
            used[static_cast<std::size_t>(u)] = 0;
            used[static_cast<std::size_t>(v)] = 0;
          }
        };
    std::vector<char> used(static_cast<std::size_t>(n), 0);
    enumerate(0, used, 0);
    const auto mate = max_cardinality_matching(n, edges);
    int matched = 0;
    for (int v = 0; v < n; ++v) {
      if (mate[static_cast<std::size_t>(v)] >= 0) ++matched;
    }
    EXPECT_EQ(matched / 2, best) << "trial " << trial << " n=" << n;
  }
}

/// Random edge list in random order: each unordered pair present with
/// probability 1/denominator, listed as (u, v) or (v, u); plus duplicates
/// and self loops when \p noisy.
std::vector<std::pair<int, int>> random_edge_list(std::mt19937_64& rng, int n,
                                                  int denominator,
                                                  bool noisy) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng() % static_cast<std::uint64_t>(denominator) != 0) continue;
      if (rng() % 2 == 0) {
        edges.emplace_back(i, j);
      } else {
        edges.emplace_back(j, i);
      }
    }
  }
  if (noisy && n > 0) {
    const std::size_t extra = edges.size() / 8 + 1;
    for (std::size_t k = 0; k < extra; ++k) {
      const int v = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
      edges.emplace_back(v, v);
      if (!edges.empty()) edges.push_back(edges[rng() % edges.size()]);
    }
  }
  std::shuffle(edges.begin(), edges.end(), rng);
  return edges;
}

TEST(BlossomIdentity, MateMatchesReferenceOnRandomSparseAndDenseGraphs) {
  std::mt19937_64 rng(31337);
  for (int trial = 0; trial < 120; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 300);
    // Denominators from dense (2) to sparse (~n/2: average degree ~2).
    const auto sparse = static_cast<std::uint64_t>(std::max(1, n / 2));
    const int denominator = trial % 3 == 0
                                ? 2 + static_cast<int>(rng() % 3)
                                : 2 + static_cast<int>(rng() % sparse);
    const auto edges = random_edge_list(rng, n, denominator, trial % 2 == 1);
    EXPECT_EQ(max_cardinality_matching(n, edges),
              max_cardinality_matching_reference(n, edges))
        << "trial " << trial << " n=" << n << " 1/" << denominator;
  }
}

TEST(BlossomIdentity, MateMatchesReferenceOnSmallNoisyGraphs) {
  // Many small instances: blossoms nest often and every tie-break shows.
  std::mt19937_64 rng(8675309);
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 14);
    const int denominator = 1 + static_cast<int>(rng() % 4);
    const auto edges = random_edge_list(rng, n, denominator, trial % 2 == 0);
    EXPECT_EQ(max_cardinality_matching(n, edges),
              max_cardinality_matching_reference(n, edges))
        << "trial " << trial << " n=" << n;
  }
}

TEST(BlossomIdentity, MateMatchesReferenceOnCompleteAndIsolatedGraphs) {
  for (int n : {0, 1, 2, 3, 7, 8, 31, 64, 129}) {
    EXPECT_EQ(max_cardinality_matching(n, {}),
              max_cardinality_matching_reference(n, {}))
        << "empty n=" << n;
    std::vector<std::pair<int, int>> complete;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) complete.emplace_back(i, j);
    }
    EXPECT_EQ(max_cardinality_matching(n, complete),
              max_cardinality_matching_reference(n, complete))
        << "complete n=" << n;
    // The same clique on the odd vertices, with every even vertex isolated.
    std::vector<std::pair<int, int>> odd_clique;
    for (int i = 1; i < n; i += 2) {
      for (int j = i + 2; j < n; j += 2) odd_clique.emplace_back(j, i);
    }
    EXPECT_EQ(max_cardinality_matching(n, odd_clique),
              max_cardinality_matching_reference(n, odd_clique))
        << "odd clique n=" << n;
  }
}

TEST(BlossomIdentity, CsrEntryPointMatchesEdgeListEntryPoint) {
  std::mt19937_64 rng(1999);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 60);
    const auto edges = random_edge_list(rng, n, 3, false);
    CsrGraph graph;
    std::vector<std::vector<int>> rows(static_cast<std::size_t>(n));
    for (const auto& [u, v] : edges) {
      rows[static_cast<std::size_t>(u)].push_back(v);
      rows[static_cast<std::size_t>(v)].push_back(u);
    }
    for (const auto& row : rows) {
      graph.neighbours.insert(graph.neighbours.end(), row.begin(), row.end());
      graph.offsets.push_back(graph.neighbours.size());
    }
    EXPECT_EQ(max_cardinality_matching(graph),
              max_cardinality_matching_reference(n, edges))
        << "trial " << trial;
  }
}

TEST(BlossomIdentity, RejectsOutOfRangeEdges) {
  EXPECT_THROW(max_cardinality_matching(3, {{0, 3}}), std::invalid_argument);
  EXPECT_THROW(max_cardinality_matching(3, {{-1, 1}}), std::invalid_argument);
}

}  // namespace
}  // namespace hyde::graph
