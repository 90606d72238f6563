/// \file cleanup_oracle.hpp
/// \brief The original mapper cleanup passes, kept as equivalence oracles for
/// mapper::dedup_shared_nodes and mapper::collapse_into_fanouts: the same
/// merges and collapses in the same order, and so the same network, byte for
/// byte.

#pragma once

#include "net/network.hpp"

namespace hyde::mapper {

/// dedup_shared_nodes as first written: every pass rebuilds a std::map key
/// (sorted fanins, bit string of the permuted local table) for every node
/// and redirects each merged node's readers with
/// Network::replace_everywhere, which scans the whole network; passes repeat
/// until one merges nothing, each after a sweep().
int dedup_shared_nodes_reference(net::Network& network);

/// collapse_into_fanouts as first written: every pass recomputes the
/// topological order twice and builds each merged table one minterm at a
/// time.
int collapse_into_fanouts_reference(net::Network& network, int k);

}  // namespace hyde::mapper
