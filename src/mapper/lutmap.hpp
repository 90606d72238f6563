/// \file lutmap.hpp
/// \brief Post-decomposition network cleanup: the stand-in for SIS's
/// xl_cover step. Deduplicates functionally identical nodes (this is where
/// α-functions shared between outputs or hyper-function copies actually
/// merge), optionally resubstitutes existing signals to shrink supports (the
/// simplified [8]-style pass), and reports LUT counts and depth.

#pragma once

#include "net/network.hpp"

namespace hyde::mapper {

/// Merges live logic nodes that compute the same local function over the
/// same fanins (fanin order canonicalized). Runs to a fixpoint interleaved
/// with sweep(). Returns the number of merged nodes.
///
/// Each pass visits the nodes in topo_order(); the first node with a given
/// key survives and a later one's readers and outputs move to it, through a
/// reader index built once per pass, so a merge touches only its readers.
/// The key is the sorted fanins plus the words of the local table permuted
/// to match, hashed. It is computed once per node and again only when the
/// node's fanins or local function change (by an earlier merge in the pass,
/// or by the sweep between passes).
int dedup_shared_nodes(net::Network& network);

/// Simplified support-minimizing resubstitution in the spirit of Sawada
/// et al. [8]: for a node f with fanin g (itself a logic node), tries to
/// eliminate another fanin x of f that g already reads, re-expressing f over
/// (fanins \ {x}). Returns the number of eliminated fanins.
int resubstitute(net::Network& network);

/// Covering pass (the xl_cover stand-in): collapses every single-fanout
/// logic node into its unique reader whenever the merged node still fits in
/// k inputs. Applied identically to every flow before counting. Returns the
/// number of collapsed nodes.
///
/// Each pass takes one topo_order() and the fanout counts as of its start,
/// and visits the nodes in that order; passes repeat, each after a sweep(),
/// until one collapses nothing. The merged table is the reader's table
/// evaluated on the inner node's table and the merged pins' variable tables,
/// word by word.
int collapse_into_fanouts(net::Network& network, int k);

/// Number of live logic LUTs (constants and single-input nodes count until
/// sweep() removes them — call sweep()/dedup first for honest numbers).
int lut_count(const net::Network& network);

/// Logic depth in LUT levels (PIs at level 0).
int network_depth(const net::Network& network);

}  // namespace hyde::mapper
