/// \file support_oracle.hpp
/// \brief Support reduction as the decomposer ran it on every function,
/// completely specified or not: the reference that decomp::reduce_support
/// and decomp::isf_support are checked against.

#pragma once

#include <vector>

#include "decomp/chart.hpp"

namespace hyde::decomp {

/// The on and dc supports merged through a std::set, ascending.
std::vector<int> isf_support_reference(bdd::Manager& mgr, const IsfBdd& f);

/// The cofactor loop over every function: drops each variable whose two
/// cofactors are compatible, merging them, until a pass drops nothing.
IsfBdd reduce_support_reference(bdd::Manager& mgr, IsfBdd f);

}  // namespace hyde::decomp
