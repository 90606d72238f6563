/// \file transfer.hpp
/// \brief Moving BDDs between managers (with variable renaming or arbitrary
/// substitution). Used by the network layer to build global functions and by
/// the windowed engine to move node functions into and out of windows.

#pragma once

#include <vector>

#include "bdd/bdd.hpp"

namespace hyde::bdd {

/// Transfers \p f into \p target, remapping source variable v to
/// var_map[v] (which must cover the source support; entries < 0 are
/// "unused" and may not appear in the support).
Bdd transfer(const Bdd& f, Manager& target, const std::vector<int>& var_map);

/// Transfers \p f into \p target substituting each source variable v by the
/// function subst[v], which must already live in \p target.
Bdd transfer_compose(const Bdd& f, Manager& target,
                     const std::vector<Bdd>& subst);

}  // namespace hyde::bdd
