#include "decomp/varpart.hpp"

#include "decomp/search.hpp"

namespace hyde::decomp {

VarPartitionResult select_bound_set(bdd::Manager& mgr, const IsfBdd& f,
                                    const std::vector<int>& support,
                                    const VarPartitionOptions& options) {
  // One-shot engine: same greedy growth and tie-breaks as the historical
  // in-place loop (see search.hpp for the equivalence argument). Callers
  // that want the engine's counters across selects hold a BoundSetSearch of
  // their own.
  BoundSetSearch search(mgr);
  return search.select(f, support, options);
}

}  // namespace hyde::decomp
