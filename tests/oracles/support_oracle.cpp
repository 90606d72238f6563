#include "oracles/support_oracle.hpp"

#include <set>

#include "decomp/compatible.hpp"

namespace hyde::decomp {

std::vector<int> isf_support_reference(bdd::Manager& mgr, const IsfBdd& f) {
  std::set<int> vars;
  for (int v : mgr.support(f.on)) vars.insert(v);
  for (int v : mgr.support(f.dc)) vars.insert(v);
  return {vars.begin(), vars.end()};
}

IsfBdd reduce_support_reference(bdd::Manager& mgr, IsfBdd f) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (int v : isf_support_reference(mgr, f)) {
      const IsfBdd f0{mgr.cofactor(f.on, v, false), mgr.cofactor(f.dc, v, false)};
      const IsfBdd f1{mgr.cofactor(f.on, v, true), mgr.cofactor(f.dc, v, true)};
      if (columns_compatible(mgr, f0, f1)) {
        const bdd::Bdd on = f0.on | f1.on;
        const bdd::Bdd care = f0.on | f0.off() | f1.on | f1.off();
        f = IsfBdd{on, ~care};
        changed = true;
      }
    }
  }
  return f;
}

}  // namespace hyde::decomp
