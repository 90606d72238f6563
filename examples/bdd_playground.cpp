/// Tour of the BDD substrate: building functions, canonical equality,
/// quantification, satisfy counts, dynamic reordering and Graphviz export.
/// (The decomposition engine sits on exactly these primitives.)

#include <cstdio>

#include "bdd/bdd.hpp"
#include "tt/truth_table.hpp"

int main() {
  using namespace hyde;
  bdd::Manager mgr(12);

  // Build a 6-pair "comparator hit" function the hard way and the easy way.
  bdd::Bdd f = mgr.zero();
  for (int i = 0; i < 6; ++i) {
    f = f | (mgr.var(i) & mgr.var(6 + i));
  }
  const tt::TruthTable table = tt::TruthTable::from_lambda(12, [](std::uint64_t m) {
    return ((m & 63) & (m >> 6)) != 0;
  });
  const bdd::Bdd g = mgr.from_truth_table(table);
  std::printf("canonical equality of two constructions: %s\n",
              f == g ? "equal" : "DIFFERENT");

  std::printf("nodes: %zu, onset minterms: %.0f of %d\n", mgr.node_count(f),
              mgr.sat_count(f, 12), 1 << 12);

  // Quantify away one side of the comparator.
  const bdd::Bdd any_b = mgr.exists(f, {6, 7, 8, 9, 10, 11});
  const bdd::Bdd a_nonzero = ~(mgr.nvar(0) & mgr.nvar(1) & mgr.nvar(2) &
                               mgr.nvar(3) & mgr.nvar(4) & mgr.nvar(5));
  std::printf("exists(b): reduces to 'a != 0': %s\n",
              any_b == a_nonzero ? "yes" : "no");

  // Dynamic reordering: the blocked order is exponential, in-place sifting
  // finds the interleaved one. Every handle stays valid; only levels move.
  const std::size_t before = mgr.node_count(f);
  mgr.reorder_sift();
  std::printf("sifting: %zu nodes -> %zu nodes; order:", before,
              mgr.node_count(f));
  for (int v : mgr.current_order()) std::printf(" x%d", v);
  std::printf("\n");

  // Graphviz dump of the small reordered BDD.
  const std::string dot = mgr.to_dot(f, "comparator");
  std::printf("\n%s", dot.c_str());
  std::printf("(pipe through `dot -Tpng` to render)\n");
  return 0;
}
