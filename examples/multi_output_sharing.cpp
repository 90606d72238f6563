/// Hyper-function decomposition on a multi-output arithmetic slice: shows
/// the ingredient encoding, the duplication source/cone analysis
/// (Definitions 4.3-4.5) and how much logic the recovered outputs share.

#include <cstdio>

#include "core/flow.hpp"
#include "core/hyper.hpp"
#include "mapper/lutmap.hpp"
#include "tt/truth_table.hpp"

int main() {
  using namespace hyde;

  // A 8-input comparator bank: four outputs over the same support.
  net::Network input("cmpbank");
  std::vector<net::NodeId> pis;
  for (int i = 0; i < 8; ++i) {
    pis.push_back(input.add_input(std::string("x").append(std::to_string(i))));
  }
  auto word = [](std::uint64_t m, int lo) { return (m >> lo) & 15; };
  const auto eq = tt::TruthTable::from_lambda(
      8, [&](std::uint64_t m) { return word(m, 0) == word(m, 4); });
  const auto lt = tt::TruthTable::from_lambda(
      8, [&](std::uint64_t m) { return word(m, 0) < word(m, 4); });
  const auto sum_par = tt::TruthTable::from_lambda(
      8, [&](std::uint64_t m) { return ((word(m, 0) + word(m, 4)) & 1) != 0; });
  const auto carry = tt::TruthTable::from_lambda(
      8, [&](std::uint64_t m) { return word(m, 0) + word(m, 4) > 15; });
  input.add_output("eq", input.add_logic_tt("eq", pis, eq));
  input.add_output("lt", input.add_logic_tt("lt", pis, lt));
  input.add_output("spar", input.add_logic_tt("spar", pis, sum_par));
  input.add_output("cout", input.add_logic_tt("cout", pis, carry));

  // Encode the four ingredients into a hyper-function by hand to inspect it.
  bdd::Manager gm(16);
  std::vector<int> pi_var{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<net::NodeId> drivers;
  for (const auto& o : input.outputs()) drivers.push_back(o.driver);
  const auto bdds = input.global_bdds(drivers, gm, pi_var);
  std::vector<decomp::IsfBdd> ingredients;
  for (const auto& b : bdds) ingredients.push_back(decomp::IsfBdd{b, gm.zero()});
  core::EncoderOptions enc_options;
  enc_options.k = 5;
  const auto hyper =
      core::build_hyper_function(gm, ingredients, pi_var, {12, 13}, enc_options);
  std::printf("hyper-function H(eta0,eta1,x0..x7) built; ingredient codes:");
  for (std::size_t i = 0; i < hyper.codes.codes.size(); ++i) {
    std::printf(" %s=%u", input.outputs()[i].name.c_str(), hyper.codes.codes[i]);
  }
  std::printf("\n");

  // Run both policies and compare.
  for (const auto choice : {core::GroupChoice::kNeverHyper,
                            core::GroupChoice::kAlwaysHyper,
                            core::GroupChoice::kAuto}) {
    core::FlowOptions options = core::hyde_options(5);
    options.group_choice = choice;
    auto flow = core::run_flow(input, options);
    mapper::dedup_shared_nodes(flow.network);
    mapper::collapse_into_fanouts(flow.network, 5);
    const char* label = choice == core::GroupChoice::kNeverHyper ? "per-output"
                        : choice == core::GroupChoice::kAlwaysHyper
                            ? "hyper     "
                            : "auto      ";
    std::printf("%s: %3d LUTs, depth %d\n", label,
                mapper::lut_count(flow.network),
                mapper::network_depth(flow.network));
  }

  // Duplication analysis of a forced hyper decomposition.
  core::FlowOptions options = core::hyde_options(5);
  options.group_choice = core::GroupChoice::kAlwaysHyper;
  auto flow = core::run_flow(input, options);
  std::printf("\nforced-hyper network recovered to %zu outputs over %zu PIs; ",
              flow.network.outputs().size(), flow.network.inputs().size());
  std::printf("equivalence: ");
  for (std::uint64_t m = 0; m < 256; ++m) {
    std::vector<bool> assign(8);
    for (int i = 0; i < 8; ++i) assign[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
    if (input.eval(assign) != flow.network.eval(assign)) {
      std::printf("FAILED at %llu\n", static_cast<unsigned long long>(m));
      return 1;
    }
  }
  std::printf("exhaustive over 256 vectors, OK\n");
  return 0;
}
