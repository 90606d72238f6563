/// Quickstart: build a Boolean network, run the HYDE flow, inspect and
/// export the mapped k-LUT network.
///
///   $ ./examples/quickstart
///
/// Walks through the three layers of the public API:
///   1. net::Network + tt::TruthTable to describe the input logic,
///   2. core::run_flow to decompose it into 5-input LUTs,
///   3. mapper::* to clean up and count, net::write_blif to export.

#include <cstdio>

#include "core/flow.hpp"
#include "mapper/lutmap.hpp"
#include "mapper/xc3000.hpp"
#include "net/blif.hpp"
#include "tt/truth_table.hpp"

int main() {
  using namespace hyde;

  // 1. Describe the logic: a 9-input majority-ish voter with two outputs.
  net::Network input("voter");
  std::vector<net::NodeId> pis;
  for (int i = 0; i < 9; ++i) {
    pis.push_back(input.add_input(std::string("x").append(std::to_string(i))));
  }
  const tt::TruthTable majority = tt::TruthTable::symmetric(9, {5, 6, 7, 8, 9});
  const tt::TruthTable near_tie = tt::TruthTable::symmetric(9, {4, 5});
  input.add_output("win", input.add_logic_tt("win", pis, majority));
  input.add_output("close", input.add_logic_tt("close", pis, near_tie));
  std::printf("input:  %s\n", input.stats().c_str());

  // 2. Decompose into 5-input LUTs with the paper's flow (compatible-class
  //    encoding + hyper-function sharing).
  const core::FlowOptions options = core::hyde_options(/*k=*/5);
  core::FlowResult flow = core::run_flow(input, options);
  std::printf("flow:   %d decomposition steps, %d hyper groups, %d encoder runs\n",
              flow.stats.decomposition_steps, flow.stats.hyper_groups,
              flow.stats.encoder_runs);

  // 3. Clean up, count, pack and export.
  mapper::dedup_shared_nodes(flow.network);
  mapper::collapse_into_fanouts(flow.network, 5);
  const auto packing = mapper::pack_xc3000(flow.network);
  std::printf("mapped: %d LUTs, depth %d, %d XC3000 CLBs (%d paired)\n",
              mapper::lut_count(flow.network),
              mapper::network_depth(flow.network), packing.num_clbs,
              packing.paired);

  // Sanity: the mapped network computes the same outputs.
  int checked = 0;
  for (std::uint64_t m = 0; m < 512; m += 37) {
    std::vector<bool> assign(9);
    for (int i = 0; i < 9; ++i) assign[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
    if (input.eval(assign) != flow.network.eval(assign)) {
      std::printf("MISMATCH at %llu\n", static_cast<unsigned long long>(m));
      return 1;
    }
    ++checked;
  }
  std::printf("verify: %d probe vectors match\n", checked);

  std::printf("\nBLIF of the mapped network:\n%s",
              net::write_blif_string(flow.network).c_str());
  return 0;
}
