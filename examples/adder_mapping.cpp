/// Maps a ripple-carry adder onto the XC3000 CLB architecture, comparing
/// HYDE against the baseline flows on the same netlist — a miniature of the
/// Table-1 experiment on a circuit whose exact function is easy to audit.

#include <cstdio>

#include "baseline/flows.hpp"
#include "tt/truth_table.hpp"

int main() {
  using namespace hyde;

  // 6-bit + 6-bit + carry-in ripple adder built from full-adder cells.
  net::Network input("adder6");
  std::vector<net::NodeId> a, b;
  for (int i = 0; i < 6; ++i) {
    a.push_back(input.add_input(std::string("a").append(std::to_string(i))));
  }
  for (int i = 0; i < 6; ++i) {
    b.push_back(input.add_input(std::string("b").append(std::to_string(i))));
  }
  const net::NodeId cin = input.add_input("cin");
  const auto sum3 = tt::TruthTable::from_lambda(3, [](std::uint64_t m) {
    return std::popcount(m) % 2 == 1;
  });
  const auto maj3 = tt::TruthTable::symmetric(3, {2, 3});
  net::NodeId carry = cin;
  for (int i = 0; i < 6; ++i) {
    const std::vector<net::NodeId> cell{a[static_cast<std::size_t>(i)],
                                        b[static_cast<std::size_t>(i)], carry};
    const std::string sum = std::string("s").append(std::to_string(i));
    input.add_output(sum, input.add_logic_tt(sum, cell, sum3));
    carry = input.add_logic_tt(std::string("c").append(std::to_string(i)),
                               cell, maj3);
  }
  input.add_output("cout", carry);
  std::printf("input: %s\n\n", input.stats().c_str());

  std::printf("%-12s | %6s %6s %6s %7s %9s\n", "system", "LUTs", "CLBs",
              "depth", "sec", "verified");
  std::printf("%s\n", std::string(56, '-').c_str());
  for (const auto system :
       {baseline::System::kSawadaLike, baseline::System::kSawadaResubLike,
        baseline::System::kImodecLike, baseline::System::kFgsynLike,
        baseline::System::kHyde}) {
    const auto result = baseline::run_system(input, system, 5, 512);
    std::printf("%-12s | %6d %6d %6d %7.3f %9s\n",
                baseline::system_name(system).c_str(), result.luts,
                result.clbs, result.depth, result.seconds,
                result.verified ? "yes" : "NO");
    if (!result.verified) return 1;
  }
  std::printf("\nThe covering pass absorbs the 3-input full-adder cells into "
              "wider LUTs; every flow lands on the same tight mapping for "
              "this regular carry chain.\n");
  return 0;
}
