/// Randomized cross-preset fuzzing of the whole flow with formal
/// verification: every (circuit shape × preset × k) cell must produce a
/// k-feasible network proven equivalent by BDD comparison.

#include <gtest/gtest.h>

#include <random>

#include "core/flow.hpp"
#include "mapper/lutmap.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/verify.hpp"
#include "tt/truth_table.hpp"

namespace hyde::core {
namespace {

net::Network random_circuit(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int shape = static_cast<int>(seed % 3);
  if (shape == 0) {
    // Flat multi-output truth tables (collapse mode).
    net::Network net(std::string("flat").append(std::to_string(seed)));
    const int n = 6 + static_cast<int>(rng() % 3);
    std::vector<net::NodeId> pis;
    for (int i = 0; i < n; ++i) {
      pis.push_back(net.add_input(std::string("x").append(std::to_string(i))));
    }
    const int outs = 1 + static_cast<int>(rng() % 4);
    for (int o = 0; o < outs; ++o) {
      const auto t = tt::TruthTable::from_lambda(
          n, [&rng](std::uint64_t) { return (rng() % 3) == 0; });
      const std::string name = std::string("f").append(std::to_string(o));
      net.add_output(name, net.add_logic_tt(name, pis, t));
    }
    return net;
  }
  if (shape == 1) {
    return mcnc::random_multilevel(
        std::string("ml").append(std::to_string(seed)), 10, 4, 25, 2, 6, seed);
  }
  return mcnc::seeded_pla(std::string("pla").append(std::to_string(seed)), 9,
                          6, 8, 8, 3, seed);
}

struct FuzzCase {
  std::uint64_t seed;
  int k;
  int preset;  // 0 hyde, 1 fgsyn, 2 imodec, 3 sawada
};

class FlowFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FlowFuzz, FormallyEquivalentAndFeasible) {
  const auto [seed, k, preset] = GetParam();
  const net::Network input = random_circuit(seed);
  FlowOptions options;
  switch (preset) {
    case 0: options = hyde_options(k); break;
    case 1: options = fgsyn_like_options(k); break;
    case 2: options = imodec_like_options(k); break;
    default: options = sawada_like_options(k); break;
  }
  options.seed = seed;
  auto flow = run_flow(input, options);
  mapper::dedup_shared_nodes(flow.network);
  mapper::collapse_into_fanouts(flow.network, k);
  ASSERT_TRUE(flow.network.is_k_feasible(k));
  const auto eq = net::check_equivalence(input, flow.network);
  EXPECT_TRUE(eq.equivalent)
      << "seed=" << seed << " k=" << k << " preset=" << preset
      << " failing output " << eq.failing_output;
  EXPECT_EQ(eq.method, net::EquivalenceMethod::kFormalBdd);
}

std::vector<FuzzCase> fuzz_matrix() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull, 66ull}) {
    for (int k : {4, 5}) {
      for (int preset = 0; preset < 4; ++preset) {
        cases.push_back({seed, k, preset});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, FlowFuzz, ::testing::ValuesIn(fuzz_matrix()),
                         [](const ::testing::TestParamInfo<FuzzCase>& param_info) {
                           return std::string("s")
                               .append(std::to_string(param_info.param.seed))
                               .append("k")
                               .append(std::to_string(param_info.param.k))
                               .append("p")
                               .append(std::to_string(param_info.param.preset));
                         });

}  // namespace
}  // namespace hyde::core
