/// The big safety net: every circuit of the benchmark registry through the
/// HYDE flow, formally verified (BDD comparison where tractable). The
/// verification method is pinned too: the formal attempt's BDD budget and
/// computed-table cap must keep choosing the same method per circuit.

#include <gtest/gtest.h>

#include "baseline/flows.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/verify.hpp"

namespace hyde {
namespace {

class SuiteSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteSweep, HydeFlowVerifies) {
  const auto input = mcnc::make_circuit(GetParam());
  const auto result =
      baseline::run_system(input, baseline::System::kHyde, 5, /*verify=*/0);
  EXPECT_TRUE(result.network.is_k_feasible(5));
  net::EquivalenceOptions options;
  options.random_vectors = 256;
  const auto eq = net::check_equivalence(input, result.network, options);
  EXPECT_TRUE(eq.equivalent) << GetParam() << " failing output "
                             << eq.failing_output;
  // Only these circuits' global BDDs outgrow the 200k-node formal budget.
  const bool too_big_for_bdds =
      GetParam() == "apex6" || GetParam() == "count" || GetParam() == "rot";
  EXPECT_EQ(eq.method, too_big_for_bdds ? net::EquivalenceMethod::kRandomSim
                                        : net::EquivalenceMethod::kFormalBdd)
      << GetParam();
  EXPECT_GT(result.luts, 0);
  EXPECT_GT(result.clbs, 0);
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, SuiteSweep,
                         ::testing::ValuesIn(mcnc::all_circuits()),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace hyde
