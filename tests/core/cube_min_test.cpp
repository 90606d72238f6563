/// The [3]-style cube-count-minimizing encoding baseline.

#include <gtest/gtest.h>

#include <random>

#include "core/encoder.hpp"
#include "core/flow.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/verify.hpp"
#include "tt/truth_table.hpp"

namespace hyde::core {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::decomp::IsfBdd;
using hyde::tt::TruthTable;

TEST(OnePathCount, MatchesBlifCoverSizes) {
  Manager mgr(6);
  EXPECT_DOUBLE_EQ(mgr.one_path_count(mgr.zero()), 0.0);
  EXPECT_DOUBLE_EQ(mgr.one_path_count(mgr.one()), 1.0);
  EXPECT_DOUBLE_EQ(mgr.one_path_count(mgr.var(0)), 1.0);
  // a&b | !a&c: paths a=1,b=1 and a=0,c=1 -> 2 cubes.
  const Bdd f = (mgr.var(0) & mgr.var(1)) | (~mgr.var(0) & mgr.var(2));
  EXPECT_DOUBLE_EQ(mgr.one_path_count(f), 2.0);
  // Parity of 4 variables: 8 disjoint cubes.
  const Bdd parity = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2) ^ mgr.var(3);
  EXPECT_DOUBLE_EQ(mgr.one_path_count(parity), 8.0);
}

TEST(CubeMin, NeverWorseThanItsRandomStart) {
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    Manager mgr(16);
    const Bdd f = mgr.from_truth_table(TruthTable::from_lambda(
        7, [&rng](std::uint64_t) { return (rng() % 3) == 0; }));
    decomp::DecompSpec spec;
    spec.mgr = &mgr;
    spec.f = IsfBdd{f, mgr.zero()};
    spec.bound = {0, 1, 2};
    const auto classes = decomp::compute_compatible_classes(spec);
    if (classes.num_classes() < 3) continue;
    std::vector<int> alpha_vars;
    for (int j = 0; j < classes.code_bits(); ++j) alpha_vars.push_back(10 + j);

    std::vector<IsfBdd> fns;
    for (const auto& cls : classes.classes) fns.push_back(cls.function);
    const auto cubes_of = [&](const decomp::Encoding& enc) {
      return mgr.one_path_count(
          decomp::build_image(mgr, fns, enc, alpha_vars).on);
    };
    const auto start = decomp::random_encoding(classes.num_classes(), trial);
    const auto tuned =
        encode_cube_min(mgr, classes, alpha_vars, static_cast<std::uint64_t>(trial));
    tuned.validate(classes.num_classes());
    EXPECT_LE(cubes_of(tuned), cubes_of(start)) << trial;
    // The tuned encoding still yields a correct decomposition.
    const auto step = decomp::build_step(mgr, classes, spec.bound, {3, 4, 5, 6},
                                         tuned, alpha_vars);
    EXPECT_TRUE(decomp::verify_step(mgr, spec.f, step)) << trial;
  }
}

TEST(CubeMin, FlowPolicyVerifies) {
  for (const char* name : {"rd84", "misex1", "sao2"}) {
    const auto input = mcnc::make_circuit(name);
    FlowOptions options = hyde_options(5);
    options.encoding = EncodingPolicy::kCubeCount;
    const auto flow = run_flow(input, options);
    EXPECT_TRUE(flow.network.is_k_feasible(5)) << name;
    EXPECT_TRUE(net::check_equivalence(input, flow.network).equivalent) << name;
  }
}

TEST(CubeMin, SingleClassTrivial) {
  Manager mgr(4);
  decomp::ClassResult classes;
  classes.classes.resize(1);
  classes.classes[0].function = IsfBdd{mgr.var(0), mgr.zero()};
  const auto enc = encode_cube_min(mgr, classes, {}, 1);
  EXPECT_EQ(enc.num_bits, 0);
  EXPECT_EQ(enc.codes.size(), 1u);
}

}  // namespace
}  // namespace hyde::core
