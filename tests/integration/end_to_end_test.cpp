/// Cross-module integration and property tests: whole-flow equivalence over
/// generated circuits, BLIF round trips through the flow, mapper passes
/// preserving behaviour, and the containment theorems (4.3/4.4) checked
/// semantically against decomposition functions.

#include <gtest/gtest.h>

#include <random>

#include "baseline/flows.hpp"
#include "core/flow.hpp"
#include "decomp/partition.hpp"
#include "mapper/lutmap.hpp"
#include "mapper/xc3000.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"

namespace hyde {
namespace {

std::vector<bool> bits_of(std::uint64_t m, int n) {
  std::vector<bool> assign(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) assign[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
  return assign;
}

void expect_equiv_random(const net::Network& a, const net::Network& b,
                         int vectors, std::uint64_t seed) {
  ASSERT_EQ(a.inputs().size(), b.inputs().size());
  std::mt19937_64 rng(seed);
  const int n = static_cast<int>(a.inputs().size());
  for (int probe = 0; probe < vectors; ++probe) {
    std::vector<bool> assign(static_cast<std::size_t>(n));
    for (auto&& v : assign) v = (rng() & 1) != 0;
    ASSERT_EQ(a.eval(assign), b.eval(assign)) << "probe " << probe;
  }
}

TEST(EndToEnd, BlifThroughFlowRoundTrip) {
  // Serialize a benchmark to BLIF, parse it back, run the flow on both and
  // get equivalent results.
  const auto original = mcnc::make_circuit("rd73");
  const auto reparsed = net::read_blif_string(net::write_blif_string(original));
  const auto flow_a = core::run_flow(original, core::hyde_options(5));
  const auto flow_b = core::run_flow(reparsed, core::hyde_options(5));
  for (std::uint64_t m = 0; m < 128; ++m) {
    const auto assign = bits_of(m, 7);
    EXPECT_EQ(flow_a.network.eval(assign), flow_b.network.eval(assign));
    EXPECT_EQ(flow_a.network.eval(assign), original.eval(assign));
  }
}

TEST(EndToEnd, MapperPassesPreserveBehaviour) {
  std::mt19937_64 rng(404);
  for (int trial = 0; trial < 6; ++trial) {
    const auto input = mcnc::random_multilevel(
        std::string("t").append(std::to_string(trial)), 12, 6, 40, 2, 6,
        1000 + trial);
    auto flow = core::run_flow(input, core::hyde_options(5));
    net::Network& net = flow.network;
    expect_equiv_random(input, net, 64, trial);
    mapper::dedup_shared_nodes(net);
    expect_equiv_random(input, net, 64, trial + 100);
    mapper::collapse_into_fanouts(net, 5);
    expect_equiv_random(input, net, 64, trial + 200);
    mapper::resubstitute(net);
    expect_equiv_random(input, net, 64, trial + 300);
    EXPECT_TRUE(net.is_k_feasible(5));
  }
}

TEST(EndToEnd, CoveringNeverIncreasesLuts) {
  for (const char* name : {"rd84", "misex1", "sao2", "count"}) {
    auto flow = core::run_flow(mcnc::make_circuit(name), core::hyde_options(5));
    flow.network.sweep();
    const int before = mapper::lut_count(flow.network);
    mapper::collapse_into_fanouts(flow.network, 5);
    EXPECT_LE(mapper::lut_count(flow.network), before) << name;
  }
}

TEST(EndToEnd, ClbPackingBounds) {
  for (const char* name : {"rd84", "9sym", "misex1"}) {
    const auto result =
        baseline::run_system(mcnc::make_circuit(name), baseline::System::kHyde, 5, 64);
    ASSERT_TRUE(result.verified) << name;
    // CLBs in [ceil(luts/2), luts].
    EXPECT_GE(result.clbs, (result.luts + 1) / 2) << name;
    EXPECT_LE(result.clbs, result.luts) << name;
  }
}

TEST(EndToEnd, AllGroupChoicesEquivalent) {
  const auto input = mcnc::make_circuit("rd84");
  for (const auto choice : {core::GroupChoice::kAuto,
                            core::GroupChoice::kAlwaysHyper,
                            core::GroupChoice::kNeverHyper}) {
    core::FlowOptions options = core::hyde_options(5);
    options.group_choice = choice;
    const auto result = core::run_flow(input, options);
    for (std::uint64_t m = 0; m < 256; ++m) {
      const auto assign = bits_of(m, 8);
      ASSERT_EQ(input.eval(assign), result.network.eval(assign))
          << "choice " << static_cast<int>(choice) << " minterm " << m;
    }
  }
}

TEST(EndToEnd, AutoChoiceTracksBetterCandidate) {
  // kAuto's LUT count must be within noise of min(never, always).
  for (const char* name : {"rd84", "z4ml", "clip"}) {
    const auto input = mcnc::make_circuit(name);
    auto luts = [&input](core::GroupChoice choice) {
      core::FlowOptions options = core::hyde_options(5);
      options.group_choice = choice;
      auto flow = core::run_flow(input, options);
      mapper::dedup_shared_nodes(flow.network);
      mapper::collapse_into_fanouts(flow.network, 5);
      return mapper::lut_count(flow.network);
    };
    const int never = luts(core::GroupChoice::kNeverHyper);
    const int always = luts(core::GroupChoice::kAlwaysHyper);
    const int automatic = luts(core::GroupChoice::kAuto);
    EXPECT_LE(automatic, std::max(never, always)) << name;
    // Allow small slack: the auto decision uses created-node counts before
    // dedup/covering, which is a proxy for the final LUT count.
    EXPECT_LE(automatic, std::min(never, always) + 4) << name;
  }
}

TEST(EndToEnd, SeedStability) {
  // Different seeds change random encodings but never correctness, and the
  // default flow is deterministic for a fixed seed.
  const auto input = mcnc::make_circuit("misex1");
  const auto a = core::run_flow(input, core::hyde_options(5));
  const auto b = core::run_flow(input, core::hyde_options(5));
  EXPECT_EQ(net::write_blif_string(a.network), net::write_blif_string(b.network));
  core::FlowOptions other_seed = core::hyde_options(5);
  other_seed.seed = 777;
  const auto c = core::run_flow(input, other_seed);
  for (std::uint64_t m = 0; m < 256; ++m) {
    const auto assign = bits_of(m, 8);
    ASSERT_EQ(input.eval(assign), c.network.eval(assign));
  }
}

// --- Theorems 4.3/4.4: containment = decomposition-function reuse ---------

TEST(Containment, AlphasOfContainingPartitionServeContained) {
  // Build fb (3 distinct column patterns) and fa (a merging of fb's
  // patterns). A = Π(fa) is contained by B = Π(fb); the α's that identify
  // B's columns must also suffice for fa: whenever they agree on two bound
  // minterms, fa's patterns agree too.
  bdd::Manager mgr(8);
  const bdd::Bdd x0 = mgr.var(0), x1 = mgr.var(1);
  const bdd::Bdd y0 = mgr.var(4), y1 = mgr.var(5);
  // fb patterns per (x1 x0): 00 -> y0 ; 01 -> y1 ; 10 -> y0&y1 ; 11 -> y0.
  const bdd::Bdd fb = (~x1 & ~x0 & y0) | (~x1 & x0 & y1) | (x1 & ~x0 & y0 & y1) |
                      (x1 & x0 & y0);
  // fa merges fb's columns {00,11} and {01,10}: 00,11 -> y1 ; 01,10 -> ~y0.
  const bdd::Bdd fa = ((~x1 & ~x0) & y1) | ((x1 & x0) & y1) |
                      ((x0 ^ x1) & ~y0);

  decomp::SymbolTable symbols;
  // Partitions w.r.t. positions = bound set {x0, x1}? No: Definition 3.1's
  // partitions here index bound minterms; use positions {0,1}.
  const auto pa = decomp::make_partition(
      mgr, decomp::IsfBdd{fa, mgr.zero()}, {0, 1}, symbols);
  const auto pb = decomp::make_partition(
      mgr, decomp::IsfBdd{fb, mgr.zero()}, {0, 1}, symbols);
  EXPECT_EQ(pa.multiplicity(), 2);
  EXPECT_EQ(pb.multiplicity(), 3);
  // fa's grouping {00,11}/{01,10} is NOT coarser than fb's {00,11}/{01}/{10},
  // wait: fb groups {00,11},{01},{10}; fa groups {00,11},{01,10}. Every fb
  // group is inside an fa group -> Πa is contained by Πb.
  EXPECT_TRUE(decomp::contained_in(pa, pb));
  EXPECT_FALSE(decomp::contained_in(pb, pa));

  // Semantic check (Theorem 4.4): strict α's of fb (one code per distinct
  // fb-pattern) distinguish enough for fa.
  decomp::DecompSpec spec_b;
  spec_b.mgr = &mgr;
  spec_b.f = decomp::IsfBdd{fb, mgr.zero()};
  spec_b.bound = {0, 1};
  const auto classes_b = decomp::compute_compatible_classes(spec_b);
  ASSERT_EQ(classes_b.num_classes(), 3);
  const auto step_b = decomp::build_step(
      mgr, classes_b, spec_b.bound, {4, 5},
      decomp::identity_encoding(3), {6, 7});
  // For every pair of bound minterms with equal α values, fa's cofactors
  // must coincide.
  for (std::uint64_t m1 = 0; m1 < 4; ++m1) {
    for (std::uint64_t m2 = 0; m2 < 4; ++m2) {
      auto alpha_at = [&](std::uint64_t m) {
        std::uint32_t value = 0;
        for (std::size_t j = 0; j < step_b.alphas.size(); ++j) {
          std::vector<bool> assign(8, false);
          assign[0] = (m & 1) != 0;
          assign[1] = (m & 2) != 0;
          if (mgr.eval(step_b.alphas[j], assign)) value |= 1u << j;
        }
        return value;
      };
      if (alpha_at(m1) != alpha_at(m2)) continue;
      const bdd::Bdd cof1 = mgr.cofactor_cube(
          fa, {{0, (m1 & 1) != 0}, {1, (m1 & 2) != 0}});
      const bdd::Bdd cof2 = mgr.cofactor_cube(
          fa, {{0, (m2 & 1) != 0}, {1, (m2 & 2) != 0}});
      EXPECT_EQ(cof1, cof2) << m1 << " vs " << m2;
    }
  }
}

TEST(EndToEnd, K4AndK5OnSameSuite) {
  for (const char* name : {"rd73", "misex1"}) {
    const auto input = mcnc::make_circuit(name);
    for (int k : {4, 5}) {
      const auto result = baseline::run_system(input, baseline::System::kHyde,
                                               k, 64);
      EXPECT_TRUE(result.verified) << name << " k=" << k;
      EXPECT_TRUE(result.network.is_k_feasible(k)) << name << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace hyde
