// check_equivalence's word-parallel simulation against the scalar
// one-Network::eval-per-vector oracle: every EquivalenceResult field must be
// identical on both simulation paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>

#include "net/verify.hpp"
#include "oracles/equivalence_oracle.hpp"
#include "tt/truth_table.hpp"

namespace hyde::net {
namespace {

struct Shape {
  int inputs;
  int gates;
  int outputs;
  std::uint64_t seed;
};

/// A seeded random multilevel network over PIs x0..x{n-1}, declared in
/// \p pi_order. Gate g reads 1..5 earlier signals and computes a random
/// table; gate \p flip_gate (if >= 0) has its table flipped at one minterm.
/// Outputs are the last gates, plus x0 directly and a constant.
Network random_network(const Shape& shape, const std::vector<int>& pi_order,
                       int flip_gate) {
  std::mt19937_64 rng(shape.seed);
  Network net(std::string("r").append(std::to_string(shape.seed)));
  std::vector<NodeId> signal(static_cast<std::size_t>(shape.inputs));
  for (int i : pi_order) {
    signal[static_cast<std::size_t>(i)] =
        net.add_input(std::string("x").append(std::to_string(i)));
  }
  for (int g = 0; g < shape.gates; ++g) {
    const int available = static_cast<int>(signal.size());
    const int window = std::min(available, 3 * shape.inputs);
    const int arity = 1 + static_cast<int>(rng() % 5);
    std::vector<NodeId> fanins;
    for (int j = 0; j < arity; ++j) {
      fanins.push_back(signal[static_cast<std::size_t>(
          available - 1 - static_cast<int>(rng() % static_cast<std::uint64_t>(window)))]);
    }
    tt::TruthTable table = tt::TruthTable::from_lambda(
        arity, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
    const std::uint64_t minterm = rng() % (std::uint64_t{1} << arity);
    if (g == flip_gate) table.set_bit(minterm, !table.bit(minterm));
    signal.push_back(net.add_logic_tt(
        std::string("g").append(std::to_string(g)), fanins, table));
  }
  for (int o = 0; o < shape.outputs; ++o) {
    net.add_output(std::string("o").append(std::to_string(o)),
                   signal[signal.size() - 1 - static_cast<std::size_t>(o)]);
  }
  net.add_output("pi", signal[0]);
  net.add_output("zero", net.add_constant("zero", false));
  net.add_output("o0_again", signal.back());  // two outputs fail together
  return net;
}

/// PIs x0..x{n-1} declared in \p pi_order; output "hit" is 1 exactly when
/// x_i equals bit i of \p target for every i < \p width (or constant 0 when
/// \p hit is false), and output "pi" is x0.
Network minterm_network(int n, std::uint64_t target, int width,
                        const std::vector<int>& pi_order, bool hit) {
  Network net("minterm");
  std::vector<NodeId> x(static_cast<std::size_t>(n));
  for (int i : pi_order) {
    x[static_cast<std::size_t>(i)] =
        net.add_input(std::string("x").append(std::to_string(i)));
  }
  NodeId acc = net.add_constant("one", true);
  for (int i = 0; i < width && hit; ++i) {
    const tt::TruthTable literal = ((target >> i) & 1) != 0 ? tt::TruthTable::var(2, 1)
                                                            : ~tt::TruthTable::var(2, 1);
    acc = net.add_logic_tt(std::string("c").append(std::to_string(i)),
                           {acc, x[static_cast<std::size_t>(i)]},
                           tt::TruthTable::var(2, 0) & literal);
  }
  net.add_output("pi", x[0]);
  net.add_output("hit", hit ? acc : net.add_constant("zero", false));
  return net;
}

std::vector<int> shuffled(int n, std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// Compares production against the oracle; returns the production result.
EquivalenceResult expect_same(const Network& a, const Network& b,
                              const EquivalenceOptions& options,
                              const std::string& what) {
  const EquivalenceResult got = check_equivalence(a, b, options);
  const EquivalenceResult want = simulate_equivalence_reference(a, b, options);
  EXPECT_NE(got.method, EquivalenceMethod::kFormalBdd) << what;
  EXPECT_EQ(got.equivalent, want.equivalent) << what;
  EXPECT_EQ(got.method, want.method) << what;
  EXPECT_EQ(got.failing_output, want.failing_output) << what;
  EXPECT_EQ(got.counterexample, want.counterexample) << what;
  return got;
}

/// A node budget below the two constants: the formal attempt throws on its
/// first variable, so simulation decides.
EquivalenceOptions simulation_only() {
  EquivalenceOptions options;
  options.bdd_node_budget = 1;
  return options;
}

TEST(EquivalenceOracle, RandomPathMatchesScalarLoop) {
  int differing = 0, agreeing = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Shape shape{20, 70, 6, seed};
    const Network a = random_network(shape, shuffled(shape.inputs, seed + 100), -1);
    const Network b = random_network(shape, shuffled(shape.inputs, seed + 200),
                                     shape.gates - 1 - static_cast<int>(seed % 8));
    const Network same = random_network(shape, shuffled(shape.inputs, seed + 300), -1);
    for (int vectors : {1, 63, 64, 65, 256, 1100}) {
      EquivalenceOptions options = simulation_only();
      options.random_vectors = vectors;
      options.seed = seed;
      const std::string what =
          std::string("seed ")
              .append(std::to_string(seed))
              .append(", ")
              .append(std::to_string(vectors))
              .append(" vectors");
      const EquivalenceResult flipped = expect_same(a, b, options, what);
      EXPECT_EQ(flipped.method, EquivalenceMethod::kRandomSim);
      (flipped.equivalent ? agreeing : differing) += 1;
      EXPECT_TRUE(expect_same(a, same, options, what + ", unflipped").equivalent);
    }
  }
  // The sweep must exercise both verdicts.
  EXPECT_GT(differing, 0);
  EXPECT_GT(agreeing, 0);
}

TEST(EquivalenceOracle, ExhaustivePathMatchesScalarLoop) {
  int differing = 0;
  for (int inputs : {1, 3, 6, 7, 9, 12, 14}) {
    for (std::uint64_t seed = 1; seed <= (inputs == 14 ? 2u : 6u); ++seed) {
      const Shape shape{inputs, 4 * inputs + 4, 3, seed * 31 + static_cast<std::uint64_t>(inputs)};
      const Network a = random_network(shape, shuffled(inputs, 0), -1);
      const Network b = random_network(shape, shuffled(inputs, seed),
                                       shape.gates - 1 - static_cast<int>(seed % 3));
      const std::string what =
          std::to_string(inputs) + " inputs, seed " + std::to_string(seed);
      const EquivalenceResult flipped = expect_same(a, b, simulation_only(), what);
      EXPECT_EQ(flipped.method, EquivalenceMethod::kExhaustiveSim);
      if (!flipped.equivalent) ++differing;
      // Exhaustive simulation is exact: it agrees with the formal verdict.
      EXPECT_EQ(flipped.equivalent, check_equivalence(a, b).equivalent) << what;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(EquivalenceOracle, VariablesBeyondArityReadAsZero) {
  // A local function may mention manager variables past its fanin count;
  // Network::eval reads them as false, and so must the simulator.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Shape shape{16, 30, 3, seed};
    const Network a = random_network(shape, shuffled(16, seed), -1);
    Network b = random_network(shape, shuffled(16, seed + 9), -1);
    const NodeId x0 = b.find("x0");
    const NodeId x1 = b.find("x1");
    bdd::Manager& mgr = b.manager();
    mgr.ensure_vars(4);
    // (v0 & v1) | v3 over two fanins: v3 reads false, so this is x0 & x1,
    // and ~v2 reads true, so the second node is x0 too.
    const NodeId and_node =
        b.add_logic("and_beyond", {x0, x1}, (mgr.var(0) & mgr.var(1)) | mgr.var(3));
    const NodeId buf_node = b.add_logic("buf_beyond", {x0}, mgr.var(0) & ~mgr.var(2));
    Network c = random_network(shape, shuffled(16, seed + 5), -1);
    const NodeId c_and = c.add_logic_tt("and", {c.find("x0"), c.find("x1")},
                                        tt::TruthTable::var(2, 0) & tt::TruthTable::var(2, 1));
    // Outputs 0 and 2 become x0 & x1 and x0 in both b and c, so b and c
    // agree everywhere.
    b.outputs()[0].driver = and_node;
    b.outputs()[2].driver = buf_node;
    c.outputs()[0].driver = c_and;
    c.outputs()[2].driver = c.find("x0");
    for (int vectors : {64, 300}) {
      EquivalenceOptions options = simulation_only();
      options.random_vectors = vectors;
      const std::string what =
          std::string("seed ").append(std::to_string(seed));
      expect_same(a, b, options, what);
      EXPECT_TRUE(expect_same(b, c, options, what + ", b vs c").equivalent);
    }
  }
}

TEST(EquivalenceOracle, ExhaustiveFirstFailureIsTheLowestVector) {
  // Only vector `target` tells the networks apart, so it must be the
  // counterexample, whichever word and batch it falls in.
  std::mt19937_64 rng(5);
  for (int inputs : {5, 7, 10, 14}) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::uint64_t target = rng() % (std::uint64_t{1} << inputs);
      const Network a = minterm_network(inputs, target, inputs, shuffled(inputs, 3), true);
      const Network b =
          minterm_network(inputs, target, inputs, shuffled(inputs, 4 + trial), false);
      const EquivalenceResult result =
          expect_same(a, b, simulation_only(),
                      std::string("target ").append(std::to_string(target)));
      EXPECT_EQ(result.method, EquivalenceMethod::kExhaustiveSim);
      EXPECT_EQ(result.failing_output, 1);
      // The counterexample is in a's PI order: position i holds x_order[i].
      const std::vector<int> order = shuffled(inputs, 3);
      std::vector<bool> expected(static_cast<std::size_t>(inputs));
      for (int i = 0; i < inputs; ++i) {
        expected[static_cast<std::size_t>(i)] =
            ((target >> order[static_cast<std::size_t>(i)]) & 1) != 0;
      }
      EXPECT_EQ(result.counterexample, expected);
    }
  }
}

TEST(EquivalenceOracle, RandomFirstFailureCanFallLate) {
  // A 7-literal minterm is hit by about one random vector in 128, so first
  // failures land in later words and batches.
  int late = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Network a = minterm_network(24, seed * 977, 7, shuffled(24, seed), true);
    const Network b = minterm_network(24, seed * 977, 7, shuffled(24, seed + 50), false);
    for (int vectors : {65, 256, 1100}) {
      EquivalenceOptions options = simulation_only();
      options.random_vectors = vectors;
      options.seed = seed;
      expect_same(a, b, options,
                  std::string("seed ").append(std::to_string(seed)));
    }
    EquivalenceOptions options = simulation_only();
    options.random_vectors = 1100;
    options.seed = seed;
    const EquivalenceResult found = check_equivalence(a, b, options);
    if (!found.equivalent) {
      // The same check on fewer vectors misses it iff it lies beyond them.
      options.random_vectors = 64;
      if (check_equivalence(a, b, options).equivalent) ++late;
    }
  }
  EXPECT_GT(late, 0);
}

TEST(EquivalenceOracle, ExhaustiveBoundIsHonoured) {
  // 12 inputs above a bound of 10 take the random path instead.
  const Shape shape{12, 40, 4, 7};
  const Network a = random_network(shape, shuffled(12, 1), -1);
  const Network b = random_network(shape, shuffled(12, 2), shape.gates - 1);
  EquivalenceOptions options = simulation_only();
  options.exhaustive_max_inputs = 10;
  EXPECT_EQ(expect_same(a, b, options, "bound 10").method,
            EquivalenceMethod::kRandomSim);
}

}  // namespace
}  // namespace hyde::net
