#include "core/hyper.hpp"

#include <gtest/gtest.h>

#include <set>

#include "tt/truth_table.hpp"

namespace hyde::core {
namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::decomp::IsfBdd;
using hyde::tt::TruthTable;

TEST(HyperFunction, RecoversIngredientsBySubstitution) {
  Manager mgr(8);
  const std::vector<IsfBdd> ingredients{
      IsfBdd{mgr.var(0) & mgr.var(1), mgr.zero()},
      IsfBdd{mgr.var(0) ^ mgr.var(2), mgr.zero()},
      IsfBdd{mgr.var(1) | mgr.var(2), mgr.zero()},
  };
  EncoderOptions options;
  const auto hyper =
      build_hyper_function(mgr, ingredients, {0, 1, 2}, {5, 6}, options);
  hyper.codes.validate(3);
  // Setting the PPIs to code i recovers ingredient i on the care set.
  for (std::size_t i = 0; i < ingredients.size(); ++i) {
    const std::uint32_t code = hyper.codes.codes[i];
    std::vector<std::pair<int, bool>> cube;
    for (std::size_t b = 0; b < hyper.ppi_vars.size(); ++b) {
      cube.emplace_back(hyper.ppi_vars[b], ((code >> b) & 1) != 0);
    }
    EXPECT_EQ(mgr.cofactor_cube(hyper.function.on, cube), ingredients[i].on);
  }
  // The unused fourth code must be a full don't-care.
  std::set<std::uint32_t> used(hyper.codes.codes.begin(), hyper.codes.codes.end());
  for (std::uint32_t c = 0; c < 4; ++c) {
    if (used.count(c) != 0) continue;
    std::vector<std::pair<int, bool>> cube;
    for (std::size_t b = 0; b < hyper.ppi_vars.size(); ++b) {
      cube.emplace_back(hyper.ppi_vars[b], ((c >> b) & 1) != 0);
    }
    EXPECT_TRUE(mgr.cofactor_cube(hyper.function.dc, cube).is_one());
  }
}

TEST(HyperFunction, PpiCountValidation) {
  Manager mgr(8);
  const std::vector<IsfBdd> three{IsfBdd{mgr.var(0), mgr.zero()},
                                  IsfBdd{mgr.var(1), mgr.zero()},
                                  IsfBdd{mgr.var(2), mgr.zero()}};
  EncoderOptions options;
  EXPECT_THROW(build_hyper_function(mgr, three, {0, 1, 2}, {5}, options),
               std::invalid_argument);
  EXPECT_THROW(build_hyper_function(mgr, {}, {}, {}, options),
               std::invalid_argument);
}

/// Builds the network of Figure-8 shape: a root mixing PPIs deep vs shallow.
struct ConeFixture {
  net::Network net{"cone"};
  net::NodeId a, b, p0, p1, n1, n2, n3, root;
};

ConeFixture make_cone_fixture() {
  // a, b real inputs; p0, p1 PPIs.
  // n1 = a & b                 (no PPI anywhere upstream)
  // n2 = n1 ^ p0               (DS, reached by p0)
  // n3 = a | p1                (DS, reached by p1)
  // root = n2 & n3             (reached by both PPIs)
  ConeFixture fx;
  fx.a = fx.net.add_input("a");
  fx.b = fx.net.add_input("b");
  fx.p0 = fx.net.add_input("p0");
  fx.p1 = fx.net.add_input("p1");
  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const TruthTable xor2 = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
  const TruthTable or2 = TruthTable::var(2, 0) | TruthTable::var(2, 1);
  fx.n1 = fx.net.add_logic_tt("n1", {fx.a, fx.b}, and2);
  fx.n2 = fx.net.add_logic_tt("n2", {fx.n1, fx.p0}, xor2);
  fx.n3 = fx.net.add_logic_tt("n3", {fx.a, fx.p1}, or2);
  fx.root = fx.net.add_logic_tt("root", {fx.n2, fx.n3}, and2);
  fx.net.add_output("H", fx.root);
  return fx;
}

TEST(Duplication, LayersMatchDefinition45) {
  ConeFixture fx = make_cone_fixture();
  const auto analysis = analyze_duplication(fx.net, {fx.p0, fx.p1});
  // DS = {n2, n3}; DC = {n2, n3, root}; n1 outside the cone.
  EXPECT_EQ(analysis.sources, (std::vector<net::NodeId>{fx.n2, fx.n3}));
  EXPECT_EQ(analysis.cone, (std::vector<net::NodeId>{fx.n2, fx.n3, fx.root}));
  EXPECT_EQ(analysis.layer[static_cast<std::size_t>(fx.n1)], 0);
  EXPECT_EQ(analysis.layer[static_cast<std::size_t>(fx.n2)], 1);  // DSet_1
  EXPECT_EQ(analysis.layer[static_cast<std::size_t>(fx.n3)], 1);  // DSet_1
  EXPECT_EQ(analysis.layer[static_cast<std::size_t>(fx.root)], 2);  // DSet_2
  // Extra copies per Definition 4.5 with 2 PPIs and 4 ingredients:
  // n2, n3 in DSet_1 -> 1 extra copy each; root in DSet_2 -> 3 extra copies.
  EXPECT_EQ(analysis.extra_copies(2, 4), 1 + 1 + 3);
  // With 3 ingredients the full-layer node duplicates only twice more.
  EXPECT_EQ(analysis.extra_copies(2, 3), 1 + 1 + 2);
}

TEST(Duplication, NoPpisMeansEmptyCone) {
  ConeFixture fx = make_cone_fixture();
  const auto analysis = analyze_duplication(fx.net, {});
  EXPECT_TRUE(analysis.sources.empty());
  EXPECT_TRUE(analysis.cone.empty());
  EXPECT_EQ(analysis.extra_copies(0, 1), 0);
}

TEST(Recovery, ProducesIngredientFunctions) {
  ConeFixture fx = make_cone_fixture();
  // The fixture computes H(p, a, b) = (n1 ^ p0) & (a | p1). Treat the four
  // PPI codes as four ingredients.
  decomp::Encoding codes;
  codes.num_bits = 2;
  codes.codes = {0, 1, 2, 3};
  const auto roots = recover_ingredients(fx.net, fx.root, {fx.p0, fx.p1}, codes);
  ASSERT_EQ(roots.size(), 4u);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    fx.net.add_output(std::string("f").append(std::to_string(i)), roots[i]);
  }
  // Drop the original hyper output so the PPI cone can die.
  fx.net.outputs().erase(fx.net.outputs().begin());
  fx.net.sweep();
  fx.net.drop_unused_inputs({fx.p0, fx.p1});
  ASSERT_EQ(fx.net.inputs().size(), 2u);
  // Check each recovered output against the spec for all (a, b).
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      const bool n1 = (a != 0) && (b != 0);
      const auto out = fx.net.eval({a != 0, b != 0});
      for (std::uint32_t code = 0; code < 4; ++code) {
        const bool p0 = (code & 1) != 0, p1 = (code & 2) != 0;
        const bool expected = (n1 ^ p0) && ((a != 0) || p1);
        EXPECT_EQ(out[code], expected) << "a" << a << " b" << b << " code" << code;
      }
    }
  }
  // Sharing: n1 is outside the cone, so it must not have been duplicated.
  int n1_like = 0;
  for (net::NodeId id = 0; id < fx.net.num_nodes(); ++id) {
    const auto& node = fx.net.node(id);
    if (!node.dead && node.kind == net::NodeKind::kLogic &&
        node.fanins.size() == 2 && node.name.substr(0, 2) == "n1") {
      ++n1_like;
    }
  }
  EXPECT_LE(n1_like, 1);
}

TEST(Recovery, RootOutsideConeIsShared) {
  // If the hyper root does not depend on PPIs all ingredients share it.
  net::Network net("t");
  const auto a = net.add_input("a");
  const auto p = net.add_input("p");
  const auto root = net.add_logic_tt("r", {a}, ~TruthTable::var(1, 0));
  net.add_output("H", root);
  decomp::Encoding codes;
  codes.num_bits = 1;
  codes.codes = {0, 1};
  const auto roots = recover_ingredients(net, root, {p}, codes);
  EXPECT_EQ(roots[0], root);
  EXPECT_EQ(roots[1], root);
}

}  // namespace
}  // namespace hyde::core
