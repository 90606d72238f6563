#include "net/pla.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <string>

#include "core/flow.hpp"
#include "mapper/lutmap.hpp"
#include "net/blif.hpp"

namespace hyde::net {
namespace {

/// Peak resident set of this process, in KiB.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Expects parsing \p text to throw std::runtime_error without lifting the
/// process's peak RSS by more than 64 MiB: a rejected header must fail
/// before any per-signal state is allocated.
void expect_rejected_without_allocating(const std::string& text) {
  const long before = peak_rss_kib();
  EXPECT_THROW(read_pla_string(text), std::runtime_error) << text;
  EXPECT_LT(peak_rss_kib() - before, 64L * 1024) << text;
}

constexpr const char* kSmallPla = R"(
# two-output example
.i 3
.o 2
.ilb a b c
.ob f g
.p 4
11- 10
--1 10
1-1 01
010 01
.e
)";

TEST(PlaReader, ParsesCoverSemantics) {
  const PlaModel model = read_pla_string(kSmallPla);
  EXPECT_FALSE(model.has_dont_cares);
  EXPECT_EQ(model.onset.inputs().size(), 3u);
  EXPECT_EQ(model.onset.outputs().size(), 2u);
  // f = ab + c ; g = ac + a'bc'.
  for (std::uint64_t m = 0; m < 8; ++m) {
    const bool a = m & 1, b = m & 2, c = m & 4;
    const auto out = model.onset.eval({a, b, c});
    EXPECT_EQ(out[0], (a && b) || c) << m;
    EXPECT_EQ(out[1], (a && c) || (!a && b && !c)) << m;
  }
}

TEST(PlaReader, DontCareOutputsBecomeDcNetwork) {
  const PlaModel model = read_pla_string(
      ".i 2\n.o 1\n11 1\n0- -\n.e\n");
  EXPECT_TRUE(model.has_dont_cares);
  // Onset: only 11. DC: both a=0 rows.
  EXPECT_TRUE(model.onset.eval({true, true})[0]);
  EXPECT_FALSE(model.onset.eval({false, true})[0]);
  EXPECT_TRUE(model.dont_care.eval({false, true})[0]);
  EXPECT_TRUE(model.dont_care.eval({false, false})[0]);
  EXPECT_FALSE(model.dont_care.eval({true, true})[0]);
}

TEST(PlaReader, TypeFIgnoresDashOutputs) {
  const PlaModel model = read_pla_string(
      ".i 2\n.o 1\n.type f\n11 1\n0- -\n.e\n");
  EXPECT_FALSE(model.has_dont_cares);
}

TEST(PlaReader, RejectsBadInput) {
  EXPECT_THROW(read_pla_string(".o 1\n1 1\n.e\n"), std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n.type fr\n11 1\n.e\n"),
               std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n111 1\n.e\n"), std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n11 11\n.e\n"), std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n11\n.e\n"), std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n.ilb a\n11 1\n.e\n"),
               std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n.kiss\n11 1\n.e\n"),
               std::runtime_error);
}

TEST(PlaReader, RejectsHugeCountsWithoutAllocating) {
  // 300M declared outputs and no cube: parsing once pushed 300M BDD handles
  // before any check and died with std::bad_alloc.
  expect_rejected_without_allocating(".i 4\n.o 299999999\n.e\n");
  expect_rejected_without_allocating(".i 299999999\n.o 1\n.e\n");
}

TEST(PlaReader, RejectsOverflowingAndMalformedCounts) {
  // 299999999999 overflows int: once a silently clamped count.
  expect_rejected_without_allocating(".i 4\n.o 299999999999\n.e\n");
  expect_rejected_without_allocating(
      ".i 99999999999999999999\n.o 1\n1 1\n.e\n");
  EXPECT_THROW(read_pla_string(".i -2\n.o 1\n.e\n"), std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2x\n.o 1\n11 1\n.e\n"),
               std::runtime_error);
  EXPECT_THROW(read_pla_string(".i\n.o 1\n.e\n"), std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n.p many\n11 1\n.e\n"),
               std::runtime_error);
}

TEST(PlaReader, ChecksCubeWidthsBeforeAllocating) {
  // A large declared output count that the text does cover (a long comment)
  // with one short cube: the width check rejects it up front.
  std::string text = ".i 2\n.o 6000000\n11 1\n";
  text += "# " + std::string(6000000, 'x') + "\n.e\n";
  expect_rejected_without_allocating(text);
}

TEST(PlaRoundTrip, WriteThenReadPreservesFunctions) {
  const PlaModel model = read_pla_string(kSmallPla);
  const std::string text = write_pla_string(model.onset);
  const PlaModel reparsed = read_pla_string(text);
  for (std::uint64_t m = 0; m < 8; ++m) {
    const std::vector<bool> assign{(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    EXPECT_EQ(model.onset.eval(assign), reparsed.onset.eval(assign)) << m;
  }
}

TEST(PlaRoundTrip, BlifToPlaToBlif) {
  Network net = read_blif_string(
      ".model t\n.inputs a b c d\n.outputs f\n.names a b c d f\n"
      "11-- 1\n--11 1\n.end\n");
  const PlaModel reparsed = read_pla_string(write_pla_string(net));
  for (std::uint64_t m = 0; m < 16; ++m) {
    std::vector<bool> assign(4);
    for (int i = 0; i < 4; ++i) assign[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
    EXPECT_EQ(net.eval(assign), reparsed.onset.eval(assign)) << m;
  }
}

TEST(BlifExdc, ParsesExternalDontCares) {
  const BlifModel model = read_blif_model_string(
      ".model t\n.inputs a b c\n.outputs f\n"
      ".names a b c f\n111 1\n"
      ".exdc\n.names a f\n0 1\n.end\n");
  EXPECT_TRUE(model.has_dont_cares);
  EXPECT_TRUE(model.network.eval({true, true, true})[0]);
  EXPECT_TRUE(model.dont_care.eval({false, true, true})[0]);
  EXPECT_FALSE(model.dont_care.eval({true, true, true})[0]);
  // Plain read_blif refuses the construct.
  EXPECT_THROW(read_blif_string(".model t\n.inputs a\n.outputs f\n"
                                ".names a f\n1 1\n.exdc\n.names a f\n0 1\n.end\n"),
               std::runtime_error);
}

TEST(BlifExdc, MissingExdcCoverIsConstantZero) {
  const BlifModel model = read_blif_model_string(
      ".model t\n.inputs a\n.outputs f g\n"
      ".names a f\n1 1\n.names a g\n0 1\n"
      ".exdc\n.names a f\n- 1\n.end\n");
  EXPECT_TRUE(model.dont_care.eval({true})[0]);   // f fully DC
  EXPECT_FALSE(model.dont_care.eval({true})[1]);  // g has no DC
}

TEST(ExternalDc, FlowExploitsDontCares) {
  // onset = one lonely minterm of 8 vars; care set = only 4 points.
  // With DCs the function collapses to something tiny; without them the
  // flow must implement the exact indicator.
  Network onset("t");
  std::vector<NodeId> pis;
  for (int i = 0; i < 8; ++i) pis.push_back(onset.add_input("x" + std::to_string(i)));
  const auto indicator = tt::TruthTable::minterm(8, 0xA5);
  onset.add_output("f", onset.add_logic_tt("f", pis, indicator));

  Network dc("t_dc");
  std::vector<NodeId> dc_pis;
  for (int i = 0; i < 8; ++i) dc_pis.push_back(dc.add_input("x" + std::to_string(i)));
  // Care only about minterms 0xA5, 0x00, 0xFF, 0x5A.
  const auto care = tt::TruthTable::minterm(8, 0xA5) |
                    tt::TruthTable::minterm(8, 0x00) |
                    tt::TruthTable::minterm(8, 0xFF) |
                    tt::TruthTable::minterm(8, 0x5A);
  dc.add_output("f", dc.add_logic_tt("f", dc_pis, ~care));

  auto plain = core::run_flow(onset, core::hyde_options(5));
  auto relaxed = core::run_flow(onset, core::hyde_options(5), &dc);
  mapper::dedup_shared_nodes(plain.network);
  mapper::collapse_into_fanouts(plain.network, 5);
  mapper::dedup_shared_nodes(relaxed.network);
  mapper::collapse_into_fanouts(relaxed.network, 5);
  EXPECT_LE(mapper::lut_count(relaxed.network), mapper::lut_count(plain.network));
  // The relaxed network must still be exact on the care set.
  for (std::uint64_t m : {0xA5ull, 0x00ull, 0xFFull, 0x5Aull}) {
    std::vector<bool> assign(8);
    for (int i = 0; i < 8; ++i) assign[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
    EXPECT_EQ(relaxed.network.eval(assign)[0], m == 0xA5) << m;
  }
}

TEST(ExternalDc, RejectsUnknownInputName) {
  Network onset("t");
  const NodeId a = onset.add_input("a");
  onset.add_output("f", onset.add_logic_tt("f", {a}, tt::TruthTable::var(1, 0)));
  Network dc("t_dc");
  const NodeId z = dc.add_input("zz");
  dc.add_output("f", dc.add_logic_tt("f", {z}, tt::TruthTable::var(1, 0)));
  EXPECT_THROW(core::run_flow(onset, core::hyde_options(5), &dc),
               std::invalid_argument);
}

}  // namespace
}  // namespace hyde::net
