#include "net/blif.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <random>

namespace hyde::net {
namespace {

constexpr const char* kAdderBlif = R"(
# a tiny full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
)";

TEST(BlifReader, ParsesFullAdder) {
  Network net = read_blif_string(kAdderBlif);
  EXPECT_EQ(net.model_name(), "fa");
  EXPECT_EQ(net.inputs().size(), 3u);
  EXPECT_EQ(net.outputs().size(), 2u);
  EXPECT_EQ(net.num_logic_nodes(), 2);
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int c = 0; c < 2; ++c) {
        const auto out = net.eval({a != 0, b != 0, c != 0});
        EXPECT_EQ(out[0], ((a + b + c) & 1) != 0);
        EXPECT_EQ(out[1], a + b + c >= 2);
      }
    }
  }
}

TEST(BlifReader, HandlesZeroPhaseCover) {
  // f is defined by its offset: f=0 iff a=1,b=1, so f = !(a&b).
  Network net = read_blif_string(
      ".model t\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n");
  EXPECT_TRUE(net.eval({false, false})[0]);
  EXPECT_TRUE(net.eval({true, false})[0]);
  EXPECT_FALSE(net.eval({true, true})[0]);
}

TEST(BlifReader, HandlesConstants) {
  Network net = read_blif_string(
      ".model t\n.inputs a\n.outputs c1 c0\n.names c1\n1\n.names c0\n.end\n");
  const auto out = net.eval({false});
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
}

TEST(BlifReader, LineContinuation) {
  Network net = read_blif_string(
      ".model t\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n");
  EXPECT_EQ(net.inputs().size(), 2u);
  EXPECT_TRUE(net.eval({true, true})[0]);
}

TEST(BlifReader, OutOfOrderDefinitions) {
  // g references h which is defined later.
  Network net = read_blif_string(
      ".model t\n.inputs a b\n.outputs g\n"
      ".names h a g\n11 1\n.names b h\n0 1\n.end\n");
  EXPECT_TRUE(net.eval({true, false})[0]);
  EXPECT_FALSE(net.eval({true, true})[0]);
}

TEST(BlifReader, RejectsLatches) {
  EXPECT_THROW(
      read_blif_string(".model t\n.inputs a\n.outputs q\n.latch a q\n.end\n"),
      std::runtime_error);
}

TEST(BlifReader, RejectsUndefinedSignal) {
  EXPECT_THROW(read_blif_string(".model t\n.inputs a\n.outputs f\n.end\n"),
               std::runtime_error);
}

TEST(BlifReader, RejectsDoubleDefinition) {
  EXPECT_THROW(read_blif_string(".model t\n.inputs a\n.outputs f\n"
                                ".names a f\n1 1\n.names a f\n0 1\n.end\n"),
               std::runtime_error);
}

TEST(BlifReader, RejectsMixedPhases) {
  EXPECT_THROW(read_blif_string(".model t\n.inputs a b\n.outputs f\n"
                                ".names a b f\n11 1\n00 0\n.end\n"),
               std::runtime_error);
}

TEST(BlifReader, RejectsBadCube) {
  EXPECT_THROW(read_blif_string(".model t\n.inputs a b\n.outputs f\n"
                                ".names a b f\n1 1\n.end\n"),
               std::runtime_error);
}

/// Runs \p fn expecting a std::runtime_error whose message carries the
/// 1-based \p line and the offending \p token.
template <typename Fn>
void expect_error_at(Fn fn, int line, const std::string& token) {
  try {
    fn();
    FAIL() << "expected a parse error at line " << line;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::string("line ").append(std::to_string(line))),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("'" + token + "'"), std::string::npos) << what;
  }
}

TEST(BlifReader, ErrorsCarryLineAndToken) {
  // .latch rejected in strict mode, with its own line.
  expect_error_at(
      [] {
        read_blif_string(
            ".model t\n.inputs a\n.outputs q\n.latch a q\n.end\n");
      },
      4, ".latch");
  // Bad cover row inside a block.
  expect_error_at(
      [] {
        read_blif_string(".model t\n.inputs a b\n.outputs f\n"
                         ".names a b f\n11 1\n1 1\n.end\n");
      },
      6, "1");
  // Cover row with no enclosing .names.
  expect_error_at(
      [] { read_blif_string(".model t\n.inputs a\n.outputs f\n11 1\n.end\n"); },
      4, "11");
  // Signal defined twice: blamed on the second .names line.
  expect_error_at(
      [] {
        read_blif_string(".model t\n.inputs a\n.outputs f\n"
                         ".names a f\n1 1\n.names a f\n0 1\n.end\n");
      },
      6, "f");
  // Undefined PO: blamed on the .outputs line.
  expect_error_at(
      [] { read_blif_string(".model t\n.inputs a\n.outputs f\n.end\n"); }, 3,
      "f");
  // Undefined fanin: blamed on the .names line that references it.
  expect_error_at(
      [] {
        read_blif_string(".model t\n.inputs a\n.outputs f\n"
                         ".names a ghost f\n11 1\n.end\n");
      },
      4, "ghost");
  // .subckt stays unsupported.
  expect_error_at(
      [] {
        read_blif_string(".model t\n.inputs a\n.outputs f\n"
                         ".subckt sub x=a y=f\n.end\n");
      },
      4, ".subckt");
}

TEST(BlifReader, ContinuationKeepsFirstLineNumber) {
  // The bad row is a logical line starting on physical line 4.
  expect_error_at(
      [] {
        read_blif_string(".model t\n.inputs a b\n.outputs f\n"
                         ".names a \\\nb f\n11 1\n111 1\n.end\n");
      },
      7, "111");
}

constexpr const char* kLatchBlif = R"(
.model seq
.inputs clk a
.outputs q
.latch n1 s0 re clk 0
.names a s0 n1
11 1
.names s0 a q
10 1
01 1
.end
)";

TEST(BlifReader, LatchCombinationalCoreExtractsRegisters) {
  BlifReadOptions options;
  options.latch_combinational = true;
  BlifModel model = read_blif_model_string(kLatchBlif, options);
  EXPECT_EQ(model.latches, 1);
  const Network& net = model.network;
  // PIs: clk, a, plus latch output s0. POs: q, plus latch input n1.
  ASSERT_EQ(net.inputs().size(), 3u);
  EXPECT_EQ(net.node(net.inputs()[2]).name, "s0");
  ASSERT_EQ(net.outputs().size(), 2u);
  EXPECT_EQ(net.outputs()[0].name, "q");
  EXPECT_EQ(net.outputs()[1].name, "n1");
  // n1 = a & s0, q = a XOR s0 on the combinational core.
  for (int a = 0; a < 2; ++a) {
    for (int s0 = 0; s0 < 2; ++s0) {
      const auto out = net.eval({false, a != 0, s0 != 0});
      EXPECT_EQ(out[0], (a != 0) != (s0 != 0));
      EXPECT_EQ(out[1], a != 0 && s0 != 0);
    }
  }
}

TEST(BlifReader, LatchShortLineRejected) {
  BlifReadOptions options;
  options.latch_combinational = true;
  expect_error_at(
      [&options] {
        read_blif_model_string(".model t\n.inputs a\n.outputs q\n.latch x\n.end\n",
                               options);
      },
      4, ".latch");
}

TEST(BlifReader, LatchOutputClashesAreRejected) {
  BlifReadOptions options;
  options.latch_combinational = true;
  // Latch output also defined by .names.
  expect_error_at(
      [&options] {
        read_blif_model_string(".model t\n.inputs a\n.outputs q\n"
                               ".latch q s\n.names a s\n1 1\n.names s q\n1 1\n"
                               ".end\n",
                               options);
      },
      4, "s");
  // Latch output already a primary input.
  expect_error_at(
      [&options] {
        read_blif_model_string(".model t\n.inputs a s\n.outputs q\n"
                               ".latch q s\n.names a q\n1 1\n.end\n",
                               options);
      },
      4, "s");
}

TEST(BlifReader, CombinationalCycleIsATypedError) {
  std::ifstream in(std::string(HYDE_BLIF_FIXTURE_DIR) + "/bad_cycle.blif");
  ASSERT_TRUE(in.good());
  try {
    read_blif(in);
    FAIL() << "cycle accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("combinational cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("line 6"), std::string::npos) << what;  // .names o y
    EXPECT_NE(what.find("'o'"), std::string::npos) << what;
  }
}

TEST(BlifReader, DeepChainParsesWithoutRecursion) {
  constexpr int kDepth = 200000;
  std::string text = std::string(".model chain\n.inputs x0\n.outputs x")
                         .append(std::to_string(kDepth))
                         .append("\n");
  for (int i = 1; i <= kDepth; ++i) {
    text.append(".names x")
        .append(std::to_string(i - 1))
        .append(" x")
        .append(std::to_string(i))
        .append("\n1 1\n");
  }
  text += ".end\n";
  const Network net = read_blif_string(text);
  EXPECT_EQ(net.num_logic_nodes(), kDepth);
  const std::vector<NodeId> order = net.topo_order();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kDepth) + 1);
  // Fanins come first, so the chain is in creation order.
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<NodeId>(i));
  }
  EXPECT_TRUE(net.eval({true})[0]);
  EXPECT_FALSE(net.eval({false})[0]);
}

TEST(BlifRoundTrip, FullAdderSurvives) {
  Network net = read_blif_string(kAdderBlif);
  const std::string text = write_blif_string(net);
  Network reparsed = read_blif_string(text);
  for (std::uint64_t m = 0; m < 8; ++m) {
    const std::vector<bool> assign{(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    EXPECT_EQ(net.eval(assign), reparsed.eval(assign)) << "minterm " << m;
  }
}

TEST(BlifRoundTrip, RandomNetworksSurvive) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Network net("rand");
    std::vector<NodeId> pool;
    const int num_pis = 3 + static_cast<int>(rng() % 3);
    for (int i = 0; i < num_pis; ++i) {
      pool.push_back(
          net.add_input(std::string("pi").append(std::to_string(i))));
    }
    const int num_nodes = 3 + static_cast<int>(rng() % 6);
    for (int i = 0; i < num_nodes; ++i) {
      const int arity = 1 + static_cast<int>(rng() % 3);
      std::vector<NodeId> fanins;
      for (int j = 0; j < arity; ++j) {
        fanins.push_back(pool[rng() % pool.size()]);
      }
      const auto table = tt::TruthTable::from_lambda(
          arity, [&rng](std::uint64_t) { return (rng() & 1) != 0; });
      pool.push_back(net.add_logic_tt(
          std::string("n").append(std::to_string(i)), fanins, table));
    }
    net.add_output("out", pool.back());
    Network reparsed = read_blif_string(write_blif_string(net));
    for (int probe = 0; probe < 32; ++probe) {
      std::vector<bool> assign(static_cast<std::size_t>(num_pis));
      for (auto&& a : assign) a = (rng() & 1) != 0;
      EXPECT_EQ(net.eval(assign), reparsed.eval(assign));
    }
  }
}

TEST(BlifWriter, EmitsOutputBufferWhenNamesDiffer) {
  Network net("t");
  const NodeId a = net.add_input("a");
  net.add_output("renamed", a);
  const std::string text = write_blif_string(net);
  EXPECT_NE(text.find(".names a renamed"), std::string::npos);
  Network reparsed = read_blif_string(text);
  EXPECT_TRUE(reparsed.eval({true})[0]);
  EXPECT_FALSE(reparsed.eval({false})[0]);
}

}  // namespace
}  // namespace hyde::net
