#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <stdexcept>

#include "mcnc/benchmarks.hpp"

namespace hyde::mcnc {

namespace {

using net::Network;
using net::NodeId;
using tt::TruthTable;

// ---------------------------------------------------------------------------
// Exact / arithmetic circuits
// ---------------------------------------------------------------------------

/// Adds one wide node per output bit of an arithmetic word function.
Network word_function(const std::string& name, int num_inputs, int num_outputs,
                      const std::function<std::uint64_t(std::uint64_t)>& word) {
  Network net(name);
  std::vector<NodeId> pis;
  for (int i = 0; i < num_inputs; ++i) {
    pis.push_back(net.add_input("x" + std::to_string(i)));
  }
  for (int o = 0; o < num_outputs; ++o) {
    const TruthTable bit = TruthTable::from_lambda(
        num_inputs, [&word, o](std::uint64_t m) { return ((word(m) >> o) & 1) != 0; });
    const std::string out_name = "y" + std::to_string(o);
    net.add_output(out_name, net.add_logic_tt(out_name, pis, bit));
  }
  return net;
}

Network make_9sym() {
  Network net("9sym");
  std::vector<NodeId> pis;
  for (int i = 0; i < 9; ++i) pis.push_back(net.add_input("x" + std::to_string(i)));
  const NodeId f =
      net.add_logic_tt("f", pis, TruthTable::symmetric(9, {3, 4, 5, 6}));
  net.add_output("f", f);
  return net;
}

Network make_rd(const std::string& name, int bits, int out_bits) {
  return word_function(name, bits, out_bits, [](std::uint64_t m) {
    return static_cast<std::uint64_t>(std::popcount(m));
  });
}

Network make_z4ml() {
  // 3-bit + 3-bit + carry-in -> 4-bit sum (an adder slice, like the
  // original "4-bit adder" z4ml).
  return word_function("z4ml", 7, 4, [](std::uint64_t m) {
    const std::uint64_t a = m & 7, b = (m >> 3) & 7, cin = (m >> 6) & 1;
    return a + b + cin;
  });
}

Network make_5xp1() {
  // Arithmetic-PLA stand-in: Y = X^2 + X + 1 (low 10 bits) over 7-bit X.
  return word_function("5xp1", 7, 10, [](std::uint64_t m) {
    return (m * m + m + 1) & 0x3FFull;
  });
}

Network make_f51m() {
  // 4x4 multiplier (8 output bits), an arithmetic circuit of f51m's size.
  return word_function("f51m", 8, 8, [](std::uint64_t m) {
    return (m & 15) * ((m >> 4) & 15);
  });
}

Network make_clip() {
  // Signed 9-bit input clipped to the signed 5-bit range [-15, 15]
  // (the original clip is a saturator of this shape).
  return word_function("clip", 9, 5, [](std::uint64_t m) {
    int x = static_cast<int>(m & 0xFF);
    if (m & 0x100) x -= 256;  // sign bit
    const int clipped = std::clamp(x, -15, 15);
    return static_cast<std::uint64_t>(clipped) & 0x1Full;
  });
}

std::uint64_t alu_word(std::uint64_t a, std::uint64_t b, std::uint64_t op,
                       int width) {
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::uint64_t r = 0;
  std::uint64_t cout = 0;
  switch (op) {
    case 0:
      r = a + b;
      cout = (r >> width) & 1;
      r &= mask;
      break;
    case 1:
      r = a & b;
      break;
    case 2:
      r = a | b;
      break;
    case 3:
      r = a ^ b;
      break;
  }
  const std::uint64_t zero = (r == 0) ? 1 : 0;
  return r | (cout << width) | (zero << (width + 1));
}

Network make_alu2() {
  // 4-bit ALU slice: a[3:0] b[3:0] op[1:0] -> r[3:0] cout zero.
  return word_function("alu2", 10, 6, [](std::uint64_t m) {
    return alu_word(m & 15, (m >> 4) & 15, (m >> 8) & 3, 4);
  });
}

Network make_alu4() {
  // 6-bit ALU slice: a[5:0] b[5:0] op[1:0] -> r[5:0] cout zero.
  return word_function("alu4", 14, 8, [](std::uint64_t m) {
    return alu_word(m & 63, (m >> 6) & 63, (m >> 12) & 3, 6);
  });
}

// ---------------------------------------------------------------------------
// Structural circuits
// ---------------------------------------------------------------------------

Network make_count() {
  // 16-bit incrementer-with-enables: d[15:0] en[15:0] cin ctl0 ctl1.
  Network net("count");
  std::vector<NodeId> d, en;
  for (int i = 0; i < 16; ++i) d.push_back(net.add_input("d" + std::to_string(i)));
  for (int i = 0; i < 16; ++i) en.push_back(net.add_input("en" + std::to_string(i)));
  const NodeId cin = net.add_input("cin");
  const NodeId ctl0 = net.add_input("ctl0");
  const NodeId ctl1 = net.add_input("ctl1");
  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const TruthTable or2 = TruthTable::var(2, 0) | TruthTable::var(2, 1);
  const TruthTable xor2 = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
  NodeId carry = cin;
  for (int i = 0; i < 16; ++i) {
    // out_i = d_i ^ (carry & ctl0); carry' = carry & (d_i | (en_i & ctl1)).
    const NodeId gated =
        net.add_logic_tt("g" + std::to_string(i), {carry, ctl0}, and2);
    const NodeId out =
        net.add_logic_tt("s" + std::to_string(i), {d[static_cast<std::size_t>(i)], gated}, xor2);
    net.add_output("q" + std::to_string(i), out);
    const NodeId en_g =
        net.add_logic_tt("eg" + std::to_string(i), {en[static_cast<std::size_t>(i)], ctl1}, and2);
    const NodeId either =
        net.add_logic_tt("e" + std::to_string(i), {d[static_cast<std::size_t>(i)], en_g}, or2);
    carry = net.add_logic_tt("c" + std::to_string(i), {carry, either}, and2);
  }
  return net;
}

Network make_e64() {
  // 65-way priority encoder texture: out_i = x_i & !(x_0 | ... | x_{i-1}).
  Network net("e64");
  std::vector<NodeId> x;
  for (int i = 0; i < 65; ++i) {
    x.push_back(net.add_input(std::string("x").append(std::to_string(i))));
  }
  const TruthTable or2 = TruthTable::var(2, 0) | TruthTable::var(2, 1);
  const TruthTable andn2 = TruthTable::var(2, 0) & ~TruthTable::var(2, 1);
  net.add_output("o0", x[0]);
  NodeId prefix = x[0];
  for (int i = 1; i < 65; ++i) {
    const NodeId out =
        net.add_logic_tt(std::string("p").append(std::to_string(i)),
                         {x[static_cast<std::size_t>(i)], prefix}, andn2);
    net.add_output(std::string("o").append(std::to_string(i)), out);
    if (i < 64) {
      prefix = net.add_logic_tt(std::string("pre").append(std::to_string(i)),
                                {prefix, x[static_cast<std::size_t>(i)]}, or2);
    }
  }
  return net;
}

Network make_des() {
  // DES-like S-box network: 32 boxes of 6 shared inputs and 4 outputs each
  // (the same-support sharing the paper exploited by partial collapsing),
  // plus XOR combiners for the remaining outputs. 256 PIs / 245 POs.
  Network net("des");
  std::vector<NodeId> x;
  for (int i = 0; i < 256; ++i) {
    x.push_back(net.add_input(std::string("x").append(std::to_string(i))));
  }
  std::uint64_t state = 0xDE5DE5DE5ull;
  auto rnd = [&state]() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  std::vector<NodeId> sbox_outs;
  int produced = 0;
  for (int box = 0; box < 32; ++box) {
    std::vector<NodeId> support;
    for (int j = 0; j < 6; ++j) {
      support.push_back(x[static_cast<std::size_t>((box * 8 + j * 5) % 256)]);
    }
    for (int o = 0; o < 4; ++o) {
      const TruthTable fn = TruthTable::from_lambda(
          6, [&rnd](std::uint64_t) { return (rnd() & 1) != 0; });
      const std::string name = "sb" + std::to_string(box) + "_" + std::to_string(o);
      const NodeId node = net.add_logic_tt(name, support, fn);
      sbox_outs.push_back(node);
      net.add_output(name, node);
      ++produced;
    }
  }
  const TruthTable xor3 = TruthTable::var(3, 0) ^ TruthTable::var(3, 1) ^
                          TruthTable::var(3, 2);
  int combiner = 0;
  while (produced < 245) {
    const NodeId a = sbox_outs[static_cast<std::size_t>(rnd() % sbox_outs.size())];
    const NodeId b = sbox_outs[static_cast<std::size_t>(rnd() % sbox_outs.size())];
    const NodeId c = x[static_cast<std::size_t>(rnd() % 256)];
    const std::string name = "cmb" + std::to_string(combiner++);
    const NodeId node = net.add_logic_tt(name, {a, b, c}, xor3);
    net.add_output(name, node);
    ++produced;
  }
  return net;
}

Network make_c499() {
  // Single-error-correction texture (C499 is a 32-bit SEC circuit):
  // syndrome bits from XOR trees, wide decoders sharing the syndrome, and
  // output correctors d_i ^ (en & dec_i). 41 PIs / 32 POs.
  Network net("C499");
  std::vector<NodeId> d, c;
  for (int i = 0; i < 32; ++i) d.push_back(net.add_input("d" + std::to_string(i)));
  for (int j = 0; j < 8; ++j) c.push_back(net.add_input("c" + std::to_string(j)));
  const NodeId en = net.add_input("en");
  auto h = [](int i) {  // pseudo-Hamming column for data bit i
    return static_cast<unsigned>((static_cast<unsigned>(i) * 2654435761u) >> 24) & 0xFFu;
  };
  const TruthTable xor4 = TruthTable::from_lambda(4, [](std::uint64_t m) {
    return std::popcount(m) % 2 == 1;
  });
  const TruthTable xor2 = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
  std::vector<NodeId> syndrome;
  for (int j = 0; j < 8; ++j) {
    // Balanced XOR tree over the participating data bits plus the check bit.
    std::vector<NodeId> layer{c[static_cast<std::size_t>(j)]};
    for (int i = 0; i < 32; ++i) {
      if ((h(i) >> j) & 1) layer.push_back(d[static_cast<std::size_t>(i)]);
    }
    int chunk_id = 0;
    while (layer.size() > 1) {
      std::vector<NodeId> next;
      for (std::size_t p = 0; p < layer.size(); p += 4) {
        const std::size_t width = std::min<std::size_t>(4, layer.size() - p);
        if (width == 1) {
          next.push_back(layer[p]);
          continue;
        }
        std::vector<NodeId> fanins(layer.begin() + static_cast<std::ptrdiff_t>(p),
                                   layer.begin() + static_cast<std::ptrdiff_t>(p + width));
        const TruthTable fn =
            width == 4 ? xor4
                       : TruthTable::from_lambda(static_cast<int>(width),
                                                 [](std::uint64_t m) {
                                                   return std::popcount(m) % 2 == 1;
                                                 });
        next.push_back(net.add_logic_tt(
            "sx" + std::to_string(j) + "_" + std::to_string(chunk_id++), fanins, fn));
      }
      layer = std::move(next);
    }
    syndrome.push_back(layer[0]);
  }
  for (int i = 0; i < 32; ++i) {
    // Wide decoder over the 8 shared syndrome bits (same support for all i).
    const unsigned pattern = h(i);
    const TruthTable dec = TruthTable::from_lambda(8, [pattern](std::uint64_t m) {
      return m == pattern;
    });
    const NodeId dec_node =
        net.add_logic_tt("dec" + std::to_string(i), syndrome, dec);
    const TruthTable gate = TruthTable::var(2, 0) & TruthTable::var(2, 1);
    const NodeId gated =
        net.add_logic_tt("gd" + std::to_string(i), {dec_node, en}, gate);
    const NodeId out = net.add_logic_tt(
        "cor" + std::to_string(i), {d[static_cast<std::size_t>(i)], gated}, xor2);
    net.add_output("y" + std::to_string(i), out);
  }
  return net;
}

Network make_c880() {
  // 12-bit masked ALU texture (C880 is an 8-bit ALU): 60 PIs / 26 POs.
  Network net("C880");
  std::vector<NodeId> a, b, m, k;
  for (int i = 0; i < 12; ++i) a.push_back(net.add_input("a" + std::to_string(i)));
  for (int i = 0; i < 12; ++i) b.push_back(net.add_input("b" + std::to_string(i)));
  for (int i = 0; i < 12; ++i) m.push_back(net.add_input("m" + std::to_string(i)));
  std::vector<NodeId> sel;
  for (int i = 0; i < 4; ++i) sel.push_back(net.add_input("sel" + std::to_string(i)));
  for (int i = 0; i < 20; ++i) k.push_back(net.add_input("k" + std::to_string(i)));

  const TruthTable and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  const TruthTable xor4 = TruthTable::from_lambda(4, [](std::uint64_t v) {
    return std::popcount(v) % 2 == 1;
  });
  // Ripple adder with masking: full adder cells of arity 3, result AND mask.
  const TruthTable sum3 = TruthTable::from_lambda(3, [](std::uint64_t v) {
    return std::popcount(v) % 2 == 1;
  });
  const TruthTable carry3 = TruthTable::from_lambda(3, [](std::uint64_t v) {
    return std::popcount(v) >= 2;
  });
  NodeId carry = sel[3];  // carry-in doubles as a select line
  for (int i = 0; i < 12; ++i) {
    const std::vector<NodeId> cell{a[static_cast<std::size_t>(i)],
                                   b[static_cast<std::size_t>(i)], carry};
    const NodeId s = net.add_logic_tt("s" + std::to_string(i), cell, sum3);
    carry = net.add_logic_tt("c" + std::to_string(i), cell, carry3);
    const NodeId masked = net.add_logic_tt(
        "r" + std::to_string(i), {s, m[static_cast<std::size_t>(i)]}, and2);
    net.add_output("r" + std::to_string(i), masked);
  }
  net.add_output("cout", carry);
  // Logic unit: g_i = mux(sel, a&k, a|k, a^k, !a) — 5-input cells sharing sel.
  const TruthTable logic_cell = TruthTable::from_lambda(4, [](std::uint64_t v) {
    const bool av = (v & 1) != 0, kv = (v & 2) != 0;
    switch ((v >> 2) & 3) {
      case 0: return av && kv;
      case 1: return av || kv;
      case 2: return av != kv;
      default: return !av;
    }
  });
  for (int i = 0; i < 8; ++i) {
    const NodeId g = net.add_logic_tt(
        "g" + std::to_string(i),
        {a[static_cast<std::size_t>(i)], k[static_cast<std::size_t>(i)], sel[0], sel[1]},
        logic_cell);
    net.add_output("g" + std::to_string(i), g);
  }
  // Reduction outputs: parity of a, any(m), and a couple of k-mixes.
  auto tree = [&net](const std::string& prefix, const std::vector<NodeId>& leaves,
                     bool parity) {
    std::vector<NodeId> layer = leaves;
    int idx = 0;
    while (layer.size() > 1) {
      std::vector<NodeId> next;
      for (std::size_t p = 0; p < layer.size(); p += 4) {
        const std::size_t width = std::min<std::size_t>(4, layer.size() - p);
        if (width == 1) {
          next.push_back(layer[p]);
          continue;
        }
        std::vector<NodeId> fanins(layer.begin() + static_cast<std::ptrdiff_t>(p),
                                   layer.begin() + static_cast<std::ptrdiff_t>(p + width));
        const TruthTable fn = TruthTable::from_lambda(
            static_cast<int>(width), [parity](std::uint64_t v) {
              return parity ? std::popcount(v) % 2 == 1 : v != 0;
            });
        next.push_back(net.add_logic_tt(prefix + std::to_string(idx++), fanins, fn));
      }
      layer = std::move(next);
    }
    return layer[0];
  };
  net.add_output("par_a", tree("pa", a, true));
  net.add_output("any_m", tree("am", m, false));
  net.add_output("par_k", tree("pk", k, true));
  net.add_output("any_k", tree("ak", k, false));
  net.add_output("sel_mix",
                 net.add_logic_tt("selmix", {sel[0], sel[1], sel[2], sel[3]}, xor4));
  return net;
}

// ---------------------------------------------------------------------------
// Registry and paper data
// ---------------------------------------------------------------------------

using Builder = std::function<Network()>;

const std::map<std::string, Builder>& registry() {
  static const std::map<std::string, Builder> kRegistry = {
      {"5xp1", make_5xp1},
      {"9sym", make_9sym},
      {"alu2", make_alu2},
      {"alu4", make_alu4},
      {"apex4", [] { return seeded_pla("apex4", 9, 19, 9, 12, 4, 0xA4); }},
      {"apex6", [] { return random_multilevel("apex6", 135, 99, 260, 2, 7, 0xA6); }},
      {"apex7", [] { return random_multilevel("apex7", 49, 37, 110, 2, 6, 0xA7); }},
      {"b9", [] { return random_multilevel("b9", 41, 21, 80, 2, 5, 0xB9); }},
      {"clip", make_clip},
      {"count", make_count},
      {"des", make_des},
      {"duke2", [] { return seeded_pla("duke2", 22, 29, 10, 10, 4, 0xD2); }},
      {"e64", make_e64},
      {"f51m", make_f51m},
      {"misex1", [] { return seeded_pla("misex1", 8, 7, 8, 6, 4, 0x31); }},
      {"misex2", [] { return seeded_pla("misex2", 25, 18, 8, 5, 3, 0x32); }},
      {"misex3", [] { return seeded_pla("misex3", 14, 14, 14, 16, 5, 0x33); }},
      {"rd73", [] { return make_rd("rd73", 7, 3); }},
      {"rd84", [] { return make_rd("rd84", 8, 4); }},
      {"rot", [] { return random_multilevel("rot", 135, 107, 300, 2, 8, 0x407); }},
      {"sao2", [] { return seeded_pla("sao2", 10, 4, 10, 14, 4, 0x5A); }},
      {"vg2", [] { return seeded_pla("vg2", 25, 8, 12, 8, 4, 0x62); }},
      {"z4ml", make_z4ml},
      {"C499", make_c499},
      {"C880", make_c880},
  };
  return kRegistry;
}

}  // namespace

Network make_circuit(const std::string& name) {
  const auto it = registry().find(name);
  if (it == registry().end()) {
    throw std::invalid_argument("make_circuit: unknown benchmark " + name);
  }
  return it->second();
}

std::vector<std::string> all_circuits() {
  std::vector<std::string> names;
  for (const auto& [name, builder] : registry()) names.push_back(name);
  return names;
}

const std::vector<Table1Row>& paper_table1() {
  static const std::vector<Table1Row> kTable = {
      {"5xp1", 9, 9, 10, 1.3},     {"9sym", 7, 7, 6, 22.8},
      {"alu2", 46, 55, 43, 554.4}, {"alu4", 168, 56, 140, 911.7},
      {"apex6", 129, 181, 135, 108.7}, {"apex7", 41, 43, 39, 9.6},
      {"clip", 12, 18, 11, 407.2}, {"count", 26, 23, 24, 1.6},
      {"des", 489, -1, 408, 236.6}, {"duke2", 122, 85, 75, 28.0},
      {"e64", 55, 44, 48, 0.0},    {"f51m", 8, 8, 8, 10.4},
      {"misex1", 9, 8, 9, 11.8},   {"misex2", 21, 22, 22, 3.3},
      {"rd73", 5, 5, 5, 3.0},      {"rd84", 8, 8, 7, 16.0},
      {"rot", 127, 136, 125, 132.7}, {"sao2", 17, 25, 17, 117.5},
      {"vg2", 19, 17, 18, 3.6},    {"z4ml", 4, 4, 4, 2.7},
      {"C499", 50, 54, 50, 2.9},   {"C880", 81, 87, 68, 69.8},
  };
  return kTable;
}

const std::vector<Table2Row>& paper_table2() {
  static const std::vector<Table2Row> kTable = {
      {"5xp1", 15, 11, 10, 13},   {"9sym", 7, 7, 7, 6},
      {"alu2", 48, 48, 48, 50},   {"alu4", 172, 90, 56, 206},
      {"apex4", 374, 374, 374, 354}, {"apex6", 192, 161, 155, 186},
      {"apex7", 120, 61, 54, 54}, {"b9", 53, 39, 37, 36},
      {"clip", 18, 11, 14, 14},   {"count", 52, 31, 31, 31},
      {"des", -1, -1, -1, 561},   {"duke2", 175, 155, 150, 116},
      {"e64", -1, -1, -1, 80},    {"f51m", 12, 10, 8, 12},
      {"misex1", 12, 10, 10, 13}, {"misex2", 40, 36, 36, 29},
      {"misex3", 195, 213, 120, 131}, {"rd73", 8, 6, 6, 6},
      {"rd84", 12, 7, 8, 9},      {"rot", -1, -1, -1, 185},
      {"sao2", 23, 21, 21, 22},   {"vg2", 44, 21, 17, 18},
      {"z4ml", 6, 5, 4, 5},       {"C499", -1, -1, -1, 70},
      {"C880", -1, -1, -1, 81},
  };
  return kTable;
}

}  // namespace hyde::mcnc
