#include "sim_check.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

using hyde::net::Network;
using hyde::net::NodeId;
using Word = std::uint64_t;

/// Words evaluated per block; bounds memory to nodes x kBlockWords words.
constexpr std::size_t kBlockWords = 64;

/// Minterm patterns of variables 0..5 inside one 64-vector word.
constexpr Word kLanePattern[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

Word splitmix64(Word& state) {
  Word z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// One network prepared for simulation: live logic nodes in topological
/// order with their local functions, and each primary input's slot in the
/// shared input vector.
struct Compiled {
  const Network* net = nullptr;
  std::vector<NodeId> logic;
  std::vector<hyde::tt::TruthTable> tables;
  std::vector<int> input_slot;  ///< per net->inputs() index
};

Compiled compile(const Network& net,
                 const std::unordered_map<std::string, int>& slot_of) {
  Compiled c;
  c.net = &net;
  for (NodeId id : net.topo_order()) {
    if (net.node(id).kind != hyde::net::NodeKind::kLogic) continue;
    c.logic.push_back(id);
    c.tables.push_back(net.local_tt(id));
  }
  for (NodeId pi : net.inputs()) {
    const auto it = slot_of.find(net.node(pi).name);
    if (it == slot_of.end()) {
      throw std::runtime_error("input " + net.node(pi).name +
                               " missing from the other network");
    }
    c.input_slot.push_back(it->second);
  }
  return c;
}

/// Evaluates one node on \p words words: a mux tree over the truth table
/// for narrow nodes, a per-lane table lookup for wide ones.
void eval_node(const hyde::tt::TruthTable& table,
               const std::vector<const Word*>& fanin, std::size_t words,
               Word* out, std::vector<Word>& scratch) {
  const int k = table.num_vars();
  const std::vector<Word>& bits = table.words();
  if (k <= 8) {
    const std::size_t minterms = std::size_t{1} << k;
    scratch.resize(minterms);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::size_t m = 0; m < minterms; ++m) {
        scratch[m] = ((bits[m >> 6] >> (m & 63)) & 1) != 0 ? ~Word{0} : 0;
      }
      std::size_t width = minterms;
      for (int v = 0; v < k; ++v) {
        const Word x = fanin[static_cast<std::size_t>(v)][w];
        width /= 2;
        for (std::size_t j = 0; j < width; ++j) {
          scratch[j] = (x & scratch[2 * j + 1]) | (~x & scratch[2 * j]);
        }
      }
      out[w] = scratch[0];
    }
    return;
  }
  for (std::size_t w = 0; w < words; ++w) {
    Word result = 0;
    for (int lane = 0; lane < 64; ++lane) {
      std::size_t m = 0;
      for (int v = 0; v < k; ++v) {
        m |= static_cast<std::size_t>((fanin[static_cast<std::size_t>(v)][w] >> lane) & 1) << v;
      }
      result |= ((bits[m >> 6] >> (m & 63)) & 1) << lane;
    }
    out[w] = result;
  }
}

/// Simulates \p c on the shared input block \p inputs (slot-major, \p words
/// words per slot) and returns the outputs, output-major.
std::vector<Word> simulate(const Compiled& c, const std::vector<Word>& inputs,
                           std::size_t words) {
  const Network& net = *c.net;
  std::vector<Word> value(static_cast<std::size_t>(net.num_nodes()) * words, 0);
  const auto at = [&value, words](NodeId id) {
    return value.data() + static_cast<std::size_t>(id) * words;
  };
  for (std::size_t i = 0; i < net.inputs().size(); ++i) {
    std::copy_n(inputs.data() + static_cast<std::size_t>(c.input_slot[i]) * words,
                words, at(net.inputs()[i]));
  }
  std::vector<const Word*> fanin;
  std::vector<Word> scratch;
  for (std::size_t n = 0; n < c.logic.size(); ++n) {
    const NodeId id = c.logic[n];
    fanin.clear();
    for (NodeId f : net.node(id).fanins) fanin.push_back(at(f));
    eval_node(c.tables[n], fanin, words, at(id), scratch);
  }
  std::vector<Word> outputs;
  outputs.reserve(net.outputs().size() * words);
  for (const hyde::net::Output& po : net.outputs()) {
    outputs.insert(outputs.end(), at(po.driver), at(po.driver) + words);
  }
  return outputs;
}

}  // namespace

SimCheck simulate_compare(const Network& source, const Network& mapped,
                          std::uint64_t seed, int random_words) {
  SimCheck check;
  if (source.inputs().size() != mapped.inputs().size() ||
      source.outputs().size() != mapped.outputs().size()) {
    check.detail = "interface mismatch";
    return check;
  }
  std::unordered_map<std::string, int> slot_of;
  for (std::size_t i = 0; i < source.inputs().size(); ++i) {
    slot_of.emplace(source.node(source.inputs()[i]).name, static_cast<int>(i));
  }
  Compiled a;
  Compiled b;
  try {
    a = compile(source, slot_of);
    b = compile(mapped, slot_of);
  } catch (const std::exception& e) {
    check.detail = e.what();
    return check;
  }

  const int n = static_cast<int>(source.inputs().size());
  check.exhaustive = n <= kExhaustiveInputs;
  // Total 64-vector words, and the lanes of each word that carry a vector
  // (fewer than 64 only for exhaustive runs below six inputs).
  const std::size_t total_words =
      check.exhaustive ? std::max<std::size_t>(1, (std::size_t{1} << n) / 64)
                       : static_cast<std::size_t>(std::max(1, random_words));
  const Word lane_mask =
      check.exhaustive && n < 6 ? (Word{1} << (std::size_t{1} << n)) - 1 : ~Word{0};
  check.vectors = check.exhaustive ? (std::uint64_t{1} << n) : total_words * 64;

  Word rng = seed;
  std::vector<Word> inputs;
  for (std::size_t base = 0; base < total_words; base += kBlockWords) {
    const std::size_t words = std::min(kBlockWords, total_words - base);
    inputs.assign(static_cast<std::size_t>(n) * words, 0);
    for (int i = 0; i < n; ++i) {
      Word* slot = inputs.data() + static_cast<std::size_t>(i) * words;
      for (std::size_t w = 0; w < words; ++w) {
        if (!check.exhaustive) {
          slot[w] = splitmix64(rng);
        } else if (i < 6) {
          slot[w] = kLanePattern[i];
        } else {
          slot[w] = (((base + w) >> (i - 6)) & 1) != 0 ? ~Word{0} : 0;
        }
      }
    }
    const std::vector<Word> out_a = simulate(a, inputs, words);
    const std::vector<Word> out_b = simulate(b, inputs, words);
    for (std::size_t j = 0; j < out_a.size(); ++j) {
      if (((out_a[j] ^ out_b[j]) & lane_mask) != 0) {
        check.detail = "output " + std::to_string(j / words) + " differs";
        return check;
      }
    }
  }
  check.equal = true;
  return check;
}

}  // namespace perfbench
