#include "core/hyper.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace hyde::core {

namespace {

int bits_for(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

}  // namespace

HyperFunction build_hyper_function(bdd::Manager& mgr,
                                   const std::vector<decomp::IsfBdd>& ingredients,
                                   const std::vector<int>& input_vars,
                                   const std::vector<int>& ppi_vars,
                                   const EncoderOptions& options,
                                   bool use_encoder) {
  const int n = static_cast<int>(ingredients.size());
  if (n == 0) {
    throw std::invalid_argument("build_hyper_function: no ingredients");
  }
  if (static_cast<int>(ppi_vars.size()) != bits_for(n)) {
    throw std::invalid_argument(
        "build_hyper_function: need ceil(log2 n) pseudo primary inputs");
  }
  HyperFunction hyper;
  hyper.ppi_vars = ppi_vars;
  hyper.input_vars = input_vars;
  if (use_encoder) {
    EncodingChoice choice =
        encode_functions(mgr, ingredients, ppi_vars, options);
    hyper.codes = choice.encoding;
    hyper.trace = choice.trace;
  } else {
    hyper.codes = decomp::random_encoding(n, options.seed);
  }
  hyper.function = decomp::build_image(mgr, ingredients, hyper.codes, ppi_vars);
  return hyper;
}

int DuplicationAnalysis::extra_copies(int num_ppis, int num_ingredients) const {
  int total = 0;
  for (std::size_t id = 0; id < layer.size(); ++id) {
    const int m = layer[id];
    if (m <= 0) continue;
    if (m < num_ppis) {
      total += (1 << m) - 1;
    } else {
      total += num_ingredients - 1;
    }
  }
  return total;
}

DuplicationAnalysis analyze_duplication(const net::Network& network,
                                        const std::vector<net::NodeId>& ppi_nodes) {
  DuplicationAnalysis analysis;
  analysis.layer.assign(static_cast<std::size_t>(network.num_nodes()), 0);

  // Fanout adjacency over live nodes.
  std::vector<std::vector<net::NodeId>> fanouts(
      static_cast<std::size_t>(network.num_nodes()));
  for (net::NodeId id : network.topo_order()) {
    for (net::NodeId f : network.node(id).fanins) {
      fanouts[static_cast<std::size_t>(f)].push_back(id);
    }
  }

  // layer[v] = number of PPIs reaching v.
  for (net::NodeId ppi : ppi_nodes) {
    std::vector<char> reached(static_cast<std::size_t>(network.num_nodes()), 0);
    std::vector<net::NodeId> stack{ppi};
    reached[static_cast<std::size_t>(ppi)] = 1;
    while (!stack.empty()) {
      const net::NodeId v = stack.back();
      stack.pop_back();
      for (net::NodeId w : fanouts[static_cast<std::size_t>(v)]) {
        if (!reached[static_cast<std::size_t>(w)]) {
          reached[static_cast<std::size_t>(w)] = 1;
          stack.push_back(w);
        }
      }
    }
    for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
      if (reached[static_cast<std::size_t>(v)] &&
          network.node(v).kind == net::NodeKind::kLogic) {
        ++analysis.layer[static_cast<std::size_t>(v)];
      }
    }
  }

  for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
    const net::Node& node = network.node(v);
    if (node.dead || node.kind != net::NodeKind::kLogic) continue;
    if (analysis.layer[static_cast<std::size_t>(v)] > 0) {
      analysis.cone.push_back(v);
    }
    for (net::NodeId f : node.fanins) {
      if (std::find(ppi_nodes.begin(), ppi_nodes.end(), f) != ppi_nodes.end()) {
        analysis.sources.push_back(v);
        break;
      }
    }
  }
  return analysis;
}

std::vector<net::NodeId> recover_ingredients(
    net::Network& network, net::NodeId hyper_root,
    const std::vector<net::NodeId>& ppi_nodes, const decomp::Encoding& codes) {
  std::vector<net::NodeId> roots;
  const DuplicationAnalysis analysis = analyze_duplication(network, ppi_nodes);
  const auto topo = network.topo_order();

  auto ppi_bit = [&](net::NodeId id) {
    for (std::size_t j = 0; j < ppi_nodes.size(); ++j) {
      if (ppi_nodes[j] == id) return static_cast<int>(j);
    }
    return -1;
  };

  for (std::size_t i = 0; i < codes.codes.size(); ++i) {
    const std::uint32_t code = codes.codes[i];
    std::unordered_map<net::NodeId, net::NodeId> copy;
    for (net::NodeId id : topo) {
      const net::Node& node = network.node(id);
      if (node.kind != net::NodeKind::kLogic || !analysis.in_cone(id)) continue;
      // Specialize: substitute PPI fanins by the code's constants and remap
      // cone fanins to the per-ingredient copies.
      tt::TruthTable table = network.local_tt(id);
      std::vector<net::NodeId> fanins;
      std::vector<int> kept_positions;
      for (std::size_t pos = 0; pos < node.fanins.size(); ++pos) {
        const net::NodeId f = node.fanins[pos];
        const int bit = ppi_bit(f);
        if (bit >= 0) {
          table = table.cofactor(static_cast<int>(pos), ((code >> bit) & 1) != 0);
        } else {
          kept_positions.push_back(static_cast<int>(pos));
          fanins.push_back(copy.count(f) != 0 ? copy.at(f) : f);
        }
      }
      table = table.project(kept_positions);
      const net::NodeId specialized = network.add_logic_tt(
          network.fresh_name(node.name + "_f" + std::to_string(i)),
          std::move(fanins), table);
      copy.emplace(id, specialized);
    }
    roots.push_back(copy.count(hyper_root) != 0 ? copy.at(hyper_root)
                                                : hyper_root);
  }
  return roots;
}

}  // namespace hyde::core
