#include "net/pla.hpp"

#include <charconv>
#include <functional>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace hyde::net {

namespace {

struct PlaHeader {
  int num_inputs = -1;
  int num_outputs = -1;
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::string type = "fd";
};

struct Cube {
  std::string in;
  std::string out;
};

/// Parses the count after a `.i`, `.o` or `.p` directive: a non-negative
/// decimal that fits an int, and nothing else.
int parse_count(std::istringstream& is, const std::string& directive) {
  std::string token;
  if (!(is >> token)) {
    throw std::runtime_error("PLA: missing count after " + directive);
  }
  int value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || value < 0) {
    throw std::runtime_error("PLA: bad count after " + directive + ": " +
                             token);
  }
  return value;
}

}  // namespace

PlaModel read_pla(std::istream& in, const std::string& model_name) {
  PlaHeader header;
  std::vector<Cube> cubes;
  std::string line;
  std::size_t text_bytes = 0;
  while (std::getline(in, line)) {
    text_bytes += line.size() + 1;
    if (auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    std::istringstream is(line);
    std::string token;
    if (!(is >> token)) continue;
    if (token == ".i") {
      header.num_inputs = parse_count(is, token);
    } else if (token == ".o") {
      header.num_outputs = parse_count(is, token);
    } else if (token == ".p") {
      parse_count(is, token);  // informational
    } else if (token == ".ilb") {
      std::string name;
      while (is >> name) header.input_names.push_back(name);
    } else if (token == ".ob") {
      std::string name;
      while (is >> name) header.output_names.push_back(name);
    } else if (token == ".type") {
      is >> header.type;
      if (header.type != "f" && header.type != "fd") {
        throw std::runtime_error("PLA: unsupported .type " + header.type);
      }
    } else if (token == ".e" || token == ".end") {
      break;
    } else if (token[0] == '.') {
      throw std::runtime_error("PLA: unsupported directive " + token);
    } else {
      Cube cube;
      cube.in = token;
      if (!(is >> cube.out)) {
        throw std::runtime_error("PLA: cube row missing output part");
      }
      cubes.push_back(std::move(cube));
    }
  }
  if (header.num_inputs <= 0 || header.num_outputs <= 0) {
    throw std::runtime_error("PLA: missing .i/.o header");
  }
  // Every input and output takes at least one byte of the text (a name or a
  // cube column), so a larger count describes signals that are not there.
  if (static_cast<std::size_t>(header.num_inputs) > text_bytes ||
      static_cast<std::size_t>(header.num_outputs) > text_bytes) {
    throw std::runtime_error("PLA: .i/.o count exceeds the input size");
  }
  if (!header.input_names.empty() &&
      static_cast<int>(header.input_names.size()) != header.num_inputs) {
    throw std::runtime_error("PLA: .ilb arity mismatch");
  }
  if (!header.output_names.empty() &&
      static_cast<int>(header.output_names.size()) != header.num_outputs) {
    throw std::runtime_error("PLA: .ob arity mismatch");
  }

  // Validate every cube's shape before allocating any per-signal state.
  for (const Cube& cube : cubes) {
    if (static_cast<int>(cube.in.size()) != header.num_inputs) {
      throw std::runtime_error("PLA: cube width mismatch: " + cube.in);
    }
    if (static_cast<int>(cube.out.size()) != header.num_outputs) {
      throw std::runtime_error("PLA: output width mismatch: " + cube.out);
    }
  }

  PlaModel model{Network(model_name), Network(model_name + "_dc"), false};
  std::vector<NodeId> on_pis, dc_pis;
  for (int i = 0; i < header.num_inputs; ++i) {
    const std::string name = header.input_names.empty()
                                 ? "x" + std::to_string(i)
                                 : header.input_names[static_cast<std::size_t>(i)];
    on_pis.push_back(model.onset.add_input(name));
    dc_pis.push_back(model.dont_care.add_input(name));
  }

  auto cube_bdd = [&](bdd::Manager& mgr, const std::string& in_part) {
    mgr.ensure_vars(header.num_inputs);
    bdd::Bdd product = mgr.one();
    for (int v = 0; v < header.num_inputs; ++v) {
      const char c = in_part[static_cast<std::size_t>(v)];
      if (c == '1') {
        product = product & mgr.var(v);
      } else if (c == '0') {
        product = product & mgr.nvar(v);
      } else if (c != '-' && c != '2') {
        throw std::runtime_error("PLA: bad input literal in " + in_part);
      }
    }
    return product;
  };

  bdd::Manager& on_mgr = model.onset.manager();
  bdd::Manager& dc_mgr = model.dont_care.manager();
  std::vector<bdd::Bdd> on_fn, dc_fn;
  for (int o = 0; o < header.num_outputs; ++o) {
    on_fn.push_back(on_mgr.zero());
    dc_fn.push_back(dc_mgr.zero());
  }
  for (const Cube& cube : cubes) {
    for (int o = 0; o < header.num_outputs; ++o) {
      const char c = cube.out[static_cast<std::size_t>(o)];
      if (c == '1') {
        on_fn[static_cast<std::size_t>(o)] =
            on_fn[static_cast<std::size_t>(o)] | cube_bdd(on_mgr, cube.in);
      } else if (c == '-' || c == '2') {
        if (header.type == "fd") {
          dc_fn[static_cast<std::size_t>(o)] =
              dc_fn[static_cast<std::size_t>(o)] | cube_bdd(dc_mgr, cube.in);
          model.has_dont_cares = true;
        }
      } else if (c != '0' && c != '~' && c != '4') {
        throw std::runtime_error("PLA: bad output literal in " + cube.out);
      }
    }
  }

  for (int o = 0; o < header.num_outputs; ++o) {
    const std::string name = header.output_names.empty()
                                 ? "y" + std::to_string(o)
                                 : header.output_names[static_cast<std::size_t>(o)];
    model.onset.add_output(
        name, model.onset.add_logic(name, on_pis, on_fn[static_cast<std::size_t>(o)]));
    model.dont_care.add_output(
        name, model.dont_care.add_logic(name, dc_pis,
                                        dc_fn[static_cast<std::size_t>(o)]));
  }
  // The PLA semantics attach every PI to every output function; compact the
  // fanins down to the true supports.
  model.onset.sweep();
  model.dont_care.sweep();
  return model;
}

PlaModel read_pla_string(const std::string& text, const std::string& model_name) {
  std::istringstream is(text);
  return read_pla(is, model_name);
}

void write_pla(const Network& network, std::ostream& out) {
  const int n = static_cast<int>(network.inputs().size());
  const int num_out = static_cast<int>(network.outputs().size());
  if (n > 20) {
    throw std::invalid_argument("write_pla: too many primary inputs");
  }
  bdd::Manager global(std::max(1, n));
  std::vector<int> pi_var;
  for (int i = 0; i < n; ++i) pi_var.push_back(i);
  std::vector<NodeId> roots;
  for (const auto& o : network.outputs()) roots.push_back(o.driver);
  const auto bdds = network.global_bdds(roots, global, pi_var);

  out << ".i " << n << "\n.o " << num_out << "\n.ilb";
  for (NodeId id : network.inputs()) out << ' ' << network.node(id).name;
  out << "\n.ob";
  for (const auto& o : network.outputs()) out << ' ' << o.name;
  out << "\n";

  // One cover per output: cubes from the BDD's 1-paths.
  std::vector<std::string> rows;
  for (int o = 0; o < num_out; ++o) {
    std::string cube(static_cast<std::size_t>(n), '-');
    std::function<void(const bdd::Bdd&)> walk = [&](const bdd::Bdd& f) {
      if (f.is_zero()) return;
      if (f.is_one()) {
        std::string outs(static_cast<std::size_t>(num_out), '~');
        outs[static_cast<std::size_t>(o)] = '1';
        rows.push_back(cube + " " + outs);
        return;
      }
      const int v = f.top_var();
      cube[static_cast<std::size_t>(v)] = '0';
      walk(f.low());
      cube[static_cast<std::size_t>(v)] = '1';
      walk(f.high());
      cube[static_cast<std::size_t>(v)] = '-';
    };
    walk(bdds[static_cast<std::size_t>(o)]);
  }
  out << ".p " << rows.size() << "\n";
  for (const auto& row : rows) out << row << "\n";
  out << ".e\n";
}

std::string write_pla_string(const Network& network) {
  std::ostringstream os;
  write_pla(network, os);
  return os.str();
}

}  // namespace hyde::net
