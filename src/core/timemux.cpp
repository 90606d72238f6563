#include "core/timemux.hpp"

#include <stdexcept>

#include "core/hyper.hpp"

namespace hyde::core {

namespace {

int bits_for(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

}  // namespace

TimeMultiplexed build_time_multiplexed(bdd::Manager& mgr,
                                       const std::vector<decomp::IsfBdd>& slots,
                                       const std::vector<int>& data_vars,
                                       const std::vector<std::string>& data_names,
                                       const FlowOptions& options) {
  if (slots.empty()) {
    throw std::invalid_argument("build_time_multiplexed: no slots");
  }
  if (data_names.size() != data_vars.size()) {
    throw std::invalid_argument("build_time_multiplexed: name/var mismatch");
  }
  const int t = bits_for(static_cast<int>(slots.size()));

  // Mode variables: fresh manager indices above the data variables.
  int next_var = mgr.num_vars();
  for (int v : data_vars) next_var = std::max(next_var, v + 1);
  std::vector<int> mode_vars;
  for (int b = 0; b < t; ++b) mode_vars.push_back(next_var + b);
  mgr.ensure_vars(next_var + t);

  EncoderOptions enc_options;
  enc_options.k = options.k;
  enc_options.seed = options.seed;
  enc_options.dc_policy = options.dc_policy;
  const HyperFunction hyper = build_hyper_function(
      mgr, slots, data_vars, mode_vars, enc_options,
      options.encoding == EncodingPolicy::kCompatibleClass);

  // Realize the hyper-function as a network whose mode bits are ordinary
  // primary inputs — no recovery, no duplication (Section 6).
  net::Network shell("tmux");
  std::vector<net::NodeId> fanins;
  for (std::size_t i = 0; i < data_vars.size(); ++i) {
    fanins.push_back(shell.add_input(data_names[i]));
  }
  for (int b = 0; b < t; ++b) {
    fanins.push_back(shell.add_input("mode" + std::to_string(b)));
  }
  std::vector<int> all_vars = data_vars;
  all_vars.insert(all_vars.end(), mode_vars.begin(), mode_vars.end());
  // Wide shell node carrying the hyper-function (onset completion of the
  // unused slots' don't cares is left to the decomposition flow via exdc).
  const tt::TruthTable on_tt = mgr.to_truth_table(hyper.function.on, all_vars);
  shell.add_output("y", shell.add_logic_tt("H", fanins, on_tt));

  net::Network dc_shell("tmux_dc");
  std::vector<net::NodeId> dc_fanins;
  for (std::size_t i = 0; i < data_vars.size(); ++i) {
    dc_fanins.push_back(dc_shell.add_input(data_names[i]));
  }
  for (int b = 0; b < t; ++b) {
    dc_fanins.push_back(dc_shell.add_input("mode" + std::to_string(b)));
  }
  const tt::TruthTable dc_tt = mgr.to_truth_table(hyper.function.dc, all_vars);
  dc_shell.add_output("y", dc_shell.add_logic_tt("H", dc_fanins, dc_tt));

  TimeMultiplexed result;
  result.slot_codes = hyper.codes.codes;
  result.num_mode_bits = t;
  result.trace = hyper.trace;
  FlowResult flow = run_flow(shell, options, &dc_shell);
  result.network = std::move(flow.network);
  return result;
}

}  // namespace hyde::core
