#include "decomp/chart.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <unordered_map>

#include "tt/truth_table.hpp"

namespace hyde::decomp {

namespace {

std::uint64_t pattern_key(const bdd::Bdd& on, const bdd::Bdd& dc) {
  return (static_cast<std::uint64_t>(on.id()) << 32) | dc.id();
}

void check_spec(const DecompSpec& spec) {
  if (spec.mgr == nullptr) {
    throw std::invalid_argument("DecompSpec: null manager");
  }
  if (static_cast<int>(spec.bound.size()) > kMaxBoundVars) {
    throw std::invalid_argument("DecompSpec: bound set too large to enumerate");
  }
}

/// The chart's distinct columns, by a depth-first cofactor walk over the
/// bound set in the spec's manager: depth i fixes bound[i], low branch first,
/// so columns are registered in first-occurrence order (bound[0] the most
/// significant assignment bit), the order downstream clique partitioning
/// depends on. With \p indicators each assignment's path cube is ORed into
/// its column's indicator. The walk stops as soon as it holds more than
/// \p max_columns (> 0) columns: `pruned` is then set and `columns` is the
/// first max_columns + 1 of the full list.
class CofactorWalk {
 public:
  std::vector<Column> columns;
  bool pruned = false;

  CofactorWalk(const DecompSpec& spec, int max_columns, bool indicators)
      : spec_(spec),
        mgr_(*spec.mgr),
        max_columns_(max_columns),
        indicators_(indicators) {
    visit(0, spec.f.on, spec.f.dc, mgr_.one());
  }

 private:
  void visit(std::size_t depth, const bdd::Bdd& on, const bdd::Bdd& dc,
             const bdd::Bdd& cube) {
    if (depth == spec_.bound.size()) {
      auto [it, inserted] =
          index_of_.emplace(pattern_key(on, dc), columns.size());
      if (inserted) {
        columns.push_back(Column{IsfBdd{on, dc}, mgr_.zero()});
        pruned = max_columns_ > 0 &&
                 static_cast<int>(columns.size()) > max_columns_;
      }
      if (indicators_) {
        bdd::Bdd& indicator = columns[it->second].indicator;
        indicator = indicator | cube;
      }
      return;
    }
    const int var = spec_.bound[depth];
    for (const bool value : {false, true}) {
      // One column past the threshold proves the candidate cannot beat the
      // incumbent, so the rest of the chart is moot.
      if (pruned) return;
      visit(depth + 1, mgr_.cofactor(on, var, value),
            mgr_.cofactor(dc, var, value),
            indicators_ ? cube & (value ? mgr_.var(var) : mgr_.nvar(var))
                        : cube);
    }
  }

  const DecompSpec& spec_;
  bdd::Manager& mgr_;
  int max_columns_;
  bool indicators_;
  std::unordered_map<std::uint64_t, std::size_t> index_of_;
};

/// Hash of one block of `words` words of both tables.
// hyde-hot
std::uint64_t block_hash(const std::uint64_t* on, const std::uint64_t* dc,
                         std::size_t words) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (std::size_t w = 0; w < words; ++w) {
    h = (h ^ on[w]) * 0xFF51AFD7ED558CCDull;
    h = (h ^ dc[w]) * 0xC4CEB9FE1A85EC53ull;
  }
  return h ^ (h >> 32);
}

}  // namespace

std::vector<int> isf_support(bdd::Manager& mgr, const IsfBdd& f) {
  std::vector<int> on_vars = mgr.support(f.on);
  if (f.dc.is_zero()) return on_vars;
  const std::vector<int> dc_vars = mgr.support(f.dc);
  std::vector<int> both;
  std::set_union(on_vars.begin(), on_vars.end(), dc_vars.begin(),
                 dc_vars.end(), std::back_inserter(both));
  return both;
}

bool TruthTableChart::load(bdd::Manager& mgr, const IsfBdd& f, int max_vars) {
  loaded_ = false;
  std::vector<int> both = isf_support(mgr, f);
  if (static_cast<int>(both.size()) > max_vars) return false;
  num_vars_ = static_cast<int>(both.size());
  on_ = mgr.to_truth_table(f.on, both).words();
  dc_ = mgr.to_truth_table(f.dc, both).words();
  at_ = std::move(both);
  loaded_ = true;
  return true;
}

bool TruthTableChart::load(std::vector<int> vars,
                           std::vector<std::uint64_t> on,
                           std::vector<std::uint64_t> dc) {
  loaded_ = static_cast<int>(vars.size()) <= kTruthTableChartMaxVars;
  if (!loaded_) return false;
  num_vars_ = static_cast<int>(vars.size());
  on_ = std::move(on);
  dc_ = std::move(dc);
  at_ = std::move(vars);
  return true;
}

bool TruthTableChart::dc_is_zero() const {
  return std::all_of(dc_.begin(), dc_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

int TruthTableChart::arrange(const std::vector<int>& bound, bool exact) {
  top_vars_.clear();
  for (int v : bound) {
    if (std::find(at_.begin(), at_.end(), v) != at_.end()) {
      top_vars_.push_back(v);
    }
  }
  const int n = num_vars_;
  const int p = static_cast<int>(top_vars_.size());
  const auto position = [this](int var) {
    return static_cast<int>(std::find(at_.begin(), at_.end(), var) -
                            at_.begin());
  };
  const auto swap_positions = [&](int a, int b) {
    tt::swap_vars_in_place(on_.data(), n, a, b);
    tt::swap_vars_in_place(dc_.data(), n, a, b);
    std::swap(at_[static_cast<std::size_t>(a)],
              at_[static_cast<std::size_t>(b)]);
  };
  if (exact) {
    for (int i = 0; i < p; ++i) {
      const int target = n - 1 - i;
      const int from = position(top_vars_[static_cast<std::size_t>(i)]);
      if (from != target) swap_positions(from, target);
    }
    return p;
  }
  // Any order of the bound set on top gives the same column count, so only
  // the bound variables below the top region move, each into a top slot
  // that holds a free variable.
  const auto in_bound = [this](int var) {
    return std::find(top_vars_.begin(), top_vars_.end(), var) !=
           top_vars_.end();
  };
  int slot = n - p;
  for (int v : top_vars_) {
    const int from = position(v);
    if (from >= n - p) continue;
    while (in_bound(at_[static_cast<std::size_t>(slot)])) ++slot;
    swap_positions(from, slot);
  }
  return p;
}

BoundedCount TruthTableChart::count_blocks(int p, int max_columns,
                                           std::vector<int>* block_column) {
  const int rest = num_vars_ - p;
  const std::size_t blocks = std::size_t{1} << p;
  std::size_t capacity = 2;
  while (capacity < 2 * blocks) capacity *= 2;
  slots_.assign(capacity, -1);
  reps_.clear();
  if (block_column != nullptr) block_column->assign(blocks, 0);
  const std::size_t mask = capacity - 1;
  BoundedCount result;

  // Blocks of at least one word are compared in place; narrower blocks are
  // packed, onset bits above dc bits, into one key word.
  const std::size_t words = rest >= 6 ? std::size_t{1} << (rest - 6) : 0;
  const unsigned width = rest >= 6 ? 64 : 1u << rest;
  const std::uint64_t bits =
      width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  const auto key = [&](std::size_t b) {
    const std::size_t bit = b * width;
    const unsigned shift = static_cast<unsigned>(bit & 63);
    return (((on_[bit >> 6] >> shift) & bits) << width) |
           ((dc_[bit >> 6] >> shift) & bits);
  };
  const auto same = [&](std::size_t a, std::size_t b) {
    if (words == 0) return key(a) == key(b);
    const std::size_t bytes = words * sizeof(std::uint64_t);
    return std::memcmp(&on_[a * words], &on_[b * words], bytes) == 0 &&
           std::memcmp(&dc_[a * words], &dc_[b * words], bytes) == 0;
  };
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint64_t h = words == 0
                          ? key(b) * 0x9E3779B97F4A7C15ull
                          : block_hash(&on_[b * words], &dc_[b * words], words);
    std::size_t i = static_cast<std::size_t>(h ^ (h >> 29)) & mask;
    while (slots_[i] >= 0 &&
           !same(reps_[static_cast<std::size_t>(slots_[i])], b)) {
      i = (i + 1) & mask;
    }
    if (slots_[i] < 0) {
      slots_[i] = result.count++;
      reps_.push_back(b);
      if (max_columns > 0 && result.count > max_columns) {
        result.pruned = true;
        break;
      }
    }
    if (block_column != nullptr) (*block_column)[b] = slots_[i];
  }
  return result;
}

BoundedCount TruthTableChart::count_columns(const std::vector<int>& bound,
                                            int max_columns) {
  return count_blocks(arrange(bound, false), max_columns, nullptr);
}

ChartLayout TruthTableChart::layout(const std::vector<int>& bound) {
  const int p = arrange(bound, true);
  ChartLayout out;
  count_blocks(p, 0, &out.block_column);
  const int rest = num_vars_ - p;
  out.row_vars.assign(at_.begin(), at_.begin() + rest);
  out.column_vars.assign(at_.begin() + rest, at_.end());
  out.columns.resize(reps_.size());
  for (std::size_t c = 0; c < reps_.size(); ++c) {
    ColumnSignature& sig = out.columns[c];
    if (rest >= 6) {
      const std::size_t words = std::size_t{1} << (rest - 6);
      const auto first = static_cast<std::ptrdiff_t>(reps_[c] * words);
      const auto last = first + static_cast<std::ptrdiff_t>(words);
      sig.on.assign(on_.begin() + first, on_.begin() + last);
      sig.care.assign(dc_.begin() + first, dc_.begin() + last);
      for (std::uint64_t& w : sig.care) w = ~w;
    } else {
      const unsigned width = 1u << rest;
      const std::uint64_t bits = (std::uint64_t{1} << width) - 1;
      const std::size_t bit = reps_[c] * width;
      const unsigned shift = static_cast<unsigned>(bit & 63);
      sig.on = {(on_[bit >> 6] >> shift) & bits};
      sig.care = {~(dc_[bit >> 6] >> shift) & bits};
    }
  }
  return out;
}

bdd::Bdd minterm_cube(bdd::Manager& mgr, const std::vector<int>& vars,
                      std::uint64_t minterm) {
  // AND literals highest variable first: each step then conjoins a literal
  // strictly above the cube's top variable, which the AND kernel resolves
  // with a single make_node instead of a recursive descent.
  std::vector<std::pair<int, bool>> literals;
  literals.reserve(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    literals.emplace_back(vars[i], ((minterm >> i) & 1) != 0);
  }
  std::sort(literals.begin(), literals.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  bdd::Bdd cube = mgr.one();
  for (const auto& [var, value] : literals) {
    cube = (value ? mgr.var(var) : mgr.nvar(var)) & cube;
  }
  return cube;
}

std::vector<Column> enumerate_columns(const DecompSpec& spec) {
  check_spec(spec);
  return CofactorWalk(spec, 0, true).columns;
}

std::vector<ColumnSignature> column_signatures(
    const DecompSpec& spec, const std::vector<Column>& columns) {
  if (columns.empty()) return {};
  bdd::Manager& mgr = *spec.mgr;
  // Shared signature variable set: the sorted union of the pattern supports.
  // Free variables no pattern depends on only pad the row space without
  // affecting the compatibility predicate, so they are dropped.
  std::vector<char> used(static_cast<std::size_t>(mgr.num_vars()), 0);
  for (const Column& c : columns) {
    for (const int v : mgr.support(c.pattern.on)) {
      used[static_cast<std::size_t>(v)] = 1;
    }
    for (const int v : mgr.support(c.pattern.dc)) {
      used[static_cast<std::size_t>(v)] = 1;
    }
  }
  std::vector<int> row_vars;
  for (int v = 0; v < mgr.num_vars(); ++v) {
    if (used[static_cast<std::size_t>(v)] != 0) row_vars.push_back(v);
  }
  const int nv = static_cast<int>(row_vars.size());
  if (nv > tt::TruthTable::kMaxVars || nv > 30 ||
      (std::int64_t{1} << nv) > kSignatureMaxRows) {
    return {};  // row space too large; caller falls back to BDD tests
  }
  const std::uint64_t rows = std::uint64_t{1} << nv;
  const std::size_t words = static_cast<std::size_t>((rows + 63) / 64);
  const unsigned tail_bits = static_cast<unsigned>(rows % 64);
  const std::uint64_t tail_mask =
      tail_bits == 0 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << tail_bits) - 1;

  std::vector<ColumnSignature> sigs(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const tt::TruthTable on_tt =
        mgr.to_truth_table(columns[i].pattern.on, row_vars);
    const tt::TruthTable dc_tt =
        mgr.to_truth_table(columns[i].pattern.dc, row_vars);
    sigs[i].on = on_tt.words();
    const std::vector<std::uint64_t>& dc_words = dc_tt.words();
    sigs[i].care.resize(words);
    for (std::size_t w = 0; w < words; ++w) {
      sigs[i].care[w] = ~dc_words[w];
    }
    // TruthTable zeroes its own tail bits; complementing set them, so mask
    // the care tail back to zero to keep whole-word tests sound.
    sigs[i].care[words - 1] &= tail_mask;
  }
  return sigs;
}

BoundedCount count_columns_bounded(const DecompSpec& spec, int max_columns) {
  check_spec(spec);
  const CofactorWalk walk(spec, max_columns, false);
  return BoundedCount{static_cast<int>(walk.columns.size()), walk.pruned};
}

int count_columns(const DecompSpec& spec) {
  return count_columns_bounded(spec, 0).count;
}

}  // namespace hyde::decomp
