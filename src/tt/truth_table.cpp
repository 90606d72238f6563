#include "tt/truth_table.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <numeric>
#include <stdexcept>

namespace hyde::tt {

namespace {

std::size_t word_count(int num_vars) {
  const std::uint64_t bits = std::uint64_t{1} << num_vars;
  return static_cast<std::size_t>((bits + 63) / 64);
}

// Repeating masks of variable i within one 64-bit word, for i < 6:
// bit m of kVarMask[i] is (m >> i) & 1.
constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("TruthTable: variable count out of range");
  }
  words_.assign(word_count(num_vars), 0);
}

TruthTable TruthTable::ones(int num_vars) {
  TruthTable t(num_vars);
  for (auto& w : t.words_) w = ~std::uint64_t{0};
  t.mask_tail();
  return t;
}

TruthTable TruthTable::var(int num_vars, int v) {
  if (v < 0 || v >= num_vars) {
    throw std::invalid_argument("TruthTable::var: variable out of range");
  }
  TruthTable t(num_vars);
  if (v < 6) {
    for (auto& w : t.words_) w = kVarMask[v];
  } else {
    // Whole words alternate in blocks of 2^(v-6) words.
    const std::size_t block = std::size_t{1} << (v - 6);
    for (std::size_t i = 0; i < t.words_.size(); ++i) {
      if ((i / block) & 1) t.words_[i] = ~std::uint64_t{0};
    }
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_bits(std::string_view bits) {
  const std::uint64_t n = bits.size();
  int num_vars = 0;
  while ((std::uint64_t{1} << num_vars) < n) ++num_vars;
  if ((std::uint64_t{1} << num_vars) != n) {
    throw std::invalid_argument("TruthTable::from_bits: length not a power of two");
  }
  TruthTable t(num_vars);
  for (std::uint64_t i = 0; i < n; ++i) {
    const char c = bits[static_cast<std::size_t>(i)];
    if (c != '0' && c != '1') {
      throw std::invalid_argument("TruthTable::from_bits: non-binary character");
    }
    if (c == '1') t.set_bit(n - 1 - i, true);
  }
  return t;
}

TruthTable TruthTable::minterm(int num_vars, std::uint64_t m) {
  TruthTable t(num_vars);
  if (m >= t.size()) {
    throw std::invalid_argument("TruthTable::minterm: index out of range");
  }
  t.set_bit(m, true);
  return t;
}

TruthTable TruthTable::symmetric(int num_vars, const std::vector<int>& ones_counts) {
  std::vector<bool> wanted(static_cast<std::size_t>(num_vars) + 1, false);
  for (int c : ones_counts) {
    if (c >= 0 && c <= num_vars) wanted[static_cast<std::size_t>(c)] = true;
  }
  return from_lambda(num_vars, [&wanted](std::uint64_t m) {
    return wanted[static_cast<std::size_t>(std::popcount(m))];
  });
}

TruthTable TruthTable::from_lambda(int num_vars,
                                   const std::function<bool(std::uint64_t)>& fn) {
  TruthTable t(num_vars);
  for (std::uint64_t m = 0; m < t.size(); ++m) {
    if (fn(m)) t.set_bit(m, true);
  }
  return t;
}

TruthTable TruthTable::from_words(int num_vars,
                                  std::vector<std::uint64_t> words) {
  TruthTable t(num_vars);
  if (words.size() != t.words_.size()) {
    throw std::invalid_argument("TruthTable::from_words: wrong word count");
  }
  t.words_ = std::move(words);
  t.mask_tail();
  return t;
}

void TruthTable::set_bit(std::uint64_t m, bool value) {
  const std::uint64_t mask = std::uint64_t{1} << (m & 63);
  if (value) {
    words_[m >> 6] |= mask;
  } else {
    words_[m >> 6] &= ~mask;
  }
}

bool TruthTable::is_zero() const {
  for (auto w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool TruthTable::is_one() const { return *this == ones(num_vars_); }

std::uint64_t TruthTable::count_ones() const {
  std::uint64_t total = 0;
  for (auto w : words_) total += static_cast<std::uint64_t>(std::popcount(w));
  return total;
}

bool TruthTable::depends_on(int v) const {
  return cofactor(v, false) != cofactor(v, true);
}

std::vector<int> TruthTable::support() const {
  std::vector<int> vars;
  for (int v = 0; v < num_vars_; ++v) {
    if (depends_on(v)) vars.push_back(v);
  }
  return vars;
}

TruthTable TruthTable::cofactor(int v, bool value) const {
  if (v < 0 || v >= num_vars_) {
    throw std::invalid_argument("TruthTable::cofactor: variable out of range");
  }
  TruthTable r(*this);
  if (v < 6) {
    const std::uint64_t keep = value ? kVarMask[v] : ~kVarMask[v];
    const int shift = 1 << v;
    for (auto& w : r.words_) {
      const std::uint64_t half = w & keep;
      w = value ? (half | (half >> shift)) : (half | (half << shift));
    }
  } else {
    const std::size_t block = std::size_t{1} << (v - 6);
    for (std::size_t i = 0; i < r.words_.size(); i += 2 * block) {
      for (std::size_t j = 0; j < block; ++j) {
        const std::uint64_t w = value ? words_[i + block + j] : words_[i + j];
        r.words_[i + j] = w;
        r.words_[i + block + j] = w;
      }
    }
  }
  return r;
}

TruthTable TruthTable::exists(int v) const {
  return cofactor(v, false) | cofactor(v, true);
}

TruthTable TruthTable::forall(int v) const {
  return cofactor(v, false) & cofactor(v, true);
}

TruthTable TruthTable::permute(const std::vector<int>& perm) const {
  if (static_cast<int>(perm.size()) != num_vars_) {
    throw std::invalid_argument("TruthTable::permute: bad permutation size");
  }
  TruthTable r(num_vars_);
  for (std::uint64_t m = 0; m < size(); ++m) {
    if (!bit(m)) continue;
    // Old minterm m maps variable perm[i] to new position i.
    std::uint64_t nm = 0;
    for (int i = 0; i < num_vars_; ++i) {
      if ((m >> perm[static_cast<std::size_t>(i)]) & 1) nm |= std::uint64_t{1} << i;
    }
    r.set_bit(nm, true);
  }
  return r;
}

TruthTable TruthTable::flip_var(int v) const {
  if (v < 0 || v >= num_vars_) {
    throw std::invalid_argument("TruthTable::flip_var: variable out of range");
  }
  TruthTable r(*this);
  if (v < 6) {
    const std::uint64_t hi = kVarMask[v];
    const int shift = 1 << v;
    for (auto& w : r.words_) {
      w = ((w & hi) >> shift) | ((w & ~hi) << shift);
    }
  } else {
    const std::size_t block = std::size_t{1} << (v - 6);
    for (std::size_t i = 0; i < r.words_.size(); i += 2 * block) {
      for (std::size_t j = 0; j < block; ++j) {
        std::swap(r.words_[i + j], r.words_[i + block + j]);
      }
    }
  }
  return r;
}

TruthTable TruthTable::project(const std::vector<int>& vars) const {
  TruthTable r(static_cast<int>(vars.size()));
  for (std::uint64_t m = 0; m < r.size(); ++m) {
    std::uint64_t full = 0;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if ((m >> i) & 1) full |= std::uint64_t{1} << vars[i];
    }
    if (bit(full)) r.set_bit(m, true);
  }
  return r;
}

TruthTable TruthTable::expand(int new_num_vars,
                              const std::vector<int>& placement) const {
  if (static_cast<int>(placement.size()) != num_vars_) {
    throw std::invalid_argument("TruthTable::expand: bad placement size");
  }
  for (std::size_t j = 0; j < placement.size(); ++j) {
    if (placement[j] < 0 || placement[j] >= new_num_vars) {
      throw std::invalid_argument("TruthTable::expand: placement out of range");
    }
    const auto end = placement.begin() + static_cast<std::ptrdiff_t>(j);
    const auto same = std::find(placement.begin(), end, placement[j]);
    if (same == end) continue;
    // x_j shares x_i's position: keep the diagonal x_j = x_i and drop x_j.
    const int copy = static_cast<int>(j);
    const TruthTable xi =
        var(num_vars_, static_cast<int>(same - placement.begin()));
    std::vector<int> keep;
    std::vector<int> rest;
    for (int v = 0; v < num_vars_; ++v) {
      if (v == copy) continue;
      keep.push_back(v);
      rest.push_back(placement[static_cast<std::size_t>(v)]);
    }
    return ((cofactor(copy, true) & xi) | (cofactor(copy, false) & ~xi))
        .project(keep)
        .expand(new_num_vars, rest);
  }
  // Tile this table across the wider one (variable i at position i), then
  // move each variable to its place with word-level swaps.
  TruthTable r(new_num_vars);
  std::uint64_t word = words_[0];
  for (int width = 1 << std::min(num_vars_, 6); width < 64; width *= 2) {
    word |= word << width;
  }
  for (std::size_t w = 0; w < r.words_.size(); ++w) {
    r.words_[w] = num_vars_ >= 6 ? words_[w % words_.size()] : word;
  }
  r.mask_tail();
  std::vector<int> where(placement.size());  // variable -> position
  std::iota(where.begin(), where.end(), 0);
  for (std::size_t i = 0; i < where.size(); ++i) {
    swap_vars_in_place(r.words_.data(), new_num_vars, where[i], placement[i]);
    // A variable still waiting on the target moves to where x_i was.
    std::replace(where.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                 where.end(), placement[i], where[i]);
  }
  return r;
}

TruthTable TruthTable::operator~() const {
  TruthTable r(*this);
  for (auto& w : r.words_) w = ~w;
  r.mask_tail();
  return r;
}

TruthTable& TruthTable::operator&=(const TruthTable& rhs) {
  check_same_shape(rhs);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= rhs.words_[i];
  return *this;
}

TruthTable& TruthTable::operator|=(const TruthTable& rhs) {
  check_same_shape(rhs);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= rhs.words_[i];
  return *this;
}

TruthTable& TruthTable::operator^=(const TruthTable& rhs) {
  check_same_shape(rhs);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= rhs.words_[i];
  return *this;
}

bool TruthTable::implies(const TruthTable& rhs) const {
  check_same_shape(rhs);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] & ~rhs.words_[i]) return false;
  }
  return true;
}

std::string TruthTable::to_bits() const {
  std::string s;
  s.reserve(static_cast<std::size_t>(size()));
  for (std::uint64_t i = 0; i < size(); ++i) {
    s.push_back(bit(size() - 1 - i) ? '1' : '0');
  }
  return s;
}

std::uint64_t TruthTable::hash() const {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(num_vars_));
  for (auto w : words_) mix(w);
  return h;
}

void TruthTable::check_same_shape(const TruthTable& rhs) const {
  if (num_vars_ != rhs.num_vars_) {
    throw std::invalid_argument("TruthTable: variable count mismatch");
  }
}

void TruthTable::mask_tail() {
  if (num_vars_ < 6) {
    words_[0] &= (std::uint64_t{1} << (std::uint64_t{1} << num_vars_)) - 1;
  }
}

void swap_vars_in_place(std::uint64_t* words, int num_vars, int i, int j) {
  if (i == j) return;
  if (i > j) std::swap(i, j);
  const std::size_t count = word_count(num_vars);
  if (j < 6) {
    // Bits with x_i = 1, x_j = 0 trade places with x_i = 0, x_j = 1, which
    // sit 2^j - 2^i positions higher in the same word.
    const int shift = (1 << j) - (1 << i);
    const std::uint64_t low = kVarMask[i] & ~kVarMask[j];
    for (std::size_t w = 0; w < count; ++w) {
      const std::uint64_t d = ((words[w] >> shift) ^ words[w]) & low;
      words[w] ^= d ^ (d << shift);
    }
  } else if (i < 6) {
    // Word w (x_j = 0) pairs with word w + 2^(j-6) (x_j = 1): its x_i = 1
    // bits trade places with the partner's x_i = 0 bits.
    const std::size_t stride = std::size_t{1} << (j - 6);
    const int shift = 1 << i;
    for (std::size_t base = 0; base < count; base += 2 * stride) {
      for (std::size_t w = base; w < base + stride; ++w) {
        const std::uint64_t d =
            ((words[w] >> shift) ^ words[w + stride]) & ~kVarMask[i];
        words[w] ^= d << shift;
        words[w + stride] ^= d;
      }
    }
  } else {
    // Whole blocks of 2^(i-6) words with x_i = 1, x_j = 0 trade places with
    // the blocks 2^(j-6) - 2^(i-6) words higher.
    const std::size_t lo = std::size_t{1} << (i - 6);
    const std::size_t hi = std::size_t{1} << (j - 6);
    for (std::size_t base = 0; base < count; base += 2 * hi) {
      for (std::size_t block = base + lo; block < base + hi; block += 2 * lo) {
        std::swap_ranges(words + block, words + block + lo,
                         words + block + hi - lo);
      }
    }
  }
}

bool Isf::compatible_with(const Isf& rhs) const {
  return (on & rhs.off()).is_zero() && (rhs.on & off()).is_zero();
}

Isf Isf::merged_with(const Isf& rhs) const {
  const TruthTable merged_on = on | rhs.on;
  const TruthTable merged_care = on | off() | rhs.on | rhs.off();
  return {merged_on, ~merged_care};
}

std::uint64_t Isf::hash() const {
  return on.hash() * 1000003ull ^ dc.hash();
}

}  // namespace hyde::tt
