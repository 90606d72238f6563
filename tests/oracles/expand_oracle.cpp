#include "oracles/expand_oracle.hpp"

#include <cstdint>

namespace hyde::tt {

TruthTable expand_reference(const TruthTable& f, int new_num_vars,
                            const std::vector<int>& placement) {
  TruthTable r(new_num_vars);
  for (std::uint64_t m = 0; m < r.size(); ++m) {
    std::uint64_t small = 0;
    for (int i = 0; i < f.num_vars(); ++i) {
      if ((m >> placement[static_cast<std::size_t>(i)]) & 1) {
        small |= std::uint64_t{1} << i;
      }
    }
    if (f.bit(small)) r.set_bit(m, true);
  }
  return r;
}

}  // namespace hyde::tt
