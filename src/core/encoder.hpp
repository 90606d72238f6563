/// \file encoder.hpp
/// \brief The paper's compatible class encoding algorithm (Section 3.2,
/// Figure 3): choose class codes that minimize the number of compatible
/// classes arising in the *subsequent* decomposition of the image function.
///
/// Outline (the numbered steps of Figure 3):
///  1. encode at random → trial image g';
///  2. if g' is κ-feasible, any encoding works — done;
///  3. run variable partitioning on g' to fix λ' (which α bits land in the
///     image's bound set → chart columns #C; the rest → rows #R) and which
///     free variables Y1 become partition positions;
///  4. compute the partitions Π of the class functions w.r.t. Y1;
///  5. CombineColumnSets: group partitions sharing positions-with-same-
///     content (Psc) into column sets via maximum-weight b-matching on the
///     bipartite column graph Gc (Figures 4/5);
///  6-7. CombineRowSets: merge row sets by the benefit σ·Br + τ·Bc using
///     maximum-cardinality matching on the row graph Gr, iterating until
///     ≤ #R rows and ≤ #C column sets (Figures 6/7);
///  8. keep the random encoding if it happens to yield fewer classes;
///  9. emit codes: row-set index → row bits, column-set index → column bits
///     (exact codes are irrelevant by Theorem 3.2).
///
/// The same routine encodes hyper-function ingredients (Theorems 4.1/4.2):
/// ingredients are the "class functions" and pseudo primary inputs the
/// "α variables".

#pragma once

#include <cstdint>
#include <vector>

#include "decomp/compatible.hpp"
#include "decomp/partition.hpp"
#include "decomp/step.hpp"
#include "decomp/varpart.hpp"

namespace hyde::decomp {
class BoundSetSearch;
}  // namespace hyde::decomp

namespace hyde::core {

struct EncoderOptions {
  int k = 5;                ///< LUT input count (κ-feasibility bound)
  std::uint64_t seed = 1;   ///< seed for the Step-1 random encoding
  decomp::DcPolicy dc_policy = decomp::DcPolicy::kCliquePartition;
  /// Optional bound-set search engine for Step 3 (must be bound to the same
  /// manager the encoder runs in). Null runs a local engine; either way the
  /// selected λ' is identical — the caller's engine only adds this search to
  /// the flow's search counters.
  // hyde-knob-ok: engine handle wired by the flow, not a setting.
  decomp::BoundSetSearch* search = nullptr;
  /// Optional counter sink for the Step-8 image-class computations.
  // hyde-knob-ok: counter sink; totals surface via FlowStats, not a flag.
  decomp::ClassStats* class_stats = nullptr;
};

/// One Psc record of the Figure 4 table.
struct PscRecord {
  std::vector<int> positions;   ///< the positions sharing content
  std::vector<int> partitions;  ///< partitions exhibiting this Psc
};

/// Everything the algorithm decided, for reports, tests and the figures
/// demo; indices refer to class/ingredient order.
struct EncodingTrace {
  bool trivially_feasible = false;  ///< Step-2 early exit
  bool theorem31_exit = false;      ///< all α's on one side of λ' — encoding moot
  bool used_random = false;         ///< Step-8 kept the random encoding
  std::vector<int> lambda_prime;    ///< λ' from Step 3 (manager variables)
  std::vector<int> column_alpha_bits;  ///< α bit indices in λ' (columns)
  std::vector<int> row_alpha_bits;     ///< α bit indices in μ (rows)
  std::vector<int> position_vars;      ///< Y1: free variables in λ'
  int num_rows = 0;                 ///< #R
  int num_cols = 0;                 ///< #C
  std::vector<decomp::Partition> partitions;  ///< Π per class function
  std::vector<PscRecord> psc_table;           ///< Figure 4(b)
  std::vector<std::vector<int>> column_sets;  ///< after Step 5 (Figure 5)
  std::vector<std::vector<int>> row_sets;     ///< final rows (Figure 7(a))
  std::vector<std::vector<int>> final_column_sets;  ///< final (Figure 7(a))
  int random_image_classes = -1;    ///< Step-8 comparison: random encoding
  int chosen_image_classes = -1;    ///< Step-8 comparison: structured encoding
  int step7_iterations = 0;
};

struct EncodingChoice {
  decomp::Encoding encoding;
  /// Suggested λ' for the image's subsequent decomposition (α variables that
  /// became columns plus Y1); empty when the image is already κ-feasible.
  std::vector<int> lambda_hint;
  EncodingTrace trace;
};

/// Runs the full Figure-3 procedure over arbitrary class/ingredient
/// functions (over the original free set Y); \p alpha_vars supplies the
/// code-bit variables (α's or pseudo primary inputs).
EncodingChoice encode_functions(bdd::Manager& mgr,
                                const std::vector<decomp::IsfBdd>& functions,
                                const std::vector<int>& alpha_vars,
                                const EncoderOptions& options);

/// Convenience wrapper for a ClassResult from compute_compatible_classes.
EncodingChoice encode_classes(bdd::Manager& mgr,
                              const decomp::ClassResult& classes,
                              const std::vector<int>& alpha_vars,
                              const EncoderOptions& options);

/// The row/column grouping produced by Steps 5-7 for a given chart geometry.
/// Exposed so the Example-3.2 reproduction (Figures 4-7) can drive the
/// assembly directly from literal partitions.
struct ChartAssembly {
  bool success = false;
  std::vector<PscRecord> psc_table;                 ///< Figure 4(b)
  std::vector<std::vector<int>> column_sets;        ///< Step 5 (Figure 5)
  std::vector<std::vector<int>> row_sets;           ///< final (Figure 7(a))
  std::vector<std::vector<int>> final_column_sets;  ///< final (Figure 7(a))
  std::vector<int> row_of;  ///< per partition: final row-set index
  std::vector<int> col_of;  ///< per partition: final column-set rank
  int iterations = 0;       ///< Step-7 passes
};

/// Runs Steps 5-7 of Figure 3 over \p partitions for a #R x #C chart:
/// column-set combination by b-matching on the column graph, then iterated
/// row-set merging by benefit-weighted maximum matching.
ChartAssembly assemble_chart(const std::vector<decomp::Partition>& partitions,
                             int num_rows, int num_cols);

/// The cube-count-minimizing encoding of Murgai et al. [3] — the paper's
/// point of contrast for Problem 2 ("those counts may not be a good cost
/// function for LUT-based FPGA synthesis"). Hill-climbs from the seeded
/// random encoding, swapping class codes (and moving classes to unused
/// codes) while the image's 1-path count shrinks. Strict by construction.
decomp::Encoding encode_cube_min(bdd::Manager& mgr,
                                 const decomp::ClassResult& classes,
                                 const std::vector<int>& alpha_vars,
                                 std::uint64_t seed, int max_passes = 3);

/// Step-7 benefit ingredients, exposed for tests and the figures demo.
/// Br = n − (n_ij − n_i) − (n_ij − n_j); Bc = Σ_{S in both} (cnt(S) − k),
/// k = m/n (see DESIGN.md for the interpretation of the paper's formula).
double row_benefit_br(const decomp::Partition& a, const decomp::Partition& b,
                      int total_symbol_kinds);
double row_benefit_bc(const decomp::Partition& a, const decomp::Partition& b,
                      int total_symbol_kinds);

}  // namespace hyde::core
