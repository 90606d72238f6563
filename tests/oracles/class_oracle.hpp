/// \file class_oracle.hpp
/// \brief The BDD-path compatible-class computation: chart enumeration by
/// the cofactor walk, per-pair compatibility and clique partitioning over
/// BDD columns. It is the reference that the truth-table class path of
/// compute_compatible_classes is checked against.

#pragma once

#include "decomp/compatible.hpp"

namespace hyde::decomp {

/// compute_compatible_classes as it was before supports of at most
/// kTruthTableChartMaxVars variables moved to the truth-table chart: every
/// spec takes the BDD path.
ClassResult compute_compatible_classes_bdd(
    const DecompSpec& spec, DcPolicy policy = DcPolicy::kCliquePartition,
    ClassStats* stats = nullptr);

/// count_compatible_classes on the BDD path (the λ-hint count and the
/// Step-8 image cost before the truth-table path).
int count_compatible_classes_bdd(const DecompSpec& spec,
                                 DcPolicy policy = DcPolicy::kCliquePartition);

}  // namespace hyde::decomp
