// Per-layer probes of the traced run (perfbench/NOTES.md lists which
// end-to-end metric each one should move).
#pragma once

#include <vector>

#include "perfbench.h"

namespace perfbench {

/// common + blas: empty-region fork/join per participant count, one fixed
/// mid size per op at p=1 and p=pool, micro-kernel rate against the FMA
/// peak measured in the same run, and A/B packing bandwidth.
void probe_common_and_blas(adsala::core::AdsalaGemm& rt, int pool,
                           std::vector<Metric>& out);

/// core + preprocess + ml: memo hit, miss and snapshot swap, and the two
/// stages of a miss (feature transform, model inference). `hot` must be
/// non-empty.
void probe_select(adsala::core::AdsalaGemm& rt, const std::vector<Call>& hot,
                  std::vector<Metric>& out);

}  // namespace perfbench
