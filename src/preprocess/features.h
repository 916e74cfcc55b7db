// Feature engineering — THE canonical definition of the ADSALA feature
// schema. Every other component (GatherData::to_dataset, the trainer, the
// runtime query path in AdsalaGemm) references this header instead of
// restating the column list.
//
// == Base schema (paper Table II, 17 columns) =================================
//
//   idx  name              idx  name
//   ---  ----------------  ---  ----------------
//    0   m                  9   m/t
//    1   k                 10   k/t
//    2   n                 11   n/t
//    3   n_threads         12   m*k/t
//    4   m*k               13   m*n/t
//    5   m*n               14   k*n/t
//    6   k*n               15   m*k*n/t
//    7   m*k*n             16   (m*k+k*n+m*n)/t
//    8   m*k+k*n+m*n
//
// Group 1 (0-8) carries the serial-runtime terms, Group 2 (9-16) the
// per-thread parallel terms; the order above is the canonical feature order
// for every dataset in the project.
//
// == Op-aware schema (17 + kNumOps + 3 columns) ===============================
//
// Every dataset, fitted pipeline and artefact appends one-hot categorical
// columns after the 17 numeric ones — one column per registered operation
// (blas/op.h table order == op code order) plus one per kernel variant.
// With the current five-op registry:
//
//   17  op_gemm          1 when the row timed a GEMM call
//   18  op_syrk          1 when the row timed a SYRK call (m == n equivalent
//                        shape: features 0-16 are computed from (n, k, n))
//   19  op_trsm          1 when the row timed a TRSM call (m == k equivalent
//                        shape (n, n, rhs_cols))
//   20  op_symm          1 when the row timed a SYMM call (same m == k
//                        convention as TRSM)
//   21  op_trmm          1 when the row timed a TRMM call (same m == k
//                        convention as TRSM)
//   22  kernel_generic   1 when the portable micro-kernel produced the timing
//   23  kernel_avx2      1 when the AVX2+FMA micro-kernel produced it
//   24  kernel_avx512    1 when the AVX-512F micro-kernel produced it
//
// Registering an operation (one blas/op.h row) grows the schema by exactly
// one op_* column; nothing here is edited. Categorical columns are passed
// through the preprocessing pipeline untransformed (no Yeo-Johnson, no
// standardisation; see preprocess::PipelineConfig::categorical) and columns
// that are constant over the training rows are dropped at fit time — a
// GEMM-only campaign therefore keeps no op column, and its model answers
// every family through the GEMM-proxy shape (the stored shape already
// carries the equivalent-GEMM dimensions).
//
// This is the only schema the library reads: an artefact whose pipeline
// `feature_names` differ from op_aware_feature_names() is rejected at load
// time, and make_query_features refuses any other width.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "blas/kernels/kernel_set.h"
#include "blas/op.h"

namespace adsala::preprocess {

/// Number of numeric Table-II features (base schema).
inline constexpr std::size_t kNumFeatures = 17;

/// One-hot kernel-variant columns (generic, avx2, avx512).
inline constexpr std::size_t kNumKernelFeatures = 3;

/// One-hot categorical columns appended by the op-aware schema: one per
/// registered operation (blas/op.h) plus the kernel-variant block.
inline constexpr std::size_t kNumCategoricalFeatures =
    blas::kNumOps + kNumKernelFeatures;

/// Total width of the op-aware schema.
inline constexpr std::size_t kNumOpAwareFeatures =
    kNumFeatures + kNumCategoricalFeatures;

/// Canonical base feature names, Group 1 then Group 2 (paper Table II).
const std::vector<std::string>& feature_names();

/// Canonical op-aware feature names: base schema + the op and kernel
/// one-hot columns.
const std::vector<std::string>& op_aware_feature_names();

/// Index set of the Group 1 (serial) features, for the feature ablation.
std::vector<std::size_t> group1_indices();

/// Indices of the categorical one-hot columns in the op-aware schema
/// (17..24); feed these to PipelineConfig::categorical.
std::vector<std::size_t> categorical_indices();

/// Computes the 17 numeric features for one configuration.
std::array<double, kNumFeatures> make_features(double m, double k, double n,
                                               double n_threads);

/// Computes the full op-aware row: numeric features plus the op / kernel
/// one-hots. For non-GEMM operations pass the equivalent-GEMM shape (SYRK:
/// m == n; TRSM/SYMM/TRMM: m == k). `variant` must be concrete (resolve
/// kAuto via blas::kernels::active_variant() first); kAuto leaves every
/// kernel column zero.
std::array<double, kNumOpAwareFeatures> make_op_aware_features(
    double m, double k, double n, double n_threads, blas::OpKind op,
    blas::kernels::Variant variant);

/// The prediction path's query row: make_op_aware_features as a vector.
/// `pipeline_width` is the fitted pipeline's input width; anything but
/// kNumOpAwareFeatures throws std::invalid_argument.
std::vector<double> make_query_features(double m, double k, double n,
                                        double n_threads, blas::OpKind op,
                                        blas::kernels::Variant variant,
                                        std::size_t pipeline_width);

}  // namespace adsala::preprocess
