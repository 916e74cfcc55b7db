#include "preprocess/features.h"

#include <stdexcept>

namespace adsala::preprocess {

namespace {

// The op one-hot block is indexed by op code; the table codes must stay
// contiguous from 0 for that to hold.
static_assert([] {
  int code = 0;
  for (const auto op : blas::all_ops()) {
    if (blas::op_code(op) != code++) return false;
  }
  return true;
}());

}  // namespace

const std::vector<std::string>& feature_names() {
  static const std::vector<std::string> names = {
      // Group 1: serial-runtime terms.
      "m", "k", "n", "n_threads", "m*k", "m*n", "k*n", "m*k*n",
      "m*k+k*n+m*n",
      // Group 2: parallel-runtime terms.
      "m/t", "k/t", "n/t", "m*k/t", "m*n/t", "k*n/t", "m*k*n/t",
      "(m*k+k*n+m*n)/t"};
  return names;
}

const std::vector<std::string>& op_aware_feature_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all = feature_names();
    for (const auto op : blas::all_ops()) {
      all.push_back(std::string("op_") + blas::op_name(op));
    }
    all.insert(all.end(), {"kernel_generic", "kernel_avx2", "kernel_avx512"});
    return all;
  }();
  return names;
}

std::vector<std::size_t> group1_indices() {
  return {0, 1, 2, 3, 4, 5, 6, 7, 8};
}

std::vector<std::size_t> categorical_indices() {
  std::vector<std::size_t> idx;
  for (std::size_t j = kNumFeatures; j < kNumOpAwareFeatures; ++j) {
    idx.push_back(j);
  }
  return idx;
}

std::array<double, kNumFeatures> make_features(double m, double k, double n,
                                               double t) {
  const double mk = m * k;
  const double mn = m * n;
  const double kn = k * n;
  const double mkn = m * k * n;
  const double total = mk + kn + mn;
  return {m,      k,      n,      t,      mk,     mn,      kn,     mkn,
          total,  m / t,  k / t,  n / t,  mk / t, mn / t,  kn / t, mkn / t,
          total / t};
}

std::array<double, kNumOpAwareFeatures> make_op_aware_features(
    double m, double k, double n, double t, blas::OpKind op,
    blas::kernels::Variant variant) {
  const auto base = make_features(m, k, n, t);
  std::array<double, kNumOpAwareFeatures> out{};
  for (std::size_t j = 0; j < kNumFeatures; ++j) out[j] = base[j];
  out[kNumFeatures + static_cast<std::size_t>(blas::op_code(op))] = 1.0;
  // Kernel block, in kernels::Variant code order (kAuto sets none).
  using blas::kernels::Variant;
  double* kernel = out.data() + kNumFeatures + blas::kNumOps;
  kernel[0] = variant == Variant::kGeneric ? 1.0 : 0.0;
  kernel[1] = variant == Variant::kAvx2 ? 1.0 : 0.0;
  kernel[2] = variant == Variant::kAvx512 ? 1.0 : 0.0;
  return out;
}

std::vector<double> make_query_features(double m, double k, double n,
                                        double t, blas::OpKind op,
                                        blas::kernels::Variant variant,
                                        std::size_t pipeline_width) {
  if (pipeline_width != kNumOpAwareFeatures) {
    throw std::invalid_argument(
        "make_query_features: pipeline width " +
        std::to_string(pipeline_width) + " is not the " +
        std::to_string(kNumOpAwareFeatures) + "-column op-aware schema");
  }
  const auto row = make_op_aware_features(m, k, n, t, op, variant);
  return {row.begin(), row.end()};
}

}  // namespace adsala::preprocess
