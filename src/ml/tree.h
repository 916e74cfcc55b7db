// CART regression tree with sample weights.
//
// Exact greedy splitting on sorted feature values, weighted-variance
// criterion. Sample-weight support is what lets AdaBoost.R2 and the random
// forest reuse this one implementation; feature subsampling (max_features)
// serves the forest. Non-parametric and robust to the skewed feature
// distributions of the GEMM dataset (paper Table I).
#pragma once

#include <cstdint>

#include "ml/flat_tree.h"

namespace adsala::ml {

class DecisionTree : public Regressor {
 public:
  explicit DecisionTree(Params params = {}) { set_params(params); }

  void fit(const Dataset& data) override;

  /// Weighted fit; weights must be non-negative, one per row.
  void fit_weighted(const Dataset& data, std::span<const double> weights);

  double predict_one(std::span<const double> x) const override;
  std::string name() const override { return "decision_tree"; }

  Params get_params() const override {
    return {{"max_depth", static_cast<double>(max_depth_)},
            {"min_samples_split", static_cast<double>(min_samples_split_)},
            {"min_samples_leaf", static_cast<double>(min_samples_leaf_)},
            {"max_features", max_features_},
            {"seed", static_cast<double>(seed_)}};
  }
  void set_params(const Params& params) override {
    max_depth_ = static_cast<int>(param_or(params, "max_depth", 12));
    min_samples_split_ =
        static_cast<int>(param_or(params, "min_samples_split", 2));
    min_samples_leaf_ =
        static_cast<int>(param_or(params, "min_samples_leaf", 1));
    max_features_ = param_or(params, "max_features", 1.0);
    seed_ = static_cast<std::uint64_t>(param_or(params, "seed", 7));
  }

  const std::vector<TreeNode>& nodes() const { return tree_.nodes; }
  std::size_t depth() const;  ///< actual depth of the fitted tree

 private:
  void save_state(Json& out) const override { tree_.encode(out); }
  void load_state(const Json& blob, std::size_t width) override {
    tree_ = FlatTree::decode(blob, width);
  }

  int max_depth_ = 12;
  int min_samples_split_ = 2;
  int min_samples_leaf_ = 1;
  double max_features_ = 1.0;  ///< fraction of features tried per split
  std::uint64_t seed_ = 7;
  FlatTree tree_;  ///< empty until fitted; predicts 0 then
};

}  // namespace adsala::ml
