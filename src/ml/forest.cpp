#include "ml/forest.h"

#include "common/rng.h"
#include "common/thread_pool.h"

namespace adsala::ml {

void RandomForest::fit(const Dataset& data) {
  check_fit_input(data);
  const std::size_t n = data.size();
  trees_.assign(static_cast<std::size_t>(n_estimators_), DecisionTree{});

  // Bootstrap weights are drawn sequentially (deterministic order), the
  // expensive tree builds run on the pool.
  std::vector<std::vector<double>> weights(trees_.size());
  Rng rng(seed_);
  for (auto& w : weights) {
    w.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) w[rng.below(n)] += 1.0;
  }

  ThreadPool& pool = ThreadPool::global();
  pool.parallel_for(pool.max_threads(), 0, trees_.size(), [&](std::size_t t) {
    Params p = {{"max_depth", static_cast<double>(max_depth_)},
                {"min_samples_leaf", static_cast<double>(min_samples_leaf_)},
                {"max_features", max_features_},
                {"seed", static_cast<double>(seed_ + 1 + t)}};
    trees_[t].set_params(p);
    trees_[t].fit_weighted(data, weights[t]);
  });
}

double RandomForest::predict_one(std::span<const double> x) const {
  if (trees_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.predict_one(x);
  return sum / static_cast<double>(trees_.size());
}

void RandomForest::save_state(Json& out) const {
  JsonArray trees;
  for (const auto& tree : trees_) trees.push_back(tree.save());
  out["trees"] = Json(std::move(trees));
}

void RandomForest::load_state(const Json& blob, std::size_t width) {
  trees_.clear();
  for (const auto& tj : blob.at("trees").as_array()) {
    trees_.emplace_back().load(tj, width);
  }
}

}  // namespace adsala::ml
