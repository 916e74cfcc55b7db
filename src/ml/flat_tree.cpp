#include "ml/flat_tree.h"

#include <stdexcept>
#include <string>

namespace adsala::ml {

void FlatTree::encode(Json& out) const {
  JsonArray features, thresholds, values, lefts, rights;
  for (const auto& node : nodes) {
    features.emplace_back(node.feature);
    thresholds.emplace_back(node.threshold);
    values.emplace_back(node.value);
    lefts.emplace_back(node.left);
    rights.emplace_back(node.right);
  }
  out["feature"] = Json(std::move(features));
  out["threshold"] = Json(std::move(thresholds));
  out["value"] = Json(std::move(values));
  out["left"] = Json(std::move(lefts));
  out["right"] = Json(std::move(rights));
}

FlatTree FlatTree::decode(const Json& blob, std::size_t width) {
  const auto& features = blob.at("feature").as_array();
  const auto& thresholds = blob.at("threshold").as_array();
  const auto& values = blob.at("value").as_array();
  const auto& lefts = blob.at("left").as_array();
  const auto& rights = blob.at("right").as_array();
  const std::size_t n = features.size();
  if (thresholds.size() != n || values.size() != n || lefts.size() != n ||
      rights.size() != n) {
    throw std::invalid_argument("tree: per-node arrays differ in length");
  }
  FlatTree tree;
  tree.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    TreeNode& node = tree.nodes[i];
    node.feature = features[i].as_int();
    node.threshold = thresholds[i].as_number();
    node.value = values[i].as_number();
    node.left = lefts[i].as_int();
    node.right = rights[i].as_int();
    if (node.is_leaf()) continue;
    const auto after_node = [&](int child) {
      return child >= 0 && static_cast<std::size_t>(child) > i &&
             static_cast<std::size_t>(child) < n;
    };
    if (static_cast<std::size_t>(node.feature) >= width) {
      throw std::invalid_argument(
          "tree: node " + std::to_string(i) + " splits feature " +
          std::to_string(node.feature) + " of a " + std::to_string(width) +
          "-input model");
    }
    if (!after_node(node.left) || !after_node(node.right)) {
      throw std::invalid_argument("tree: node " + std::to_string(i) +
                                  " has a child outside (" +
                                  std::to_string(i) + ", " +
                                  std::to_string(n) + ")");
    }
  }
  return tree;
}

double TreeBooster::predict_one(std::span<const double> x) const {
  double acc = base_score_;
  for (const auto& tree : trees_) acc += tree.predict(x);
  return acc;
}

void TreeBooster::save_state(Json& out) const {
  out["base_score"] = Json(base_score_);
  JsonArray trees;
  for (const auto& tree : trees_) {
    Json tj;
    tree.encode(tj);
    trees.push_back(std::move(tj));
  }
  out["trees"] = Json(std::move(trees));
}

void TreeBooster::load_state(const Json& blob, std::size_t width) {
  base_score_ = blob.at("base_score").as_number();
  trees_.clear();
  for (const auto& tj : blob.at("trees").as_array()) {
    trees_.push_back(FlatTree::decode(tj, width));
    if (trees_.back().nodes.empty()) {
      throw std::invalid_argument("booster: tree " +
                                  std::to_string(trees_.size() - 1) +
                                  " is empty");
    }
  }
}

}  // namespace adsala::ml
