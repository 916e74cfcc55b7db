// Flat regression trees: the one node-array format of every tree model.
//
// The CART tree (and through it the random forest and AdaBoost.R2) and the
// two gradient boosters all store a tree as one array of nodes, root first.
// FlatTree is the only code that walks, writes or reads that array, and its
// decoder is where a model file's tree structure is checked: the runtime
// (paper Fig. 3) evaluates the installed model on every uncached call, so
// a tree that loads must be one whose every walk ends inside the array.
#pragma once

#include <span>
#include <vector>

#include "ml/model.h"

namespace adsala::ml {

/// Flat node record; leaves have feature == -1 and carry `value`.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  double value = 0.0;
  int left = -1;
  int right = -1;

  bool is_leaf() const { return feature < 0; }
};

/// One tree as a node array. Fitters append both children after their
/// parent, and decode() accepts only that order, so a walk always moves
/// forward and stops at a leaf.
struct FlatTree {
  std::vector<TreeNode> nodes;

  /// Walks from the root to a leaf; the tree must not be empty. Defined
  /// here so the boosters' per-tree loop inlines it.
  double predict(std::span<const double> x) const {
    const TreeNode* node = &nodes[0];
    while (!node->is_leaf()) {
      const auto f = static_cast<std::size_t>(node->feature);
      node = x[f] <= node->threshold
                 ? &nodes[static_cast<std::size_t>(node->left)]
                 : &nodes[static_cast<std::size_t>(node->right)];
    }
    return node->value;
  }

  /// Adds the five per-node arrays (feature, threshold, value, left,
  /// right) to the object `out`.
  void encode(Json& out) const;
  /// Reads what encode() wrote for a model fed `width` inputs. Throws
  /// std::invalid_argument unless the arrays are equally long, every index
  /// is an int, and every internal node splits a feature below `width` and
  /// has both children in the array after itself.
  static FlatTree decode(const Json& blob, std::size_t width);
};

/// Base of the XGBoost- and LightGBM-style boosters: a base score plus the
/// sum of the trees' leaf values (pre-shrunk by the learning rate). Both
/// share this state, its predict and its codec; no tree may be empty.
class TreeBooster : public Regressor {
 public:
  double predict_one(std::span<const double> x) const override;

  std::size_t n_trees() const { return trees_.size(); }
  double base_score() const { return base_score_; }

 protected:
  void save_state(Json& out) const override;
  void load_state(const Json& blob, std::size_t width) override;

  double base_score_ = 0.0;
  std::vector<FlatTree> trees_;
};

}  // namespace adsala::ml
