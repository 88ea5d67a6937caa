// Implicit-feedback dataset representation.
//
// Follows the paper's protocol (Section IV-A1): explicit ratings are
// binarized (rating == 5 -> positive), users/items with fewer than
// `min_interactions` positives are filtered, and each user's positives are
// split 70/10/20 into train/validation/test preserving interaction order
// (the S-mode sampler relies on per-user chronology).

#ifndef LKPDPP_DATA_DATASET_H_
#define LKPDPP_DATA_DATASET_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace lkpdpp {

/// One explicit-feedback event, pre-binarization.
struct RatingEvent {
  int user = 0;
  int item = 0;
  double rating = 0.0;
  /// Monotone per-user ordering key (timestamp surrogate).
  long timestamp = 0;
};

/// Item -> category memberships. Items may span several categories (e.g.
/// movie genres), which is what makes Category Coverage a meaningful
/// diversity metric.
struct CategoryTable {
  int num_categories = 0;
  /// item_categories[i] lists the (distinct, sorted) categories of item i.
  std::vector<std::vector<int>> item_categories;
};

/// A fully prepared implicit-feedback dataset.
class Dataset {
 public:
  /// Binarizes ratings (>= `positive_threshold` becomes a positive),
  /// filters users and items with fewer than `min_interactions` positives
  /// (applied once, as in the paper), and splits per user into
  /// train/val/test with the given fractions. Following the paper's
  /// protocol the 20% test items are selected *at random* per user
  /// (seeded by `split_seed`); the chronological order of the surviving
  /// items is preserved inside each split, which is what the S-mode
  /// sliding-window sampler consumes. User/item ids are re-indexed to be
  /// dense.
  ///
  /// Fails if the split fractions are invalid or the filtered data is
  /// empty.
  static Result<Dataset> FromRatings(const std::vector<RatingEvent>& events,
                                     CategoryTable categories,
                                     std::string name,
                                     double positive_threshold = 5.0,
                                     int min_interactions = 10,
                                     double train_frac = 0.7,
                                     double val_frac = 0.1,
                                     uint64_t split_seed = 13);

  const std::string& name() const { return name_; }
  int num_users() const { return num_users_; }
  int num_items() const { return num_items_; }
  int num_categories() const { return categories_.num_categories; }
  long num_interactions() const { return num_interactions_; }

  /// Density of the positive interaction matrix.
  double Density() const;

  /// Chronologically ordered train positives of `user`.
  const std::vector<int>& TrainItems(int user) const {
    return train_[static_cast<size_t>(user)];
  }
  const std::vector<int>& ValItems(int user) const {
    return val_[static_cast<size_t>(user)];
  }
  const std::vector<int>& TestItems(int user) const {
    return test_[static_cast<size_t>(user)];
  }

  /// True if `item` is a train or validation positive of `user`
  /// (membership test backed by per-user sorted arrays).
  bool IsObserved(int user, int item) const;

  /// The train and validation positives of `user`, sorted ascending:
  /// the set IsObserved tests, for callers that walk the whole catalog.
  const std::vector<int>& ObservedSorted(int user) const {
    return observed_sorted_[static_cast<size_t>(user)];
  }

  /// Categories of an item (possibly several).
  const std::vector<int>& ItemCategories(int item) const {
    return categories_.item_categories[static_cast<size_t>(item)];
  }

  const CategoryTable& categories() const { return categories_; }

  /// Users with at least one train and one test positive (evaluation set).
  std::vector<int> EvaluableUsers() const;

 private:
  Dataset() = default;

  std::string name_;
  int num_users_ = 0;
  int num_items_ = 0;
  long num_interactions_ = 0;
  CategoryTable categories_;
  std::vector<std::vector<int>> train_;  // per-user, chronological order
  std::vector<std::vector<int>> val_;
  std::vector<std::vector<int>> test_;
  std::vector<std::vector<int>> observed_sorted_;  // train+val, sorted
};

}  // namespace lkpdpp

#endif  // LKPDPP_DATA_DATASET_H_
