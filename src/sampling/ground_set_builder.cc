#include "sampling/ground_set_builder.h"

#include <algorithm>

#include "common/logging.h"

namespace lkpdpp {

const char* TargetSelectionName(TargetSelection mode) {
  switch (mode) {
    case TargetSelection::kSequential:
      return "S";
    case TargetSelection::kRandom:
      return "R";
  }
  return "?";
}

GroundSetBuilder::GroundSetBuilder(const Dataset* dataset, int k, int n,
                                   TargetSelection mode)
    : dataset_(dataset), negatives_(dataset), k_(k), n_(n), mode_(mode) {
  LKP_CHECK_GT(k, 0);
  LKP_CHECK_GT(n, 0);
}

Result<std::vector<TrainingInstance>> GroundSetBuilder::BuildForUser(
    int user, Rng* rng) const {
  const std::vector<int>& positives = dataset_->TrainItems(user);
  const int t = static_cast<int>(positives.size());
  std::vector<TrainingInstance> out;
  if (t < k_) return out;

  // Window start offsets with stride k; back-shift the last window so it
  // ends exactly at the last positive.
  std::vector<int> starts;
  for (int s = 0; s + k_ <= t; s += k_) starts.push_back(s);
  if (starts.empty() || starts.back() + k_ < t) starts.push_back(t - k_);

  out.reserve(starts.size());
  for (int start : starts) {
    TrainingInstance inst;
    inst.user = user;
    inst.num_pos = k_;
    if (mode_ == TargetSelection::kSequential) {
      inst.items.assign(positives.begin() + start,
                        positives.begin() + start + k_);
    } else {
      // R mode: targets drawn uniformly without replacement; the window
      // machinery still fixes the per-epoch instance count.
      std::vector<int> pick = rng->SampleWithoutReplacement(t, k_);
      inst.items.reserve(static_cast<size_t>(k_ + n_));
      for (int p : pick) inst.items.push_back(positives[p]);
    }
    LKP_ASSIGN_OR_RETURN(std::vector<int> negs,
                         negatives_.Sample(user, n_, inst.items, rng));
    inst.items.insert(inst.items.end(), negs.begin(), negs.end());
    out.push_back(std::move(inst));
  }
  return out;
}

Result<std::vector<TrainingInstance>> GroundSetBuilder::BuildEpoch(
    Rng* rng) const {
  std::vector<TrainingInstance> out;
  for (int u = 0; u < dataset_->num_users(); ++u) {
    LKP_ASSIGN_OR_RETURN(std::vector<TrainingInstance> user_insts,
                         BuildForUser(u, rng));
    for (TrainingInstance& inst : user_insts) {
      out.push_back(std::move(inst));
    }
  }
  return out;
}

std::vector<int> GroundSetBuilder::BuildServingPool(const Dataset& dataset,
                                                    int user,
                                                    const Vector& scores,
                                                    int pool_size) {
  LKP_CHECK_EQ(scores.size(), dataset.num_items());
  if (pool_size <= 0) return {};
  // Strict total order: higher score first, smaller id on ties.
  auto better = [&scores](int a, int b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };
  // Bounded heap of the best pool_size unobserved items, worst on top.
  // Items arrive in ascending id order, so once the heap is full a
  // newcomer beats the worst kept item only with a strictly higher
  // score (on a tie its larger id loses).
  const size_t cap =
      static_cast<size_t>(std::min(pool_size, dataset.num_items()));
  std::vector<int> heap;
  heap.reserve(cap);
  auto offer = [&](int item) {
    if (heap.size() < cap) {
      heap.push_back(item);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (scores[item] > scores[heap.front()]) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = item;
      std::push_heap(heap.begin(), heap.end(), better);
    }
  };
  // Merge walk: the unobserved items are the gaps between consecutive
  // entries of the sorted observed list.
  int next = 0;
  for (int observed : dataset.ObservedSorted(user)) {
    for (; next < observed; ++next) offer(next);
    next = std::max(next, observed + 1);
  }
  for (; next < dataset.num_items(); ++next) offer(next);
  std::sort_heap(heap.begin(), heap.end(), better);
  return heap;
}

}  // namespace lkpdpp
