#include "serve/kernel_cache.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "obs/trace.h"

namespace lkpdpp {

namespace {

// Process-wide cache metrics, aggregated across every KernelCache in
// the process; the per-instance counters behind hits()/misses() are
// bumped at the same sites.
obs::Counter* CacheHitsTotal() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_cache_hits_total");
  return counter;
}
obs::Counter* CacheMissesTotal() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_cache_misses_total");
  return counter;
}
obs::Counter* CacheBuildsTotal() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_cache_builds_total");
  return counter;
}
// Build latency, one series per serve path (indexed by enum value).
obs::Histogram* CacheBuildMs(ServePath path) {
  auto series = [](ServePath p) {
    return obs::MetricsRegistry::Global().GetHistogram(
        std::string("lkp_serve_cache_build_ms{path=\"") + ServePathName(p) +
            "\"}",
        obs::LatencyBucketsMs());
  };
  static obs::Histogram* const by_path[] = {
      series(ServePath::kPrimal), series(ServePath::kDualSample),
      series(ServePath::kFactorDiagSample), series(ServePath::kFactorMap),
      series(ServePath::kDiagMap)};
  return by_path[static_cast<int>(path)];
}
obs::Counter* ShardEvictionsTotal(int shard_index) {
  return obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_cache_evictions_total{shard=\"" +
      std::to_string(shard_index) + "\"}");
}
obs::Counter* ShardInvalidationsTotal(int shard_index) {
  return obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_cache_invalidations_total{shard=\"" +
      std::to_string(shard_index) + "\"}");
}

}  // namespace

const char* ServePathName(ServePath path) {
  switch (path) {
    case ServePath::kPrimal:
      return "primal";
    case ServePath::kDualSample:
      return "dual_sample";
    case ServePath::kFactorDiagSample:
      return "factor_diag_sample";
    case ServePath::kFactorMap:
      return "factor_map";
    case ServePath::kDiagMap:
      return "diag_map";
  }
  return "?";
}

uint64_t HashGroundSet(const std::vector<int>& items) {
  uint64_t state = 0x243F6A8885A308D3ULL ^ (items.size() * 0x100000001B3ULL);
  for (int item : items) {
    // Chain the avalanche-mixed output so every item diffuses into all
    // 64 bits (the state increment alone only carries upward).
    state ^= static_cast<uint64_t>(item) + 0x9E3779B97F4A7C15ULL;
    state = SplitMix64(&state);
  }
  return state;
}

KernelCache::KernelCache(int capacity, int shards) : capacity_(capacity) {
  LKP_CHECK_GE(capacity, 0);
  if (shards < 1) shards = 1;
  // Collapse to fewer shards rather than let per-shard capacity drop
  // below the floor: a capacity-2 cache must behave as one exact LRU,
  // not as two 1-entry shards with hash-dependent eviction.
  const int max_shards =
      capacity > 0 ? std::max(1, capacity / kMinEntriesPerShard) : 1;
  const int effective = std::min(shards, max_shards);
  shards_.reserve(static_cast<size_t>(effective));
  for (int s = 0; s < effective; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    // Distribute the budget so shard capacities sum exactly to capacity_.
    shards_.back()->capacity =
        capacity / effective + (s < capacity % effective ? 1 : 0);
    shards_.back()->evictions_metric = ShardEvictionsTotal(s);
    shards_.back()->invalidations_metric = ShardInvalidationsTotal(s);
  }
}

void KernelCache::IndexEntryLocked(Shard& shard, const Key& key,
                                   const ServedKernel& value) {
  shard.user_keys[key.user].push_back(key);
  for (int item : value.items) shard.item_keys[item].push_back(key);
}

void KernelCache::UnindexEntryLocked(Shard& shard, const Key& key,
                                     const ServedKernel& value) {
  auto remove_one = [&](std::unordered_map<int, std::vector<Key>>& buckets,
                        int id) {
    auto it = buckets.find(id);
    if (it == buckets.end()) return;
    std::vector<Key>& keys = it->second;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == key) {
        keys[i] = keys.back();
        keys.pop_back();
        break;
      }
    }
    if (keys.empty()) buckets.erase(it);
  };
  remove_one(shard.user_keys, key.user);
  // A ground set never repeats an item, so one pass per item removes
  // exactly this entry's contribution.
  for (int item : value.items) remove_one(shard.item_keys, item);
}

std::shared_ptr<const ServedKernel> KernelCache::Get(int user,
                                                     uint64_t ground_hash) {
  const Key key{user, ground_hash};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.Inc();
    CacheMissesTotal()->Inc();
    return nullptr;
  }
  hits_.Inc();
  CacheHitsTotal()->Inc();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

std::shared_ptr<const ServedKernel> KernelCache::GetCurrent(
    int user, uint64_t model_version) {
  if (capacity_ == 0) return nullptr;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    auto bucket = shard->user_keys.find(user);
    if (bucket == shard->user_keys.end()) continue;
    for (const Key& key : bucket->second) {
      auto it = shard->index.at(key);
      if (it->second->model_version != model_version) continue;
      hits_.Inc();
      CacheHitsTotal()->Inc();
      shard->lru.splice(shard->lru.begin(), shard->lru, it);
      return it->second;
    }
  }
  return nullptr;
}

void KernelCache::PutLocked(Shard& shard, const Key& key,
                            std::shared_ptr<const ServedKernel> value) {
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Concurrent fill of the same key: keep the newer value, refresh.
    // The ground sets may differ (64-bit hash collision), so re-derive
    // the reverse-index rows from each value rather than assuming they
    // match.
    UnindexEntryLocked(shard, key, *it->second->second);
    IndexEntryLocked(shard, key, *value);
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  IndexEntryLocked(shard, key, *value);
  shard.lru.emplace_front(key, std::move(value));
  shard.index[key] = shard.lru.begin();
  while (static_cast<int>(shard.lru.size()) > shard.capacity) {
    const Entry& victim = shard.lru.back();
    UnindexEntryLocked(shard, victim.first, *victim.second);
    shard.index.erase(victim.first);
    shard.lru.pop_back();
    evictions_.Inc();
    shard.evictions_metric->Inc();
  }
}

void KernelCache::EraseLocked(Shard& shard, const Key& key) {
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return;
  UnindexEntryLocked(shard, key, *it->second->second);
  shard.lru.erase(it->second);
  shard.index.erase(it);
}

long KernelCache::InvalidateUsers(const std::vector<int>& users) {
  long total = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    for (int user : users) {
      auto it = shard->user_keys.find(user);
      if (it == shard->user_keys.end()) continue;
      // EraseLocked mutates the bucket we're draining; move it out first.
      std::vector<Key> keys = std::move(it->second);
      shard->user_keys.erase(it);
      for (const Key& key : keys) {
        EraseLocked(*shard, key);
        ++total;
        shard->invalidated += 1;
        invalidations_.Inc();
        shard->invalidations_metric->Inc();
      }
    }
  }
  return total;
}

long KernelCache::InvalidateItems(const std::vector<int>& items) {
  long total = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    for (int item : items) {
      auto it = shard->item_keys.find(item);
      if (it == shard->item_keys.end()) continue;
      std::vector<Key> keys = std::move(it->second);
      shard->item_keys.erase(it);
      for (const Key& key : keys) {
        // A key can sit in several drained buckets (entry containing
        // two touched items); EraseLocked no-ops on the second visit.
        auto idx = shard->index.find(key);
        if (idx == shard->index.end()) continue;
        EraseLocked(*shard, key);
        ++total;
        shard->invalidated += 1;
        invalidations_.Inc();
        shard->invalidations_metric->Inc();
      }
    }
  }
  return total;
}

void KernelCache::Put(int user, uint64_t ground_hash,
                      std::shared_ptr<const ServedKernel> value) {
  if (capacity_ == 0) return;
  const Key key{user, ground_hash};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lk(shard.mu);
  PutLocked(shard, key, std::move(value));
}

Result<std::shared_ptr<const ServedKernel>> KernelCache::GetOrBuild(
    int user, uint64_t ground_hash, const std::vector<int>& items,
    const Builder& build, bool* was_hit) {
  const Key key{user, ground_hash};
  Shard& shard = ShardFor(key);
  if (was_hit != nullptr) *was_hit = false;

  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    LKP_TRACE_SPAN("serve.cache_lookup");
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end() && it->second->second != nullptr &&
        it->second->second->items == items) {
      hits_.Inc();
      CacheHitsTotal()->Inc();
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      if (was_hit != nullptr) *was_hit = true;
      return it->second->second;
    }
    // Miss (or a 64-bit hash collision whose entry was conditioned on a
    // different ground set — rebuilt rather than served wrong).
    misses_.Inc();
    CacheMissesTotal()->Inc();
    auto [fit, inserted] = shard.inflight.try_emplace(key, nullptr);
    if (inserted) {
      fit->second = std::make_shared<InFlight>();
      owner = true;
    }
    flight = fit->second;
  }

  if (!owner) {
    // Someone else is already computing this key: wait for their result
    // instead of duplicating the O(n^3) work.
    Result<std::shared_ptr<const ServedKernel>> shared =
        Status::Internal("in-flight wait not resolved");
    {
      LKP_TRACE_SPAN("serve.cache_inflight_wait");
      std::unique_lock<std::mutex> lk(flight->mu);
      flight->cv.wait(lk, [&flight] { return flight->done; });
      shared = flight->result;
    }
    if (shared.ok() && (*shared)->items == items) return shared;
    if (!shared.ok()) return shared;
    // Astronomically rare: the in-flight build was for a colliding key
    // with different items. Fall back to a direct unguarded build.
    builds_.Inc();
    CacheBuildsTotal()->Inc();
    return build();
  }

  // Owner path: compute with NO shard lock held, publish, then release
  // the waiters.
  builds_.Inc();
  CacheBuildsTotal()->Inc();
  Stopwatch build_timer;
  Result<std::shared_ptr<const ServedKernel>> built = [&] {
    LKP_TRACE_SPAN("serve.cache_build");
    return build();
  }();
  if (built.ok() && *built == nullptr) {
    built = Status::Internal("kernel builder returned null");
  }
  if (built.ok()) {
    CacheBuildMs((*built)->path)->Observe(build_timer.ElapsedMillis());
  }
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    if (built.ok() && capacity_ > 0) PutLocked(shard, key, *built);
    shard.inflight.erase(key);
  }
  {
    std::lock_guard<std::mutex> lk(flight->mu);
    flight->result = built;
    flight->done = true;
  }
  flight->cv.notify_all();
  return built;
}

void KernelCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->user_keys.clear();
    shard->item_keys.clear();
  }
}

void KernelCache::ResetCounters() {
  // Instance counters only: the registry's lkp_serve_cache_* mirrors
  // accumulate monotonically (Prometheus counter semantics).
  hits_.Reset();
  misses_.Reset();
  evictions_.Reset();
  builds_.Reset();
  invalidations_.Reset();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    shard->invalidated = 0;
  }
}

int KernelCache::size() const {
  int total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    total += static_cast<int>(shard->lru.size());
  }
  return total;
}

long KernelCache::hits() const { return hits_.Value(); }

long KernelCache::misses() const { return misses_.Value(); }

long KernelCache::evictions() const { return evictions_.Value(); }

long KernelCache::builds() const { return builds_.Value(); }

long KernelCache::invalidations() const { return invalidations_.Value(); }

std::vector<long> KernelCache::InvalidationsByShard() const {
  std::vector<long> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    out.push_back(shard->invalidated);
  }
  return out;
}

}  // namespace lkpdpp
