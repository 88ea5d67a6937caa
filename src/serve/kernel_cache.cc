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

KernelCache::LruList::iterator KernelCache::FindLocked(Shard& shard,
                                                      int user,
                                                      uint64_t hash) {
  auto bucket = shard.by_user.find(user);
  if (bucket != shard.by_user.end()) {
    for (LruList::iterator node : bucket->second) {
      if (node->hash == hash) return node;
    }
  }
  return shard.lru.end();
}

std::shared_ptr<const ServedKernel> KernelCache::HitLocked(
    Shard& shard, LruList::iterator node) {
  hits_.Inc();
  CacheHitsTotal()->Inc();
  shard.lru.splice(shard.lru.begin(), shard.lru, node);
  return node->value;
}

std::shared_ptr<const ServedKernel> KernelCache::Get(int user,
                                                     uint64_t ground_hash) {
  Shard& shard = ShardFor(user);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto node = FindLocked(shard, user, ground_hash);
  if (node == shard.lru.end()) {
    misses_.Inc();
    CacheMissesTotal()->Inc();
    return nullptr;
  }
  return HitLocked(shard, node);
}

std::shared_ptr<const ServedKernel> KernelCache::GetCurrent(
    int user, uint64_t model_version) {
  if (capacity_ == 0) return nullptr;
  Shard& shard = ShardFor(user);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto bucket = shard.by_user.find(user);
  if (bucket == shard.by_user.end()) return nullptr;
  for (LruList::iterator node : bucket->second) {
    if (node->value->model_version == model_version) {
      return HitLocked(shard, node);
    }
  }
  return nullptr;
}

void KernelCache::PutLocked(Shard& shard, int user, uint64_t hash,
                            std::shared_ptr<const ServedKernel> value,
                            Victims* victims) {
  std::vector<LruList::iterator>& nodes = shard.by_user[user];
  for (LruList::iterator node : nodes) {
    if (node->hash != hash) continue;
    // Concurrent fill of the same key, or a rebuild after a 64-bit hash
    // collision: keep the newer value, refresh.
    victims->push_back(std::move(node->value));
    node->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, node);
    return;
  }
  shard.lru.push_front(Entry{user, hash, std::move(value)});
  nodes.push_back(shard.lru.begin());
  while (static_cast<int>(shard.lru.size()) > shard.capacity) {
    EraseLocked(shard, std::prev(shard.lru.end()), victims);
    evictions_.Inc();
    shard.evictions_metric->Inc();
  }
}

void KernelCache::EraseLocked(Shard& shard, LruList::iterator node,
                              Victims* victims) {
  auto bucket = shard.by_user.find(node->user);
  std::vector<LruList::iterator>& nodes = bucket->second;
  *std::find(nodes.begin(), nodes.end(), node) = nodes.back();
  nodes.pop_back();
  if (nodes.empty()) shard.by_user.erase(bucket);
  victims->push_back(std::move(node->value));
  shard.lru.erase(node);
}

long KernelCache::InvalidateUsers(const std::vector<int>& users) {
  long total = 0;
  Victims victims;  // Freed after every shard lock is released.
  for (int user : users) {
    Shard& shard = ShardFor(user);
    std::lock_guard<std::mutex> lk(shard.mu);
    auto bucket = shard.by_user.find(user);
    if (bucket == shard.by_user.end()) continue;
    const long n = static_cast<long>(bucket->second.size());
    for (LruList::iterator node : bucket->second) {
      victims.push_back(std::move(node->value));
      shard.lru.erase(node);
    }
    shard.by_user.erase(bucket);
    total += n;
    shard.invalidated += n;
    invalidations_.Inc(n);
    shard.invalidations_metric->Inc(n);
  }
  return total;
}

long KernelCache::InvalidateItems(const std::vector<int>& items) {
  // A negative id casts past the end of `touched`: never flagged.
  std::vector<char> touched;
  for (int item : items) {
    if (item < 0) continue;
    touched.resize(std::max(touched.size(), static_cast<size_t>(item) + 1));
    touched[static_cast<size_t>(item)] = 1;
  }
  if (touched.empty()) return 0;
  auto holds_touched = [&touched](const ServedKernel& entry) {
    return std::any_of(entry.items.begin(), entry.items.end(), [&](int item) {
      return static_cast<size_t>(item) < touched.size() &&
             touched[static_cast<size_t>(item)];
    });
  };
  long total = 0;
  Victims victims;  // Freed after every shard lock is released.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    long n = 0;
    for (auto node = shard->lru.begin(); node != shard->lru.end();) {
      auto next = std::next(node);
      if (holds_touched(*node->value)) {
        EraseLocked(*shard, node, &victims);
        ++n;
      }
      node = next;
    }
    total += n;
    shard->invalidated += n;
    invalidations_.Inc(n);
    shard->invalidations_metric->Inc(n);
  }
  return total;
}

void KernelCache::Put(int user, uint64_t ground_hash,
                      std::shared_ptr<const ServedKernel> value) {
  if (capacity_ == 0) return;
  Shard& shard = ShardFor(user);
  Victims victims;
  std::lock_guard<std::mutex> lk(shard.mu);
  PutLocked(shard, user, ground_hash, std::move(value), &victims);
}

Result<std::shared_ptr<const ServedKernel>> KernelCache::GetOrBuild(
    int user, uint64_t ground_hash, const std::vector<int>& items,
    const Builder& build, bool* was_hit) {
  const std::pair<int, uint64_t> key{user, ground_hash};
  Shard& shard = ShardFor(user);
  if (was_hit != nullptr) *was_hit = false;

  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    LKP_TRACE_SPAN("serve.cache_lookup");
    std::lock_guard<std::mutex> lk(shard.mu);
    auto node = FindLocked(shard, user, ground_hash);
    if (node != shard.lru.end() && node->value->items == items) {
      if (was_hit != nullptr) *was_hit = true;
      return HitLocked(shard, node);
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
    Victims victims;
    std::lock_guard<std::mutex> lk(shard.mu);
    if (built.ok() && capacity_ > 0) {
      PutLocked(shard, user, ground_hash, *built, &victims);
    }
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
    LruList dropped;  // Freed after the shard lock is released.
    std::lock_guard<std::mutex> lk(shard->mu);
    dropped.swap(shard->lru);
    shard->by_user.clear();
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
