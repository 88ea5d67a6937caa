// Sharded LRU memoization of per-(user, ground set) serving kernels.
//
// Building a personalized k-DPP over a candidate pool costs an O(n^3)
// eigendecomposition. For a fixed trained model the conditioned kernel
// is a pure function of (user, ground set), so repeat requests can skip
// all of it. The cache stores the assembled quality x diversity kernel
// (MAP mode) or, for sampling mode, the decomposed KDpp behind
// shared_ptr, so an entry evicted mid-request stays alive for its
// readers. A primal sampling entry holds only the eigenpairs: the
// kernel is dropped after the eigensolve (KDpp::CreateSampler).
//
// Concurrency: the table is lock-striped into N independent shards, each
// with its own mutex, LRU list, and counters, so concurrent lookups for
// different users never serialize on one global lock. Eviction is LRU
// *per shard* (globally approximate LRU). Small capacities collapse to a
// single shard so the exact-LRU behavior unit tests rely on survives.
//
// The expensive build path goes through GetOrBuild: the builder runs
// with NO shard lock held, and a per-key in-flight guard makes
// concurrent misses on the same key compute once — the first caller
// builds, the rest block on the guard and share the result instead of
// duplicating (or serializing under a held lock) the O(n^3) work.
//
// Invalidation: entries are valid only for the model snapshot they were
// computed under, and every ServedKernel carries the model_version epoch
// it was built against. A streaming update (see serve/model_update.h)
// that folds fresh interactions into a handful of user/item parameter
// rows does NOT require nuking the cache: InvalidateUsers/InvalidateItems
// evict exactly the entries whose inputs changed — any entry owned by a
// touched user, or whose pool contains a touched item — and leave
// everything else warm. Pool-membership drift needs no invalidation: the
// key includes the ground-set hash, so a pool recomputed from fresh
// scores that admits or drops an item simply misses and rebuilds, while
// the stale pool's entry ages out by LRU. Because a user's pool is a
// pure function of (user, model_version), an entry stamped with the
// current version is also the user's current pool: GetCurrent finds it
// among the user's entries without the caller recomputing the pool at
// all. Clear() remains the blunt fallback for full retrains / model
// swaps (the service owns this; see RecommendationService::InvalidateModel).
//
// Layout and cost: shards are chosen by user, so all of a user's entries
// share one shard, and each shard keeps a single index from user to that
// user's LRU nodes (1-3 in serving: one per pool the user has been
// served since it last aged out). Get, GetCurrent, Put and a GetOrBuild
// hit take one shard lock, do one hash lookup and scan the user's nodes;
// an insert or an LRU eviction touches only the user index, never
// per-item state. InvalidateUsers costs one lock and one lookup per
// user. InvalidateItems keeps no item index: it walks every shard's LRU
// list once, O(resident entries x pool). That trade follows the measured
// traffic: in sample_zipf ~28% of requests insert and evict, and nothing
// invalidates; live_map makes ~100 invalidation calls per second. Entries
// leaving the cache are released after the shard lock is dropped, so a
// KDpp's eigenpairs are never freed under a lock.

#ifndef LKPDPP_SERVE_KERNEL_CACHE_H_
#define LKPDPP_SERVE_KERNEL_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/kdpp.h"
#include "linalg/kernel_rep.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"

namespace lkpdpp {

/// Which kernel representation a cache entry holds, decided once by the
/// service's builder. The thin representations (everything except
/// kPrimal) never materialize the pool x pool kernel; all are exact
/// except that approximate sources (GaussianKernelSource) may back the
/// factor paths within the configured error budget.
enum class ServePath {
  kPrimal,            ///< Materialized conditioned kernel.
  kDualSample,        ///< Low-rank dual k-DPP (sampling, alpha == 1).
  kFactorDiagSample,  ///< Factor+diagonal k-DPP (sampling, 0 < alpha < 1).
                      ///< RecommendationService never builds it (see
                      ///< ChoosePath); the value keeps path names and
                      ///< metric labels stable.
  kFactorMap,         ///< FactorDiagKernelRep greedy MAP.
  kDiagMap,           ///< DiagKernelRep greedy MAP (alpha == 0).
};

const char* ServePathName(ServePath path);

/// Everything reusable about one (user, ground set) pair.
struct ServedKernel {
  /// The exact ground set this kernel was built for. Consumers compare
  /// this against their pool on a cache hit, so a 64-bit hash collision
  /// costs one rebuild instead of silently serving the wrong kernel.
  std::vector<int> items;
  /// The representation the builder chose; responses served from this
  /// entry (cold or warm) report it, and the build-latency histogram is
  /// labeled with it.
  ServePath path = ServePath::kPrimal;
  /// Conditioned kernel L = Diag(q) (alpha*K + (1-alpha)*I) Diag(q) over
  /// the pool, in pool-local indices (MAP-rerank mode only): a
  /// materialized PrimalKernelRep, a FactorDiagKernelRep holding just the
  /// pool's factor rows + blend scalars (O(pool * rank) memory, rows
  /// synthesized on demand), or a DiagKernelRep at alpha == 0.
  /// Sampling-mode entries hold `kdpp` instead.
  std::shared_ptr<const KernelRep> rep;
  /// Decomposed k-DPP over the conditioned kernel (sampling mode only;
  /// null for MAP rerank, which needs no eigendecomposition): primal
  /// eigenpairs without the kernel (kPrimal, so LogProb is refused) or
  /// low-rank dual (kDualSample). The cache is representation-agnostic,
  /// and one service's cache can hold a mix when pool sizes straddle the
  /// factor rank. All kinds ride the same versioned invalidation below.
  std::shared_ptr<const KDpp> kdpp;
  /// The model_version epoch the kernel (and its pool) was computed
  /// under, stamped by the service's builder. Targeted invalidation
  /// keeps entries from ever being served stale, but only an entry
  /// stamped with the current version is known to hold the user's
  /// current pool: KernelCache::GetCurrent serves exactly those, which
  /// lets the service skip scoring and pool selection for the user.
  uint64_t model_version = 0;
};

/// Order-sensitive hash of a ground set (SplitMix64 chaining). Serving
/// pools are always produced in descending-score order, so equal sets
/// hash equally.
uint64_t HashGroundSet(const std::vector<int>& items);

/// Thread-safe sharded LRU cache keyed on (user, ground-set hash).
/// Capacity 0 disables storage (Get always misses, Put drops) but the
/// in-flight guard of GetOrBuild still deduplicates concurrent builds.
class KernelCache {
 public:
  /// `capacity` is the total entry budget, distributed across shards.
  /// The effective shard count is clamped so every shard holds at least
  /// kMinEntriesPerShard entries (exact single-shard LRU for small
  /// caches); pass `shards` <= 1 to force one shard.
  explicit KernelCache(int capacity, int shards = kDefaultShards);

  /// Returns the entry and refreshes its recency, or null on miss.
  std::shared_ptr<const ServedKernel> Get(int user, uint64_t ground_hash);

  /// Inserts (or refreshes) a non-null entry, evicting the least
  /// recently used entry of its shard when that shard is over capacity.
  void Put(int user, uint64_t ground_hash,
           std::shared_ptr<const ServedKernel> value);

  /// Builds one ServedKernel; runs with no cache lock held.
  using Builder =
      std::function<Result<std::shared_ptr<const ServedKernel>>()>;

  /// The memoized build path: returns the cached entry for (user,
  /// ground_hash) whose `items` equal `items`, or runs `build` to create
  /// it. Concurrent calls for the same key run the builder ONCE — the
  /// winner computes (lock-free for the cache), the rest wait on the
  /// per-key in-flight guard and share the result. Builder failures
  /// propagate to the owner and every waiter, and nothing is cached.
  /// Each successful owner build is timed into
  /// lkp_serve_cache_build_ms{path="<entry path>"}; failed builds are
  /// not observed.
  /// `was_hit`, when non-null, reports whether the entry came from the
  /// cache (piggybacking on another caller's in-flight build counts as a
  /// miss: the kernel was not in the cache when this call arrived).
  Result<std::shared_ptr<const ServedKernel>> GetOrBuild(
      int user, uint64_t ground_hash, const std::vector<int>& items,
      const Builder& build, bool* was_hit = nullptr);

  /// The entry of `user` stamped with `model_version`, or null. A hit
  /// counts and refreshes recency exactly as a GetOrBuild hit on that
  /// entry would; a miss counts nothing (the caller's GetOrBuild does).
  /// Locks only the user's shard and scans the user's entries.
  std::shared_ptr<const ServedKernel> GetCurrent(int user,
                                                 uint64_t model_version);

  /// Targeted invalidation: evicts every entry keyed on one of `users`
  /// (any ground set). Returns the number of entries evicted.
  /// O(users + evicted), not O(cache).
  long InvalidateUsers(const std::vector<int>& users);

  /// Targeted invalidation: evicts every entry whose ground set contains
  /// one of `items`, by one scan of every shard. Returns the number of
  /// entries evicted. O(resident entries x pool).
  long InvalidateItems(const std::vector<int>& items);

  void Clear();

  /// Zeroes hit/miss/eviction/build/invalidation counters without
  /// touching the entries (used by ServeStats windows).
  void ResetCounters();

  int capacity() const { return capacity_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int size() const;
  long hits() const;
  long misses() const;
  long evictions() const;
  /// Number of Builder invocations GetOrBuild actually ran. With the
  /// in-flight guard, concurrent misses on one key contribute one build.
  long builds() const;
  /// Entries evicted by InvalidateUsers/InvalidateItems (NOT counted as
  /// LRU evictions), total and per shard.
  long invalidations() const;
  std::vector<long> InvalidationsByShard() const;

  static constexpr int kDefaultShards = 16;
  /// Floor on per-shard capacity; below it the cache collapses to fewer
  /// shards (capacity < 2 * kMinEntriesPerShard means exactly one).
  static constexpr int kMinEntriesPerShard = 8;

 private:
  struct Entry {
    int user;
    uint64_t hash;
    std::shared_ptr<const ServedKernel> value;
  };
  using LruList = std::list<Entry>;
  /// Values leaving the cache under a shard lock. Declared before the
  /// lock_guard, so they are destroyed after it unlocks.
  using Victims = std::vector<std::shared_ptr<const ServedKernel>>;

  /// One caller computes, the rest block on `cv` until `done`.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<std::shared_ptr<const ServedKernel>> result =
        Result<std::shared_ptr<const ServedKernel>>(
            Status::Internal("in-flight build not finished"));
  };

  struct Shard {
    mutable std::mutex mu;
    int capacity = 0;
    LruList lru;  // Front = most recently used.
    // Every resident user's LRU nodes. Empty vectors are erased, so the
    // map stays proportional to resident entries.
    std::unordered_map<int, std::vector<LruList::iterator>> by_user;
    // Builds in progress, by (user, hash): at most one per building thread.
    std::map<std::pair<int, uint64_t>, std::shared_ptr<InFlight>> inflight;
    // Entries evicted by targeted invalidation (shard.mu held).
    long invalidated = 0;
    // Registry counters lkp_serve_cache_evictions_total{shard="<i>"} /
    // lkp_serve_cache_invalidations_total{shard="<i>"}, shared by every
    // cache with a shard at this index (process-wide per-shard
    // attribution).
    obs::Counter* evictions_metric = nullptr;
    obs::Counter* invalidations_metric = nullptr;
  };

  /// Shard of `user`: the SplitMix64 finalizer of the id, modulo the
  /// shard count. Keying on the user alone keeps all of a user's
  /// entries in one shard, so GetCurrent and InvalidateUsers lock one
  /// shard. The mix spreads consecutive ids and decorrelates the shard
  /// from the by_user map's buckets (std::hash<int> is the identity).
  static size_t ShardIndexFor(int user, size_t num_shards) {
    uint64_t x = static_cast<uint64_t>(static_cast<uint32_t>(user)) +
                 0x9E3779B97F4A7C15ULL;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<size_t>(x) % num_shards;
  }

  Shard& ShardFor(int user) {
    return *shards_[ShardIndexFor(user, shards_.size())];
  }

  /// The (user, hash) node, or lru.end() (shard.mu must be held).
  static LruList::iterator FindLocked(Shard& shard, int user, uint64_t hash);

  /// Counts a hit, refreshes `node` and returns its value (shard.mu held).
  std::shared_ptr<const ServedKernel> HitLocked(Shard& shard,
                                                LruList::iterator node);

  /// Inserts or refreshes (user, hash) in `shard`, moving replaced and
  /// evicted values into `victims` (shard.mu must be held).
  void PutLocked(Shard& shard, int user, uint64_t hash,
                 std::shared_ptr<const ServedKernel> value, Victims* victims);

  /// Unlinks `node` from the LRU list and the user index, moving its
  /// value into `victims` (shard.mu must be held).
  static void EraseLocked(Shard& shard, LruList::iterator node,
                          Victims* victims);

  const int capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Cache-instance counters behind hits()/misses()/evictions()/builds()
  // and ServeStats — obs primitives (lock-free sharded atomics), bumped
  // at the same sites as their process-wide lkp_serve_cache_* mirrors
  // in the MetricsRegistry.
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter builds_;
  obs::Counter invalidations_;
};

}  // namespace lkpdpp

#endif  // LKPDPP_SERVE_KERNEL_CACHE_H_
