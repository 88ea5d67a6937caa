// Batched, multi-threaded k-DPP recommendation serving.
//
// RecommendationService is the online counterpart of the offline
// experiment pipeline: it takes a *trained* RecModel plus the pre-learned
// DiversityKernel and answers per-user top-k requests with a diversified
// list — either the greedy MAP rerank (Chen et al. 2018) or an exact
// draw from the personalized k-DPP (paper Eq. 2/4).
//
// The request path is built for throughput:
//   1. Admission — requests can be submitted individually (SubmitAsync):
//      they land in an admission queue, a batcher thread flushes on
//      occupancy (max_batch_size) or deadline (batch_deadline_ms), and
//      each caller's std::future resolves when its batch completes. The
//      synchronous HandleBatch path remains for callers that already
//      have a batch in hand.
//   2. Batching — HandleBatch deduplicates users and, in one parallel
//      pass before any per-request work runs, either reuses a user's
//      version-current cache entry (its pool and kernel; no scoring) or
//      evaluates the user's model scores.
//   3. KernelCache — sampling-mode entries memoize the conditioned
//      kernel's eigenpairs (the kernel itself is dropped after the
//      eigensolve) per (user, ground-set hash) in a lock-striped sharded
//      LRU; the O(n^3) build runs with
//      no cache lock held, and a per-key in-flight guard makes
//      concurrent misses on one key compute once (the rest wait and
//      share). When the kernel source advertises a thin factor with rank
//      below the pool size, sampling at kernel_blend_alpha == 1 skips
//      the O(n^3) materialization through the low-rank dual path
//      (O(pool * rank^2) conditioning in factor space). Blended
//      0 < alpha < 1 sampling always builds primally: its exact thin
//      form (the factor-plus-diagonal k-DPP, linalg/factor_diag.h)
//      costs O(pool^2 rank^2 log 1/eps) per build and measures slower
//      than the primal eigensolve at serving-sized pools (see
//      ChoosePath). force_primal pins primal everywhere for
//      cross-checks. MAP-rerank entries
//      never eigendecompose at all, and hold a KernelRep chosen by cost
//      model: a FactorDiagKernelRep (pool factor rows + blend scalars,
//      O(pool * rank) memory, greedy reads rows at O(pool * rank)) when
//      the factor is thinner than the pool — for ANY blend alpha, since
//      greedy MAP only reads entries and the identity blend rides as a
//      diagonal beside the factor — or a materialized PrimalKernelRep
//      otherwise. Both reps produce bit-identical entries, so the
//      selected sets are bit-identical too (see linalg/kernel_rep.h).
//   4. ThreadPool — per-request work fans out over the work-stealing
//      pool with grain-size chunking so tiny per-request tasks do not
//      pay one dispatch each; per-request Rng streams are forked in
//      request order (Rng::Fork), which makes every response
//      bit-identical at any thread count for a fixed seed.
//
// Determinism contract: for a fixed (model, diversity kernel, config,
// seed) and a fixed *arrival order* of requests, responses are
// bit-identical regardless of the pool's thread count AND regardless of
// how admission slices the sequence into batches — Rng forks depend only
// on arrival position, not on batch boundaries, so a SubmitAsync stream
// matches a synchronous caller submitting the same sequence. Concurrent
// HandleBatch / SubmitAsync calls from multiple caller threads remain
// individually consistent but the interleaving of their Rng forks
// follows arrival order, so cross-caller determinism then depends on the
// callers serializing submissions.

#ifndef LKPDPP_SERVE_SERVICE_H_
#define LKPDPP_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "kernels/diversity_kernel.h"
#include "kernels/quality_diversity.h"
#include "serve/kernel_source.h"
#include "models/rec_model.h"
#include "sampling/ground_set_builder.h"
#include "serve/kernel_cache.h"
#include "serve/stats.h"

namespace lkpdpp {

/// How a top-k list is distilled from the personalized kernel.
enum class ServeMode {
  kMapRerank,  ///< Greedy MAP: deterministic quality/diversity argmax.
  kSample,     ///< Exact k-DPP sample: diverse-by-construction draw.
};

const char* ServeModeName(ServeMode mode);

struct ServeConfig {
  ServeMode mode = ServeMode::kMapRerank;
  /// Recommendations per request.
  int top_k = 10;
  /// Candidate-pool (ground set) size per user; must be >= top_k.
  int pool_size = 30;
  /// Convex blend toward identity for the diversity submatrix, matching
  /// the training-side conditioning (see ExperimentSpec).
  double kernel_blend_alpha = 0.4;
  /// Raw-score -> quality transform (use the model's PreferredQuality).
  QualityTransform quality = QualityTransform::kExp;
  /// Total LRU entries across all cache shards; 0 disables caching.
  int cache_capacity = 4096;
  /// Lock-striped shards of the KernelCache. The cache clamps this so
  /// every shard holds at least KernelCache::kMinEntriesPerShard
  /// entries; small caches collapse to one exact-LRU shard.
  int cache_shards = KernelCache::kDefaultShards;
  /// Async admission: flush the queue when this many requests are
  /// pending...
  int max_batch_size = 64;
  /// ...or when the oldest pending request has waited this long (ms),
  /// whichever comes first. 0 flushes as fast as the batcher can spin.
  double batch_deadline_ms = 2.0;
  /// Chunk size for the per-request ParallelFor stages. 0 picks a grain
  /// automatically (ThreadPool::GrainFor: ~4 chunks per lane).
  int parallel_grain = 0;
  /// Master seed for sampling-mode Rng streams.
  uint64_t seed = 0x5EEDF00DULL;
  /// Approximate kernel sources only (e.g. GaussianKernelSource): cap on
  /// the Nystrom factor rank the source may build per pool. 0 (default)
  /// disables approximation entirely — approximate sources then always
  /// serve through the exact primal build. Setting it > 0 is the
  /// explicit opt-in to approximate factors. Exact sources ignore it.
  int approx_factor_rank = 0;
  /// Approximate kernel sources only: a pool's Nystrom factor is used
  /// only when its computed entry-error bound is <= this budget;
  /// otherwise the pool falls back to the exact primal build (counted in
  /// lkp_serve_approx_fallback_total).
  double approx_error_budget = 1e-6;
  /// Disables every thin-representation path: sampling-mode kernels are
  /// materialized and eigendecomposed primally even when they advertise
  /// a factor, and MAP-rerank kernels are materialized instead of held
  /// as FactorDiagKernelRep. Both thin paths are exact (same
  /// distribution / bit-identical MAP selections), so this exists for
  /// cross-checking and debugging, not correctness.
  bool force_primal = false;
  /// Test-only hook: when set, the batcher thread calls it right after
  /// taking a batch off the admission queue (admission lock released,
  /// HandleBatch not yet started). Lets tests deterministically
  /// interleave Flush()/SubmitAsync with a busy batcher. Never set in
  /// production.
  std::function<void(int batch_size)> on_batch_for_test;
};

struct RecRequest {
  int user = 0;
};

struct RecResponse {
  int user = 0;
  /// Ranked top-k recommendations (global item ids). MAP mode: selection
  /// order; sampling mode: sampled set ordered by descending score.
  std::vector<int> items;
  bool cache_hit = false;
  /// Exactly which representation served this request (the cache
  /// entry's ServedKernel::path, decided once when it was built).
  ServePath path = ServePath::kPrimal;
  double latency_ms = 0.0;
};

/// Serves diversified top-k lists for a fixed trained model. Thread-safe
/// once constructed. The model may change only through ApplyUpdate, or
/// be followed by InvalidateModel (after retraining): HandleBatch treats
/// a user's candidate pool as a pure function of (user, model_version)
/// and reuses a cached pool without rescoring.
class RecommendationService {
 public:
  /// Validates config/shape compatibility and runs model->PrepareForEval()
  /// once. `pool` may be null for fully synchronous serving; all pointers
  /// must outlive the service.
  static Result<std::unique_ptr<RecommendationService>> Create(
      const Dataset* dataset, RecModel* model,
      const DiversityKernel* diversity, ThreadPool* pool,
      ServeConfig config);

  /// Serves a trainable Gaussian kernel (paper's PSE/NPSE "E" variants)
  /// over the given item embeddings instead of a pre-learned diversity
  /// kernel. The embeddings are snapshotted (copied). Thin serving paths
  /// require the explicit approximation opt-in
  /// (ServeConfig::approx_factor_rank > 0) and honor
  /// approx_error_budget; otherwise every pool is served exactly.
  static Result<std::unique_ptr<RecommendationService>> CreateGaussian(
      const Dataset* dataset, RecModel* model, Matrix item_embeddings,
      double sigma, ThreadPool* pool, ServeConfig config);

  /// Stops the admission batcher, resolving every still-queued request
  /// before returning.
  ~RecommendationService();

  /// Serves a batch of requests in three parallel passes: (1) per unique
  /// user, reuse the cache entry stamped with the current model_version
  /// (KernelCache::GetCurrent: its pool and kernel, counted in
  /// lkp_serve_pool_reuse_total) or else score the user's catalog once,
  /// (2) for each scored user, build the pool and build or fetch its
  /// served kernel once — duplicate requests for a user share the
  /// O(n^3) work even on a cold or disabled cache — and (3) distill each
  /// request's top-k list. Responses come back in request order and are
  /// identical whether or not a user's pool was reused. Fails on
  /// out-of-range users or numerical breakdown; an empty batch yields an
  /// empty vector.
  Result<std::vector<RecResponse>> HandleBatch(
      const std::vector<RecRequest>& batch);

  /// Single-request convenience wrapper (a batch of one).
  Result<RecResponse> HandleOne(int user);

  /// Async admission: enqueues one request and returns a future that
  /// resolves when its batch is served. The batcher thread (started
  /// lazily on first use) flushes the queue on occupancy
  /// (max_batch_size) or deadline (batch_deadline_ms). Futures resolve
  /// to the same bit-identical responses a synchronous caller submitting
  /// the same arrival sequence would get, for any batch slicing.
  std::future<Result<RecResponse>> SubmitAsync(const RecRequest& request);

  /// Forces the batcher to drain immediately and blocks until every
  /// request enqueued before the call has resolved.
  void Flush();

  /// Re-runs PrepareForEval and drops every cache entry — the blunt
  /// full-invalidation path for retrains / model swaps. Streaming
  /// updates that touch a handful of rows should go through ApplyUpdate
  /// instead, which invalidates only affected entries.
  void InvalidateModel();

  /// Mutates the touched users' / items' parameter rows; fills the out
  /// lists with every user/item id whose rows (MF embedding or kernel
  /// factor) it changed.
  using UpdateFn =
      std::function<void(std::vector<int>* touched_users,
                         std::vector<int>* touched_items)>;

  /// Streaming-update barrier (the write side; see serve/model_update.h
  /// for the driver). Runs `mutate` with the service quiesced: the
  /// exclusive side of the epoch lock waits out every in-flight
  /// HandleBatch and blocks new ones until `mutate` returns, so every
  /// response is computed against exactly one model version — a batch
  /// never straddles an update. After `mutate` returns, the touched
  /// users' and items' cache entries are evicted (targeted invalidation;
  /// everything else stays warm) and the model_version epoch advances.
  /// Returns the new version. Writer-preference is implementation-
  /// defined (std::shared_mutex); sustained batch pressure can delay an
  /// update, which the staleness histogram makes visible.
  uint64_t ApplyUpdate(const UpdateFn& mutate);

  /// The current model epoch: 0 until the first ApplyUpdate, then the
  /// count of applied updates. New cache entries are stamped with it.
  uint64_t model_version() const {
    return model_version_.load(std::memory_order_relaxed);
  }

  /// Counters + latency percentiles since construction / ResetStats.
  ServeStats Snapshot() const;
  void ResetStats();

  const KernelCache& cache() const { return cache_; }
  const ServeConfig& config() const { return config_; }

 private:
  /// The per-user share of a batch: the candidate pool and its served
  /// kernel, built once no matter how many requests name the user.
  struct UserWork {
    std::vector<int> pool;
    std::shared_ptr<const ServedKernel> entry;  // Null for empty pools.
    bool cache_hit = false;
    double kernel_ms = 0.0;
  };

  /// One queued async request: its payload, the promise its future hangs
  /// off, and the enqueue instant (admission-wait histogram + trace span).
  struct Pending {
    RecRequest request;
    std::promise<Result<RecResponse>> promise;
    std::chrono::steady_clock::time_point enqueue;
  };

  RecommendationService(const Dataset* dataset, RecModel* model,
                        std::unique_ptr<const ServingKernelSource> source,
                        ThreadPool* pool, ServeConfig config);

  /// Builds the pool and fetches-or-builds the served kernel for a user
  /// through the cache's deduplicated build path.
  Result<UserWork> PrepareUser(int user, const Vector& scores);

  /// The representation a cold build of this pool's kernel wants,
  /// before the approximate-source error-budget gate (which can only
  /// demote a thin path to kPrimal). force_primal pins kPrimal. MAP at
  /// alpha == 0 takes kDiagMap: the blend is pure diagonal. Otherwise a
  /// thin path needs a factor thinner than the pool: MAP takes
  /// kFactorMap for any alpha (greedy only reads entries, all of which
  /// the factor plus blend scalars reproduce); sampling takes
  /// kDualSample at alpha == 1 and stays primal otherwise: at alpha == 0
  /// the primal build is trivial, and at 0 < alpha < 1 the exact
  /// factor-diag k-DPP loses to the primal eigensolve. kFactorDiagSample
  /// is never chosen.
  ServePath ChoosePath(const std::vector<int>& pool) const;

  /// Distills one request's top-k list from its user's prepared kernel.
  Result<RecResponse> SelectTopK(int user, const UserWork& work, Rng* rng);

  /// Grain for a per-request ParallelFor stage of n items.
  int StageGrain(int n) const;

  /// The admission batcher: sleeps until work arrives, flushes on
  /// occupancy/deadline/stop, serves via HandleBatch, resolves promises.
  void BatcherLoop();

  const Dataset* dataset_;
  RecModel* model_;
  std::unique_ptr<const ServingKernelSource> source_;
  ThreadPool* pool_;
  ServeConfig config_;
  KernelCache cache_;

  // Epoch barrier: HandleBatch holds the shared side for its whole run,
  // ApplyUpdate the exclusive side. Pool workers never touch this lock
  // (only the batch's entry thread does), so there is no lock-order
  // cycle with the ThreadPool. model_version_ is written only under the
  // exclusive lock; the atomic makes unlocked reads (stamping, tests)
  // well-defined.
  std::shared_mutex epoch_mu_;
  std::atomic<uint64_t> model_version_{0};

  std::mutex rng_mu_;
  Rng master_rng_;

  // Lock-striped stats window (latency ring + counters); merged only at
  // Snapshot().
  ServeRecorder recorder_;

  // Admission queue state. The batcher thread starts lazily on the
  // first SubmitAsync and is joined by the destructor after draining.
  std::mutex adm_mu_;
  std::condition_variable adm_cv_;       // Wakes the batcher.
  std::condition_variable adm_idle_cv_;  // Wakes Flush waiters.
  std::deque<Pending> adm_queue_;
  std::chrono::steady_clock::time_point adm_oldest_;
  bool adm_flush_ = false;
  bool adm_stop_ = false;
  bool adm_busy_ = false;  // A flushed batch is being served.
  bool batcher_started_ = false;
  std::thread batcher_;
};

}  // namespace lkpdpp

#endif  // LKPDPP_SERVE_SERVICE_H_
