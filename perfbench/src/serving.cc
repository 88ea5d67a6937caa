// The two serving workloads, sample_zipf and live_map, and the traced
// replay that breaks a served batch down by layer.
//
// The replay re-executes what RecommendationService::HandleBatch did for
// a batch through the library's public layer calls (ScoreAllItems,
// BuildServingPool, PoolFactor/PoolSubmatrix, ApplyQuality +
// AssembleKernel, the KDpp / KernelRep builders, Sample and
// GreedyMapInference), one span per call. It takes the representation
// and the cache outcome of every request from the service's own
// responses, so a change in the service's choices shows up in the
// replay. In sampling mode it forks the same Rng stream as the service
// and must reproduce every served list exactly.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "common/thread_pool.h"
#include "core/kdpp.h"
#include "core/map_inference.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "kernels/quality_diversity.h"
#include "linalg/kernel_rep.h"
#include "linalg/low_rank.h"
#include "models/mf.h"
#include "obs/metrics.h"
#include "sampling/ground_set_builder.h"
#include "serve/kernel_source.h"
#include "serve/model_update.h"
#include "serve/service.h"

namespace perfbench {

using namespace lkpdpp;

namespace {

constexpr int kBatchSize = 64;
constexpr int kEmbeddingDim = 16;
constexpr int kKernelRank = 16;
constexpr double kZipfExponent = 1.05;
// Requests of the timed draw replayed through a force_primal service.
constexpr int kCheckRequests = 512;
// sample_zipf: requests in the warm-up draw, and the tail percentile of
// batch latency with the batch count that supports it (ten beyond p90).
constexpr int kSampleWarmRequests = 4096;
constexpr double kSampleTailPct = 90.0;
constexpr size_t kMinBatches = 100;
constexpr size_t kSegmentBatches = 10;
// live_map: warm-up requests, open-loop rate, and the update stream.
constexpr int kLiveWarmRequests = 8192;
constexpr double kLiveRatePerSec = 8000.0;
constexpr double kLiveP99LimitMs = 20.0;
// The gated tail is p90: on a shared VM the p99 of this millisecond-scale
// loop moves with host preemption (steal) by up to 0.3 of its median
// between runs, p90 by about a tenth. The p99 is still reported, per
// layer, and checked against the 20 ms limit in the provenance.
constexpr double kLiveTailPct = 90.0;
constexpr double kTailWindowMs = 200.0;
constexpr double kUpdatePeriodMs = 10.0;
constexpr int kEventsPerUpdate = 2;

// The world (catalog, users, model, kernel, who is popular) is fixed
// state of the system under test; --seed draws the traffic: the request
// draws, the event stream and the service's sampling stream.
constexpr uint64_t kWorldSeed = 42;
constexpr uint64_t kPopularitySeed = 0x21F;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

obs::Counter* Counter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

// The served world: MF backbone at dim 16 over GenerateServingWorld
// (100k users x 2,000 items) and a rank-16 random diversity kernel.
struct World {
  Dataset dataset;
  std::unique_ptr<MfModel> model;
  std::unique_ptr<DiversityKernel> diversity;
};

std::unique_ptr<World> MakeWorld() {
  ServingWorldConfig wcfg;
  wcfg.seed = kWorldSeed;
  auto ds = GenerateServingWorld(wcfg);
  ds.status().CheckOK();
  auto world = std::make_unique<World>(
      World{std::move(ds).ValueOrDie(), nullptr, nullptr});
  MfModel::Config mcfg;
  mcfg.embedding_dim = kEmbeddingDim;
  mcfg.seed = kWorldSeed + 1;
  world->model = std::make_unique<MfModel>(world->dataset.num_users(),
                                           world->dataset.num_items(), mcfg);
  world->diversity = std::make_unique<DiversityKernel>(
      DiversityKernel::Random(world->dataset.num_items(), kKernelRank,
                              kWorldSeed + 2));
  return world;
}

ServeConfig WorkloadConfig(ServeMode mode, uint64_t seed) {
  ServeConfig config;  // Defaults: alpha 0.4, pool 30, top 10, 4096 cache.
  config.mode = mode;
  config.seed = Mix(seed, 4);
  return config;
}

std::unique_ptr<RecommendationService> MakeService(World* world,
                                                   ThreadPool* pool,
                                                   ServeConfig config) {
  auto service = RecommendationService::Create(
      &world->dataset, world->model.get(), world->diversity.get(), pool,
      config);
  service.status().CheckOK();
  return std::move(service).ValueOrDie();
}

std::vector<std::vector<RecRequest>> Batches(
    const std::vector<RecRequest>& trace, size_t begin, size_t end,
    int batch_size) {
  std::vector<std::vector<RecRequest>> out;
  for (size_t s = begin; s < end; s += static_cast<size_t>(batch_size)) {
    const size_t e = std::min(end, s + static_cast<size_t>(batch_size));
    out.emplace_back(trace.begin() + static_cast<long>(s),
                     trace.begin() + static_cast<long>(e));
  }
  return out;
}

// Cache and path accounting over one phase of a run.
struct CacheDelta {
  long hits = 0;
  long misses = 0;
  long builds = 0;
  long evictions = 0;
  long invalidations = 0;
};

CacheDelta CacheNow(const KernelCache& cache) {
  return CacheDelta{cache.hits(), cache.misses(), cache.builds(),
                    cache.evictions(), cache.invalidations()};
}

const ServePath kAllPaths[] = {ServePath::kPrimal, ServePath::kDualSample,
                               ServePath::kFactorDiagSample,
                               ServePath::kFactorMap, ServePath::kDiagMap};

void AddPathShares(Report* report, const std::vector<long>& path_counts) {
  long total = 0;
  for (long c : path_counts) total += c;
  for (ServePath path : kAllPaths) {
    const long c = path_counts[static_cast<size_t>(path)];
    report->Set(std::string("serve.path_share.") + ServePathName(path),
                total > 0 ? static_cast<double>(c) / total : 0.0, "ratio");
  }
}

// Quality of served lists: NDCG@10 graded against the top 10 of the
// user's candidate pool by model score, i.e. how much of the model's own
// relevance the diversified list keeps (the serving model is untrained,
// so held-out test items would grade chance), and category
// coverage@10, the paper's diversity measure.
struct Quality {
  double ndcg_sum = 0.0;
  double cc_sum = 0.0;
  long lists = 0;
  void Add(const World& world, int pool_size, int user,
           const std::vector<int>& items) {
    const std::vector<int> pool = GroundSetBuilder::BuildServingPool(
        world.dataset, user, world.model->ScoreAllItems(user), pool_size);
    const std::vector<int> top(
        pool.begin(), pool.begin() + static_cast<long>(std::min<size_t>(
                                         10, pool.size())));
    ndcg_sum += NdcgAtN(items, top, 10);
    cc_sum += CategoryCoverageAtN(items, 10, world.dataset);
    ++lists;
  }
};

void AddEndToEnd(Report* report, double setup_s, double throughput,
                 const LatencySummary& latency, const Quality& quality,
                 double peak_rss_mb) {
  report->Set("setup_s", setup_s, "s");
  report->Set("peak_rss_mb", peak_rss_mb, "MiB");
  report->Set("throughput", throughput, "1/s");
  report->Set("p50_ms", latency.p50, "ms");
  report->Set("tail_ms", latency.tail, "ms");
  const double lists = std::max<long>(quality.lists, 1);
  report->Set("ndcg10", quality.ndcg_sum / lists, "ratio");
  report->Set("cc10", quality.cc_sum / lists, "ratio");
  report->Info("latency_samples", static_cast<double>(latency.count));
  report->Info("tail_pct", latency.tail_pct);
}

// ---------------------------------------------------------------------
// Replay.

struct Built {
  std::shared_ptr<const KDpp> kdpp;
  std::shared_ptr<const KernelRep> rep;
};

const char* BuildSpanName(ServePath path) {
  switch (path) {
    case ServePath::kPrimal:
      return "core.build_us.primal";
    case ServePath::kDualSample:
      return "core.build_us.dual";
    case ServePath::kFactorDiagSample:
      return "core.build_us.factor_diag";
    case ServePath::kFactorMap:
      return "core.build_us.factor_map";
    case ServePath::kDiagMap:
      return "core.build_us.diag_map";
  }
  return "core.build_us.unknown";
}

const char* SampleSpanName(ServePath path) {
  switch (path) {
    case ServePath::kPrimal:
      return "core.sample_us.primal";
    case ServePath::kDualSample:
      return "core.sample_us.dual";
    case ServePath::kFactorDiagSample:
      return "core.sample_us.factor_diag";
    default:
      return "core.sample_us.unknown";
  }
}

class Replayer {
 public:
  Replayer(const World& world, const ServeConfig& config,
           RecommendationService* service)
      : world_(world),
        config_(config),
        service_(service),
        source_(world.diversity.get()),
        master_(config.seed) {}

  // Advances the Rng stream past requests the service served before the
  // replay started, exactly as HandleBatch forks one Rng per request.
  void Skip(size_t requests) {
    if (config_.mode != ServeMode::kSample) return;
    for (size_t i = 0; i < requests; ++i) master_.Fork();
  }

  // Replays one served batch under a "replay.batch" root span. When
  // `compare` is set, every replayed list must equal the served one.
  void Replay(const std::vector<RecRequest>& batch,
              const std::vector<RecResponse>& responses, bool compare,
              Report* report);

  long replayed() const { return replayed_; }
  // Cache lookups the replay itself made, to subtract from the counts.
  long lookup_hits() const { return lookup_hits_; }
  long lookup_misses() const { return lookup_misses_; }

 private:
  struct UserWork {
    std::vector<int> pool;
    Vector scores;
    Built built;
    bool thin_built = false;  // Service built this pool thin: oracle it.
  };

  Vector PoolQuality(const UserWork& work) const;
  Built Build(ServePath path, const UserWork& work, int k, bool timed);
  std::vector<int> Select(ServePath path, const UserWork& work, int k,
                          Rng* rng);

  const World& world_;
  ServeConfig config_;
  RecommendationService* service_;
  DiversityKernelSource source_;
  Rng master_;
  long replayed_ = 0;
  long lookup_hits_ = 0;
  long lookup_misses_ = 0;
};

Vector Replayer::PoolQuality(const UserWork& work) const {
  Vector pool_scores(static_cast<int>(work.pool.size()));
  for (size_t p = 0; p < work.pool.size(); ++p) {
    pool_scores[static_cast<int>(p)] = work.scores[work.pool[p]];
  }
  return ApplyQuality(pool_scores, config_.quality);
}

Built Replayer::Build(ServePath path, const UserWork& work, int k,
                      bool timed) {
  auto name = [timed](const char* n) { return timed ? n : nullptr; };
  const double alpha = config_.kernel_blend_alpha;
  const int n = static_cast<int>(work.pool.size());
  Vector quality;
  Built out;
  switch (path) {
    case ServePath::kPrimal: {
      Matrix k_sub;
      {
        Span s(name("serve.source_us"));
        k_sub = source_.PoolSubmatrix(work.pool);
      }
      Matrix conditioned;
      {
        Span s(name("kernels.assemble_us"));
        quality = PoolQuality(work);
        k_sub *= alpha;
        k_sub.AddDiagonal(1.0 - alpha);
        conditioned = AssembleKernel(quality, k_sub);
      }
      Span s(name(BuildSpanName(path)));
      if (config_.mode == ServeMode::kSample) {
        auto kdpp = KDpp::Create(std::move(conditioned), k);
        kdpp.status().CheckOK();
        out.kdpp = std::make_shared<const KDpp>(std::move(kdpp).ValueOrDie());
      } else {
        out.rep = std::make_shared<const PrimalKernelRep>(
            std::move(conditioned));
      }
      return out;
    }
    case ServePath::kDualSample:
    case ServePath::kFactorDiagSample:
    case ServePath::kFactorMap: {
      Matrix rows;
      {
        Span s(name("serve.source_us"));
        auto thin = source_.PoolFactor(work.pool);
        thin.status().CheckOK();
        rows = std::move(thin).ValueOrDie().rows;
      }
      if (path == ServePath::kFactorMap) {
        {
          Span s(name("kernels.assemble_us"));
          quality = PoolQuality(work);
        }
        Span s(name(BuildSpanName(path)));
        auto rep = FactorDiagKernelRep::Create(std::move(rows), quality,
                                               alpha, 1.0 - alpha);
        rep.status().CheckOK();
        out.rep = std::make_shared<const FactorDiagKernelRep>(
            std::move(rep).ValueOrDie());
        return out;
      }
      Vector added(n);
      LowRankFactor scaled = [&] {
        Span s(name("kernels.assemble_us"));
        quality = PoolQuality(work);
        for (int i = 0; i < n; ++i) {
          added[i] = (1.0 - alpha) * quality[i] * quality[i];
        }
        auto factor = LowRankFactor::Create(std::move(rows));
        factor.status().CheckOK();
        if (path == ServePath::kDualSample) return factor->ScaleRows(quality);
        Vector w_scale(n);
        const double sqrt_alpha = std::sqrt(alpha);
        for (int i = 0; i < n; ++i) w_scale[i] = sqrt_alpha * quality[i];
        return factor->ScaleRows(w_scale);
      }();
      Span s(name(BuildSpanName(path)));
      auto kdpp = path == ServePath::kDualSample
                      ? KDpp::CreateDual(std::move(scaled), k)
                      : KDpp::CreateFactorDiag(std::move(scaled),
                                               std::move(added), k);
      kdpp.status().CheckOK();
      out.kdpp = std::make_shared<const KDpp>(std::move(kdpp).ValueOrDie());
      return out;
    }
    case ServePath::kDiagMap: {
      {
        Span s(name("kernels.assemble_us"));
        quality = PoolQuality(work);
      }
      Span s(name(BuildSpanName(path)));
      auto rep = DiagKernelRep::Create(quality, 1.0 - alpha);
      rep.status().CheckOK();
      out.rep = std::make_shared<const DiagKernelRep>(
          std::move(rep).ValueOrDie());
      return out;
    }
  }
  return out;
}

std::vector<int> Replayer::Select(ServePath path, const UserWork& work,
                                  int k, Rng* rng) {
  std::vector<int> local;
  if (config_.mode == ServeMode::kSample) {
    Span s(SampleSpanName(path));
    auto drawn = work.built.kdpp->Sample(rng);
    drawn.status().CheckOK();
    local = std::move(drawn).ValueOrDie();
  } else {
    Span s("core.map_us");
    GreedyMapOptions opts;
    opts.max_size = k;
    auto picked = GreedyMapInference(*work.built.rep, opts);
    picked.status().CheckOK();
    local = std::move(picked).ValueOrDie();
    if (static_cast<int>(local.size()) < k) {
      std::vector<bool> taken(work.pool.size(), false);
      for (int idx : local) taken[static_cast<size_t>(idx)] = true;
      for (size_t i = 0;
           i < work.pool.size() && static_cast<int>(local.size()) < k; ++i) {
        if (!taken[i]) local.push_back(static_cast<int>(i));
      }
    }
  }
  std::vector<int> items;
  items.reserve(local.size());
  for (int idx : local) items.push_back(work.pool[static_cast<size_t>(idx)]);
  return items;
}

void Replayer::Replay(const std::vector<RecRequest>& batch,
                      const std::vector<RecResponse>& responses,
                      bool compare, Report* report) {
  std::vector<Rng> rngs;
  if (config_.mode == ServeMode::kSample) {
    for (size_t i = 0; i < batch.size(); ++i) rngs.push_back(master_.Fork());
  }
  std::unordered_map<int, UserWork> works;
  struct OracleCase {
    int user;
    Rng rng;  // The request's stream before the thin draw.
    std::vector<int> thin_items;
  };
  std::vector<OracleCase> oracle_cases;
  {
    Span root("replay.batch");
    for (size_t i = 0; i < batch.size(); ++i) {
      const int user = batch[i].user;
      const RecResponse& served = responses[i];
      auto [it, first] = works.try_emplace(user);
      UserWork& work = it->second;
      if (first) {
        {
          Span s("models.score_us");
          work.scores = world_.model->ScoreAllItems(user);
        }
        {
          Span s("sampling.pool_us");
          work.pool = GroundSetBuilder::BuildServingPool(
              world_.dataset, user, work.scores, config_.pool_size);
        }
        if (work.pool.empty()) continue;
        const int k = std::min(config_.top_k,
                               static_cast<int>(work.pool.size()));
        std::shared_ptr<const ServedKernel> entry;
        if (served.cache_hit) {
          // A hit: draw from the entry the service served. The lookup
          // refreshes its LRU position, which the service's own hit has
          // just done too, and its hit/miss count is taken back out of
          // the cache counts the traced run reports.
          entry = const_cast<KernelCache&>(service_->cache())
                      .Get(user, HashGroundSet(work.pool));
          ++(entry != nullptr ? lookup_hits_ : lookup_misses_);
        }
        if (entry != nullptr && entry->items == work.pool) {
          work.built = Built{entry->kdpp, entry->rep};
        } else {
          // A miss, or a hit whose entry has since left the cache (then
          // rebuilt outside the layer spans).
          work.built = Build(served.path, work, k, !served.cache_hit);
          work.thin_built = !served.cache_hit &&
                            (served.path == ServePath::kFactorDiagSample ||
                             served.path == ServePath::kDualSample);
        }
      }
      if (work.pool.empty()) continue;
      const int k =
          std::min(config_.top_k, static_cast<int>(work.pool.size()));
      Rng* rng = rngs.empty() ? nullptr : &rngs[i];
      Rng before = rng != nullptr ? *rng : Rng(0);
      std::vector<int> items = Select(served.path, work, k, rng);
      if (compare && items != served.items) {
        report->Mismatch("replay of request " + std::to_string(i) +
                         " (user " + std::to_string(user) +
                         ") differs from the served list");
      }
      if (work.thin_built) {
        oracle_cases.push_back(OracleCase{user, before, items});
      }
      ++replayed_;
    }
  }
  // Primal oracle on exactly the pools the service built thin, outside
  // the replay root so it does not count toward coverage.
  std::unordered_map<int, std::shared_ptr<const KDpp>> oracles;
  for (OracleCase& c : oracle_cases) {
    const UserWork& work = works.at(c.user);
    const int k = std::min(config_.top_k, static_cast<int>(work.pool.size()));
    auto& oracle = oracles[c.user];
    if (oracle == nullptr) {
      Matrix k_sub = source_.PoolSubmatrix(work.pool);
      k_sub *= config_.kernel_blend_alpha;
      k_sub.AddDiagonal(1.0 - config_.kernel_blend_alpha);
      Matrix conditioned = AssembleKernel(PoolQuality(work), k_sub);
      Span s("core.build_us.primal_oracle");
      auto kdpp = KDpp::Create(std::move(conditioned), k);
      kdpp.status().CheckOK();
      oracle = std::make_shared<const KDpp>(std::move(kdpp).ValueOrDie());
    }
    std::vector<int> local;
    {
      Span s("core.sample_us.primal_oracle");
      auto drawn = oracle->Sample(&c.rng);
      drawn.status().CheckOK();
      local = std::move(drawn).ValueOrDie();
    }
    std::vector<int> items;
    for (int idx : local) items.push_back(work.pool[static_cast<size_t>(idx)]);
    if (items != c.thin_items) {
      report->Mismatch("primal oracle disagrees with the thin draw for user " +
                       std::to_string(c.user));
    }
  }
}

void AddCacheMetrics(Report* report, const CacheDelta& before,
                     const CacheDelta& after, const Replayer& replayer) {
  const long hits = after.hits - before.hits - replayer.lookup_hits();
  const long lookups =
      hits + after.misses - before.misses - replayer.lookup_misses();
  report->Set("serve.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
              "ratio");
  report->Set("serve.cache_builds",
              static_cast<double>(after.builds - before.builds), "count");
  report->Set("serve.cache_evictions",
              static_cast<double>(after.evictions - before.evictions),
              "count");
  report->Set("serve.cache_invalidations",
              static_cast<double>(after.invalidations - before.invalidations),
              "count");
}

// Per-layer rows shared by both serving workloads.
void AddServingLayers(Report* report, const std::vector<SpanRecord>& records,
                      double traced_wall_us) {
  const auto stats = Summarize(records);
  for (const char* name :
       {"models.score_us", "sampling.pool_us", "serve.source_us",
        "kernels.assemble_us", "core.build_us.primal",
        "core.build_us.factor_diag", "core.build_us.factor_map",
        "core.build_us.primal_oracle", "core.sample_us.primal",
        "core.sample_us.factor_diag", "core.sample_us.primal_oracle",
        "core.map_us", "serve.batch_ms", "model_update.apply_ms"}) {
    AddSpanMetrics(report, stats, name, /*percentiles=*/true);
  }
  for (const char* name : {"core.build_us.dual", "core.build_us.diag_map"}) {
    AddSpanMetrics(report, stats, name, /*percentiles=*/false);
  }
  report->Info("top_self_layer", TopSelfLayer(stats));
  report->Set("trace.coverage", Coverage(records, "replay.batch"), "ratio");
  // Recording cost of the spans taken, as a share of the traced wall time.
  report->Set("trace.overhead",
              static_cast<double>(records.size()) * SpanCostMicros() /
                  std::max(1.0, traced_wall_us),
              "ratio");
}

// Median over kTailWindowMs windows (by due time) of each window's
// `pct` percentile of latency.
double WindowedTail(const std::vector<double>& latency_ms,
                    const std::vector<double>& due_ms, double start_ms,
                    double pct) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    const size_t w = static_cast<size_t>((due_ms[i] - start_ms) / kTailWindowMs);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency_ms[i]);
  }
  std::vector<double> tails;
  for (std::vector<double>& window : windows) {
    if (!window.empty()) tails.push_back(Summarize(std::move(window), pct).tail);
  }
  return Median(tails);
}

// Histogram percentile by linear interpolation inside the bucket that
// holds it (bucket edges from obs::LatencyBucketsMs()).
double HistogramPercentile(const std::vector<double>& bounds,
                           const std::vector<long>& counts, double pct) {
  long total = 0;
  for (long c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = pct / 100.0 * static_cast<double>(total);
  double seen = 0.0;
  for (size_t b = 0; b < counts.size(); ++b) {
    const double next = seen + static_cast<double>(counts[b]);
    if (next >= target && counts[b] > 0) {
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      const double hi = b < bounds.size() ? bounds[b] : bounds.back();
      return lo + (hi - lo) * (target - seen) / static_cast<double>(counts[b]);
    }
    seen = next;
  }
  return bounds.back();
}

std::vector<long> Subtract(std::vector<long> a, const std::vector<long>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) a[i] -= b[i];
  return a;
}

// Serves `lead_in` then `checked` through a fresh force_primal service and
// requires its lists for `checked` to equal `served`. Returns the quality
// of the served lists.
Quality CheckAgainstPrimal(World* world, ThreadPool* pool, ServeConfig config,
                           const std::vector<std::vector<RecRequest>>& lead_in,
                           const std::vector<std::vector<RecRequest>>& checked,
                           const std::vector<std::vector<int>>& served,
                           const char* what, Report* report) {
  config.force_primal = true;
  auto primal = MakeService(world, pool, config);
  for (const auto& batch : lead_in) primal->HandleBatch(batch).status().CheckOK();
  size_t next = 0;
  long mismatches = 0;
  Quality quality;
  for (const auto& batch : checked) {
    auto responses = primal->HandleBatch(batch);
    responses.status().CheckOK();
    for (const RecResponse& r : *responses) {
      if (next >= served.size() || r.items != served[next]) {
        ++mismatches;
      } else {
        quality.Add(*world, config.pool_size, r.user, served[next]);
      }
      ++next;
    }
  }
  report->Info(std::string("check_") + what + "_requests",
               static_cast<double>(next));
  if (mismatches > 0 || next != served.size()) {
    report->Mismatch(std::string(what) + ": " + std::to_string(mismatches) +
                     " of " + std::to_string(served.size()) +
                     " lists differ from the force_primal service");
  }
  return quality;
}

void AddServingInfo(Report* report, const World& world,
                    const ServeConfig& config) {
  report->Info("users", world.dataset.num_users());
  report->Info("items", world.dataset.num_items());
  report->Info("embedding_dim", kEmbeddingDim);
  report->Info("kernel_rank", kKernelRank);
  report->Info("alpha", config.kernel_blend_alpha);
  report->Info("pool_size", config.pool_size);
  report->Info("top_k", config.top_k);
  report->Info("cache_capacity", config.cache_capacity);
  report->Info("zipf_exponent", kZipfExponent);
  report->Info("mode", ServeModeName(config.mode));
}

}  // namespace

// ---------------------------------------------------------------------
// sample_zipf: closed loop, one caller, synchronous 64-request batches
// in sample mode.

void RunSampleZipf(const Options& options, Report* report) {
  const ServeConfig config = WorkloadConfig(ServeMode::kSample, options.seed);
  obs::Counter* numerical =
      Counter("lkp_numerical_errors_total{site=\"serve\"}");

  // Set-up: world, service, and a cache warmed on its own trace draw.
  // Repeated, reporting the median, except in the traced run.
  const int setup_reps = options.trace ? 1 : 3;
  std::vector<double> setup_times;
  std::vector<double> world_times;
  std::unique_ptr<World> world;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<RecommendationService> service;
  std::vector<std::vector<RecRequest>> warm;
  for (int rep = 0; rep < setup_reps; ++rep) {
    service.reset();
    pool.reset();
    const auto t0 = std::chrono::steady_clock::now();
    world.reset();
    world = MakeWorld();
    pool = std::make_unique<ThreadPool>(std::max(1, options.lanes - 1));
    service = MakeService(world.get(), pool.get(), config);
    world_times.push_back(Seconds(t0, std::chrono::steady_clock::now()));
    const auto warm_trace =
        ZipfTrace(world->dataset.num_users(), kSampleWarmRequests,
                  kZipfExponent, kPopularitySeed, Mix(options.seed, 6));
    warm = Batches(warm_trace, 0, warm_trace.size(), kBatchSize);
    for (const auto& batch : warm) {
      service->HandleBatch(batch).status().CheckOK();
    }
    setup_times.push_back(Seconds(t0, std::chrono::steady_clock::now()));
  }
  AddServingInfo(report, *world, config);
  report->Info("batch_size", kBatchSize);
  report->Info("warm_requests", kSampleWarmRequests);
  report->Info("setup_reps", setup_reps);
  report->Info("setup_world_s", Median(world_times));

  // The timed draw: different from the warm-up draw, same popularity.
  const int max_requests = 1 << 19;
  const auto trace =
      ZipfTrace(world->dataset.num_users(), max_requests, kZipfExponent,
                kPopularitySeed, Mix(options.seed, 7));
  const auto batches = Batches(trace, 0, trace.size(), kBatchSize);

  const double budget = options.seconds;
  const long numerical_before = numerical->Value();
  const CacheDelta cache_before = CacheNow(service->cache());
  std::vector<double> batch_ms;
  std::vector<std::vector<int>> check_items;
  std::vector<long> path_counts(5, 0);
  Replayer replayer(*world, config, service.get());
  replayer.Skip(static_cast<size_t>(kSampleWarmRequests));
  std::vector<double> batch_requests;
  size_t b = 0;
  const StealMeter steal;
  const auto start = std::chrono::steady_clock::now();
  for (; b < batches.size(); ++b) {
    // Untraced runs also serve enough batches to support their tail.
    if (Seconds(start, std::chrono::steady_clock::now()) >= budget &&
        (options.trace || batch_ms.size() >= kMinBatches)) {
      break;
    }
    const double t0 = NowMicros();
    auto responses = service->HandleBatch(batches[b]);
    const double t1 = NowMicros();
    report->attempted += static_cast<long>(batches[b].size());
    if (!responses.ok()) {
      report->failed += static_cast<long>(batches[b].size());
      replayer.Skip(batches[b].size());
      continue;
    }
    batch_ms.push_back((t1 - t0) / 1e3);
    batch_requests.push_back(static_cast<double>(responses->size()));
    for (const RecResponse& r : *responses) {
      ++path_counts[static_cast<size_t>(r.path)];
      if (static_cast<int>(check_items.size()) < kCheckRequests) {
        check_items.push_back(r.items);
      }
    }
    if (options.trace) {
      Tracer::Global().SetEnabled(true);
      Tracer::Global().AddRoot("serve.batch_ms", t0, t1);
      replayer.Replay(batches[b], *responses, /*compare=*/true, report);
      Tracer::Global().SetEnabled(false);
    }
  }
  const double elapsed = Seconds(start, std::chrono::steady_clock::now());
  const double peak_rss = PeakRssMb();
  report->Info("host_steal_share", steal.Share());
  const long numerical_errors = numerical->Value() - numerical_before;
  report->Info("batches", static_cast<double>(batch_ms.size()));
  report->Info("numerical_errors", static_cast<double>(numerical_errors));
  if (b == batches.size()) report->Info("trace_exhausted", 1.0);
  report->failed += numerical_errors;

  // Correctness: the first kCheckRequests timed requests, replayed after
  // the same warm-up draw through a force_primal service, must come back
  // bit-identical (same Rng forks, exact representations).
  const size_t check_batches =
      (check_items.size() + kBatchSize - 1) / kBatchSize;
  const Quality quality = CheckAgainstPrimal(
      world.get(), pool.get(), config, warm,
      std::vector<std::vector<RecRequest>>(
          batches.begin(), batches.begin() + static_cast<long>(check_batches)),
      check_items, "force_primal", report);

  if (options.trace) {
    std::vector<SpanRecord> records = Tracer::Global().Take();
    AddServingLayers(report, records, elapsed * 1e6);
    AddCacheMetrics(report, cache_before, CacheNow(service->cache()), replayer);
    AddPathShares(report, path_counts);
    report->Set("serve.numerical_errors",
                static_cast<double>(numerical_errors), "count");
    report->Info("replayed_requests", static_cast<double>(replayer.replayed()));
  } else {
    // Throughput is the median over segments of kSegmentBatches batches,
    // so a burst of host preemption moves one segment, not the figure.
    std::vector<double> segment_rps;
    for (size_t s = 0; s + kSegmentBatches <= batch_ms.size();
         s += kSegmentBatches) {
      double requests = 0.0;
      double ms = 0.0;
      for (size_t i = s; i < s + kSegmentBatches; ++i) {
        requests += batch_requests[i];
        ms += batch_ms[i];
      }
      segment_rps.push_back(requests / (ms / 1e3));
    }
    AddEndToEnd(report, Median(setup_times), Median(segment_rps),
                Summarize(batch_ms, kSampleTailPct), quality, peak_rss);
    const CacheDelta cache_after = CacheNow(service->cache());
    const long hits = cache_after.hits - cache_before.hits;
    const long misses = cache_after.misses - cache_before.misses;
    report->Info("cache_hit_ratio",
                 hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                   : 0.0);
  }
}

// ---------------------------------------------------------------------
// live_map: open loop at a fixed rate through SubmitAsync in MAP-rerank
// mode, with an updater thread folding interaction events in beside it.

namespace {

std::vector<InteractionEvent> EventStream(const Dataset& dataset, int count,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<InteractionEvent> events;
  events.reserve(static_cast<size_t>(count));
  while (static_cast<int>(events.size()) < count) {
    const int user = rng.UniformInt(dataset.num_users());
    const std::vector<int>& pos = dataset.TrainItems(user);
    if (pos.empty()) continue;
    events.push_back(InteractionEvent{
        user, pos[static_cast<size_t>(rng.UniformInt(
                  static_cast<int>(pos.size())))]});
  }
  return events;
}

struct Served {
  double due_us = 0.0;
  double sent_us = 0.0;
  double done_us = 0.0;
  bool ok = false;
  RecResponse response;
};

}  // namespace

void RunLiveMap(const Options& options, Report* report) {
  const ServeConfig config =
      WorkloadConfig(ServeMode::kMapRerank, options.seed);
  obs::Counter* numerical =
      Counter("lkp_numerical_errors_total{site=\"serve\"}");
  obs::Counter* batches_total = Counter("lkp_serve_batches_total");
  obs::Counter* requests_total = Counter("lkp_serve_requests_total");
  obs::Histogram* admission = obs::MetricsRegistry::Global().GetHistogram(
      "lkp_serve_admission_wait_ms", obs::LatencyBucketsMs());

  const int setup_reps = options.trace ? 1 : 3;
  std::vector<double> setup_times;
  std::vector<double> world_times;
  std::unique_ptr<World> world;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<RecommendationService> service;
  std::unique_ptr<ModelUpdater> updater;
  for (int rep = 0; rep < setup_reps; ++rep) {
    updater.reset();
    service.reset();
    pool.reset();
    const auto t0 = std::chrono::steady_clock::now();
    world.reset();
    world = MakeWorld();
    // The generator spins on one lane; the batcher and the updater thread
    // both run ParallelFor on this pool and take part in it.
    pool = std::make_unique<ThreadPool>(std::max(1, options.lanes - 3));
    service = MakeService(world.get(), pool.get(), config);
    world_times.push_back(Seconds(t0, std::chrono::steady_clock::now()));
    const auto warm_trace =
        ZipfTrace(world->dataset.num_users(), kLiveWarmRequests, kZipfExponent,
                  kPopularitySeed, Mix(options.seed, 6));
    for (const auto& batch :
         Batches(warm_trace, 0, warm_trace.size(), kBatchSize)) {
      service->HandleBatch(batch).status().CheckOK();
    }
    UpdateConfig ucfg;
    ucfg.pool = pool.get();
    ucfg.max_batch_events = kEventsPerUpdate;
    ucfg.seed = Mix(options.seed, 8);
    auto created = ModelUpdater::Create(&world->dataset, world->model.get(),
                                        world->diversity.get(), service.get(),
                                        ucfg);
    created.status().CheckOK();
    updater = std::move(created).ValueOrDie();
    setup_times.push_back(Seconds(t0, std::chrono::steady_clock::now()));
  }
  AddServingInfo(report, *world, config);
  report->Info("rate_per_s", kLiveRatePerSec);
  report->Info("p99_limit_ms", kLiveP99LimitMs);
  report->Info("update_period_ms", kUpdatePeriodMs);
  report->Info("events_per_update", kEventsPerUpdate);
  report->Info("warm_requests", kLiveWarmRequests);
  report->Info("setup_reps", setup_reps);
  report->Info("setup_world_s", Median(world_times));

  const double seconds = options.seconds;
  const size_t max_requests =
      static_cast<size_t>(kLiveRatePerSec * seconds) + 1;
  const auto trace = ZipfTrace(world->dataset.num_users(),
                               static_cast<int>(max_requests), kZipfExponent,
                               kPopularitySeed, Mix(options.seed, 7));
  const auto events = EventStream(world->dataset, 1 << 14, Mix(options.seed, 9));

  const long numerical_before = numerical->Value();
  const long batches_before = batches_total->Value();
  const long requests_before = requests_total->Value();
  const std::vector<long> admission_before = admission->BucketCounts();
  const CacheDelta cache_before = CacheNow(service->cache());

  // Generator -> collector handoff: futures in send order.
  std::vector<Served> served(max_requests);
  std::vector<std::future<Result<RecResponse>>> futures(max_requests);
  std::mutex mu;
  std::condition_variable cv;
  size_t sent = 0;
  bool generator_done = false;
  std::atomic<bool> stop_updates{false};
  long events_applied = 0;
  long invalidated = 0;
  long updates = 0;
  long update_failures = 0;
  if (options.trace) Tracer::Global().SetEnabled(true);

  const StealMeter steal;
  const double period_us = 1e6 / kLiveRatePerSec;
  const double start_us = NowMicros() + 1000.0;
  std::thread generator([&] {
    for (size_t i = 0; i < max_requests; ++i) {
      const double due = start_us + period_us * static_cast<double>(i);
      if (due >= start_us + seconds * 1e6) break;
      // Spin rather than sleep: 8,000 sleeps and wake-ups a second make
      // the VM's vCPUs halt and resume, which the hypervisor charges as
      // steal and which swung the measured latency between runs.
      while (NowMicros() < due) {
      }
      served[i].due_us = due;
      served[i].sent_us = NowMicros();
      futures[i] = service->SubmitAsync(trace[i]);
      {
        std::lock_guard<std::mutex> lk(mu);
        sent = i + 1;
      }
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lk(mu);
    generator_done = true;
    cv.notify_one();
  });
  std::thread collector([&] {
    size_t next = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return next < sent || generator_done; });
        if (next >= sent && generator_done) return;
      }
      Result<RecResponse> r = futures[next].get();
      served[next].done_us = NowMicros();
      served[next].ok = r.ok();
      if (r.ok()) served[next].response = std::move(r).ValueOrDie();
      ++next;
    }
  });
  std::thread update_thread([&] {
    size_t next_event = 0;
    double next_us = start_us + kUpdatePeriodMs * 1e3;
    while (!stop_updates.load()) {
      const double now = NowMicros();
      if (now < next_us) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(next_us - now));
        continue;
      }
      next_us += kUpdatePeriodMs * 1e3;
      for (int e = 0; e < kEventsPerUpdate; ++e) {
        updater->Enqueue(events[next_event++ % events.size()]);
      }
      const double t0 = NowMicros();
      auto result = updater->ApplyPending();
      const double t1 = NowMicros();
      Tracer::Global().AddRoot("model_update.apply_ms", t0, t1);
      ++updates;
      if (!result.ok()) {
        ++update_failures;
        continue;
      }
      events_applied += result->events_applied;
      invalidated += result->invalidated_entries;
    }
  });
  generator.join();
  service->Flush();
  collector.join();
  stop_updates.store(true);
  update_thread.join();
  Tracer::Global().SetEnabled(false);
  const double end_us = NowMicros();
  const double peak_rss = PeakRssMb();
  report->Info("host_steal_share", steal.Share());

  std::vector<double> due_ms;
  std::vector<double> done_ms;
  std::vector<double> late_ms;
  std::vector<long> path_counts(5, 0);
  std::vector<RecRequest> sent_requests;
  std::vector<RecResponse> responses;
  for (size_t i = 0; i < sent; ++i) {
    const Served& s = served[i];
    ++report->attempted;
    late_ms.push_back((s.sent_us - s.due_us) / 1e3);
    if (!s.ok) {
      ++report->failed;
      continue;
    }
    due_ms.push_back(s.due_us / 1e3);
    done_ms.push_back(s.done_us / 1e3);
    ++path_counts[static_cast<size_t>(s.response.path)];
    sent_requests.push_back(trace[i]);
    responses.push_back(s.response);
  }
  const std::vector<double> latency_ms = LatencyFromDue(due_ms, done_ms);
  const long numerical_errors = numerical->Value() - numerical_before;
  report->failed += numerical_errors + update_failures;
  // Percentiles are taken per 200 ms window (by due time; 1,600 samples,
  // 16 beyond p99) and the run reports the median window, so a burst of
  // host preemption on a shared box moves some windows, not the figure.
  LatencySummary latency = Summarize(latency_ms, kLiveTailPct);
  const double p99_whole_run = Percentile(
      [&] {
        std::vector<double> v = latency_ms;
        std::sort(v.begin(), v.end());
        return v;
      }(),
      99.0);
  report->Info("p99_whole_run_ms", p99_whole_run);
  report->Info("p99_limit_met", p99_whole_run <= kLiveP99LimitMs ? 1.0 : 0.0);
  latency.p50 = WindowedTail(latency_ms, due_ms, start_us / 1e3, 50.0);
  latency.tail = WindowedTail(latency_ms, due_ms, start_us / 1e3, kLiveTailPct);
  const double p99_windowed =
      WindowedTail(latency_ms, due_ms, start_us / 1e3, 99.0);
  report->Info("p99_windowed_ms", p99_windowed);
  const LatencySummary late = Summarize(late_ms, 99.0);
  report->Info("generator_late_p50_ms", late.p50);
  report->Info("generator_late_tail_ms", late.tail);
  report->Info("updates", static_cast<double>(updates));
  report->Info("numerical_errors", static_cast<double>(numerical_errors));

  // Correctness, after the updates: a fixed prefix of the trace served
  // by the live service (whose cache has been through targeted
  // invalidation) must equal a fresh force_primal service over the same
  // updated model.
  const auto check =
      Batches(trace, 0, std::min<size_t>(kCheckRequests, trace.size()),
              kBatchSize);
  std::vector<std::vector<int>> live_items;
  for (const auto& batch : check) {
    auto r = service->HandleBatch(batch);
    r.status().CheckOK();
    for (const RecResponse& resp : *r) live_items.push_back(resp.items);
  }
  const Quality quality =
      CheckAgainstPrimal(world.get(), pool.get(), config, {}, check,
                         live_items, "force_primal_after_updates", report);

  if (options.trace) {
    // Replay the served sequence (updates stopped, model now fixed) in
    // chunks of the mean admitted batch size.
    const long nbatches = batches_total->Value() - batches_before;
    const long nrequests = requests_total->Value() - requests_before;
    const double mean_batch =
        nbatches > 0 ? static_cast<double>(nrequests) / nbatches : 0.0;
    const int chunk = std::max(1, static_cast<int>(std::lround(mean_batch)));
    Replayer replayer(*world, config, service.get());
    Tracer::Global().SetEnabled(true);
    const auto replay_start = std::chrono::steady_clock::now();
    for (size_t s = 0; s < sent_requests.size();
         s += static_cast<size_t>(chunk)) {
      if (Seconds(replay_start, std::chrono::steady_clock::now()) >=
          options.seconds / 2) {
        break;
      }
      const size_t e =
          std::min(sent_requests.size(), s + static_cast<size_t>(chunk));
      replayer.Replay(
          std::vector<RecRequest>(sent_requests.begin() + static_cast<long>(s),
                                  sent_requests.begin() + static_cast<long>(e)),
          std::vector<RecResponse>(responses.begin() + static_cast<long>(s),
                                   responses.begin() + static_cast<long>(e)),
          /*compare=*/false, report);
    }
    Tracer::Global().SetEnabled(false);
    const double replay_s =
        Seconds(replay_start, std::chrono::steady_clock::now());
    std::vector<SpanRecord> records = Tracer::Global().Take();
    AddServingLayers(report, records, (end_us - start_us) + replay_s * 1e6);
    AddCacheMetrics(report, cache_before, CacheNow(service->cache()), replayer);
    AddPathShares(report, path_counts);
    const std::vector<long> waits =
        Subtract(admission->BucketCounts(), admission_before);
    report->Set("serve.admission_wait_ms.p50",
                HistogramPercentile(admission->bounds(), waits, 50.0), "ms");
    report->Set("serve.admission_wait_ms.p99",
                HistogramPercentile(admission->bounds(), waits, 99.0), "ms");
    report->Set("serve.batch_size_mean", mean_batch, "count");
    report->Set("model_update.invalidated_per_update",
                updates > 0 ? static_cast<double>(invalidated) / updates : 0.0,
                "count");
    report->Set("model_update.events_applied",
                static_cast<double>(events_applied), "count");
    report->Set("loadgen.late_p99_ms", late.tail, "ms");
    report->Set("loadgen.latency_p99_ms", p99_windowed, "ms");
    report->Set("serve.numerical_errors",
                static_cast<double>(numerical_errors), "count");
    report->Info("replayed_requests", static_cast<double>(replayer.replayed()));
  } else {
    AddEndToEnd(report, Median(setup_times),
                static_cast<double>(latency_ms.size()) /
                    ((end_us - start_us) / 1e6),
                latency, quality, peak_rss);
    const CacheDelta cache_after = CacheNow(service->cache());
    const long hits = cache_after.hits - cache_before.hits;
    const long misses = cache_after.misses - cache_before.misses;
    report->Info("cache_hit_ratio",
                 hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                   : 0.0);
  }
}

}  // namespace perfbench
