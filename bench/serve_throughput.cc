// Serving throughput: requests/sec of RecommendationService as a
// function of thread count (1-8), for both serve modes, under
// Zipf-skewed traffic over a serving-scale user population (100k users
// by default) with an MF backbone.
//
// Sections per mode:
//   * cold: cache disabled, every request pays the full kernel build +
//     (sampling mode) eigendecomposition — the CPU-scaling story;
//   * warm: sharded cache after a priming pass — the memoization story
//     under skewed traffic (head users hit, tail users miss).
// Then one async-admission section: the same arrival sequence is pushed
// through SubmitAsync one request at a time and the resolved responses
// are compared bit-for-bit against the synchronous run — the admission
// determinism contract (batch slicing must not change responses).
//
// All timed regions cover request serving only: dataset generation,
// model/service construction and cache priming happen outside the
// bench-owned Stopwatch, and req/s is requests / elapsed rather than
// any service-internal accounting.
//
//   ./build/bench/serve_throughput
//
// Env knobs: LKP_SERVE_USERS (population, default 100000),
// LKP_SERVE_REQUESTS (trace length, default 2000), LKP_SCALE is unused
// here (the population knob replaces it). With LKP_SCALING_GATE=1 the
// binary exits non-zero unless the 8-thread cold speedup reaches
// 4.0 * min(cores, 8) / 8 in each mode (machines with fewer than 2
// cores skip that half loudly instead of failing it), or when the
// path gate below fails.
//
// Path gate: each mode at the default config runs through the
// auto-selected representation and through force_primal in this same
// process, cold and warm, at 1 thread, taking turns batch by batch
// over the trace served four times. Both must serve bit-identical
// lists, and under LKP_SCALING_GATE=1 auto must reach at least 90% of
// force_primal's req/s in every mode and cache state. Thread-scaling
// ratios cannot catch a slow path that scales well; this same-box
// comparison can.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "models/mf.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace lkpdpp {
namespace {

int IntFromEnv(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

// Deterministic Zipf(s) traffic over the user population: request r hits
// popularity rank drawn by inverse-CDF from a fixed Rng stream, and a
// fixed shuffle decorrelates rank from user id. The head of the
// distribution dominates (rank 1 ~ 7% of traffic at s=1.05, 100k
// users), which is what makes the warm-cache section meaningful at this
// population size.
std::vector<RecRequest> BuildZipfTrace(int num_users, int num_requests,
                                       double exponent, uint64_t seed) {
  std::vector<double> cdf(static_cast<size_t>(num_users));
  double total = 0.0;
  for (int r = 0; r < num_users; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[static_cast<size_t>(r)] = total;
  }
  std::vector<int> rank_to_user(static_cast<size_t>(num_users));
  for (int u = 0; u < num_users; ++u) rank_to_user[static_cast<size_t>(u)] = u;
  Rng rng(seed);
  rng.Shuffle(&rank_to_user);

  std::vector<RecRequest> trace;
  trace.reserve(static_cast<size_t>(num_requests));
  for (int r = 0; r < num_requests; ++r) {
    const double draw = rng.Uniform() * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), draw);
    const size_t rank = std::min(
        static_cast<size_t>(it - cdf.begin()), cdf.size() - 1);
    trace.push_back(RecRequest{rank_to_user[rank]});
  }
  return trace;
}

std::vector<std::vector<RecRequest>> SliceIntoBatches(
    const std::vector<RecRequest>& trace, int batch_size) {
  std::vector<std::vector<RecRequest>> batches;
  for (size_t start = 0; start < trace.size();
       start += static_cast<size_t>(batch_size)) {
    const size_t end =
        std::min(trace.size(), start + static_cast<size_t>(batch_size));
    batches.emplace_back(trace.begin() + static_cast<long>(start),
                         trace.begin() + static_cast<long>(end));
  }
  return batches;
}

struct RunResult {
  double rps = 0.0;
  double hit_rate = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::vector<std::vector<int>> items;  // Flattened response trace.
};

ServeConfig BenchConfig(ServeMode mode, int cache_capacity,
                        bool force_primal = false) {
  ServeConfig config;
  config.mode = mode;
  config.top_k = 10;
  config.pool_size = 30;
  config.cache_capacity = cache_capacity;
  config.seed = 0xBE7C4;
  config.force_primal = force_primal;
  return config;
}

RunResult RunSync(const Dataset& dataset, MfModel* model,
                  const DiversityKernel& diversity, ServeMode mode,
                  int threads, int cache_capacity, bool prime,
                  const std::vector<std::vector<RecRequest>>& batches) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  auto service = RecommendationService::Create(
      &dataset, model, &diversity, pool.get(),
      BenchConfig(mode, cache_capacity));
  service.status().CheckOK();
  if (prime) {
    for (const auto& batch : batches) {
      (*service)->HandleBatch(batch).status().CheckOK();
    }
    (*service)->ResetStats();
  }
  RunResult out;
  long served = 0;
  Stopwatch timer;  // Timed region: request serving only.
  for (const auto& batch : batches) {
    auto responses = (*service)->HandleBatch(batch);
    responses.status().CheckOK();
    served += static_cast<long>(responses->size());
    for (const RecResponse& r : *responses) {
      out.items.push_back(r.items);
    }
  }
  const double elapsed = timer.ElapsedSeconds();
  out.rps = elapsed > 0.0 ? static_cast<double>(served) / elapsed : 0.0;
  const ServeStats stats = (*service)->Snapshot();
  out.hit_rate = stats.CacheHitRate();
  out.p50 = stats.latency_p50_ms;
  out.p99 = stats.latency_p99_ms;
  return out;
}

RunResult RunAsync(const Dataset& dataset, MfModel* model,
                   const DiversityKernel& diversity, ServeMode mode,
                   int threads, int cache_capacity,
                   const std::vector<RecRequest>& trace) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  auto service = RecommendationService::Create(
      &dataset, model, &diversity, pool.get(),
      BenchConfig(mode, cache_capacity));
  service.status().CheckOK();
  std::vector<std::future<Result<RecResponse>>> futures;
  futures.reserve(trace.size());
  RunResult out;
  Stopwatch timer;  // Timed region: admission + serving + resolution.
  for (const RecRequest& request : trace) {
    futures.push_back((*service)->SubmitAsync(request));
  }
  (*service)->Flush();
  for (auto& f : futures) {
    Result<RecResponse> response = f.get();
    response.status().CheckOK();
    out.items.push_back(response->items);
  }
  const double elapsed = timer.ElapsedSeconds();
  out.rps = elapsed > 0.0
                ? static_cast<double>(trace.size()) / elapsed
                : 0.0;
  const ServeStats stats = (*service)->Snapshot();
  out.hit_rate = stats.CacheHitRate();
  out.p50 = stats.latency_p50_ms;
  out.p99 = stats.latency_p99_ms;
  return out;
}

long CountMismatches(const std::vector<std::vector<int>>& got,
                     const std::vector<std::vector<int>>& want) {
  long mismatches = 0;
  if (got.size() != want.size()) return static_cast<long>(want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) ++mismatches;
  }
  return mismatches;
}

// 8-thread cold speedup per mode, consumed by the scaling gate.
double Sweep(const Dataset& dataset, MfModel* model,
             const DiversityKernel& diversity, ServeMode mode,
             const std::vector<std::vector<RecRequest>>& batches) {
  std::printf("\n--- mode=%s, cold cache ---\n", ServeModeName(mode));
  std::printf("%8s %12s %10s %10s %10s\n", "threads", "req/s", "speedup",
              "p50(ms)", "p99(ms)");
  double base_rps = 0.0;
  double top_speedup = 0.0;
  std::vector<std::vector<int>> reference;
  for (int threads : {1, 2, 4, 8}) {
    const RunResult r = RunSync(dataset, model, diversity, mode, threads,
                                /*cache_capacity=*/0, /*prime=*/false,
                                batches);
    if (threads == 1) {
      base_rps = r.rps;
      reference = r.items;
    }
    const long mismatches = CountMismatches(r.items, reference);
    const double speedup = base_rps > 0.0 ? r.rps / base_rps : 0.0;
    if (threads == 8) top_speedup = speedup;
    std::printf("%8d %12.1f %9.2fx %10.3f %10.3f   %s\n", threads, r.rps,
                speedup, r.p50, r.p99,
                mismatches == 0 ? "bit-identical"
                                : "DETERMINISM VIOLATION");
    std::fflush(stdout);
    if (mismatches != 0) std::exit(1);
  }

  std::printf("--- mode=%s, warm cache (primed) ---\n", ServeModeName(mode));
  std::printf("%8s %12s %10s %10s\n", "threads", "req/s", "hit_rate",
              "p50(ms)");
  for (int threads : {1, 4, 8}) {
    const RunResult r = RunSync(dataset, model, diversity, mode, threads,
                                /*cache_capacity=*/8192, /*prime=*/true,
                                batches);
    std::printf("%8d %12.1f %10.3f %10.3f\n", threads, r.rps, r.hit_rate,
                r.p50);
    std::fflush(stdout);
  }
  return top_speedup;
}

// Auto path vs force_primal in `mode`, default config, one shared
// 1-thread pool; returns the lower of the cold and warm
// auto/force_primal req/s ratios. Both services live side by side and
// take turns batch by batch (alternating which goes first), each batch
// timed on its own, so drift on a shared box lands on both sides alike
// instead of on whichever run it happened to overlap.
double PathSection(const Dataset& dataset, MfModel* model,
                   const DiversityKernel& diversity, ServeMode mode,
                   const std::vector<std::vector<RecRequest>>& batches) {
  std::printf("\n--- path gate (mode=%s, auto vs force_primal, "
              "1 thread, interleaved per batch) ---\n",
              ServeModeName(mode));
  std::printf("%8s %12s %14s %9s\n", "cache", "auto_rps", "primal_rps",
              "ratio");
  std::vector<std::vector<RecRequest>> passes;
  for (int pass = 0; pass < 4; ++pass) {
    passes.insert(passes.end(), batches.begin(), batches.end());
  }
  ThreadPool pool(1);
  double worst = 1e300;
  for (bool warm : {false, true}) {
    std::unique_ptr<RecommendationService> services[2];
    for (int side = 0; side < 2; ++side) {
      auto made = RecommendationService::Create(
          &dataset, model, &diversity, &pool,
          BenchConfig(mode, warm ? 8192 : 0,
                      /*force_primal=*/side == 1));
      made.status().CheckOK();
      services[side] = std::move(made).ValueOrDie();
      if (warm) {
        for (const auto& batch : batches) {
          services[side]->HandleBatch(batch).status().CheckOK();
        }
      }
    }
    double seconds[2] = {0.0, 0.0};
    long requests = 0;
    long mismatches = 0;
    for (size_t b = 0; b < passes.size(); ++b) {
      std::vector<RecResponse> responses[2];
      for (int turn = 0; turn < 2; ++turn) {
        const int side = (turn + static_cast<int>(b)) % 2;
        Stopwatch timer;
        auto served = services[side]->HandleBatch(passes[b]);
        seconds[side] += timer.ElapsedSeconds();
        served.status().CheckOK();
        responses[side] = std::move(served).ValueOrDie();
      }
      for (size_t i = 0; i < responses[0].size(); ++i) {
        if (responses[0][i].items != responses[1][i].items) ++mismatches;
      }
      requests += static_cast<long>(passes[b].size());
    }
    const double auto_rps = requests / seconds[0];
    const double primal_rps = requests / seconds[1];
    const double ratio = auto_rps / primal_rps;
    worst = std::min(worst, ratio);
    std::printf("%8s %12.1f %14.1f %8.3fx   %s\n", warm ? "warm" : "cold",
                auto_rps, primal_rps, ratio,
                mismatches == 0 ? "auto==force_primal" : "PATH MISMATCH");
    std::fflush(stdout);
    if (mismatches != 0) std::exit(1);
  }
  return worst;
}

void AsyncSection(const Dataset& dataset, MfModel* model,
                  const DiversityKernel& diversity,
                  const std::vector<RecRequest>& trace,
                  const std::vector<std::vector<RecRequest>>& batches) {
  // Sampling mode is the sharpest determinism probe: every response
  // consumes a per-request Rng stream, so any batch-slicing or
  // fork-order bug shows up as a flipped item list.
  std::printf("\n--- async admission (mode=%s) ---\n",
              ServeModeName(ServeMode::kSample));
  std::printf("%8s %12s %10s %10s\n", "threads", "req/s", "hit_rate",
              "p50(ms)");
  const RunResult sync = RunSync(dataset, model, diversity,
                                 ServeMode::kSample, /*threads=*/4,
                                 /*cache_capacity=*/8192, /*prime=*/false,
                                 batches);
  for (int threads : {1, 4, 8}) {
    const RunResult r = RunAsync(dataset, model, diversity,
                                 ServeMode::kSample, threads,
                                 /*cache_capacity=*/8192, trace);
    const long mismatches = CountMismatches(r.items, sync.items);
    std::printf("%8d %12.1f %10.3f %10.3f   %s\n", threads, r.rps,
                r.hit_rate, r.p50,
                mismatches == 0 ? "async==sync"
                                : "ASYNC DETERMINISM VIOLATION");
    std::fflush(stdout);
    if (mismatches != 0) std::exit(1);
  }
}

// The path gate compares two runs on the same box, so it applies on any
// core count. The scaling half only makes sense on hardware that can
// express the speedup; its thresholds scale with available cores and it
// steps aside (with a loud note, not silent success) below 2 cores.
int ApplyScalingGate(double map_speedup, double sample_speedup,
                     double path_ratio) {
  const char* env = std::getenv("LKP_SCALING_GATE");
  if (env == nullptr || std::atoi(env) != 1) return 0;
  const double kMinPathRatio = 0.9;
  const bool path_ok = path_ratio >= kMinPathRatio;
  std::printf("\npath gate: worst auto/force_primal=%.3fx "
              "required>=%.2fx -> %s\n",
              path_ratio, kMinPathRatio, path_ok ? "PASS" : "FAIL");
  const int cores =
      static_cast<int>(std::thread::hardware_concurrency());
  if (cores < 2) {
    std::printf("scaling gate: SKIPPED — %d core(s) detected; a "
                "parallel speedup cannot be measured here.\n", cores);
    return path_ok ? 0 : 1;
  }
  const double required = 4.0 * std::min(cores, 8) / 8.0;
  const bool ok = map_speedup >= required && sample_speedup >= required;
  std::printf("scaling gate: cores=%d required=%.2fx "
              "map_rerank=%.2fx sample=%.2fx -> %s\n",
              cores, required, map_speedup, sample_speedup,
              ok ? "PASS" : "FAIL");
  return ok && path_ok ? 0 : 1;
}

}  // namespace
}  // namespace lkpdpp

int main() {
  using namespace lkpdpp;
  std::printf("=== serve_throughput: requests/sec vs thread count ===\n");

  // Everything below up to the sweeps is setup — never timed.
  ServingWorldConfig wcfg;
  wcfg.num_users = IntFromEnv("LKP_SERVE_USERS", 100000);
  auto ds = GenerateServingWorld(wcfg);
  ds.status().CheckOK();
  Dataset dataset = std::move(ds).ValueOrDie();

  MfModel::Config mcfg;
  mcfg.embedding_dim = 16;
  mcfg.seed = 7;
  MfModel model(dataset.num_users(), dataset.num_items(), mcfg);
  DiversityKernel diversity =
      DiversityKernel::Random(dataset.num_items(), 16, /*seed=*/21);

  const int num_requests = IntFromEnv("LKP_SERVE_REQUESTS", 2000);
  const auto trace = BuildZipfTrace(dataset.num_users(), num_requests,
                                    /*exponent=*/1.05, /*seed=*/0x21F);
  const auto batches = SliceIntoBatches(trace, /*batch_size=*/64);
  std::printf("dataset=%s users=%d items=%d requests=%d batch=64 "
              "zipf=1.05 cores=%u\n",
              dataset.name().c_str(), dataset.num_users(),
              dataset.num_items(), num_requests,
              std::thread::hardware_concurrency());

  const double map_speedup =
      Sweep(dataset, &model, diversity, ServeMode::kMapRerank, batches);
  const double sample_speedup =
      Sweep(dataset, &model, diversity, ServeMode::kSample, batches);
  const double sample_path_ratio =
      PathSection(dataset, &model, diversity, ServeMode::kSample, batches);
  const double map_path_ratio = PathSection(
      dataset, &model, diversity, ServeMode::kMapRerank, batches);
  const double path_ratio = std::min(sample_path_ratio, map_path_ratio);
  AsyncSection(dataset, &model, diversity, trace, batches);

  // LKP_METRICS_OUT=<path>: dump the accumulated process metrics as
  // JSON (record_baseline.sh folds this into BENCH_baseline.json).
  if (const char* metrics_out = std::getenv("LKP_METRICS_OUT")) {
    std::ofstream f(metrics_out, std::ios::out | std::ios::trunc);
    if (f.is_open()) {
      f << obs::MetricsRegistry::Global().DumpJson();
      std::printf("\nwrote metrics dump to %s\n", metrics_out);
    } else {
      std::printf("\nFAILED to open LKP_METRICS_OUT=%s\n", metrics_out);
    }
  }

  std::printf("\nnote: speedups are bounded by physical cores; the "
              "determinism checks are machine-independent.\n");
  return ApplyScalingGate(map_speedup, sample_speedup, path_ratio);
}
