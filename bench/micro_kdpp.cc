// Google-benchmark micro suite: the design-choice ablations DESIGN.md
// calls out — ESP recursion vs brute-force enumeration, the two-stage
// tridiagonalization eigensolver vs the Jacobi reference, kernel
// assembly, criterion evaluation, exact k-DPP sampling (whole draws
// and the elementary-DPP phase alone), and the serving KernelCache's
// bookkeeping (insert with eviction, GetCurrent, item invalidation).
// These justify
// the O((k+n)k) normalization claim of the paper (Section III-B4).
// bench/eigen_bench extends the eigensolver comparison to serving-pool
// sizes without requiring Google Benchmark.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/dpp.h"
#include "core/esp.h"
#include "core/kdpp.h"
#include "core/lkp.h"
#include "kernels/quality_diversity.h"
#include "linalg/eigen.h"
#include "serve/kernel_cache.h"

namespace lkpdpp {
namespace {

Vector RandomEigenvalues(int m, uint64_t seed) {
  Rng rng(seed);
  Vector v(m);
  for (int i = 0; i < m; ++i) v[i] = rng.Uniform(0.05, 2.0);
  return v;
}

Matrix RandomKernel(int m, uint64_t seed) {
  Rng rng(seed);
  Matrix v(m, m + 2);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < m + 2; ++c) v(r, c) = rng.Normal();
  }
  Matrix k = MatMulTransB(v, v);
  k *= 1.0 / (m + 2);
  k.AddDiagonal(0.1);
  return k;
}

void BM_EspRecursion(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = m / 2;
  const Vector vals = RandomEigenvalues(m, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElementarySymmetric(vals, k));
  }
}
BENCHMARK(BM_EspRecursion)->Arg(8)->Arg(10)->Arg(16)->Arg(32)->Arg(64);

void BM_EspBruteForce(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = m / 2;
  const Vector vals = RandomEigenvalues(m, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElementarySymmetricBruteForce(vals, k));
  }
}
// Brute force is exponential; cap at sizes that still terminate quickly.
BENCHMARK(BM_EspBruteForce)->Arg(8)->Arg(10)->Arg(16)->Arg(20);

void BM_ExclusionEsp(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Vector vals = RandomEigenvalues(m, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExclusionEsp(vals, m / 2 - 1));
  }
}
BENCHMARK(BM_ExclusionEsp)->Arg(8)->Arg(10)->Arg(16)->Arg(32);

void BM_TridiagEigen(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Matrix kernel = RandomKernel(m, 4);
  for (auto _ : state) {
    auto eig = SymmetricEigen(kernel);
    benchmark::DoNotOptimize(eig);
  }
}
BENCHMARK(BM_TridiagEigen)->Arg(6)->Arg(10)->Arg(16)->Arg(32)->Arg(64);

void BM_JacobiEigen(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Matrix kernel = RandomKernel(m, 4);
  for (auto _ : state) {
    auto eig = SymmetricEigenJacobi(kernel);
    benchmark::DoNotOptimize(eig);
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(6)->Arg(10)->Arg(16)->Arg(32)->Arg(64);

void BM_KdppCreate(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Matrix kernel = RandomKernel(m, 5);
  for (auto _ : state) {
    auto kdpp = KDpp::Create(kernel, m / 2);
    benchmark::DoNotOptimize(kdpp);
  }
}
BENCHMARK(BM_KdppCreate)->Arg(6)->Arg(10)->Arg(16);

void BM_KdppSample(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  auto kdpp = KDpp::Create(RandomKernel(m, 6), m / 2);
  kdpp.status().CheckOK();
  Rng rng(7);
  for (auto _ : state) {
    auto s = kdpp->Sample(&rng);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_KdppSample)->Arg(6)->Arg(10)->Arg(16);

// Phase 2 alone: one elementary-DPP draw over the top k eigenvectors of
// an m-item kernel, at the serving pool (30) and either side of it.
void BM_ElementaryDppSample(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  auto eig = SymmetricEigen(RandomKernel(m, 13));
  eig.status().CheckOK();
  Matrix basis(m, k);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < k; ++c) basis(r, c) = eig->eigenvectors(r, m - 1 - c);
  }
  Rng rng(14);
  for (auto _ : state) {
    auto s = SampleElementaryDpp(basis, &rng);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ElementaryDppSample)->Args({10, 5})->Args({30, 10})->Args({64, 10});

void BM_LkpEvaluate(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int m = 2 * k;
  Rng rng(8);
  Matrix diversity = RandomKernel(m, 9);
  // Scale to a unit diagonal so it looks like a similarity kernel.
  for (int i = 0; i < m; ++i) {
    const double d = std::sqrt(diversity(i, i));
    for (int j = 0; j < m; ++j) {
      diversity(i, j) /= d;
      diversity(j, i) /= d;
    }
  }
  Vector scores(m);
  for (int i = 0; i < m; ++i) scores[i] = rng.Normal();
  LkpCriterion crit(LkpConfig{.mode = LkpMode::kNegativeAndPositive});
  CriterionInput in;
  in.scores = scores;
  in.num_pos = k;
  in.diversity = &diversity;
  for (auto _ : state) {
    auto out = crit.Evaluate(in);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LkpEvaluate)->Arg(3)->Arg(5)->Arg(8);

void BM_AssembleKernel(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(10);
  const Matrix diversity = RandomKernel(m, 11);
  Vector q(m);
  for (int i = 0; i < m; ++i) q[i] = std::exp(rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssembleKernel(q, diversity));
  }
}
BENCHMARK(BM_AssembleKernel)->Arg(10)->Arg(16)->Arg(32);

void BM_EnumerateSubsets(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  auto kdpp = KDpp::Create(RandomKernel(m, 12), m / 2);
  kdpp.status().CheckOK();
  for (auto _ : state) {
    auto all = kdpp->EnumerateProbabilities();
    benchmark::DoNotOptimize(all);
  }
}
BENCHMARK(BM_EnumerateSubsets)->Arg(8)->Arg(10)->Arg(12);

// KernelCache at the serving defaults: a full 4,096-entry, 16-shard
// cache of 30-item pools over a 2,000-item catalog. Entries carry no
// kernel, so only the cache's own work is timed.
constexpr int kCacheCapacity = 4096;
constexpr int kCachePool = 30;
constexpr int kCacheCatalog = 2000;
// Users inserted at set-up: twice the capacity, so every shard is full.
constexpr int kCacheUsers = 2 * kCacheCapacity;

struct CacheWorld {
  std::vector<std::shared_ptr<const ServedKernel>> entries;  // By user.
  std::vector<uint64_t> hashes;
  KernelCache cache{kCacheCapacity};

  CacheWorld() {
    for (int u = 0; u < kCacheUsers; ++u) {
      auto e = std::make_shared<ServedKernel>();
      e->items.resize(kCachePool);
      for (int j = 0; j < kCachePool; ++j) {
        e->items[static_cast<size_t>(j)] = (u * 37 + j * 61) % kCacheCatalog;
      }
      e->model_version = 1;
      hashes.push_back(HashGroundSet(e->items));
      entries.push_back(std::move(e));
    }
    for (long u = 0; u < kCacheUsers; ++u) Put(u);
  }
  // Inserts user `u` with the pool of user u % kCacheUsers.
  void Put(long u) {
    const size_t slot = static_cast<size_t>(u % kCacheUsers);
    cache.Put(static_cast<int>(u), hashes[slot], entries[slot]);
  }
};

void BM_KernelCachePutEvict(benchmark::State& state) {
  CacheWorld world;
  const long evictions_before = world.cache.evictions();
  long next_user = kCacheUsers;  // Never resident: every Put evicts.
  for (auto _ : state) world.Put(next_user++);
  state.counters["evictions_per_put"] = benchmark::Counter(
      static_cast<double>(world.cache.evictions() - evictions_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_KernelCachePutEvict);

void BM_KernelCacheGetCurrent(benchmark::State& state) {
  const bool hit = state.range(0) == 1;
  CacheWorld world;
  std::vector<int> users;
  for (int u = 0; u < kCacheUsers; ++u) {
    if (!hit) {
      users.push_back(kCacheUsers + u);  // Never inserted.
    } else if (world.cache.GetCurrent(u, 1) != nullptr) {
      users.push_back(u);
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.cache.GetCurrent(users[i], 1));
    if (++i == users.size()) i = 0;
  }
}
BENCHMARK(BM_KernelCacheGetCurrent)->ArgName("hit")->Arg(1)->Arg(0);

void BM_KernelCacheInvalidateItems(benchmark::State& state) {
  CacheWorld world;
  // Resident users by pool item, to put the invalidated entries back
  // (untimed) so every call sees the same full cache.
  std::vector<std::vector<long>> holders(kCacheCatalog);
  for (int u = 0; u < kCacheUsers; ++u) {
    if (world.cache.Get(u, world.hashes[static_cast<size_t>(u)]) == nullptr) {
      continue;
    }
    for (int item : world.entries[static_cast<size_t>(u)]->items) {
      holders[static_cast<size_t>(item)].push_back(u);
    }
  }
  int item = 0;
  long invalidated = 0;
  for (auto _ : state) {
    invalidated += world.cache.InvalidateItems({item, item + 1});
    state.PauseTiming();
    for (int touched : {item, item + 1}) {
      for (long u : holders[static_cast<size_t>(touched)]) world.Put(u);
    }
    item = (item + 2) % kCacheCatalog;
    state.ResumeTiming();
  }
  state.counters["invalidated_per_call"] =
      benchmark::Counter(static_cast<double>(invalidated),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_KernelCacheInvalidateItems);

}  // namespace
}  // namespace lkpdpp

BENCHMARK_MAIN();
