// Google-benchmark micro suite: the design-choice ablations DESIGN.md
// calls out — ESP recursion vs brute-force enumeration, the two-stage
// tridiagonalization eigensolver vs the Jacobi reference, kernel
// assembly, criterion evaluation, and exact k-DPP sampling (whole draws
// and the elementary-DPP phase alone). These justify
// the O((k+n)k) normalization claim of the paper (Section III-B4).
// bench/eigen_bench extends the eigensolver comparison to serving-pool
// sizes without requiring Google Benchmark.

#include <benchmark/benchmark.h>

#include <cmath>

#include "common/rng.h"
#include "core/dpp.h"
#include "core/esp.h"
#include "core/kdpp.h"
#include "core/lkp.h"
#include "kernels/quality_diversity.h"
#include "linalg/eigen.h"

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

}  // namespace
}  // namespace lkpdpp

BENCHMARK_MAIN();
