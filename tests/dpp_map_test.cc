// Tests for the standard DPP and greedy MAP inference extensions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/dpp.h"
#include "core/esp.h"
#include "core/kdpp.h"
#include "core/map_inference.h"
#include "kernels/gaussian_embedding.h"
#include "linalg/low_rank.h"
#include "linalg/lu.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

// This suite's kernels are over-complete (rank n+2) with a 0.1 ridge for
// conditioning; seeds below are pinned against these parameters.
Matrix RandomPsd(int n, Rng* rng) {
  return testutil::RandomPsdKernel(n, rng, /*rank=*/n + 2, /*ridge=*/0.1);
}

TEST(DppTest, NormalizerIsDetLPlusI) {
  Rng rng(1);
  Matrix kernel = RandomPsd(5, &rng);
  auto dpp = Dpp::Create(kernel);
  ASSERT_TRUE(dpp.ok());
  Matrix lpi = kernel;
  lpi.AddDiagonal(1.0);
  auto det = Determinant(lpi);
  ASSERT_TRUE(det.ok());
  EXPECT_NEAR(dpp->LogNormalizer(), std::log(*det), 1e-9);
}

TEST(DppTest, ProbabilitiesOverAllSubsetsSumToOne) {
  Rng rng(2);
  const int m = 5;
  auto dpp = Dpp::Create(RandomPsd(m, &rng));
  ASSERT_TRUE(dpp.ok());
  double total = 0.0;
  // All 2^m subsets via bitmask.
  for (int mask = 0; mask < (1 << m); ++mask) {
    std::vector<int> subset;
    for (int i = 0; i < m; ++i) {
      if (mask & (1 << i)) subset.push_back(i);
    }
    auto p = dpp->Prob(subset);
    ASSERT_TRUE(p.ok());
    total += *p;
  }
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(DppTest, EmptySetHasNormalizerMass) {
  Rng rng(3);
  auto dpp = Dpp::Create(RandomPsd(4, &rng));
  ASSERT_TRUE(dpp.ok());
  auto p = dpp->Prob({});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, std::exp(-dpp->LogNormalizer()), 1e-12);
}

TEST(DppTest, MarginalKernelDiagonalMatchesEnumeration) {
  Rng rng(4);
  const int m = 5;
  auto dpp = Dpp::Create(RandomPsd(m, &rng));
  ASSERT_TRUE(dpp.ok());
  Vector marginal(m);
  for (int mask = 0; mask < (1 << m); ++mask) {
    std::vector<int> subset;
    for (int i = 0; i < m; ++i) {
      if (mask & (1 << i)) subset.push_back(i);
    }
    auto p = dpp->Prob(subset);
    ASSERT_TRUE(p.ok());
    for (int i : subset) marginal[i] += *p;
  }
  const Matrix mk = dpp->MarginalKernel();
  for (int i = 0; i < m; ++i) EXPECT_NEAR(mk(i, i), marginal[i], 1e-8);
  EXPECT_NEAR(mk.Trace(), dpp->ExpectedSize(), 1e-10);
}

TEST(DppTest, SampleSizeDistributionMatchesExpectation) {
  Rng rng(5);
  auto dpp = Dpp::Create(RandomPsd(6, &rng));
  ASSERT_TRUE(dpp.ok());
  Rng sample_rng(6);
  double mean_size = 0.0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    auto s = dpp->Sample(&sample_rng);
    ASSERT_TRUE(s.ok());
    mean_size += static_cast<double>(s->size()) / trials;
    // Distinct ascending indices.
    for (size_t i = 1; i < s->size(); ++i) {
      EXPECT_LT((*s)[i - 1], (*s)[i]);
    }
  }
  EXPECT_NEAR(mean_size, dpp->ExpectedSize(), 0.05);
}

TEST(DppTest, EmpiricalMarginalsMatchKernel) {
  Rng rng(7);
  const int m = 5;
  auto dpp = Dpp::Create(RandomPsd(m, &rng));
  ASSERT_TRUE(dpp.ok());
  const Matrix mk = dpp->MarginalKernel();
  Rng sample_rng(8);
  Vector freq(m);
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    auto s = dpp->Sample(&sample_rng);
    ASSERT_TRUE(s.ok());
    for (int i : *s) freq[i] += 1.0 / trials;
  }
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(freq[i], mk(i, i), 0.015) << "item " << i;
  }
}

TEST(DppTest, ValidationErrors) {
  Rng rng(9);
  Matrix kernel = RandomPsd(4, &rng);
  auto dpp = Dpp::Create(kernel);
  ASSERT_TRUE(dpp.ok());
  EXPECT_FALSE(dpp->LogProb({0, 0}).ok());
  EXPECT_FALSE(dpp->LogProb({9}).ok());
  EXPECT_FALSE(dpp->Sample(nullptr).ok());
  EXPECT_FALSE(Dpp::Create(Matrix(2, 3)).ok());
  EXPECT_FALSE(Dpp::Create(Matrix{{1, 0}, {0, -1}}).ok());
}

TEST(DppVsKdppTest, ConditionalProbabilityMatchesKdpp) {
  // P_kDPP(S) = P_DPP(S) / sum_{|T|=k} P_DPP(T): the k-DPP is the
  // standard DPP conditioned on cardinality (paper Section II/III-A2).
  Rng rng(10);
  const int m = 6, k = 3;
  Matrix kernel = RandomPsd(m, &rng);
  auto dpp = Dpp::Create(kernel);
  auto kdpp = KDpp::Create(kernel, k);
  ASSERT_TRUE(dpp.ok());
  ASSERT_TRUE(kdpp.ok());

  double mass_k = 0.0;
  std::vector<int> idx = {0, 1, 2};
  do {
    auto p = dpp->Prob(idx);
    ASSERT_TRUE(p.ok());
    mass_k += *p;
  } while (NextCombination(&idx, m));

  const std::vector<int> probe = {1, 3, 5};
  auto p_dpp = dpp->Prob(probe);
  auto p_kdpp = kdpp->Prob(probe);
  ASSERT_TRUE(p_dpp.ok());
  ASSERT_TRUE(p_kdpp.ok());
  EXPECT_NEAR(*p_kdpp, *p_dpp / mass_k, 1e-9);
}

TEST(GreedyMapTest, DiagonalKernelPicksLargestEntries) {
  Matrix kernel = Matrix::Diagonal(Vector{0.5, 3.0, 1.0, 2.0});
  GreedyMapOptions options;
  options.max_size = 2;
  auto s = GreedyMapInference(kernel, options);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, (std::vector<int>{1, 3}));  // Selection order: 3.0, 2.0.
}

TEST(GreedyMapTest, SelectsDiverseClusterRepresentatives) {
  // Two tight clusters: greedy must pick one item from each before a
  // second item from either.
  Matrix emb{{0.0, 0.0}, {0.05, 0.0}, {3.0, 3.0}, {3.05, 3.0}};
  Matrix kernel = GaussianKernel(emb, 1.0);
  GreedyMapOptions options;
  options.max_size = 2;
  auto s = GreedyMapInference(kernel, options);
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->size(), 2u);
  const bool first_cluster =
      (*s)[0] <= 1 || (*s)[1] <= 1;
  const bool second_cluster =
      (*s)[0] >= 2 || (*s)[1] >= 2;
  EXPECT_TRUE(first_cluster && second_cluster);
}

TEST(GreedyMapTest, MatchesExhaustiveArgmaxOnSmallKernels) {
  // Greedy is a (1 - 1/e)-approximation; on small well-conditioned
  // kernels it usually hits the exact argmax. We check it is never far
  // below and often equal.
  Rng rng(11);
  int exact_hits = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 6, k = 3;
    Matrix kernel = RandomPsd(m, &rng);
    GreedyMapOptions options;
    options.max_size = k;
    auto greedy = GreedyMapInference(kernel, options);
    ASSERT_TRUE(greedy.ok());
    std::vector<int> sorted = *greedy;
    std::sort(sorted.begin(), sorted.end());
    auto det_greedy = Determinant(kernel.PrincipalSubmatrix(sorted));
    ASSERT_TRUE(det_greedy.ok());

    double best = 0.0;
    std::vector<int> idx = {0, 1, 2};
    do {
      auto det = Determinant(kernel.PrincipalSubmatrix(idx));
      ASSERT_TRUE(det.ok());
      best = std::max(best, *det);
    } while (NextCombination(&idx, m));

    EXPECT_GE(*det_greedy, 0.3 * best);  // Loose submodularity bound.
    if (*det_greedy >= best * (1.0 - 1e-9)) ++exact_hits;
  }
  EXPECT_GE(exact_hits, 10);  // Exact most of the time in practice.
}

TEST(GreedyMapTest, StopsOnRankDeficiency) {
  // Rank-2 kernel: a third selection has zero gain and must not happen.
  Matrix v{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {2.0, -1.0}};
  Matrix kernel = MatMulTransB(v, v);
  GreedyMapOptions options;
  options.max_size = 4;
  auto s = GreedyMapInference(kernel, options);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 2u);
}

TEST(GreedyMapTest, StoppingThresholdScalesWithTheKernel) {
  // Regression for the absolute 1e-15 stop this replaced: a uniformly
  // tiny full-rank kernel must still fill the request (the old cutoff
  // reported NumericalError at 1e-150 scale), and a uniformly huge
  // rank-2 kernel must still stop at its numerical rank (the old cutoff
  // kept selecting round-off residues at 1e150 scale).
  GreedyMapOptions options;
  options.max_size = 3;
  Matrix tiny = Matrix::Diagonal(Vector{1e-150, 2e-150, 3e-150});
  auto s = GreedyMapInference(tiny, options);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(*s, (std::vector<int>{2, 1, 0}));

  Matrix v{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {2.0, -1.0}};
  v *= 1e75;  // Kernel entries at ~1e150 scale, still exactly rank 2.
  Matrix huge = MatMulTransB(v, v);
  options.max_size = 4;
  auto h = GreedyMapInference(huge, options);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->size(), 2u);
}

TEST(GreedyMapTest, ValidationErrors) {
  GreedyMapOptions options;
  EXPECT_FALSE(GreedyMapInference(Matrix(2, 3), options).ok());
  EXPECT_FALSE(
      GreedyMapInference(Matrix{{1, 2}, {0, 1}}, options).ok());
  options.max_size = 0;
  EXPECT_FALSE(
      GreedyMapInference(Matrix::Identity(3), options).ok());
  // All-zero kernel: no positive gain anywhere.
  options.max_size = 2;
  EXPECT_EQ(GreedyMapInference(Matrix(3, 3), options).status().code(),
            StatusCode::kNumericalError);
}

TEST(ElementaryDppSamplerTest, NeverEmitsDuplicateOnVanishedWeights) {
  // Regression: a 2-column basis over a 1-item ground set forces the
  // second iteration's residual weights to be all-zero once item 0 is
  // chosen. The old code fell back to Rng::Categorical's uniform draw
  // over ALL items, returning the duplicate subset {0, 0}; the sampler
  // must report NumericalError instead.
  Matrix basis(1, 2, 1.0);
  Rng rng(123);
  auto s = SampleElementaryDpp(basis, &rng);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kNumericalError);
}

TEST(ElementaryDppSamplerTest, AllZeroBasisFailsCleanly) {
  // No support at all: the very first draw has zero total mass.
  Matrix basis(3, 2, 0.0);
  Rng rng(124);
  auto s = SampleElementaryDpp(basis, &rng);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kNumericalError);
}

TEST(ElementaryDppSamplerTest, ValidBasisStillSamplesDistinctItems) {
  // Healthy path: spans of orthonormal eigenvectors keep emitting k
  // distinct indices after the zero-mass guard.
  Rng rng(125);
  auto kdpp = KDpp::Create(RandomPsd(6, &rng), 3);
  ASSERT_TRUE(kdpp.ok());
  Matrix basis(6, 3);
  for (int c = 0; c < 3; ++c) {
    basis.SetCol(c, kdpp->eigenvectors().Col(3 + c));
  }
  Rng sample_rng(126);
  for (int trial = 0; trial < 50; ++trial) {
    Matrix b = basis;
    auto s = SampleElementaryDpp(std::move(b), &sample_rng);
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(s->size(), 3u);
    EXPECT_LT((*s)[0], (*s)[1]);
    EXPECT_LT((*s)[1], (*s)[2]);
  }
}

// Oracle: the Gram-Schmidt elementary DPP sampler the chain rule
// replaced (Kulesza & Taskar Alg. 1, phase 2): after each pick it
// eliminates the item's component with the largest pivot column and
// re-orthonormalizes the remaining basis, O(m k^3) per draw. It consumes
// one Categorical per pick over all m weights, as the library does.
Result<std::vector<int>> GramSchmidtElementaryDpp(Matrix basis, Rng* rng) {
  const int m = basis.rows();
  int dim = basis.cols();
  std::vector<int> items;
  while (dim > 0) {
    std::vector<double> weights(static_cast<size_t>(m), 0.0);
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int c = 0; c < dim; ++c) s += basis(i, c) * basis(i, c);
      weights[static_cast<size_t>(i)] = s;
    }
    for (int chosen : items) weights[static_cast<size_t>(chosen)] = 0.0;
    double total = 0.0;
    for (double w : weights) total += w;
    if (!(total > 0.0)) return Status::NumericalError("weights vanished");
    const int item = rng->Categorical(weights);
    items.push_back(item);
    if (dim == 1) break;
    int pivot = 0;
    double best = std::fabs(basis(item, 0));
    for (int c = 1; c < dim; ++c) {
      if (std::fabs(basis(item, c)) > best) {
        best = std::fabs(basis(item, c));
        pivot = c;
      }
    }
    if (best <= 0.0) return Status::NumericalError("no support");
    for (int c = 0; c < dim; ++c) {
      if (c == pivot) continue;
      const double f = basis(item, c) / basis(item, pivot);
      for (int r = 0; r < m; ++r) basis(r, c) -= f * basis(r, pivot);
    }
    if (pivot != dim - 1) {
      for (int r = 0; r < m; ++r) basis(r, pivot) = basis(r, dim - 1);
    }
    --dim;
    for (int c = 0; c < dim; ++c) {
      for (int prev = 0; prev < c; ++prev) {
        double dot = 0.0;
        for (int r = 0; r < m; ++r) dot += basis(r, c) * basis(r, prev);
        for (int r = 0; r < m; ++r) basis(r, c) -= dot * basis(r, prev);
      }
      double norm = 0.0;
      for (int r = 0; r < m; ++r) norm += basis(r, c) * basis(r, c);
      norm = std::sqrt(norm);
      if (norm <= 1e-12) return Status::NumericalError("basis collapsed");
      for (int r = 0; r < m; ++r) basis(r, c) /= norm;
    }
  }
  std::sort(items.begin(), items.end());
  return items;
}

// KDpp::Sample's phase 1 (the ESP-table walk), copied so the oracle can
// see which eigenvectors a draw selects. Columns come out descending.
std::vector<int> WalkEigenvectorIndices(const Vector& lambda, int k,
                                        Rng* rng) {
  const Matrix table = EspTable(lambda, k);
  std::vector<int> selected;
  int l = k;
  for (int col = lambda.size(); col >= 1 && l > 0; --col) {
    const double p = lambda[col - 1] * table(l - 1, col - 1) / table(l, col);
    if (rng->Uniform() < p) {
      selected.push_back(col - 1);
      --l;
    }
  }
  return selected;
}

Matrix GatherColumns(const Matrix& vecs, const std::vector<int>& cols) {
  Matrix out(vecs.rows(), static_cast<int>(cols.size()));
  for (int r = 0; r < vecs.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      out(r, c) = vecs(r, cols[static_cast<size_t>(c)]);
    }
  }
  return out;
}

// Orthonormal m x dim basis: eigenvectors of a random kernel.
Matrix RandomOrthonormalBasis(int m, int dim, Rng* rng) {
  auto eig = SymmetricEigen(RandomPsd(m, rng));
  LKP_CHECK(eig.ok());
  std::vector<int> cols;
  for (int c = 0; c < dim; ++c) cols.push_back(m - 1 - c);
  return GatherColumns(eig->eigenvectors, cols);
}

TEST(ElementaryDppSamplerTest, ChainRuleDrawsTheGramSchmidtStream) {
  // KDpp::Sample against the phase-1 walk followed by the oracle, from
  // one seed: primal bases are eigenvectors of L chosen by the walk,
  // dual bases are the same choice lifted from the d x d dual kernel.
  // Both samplers compute the same conditional weights, rounded
  // differently. A mismatch would therefore be a boundary flip: the
  // Categorical's uniform landing within rounding of a cumulative-weight
  // boundary, an event of probability on the order of m * 1e-16 per
  // pick, not an error in the distribution. Any flip is still reported here, so it is visible
  // rather than absorbed by a tolerance.
  struct Shape {
    int m;
    int k;
    int rank;  // Dual factor columns.
  };
  constexpr int kKernels = 20;
  constexpr int kDrawsPerKernel = 500;
  for (const Shape& shape : {Shape{10, 5, 8}, Shape{30, 10, 16},
                             Shape{64, 10, 24}}) {
    for (const bool dual : {false, true}) {
      int mismatches = 0;
      for (int kernel = 0; kernel < kKernels; ++kernel) {
        Rng build(static_cast<uint64_t>(1000 * shape.m + 2 * kernel + dual));
        LowRankFactor factor;
        Result<KDpp> kdpp = Status::Internal("unset");
        if (dual) {
          Matrix v = testutil::RandomMatrix(shape.m, shape.rank, &build);
          v *= 1.0 / std::sqrt(static_cast<double>(shape.rank));
          auto f = LowRankFactor::Create(std::move(v));
          ASSERT_TRUE(f.ok());
          factor = *f;
          kdpp = KDpp::CreateDual(std::move(*f), shape.k);
        } else {
          kdpp = KDpp::Create(RandomPsd(shape.m, &build), shape.k);
        }
        ASSERT_TRUE(kdpp.ok()) << kdpp.status().ToString();
        const uint64_t seed = build.Next();
        Rng chain(seed);
        Rng oracle(seed);
        for (int draw = 0; draw < kDrawsPerKernel; ++draw) {
          auto got = kdpp->Sample(&chain);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const std::vector<int> selected =
              WalkEigenvectorIndices(kdpp->eigenvalues(), shape.k, &oracle);
          Matrix basis =
              dual ? factor.LiftEigenvectors(kdpp->eigenvalues(),
                                             kdpp->eigenvectors(), selected)
                   : GatherColumns(kdpp->eigenvectors(), selected);
          auto want = GramSchmidtElementaryDpp(std::move(basis), &oracle);
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          if (*got != *want) ++mismatches;
        }
        // One Uniform per walk step and per pick on both sides.
        EXPECT_EQ(chain.Next(), oracle.Next());
      }
      EXPECT_EQ(mismatches, 0)
          << "m=" << shape.m << " k=" << shape.k << " dual=" << dual
          << " over " << kKernels * kDrawsPerKernel << " draws";
    }
  }
}

TEST(ElementaryDppSamplerTest, FrequenciesMatchProjectionDeterminants) {
  // P(S) = det(V_S)^2 for the projection DPP spanned by V's orthonormal
  // columns. With 35 subsets and 2e5 draws the expected total variation
  // of an exact sampler is at most 0.5 * sqrt(2 * 35 / (pi * 2e5)),
  // about 5.3e-3; the bound is about twice that.
  constexpr int kM = 7;
  constexpr int kK = 3;
  constexpr int kDraws = 200000;
  constexpr double kTvBound = 0.01;
  Rng build(71);
  const Matrix basis = RandomOrthonormalBasis(kM, kK, &build);
  std::map<std::vector<int>, double> exact;
  double mass = 0.0;
  std::vector<int> subset = {0, 1, 2};
  do {
    auto det = Determinant(basis.Submatrix(subset, {0, 1, 2}));
    ASSERT_TRUE(det.ok());
    exact[subset] = *det * *det;
    mass += *det * *det;
  } while (NextCombination(&subset, kM));
  ASSERT_NEAR(mass, 1.0, 1e-12);  // Cauchy-Binet.

  using Sampler = Result<std::vector<int>> (*)(Matrix, Rng*);
  const std::pair<const char*, Sampler> samplers[] = {
      {"chain rule", &SampleElementaryDpp},
      {"gram-schmidt oracle", &GramSchmidtElementaryDpp}};
  for (const auto& [name, sample] : samplers) {
    Rng rng(72);
    std::map<std::vector<int>, int> counts;
    for (int draw = 0; draw < kDraws; ++draw) {
      auto s = sample(basis, &rng);
      ASSERT_TRUE(s.ok()) << name;
      ASSERT_EQ(exact.count(*s), 1u) << name << ": not a 3-subset";
      ++counts[*s];
    }
    double tv = 0.0;
    for (const auto& [set, p] : exact) {
      tv += std::fabs(counts[set] / static_cast<double>(kDraws) - p);
    }
    tv *= 0.5;
    EXPECT_LT(tv, kTvBound) << name;
  }
}

TEST(ElementaryDppSamplerTest, NonFiniteBasisFailsWithoutDuplicates) {
  Rng build(81);
  const Matrix clean = RandomOrthonormalBasis(6, 3, &build);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (int r = 0; r < clean.rows(); ++r) {
      for (int c = 0; c < clean.cols(); ++c) {
        Matrix basis = clean;
        basis(r, c) = bad;
        Rng rng(static_cast<uint64_t>(82 + 3 * r + c));
        auto s = SampleElementaryDpp(std::move(basis), &rng);
        ASSERT_FALSE(s.ok()) << "bad=" << bad << " at (" << r << ", " << c
                             << ")";
        EXPECT_EQ(s.status().code(), StatusCode::kNumericalError);
      }
    }
  }
}

TEST(ElementaryDppSamplerTest, RankDeficientBasisFailsOnEverySeed) {
  // Two equal columns span only two dimensions of a three-column basis.
  // Without the residual-trace guard the chain rule would draw the third
  // item from round-off on about half of the seeds; the Gram-Schmidt
  // oracle fails on every seed, and so must the chain rule.
  Rng build(91);
  Matrix basis = RandomOrthonormalBasis(6, 3, &build);
  for (int r = 0; r < basis.rows(); ++r) basis(r, 2) = basis(r, 1);
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    Rng rng(seed);
    auto s = SampleElementaryDpp(basis, &rng);
    ASSERT_FALSE(s.ok()) << "seed " << seed;
    EXPECT_EQ(s.status().code(), StatusCode::kNumericalError);
    Rng oracle_rng(seed);
    EXPECT_FALSE(GramSchmidtElementaryDpp(basis, &oracle_rng).ok());
  }
}

TEST(ElementaryDppSamplerTest, OrthonormalBasesNeverTripTheCollapseGuard) {
  // The guard fires below half the exact residual trace; orthonormal
  // bases sit at the trace up to rounding, including the full-rank case
  // dim == m where every item is drawn.
  Rng build(101);
  for (const int m : {1, 2, 7, 30, 64}) {
    for (const int dim : {1, std::max(1, m / 2), m}) {
      for (int basis_index = 0; basis_index < 10; ++basis_index) {
        const Matrix basis = RandomOrthonormalBasis(m, dim, &build);
        Rng rng(build.Next());
        for (int draw = 0; draw < 20; ++draw) {
          auto s = SampleElementaryDpp(basis, &rng);
          ASSERT_TRUE(s.ok()) << "m=" << m << " dim=" << dim << ": "
                              << s.status().ToString();
          ASSERT_EQ(s->size(), static_cast<size_t>(dim));
          for (int i = 1; i < dim; ++i) ASSERT_LT((*s)[i - 1], (*s)[i]);
        }
      }
    }
  }
}

TEST(DiversifiedRerankTest, BalancesQualityAndDiversity) {
  // Item 1 is a near-duplicate of item 0 with slightly lower quality;
  // plain top-2 would take {0, 1}, the re-ranker must take the distinct
  // item 2 instead.
  Matrix emb{{0.0, 0.0}, {0.01, 0.0}, {4.0, 4.0}};
  Matrix diversity = GaussianKernel(emb, 1.0);
  Vector quality{2.0, 1.9, 1.0};
  auto s = DiversifiedRerank(quality, diversity, 2);
  ASSERT_TRUE(s.ok());
  std::vector<int> sorted = *s;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 2}));
}

TEST(DiversifiedRerankTest, RejectsNonPositiveQuality) {
  Matrix diversity = Matrix::Identity(2);
  EXPECT_FALSE(DiversifiedRerank(Vector{1.0, 0.0}, diversity, 1).ok());
  EXPECT_FALSE(DiversifiedRerank(Vector{1.0}, diversity, 1).ok());
}

}  // namespace
}  // namespace lkpdpp
