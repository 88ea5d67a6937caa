// Tests for the tailored k-DPP distribution (paper Eq. 4/6/8).

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.h"
#include "core/esp.h"
#include "core/kdpp.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

using testutil::RandomPsdKernel;

TEST(BinomialTest, KnownValues) {
  EXPECT_DOUBLE_EQ(BinomialCoefficient(10, 5), 252.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(6, 2), 15.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(3, 4), 0.0);
}

TEST(NextCombinationTest, EnumeratesAll) {
  std::vector<int> idx = {0, 1};
  int count = 1;
  while (NextCombination(&idx, 4)) ++count;
  EXPECT_EQ(count, 6);  // C(4,2).
  EXPECT_EQ(idx, (std::vector<int>{2, 3}));
}

TEST(KDppTest, CreateValidation) {
  Rng rng(1);
  Matrix k = RandomPsdKernel(5, &rng);
  EXPECT_TRUE(KDpp::Create(k, 2).ok());
  EXPECT_FALSE(KDpp::Create(k, 0).ok());
  EXPECT_FALSE(KDpp::Create(k, 6).ok());
  EXPECT_FALSE(KDpp::Create(Matrix(2, 3), 1).ok());
  // Indefinite kernel rejected.
  Matrix indef{{1, 0}, {0, -1}};
  EXPECT_EQ(KDpp::Create(indef, 1).status().code(),
            StatusCode::kNumericalError);
}

TEST(KDppTest, RejectsRankDeficientForLargeK) {
  Rng rng(2);
  // Rank-2 kernel cannot support a 4-DPP.
  Matrix k = RandomPsdKernel(6, &rng, /*rank=*/2, /*ridge=*/0.0);
  EXPECT_FALSE(KDpp::Create(k, 4).ok());
  EXPECT_TRUE(KDpp::Create(k, 2).ok());
}

TEST(KDppTest, RejectsNonSymmetricKernel) {
  Matrix asym{{1.0, 0.5, 0.0}, {0.0, 1.0, 0.5}, {0.0, 0.0, 1.0}};
  auto r = KDpp::Create(asym, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(KDppTest, RejectsNonFiniteKernel) {
  Matrix nan_kernel{{1.0, 0.0}, {0.0, std::nan("")}};
  auto r = KDpp::Create(nan_kernel, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNumericalError);
}

TEST(KDppTest, RankDeficiencyReportsNumericalError) {
  // A rank-2 kernel has e_3 = 0: the normalizer vanishes, and Create must
  // report it as a numerical failure rather than construct a distribution
  // with no support. The diagonal kernel makes the deficiency exact.
  Matrix k = Matrix::Diagonal(Vector{1.0, 2.0, 0.0, 0.0, 0.0});
  auto r = KDpp::Create(k, 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNumericalError);
}

TEST(KDppTest, LogProbValidatesSubset) {
  Rng rng(3);
  auto kdpp = KDpp::Create(RandomPsdKernel(6, &rng), 3);
  ASSERT_TRUE(kdpp.ok());
  EXPECT_FALSE(kdpp->LogProb({0, 1}).ok());          // Wrong cardinality.
  EXPECT_FALSE(kdpp->LogProb({0, 1, 9}).ok());       // Out of range.
  EXPECT_FALSE(kdpp->LogProb({0, 1, 1}).ok());       // Duplicate.
  EXPECT_TRUE(kdpp->LogProb({0, 2, 4}).ok());
  EXPECT_TRUE(kdpp->LogProb({4, 0, 2}).ok());        // Order-insensitive.
}

TEST(KDppTest, ProbMatchesDeterminantRatio) {
  Rng rng(4);
  Matrix kernel = RandomPsdKernel(6, &rng);
  auto kdpp = KDpp::Create(kernel, 3);
  ASSERT_TRUE(kdpp.ok());
  const std::vector<int> subset = {1, 3, 5};
  auto det = Determinant(kernel.PrincipalSubmatrix(subset));
  ASSERT_TRUE(det.ok());
  auto prob = kdpp->Prob(subset);
  ASSERT_TRUE(prob.ok());
  EXPECT_NEAR(*prob, *det / std::exp(kdpp->LogNormalizer()), 1e-10);
}

class KDppNormalizationTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(KDppNormalizationTest, ProbabilitiesSumToOne) {
  const auto [m, k] = GetParam();
  Rng rng(700 + m * 13 + k);
  auto kdpp = KDpp::Create(RandomPsdKernel(m, &rng), k);
  ASSERT_TRUE(kdpp.ok());
  auto all = kdpp->EnumerateProbabilities();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(static_cast<double>(all->size()), BinomialCoefficient(m, k));
  double total = 0.0;
  for (const auto& [subset, p] : *all) {
    EXPECT_GE(p, -1e-12);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KDppNormalizationTest,
    ::testing::Values(std::pair{4, 2}, std::pair{5, 3}, std::pair{6, 2},
                      std::pair{8, 4}, std::pair{10, 5}, std::pair{7, 1},
                      std::pair{6, 6}));

TEST(KDppTest, NormalizerMatchesEspOfEigenvalues) {
  Rng rng(5);
  Matrix kernel = RandomPsdKernel(7, &rng);
  auto kdpp = KDpp::Create(kernel, 3);
  ASSERT_TRUE(kdpp.ok());
  const double zk = ElementarySymmetric(kdpp->eigenvalues(), 3);
  EXPECT_NEAR(kdpp->LogNormalizer(), std::log(zk), 1e-10);
}

TEST(KDppTest, FullCardinalityIsCertain) {
  // k = m: only one subset exists, probability must be 1.
  Rng rng(6);
  auto kdpp = KDpp::Create(RandomPsdKernel(4, &rng), 4);
  ASSERT_TRUE(kdpp.ok());
  auto p = kdpp->Prob({0, 1, 2, 3});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1.0, 1e-9);
}

TEST(KDppTest, DiagonalKernelFactorizes) {
  // For a diagonal kernel, P({i,j}) proportional to d_i d_j.
  auto kdpp = KDpp::Create(Matrix::Diagonal(Vector{1.0, 2.0, 3.0}), 2);
  ASSERT_TRUE(kdpp.ok());
  const double z = 1 * 2 + 1 * 3 + 2 * 3;
  auto p01 = kdpp->Prob({0, 1});
  auto p12 = kdpp->Prob({1, 2});
  ASSERT_TRUE(p01.ok());
  ASSERT_TRUE(p12.ok());
  EXPECT_NEAR(*p01, 2.0 / z, 1e-10);
  EXPECT_NEAR(*p12, 6.0 / z, 1e-10);
}

TEST(KDppTest, RepulsionLowersSimilarPairs) {
  // Two near-identical items (0,1) and one orthogonal item (2): the
  // diverse pair must dominate the redundant pair.
  Matrix kernel{{1.0, 0.95, 0.0}, {0.95, 1.0, 0.0}, {0.0, 0.0, 1.0}};
  auto kdpp = KDpp::Create(kernel, 2);
  ASSERT_TRUE(kdpp.ok());
  auto p_similar = kdpp->Prob({0, 1});
  auto p_diverse = kdpp->Prob({0, 2});
  ASSERT_TRUE(p_similar.ok());
  ASSERT_TRUE(p_diverse.ok());
  EXPECT_GT(*p_diverse, *p_similar * 5.0);
}

TEST(KDppTest, MarginalKernelTraceEqualsK) {
  Rng rng(8);
  for (int k = 1; k <= 5; ++k) {
    auto kdpp = KDpp::Create(RandomPsdKernel(6, &rng), k);
    ASSERT_TRUE(kdpp.ok());
    EXPECT_NEAR(kdpp->MarginalKernel().Trace(), static_cast<double>(k),
                1e-8);
  }
}

TEST(KDppTest, MarginalDiagonalMatchesEnumeration) {
  Rng rng(9);
  const int m = 6, k = 3;
  auto kdpp = KDpp::Create(RandomPsdKernel(m, &rng), k);
  ASSERT_TRUE(kdpp.ok());
  auto all = kdpp->EnumerateProbabilities();
  ASSERT_TRUE(all.ok());
  Vector marginal(m);
  for (const auto& [subset, p] : *all) {
    for (int i : subset) marginal[i] += p;
  }
  const Matrix mk = kdpp->MarginalKernel();
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(mk(i, i), marginal[i], 1e-8);
    EXPECT_GE(mk(i, i), -1e-10);
    EXPECT_LE(mk(i, i), 1.0 + 1e-10);
  }
}

TEST(KDppTest, NormalizerGradientMatchesFiniteDifference) {
  Rng rng(10);
  const int m = 5, k = 2;
  Matrix kernel = RandomPsdKernel(m, &rng);
  auto kdpp = KDpp::Create(kernel, k);
  ASSERT_TRUE(kdpp.ok());
  const Matrix grad = kdpp->NormalizerGradient();
  const double h = 1e-6;
  for (int i = 0; i < m; ++i) {
    for (int j = i; j < m; ++j) {
      Matrix plus = kernel, minus = kernel;
      plus(i, j) += h;
      minus(i, j) -= h;
      if (i != j) {
        plus(j, i) += h;
        minus(j, i) -= h;
      }
      auto kp = KDpp::Create(plus, k);
      auto km = KDpp::Create(minus, k);
      ASSERT_TRUE(kp.ok());
      ASSERT_TRUE(km.ok());
      const double fd = (std::exp(kp->LogNormalizer()) -
                         std::exp(km->LogNormalizer())) /
                        (2.0 * h);
      // Symmetric perturbation hits (i,j) and (j,i) simultaneously.
      const double expected = i == j ? grad(i, i) : grad(i, j) + grad(j, i);
      EXPECT_NEAR(fd, expected, 1e-4 * std::max(1.0, std::fabs(expected)))
          << "entry (" << i << "," << j << ")";
    }
  }
}

TEST(KDppSamplerTest, ProducesValidSubsets) {
  Rng rng(11);
  auto kdpp = KDpp::Create(RandomPsdKernel(8, &rng), 3);
  ASSERT_TRUE(kdpp.ok());
  Rng sample_rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    auto s = kdpp->Sample(&sample_rng);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->size(), 3u);
    for (size_t i = 1; i < s->size(); ++i) {
      EXPECT_LT((*s)[i - 1], (*s)[i]);  // Sorted, distinct.
    }
    for (int v : *s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 8);
    }
  }
}

TEST(KDppSamplerTest, RejectsNullRng) {
  Rng rng(13);
  auto kdpp = KDpp::Create(RandomPsdKernel(4, &rng), 2);
  ASSERT_TRUE(kdpp.ok());
  EXPECT_FALSE(kdpp->Sample(nullptr).ok());
}

TEST(KDppSamplerTest, EmpiricalDistributionMatchesExact) {
  Rng rng(14);
  const int m = 5, k = 2;
  auto kdpp = KDpp::Create(RandomPsdKernel(m, &rng), k);
  ASSERT_TRUE(kdpp.ok());
  auto exact = kdpp->EnumerateProbabilities();
  ASSERT_TRUE(exact.ok());

  std::map<std::vector<int>, int> counts;
  Rng sample_rng(15);
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    auto s = kdpp->Sample(&sample_rng);
    ASSERT_TRUE(s.ok());
    ++counts[*s];
  }
  for (const auto& [subset, p] : *exact) {
    const double empirical =
        counts.count(subset)
            ? counts[subset] / static_cast<double>(trials)
            : 0.0;
    // Binomial std-dev is about sqrt(p/n) ~ 0.002; allow 5 sigma.
    EXPECT_NEAR(empirical, p, 5.0 * std::sqrt(p / trials) + 2e-3);
  }
}

TEST(KDppSamplerTest, MarginalFrequenciesMatchMarginalKernel) {
  Rng rng(16);
  const int m = 6, k = 3;
  auto kdpp = KDpp::Create(RandomPsdKernel(m, &rng), k);
  ASSERT_TRUE(kdpp.ok());
  const Matrix marginal = kdpp->MarginalKernel();

  Vector freq(m);
  Rng sample_rng(17);
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    auto s = kdpp->Sample(&sample_rng);
    ASSERT_TRUE(s.ok());
    for (int i : *s) freq[i] += 1.0;
  }
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(freq[i] / trials, marginal(i, i), 0.015) << "item " << i;
  }
}

TEST(KDppTest, RejectsEspTableOverflow) {
  // Regression: with eigenvalues {1e-150, 1e-150, 1e200, 1e200} and k=3,
  // e_3 itself is ~2e250 (finite) but the intermediate e_2 row of the
  // Algorithm-1 table overflows to inf. The old code accepted the kernel
  // and the sampler's backward walk then divided inf by inf; Create must
  // reject it with a clear NumericalError instead.
  Matrix k = Matrix::Diagonal(Vector{1e-150, 1e-150, 1e200, 1e200});
  auto r = KDpp::Create(k, 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNumericalError);
  EXPECT_NE(r.status().message().find("ESP table"), std::string::npos);
}

TEST(KDppTest, MarginalKernelStaysFiniteAcrossMagnitudes) {
  // Regression for the log-domain marginal weights: uniform kernel
  // scalings spanning ~200 orders of magnitude must leave the marginal
  // kernel finite with trace exactly k (the marginal kernel of c*L for a
  // k-DPP is NOT scale-free, but its trace is).
  Rng rng(19);
  const Matrix base = RandomPsdKernel(6, &rng);
  for (double scale : {1e-100, 1.0, 1e100}) {
    Matrix kernel = base;
    kernel *= scale;
    auto kdpp = KDpp::Create(kernel, 3);
    ASSERT_TRUE(kdpp.ok()) << "scale " << scale;
    const Matrix mk = kdpp->MarginalKernel();
    EXPECT_TRUE(mk.AllFinite()) << "scale " << scale;
    EXPECT_NEAR(mk.Trace(), 3.0, 1e-8) << "scale " << scale;
    const Matrix g = kdpp->LogNormalizerGradient();
    EXPECT_TRUE(g.AllFinite()) << "scale " << scale;
  }
}

TEST(KDppTest, LogNormalizerGradientMatchesUnnormalized) {
  // On moderate kernels the log-domain gradient must equal the raw
  // gradient divided by Z_k to high relative accuracy.
  Rng rng(20);
  auto kdpp = KDpp::Create(RandomPsdKernel(6, &rng), 3);
  ASSERT_TRUE(kdpp.ok());
  Matrix expected = kdpp->NormalizerGradient();
  expected *= std::exp(-kdpp->LogNormalizer());
  const Matrix actual = kdpp->LogNormalizerGradient();
  EXPECT_LT((actual - expected).MaxAbs(),
            1e-10 * std::max(1.0, expected.MaxAbs()));
}

TEST(KDppSamplerOnlyTest, DrawsTheCreateStream) {
  // CreateSampler runs Create's build without keeping the kernel: the
  // same eigenpairs, normalizer and marginals, and the same 100-draw
  // stream from one seed.
  for (int m : {5, 30}) {
    Rng rng(60 + m);
    const Matrix kernel = RandomPsdKernel(m, &rng);
    const int k = m == 5 ? 2 : 10;
    auto full = KDpp::Create(kernel, k);
    auto sampler = KDpp::CreateSampler(kernel, k);
    ASSERT_TRUE(full.ok()) << "m=" << m;
    ASSERT_TRUE(sampler.ok()) << "m=" << m;
    EXPECT_EQ(sampler->LogNormalizer(), full->LogNormalizer());
    EXPECT_EQ((sampler->eigenvectors() - full->eigenvectors()).MaxAbs(),
              0.0);
    EXPECT_EQ((sampler->MarginalKernel() - full->MarginalKernel()).MaxAbs(),
              0.0);
    Rng master_full(900 + m);
    Rng master_sampler(900 + m);
    for (int t = 0; t < 100; ++t) {
      Rng fork_full = master_full.Fork();
      Rng fork_sampler = master_sampler.Fork();
      auto a = full->Sample(&fork_full);
      auto b = sampler->Sample(&fork_sampler);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b) << "m=" << m << " draw " << t;
    }
  }
}

TEST(KDppSamplerOnlyTest, ProbabilityQueriesFailWithoutKernel) {
  Rng rng(62);
  auto sampler = KDpp::CreateSampler(RandomPsdKernel(5, &rng), 2);
  ASSERT_TRUE(sampler.ok());
  EXPECT_EQ(sampler->LogProb({0, 1}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sampler->Prob({0, 1}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sampler->EnumerateProbabilities().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(KDppSamplerOnlyTest, RejectsWhatCreateRejects) {
  Rng rng(63);
  const Matrix kernel = RandomPsdKernel(6, &rng, /*rank=*/2, /*ridge=*/0.0);
  EXPECT_EQ(KDpp::CreateSampler(kernel, 4).status().code(),
            KDpp::Create(kernel, 4).status().code());
  EXPECT_FALSE(KDpp::CreateSampler(kernel, 0).ok());
  EXPECT_FALSE(KDpp::CreateSampler(Matrix(2, 3), 1).ok());
}

TEST(KDppTest, EnumerationGuardTriggers) {
  Rng rng(18);
  auto kdpp = KDpp::Create(RandomPsdKernel(12, &rng), 6);
  ASSERT_TRUE(kdpp.ok());
  EXPECT_FALSE(kdpp->EnumerateProbabilities(/*max_subsets=*/10).ok());
}

}  // namespace
}  // namespace lkpdpp
