// Tests for the diversity kernels (Eq. 3 trainer, Gaussian E-type) and
// the quality-diversity assembly (Eq. 2).

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "data/synthetic.h"
#include "kernels/diversity_kernel.h"
#include "kernels/gaussian_embedding.h"
#include "kernels/quality_diversity.h"
#include "linalg/eigen.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

using testutil::RandomMatrix;

Dataset SmallDataset(uint64_t seed = 42) {
  SyntheticConfig cfg;
  cfg.name = "tiny";
  cfg.num_users = 60;
  cfg.num_items = 80;
  cfg.num_categories = 10;
  cfg.num_events = 6000;
  cfg.seed = seed;
  auto ds = GenerateSyntheticDataset(cfg);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return std::move(ds).ValueOrDie();
}

TEST(DiversityKernelTest, RandomKernelHasUnitDiagonal) {
  DiversityKernel k = DiversityKernel::Random(20, 8, 1);
  for (int i = 0; i < 20; ++i) EXPECT_NEAR(k.Entry(i, i), 1.0, 1e-12);
}

TEST(DiversityKernelTest, EntriesAreBoundedCosines) {
  DiversityKernel k = DiversityKernel::Random(20, 8, 2);
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 20; ++j) {
      EXPECT_LE(std::fabs(k.Entry(i, j)), 1.0 + 1e-12);
    }
  }
}

TEST(DiversityKernelTest, SubmatrixIsPsdAndSymmetric) {
  DiversityKernel k = DiversityKernel::Random(30, 10, 3);
  Matrix sub = k.Submatrix({1, 5, 9, 22, 17});
  EXPECT_TRUE(sub.IsSymmetric());
  auto eig = SymmetricEigen(sub);
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig->eigenvalues[0], -1e-10);
}

TEST(DiversityKernelTest, SubmatrixMatchesEntry) {
  DiversityKernel k = DiversityKernel::Random(10, 6, 4);
  Matrix sub = k.Submatrix({2, 7});
  EXPECT_NEAR(sub(0, 1), k.Entry(2, 7), 1e-12);
}

TEST(DiversityKernelTest, TrainRejectsBadConfig) {
  Dataset ds = SmallDataset();
  DiversityKernel::TrainConfig cfg;
  cfg.rank = 0;
  EXPECT_FALSE(DiversityKernel::Train(ds, cfg).ok());
  cfg.rank = 3;
  cfg.set_size = 5;  // set_size > rank: determinants vanish.
  EXPECT_FALSE(DiversityKernel::Train(ds, cfg).ok());
}

TEST(DiversityKernelTest, TrainingImprovesContrastiveObjective) {
  Dataset ds = SmallDataset();
  DiversityKernel::TrainConfig cfg;
  cfg.rank = 12;
  cfg.epochs = 6;
  cfg.pairs_per_epoch = 150;
  cfg.set_size = 4;
  cfg.seed = 5;

  DiversityKernel untrained =
      DiversityKernel::Random(ds.num_items(), cfg.rank, cfg.seed);
  auto trained = DiversityKernel::Train(ds, cfg);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();

  Rng probe_rng(99);
  auto j_before = untrained.Objective(ds, 150, 1e-4, &probe_rng);
  Rng probe_rng2(99);
  auto j_after = trained->Objective(ds, 150, 1e-4, &probe_rng2);
  ASSERT_TRUE(j_before.ok());
  ASSERT_TRUE(j_after.ok());
  // Eq. 3 objective must move up: diverse sets gain determinant mass.
  EXPECT_GT(*j_after, *j_before);
}

TEST(DiversityKernelTest, TrainedKernelKeepsUnitRows) {
  Dataset ds = SmallDataset();
  DiversityKernel::TrainConfig cfg;
  cfg.rank = 10;
  cfg.epochs = 2;
  cfg.pairs_per_epoch = 60;
  cfg.set_size = 4;
  auto trained = DiversityKernel::Train(ds, cfg);
  ASSERT_TRUE(trained.ok());
  for (int i = 0; i < trained->num_items(); ++i) {
    EXPECT_NEAR(trained->Entry(i, i), 1.0, 1e-9);
  }
}

TEST(GaussianKernelTest, DiagonalIsOneAndSymmetric) {
  Rng rng(6);
  Matrix emb = RandomMatrix(5, 3, &rng);
  Matrix k = GaussianKernel(emb, 1.0);
  EXPECT_TRUE(k.IsSymmetric());
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(k(i, i), 1.0);
}

TEST(GaussianKernelTest, MatchesClosedForm) {
  Matrix emb{{0.0, 0.0}, {1.0, 0.0}, {0.0, 2.0}};
  Matrix k = GaussianKernel(emb, 1.0);
  EXPECT_NEAR(k(0, 1), std::exp(-0.5), 1e-12);
  EXPECT_NEAR(k(0, 2), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(k(1, 2), std::exp(-2.5), 1e-12);
}

TEST(GaussianKernelTest, WiderBandwidthRaisesSimilarity) {
  Matrix emb{{0.0}, {2.0}};
  EXPECT_LT(GaussianKernel(emb, 0.5)(0, 1), GaussianKernel(emb, 2.0)(0, 1));
}

TEST(GaussianKernelTest, IsPsd) {
  Rng rng(7);
  Matrix emb = RandomMatrix(8, 4, &rng);
  auto eig = SymmetricEigen(GaussianKernel(emb, 1.3));
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig->eigenvalues[0], -1e-10);
}

TEST(GaussianKernelTest, BackwardMatchesFiniteDifference) {
  Rng rng(8);
  const int m = 4, d = 3;
  const double sigma = 0.9;
  Matrix emb = RandomMatrix(m, d, &rng);
  // Random upstream gradient.
  Matrix dk = RandomMatrix(m, m, &rng);
  const Matrix kernel = GaussianKernel(emb, sigma);
  const Matrix demb = GaussianKernelBackward(emb, kernel, dk, sigma);

  auto loss = [&](const Matrix& e) {
    const Matrix k = GaussianKernel(e, sigma);
    double total = 0.0;
    for (int r = 0; r < m; ++r) {
      for (int c = 0; c < m; ++c) total += dk(r, c) * k(r, c);
    }
    return total;
  };
  const double h = 1e-6;
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < d; ++c) {
      Matrix plus = emb, minus = emb;
      plus(r, c) += h;
      minus(r, c) -= h;
      const double fd = (loss(plus) - loss(minus)) / (2.0 * h);
      EXPECT_NEAR(demb(r, c), fd, 1e-5 * std::max(1.0, std::fabs(fd)))
          << "(" << r << "," << c << ")";
    }
  }
}

TEST(QualityTransformTest, ExpValuesAndClamp) {
  Vector s{0.0, 1.0, -100.0, 100.0};
  Vector q = ApplyQuality(s, QualityTransform::kExp);
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  EXPECT_NEAR(q[1], std::exp(1.0), 1e-12);
  EXPECT_NEAR(q[2], std::exp(-30.0), 1e-18);  // Clamped.
  EXPECT_NEAR(q[3], std::exp(30.0), 1e-3 * std::exp(30.0));
}

TEST(QualityTransformTest, SigmoidValuesStrictlyPositive) {
  Vector s{0.0, -50.0, 50.0};
  Vector q = ApplyQuality(s, QualityTransform::kSigmoid);
  EXPECT_DOUBLE_EQ(q[0], 0.5);
  EXPECT_GT(q[1], 0.0);
  EXPECT_LT(q[2], 1.0 + 1e-12);
}

TEST(QualityTransformTest, LogDerivativeMatchesFiniteDifference) {
  for (QualityTransform t :
       {QualityTransform::kExp, QualityTransform::kSigmoid}) {
    Vector s{-1.2, 0.0, 0.7, 2.5};
    Vector deriv = QualityLogDerivative(s, t);
    const double h = 1e-6;
    for (int i = 0; i < s.size(); ++i) {
      Vector plus = s, minus = s;
      plus[i] += h;
      minus[i] -= h;
      const double fd = (std::log(ApplyQuality(plus, t)[i]) -
                         std::log(ApplyQuality(minus, t)[i])) /
                        (2.0 * h);
      EXPECT_NEAR(deriv[i], fd, 1e-5)
          << QualityTransformName(t) << " idx " << i;
    }
  }
}

TEST(QualityTransformTest, SigmoidLogDerivativeVanishesOnTheFloor) {
  // Below s ~ -27.6 the sigmoid quality sits on its 1e-12 floor, so
  // log q is flat there: t must be 0, as finite differences read.
  const QualityTransform t = QualityTransform::kSigmoid;
  Vector s{-40.0, -30.0, -27.0};
  Vector deriv = QualityLogDerivative(s, t);
  const double h = 1e-6;
  for (int i = 0; i < s.size(); ++i) {
    Vector plus = s, minus = s;
    plus[i] += h;
    minus[i] -= h;
    const double fd = (std::log(ApplyQuality(plus, t)[i]) -
                       std::log(ApplyQuality(minus, t)[i])) /
                      (2.0 * h);
    EXPECT_NEAR(deriv[i], fd, 1e-5) << "s=" << s[i];
  }
  EXPECT_EQ(deriv[0], 0.0);
  EXPECT_EQ(deriv[1], 0.0);
  EXPECT_GT(deriv[2], 0.99);
}

TEST(AssembleKernelTest, MatchesDiagSandwich) {
  Vector q{2.0, 3.0};
  Matrix k{{1.0, 0.5}, {0.5, 1.0}};
  Matrix l = AssembleKernel(q, k);
  EXPECT_DOUBLE_EQ(l(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(l(0, 1), 3.0);  // 2 * 0.5 * 3.
  EXPECT_DOUBLE_EQ(l(1, 1), 9.0);
  EXPECT_TRUE(l.IsSymmetric());
}

TEST(AssembleKernelTest, PreservesPsd) {
  Rng rng(9);
  DiversityKernel dk = DiversityKernel::Random(6, 8, 10);
  Matrix sub = dk.Submatrix({0, 1, 2, 3, 4, 5});
  Vector q(6);
  for (int i = 0; i < 6; ++i) q[i] = std::exp(rng.Normal());
  auto eig = SymmetricEigen(AssembleKernel(q, sub));
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig->eigenvalues[0], -1e-9);
}

}  // namespace
}  // namespace lkpdpp
