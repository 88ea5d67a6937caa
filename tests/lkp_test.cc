// Tests for the LkP criterion: losses, closed-form gradients (checked
// against central finite differences), and input validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/esp.h"
#include "core/kdpp.h"
#include "core/lkp.h"
#include "kernels/gaussian_embedding.h"
#include "linalg/cholesky.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

// Unit-diagonal correlation-like PSD matrix of full rank.
Matrix RandomDiversityKernel(int m, Rng* rng) {
  return testutil::RandomCorrelationKernel(m, rng);
}

Vector RandomScores(int m, Rng* rng) {
  Vector s(m);
  for (int i = 0; i < m; ++i) s[i] = rng->Normal(0.0, 0.8);
  return s;
}

double LossAt(const LkpCriterion& crit, const Vector& scores,
              const Matrix& diversity, int num_pos) {
  CriterionInput in;
  in.scores = scores;
  in.num_pos = num_pos;
  in.diversity = &diversity;
  auto out = crit.Evaluate(in);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out->loss;
}

struct GradCase {
  LkpMode mode;
  QualityTransform quality;
  int k;
  int n;
};

class LkpGradientTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(LkpGradientTest, ScoreGradientMatchesFiniteDifference) {
  const GradCase gc = GetParam();
  Rng rng(900 + gc.k * 7 + gc.n);
  const int m = gc.k + gc.n;
  const Matrix diversity = RandomDiversityKernel(m, &rng);
  const Vector scores = RandomScores(m, &rng);

  LkpConfig cfg;
  cfg.mode = gc.mode;
  cfg.quality = gc.quality;
  cfg.jitter = 0.0;  // Exact gradients need an unjittered objective.
  LkpCriterion crit(cfg);

  CriterionInput in;
  in.scores = scores;
  in.num_pos = gc.k;
  in.diversity = &diversity;
  auto out = crit.Evaluate(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  const double h = 1e-5;
  for (int i = 0; i < m; ++i) {
    Vector plus = scores, minus = scores;
    plus[i] += h;
    minus[i] -= h;
    const double fd =
        (LossAt(crit, plus, diversity, gc.k) -
         LossAt(crit, minus, diversity, gc.k)) /
        (2.0 * h);
    EXPECT_NEAR(out->dscore[i], fd,
                2e-4 * std::max(1.0, std::fabs(fd)))
        << "score " << i << " mode " << LkpModeName(gc.mode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LkpGradientTest,
    ::testing::Values(
        GradCase{LkpMode::kPositiveOnly, QualityTransform::kExp, 3, 2},
        GradCase{LkpMode::kPositiveOnly, QualityTransform::kExp, 5, 5},
        GradCase{LkpMode::kPositiveOnly, QualityTransform::kSigmoid, 4, 3},
        GradCase{LkpMode::kPositiveOnly, QualityTransform::kExp, 2, 6},
        GradCase{LkpMode::kNegativeAndPositive, QualityTransform::kExp, 3,
                 3},
        GradCase{LkpMode::kNegativeAndPositive, QualityTransform::kExp, 5,
                 5},
        GradCase{LkpMode::kNegativeAndPositive,
                 QualityTransform::kSigmoid, 4, 4}));

// The full-matrix criterion Evaluate used to run, kept as its oracle:
// log-domain exclusion weights, the eigenvector outer product
// d log Z_k / dL, the padded (jittered) inverses and the m x m chain
// rule dscore_i = 2 t_i sum_j g_ij L_ij.
//
// The two routes are equal for an exact eigendecomposition. The computed
// one leaves a residual L - U diag(lambda) U^T of order eps * lambda_max,
// which the oracle's chain rule contracts with d log Z_k / dL and the
// marginal diagonal never touches. `residual_scale` bounds that term
// per item: 2 |t_i| (1 + c) eps lambda_max sum_j |(d log Z_k / dL)_ij|.
// Likewise `rounding_scale` bounds the rounding of each d log Z_k / dL
// entry, eps sum_c w_c |u_ic u_jc|, carried into dkernel by
// (1 + c) q_i q_j. Both are ~1e-15 of the gradients at unit-scale
// scores and grow with the kernel's dynamic range; at +/-25 they are
// the oracle's own error.
struct ReferenceGradients {
  double loss = 0.0;
  Vector dscore;
  Matrix dkernel;
  Vector residual_scale;
  Matrix rounding_scale;
};

Result<Cholesky> ReferenceRobustCholesky(const Matrix& a, double jitter) {
  double j = jitter;
  const double scale = std::max(1.0, a.Trace() / std::max(1, a.rows()));
  for (int attempt = 0; attempt < 4; ++attempt) {
    Result<Cholesky> chol = Cholesky::Compute(a, j);
    if (chol.ok()) return chol;
    j = std::max(j * 100.0, 1e-10 * scale);
  }
  return Cholesky::Compute(a, 1e-4 * scale);
}

void ReferencePadInverse(const Matrix& inv, const std::vector<int>& idx,
                         double sign, Matrix* acc) {
  for (size_t i = 0; i < idx.size(); ++i) {
    for (size_t j = 0; j < idx.size(); ++j) {
      (*acc)(idx[i], idx[j]) +=
          sign * inv(static_cast<int>(i), static_cast<int>(j));
    }
  }
}

Result<ReferenceGradients> ReferenceEvaluate(const LkpConfig& cfg,
                                             const Vector& scores,
                                             const Matrix& diversity,
                                             int k) {
  const int m = scores.size();
  const Vector q = ApplyQuality(scores, cfg.quality);
  const Vector t = QualityLogDerivative(scores, cfg.quality);
  const Matrix kernel = AssembleKernel(q, diversity);
  LKP_ASSIGN_OR_RETURN(KDpp kdpp, KDpp::Create(kernel, k));
  const double log_zk = kdpp.LogNormalizer();
  const Vector log_excl = LogExclusionEsp(kdpp.eigenvalues(), k - 1);
  const Matrix& u = kdpp.eigenvectors();
  Matrix dlogz(m, m);
  Matrix dlogz_abs(m, m);
  for (int c = 0; c < m; ++c) {
    const double w = std::exp(log_excl[c] - log_zk);
    for (int a = 0; a < m; ++a) {
      for (int b = 0; b < m; ++b) {
        dlogz(a, b) += w * u(a, c) * u(b, c);
        dlogz_abs(a, b) += w * std::fabs(u(a, c) * u(b, c));
      }
    }
  }
  dlogz.Symmetrize();

  std::vector<int> pos_idx, neg_idx;
  for (int i = 0; i < m; ++i) (i < k ? pos_idx : neg_idx).push_back(i);
  LKP_ASSIGN_OR_RETURN(
      Cholesky chol_pos,
      ReferenceRobustCholesky(kernel.PrincipalSubmatrix(pos_idx), cfg.jitter));
  ReferenceGradients out;
  out.loss = -(chol_pos.LogDet() - log_zk);
  Matrix g = dlogz;
  ReferencePadInverse(chol_pos.Inverse(), pos_idx, -1.0, &g);
  double c = 0.0;
  if (cfg.mode == LkpMode::kNegativeAndPositive) {
    LKP_ASSIGN_OR_RETURN(
        Cholesky chol_neg,
        ReferenceRobustCholesky(kernel.PrincipalSubmatrix(neg_idx),
                                cfg.jitter));
    const double p_neg =
        std::exp(std::min(chol_neg.LogDet() - log_zk, 0.0));
    const double one_minus = std::max(1.0 - p_neg, cfg.exclusion_floor);
    out.loss += -std::log(one_minus);
    c = p_neg / one_minus;
    if (c > 0.0) {
      ReferencePadInverse(chol_neg.Inverse(), neg_idx, c, &g);
      Matrix scaled = dlogz;
      scaled *= -c;
      g += scaled;
    }
  }
  out.dscore = Vector(m);
  out.dkernel = Matrix(m, m);
  out.residual_scale = Vector(m);
  out.rounding_scale = Matrix(m, m);
  const double eps = std::numeric_limits<double>::epsilon();
  const double lambda_max = kdpp.eigenvalues().Max();
  for (int i = 0; i < m; ++i) {
    double row = 0.0;
    for (int j = 0; j < m; ++j) row += std::fabs(dlogz(i, j));
    out.residual_scale[i] =
        2.0 * std::fabs(t[i]) * (1.0 + c) * eps * lambda_max * row;
    double s = 0.0;
    for (int j = 0; j < m; ++j) {
      s += g(i, j) * kernel(i, j);
      out.dkernel(i, j) = i == j ? 0.0 : g(i, j) * q[i] * q[j];
      out.rounding_scale(i, j) =
          (1.0 + c) * eps * dlogz_abs(i, j) * q[i] * q[j];
    }
    out.dscore[i] = 2.0 * t[i] * s;
  }
  return out;
}

TEST(LkpDifferentialTest, MatchesFullMatrixReference) {
  // The marginal-diagonal gradient against the full-matrix oracle over
  // PS and NPS, both quality transforms, the gradient-test shapes plus
  // k = n = 5, score magnitudes up to +/-25, with and without dkernel.
  // Default jitter, so the jittered row sums are exercised too. The loss
  // must agree to 1e-12 relative; each dscore and dkernel entry to 1e-12
  // of its largest entry plus a small multiple of the oracle's own error
  // term (see ReferenceGradients), which is what separates the two at
  // wide score ranges.
  struct Shape {
    int k;
    int n;
  };
  const Shape shapes[] = {{3, 2}, {5, 5}, {4, 3}, {2, 6}, {3, 3}, {4, 4}};
  const double bound = 1e-12;
  int compared = 0;
  for (const Shape& shape : shapes) {
    const int m = shape.k + shape.n;
    for (LkpMode mode :
         {LkpMode::kPositiveOnly, LkpMode::kNegativeAndPositive}) {
      if (mode == LkpMode::kNegativeAndPositive && shape.k != shape.n) {
        continue;
      }
      for (QualityTransform quality :
           {QualityTransform::kExp, QualityTransform::kSigmoid}) {
        LkpConfig cfg;
        cfg.mode = mode;
        cfg.quality = quality;
        const LkpCriterion crit(cfg);
        for (double amplitude : {1.0, 5.0, 25.0}) {
          Rng rng(1000 + 10 * m + shape.k);
          for (int trial = 0; trial < 20; ++trial) {
            const Matrix diversity = RandomDiversityKernel(m, &rng);
            Vector scores(m);
            for (int i = 0; i < m; ++i) {
              scores[i] = rng.Uniform(-amplitude, amplitude);
            }
            const std::string label =
                crit.name() + " k=" + std::to_string(shape.k) +
                " n=" + std::to_string(shape.n) +
                " amplitude=" + std::to_string(amplitude) +
                " trial=" + std::to_string(trial);
            auto want = ReferenceEvaluate(cfg, scores, diversity, shape.k);
            for (bool kernel_grad : {false, true}) {
              CriterionInput in;
              in.scores = scores;
              in.num_pos = shape.k;
              in.diversity = &diversity;
              in.want_kernel_grad = kernel_grad;
              auto got = crit.Evaluate(in);
              ASSERT_EQ(got.ok(), want.ok())
                  << label << ": " << got.status().ToString() << " vs "
                  << want.status().ToString();
              if (!got.ok()) {
                EXPECT_EQ(got.status().code(), want.status().code())
                    << label;
                continue;
              }
              ++compared;
              EXPECT_LE(std::fabs(got->loss - want->loss),
                        bound * std::fabs(want->loss))
                  << label;
              const double dscore_scale =
                  Matrix::Diagonal(want->dscore).MaxAbs();
              for (int i = 0; i < m; ++i) {
                EXPECT_LE(std::fabs(got->dscore[i] - want->dscore[i]),
                          bound * dscore_scale +
                              4.0 * m * want->residual_scale[i])
                    << label << " item " << i;
              }
              if (kernel_grad) {
                ASSERT_EQ(got->dkernel.rows(), m) << label;
                const double dkernel_scale = want->dkernel.MaxAbs();
                for (int i = 0; i < m; ++i) {
                  for (int j = 0; j < m; ++j) {
                    EXPECT_LE(
                        std::fabs(got->dkernel(i, j) - want->dkernel(i, j)),
                        bound * dkernel_scale +
                            4.0 * m * want->rounding_scale(i, j))
                        << label << " entry (" << i << "," << j << ")";
                  }
                }
              } else {
                EXPECT_EQ(got->dkernel.rows(), 0) << label;
              }
            }
          }
        }
      }
    }
  }
  // Nearly every instance must be comparable, not rejected by both.
  EXPECT_GT(compared, 1500);
}

TEST(LkpKernelGradientTest, KernelGradientMatchesFiniteDifference) {
  Rng rng(42);
  const int k = 3, n = 3, m = k + n;
  Matrix diversity = RandomDiversityKernel(m, &rng);
  const Vector scores = RandomScores(m, &rng);

  LkpConfig cfg;
  cfg.mode = LkpMode::kNegativeAndPositive;
  cfg.jitter = 0.0;
  LkpCriterion crit(cfg);

  CriterionInput in;
  in.scores = scores;
  in.num_pos = k;
  in.diversity = &diversity;
  in.want_kernel_grad = true;
  auto out = crit.Evaluate(in);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->dkernel.rows(), m);

  const double h = 1e-6;
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      Matrix plus = diversity, minus = diversity;
      plus(i, j) += h;
      plus(j, i) += h;
      minus(i, j) -= h;
      minus(j, i) -= h;
      const double fd = (LossAt(crit, scores, plus, k) -
                         LossAt(crit, scores, minus, k)) /
                        (2.0 * h);
      const double expected = out->dkernel(i, j) + out->dkernel(j, i);
      EXPECT_NEAR(fd, expected, 2e-4 * std::max(1.0, std::fabs(expected)))
          << "kernel entry (" << i << "," << j << ")";
    }
  }
}

TEST(LkpValidationTest, RequiresDiversityKernel) {
  LkpCriterion crit(LkpConfig{});
  CriterionInput in;
  in.scores = Vector{1, 2, 3, 4};
  in.num_pos = 2;
  EXPECT_EQ(crit.Evaluate(in).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LkpValidationTest, RejectsKernelShapeMismatch) {
  LkpCriterion crit(LkpConfig{});
  Matrix wrong = Matrix::Identity(3);
  CriterionInput in;
  in.scores = Vector{1, 2, 3, 4};
  in.num_pos = 2;
  in.diversity = &wrong;
  EXPECT_FALSE(crit.Evaluate(in).ok());
}

TEST(LkpValidationTest, NpsRequiresEqualKandN) {
  LkpConfig cfg;
  cfg.mode = LkpMode::kNegativeAndPositive;
  LkpCriterion crit(cfg);
  Matrix diversity = Matrix::Identity(5);
  CriterionInput in;
  in.scores = Vector{1, 2, 3, 4, 5};
  in.num_pos = 2;  // n = 3 != k = 2.
  in.diversity = &diversity;
  EXPECT_EQ(crit.Evaluate(in).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LkpValidationTest, RejectsDegenerateNumPos) {
  LkpConfig cfg;
  cfg.mode = LkpMode::kPositiveOnly;
  LkpCriterion crit(cfg);
  Matrix diversity = Matrix::Identity(4);
  CriterionInput in;
  in.scores = Vector{1, 2, 3, 4};
  in.diversity = &diversity;
  in.num_pos = 0;
  EXPECT_FALSE(crit.Evaluate(in).ok());
  in.num_pos = 4;  // No negatives.
  EXPECT_FALSE(crit.Evaluate(in).ok());
}

TEST(LkpValidationTest, RejectsNonFiniteScores) {
  LkpCriterion crit(LkpConfig{.mode = LkpMode::kPositiveOnly});
  Matrix diversity = Matrix::Identity(4);
  CriterionInput in;
  in.scores = Vector{1, std::nan(""), 3, 4};
  in.num_pos = 2;
  in.diversity = &diversity;
  EXPECT_EQ(crit.Evaluate(in).status().code(),
            StatusCode::kNumericalError);
}

TEST(LkpValidationTest, TargetSubsetProbabilityValidatesLikeEvaluate) {
  LkpCriterion crit(LkpConfig{.mode = LkpMode::kPositiveOnly});
  const Matrix wrong = Matrix::Identity(3);
  EXPECT_EQ(crit.TargetSubsetProbability(Vector{1, 2, 3, 4}, wrong, 2)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const Matrix diversity = Matrix::Identity(4);
  EXPECT_EQ(crit.TargetSubsetProbability(Vector{1, 2, 3, 4}, diversity, 4)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(crit.TargetSubsetProbability(Vector{1, std::nan(""), 3, 4},
                                         diversity, 2)
                .status()
                .code(),
            StatusCode::kNumericalError);
  EXPECT_TRUE(
      crit.TargetSubsetProbability(Vector{1, 2, 3, 4}, diversity, 2).ok());
}

TEST(LkpSigmoidFloorTest, ScoreGradientVanishesWhereQualityIsFloored) {
  // At s = -40 the sigmoid quality sits on its 1e-12 floor, so the loss
  // is flat in that score: its gradient must be exactly zero, and the
  // rest must still match finite differences.
  Rng rng(81);
  const int k = 3, m = 6;
  const Matrix diversity = RandomDiversityKernel(m, &rng);
  Vector scores = RandomScores(m, &rng);
  scores[0] = -40.0;  // A target.
  scores[4] = -40.0;  // A negative.
  for (LkpMode mode :
       {LkpMode::kPositiveOnly, LkpMode::kNegativeAndPositive}) {
    LkpConfig cfg;
    cfg.mode = mode;
    cfg.quality = QualityTransform::kSigmoid;
    cfg.jitter = 0.0;
    LkpCriterion crit(cfg);
    CriterionInput in;
    in.scores = scores;
    in.num_pos = k;
    in.diversity = &diversity;
    auto out = crit.Evaluate(in);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const double h = 1e-5;
    for (int i = 0; i < m; ++i) {
      Vector plus = scores, minus = scores;
      plus[i] += h;
      minus[i] -= h;
      const double fd = (LossAt(crit, plus, diversity, k) -
                         LossAt(crit, minus, diversity, k)) /
                        (2.0 * h);
      if (scores[i] == -40.0) {
        EXPECT_EQ(fd, 0.0) << "score " << i;
        EXPECT_EQ(out->dscore[i], 0.0) << "score " << i;
      } else {
        EXPECT_NEAR(out->dscore[i], fd, 2e-4 * std::max(1.0, std::fabs(fd)))
            << "score " << i << " mode " << LkpModeName(mode);
      }
    }
  }
}

TEST(LkpBehaviorTest, RaisingTargetScoresLowersLoss) {
  Rng rng(77);
  const int k = 3, m = 6;
  const Matrix diversity = RandomDiversityKernel(m, &rng);
  LkpCriterion crit(LkpConfig{.mode = LkpMode::kPositiveOnly});

  Vector low(m, 0.0);
  Vector high = low;
  for (int i = 0; i < k; ++i) high[i] = 2.0;
  EXPECT_LT(LossAt(crit, high, diversity, k),
            LossAt(crit, low, diversity, k));
}

TEST(LkpBehaviorTest, NpsPenalizesStrongNegatives) {
  Rng rng(78);
  const int k = 3, m = 6;
  const Matrix diversity = RandomDiversityKernel(m, &rng);
  LkpCriterion crit(
      LkpConfig{.mode = LkpMode::kNegativeAndPositive});

  Vector balanced(m, 0.0);
  Vector neg_heavy = balanced;
  for (int i = k; i < m; ++i) neg_heavy[i] = 2.5;
  EXPECT_GT(LossAt(crit, neg_heavy, diversity, k),
            LossAt(crit, balanced, diversity, k));
}

TEST(LkpBehaviorTest, GradientPushesTargetsUpNegativesDown) {
  Rng rng(79);
  const int k = 3, m = 6;
  const Matrix diversity = RandomDiversityKernel(m, &rng);
  LkpCriterion crit(
      LkpConfig{.mode = LkpMode::kNegativeAndPositive});
  CriterionInput in;
  in.scores = Vector(m, 0.0);
  in.num_pos = k;
  in.diversity = &diversity;
  auto out = crit.Evaluate(in);
  ASSERT_TRUE(out.ok());
  // At a symmetric starting point, descent (-grad) should raise target
  // scores and lower negative scores on average.
  double pos_grad = 0.0, neg_grad = 0.0;
  for (int i = 0; i < k; ++i) pos_grad += out->dscore[i];
  for (int i = k; i < m; ++i) neg_grad += out->dscore[i];
  EXPECT_LT(pos_grad, 0.0);
  EXPECT_GT(neg_grad, 0.0);
}

TEST(LkpBehaviorTest, DiverseTargetsGetHigherProbability) {
  // Two instances with identical scores; one target set spans near-
  // orthogonal diversity directions, the other is nearly collinear.
  const int k = 2, m = 4;
  Vector scores{1.0, 1.0, 0.0, 0.0};

  Matrix diverse = Matrix::Identity(m);
  Matrix monotonous = Matrix::Identity(m);
  monotonous(0, 1) = monotonous(1, 0) = 0.95;

  LkpCriterion crit(LkpConfig{.mode = LkpMode::kPositiveOnly});
  auto p_div = crit.TargetSubsetProbability(scores, diverse, k);
  auto p_mono = crit.TargetSubsetProbability(scores, monotonous, k);
  ASSERT_TRUE(p_div.ok());
  ASSERT_TRUE(p_mono.ok());
  EXPECT_GT(*p_div, *p_mono);
}

TEST(LkpBehaviorTest, ExtremeScoresRemainFinite) {
  Rng rng(80);
  const int k = 3, m = 6;
  const Matrix diversity = RandomDiversityKernel(m, &rng);
  LkpCriterion crit(
      LkpConfig{.mode = LkpMode::kNegativeAndPositive});
  CriterionInput in;
  in.scores = Vector{50.0, -50.0, 40.0, -45.0, 55.0, -60.0};
  in.num_pos = k;
  in.diversity = &diversity;
  auto out = crit.Evaluate(in);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(std::isfinite(out->loss));
  EXPECT_TRUE(out->dscore.AllFinite());
}

TEST(LkpBehaviorTest, NameEncodesModeAndQuality) {
  EXPECT_EQ(LkpCriterion(LkpConfig{.mode = LkpMode::kPositiveOnly,
                                   .quality = QualityTransform::kExp})
                .name(),
            "LkP-PS(exp)");
  EXPECT_EQ(
      LkpCriterion(LkpConfig{.mode = LkpMode::kNegativeAndPositive,
                             .quality = QualityTransform::kSigmoid})
          .name(),
      "LkP-NPS(sigmoid)");
}

TEST(LkpBehaviorTest, NeedsDiversityKernel) {
  EXPECT_TRUE(LkpCriterion(LkpConfig{}).NeedsDiversityKernel());
}

}  // namespace
}  // namespace lkpdpp
