// Tests for Cholesky, LU, and the symmetric eigensolvers (the two-stage
// Householder+QL production path cross-checked against the cyclic Jacobi
// reference).

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/eigen.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

using testutil::RandomSpd;

TEST(CholeskyTest, KnownFactorization) {
  // A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
  Matrix a{{4, 2}, {2, 3}};
  auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol->factor()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(chol->factor()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(chol->factor()(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(CholeskyTest, LogDetMatchesKnownDeterminant) {
  Matrix a{{4, 2}, {2, 3}};  // det = 8.
  auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol->LogDet(), std::log(8.0), 1e-12);
  EXPECT_NEAR(chol->Det(), 8.0, 1e-10);
}

TEST(CholeskyTest, SolveRecoversSolution) {
  Matrix a{{4, 2}, {2, 3}};
  Vector x_true{1.5, -2.0};
  Vector b = MatVec(a, x_true);
  auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  Vector x = chol->Solve(b);
  EXPECT_NEAR(x[0], x_true[0], 1e-12);
  EXPECT_NEAR(x[1], x_true[1], 1e-12);
}

TEST(CholeskyTest, InverseTimesOriginalIsIdentity) {
  Rng rng(31);
  Matrix a = RandomSpd(6, &rng);
  auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  Matrix prod = MatMul(chol->Inverse(), a);
  EXPECT_LT((prod - Matrix::Identity(6)).MaxAbs(), 1e-8);
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_EQ(Cholesky::Compute(a).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, RejectsAsymmetric) {
  Matrix a{{1, 2}, {0, 1}};
  EXPECT_EQ(Cholesky::Compute(a).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a{{1, 0}, {0, -1}};
  EXPECT_EQ(Cholesky::Compute(a).status().code(),
            StatusCode::kNumericalError);
}

TEST(CholeskyTest, JitterRescuesSemidefinite) {
  // Rank-1 PSD matrix: plain Cholesky fails at the second pivot.
  Matrix a{{1, 1}, {1, 1}};
  EXPECT_FALSE(Cholesky::Compute(a).ok());
  EXPECT_TRUE(Cholesky::Compute(a, 1e-8).ok());
}

TEST(CholeskyTest, LogDetSpdHelper) {
  Matrix a{{2, 0}, {0, 5}};
  auto ld = LogDetSpd(a);
  ASSERT_TRUE(ld.ok());
  EXPECT_NEAR(*ld, std::log(10.0), 1e-12);
}

TEST(LuTest, KnownDeterminant) {
  Matrix a{{1, 2}, {3, 4}};  // det = -2.
  auto lu = Lu::Compute(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(lu->Det(), -2.0, 1e-12);
}

TEST(LuTest, SingularHasZeroDet) {
  Matrix a{{1, 2}, {2, 4}};
  auto lu = Lu::Compute(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_TRUE(lu->IsSingular());
  EXPECT_DOUBLE_EQ(lu->Det(), 0.0);
  EXPECT_FALSE(lu->Solve(Vector{1, 1}).ok());
  EXPECT_FALSE(lu->Inverse().ok());
}

TEST(LuTest, SolveGeneralSystem) {
  Matrix a{{0, 2, 1}, {1, -2, -3}, {-1, 1, 2}};
  Vector x_true{2.0, -1.0, 3.0};
  Vector b = MatVec(a, x_true);
  auto lu = Lu::Compute(a);
  ASSERT_TRUE(lu.ok());
  auto x = lu->Solve(b);
  ASSERT_TRUE(x.ok());
  for (int i = 0; i < 3; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-10);
}

TEST(LuTest, InverseProduct) {
  Rng rng(37);
  Matrix a(4, 4);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) a(r, c) = rng.Normal();
  }
  a.AddDiagonal(3.0);
  auto lu = Lu::Compute(a);
  ASSERT_TRUE(lu.ok());
  auto inv = lu->Inverse();
  ASSERT_TRUE(inv.ok());
  EXPECT_LT((MatMul(*inv, a) - Matrix::Identity(4)).MaxAbs(), 1e-9);
}

TEST(LuTest, RejectsNonSquare) {
  EXPECT_FALSE(Lu::Compute(Matrix(2, 3)).ok());
}

TEST(LuTest, DeterminantHelper) {
  auto det = Determinant(Matrix{{3, 0}, {0, 7}});
  ASSERT_TRUE(det.ok());
  EXPECT_NEAR(*det, 21.0, 1e-12);
}

// Cross-check: Cholesky log-det equals LU det on random SPD matrices.
class DetCrossCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(DetCrossCheckTest, CholeskyVsLu) {
  Rng rng(300 + GetParam());
  Matrix a = RandomSpd(GetParam(), &rng);
  auto chol = Cholesky::Compute(a);
  auto lu = Lu::Compute(a);
  ASSERT_TRUE(chol.ok());
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(chol->LogDet(), std::log(lu->Det()),
              1e-8 * std::fabs(chol->LogDet()) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DetCrossCheckTest,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 16));

TEST(EigenTest, DiagonalMatrixEigenvalues) {
  Matrix a = Matrix::Diagonal(Vector{3.0, 1.0, 2.0});
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[2], 3.0, 1e-12);
}

TEST(EigenTest, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  Matrix a{{2, 1}, {1, 2}};
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 3.0, 1e-12);
}

TEST(EigenTest, RejectsAsymmetric) {
  Matrix a{{1, 2}, {0, 1}};
  EXPECT_FALSE(SymmetricEigen(a).ok());
}

TEST(EigenTest, HandlesSizeOneAndEmpty) {
  auto one = SymmetricEigen(Matrix{{4.0}});
  ASSERT_TRUE(one.ok());
  EXPECT_NEAR(one->eigenvalues[0], 4.0, 1e-15);
  auto zero = SymmetricEigen(Matrix(0, 0));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->eigenvalues.size(), 0);
}

class EigenPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EigenPropertyTest, ReconstructionAndOrthonormality) {
  Rng rng(400 + GetParam());
  const int n = GetParam();
  Matrix a = RandomSpd(n, &rng, 0.1);
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());

  // V^T V = I.
  Matrix vtv = MatMulTransA(eig->eigenvectors, eig->eigenvectors);
  EXPECT_LT((vtv - Matrix::Identity(n)).MaxAbs(), 1e-9);

  // V diag(lambda) V^T = A.
  Matrix scaled = eig->eigenvectors;
  for (int c = 0; c < n; ++c) {
    for (int r = 0; r < n; ++r) scaled(r, c) *= eig->eigenvalues[c];
  }
  Matrix rebuilt = MatMulTransB(scaled, eig->eigenvectors);
  EXPECT_LT((rebuilt - a).MaxAbs(), 1e-8 * std::max(1.0, a.MaxAbs()));

  // Ascending order, all positive for SPD input.
  for (int i = 1; i < n; ++i) {
    EXPECT_LE(eig->eigenvalues[i - 1], eig->eigenvalues[i] + 1e-12);
  }
  EXPECT_GT(eig->eigenvalues[0], 0.0);

  // Eigenvalue sum equals trace; product equals determinant.
  EXPECT_NEAR(eig->eigenvalues.Sum(), a.Trace(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenPropertyTest,
                         ::testing::Values(2, 3, 4, 6, 10, 16));

// Random symmetric (indefinite) matrix: mixed-sign spectrum.
Matrix RandomSymmetric(int n, Rng* rng) {
  Matrix a(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c <= r; ++c) {
      const double x = rng->Normal();
      a(r, c) = x;
      a(c, r) = x;
    }
  }
  return a;
}

// Cross-check the production Householder+QL solver against the Jacobi
// reference on random symmetric matrices with mixed-sign spectra.
class EigenCrossCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(EigenCrossCheckTest, TridiagonalAgreesWithJacobi) {
  const int n = GetParam();
  Rng rng(500 + n);
  Matrix a = RandomSymmetric(n, &rng);
  auto tri = SymmetricEigen(a);
  auto jac = SymmetricEigenJacobi(a);
  ASSERT_TRUE(tri.ok());
  ASSERT_TRUE(jac.ok());
  const double scale = std::max(1.0, a.MaxAbs());

  // Eigenvalues agree to 1e-10 (relative to matrix scale).
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(tri->eigenvalues[i], jac->eigenvalues[i], 1e-10 * scale)
        << "eigenvalue " << i;
  }

  // V^T V = I.
  Matrix vtv = MatMulTransA(tri->eigenvectors, tri->eigenvectors);
  EXPECT_LT((vtv - Matrix::Identity(n)).MaxAbs(), 1e-10);

  // V diag(lambda) V^T = A.
  Matrix scaled = tri->eigenvectors;
  for (int c = 0; c < n; ++c) {
    for (int r = 0; r < n; ++r) scaled(r, c) *= tri->eigenvalues[c];
  }
  Matrix rebuilt = MatMulTransB(scaled, tri->eigenvectors);
  EXPECT_LT((rebuilt - a).MaxAbs(), 1e-9 * scale);

  // With canonical signs and the simple spectra of random matrices, the
  // eigenvector columns themselves line up across solvers.
  for (int i = 0; i < n; ++i) {
    double dot = 0.0;
    for (int r = 0; r < n; ++r) {
      dot += tri->eigenvectors(r, i) * jac->eigenvectors(r, i);
    }
    EXPECT_GT(dot, 1.0 - 1e-8) << "eigenvector " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenCrossCheckTest,
                         ::testing::Values(2, 3, 5, 8, 16, 33, 64));

TEST(EigenTest, RepeatedEigenvalues) {
  // 3 * I: a maximally degenerate spectrum.
  auto eye = SymmetricEigen(Matrix::Identity(4) * 3.0);
  ASSERT_TRUE(eye.ok());
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(eye->eigenvalues[i], 3.0, 1e-12);
  Matrix vtv = MatMulTransA(eye->eigenvectors, eye->eigenvectors);
  EXPECT_LT((vtv - Matrix::Identity(4)).MaxAbs(), 1e-12);

  // Two-fold degeneracy mixed with a simple eigenvalue.
  Matrix a = Matrix::Diagonal(Vector{2.0, 5.0, 2.0});
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 2.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[2], 5.0, 1e-12);
  Matrix scaled = eig->eigenvectors;
  for (int c = 0; c < 3; ++c) {
    for (int r = 0; r < 3; ++r) scaled(r, c) *= eig->eigenvalues[c];
  }
  EXPECT_LT((MatMulTransB(scaled, eig->eigenvectors) - a).MaxAbs(), 1e-10);
}

TEST(EigenTest, RankDeficientMatrix) {
  // Rank-1 outer product: one eigenvalue ||v||^2, the rest zero.
  Vector v{1.0, -2.0, 3.0, 0.5, -1.5, 2.5};
  Matrix a = Matrix::Outer(v, v);
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  const double norm2 = v.Dot(v);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(eig->eigenvalues[i], 0.0, 1e-12 * norm2) << "null dim " << i;
  }
  EXPECT_NEAR(eig->eigenvalues[5], norm2, 1e-12 * norm2);
  // The top eigenvector is v / ||v|| up to canonical sign.
  double dot = 0.0;
  for (int r = 0; r < 6; ++r) {
    dot += eig->eigenvectors(r, 5) * v[r] / std::sqrt(norm2);
  }
  EXPECT_NEAR(std::fabs(dot), 1.0, 1e-10);
}

TEST(EigenTest, CanonicalSignMakesSolversBitComparable) {
  // Both solvers must place the largest-magnitude component of every
  // eigenvector on the positive side, so downstream sampling streams do
  // not silently flip when the solver implementation changes.
  Rng rng(77);
  Matrix a = RandomSpd(7, &rng);
  auto tri = SymmetricEigen(a);
  auto jac = SymmetricEigenJacobi(a);
  ASSERT_TRUE(tri.ok());
  ASSERT_TRUE(jac.ok());
  for (const auto* eig : {&*tri, &*jac}) {
    for (int c = 0; c < 7; ++c) {
      double peak = -1.0;
      double peak_val = 0.0;
      for (int r = 0; r < 7; ++r) {
        const double x = eig->eigenvectors(r, c);
        if (std::fabs(x) > peak) {
          peak = std::fabs(x);
          peak_val = x;
        }
      }
      EXPECT_GT(peak_val, 0.0) << "column " << c;
    }
  }
}

TEST(EigenJacobiTest, MatchesTridiagonalOnKnownMatrix) {
  Matrix a{{2, 1}, {1, 2}};
  auto eig = SymmetricEigenJacobi(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 3.0, 1e-12);
}

TEST(EigenJacobiTest, ConvergenceCheckedAfterFinalSweep) {
  // Regression: a 2x2 rotation diagonalizes this matrix in exactly one
  // sweep, so max_sweeps=1 must succeed. The old implementation only
  // tested convergence at the top of each sweep and reported
  // NumericalError even though the final allowed sweep had converged.
  Matrix a{{2, 1}, {1, 2}};
  auto eig = SymmetricEigenJacobi(a, /*max_sweeps=*/1);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 3.0, 1e-12);
  // Zero sweeps genuinely cannot converge a non-diagonal matrix.
  EXPECT_EQ(SymmetricEigenJacobi(a, /*max_sweeps=*/0).status().code(),
            StatusCode::kNumericalError);
  // A diagonal matrix converges with zero sweeps allowed.
  EXPECT_TRUE(
      SymmetricEigenJacobi(Matrix::Diagonal(Vector{1.0, 2.0}), 0).ok());
}

TEST(EigenJacobiTest, HandlesEdgeSizesAndRejectsAsymmetric) {
  auto one = SymmetricEigenJacobi(Matrix{{4.0}});
  ASSERT_TRUE(one.ok());
  EXPECT_NEAR(one->eigenvalues[0], 4.0, 1e-15);
  auto zero = SymmetricEigenJacobi(Matrix(0, 0));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->eigenvalues.size(), 0);
  EXPECT_FALSE(SymmetricEigenJacobi(Matrix{{1, 2}, {0, 1}}).ok());
  EXPECT_FALSE(SymmetricEigenJacobi(Matrix(2, 3)).ok());
}

TEST(EigenTest, ExtremeUniformScalesStayAccurate) {
  // The solver must be scale-invariant in the relative sense: tiny and
  // huge uniform scalings of the same matrix give scaled spectra.
  Rng rng(88);
  Matrix base = RandomSpd(6, &rng);
  auto ref = SymmetricEigen(base);
  ASSERT_TRUE(ref.ok());
  for (double s : {1e-8, 1e8}) {
    Matrix scaled_in = base;
    scaled_in *= s;
    auto eig = SymmetricEigen(scaled_in);
    ASSERT_TRUE(eig.ok()) << "scale " << s;
    for (int i = 0; i < 6; ++i) {
      EXPECT_NEAR(eig->eigenvalues[i], s * ref->eigenvalues[i],
                  1e-10 * s * std::fabs(ref->eigenvalues[5]));
    }
  }
}

TEST(EigenTest, ScaleEquivariantWhereRotationNormsLeaveNormalRange) {
  // At s = 1e160 the QL rotation norms' squared sums overflow, and at
  // s = 1e-160 they underflow, so every rotation takes the std::hypot
  // fallback; the decomposition must still scale exactly with s. The
  // spectrum 1..n (gaps of 1) keeps the eigenvectors well-conditioned.
  for (int n : {10, 30}) {
    Rng rng(90 + n);
    auto basis = SymmetricEigen(RandomSymmetric(n, &rng));
    ASSERT_TRUE(basis.ok());
    const Matrix& u = basis->eigenvectors;
    Matrix scaled_u = u;
    for (int c = 0; c < n; ++c) {
      for (int r = 0; r < n; ++r) scaled_u(r, c) *= c + 1.0;
    }
    Matrix a = MatMulTransB(scaled_u, u);
    a.Symmetrize();
    auto ref = SymmetricEigen(a);
    ASSERT_TRUE(ref.ok());
    const double top = ref->eigenvalues[n - 1];
    for (double s : {1e160, 1e-160}) {
      Matrix scaled_in = a;
      scaled_in *= s;
      auto eig = SymmetricEigen(scaled_in);
      ASSERT_TRUE(eig.ok()) << "n=" << n << " scale " << s;
      for (int i = 0; i < n; ++i) {
        EXPECT_LE(std::fabs(eig->eigenvalues[i] - s * ref->eigenvalues[i]),
                  1e-13 * s * top)
            << "n=" << n << " scale " << s << " eigenvalue " << i;
      }
      EXPECT_LE((eig->eigenvectors - ref->eigenvectors).MaxAbs(), 1e-13)
          << "n=" << n << " scale " << s;
    }
  }
}

TEST(ProjectToPsdTest, ClampsNegativeEigenvalues) {
  Matrix a{{1, 0}, {0, -2}};
  auto psd = ProjectToPsd(a, 0.0);
  ASSERT_TRUE(psd.ok());
  auto eig = SymmetricEigen(*psd);
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig->eigenvalues[0], -1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-10);
}

TEST(ProjectToPsdTest, LeavesPsdUntouched) {
  Rng rng(55);
  Matrix a = RandomSpd(5, &rng);
  auto psd = ProjectToPsd(a);
  ASSERT_TRUE(psd.ok());
  EXPECT_LT((*psd - a).MaxAbs(), 1e-8 * a.MaxAbs());
}

}  // namespace
}  // namespace lkpdpp
