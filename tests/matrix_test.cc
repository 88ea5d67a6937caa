// Tests for src/linalg/matrix: dense vector/matrix arithmetic.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

using testutil::RandomMatrix;

TEST(VectorTest, ConstructionAndAccess) {
  Vector v(3, 2.5);
  EXPECT_EQ(v.size(), 3);
  EXPECT_DOUBLE_EQ(v[0], 2.5);
  v[1] = -1.0;
  EXPECT_DOUBLE_EQ(v.at(1), -1.0);
}

TEST(VectorTest, InitializerList) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(VectorTest, Arithmetic) {
  Vector a{1, 2, 3};
  Vector b{4, 5, 6};
  Vector c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 5.0);
  c -= a;
  EXPECT_DOUBLE_EQ(c[2], 6.0);
  c *= 2.0;
  EXPECT_DOUBLE_EQ(c[1], 10.0);
}

TEST(VectorTest, Reductions) {
  Vector v{3.0, -4.0, 0.0};
  EXPECT_DOUBLE_EQ(v.Sum(), -1.0);
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.Max(), 3.0);
  EXPECT_DOUBLE_EQ(v.Min(), -4.0);
}

TEST(VectorTest, DotProduct) {
  Vector a{1, 2, 3};
  Vector b{4, -5, 6};
  EXPECT_DOUBLE_EQ(a.Dot(b), 4 - 10 + 18);
}

TEST(VectorTest, AllFiniteDetectsNan) {
  Vector v{1.0, 2.0};
  EXPECT_TRUE(v.AllFinite());
  v[1] = std::nan("");
  EXPECT_FALSE(v.AllFinite());
}

TEST(MatrixTest, ConstructionIdentityDiagonal) {
  Matrix i = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  Matrix d = Matrix::Diagonal(Vector{2, 3});
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, OuterProduct) {
  Matrix o = Matrix::Outer(Vector{1, 2}, Vector{3, 4, 5});
  EXPECT_EQ(o.rows(), 2);
  EXPECT_EQ(o.cols(), 3);
  EXPECT_DOUBLE_EQ(o(1, 2), 10.0);
}

TEST(MatrixTest, RowColDiagAccessors) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_DOUBLE_EQ(m.Row(1)[2], 6.0);
  EXPECT_DOUBLE_EQ(m.Col(1)[0], 2.0);
  Matrix sq{{1, 2}, {3, 4}};
  Vector d = sq.Diag();
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 4.0);
}

TEST(MatrixTest, SetRowSetCol) {
  Matrix m(2, 2);
  m.SetRow(0, Vector{1, 2});
  m.SetCol(1, Vector{7, 8});
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 8.0);
}

TEST(MatrixTest, Submatrix) {
  Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  Matrix s = m.Submatrix({0, 2}, {1});
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.cols(), 1);
  EXPECT_DOUBLE_EQ(s(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 8.0);
}

TEST(MatrixTest, PrincipalSubmatrixPreservesSymmetry) {
  Matrix m{{1, 2, 3}, {2, 5, 6}, {3, 6, 9}};
  Matrix s = m.PrincipalSubmatrix({0, 2});
  EXPECT_TRUE(s.IsSymmetric());
  EXPECT_DOUBLE_EQ(s(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 9.0);
}

TEST(MatrixTest, Transpose) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, TraceFrobeniusMaxAbs) {
  Matrix m{{1, -2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m.Trace(), 5.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), std::sqrt(1 + 4 + 9 + 16));
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4.0);
}

TEST(MatrixTest, AddDiagonal) {
  Matrix m = Matrix::Identity(2);
  m.AddDiagonal(0.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(MatrixTest, SymmetrizeAveragesOffDiagonal) {
  Matrix m{{1, 3}, {5, 2}};
  m.Symmetrize();
  EXPECT_DOUBLE_EQ(m(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 4.0);
  EXPECT_TRUE(m.IsSymmetric());
}

TEST(MatrixTest, IsSymmetricTolerance) {
  Matrix m{{1.0, 2.0}, {2.0 + 1e-12, 1.0}};
  EXPECT_TRUE(m.IsSymmetric(1e-10));
  EXPECT_FALSE(m.IsSymmetric(1e-14));
}

TEST(MatMulTest, KnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(3);
  Matrix a = RandomMatrix(4, 4, &rng);
  Matrix prod = MatMul(a, Matrix::Identity(4));
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(prod(r, c), a(r, c), 1e-12);
    }
  }
}

TEST(MatMulTest, TransAEqualsExplicitTranspose) {
  Rng rng(5);
  Matrix a = RandomMatrix(4, 3, &rng);
  Matrix b = RandomMatrix(4, 5, &rng);
  Matrix expected = MatMul(a.Transpose(), b);
  Matrix got = MatMulTransA(a, b);
  for (int r = 0; r < got.rows(); ++r) {
    for (int c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got(r, c), expected(r, c), 1e-12);
    }
  }
}

TEST(MatMulTest, TransBEqualsExplicitTranspose) {
  Rng rng(7);
  Matrix a = RandomMatrix(3, 4, &rng);
  Matrix b = RandomMatrix(5, 4, &rng);
  Matrix expected = MatMul(a, b.Transpose());
  Matrix got = MatMulTransB(a, b);
  for (int r = 0; r < got.rows(); ++r) {
    for (int c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got(r, c), expected(r, c), 1e-12);
    }
  }
}

TEST(MatVecTest, MatchesMatMul) {
  Rng rng(9);
  Matrix a = RandomMatrix(4, 3, &rng);
  Vector x{1.0, -2.0, 0.5};
  Vector y = MatVec(a, x);
  for (int r = 0; r < 4; ++r) {
    double expected = 0.0;
    for (int c = 0; c < 3; ++c) expected += a(r, c) * x[c];
    EXPECT_NEAR(y[r], expected, 1e-12);
  }
}

TEST(MatVecTest, BitIdenticalToPerRowDot) {
  // Row counts 0-9 cover every remainder of MatVec's four-row blocks;
  // each entry must equal the in-order one-row dot product exactly.
  Rng rng(13);
  for (int rows = 0; rows <= 9; ++rows) {
    for (int cols : {1, 16, 17}) {
      const Matrix a = RandomMatrix(rows, cols, &rng);
      Vector x(cols);
      for (int c = 0; c < cols; ++c) x[c] = rng.Normal();
      const Vector got = MatVec(a, x);
      ASSERT_EQ(got.size(), rows);
      for (int r = 0; r < rows; ++r) {
        double expected = 0.0;
        for (int c = 0; c < cols; ++c) expected += a(r, c) * x[c];
        EXPECT_EQ(got[r], expected) << rows << "x" << cols << " row " << r;
      }
    }
  }
}

TEST(MatVecTest, TransAMatchesTranspose) {
  Rng rng(11);
  Matrix a = RandomMatrix(4, 3, &rng);
  Vector x{1.0, 2.0, 3.0, 4.0};
  Vector got = MatVecTransA(a, x);
  Vector expected = MatVec(a.Transpose(), x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(got[i], expected[i], 1e-12);
}

TEST(HadamardTest, Elementwise) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{2, 0}, {1, -1}};
  Matrix h = Hadamard(a, b);
  EXPECT_DOUBLE_EQ(h(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(h(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(h(1, 1), -4.0);
}

// Property sweep: (AB)C == A(BC) across shapes.
class MatMulAssocTest : public ::testing::TestWithParam<int> {};

TEST_P(MatMulAssocTest, Associativity) {
  Rng rng(100 + GetParam());
  const int n = GetParam();
  Matrix a = RandomMatrix(n, n + 1, &rng);
  Matrix b = RandomMatrix(n + 1, n + 2, &rng);
  Matrix c = RandomMatrix(n + 2, n, &rng);
  Matrix left = MatMul(MatMul(a, b), c);
  Matrix right = MatMul(a, MatMul(b, c));
  EXPECT_LT((left - right).MaxAbs(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatMulAssocTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// Property sweep: transpose is an involution and (AB)^T = B^T A^T.
class TransposeLawTest : public ::testing::TestWithParam<int> {};

TEST_P(TransposeLawTest, ProductTranspose) {
  Rng rng(200 + GetParam());
  const int n = GetParam();
  Matrix a = RandomMatrix(n, n + 2, &rng);
  Matrix b = RandomMatrix(n + 2, n + 1, &rng);
  Matrix lhs = MatMul(a, b).Transpose();
  Matrix rhs = MatMul(b.Transpose(), a.Transpose());
  EXPECT_LT((lhs - rhs).MaxAbs(), 1e-10);
  EXPECT_LT((a.Transpose().Transpose() - a).MaxAbs(), 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransposeLawTest,
                         ::testing::Values(1, 2, 4, 7));

// Unblocked reference products for validating the cache-blocked GEMM
// paths at sizes that straddle the internal tile edge (64).
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      for (int j = 0; j < b.cols(); ++j) out(i, j) += a(i, k) * b(k, j);
    }
  }
  return out;
}

class BlockedGemmTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlockedGemmTest, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(900 + m + 7 * k + 31 * n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(k, n, &rng);
  EXPECT_LT((MatMul(a, b) - NaiveMatMul(a, b)).MaxAbs(), 1e-10);

  Matrix at = a.Transpose();
  EXPECT_LT((MatMulTransA(at, b) - NaiveMatMul(a, b)).MaxAbs(), 1e-10);

  Matrix bt = b.Transpose();
  EXPECT_LT((MatMulTransB(a, bt) - NaiveMatMul(a, b)).MaxAbs(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    TileStraddlingShapes, BlockedGemmTest,
    ::testing::Values(std::tuple{3, 5, 2},        // far below one tile
                      std::tuple{64, 64, 64},     // exactly one tile
                      std::tuple{65, 64, 63},     // straddles on m only
                      std::tuple{65, 130, 47},    // ragged multi-tile k
                      std::tuple{128, 65, 129},   // straddles everywhere
                      std::tuple{1, 200, 1}));    // degenerate slivers

TEST(BlockedGemmTest, BlockingPreservesBitExactResults) {
  // The tiled loops must visit the reduction index in naive order, so
  // results are bit-identical to the unblocked loops (golden baselines
  // depend on this).
  Rng rng(901);
  Matrix a = RandomMatrix(70, 90, &rng);
  Matrix b = RandomMatrix(90, 80, &rng);
  const Matrix blocked = MatMul(a, b);
  const Matrix naive = NaiveMatMul(a, b);
  for (int i = 0; i < blocked.rows(); ++i) {
    for (int j = 0; j < blocked.cols(); ++j) {
      EXPECT_EQ(blocked(i, j), naive(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

}  // namespace
}  // namespace lkpdpp
