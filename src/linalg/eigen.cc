#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/string_util.h"

namespace lkpdpp {

namespace {

Status CheckSquareSymmetric(const Matrix& a, const char* solver) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument(
        StrFormat("%s requires square matrix, got %dx%d", solver, a.rows(),
                  a.cols()));
  }
  if (!a.IsSymmetric(1e-8 * std::max(1.0, a.MaxAbs()))) {
    return Status::InvalidArgument(
        StrFormat("%s requires symmetric input", solver));
  }
  return Status::OK();
}

// Sorts eigenpairs ascending and applies the shared sign convention
// (CanonicalizeColumnSigns) so the two solvers emit identical
// decompositions on simple spectra and the sampling streams downstream
// are stable under solver swaps.
//
// `vecs` holds one eigenvector per row when `vectors_in_rows` (the QL
// path rotates rows because they are contiguous in the row-major layout)
// and one per column otherwise (the Jacobi path).
EigenDecomposition FinalizeEigenpairs(const Vector& vals, const Matrix& vecs,
                                      bool vectors_in_rows) {
  const int n = vals.size();
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int x, int y) { return vals[x] < vals[y]; });
  EigenDecomposition out;
  out.eigenvalues = Vector(n);
  out.eigenvectors = Matrix(n, n);
  for (int i = 0; i < n; ++i) {
    const int src = order[i];
    out.eigenvalues[i] = vals[src];
    for (int r = 0; r < n; ++r) {
      out.eigenvectors(r, i) = vectors_in_rows ? vecs(src, r) : vecs(r, src);
    }
  }
  CanonicalizeColumnSigns(&out.eigenvectors);
  return out;
}

// Householder reduction of symmetric z to tridiagonal form (Golub & Van
// Loan 8.3; EISPACK tred2 organization). On return d holds the diagonal,
// e[1..n-1] the subdiagonal (e[0] = 0), and z the accumulated orthogonal
// transform Q with Q^T A Q = T. Row segments are pre-scaled by their
// 1-norm so the squared norms cannot overflow.
void HouseholderTridiagonalize(Matrix* z_ptr, Vector* d_ptr, Vector* e_ptr) {
  Matrix& z = *z_ptr;
  Vector& d = *d_ptr;
  Vector& e = *e_ptr;
  const int n = z.rows();

  // Stage 1: build the reflection chain from the last row up. After step
  // i, row/column i of the working matrix is tridiagonal; the reflector
  // vector u is left in row i (and u/H in column i) for stage 2.
  for (int i = n - 1; i >= 1; --i) {
    const int l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (int k = 0; k <= l; ++k) scale += std::fabs(z(i, k));
      if (scale == 0.0) {
        // Row already tridiagonal: nothing to annihilate.
        e[i] = z(i, l);
      } else {
        for (int k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;  // H = u^T u / 2 for the reflector u stored in row i.
        z(i, l) = f - g;
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          // g = (A u)_j over the leading (l+1)x(l+1) block, reading only
          // the lower triangle (the upper one holds stale values).
          g = 0.0;
          for (int k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (int k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[j] = g / h;
          f += e[j] * z(i, j);
        }
        // Rank-two update A <- A - u p^T - p u^T with p = A u / H -
        // (u^T A u / 2H^2) u.
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) {
          f = z(i, j);
          g = e[j] - hh * f;
          e[j] = g;
          for (int k = 0; k <= j; ++k) z(j, k) -= f * e[k] + g * z(i, k);
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;

  // Stage 2: accumulate Q = P_1 P_2 ... by applying each stored reflector
  // to the identity, reusing d[i] != 0 as the "reflector applied" flag.
  std::vector<double> g_acc(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      // g_j = sum_k z(i,k) z(k,j), then column update z(k,j) -= g_j
      // z(k,i) — both reorganized row-major with g precomputed (the
      // reduction order over k per entry matches the textbook loop).
      std::fill(g_acc.begin(), g_acc.begin() + i, 0.0);
      for (int k = 0; k < i; ++k) {
        const double zik = z(i, k);
        const double* row_k = z.RowPtr(k);
        for (int j = 0; j < i; ++j) g_acc[static_cast<size_t>(j)] +=
            zik * row_k[j];
      }
      for (int k = 0; k < i; ++k) {
        double* row_k = z.RowPtr(k);
        const double zki = row_k[i];
        for (int j = 0; j < i; ++j) row_k[j] -=
            g_acc[static_cast<size_t>(j)] * zki;
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1.0;
    for (int j = 0; j < i; ++j) {
      z(j, i) = 0.0;
      z(i, j) = 0.0;
    }
  }
}

// sqrt(a^2 + b^2) for the QL rotations. std::hypot's overflow-safe
// scaling costs about a quarter of the solve at m = 10; the plain form
// is exact to rounding whenever the squared sum is a normal double, so
// only sums outside [DBL_MIN, DBL_MAX] (squares that over- or
// underflowed, or a zero or NaN sum) take the std::hypot fallback.
inline double RotationNorm(double a, double b) {
  const double sum = a * a + b * b;
  if (sum >= std::numeric_limits<double>::min() &&
      sum <= std::numeric_limits<double>::max()) {
    return std::sqrt(sum);
  }
  return std::hypot(a, b);
}

// Implicit-shift QL iteration on the tridiagonal (d, e) produced above
// (Golub & Van Loan 8.3.3; EISPACK tql2 organization). `q_rows` holds one
// eigenvector candidate per ROW; each plane rotation then updates two
// contiguous rows instead of two strided columns, which keeps the O(n^3)
// eigenvector back-transformation streaming at memory bandwidth.
Status TridiagonalQlImplicit(Vector* d_ptr, Vector* e_ptr, Matrix* q_rows,
                             int max_iter) {
  Vector& d = *d_ptr;
  Vector& e = *e_ptr;
  Matrix& q = *q_rows;
  const int n = d.size();
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m;
    do {
      // Find the first negligible subdiagonal at or beyond l; the block
      // [l, m] is then an unreduced tridiagonal to iterate on.
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <=
            std::numeric_limits<double>::epsilon() * dd) {
          break;
        }
      }
      if (m != l) {
        if (iter++ == max_iter) {
          return Status::NumericalError(
              StrFormat("QL failed to converge for eigenvalue %d within %d "
                        "iterations (n=%d)",
                        l, max_iter, n));
        }
        // Wilkinson shift from the leading 2x2 of the block.
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = RotationNorm(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int i;
        for (i = m - 1; i >= l; --i) {
          double f = s * e[i];
          const double b = c * e[i];
          r = RotationNorm(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            // Underflow split: deflate and restart on the smaller block.
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          double* row_lo = q.RowPtr(i);
          double* row_hi = q.RowPtr(i + 1);
          for (int k = 0; k < n; ++k) {
            f = row_hi[k];
            row_hi[k] = s * row_lo[k] + c * f;
            row_lo[k] = c * row_lo[k] - s * f;
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return Status::OK();
}

}  // namespace

Result<EigenDecomposition> SymmetricEigen(const Matrix& a, int max_iter) {
  LKP_RETURN_IF_ERROR(CheckSquareSymmetric(a, "SymmetricEigen"));
  const int n = a.rows();
  if (n <= 1) {
    EigenDecomposition out;
    out.eigenvalues = Vector(n);
    if (n == 1) out.eigenvalues[0] = a(0, 0);
    out.eigenvectors = Matrix::Identity(n);
    return out;
  }
  Matrix z = a;
  z.Symmetrize();
  Vector d(n);
  Vector e(n);
  HouseholderTridiagonalize(&z, &d, &e);
  // Transpose once so QL rotates contiguous rows; FinalizeEigenpairs
  // gathers the sorted rows back into columns.
  Matrix q = z.Transpose();
  LKP_RETURN_IF_ERROR(TridiagonalQlImplicit(&d, &e, &q, max_iter));
  return FinalizeEigenpairs(d, q, /*vectors_in_rows=*/true);
}

Result<EigenDecomposition> SymmetricEigenJacobi(const Matrix& a,
                                                int max_sweeps) {
  LKP_RETURN_IF_ERROR(CheckSquareSymmetric(a, "SymmetricEigenJacobi"));
  const int n = a.rows();
  Matrix m = a;
  m.Symmetrize();
  Matrix v = Matrix::Identity(n);

  if (n <= 1) {
    EigenDecomposition out;
    out.eigenvalues = Vector(n);
    if (n == 1) out.eigenvalues[0] = m(0, 0);
    out.eigenvectors = v;
    return out;
  }

  const double scale = std::max(1.0, m.MaxAbs());
  const double tol = 1e-14 * scale;

  // The convergence test runs once more after the final rotation pass, so
  // a matrix that converges *during* sweep `max_sweeps` still succeeds.
  for (int sweep = 0;; ++sweep) {
    // Off-diagonal Frobenius mass; convergence when negligible.
    double off = 0.0;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) off += m(p, q) * m(p, q);
    }
    if (std::sqrt(off) <= tol * n) {
      return FinalizeEigenpairs(m.Diag(), v, /*vectors_in_rows=*/false);
    }
    if (sweep >= max_sweeps) break;

    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::fabs(apq) <= tol * 1e-2) continue;
        const double app = m(p, p);
        const double aqq = m(q, q);
        // Classic Jacobi rotation (Golub & Van Loan 8.4).
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) +
                          std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (int i = 0; i < n; ++i) {
          const double mip = m(i, p);
          const double miq = m(i, q);
          m(i, p) = c * mip - s * miq;
          m(i, q) = s * mip + c * miq;
        }
        for (int i = 0; i < n; ++i) {
          const double mpi = m(p, i);
          const double mqi = m(q, i);
          m(p, i) = c * mpi - s * mqi;
          m(q, i) = s * mpi + c * mqi;
        }
        for (int i = 0; i < n; ++i) {
          const double vip = v(i, p);
          const double viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
  }
  return Status::NumericalError(
      StrFormat("Jacobi failed to converge in %d sweeps (n=%d)", max_sweeps,
                n));
}

Vector WeightedEigenvectorDiagonal(const Matrix& vecs, const Vector& w) {
  Vector diag(vecs.rows());
  for (int r = 0; r < vecs.rows(); ++r) {
    double s = 0.0;
    for (int c = 0; c < vecs.cols(); ++c) {
      const double u = vecs(r, c);
      s += w[c] * u * u;
    }
    diag[r] = s;
  }
  return diag;
}

void CanonicalizeColumnSigns(Matrix* m_ptr) {
  Matrix& m = *m_ptr;
  for (int c = 0; c < m.cols(); ++c) {
    double peak = -1.0;
    double sign = 1.0;
    for (int r = 0; r < m.rows(); ++r) {
      const double x = m(r, c);
      if (std::fabs(x) > peak) {
        peak = std::fabs(x);
        sign = x < 0.0 ? -1.0 : 1.0;
      }
    }
    if (sign < 0.0) {
      for (int r = 0; r < m.rows(); ++r) m(r, c) = -m(r, c);
    }
  }
}

Status ClampSpectrumToPsd(Vector* eigenvalues, int ground_size) {
  Vector& lam = *eigenvalues;
  const double lam_max = lam.empty() ? 0.0 : std::max(lam.Max(), 0.0);
  const double neg_tol = -1e-8 * std::max(1.0, lam_max);
  const double zero_tol = static_cast<double>(ground_size) *
                          std::numeric_limits<double>::epsilon() * lam_max;
  for (int i = 0; i < lam.size(); ++i) {
    if (lam[i] < neg_tol) {
      return Status::NumericalError(
          StrFormat("kernel is not PSD: eigenvalue %d = %.3e", i, lam[i]));
    }
    if (lam[i] < zero_tol) lam[i] = 0.0;
  }
  return Status::OK();
}

Result<Matrix> ProjectToPsd(const Matrix& a, double floor) {
  LKP_ASSIGN_OR_RETURN(EigenDecomposition eig, SymmetricEigen(a));
  const int n = a.rows();
  Matrix scaled(n, n);
  for (int c = 0; c < n; ++c) {
    const double lam = std::max(eig.eigenvalues[c], floor);
    for (int r = 0; r < n; ++r) scaled(r, c) = eig.eigenvectors(r, c) * lam;
  }
  Matrix out = MatMulTransB(scaled, eig.eigenvectors);
  out.Symmetrize();
  return out;
}

}  // namespace lkpdpp
