// Symmetric eigendecomposition.
//
// k-DPP normalization (Eq. 6 of the paper) needs all eigenvalues of the
// (k+n)x(k+n) kernel, and the normalizer gradient needs the eigenvectors
// too. The serving path additionally eigendecomposes every cold
// KernelCache pool, so the solver is a hot path at serving pool sizes.
//
// `SymmetricEigen` is a LAPACK-style two-stage solver: Householder
// reduction to tridiagonal form (accumulating the orthogonal transform)
// followed by implicit-shift QL iteration on the tridiagonal. Its plane
// rotations take their norms as sqrt(a^2 + b^2), with std::hypot only
// where the squared sum leaves the normal range (inputs scaled past
// ~1e+-154), so the results scale exactly with the input. It costs
// ~3n^3 flops total, versus ~6n^3 *per sweep* (times ~8-12 sweeps) for
// the cyclic Jacobi method it replaced. Jacobi is retained as
// `SymmetricEigenJacobi` for cross-checking; both emit eigenvalues in
// ascending order with sign-canonicalized eigenvector columns, so they
// agree exactly (not just up to sign) on simple spectra.

#ifndef LKPDPP_LINALG_EIGEN_H_
#define LKPDPP_LINALG_EIGEN_H_

#include "common/result.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// Eigendecomposition A = V diag(lambda) V^T of a symmetric matrix.
struct EigenDecomposition {
  /// Eigenvalues in ascending order.
  Vector eigenvalues;
  /// Column i of `eigenvectors` is the unit eigenvector for eigenvalues[i],
  /// with its largest-magnitude entry made positive (canonical sign).
  Matrix eigenvectors;
};

/// Computes the full eigendecomposition of symmetric `a` by Householder
/// tridiagonalization + implicit-shift QL.
///
/// Fails with InvalidArgument for non-square or non-symmetric input and
/// with NumericalError if any eigenvalue fails to converge within
/// `max_iter` QL iterations (30 is the classical bound; in practice 2-3
/// iterations per eigenvalue suffice).
Result<EigenDecomposition> SymmetricEigen(const Matrix& a, int max_iter = 30);

/// Cyclic Jacobi reference solver: simple, accurate to machine precision,
/// and independent of the production path above, which makes it the
/// cross-check oracle in tests and benchmarks. O(sweeps * n^3); use
/// `SymmetricEigen` everywhere performance matters.
///
/// Fails with InvalidArgument for non-square or non-symmetric input and
/// with NumericalError if the off-diagonal mass is still above tolerance
/// after `max_sweeps` full rotation passes (convergence is re-checked
/// after the final pass, so a matrix that converges *during* sweep
/// `max_sweeps` succeeds).
Result<EigenDecomposition> SymmetricEigenJacobi(const Matrix& a,
                                                int max_sweeps = 64);

/// Projects a symmetric matrix to the PSD cone by clamping negative
/// eigenvalues to `floor` (>= 0). Used to keep assembled DPP kernels
/// factorable in the presence of round-off.
Result<Matrix> ProjectToPsd(const Matrix& a, double floor = 0.0);

/// diag(V diag(w) V^T) without materializing the product:
/// out[r] = sum_c w[c] * vecs(r, c)^2. The primal-mode counterpart of
/// the dual path's WeightedLiftedDiagonal (low_rank.h), shared by the
/// DPP and k-DPP marginal diagonals.
Vector WeightedEigenvectorDiagonal(const Matrix& vecs, const Vector& w);

/// Flips each column's sign so its largest-magnitude entry is positive
/// (ties broken by lowest row index). This is THE eigenvector sign
/// convention: both solvers apply it to their outputs, and the dual
/// path applies it to lifted eigenvectors so primal and dual
/// decompositions agree in sign, not just up to it.
void CanonicalizeColumnSigns(Matrix* m);

/// PSD-boundary policy shared by every DPP construction path, primal or
/// dual: eigenvalues within working precision of zero — either sign,
/// |lambda| < ground_size * eps * lambda_max — are clamped to exactly
/// zero, and genuinely negative eigenvalues (below -1e-8 * max(1,
/// lambda_max)) fail with NumericalError. `ground_size` must be the size
/// of the PRIMAL ground set even when `eigenvalues` came from a d x d
/// dual kernel: the clamp threshold is a property of the n x n operator
/// the spectrum represents, so rank detection is representation-
/// independent (a rank-deficient kernel reports the same rank whether it
/// was eigendecomposed primally or through its low-rank factor).
Status ClampSpectrumToPsd(Vector* eigenvalues, int ground_size);

}  // namespace lkpdpp

#endif  // LKPDPP_LINALG_EIGEN_H_
