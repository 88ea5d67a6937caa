// Low-rank dual representation of PSD kernels (Gartrell et al. 2016,
// arXiv:1602.05436).
//
// When a DPP kernel is built from d-dimensional item embeddings,
//   L = V V^T with V in R^{n x d},
// the d x d dual kernel C = V^T V has exactly the same nonzero spectrum
// as L, and every primal eigenvector with eigenvalue lambda > 0 can be
// recovered from its dual counterpart w-hat as
//   u = V w-hat / sqrt(lambda).
// That turns the O(n^3) eigendecomposition the serving path pays per cold
// kernel into an O(n d^2) Gram product plus an O(d^3) eigensolve, and
// exact k-DPP sampling into O(n d k) per draw — without ever
// materializing the n x n kernel. KDpp::CreateDual consumes this
// representation; the serving layer builds it whenever the
// conditioned kernel advertises an exact factor.
//
// Conditioning composes in the dual: extracting a candidate pool is a row
// subset of V, and quality conditioning Diag(q) L Diag(q) is a row
// scaling of V — both O(n d) updates instead of an n x n rebuild.
//
// Factor-plus-diagonal extension (V·Vᵀ + D). Blended serving kernels
// add a diagonal the factor cannot absorb: L = α·V·Vᵀ + δ·I shifts the
// whole spectrum, λ_i(L) = α·λ_i(V·Vᵀ) + δ, including the (n - d)
// padded zeros — which become δ > 0, so the padding argument that made
// the d-eigenvalue dual ESP tables exact (zero eigenvalues contribute
// nothing) no longer applies, and after the outer Diag(q) scaling the
// shift is not even spectral (Diag(q)(α·V·Vᵀ + δ·I)Diag(q) =
// α·(Diag(q)V)(Diag(q)V)ᵀ + δ·Diag(q²), a NON-scalar diagonal). The
// d x d Gram trick therefore cannot eigendecompose a blended kernel —
// but the blend is still exactly W·Wᵀ + D with W = √α·Diag(q)·V and
// D = (1-α)·Diag(q²), and that shape has its own exact solver:
// linalg/factor_diag.h recovers the FULL n-length spectrum (and any
// requested eigenvectors) of a rank-d update of a diagonal matrix by
// inertia bisection on the d x d capacitance, O(n²d²·log(1/ε)) time and
// O(n·d) memory — never materializing the n x n kernel. Two exact
// factored paths follow:
//   * MAP rerank reads kernel ENTRIES only —
//       L(i,j) = q_i·(α·<v_i, v_j> + δ·1[i=j])·q_j
//     at O(d) each via RowDot/RowDots below; kernel_rep.h's
//     FactorDiagKernelRep serves that without any eigensolve.
//   * Sampling needs the spectrum: KDpp::CreateFactorDiag runs the
//     ESP walk over the factor_diag.h spectrum and lifts elementary-DPP
//     bases on demand, so blended 0 < α < 1 sampling is exact and
//     draw-for-draw identical to the primal build (it walks the same
//     full spectrum) while staying O(n·d) in memory.
// The α == 1 case keeps the cheaper d-eigenvalue dual route above.

#ifndef LKPDPP_LINALG_LOW_RANK_H_
#define LKPDPP_LINALG_LOW_RANK_H_

#include <vector>

#include "common/result.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// Eigendecomposition of the dual kernel C = V^T V, standing in for the
/// spectrum of L = V V^T: L's eigenvalues are `eigenvalues` plus
/// (n - d) implicit zeros.
struct DualEigen {
  /// Ascending eigenvalues of C (length d). Zeros are clamped with the
  /// primal ground-size rule (ClampSpectrumToPsd with ground_size = n),
  /// so the detected rank matches what an n x n eigendecomposition of
  /// L would report.
  Vector eigenvalues;
  /// Column j of `dual_vectors` is the unit eigenvector of C for
  /// eigenvalues[j] (d x d, canonical signs from SymmetricEigen).
  Matrix dual_vectors;
};

/// An exact rank-<= d factor V of the PSD kernel L = V V^T over a ground
/// set of n items. Immutable once created; cheap to copy relative to the
/// n x n kernel it represents.
class LowRankFactor {
 public:
  /// Empty (0 x 0) placeholder, used where a factor slot may be unfilled
  /// (e.g. a primal-mode KDpp). Create() never returns one.
  LowRankFactor() = default;

  /// Wraps an n x d factor. Fails on empty or non-finite input, or d < 1.
  static Result<LowRankFactor> Create(Matrix v);

  /// Ground-set size n.
  int ground_size() const { return v_.rows(); }
  /// Number of factor columns d (an upper bound on rank(L)).
  int rank_bound() const { return v_.cols(); }
  const Matrix& v() const { return v_; }

  /// Dual kernel C = V^T V (d x d, symmetrized against round-off).
  Matrix Gram() const;

  /// Materializes L = V V^T (n x n) — for cross-checks and tests only;
  /// the dual path exists so production code never calls this at scale.
  Matrix Materialize() const;

  /// Gram matrix of a row subset: (V_S)(V_S)^T = L_S (|S| x |S|), the
  /// principal kernel submatrix without materializing L. Indices must be
  /// in range; duplicates allowed (they yield the expected singular L_S).
  Matrix SubsetGram(const std::vector<int>& rows) const;

  /// Factor of the principal submatrix L_S: the selected rows of V.
  LowRankFactor SelectRows(const std::vector<int>& rows) const;

  /// Factor of Diag(s) L Diag(s): V with row i scaled by s[i]. This is
  /// how quality conditioning enters the dual path.
  LowRankFactor ScaleRows(const Vector& scale) const;

  /// <v_i, v_j>, the kernel entry L(i, j), as the ascending-column dot
  /// product — the same reduction order DiversityKernel::Entry and the
  /// (naive-order) blocked GEMM use, so factor-computed entries are
  /// bit-identical to materialized ones. O(d).
  double RowDot(int i, int j) const;

  /// Kernel row j without materializing L: out[i] = <v_i, v_j> for
  /// every i, into out[0 .. ground_size()). O(n d) — the per-step
  /// primitive of factor-path greedy MAP.
  void RowDots(int j, double* out) const;

  /// diag(L) without materializing: out[i] = <v_i, v_i> into
  /// out[0 .. ground_size()). O(n d).
  void SquaredRowNorms(double* out) const;

  /// Eigendecomposition of the dual kernel via SymmetricEigen, with the
  /// shared PSD clamp applied at primal ground size (see DualEigen).
  Result<DualEigen> EigenDual() const;

  /// Lifts the selected dual eigenvectors to primal eigenvectors of L:
  /// column c of the result is V * dual_vectors[:, cols[c]] /
  /// sqrt(eigenvalues[cols[c]]) (n x |cols|), sign-canonicalized the same
  /// way SymmetricEigen canonicalizes primal eigenvectors. Every selected
  /// column must have a strictly positive eigenvalue (zero-eigenvalue
  /// dual vectors have no primal counterpart in range(L)). `eigenvalues`
  /// and `dual_vectors` are the pieces of a DualEigen for this factor.
  Matrix LiftEigenvectors(const Vector& eigenvalues,
                          const Matrix& dual_vectors,
                          const std::vector<int>& cols) const;

 private:
  explicit LowRankFactor(Matrix v) : v_(std::move(v)) {}
  Matrix v_;  // n x d.
};

/// Weighted outer product over lifted eigenvectors:
///   sum_{c : weights[c] > 0} weights[c] * u_c u_c^T   (n x n),
/// where u_c is the lift of dual eigenvector c. This is the dual-mode
/// assembly of the k-DPP marginal kernel: zero-weight columns
/// are skipped, and every positive-weight column must have a strictly
/// positive eigenvalue (all weight functions in use vanish on zero
/// eigenvalues). `eigenvalues`/`dual_vectors` are the pieces of a
/// DualEigen for `factor`; `weights` has one entry per dual column.
Matrix WeightedLiftedOuter(const LowRankFactor& factor,
                           const Vector& eigenvalues,
                           const Matrix& dual_vectors, const Vector& weights);

/// diag of WeightedLiftedOuter without materializing the n x n result:
/// out[i] = sum_{c : weights[c] > 0} weights[c] * u_c(i)^2.
Vector WeightedLiftedDiagonal(const LowRankFactor& factor,
                              const Vector& eigenvalues,
                              const Matrix& dual_vectors,
                              const Vector& weights);

}  // namespace lkpdpp

#endif  // LKPDPP_LINALG_LOW_RANK_H_
