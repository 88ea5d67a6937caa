// Exact spectral decomposition of factor-plus-diagonal kernels
// L = W·Wᵀ + Diag(d) without materializing the n x n operator.
//
// Blended serving kernels have exactly this shape after quality
// conditioning: Diag(q)(α·V·Vᵀ + (1-α)·I)Diag(q) = W·Wᵀ + D with
// W = √α·Diag(q)·V and D = (1-α)·Diag(q²). The diagonal D is full-rank
// and non-scalar, so the d x d dual-Gram trick (low_rank.h) cannot
// produce L's spectrum — but L is still a rank-d update of a diagonal
// matrix, and that structure admits an O(n d²) secular characterization:
//
//   det(L - t·I) = det(D - t·I) · det(H(t)),
//   H(t) = I_d + Wᵀ(D - t·I)⁻¹W          (the d x d capacitance matrix),
//
// and by Haynsworth inertia additivity the eigenvalue counting function
// is computable from H alone:
//
//   N(t) = #{λ(L) < t} = #{d_i < t} - n_neg(H(t)) - n_zero(H(t)).
//
// FactorDiagSpectrum bisects N(t) per eigenvalue inside Weyl interlacing
// brackets (d_(i) <= λ_i <= d_(i+d), top brackets capped by
// d_max + trace(WᵀW)), evaluating each count with an O(n d²/2)
// capacitance assembly plus an O(d³/6) LDLᵀ inertia (eigensolver
// fallback on pivot breakdown). Memory stays O(n d + d²); the n x n
// operator is never formed.
//
// Eigenvectors are materialized on demand, column by column: for a
// non-pole eigenvalue λ, the null vector y of H(λ) maps to the primal
// eigenvector u_i = (w_iᵀy)/(d_i - λ); eigenvalues pinned at a diagonal
// entry (poles, where some w-rows vanish or repeat) instead take the
// null space of the pole group's factor rows. Degenerate clusters are
// resolved jointly and the basis construction is deterministic and
// request-independent, so partial requests (sampling's selected
// elementary DPP, chunked marginal accumulation) hand out consistent
// orthonormal vectors across separate calls.

#ifndef LKPDPP_LINALG_FACTOR_DIAG_H_
#define LKPDPP_LINALG_FACTOR_DIAG_H_

#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// All n eigenvalues of W·Wᵀ + Diag(diag), ascending, computed by
/// per-eigenvalue inertia bisection at O(n² d² log(1/eps)) time and
/// O(n d + d²) memory — never materializing the n x n operator. `w` is
/// the n x d factor (d >= 1, n >= 1); `diag` has length n (any finite
/// symmetric diagonal; serving always passes a PSD one). Accuracy is
/// ~4·eps relative to the spectrum scale, the same ballpark as a dense
/// eigensolver. Fails with NumericalError on non-finite input, overflowed
/// factor mass, or inertia-evaluation breakdown.
Result<Vector> FactorDiagSpectrum(const Matrix& w, const Vector& diag);

/// The eigenvectors of W·Wᵀ + Diag(diag) for the requested spectrum
/// columns, as an n x |cols| near-orthonormal matrix with canonical
/// column signs (CanonicalizeColumnSigns). `eigenvalues` must be the
/// full ascending spectrum from FactorDiagSpectrum; `cols` indexes into
/// it, strictly ascending. Degenerate clusters (eigenvalues within
/// working precision of each other) are resolved jointly and
/// deterministically from the full spectrum, independent of which
/// columns are requested — two calls that split a cluster between them
/// return disjoint, mutually orthogonal members of one fixed cluster
/// basis. Cost: O(n d²) per distinct eigenvalue plus O(d³) per
/// capacitance eigensolve; degenerate pole clusters add O(|G|²·d) for a
/// pole group of |G| rows. Fails with NumericalError when a cluster
/// basis collapses (requested multiplicity not representable).
Result<Matrix> FactorDiagEigenvectors(const Matrix& w, const Vector& diag,
                                      const Vector& eigenvalues,
                                      const std::vector<int>& cols);

/// diag(Σ_c weights[c]·u_c·u_cᵀ) over the eigenvectors of
/// W·Wᵀ + Diag(diag): out[i] = Σ_c weights[c]·u_c(i)². Eigenvectors are
/// materialized in bounded column chunks (never n x n at once);
/// zero-weight columns are skipped. The factor-diag counterpart of
/// WeightedEigenvectorDiagonal / WeightedLiftedDiagonal, used by the
/// k-DPP marginal diagonal. `weights` has one entry per
/// spectrum column (length n).
Result<Vector> FactorDiagWeightedDiagonal(const Matrix& w, const Vector& diag,
                                          const Vector& eigenvalues,
                                          const Vector& weights);

/// Σ_c weights[c]·u_c·u_cᵀ as a materialized n x n matrix — for
/// marginal-kernel cross-checks and tests only; production code uses
/// FactorDiagWeightedDiagonal. Accumulated chunk-wise and symmetrized.
Result<Matrix> FactorDiagWeightedOuter(const Matrix& w, const Vector& diag,
                                       const Vector& eigenvalues,
                                       const Vector& weights);

}  // namespace lkpdpp

#endif  // LKPDPP_LINALG_FACTOR_DIAG_H_
