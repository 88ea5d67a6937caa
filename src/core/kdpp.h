// The tailored k-DPP distribution over a small ground set.
//
// Given a PSD kernel L over a ground set of m = k+n items, a k-DPP assigns
// to every subset S of cardinality exactly k the probability
//   P(S) = det(L_S) / e_k(lambda(L))            (paper Eq. 4, 6)
// where e_k is the k-th elementary symmetric polynomial of the kernel's
// eigenvalues. This file provides exact probabilities, exhaustive
// enumeration (the ground sets in LkP are small by construction), exact
// sampling (Kulesza & Taskar, Alg. 8), the k-DPP marginal kernel, and the
// gradient of the normalizer needed by the LkP criterion.

#ifndef LKPDPP_CORE_KDPP_H_
#define LKPDPP_CORE_KDPP_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "linalg/eigen.h"
#include "linalg/low_rank.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// An exact k-DPP over a ground set {0, .., m-1} with PSD kernel L.
///
/// Three representations share this type. The primal one (Create)
/// eigendecomposes the m x m kernel. The dual one (CreateDual) takes a
/// rank-d factor V with L = V V^T and works entirely through the d x d
/// dual kernel C = V^T V (Gartrell et al. 2016): construction costs
/// O(m d^2 + d^3) instead of O(m^3), each Sample costs O(m d k) for the
/// lift plus the shared O(m k^2) elementary-DPP phase, and the
/// m x m kernel is never materialized. The factor-diag one
/// (CreateFactorDiag) takes L = W W^T + Diag(diag) — the blended
/// kernel after quality conditioning — computes the full
/// m-length spectrum by inertia bisection (linalg/factor_diag.h), and
/// materializes only the k eigenvectors each draw selects; memory stays
/// O(m d), still never m x m. All define the same distribution; the
/// dual sampler consumes its Rng in the exact draw order of the primal
/// sampler, and the factor-diag sampler walks the same full spectrum the
/// primal walks, so a fixed seed yields the same subset stream in any
/// representation. The representation is fixed by the factory and not
/// exposed: a caller that needs it records its own choice (serving
/// keeps it as ServedKernel::path).
///
/// A second primal factory, CreateSampler, runs Create's exact build but
/// keeps only the eigenpairs — not the m x m kernel, which only LogProb
/// reads. It draws the identical stream and serves the marginals and
/// normalizer gradients, while LogProb, Prob and EnumerateProbabilities
/// return FailedPrecondition; serving caches this form in sampling mode.
///
/// No representation stores the elementary-symmetric-polynomial (ESP)
/// table: every factory builds it once to reject overflow and read
/// log Z_k, and each Sample rebuilds the identical table from the stored
/// eigenvalues in O(m k).
class KDpp {
 public:
  /// Builds the distribution. Fails if the kernel is not square/symmetric,
  /// if k is outside [1, m], if e_k underflows to zero (kernel rank < k,
  /// in which case no cardinality-k subset has positive probability), or
  /// if any intermediate elementary symmetric polynomial overflows double
  /// range (the sampler's ESP-table walk would be corrupted).
  /// Slightly negative eigenvalues from round-off are clamped to zero.
  static Result<KDpp> Create(Matrix kernel, int k);

  /// Create without retaining the kernel: same checks, same eigenpairs,
  /// same draws, same marginals and gradients, one m x m matrix fewer to
  /// hold. LogProb, Prob and EnumerateProbabilities return
  /// FailedPrecondition on the result.
  static Result<KDpp> CreateSampler(Matrix kernel, int k);

  /// Builds the k-DPP with kernel L = V V^T from its factor, without
  /// materializing L. Applies the same spectrum checks as Create — PSD
  /// clamp at primal ground size (rank detection is representation-
  /// independent), rank >= k, ESP-table overflow rejection.
  static Result<KDpp> CreateDual(LowRankFactor factor, int k);

  /// Builds the k-DPP with kernel L = W W^T + Diag(diag) from the factor
  /// and the added diagonal, without materializing L. Applies the same
  /// spectrum checks as Create — PSD clamp at primal ground size, then
  /// the shared ESP finishing, so rank-deficiency (e_k = 0) and ESP
  /// overflow are rejected with the identical primal wording.
  static Result<KDpp> CreateFactorDiag(LowRankFactor factor, Vector diag,
                                       int k);

  int k() const { return k_; }
  int ground_size() const { return m_; }

  /// Primal and factor-diag modes: all m eigenvalues of L, ascending.
  /// Dual mode: the d eigenvalues of C = V^T V, ascending — L's spectrum
  /// is these plus (m - d) implicit zeros, which no ESP or sampler ever
  /// needs.
  const Vector& eigenvalues() const { return eig_.eigenvalues; }
  /// Primal mode: eigenvectors of L. Dual mode: eigenvectors of C (d x d
  /// dual vectors, lifted to L-space on demand). Factor-diag mode:
  /// empty — eigenvectors are materialized on demand
  /// (linalg/factor_diag.h), never stored.
  const Matrix& eigenvectors() const { return eig_.eigenvectors; }

  /// log Z_k = log e_k(lambda).
  double LogNormalizer() const { return log_zk_; }

  /// log P(S) for a subset of cardinality k. Fails for wrong cardinality,
  /// duplicate or out-of-range indices, and with FailedPrecondition on a
  /// CreateSampler k-DPP. Singular det(L_S) yields -inf.
  Result<double> LogProb(const std::vector<int>& subset) const;

  /// P(S) = exp(LogProb).
  Result<double> Prob(const std::vector<int>& subset) const;

  /// Enumerates every cardinality-k subset with its probability,
  /// in lexicographic subset order. Fails if C(m, k) exceeds `max_subsets`
  /// (guards accidental exponential blowups).
  Result<std::vector<std::pair<std::vector<int>, double>>>
  EnumerateProbabilities(long max_subsets = 1000000) const;

  /// Exact sample of a cardinality-k subset (ascending indices).
  /// Two-phase algorithm: select an elementary DPP (eigenvector subset of
  /// size k) by walking the ESP table, then sample the elementary DPP by
  /// the projection-DPP chain rule (SampleElementaryDpp; Tremblay,
  /// Barthelme & Amblard 2018), O(m k^2) over the k selected
  /// eigenvectors, which every representation hands to the same sampler.
  /// Each call rebuilds the ESP table from the stored eigenvalues
  /// (O(m*k), the table Create checked). Thread-safe: concurrent calls
  /// with distinct Rngs only read shared state.
  Result<std::vector<int>> Sample(Rng* rng) const;

  /// Marginal kernel M with M_ii = P(i in S); in general
  ///   M = sum_n [lambda_n * e_{k-1}(lambda \ n) / e_k] u_n u_n^T,
  /// whose trace is exactly k. The per-column weights are lambda_n times
  /// the O(m k) exclusion ratios (ExclusionRatios in esp.h), computed
  /// over lambda / lambda_max, so wide eigenvalue dynamic ranges cannot
  /// overflow the exclusion polynomials into inf/NaN entries. Dual mode
  /// assembles the sum from lifted eigenvectors at O(m^2 r); zero
  /// eigenvalues carry zero weight in either representation, so the
  /// (m - d) implicit zeros contribute nothing.
  Matrix MarginalKernel() const;

  /// diag(M) without materializing M: P(i in S) for every item. O(m^2)
  /// primal, O(m d r) dual. Since M = (d log Z_k / d L) L, this diagonal
  /// is also the normalizer's whole contribution to the LkP score
  /// gradient (lkp.h).
  Vector MarginalDiagonal() const;

  /// Gradient of the normalizer: d Z_k / d L
  ///   = sum_n e_{k-1}(lambda \ n) u_n u_n^T.
  /// Unnormalized: entries overflow to inf where the gradient itself
  /// exceeds double range; prefer LogNormalizerGradient for training.
  /// Primal mode only (LKP_CHECK): the gradient has components along
  /// L's null-space eigenvectors, which the dual factor cannot
  /// represent — training paths construct primal KDpps.
  Matrix NormalizerGradient() const;

  /// Gradient of log Z_k w.r.t. L (NormalizerGradient / Z_k), weighted
  /// by the scaled exclusion ratios so it stays finite whenever Z_k and
  /// the ratios are representable. Primal mode only (LKP_CHECK), see
  /// NormalizerGradient.
  Matrix LogNormalizerGradient() const;

 private:
  /// Which representation Create* built; fixed for the object's life.
  enum class Rep { kPrimal, kDual, kFactorDiag };

  /// Takes the spectrum and its log normalizer; the factory then fills
  /// the representation's own field (kernel_, factor_, fd_diag_).
  KDpp(Rep rep, int m, int k, EigenDecomposition eig, double log_zk);

  /// The body of Create and CreateSampler.
  static Result<KDpp> CreatePrimal(Matrix kernel, int k, bool keep_kernel);

  /// Per-spectrum-column marginal weight lambda_c e_{k-1}(lambda \ c)/Z_k.
  Vector MarginalWeights() const;

  Rep rep_;
  int m_;                 // Ground size.
  int k_;
  Matrix kernel_;         // Primal mode via Create only.
  LowRankFactor factor_;  // Dual and factor-diag modes.
  Vector fd_diag_;        // Factor-diag mode only: the added diagonal.
  // Primal: eigenpairs of L. Dual: eigenpairs of C = V^T V (d x d).
  // Factor-diag: the full m-length spectrum of W W^T + D; eigenvectors
  // stay empty and are materialized on demand.
  EigenDecomposition eig_;
  double log_zk_;
};

/// Number of cardinality-k subsets of an m-set, as a double (exact for the
/// small m used here).
double BinomialCoefficient(int m, int k);

/// Iterates lexicographic k-combinations of {0..m-1}. Returns false when
/// `idx` was the last combination. `idx` must hold a valid combination.
bool NextCombination(std::vector<int>* idx, int m);

}  // namespace lkpdpp

#endif  // LKPDPP_CORE_KDPP_H_
