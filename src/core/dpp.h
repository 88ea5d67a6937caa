// Standard (unconstrained-cardinality) DPP over a small ground set.
//
// The paper conditions on cardinality (k-DPP, kdpp.h) precisely because
// the standard DPP's variable-size competition muddles ranking signals
// (Section III-B1). The standard DPP is still the foundational object:
//   P(S) = det(L_S) / det(L + I)              (paper Eq. 1)
// and this class provides it for comparison experiments, the MAP
// re-ranking extension (map_inference.h), and tests that contrast the
// two normalizations.

#ifndef LKPDPP_CORE_DPP_H_
#define LKPDPP_CORE_DPP_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// An exact standard DPP with PSD kernel L over {0..m-1}, held primally:
/// the m x m kernel plus its full eigendecomposition. LkP serves only the
/// k-DPP, so the thin representations (low-rank dual, factor-plus-
/// diagonal) live on KDpp alone; this class is the comparison object.
class Dpp {
 public:
  /// Fails on non-square/non-symmetric/indefinite kernels (round-off
  /// negatives are clamped).
  static Result<Dpp> Create(Matrix kernel);

  int ground_size() const { return kernel_.rows(); }

  /// All m eigenvalues of L, ascending.
  const Vector& eigenvalues() const { return eig_.eigenvalues; }

  /// log det(L + I): the normalizer over all 2^m subsets.
  double LogNormalizer() const { return log_z_; }

  /// log P(S) for any subset, including the empty set (det of an empty
  /// matrix is 1). Fails on duplicates/out-of-range.
  Result<double> LogProb(const std::vector<int>& subset) const;
  Result<double> Prob(const std::vector<int>& subset) const;

  /// Marginal kernel M = L (L + I)^{-1}; M_ii = P(i in S). Prefer
  /// MarginalDiagonal when only inclusion probabilities are needed.
  Matrix MarginalKernel() const;

  /// diag(M) without materializing M: P(i in S) for every item.
  Vector MarginalDiagonal() const;

  /// Expected sample cardinality: sum_i lambda_i / (1 + lambda_i).
  double ExpectedSize() const;

  /// Exact sample (Hough et al. / Kulesza & Taskar Alg. 1): choose each
  /// eigenvector independently with probability lambda/(1+lambda), then
  /// sample the induced elementary DPP (SampleElementaryDpp, O(m k^2)
  /// for k chosen eigenvectors). Returned indices ascend.
  Result<std::vector<int>> Sample(Rng* rng) const;

 private:
  Dpp(Matrix kernel, EigenDecomposition eig, double log_z);
  Matrix kernel_;
  EigenDecomposition eig_;
  double log_z_;
};

/// Samples the elementary DPP spanned by the given orthonormal columns
/// (selects exactly `basis.cols()` items). Shared by Dpp and every KDpp
/// representation. `basis` is consumed. Runs the chain rule for the
/// projection kernel V V^T (Tremblay, Barthelme & Amblard 2018, "Optimized
/// algorithms to sample determinantal point processes"): one new
/// Cholesky column per pick updates every item's conditional weight, so
/// a draw of k items from m costs O(m k^2). Consumes one Categorical per
/// pick, over all m weights in item order with chosen items at zero.
/// Fails with NumericalError when the residual selection weights over
/// unchosen items vanish or go non-finite, when the basis is collapsed
/// (rank-deficient: the residual trace falls below half of its
/// orthonormal value), or when a chosen item has no support; it never
/// emits a duplicate index.
Result<std::vector<int>> SampleElementaryDpp(Matrix basis, Rng* rng);

}  // namespace lkpdpp

#endif  // LKPDPP_CORE_DPP_H_
