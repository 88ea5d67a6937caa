#include "core/lkp.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/kdpp.h"
#include "linalg/cholesky.h"

namespace lkpdpp {

namespace {

// Cholesky with escalating jitter: DPP submatrices are PSD by
// construction but can be numerically semi-definite (low-rank diversity
// kernels); a vanishing diagonal boost restores factorability without
// visibly perturbing the objective.
Result<Cholesky> RobustCholesky(const Matrix& a, double jitter) {
  double j = jitter;
  const double scale = std::max(1.0, a.Trace() / std::max(1, a.rows()));
  for (int attempt = 0; attempt < 4; ++attempt) {
    Result<Cholesky> chol = Cholesky::Compute(a, j);
    if (chol.ok()) return chol;
    j = std::max(j * 100.0, 1e-10 * scale);
  }
  return Cholesky::Compute(a, 1e-4 * scale);
}

// The checks Evaluate and TargetSubsetProbability share.
Status ValidateInstance(const Vector& scores, const Matrix* diversity,
                        int num_pos, LkpMode mode) {
  const int m = scores.size();
  const int k = num_pos;
  if (diversity == nullptr) {
    return Status::InvalidArgument("LkP requires a diversity kernel");
  }
  if (diversity->rows() != m || diversity->cols() != m) {
    return Status::InvalidArgument(
        StrFormat("diversity kernel is %dx%d but ground set has %d items",
                  diversity->rows(), diversity->cols(), m));
  }
  if (k < 1 || k >= m) {
    return Status::InvalidArgument(
        StrFormat("num_pos=%d must lie in [1, %d)", k, m));
  }
  if (mode == LkpMode::kNegativeAndPositive && m - k != k) {
    return Status::InvalidArgument(
        StrFormat("NPS requires n == k for the ranking interpretation "
                  "(got k=%d, n=%d)",
                  k, m - k));
  }
  if (!scores.AllFinite()) {
    return Status::NumericalError("non-finite scores passed to LkP");
  }
  return Status::OK();
}

// The contiguous ground-set block [begin, begin + size).
std::vector<int> BlockIndices(int begin, int size) {
  std::vector<int> idx(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) idx[static_cast<size_t>(i)] = begin + i;
  return idx;
}

// diag(Pad(inv) L) for the block at `begin`: adds
// sign * sum_j inv(i, j) * block(i, j) to out[begin + i]. With jitter,
// inv is the inverse of block + jI, so these sums fall short of 1 by
// j * inv(i, i); they are kept, not assumed.
void AddBlockRowSums(const Matrix& inv, const Matrix& block, int begin,
                     double sign, Vector* out) {
  for (int i = 0; i < block.rows(); ++i) {
    double s = 0.0;
    for (int j = 0; j < block.cols(); ++j) s += inv(i, j) * block(i, j);
    (*out)[begin + i] += sign * s;
  }
}

// Adds sign * inv into the block at `begin` of the full-size accumulator.
void AccumulatePaddedInverse(const Matrix& inv, int begin, double sign,
                             Matrix* acc) {
  for (int i = 0; i < inv.rows(); ++i) {
    for (int j = 0; j < inv.cols(); ++j) {
      (*acc)(begin + i, begin + j) += sign * inv(i, j);
    }
  }
}

}  // namespace

const char* LkpModeName(LkpMode mode) {
  switch (mode) {
    case LkpMode::kPositiveOnly:
      return "PS";
    case LkpMode::kNegativeAndPositive:
      return "NPS";
  }
  return "?";
}

std::string LkpCriterion::name() const {
  return StrFormat("LkP-%s(%s)", LkpModeName(config_.mode),
                   QualityTransformName(config_.quality));
}

Result<CriterionOutput> LkpCriterion::Evaluate(
    const CriterionInput& in) const {
  LKP_RETURN_IF_ERROR(
      ValidateInstance(in.scores, in.diversity, in.num_pos, config_.mode));
  const int m = in.scores.size();
  const int k = in.num_pos;
  const bool exclusion = config_.mode == LkpMode::kNegativeAndPositive;

  const Vector q = ApplyQuality(in.scores, config_.quality);
  const Vector t = QualityLogDerivative(in.scores, config_.quality);
  Matrix kernel = AssembleKernel(q, *in.diversity);
  const Matrix l_pos = kernel.PrincipalSubmatrix(BlockIndices(0, k));
  const Matrix l_neg =
      exclusion ? kernel.PrincipalSubmatrix(BlockIndices(k, m - k))
                : Matrix();

  // Tailored k-DPP over the ground set: eigenvalues feed Z_k (Eq. 6).
  // Chained into scores, d log Z_k / dL only enters through
  // diag((d log Z_k / dL) L) = diag(M), the k-DPP inclusion
  // probabilities, so the m x m gradient is built only for the kernel
  // (E-type) path. The normalize=false ablation drops all of it (raw
  // unnormalized determinants).
  double log_zk = 0.0;
  Vector marginal(m);
  Matrix dlogz;
  if (config_.normalize) {
    LKP_ASSIGN_OR_RETURN(KDpp kdpp,
                         KDpp::CreateSampler(std::move(kernel), k));
    log_zk = kdpp.LogNormalizer();
    marginal = kdpp.MarginalDiagonal();
    if (in.want_kernel_grad) dlogz = kdpp.LogNormalizerGradient();
  }

  LKP_ASSIGN_OR_RETURN(Cholesky chol_pos,
                       RobustCholesky(l_pos, config_.jitter));
  const double logdet_pos = chol_pos.LogDet();
  const Matrix inv_pos = chol_pos.Inverse();

  // loss = -(log det(L_{S+}) - log Z_k)  [+ exclusion term below]
  double loss = -(logdet_pos - log_zk);
  // dloss/dL = dlogZ - Pad(L_{S+}^{-1}) [+ c (Pad(L_{S-}^{-1}) - dlogZ)];
  // `dot` holds its product with L on the diagonal, item by item.
  Vector dot = marginal;
  AddBlockRowSums(inv_pos, l_pos, 0, -1.0, &dot);
  double c = 0.0;
  Matrix inv_neg;
  if (exclusion) {
    LKP_ASSIGN_OR_RETURN(Cholesky chol_neg,
                         RobustCholesky(l_neg, config_.jitter));
    const double log_p_neg = chol_neg.LogDet() - log_zk;
    const double p_neg = std::exp(std::min(log_p_neg, 0.0));
    const double one_minus =
        std::max(1.0 - p_neg, config_.exclusion_floor);
    loss += -std::log(one_minus);
    // d(-log(1-P-))/dL = [P-/(1-P-)] * (Pad(L_{S-}^{-1}) - dlogZ).
    c = p_neg / one_minus;
    if (c > 0.0) {
      inv_neg = chol_neg.Inverse();
      for (int i = 0; i < m; ++i) dot[i] -= c * marginal[i];
      AddBlockRowSums(inv_neg, l_neg, k, c, &dot);
    }
  }

  CriterionOutput out;
  out.loss = loss;
  out.dscore = Vector(m);
  // Chain rule into raw scores: dL_ij/ds_m = L_ij t_m (1[i=m] + 1[j=m]),
  // so dloss/ds_i = 2 t_i (dloss/dL L)_ii.
  for (int i = 0; i < m; ++i) out.dscore[i] = 2.0 * t[i] * dot[i];
  if (in.want_kernel_grad) {
    // dloss/dL itself; dlogz stays empty under the ablation.
    Matrix g(m, m);
    if (config_.normalize) {
      g = std::move(dlogz);
      g *= 1.0 - c;
    }
    AccumulatePaddedInverse(inv_pos, 0, -1.0, &g);
    if (c > 0.0) AccumulatePaddedInverse(inv_neg, k, c, &g);
    out.dkernel = Matrix(m, m);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < m; ++j) {
        out.dkernel(i, j) = g(i, j) * q[i] * q[j];
      }
    }
    // The diagonal of the diversity kernel is structurally 1 (unit-norm
    // rows / Gaussian kernel), so no gradient flows through it.
    for (int i = 0; i < m; ++i) out.dkernel(i, i) = 0.0;
  }
  if (!out.dscore.AllFinite()) {
    return Status::NumericalError("LkP produced non-finite gradients");
  }
  return out;
}

Result<double> LkpCriterion::TargetSubsetProbability(
    const Vector& scores, const Matrix& diversity, int num_pos) const {
  LKP_RETURN_IF_ERROR(
      ValidateInstance(scores, &diversity, num_pos, config_.mode));
  const Vector q = ApplyQuality(scores, config_.quality);
  LKP_ASSIGN_OR_RETURN(KDpp kdpp,
                       KDpp::Create(AssembleKernel(q, diversity), num_pos));
  return kdpp.Prob(BlockIndices(0, num_pos));
}

}  // namespace lkpdpp
