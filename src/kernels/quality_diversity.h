// Quality vs. diversity kernel decomposition (paper Eq. 2 / Eq. 13).
//
// The personalized k-DPP kernel over a ground set is
//   L = Diag(q) * K * Diag(q),
// where q holds per-item quality (relevance) values derived from model
// scores and K is a diversity kernel submatrix. The quality transform
// maps raw scores to positive qualities:
//   kExp:     q = exp(s)        (MF/GCN inner-product scores, Eq. 13)
//   kSigmoid: q = sigmoid(s)    (neural classifiers, NeuMF/GCMC)

#ifndef LKPDPP_KERNELS_QUALITY_DIVERSITY_H_
#define LKPDPP_KERNELS_QUALITY_DIVERSITY_H_

#include "linalg/matrix.h"

namespace lkpdpp {

enum class QualityTransform {
  kExp,
  kSigmoid,
};

const char* QualityTransformName(QualityTransform t);

/// Applies the transform elementwise. Exp inputs are clamped to [-30, 30]
/// to keep kernels finite under early-training score blowups; sigmoid
/// outputs are floored at 1e-12 to keep them strictly positive.
Vector ApplyQuality(const Vector& scores, QualityTransform transform);

/// d log q_i / d s_i — the factor that chains kernel gradients back to raw
/// scores (dL_ij/ds_m = L_ij * (t_m 1[i=m] + t_m 1[j=m])). Zero wherever
/// ApplyQuality's clamp or floor holds q constant.
Vector QualityLogDerivative(const Vector& scores, QualityTransform transform);

/// L = Diag(q) K Diag(q). Shapes must agree.
///
/// Factor-space counterpart: when the diversity kernel advertises a
/// factor (K = F F^T), quality conditioning is the O(n d) row scaling
/// `LowRankFactor::ScaleRows(q)`, since (Diag(q) F)(Diag(q) F)^T =
/// Diag(q) K Diag(q) — see linalg/low_rank.h.
Matrix AssembleKernel(const Vector& quality, const Matrix& diversity);

}  // namespace lkpdpp

#endif  // LKPDPP_KERNELS_QUALITY_DIVERSITY_H_
