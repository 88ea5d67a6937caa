// LkP: the paper's k-DPP set-level ranking optimization criterion.
//
// Given a ground set of k targets and n unobserved items with model
// scores s and diversity submatrix K, LkP builds the personalized kernel
// L = Diag(q) K Diag(q) (q = quality transform of s, Eq. 2/13) and
// minimizes the negative log-likelihood of the tailored k-DPP:
//
//   PS  (Eq. 7):  loss = -log P_k(S+) = -(log det(L_{S+}) - log Z_k)
//   NPS (Eq. 10): loss = -log P_k(S+) - log(1 - P_k(S-))
//
// where Z_k = e_k(eigenvalues(L)) and S- is the set of the n = k
// unobserved items. Gradients are closed-form (Eq. 12):
//
//   d log det(L_S)/dL = Pad(L_S^{-1}),
//   d log Z_k / dL    = sum_i e_{k-1}(lambda \ i) u_i u_i^T / Z_k,
//
// then chained into raw scores via dL_ij/ds_m = L_ij (t_m 1[i=m] +
// t_m 1[j=m]) with t = d log q / ds. That chain only reads the diagonal
// of (dloss/dL) L, and (d log Z_k / dL) L = M is the k-DPP marginal
// kernel, so with c = P(S-) / (1 - P(S-)) (0 for PS):
//
//   dloss/ds = 2 t o ((1 - c) diag(M) - rows(S+) + c rows(S-)),
//   rows(S)_i = sum_{j in S} (L_S^{-1})_ij L_ij   (i in S, else 0),
//
// where diag(M) holds the inclusion probabilities P(i in S) and the
// block row sums are 1 up to the Cholesky jitter. Only the optional
// chain into the diversity kernel, dL_ij/dK_ij = q_i q_j (the E-type
// path), builds the m x m dloss/dL.

#ifndef LKPDPP_CORE_LKP_H_
#define LKPDPP_CORE_LKP_H_

#include <string>

#include "core/criterion.h"
#include "kernels/quality_diversity.h"

namespace lkpdpp {

/// Which LkP objective to optimize.
enum class LkpMode {
  kPositiveOnly,        ///< "PS/PR": Eq. 7, inclusion of the target set.
  kNegativeAndPositive, ///< "NPS/NPR": Eq. 10, plus exclusion of S-.
};

const char* LkpModeName(LkpMode mode);

struct LkpConfig {
  LkpMode mode = LkpMode::kNegativeAndPositive;
  QualityTransform quality = QualityTransform::kExp;
  /// Diagonal jitter applied to kernel submatrices before factorization.
  double jitter = 1e-8;
  /// Clamp for 1 - P(S-) in the NPS log (numerical floor).
  double exclusion_floor = 1e-9;
  /// ABLATION ONLY: when false, drops the Z_k normalizer from the
  /// objective (raw log-determinants). The paper reports this destroys
  /// the ranking interpretation and training stability (Section IV-B2);
  /// bench/ablation_normalization reproduces that finding.
  bool normalize = true;
};

/// The LkP criterion (paper Section III-B/III-C).
class LkpCriterion final : public RankingCriterion {
 public:
  explicit LkpCriterion(LkpConfig config) : config_(config) {}

  std::string name() const override;
  bool NeedsDiversityKernel() const override { return true; }

  /// Requires: in.diversity != null, square, sized to the ground set;
  /// 1 <= num_pos < ground size. NPS additionally requires
  /// num_neg == num_pos (the paper sets n = k when exclusion is used, so
  /// S- is well-defined with cardinality k).
  Result<CriterionOutput> Evaluate(const CriterionInput& in) const override;

  /// Exact probability of the target subset under the tailored k-DPP for
  /// the given instance — used by the Figure 4 probability-ranking probe.
  Result<double> TargetSubsetProbability(const Vector& scores,
                                         const Matrix& diversity,
                                         int num_pos) const;

  const LkpConfig& config() const { return config_; }

 private:
  LkpConfig config_;
};

}  // namespace lkpdpp

#endif  // LKPDPP_CORE_LKP_H_
