#include "core/kdpp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/dpp.h"
#include "core/esp.h"
#include "linalg/factor_diag.h"
#include "linalg/lu.h"

namespace lkpdpp {

namespace {

// Validates a subset: sorted copy, in-range, distinct, cardinality k.
Result<std::vector<int>> ValidateSubset(const std::vector<int>& subset, int k,
                                        int m) {
  if (static_cast<int>(subset.size()) != k) {
    return Status::InvalidArgument(
        StrFormat("k-DPP subset must have cardinality %d, got %zu", k,
                  subset.size()));
  }
  std::vector<int> sorted = subset;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] < 0 || sorted[i] >= m) {
      return Status::OutOfRange(
          StrFormat("subset index %d outside ground set of size %d",
                    sorted[i], m));
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument(
          StrFormat("duplicate index %d in subset", sorted[i]));
    }
  }
  return sorted;
}

// Shared spectrum -> log Z_k finishing for every representation.
// `eigenvalues` must already be PSD-clamped; `m` is the primal ground size
// (only used in messages). Builds the Algorithm-1 ESP table once to
// reject overflow and read the normalizer off its last column; the table
// itself is not kept (Sample rebuilds it from the same eigenvalues).
// Fails on ESP overflow or a vanished normalizer, identically for primal
// and dual spectra (the padding zeros of the primal spectrum leave every
// ESP bit-unchanged: e_l <- e_l + 0 * e_{l-1}).
Result<double> FinishSpectrum(const Vector& eigenvalues, int k, int m) {
  const Matrix esp_table = EspTable(eigenvalues, k);
  if (!esp_table.AllFinite()) {
    // An intermediate e_l can overflow while e_k itself stays finite
    // (huge eigenvalues balanced by tiny ones); the sampler's backward
    // walk would then divide inf by inf, so reject loudly here.
    return Status::NumericalError(
        StrFormat("ESP table overflowed for k=%d over %d eigenvalues: "
                  "eigenvalue dynamic range too large for exact sampling",
                  k, m));
  }
  const double zk = esp_table(k, eigenvalues.size());
  if (!(zk > 0.0) || !std::isfinite(zk)) {
    return Status::NumericalError(
        StrFormat("k-DPP normalizer e_%d = %.3e is not positive/finite "
                  "(kernel rank < k?)",
                  k, zk));
  }
  return std::log(zk);
}

}  // namespace

KDpp::KDpp(Rep rep, int m, int k, EigenDecomposition eig, double log_zk)
    : rep_(rep), m_(m), k_(k), eig_(std::move(eig)), log_zk_(log_zk) {}

Result<KDpp> KDpp::Create(Matrix kernel, int k) {
  return CreatePrimal(std::move(kernel), k, /*keep_kernel=*/true);
}

Result<KDpp> KDpp::CreateSampler(Matrix kernel, int k) {
  return CreatePrimal(std::move(kernel), k, /*keep_kernel=*/false);
}

Result<KDpp> KDpp::CreatePrimal(Matrix kernel, int k, bool keep_kernel) {
  if (kernel.rows() != kernel.cols()) {
    return Status::InvalidArgument(
        StrFormat("k-DPP kernel must be square, got %dx%d", kernel.rows(),
                  kernel.cols()));
  }
  const int m = kernel.rows();
  if (k < 1 || k > m) {
    return Status::InvalidArgument(
        StrFormat("k=%d outside [1, %d]", k, m));
  }
  if (!kernel.AllFinite()) {
    return Status::NumericalError("k-DPP kernel contains non-finite values");
  }
  LKP_ASSIGN_OR_RETURN(EigenDecomposition eig, SymmetricEigen(kernel));
  // Clamp eigenvalues indistinguishable from zero at working precision
  // (either sign: exact zeros of rank-deficient kernels come back as
  // +/- O(eps * lambda_max) noise, and a spurious positive would make
  // the rank check below pass vacuously). Genuinely indefinite kernels
  // are rejected. The policy lives in ClampSpectrumToPsd so the dual
  // path below detects the same rank from the same kernel.
  LKP_RETURN_IF_ERROR(ClampSpectrumToPsd(&eig.eigenvalues, m));
  LKP_ASSIGN_OR_RETURN(double log_zk, FinishSpectrum(eig.eigenvalues, k, m));
  KDpp out(Rep::kPrimal, m, k, std::move(eig), log_zk);
  if (keep_kernel) out.kernel_ = std::move(kernel);
  return out;
}

Result<KDpp> KDpp::CreateDual(LowRankFactor factor, int k) {
  const int m = factor.ground_size();
  if (m < 1) {
    return Status::InvalidArgument("dual k-DPP requires a non-empty factor");
  }
  if (k < 1 || k > m) {
    return Status::InvalidArgument(
        StrFormat("k=%d outside [1, %d]", k, m));
  }
  if (k > factor.rank_bound()) {
    // rank(L) <= d < k: no cardinality-k subset has positive probability.
    // Primal Create discovers this as e_k = 0; report it the same way
    // without building a table the ESP recursion cannot size.
    return Status::NumericalError(
        StrFormat("k-DPP normalizer e_%d = 0 is not positive/finite "
                  "(kernel rank < k?): factor rank bound is %d",
                  k, factor.rank_bound()));
  }
  // EigenDual applies ClampSpectrumToPsd at primal ground size m, so a
  // rank-deficient kernel reports the same rank as KDpp::Create would.
  LKP_ASSIGN_OR_RETURN(DualEigen dual, factor.EigenDual());
  LKP_ASSIGN_OR_RETURN(double log_zk, FinishSpectrum(dual.eigenvalues, k, m));
  EigenDecomposition eig;
  eig.eigenvalues = std::move(dual.eigenvalues);
  eig.eigenvectors = std::move(dual.dual_vectors);
  KDpp out(Rep::kDual, m, k, std::move(eig), log_zk);
  out.factor_ = std::move(factor);
  return out;
}

Result<KDpp> KDpp::CreateFactorDiag(LowRankFactor factor, Vector diag,
                                    int k) {
  const int m = factor.ground_size();
  if (m < 1) {
    return Status::InvalidArgument(
        "factor-diag k-DPP requires a non-empty factor");
  }
  if (k < 1 || k > m) {
    return Status::InvalidArgument(
        StrFormat("k=%d outside [1, %d]", k, m));
  }
  if (diag.size() != m) {
    return Status::InvalidArgument(
        StrFormat("factor-diag k-DPP diagonal length %d != ground size %d",
                  diag.size(), m));
  }
  if (!diag.AllFinite()) {
    return Status::NumericalError(
        "factor-diag k-DPP diagonal contains non-finite values");
  }
  // No rank pre-check: the added diagonal generally makes L full-rank;
  // genuinely rank-deficient spectra (zero diagonal entries on the
  // factor's null rows) fall out of FinishSpectrum as e_k = 0 with the
  // identical primal wording. The clamp runs at ground size m exactly
  // like Create, so rank detection is representation-independent.
  LKP_ASSIGN_OR_RETURN(Vector spectrum, FactorDiagSpectrum(factor.v(), diag));
  LKP_RETURN_IF_ERROR(ClampSpectrumToPsd(&spectrum, m));
  LKP_ASSIGN_OR_RETURN(double log_zk, FinishSpectrum(spectrum, k, m));
  EigenDecomposition eig;
  eig.eigenvalues = std::move(spectrum);
  KDpp out(Rep::kFactorDiag, m, k, std::move(eig), log_zk);
  out.factor_ = std::move(factor);
  out.fd_diag_ = std::move(diag);
  return out;
}

Result<double> KDpp::LogProb(const std::vector<int>& subset) const {
  if (rep_ == Rep::kPrimal && kernel_.rows() == 0) {
    return Status::FailedPrecondition(
        "k-DPP built by CreateSampler keeps no kernel: LogProb, Prob and "
        "EnumerateProbabilities need KDpp::Create");
  }
  LKP_ASSIGN_OR_RETURN(std::vector<int> sorted,
                       ValidateSubset(subset, k_, ground_size()));
  // det(L_S) from the kernel submatrix, or from the Gram of the factor's
  // rows (plus the added diagonal in factor-diag mode) — the same k x k
  // matrix, assembled without materializing L.
  Matrix sub = rep_ == Rep::kPrimal ? kernel_.PrincipalSubmatrix(sorted)
                                    : factor_.SubsetGram(sorted);
  if (rep_ == Rep::kFactorDiag) {
    for (size_t i = 0; i < sorted.size(); ++i) {
      sub(static_cast<int>(i), static_cast<int>(i)) += fd_diag_[sorted[i]];
    }
  }
  LKP_ASSIGN_OR_RETURN(double det, Determinant(sub));
  if (det <= 0.0) {
    // PSD principal minors are >= 0; tiny negatives are round-off.
    return -std::numeric_limits<double>::infinity();
  }
  return std::log(det) - log_zk_;
}

Result<double> KDpp::Prob(const std::vector<int>& subset) const {
  LKP_ASSIGN_OR_RETURN(double lp, LogProb(subset));
  return std::exp(lp);
}

Result<std::vector<std::pair<std::vector<int>, double>>>
KDpp::EnumerateProbabilities(long max_subsets) const {
  const int m = ground_size();
  const double count = BinomialCoefficient(m, k_);
  if (count > static_cast<double>(max_subsets)) {
    return Status::FailedPrecondition(
        StrFormat("C(%d,%d) = %.0f exceeds enumeration limit %ld", m, k_,
                  count, max_subsets));
  }
  std::vector<std::pair<std::vector<int>, double>> out;
  out.reserve(static_cast<size_t>(count));
  std::vector<int> idx(k_);
  for (int i = 0; i < k_; ++i) idx[i] = i;
  while (true) {
    LKP_ASSIGN_OR_RETURN(double p, Prob(idx));
    out.emplace_back(idx, p);
    if (!NextCombination(&idx, m)) break;
  }
  return out;
}

Result<std::vector<int>> KDpp::Sample(Rng* rng) const {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const int m = ground_size();
  const Vector& lambda = eig_.eigenvalues;

  // Phase 1 (Kulesza & Taskar Alg. 8): choose k eigenvector indices J,
  // P(n in J) proportional to products of eigenvalues, by walking the
  // ESP table backwards. The table is rebuilt here from the stored
  // eigenvalues — O(m k), the identical table FinishSpectrum checked at
  // build time — rather than kept per object. The walk is identical
  // for both representations: it starts at the top of the ascending
  // spectrum and always completes its k selections before descending
  // into the zero eigenvalues (inclusion is forced once the remaining
  // positive eigenvalues are exactly the l still needed), so the
  // (m - d) padding zeros the dual spectrum omits are never visited and
  // both representations consume the Rng draw-for-draw.
  const Matrix table = EspTable(lambda, k_);
  std::vector<int> selected;
  selected.reserve(k_);
  int l = k_;
  for (int col = lambda.size(); col >= 1 && l > 0; --col) {
    if (l > col) {
      return Status::Internal("k-DPP sampler ran out of eigenvalues");
    }
    const double denom = table(l, col);
    if (denom <= 0.0) {
      return Status::NumericalError("zero mass in ESP table during sampling");
    }
    const double p_include = lambda[col - 1] * table(l - 1, col - 1) / denom;
    if (rng->Uniform() < p_include) {
      selected.push_back(col - 1);
      --l;
    }
  }
  if (l != 0) {
    return Status::Internal("k-DPP sampler selected fewer than k vectors");
  }

  // Phase 2: sample the elementary DPP spanned by the selected
  // eigenvectors (shared with the standard DPP sampler in dpp.h). Dual
  // mode lifts the selected dual vectors to L-space on demand:
  // O(m d k) for the lift, never an m x m materialization.
  if (rep_ == Rep::kDual) {
    Matrix basis = factor_.LiftEigenvectors(eig_.eigenvalues,
                                            eig_.eigenvectors, selected);
    return SampleElementaryDpp(std::move(basis), rng);
  }
  // Factor-diag mode materializes just the k selected eigenvectors of
  // W W^T + D (never m x m). The backward walk pushes columns in
  // descending order; the materializer wants them ascending. Column
  // order within the basis is immaterial to the elementary sampler.
  if (rep_ == Rep::kFactorDiag) {
    std::vector<int> ascending = selected;
    std::sort(ascending.begin(), ascending.end());
    LKP_ASSIGN_OR_RETURN(
        Matrix basis, FactorDiagEigenvectors(factor_.v(), fd_diag_,
                                             eig_.eigenvalues, ascending));
    return SampleElementaryDpp(std::move(basis), rng);
  }
  Matrix v(m, k_);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < k_; ++c) {
      v(r, c) = eig_.eigenvectors(r, selected[static_cast<size_t>(c)]);
    }
  }
  return SampleElementaryDpp(std::move(v), rng);
}

namespace {

// sum_c w_c u_c u_c^T as (V diag(w)) V^T, symmetrized against round-off.
Matrix WeightedEigenvectorOuter(const Matrix& vecs, const Vector& w) {
  const int m = vecs.rows();
  Matrix scaled(m, m);
  for (int c = 0; c < m; ++c) {
    for (int r = 0; r < m; ++r) scaled(r, c) = vecs(r, c) * w[c];
  }
  Matrix out = MatMulTransB(scaled, vecs);
  out.Symmetrize();
  return out;
}

}  // namespace

// Per-column marginal weight lambda[c] * e_{k-1}(lambda \ c) / Z_k from
// the O(m k) exclusion ratios. They work over lambda / lambda_max, so the
// raw exclusion polynomials cannot overflow to inf (and the
// zero-eigenvalue columns then produce 0 * inf = NaN) while the ratio
// itself is representable. Works on either spectrum — the padding zeros
// the dual omits would all get weight zero, and excluding a value from a
// zero-padded list leaves every ESP unchanged.
Vector KDpp::MarginalWeights() const {
  const Vector& lambda = eig_.eigenvalues;
  const Vector ratio = ExclusionRatios(lambda, k_);
  Vector w(lambda.size());
  for (int c = 0; c < lambda.size(); ++c) w[c] = lambda[c] * ratio[c];
  return w;
}

Matrix KDpp::MarginalKernel() const {
  const Vector w = MarginalWeights();
  if (rep_ == Rep::kDual) {
    return WeightedLiftedOuter(factor_, eig_.eigenvalues,
                               eig_.eigenvectors, w);
  }
  if (rep_ == Rep::kFactorDiag) {
    Result<Matrix> out =
        FactorDiagWeightedOuter(factor_.v(), fd_diag_, eig_.eigenvalues, w);
    LKP_CHECK(out.ok()) << out.status().ToString();
    return std::move(out).ValueOrDie();
  }
  return WeightedEigenvectorOuter(eig_.eigenvectors, w);
}

Vector KDpp::MarginalDiagonal() const {
  const Vector w = MarginalWeights();
  if (rep_ == Rep::kDual) {
    return WeightedLiftedDiagonal(factor_, eig_.eigenvalues,
                                  eig_.eigenvectors, w);
  }
  if (rep_ == Rep::kFactorDiag) {
    Result<Vector> out = FactorDiagWeightedDiagonal(factor_.v(), fd_diag_,
                                                    eig_.eigenvalues, w);
    LKP_CHECK(out.ok()) << out.status().ToString();
    return std::move(out).ValueOrDie();
  }
  return WeightedEigenvectorDiagonal(eig_.eigenvectors, w);
}

Matrix KDpp::NormalizerGradient() const {
  LKP_CHECK(rep_ == Rep::kPrimal)
      << "NormalizerGradient is primal-only: d Z_k / d L needs the full "
         "eigenvector set, which the factored representations never hold";
  const int m = ground_size();
  const Vector log_excl = LogExclusionEsp(eig_.eigenvalues, k_ - 1);
  Vector w(m);
  for (int c = 0; c < m; ++c) w[c] = std::exp(log_excl[c]);
  return WeightedEigenvectorOuter(eig_.eigenvectors, w);
}

Matrix KDpp::LogNormalizerGradient() const {
  LKP_CHECK(rep_ == Rep::kPrimal)
      << "LogNormalizerGradient is primal-only: d log Z_k / d L needs "
         "the full eigenvector set, which the factored representations "
         "never hold";
  // e_{k-1}(lambda \ c) / Z_k directly, instead of scaling
  // NormalizerGradient by 1 / Z_k: the unnormalized gradient can
  // overflow even when the normalized one is well inside double range.
  return WeightedEigenvectorOuter(eig_.eigenvectors,
                                  ExclusionRatios(eig_.eigenvalues, k_));
}

double BinomialCoefficient(int m, int k) {
  if (k < 0 || k > m) return 0.0;
  k = std::min(k, m - k);
  double out = 1.0;
  for (int i = 1; i <= k; ++i) {
    out = out * static_cast<double>(m - k + i) / static_cast<double>(i);
  }
  return out;
}

bool NextCombination(std::vector<int>* idx, int m) {
  const int k = static_cast<int>(idx->size());
  int pos = k - 1;
  while (pos >= 0 && (*idx)[pos] == m - k + pos) --pos;
  if (pos < 0) return false;
  ++(*idx)[pos];
  for (int j = pos + 1; j < k; ++j) (*idx)[j] = (*idx)[j - 1] + 1;
  return true;
}

}  // namespace lkpdpp
