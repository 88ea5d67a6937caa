#include "core/dpp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "linalg/lu.h"

namespace lkpdpp {

Result<std::vector<int>> SampleElementaryDpp(Matrix basis, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const int m = basis.rows();
  const int dim = basis.cols();
  // Chain rule for the projection kernel K = V V^T (Tremblay, Barthelme &
  // Amblard 2018): the weight of item i after picks j_0..j_{t-1} is the
  // Schur complement d_i = K_ii - K_iJ K_JJ^{-1} K_Ji, kept up to date by
  // one new Cholesky column per pick, O(m k) each. Basis vectors and
  // Cholesky columns are stored as contiguous rows over items, so every
  // update is a unit-stride sweep.
  const size_t stride = static_cast<size_t>(m);
  std::vector<double> vt(static_cast<size_t>(dim) * stride);
  for (int i = 0; i < m; ++i) {
    for (int c = 0; c < dim; ++c) vt[c * stride + i] = basis(i, c);
  }
  std::vector<double> chol(static_cast<size_t>(dim) * stride);
  std::vector<double> d(stride, 0.0);
  for (int c = 0; c < dim; ++c) {
    const double* v = vt.data() + c * stride;
    for (int i = 0; i < m; ++i) d[i] += v[i] * v[i];
  }
  std::vector<int> items;
  items.reserve(static_cast<size_t>(dim));

  for (int t = 0; t < dim; ++t) {
    // d doubles as the selection weights. A chosen item's d is reset to 0
    // after its own update and afterwards only loses round-off squares, so
    // it stays <= 0 (as round-off can leave other entries); Categorical
    // reads those as zero. d is not clamped, so a NaN reaches `total`.
    double total = 0.0;
    for (double w : d) total += w;
    if (!(total > 0.0) || std::isinf(total)) {
      // All residual mass underflowed (or went non-finite). Categorical's
      // uniform fallback would ignore the already-chosen items and could
      // emit a duplicate index; fail loudly instead.
      return Status::NumericalError(
          "elementary DPP sampler: residual weights vanished over "
          "unchosen items");
    }
    // For an orthonormal basis the residual trace is exactly dim - t. A
    // rank-deficient basis runs out of rank first: its residual falls to
    // round-off while dim - t >= 1, and the chain rule would go on
    // drawing from that round-off.
    if (total < 0.5 * (dim - t)) {
      return Status::NumericalError(
          "elementary DPP sampler: basis collapsed");
    }
    const int item = rng->Categorical(d);
    items.push_back(item);
    if (t == dim - 1) break;

    const double dj = d[item];
    if (!(dj > 0.0)) {
      return Status::NumericalError(
          "elementary DPP sampler: chosen item has no support");
    }
    // c_t = (V V_item^T - sum_{l<t} c_l c_l[item]) / sqrt(d_item).
    double* ct = chol.data() + t * stride;
    std::fill(ct, ct + m, 0.0);
    for (int c = 0; c < dim; ++c) {
      const double* v = vt.data() + c * stride;
      const double a = v[item];
      for (int i = 0; i < m; ++i) ct[i] += a * v[i];
    }
    for (int l = 0; l < t; ++l) {
      const double* cl = chol.data() + l * stride;
      const double b = cl[item];
      for (int i = 0; i < m; ++i) ct[i] -= b * cl[i];
    }
    const double inv = 1.0 / std::sqrt(dj);
    for (int i = 0; i < m; ++i) {
      ct[i] *= inv;
      d[i] -= ct[i] * ct[i];
    }
    d[item] = 0.0;
  }
  std::sort(items.begin(), items.end());
  return items;
}

Dpp::Dpp(Matrix kernel, EigenDecomposition eig, double log_z)
    : kernel_(std::move(kernel)), eig_(std::move(eig)), log_z_(log_z) {}

Result<Dpp> Dpp::Create(Matrix kernel) {
  if (kernel.rows() != kernel.cols()) {
    return Status::InvalidArgument(
        StrFormat("DPP kernel must be square, got %dx%d", kernel.rows(),
                  kernel.cols()));
  }
  if (!kernel.AllFinite()) {
    return Status::NumericalError("DPP kernel contains non-finite values");
  }
  LKP_ASSIGN_OR_RETURN(EigenDecomposition eig, SymmetricEigen(kernel));
  // Shared PSD-boundary handling (see ClampSpectrumToPsd): eigenvalues
  // within working precision of zero (either sign) are clamped to exactly
  // zero, genuinely indefinite kernels are rejected.
  LKP_RETURN_IF_ERROR(
      ClampSpectrumToPsd(&eig.eigenvalues, kernel.rows()));
  double log_z = 0.0;
  for (int i = 0; i < eig.eigenvalues.size(); ++i) {
    log_z += std::log1p(eig.eigenvalues[i]);
  }
  return Dpp(std::move(kernel), std::move(eig), log_z);
}

Result<double> Dpp::LogProb(const std::vector<int>& subset) const {
  std::vector<int> sorted = subset;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] < 0 || sorted[i] >= ground_size()) {
      return Status::OutOfRange(
          StrFormat("subset index %d outside ground set of size %d",
                    sorted[i], ground_size()));
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument(
          StrFormat("duplicate index %d in subset", sorted[i]));
    }
  }
  if (sorted.empty()) return -log_z_;  // det of empty matrix is 1.
  LKP_ASSIGN_OR_RETURN(double det,
                       Determinant(kernel_.PrincipalSubmatrix(sorted)));
  if (det <= 0.0) return -std::numeric_limits<double>::infinity();
  return std::log(det) - log_z_;
}

Result<double> Dpp::Prob(const std::vector<int>& subset) const {
  LKP_ASSIGN_OR_RETURN(double lp, LogProb(subset));
  return std::exp(lp);
}

// Per-column marginal weight lambda / (1 + lambda) — zero exactly on
// zero eigenvalues.
static Vector DppMarginalWeights(const Vector& lambda) {
  Vector w(lambda.size());
  for (int c = 0; c < lambda.size(); ++c) {
    w[c] = lambda[c] / (1.0 + lambda[c]);
  }
  return w;
}

Matrix Dpp::MarginalKernel() const {
  const int m = ground_size();
  const Vector w = DppMarginalWeights(eig_.eigenvalues);
  Matrix scaled(m, m);
  for (int c = 0; c < m; ++c) {
    for (int r = 0; r < m; ++r) {
      scaled(r, c) = eig_.eigenvectors(r, c) * w[c];
    }
  }
  Matrix out = MatMulTransB(scaled, eig_.eigenvectors);
  out.Symmetrize();
  return out;
}

Vector Dpp::MarginalDiagonal() const {
  const Vector w = DppMarginalWeights(eig_.eigenvalues);
  return WeightedEigenvectorDiagonal(eig_.eigenvectors, w);
}

double Dpp::ExpectedSize() const {
  double s = 0.0;
  for (int i = 0; i < eig_.eigenvalues.size(); ++i) {
    s += eig_.eigenvalues[i] / (1.0 + eig_.eigenvalues[i]);
  }
  return s;
}

Result<std::vector<int>> Dpp::Sample(Rng* rng) const {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const int m = ground_size();
  std::vector<int> selected;
  for (int i = 0; i < m; ++i) {
    const double lam = eig_.eigenvalues[i];
    if (rng->Uniform() < lam / (1.0 + lam)) selected.push_back(i);
  }
  if (selected.empty()) return std::vector<int>{};
  const int dim = static_cast<int>(selected.size());
  Matrix basis(m, dim);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < dim; ++c) {
      basis(r, c) = eig_.eigenvectors(r, selected[static_cast<size_t>(c)]);
    }
  }
  return SampleElementaryDpp(std::move(basis), rng);
}

}  // namespace lkpdpp
