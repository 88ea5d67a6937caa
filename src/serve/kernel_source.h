// What the serving path needs from an item-item kernel.
//
// RecommendationService historically hard-wired the pre-learned
// DiversityKernel (K = V V^T, exact factor always available). The
// paper's E-type variants (PSE/NPSE) serve a *trainable Gaussian* kernel
// instead — K_ij = exp(-||e_i - e_j||^2 / (2 sigma^2)) over learned
// embeddings — which has no exact thin factor at all. This interface
// narrows serving's dependency to the two things it actually consumes:
//
//   PoolSubmatrix  — exact K_S entries for a candidate pool (the primal
//                    build path and the differential oracle), and
//   PoolFactor     — a pool-local factor F with K_S ~= F F^T plus a
//                    COMPUTED entry-error bound, feeding the dual
//                    sampling and factor-rep MAP thin paths.
//
// DiversityKernelSource is exact (bound 0, factor rows straight off the
// trained factor). GaussianKernelSource is approximate: it builds a
// Nystrom factor by pivoted Cholesky (kernels/nystrom.h) and reports the
// exact residual bound, which the service compares against the
// explicitly-opted-in ServeConfig::approx_error_budget before trusting
// the factor; pools whose bound misses the budget fall back to the exact
// primal build, so approximation never silently degrades a response.

#ifndef LKPDPP_SERVE_KERNEL_SOURCE_H_
#define LKPDPP_SERVE_KERNEL_SOURCE_H_

#include <vector>

#include "common/result.h"
#include "kernels/diversity_kernel.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// Abstract item-item PSD kernel as consumed by serving. Implementations
/// must be immutable once handed to a service (serving reads them
/// concurrently with no locks).
class ServingKernelSource {
 public:
  virtual ~ServingKernelSource() = default;

  /// Catalog size the kernel covers.
  virtual int num_items() const = 0;

  /// Rank (column count) of the factor PoolFactor would return for a
  /// pool of this size; <= 0 when no thin factor is available. The
  /// service's cost model compares this against the pool size.
  virtual int ThinRank(int pool_size) const = 0;

  /// True when PoolFactor reproduces PoolSubmatrix exactly (up to
  /// round-off) — the thin paths then need no error budget.
  virtual bool exact() const = 0;

  /// A pool-local factor: rows is |pool| x r with K_S ~= rows * rows^T.
  struct ThinFactor {
    Matrix rows;
    /// Computed bound on max_ij |K_ij - (rows rows^T)_ij| over the pool.
    /// Exactly 0 for exact sources.
    double entry_error_bound = 0.0;
  };

  /// Builds the factor for one pool. Only called when
  /// ThinRank(pool.size()) > 0.
  virtual Result<ThinFactor> PoolFactor(const std::vector<int>& pool)
      const = 0;

  /// Exact principal submatrix K_S for the pool.
  virtual Matrix PoolSubmatrix(const std::vector<int>& pool) const = 0;
};

/// The pre-learned low-rank diversity kernel: exact factor rows, zero
/// error bound. Does not own the kernel; it must outlive this source.
class DiversityKernelSource : public ServingKernelSource {
 public:
  explicit DiversityKernelSource(const DiversityKernel* kernel)
      : kernel_(kernel) {}

  int num_items() const override { return kernel_->num_items(); }
  int ThinRank(int pool_size) const override;
  bool exact() const override { return true; }
  Result<ThinFactor> PoolFactor(const std::vector<int>& pool) const override;
  Matrix PoolSubmatrix(const std::vector<int>& pool) const override;

 private:
  const DiversityKernel* kernel_;
};

/// Trainable Gaussian kernel over item embeddings (paper's E variants),
/// served through a per-pool Nystrom factor with a computed error bound.
/// Owns a copy of the embeddings (a serving snapshot: training may keep
/// mutating its own copy).
class GaussianKernelSource : public ServingKernelSource {
 public:
  /// `max_rank` caps the Nystrom factor (0 disables the thin path
  /// entirely: ThinRank then reports 0 and serving stays exact/primal).
  /// `tolerance` stops pivoting early once the residual trace drops
  /// below it.
  GaussianKernelSource(Matrix embeddings, double sigma, int max_rank,
                       double tolerance = 0.0);

  int num_items() const override { return embeddings_.rows(); }
  int ThinRank(int pool_size) const override;
  bool exact() const override { return false; }
  Result<ThinFactor> PoolFactor(const std::vector<int>& pool) const override;
  Matrix PoolSubmatrix(const std::vector<int>& pool) const override;

  double sigma() const { return sigma_; }

 private:
  Matrix embeddings_;
  double sigma_;
  int max_rank_;
  double tolerance_;
};

}  // namespace lkpdpp

#endif  // LKPDPP_SERVE_KERNEL_SOURCE_H_
