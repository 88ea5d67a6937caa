// First-order optimizers over autodiff Params.
//
// The paper trains everything with Adam and a grid-searched learning
// rate; SGD is kept for ablations. Both support L2 weight decay and
// global-norm gradient clipping (DPP log-likelihoods can spike early in
// training).
//
// Steps are fallible: a non-finite gradient norm (an instance that blew
// up upstream) aborts the update with a NumericalError before any
// parameter, moment or gradient is touched, instead of silently scaling
// every gradient by NaN.
//
// A step is one norm pass plus one fused update pass. The norm is the
// exact global L2 norm: per-param sums of squares (on the pool when one
// is attached) reduced in fixed param order, so the clip factor never
// depends on the thread count. It stays a sequential sum within each
// param because splitting it would reassociate the additions, which can
// move the clip factor in its last bit and so every trained value. The
// update pass then walks fixed-size element chunks of every param over
// all pool lanes, so one large embedding table is split across every
// lane. Each element applies the clip scale, weight decay, the moment
// updates and the step, and zeroes its gradient, all in one visit and
// in the same operation order as a plain per-element loop. Elements are
// independent, so any chunking and any thread count give bit-identical
// results. optimizer.cc alone compiles with -fno-math-errno so the
// update loop vectorizes `std::sqrt`; the flag only drops errno writes,
// never changes a value, and is scoped to the file so no other code's
// math error reporting changes.

#ifndef LKPDPP_OPT_OPTIMIZER_H_
#define LKPDPP_OPT_OPTIMIZER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/graph.h"
#include "common/result.h"
#include "common/thread_pool.h"

namespace lkpdpp {

/// Base optimizer: owns no parameters, steps the ones it is given.
class Optimizer {
 public:
  struct Options {
    double learning_rate = 0.01;
    double weight_decay = 0.0;
    /// 0 disables clipping.
    double clip_norm = 5.0;
  };

  virtual ~Optimizer() = default;
  virtual std::string name() const = 0;

  /// Applies one update using each param's accumulated grad, then zeroes
  /// the grads. On error (non-finite gradient norm) no param is
  /// modified and the grads are left in place for inspection.
  virtual Status Step(const std::vector<ad::Param*>& params) = 0;

  /// Spreads the norm and update passes over `pool` (results are
  /// bit-identical to the serial path). Pass nullptr to go serial.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Scales all gradients so the global L2 norm is at most `clip_norm`;
  /// returns the pre-clip norm. Fails with NumericalError on a
  /// non-finite norm (NaN/Inf gradients), leaving all grads untouched.
  static Result<double> ClipGlobalNorm(const std::vector<ad::Param*>& params,
                                       double clip_norm,
                                       ThreadPool* pool = nullptr);

 protected:
  /// The shared step skeleton: computes the global gradient norm
  /// (failing before anything is touched if it is not finite), derives
  /// the clip scale (1 when clipping is off or inactive), then calls
  /// update(param, begin, end, scale) for fixed-size element chunks
  /// [begin, end) of every param, on the pool when attached. `update`
  /// must apply the scale itself and leave the chunk's grads zero.
  Status StepChunks(const std::vector<ad::Param*>& params, double clip_norm,
                    const std::function<void(int, size_t, size_t, double)>&
                        update) const;

 private:
  ThreadPool* pool_ = nullptr;
};

/// Plain SGD with optional weight decay.
class SgdOptimizer final : public Optimizer {
 public:
  explicit SgdOptimizer(Options options) : options_(options) {}
  std::string name() const override { return "SGD"; }
  Status Step(const std::vector<ad::Param*>& params) override;

 private:
  Options options_;
};

/// Adam (Kingma & Ba) with bias correction.
class AdamOptimizer final : public Optimizer {
 public:
  struct AdamOptions : Options {
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
  };

  explicit AdamOptimizer(AdamOptions options) : options_(options) {}
  std::string name() const override { return "Adam"; }
  Status Step(const std::vector<ad::Param*>& params) override;

 private:
  struct State {
    Matrix m;
    Matrix v;
  };
  AdamOptions options_;
  long t_ = 0;
  // Keyed by Param pointer; params must be stable across steps.
  std::vector<std::pair<ad::Param*, State>> states_;

  State& StateFor(ad::Param* p);
};

}  // namespace lkpdpp

#endif  // LKPDPP_OPT_OPTIMIZER_H_
