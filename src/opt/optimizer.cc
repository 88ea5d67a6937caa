#include "opt/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lkpdpp {

namespace {

// Elements per unit of work in the fused update pass: big enough that a
// pool claim is noise next to the loop, small enough that an embedding
// table splits across every lane.
constexpr size_t kStepChunk = 4096;

// Non-finite gradients caught before any parameter was touched,
// attributed to the optimizer site.
obs::Counter* OptNumericalErrors() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "lkp_numerical_errors_total{site=\"optimizer\"}");
  return counter;
}

// Exact global L2 norm of every grad. Per-param norms run in parallel
// and are reduced in fixed param order, so the total (and thus the clip
// factor) is thread-count invariant. A non-finite total fails, naming a
// culprit, before anything is modified.
Result<double> GlobalGradNorm(const std::vector<ad::Param*>& params,
                              ThreadPool* pool) {
  const int n = static_cast<int>(params.size());
  std::vector<double> sq(static_cast<size_t>(n), 0.0);
  ParallelForOrSerial(pool, n, [&](int i) {
    const double nrm = params[static_cast<size_t>(i)]->grad.FrobeniusNorm();
    sq[static_cast<size_t>(i)] = nrm * nrm;
  });
  double total = 0.0;
  for (int i = 0; i < n; ++i) total += sq[static_cast<size_t>(i)];
  total = std::sqrt(total);
  if (!std::isfinite(total)) {
    OptNumericalErrors()->Inc();
    // Name a culprit to make the error actionable.
    for (int i = 0; i < n; ++i) {
      if (!params[static_cast<size_t>(i)]->grad.AllFinite()) {
        return Status::NumericalError(
            StrFormat("non-finite gradient in param '%s'",
                      params[static_cast<size_t>(i)]->name.c_str()));
      }
    }
    return Status::NumericalError("non-finite global gradient norm");
  }
  return total;
}

// The per-element update bodies. Restrict pointers and by-value scalars
// let the compiler vectorize them. Each keeps the unfused operation
// order (scaled grad plus decay, true divisions), so results match the
// per-element reference loops bit for bit at any chunking.
void SgdUpdate(double* __restrict value, double* __restrict grad, size_t n,
               double scale, double weight_decay, double learning_rate) {
  for (size_t i = 0; i < n; ++i) {
    const double g = grad[i] * scale + weight_decay * value[i];
    value[i] -= learning_rate * g;
    grad[i] = 0.0;
  }
}

void AdamUpdate(double* __restrict value, double* __restrict grad,
                double* __restrict m, double* __restrict v, size_t n,
                double scale, double weight_decay, double learning_rate,
                double beta1, double beta2, double epsilon, double bc1,
                double bc2) {
  for (size_t i = 0; i < n; ++i) {
    const double g = grad[i] * scale + weight_decay * value[i];
    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
    v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    value[i] -= learning_rate * mhat / (std::sqrt(vhat) + epsilon);
    grad[i] = 0.0;
  }
}

}  // namespace

Result<double> Optimizer::ClipGlobalNorm(
    const std::vector<ad::Param*>& params, double clip_norm,
    ThreadPool* pool) {
  LKP_ASSIGN_OR_RETURN(const double total, GlobalGradNorm(params, pool));
  if (clip_norm > 0.0 && total > clip_norm) {
    const double scale = clip_norm / total;
    ParallelForOrSerial(pool, static_cast<int>(params.size()), [&](int i) {
      params[static_cast<size_t>(i)]->grad *= scale;
    });
  }
  return total;
}

Status Optimizer::StepChunks(
    const std::vector<ad::Param*>& params, double clip_norm,
    const std::function<void(int, size_t, size_t, double)>& update) const {
  LKP_ASSIGN_OR_RETURN(const double total, GlobalGradNorm(params, pool_));
  const double scale =
      clip_norm > 0.0 && total > clip_norm ? clip_norm / total : 1.0;
  struct Chunk {
    int param;
    size_t begin;
    size_t end;
  };
  std::vector<Chunk> chunks;
  for (size_t i = 0; i < params.size(); ++i) {
    const ad::Param& p = *params[i];
    LKP_CHECK(p.grad.rows() == p.value.rows() &&
              p.grad.cols() == p.value.cols())
        << "grad shape differs from value shape in param '" << p.name
        << "'";
    const size_t n = static_cast<size_t>(p.value.rows()) *
                     static_cast<size_t>(p.value.cols());
    for (size_t b = 0; b < n; b += kStepChunk) {
      chunks.push_back({static_cast<int>(i), b, std::min(n, b + kStepChunk)});
    }
  }
  ParallelForOrSerial(pool_, static_cast<int>(chunks.size()), [&](int c) {
    const Chunk& chunk = chunks[static_cast<size_t>(c)];
    update(chunk.param, chunk.begin, chunk.end, scale);
  });
  return Status::OK();
}

Status SgdOptimizer::Step(const std::vector<ad::Param*>& params) {
  LKP_TRACE_SPAN("train.step");
  return StepChunks(
      params, options_.clip_norm,
      [&](int i, size_t begin, size_t end, double scale) {
        ad::Param* p = params[static_cast<size_t>(i)];
        SgdUpdate(p->value.data() + begin, p->grad.data() + begin,
                  end - begin, scale, options_.weight_decay,
                  options_.learning_rate);
      });
}

AdamOptimizer::State& AdamOptimizer::StateFor(ad::Param* p) {
  for (auto& [param, state] : states_) {
    if (param == p) return state;
  }
  states_.push_back(
      {p, State{Matrix(p->value.rows(), p->value.cols()),
                Matrix(p->value.rows(), p->value.cols())}});
  return states_.back().second;
}

Status AdamOptimizer::Step(const std::vector<ad::Param*>& params) {
  LKP_TRACE_SPAN("train.step");
  // Materialize moment states serially: StateFor mutates the registry
  // and must not race with the chunked update pass below.
  for (ad::Param* p : params) StateFor(p);
  // The step counter advances only once the norm check has passed.
  const double t = static_cast<double>(t_ + 1);
  const double bc1 = 1.0 - std::pow(options_.beta1, t);
  const double bc2 = 1.0 - std::pow(options_.beta2, t);
  LKP_RETURN_IF_ERROR(StepChunks(
      params, options_.clip_norm,
      [&](int i, size_t begin, size_t end, double scale) {
        ad::Param* p = params[static_cast<size_t>(i)];
        State& s = StateFor(p);
        AdamUpdate(p->value.data() + begin, p->grad.data() + begin,
                   s.m.data() + begin, s.v.data() + begin, end - begin,
                   scale, options_.weight_decay, options_.learning_rate,
                   options_.beta1, options_.beta2, options_.epsilon, bc1,
                   bc2);
      }));
  ++t_;
  return Status::OK();
}

}  // namespace lkpdpp
