// Tests for SGD/Adam optimizers: update math, clipping, convergence,
// the non-finite-gradient failure path, and bit-identity of the fused
// chunked step against reference copies of the unfused loops.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "opt/optimizer.h"

namespace lkpdpp {
namespace {

// Reference copies of the unfused steps: clip the grads in place, sweep
// each param element by element, then zero the grads. Both return the
// pre-clip norm.
Result<double> ReferenceSgdStep(const Optimizer::Options& o,
                                const std::vector<ad::Param*>& params) {
  LKP_ASSIGN_OR_RETURN(const double norm,
                       Optimizer::ClipGlobalNorm(params, o.clip_norm));
  for (ad::Param* p : params) {
    for (int r = 0; r < p->value.rows(); ++r) {
      for (int c = 0; c < p->value.cols(); ++c) {
        const double g = p->grad(r, c) + o.weight_decay * p->value(r, c);
        p->value(r, c) -= o.learning_rate * g;
      }
    }
    p->ZeroGrad();
  }
  return norm;
}

class ReferenceAdam {
 public:
  explicit ReferenceAdam(const AdamOptimizer::AdamOptions& o) : o_(o) {}

  Result<double> Step(const std::vector<ad::Param*>& params) {
    LKP_ASSIGN_OR_RETURN(const double norm,
                         Optimizer::ClipGlobalNorm(params, o_.clip_norm));
    if (m_.empty()) {
      for (ad::Param* p : params) {
        m_.emplace_back(p->value.rows(), p->value.cols());
        v_.emplace_back(p->value.rows(), p->value.cols());
      }
    }
    ++t_;
    const double bc1 = 1.0 - std::pow(o_.beta1, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(o_.beta2, static_cast<double>(t_));
    for (size_t i = 0; i < params.size(); ++i) {
      ad::Param* p = params[i];
      Matrix& m = m_[i];
      Matrix& v = v_[i];
      for (int r = 0; r < p->value.rows(); ++r) {
        for (int c = 0; c < p->value.cols(); ++c) {
          const double g = p->grad(r, c) + o_.weight_decay * p->value(r, c);
          m(r, c) = o_.beta1 * m(r, c) + (1.0 - o_.beta1) * g;
          v(r, c) = o_.beta2 * v(r, c) + (1.0 - o_.beta2) * g * g;
          const double mhat = m(r, c) / bc1;
          const double vhat = v(r, c) / bc2;
          p->value(r, c) -=
              o_.learning_rate * mhat / (std::sqrt(vhat) + o_.epsilon);
        }
      }
      p->ZeroGrad();
    }
    return norm;
  }

 private:
  AdamOptimizer::AdamOptions o_;
  long t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

// 4100 x 16 spans several fused-step chunks and ends mid-chunk.
const std::vector<std::pair<int, int>> kShapes = {
    {1, 1}, {7, 3}, {300, 16}, {4100, 16}};

std::vector<ad::Param> MakeParams(
    const std::vector<std::pair<int, int>>& shapes) {
  Rng rng(7);
  std::vector<ad::Param> params;
  for (const auto& [rows, cols] : shapes) {
    Matrix v(rows, cols);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) v(r, c) = rng.Normal(0.0, 1.0);
    }
    params.emplace_back(
        "p" + std::to_string(rows) + "x" + std::to_string(cols),
        std::move(v));
  }
  return params;
}

std::vector<ad::Param*> Ptrs(std::vector<ad::Param>* params) {
  std::vector<ad::Param*> out;
  for (ad::Param& p : *params) out.push_back(&p);
  return out;
}

// Writes the same fresh N(0, 1) grads into both param sets.
void SetGrads(Rng* rng, std::vector<ad::Param>* a,
              std::vector<ad::Param>* b) {
  for (size_t i = 0; i < a->size(); ++i) {
    Matrix& ga = (*a)[i].grad;
    for (int r = 0; r < ga.rows(); ++r) {
      for (int c = 0; c < ga.cols(); ++c) {
        ga(r, c) = rng->Normal(0.0, 1.0);
        (*b)[i].grad(r, c) = ga(r, c);
      }
    }
  }
}

void ExpectBitIdentical(const std::vector<ad::Param>& fused,
                        const std::vector<ad::Param>& ref) {
  for (size_t i = 0; i < fused.size(); ++i) {
    const ad::Param& f = fused[i];
    for (int r = 0; r < f.value.rows(); ++r) {
      for (int c = 0; c < f.value.cols(); ++c) {
        ASSERT_EQ(f.value(r, c), ref[i].value(r, c))
            << f.name << " (" << r << ", " << c << ")";
        ASSERT_EQ(f.grad(r, c), 0.0) << f.name << " (" << r << ", " << c
                                     << ")";
      }
    }
  }
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.rows()) *
                         static_cast<size_t>(a.cols())) == 0;
}

// Every pool shape the fused pass must be invariant to: serial, a
// one-worker pool (two lanes), and odd lane counts.
std::vector<std::unique_ptr<ThreadPool>> TestPools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (int threads : {1, 3, 7}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  return pools;
}

// Clip norms that make clipping active (the N(0, 1) grads have global
// norm ~257) and enabled but inactive.
constexpr double kActiveClip = 0.5;
constexpr double kInactiveClip = 1e9;

TEST(SgdTest, SingleStepMatchesFormula) {
  ad::Param p("p", Matrix{{1.0, -2.0}});
  p.grad = Matrix{{0.5, 1.0}};
  Optimizer::Options opts;
  opts.learning_rate = 0.1;
  opts.clip_norm = 0.0;
  SgdOptimizer sgd(opts);
  ASSERT_TRUE(sgd.Step({&p}).ok());
  EXPECT_NEAR(p.value(0, 0), 1.0 - 0.1 * 0.5, 1e-12);
  EXPECT_NEAR(p.value(0, 1), -2.0 - 0.1 * 1.0, 1e-12);
  // Grad zeroed after step.
  EXPECT_DOUBLE_EQ(p.grad.FrobeniusNorm(), 0.0);
}

TEST(SgdTest, WeightDecayShrinksParameters) {
  ad::Param p("p", Matrix{{10.0}});
  p.grad = Matrix{{0.0}};
  Optimizer::Options opts;
  opts.learning_rate = 0.1;
  opts.weight_decay = 0.5;
  opts.clip_norm = 0.0;
  SgdOptimizer sgd(opts);
  ASSERT_TRUE(sgd.Step({&p}).ok());
  EXPECT_NEAR(p.value(0, 0), 10.0 - 0.1 * 0.5 * 10.0, 1e-12);
}

TEST(ClippingTest, GlobalNormScalesAllParams) {
  ad::Param a("a", Matrix{{0.0}});
  ad::Param b("b", Matrix{{0.0}});
  a.grad = Matrix{{3.0}};
  b.grad = Matrix{{4.0}};  // Global norm = 5.
  auto pre = Optimizer::ClipGlobalNorm({&a, &b}, 1.0);
  ASSERT_TRUE(pre.ok());
  EXPECT_NEAR(*pre, 5.0, 1e-12);
  EXPECT_NEAR(a.grad(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(b.grad(0, 0), 0.8, 1e-12);
}

TEST(ClippingTest, NoScalingBelowThreshold) {
  ad::Param a("a", Matrix{{0.0}});
  a.grad = Matrix{{0.5}};
  ASSERT_TRUE(Optimizer::ClipGlobalNorm({&a}, 1.0).ok());
  EXPECT_NEAR(a.grad(0, 0), 0.5, 1e-12);
}

TEST(ClippingTest, ZeroDisablesClipping) {
  ad::Param a("a", Matrix{{0.0}});
  a.grad = Matrix{{100.0}};
  ASSERT_TRUE(Optimizer::ClipGlobalNorm({&a}, 0.0).ok());
  EXPECT_NEAR(a.grad(0, 0), 100.0, 1e-12);
}

TEST(ClippingTest, NanGradientIsANumericalError) {
  // Regression: a NaN gradient used to produce a NaN norm and silently
  // scale every gradient (and then every parameter) to NaN.
  ad::Param a("a", Matrix{{0.0, 0.0}});
  ad::Param b("healthy", Matrix{{0.0}});
  a.grad = Matrix{{1.0, std::nan("")}};
  b.grad = Matrix{{1e3}};
  auto clipped = Optimizer::ClipGlobalNorm({&a, &b}, 1.0);
  ASSERT_FALSE(clipped.ok());
  EXPECT_EQ(clipped.status().code(), StatusCode::kNumericalError);
  // The culprit param is named and NO grad was rescaled.
  EXPECT_NE(clipped.status().ToString().find("'a'"), std::string::npos);
  EXPECT_DOUBLE_EQ(b.grad(0, 0), 1e3);
}

TEST(ClippingTest, InfGradientIsANumericalError) {
  ad::Param a("a", Matrix{{0.0}});
  a.grad = Matrix{{std::numeric_limits<double>::infinity()}};
  EXPECT_EQ(Optimizer::ClipGlobalNorm({&a}, 5.0).status().code(),
            StatusCode::kNumericalError);
}

TEST(ClippingTest, PooledClippingMatchesSerial) {
  // The per-param norm fan-out must not change the clip factor.
  ThreadPool pool(4);
  std::vector<Matrix> serial_grads;
  for (int trial = 0; trial < 2; ++trial) {
    ad::Param a("a", Matrix{{0.0, 0.0}});
    ad::Param b("b", Matrix{{0.0}, {0.0}});
    a.grad = Matrix{{3.0, 1.0}};
    b.grad = Matrix{{4.0}, {2.0}};
    auto pre = Optimizer::ClipGlobalNorm({&a, &b}, 1.0,
                                         trial == 0 ? nullptr : &pool);
    ASSERT_TRUE(pre.ok());
    if (trial == 0) {
      serial_grads = {a.grad, b.grad};
    } else {
      for (int c = 0; c < 2; ++c) {
        EXPECT_DOUBLE_EQ(a.grad(0, c), serial_grads[0](0, c));
        EXPECT_DOUBLE_EQ(b.grad(c, 0), serial_grads[1](c, 0));
      }
    }
  }
}

TEST(SgdTest, NonFiniteGradLeavesParamsUntouched) {
  ad::Param p("p", Matrix{{2.0}});
  p.grad = Matrix{{std::nan("")}};
  Optimizer::Options opts;
  opts.learning_rate = 0.1;
  SgdOptimizer sgd(opts);
  EXPECT_EQ(sgd.Step({&p}).code(), StatusCode::kNumericalError);
  // No partial update: value intact, grad preserved for inspection.
  EXPECT_DOUBLE_EQ(p.value(0, 0), 2.0);
  EXPECT_TRUE(std::isnan(p.grad(0, 0)));
}

TEST(AdamTest, NonFiniteGradLeavesParamsAndMomentsUntouched) {
  ad::Param p("p", Matrix{{1.0}});
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.1;
  AdamOptimizer adam(opts);
  // One healthy step to materialize moment state.
  p.grad = Matrix{{0.5}};
  ASSERT_TRUE(adam.Step({&p}).ok());
  const double after_first = p.value(0, 0);
  // Poisoned step must fail without moving the value.
  p.grad = Matrix{{std::numeric_limits<double>::infinity()}};
  EXPECT_EQ(adam.Step({&p}).code(), StatusCode::kNumericalError);
  EXPECT_DOUBLE_EQ(p.value(0, 0), after_first);
  // Recovery: a finite grad afterwards steps normally.
  p.grad = Matrix{{0.5}};
  EXPECT_TRUE(adam.Step({&p}).ok());
  EXPECT_LT(p.value(0, 0), after_first);
}

TEST(AdamTest, FirstStepMovesByLearningRate) {
  // With bias correction, the very first Adam step is ~lr * sign(g).
  ad::Param p("p", Matrix{{0.0}});
  p.grad = Matrix{{2.0}};
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.1;
  opts.clip_norm = 0.0;
  AdamOptimizer adam(opts);
  ASSERT_TRUE(adam.Step({&p}).ok());
  EXPECT_NEAR(p.value(0, 0), -0.1, 1e-6);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize f(x) = 0.5 * sum((x - t)^2) to the target t.
  ad::Param p("p", Matrix{{5.0, -3.0}});
  const Matrix target{{1.0, 2.0}};
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.05;
  AdamOptimizer adam(opts);
  for (int step = 0; step < 2000; ++step) {
    p.grad = p.value - target;
    ASSERT_TRUE(adam.Step({&p}).ok());
  }
  EXPECT_NEAR(p.value(0, 0), 1.0, 1e-3);
  EXPECT_NEAR(p.value(0, 1), 2.0, 1e-3);
}

TEST(AdamTest, HandlesMultipleParamsIndependently) {
  ad::Param a("a", Matrix{{4.0}});
  ad::Param b("b", Matrix{{-4.0}});
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.1;
  AdamOptimizer adam(opts);
  for (int step = 0; step < 800; ++step) {
    a.grad = Matrix{{a.value(0, 0)}};
    b.grad = Matrix{{b.value(0, 0)}};
    ASSERT_TRUE(adam.Step({&a, &b}).ok());
  }
  EXPECT_NEAR(a.value(0, 0), 0.0, 1e-2);
  EXPECT_NEAR(b.value(0, 0), 0.0, 1e-2);
}

TEST(AdamTest, PooledStepBitIdenticalToSerial) {
  // The same trajectory must fall out whether the per-param update
  // loops run serially or on a pool.
  ThreadPool pool(4);
  Matrix serial_a, serial_b;
  for (int trial = 0; trial < 2; ++trial) {
    ad::Param a("a", Matrix{{4.0, -1.0}});
    ad::Param b("b", Matrix{{-4.0}, {2.0}});
    AdamOptimizer::AdamOptions opts;
    opts.learning_rate = 0.1;
    AdamOptimizer adam(opts);
    if (trial == 1) adam.SetThreadPool(&pool);
    for (int step = 0; step < 50; ++step) {
      a.grad = a.value;
      b.grad = b.value;
      ASSERT_TRUE(adam.Step({&a, &b}).ok());
    }
    if (trial == 0) {
      serial_a = a.value;
      serial_b = b.value;
    } else {
      EXPECT_DOUBLE_EQ(a.value(0, 0), serial_a(0, 0));
      EXPECT_DOUBLE_EQ(a.value(0, 1), serial_a(0, 1));
      EXPECT_DOUBLE_EQ(b.value(0, 0), serial_b(0, 0));
      EXPECT_DOUBLE_EQ(b.value(1, 0), serial_b(1, 0));
    }
  }
}

TEST(AdamTest, AdaptsToGradientScale) {
  // Adam's per-coordinate normalization moves tiny-gradient coordinates
  // at a comparable pace to large-gradient ones.
  ad::Param p("p", Matrix{{1.0, 1.0}});
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.01;
  opts.clip_norm = 0.0;
  AdamOptimizer adam(opts);
  for (int step = 0; step < 100; ++step) {
    p.grad = Matrix{{1000.0 * p.value(0, 0), 0.001 * p.value(0, 1)}};
    ASSERT_TRUE(adam.Step({&p}).ok());
  }
  // Both coordinates should have moved substantially toward zero.
  EXPECT_LT(p.value(0, 0), 0.7);
  EXPECT_LT(p.value(0, 1), 0.7);
}

TEST(AdamTest, FusedStepMatchesReferenceBitForBit) {
  for (const double clip : {kActiveClip, kInactiveClip}) {
    for (const auto& pool : TestPools()) {
      SCOPED_TRACE(testing::Message()
                   << "clip " << clip << ", threads "
                   << (pool ? pool->num_threads() : 0));
      AdamOptimizer::AdamOptions opts;
      opts.learning_rate = 0.01;
      opts.weight_decay = 1e-3;
      opts.clip_norm = clip;
      AdamOptimizer adam(opts);
      adam.SetThreadPool(pool.get());
      ReferenceAdam ref(opts);
      std::vector<ad::Param> fused = MakeParams(kShapes);
      std::vector<ad::Param> expected = MakeParams(kShapes);
      Rng rng(3);
      for (int step = 0; step < 5; ++step) {
        SetGrads(&rng, &fused, &expected);
        ASSERT_TRUE(adam.Step(Ptrs(&fused)).ok());
        auto norm = ref.Step(Ptrs(&expected));
        ASSERT_TRUE(norm.ok());
        EXPECT_EQ(*norm > clip, clip == kActiveClip);
        ASSERT_NO_FATAL_FAILURE(ExpectBitIdentical(fused, expected));
      }
    }
  }
}

TEST(SgdTest, FusedStepMatchesReferenceBitForBit) {
  for (const double clip : {kActiveClip, kInactiveClip}) {
    for (const auto& pool : TestPools()) {
      SCOPED_TRACE(testing::Message()
                   << "clip " << clip << ", threads "
                   << (pool ? pool->num_threads() : 0));
      Optimizer::Options opts;
      opts.learning_rate = 0.05;
      opts.weight_decay = 1e-3;
      opts.clip_norm = clip;
      SgdOptimizer sgd(opts);
      sgd.SetThreadPool(pool.get());
      std::vector<ad::Param> fused = MakeParams(kShapes);
      std::vector<ad::Param> expected = MakeParams(kShapes);
      Rng rng(5);
      for (int step = 0; step < 5; ++step) {
        SetGrads(&rng, &fused, &expected);
        ASSERT_TRUE(sgd.Step(Ptrs(&fused)).ok());
        auto norm = ReferenceSgdStep(opts, Ptrs(&expected));
        ASSERT_TRUE(norm.ok());
        EXPECT_EQ(*norm > clip, clip == kActiveClip);
        ASSERT_NO_FATAL_FAILURE(ExpectBitIdentical(fused, expected));
      }
    }
  }
}

TEST(AdamTest, NonFiniteGradInMultiChunkParamTouchesNothing) {
  const std::vector<std::pair<int, int>> shapes = {{7, 3}, {4100, 16}};
  ThreadPool pool(3);
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.01;
  opts.weight_decay = 1e-3;
  opts.clip_norm = kActiveClip;
  AdamOptimizer adam(opts);
  adam.SetThreadPool(&pool);
  ReferenceAdam ref(opts);
  std::vector<ad::Param> fused = MakeParams(shapes);
  std::vector<ad::Param> expected = MakeParams(shapes);
  Rng rng(9);
  // One healthy step so the moments hold non-zero state.
  SetGrads(&rng, &fused, &expected);
  ASSERT_TRUE(adam.Step(Ptrs(&fused)).ok());
  ASSERT_TRUE(ref.Step(Ptrs(&expected)).ok());

  // Poison only the last element of the multi-chunk param.
  std::vector<ad::Param> discarded = MakeParams(shapes);
  SetGrads(&rng, &fused, &discarded);
  fused[1].grad(4099, 15) = std::nan("");
  std::vector<Matrix> values_before, grads_before;
  for (const ad::Param& p : fused) {
    values_before.push_back(p.value);
    grads_before.push_back(p.grad);
  }
  const Status status = adam.Step(Ptrs(&fused));
  EXPECT_EQ(status.code(), StatusCode::kNumericalError);
  EXPECT_NE(status.ToString().find("'" + fused[1].name + "'"),
            std::string::npos)
      << status.ToString();
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_TRUE(SameBits(fused[i].value, values_before[i])) << fused[i].name;
    EXPECT_TRUE(SameBits(fused[i].grad, grads_before[i])) << fused[i].name;
  }

  // A finite step afterwards matches a reference that never saw the
  // poisoned step, so neither the moments nor the step count moved.
  SetGrads(&rng, &fused, &expected);
  ASSERT_TRUE(adam.Step(Ptrs(&fused)).ok());
  ASSERT_TRUE(ref.Step(Ptrs(&expected)).ok());
  ASSERT_NO_FATAL_FAILURE(ExpectBitIdentical(fused, expected));
}

TEST(OptimizerNamesTest, Stable) {
  EXPECT_EQ(SgdOptimizer(Optimizer::Options{}).name(), "SGD");
  EXPECT_EQ(AdamOptimizer(AdamOptimizer::AdamOptions{}).name(), "Adam");
}

}  // namespace
}  // namespace lkpdpp
