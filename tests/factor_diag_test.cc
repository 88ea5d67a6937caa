// Differential campaign for the factor-plus-diagonal representation:
// FactorDiagSpectrum / FactorDiagEigenvectors against the dense
// SymmetricEigen oracle, KDpp::CreateFactorDiag against the primal
// blend build (including the allocation probe proving the n x n kernel
// is never materialized), the serving layer's per-path attribution, the
// NaN-config validation regressions, and the Nystrom approximation's
// computed error bounds.

#include "linalg/factor_diag.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kdpp.h"
#include "data/synthetic.h"
#include "linalg/eigen.h"
#include "kernels/nystrom.h"
#include "kernels/quality_diversity.h"
#include "models/mf.h"
#include "obs/metrics.h"
#include "serve/kernel_source.h"
#include "serve/model_update.h"
#include "serve/service.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

constexpr double kTol = 1e-10;

// Random positive diagonal with entries in about [0.1, e^2].
Vector RandomDiag(int n, Rng* rng) {
  Vector d(n);
  for (int i = 0; i < n; ++i) d[i] = std::exp(rng->Normal());
  return d;
}

// Dense oracle for W W^T + Diag(diag).
Matrix Materialize(const Matrix& w, const Vector& diag) {
  Matrix l = MatMulTransB(w, w);
  for (int i = 0; i < l.rows(); ++i) l(i, i) += diag[i];
  return l;
}

// The serving blend: Diag(q) (alpha V V^T + (1 - alpha) I) Diag(q),
// materialized primally.
Matrix BlendKernel(const Matrix& v, const Vector& q, double alpha) {
  Matrix k = MatMulTransB(v, v);
  k *= alpha;
  k.AddDiagonal(1.0 - alpha);
  return AssembleKernel(q, k);
}

// The same blend as factor-diag pieces: W = sqrt(alpha) Diag(q) V and
// D_i = (1 - alpha) q_i^2.
struct BlendPieces {
  Matrix w;
  Vector diag;
};

BlendPieces BlendFactorDiag(const Matrix& v, const Vector& q, double alpha) {
  BlendPieces out;
  out.w = v;
  const double sqrt_alpha = std::sqrt(alpha);
  for (int r = 0; r < v.rows(); ++r) {
    for (int c = 0; c < v.cols(); ++c) out.w(r, c) *= sqrt_alpha * q[r];
  }
  out.diag = Vector(v.rows());
  for (int i = 0; i < v.rows(); ++i) {
    out.diag[i] = (1.0 - alpha) * q[i] * q[i];
  }
  return out;
}

LowRankFactor MakeLowRank(Matrix m) {
  auto f = LowRankFactor::Create(std::move(m));
  f.status().CheckOK();
  return std::move(f).ValueOrDie();
}

// ---------------------------------------------------------------------
// Spectrum vs the dense oracle

struct SpectrumCase {
  int n;
  int d;
  uint64_t seed;
};

class SpectrumSweep : public ::testing::TestWithParam<SpectrumCase> {};

TEST_P(SpectrumSweep, MatchesSymmetricEigen) {
  const auto [n, d, seed] = GetParam();
  Rng rng(seed);
  const Matrix w = testutil::RandomMatrix(n, d, &rng);
  const Vector diag = RandomDiag(n, &rng);
  auto spectrum = FactorDiagSpectrum(w, diag);
  ASSERT_TRUE(spectrum.ok()) << spectrum.status().ToString();
  ASSERT_EQ(spectrum->size(), n);
  auto oracle = SymmetricEigen(Materialize(w, diag));
  ASSERT_TRUE(oracle.ok());
  const double scale = std::max(1.0, oracle->eigenvalues.Max());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR((*spectrum)[i], oracle->eigenvalues[i], 1e-9 * scale)
        << "eigenvalue " << i;
    if (i > 0) {
      EXPECT_GE((*spectrum)[i], (*spectrum)[i - 1]);
    }
  }
}

TEST_P(SpectrumSweep, EigenvectorsDiagonalizeTheOperator) {
  const auto [n, d, seed] = GetParam();
  Rng rng(seed ^ 0xE16ULL);
  const Matrix w = testutil::RandomMatrix(n, d, &rng);
  const Vector diag = RandomDiag(n, &rng);
  auto spectrum = FactorDiagSpectrum(w, diag);
  ASSERT_TRUE(spectrum.ok());
  std::vector<int> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  auto vecs = FactorDiagEigenvectors(w, diag, *spectrum, all);
  ASSERT_TRUE(vecs.ok()) << vecs.status().ToString();
  const Matrix l = Materialize(w, diag);
  const double scale = std::max(1.0, spectrum->Max());
  for (int c = 0; c < n; ++c) {
    Vector u(n);
    for (int r = 0; r < n; ++r) u[r] = (*vecs)(r, c);
    EXPECT_NEAR(u.Norm(), 1.0, 1e-9) << "column " << c;
    const Vector lu = MatVec(l, u);
    for (int r = 0; r < n; ++r) {
      EXPECT_NEAR(lu[r], (*spectrum)[c] * u[r], 1e-8 * scale)
          << "residual at (" << r << ", " << c << ")";
    }
    for (int c2 = c + 1; c2 < n; ++c2) {
      double dot = 0.0;
      for (int r = 0; r < n; ++r) dot += (*vecs)(r, c) * (*vecs)(r, c2);
      EXPECT_NEAR(dot, 0.0, 1e-8) << "columns " << c << ", " << c2;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, SpectrumSweep,
    ::testing::Values(SpectrumCase{24, 1, 11}, SpectrumCase{24, 8, 22},
                      SpectrumCase{24, 32, 33}, SpectrumCase{5, 9, 44}),
    [](const ::testing::TestParamInfo<SpectrumCase>& info) {
      return "n" + std::to_string(info.param.n) + "d" +
             std::to_string(info.param.d);
    });

TEST(FactorDiagSpectrumTest, ZeroFactorReturnsSortedDiagonal) {
  const int n = 7;
  Matrix w(n, 3);  // All zero.
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < 3; ++c) w(r, c) = 0.0;
  }
  Vector diag{3.0, 1.0, 2.0, 0.5, 5.0, 4.0, 0.25};
  auto spectrum = FactorDiagSpectrum(w, diag);
  ASSERT_TRUE(spectrum.ok());
  std::vector<double> expected{0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0};
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ((*spectrum)[i], expected[static_cast<size_t>(i)]);
  }
}

TEST(FactorDiagSpectrumTest, DuplicateDiagonalEntriesAndZeroRows) {
  // Repeated diagonal values (poles of multiplicity 3) plus factor rows
  // that are exactly zero: the cluster basis must still span the
  // invariant subspace.
  const int n = 12;
  const int d = 4;
  Rng rng(77);
  Matrix w = testutil::RandomMatrix(n, d, &rng);
  for (int c = 0; c < d; ++c) {
    w(3, c) = 0.0;  // Items 3 and 7 carry no factor mass:
    w(7, c) = 0.0;  // their diag entries are exact eigenvalues.
  }
  Vector diag(n);
  for (int i = 0; i < n; ++i) diag[i] = 1.0 + 0.5 * (i % 4);
  auto spectrum = FactorDiagSpectrum(w, diag);
  ASSERT_TRUE(spectrum.ok());
  auto oracle = SymmetricEigen(Materialize(w, diag));
  ASSERT_TRUE(oracle.ok());
  const double scale = std::max(1.0, oracle->eigenvalues.Max());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR((*spectrum)[i], oracle->eigenvalues[i], 1e-9 * scale);
  }
  std::vector<int> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  auto vecs = FactorDiagEigenvectors(w, diag, *spectrum, all);
  ASSERT_TRUE(vecs.ok()) << vecs.status().ToString();
  const Matrix l = Materialize(w, diag);
  for (int c = 0; c < n; ++c) {
    Vector u(n);
    for (int r = 0; r < n; ++r) u[r] = (*vecs)(r, c);
    const Vector lu = MatVec(l, u);
    for (int r = 0; r < n; ++r) {
      EXPECT_NEAR(lu[r], (*spectrum)[c] * u[r], 1e-8 * scale);
    }
  }
}

TEST(FactorDiagSpectrumTest, ErrorPaths) {
  Rng rng(5);
  const Matrix w = testutil::RandomMatrix(4, 2, &rng);
  EXPECT_FALSE(FactorDiagSpectrum(w, Vector(3)).ok());  // Length mismatch.
  Matrix bad = w;
  bad(1, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(FactorDiagSpectrum(bad, Vector(4)).ok());
  // Trace overflow: factor entries at 1e200 push tr(W^T W) past double
  // range — rejected as NumericalError, not silently inf.
  Matrix huge(4, 2, 1e200);
  Vector diag(4);
  for (int i = 0; i < 4; ++i) diag[i] = 1.0;
  EXPECT_EQ(FactorDiagSpectrum(huge, diag).status().code(),
            StatusCode::kNumericalError);
  // Eigenvector column lists must be strictly ascending and in range.
  const Vector ok_diag = RandomDiag(4, &rng);
  auto spectrum = FactorDiagSpectrum(w, ok_diag);
  ASSERT_TRUE(spectrum.ok());
  EXPECT_FALSE(FactorDiagEigenvectors(w, ok_diag, *spectrum, {2, 1}).ok());
  EXPECT_FALSE(FactorDiagEigenvectors(w, ok_diag, *spectrum, {0, 0}).ok());
  EXPECT_FALSE(FactorDiagEigenvectors(w, ok_diag, *spectrum, {4}).ok());
}

// ---------------------------------------------------------------------
// Dpp / KDpp differential vs the primal blend

struct BlendCase {
  double alpha;
  int d;
  uint64_t seed;
};

class BlendSweep : public ::testing::TestWithParam<BlendCase> {};

TEST_P(BlendSweep, KDppAgreesWithPrimalEverywhere) {
  const auto [alpha, d, seed] = GetParam();
  const int n = 40;
  Rng rng(seed);
  const Matrix v = testutil::RandomMatrix(n, d, &rng);
  Vector q(n);
  for (int i = 0; i < n; ++i) q[i] = std::exp(0.5 * rng.Normal());
  const BlendPieces fd = BlendFactorDiag(v, q, alpha);

  for (int k : {1, std::min(8, d + 1), 12}) {
    auto primal = KDpp::Create(BlendKernel(v, q, alpha), k);
    ASSERT_TRUE(primal.ok()) << primal.status().ToString();
    Vector diag_copy = fd.diag;
    auto factor_diag =
        KDpp::CreateFactorDiag(MakeLowRank(fd.w), std::move(diag_copy), k);
    ASSERT_TRUE(factor_diag.ok()) << factor_diag.status().ToString();
    EXPECT_EQ(factor_diag->ground_size(), n);

    const double lz_p = primal->LogNormalizer();
    EXPECT_NEAR(lz_p, factor_diag->LogNormalizer(),
                kTol * std::max(1.0, std::fabs(lz_p)))
        << "alpha=" << alpha << " k=" << k;

    // LogProb through the Gram-plus-diagonal submatrix.
    std::vector<int> subset;
    for (int i = 0; i < k; ++i) subset.push_back((3 * i + 1) % n);
    std::sort(subset.begin(), subset.end());
    subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
    if (static_cast<int>(subset.size()) == k) {
      auto lp_p = primal->LogProb(subset);
      auto lp_f = factor_diag->LogProb(subset);
      ASSERT_TRUE(lp_p.ok());
      ASSERT_TRUE(lp_f.ok());
      EXPECT_NEAR(*lp_p, *lp_f, 1e-8 * std::max(1.0, std::fabs(*lp_p)));
    }

    const Vector diag_p = primal->MarginalDiagonal();
    const Vector diag_f = factor_diag->MarginalDiagonal();
    const Matrix mk_p = primal->MarginalKernel();
    const Matrix mk_f = factor_diag->MarginalKernel();
    double trace = 0.0;
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(diag_p[i], diag_f[i], 1e-8) << "item " << i;
      trace += diag_f[i];
      for (int j = 0; j < n; ++j) {
        EXPECT_NEAR(mk_p(i, j), mk_f(i, j), 1e-8);
      }
    }
    EXPECT_NEAR(trace, static_cast<double>(k), 1e-7);

    // Fixed-seed sample streams coincide draw for draw: the factor-diag
    // sampler walks the same full spectrum the primal walks.
    Rng master_p(seed ^ 0xFD01ULL);
    Rng master_f(seed ^ 0xFD01ULL);
    for (int t = 0; t < 100; ++t) {
      Rng fork_p = master_p.Fork();
      Rng fork_f = master_f.Fork();
      auto sp = primal->Sample(&fork_p);
      auto sf = factor_diag->Sample(&fork_f);
      ASSERT_TRUE(sp.ok()) << sp.status().ToString();
      ASSERT_TRUE(sf.ok()) << sf.status().ToString();
      ASSERT_EQ(static_cast<int>(sf->size()), k);
      EXPECT_EQ(*sp, *sf)
          << "draw " << t << " diverged (alpha=" << alpha << ", d=" << d
          << ", k=" << k << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Blends, BlendSweep,
    ::testing::Values(BlendCase{0.25, 1, 501}, BlendCase{0.25, 8, 502},
                      BlendCase{0.25, 32, 503}, BlendCase{0.5, 1, 504},
                      BlendCase{0.5, 8, 505}, BlendCase{0.5, 32, 506},
                      BlendCase{0.99, 1, 507}, BlendCase{0.99, 8, 508},
                      BlendCase{0.99, 32, 509}),
    [](const ::testing::TestParamInfo<BlendCase>& info) {
      return "alpha" + std::to_string(static_cast<int>(info.param.alpha * 100)) +
             "d" + std::to_string(info.param.d);
    });

TEST(FactorDiagKDppTest, RankDeficientFactorAgreesWithPrimal) {
  // d = 8 columns but only rank 4 (columns duplicated). The added
  // diagonal keeps the blend full-rank, so every k up to n works — and
  // must match the primal build on the same degenerate factor.
  const int n = 20;
  Rng rng(91);
  Matrix v = testutil::RandomMatrix(n, 8, &rng);
  for (int c = 4; c < 8; ++c) {
    for (int r = 0; r < n; ++r) v(r, c) = v(r, c - 4);
  }
  Vector q(n);
  for (int i = 0; i < n; ++i) q[i] = std::exp(0.3 * rng.Normal());
  const double alpha = 0.6;
  const BlendPieces fd = BlendFactorDiag(v, q, alpha);
  auto primal = KDpp::Create(BlendKernel(v, q, alpha), 6);
  ASSERT_TRUE(primal.ok());
  auto factor_diag = KDpp::CreateFactorDiag(MakeLowRank(fd.w),
                                            Vector(fd.diag), 6);
  ASSERT_TRUE(factor_diag.ok()) << factor_diag.status().ToString();
  EXPECT_NEAR(primal->LogNormalizer(), factor_diag->LogNormalizer(),
              kTol * std::max(1.0, std::fabs(primal->LogNormalizer())));
  Rng master_p(17);
  Rng master_f(17);
  for (int t = 0; t < 100; ++t) {
    Rng fork_p = master_p.Fork();
    Rng fork_f = master_f.Fork();
    auto sp = primal->Sample(&fork_p);
    auto sf = factor_diag->Sample(&fork_f);
    ASSERT_TRUE(sp.ok());
    ASSERT_TRUE(sf.ok());
    EXPECT_EQ(*sp, *sf) << "draw " << t;
  }
}

TEST(FactorDiagKDppTest, ExtremeQualityScalesRejectIdentically) {
  // Quality scales spanning 1e-150 .. 1e150 push the blended spectrum
  // toward double range. k = 1 keeps e_1 finite and must agree; k = 2
  // overflows the ESP table and BOTH representations must reject with
  // the same code rather than sample from a corrupted table.
  const int n = 10;
  Rng rng(47);
  const Matrix v = testutil::RandomMatrix(n, 4, &rng);
  Vector q(n);
  const double scales[4] = {1e150, 1.0, 1e-150, 0.5};
  for (int i = 0; i < n; ++i) q[i] = scales[i % 4];
  const double alpha = 0.5;
  const BlendPieces fd = BlendFactorDiag(v, q, alpha);

  auto primal_1 = KDpp::Create(BlendKernel(v, q, alpha), 1);
  auto factor_1 =
      KDpp::CreateFactorDiag(MakeLowRank(fd.w), Vector(fd.diag), 1);
  ASSERT_TRUE(primal_1.ok()) << primal_1.status().ToString();
  ASSERT_TRUE(factor_1.ok()) << factor_1.status().ToString();
  const double lz_p = primal_1->LogNormalizer();
  EXPECT_NEAR(lz_p, factor_1->LogNormalizer(), 1e-9 * std::fabs(lz_p));

  auto primal_2 = KDpp::Create(BlendKernel(v, q, alpha), 2);
  auto factor_2 =
      KDpp::CreateFactorDiag(MakeLowRank(fd.w), Vector(fd.diag), 2);
  EXPECT_EQ(primal_2.status().code(), StatusCode::kNumericalError)
      << primal_2.status().ToString();
  EXPECT_EQ(factor_2.status().code(), StatusCode::kNumericalError)
      << factor_2.status().ToString();
}

TEST(FactorDiagKDppTest, NeverMaterializesNByNMatrix) {
  // Allocation-probe proof: building the factor-diag k-DPP and drawing
  // from it never constructs a Matrix with n^2 elements. The primal
  // build of the same blend does (that is what the probe is calibrated
  // against).
  const int n = 20;
  const int k = 5;
  Rng rng(19);
  const Matrix v = testutil::RandomMatrix(n, 8, &rng);
  Vector q(n);
  for (int i = 0; i < n; ++i) q[i] = std::exp(0.5 * rng.Normal());
  const BlendPieces fd = BlendFactorDiag(v, q, 0.5);
  LowRankFactor w = MakeLowRank(fd.w);
  Vector diag = fd.diag;
  const long n_sq = static_cast<long>(n) * n;

  matrix_probe::Arm();
  {
    auto factor_diag =
        KDpp::CreateFactorDiag(std::move(w), std::move(diag), k);
    ASSERT_TRUE(factor_diag.ok()) << factor_diag.status().ToString();
    Rng draws(23);
    for (int t = 0; t < 10; ++t) ASSERT_TRUE(factor_diag->Sample(&draws).ok());
  }
  const long peak_fd = matrix_probe::Disarm();
  EXPECT_GT(peak_fd, 0);
  EXPECT_LT(peak_fd, n_sq)
      << "factor-diag k-DPP materialized an n x n matrix";

  matrix_probe::Arm();
  ASSERT_TRUE(KDpp::Create(BlendKernel(v, q, 0.5), k).ok());
  const long peak_primal = matrix_probe::Disarm();
  EXPECT_GE(peak_primal, n_sq)
      << "probe calibration: the primal build must materialize the kernel";
}

TEST(FactorDiagKDppTest, CreateFactorDiagValidatesArguments) {
  Rng rng(3);
  const Matrix v = testutil::RandomMatrix(6, 3, &rng);
  const Vector diag = RandomDiag(6, &rng);
  EXPECT_FALSE(
      KDpp::CreateFactorDiag(MakeLowRank(v), Vector(diag), 0).ok());
  EXPECT_FALSE(
      KDpp::CreateFactorDiag(MakeLowRank(v), Vector(diag), 7).ok());
  EXPECT_FALSE(KDpp::CreateFactorDiag(MakeLowRank(v), Vector(3), 2).ok());
  Vector bad = diag;
  bad[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      KDpp::CreateFactorDiag(MakeLowRank(v), std::move(bad), 2).ok());
  auto kdpp = KDpp::CreateFactorDiag(MakeLowRank(v), Vector(diag), 2);
  ASSERT_TRUE(kdpp.ok());
  EXPECT_FALSE(kdpp->Sample(nullptr).ok());
}

// ---------------------------------------------------------------------
// Serving: factor-diag sampling vs the forced-primal oracle

struct ServeWorld {
  Dataset dataset;
  std::unique_ptr<MfModel> model;
  DiversityKernel diversity;
};

ServeWorld* World() {
  static ServeWorld* world = [] {
    SyntheticConfig cfg;
    cfg.name = "factor-diag-world";
    cfg.num_users = 60;
    cfg.num_items = 80;
    cfg.num_categories = 10;
    cfg.num_events = 6000;
    cfg.min_interactions = 8;
    cfg.seed = 77;
    auto ds = GenerateSyntheticDataset(cfg);
    ds.status().CheckOK();
    Dataset dataset = std::move(ds).ValueOrDie();
    DiversityKernel diversity =
        DiversityKernel::Random(dataset.num_items(), 8, /*seed=*/23);
    auto* w = new ServeWorld{std::move(dataset), nullptr,
                             std::move(diversity)};
    MfModel::Config mcfg;
    mcfg.embedding_dim = 8;
    mcfg.seed = 5;
    w->model = std::make_unique<MfModel>(w->dataset.num_users(),
                                         w->dataset.num_items(), mcfg);
    return w;
  }();
  return world;
}

ServeConfig SampleConfig(double alpha) {
  ServeConfig config;
  config.mode = ServeMode::kSample;
  config.top_k = 5;
  config.pool_size = 20;
  config.kernel_blend_alpha = alpha;
  config.cache_capacity = 256;
  config.seed = 4321;
  return config;
}

std::vector<RecRequest> RoundRobinBatch(int batch_size, int offset) {
  std::vector<RecRequest> batch;
  const int num_users = World()->dataset.num_users();
  for (int i = 0; i < batch_size; ++i) {
    batch.push_back(RecRequest{(offset + i) % num_users});
  }
  return batch;
}

// ---------------------------------------------------------------------
// Per-path attribution: the full decision table. Every cell asserts the
// path on the cold miss, the same path on the warm hit (read back from
// ServedKernel::path), and exactly one lkp_serve_path_total{path} and one
// lkp_serve_cache_build_ms{path} observation per build, all on that path.

TEST(FactorDiagServeTest, PathAttributionIsPerRepresentation) {
  ServeWorld* w = World();
  const ServePath kAllPaths[] = {ServePath::kPrimal, ServePath::kDualSample,
                                 ServePath::kFactorDiagSample,
                                 ServePath::kFactorMap, ServePath::kDiagMap};
  auto path_total = [](ServePath p) {
    return obs::MetricsRegistry::Global().GetCounter(
        std::string("lkp_serve_path_total{path=\"") + ServePathName(p) +
        "\"}");
  };
  auto build_ms = [](ServePath p) {
    return obs::MetricsRegistry::Global().GetHistogram(
        std::string("lkp_serve_cache_build_ms{path=\"") + ServePathName(p) +
            "\"}",
        obs::LatencyBucketsMs());
  };
  // The path each (mode, alpha) takes when pools are wider than the
  // factor rank (8) and when they are narrower; force_primal pins
  // kPrimal in every cell. Blended sampling builds primally at every
  // pool size.
  struct Row {
    ServeMode mode;
    double alpha;
    ServePath wide_pool;
    ServePath narrow_pool;
  };
  const Row kTable[] = {
      {ServeMode::kMapRerank, 0.0, ServePath::kDiagMap, ServePath::kDiagMap},
      {ServeMode::kMapRerank, 0.4, ServePath::kFactorMap, ServePath::kPrimal},
      {ServeMode::kMapRerank, 1.0, ServePath::kFactorMap, ServePath::kPrimal},
      {ServeMode::kSample, 0.0, ServePath::kPrimal, ServePath::kPrimal},
      {ServeMode::kSample, 0.4, ServePath::kPrimal, ServePath::kPrimal},
      {ServeMode::kSample, 1.0, ServePath::kDualSample, ServePath::kPrimal},
  };
  for (const Row& row : kTable) {
    for (bool force_primal : {false, true}) {
      for (int pool_size : {20, 6}) {
        const ServePath expected =
            force_primal ? ServePath::kPrimal
                         : pool_size > 8 ? row.wide_pool : row.narrow_pool;
        ServeConfig cfg = SampleConfig(row.alpha);
        cfg.mode = row.mode;
        cfg.force_primal = force_primal;
        cfg.pool_size = pool_size;
        SCOPED_TRACE(std::string(ServeModeName(row.mode)) + " alpha=" +
                     std::to_string(row.alpha) +
                     " force_primal=" + std::to_string(force_primal) +
                     " pool=" + std::to_string(pool_size) +
                     " expected=" + ServePathName(expected));
        auto service = RecommendationService::Create(
            &w->dataset, w->model.get(), &w->diversity, nullptr, cfg);
        ASSERT_TRUE(service.ok());
        std::vector<long> totals_before;
        std::vector<long> builds_before;
        for (ServePath p : kAllPaths) {
          totals_before.push_back(path_total(p)->Value());
          builds_before.push_back(build_ms(p)->Count());
        }

        const std::vector<RecRequest> batch = RoundRobinBatch(16, 0);
        auto cold = (*service)->HandleBatch(batch);
        ASSERT_TRUE(cold.ok()) << cold.status().ToString();
        for (const RecResponse& r : *cold) {
          if (r.items.empty()) continue;
          EXPECT_FALSE(r.cache_hit);
          EXPECT_STREQ(ServePathName(r.path), ServePathName(expected));
        }
        const long builds = (*service)->cache().builds();
        EXPECT_GT(builds, 0);
        for (size_t i = 0; i < std::size(kAllPaths); ++i) {
          const long want = kAllPaths[i] == expected ? builds : 0;
          EXPECT_EQ(path_total(kAllPaths[i])->Value() - totals_before[i],
                    want)
              << "lkp_serve_path_total for " << ServePathName(kAllPaths[i]);
          EXPECT_EQ(build_ms(kAllPaths[i])->Count() - builds_before[i], want)
              << "lkp_serve_cache_build_ms for "
              << ServePathName(kAllPaths[i]);
        }

        auto warm = (*service)->HandleBatch(batch);
        ASSERT_TRUE(warm.ok()) << warm.status().ToString();
        for (const RecResponse& r : *warm) {
          if (r.items.empty()) continue;
          EXPECT_TRUE(r.cache_hit);
          EXPECT_STREQ(ServePathName(r.path), ServePathName(expected))
              << "warm hit changed the path";
        }
        EXPECT_EQ((*service)->cache().builds(), builds);
      }
    }
  }
}

TEST(FactorDiagServeTest, ServePathNamesAreStable) {
  EXPECT_STREQ(ServePathName(ServePath::kPrimal), "primal");
  EXPECT_STREQ(ServePathName(ServePath::kDualSample), "dual_sample");
  EXPECT_STREQ(ServePathName(ServePath::kFactorDiagSample),
               "factor_diag_sample");
  EXPECT_STREQ(ServePathName(ServePath::kFactorMap), "factor_map");
  EXPECT_STREQ(ServePathName(ServePath::kDiagMap), "diag_map");
}

// ---------------------------------------------------------------------
// Config validation regressions (NaN used to pass the range checks)

TEST(ConfigValidationTest, ServeConfigRejectsNonFiniteFields) {
  ServeWorld* w = World();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto create = [&](const ServeConfig& cfg) {
    return RecommendationService::Create(&w->dataset, w->model.get(),
                                         &w->diversity, nullptr, cfg)
        .ok();
  };
  // Regression: `alpha < 0 || alpha > 1` waved NaN straight through.
  ServeConfig cfg = SampleConfig(0.5);
  cfg.kernel_blend_alpha = nan;
  EXPECT_FALSE(create(cfg));
  cfg = SampleConfig(0.5);
  cfg.kernel_blend_alpha = inf;
  EXPECT_FALSE(create(cfg));
  cfg = SampleConfig(0.5);
  cfg.batch_deadline_ms = nan;
  EXPECT_FALSE(create(cfg));
  cfg = SampleConfig(0.5);
  cfg.batch_deadline_ms = inf;
  EXPECT_FALSE(create(cfg));
  cfg = SampleConfig(0.5);
  cfg.approx_error_budget = nan;
  EXPECT_FALSE(create(cfg));
  cfg = SampleConfig(0.5);
  cfg.approx_factor_rank = -1;
  EXPECT_FALSE(create(cfg));
  EXPECT_TRUE(create(SampleConfig(0.5)));
}

TEST(ConfigValidationTest, UpdateConfigRejectsNonFiniteJitter) {
  ServeWorld* w = World();
  auto service = RecommendationService::Create(
      &w->dataset, w->model.get(), &w->diversity, nullptr,
      SampleConfig(0.5));
  ASSERT_TRUE(service.ok());
  UpdateConfig cfg;
  cfg.kernel_set_size = 4;
  cfg.kernel_jitter = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ModelUpdater::Create(&w->dataset, w->model.get(),
                                    &w->diversity, service->get(), cfg)
                   .ok());
  cfg.kernel_jitter = 1e-4;
  EXPECT_TRUE(ModelUpdater::Create(&w->dataset, w->model.get(),
                                   &w->diversity, service->get(), cfg)
                  .ok());
}

TEST(ConfigValidationTest, TrainConfigRejectsNonFiniteRates) {
  ServeWorld* w = World();
  DiversityKernel::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.pairs_per_epoch = 4;
  cfg.learning_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DiversityKernel::Train(w->dataset, cfg).ok());
  cfg.learning_rate = 0.05;
  cfg.jitter = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(DiversityKernel::Train(w->dataset, cfg).ok());
}

// ---------------------------------------------------------------------
// Nystrom approximation: computed bounds, and the serving budget gate

TEST(NystromTest, FullRankReconstructsExactly) {
  Rng rng(19);
  const int n = 12;
  const Matrix k = testutil::RandomCorrelationKernel(n, &rng);
  auto approx = PivotedCholeskyApproximation(
      n, n, 0.0, [&](int i, int j) { return k(i, j); });
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_LE(approx->trace_error_bound, 1e-8);
  const Matrix rebuilt = MatMulTransB(approx->factor, approx->factor);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(rebuilt(i, j), k(i, j), 1e-7) << "(" << i << "," << j
                                                << ")";
    }
  }
}

TEST(NystromTest, TruncatedBoundsAreValid) {
  Rng rng(29);
  const int n = 16;
  const Matrix k = testutil::RandomCorrelationKernel(n, &rng);
  for (int max_rank : {2, 4, 8}) {
    auto approx = PivotedCholeskyApproximation(
        n, max_rank, 0.0, [&](int i, int j) { return k(i, j); });
    ASSERT_TRUE(approx.ok());
    EXPECT_LE(approx->factor.cols(), max_rank);
    const Matrix rebuilt = MatMulTransB(approx->factor, approx->factor);
    double max_err = 0.0;
    double trace_err = 0.0;
    for (int i = 0; i < n; ++i) {
      trace_err += k(i, i) - rebuilt(i, i);
      for (int j = 0; j < n; ++j) {
        max_err = std::max(max_err, std::fabs(k(i, j) - rebuilt(i, j)));
      }
    }
    // The computed bounds are exact identities of the partial Cholesky;
    // allow round-off slack only.
    EXPECT_LE(max_err, approx->entry_error_bound + 1e-9)
        << "max_rank=" << max_rank;
    EXPECT_LE(std::fabs(trace_err - approx->trace_error_bound), 1e-8);
    // Bounds shrink (weakly) as rank grows.
  }
}

TEST(NystromTest, GaussianNystromMatchesExactSubmatrix) {
  Rng rng(31);
  const Matrix embeddings = testutil::RandomMatrix(30, 5, &rng);
  const std::vector<int> pool{2, 5, 9, 11, 14, 17, 20, 23, 26, 29};
  const double sigma = 1.5;
  GaussianKernelSource source(embeddings, sigma, /*max_rank=*/10);
  const Matrix exact = source.PoolSubmatrix(pool);
  EXPECT_EQ(exact.rows(), 10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(exact(i, i), 1.0);
  // Full-rank Nystrom reconstructs the exact submatrix.
  auto approx = GaussianNystrom(embeddings, pool, sigma, 10, 0.0);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  const Matrix rebuilt = MatMulTransB(approx->factor, approx->factor);
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      EXPECT_NEAR(rebuilt(i, j), exact(i, j), 1e-8);
    }
  }
  // Truncated Nystrom honors its own computed bound.
  auto truncated = GaussianNystrom(embeddings, pool, sigma, 4, 0.0);
  ASSERT_TRUE(truncated.ok());
  const Matrix coarse = MatMulTransB(truncated->factor, truncated->factor);
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      EXPECT_LE(std::fabs(coarse(i, j) - exact(i, j)),
                truncated->entry_error_bound + 1e-9);
    }
  }
  EXPECT_GT(truncated->entry_error_bound, 0.0);
}

TEST(NystromTest, RejectsBadArguments) {
  EXPECT_FALSE(PivotedCholeskyApproximation(0, 4, 0.0, nullptr).ok());
  EXPECT_FALSE(
      PivotedCholeskyApproximation(4, 0, 0.0, [](int, int) { return 1.0; })
          .ok());
  EXPECT_FALSE(PivotedCholeskyApproximation(
                   4, 2, std::numeric_limits<double>::quiet_NaN(),
                   [](int, int) { return 1.0; })
                   .ok());
  Rng rng(7);
  const Matrix e = testutil::RandomMatrix(6, 3, &rng);
  EXPECT_FALSE(GaussianNystrom(e, {0, 1}, 0.0, 2, 0.0).ok());
  EXPECT_FALSE(GaussianNystrom(e, {0, 9}, 1.0, 2, 0.0).ok());
  EXPECT_FALSE(GaussianNystrom(e, {}, 1.0, 2, 0.0).ok());
}

TEST(GaussianServeTest, ApproximationIsOptInAndBudgetGated) {
  ServeWorld* w = World();
  Rng rng(41);
  Matrix embeddings =
      testutil::RandomMatrix(w->dataset.num_items(), 6, &rng);
  obs::Counter* fallback = obs::MetricsRegistry::Global().GetCounter(
      "lkp_serve_approx_fallback_total");
  // Blended MAP rerank: the mode whose thin path (kFactorMap) a factor
  // thinner than the pool engages at 0 < alpha < 1.
  auto map_config = [] {
    ServeConfig cfg = SampleConfig(0.5);
    cfg.mode = ServeMode::kMapRerank;
    return cfg;
  };

  // Default config (approx_factor_rank == 0): approximation disabled,
  // every pool serves exactly through the primal path.
  {
    auto service = RecommendationService::CreateGaussian(
        &w->dataset, w->model.get(), Matrix(embeddings), 1.5, nullptr,
        map_config());
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    auto responses = (*service)->HandleBatch(RoundRobinBatch(12, 0));
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    for (const RecResponse& r : *responses) {
      if (r.items.empty()) continue;
      EXPECT_EQ(r.path, ServePath::kPrimal);
    }
  }

  // Opt in with a generous budget: the factor-backed rep engages.
  {
    ServeConfig cfg = map_config();
    cfg.approx_factor_rank = 6;
    cfg.approx_error_budget = 1.0;  // Gaussian entries are <= 1 anyway.
    auto service = RecommendationService::CreateGaussian(
        &w->dataset, w->model.get(), Matrix(embeddings), 1.5, nullptr,
        cfg);
    ASSERT_TRUE(service.ok());
    auto responses = (*service)->HandleBatch(RoundRobinBatch(12, 0));
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    bool engaged = false;
    for (const RecResponse& r : *responses) {
      engaged = engaged || r.path == ServePath::kFactorMap;
    }
    EXPECT_TRUE(engaged) << "approximate factor never engaged";
  }

  // Opt in with an impossible budget: every pool falls back to the
  // exact primal build, the fallback counter says so, and the responses
  // are bit-identical to the never-opted-in service.
  {
    ServeConfig cfg = map_config();
    cfg.approx_factor_rank = 4;
    cfg.approx_error_budget = 0.0;
    auto gated = RecommendationService::CreateGaussian(
        &w->dataset, w->model.get(), Matrix(embeddings), 1.5, nullptr,
        cfg);
    auto exact = RecommendationService::CreateGaussian(
        &w->dataset, w->model.get(), Matrix(embeddings), 1.5, nullptr,
        map_config());
    ASSERT_TRUE(gated.ok());
    ASSERT_TRUE(exact.ok());
    const long before = fallback->Value();
    auto rg = (*gated)->HandleBatch(RoundRobinBatch(12, 0));
    auto re = (*exact)->HandleBatch(RoundRobinBatch(12, 0));
    ASSERT_TRUE(rg.ok());
    ASSERT_TRUE(re.ok());
    EXPECT_GT(fallback->Value(), before);
    for (size_t i = 0; i < rg->size(); ++i) {
      EXPECT_EQ((*rg)[i].path, ServePath::kPrimal);
      EXPECT_EQ((*rg)[i].items, (*re)[i].items)
          << "budget fallback changed a response";
    }
  }
}

}  // namespace
}  // namespace lkpdpp
