// Differential campaign: the low-rank dual representation (CreateDual,
// Gartrell et al. 2016) against the primal path (Create) everywhere the
// two overlap. The contract under test is strict: for the same factor V
// the two representations must agree on eigenvalue multisets, detected
// rank, normalizers, and marginal probabilities to 1e-10 — and, for a
// shared Rng::Fork discipline, produce IDENTICAL sample streams, because
// the dual sampler consumes its Rng draw-for-draw like the primal one.
// Coverage spans ranks d in {1, 2, 8, 32}, rank-deficient factors,
// duplicated rows (identical items), and extreme column scales
// (1e-150 / 1e150).

#include "linalg/low_rank.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/kdpp.h"
#include "kernels/quality_diversity.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

constexpr double kTol = 1e-10;

LowRankFactor MakeFactor(int n, int d, uint64_t seed) {
  Rng rng(seed);
  auto f = LowRankFactor::Create(testutil::RandomMatrix(n, d, &rng));
  f.status().CheckOK();
  return std::move(f).ValueOrDie();
}

// Factor with orthonormal columns scaled so L = V V^T has exactly the
// given spectrum (plus n - d zeros). Two passes: orthonormalize via
// Gram-Schmidt (projections against unit columns, so no division by
// prior norms is needed), then scale each unit column by sqrt(lambda).
// n must comfortably exceed d so the columns stay independent.
LowRankFactor MakeFactorWithSpectrum(int n, const std::vector<double>& lambda,
                                     uint64_t seed) {
  const int d = static_cast<int>(lambda.size());
  Rng rng(seed);
  Matrix v = testutil::RandomMatrix(n, d, &rng);
  for (int c = 0; c < d; ++c) {
    for (int prev = 0; prev < c; ++prev) {
      double dot = 0.0;
      for (int r = 0; r < n; ++r) dot += v(r, c) * v(r, prev);
      for (int r = 0; r < n; ++r) v(r, c) -= dot * v(r, prev);
    }
    double norm = 0.0;
    for (int r = 0; r < n; ++r) norm += v(r, c) * v(r, c);
    norm = std::sqrt(norm);
    for (int r = 0; r < n; ++r) v(r, c) /= norm;
  }
  for (int c = 0; c < d; ++c) {
    const double scale = std::sqrt(lambda[static_cast<size_t>(c)]);
    for (int r = 0; r < n; ++r) v(r, c) *= scale;
  }
  auto f = LowRankFactor::Create(std::move(v));
  f.status().CheckOK();
  return std::move(f).ValueOrDie();
}

int CountPositive(const Vector& v) {
  int count = 0;
  for (int i = 0; i < v.size(); ++i) {
    if (v[i] > 0.0) ++count;
  }
  return count;
}

// ---------------------------------------------------------------------
// LowRankFactor basics

TEST(LowRankFactorTest, CreateRejectsBadInput) {
  EXPECT_FALSE(LowRankFactor::Create(Matrix()).ok());
  EXPECT_FALSE(LowRankFactor::Create(Matrix(0, 3)).ok());
  Matrix bad(2, 2, 1.0);
  bad(1, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(LowRankFactor::Create(std::move(bad)).ok());
}

TEST(LowRankFactorTest, GramAndMaterializeAreConsistent) {
  const LowRankFactor f = MakeFactor(9, 4, 17);
  const Matrix c = f.Gram();
  const Matrix l = f.Materialize();
  ASSERT_EQ(c.rows(), 4);
  ASSERT_EQ(l.rows(), 9);
  // Same trace: tr(V^T V) = tr(V V^T) = ||V||_F^2.
  EXPECT_NEAR(c.Trace(), l.Trace(), 1e-12 * std::fabs(l.Trace()));
  EXPECT_TRUE(c.IsSymmetric());
  EXPECT_TRUE(l.IsSymmetric());
}

TEST(LowRankFactorTest, SubsetGramMatchesMaterializedSubmatrix) {
  const LowRankFactor f = MakeFactor(12, 5, 3);
  const std::vector<int> rows{1, 4, 7, 11};
  const Matrix direct = f.SubsetGram(rows);
  const Matrix via_l = f.Materialize().PrincipalSubmatrix(rows);
  for (int i = 0; i < direct.rows(); ++i) {
    for (int j = 0; j < direct.cols(); ++j) {
      EXPECT_NEAR(direct(i, j), via_l(i, j), 1e-12)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(LowRankFactorTest, SelectAndScaleRowsComposeConditioning) {
  const LowRankFactor f = MakeFactor(10, 3, 21);
  const std::vector<int> pool{0, 3, 5, 6, 9};
  Vector q(5);
  for (int i = 0; i < 5; ++i) q[i] = 0.5 + 0.25 * i;
  const LowRankFactor conditioned = f.SelectRows(pool).ScaleRows(q);
  // Diag(q) L_S Diag(q) assembled primally.
  const Matrix expected =
      AssembleKernel(q, f.Materialize().PrincipalSubmatrix(pool));
  const Matrix got = conditioned.Materialize();
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_NEAR(got(i, j), expected(i, j), 1e-12);
    }
  }
}

TEST(LowRankFactorTest, LiftedEigenvectorsAreEigenvectorsOfL) {
  const LowRankFactor f = MakeFactor(11, 4, 8);
  auto dual = f.EigenDual();
  ASSERT_TRUE(dual.ok());
  std::vector<int> all;
  for (int j = 0; j < 4; ++j) {
    ASSERT_GT(dual->eigenvalues[j], 0.0);
    all.push_back(j);
  }
  const Matrix u = f.LiftEigenvectors(dual->eigenvalues, dual->dual_vectors,
                                      all);
  const Matrix l = f.Materialize();
  for (int j = 0; j < 4; ++j) {
    const double lam = dual->eigenvalues[j];
    Vector uj(11);
    for (int r = 0; r < 11; ++r) uj[r] = u(r, j);
    // Unit norm and L u = lambda u.
    EXPECT_NEAR(uj.Norm(), 1.0, 1e-10);
    const Vector lu = MatVec(l, uj);
    for (int r = 0; r < 11; ++r) {
      EXPECT_NEAR(lu[r], lam * uj[r], 1e-9 * std::max(1.0, lam));
    }
  }
  // Orthogonality across lifted columns.
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      double dot = 0.0;
      for (int r = 0; r < 11; ++r) dot += u(r, a) * u(r, b);
      EXPECT_NEAR(dot, 0.0, 1e-10);
    }
  }
}

TEST(LowRankFactorTest, LiftedVectorsMatchPrimalEigenvectorsInSign) {
  // Well-separated spectrum so primal and dual eigenvectors are unique
  // up to sign — which the shared canonicalization then fixes equal.
  const LowRankFactor f =
      MakeFactorWithSpectrum(13, {1.0, 2.0, 4.0, 8.0}, 29);
  auto primal = SymmetricEigen(f.Materialize());
  ASSERT_TRUE(primal.ok());
  auto dual = f.EigenDual();
  ASSERT_TRUE(dual.ok());
  const Matrix lifted = f.LiftEigenvectors(dual->eigenvalues,
                                           dual->dual_vectors, {0, 1, 2, 3});
  // Primal ascending spectrum: 9 zeros then our 4 values at columns 9..12.
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(primal->eigenvalues[9 + j], dual->eigenvalues[j], 1e-10);
    for (int r = 0; r < 13; ++r) {
      EXPECT_NEAR(primal->eigenvectors(r, 9 + j), lifted(r, j), 1e-9)
          << "eigenvector " << j << " row " << r;
    }
  }
}

TEST(LowRankFactorTest, CanonicalizeColumnSignsFlipsNegativePeaks) {
  Matrix m{{0.1, -0.3}, {-0.9, 0.2}, {0.4, -0.8}};
  CanonicalizeColumnSigns(&m);
  EXPECT_GT(m(1, 0), 0.0);  // Peak of column 0 was -0.9.
  EXPECT_GT(m(2, 1), 0.0);  // Peak of column 1 was -0.8.
  EXPECT_LT(m(0, 0), 0.0);
}

// ---------------------------------------------------------------------
// Spectrum agreement

struct DualCase {
  int n;
  int d;
  uint64_t seed;
};

class DualRankSweep : public ::testing::TestWithParam<DualCase> {};

TEST_P(DualRankSweep, EigenvalueMultisetsAgree) {
  const auto [n, d, seed] = GetParam();
  const LowRankFactor f = MakeFactor(n, d, seed);
  auto primal = SymmetricEigen(f.Materialize());
  ASSERT_TRUE(primal.ok());
  ASSERT_TRUE(ClampSpectrumToPsd(&primal->eigenvalues, n).ok());
  auto dual = f.EigenDual();
  ASSERT_TRUE(dual.ok());
  ASSERT_EQ(dual->eigenvalues.size(), d);

  // Same detected rank; the dual spectrum is the primal one minus n - d
  // structural zeros.
  const int rank_primal = CountPositive(primal->eigenvalues);
  const int rank_dual = CountPositive(dual->eigenvalues);
  EXPECT_EQ(rank_primal, rank_dual);
  const double scale = std::max(1.0, primal->eigenvalues.Max());
  for (int j = 0; j < d; ++j) {
    EXPECT_NEAR(primal->eigenvalues[n - d + j], dual->eigenvalues[j],
                kTol * scale)
        << "eigenvalue " << j;
  }
  for (int j = 0; j < n - d; ++j) {
    EXPECT_EQ(primal->eigenvalues[j], 0.0) << "padding eigenvalue " << j;
  }
}

TEST_P(DualRankSweep, KDppNormalizersAndMarginalsAgree) {
  const auto [n, d, seed] = GetParam();
  const LowRankFactor f = MakeFactor(n, d, seed);
  for (int k : {1, std::max(1, d / 2), d}) {
    auto primal = KDpp::Create(f.Materialize(), k);
    ASSERT_TRUE(primal.ok()) << primal.status().ToString();
    auto dual = KDpp::CreateDual(f, k);
    ASSERT_TRUE(dual.ok()) << dual.status().ToString();
    EXPECT_EQ(primal->ground_size(), n);
    EXPECT_EQ(dual->ground_size(), n);

    const double lz_p = primal->LogNormalizer();
    const double lz_d = dual->LogNormalizer();
    EXPECT_NEAR(lz_p, lz_d, kTol * std::max(1.0, std::fabs(lz_p)))
        << "k=" << k;

    // Marginal probabilities: diagonal both ways, plus the full marginal
    // kernels, plus the primal diagonal against its own kernel.
    const Vector diag_p = primal->MarginalDiagonal();
    const Vector diag_d = dual->MarginalDiagonal();
    const Matrix mk_p = primal->MarginalKernel();
    const Matrix mk_d = dual->MarginalKernel();
    double trace = 0.0;
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(diag_p[i], diag_d[i], kTol) << "item " << i << " k=" << k;
      EXPECT_NEAR(mk_p(i, i), diag_p[i], kTol);
      trace += diag_d[i];
      for (int j = 0; j < n; ++j) {
        EXPECT_NEAR(mk_p(i, j), mk_d(i, j), kTol);
      }
    }
    EXPECT_NEAR(trace, static_cast<double>(k), 1e-8);
  }
}

TEST_P(DualRankSweep, KDppSampleStreamsAreBitIdentical) {
  const auto [n, d, seed] = GetParam();
  const LowRankFactor f = MakeFactor(n, d, seed);
  for (int k : {1, d}) {
    auto primal = KDpp::Create(f.Materialize(), k);
    ASSERT_TRUE(primal.ok());
    auto dual = KDpp::CreateDual(f, k);
    ASSERT_TRUE(dual.ok());
    // Shared Rng::Fork discipline: two master generators with the same
    // seed fork one child per draw, exactly like the serving layer.
    Rng master_p(seed ^ 0xD0A1ULL);
    Rng master_d(seed ^ 0xD0A1ULL);
    for (int t = 0; t < 200; ++t) {
      Rng fork_p = master_p.Fork();
      Rng fork_d = master_d.Fork();
      auto sample_p = primal->Sample(&fork_p);
      auto sample_d = dual->Sample(&fork_d);
      ASSERT_TRUE(sample_p.ok()) << sample_p.status().ToString();
      ASSERT_TRUE(sample_d.ok()) << sample_d.status().ToString();
      ASSERT_EQ(static_cast<int>(sample_p->size()), k);
      EXPECT_EQ(*sample_p, *sample_d)
          << "draw " << t << " diverged (d=" << d << ", k=" << k << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, DualRankSweep,
    ::testing::Values(DualCase{48, 1, 101}, DualCase{48, 2, 202},
                      DualCase{48, 8, 303}, DualCase{48, 32, 404}),
    [](const ::testing::TestParamInfo<DualCase>& info) {
      return "n" + std::to_string(info.param.n) + "d" +
             std::to_string(info.param.d);
    });

// ---------------------------------------------------------------------
// Probabilities

TEST(DualKDppTest, EnumeratedProbabilitiesAgreeAndSumToOne) {
  const LowRankFactor f = MakeFactor(10, 4, 55);
  const int k = 3;
  auto primal = KDpp::Create(f.Materialize(), k);
  ASSERT_TRUE(primal.ok());
  auto dual = KDpp::CreateDual(f, k);
  ASSERT_TRUE(dual.ok());
  auto probs_p = primal->EnumerateProbabilities();
  auto probs_d = dual->EnumerateProbabilities();
  ASSERT_TRUE(probs_p.ok());
  ASSERT_TRUE(probs_d.ok());
  ASSERT_EQ(probs_p->size(), probs_d->size());
  double total = 0.0;
  for (size_t i = 0; i < probs_p->size(); ++i) {
    EXPECT_EQ((*probs_p)[i].first, (*probs_d)[i].first);
    EXPECT_NEAR((*probs_p)[i].second, (*probs_d)[i].second, kTol);
    total += (*probs_d)[i].second;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// ---------------------------------------------------------------------
// Rank deficiency and the shared zero clamp

TEST(DualRankDeficiencyTest, DuplicatedColumnsDetectEqualRank) {
  // d = 8 columns but only rank 4: columns 4..7 copy columns 0..3.
  const int n = 24;
  Rng rng(13);
  Matrix v = testutil::RandomMatrix(n, 8, &rng);
  for (int c = 4; c < 8; ++c) {
    for (int r = 0; r < n; ++r) v(r, c) = v(r, c - 4);
  }
  auto f = LowRankFactor::Create(std::move(v));
  ASSERT_TRUE(f.ok());

  auto primal_eig = SymmetricEigen(f->Materialize());
  ASSERT_TRUE(primal_eig.ok());
  ASSERT_TRUE(ClampSpectrumToPsd(&primal_eig->eigenvalues, n).ok());
  auto dual_eig = f->EigenDual();
  ASSERT_TRUE(dual_eig.ok());
  EXPECT_EQ(CountPositive(primal_eig->eigenvalues), 4);
  EXPECT_EQ(CountPositive(dual_eig->eigenvalues), 4);

  // k <= rank: both representations work and their streams coincide.
  const int k = 3;
  auto primal = KDpp::Create(f->Materialize(), k);
  ASSERT_TRUE(primal.ok());
  auto dual = KDpp::CreateDual(*f, k);
  ASSERT_TRUE(dual.ok());
  EXPECT_NEAR(primal->LogNormalizer(), dual->LogNormalizer(),
              kTol * std::max(1.0, std::fabs(primal->LogNormalizer())));
  Rng master_p(7);
  Rng master_d(7);
  for (int t = 0; t < 100; ++t) {
    Rng fork_p = master_p.Fork();
    Rng fork_d = master_d.Fork();
    auto sp = primal->Sample(&fork_p);
    auto sd = dual->Sample(&fork_d);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    ASSERT_TRUE(sd.ok()) << sd.status().ToString();
    EXPECT_EQ(*sp, *sd) << "draw " << t;
  }

  // k > rank: both representations refuse with NumericalError.
  auto primal_bad = KDpp::Create(f->Materialize(), 5);
  auto dual_bad = KDpp::CreateDual(*f, 5);
  EXPECT_EQ(primal_bad.status().code(), StatusCode::kNumericalError)
      << primal_bad.status().ToString();
  EXPECT_EQ(dual_bad.status().code(), StatusCode::kNumericalError)
      << dual_bad.status().ToString();
}

// Regression for the representation-independent zero clamp: an
// eigenvalue below n*eps*lambda_max must clamp to zero on BOTH paths
// (the dual one clamps at primal ground size n, not its own d), and one
// above must survive on both. Before the clamp was shared, a dual
// threshold of d*eps*lambda_max would have kept eigenvalues the primal
// path discards, making detected rank depend on the representation.
TEST(DualRankDeficiencyTest, ZeroClampIsRepresentationIndependent) {
  const int n = 32;
  // n*eps*lambda_max = 32 * 2.2e-16 * 1.0 ~= 7.1e-15. One eigenvalue
  // two decades below the threshold, one two decades above.
  const std::vector<double> lambda{1.0, 0.25, 1e-12, 1e-17};
  const LowRankFactor f = MakeFactorWithSpectrum(n, lambda, 91);

  auto primal = SymmetricEigen(f.Materialize());
  ASSERT_TRUE(primal.ok());
  ASSERT_TRUE(ClampSpectrumToPsd(&primal->eigenvalues, n).ok());
  auto dual = f.EigenDual();
  ASSERT_TRUE(dual.ok());

  EXPECT_EQ(CountPositive(primal->eigenvalues), 3);
  EXPECT_EQ(CountPositive(dual->eigenvalues), 3);
  // The surviving small eigenvalue agrees; the tiny one is exactly zero.
  EXPECT_EQ(dual->eigenvalues[0], 0.0);
  EXPECT_NEAR(dual->eigenvalues[1], 1e-12, 1e-14);
  EXPECT_NEAR(primal->eigenvalues[n - 3], 1e-12, 1e-14);
  EXPECT_EQ(primal->eigenvalues[n - 4], 0.0);

  // And the k-DPPs built both ways agree on the detected rank they
  // expose through eigenvalues().
  auto kdpp_p = KDpp::Create(f.Materialize(), 2);
  auto kdpp_d = KDpp::CreateDual(f, 2);
  ASSERT_TRUE(kdpp_p.ok());
  ASSERT_TRUE(kdpp_d.ok());
  EXPECT_EQ(CountPositive(kdpp_p->eigenvalues()),
            CountPositive(kdpp_d->eigenvalues()));
}

TEST(DualRankDeficiencyTest, ClampSpectrumRejectsIndefinite) {
  Vector lam{-0.5, 1.0, 2.0};
  EXPECT_EQ(ClampSpectrumToPsd(&lam, 3).code(), StatusCode::kNumericalError);
  Vector noise{-1e-18, 1.0};
  ASSERT_TRUE(ClampSpectrumToPsd(&noise, 2).ok());
  EXPECT_EQ(noise[0], 0.0);
  EXPECT_EQ(noise[1], 1.0);
}

// ---------------------------------------------------------------------
// Duplicated rows (identical catalog items)

TEST(DualEdgeCaseTest, DuplicatedRowsAgreeEverywhere) {
  const int n = 16;
  Rng rng(31);
  Matrix v = testutil::RandomMatrix(n, 6, &rng);
  for (int c = 0; c < 6; ++c) v(1, c) = v(0, c);  // Items 0 and 1 identical.
  auto f = LowRankFactor::Create(std::move(v));
  ASSERT_TRUE(f.ok());
  const int k = 3;
  auto primal = KDpp::Create(f->Materialize(), k);
  ASSERT_TRUE(primal.ok());
  auto dual = KDpp::CreateDual(*f, k);
  ASSERT_TRUE(dual.ok());
  EXPECT_NEAR(primal->LogNormalizer(), dual->LogNormalizer(),
              kTol * std::max(1.0, std::fabs(primal->LogNormalizer())));

  // A subset containing both duplicates has determinant exactly zero.
  auto lp = dual->LogProb({0, 1, 5});
  ASSERT_TRUE(lp.ok());
  EXPECT_EQ(*lp, -std::numeric_limits<double>::infinity());

  const Vector diag_p = primal->MarginalDiagonal();
  const Vector diag_d = dual->MarginalDiagonal();
  for (int i = 0; i < n; ++i) EXPECT_NEAR(diag_p[i], diag_d[i], kTol);
  // Identical items have identical inclusion probability.
  EXPECT_NEAR(diag_d[0], diag_d[1], 1e-9);

  Rng master_p(3);
  Rng master_d(3);
  for (int t = 0; t < 100; ++t) {
    Rng fork_p = master_p.Fork();
    Rng fork_d = master_d.Fork();
    auto sp = primal->Sample(&fork_p);
    auto sd = dual->Sample(&fork_d);
    ASSERT_TRUE(sp.ok());
    ASSERT_TRUE(sd.ok());
    EXPECT_EQ(*sp, *sd) << "draw " << t;
  }
}

// ---------------------------------------------------------------------
// Extreme scales

TEST(DualEdgeCaseTest, ExtremeColumnScalesAgree) {
  // Column norms spanning 1e-150 .. 1e150: eigenvalues of L span
  // ~1e-300 .. ~1e300. e_1 stays finite; rank detection must agree and
  // the normalizer/marginals must match relatively.
  const int n = 12;
  Rng rng(47);
  Matrix v = testutil::RandomMatrix(n, 4, &rng);
  const double scales[4] = {1e150, 1.0, 1e-150, 0.5};
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < n; ++r) v(r, c) *= scales[c];
  }
  auto f = LowRankFactor::Create(std::move(v));
  ASSERT_TRUE(f.ok());

  const int k = 1;  // e_1 = sum lambda ~ 1e300: finite, near the edge.
  auto primal = KDpp::Create(f->Materialize(), k);
  ASSERT_TRUE(primal.ok()) << primal.status().ToString();
  auto dual = KDpp::CreateDual(*f, k);
  ASSERT_TRUE(dual.ok()) << dual.status().ToString();
  const double lz_p = primal->LogNormalizer();
  const double lz_d = dual->LogNormalizer();
  EXPECT_NEAR(lz_p, lz_d, 1e-10 * std::fabs(lz_p));
  EXPECT_EQ(CountPositive(primal->eigenvalues()),
            CountPositive(dual->eigenvalues()));

  const Vector diag_p = primal->MarginalDiagonal();
  const Vector diag_d = dual->MarginalDiagonal();
  for (int i = 0; i < n; ++i) {
    const double scale = std::max(std::fabs(diag_p[i]), 1e-300);
    EXPECT_LE(std::fabs(diag_p[i] - diag_d[i]) / scale, 1e-8)
        << "item " << i;
  }

  // With k = 2 the intermediate e_2 ~ 1e600 overflows the ESP table:
  // both representations must reject identically rather than sample
  // from a corrupted table.
  auto primal_of = KDpp::Create(f->Materialize(), 2);
  auto dual_of = KDpp::CreateDual(*f, 2);
  EXPECT_EQ(primal_of.status().code(), StatusCode::kNumericalError);
  EXPECT_EQ(dual_of.status().code(), StatusCode::kNumericalError);
}

TEST(DualEdgeCaseTest, TinyScalesSampleIdentically) {
  // All-tiny factors: column scale 1e-60 puts every eigenvalue near
  // 1e-120 and the k=2 normalizer near 1e-240, far below anything the
  // serving stack produces. The phase-1 walk runs at that scale and the
  // two representations must still walk in lockstep. (1e-150 columns
  // would push kernel entries to the 1e-300 denormal boundary, where
  // the k=2 normalizer underflows to zero and — before that — the
  // primal QL iteration's relative convergence test underflows and
  // Create fails: primal-representation limits, not properties the dual
  // can be differentially tested against. The mixed-scale test above
  // covers the 1e-150/1e150 columns themselves.)
  const int n = 10;
  Rng rng(53);
  Matrix v = testutil::RandomMatrix(n, 3, &rng);
  for (int c = 0; c < 3; ++c) {
    for (int r = 0; r < n; ++r) v(r, c) *= 1e-60;
  }
  auto f = LowRankFactor::Create(std::move(v));
  ASSERT_TRUE(f.ok());
  auto primal = KDpp::Create(f->Materialize(), 2);
  ASSERT_TRUE(primal.ok()) << primal.status().ToString();
  auto dual = KDpp::CreateDual(*f, 2);
  ASSERT_TRUE(dual.ok()) << dual.status().ToString();
  Rng master_p(11);
  Rng master_d(11);
  for (int t = 0; t < 50; ++t) {
    Rng fork_p = master_p.Fork();
    Rng fork_d = master_d.Fork();
    auto sp = primal->Sample(&fork_p);
    auto sd = dual->Sample(&fork_d);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    ASSERT_TRUE(sd.ok()) << sd.status().ToString();
    EXPECT_EQ(*sp, *sd) << "draw " << t;
  }
}

TEST(DualEdgeCaseTest, WideFactorAgreesAndSamplesIdentically) {
  // d > n: more embedding dimensions than items. C is d x d with d - n
  // structural zeros beyond L's spectrum; the k-DPP walk must normalize
  // and sample identically.
  const int n = 5;
  const int d = 9;
  const LowRankFactor f = MakeFactor(n, d, 83);
  auto dual_eig = f.EigenDual();
  ASSERT_TRUE(dual_eig.ok());
  EXPECT_LE(CountPositive(dual_eig->eigenvalues), n);

  const int k = 3;
  auto primal = KDpp::Create(f.Materialize(), k);
  auto dual = KDpp::CreateDual(f, k);
  ASSERT_TRUE(primal.ok());
  ASSERT_TRUE(dual.ok());
  EXPECT_NEAR(primal->LogNormalizer(), dual->LogNormalizer(),
              kTol * std::max(1.0, std::fabs(primal->LogNormalizer())));
  const Vector diag_p = primal->MarginalDiagonal();
  const Vector diag_d = dual->MarginalDiagonal();
  for (int i = 0; i < n; ++i) EXPECT_NEAR(diag_p[i], diag_d[i], kTol);
  Rng km_p(31);
  Rng km_d(31);
  for (int t = 0; t < 100; ++t) {
    Rng fork_p = km_p.Fork();
    Rng fork_d = km_d.Fork();
    auto sp = primal->Sample(&fork_p);
    auto sd = dual->Sample(&fork_d);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    ASSERT_TRUE(sd.ok()) << sd.status().ToString();
    EXPECT_EQ(*sp, *sd) << "draw " << t;
  }
}

// ---------------------------------------------------------------------
// Conditioning in the dual (the serving-path composition)

TEST(DualConditioningTest, PoolSelectionPlusQualityMatchesPrimal) {
  // Mirror RecommendationService::PrepareUser: catalog factor -> pool
  // row subset -> quality row scaling, all in the dual; against the
  // primal build that materializes and conditions the pool kernel.
  const int catalog = 40;
  const LowRankFactor f = MakeFactor(catalog, 6, 67);
  const std::vector<int> pool{2, 5, 7, 11, 12, 17, 20, 23, 24,
                              28, 30, 31, 33, 36, 37, 38, 39, 1};
  Vector quality(static_cast<int>(pool.size()));
  Rng rng(5);
  for (int i = 0; i < quality.size(); ++i) {
    quality[i] = std::exp(rng.Normal());
  }

  const LowRankFactor conditioned = f.SelectRows(pool).ScaleRows(quality);
  const Matrix primal_kernel =
      AssembleKernel(quality, f.Materialize().PrincipalSubmatrix(pool));

  const int k = 4;
  auto primal = KDpp::Create(primal_kernel, k);
  ASSERT_TRUE(primal.ok());
  auto dual = KDpp::CreateDual(conditioned, k);
  ASSERT_TRUE(dual.ok());
  EXPECT_NEAR(primal->LogNormalizer(), dual->LogNormalizer(),
              kTol * std::max(1.0, std::fabs(primal->LogNormalizer())));
  const Vector diag_p = primal->MarginalDiagonal();
  const Vector diag_d = dual->MarginalDiagonal();
  for (int i = 0; i < diag_p.size(); ++i) {
    EXPECT_NEAR(diag_p[i], diag_d[i], kTol);
  }
  Rng master_p(23);
  Rng master_d(23);
  for (int t = 0; t < 100; ++t) {
    Rng fork_p = master_p.Fork();
    Rng fork_d = master_d.Fork();
    auto sp = primal->Sample(&fork_p);
    auto sd = dual->Sample(&fork_d);
    ASSERT_TRUE(sp.ok());
    ASSERT_TRUE(sd.ok());
    EXPECT_EQ(*sp, *sd) << "draw " << t;
  }
}

TEST(DualConditioningTest, ScaleRowsFactorsAssembleKernel) {
  Rng rng(71);
  auto factor = LowRankFactor::Create(testutil::RandomMatrix(7, 3, &rng));
  ASSERT_TRUE(factor.ok());
  Vector q(7);
  for (int i = 0; i < 7; ++i) q[i] = 0.1 + 0.3 * i;
  const Matrix direct = AssembleKernel(q, factor->Materialize());
  const Matrix via_factor = factor->ScaleRows(q).Materialize();
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 7; ++j) {
      EXPECT_NEAR(via_factor(i, j), direct(i, j),
                  1e-12 * std::max(1.0, std::fabs(direct(i, j))));
    }
  }
}

// ---------------------------------------------------------------------
// Error paths

TEST(DualErrorTest, CreateDualValidatesArguments) {
  const LowRankFactor f = MakeFactor(6, 3, 3);
  EXPECT_FALSE(KDpp::CreateDual(f, 0).ok());
  EXPECT_FALSE(KDpp::CreateDual(f, 7).ok());
  // k above the factor's rank bound cannot be normalized.
  EXPECT_EQ(KDpp::CreateDual(f, 4).status().code(),
            StatusCode::kNumericalError);
  auto kdpp = KDpp::CreateDual(f, 2);
  ASSERT_TRUE(kdpp.ok());
  EXPECT_FALSE(kdpp->Sample(nullptr).ok());
}

}  // namespace
}  // namespace lkpdpp
