// Tests for elementary symmetric polynomials (paper Algorithm 1) and
// their derivatives.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/rng.h"
#include "core/esp.h"

namespace lkpdpp {
namespace {

TEST(EspTest, DegreeZeroIsOne) {
  EXPECT_DOUBLE_EQ(ElementarySymmetric(Vector{2, 3, 4}, 0), 1.0);
  EXPECT_DOUBLE_EQ(ElementarySymmetric(Vector{}, 0), 1.0);
}

TEST(EspTest, DegreeOneIsSum) {
  EXPECT_DOUBLE_EQ(ElementarySymmetric(Vector{2, 3, 4}, 1), 9.0);
}

TEST(EspTest, FullDegreeIsProduct) {
  EXPECT_DOUBLE_EQ(ElementarySymmetric(Vector{2, 3, 4}, 3), 24.0);
}

TEST(EspTest, HandComputedMiddleDegree) {
  // e_2(2,3,4) = 2*3 + 2*4 + 3*4 = 26.
  EXPECT_DOUBLE_EQ(ElementarySymmetric(Vector{2, 3, 4}, 2), 26.0);
}

TEST(EspTest, ZeroEigenvaluesReduceDegree) {
  // With only two nonzeros, e_3 = 0.
  EXPECT_DOUBLE_EQ(ElementarySymmetric(Vector{5, 0, 7, 0}, 3), 0.0);
  EXPECT_DOUBLE_EQ(ElementarySymmetric(Vector{5, 0, 7, 0}, 2), 35.0);
}

TEST(EspTest, AllElementarySymmetricMatchesSingle) {
  Vector vals{0.5, 1.5, 2.5, 3.5};
  Vector all = AllElementarySymmetric(vals, 4);
  for (int k = 0; k <= 4; ++k) {
    EXPECT_NEAR(all[k], ElementarySymmetric(vals, k), 1e-12);
  }
}

TEST(EspTest, TableFinalEntryMatches) {
  Vector vals{1.0, 2.0, 3.0, 4.0, 5.0};
  Matrix table = EspTable(vals, 3);
  EXPECT_NEAR(table(3, 5), ElementarySymmetric(vals, 3), 1e-12);
  // Prefix property: table(l, m) is e_l over the first m values.
  Vector prefix{1.0, 2.0, 3.0};
  EXPECT_NEAR(table(2, 3), ElementarySymmetric(prefix, 2), 1e-12);
  // Row 0 all ones; column 0 zero for l >= 1.
  for (int m = 0; m <= 5; ++m) EXPECT_DOUBLE_EQ(table(0, m), 1.0);
  for (int l = 1; l <= 3; ++l) EXPECT_DOUBLE_EQ(table(l, 0), 0.0);
}

class EspBruteForceTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(EspBruteForceTest, MatchesBruteForce) {
  const auto [m, k] = GetParam();
  Rng rng(500 + m * 31 + k);
  Vector vals(m);
  for (int i = 0; i < m; ++i) vals[i] = rng.Uniform(0.0, 3.0);
  const double fast = ElementarySymmetric(vals, k);
  const double brute = ElementarySymmetricBruteForce(vals, k);
  EXPECT_NEAR(fast, brute, 1e-9 * std::max(1.0, std::fabs(brute)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EspBruteForceTest,
    ::testing::Values(std::pair{3, 2}, std::pair{5, 2}, std::pair{6, 3},
                      std::pair{8, 4}, std::pair{10, 5}, std::pair{12, 6},
                      std::pair{12, 1}, std::pair{12, 12}));

TEST(ExclusionEspTest, MatchesManualExclusion) {
  Vector vals{1.0, 2.0, 3.0, 4.0};
  Vector excl = ExclusionEsp(vals, 2);
  // Removing value i then computing e_2 by hand.
  EXPECT_NEAR(excl[0], ElementarySymmetric(Vector{2, 3, 4}, 2), 1e-12);
  EXPECT_NEAR(excl[1], ElementarySymmetric(Vector{1, 3, 4}, 2), 1e-12);
  EXPECT_NEAR(excl[2], ElementarySymmetric(Vector{1, 2, 4}, 2), 1e-12);
  EXPECT_NEAR(excl[3], ElementarySymmetric(Vector{1, 2, 3}, 2), 1e-12);
}

// d e_k / d lambda_i = e_{k-1}(lambda \ i): finite-difference check.
class EspDerivativeTest : public ::testing::TestWithParam<int> {};

TEST_P(EspDerivativeTest, ExclusionIsDerivative) {
  const int m = 8;
  const int k = GetParam();
  Rng rng(600 + k);
  Vector vals(m);
  for (int i = 0; i < m; ++i) vals[i] = rng.Uniform(0.1, 2.0);
  const Vector excl = ExclusionEsp(vals, k - 1);
  const double h = 1e-6;
  for (int i = 0; i < m; ++i) {
    Vector plus = vals, minus = vals;
    plus[i] += h;
    minus[i] -= h;
    const double fd = (ElementarySymmetric(plus, k) -
                       ElementarySymmetric(minus, k)) /
                      (2.0 * h);
    EXPECT_NEAR(excl[i], fd, 1e-5 * std::max(1.0, std::fabs(fd)));
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, EspDerivativeTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(EspIdentityTest, EulerIdentity) {
  // sum_i lambda_i * e_{k-1}(lambda \ i) = k * e_k.
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const int m = 4 + rng.UniformInt(8);
    const int k = 1 + rng.UniformInt(m);
    Vector vals(m);
    for (int i = 0; i < m; ++i) vals[i] = rng.Uniform(0.0, 2.0);
    const Vector excl = ExclusionEsp(vals, k - 1);
    double lhs = 0.0;
    for (int i = 0; i < m; ++i) lhs += vals[i] * excl[i];
    const double rhs = k * ElementarySymmetric(vals, k);
    EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, std::fabs(rhs)));
  }
}

TEST(EspIdentityTest, PascalIdentity) {
  // e_k(lambda) = e_k(lambda \ i) + lambda_i * e_{k-1}(lambda \ i).
  Vector vals{0.7, 1.3, 2.9, 0.2, 1.1};
  const int k = 3;
  const Vector excl_k = ExclusionEsp(vals, k);
  const Vector excl_km1 = ExclusionEsp(vals, k - 1);
  const double ek = ElementarySymmetric(vals, k);
  for (int i = 0; i < vals.size(); ++i) {
    EXPECT_NEAR(ek, excl_k[i] + vals[i] * excl_km1[i], 1e-10);
  }
}

TEST(EspNumericalTest, LargeValuesStayFinite) {
  Vector vals(16);
  for (int i = 0; i < 16; ++i) vals[i] = 50.0 + i;
  const double e8 = ElementarySymmetric(vals, 8);
  EXPECT_TRUE(std::isfinite(e8));
  EXPECT_GT(e8, 0.0);
}

TEST(EspNumericalTest, TinyValuesStayPositive) {
  Vector vals(10);
  for (int i = 0; i < 10; ++i) vals[i] = 1e-8;
  const double e5 = ElementarySymmetric(vals, 5);
  EXPECT_GT(e5, 0.0);
  // C(10,5) * (1e-8)^5.
  EXPECT_NEAR(e5, 252.0 * 1e-40, 1e-45);
}

TEST(LogExclusionEspTest, MatchesLinearDomainOnModerateValues) {
  Rng rng(42);
  Vector vals(9);
  for (int i = 0; i < 9; ++i) vals[i] = rng.Uniform(0.1, 3.0);
  for (int degree : {0, 1, 3, 6, 8}) {
    const Vector raw = ExclusionEsp(vals, degree);
    const Vector logd = LogExclusionEsp(vals, degree);
    for (int i = 0; i < 9; ++i) {
      EXPECT_NEAR(logd[i], std::log(raw[i]),
                  1e-12 * std::max(1.0, std::fabs(std::log(raw[i]))))
          << "degree " << degree << " skip " << i;
    }
  }
}

TEST(LogExclusionEspTest, HandlesZeroValues) {
  // With a zero entry, excluding a *different* entry keeps the zero in
  // the pool; degree-2 polynomials over {0, 2, 3} drop the products
  // through zero: e_2({2,3} U {0}) = 6.
  Vector vals{0.0, 2.0, 3.0, 4.0};
  const Vector raw = ExclusionEsp(vals, 2);
  const Vector logd = LogExclusionEsp(vals, 2);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::exp(logd[i]), raw[i], 1e-12 * raw[i]) << "skip " << i;
  }
  // Degree 3 excluding entry 3 leaves {0,2,3}: every 3-product includes
  // the zero, so the polynomial is exactly zero -> log is -inf.
  const Vector log3 = LogExclusionEsp(vals, 3);
  EXPECT_TRUE(std::isinf(log3[3]));
  EXPECT_LT(log3[3], 0.0);
}

TEST(LogExclusionEspTest, SurvivesMagnitudesThatOverflowLinearDomain) {
  // e_2 over values ~1e200 is ~1e400: the linear-domain recursion
  // saturates to inf, the log-domain one must not. Verify against the
  // scaling identity e_d(s * mu) = s^d e_d(mu).
  const double s = 1e200;
  Vector mu{1.0, 2.0, 3.0, 4.0, 5.0};
  Vector scaled = mu;
  scaled *= s;
  const int degree = 2;
  EXPECT_FALSE(std::isfinite(ExclusionEsp(scaled, degree).Max()));
  const Vector log_scaled = LogExclusionEsp(scaled, degree);
  const Vector base = ExclusionEsp(mu, degree);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(std::isfinite(log_scaled[i])) << "skip " << i;
    EXPECT_NEAR(log_scaled[i], degree * std::log(s) + std::log(base[i]),
                1e-9) << "skip " << i;
  }
}

// ExclusionRatios' oracle: e_{k-1}(values \ c) / e_k(values) from the
// log-domain exclusion polynomials. log e_k comes from the same routine
// over values plus one appended zero, excluding that zero. The values
// are first scaled by a power of two near 1 / max (exact, and
// e_l(2^-p v) = 2^-pl e_l(v)), so the logs stay small and their rounding
// cannot swamp a 1e-12 comparison at extreme overall scales.
Vector LogDomainRatioOracle(const Vector& values, int k) {
  const int m = values.size();
  const int p = std::ilogb(values.Max());
  Vector padded(m + 1);
  Vector scaled(m);
  for (int i = 0; i < m; ++i) {
    scaled[i] = std::ldexp(values[i], -p);
    padded[i] = scaled[i];
  }
  const double log_ek = LogExclusionEsp(padded, k)[m];
  const Vector log_excl = LogExclusionEsp(scaled, k - 1);
  Vector out(m);
  for (int c = 0; c < m; ++c) {
    out[c] = std::ldexp(std::exp(log_excl[c] - log_ek), -p);
  }
  return out;
}

void ExpectRatiosMatchOracle(const Vector& values, int k,
                             const std::string& label) {
  const Vector got = ExclusionRatios(values, k);
  const Vector want = LogDomainRatioOracle(values, k);
  ASSERT_EQ(got.size(), want.size());
  for (int c = 0; c < values.size(); ++c) {
    ASSERT_GT(want[c], 0.0) << label << " c=" << c;
    EXPECT_NEAR(got[c], want[c], 1e-12 * want[c])
        << label << " k=" << k << " c=" << c;
  }
}

TEST(ExclusionRatiosTest, MatchesLogDomainOnRandomSpectraWithZeros) {
  Rng rng(314);
  for (int m : {4, 10, 30}) {
    for (int trial = 0; trial < 20; ++trial) {
      // Magnitudes over six decades, overall scale over +/-100 decades.
      const double scale = std::pow(10.0, rng.Uniform(-100.0, 100.0));
      Vector vals(m);
      for (int i = 0; i < m; ++i) {
        vals[i] = scale * std::pow(10.0, rng.Uniform(-3.0, 3.0));
      }
      for (int k : {1, m / 2, m}) {
        Vector with_zeros = vals;
        // Exact zeros wherever the k positives e_k needs survive.
        for (int i = 0; i < m - k; ++i) {
          if (rng.Uniform() < 0.5) with_zeros[i] = 0.0;
        }
        ExpectRatiosMatchOracle(with_zeros, k,
                                "m=" + std::to_string(m) + " trial=" +
                                    std::to_string(trial));
      }
    }
  }
}

TEST(ExclusionRatiosTest, MatchesLogDomainAtTheClampedDynamicRange) {
  // Positive values as small as ClampSpectrumToPsd lets through:
  // m * eps * lambda_max, the worst case the underflow threshold covers.
  Rng rng(315);
  const double eps = std::numeric_limits<double>::epsilon();
  for (int m : {5, 10, 20}) {
    for (double lam_max : {1e-150, 1.0, 1e150}) {
      Vector vals(m);
      vals[m - 1] = lam_max;
      for (int i = 0; i < m - 1; ++i) {
        const double floor = m * eps * lam_max;
        vals[i] = i % 2 == 0 ? floor : floor * std::pow(10.0, rng.Uniform(
                                                             0.0, 14.0));
      }
      for (int k : {1, m / 2, m}) {
        ExpectRatiosMatchOracle(vals, k, "m=" + std::to_string(m));
      }
    }
  }
}

TEST(ExclusionRatiosTest, FallsBackToLogDomainWhenProductsUnderflow) {
  // x_min^k below DBL_MIN: the scaled linear tables would lose the small
  // terms. e_3 of {1, 1e-160, 3e-160} is 3e-320, a subnormal with only a
  // few significant digits, so a linear-domain out[1] = 1e160 would be
  // off by ~1e-4; the log-domain fallback must not be.
  ExpectRatiosMatchOracle(Vector{1.0, 1e-160, 3e-160, 0.0}, 3, "subnormal");
  const Vector vals{1.0, 1e-200, 3e-200, 2e-200, 0.0};
  for (int k : {2, 3, 4}) ExpectRatiosMatchOracle(vals, k, "underflow");
  // e_4 here is 6e-600: far below double range, yet every ratio is
  // representable, e.g. out[0] = 1 / (lambda_0) exactly.
  EXPECT_NEAR(ExclusionRatios(vals, 4)[0], 1.0, 1e-12);
}

TEST(ExclusionRatiosTest, IsTheLogDerivativeOfEk) {
  // out[c] = d log e_k / d values[c], checked by central differences.
  const Vector vals{0.7, 1.9, 0.2, 3.1, 1.3};
  const int k = 3;
  const Vector ratio = ExclusionRatios(vals, k);
  const double h = 1e-6;
  for (int c = 0; c < vals.size(); ++c) {
    Vector plus = vals, minus = vals;
    plus[c] += h;
    minus[c] -= h;
    const double fd = (std::log(ElementarySymmetric(plus, k)) -
                       std::log(ElementarySymmetric(minus, k))) /
                      (2.0 * h);
    EXPECT_NEAR(ratio[c], fd, 1e-8) << "c=" << c;
  }
}

}  // namespace
}  // namespace lkpdpp
