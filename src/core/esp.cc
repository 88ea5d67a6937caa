#include "core/esp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace lkpdpp {

namespace {

// log(exp(a) + exp(b)) without leaving log space; -inf encodes zero.
inline double LogAddExp(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) return b;
  if (b == -std::numeric_limits<double>::infinity()) return a;
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

// ExclusionRatios' fallback: the log-domain exclusion polynomials, with
// log e_k taken from the same values by Euler's identity
//   k e_k = sum_j values[j] e_{k-1}(values \ j).
Vector LogDomainExclusionRatios(const Vector& values, int k) {
  const int m = values.size();
  const Vector log_excl = LogExclusionEsp(values, k - 1);
  double log_kek = -std::numeric_limits<double>::infinity();
  for (int j = 0; j < m; ++j) {
    if (values[j] > 0.0) {
      log_kek = LogAddExp(log_kek, std::log(values[j]) + log_excl[j]);
    }
  }
  const double log_ek = log_kek - std::log(static_cast<double>(k));
  Vector out(m);
  for (int c = 0; c < m; ++c) out[c] = std::exp(log_excl[c] - log_ek);
  return out;
}

}  // namespace

double ElementarySymmetric(const Vector& values, int k) {
  LKP_CHECK(k >= 0 && k <= values.size())
      << "k=" << k << " over " << values.size() << " values";
  if (k == 0) return 1.0;
  // Rolling single-row variant of Algorithm 1: e[l] holds e_l over the
  // prefix processed so far; update high-to-low so e[l-1] is the previous
  // prefix's value.
  std::vector<double> e(static_cast<size_t>(k) + 1, 0.0);
  e[0] = 1.0;
  for (int m = 0; m < values.size(); ++m) {
    const double lam = values[m];
    for (int l = std::min(k, m + 1); l >= 1; --l) {
      e[l] += lam * e[l - 1];
    }
  }
  return e[k];
}

Vector AllElementarySymmetric(const Vector& values, int kmax) {
  LKP_CHECK(kmax >= 0 && kmax <= values.size());
  std::vector<double> e(static_cast<size_t>(kmax) + 1, 0.0);
  e[0] = 1.0;
  for (int m = 0; m < values.size(); ++m) {
    const double lam = values[m];
    for (int l = std::min(kmax, m + 1); l >= 1; --l) {
      e[l] += lam * e[l - 1];
    }
  }
  return Vector(std::move(e));
}

Matrix EspTable(const Vector& values, int k) {
  LKP_CHECK(k >= 0 && k <= values.size());
  const int m = values.size();
  Matrix table(k + 1, m + 1);
  for (int col = 0; col <= m; ++col) table(0, col) = 1.0;
  for (int l = 1; l <= k; ++l) {
    table(l, 0) = 0.0;
    for (int col = 1; col <= m; ++col) {
      table(l, col) =
          table(l, col - 1) + values[col - 1] * table(l - 1, col - 1);
    }
  }
  return table;
}

Vector ExclusionEsp(const Vector& values, int degree) {
  const int m = values.size();
  LKP_CHECK(degree >= 0 && degree <= m - 1)
      << "degree=" << degree << " over " << m << " values";
  Vector out(m);
  std::vector<double> e(static_cast<size_t>(degree) + 1, 0.0);
  for (int skip = 0; skip < m; ++skip) {
    std::fill(e.begin(), e.end(), 0.0);
    e[0] = 1.0;
    int seen = 0;
    for (int i = 0; i < m; ++i) {
      if (i == skip) continue;
      const double lam = values[i];
      for (int l = std::min(degree, seen + 1); l >= 1; --l) {
        e[l] += lam * e[l - 1];
      }
      ++seen;
    }
    out[skip] = e[degree];
  }
  return out;
}

Vector LogExclusionEsp(const Vector& values, int degree) {
  const int m = values.size();
  LKP_CHECK(degree >= 0 && degree <= m - 1)
      << "degree=" << degree << " over " << m << " values";
  const double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> logv(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    LKP_CHECK_GE(values[i], 0.0) << "LogExclusionEsp requires values >= 0";
    logv[static_cast<size_t>(i)] =
        values[i] > 0.0 ? std::log(values[i]) : kNegInf;
  }
  // Same per-excluded-index recursion as ExclusionEsp, with every
  // `e[l] += lam * e[l-1]` replaced by its log-space counterpart.
  Vector out(m);
  std::vector<double> e(static_cast<size_t>(degree) + 1, kNegInf);
  for (int skip = 0; skip < m; ++skip) {
    std::fill(e.begin(), e.end(), kNegInf);
    e[0] = 0.0;
    int seen = 0;
    for (int i = 0; i < m; ++i) {
      if (i == skip) continue;
      const double log_lam = logv[static_cast<size_t>(i)];
      for (int l = std::min(degree, seen + 1); l >= 1; --l) {
        e[l] = LogAddExp(e[l], log_lam + e[l - 1]);
      }
      ++seen;
    }
    out[skip] = e[degree];
  }
  return out;
}

Vector ExclusionRatios(const Vector& values, int k) {
  const int m = values.size();
  LKP_CHECK(k >= 1 && k <= m) << "k=" << k << " over " << m << " values";
  double lam_max = 0.0;
  int positives = 0;
  for (int i = 0; i < m; ++i) {
    LKP_CHECK_GE(values[i], 0.0) << "ExclusionRatios requires values >= 0";
    lam_max = std::max(lam_max, values[i]);
    if (values[i] > 0.0) ++positives;
  }
  LKP_CHECK_GE(positives, k) << "e_" << k << " vanishes: only " << positives
                             << " positive values";

  std::vector<double> x(static_cast<size_t>(m));
  double x_min = 1.0;
  for (int i = 0; i < m; ++i) {
    x[static_cast<size_t>(i)] = values[i] / lam_max;
    if (x[static_cast<size_t>(i)] > 0.0) {
      x_min = std::min(x_min, x[static_cast<size_t>(i)]);
    }
  }
  // Underflow threshold. Every term of every ESP below is a product of at
  // most k positive x, each >= x_min, so the linear tables are exact to
  // rounding while x_min^k stays a normal double. KDpp spectra come out
  // of ClampSpectrumToPsd, which zeroes every eigenvalue below
  // m * eps * lambda_max: their positive x are >= m * eps >= 2 * eps,
  // and (2 eps)^k >= DBL_MIN for every k <= 20. Only larger k, or raw
  // values with a wider dynamic range, take the log-domain fallback.
  double x_min_pow_k = 1.0;
  for (int l = 0; l < k; ++l) x_min_pow_k *= x_min;
  if (x_min_pow_k < std::numeric_limits<double>::min()) {
    return LogDomainExclusionRatios(values, k);
  }

  // pre[i * (k + 1) + l] = e_l(x_0 .. x_{i-1}) for l in [0, k];
  // suf[i * k + l] = e_l(x_i .. x_{m-1}) for l in [0, k - 1].
  const size_t pw = static_cast<size_t>(k) + 1;
  const size_t sw = static_cast<size_t>(k);
  const size_t rows = static_cast<size_t>(m) + 1;
  std::vector<double> pre(rows * pw, 0.0);
  std::vector<double> suf(rows * sw, 0.0);
  pre[0] = 1.0;
  for (size_t i = 0; i < static_cast<size_t>(m); ++i) {
    const double* prev = &pre[i * pw];
    double* next = &pre[(i + 1) * pw];
    next[0] = 1.0;
    for (size_t l = 1; l < pw; ++l) next[l] = prev[l] + x[i] * prev[l - 1];
  }
  suf[static_cast<size_t>(m) * sw] = 1.0;
  for (size_t i = static_cast<size_t>(m); i-- > 0;) {
    const double* prev = &suf[(i + 1) * sw];
    double* next = &suf[i * sw];
    next[0] = 1.0;
    for (size_t l = 1; l < sw; ++l) next[l] = prev[l] + x[i] * prev[l - 1];
  }
  // e_{k-1}(x \ c) = sum_a e_a(x before c) e_{k-1-a}(x after c); the
  // ratio to e_k(x) is scale-free up to one factor of lambda_max.
  const double ek = pre[static_cast<size_t>(m) * pw + sw];
  Vector out(m);
  bool finite = ek > 0.0 && std::isfinite(ek);
  for (int c = 0; c < m && finite; ++c) {
    const double* p = &pre[static_cast<size_t>(c) * pw];
    const double* s = &suf[(static_cast<size_t>(c) + 1) * sw];
    double num = 0.0;
    for (size_t a = 0; a < sw; ++a) num += p[a] * s[sw - 1 - a];
    const double ratio = num / ek;
    finite = std::isfinite(ratio);
    out[c] = ratio / lam_max;
  }
  // Past ~1000 values C(m, l) itself overflows; the log domain cannot.
  if (!finite) return LogDomainExclusionRatios(values, k);
  return out;
}

double ElementarySymmetricBruteForce(const Vector& values, int k) {
  const int m = values.size();
  LKP_CHECK(k >= 0 && k <= m);
  if (k == 0) return 1.0;
  // Iterate all k-combinations in lexicographic order.
  std::vector<int> idx(k);
  for (int i = 0; i < k; ++i) idx[i] = i;
  double total = 0.0;
  while (true) {
    double prod = 1.0;
    for (int i : idx) prod *= values[i];
    total += prod;
    // Advance combination.
    int pos = k - 1;
    while (pos >= 0 && idx[pos] == m - k + pos) --pos;
    if (pos < 0) break;
    ++idx[pos];
    for (int j = pos + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
  return total;
}

}  // namespace lkpdpp
