// Elementary symmetric polynomials (ESP) over kernel eigenvalues.
//
// The k-DPP normalization constant is Z_k = e_k(lambda_1..lambda_m)
// (Eq. 6 of the paper), computed by the O(m*k) recursion of the paper's
// Algorithm 1. The gradient of Z_k w.r.t. the kernel additionally needs
// the "exclusion" polynomials e_{k-1}(lambda with lambda_i removed),
// since d e_k / d lambda_i = e_{k-1}(lambda \ i). Training and the k-DPP
// marginals read them through ExclusionRatios (e_{k-1}(lambda \ i) / e_k,
// O(m*k) over lambda / lambda_max); the O(m^2 k) per-index recursions
// below stay as its log-domain fallback and as test oracles.

#ifndef LKPDPP_CORE_ESP_H_
#define LKPDPP_CORE_ESP_H_

#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// Computes e_k(values) by the Algorithm-1 recursion:
///   e_l^m = e_l^{m-1} + lambda_m * e_{l-1}^{m-1}.
/// Requires 0 <= k <= values.size(); e_0 = 1 by convention.
double ElementarySymmetric(const Vector& values, int k);

/// All of e_0 .. e_kmax over `values` in one pass; result has size kmax+1.
/// Requires 0 <= kmax <= values.size().
Vector AllElementarySymmetric(const Vector& values, int kmax);

/// Full Algorithm-1 DP table: entry (l, m) holds e_l over the first m
/// values, for l in [0, k], m in [0, size]. Row 0 is all ones. Used by the
/// k-DPP sampler, which walks the table backwards.
Matrix EspTable(const Vector& values, int k);

/// Exclusion polynomials: out[i] = e_{degree}(values with entry i removed).
/// This equals the partial derivative d e_{degree+1} / d lambda_i.
///
/// Computed by re-running the recursion per excluded index, O(m^2 k),
/// which is exact and division-free (the classic "divide by the root"
/// shortcut is numerically unstable when eigenvalues are near zero).
/// Requires 0 <= degree <= values.size() - 1.
Vector ExclusionEsp(const Vector& values, int degree);

/// Log-domain exclusion polynomials for non-negative `values`:
///   out[i] = log e_{degree}(values with entry i removed),
/// with -inf denoting an exactly-zero polynomial. Runs the Algorithm-1
/// recursion in log space (log-sum-exp updates), so it cannot overflow
/// even when the raw polynomials exceed double range — the k-DPP marginal
/// kernel and normalizer gradients divide these by Z_k, and the ratios
/// are representable even when numerator and denominator are not.
/// Requires 0 <= degree <= values.size() - 1 and values >= 0 (kernel
/// eigenvalues are clamped non-negative upstream).
Vector LogExclusionEsp(const Vector& values, int degree);

/// Normalized exclusion ratios for non-negative `values`:
///   out[c] = e_{k-1}(values with entry c removed) / e_k(values),
/// i.e. d log e_k / d values[c]. These are the k-DPP normalizer-gradient
/// weights (Eq. 12), and values[c] * out[c] is the marginal weight of
/// spectrum column c.
///
/// O(m k): prefix and suffix ESP tables over x = values / max(values)
/// give every exclusion polynomial as one k-term convolution. x lies in
/// [0, 1], so no table entry exceeds C(m, l); every term is a product of
/// non-negative factors, so sums lose no relative accuracy; and nothing
/// is divided out of a polynomial (the classic divide-by-the-root
/// shortcut is unstable near zero values). Where a product of k positive
/// x could underflow (see the threshold in esp.cc) or the tables
/// overflow, it falls back to LogExclusionEsp.
/// Requires 1 <= k <= values.size(), values >= 0, and at least k
/// positive values (e_k(values) > 0).
Vector ExclusionRatios(const Vector& values, int k);

/// Brute-force ESP by subset enumeration; exponential, test-only reference.
double ElementarySymmetricBruteForce(const Vector& values, int k);

}  // namespace lkpdpp

#endif  // LKPDPP_CORE_ESP_H_
