// Low-rank dual vs primal k-DPP construction benchmark.
//
// Sweeps serving-pool shapes n x d (pool size x factor rank) and times
// building the sampling-ready KDpp both ways: primal (materialize
// L = V V^T, O(n^3) eigendecomposition + ESP table) and dual
// (KDpp::CreateDual through the d x d kernel C = V^T V, O(n d^2 + d^3)).
// Standalone (no Google Benchmark) so it always builds and can feed
// bench/record_baseline.sh.
//
// Wall times are machine-dependent shape references; the agreement
// columns are machine-independent and gate the dual path's exactness:
// relative log-normalizer difference and max relative marginal-diagonal
// difference must stay ~1e-10 or better, and 10 shared-seed draws must
// return identical subsets from both representations. Any violation
// prints AGREEMENT VIOLATION and exits non-zero.
//
// LKP_DUAL_MAX_N trims the sweep (e.g. LKP_DUAL_MAX_N=1024 for a quick
// run); the full sweep's n=4096 primal eigendecomposition takes minutes
// by design — that cost is the benchmark's whole point.
//
// A second sweep covers the blended kernel 0 < alpha < 1: primal
// (materialize Diag(q)(alpha V V^T + (1-alpha) I)Diag(q)) vs
// factor-plus-diagonal (KDpp::CreateFactorDiag through the rank-d
// diagonal-update spectrum — O(n d) memory, never n x n). Its rows add
// per-draw sampling times and a peak-allocation column from the
// matrix_probe, and its verdicts use distinct strings (BLEND VIOLATION /
// BLEND UNVERIFIED) so record_baseline.sh can gate the two sections
// independently. It ends with two crossover lines, each the smallest
// timed (alpha=0.5) shape that qualifies, as kappa = n / d^2, or "none":
// one where factor-diag beats primal on both build and per-draw time,
// and one where it beats primal on a cold request (build plus one
// draw). A factor-diag draw runs the primal's elementary-DPP walk plus k
// on-demand eigenvector columns, so it never wins per draw; these rows
// are why RecommendationService serves blended sampling primally.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/kdpp.h"
#include "linalg/low_rank.h"
#include "linalg/matrix.h"

namespace lkpdpp::bench {
namespace {

Matrix RandomFactor(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix v(n, d);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < d; ++c) v(r, c) = rng.Normal() * scale;
  }
  return v;
}

// Times `build` best-of-`reps` and hands the final rep's object back
// through `last`, so the agreement checks below reuse it instead of
// paying another O(n^3) construction (at n=4096 a primal build is
// minutes — rebuilding it once more would double the sweep). Past three
// reps it stops once a second of builds has accumulated, so many-rep
// rows only pay for their extra reps where builds are fast.
template <typename Build, typename T>
double BestOfMillis(const Build& build, int reps, T* last) {
  double best = 1e300;
  double total = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    auto made = build();
    const double ms = sw.ElapsedMillis();
    best = std::min(best, ms);
    total += ms;
    made.status().CheckOK();
    if (r == reps - 1 || (r >= 2 && total >= 1000.0)) {
      *last = std::move(made).ValueOrDie();
      break;
    }
  }
  return best;
}

// Mean microseconds per draw over `draws` Rng::Fork streams of `master`,
// with the drawn subsets appended to `out` for the agreement check.
double MeanDrawMicros(const KDpp& kdpp, uint64_t master_seed, int draws,
                      std::vector<std::vector<int>>* out) {
  Rng master(master_seed);
  Stopwatch sw;
  for (int t = 0; t < draws; ++t) {
    Rng fork = master.Fork();
    auto s = kdpp.Sample(&fork);
    s.status().CheckOK();
    out->push_back(std::move(s).ValueOrDie());
  }
  return sw.ElapsedMillis() * 1e3 / draws;
}

// Blended-kernel sweep: Diag(q)(alpha V V^T + (1-alpha) I)Diag(q) built
// primally vs as W W^T + D (W = sqrt(alpha) Diag(q) V, D = (1-alpha) q^2).
// The factor-diag spectrum is O(n^2 d^2) time against the primal
// O(n^3), so the sweep runs from serving-sized pools (n=32) up to n=2048
// at d=16, where the build crossover is expected; each factor-diag draw
// additionally materializes k eigenvectors at O(n d^2) apiece on top of
// the elementary-DPP walk both representations share. Returns 0 on full
// agreement, 1 otherwise.
int RunBlend(int max_n) {
  const int k = 10;
  std::printf("\nblended kernel: primal vs factor-plus-diagonal (k=%d)\n", k);
  std::printf("primal:      materialize Diag(q)(aVV^T+(1-a)I)Diag(q) "
              "+ KDpp::Create\n");
  std::printf("factor-diag: KDpp::CreateFactorDiag (rank-d diagonal "
              "update, O(nd) memory)\n");
  std::printf("build: best-of-reps ms (reps is the cap; past 3 reps a "
              "side stops after 1 s of builds); draw: mean us per "
              "Sample\n\n");
  std::printf("%6s %5s %6s %6s %12s %12s %12s %12s %10s %10s %11s %11s "
              "%8s\n",
              "n", "d", "alpha", "reps", "primal_ms", "fdiag_ms",
              "p_draw_us", "fd_draw_us", "peak_p", "peak_fd", "dlogz_rel",
              "dmarg_rel", "streams");

  struct Shape {
    int n;
    int d;
  };
  const Shape kShapes[] = {{32, 16},   {32, 64},   {64, 16},  {64, 64},
                           {128, 16},  {128, 64},  {256, 16}, {256, 64},
                           {1024, 16}, {2048, 16}};
  bool agree = true;
  int shapes_run = 0;
  const Shape* crossover_both = nullptr;
  const Shape* crossover_cold = nullptr;
  for (const Shape& shape : kShapes) {
    const int n = shape.n;
    const int d = shape.d;
    if (n > max_n) {
      std::printf("(n=%d d=%d skipped: LKP_DUAL_MAX_N=%d)\n", n, d, max_n);
      continue;
    }
    const Matrix v = RandomFactor(n, d, 9500 + n + d);
    Rng qrng(100 + static_cast<uint64_t>(n));
    Vector q(n);
    for (int i = 0; i < n; ++i) q[i] = std::exp(0.3 * qrng.Normal());

    // alpha=0.5 is the timed row; the outer alphas re-check exactness
    // near the blend's endpoints with a single rep each. Small pools
    // take more reps and draws so the timings clear timer noise; n=2048
    // builds are seconds each, so one rep is the measurement.
    for (double alpha : {0.25, 0.5, 0.99}) {
      Matrix w = v;
      const double sqrt_alpha = std::sqrt(alpha);
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < d; ++c) w(r, c) *= sqrt_alpha * q[r];
      }
      Vector added(n);
      for (int i = 0; i < n; ++i) added[i] = (1.0 - alpha) * q[i] * q[i];

      const bool timed = alpha == 0.5;
      const int reps = !timed ? 1 : n <= 128 ? 20 : n <= 1024 ? 3 : 1;
      const int draws = n <= 256 ? 100 : 10;
      std::optional<KDpp> primal;
      std::optional<KDpp> fdiag;
      matrix_probe::Arm();
      const double primal_ms = BestOfMillis(
          [&] {
            Matrix l = MatMulTransB(v, v);
            l *= alpha;
            l.AddDiagonal(1.0 - alpha);
            for (int r = 0; r < n; ++r) {
              for (int c = 0; c < n; ++c) l(r, c) *= q[r] * q[c];
            }
            return KDpp::Create(std::move(l), k);
          },
          reps, &primal);
      const long peak_primal = matrix_probe::Disarm();
      matrix_probe::Arm();
      const double fdiag_ms = BestOfMillis(
          [&] {
            auto factor = LowRankFactor::Create(w);
            factor.status().CheckOK();
            return KDpp::CreateFactorDiag(std::move(factor).ValueOrDie(),
                                          Vector(added), k);
          },
          reps, &fdiag);
      const long peak_fdiag = matrix_probe::Disarm();

      const double lz_p = primal->LogNormalizer();
      const double dlogz = std::fabs(lz_p - fdiag->LogNormalizer()) /
                           std::max(1.0, std::fabs(lz_p));
      const Vector diag_p = primal->MarginalDiagonal();
      const Vector diag_f = fdiag->MarginalDiagonal();
      double dmarg = 0.0;
      for (int i = 0; i < n; ++i) {
        dmarg = std::max(dmarg, std::fabs(diag_p[i] - diag_f[i]) /
                                    std::max(1e-12, std::fabs(diag_p[i])));
      }

      // Shared Rng::Fork discipline: the streams must be identical
      // subset-for-subset, not just equidistributed.
      std::vector<std::vector<int>> draws_p;
      std::vector<std::vector<int>> draws_f;
      const double primal_draw_us =
          MeanDrawMicros(*primal, 79, draws, &draws_p);
      const double fdiag_draw_us = MeanDrawMicros(*fdiag, 79, draws, &draws_f);
      int equal_draws = 0;
      for (int t = 0; t < draws; ++t) {
        const size_t i = static_cast<size_t>(t);
        if (draws_p[i] == draws_f[i]) ++equal_draws;
      }

      // The memory claim is part of the verdict: the factor-diag build
      // must stay within its O(n d + d^2) footprint — never an n x n
      // matrix when d < n (at d >= n the d x d capacitance is the floor).
      const long footprint =
          std::max(static_cast<long>(n) * d, static_cast<long>(d) * d);
      const bool row_ok = dlogz <= 1e-10 && dmarg <= 1e-8 &&
                          equal_draws == draws && peak_fdiag <= footprint;
      if (!row_ok) agree = false;
      if (timed && crossover_both == nullptr && fdiag_ms < primal_ms &&
          fdiag_draw_us < primal_draw_us) {
        crossover_both = &shape;
      }
      const double cold_fdiag_ms = fdiag_ms + fdiag_draw_us * 1e-3;
      const double cold_primal_ms = primal_ms + primal_draw_us * 1e-3;
      if (timed && crossover_cold == nullptr &&
          cold_fdiag_ms < cold_primal_ms) {
        crossover_cold = &shape;
      }
      ++shapes_run;
      std::printf("%6d %5d %6.2f %6d %12.3f %12.3f %12.2f %12.2f %10ld "
                  "%10ld %11.2e %11.2e %5d/%d\n",
                  n, d, alpha, reps, primal_ms, fdiag_ms, primal_draw_us,
                  fdiag_draw_us, peak_primal, peak_fdiag, dlogz, dmarg,
                  equal_draws, draws);
      std::fflush(stdout);
    }
  }

  auto print_crossover = [](const char* name, const Shape* shape) {
    if (shape == nullptr) {
      std::printf("crossover %s: none\n", name);
      return;
    }
    std::printf("crossover %s: n=%d d=%d kappa=%.3f\n", name, shape->n,
                shape->d,
                static_cast<double>(shape->n) /
                    (static_cast<double>(shape->d) * shape->d));
  };
  std::printf("\n");
  print_crossover("build_and_draw", crossover_both);
  print_crossover("cold_request", crossover_cold);
  if (shapes_run == 0) {
    std::printf("\nBLEND UNVERIFIED: LKP_DUAL_MAX_N=%d trimmed every "
                "shape\n", max_n);
    return 1;
  }
  if (!agree) {
    std::printf("\nBLEND VIOLATION: factor-diag and primal blended k-DPPs "
                "disagree (or a build exceeded the O(nd + d^2) "
                "footprint)\n");
    return 1;
  }
  std::printf("\nblended factor-diag and primal agree on every shape "
              "(normalizers, marginals, bit-identical streams, no "
              "allocation beyond O(nd + d^2))\n");
  return 0;
}

int Run() {
  const char* max_n_env = std::getenv("LKP_DUAL_MAX_N");
  const int max_n = max_n_env != nullptr ? std::atoi(max_n_env) : 4096;
  const int k = 10;

  std::printf("low-rank dual vs primal k-DPP construction (k=%d)\n", k);
  std::printf("primal: materialize V V^T + KDpp::Create (O(n^3) eigen)\n");
  std::printf("dual:   KDpp::CreateDual via C = V^T V (O(n d^2 + d^3))\n\n");
  std::printf("%6s %5s %6s %12s %12s %9s %11s %11s %8s\n", "n", "d", "reps",
              "primal_ms", "dual_ms", "speedup", "dlogz_rel", "dmarg_rel",
              "streams");

  bool agree = true;
  int shapes_run = 0;
  for (int n : {256, 1024, 4096}) {
    if (n > max_n) {
      std::printf("(n=%d skipped: LKP_DUAL_MAX_N=%d)\n", n, max_n);
      continue;
    }
    for (int d : {16, 64}) {
      const Matrix v = RandomFactor(n, d, 9000 + n + d);
      auto factor = LowRankFactor::Create(v);
      factor.status().CheckOK();

      // n=4096 primal is an O(n^3) eigendecomposition: one rep is
      // minutes of work, which is exactly the cost being measured.
      const int reps = n <= 1024 ? 3 : 1;
      std::optional<KDpp> primal;
      std::optional<KDpp> dual;
      const double primal_ms = BestOfMillis(
          [&] { return KDpp::Create(factor->Materialize(), k); }, reps,
          &primal);
      const double dual_ms = BestOfMillis(
          [&] { return KDpp::CreateDual(*factor, k); }, reps, &dual);

      const double lz_p = primal->LogNormalizer();
      const double dlogz = std::fabs(lz_p - dual->LogNormalizer()) /
                           std::max(1.0, std::fabs(lz_p));

      const Vector diag_p = primal->MarginalDiagonal();
      const Vector diag_d = dual->MarginalDiagonal();
      double dmarg = 0.0;
      for (int i = 0; i < n; ++i) {
        dmarg = std::max(dmarg, std::fabs(diag_p[i] - diag_d[i]) /
                                    std::max(1e-12, std::fabs(diag_p[i])));
      }

      // Shared Rng::Fork discipline: the streams must be identical
      // subset-for-subset, not just equidistributed.
      int equal_draws = 0;
      const int draws = 10;
      Rng master_p(77);
      Rng master_d(77);
      for (int t = 0; t < draws; ++t) {
        Rng fork_p = master_p.Fork();
        Rng fork_d = master_d.Fork();
        auto sp = primal->Sample(&fork_p);
        auto sd = dual->Sample(&fork_d);
        sp.status().CheckOK();
        sd.status().CheckOK();
        if (*sp == *sd) ++equal_draws;
      }

      const bool row_ok =
          dlogz <= 1e-10 && dmarg <= 1e-8 && equal_draws == draws;
      if (!row_ok) agree = false;
      ++shapes_run;
      std::printf("%6d %5d %6d %12.2f %12.3f %8.1fx %11.2e %11.2e %5d/%d\n",
                  n, d, reps, primal_ms, dual_ms, primal_ms / dual_ms,
                  dlogz, dmarg, equal_draws, draws);
    }
  }

  int rc = 0;
  if (shapes_run == 0) {
    // Success here would record a green exactness verdict backed by
    // zero measurements.
    std::printf("\nAGREEMENT UNVERIFIED: LKP_DUAL_MAX_N=%d trimmed every "
                "shape\n", max_n);
    rc = 1;
  } else if (!agree) {
    std::printf("\nAGREEMENT VIOLATION: dual and primal k-DPPs disagree\n");
    rc = 1;
  } else {
    std::printf("\ndual and primal agree on every shape (normalizers, "
                "marginals, and bit-identical sample streams)\n");
  }
  // The blend sweep runs either way: a dual-section failure must not
  // mask a blend verdict (and vice versa — both gate the exit status).
  const int blend_rc = RunBlend(max_n);
  return rc != 0 ? rc : blend_rc;
}

}  // namespace
}  // namespace lkpdpp::bench

int main() { return lkpdpp::bench::Run(); }
