/// \file kernel_microbench.cpp
/// Microbenchmarks of the la/ kernel layer: packed/blocked GEMM against the
/// naive reference, the small-dimension dispatch against the packed path on
/// Kalman-sized operands, the blocked triangular kernels, and the
/// unblocked against the compact-WY blocked Householder QR on the odd-even
/// smoother's panel shapes.  Emits
/// BENCH_kernels.json through the shared JSON harness; this file is the
/// measured basis for the engine's flops calibration and the repo's perf
/// trajectory.
///
///   PITK_BENCH_REPS  repetitions per configuration (default 5)
///   PITK_BENCH_OUT   output path (default BENCH_kernels.json)
///
/// Exit code covers harness health only (JSON written, kernels ran); the
/// printed shape checks are informational, not a perf gate.

#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "la/blas.hpp"
#include "la/blas_ref.hpp"
#include "la/qr.hpp"
#include "la/random.hpp"
#include "la/workspace.hpp"

namespace {

using namespace pitk;
using bench::JsonBench;
using la::index;
using la::Matrix;
using la::Trans;

double g_checksum = 0.0;  ///< defeats whole-program elision of the kernels

/// Time `fn` (called `iters` times) for each repetition.
template <class Fn>
std::vector<double> run_reps(int reps, long iters, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  fn();  // warm caches, workspace arena, branch predictors
  for (int r = 0; r < reps; ++r)
    samples.push_back(bench::time_once([&] {
      for (long i = 0; i < iters; ++i) fn();
    }) / static_cast<double>(iters));
  return samples;
}

/// Iteration count so one repetition does ~16 Mflop (short enough for CI's
/// single-rep smoke, long enough to dwarf clock granularity).
long iters_for_flops(double flops_per_call) {
  const long it = static_cast<long>(16e6 / flops_per_call);
  return it < 1 ? 1 : it;
}

struct GemmTimes {
  double naive = 0.0;
  double dispatched = 0.0;
  double packed = 0.0;
};

GemmTimes bench_gemm_size(JsonBench& out, int reps, index n) {
  la::Rng rng(0xC0FFEE + static_cast<std::uint64_t>(n));
  Matrix a = la::random_gaussian(rng, n, n);
  Matrix b = la::random_gaussian(rng, n, n);
  Matrix c(n, n);
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  const long iters = iters_for_flops(flops);

  char name[64];
  GemmTimes t;

  std::snprintf(name, sizeof name, "gemm_naive_n%lld", static_cast<long long>(n));
  auto naive = run_reps(reps, iters, [&] {
    la::ref::gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0, c.view());
    g_checksum += c(0, 0);
  });
  t.naive = bench::percentile(naive, 0.5);
  out.record(name, naive, {{"n", static_cast<double>(n)}, {"flops", flops},
                           {"gflops", flops / t.naive * 1e-9}});

  std::snprintf(name, sizeof name, "gemm_n%lld", static_cast<long long>(n));
  auto disp = run_reps(reps, iters, [&] {
    la::gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0, c.view());
    g_checksum += c(0, 0);
  });
  t.dispatched = bench::percentile(disp, 0.5);
  out.record(name, disp, {{"n", static_cast<double>(n)}, {"flops", flops},
                          {"gflops", flops / t.dispatched * 1e-9}});

  std::snprintf(name, sizeof name, "gemm_packed_n%lld", static_cast<long long>(n));
  auto packed = run_reps(reps, iters, [&] {
    la::detail::gemm_packed(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0, c.view());
    g_checksum += c(0, 0);
  });
  t.packed = bench::percentile(packed, 0.5);
  out.record(name, packed, {{"n", static_cast<double>(n)}, {"flops", flops},
                            {"gflops", flops / t.packed * 1e-9}});

  std::printf("  n=%3lld  naive %8.3f  packed %8.3f  dispatched %8.3f GFLOP/s\n",
              static_cast<long long>(n), flops / t.naive * 1e-9, flops / t.packed * 1e-9,
              flops / t.dispatched * 1e-9);
  return t;
}

void bench_triangular(JsonBench& out, int reps) {
  la::Rng rng(0x7215);
  const index n = 48;
  Matrix t = la::random_gaussian(rng, n, n);
  for (index i = 0; i < n; ++i) t(i, i) = 2.0 + (t(i, i) < 0 ? -t(i, i) : t(i, i));
  Matrix b0 = la::random_gaussian(rng, n, n);
  Matrix b = b0;
  const double flops = static_cast<double>(n) * n * n;  // ~n^3 for trsm/trmm/syrk(half)
  const long iters = iters_for_flops(flops);

  auto trsm = run_reps(reps, iters, [&] {
    b.view().assign(b0.view());
    la::trsm_left(la::Uplo::Upper, Trans::No, la::Diag::NonUnit, t.view(), b.view());
    g_checksum += b(0, 0);
  });
  out.record("trsm_left_n48_rhs48", trsm, {{"n", 48.0}, {"flops", flops}});

  auto trmm = run_reps(reps, iters, [&] {
    b.view().assign(b0.view());
    la::trmm_left(la::Uplo::Upper, Trans::No, la::Diag::NonUnit, 1.0, t.view(), b.view());
    g_checksum += b(0, 0);
  });
  out.record("trmm_left_n48_rhs48", trmm, {{"n", 48.0}, {"flops", flops}});

  Matrix c(n, n);
  auto syrk = run_reps(reps, iters, [&] {
    la::syrk(1.0, b0.view(), Trans::No, 0.0, c.view());
    g_checksum += c(0, 0);
  });
  out.record("syrk_n48_k48", syrk, {{"n", 48.0}, {"flops", flops}});

  std::printf("  n=48 triangular: trsm %.3f  trmm %.3f  syrk %.3f us\n",
              bench::percentile(trsm, 0.5) * 1e6, bench::percentile(trmm, 0.5) * 1e6,
              bench::percentile(syrk, 0.5) * 1e6);
}

/// One odd-even QR stage at state dimension n: a rows x n panel factored
/// with Q^T applied to `attached` columns (Section 3's 2-block-row step).
struct QrStage {
  const char* name;
  index rows;
  index attached;
};

/// Factor + Q^T of each stage, through both QR code paths.  Returns the
/// worst blocked-over-unblocked speedup among the stages when n is at or
/// above the crossover, else the best one.
double bench_qr_stages(JsonBench& out, int reps, index n) {
  // Phase A: [C; E] (2n x n) with [0 D | rhs] attached; Phase B: [D; R~]
  // (2n x n) with [E 0; 0 X | rhs]; Phase C: the odd column's 3n stacked
  // rows with its right-hand side.
  const QrStage stages[] = {{"phaseA", 2 * n, n + 1}, {"phaseB", 2 * n, 2 * n + 1},
                            {"phaseC", 3 * n, 1}};
  const bool above = n >= la::detail::qr_blocked_min_cols;
  double summary = above ? 1e9 : 0.0;
  for (const QrStage& st : stages) {
    la::Rng rng(0x9E3 + static_cast<std::uint64_t>(n * 7 + st.rows));
    const Matrix a0 = la::random_gaussian(rng, st.rows, n);
    const Matrix b0 = la::random_gaussian(rng, st.rows, st.attached);
    Matrix a = a0;
    Matrix b = b0;
    std::vector<double> tau(static_cast<std::size_t>(n));
    const double m = static_cast<double>(st.rows);
    const double nd = static_cast<double>(n);
    const double flops = 2.0 * m * nd * nd - 2.0 * nd * nd * nd / 3.0 +
                         (4.0 * m * nd - 2.0 * nd * nd) * static_cast<double>(st.attached);
    const long iters = iters_for_flops(flops);
    double med[2] = {0.0, 0.0};
    for (int blocked = 0; blocked < 2; ++blocked) {
      auto t = run_reps(reps, iters, [&] {
        a.view().assign(a0.view());
        b.view().assign(b0.view());
        if (blocked)
          la::detail::qr_factor_blocked(a.view(), tau, b.view());
        else
          la::detail::qr_factor_unblocked(a.view(), tau, b.view());
        g_checksum += a(0, 0) + b(0, 0);
      });
      med[blocked] = bench::percentile(t, 0.5);
      char name[64];
      std::snprintf(name, sizeof name, "qr_%s_n%lld_%s", st.name, static_cast<long long>(n),
                    blocked ? "blocked" : "unblocked");
      out.record(name, t, {{"n", nd}, {"rows", m}, {"attached", static_cast<double>(st.attached)},
                           {"flops", flops}, {"gflops", flops / med[blocked] * 1e-9}});
    }
    const double speedup = med[0] / med[1];
    summary = above ? std::min(summary, speedup) : std::max(summary, speedup);
    std::printf("  n=%2lld %s %3lldx%-2lld +%3lld cols  unblocked %6.2f  blocked %6.2f GFLOP/s  "
                "(%.2fx)\n",
                static_cast<long long>(n), st.name, static_cast<long long>(st.rows),
                static_cast<long long>(n), static_cast<long long>(st.attached),
                flops / med[0] * 1e-9, flops / med[1] * 1e-9, speedup);
  }
  return summary;
}

void print_check(const char* what, bool ok) {
  std::printf("  [%s] %s\n", ok ? "OK " : "???", what);
}

}  // namespace

int main() {
  const int reps = bench::json_repetitions();
  JsonBench out("BENCH_kernels.json");
  std::printf("kernel microbench (%d repetitions per configuration)\n", reps);

  std::printf("square GEMM, single thread:\n");
  const std::vector<index> sizes = {2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96};
  double small_vs_packed_worst = 1e9;
  double packed_vs_naive_64 = 0.0;
  for (index n : sizes) {
    const GemmTimes t = bench_gemm_size(out, reps, n);
    if (n <= 8) small_vs_packed_worst = std::min(small_vs_packed_worst, t.packed / t.dispatched);
    if (n == 64) packed_vs_naive_64 = t.naive / t.packed;
  }

  std::printf("blocked triangular kernels:\n");
  bench_triangular(out, reps);

  std::printf("Householder QR + Q^T on attached columns (odd-even stage shapes):\n");
  // n = 16 sits below the crossover: blocking roughly breaks even there, and
  // its 16 columns are also the width of the n = 8 Paige-Saunders and filter
  // panels (24 x 16 with one attached column), which must stay unblocked.
  const double qr_best_n6 = bench_qr_stages(out, reps, 6);
  (void)bench_qr_stages(out, reps, 16);
  const double qr_worst_24 = bench_qr_stages(out, reps, 24);
  const double qr_worst_above = std::min(qr_worst_24, bench_qr_stages(out, reps, 48));

  std::printf("shape checks (informational, not a gate):\n");
  print_check("packed GEMM >= 2x naive at n = 64", packed_vs_naive_64 >= 2.0);
  std::printf("        (measured %.2fx)\n", packed_vs_naive_64);
  print_check("small-dim dispatch beats packed for every n <= 8",
              small_vs_packed_worst > 1.0);
  std::printf("        (worst small-vs-packed speedup %.2fx)\n", small_vs_packed_worst);
  print_check("blocked QR beats unblocked at every stage shape from the crossover",
              qr_worst_above > 1.0);
  std::printf("        (worst blocked-vs-unblocked speedup %.2fx)\n", qr_worst_above);
  print_check("unblocked QR wins at n = 6", qr_best_n6 < 1.0);
  std::printf("        (best blocked-vs-unblocked speedup %.2fx)\n", qr_best_n6);

  out.record("meta_checksum", {0.0}, {{"checksum", g_checksum}});
  if (!out.write()) return 1;
  return 0;
}
