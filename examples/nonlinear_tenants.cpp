/// \file nonlinear_tenants.cpp
/// Nonlinear tenants through the multi-tenant engine.
///
/// Two serving patterns for iterated (Gauss-Newton/LM) smoothing:
///
///  1. Batch: many independent pendulum tracks submitted with
///     submit_nonlinear_batch — each tenant's outer loop runs as one engine
///     job, its inner linearized solves served by the executing worker's
///     warm SolverCache, so tenants interleave on one shared pool.
///  2. Streaming: a NonlinearSession that receives measurements one at a
///     time and re-smooths on demand, warm-started from the previous
///     smooth's cached means — steady-state re-smooths converge in a couple
///     of outer iterations instead of a cold solve's many.

#include <cstdio>
#include <vector>

#include "engine/engine.hpp"
#include "engine/nonlinear_session.hpp"
#include "kalman/simulate.hpp"

using namespace pitk;
using la::index;
using la::Vector;

namespace {

/// The shared noisy-pendulum benchmark with a per-tenant start angle.
kalman::NonlinearModel pendulum(la::Rng& rng, index k) {
  return kalman::make_pendulum_benchmark(rng, k, 0.4 + 0.2 * rng.uniform());
}

std::vector<Vector> flat_init(index k) {
  return std::vector<Vector>(static_cast<std::size_t>(k + 1), Vector({0.1, 0.0}));
}

}  // namespace

int main() {
  la::Rng rng(0x7E4A47);
  engine::SmootherEngine eng;
  std::printf("nonlinear tenants on a %u-way engine\n\n", eng.concurrency());

  // ---- batch: 32 pendulum tenants, Gauss-Newton outer loops as jobs ----
  const index k = 192;
  std::vector<engine::NonlinearJob> jobs;
  for (int t = 0; t < 32; ++t) {
    la::Rng jr = rng.split();
    jobs.push_back({pendulum(jr, k), flat_init(k)});
  }
  engine::NonlinearJobOptions opts;
  opts.gn.levenberg_marquardt = true;  // robust default for rough inits
  auto futures = eng.submit_nonlinear_batch(std::move(jobs), opts);
  eng.wait_idle();

  la::index total_iters = 0;
  int converged = 0;
  for (auto& f : futures) {
    engine::JobResult jr = f.get();
    total_iters += jr.metrics.outer_iterations;
    converged += jr.metrics.nonlinear_converged ? 1 : 0;
  }
  const engine::EngineStats st = eng.stats();
  std::printf("batch: %d/32 tenants converged, %.1f outer iterations/job\n", converged,
              static_cast<double>(total_iters) / 32.0);
  std::printf("engine totals: %llu jobs (%llu nonlinear), %llu outer iterations\n\n",
              static_cast<unsigned long long>(st.jobs_completed),
              static_cast<unsigned long long>(st.nonlinear_jobs),
              static_cast<unsigned long long>(st.total_outer_iterations));

  // ---- streaming: one tenant, warm-started re-smooth every 64 steps ----
  la::Rng srng = rng.split();
  kalman::NonlinearModel track = pendulum(srng, k);
  kalman::NonlinearModel seed = track;
  seed.k = 0;
  seed.dims.resize(1);
  seed.obs.resize(1);
  engine::NonlinearSession session =
      eng.open_session(seed, Vector({0.1, 0.0}), engine::SessionOptions{}.gauss_newton(opts.gn));

  std::printf("streaming tenant (re-smooth every 64 steps):\n");
  kalman::SmootherResult smoothed;
  for (index i = 1; i <= k; ++i) {
    session.advance(track.obs[static_cast<std::size_t>(i)]);
    if (i % 64 == 0) {
      session.smooth_into(smoothed);
      const engine::NonlinearSolveInfo info = session.last_info();
      std::printf("  step %4lld: %lld outer iterations (%s), cost %.4f, angle %+.3f\n",
                  static_cast<long long>(i), static_cast<long long>(info.iterations),
                  info.converged ? "converged" : "not converged", info.final_cost,
                  smoothed.means.back()[0]);
    }
  }
  engine::JobResult final_jr = session.smooth_async(/*with_covariances=*/true).get();
  std::printf("final async smooth: %lld iterations, %zu covariances\n",
              static_cast<long long>(final_jr.metrics.outer_iterations),
              final_jr.result.covariances.size());
  return 0;
}
