/// \file test_resmooth.cpp
/// Incremental re-smoothing equivalence: a streaming session that re-smooths
/// after appending steps must agree with a cold full smooth of the same
/// track — across all five backends, after reset(), and from the async path
/// — while its ResmoothCache only ever does delta work.  The truncated delta
/// pass (PR 10) additionally must stay within its advertised tolerance, and
/// an exact session (resmooth_tolerance(0.0)) must remain bit-for-bit the
/// full spliced pass.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "kalman/dense_reference.hpp"
#include "la/random.hpp"
#include "test_util.hpp"

namespace pitk::engine {
namespace {

using la::index;
using la::Rng;

/// Replay states (from, to] of a fully-built problem through the stream.
void drive_range(Session& s, const kalman::Problem& p, index from, index to) {
  for (index i = from; i <= to; ++i) {
    const kalman::TimeStep& step = p.step(i);
    if (i > 0 && step.evolution) {
      const kalman::Evolution& e = *step.evolution;
      if (e.identity_h())
        s.evolve(e.F, e.c, e.noise);
      else
        s.evolve_rect(step.n, e.H, e.F, e.c, e.noise);
    }
    if (step.observation) {
      const kalman::Observation& ob = *step.observation;
      s.observe(ob.G, ob.o, ob.noise);
    }
  }
}

TEST(Resmooth, IncrementalMatchesColdFullSmoothAcrossAllBackends) {
  // Prime the cache at 40 steps, append 8 more, re-smooth incrementally; the
  // result must agree to 1e-10 with a cold solve of the full track through
  // every registered backend.
  Rng rng(7101);
  const index k = 48;
  const index split = 40;
  SmootherEngine eng({.threads = 2});
  const test::CommonProblem cp = test::common_problem(rng, 3, k);

  Session s = eng.open_session(3);
  drive_range(s, cp.for_qr, 0, split);
  (void)s.smooth(true);  // primes the ResmoothCache with the 40-step prefix
  drive_range(s, cp.for_qr, split + 1, k);
  const SmootherResult inc = s.smooth(true);  // delta: splices 8 blocks

  // An exact session rides the identical stream; its incremental result must
  // also sit within the library bar against every backend.
  Session sx = eng.open_session(3, SessionOptions{}.resmooth_tolerance(0.0));
  drive_range(sx, cp.for_qr, 0, split);
  (void)sx.smooth(true);
  drive_range(sx, cp.for_qr, split + 1, k);
  const SmootherResult exact = sx.smooth(true);

  for (const BackendInfo& info : all_backends()) {
    const SmootherResult cold =
        solve_with(info.id, cp.for_conventional, cp.prior, eng.pool());
    test::expect_means_near(inc.means, cold.means, 1e-10,
                            std::string("incremental vs ") + info.name + " means");
    test::expect_covs_near(inc.covariances, cold.covariances, 1e-10,
                           std::string("incremental vs ") + info.name + " covs");
    test::expect_means_near(exact.means, cold.means, 1e-10,
                            std::string("exact incremental vs ") + info.name + " means");
    test::expect_covs_near(exact.covariances, cold.covariances, 1e-10,
                           std::string("exact incremental vs ") + info.name + " covs");
  }
}

TEST(Resmooth, EverySmoothAlongAStreamMatchesScratchSession) {
  // Smooth after every appended step.  An exact (tolerance 0) session must be
  // bit-for-bit what a from-scratch session smoothing once would produce
  // (identical factor assembly and identical full backward pass => identical
  // arithmetic — the pre-truncation contract, preserved verbatim).  A
  // default session may take the truncated delta pass, so it gets the
  // library-wide 1e-10 bar instead.
  Rng rng(7102);
  const index k = 24;
  SmootherEngine eng({.threads = 1});
  const test::CommonProblem cp = test::common_problem(rng, 3, k);

  Session sx = eng.open_session(3, SessionOptions{}.resmooth_tolerance(0.0));
  Session s = eng.open_session(3);
  drive_range(sx, cp.for_qr, 0, 0);
  drive_range(s, cp.for_qr, 0, 0);
  for (index i = 1; i <= k; ++i) {
    drive_range(sx, cp.for_qr, i, i);
    drive_range(s, cp.for_qr, i, i);
    const SmootherResult exact = sx.smooth(true);
    const SmootherResult inc = s.smooth(true);

    Session fresh = eng.open_session(3);
    drive_range(fresh, cp.for_qr, 0, i);
    const SmootherResult scratch = fresh.smooth(true);
    test::expect_means_near(exact.means, scratch.means, 0.0, "step " + std::to_string(i));
    test::expect_covs_near(exact.covariances, scratch.covariances, 0.0,
                           "step " + std::to_string(i));
    test::expect_means_near(inc.means, scratch.means, 1e-10,
                            "delta step " + std::to_string(i));
    test::expect_covs_near(inc.covariances, scratch.covariances, 1e-10,
                           "delta step " + std::to_string(i));
  }
  EXPECT_EQ(sx.stats().truncated_resmooths, 0u)
      << "an exact session must never truncate";
}

TEST(Resmooth, ResetInvalidatesThePrefixCache) {
  // After reset() the session must not reuse any stale prefix: re-smoothing
  // the second (shorter, different-dimension) track must match a fresh
  // session bit-for-bit.
  Rng rng(7103);
  SmootherEngine eng({.threads = 2});
  const test::CommonProblem first = test::common_problem(rng, 3, 30);
  const test::CommonProblem second = test::common_problem(rng, 2, 12);

  Session s = eng.open_session(3);
  drive_range(s, first.for_qr, 0, first.for_qr.last_index());
  const SmootherResult before = s.smooth(true);  // warm 30-step cache
  ASSERT_EQ(before.means.size(), 31u);

  s.reset(2);
  drive_range(s, second.for_qr, 0, second.for_qr.last_index());
  const SmootherResult after = s.smooth(true);

  Session fresh = eng.open_session(2);
  drive_range(fresh, second.for_qr, 0, second.for_qr.last_index());
  const SmootherResult ref = fresh.smooth(true);

  ASSERT_EQ(after.means.size(), 13u) << "stale prefix leaked through reset";
  test::expect_means_near(after.means, ref.means, 0.0, "post-reset == fresh session");
  test::expect_covs_near(after.covariances, ref.covariances, 0.0, "post-reset == fresh session");

  // And the async path (its own cache) must invalidate too.
  const JobResult async = s.smooth_async(true).get();
  test::expect_means_near(async.result.means, ref.means, 0.0, "post-reset async");
}

TEST(Resmooth, RepeatedSmoothIsServedFromTheCachedResult) {
  Rng rng(7104);
  SmootherEngine eng({.threads = 1});
  const test::CommonProblem cp = test::common_problem(rng, 4, 20);

  Session s = eng.open_session(4);
  drive_range(s, cp.for_qr, 0, cp.for_qr.last_index());
  const SmootherResult a = s.smooth(true);
  const SmootherResult b = s.smooth(true);  // no mutation: cached result
  test::expect_means_near(a.means, b.means, 0.0, "cache hit");
  test::expect_covs_near(a.covariances, b.covariances, 0.0, "cache hit");

  // A covariance-free smooth off a covariance-bearing cached result drops
  // the covariances without recomputing the means.
  const SmootherResult nc = s.smooth(false);
  EXPECT_FALSE(nc.has_covariances());
  test::expect_means_near(a.means, nc.means, 0.0, "nc hit");

  // The reverse direction — a covariance upgrade of an unmutated session —
  // reuses the spliced factor and cached means, adding only the SelInv
  // sweep; the result must equal a from-the-start covariance smooth.
  Session s2 = eng.open_session(4);
  drive_range(s2, cp.for_qr, 0, cp.for_qr.last_index());
  const SmootherResult means_only = s2.smooth(false);
  EXPECT_FALSE(means_only.has_covariances());
  const SmootherResult upgraded = s2.smooth(true);
  test::expect_means_near(upgraded.means, means_only.means, 0.0, "upgrade keeps means");
  test::expect_covs_near(upgraded.covariances, a.covariances, 0.0, "upgrade covs");

  // Any new measurement invalidates the cached result.
  s.observe(la::Matrix::identity(4), la::Vector({0.1, 0.2, 0.3, 0.4}),
            kalman::CovFactor::identity(4));
  const SmootherResult c = s.smooth(true);
  double delta = 0.0;
  for (std::size_t i = 0; i < c.means.size(); ++i)
    delta = std::max(delta, la::max_abs_diff(c.means[i].span(), a.means[i].span()));
  EXPECT_GT(delta, 0.0) << "new observation must change the smoothed means";
}

TEST(Resmooth, SmoothAsyncIntoWarmCallerStorage) {
  Rng rng(7105);
  SmootherEngine eng({.threads = 2});
  const test::CommonProblem cp = test::common_problem(rng, 3, 25);

  Session s = eng.open_session(3);
  drive_range(s, cp.for_qr, 0, 18);
  SmootherResult storage;
  {
    const JobResult jr = s.smooth_async(true, &storage).get();
    EXPECT_TRUE(jr.result.means.empty()) << "into-jobs leave JobResult::result empty";
    EXPECT_EQ(jr.metrics.backend, Backend::PaigeSaunders);
    const SmootherResult sync = s.smooth(true);
    test::expect_means_near(storage.means, sync.means, 0.0, "async into == sync");
    test::expect_covs_near(storage.covariances, sync.covariances, 0.0, "async into == sync");
  }
  // Append and reuse the same storage: the steady-state serving pattern.
  drive_range(s, cp.for_qr, 19, cp.for_qr.last_index());
  {
    const JobResult jr = s.smooth_async(true, &storage).get();
    EXPECT_TRUE(jr.result.means.empty());
    const SmootherResult ref = kalman::dense_smooth(cp.for_qr, true);
    test::expect_means_near(storage.means, ref.means, 1e-7, "warm async into");
    test::expect_covs_near(storage.covariances, ref.covariances, 1e-6, "warm async into");
  }
}

/// Drive one damped fully-observed step into `s`: x' = 0.5 x + noise with an
/// identity observation.  Damped dynamics keep ||R_ii^{-1} R_{i,i+1}|| well
/// below 1, so the decay bound provably truncates the backward pass — the
/// regime the truncated delta re-smooth is built for.
void drive_damped_step(Session& s, Rng& rng, index n, bool first) {
  if (!first) {
    Matrix f = Matrix::identity(n);
    for (index q = 0; q < n; ++q) f(q, q) = 0.5;
    s.evolve(std::move(f), la::Vector(n), kalman::CovFactor::identity(n));
  }
  s.observe(Matrix::identity(n), la::random_gaussian_vector(rng, n),
            kalman::CovFactor::identity(n));
}

TEST(Resmooth, TruncatedResmoothStaysWithinTheRequestedTolerance) {
  // Property sweep over the decay tolerance: at every setting the truncated
  // result must stay within (passes x tol) of the exact session — each
  // truncated pass neglects at most `tol` per state — and on a strongly
  // damped track the bound must actually fire.
  const index n = 2;
  const index k = 150;
  for (const double tol : {1e-4, 1e-7, 1e-10}) {
    SmootherEngine eng({.threads = 1});
    Session s = eng.open_session(n, SessionOptions{}.resmooth_tolerance(tol));
    Session sx = eng.open_session(n, SessionOptions{}.resmooth_tolerance(0.0));
    Rng rng(7200 + static_cast<std::uint64_t>(-std::log10(tol)));
    Rng rng_twin = rng;  // identical observation stream for both sessions
    for (index i = 0; i <= k; ++i) {
      drive_damped_step(s, rng, n, i == 0);
      drive_damped_step(sx, rng_twin, n, i == 0);
      if (i >= 30) (void)s.smooth(true);  // re-smooth every append once warm
    }
    const SmootherResult got = s.smooth(true);
    const SmootherResult ref = sx.smooth(true);
    const SessionStats st = s.stats();
    EXPECT_GT(st.truncated_resmooths, 0u) << "tol " << tol;
    EXPECT_GT(st.steps_truncation_skipped, 0u) << "tol " << tol;
    const double bound = static_cast<double>(st.truncated_resmooths + 1) * tol;
    test::expect_means_near(got.means, ref.means, bound,
                            "truncated means within bound, tol " + std::to_string(tol));
    test::expect_covs_near(got.covariances, ref.covariances, bound,
                           "truncated covs within bound, tol " + std::to_string(tol));
  }
}

TEST(Resmooth, DefaultToleranceHoldsTheLibraryBarAcrossForcedRefreshes) {
  // 600 truncated re-smooths cross the forced-full-pass refresh interval;
  // the default tolerance must keep the served result within the
  // library-wide 1e-10 bar of the exact session throughout.
  const index n = 2;
  const index k = 600;
  SmootherEngine eng({.threads = 1});
  Session s = eng.open_session(n);
  Session sx = eng.open_session(n, SessionOptions{}.resmooth_tolerance(0.0));
  Rng rng(7201);
  Rng rng_twin = rng;
  SmootherResult out;
  for (index i = 0; i <= k; ++i) {
    drive_damped_step(s, rng, n, i == 0);
    drive_damped_step(sx, rng_twin, n, i == 0);
    if (i >= 20) s.smooth_into(out, true);
  }
  const SmootherResult ref = sx.smooth(true);
  test::expect_means_near(out.means, ref.means, 1e-10, "default-tol means");
  test::expect_covs_near(out.covariances, ref.covariances, 1e-10, "default-tol covs");
  const SessionStats st = s.stats();
  EXPECT_GT(st.truncated_resmooths, 520u)
      << "the damped track must truncate through a forced refresh";
  EXPECT_LT(st.truncated_resmooths, st.resmooth_misses)
      << "the refresh interval must force at least one full pass";
}

TEST(Resmooth, LargeColdAsyncSmoothTakesTheOddEvenPath) {
  // A cold async smooth of a >=4096-state track on a multi-thread engine
  // must route through the snapshot-isolated odd-even path (visible through
  // JobMetrics::backend), agree with the exact sequential pass, and leave
  // the async cache warm so the next append re-smooths via the truncated
  // delta path on the small-job lane.
  const index n = 2;
  const index k = 4100;
  SmootherEngine eng({.threads = 2});
  Session s = eng.open_session(n);
  Session sx = eng.open_session(n, SessionOptions{}.resmooth_tolerance(0.0));
  Rng rng(7202);
  Rng rng_twin = rng;
  for (index i = 0; i <= k; ++i) {
    drive_damped_step(s, rng, n, i == 0);
    drive_damped_step(sx, rng_twin, n, i == 0);
  }

  SmootherResult storage;
  const JobResult cold = s.smooth_async(true, &storage).get();
  EXPECT_EQ(cold.metrics.backend, Backend::OddEven)
      << "a cold large track must take the parallel path";
  const SmootherResult ref = sx.smooth(true);
  test::expect_means_near(storage.means, ref.means, 1e-8, "large cold async means");
  test::expect_covs_near(storage.covariances, ref.covariances, 1e-8,
                         "large cold async covs");

  drive_damped_step(s, rng, n, false);
  drive_damped_step(sx, rng_twin, n, false);
  const JobResult warm = s.smooth_async(true, &storage).get();
  EXPECT_EQ(warm.metrics.backend, Backend::PaigeSaunders)
      << "a warm cache keeps the track on the truncated delta path";
  const SmootherResult ref2 = sx.smooth(true);
  test::expect_means_near(storage.means, ref2.means, 1e-8, "large warm async means");
  test::expect_covs_near(storage.covariances, ref2.covariances, 1e-8,
                         "large warm async covs");
  EXPECT_GT(s.stats().truncated_resmooths, 0u)
      << "the warm append must have truncated its backward pass";

  // An exact session of the same length must stay on the sequential spliced
  // path even when cold: its bit-for-bit promise forbids the backend swap.
  const JobResult exact_job = sx.smooth_async(true).get();
  EXPECT_EQ(exact_job.metrics.backend, Backend::PaigeSaunders);
}

TEST(Resmooth, SmoothIntoReusesCallerStorageAcrossAppends) {
  Rng rng(7106);
  SmootherEngine eng({.threads = 1});
  const test::CommonProblem cp = test::common_problem(rng, 3, 32);

  Session s = eng.open_session(3);
  drive_range(s, cp.for_qr, 0, 16);
  SmootherResult out;
  s.smooth_into(out, true);
  ASSERT_EQ(out.means.size(), 17u);
  for (index i = 17; i <= cp.for_qr.last_index(); ++i) {
    drive_range(s, cp.for_qr, i, i);
    s.smooth_into(out, true);
    ASSERT_EQ(out.means.size(), static_cast<std::size_t>(i) + 1);
  }
  const SmootherResult ref = kalman::dense_smooth(cp.for_qr, true);
  test::expect_means_near(out.means, ref.means, 1e-7, "final smooth_into");
  test::expect_covs_near(out.covariances, ref.covariances, 1e-6, "final smooth_into");
}

}  // namespace
}  // namespace pitk::engine
