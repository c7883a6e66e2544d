#include "engine/session.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "engine/engine.hpp"
#include "kalman/dense_reference.hpp"
#include "la/random.hpp"
#include "parallel/parallel_for.hpp"
#include "test_util.hpp"

namespace pitk::engine {
namespace {

using la::index;
using la::Rng;

/// Replay a fully-built problem through a session's streaming interface.
void drive(Session& s, const kalman::Problem& p) {
  for (index i = 0; i < p.num_states(); ++i) {
    const kalman::TimeStep& step = p.step(i);
    if (step.evolution) {
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

TEST(Session, StreamedSmoothMatchesDenseReference) {
  Rng rng(9001);
  SmootherEngine eng({.threads = 2});
  const test::CommonProblem cp = test::common_problem(rng, 3, 30);

  Session s = eng.open_session(3);
  drive(s, cp.for_qr);
  EXPECT_EQ(s.current_step(), cp.for_qr.last_index());
  EXPECT_EQ(s.current_dim(), 3);

  const SmootherResult got = s.smooth(true);
  const SmootherResult ref = kalman::dense_smooth(cp.for_qr, true);
  test::expect_means_near(got.means, ref.means, 1e-7);
  test::expect_covs_near(got.covariances, ref.covariances, 1e-6);
}

TEST(Session, SmoothAsyncMatchesSynchronousSmooth) {
  Rng rng(9002);
  SmootherEngine eng({.threads = 4});
  const test::CommonProblem cp = test::common_problem(rng, 3, 25);

  Session s = eng.open_session(3);
  drive(s, cp.for_qr);
  const SmootherResult sync = s.smooth(true);
  const JobResult async = s.smooth_async(true).get();
  EXPECT_EQ(async.metrics.backend, Backend::PaigeSaunders);
  EXPECT_EQ(async.metrics.num_states, cp.for_qr.num_states());
  test::expect_means_near(async.result.means, sync.means, 0.0, "async == sync");
  test::expect_covs_near(async.result.covariances, sync.covariances, 0.0, "async == sync");

  // Session jobs are accounted like batch jobs.
  eng.wait_idle();
  EXPECT_GE(eng.stats().per_backend[backend_index(Backend::PaigeSaunders)], 1u);
}

TEST(Session, FilteredEstimateAvailableMidStream) {
  Rng rng(9003);
  SmootherEngine eng({.threads = 1});
  const test::CommonProblem cp = test::common_problem(rng, 3, 12);

  Session s = eng.open_session(3);
  drive(s, cp.for_qr);  // step 0 carries the full-rank prior observation
  const auto est = s.estimate();
  ASSERT_TRUE(est.has_value());
  const auto cov = s.covariance();
  ASSERT_TRUE(cov.has_value());
  EXPECT_EQ(cov->rows(), 3);
  // The filtered estimate of the last state equals the smoothed one.
  const SmootherResult sm = s.smooth(false);
  test::expect_near(est->span(), sm.means.back().span(), 1e-8, "filtered == smoothed (last)");
}

TEST(Session, ResetStartsAFreshTrack) {
  Rng rng(9004);
  SmootherEngine eng({.threads = 2});
  const test::CommonProblem first = test::common_problem(rng, 3, 15);
  const test::CommonProblem second = test::common_problem(rng, 2, 20);

  Session s = eng.open_session(3);
  drive(s, first.for_qr);
  EXPECT_EQ(s.current_step(), first.for_qr.last_index());

  s.reset(2);
  EXPECT_EQ(s.current_step(), 0);
  EXPECT_EQ(s.current_dim(), 2);
  drive(s, second.for_qr);
  const SmootherResult got = s.smooth(true);
  const SmootherResult ref = kalman::dense_smooth(second.for_qr, true);
  test::expect_means_near(got.means, ref.means, 1e-7);
  test::expect_covs_near(got.covariances, ref.covariances, 1e-6);
}

// Many sessions streaming concurrently from pool threads, each smoothing
// mid-stream and at the end, interleaved with batch jobs on the same pool.
TEST(Session, ConcurrentSessionsStress) {
  constexpr int S = 12;
  Rng rng(9005);
  SmootherEngine eng({.threads = 4});

  std::vector<test::CommonProblem> cps;
  std::vector<Session> sessions;
  cps.reserve(S);
  sessions.reserve(S);
  for (int i = 0; i < S; ++i) {
    cps.push_back(test::common_problem(rng, 3, 24 + (i % 7)));
    sessions.push_back(eng.open_session(3));
  }

  std::vector<SmootherResult> streamed(S);
  std::vector<std::future<JobResult>> async(S);
  std::vector<int> estimates_seen(S, 0);
  // One stream per index, spread across the pool's threads (the calling
  // thread participates).
  par::parallel_for(eng.pool(), 0, S, 1, [&](index i) {
    Session& s = sessions[static_cast<std::size_t>(i)];
    const kalman::Problem& p = cps[static_cast<std::size_t>(i)].for_qr;
    for (index t = 0; t < p.num_states(); ++t) {
      const kalman::TimeStep& step = p.step(t);
      if (step.evolution) s.evolve(step.evolution->F, step.evolution->c, step.evolution->noise);
      if (step.observation)
        s.observe(step.observation->G, step.observation->o, step.observation->noise);
      // Interleave filtered reads with the stream.
      if (t % 8 == 4 && s.estimate().has_value())
        ++estimates_seen[static_cast<std::size_t>(i)];
    }
    // Synchronous smooth runs inline: always safe on a pool thread.
    streamed[static_cast<std::size_t>(i)] = s.smooth(true);
    // Async smooth is only *requested* here; the future is consumed on
    // the main thread so no pool lane ever blocks on another job.
    async[static_cast<std::size_t>(i)] = s.smooth_async(false);
  });

  for (int i = 0; i < S; ++i) {
    const SmootherResult ref = kalman::dense_smooth(cps[static_cast<std::size_t>(i)].for_qr, true);
    test::expect_means_near(streamed[static_cast<std::size_t>(i)].means, ref.means, 1e-7,
                            "session " + std::to_string(i));
    test::expect_covs_near(streamed[static_cast<std::size_t>(i)].covariances, ref.covariances,
                           1e-6, "session " + std::to_string(i));
    const JobResult jr = async[static_cast<std::size_t>(i)].get();
    test::expect_means_near(jr.result.means, ref.means, 1e-7,
                            "async session " + std::to_string(i));
    EXPECT_GT(estimates_seen[static_cast<std::size_t>(i)], 0);
  }

  eng.wait_idle();
  const EngineStats st = eng.stats();
  EXPECT_EQ(st.jobs_submitted, static_cast<std::uint64_t>(S));
  EXPECT_EQ(st.jobs_failed, 0u);
}

}  // namespace
}  // namespace pitk::engine
