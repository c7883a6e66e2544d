/// \file test_api_unification.cpp
/// The PR-9 API redesign contract:
///
///  - JobOptions / NonlinearJobOptions are thin extensions of the shared
///    SubmitOptions base (the deadline/timeout/cancel/into/backend plumbing
///    exists exactly once);
///  - open_session(SessionOptions) is the one session entry point
///    (nonlinear and durable as orthogonal options), and durable opens of
///    the same stream write byte-identical on-disk journals, since journals
///    carry no timestamps.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/engine.hpp"
#include "engine/nonlinear_session.hpp"
#include "engine/session.hpp"
#include "io/session_store.hpp"
#include "kalman/simulate.hpp"
#include "test_util.hpp"

namespace pitk::engine {
namespace {

namespace fs = std::filesystem;
using la::index;
using la::Rng;
using la::Vector;

static_assert(std::is_base_of_v<SubmitOptions, JobOptions>,
              "JobOptions must extend the shared SubmitOptions");
static_assert(std::is_base_of_v<SubmitOptions, NonlinearJobOptions>,
              "NonlinearJobOptions must extend the shared SubmitOptions");

io::SessionStore fresh_store(const std::string& name) {
  io::DurabilityOptions o;
  o.dir = testing::TempDir() + "/pitk_api_unification/" + name;
  fs::remove_all(o.dir);
  return io::SessionStore(o);
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
}

void expect_bit_identical(const kalman::SmootherResult& a, const kalman::SmootherResult& b) {
  ASSERT_EQ(a.means.size(), b.means.size());
  for (std::size_t i = 0; i < a.means.size(); ++i)
    for (index j = 0; j < a.means[i].size(); ++j)
      EXPECT_EQ(a.means[i][j], b.means[i][j]) << "state " << i << " component " << j;
}

void feed(Session& s, const kalman::Problem& track) {
  for (index i = 1; i < track.num_states(); ++i) {
    const kalman::TimeStep& step = track.step(i);
    if (step.evolution) s.evolve(step.evolution->F, step.evolution->c, step.evolution->noise);
    if (step.observation)
      s.observe(step.observation->G, step.observation->o, step.observation->noise);
  }
}

TEST(ApiUnification, SubmitOptionsSliceCarriesTheSharedFields) {
  auto cancel = std::make_shared<CancelToken>();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  kalman::SmootherResult storage;

  JobOptions jo;
  jo.backend = Backend::Rts;
  jo.into = &storage;
  jo.deadline = deadline;
  jo.timeout = std::chrono::duration<double>(1.5);
  jo.cancel = cancel;

  // Slicing to the base keeps every shared field (one source of truth).
  const SubmitOptions& base = jo;
  EXPECT_EQ(base.backend, Backend::Rts);
  EXPECT_EQ(base.into, &storage);
  EXPECT_EQ(base.deadline, deadline);
  EXPECT_EQ(base.timeout, std::chrono::duration<double>(1.5));
  EXPECT_EQ(base.cancel, cancel);

  // And assigning a base into a derived adapter carries them over.
  NonlinearJobOptions njo;
  static_cast<SubmitOptions&>(njo) = base;
  EXPECT_EQ(njo.backend, Backend::Rts);
  EXPECT_EQ(njo.cancel, cancel);
  EXPECT_EQ(njo.delta_prior_variance, 1e4);  // derived defaults untouched
}

TEST(ApiUnification, DurableLinearSessionsJournalByteIdentically) {
  SmootherEngine eng({.threads = 2});
  Rng rng(0xAB3);
  const kalman::Problem track = kalman::make_paper_benchmark(rng, 3, 24);
  io::SessionStore store_a = fresh_store("lin-a");
  io::SessionStore store_b = fresh_store("lin-b");

  {
    Session s_a = eng.open_session(3, SessionOptions{}.durable(store_a, "tenant"));
    Session s_b = eng.open_session(3, SessionOptions{}.durable(store_b, "tenant"));
    feed(s_a, track);
    feed(s_b, track);
    expect_bit_identical(s_a.smooth(true), s_b.smooth(true));
  }
  const std::string a_bytes = file_bytes(store_a.path_for("tenant"));
  ASSERT_FALSE(a_bytes.empty());
  EXPECT_EQ(a_bytes, file_bytes(store_b.path_for("tenant")))
      << "durable opens of the same stream must journal identically";
}

TEST(ApiUnification, DurableNonlinearSessionsJournalByteIdentically) {
  SmootherEngine eng({.threads = 2});
  Rng rng_a(0xAB4), rng_b(0xAB4);  // identical streams -> identical models
  kalman::NonlinearModel m_a = kalman::make_pendulum_benchmark(rng_a, 16, 0.4);
  kalman::NonlinearModel m_b = kalman::make_pendulum_benchmark(rng_b, 16, 0.4);
  io::SessionStore store_a = fresh_store("nl-a");
  io::SessionStore store_b = fresh_store("nl-b");

  {
    NonlinearSession s_a = eng.open_session(std::move(m_a), Vector({0.4, 0.0}),
                                            SessionOptions{}.durable(store_a, "tenant"));
    NonlinearSession s_b = eng.open_session(std::move(m_b), Vector({0.4, 0.0}),
                                            SessionOptions{}.durable(store_b, "tenant"));
    expect_bit_identical(s_a.smooth(), s_b.smooth());
  }
  const std::string a_bytes = file_bytes(store_a.path_for("tenant"));
  ASSERT_FALSE(a_bytes.empty());
  EXPECT_EQ(a_bytes, file_bytes(store_b.path_for("tenant")))
      << "durable nonlinear opens of the same stream must journal identically";
}

TEST(ApiUnification, SessionOptionsValidatesThroughOpenSession) {
  SmootherEngine eng({.threads = 1});
  Rng rng(0xAB5);
  kalman::NonlinearModel m = kalman::make_pendulum_benchmark(rng, 8, 0.3);
  // Wrong-dimension u0 still throws through the unified path.
  EXPECT_THROW((void)eng.open_session(std::move(m), Vector({1.0, 2.0, 3.0})),
               std::invalid_argument);
  // Durable without a valid id throws from the store's id validation.
  io::SessionStore store = fresh_store("validate");
  EXPECT_THROW((void)eng.open_session(3, SessionOptions{}.durable(store, "bad id!")),
               std::invalid_argument);
  // The re-smooth tolerance must be finite and >= 0; 0 is the exact session.
  EXPECT_THROW((void)eng.open_session(3, SessionOptions{}.resmooth_tolerance(-1.0)),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)eng.open_session(3, SessionOptions{}.resmooth_tolerance(nan)),
               std::invalid_argument);
  EXPECT_NO_THROW((void)eng.open_session(3, SessionOptions{}.resmooth_tolerance(0.0)));
}

TEST(ApiUnification, QueuedJobsAccessorTracksTheBoundedQueue) {
  SmootherEngine eng({.threads = 1});
  EXPECT_EQ(eng.queued_jobs(), 0u);
  Rng rng(0xAB6);
  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(eng.submit(kalman::make_paper_benchmark(rng, 3, 16),
                              [] {
                                JobOptions jo;
                                jo.prior = kalman::diffuse_prior(3);
                                return jo;
                              }()));
  eng.wait_idle();
  for (auto& f : futs) (void)f.get();
  EXPECT_EQ(eng.queued_jobs(), 0u);
}

}  // namespace
}  // namespace pitk::engine
