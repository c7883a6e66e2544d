#pragma once

/// \file nonlinear_session.hpp
/// Long-lived streaming *nonlinear* tenant of the SmootherEngine.
///
/// The linear Session reuses its filter's finalized bidiagonal prefix;
/// relinearization gives a nonlinear tenant no such immutable prefix — every
/// Gauss-Newton pass rewrites all Jacobian blocks.  What *does* carry over
/// between smooths is the trajectory itself: appending a few measurements
/// barely moves the smoothed past, so each smooth() here warm-starts the
/// Gauss-Newton/LM loop by relinearizing around the previous smooth's cached
/// means (extended with f-predictions for the newly appended steps).  A warm
/// re-smooth therefore converges in one or two outer iterations instead of a
/// cold solve's many, and all outer-loop storage (linearized problem, inner
/// solutions, per-session solver cache) is capacity-reused across smooths.
///
/// Measurements stream in through advance(); smoothing is available inline
/// (smooth / smooth_into) or as an engine job (smooth_async) exactly like
/// the linear Session, with separate sync/async caches so a long async pass
/// never blocks an inline one.  All methods are thread-safe; a smooth copies
/// a consistent snapshot of the observation history under the session lock
/// (capacity-reused, O(k) small copies) and solves outside it, so the
/// measurement stream is never blocked behind a solve.
///
/// Created by SmootherEngine::open_session(model, u0, opts); must not outlive the
/// engine.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>

#include "engine/engine.hpp"
#include "engine/solver_cache.hpp"

namespace pitk::io {
class SessionJournal;
}

namespace pitk::engine {

/// Aggregate smoothing counters since session creation, across both the sync
/// and async caches.  warm/cold classify the solves that actually ran: a
/// warm solve started its Gauss-Newton loop from the previous smooth's
/// means, a cold one from u0 + f-predictions.  Mirrored into the global
/// metrics registry as pitk.nonlinear_session.* across all sessions.
struct NonlinearSessionStats {
  std::uint64_t cache_hits = 0;    ///< served straight from the cached result
  std::uint64_t cache_misses = 0;  ///< ran a Gauss-Newton/LM solve
  std::uint64_t warm_solves = 0;   ///< warm-started from cached means
  std::uint64_t cold_solves = 0;   ///< started from u0 + f-predictions
  std::uint64_t total_outer_iterations = 0;  ///< over all solves that ran
  std::uint64_t last_outer_iterations = 0;   ///< most recent solve (0 on a hit)
};

class NonlinearSession {
 public:
  NonlinearSession(NonlinearSession&&) noexcept = default;
  NonlinearSession& operator=(NonlinearSession&&) noexcept = default;

  /// Append the next step with an observation of it (an empty Vector means
  /// the step is unobserved).  The state dimension is carried over from the
  /// previous step.
  void advance(la::Vector obs);

  /// Append the next step unobserved.
  void advance() { advance(la::Vector()); }

  /// Index of the current (latest) state, 0-based.
  [[nodiscard]] la::index current_step() const;

  /// Gauss-Newton/LM smooth of every step seen so far, inline on the calling
  /// thread (inner solves use the engine's shared pool).  Warm-started from
  /// the previous smooth through this session's sync cache; an unmutated
  /// repeat is served straight from the cached result.  `with_covariances`
  /// adds the final-linearization covariance pass.
  [[nodiscard]] SmootherResult smooth(bool with_covariances = false) const;

  /// Same, into caller-owned storage (capacity-reusing).
  void smooth_into(SmootherResult& out, bool with_covariances = false) const;

  /// Smooth as an engine job through the session's dedicated async cache;
  /// the job snapshots and solves whatever the session has seen when it
  /// executes.  Metrics carry outer_iterations / nonlinear_converged /
  /// nonlinear_final_cost; a smooth served from the cache (no mutation since
  /// the last one) reports 0 outer iterations.  `into` follows
  /// JobOptions::into semantics.
  ///
  /// Session smooths always run as whole-job (small-path) tasks with serial
  /// inner solves: the solve holds the session's cache mutex, and a
  /// large-path job's parallel_for join helps the pool and could nest
  /// another smooth of this same session on the same thread — relocking a
  /// held std::mutex.  (The linear Session's smooth_async is small-path for
  /// the same reason; batch submit_nonlinear jobs keep their state in the
  /// worker's SolverCache and do scale out.)
  [[nodiscard]] std::future<JobResult> smooth_async(bool with_covariances = false,
                                                    SmootherResult* into = nullptr) const;

  /// Convergence summary of the most recent smooth through the sync cache.
  [[nodiscard]] NonlinearSolveInfo last_info() const;

  /// Snapshot of this session's smoothing counters (lock-free reads).
  [[nodiscard]] NonlinearSessionStats stats() const;

 private:
  friend class SmootherEngine;
  friend struct DurableAccess;  ///< recovery rebuilds State (engine/durable.cpp)

  /// Per-direction (sync/async) warm state: the model snapshot solved
  /// against, the warm-start trajectory, the outer-loop state, a dedicated
  /// solver cache for the inner linearized solves, and the last result.
  struct Cache {
    std::mutex mu;                    ///< serializes smooths through this cache
    kalman::NonlinearModel snapshot;  ///< callbacks fixed; k/dims/obs refreshed
    std::vector<la::Vector> init;     ///< warm-start trajectory (capacity-reused)
    kalman::GaussNewtonState gn;
    SolverCache solver;
    SmootherResult result;            ///< last smoothed result
    NonlinearSolveInfo info;
    std::uint64_t result_mutation = 0;
    bool result_valid = false;        ///< result matches result_mutation
    bool result_covs = false;
    bool have_means = false;          ///< result.means usable as a warm start
  };

  struct State {
    // Out of line: the inline bodies would instantiate ~unique_ptr over the
    // forward-declared SessionJournal in every including TU.
    State(SmootherEngine* e, kalman::NonlinearModel m, la::Vector u0_, NonlinearJobOptions o);
    ~State();
    SmootherEngine* engine;
    mutable std::mutex mu;
    kalman::NonlinearModel model;  ///< k/dims/obs grow with advance()
    la::Vector u0;                 ///< initial guess for state 0 (cold start)
    NonlinearJobOptions opts;
    /// Durable sessions only (SessionOptions::durable
    /// / recover_all): the write-ahead journal advance() appends to, under
    /// `mu`.  Null for plain sessions.
    std::unique_ptr<io::SessionJournal> journal;
    std::uint64_t mutations = 0;
    /// Warm-start means for compaction snapshots, copied after each solve.
    /// Guarded by the *leaf* mutex warm_mu: resmooth() writes it holding only
    /// cache.mu, compaction reads it holding `mu` — neither path may take
    /// the other's lock (cache.mu -> mu is the smooth ordering), so the copy
    /// gets its own innermost lock.
    mutable std::mutex warm_mu;
    mutable std::vector<la::Vector> warm_means;
    mutable Cache sync_cache;
    mutable Cache async_cache;
    // NonlinearSessionStats sources; relaxed atomics so resmooth() records
    // without extending any lock's critical section.
    mutable std::atomic<std::uint64_t> hits{0};
    mutable std::atomic<std::uint64_t> misses{0};
    mutable std::atomic<std::uint64_t> warm_solves{0};
    mutable std::atomic<std::uint64_t> cold_solves{0};
    mutable std::atomic<std::uint64_t> total_outer{0};
    mutable std::atomic<std::uint64_t> last_outer{0};
  };

  explicit NonlinearSession(std::shared_ptr<State> state) : state_(std::move(state)) {}

  /// Snapshot under the session lock, warm-start, solve outside it, copy the
  /// result into `out` capacity-reusing.  Serves the cached result when the
  /// session has not mutated since the last smooth through `cache`.
  /// `info_out` gets the solve's convergence summary — with iterations
  /// forced to 0 on a cache hit, so engine accounting never double-counts a
  /// solve that did not run.
  static void resmooth(const State& st, Cache& cache, bool with_covariances,
                       par::ThreadPool& pool, SmootherResult& out,
                       NonlinearSolveInfo& info_out);

  std::shared_ptr<State> state_;
};

}  // namespace pitk::engine
