#pragma once

/// \file session.hpp
/// Long-lived streaming tenant of the SmootherEngine.
///
/// A Session is the engine's UltimateKalman-style interface (paper Section
/// 5.1): measurements stream in through evolve()/observe(), the filtered
/// estimate of the current state is available at any time, and a full
/// smoothing pass over everything seen so far can be requested on demand —
/// synchronously, or as a job on the engine's shared pool via
/// smooth_async().  All methods are safe to call from any thread; the
/// underlying IncrementalFilter is guarded by a per-session mutex.
///
/// Re-smoothing is *incremental*: the filter finalizes one bidiagonal R row
/// block per eliminated state, and those blocks never change once written
/// (only reset() discards them), so the session keeps a ResmoothCache — the
/// spliced factor plus the last smoothed means/covariances — and each
/// smooth() after append()s does delta work only: O(appended steps) of
/// prefix splicing plus the back-substitution/SelInv sweep, instead of
/// re-factoring (or copying) the whole track.  The cache invalidates itself
/// on reset() via the filter's reset epoch; the per-step model (F, H, c, G,
/// noise) arrives through evolve()/observe() and is immutable once
/// absorbed, so no other invalidation exists.  A repeated smooth with no
/// intervening append is served straight from the cached result.
///
/// Sessions are created by SmootherEngine::open_session() and must not
/// outlive their engine.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/filter.hpp"
#include "engine/engine.hpp"
#include "la/qr.hpp"

namespace pitk::io {
class SessionJournal;
}

namespace pitk::engine {

struct SolverCache;

using kalman::CovFactor;
using la::Matrix;
using la::Vector;

/// Aggregate re-smoothing counters since session creation (or last reset of
/// nothing — reset() keeps counting; the numbers are lifetime totals).  Both
/// caches (sync + async) feed the same counters: what matters to a serving
/// dashboard is how much delta work this tenant's smooths cost, not which
/// cache absorbed it.  Mirrored into the global metrics registry as
/// pitk.session.resmooth_{hits,misses,cov_upgrades} across all sessions.
struct SessionStats {
  std::uint64_t resmooth_hits = 0;        ///< served straight from the cached result
  std::uint64_t resmooth_misses = 0;      ///< needed a splice + solve pass
  std::uint64_t covariance_upgrades = 0;  ///< means current; only SelInv was missing
  std::uint64_t steps_spliced = 0;        ///< finalized blocks spliced over all misses
  /// Misses whose backward pass the decay bound stopped early (the truncated
  /// delta path; 0 for sessions at resmooth_tolerance(0.0)).  Mirrored as
  /// pitk.session.truncated_resmooths; the per-pass window of states
  /// actually updated feeds the pitk.session.truncation_window histogram.
  std::uint64_t truncated_resmooths = 0;
  /// States those truncated passes proved they could skip (k+1 - window,
  /// summed): the work O(k) full passes would have spent below the bound.
  std::uint64_t steps_truncation_skipped = 0;
};

class Session {
 public:
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;

  /// Advance to the next state: u_{i+1} = F u_i + c + noise (H = I).
  void evolve(Matrix f, Vector c, CovFactor k);

  /// Advance with explicit (possibly rectangular) H and a new dimension.
  void evolve_rect(la::index n_new, Matrix h, Matrix f, Vector c, CovFactor k);

  /// Absorb an observation of the current state: o = G u_i + noise.
  void observe(Matrix g, Vector o, CovFactor l);

  /// Index of the current state (0-based).
  [[nodiscard]] la::index current_step() const;

  /// Dimension of the current state.
  [[nodiscard]] la::index current_dim() const;

  /// Filtered estimate E(u_i | o_0..o_i); nullopt while rank deficient.
  [[nodiscard]] std::optional<Vector> estimate() const;

  /// Covariance of the filtered estimate; nullopt under the same condition.
  [[nodiscard]] std::optional<Matrix> covariance() const;

  /// Smooth every state seen so far, inline on the calling thread.  Only
  /// the delta since the previous smooth is re-assembled (see the file
  /// comment); the session remains usable (and streamable) afterwards.
  [[nodiscard]] SmootherResult smooth(bool with_covariances = true) const;

  /// Incremental smooth into caller-owned storage (capacity-reusing): the
  /// zero-allocation serving path for tenants that re-smooth every few
  /// appended steps.  With a warm cache and warm `out`, the cost is
  /// O(appended steps) splicing + the back-substitution/SelInv sweep, with
  /// zero heap allocations.
  void smooth_into(SmootherResult& out, bool with_covariances = true) const;

  /// Smooth as an engine job; the future carries the result plus
  /// queue/solve metrics like any batch job.  The job smooths everything
  /// the session has seen *when it executes* (steps appended between
  /// request and execution are included), using the session's dedicated
  /// async ResmoothCache so repeated async smooths also do delta work only.
  /// When `into` is set, the result lands in that caller-owned storage
  /// (JobOptions::into semantics: keep it untouched until the future is
  /// ready, one storage per job in flight) and JobResult::result is empty.
  [[nodiscard]] std::future<JobResult> smooth_async(bool with_covariances = true,
                                                    SmootherResult* into = nullptr) const;

  /// Drop all accumulated state and restart at a fresh u_0 of dimension n0.
  /// Invalidates both re-smooth caches: the next smooth rebuilds from
  /// scratch, exactly like a fresh session.
  void reset(la::index n0);

  /// Snapshot of this session's re-smoothing counters (lock-free reads).
  [[nodiscard]] SessionStats stats() const;

 private:
  friend class SmootherEngine;
  friend struct DurableAccess;  ///< recovery rebuilds State (engine/durable.cpp)

  /// Cross-smooth state: the spliced bidiagonal factor (prefix + compressed
  /// live block) and the last smoothed result.  Two live per session — one
  /// for synchronous smooths, one for async jobs — so a long async solve
  /// never blocks an inline smooth.  The cache is per-session (not per
  /// worker): the prefix mirrors *this* session's filter, and splicing is
  /// keyed on how many of its blocks are already present, which would be
  /// meaningless storage shared across tenants.  The solve itself still
  /// runs on the executing worker's warm la::Workspace arena, so engine
  /// workers stay zero-alloc (pinned by tests/core/test_alloc_free.cpp).
  struct ResmoothCache {
    std::mutex mu;                   ///< serializes smooths through this cache
    kalman::BidiagonalFactor factor; ///< spliced factor (capacity-reused)
    la::QrScratch qr;                ///< pending-compression scratch
    kalman::SmootherResult result;   ///< last smoothed means/covariances
    std::size_t prefix_len = 0;      ///< finalized blocks currently spliced
    std::uint64_t epoch = 0;         ///< filter reset_epoch of the prefix
    std::uint64_t result_mutation = 0;  ///< State::mutations when result was computed
    bool result_valid = false;
    bool result_covs = false;        ///< result includes covariances
    /// Spliced decay-amplification bounds (filter decay_amplification(),
    /// kept in lockstep with `factor`'s prefix blocks).
    std::vector<double> decay_amp;
    /// result.means/.covariances solve the *previously* spliced factor —
    /// the precondition of the truncated delta pass.  Cleared before each
    /// solve and restored on success, so a throwing solve can't leave a
    /// half-updated result posing as a valid delta seed.
    bool means_seed_valid = false;
    bool covs_seed_valid = false;
    /// Truncated passes since the last full backward pass; a full pass is
    /// forced every kResmoothRefreshInterval so accumulated neglected
    /// corrections stay bounded (each truncated pass adds at most tol).
    std::uint32_t truncated_streak = 0;
    // ---- delta copy-out bookkeeping (see SmootherResult::serve_stamp) ----
    std::uint64_t last_stamp = 0;  ///< stamp written into the storage served last
    std::size_t last_means = 0;    ///< means entries that storage received
    std::size_t last_covs = 0;     ///< covariance entries (0 = none served)
    std::size_t means_low = 0;     ///< lowest result.means entry changed since
    std::size_t covs_low = 0;      ///< ... and result.covariances
  };

  struct State {
    // Out of line: the inline bodies would instantiate ~unique_ptr over the
    // forward-declared SessionJournal in every including TU.
    State(SmootherEngine* e, la::index n0);
    ~State();
    SmootherEngine* engine;
    mutable std::mutex mu;
    kalman::IncrementalFilter filter;
    /// Durable sessions only (SessionOptions::durable / recover_all): the
    /// write-ahead journal every mutation appends to, under `mu`.  Null for
    /// plain sessions — the common case pays one pointer test per mutation.
    std::unique_ptr<io::SessionJournal> journal;
    std::uint64_t mutations = 0;  ///< evolve/observe/reset count (result-cache key)
    /// Truncated-resmooth tolerance, fixed at open (SessionOptions); 0 makes
    /// every re-smooth the exact full pass.
    double resmooth_tol = kDefaultResmoothTolerance;
    mutable ResmoothCache sync_cache;
    mutable ResmoothCache async_cache;
    // SessionStats sources; relaxed atomics so resmooth() records without
    // extending any lock's critical section.
    mutable std::atomic<std::uint64_t> hits{0};
    mutable std::atomic<std::uint64_t> misses{0};
    mutable std::atomic<std::uint64_t> cov_upgrades{0};
    mutable std::atomic<std::uint64_t> steps_spliced{0};
    mutable std::atomic<std::uint64_t> truncated{0};
    mutable std::atomic<std::uint64_t> truncation_skipped{0};
  };

  explicit Session(std::shared_ptr<State> state) : state_(std::move(state)) {}

  /// The incremental smooth: splice the factor delta under the session
  /// lock, solve/SelInv into the cache outside it, copy into `out`
  /// capacity-reusing.  Serves straight from the cached result when the
  /// session has not mutated since the last smooth through `cache`.
  static void resmooth(const State& st, ResmoothCache& cache, bool with_covariances,
                       SmootherResult& out);

  /// Cold large-track variant for smooth_async: snapshot-isolated so the
  /// intra-parallel solve never holds `cache.mu` (a helping join can execute
  /// other session jobs on this thread — holding the cache lock across it
  /// could self-deadlock).  Splices into the executing worker's SolverCache
  /// under the session lock only, factors/solves via the odd-even backend
  /// from the spliced bidiagonal prefix, then publishes into `cache` (unless
  /// something newer landed meanwhile) so follow-up smooths hit or truncate.
  static void resmooth_large(const State& st, ResmoothCache& cache, bool with_covariances,
                             SmootherResult& out, par::ThreadPool& pool, SolverCache& sc);

  std::shared_ptr<State> state_;
};

}  // namespace pitk::engine
