#pragma once

/// \file solver_cache.hpp
/// Warm per-worker solver state for the batched engine.
///
/// PR 2 made each backend's per-step loop allocation-free *when warm*, but a
/// worker that solves every job with freshly constructed factor/scratch
/// objects never gets warm: the `BidiagonalFactor` blocks, the associative
/// scan elements, the odd-even level slabs and S-block slots are rebuilt
/// from the heap on every job.  A SolverCache owns exactly that cross-job
/// state.  The engine keeps one per pool worker (keyed off the worker's
/// stable pool index, the same per-worker identity
/// `par::ThreadPool::current_thread_in_pool` is built on), so repeated jobs
/// scheduled onto a worker reuse storage sized to the high-water job and —
/// together with the worker's `la::Workspace` arena — touch zero heap once
/// warm.  Observable through
/// `JobMetrics::allocations` and `JobMetrics::workspace_high_water_bytes`.
///
/// A cache is not thread-safe; it must only ever be used by the one worker
/// it belongs to, one job at a time.

#include <cstddef>
#include <cstdint>

#include "core/associative.hpp"
#include "core/gauss_newton.hpp"
#include "core/oddeven.hpp"
#include "core/paige_saunders.hpp"
#include "engine/backend.hpp"
#include "la/qr.hpp"

namespace pitk::engine {

struct SolverCache {
  /// Paige-Saunders bidiagonal factor; `paige_saunders_factor_into` resizes
  /// its blocks capacity-reusing, so it grows to the worker's largest job
  /// and then stays.
  kalman::BidiagonalFactor factor;
  /// Associative scan element storage (five matrices/vectors per step).
  kalman::AssociativeScratch assoc;
  /// Odd-even SelInv S-block slots (Algorithm 2 replay storage).
  kalman::OddEvenCovScratch oddeven_cov;
  /// Warm Gauss-Newton outer-loop state for nonlinear jobs: the linearized
  /// correction problem, inner solution and candidate trajectory all reuse
  /// capacity across the jobs a worker serves, so a warm worker runs a
  /// same-shaped outer iteration with zero heap allocations (given a model
  /// with *_into callbacks).
  kalman::GaussNewtonState gauss_newton;
  /// Householder tau scratch for jobs that run QR compression against the
  /// cached factor (session splices on the snapshot-isolated large path).
  la::QrScratch qr;
  /// Odd-even factor of the OddEven backend and of large session re-smooths
  /// (built from the spliced bidiagonal prefix): its level slabs and
  /// reduction storage reuse their capacity across jobs.
  kalman::OddEvenFactor oddeven_factor;
  /// Session affinity of `factor` for the snapshot-isolated large re-smooth
  /// path: when this worker re-serves the same session in the same reset
  /// epoch, the splice copies only newly finalized blocks; any other
  /// (session, epoch) — or a batch job, which overwrites `factor` and clears
  /// the key — re-splices from scratch.
  const void* session_key = nullptr;
  std::uint64_t session_epoch = 0;
  std::size_t session_prefix = 0;
  /// Jobs this cache has served (first job on a worker is the cold one).
  std::uint64_t jobs_served = 0;
  /// Re-entrancy latch, touched only by the owning thread: a large job's
  /// nested parallel_for join helps the pool via run_one() and can execute
  /// *another job body* on this same thread while the outer job's scratch
  /// is live.  The engine leaves such nested jobs on a cold one-shot cache
  /// instead of re-entering this one.
  bool in_use = false;
};

/// Solve `p` with backend `b` like `solve_with`, but route every solver that
/// has warm-capable storage through `cache` and write the result into `out`
/// capacity-reusing.  With a warm cache, warm `out` storage of matching
/// shape and a warm per-thread workspace, a repeat solve performs zero heap
/// allocations end to end for the QR-family backends (Paige-Saunders and
/// odd-even: factorization, back substitution and SelInv).  The
/// dense-reference and RTS backends have no warm path and simply move their
/// result into `out`.
void solve_with_into(Backend b, const Problem& p, const std::optional<GaussianPrior>& prior,
                     par::ThreadPool& pool, const SolveOptions& opts, SolverCache& cache,
                     SmootherResult& out);

/// Convergence summary of one nonlinear (Gauss-Newton/LM) solve.
struct NonlinearSolveInfo {
  la::index iterations = 0;  ///< outer iterations run (incl. LM rejections)
  bool converged = false;
  double final_cost = 0.0;   ///< weighted nonlinear cost at the returned states
};

/// Run the Gauss-Newton/LM outer loop on `model` from `init`, serving every
/// inner linearized solve through backend `b` (Auto resolves via
/// select_nonlinear_backend) with `cache`'s warm storage via solve_with_into.
/// Outer-loop state lives in `st` — pass cache.gauss_newton for batch jobs
/// (warm per worker) or a caller-owned state for warm-started streaming.
/// Backends that require a prior (rts/associative) get a synthetic zero-mean
/// prior with variance `delta_prior_variance` on the step-0 *correction*; it
/// damps early steps without moving the Gauss-Newton fixed point, so all
/// backends converge to the same trajectory.  Final smoothed means land in
/// `out.means` (capacity-reusing); when `gn.final_covariance` is set, one
/// covariance-enabled pass over the final linearization fills
/// `out.covariances`.
/// `gn.linear.grain` governs both the relinearization sweep and the inner
/// solves, exactly as in direct gauss_newton_smooth.
void solve_nonlinear_into(Backend b, const kalman::NonlinearModel& model,
                          const std::vector<la::Vector>& init,
                          const kalman::GaussNewtonOptions& gn, double delta_prior_variance,
                          par::ThreadPool& pool, SolverCache& cache,
                          kalman::GaussNewtonState& st, SmootherResult& out,
                          NonlinearSolveInfo& info);

}  // namespace pitk::engine
