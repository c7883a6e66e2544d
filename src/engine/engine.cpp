#include "engine/engine.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "engine/nonlinear_session.hpp"
#include "engine/session.hpp"
#include "engine/solver_cache.hpp"
#include "fault/fault.hpp"
#include "io/journal.hpp"  // complete SessionJournal for State's unique_ptr
#include "la/workspace.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace pitk::engine {

namespace {
/// Allocations already charged to jobs that completed on this thread.  An
/// outer job whose parallel_for join nests another job body subtracts this
/// delta from its own window, so each allocation is attributed to exactly
/// one job (see the nesting note at the cache acquisition below).
thread_local std::uint64_t tls_allocs_charged = 0;

/// Registry handles for the engine's process-wide metrics, resolved once
/// (cold: names are built and looked up under the registry mutex) and then
/// recorded through with relaxed atomics only — the warm path allocates
/// nothing.  Latency histograms are per concrete backend, indexed like
/// EngineStats::per_backend.
struct EngineMetrics {
  obs::Histogram* queue_s[num_backends];
  obs::Histogram* solve_s[num_backends];
  obs::Histogram& outer_iterations = obs::histogram("pitk.engine.outer_iterations");
  obs::Counter& jobs_small = obs::counter("pitk.engine.jobs_small");
  obs::Counter& jobs_large = obs::counter("pitk.engine.jobs_large");
  obs::Counter& jobs_failed = obs::counter("pitk.engine.jobs_failed");
  obs::Counter& jobs_rejected = obs::counter("pitk.engine.jobs_rejected");
  obs::Counter& jobs_deadline_exceeded = obs::counter("pitk.engine.jobs_deadline_exceeded");
  obs::Counter& jobs_cancelled = obs::counter("pitk.engine.jobs_cancelled");
  obs::Counter& jobs_retried = obs::counter("pitk.engine.jobs_retried");
  obs::Counter& allocations = obs::counter("pitk.engine.allocations");
  /// Lifetime busy fraction of the last engine whose stats() was taken —
  /// with several engines alive the freshest snapshot wins, which is the
  /// usual single-serving-engine deployment read correctly and a tolerable
  /// approximation otherwise.
  obs::Gauge& pool_utilization = obs::gauge("pitk.engine.pool_utilization");

  EngineMetrics() {
    for (const BackendInfo& info : all_backends()) {
      const int i = backend_index(info.id);
      queue_s[i] = &obs::histogram(std::string("pitk.engine.queue_seconds.") + info.name);
      solve_s[i] = &obs::histogram(std::string("pitk.engine.solve_seconds.") + info.name);
    }
  }
};

EngineMetrics& engine_metrics() {
  // Leaked like the registry: jobs racing process exit still record safely.
  static EngineMetrics* m = new EngineMetrics();
  return *m;
}

using Clock = std::chrono::steady_clock;

/// Effective deadline of a job: the earlier of the absolute deadline and the
/// submit-relative timeout, both optional.
std::optional<Clock::time_point> resolve_deadline(
    const std::optional<Clock::time_point>& abs,
    const std::optional<std::chrono::duration<double>>& rel) {
  std::optional<Clock::time_point> d = abs;
  if (rel) {
    const Clock::time_point t =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(*rel);
    if (!d || t < *d) d = t;
  }
  return d;
}

/// One linear solve with the one-shot degradation retry.  A non-finite
/// result (or a solver exception outside the SolveError/invalid_argument
/// taxonomy) is retried once on the ladder backend; pinned jobs are honored
/// and fail instead.  On a rescued job `metrics.backend` is rewritten to the
/// serving backend and retried/fallback_backend mark the rescue.
void solve_job_with_retry(Backend chosen, bool pinned, const Problem& p,
                          const std::optional<GaussianPrior>& prior, par::ThreadPool& pool,
                          const SolveOptions& sopts, SolverCache& cache, SmootherResult& out,
                          JobMetrics& metrics) {
  std::string first_error;
  try {
    solve_with_into(chosen, p, prior, pool, sopts, cache, out);
    if (result_is_finite(out)) return;
    first_error = std::string("non-finite result from backend '") +
                  backend_info(chosen).name + "'";
  } catch (const SolveError&) {
    throw;  // deadline/cancel/unsupported: not a numerical failure, no retry
  } catch (const std::invalid_argument&) {
    throw;  // caller error (malformed problem reaching the solver)
  } catch (const std::exception& e) {
    first_error = e.what();
  }
  obs::trace::instant("engine.numerical_failure");
  const Backend fb = pinned ? Backend::Auto : numerical_fallback(chosen, p, prior.has_value());
  if (fb == Backend::Auto)
    throw SolveError(SolveErrorCode::NumericalFailure,
                     "solve failed (" + first_error +
                         (pinned ? "); backend pinned, fallback disabled"
                                 : "); no fallback rung left"));
  metrics.retried = true;
  metrics.fallback_backend = fb;
  metrics.backend = fb;
  solve_with_into(fb, p, prior, pool, sopts, cache, out);
  if (!result_is_finite(out))
    throw SolveError(SolveErrorCode::NumericalFailure,
                     std::string("fallback backend '") + backend_info(fb).name +
                         "' also produced a non-finite result (first failure: " +
                         first_error + ")");
}
}  // namespace

SmootherEngine::SmootherEngine(EngineOptions opts)
    : opts_(opts),
      pool_(opts.threads == 0 ? par::ThreadPool::default_concurrency() : opts.threads) {
  (void)engine_metrics();  // resolve registry handles while construction is cold
  if (opts_.small_job_flops < 0.0) opts_.small_job_flops = calibrated_small_job_flops();
  // One warm cache per pool worker (the pool owner and helping external
  // threads get thread-local caches from worker_cache()).
  const unsigned workers = pool_.concurrency() - 1;
  caches_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) caches_.push_back(std::make_unique<SolverCache>());
}

SmootherEngine::~SmootherEngine() { wait_idle(); }

SolverCache& SmootherEngine::worker_cache() {
  const int id = pool_.current_worker_id();
  if (id >= 0 && static_cast<std::size_t>(id) < caches_.size())
    return *caches_[static_cast<std::size_t>(id)];
  // Threads outside the pool execute jobs too (the owner helping through
  // wait_idle, serial engines running submit inline).  Each such thread
  // keeps its own cache, shared across engines exactly like tls_workspace.
  thread_local SolverCache external;
  return external;
}

bool SmootherEngine::admit_one() {
  const std::uint64_t max = opts_.max_queued_jobs;
  const auto try_enter = [&]() -> bool {
    // CAS bounded increment: queued_ can never exceed max, under any
    // interleaving — the invariant the overload tests assert.
    std::uint64_t q = queued_.load(std::memory_order_relaxed);
    while (q < max) {
      if (queued_.compare_exchange_weak(q, q + 1, std::memory_order_acq_rel,
                                        std::memory_order_relaxed))
        return true;
    }
    return false;
  };
  if (try_enter()) return true;
  if (opts_.queue_policy == QueuePolicy::Reject) return false;
  // Block: backpressure by helping — the submitting thread runs queued jobs
  // itself (like wait_idle) until a slot frees or the wait budget runs out.
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts_.max_queue_wait_seconds));
  do {
    if (!pool_.run_one()) std::this_thread::yield();
    if (try_enter()) return true;
  } while (Clock::now() < give_up);
  return try_enter();
}

std::future<JobResult> SmootherEngine::launch(
    std::function<void(par::ThreadPool&, SolverCache&, SmootherResult&, JobMetrics&)> body,
    Backend chosen, bool large, la::index num_states, SmootherResult* into,
    LaunchControl ctl) {
  struct Pending {
    std::promise<JobResult> promise;
    Clock::time_point enqueued;
  };
  auto pending = std::make_shared<Pending>();
  pending->enqueued = Clock::now();
  std::future<JobResult> fut = pending->promise.get_future();

  // Bounded admission first: a rejected job is a submit-time outcome, its
  // future fails before anything is enqueued.
  if (opts_.max_queued_jobs > 0) {
    if (!admit_one()) {
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.jobs_submitted;
        ++stats_.jobs_rejected;
      }
      engine_metrics().jobs_rejected.add(1);
      obs::trace::instant("engine.reject");
      pending->promise.set_exception(std::make_exception_ptr(SolveError(
          SolveErrorCode::QueueFull, "submit: engine queue full (max_queued_jobs)")));
      return fut;
    }
  } else {
    queued_.fetch_add(1, std::memory_order_acq_rel);
  }

  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.jobs_submitted;
    if (large)
      ++stats_.jobs_large;
    else
      ++stats_.jobs_small;
    const std::uint64_t q = queued_.load(std::memory_order_relaxed);
    if (q > stats_.queue_high_water) stats_.queue_high_water = q;
  }
  (large ? engine_metrics().jobs_large : engine_metrics().jobs_small).add(1);
  obs::trace::instant("engine.submit");
  outstanding_.fetch_add(1, std::memory_order_acq_rel);

  pool_.submit([this, pending, body = std::move(body), chosen, large, num_states, into,
                ctl = std::move(ctl)]() mutable {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    PITK_TRACE_SPAN(backend_job_span_name(chosen));
    // Deterministic robustness tests arm this delay to hold a job between
    // dequeue and its deadline check.
    fault::inject_delay("engine.dequeue");
    const Clock::time_point start = Clock::now();
    JobResult jr;
    jr.metrics.backend = chosen;
    jr.metrics.intra_parallel = large;
    jr.metrics.num_states = num_states;
    jr.metrics.queue_seconds =
        std::chrono::duration<double>(start - pending->enqueued).count();
    // Dequeue-time control: a job already cancelled or past its deadline
    // completes with the matching SolveError without touching a solver.
    const bool cancelled_now = ctl.cancel != nullptr && ctl.cancel->cancelled();
    if (cancelled_now || (ctl.deadline && start > *ctl.deadline)) {
      EngineMetrics& em = engine_metrics();
      (cancelled_now ? em.jobs_cancelled : em.jobs_deadline_exceeded).add(1);
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        stats_.total_queue_seconds += jr.metrics.queue_seconds;
        if (cancelled_now)
          ++stats_.jobs_cancelled;
        else
          ++stats_.jobs_deadline_exceeded;
      }
      pending->promise.set_exception(std::make_exception_ptr(
          cancelled_now
              ? SolveError(SolveErrorCode::Cancelled, "job cancelled before execution")
              : SolveError(SolveErrorCode::DeadlineExceeded,
                           "job deadline exceeded before execution")));
      if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        outstanding_.notify_all();
      return;
    }
    std::exception_ptr error;
    std::optional<SolveErrorCode> error_code;
    const std::uint64_t allocs_before = la::aligned_alloc_count_this_thread();
    const std::uint64_t charged_before = tls_allocs_charged;
    // The executing thread's warm SolverCache serves the job — unless this
    // job is nested inside another one on the same thread (a large job's
    // parallel_for join helps the pool and can pick up a second job body),
    // in which case the outer job's scratch is live and the nested job gets
    // a cold one-shot cache instead.
    SolverCache& shared_cache = worker_cache();
    std::optional<SolverCache> nested_cache;
    SolverCache* cache = &shared_cache;
    if (shared_cache.in_use)
      cache = &nested_cache.emplace();
    else
      shared_cache.in_use = true;
    try {
      // The job's deadline/token are installed in a thread-local for the
      // solvers' stage checkpoints; the scope resets it for nested jobs, so
      // an outer deadline never leaks into an unrelated job body.
      detail::JobControl jc;
      if (ctl.deadline) {
        jc.deadline = *ctl.deadline;
        jc.has_deadline = true;
      }
      jc.cancel = ctl.cancel.get();
      const bool has_ctl = jc.has_deadline || jc.cancel != nullptr;
      detail::JobControlScope control_scope(has_ctl ? &jc : nullptr);
      // Small jobs solve on the inline serial pool: the whole job is one
      // pool task and spawns nothing.  Large jobs hand the shared pool to
      // the solver so nested parallel_for fans out across idle lanes (the
      // executing worker participates and helps, so no lane is lost).
      // Caller-provided `into` storage is filled in place.
      SmootherResult local;
      SmootherResult& dst = into != nullptr ? *into : local;
      body(large ? pool_ : serial_pool_, *cache, dst, jr.metrics);
      if (into == nullptr) jr.result = std::move(local);
    } catch (const SolveError& se) {
      error = std::current_exception();
      error_code = se.code();
    } catch (...) {
      error = std::current_exception();
    }
    if (!nested_cache) shared_cache.in_use = false;
    jr.metrics.allocations = (la::aligned_alloc_count_this_thread() - allocs_before) -
                             (tls_allocs_charged - charged_before);
    tls_allocs_charged += jr.metrics.allocations;
    jr.metrics.solve_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    jr.metrics.workspace_high_water_bytes =
        la::tls_workspace().high_water() * sizeof(double);
    EngineMetrics& em = engine_metrics();
    // Keyed off metrics.backend, not `chosen`: a rescued job records under
    // the backend that actually served it.
    const int bi = backend_index(jr.metrics.backend);
    if (bi >= 0 && bi < num_backends) {
      em.queue_s[bi]->record(jr.metrics.queue_seconds);
      em.solve_s[bi]->record(jr.metrics.solve_seconds);
    }
    em.allocations.add(jr.metrics.allocations);
    const bool deadline_error = error_code == SolveErrorCode::DeadlineExceeded;
    const bool cancel_error = error_code == SolveErrorCode::Cancelled;
    if (error) {
      if (deadline_error)
        em.jobs_deadline_exceeded.add(1);
      else if (cancel_error)
        em.jobs_cancelled.add(1);
      else
        em.jobs_failed.add(1);
    } else {
      if (jr.metrics.retried) em.jobs_retried.add(1);
      if (jr.metrics.outer_iterations > 0)
        em.outer_iterations.record(static_cast<double>(jr.metrics.outer_iterations));
    }
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.total_queue_seconds += jr.metrics.queue_seconds;
      stats_.total_solve_seconds += jr.metrics.solve_seconds;
      stats_.total_allocations += jr.metrics.allocations;
      if (error) {
        if (deadline_error)
          ++stats_.jobs_deadline_exceeded;
        else if (cancel_error)
          ++stats_.jobs_cancelled;
        else
          ++stats_.jobs_failed;
      } else {
        ++stats_.jobs_completed;
        ++stats_.per_backend[backend_index(jr.metrics.backend)];
        if (jr.metrics.retried) ++stats_.jobs_retried;
        if (jr.metrics.outer_iterations > 0) {
          ++stats_.nonlinear_jobs;
          stats_.total_outer_iterations +=
              static_cast<std::uint64_t>(jr.metrics.outer_iterations);
        }
      }
    }
    // Fulfill the future only after accounting, so a caller that observes
    // the job's outcome already sees it reflected in stats().
    if (error)
      pending->promise.set_exception(error);
    else
      pending->promise.set_value(std::move(jr));
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      outstanding_.notify_all();
  });
  return fut;
}

std::future<JobResult> SmootherEngine::submit(Problem p, JobOptions opts) {
  // Fast-fail malformed submissions on the submitting thread: a shape error
  // is a caller bug, and surfacing it here (instead of as a worker-side
  // exception after queueing) gives the caller its own stack trace and keeps
  // junk out of the queue.
  if (std::optional<std::string> err = p.validate())
    throw std::invalid_argument("submit: " + *err);
  if (opts.prior && p.num_states() > 0) {
    const la::index n0 = p.state_dim(0);
    if (opts.prior->mean.size() != n0 || opts.prior->cov.rows() != n0 ||
        opts.prior->cov.cols() != n0)
      throw std::invalid_argument(
          "submit: prior shape does not match the dimension of state 0");
  }
  const la::index num_states = p.num_states();
  const double flops = estimated_flops(p, opts.compute_covariance);
  // Jobs below the cut execute whole-job on one lane, so Auto must resolve
  // for that reality (a serial lane) — otherwise mid-size jobs would get the
  // parallel odd-even solver's ~2x work with none of its parallelism.
  const bool small = pool_.is_serial() || flops < opts_.small_job_flops;
  const bool pinned = opts.backend != Backend::Auto;
  Backend chosen = opts.backend;
  if (chosen == Backend::Auto)
    chosen = select_backend(p, opts.prior.has_value(), opts.compute_covariance,
                            small ? 1u : pool_.concurrency());
  const bool large = !small && backend_info(chosen).intra_parallel;
  const SolveOptions sopts{.compute_covariance = opts.compute_covariance, .grain = opts_.grain};
  auto problem = std::make_shared<const Problem>(std::move(p));
  auto prior = std::make_shared<const std::optional<GaussianPrior>>(std::move(opts.prior));
  LaunchControl ctl{resolve_deadline(opts.deadline, opts.timeout), std::move(opts.cancel)};
  return launch(
      [problem, prior, chosen, pinned, sopts](par::ThreadPool& pool, SolverCache& cache,
                                              SmootherResult& out, JobMetrics& metrics) {
        solve_job_with_retry(chosen, pinned, *problem, *prior, pool, sopts, cache, out,
                             metrics);
      },
      chosen, large, num_states, opts.into, std::move(ctl));
}

std::future<JobResult> SmootherEngine::submit_nonlinear(NonlinearJob job,
                                                        NonlinearJobOptions opts) {
  // Same fast-fail discipline as submit(): shape mismatches are caller bugs
  // and throw here; a malformed *model body* (e.g. a null callback) still
  // fails the job's future, since only the solver can detect it.
  if (job.model.dims.empty() ||
      job.model.k + 1 != static_cast<la::index>(job.model.dims.size()) ||
      static_cast<la::index>(job.model.obs.size()) != job.model.k + 1)
    throw std::invalid_argument(
        "submit_nonlinear: model must carry k+1 dims and obs entries");
  if (job.init.size() != job.model.dims.size())
    throw std::invalid_argument(
        "submit_nonlinear: init must carry one state per step (k+1 entries)");
  const la::index num_states = static_cast<la::index>(job.model.dims.size());
  const double flops = estimated_nonlinear_job_flops(job.model, opts.gn);
  const bool small = pool_.is_serial() || flops < opts_.small_job_flops;
  const bool pinned = opts.backend != Backend::Auto;
  Backend chosen = opts.backend;
  if (chosen == Backend::Auto)
    chosen = select_nonlinear_backend(job.model, small ? 1u : pool_.concurrency());
  const bool large = !small && backend_info(chosen).intra_parallel;
  auto model = std::make_shared<const kalman::NonlinearModel>(std::move(job.model));
  auto init = std::make_shared<const std::vector<la::Vector>>(std::move(job.init));
  const kalman::GaussNewtonOptions gn = opts.gn;
  const double dpv = opts.delta_prior_variance;
  LaunchControl ctl{resolve_deadline(opts.deadline, opts.timeout), std::move(opts.cancel)};
  return launch(
      [model, init, chosen, pinned, gn, dpv](par::ThreadPool& pool, SolverCache& cache,
                                             SmootherResult& out, JobMetrics& metrics) {
        // One-shot degradation retry, mirroring solve_job_with_retry: the
        // whole outer loop reruns on sequential Paige-Saunders (gauss_newton
        // _init resets the warm state, so the rerun starts clean).
        NonlinearSolveInfo info;
        std::string first_error;
        bool ok = false;
        try {
          solve_nonlinear_into(chosen, *model, *init, gn, dpv, pool, cache,
                               cache.gauss_newton, out, info);
          ok = result_is_finite(out);
          if (!ok)
            first_error = std::string("non-finite result from backend '") +
                          backend_info(chosen).name + "'";
        } catch (const SolveError&) {
          throw;
        } catch (const std::invalid_argument&) {
          throw;
        } catch (const std::exception& e) {
          first_error = e.what();
        }
        if (!ok) {
          obs::trace::instant("engine.numerical_failure");
          if (pinned || chosen == Backend::PaigeSaunders)
            throw SolveError(SolveErrorCode::NumericalFailure,
                             "nonlinear solve failed (" + first_error +
                                 (pinned ? "); backend pinned, fallback disabled"
                                         : "); no fallback rung left"));
          metrics.retried = true;
          metrics.fallback_backend = Backend::PaigeSaunders;
          metrics.backend = Backend::PaigeSaunders;
          solve_nonlinear_into(Backend::PaigeSaunders, *model, *init, gn, dpv, pool, cache,
                               cache.gauss_newton, out, info);
          if (!result_is_finite(out))
            throw SolveError(SolveErrorCode::NumericalFailure,
                             "fallback backend 'paige-saunders' also produced a "
                             "non-finite result (first failure: " +
                                 first_error + ")");
        }
        metrics.outer_iterations = info.iterations;
        metrics.nonlinear_converged = info.converged;
        metrics.nonlinear_final_cost = info.final_cost;
      },
      chosen, large, num_states, opts.into, std::move(ctl));
}

std::vector<std::future<JobResult>> SmootherEngine::submit_nonlinear_batch(
    std::vector<NonlinearJob> jobs, const NonlinearJobOptions& opts) {
  if (opts.into != nullptr)
    throw std::invalid_argument(
        "submit_nonlinear_batch: NonlinearJobOptions::into cannot be shared across a "
        "batch; use submit_nonlinear() with one storage per job");
  std::vector<std::future<JobResult>> futures;
  futures.reserve(jobs.size());
  for (NonlinearJob& j : jobs) futures.push_back(submit_nonlinear(std::move(j), opts));
  return futures;
}

std::vector<std::future<JobResult>> SmootherEngine::submit_batch(std::vector<Problem> problems,
                                                                 const JobOptions& opts) {
  // The one option set is replicated across jobs, so a single `into` target
  // would be written concurrently by every job in the batch — reject it
  // rather than race; into-storage callers submit() each job with its own
  // storage (see bench/engine_throughput.cpp).
  if (opts.into != nullptr)
    throw std::invalid_argument(
        "submit_batch: JobOptions::into cannot be shared across a batch; "
        "use submit() with one storage per job");
  std::vector<std::future<JobResult>> futures;
  futures.reserve(problems.size());
  for (Problem& p : problems) futures.push_back(submit(std::move(p), opts));
  return futures;
}

Session SmootherEngine::open_session(la::index n0, const SessionOptions& opts) {
  if (!std::isfinite(opts.resmooth_tol) || opts.resmooth_tol < 0.0)
    throw std::invalid_argument("open_session: resmooth_tol must be finite and >= 0");
  auto st = std::make_shared<Session::State>(this, n0);
  st->resmooth_tol = opts.resmooth_tol;
  if (opts.store != nullptr) {
    st->journal = io::SessionJournal::create(*opts.store, opts.id, io::SessionKind::Linear);
    st->journal->stage_open_linear(n0);
    st->journal->commit();
  }
  return Session(std::move(st));
}

NonlinearSession SmootherEngine::open_session(kalman::NonlinearModel model, la::Vector u0,
                                              const SessionOptions& opts) {
  if (model.dims.empty() || model.k + 1 != static_cast<la::index>(model.dims.size()) ||
      static_cast<la::index>(model.obs.size()) != model.k + 1)
    throw std::invalid_argument(
        "open_session: model must carry k+1 dims and obs entries");
  if (u0.size() != model.dims.front())
    throw std::invalid_argument("open_session: u0 must have dimension dims[0]");
  if (opts.nonlinear.into != nullptr)
    throw std::invalid_argument(
        "open_session: set `into` per smooth_async call, not in the "
        "session options");
  auto st = std::make_shared<NonlinearSession::State>(this, std::move(model), std::move(u0),
                                                      opts.nonlinear);
  if (opts.store != nullptr) {
    st->journal = io::SessionJournal::create(*opts.store, opts.id, io::SessionKind::Nonlinear);
    io::NonlinearSnapshot& snap = st->journal->nonlinear_scratch();
    snap.k = st->model.k;
    snap.dims = st->model.dims;
    snap.obs = st->model.obs;
    snap.u0 = st->u0;
    snap.means.clear();
    st->journal->stage_open_nonlinear(snap);
    st->journal->commit();
  }
  return NonlinearSession(std::move(st));
}

void SmootherEngine::wait_idle() {
  // A pool worker must never sleep here: parking a lane would shrink the
  // pool for whatever job is still running, so workers keep helping/yielding
  // instead of blocking on the counter.
  const bool on_worker = pool_.current_thread_in_pool();
  std::uint64_t n = outstanding_.load(std::memory_order_acquire);
  while (n != 0) {
    if (!pool_.run_one()) {
      if (on_worker)
        std::this_thread::yield();
      else
        outstanding_.wait(n, std::memory_order_acquire);
    }
    n = outstanding_.load(std::memory_order_acquire);
  }
}

EngineStats SmootherEngine::stats() const {
  engine_metrics().pool_utilization.set(pool_.utilization());
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

}  // namespace pitk::engine
