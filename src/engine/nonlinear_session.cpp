#include "engine/nonlinear_session.hpp"

#include <algorithm>
#include <utility>

#include "io/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace pitk::engine {

namespace {
/// Process-wide mirrors of the per-session counters, aggregated across every
/// nonlinear session (cold registration, relaxed-atomic recording; leaked
/// like the registry so sessions racing process exit still record safely).
struct NlsMetrics {
  obs::Counter& hits = obs::counter("pitk.nonlinear_session.cache_hits");
  obs::Counter& misses = obs::counter("pitk.nonlinear_session.cache_misses");
  obs::Histogram& outer_iterations =
      obs::histogram("pitk.nonlinear_session.outer_iterations");
};

NlsMetrics& nls_metrics() {
  static NlsMetrics* m = new NlsMetrics();
  return *m;
}
}  // namespace

NonlinearSession::State::State(SmootherEngine* e, kalman::NonlinearModel m, la::Vector u0_,
                               NonlinearJobOptions o)
    : engine(e), model(std::move(m)), u0(std::move(u0_)), opts(std::move(o)) {}
NonlinearSession::State::~State() = default;

void NonlinearSession::advance(la::Vector obs) {
  std::lock_guard<std::mutex> lk(state_->mu);
  io::SessionJournal* j = state_->journal.get();
  if (j) j->stage_advance(obs);  // before the move consumes it
  kalman::NonlinearModel& m = state_->model;
  m.k += 1;
  m.dims.push_back(m.dims.back());
  m.obs.push_back(std::move(obs));
  ++state_->mutations;
  if (j) {
    j->commit();
    if (j->wants_compaction()) {
      // Snapshot = grown history + the last solve's means as a warm start.
      // warm_mu is a leaf lock (see the State comment), so taking it while
      // holding `mu` cannot invert against resmooth's cache.mu -> mu order.
      io::NonlinearSnapshot& s = j->nonlinear_scratch();
      s.k = m.k;
      s.dims = m.dims;
      s.obs.resize(m.obs.size());
      for (std::size_t i = 0; i < m.obs.size(); ++i)
        s.obs[i].assign_from(m.obs[i].span());
      s.u0.assign_from(state_->u0.span());
      {
        std::lock_guard<std::mutex> wl(state_->warm_mu);
        s.means.resize(state_->warm_means.size());
        for (std::size_t i = 0; i < state_->warm_means.size(); ++i)
          s.means[i].assign_from(state_->warm_means[i].span());
      }
      j->compact_nonlinear(s);
    }
  }
}

la::index NonlinearSession::current_step() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->model.k;
}

void NonlinearSession::resmooth(const State& st, Cache& cache, bool with_covariances,
                                par::ThreadPool& pool, SmootherResult& out,
                                NonlinearSolveInfo& info_out) {
  std::lock_guard<std::mutex> cl(cache.mu);
  bool hit = false;
  std::uint64_t snap_mut = 0;
  {
    // The session lock is held only for the snapshot copy — O(k) small
    // assignments into capacity-reused storage — never for the solve, so a
    // smooth does not stall the measurement stream.
    PITK_TRACE_SPAN("nls.snapshot");
    std::lock_guard<std::mutex> lk(st.mu);
    const bool current = cache.result_valid && cache.result_mutation == st.mutations;
    hit = current && (cache.result_covs || !with_covariances);
    if (!hit) {
      kalman::NonlinearModel& snap = cache.snapshot;
      if (!snap.f) {
        // Callbacks are fixed at open_session() time: copy once.
        snap.f = st.model.f;
        snap.f_jac = st.model.f_jac;
        snap.process_noise = st.model.process_noise;
        snap.g = st.model.g;
        snap.g_jac = st.model.g_jac;
        snap.obs_noise = st.model.obs_noise;
        snap.f_into = st.model.f_into;
        snap.f_jac_into = st.model.f_jac_into;
        snap.g_into = st.model.g_into;
        snap.g_jac_into = st.model.g_jac_into;
      }
      snap.k = st.model.k;
      snap.dims = st.model.dims;
      snap.obs.resize(st.model.obs.size());
      for (std::size_t i = 0; i < st.model.obs.size(); ++i)
        snap.obs[i].assign_from(st.model.obs[i].span());
      snap_mut = st.mutations;
    }
  }
  NlsMetrics& nm = nls_metrics();
  if (!hit) {
    const bool warm = cache.have_means;
    {
      // Warm start: the previous smooth's means where they exist, extended by
      // f-predictions for the appended steps (u0 anchors a cold start).
      PITK_TRACE_SPAN("nls.warm_start");
      const std::size_t n_states = cache.snapshot.obs.size();
      cache.init.resize(n_states);
      const std::size_t have =
          cache.have_means ? std::min(cache.result.means.size(), n_states) : 0;
      for (std::size_t i = 0; i < have; ++i)
        cache.init[i].assign_from(cache.result.means[i].span());
      for (std::size_t i = have; i < n_states; ++i) {
        if (i == 0) {
          cache.init[0].assign_from(st.u0.span());
        } else if (cache.snapshot.f_into) {
          cache.snapshot.f_into(static_cast<la::index>(i), cache.init[i - 1], cache.init[i]);
        } else {
          cache.init[i] = cache.snapshot.f(static_cast<la::index>(i), cache.init[i - 1]);
        }
      }
    }

    kalman::GaussNewtonOptions gn = st.opts.gn;
    gn.final_covariance = with_covariances;
    {
      PITK_TRACE_SPAN("nls.solve");
      solve_nonlinear_into(st.opts.backend, cache.snapshot, cache.init, gn,
                           st.opts.delta_prior_variance, pool, cache.solver, cache.gn,
                           cache.result, cache.info);
    }
    cache.result_mutation = snap_mut;
    cache.result_valid = true;
    cache.result_covs = with_covariances;
    cache.have_means = true;
    if (st.journal) {
      // Publish the fresh means for compaction snapshots (leaf lock; see the
      // warm_mu comment in the header).  Plain sessions skip the copy.
      std::lock_guard<std::mutex> wl(st.warm_mu);
      st.warm_means.resize(cache.result.means.size());
      for (std::size_t i = 0; i < cache.result.means.size(); ++i)
        st.warm_means[i].assign_from(cache.result.means[i].span());
    }
    st.misses.fetch_add(1, std::memory_order_relaxed);
    (warm ? st.warm_solves : st.cold_solves).fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t iters = static_cast<std::uint64_t>(cache.info.iterations);
    st.total_outer.fetch_add(iters, std::memory_order_relaxed);
    st.last_outer.store(iters, std::memory_order_relaxed);
    nm.misses.add(1);
    nm.outer_iterations.record(static_cast<double>(iters));
  } else {
    st.hits.fetch_add(1, std::memory_order_relaxed);
    st.last_outer.store(0, std::memory_order_relaxed);
    nm.hits.add(1);
  }
  // A hit ran no solve: record that in the cache too, so last_info() and
  // job metrics agree that repeat smooths cost zero outer iterations.
  if (hit) cache.info.iterations = 0;
  info_out = cache.info;
  out.means.resize(cache.result.means.size());
  for (std::size_t i = 0; i < cache.result.means.size(); ++i)
    out.means[i].assign_from(cache.result.means[i].span());
  if (with_covariances) {
    out.covariances.resize(cache.result.covariances.size());
    for (std::size_t i = 0; i < cache.result.covariances.size(); ++i)
      out.covariances[i].assign_from(cache.result.covariances[i].view());
  } else {
    out.covariances.clear();
  }
}

SmootherResult NonlinearSession::smooth(bool with_covariances) const {
  SmootherResult out;
  NonlinearSolveInfo info;
  resmooth(*state_, state_->sync_cache, with_covariances, state_->engine->pool_, out, info);
  return out;
}

void NonlinearSession::smooth_into(SmootherResult& out, bool with_covariances) const {
  NonlinearSolveInfo info;
  resmooth(*state_, state_->sync_cache, with_covariances, state_->engine->pool_, out, info);
}

std::future<JobResult> NonlinearSession::smooth_async(bool with_covariances,
                                                      SmootherResult* into) const {
  auto st = state_;
  la::index num_states = 0;
  Backend chosen = st->opts.backend;
  {
    std::lock_guard<std::mutex> lk(st->mu);
    num_states = static_cast<la::index>(st->model.dims.size());
    // Always the small path (see the header comment: the solve holds the
    // cache mutex, so it must never help the pool mid-job), hence Auto
    // resolves for a serial lane.
    if (chosen == Backend::Auto) chosen = select_nonlinear_backend(st->model, 1u);
  }
  return st->engine->launch(
      [st, with_covariances](par::ThreadPool& pool, SolverCache&, SmootherResult& out,
                             JobMetrics& metrics) {
        NonlinearSolveInfo info;
        resmooth(*st, st->async_cache, with_covariances, pool, out, info);
        metrics.outer_iterations = info.iterations;
        metrics.nonlinear_converged = info.converged;
        metrics.nonlinear_final_cost = info.final_cost;
      },
      chosen, /*large=*/false, num_states, into);
}

NonlinearSolveInfo NonlinearSession::last_info() const {
  std::lock_guard<std::mutex> cl(state_->sync_cache.mu);
  return state_->sync_cache.info;
}

NonlinearSessionStats NonlinearSession::stats() const {
  const State& st = *state_;
  NonlinearSessionStats s;
  s.cache_hits = st.hits.load(std::memory_order_relaxed);
  s.cache_misses = st.misses.load(std::memory_order_relaxed);
  s.warm_solves = st.warm_solves.load(std::memory_order_relaxed);
  s.cold_solves = st.cold_solves.load(std::memory_order_relaxed);
  s.total_outer_iterations = st.total_outer.load(std::memory_order_relaxed);
  s.last_outer_iterations = st.last_outer.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pitk::engine
