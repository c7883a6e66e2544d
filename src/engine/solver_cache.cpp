#include "engine/solver_cache.hpp"

#include <stdexcept>
#include <string>

#include "core/selinv.hpp"
#include "engine/control.hpp"
#include "fault/fault.hpp"
#include "kalman/dense_reference.hpp"
#include "kalman/rts.hpp"
#include "obs/trace.hpp"

namespace pitk::engine {

namespace {

/// Poison this backend's solved means when its "solve.<name>" Nan site is
/// armed (the registry's solve-span literals double as fault-site names, so
/// a test can fail exactly one backend and watch the ladder rescue the job
/// through a different, unarmed one).
void maybe_poison_means(Backend b, SmootherResult& out) noexcept {
  if (!fault::any_armed() || out.means.empty()) return;
  la::Vector& v = out.means.front();
  fault::inject_nan(backend_solve_span_name(b), v.data(),
                    static_cast<std::size_t>(v.size()));
}

}  // namespace

void solve_with_into(Backend b, const Problem& p, const std::optional<GaussianPrior>& prior,
                     par::ThreadPool& pool, const SolveOptions& opts, SolverCache& cache,
                     SmootherResult& out) {
  if (b == Backend::Auto)
    b = select_backend(p, prior.has_value(), opts.compute_covariance, pool.concurrency());
  if (!backend_supports(b, p, prior.has_value()))
    throw SolveError(SolveErrorCode::BackendUnsupported,
                     std::string("solve_with: backend '") + backend_info(b).name +
                         "' cannot solve this problem (missing prior or explicit H)");
  detail::solve_checkpoint();

  // QR-family backends absorb the prior as a step-0 observation so that all
  // backends solve the identical regularized least-squares problem; without
  // a prior the problem is used in place (no copy on the hot path).
  std::optional<Problem> folded_storage;
  if (prior && b != Backend::Rts && b != Backend::Associative)
    folded_storage = kalman::with_prior_observation(p, *prior);
  const Problem& folded = folded_storage ? *folded_storage : p;

  PITK_TRACE_SPAN(backend_solve_span_name(b));
  ++cache.jobs_served;
  switch (b) {
    case Backend::DenseReference:
      out = kalman::dense_smooth(folded, opts.compute_covariance);
      maybe_poison_means(b, out);
      return;
    case Backend::Rts: {
      out = kalman::rts_smooth(p, *prior);
      if (!opts.compute_covariance) out.covariances.clear();
      maybe_poison_means(b, out);
      return;
    }
    case Backend::PaigeSaunders: {
      // Fully warm: factor blocks, solution vectors and SelInv covariance
      // blocks all reuse their capacity; transients are workspace borrows.
      // Checkpoints between the stages give deadlines/cancellation a say
      // mid-job without any per-step cost.
      cache.session_key = nullptr;  // `factor` no longer holds a session splice
      kalman::paige_saunders_factor_into(folded, cache.factor);
      if (fault::any_armed() && !cache.factor.diag.empty())
        fault::inject_nan("solver.factor", cache.factor.diag.front().data(),
                          static_cast<std::size_t>(cache.factor.diag.front().rows()));
      detail::solve_checkpoint();
      kalman::paige_saunders_solve_into(cache.factor, out.means);
      detail::solve_checkpoint();
      if (opts.compute_covariance)
        kalman::selinv_bidiagonal_into(cache.factor, out.covariances);
      else
        out.covariances.clear();
      maybe_poison_means(b, out);
      return;
    }
    case Backend::Associative: {
      kalman::AssociativeOptions aopts;
      aopts.grain = opts.grain;
      aopts.scratch = &cache.assoc;
      kalman::associative_smooth_into(p, *prior, pool, aopts, out);
      if (!opts.compute_covariance) out.covariances.clear();
      maybe_poison_means(b, out);
      return;
    }
    case Backend::OddEven: {
      // Fully warm: the factor's level slabs and reduction storage, the
      // S-block slots and the result all reuse their capacity.
      kalman::OddEvenFactor& f = cache.oddeven_factor;
      kalman::oddeven_factor_into(folded, pool, opts.grain, f);
      detail::solve_checkpoint();
      kalman::oddeven_solve_into(f, pool, opts.grain, out.means);
      detail::solve_checkpoint();
      if (opts.compute_covariance)
        kalman::oddeven_covariances_into(f, pool, opts.grain, cache.oddeven_cov,
                                         out.covariances);
      else
        out.covariances.clear();
      maybe_poison_means(b, out);
      return;
    }
    case Backend::Auto:
      break;
  }
  throw std::invalid_argument("solve_with: unknown backend");
}

void solve_nonlinear_into(Backend b, const kalman::NonlinearModel& model,
                          const std::vector<la::Vector>& init,
                          const kalman::GaussNewtonOptions& gn, double delta_prior_variance,
                          par::ThreadPool& pool, SolverCache& cache,
                          kalman::GaussNewtonState& st, SmootherResult& out,
                          NonlinearSolveInfo& info) {
  const la::index grain = gn.linear.grain;
  if (b == Backend::Auto) b = select_nonlinear_backend(model, pool.concurrency());

  // The correction problem carries no natural prior; backends that demand
  // one get a zero-mean prior on delta_0.  Being zero-mean it only damps the
  // step (never displaces the stationary point J^T W r = 0), so the outer
  // loop still converges to the prior-free trajectory.
  std::optional<GaussianPrior> prior;
  if (backend_info(b).needs_prior) {
    if (!(delta_prior_variance > 0.0))
      throw std::invalid_argument(
          "solve_nonlinear_into: delta_prior_variance must be positive for "
          "prior-requiring backends");
    const la::index n0 = model.dims.empty() ? 0 : model.dims.front();
    GaussianPrior pr;
    pr.mean = la::Vector(n0);
    pr.cov = la::Matrix(n0, n0);
    for (la::index q = 0; q < n0; ++q) pr.cov(q, q) = delta_prior_variance;
    prior = std::move(pr);
  }

  kalman::gauss_newton_init(model, init, gn, st);
  SolveOptions inner;
  inner.compute_covariance = false;  // the paper's NC fast path
  inner.grain = grain;
  const kalman::GaussNewtonLinearSolver solver = [&](const Problem& lp, SmootherResult& delta) {
    solve_with_into(b, lp, prior, pool, inner, cache, delta);
  };

  while (st.iterations < gn.max_iterations) {
    PITK_TRACE_SPAN("gn.outer_step");
    // Outer iterations are the nonlinear job's natural checkpoint cadence: a
    // cancelled or past-deadline tenant stops before the next relinearize +
    // inner solve instead of running its whole iteration budget.
    detail::solve_checkpoint();
    fault::inject_delay("gn.outer_step");
    const kalman::GaussNewtonStep s = kalman::gauss_newton_step_into(model, st, gn, pool, solver);
    if (s == kalman::GaussNewtonStep::Converged || s == kalman::GaussNewtonStep::Stalled) break;
  }

  out.means.resize(st.states.size());
  for (std::size_t i = 0; i < st.states.size(); ++i)
    out.means[i].assign_from(st.states[i].span());
  if (gn.final_covariance) {
    PITK_TRACE_SPAN("gn.final_covariance");
    kalman::gauss_newton_relinearize(model, st.states, 0.0, pool, grain, st);
    SolveOptions with_cov;
    with_cov.compute_covariance = true;
    with_cov.grain = grain;
    solve_with_into(b, st.linearized, prior, pool, with_cov, cache, st.final_pass);
    out.covariances.resize(st.final_pass.covariances.size());
    for (std::size_t i = 0; i < st.final_pass.covariances.size(); ++i)
      out.covariances[i].assign_from(st.final_pass.covariances[i].view());
  } else {
    out.covariances.clear();
  }

  info.iterations = st.iterations;
  info.converged = st.converged;
  info.final_cost = st.cost;
}

}  // namespace pitk::engine
