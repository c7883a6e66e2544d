#include "engine/session.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "core/oddeven.hpp"
#include "core/selinv.hpp"
#include "engine/solver_cache.hpp"
#include "io/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace pitk::engine {

namespace {
/// Process-wide mirrors of the per-session counters, aggregated across every
/// session (cold registration, relaxed-atomic recording; leaked like the
/// registry so sessions racing process exit still record safely).
struct SessionMetrics {
  obs::Counter& hits = obs::counter("pitk.session.resmooth_hits");
  obs::Counter& misses = obs::counter("pitk.session.resmooth_misses");
  obs::Counter& cov_upgrades = obs::counter("pitk.session.cov_upgrades");
  obs::Counter& truncated = obs::counter("pitk.session.truncated_resmooths");
  obs::Histogram& truncation_window = obs::histogram("pitk.session.truncation_window");
};

SessionMetrics& session_metrics() {
  static SessionMetrics* m = new SessionMetrics();
  return *m;
}

/// Truncated passes allowed between forced full backward passes.  Each
/// truncated pass can neglect a correction of up to resmooth_tol per state,
/// so the accumulated deviation is bounded by this interval times the
/// tolerance: 512 * 1e-13 ~ 5e-11 at the default, inside the library-wide
/// 1e-10 agreement bar.
constexpr std::uint32_t kResmoothRefreshInterval = 512;

/// smooth_async routes tracks at least this long through the
/// snapshot-isolated odd-even path when the session cache is cold (a warm
/// cache's truncated pass beats any parallel full pass).
constexpr la::index kLargeSessionSteps = 4096;

/// Globally unique serving stamps for the delta copy-out: a storage carries
/// the stamp of the cache serve that last wrote it, so a cache can prove the
/// storage's unchanged prefix is its own (pointer identity alone would
/// confuse two caches alternately serving one storage, or a recycled stack
/// address).
std::uint64_t next_serve_stamp() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

namespace {
/// Journal write-ahead discipline for one mutation, run under the session
/// lock after the filter accepted it: commit the staged record (first
/// failure throws — durability loss is loud — and poisons the journal, so
/// the torn tail stays a clean truncation point), then compact when the
/// tail since the last snapshot crossed the threshold.
void commit_and_maybe_compact(io::SessionJournal& j,
                              const kalman::IncrementalFilter& filter) {
  j.commit();
  if (j.wants_compaction()) j.compact_linear(filter);
}
}  // namespace

Session::State::State(SmootherEngine* e, la::index n0)
    : engine(e), filter(n0) {}
Session::State::~State() = default;

void Session::evolve(Matrix f, Vector c, CovFactor k) {
  std::lock_guard<std::mutex> lk(state_->mu);
  // Stage before the filter consumes the arguments; a rejected evolve must
  // never reach the journal.
  if (state_->journal) state_->journal->stage_evolve(f, c, k);
  state_->filter.evolve(std::move(f), std::move(c), std::move(k));
  ++state_->mutations;
  if (state_->journal) commit_and_maybe_compact(*state_->journal, state_->filter);
}

void Session::evolve_rect(la::index n_new, Matrix h, Matrix f, Vector c, CovFactor k) {
  std::lock_guard<std::mutex> lk(state_->mu);
  if (state_->journal) state_->journal->stage_evolve_rect(n_new, h, f, c, k);
  state_->filter.evolve_rect(n_new, std::move(h), std::move(f), std::move(c), std::move(k));
  ++state_->mutations;
  if (state_->journal) commit_and_maybe_compact(*state_->journal, state_->filter);
}

void Session::observe(Matrix g, Vector o, CovFactor l) {
  std::lock_guard<std::mutex> lk(state_->mu);
  if (state_->journal) state_->journal->stage_observe(g, o, l);
  state_->filter.observe(std::move(g), std::move(o), std::move(l));
  ++state_->mutations;
  if (state_->journal) commit_and_maybe_compact(*state_->journal, state_->filter);
}

la::index Session::current_step() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->filter.current_step();
}

la::index Session::current_dim() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->filter.current_dim();
}

std::optional<Vector> Session::estimate() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->filter.estimate();
}

std::optional<Matrix> Session::covariance() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->filter.covariance();
}

void Session::resmooth(const State& st, ResmoothCache& cache, bool with_covariances,
                       SmootherResult& out) {
  std::lock_guard<std::mutex> cl(cache.mu);
  bool hit = false;
  bool covs_upgrade = false;  // factor and means current, only SelInv missing
  // Start points of the ranged passes: the previous live-block index when
  // the cache holds a seed for the truncated pass, 0 for a full pass.
  la::index means_from = 0;
  la::index covs_from = 0;
  {
    // The session lock is held only for the delta: epoch check, splice of
    // the newly finalized blocks (and their decay bounds), and compression
    // of the pending rows — O(appended steps), so a re-smooth never stalls
    // the measurement stream behind a full-track pass.
    PITK_TRACE_SPAN("session.splice");
    std::lock_guard<std::mutex> lk(st.mu);
    const kalman::IncrementalFilter& filt = st.filter;
    if (cache.epoch != filt.reset_epoch()) {
      cache.prefix_len = 0;  // reset() discarded the prefix: rebuild from scratch
      cache.epoch = filt.reset_epoch();
      cache.result_valid = false;
      cache.means_seed_valid = false;
      cache.covs_seed_valid = false;
      // A reset may reshape the track under a stamped storage; force the
      // next copy-out to rewrite everything.
      cache.last_stamp = 0;
    }
    const bool current = cache.result_valid && cache.result_mutation == st.mutations;
    hit = current && (cache.result_covs || !with_covariances);
    covs_upgrade = current && !hit;
    if (!hit && !covs_upgrade) {
      const std::size_t prefix_before = cache.prefix_len;
      filt.resmooth_from(static_cast<la::index>(prefix_before), cache.factor, cache.qr);
      cache.prefix_len = static_cast<std::size_t>(filt.finished_steps());
      // Keep the decay bounds in lockstep with the spliced prefix blocks.
      const std::span<const double> amps = filt.decay_amplification();
      cache.decay_amp.resize(amps.size());
      std::copy(amps.begin() + static_cast<std::ptrdiff_t>(prefix_before), amps.end(),
                cache.decay_amp.begin() + static_cast<std::ptrdiff_t>(prefix_before));
      cache.result_mutation = st.mutations;
      cache.result_valid = false;  // until the solve below completes
      // The truncated pass needs a seed solving the previous splice of this
      // factor (the old live-block index is `prefix_before`, so the seed must
      // hold exactly prefix_before + 1 states), at least one finalized block
      // to seed across, and headroom before the forced full refresh.
      const std::size_t seed_len = prefix_before + 1;
      if (cache.means_seed_valid && prefix_before >= 1 &&
          cache.result.means.size() == seed_len &&
          cache.truncated_streak < kResmoothRefreshInterval) {
        means_from = static_cast<la::index>(prefix_before);
        if (with_covariances && cache.covs_seed_valid &&
            cache.result.covariances.size() == seed_len)
          covs_from = means_from;
      }
      cache.means_seed_valid = false;  // restored once the solve succeeds
      cache.covs_seed_valid = false;
      st.steps_spliced.fetch_add(cache.prefix_len - prefix_before,
                                 std::memory_order_relaxed);
    }
  }
  SessionMetrics& sm = session_metrics();
  if (hit) {
    st.hits.fetch_add(1, std::memory_order_relaxed);
    sm.hits.add(1);
  } else if (covs_upgrade) {
    st.cov_upgrades.fetch_add(1, std::memory_order_relaxed);
    sm.cov_upgrades.add(1);
  } else {
    st.misses.fetch_add(1, std::memory_order_relaxed);
    sm.misses.add(1);
  }
  if (!hit) {
    std::size_t pass_low = 0;  // lowest state this pass rewrote
    bool truncated = false;
    // A covariance upgrade of an unmutated session keeps the spliced factor
    // and the cached means; only the SelInv sweep is missing.
    if (!covs_upgrade) {
      PITK_TRACE_SPAN("session.solve");
      const kalman::TruncatedPass tp = kalman::paige_saunders_solve_into(
          cache.factor, cache.result.means, means_from, cache.decay_amp, st.resmooth_tol);
      pass_low = static_cast<std::size_t>(tp.updated_from);
      truncated = tp.truncated;
      cache.means_low = std::min(cache.means_low, pass_low);
      cache.means_seed_valid = true;
    }
    if (with_covariances) {
      PITK_TRACE_SPAN("session.selinv");
      const kalman::TruncatedPass tp = kalman::selinv_bidiagonal_into(
          cache.factor, cache.result.covariances, covs_from, cache.decay_amp, st.resmooth_tol);
      const std::size_t cov_low = static_cast<std::size_t>(tp.updated_from);
      truncated = truncated || tp.truncated;
      pass_low = std::min(pass_low, cov_low);
      cache.covs_low = std::min(cache.covs_low, cov_low);
      cache.covs_seed_valid = true;
    }
    // On a covariance-free pass the (now stale) cached covariance blocks are
    // kept for capacity reuse: result_covs gates serving them, and the next
    // covariance pass overwrites them in place — a tenant alternating NC and
    // covariance re-smooths stays allocation-free.
    cache.result_covs = with_covariances;
    cache.result_valid = true;
    if (truncated) {
      // Neglected corrections accumulate at most resmooth_tol per truncated
      // pass; the streak forces a periodic full pass to re-zero them.
      cache.truncated_streak += 1;
      const std::size_t total = cache.result.means.size();
      st.truncated.fetch_add(1, std::memory_order_relaxed);
      st.truncation_skipped.fetch_add(pass_low, std::memory_order_relaxed);
      sm.truncated.add(1);
      sm.truncation_window.record(static_cast<double>(total - pass_low));
    } else if (!covs_upgrade && means_from == 0) {
      cache.truncated_streak = 0;  // a full backward pass re-zeroed the error
    }
  }
  // ---- copy-out: rewrite only what changed since this storage was last
  // served from this cache (see SmootherResult::serve_stamp).  Any doubt —
  // unknown storage, stale stamp, resized vectors — falls back to the full
  // copy, so the fast path is purely an optimization.
  const std::size_t n_means = cache.result.means.size();
  const bool storage_matches = out.serve_stamp != 0 && out.serve_stamp == cache.last_stamp &&
                               out.means.size() == cache.last_means &&
                               cache.last_means <= n_means;
  const std::size_t mfrom = storage_matches ? std::min(cache.means_low, n_means) : 0;
  out.means.resize(n_means);
  for (std::size_t i = mfrom; i < n_means; ++i)
    out.means[i].assign_from(cache.result.means[i].span());
  if (with_covariances) {
    const std::size_t n_covs = cache.result.covariances.size();
    const std::size_t cfrom = (storage_matches && cache.last_covs > 0 &&
                               cache.last_covs <= n_covs &&
                               out.covariances.size() == cache.last_covs)
                                  ? std::min(cache.covs_low, n_covs)
                                  : 0;
    out.covariances.resize(n_covs);
    for (std::size_t i = cfrom; i < n_covs; ++i)
      out.covariances[i].assign_from(cache.result.covariances[i].view());
  } else {
    out.covariances.clear();
  }
  out.serve_stamp = next_serve_stamp();
  cache.last_stamp = out.serve_stamp;
  cache.last_means = n_means;
  cache.last_covs = with_covariances ? cache.result.covariances.size() : 0;
  // Nothing has changed relative to this serve yet; the sentinels sit at the
  // current sizes so later min() updates narrow them correctly.
  cache.means_low = n_means;
  cache.covs_low = cache.result.covariances.size();
}

void Session::resmooth_large(const State& st, ResmoothCache& cache, bool with_covariances,
                             SmootherResult& out, par::ThreadPool& pool, SolverCache& sc) {
  std::uint64_t epoch = 0;
  std::uint64_t m0 = 0;
  std::size_t prefix = 0;
  {
    PITK_TRACE_SPAN("session.splice");
    std::lock_guard<std::mutex> lk(st.mu);
    const kalman::IncrementalFilter& filt = st.filter;
    epoch = filt.reset_epoch();
    m0 = st.mutations;
    // Worker-affine incremental splice: if this worker's factor already
    // holds a prefix of this session (same epoch), only the newly finalized
    // blocks are copied.
    la::index from = 0;
    if (sc.session_key == &st && sc.session_epoch == epoch)
      from = std::min<la::index>(static_cast<la::index>(sc.session_prefix),
                                 filt.finished_steps());
    filt.resmooth_from(from, sc.factor, sc.qr);
    prefix = static_cast<std::size_t>(filt.finished_steps());
    sc.session_key = &st;
    sc.session_epoch = epoch;
    sc.session_prefix = prefix;
    st.steps_spliced.fetch_add(prefix - static_cast<std::size_t>(from),
                               std::memory_order_relaxed);
  }
  st.misses.fetch_add(1, std::memory_order_relaxed);
  session_metrics().misses.add(1);
  {
    // Solve WITHOUT holding cache.mu: the nested parallel joins help the
    // pool via run_one() and may execute other jobs — including this very
    // session's — on this thread, so holding the cache lock across the
    // fan-out could self-deadlock.  Everything the solve touches is the
    // executing worker's own (sc, out, the workspace arena).
    PITK_TRACE_SPAN("session.oddeven");
    kalman::oddeven_factor_from_bidiagonal_into(sc.factor, pool, par::default_grain,
                                                sc.oddeven_factor);
    kalman::oddeven_solve_into(sc.oddeven_factor, pool, par::default_grain, out.means);
    if (with_covariances)
      kalman::oddeven_covariances_into(sc.oddeven_factor, pool, par::default_grain,
                                       sc.oddeven_cov, out.covariances);
    else
      out.covariances.clear();
    out.serve_stamp = 0;  // direct solve, not a stamped cache serve
  }
  // Publish into the session cache — unless something newer landed while we
  // solved — so follow-up smooths hit or run the truncated delta pass
  // instead of paying another full pass.
  std::lock_guard<std::mutex> cl(cache.mu);
  if ((cache.result_valid && cache.result_mutation >= m0) || cache.epoch > epoch) return;
  std::swap(cache.factor, sc.factor);
  sc.session_key = nullptr;  // sc.factor no longer holds this session's splice
  {
    // Lock order cache.mu -> st.mu matches resmooth(); the decay bounds come
    // from the filter because the worker-side splice never copied them.
    std::lock_guard<std::mutex> lk(st.mu);
    if (st.filter.reset_epoch() == epoch) {
      const std::span<const double> amps = st.filter.decay_amplification();
      cache.decay_amp.assign(amps.begin(), amps.end());
    } else {
      // Reset mid-solve: leave the cache keyed to the old epoch — the next
      // resmooth() sees the mismatch and rebuilds from scratch.
      cache.decay_amp.clear();
    }
  }
  cache.epoch = epoch;
  cache.prefix_len = prefix;
  cache.result_mutation = m0;
  cache.result.means.resize(out.means.size());
  for (std::size_t i = 0; i < out.means.size(); ++i)
    cache.result.means[i].assign_from(out.means[i].span());
  if (with_covariances) {
    cache.result.covariances.resize(out.covariances.size());
    for (std::size_t i = 0; i < out.covariances.size(); ++i)
      cache.result.covariances[i].assign_from(out.covariances[i].view());
  }
  cache.result_covs = with_covariances;
  cache.result_valid = true;
  cache.means_seed_valid = true;
  cache.covs_seed_valid = with_covariances;
  cache.truncated_streak = 0;
  cache.means_low = 0;
  cache.covs_low = 0;
}

SmootherResult Session::smooth(bool with_covariances) const {
  SmootherResult out;
  resmooth(*state_, state_->sync_cache, with_covariances, out);
  return out;
}

void Session::smooth_into(SmootherResult& out, bool with_covariances) const {
  resmooth(*state_, state_->sync_cache, with_covariances, out);
}

std::future<JobResult> Session::smooth_async(bool with_covariances, SmootherResult* into) const {
  // The spliced factor rows are exactly the Paige-Saunders bidiagonal R, so
  // the job is accounted under that backend.  The body captures the shared
  // State (not the Session handle), so the job stays valid if the handle is
  // moved or destroyed before execution.
  auto st = state_;
  const la::index num_states = current_step() + 1;
  // Very long cold tracks go through the snapshot-isolated odd-even path on
  // the shared pool: a full sequential backward pass over >=4096 states is
  // exactly the regime the parallel backends exist for.  A *warm* cache's
  // truncated delta pass beats any full pass regardless of parallelism, so
  // warmth keeps the track on the small path; exact sessions (tolerance 0)
  // always take it, since their promise is the spliced full pass bit for bit.
  bool large = false;
  if (st->resmooth_tol > 0.0 && num_states >= kLargeSessionSteps &&
      !st->engine->pool_.is_serial()) {
    std::lock_guard<std::mutex> cl(st->async_cache.mu);
    large = !st->async_cache.means_seed_valid;
  }
  return st->engine->launch(
      [st, with_covariances, large](par::ThreadPool& pool, SolverCache& sc,
                                    SmootherResult& out, JobMetrics&) {
        if (large)
          resmooth_large(*st, st->async_cache, with_covariances, out, pool, sc);
        else
          resmooth(*st, st->async_cache, with_covariances, out);
      },
      large ? Backend::OddEven : Backend::PaigeSaunders, large, num_states, into);
}

void Session::reset(la::index n0) {
  std::lock_guard<std::mutex> lk(state_->mu);
  if (state_->journal) state_->journal->stage_reset(n0);
  state_->filter.reset(n0);  // bumps reset_epoch: both caches resplice from 0
  ++state_->mutations;
  // No forced compaction here: the reset chunk itself invalidates everything
  // before it on replay, so the journal tail is already effectively one
  // record deep.  Keeping it replayable also exercises the crash-between-
  // reset-and-first-append path.
  if (state_->journal) state_->journal->commit();
}

SessionStats Session::stats() const {
  const State& st = *state_;
  SessionStats s;
  s.resmooth_hits = st.hits.load(std::memory_order_relaxed);
  s.resmooth_misses = st.misses.load(std::memory_order_relaxed);
  s.covariance_upgrades = st.cov_upgrades.load(std::memory_order_relaxed);
  s.steps_spliced = st.steps_spliced.load(std::memory_order_relaxed);
  s.truncated_resmooths = st.truncated.load(std::memory_order_relaxed);
  s.steps_truncation_skipped = st.truncation_skipped.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pitk::engine
