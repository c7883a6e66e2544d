/// \file engine_throughput.cpp
/// Batched-engine throughput versus the one-job-at-a-time loop.
///
/// Workload: B independent small paper-benchmark problems (Section 5.2
/// shape, scaled to service-request size).  The sequential baseline solves
/// them in a plain loop with the same auto-selected backend the engine's
/// serial path would use; the engine run submits all B as a batch over its
/// shared pool (PITK_THREADS-way by default) and drains the futures.
///
/// Also verifies, end to end through the public solve interface, that every
/// registered backend agrees with the dense reference — the bench exits
/// nonzero on disagreement, so CI can run it as a smoke test.
///
/// The session_resmooth series measure the streaming serving pattern: a
/// long-lived session appends a few steps and re-smooths.  The incremental
/// path splices only the newly finalized bidiagonal prefix blocks into the
/// session's ResmoothCache (O(appended) assembly + back-substitution/SelInv
/// sweep, allocation-free when warm); the full baseline re-smooths the same
/// track from scratch (cold Paige-Saunders factor + solve + SelInv).  The
/// bench exits nonzero if the two disagree beyond 1e-10 or the incremental
/// path fails a conservative speedup floor.
///
/// The nonlinear series measure Gauss-Newton tenants through the engine:
/// B pendulum tracks submitted via submit_nonlinear_batch (each job's outer
/// loop is one engine job whose inner linearized solves reuse the worker's
/// warm SolverCache) against a plain sequential gauss_newton_smooth loop.
/// The bench exits nonzero if the engine-routed result deviates from the
/// direct solver beyond 1e-10.
///
///   PITK_ENGINE_JOBS      number of problems B     (default 256)
///   PITK_ENGINE_K         steps per problem        (default 96)
///   PITK_ENGINE_N         state dimension          (default 4)
///   PITK_THREADS          engine pool size         (default: hardware)
///   PITK_RESMOOTH_K       session base steps       (default 4096)
///   PITK_RESMOOTH_APPEND  appended steps/re-smooth (default 16)
///   PITK_NONLINEAR_JOBS   nonlinear tenants        (default 48)
///   PITK_NONLINEAR_K      steps per tenant         (default 96)
///   PITK_OVERLOAD_JOBS    overload submissions     (default 512)
///   PITK_OVERLOAD_K       overload steps/job       (default 48)
///   PITK_OVERLOAD_QUEUE   overload queue bound     (default 32)
///   PITK_RECOVER_K        recovery journal steps   (default 2048)
///
/// The engine_overload series over-submits open-loop against a bounded
/// Reject queue and reports accepted/rejected counts plus the accepted
/// jobs' queue-wait p50/p99; its invariants (exact accounting, queue
/// high-water <= cap) gate the exit status, its wall time is report-only.
///
/// The session_recover series measures recover_all() over a k-step durable
/// session journal: worst case (compaction disabled, the full observation
/// stream replays) as the timed samples, with the compacted journal's
/// recovery time (snapshot restore + <=256-record tail) as a report field.
/// Report-only in bench_diff — it measures journal replay, not solver speed
/// — but the recovered session's smooth must agree with the uninterrupted
/// one to 1e-10 or the bench exits nonzero.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include <filesystem>
#include <string>

#include "bench_json.hpp"
#include "core/gauss_newton.hpp"
#include "core/paige_saunders.hpp"
#include "engine/durable.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "io/session_store.hpp"
#include "kalman/simulate.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "obs/histogram.hpp"

namespace {

using namespace pitk;
using engine::Backend;
using la::index;

long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atol(v) : fallback;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Max abs deviation of a result from the reference (means and covariances).
double max_deviation(const kalman::SmootherResult& got, const kalman::SmootherResult& ref) {
  double d = 0.0;
  for (std::size_t i = 0; i < ref.means.size(); ++i)
    d = std::max(d, la::max_abs_diff(got.means[i].span(), ref.means[i].span()));
  if (got.has_covariances() && ref.has_covariances())
    for (std::size_t i = 0; i < ref.covariances.size(); ++i)
      d = std::max(d, la::max_abs_diff(got.covariances[i].view(), ref.covariances[i].view()));
  return d;
}

/// Feed states (from, to] of a prebuilt track into a streaming session.
void feed_track(engine::Session& s, const kalman::Problem& track, index from, index to) {
  for (index i = from + 1; i <= to; ++i) {
    const kalman::TimeStep& st = track.step(i);
    if (st.evolution) s.evolve(st.evolution->F, st.evolution->c, st.evolution->noise);
    if (st.observation) s.observe(st.observation->G, st.observation->o, st.observation->noise);
  }
}

/// One sweep point of the incremental re-smoothing bench: a session at k0
/// steps appends `append` steps per repetition and re-smooths both ways.
/// Returns false on disagreement (or, at the criterion point, on a speedup
/// below the conservative floor).
bool bench_session_resmooth(bench::JsonBench& out, engine::SmootherEngine& eng,
                            const kalman::Problem& track, index k0, index append,
                            const char* series, const char* series_full, int reps,
                            bool enforce_speedup) {
  engine::Session s = eng.open_session(track.state_dim(0));
  // Step 0 carries an observation in the paper-benchmark track; replay it.
  if (track.step(0).observation) {
    const kalman::Observation& ob = *track.step(0).observation;
    s.observe(ob.G, ob.o, ob.noise);
  }
  feed_track(s, track, 0, k0);
  kalman::SmootherResult inc;
  s.smooth_into(inc, true);  // prime: warms the ResmoothCache and `inc`

  std::vector<double> inc_samples;
  std::vector<double> full_samples;
  double worst = 0.0;
  for (int r = 0; r < reps; ++r) {
    const index len = k0 + static_cast<index>(r + 1) * append;
    feed_track(s, track, len - append, len);
    inc_samples.push_back(bench::time_once([&] { s.smooth_into(inc, true); }));

    // Cold full smooth of the identical prefix problem (fresh factor, fresh
    // result storage — what re-smoothing costs without the cached prefix).
    std::vector<kalman::TimeStep> steps(track.steps().begin(),
                                        track.steps().begin() + len + 1);
    const kalman::Problem sub = kalman::Problem::from_steps(std::move(steps));
    kalman::SmootherResult cold;
    full_samples.push_back(bench::time_once([&] { cold = kalman::paige_saunders_smooth(sub); }));
    worst = std::max(worst, max_deviation(inc, cold));
  }

  const double sec_inc = bench::percentile(inc_samples, 0.5);
  const double sec_full = bench::percentile(full_samples, 0.5);
  const double speedup = sec_full / sec_inc;
  out.record(series, inc_samples,
             {{"k", static_cast<double>(k0)},
              {"append", static_cast<double>(append)},
              {"speedup_vs_full", speedup}});
  out.record(series_full, full_samples,
             {{"k", static_cast<double>(k0)}, {"append", static_cast<double>(append)}});

  const bool agree = worst < 1e-10;
  // The ≥5x criterion is demonstrated by the committed BENCH_engine.json;
  // the hard exit floor is 3x so a heavily shared CI runner cannot flake.
  const bool fast = !enforce_speedup || speedup >= 3.0;
  std::printf("  [%s] append %4lld: incremental %8.3f ms  full %8.3f ms  %5.1fx  |diff| %.2e\n",
              agree && fast ? "OK " : "???", static_cast<long long>(append), 1e3 * sec_inc,
              1e3 * sec_full, speedup, worst);
  return agree && fast;
}

/// The truncated-delta criterion (PR 10): a warm default session appending
/// ONE step per re-smooth against an exact (tolerance 0) session riding the
/// identical stream — the exact session pays the full spliced backward pass
/// (the pre-truncation serving cost), the default session stops its delta
/// propagation at the decay bound and rewrites only the truncation window.
/// O(window) vs O(k) per re-smooth, so the enforced floor is a hard 10x at
/// the 4096-step serving shape; results must still agree to 1e-10.
bool bench_session_resmooth_delta(bench::JsonBench& out, engine::SmootherEngine& eng,
                                  const kalman::Problem& track, index k0, int reps) {
  engine::Session del = eng.open_session(track.state_dim(0));
  engine::Session ex =
      eng.open_session(track.state_dim(0), engine::SessionOptions{}.resmooth_tolerance(0.0));
  for (engine::Session* s : {&del, &ex}) {
    if (track.step(0).observation) {
      const kalman::Observation& ob = *track.step(0).observation;
      s->observe(ob.G, ob.o, ob.noise);
    }
    feed_track(*s, track, 0, k0);
  }
  kalman::SmootherResult dres;
  kalman::SmootherResult xres;
  del.smooth_into(dres, true);  // prime both caches and both storages
  ex.smooth_into(xres, true);

  std::vector<double> delta_samples;
  std::vector<double> exact_samples;
  double worst = 0.0;
  for (int r = 0; r < reps; ++r) {
    const index len = k0 + static_cast<index>(r) + 1;
    feed_track(del, track, len - 1, len);
    feed_track(ex, track, len - 1, len);
    delta_samples.push_back(bench::time_once([&] { del.smooth_into(dres, true); }));
    exact_samples.push_back(bench::time_once([&] { ex.smooth_into(xres, true); }));
    worst = std::max(worst, max_deviation(dres, xres));
  }

  const double sec_delta = bench::percentile(delta_samples, 0.5);
  const double sec_exact = bench::percentile(exact_samples, 0.5);
  const double speedup = sec_exact / sec_delta;
  const engine::SessionStats st = del.stats();
  const double skipped_per_pass =
      st.truncated_resmooths == 0
          ? 0.0
          : static_cast<double>(st.steps_truncation_skipped) /
                static_cast<double>(st.truncated_resmooths);
  out.record("session_resmooth_delta", delta_samples,
             {{"k", static_cast<double>(k0)},
              {"append", 1.0},
              {"speedup_vs_exact", speedup},
              {"truncated_passes", static_cast<double>(st.truncated_resmooths)},
              {"states_skipped_per_pass", skipped_per_pass}});
  out.record("session_resmooth_delta_exact", exact_samples,
             {{"k", static_cast<double>(k0)}, {"append", 1.0}});

  const bool agree = worst < 1e-10;
  const bool truncating = st.truncated_resmooths > 0;
  const bool fast = speedup >= 10.0;
  std::printf(
      "  [%s] delta    append    1: truncated %8.3f ms  exact %8.3f ms  %5.1fx  |diff| %.2e"
      "  (skips %.0f states/pass)\n",
      agree && fast && truncating ? "OK " : "???", 1e3 * sec_delta, 1e3 * sec_exact, speedup,
      worst, skipped_per_pass);
  return agree && fast && truncating;
}

/// The shared noisy-pendulum tenant (kalman/simulate.cpp) with a per-tenant
/// start angle so jobs are not identical.
kalman::NonlinearModel pendulum_model(la::Rng& rng, index k) {
  const double theta0 = 0.4 + 0.2 * rng.uniform();
  return kalman::make_pendulum_benchmark(rng, k, theta0);
}

std::vector<la::Vector> pendulum_init(index k) {
  return std::vector<la::Vector>(static_cast<std::size_t>(k + 1), la::Vector({0.1, 0.0}));
}

/// Nonlinear tenants through the engine vs a sequential Gauss-Newton loop.
/// Returns false when the engine-routed result disagrees with the direct
/// solver beyond 1e-10.
bool bench_nonlinear(bench::JsonBench& out, int reps) {
  const index jobs = env_long("PITK_NONLINEAR_JOBS", 48);
  const index k = env_long("PITK_NONLINEAR_K", 96);
  std::printf("\nnonlinear tenants: B=%lld Gauss-Newton jobs, k=%lld steps, n=2\n",
              static_cast<long long>(jobs), static_cast<long long>(k));

  la::Rng rng(0x901111);
  std::vector<kalman::NonlinearModel> models;
  models.reserve(static_cast<std::size_t>(jobs));
  for (index b = 0; b < jobs; ++b) {
    la::Rng job_rng = rng.split();
    models.push_back(pendulum_model(job_rng, k));
  }
  engine::NonlinearJobOptions opts;
  opts.gn.tolerance = 1e-12;

  // Sequential baseline: the pre-engine serving pattern, one tenant at a
  // time monopolizing a serial Gauss-Newton solve.
  std::vector<double> seq_samples;
  double seq_checksum = 0.0;
  la::index seq_iters = 0;
  {
    par::ThreadPool serial(1);
    for (int r = 0; r < reps; ++r) {
      seq_checksum = 0.0;
      seq_iters = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (const kalman::NonlinearModel& m : models) {
        kalman::GaussNewtonResult res = gauss_newton_smooth(m, pendulum_init(k), serial, opts.gn);
        seq_checksum += res.states.back()[0];
        seq_iters += res.iterations;
      }
      seq_samples.push_back(seconds_since(t0));
    }
  }

  // Engine-routed: every tenant's outer loop is one engine job; inner
  // linearized solves reuse the executing worker's warm SolverCache.
  std::vector<double> eng_samples;
  double eng_checksum = 0.0;
  double iters_per_job = 0.0;
  unsigned concurrency = 0;
  engine::SmootherEngine eng;
  concurrency = eng.concurrency();
  {
    std::vector<engine::NonlinearJob> warmup;
    for (const kalman::NonlinearModel& m : models) warmup.push_back({m, pendulum_init(k)});
    auto futs = eng.submit_nonlinear_batch(std::move(warmup), opts);
    eng.wait_idle();
    for (auto& f : futs) (void)f.get();
  }
  // Per-job latency distributions over the timed reps (bench-local
  // histograms, not the global registry: warm-up jobs stay excluded).
  obs::Histogram queue_hist;
  obs::Histogram solve_hist;
  for (int r = 0; r < reps; ++r) {
    std::vector<engine::NonlinearJob> batch;
    for (const kalman::NonlinearModel& m : models) batch.push_back({m, pendulum_init(k)});
    eng_checksum = 0.0;
    la::index iters = 0;
    const auto t0 = std::chrono::steady_clock::now();
    auto futs = eng.submit_nonlinear_batch(std::move(batch), opts);
    eng.wait_idle();
    for (auto& f : futs) {
      engine::JobResult jr = f.get();
      eng_checksum += jr.result.means.back()[0];
      iters += jr.metrics.outer_iterations;
      queue_hist.record(jr.metrics.queue_seconds);
      solve_hist.record(jr.metrics.solve_seconds);
    }
    eng_samples.push_back(seconds_since(t0));
    iters_per_job = static_cast<double>(iters) / static_cast<double>(jobs);
  }

  const double sec_seq = bench::percentile(seq_samples, 0.5);
  const double sec_eng = bench::percentile(eng_samples, 0.5);
  out.record("sequential_nonlinear_loop", seq_samples,
             {{"jobs", static_cast<double>(jobs)},
              {"k", static_cast<double>(k)},
              {"jobs_per_second", static_cast<double>(jobs) / sec_seq}});
  out.record("engine_nonlinear_batch", eng_samples,
             {{"jobs", static_cast<double>(jobs)},
              {"k", static_cast<double>(k)},
              {"threads", static_cast<double>(concurrency)},
              {"jobs_per_second", static_cast<double>(jobs) / sec_eng},
              {"outer_iterations_per_job", iters_per_job},
              {"queue_p50_s", queue_hist.quantile(0.5)},
              {"queue_p99_s", queue_hist.quantile(0.99)},
              {"solve_p50_s", solve_hist.quantile(0.5)},
              {"solve_p99_s", solve_hist.quantile(0.99)}});
  std::printf("  sequential GN   : %8.3f s  (%8.1f jobs/s)\n", sec_seq,
              static_cast<double>(jobs) / sec_seq);
  std::printf("  engine, %2u-way  : %8.3f s  (%8.1f jobs/s)  speedup %.2fx, %.1f iters/job\n",
              concurrency, sec_eng, static_cast<double>(jobs) / sec_eng, sec_seq / sec_eng,
              iters_per_job);

  // Engine-vs-direct agreement on one tenant, end to end (means to 1e-10).
  par::ThreadPool serial(1);
  kalman::GaussNewtonResult direct =
      gauss_newton_smooth(models.front(), pendulum_init(k), serial, opts.gn);
  engine::JobResult routed = eng.submit_nonlinear({models.front(), pendulum_init(k)}, opts).get();
  double worst = 0.0;
  for (std::size_t i = 0; i < direct.states.size(); ++i)
    worst = std::max(worst,
                     la::max_abs_diff(routed.result.means[i].span(), direct.states[i].span()));
  const bool agree = worst < 1e-10;
  std::printf("  [%s] engine vs direct gauss_newton_smooth |diff| %.2e  (checksum drift %.2e)\n",
              agree ? "OK " : "???", worst, std::abs(seq_checksum - eng_checksum));
  return agree;
}

/// Open-loop over-submission against a bounded Reject queue: B jobs pushed
/// as fast as the submit loop runs, far beyond what the pool drains, so the
/// engine must shed load at the door.  Reported: accepted/rejected counts,
/// the accepted jobs' queue-wait p50/p99 (the tail the bound protects) and
/// the observed queue high-water.  The series is report-only in bench_diff
/// (its wall time measures shedding, not solver speed); the hard exit
/// criteria are the invariants: every job is accounted exactly once and the
/// queue never exceeds its cap.
bool bench_engine_overload(bench::JsonBench& out, int reps) {
  const index jobs = env_long("PITK_OVERLOAD_JOBS", 512);
  const index k = env_long("PITK_OVERLOAD_K", 48);
  const index n = env_long("PITK_OVERLOAD_N", 4);
  const std::size_t max_q =
      static_cast<std::size_t>(env_long("PITK_OVERLOAD_QUEUE", 32));
  std::printf("\nengine overload: B=%lld open-loop jobs, k=%lld, bounded queue %zu (reject)\n",
              static_cast<long long>(jobs), static_cast<long long>(k), max_q);

  la::Rng rng(0x0E7210AD);
  std::vector<kalman::Problem> problems;
  problems.reserve(static_cast<std::size_t>(jobs));
  for (index b = 0; b < jobs; ++b) {
    la::Rng job_rng = rng.split();
    problems.push_back(kalman::make_paper_benchmark(job_rng, n, k));
  }

  std::vector<double> samples;
  obs::Histogram accepted_queue_hist;
  std::uint64_t accepted_total = 0;
  std::uint64_t rejected_total = 0;
  std::uint64_t high_water = 0;
  unsigned concurrency = 0;
  bool invariants_ok = true;
  for (int r = 0; r < reps; ++r) {
    // Fresh engine per repetition: each sample sees an identical cold queue.
    engine::SmootherEngine eng(
        {.max_queued_jobs = max_q, .queue_policy = engine::QueuePolicy::Reject});
    concurrency = eng.concurrency();
    std::vector<kalman::Problem> batch = problems;  // construction excluded
    std::vector<std::future<engine::JobResult>> futures;
    futures.reserve(static_cast<std::size_t>(jobs));
    const auto t0 = std::chrono::steady_clock::now();
    for (index b = 0; b < jobs; ++b)
      futures.push_back(eng.submit(std::move(batch[static_cast<std::size_t>(b)]), {}));
    eng.wait_idle();
    samples.push_back(seconds_since(t0));
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    for (auto& f : futures) {
      try {
        const engine::JobResult jr = f.get();
        ++accepted;
        accepted_queue_hist.record(jr.metrics.queue_seconds);
      } catch (const engine::SolveError&) {
        ++rejected;
      }
    }
    accepted_total += accepted;
    rejected_total += rejected;
    const engine::EngineStats st = eng.stats();
    high_water = std::max(high_water, st.queue_high_water);
    invariants_ok = invariants_ok &&
                    accepted + rejected == static_cast<std::uint64_t>(jobs) &&
                    st.jobs_completed == accepted && st.jobs_rejected == rejected &&
                    st.queue_high_water <= max_q;
  }

  const double per_rep = 1.0 / static_cast<double>(reps);
  out.record("engine_overload", samples,
             {{"jobs", static_cast<double>(jobs)},
              {"k", static_cast<double>(k)},
              {"n", static_cast<double>(n)},
              {"threads", static_cast<double>(concurrency)},
              {"max_queued_jobs", static_cast<double>(max_q)},
              {"accepted_per_rep", static_cast<double>(accepted_total) * per_rep},
              {"rejected_per_rep", static_cast<double>(rejected_total) * per_rep},
              {"queue_high_water", static_cast<double>(high_water)},
              {"accepted_queue_p50_s", accepted_queue_hist.quantile(0.5)},
              {"accepted_queue_p99_s", accepted_queue_hist.quantile(0.99)}});
  std::printf("  accepted %7.1f / rejected %7.1f per rep  queue high-water %llu (cap %zu)\n",
              static_cast<double>(accepted_total) * per_rep,
              static_cast<double>(rejected_total) * per_rep,
              static_cast<unsigned long long>(high_water), max_q);
  std::printf("  accepted queue wait p50 %8.3f ms  p99 %8.3f ms\n",
              1e3 * accepted_queue_hist.quantile(0.5),
              1e3 * accepted_queue_hist.quantile(0.99));
  std::printf("  [%s] accepted + rejected == submitted, high-water <= cap\n",
              invariants_ok ? "OK " : "???");
  return invariants_ok;
}

/// Crash-recovery cost: rebuild a k-step durable session with recover_all().
/// Timed samples are the worst case (compaction off — the whole journal
/// replays through the normal append path); the compacted journal's recovery
/// (snapshot + bounded tail) rides along as a report field.  Gate: the
/// recovered session's smooth agrees with the uninterrupted session's to
/// 1e-10, for both journals.
bool bench_session_recover(bench::JsonBench& out, engine::SmootherEngine& eng, index n,
                           int reps) {
  const index k = env_long("PITK_RECOVER_K", 2048);
  std::printf("\nsession recovery: k=%lld journaled steps, n=%lld, recover_all()\n",
              static_cast<long long>(k), static_cast<long long>(n));
  la::Rng rng(0x3EC0);
  const kalman::Problem track = kalman::make_paper_benchmark(rng, n, k);

  const std::string base =
      (std::filesystem::temp_directory_path() / "pitk_bench_recover").string();
  auto make_store = [&base](const char* name, index compact_every) {
    io::DurabilityOptions o;
    o.dir = base + "/" + name;
    std::filesystem::remove_all(o.dir);
    o.flush = io::FlushPolicy::EveryAppend;
    o.compact_every = compact_every;
    return io::SessionStore(o);
  };
  io::SessionStore journal_store = make_store("journal", /*compact_every=*/0);
  io::SessionStore compact_store = make_store("compacted", /*compact_every=*/256);

  // Stream the same track into both stores, keep the uninterrupted answer,
  // then drop the handles: from here on only the files know the sessions.
  kalman::SmootherResult ref;
  std::uint64_t journal_bytes = 0;
  {
    engine::Session live =
        eng.open_session(n, engine::SessionOptions{}.durable(journal_store, "bench"));
    engine::Session live_c =
        eng.open_session(n, engine::SessionOptions{}.durable(compact_store, "bench"));
    for (engine::Session* s : {&live, &live_c}) {
      if (track.step(0).observation) {
        const kalman::Observation& ob = *track.step(0).observation;
        s->observe(ob.G, ob.o, ob.noise);
      }
      feed_track(*s, track, 0, k);
    }
    live.smooth_into(ref, false);
    journal_bytes = std::filesystem::file_size(journal_store.path_for("bench"));
  }

  // recover_all() is read-only on an untorn journal, so repetitions see
  // identical bytes; each rep pays the full scan + decode + replay.
  auto time_recover = [&](io::SessionStore& store, std::vector<double>& samples,
                          std::uint64_t& replayed) {
    engine::RecoveredSessions rec;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      rec = eng.recover_all(store, {});
      samples.push_back(seconds_since(t0));
    }
    replayed = rec.replayed_records;
    if (rec.linear.size() != 1 || !rec.failed.empty()) return 1e300;
    kalman::SmootherResult got;
    rec.linear[0].second.smooth_into(got, false);
    return max_deviation(got, ref);
  };
  std::vector<double> journal_samples;
  std::vector<double> compact_samples;
  std::uint64_t journal_replayed = 0;
  std::uint64_t compact_replayed = 0;
  const double journal_diff = time_recover(journal_store, journal_samples, journal_replayed);
  const double compact_diff = time_recover(compact_store, compact_samples, compact_replayed);

  const double sec_journal = bench::percentile(journal_samples, 0.5);
  const double sec_compact = bench::percentile(compact_samples, 0.5);
  out.record("session_recover", journal_samples,
             {{"k", static_cast<double>(k)},
              {"n", static_cast<double>(n)},
              {"journal_bytes", static_cast<double>(journal_bytes)},
              {"replayed_records", static_cast<double>(journal_replayed)},
              {"records_per_second",
               static_cast<double>(journal_replayed) / sec_journal},
              {"compacted_recover_s", sec_compact},
              {"compacted_replayed_records", static_cast<double>(compact_replayed)}});
  std::printf("  full journal    : %8.3f ms  (%lld records, %.1f MiB, %.0f records/s)\n",
              1e3 * sec_journal, static_cast<long long>(journal_replayed),
              static_cast<double>(journal_bytes) / (1024.0 * 1024.0),
              static_cast<double>(journal_replayed) / sec_journal);
  std::printf("  compacted       : %8.3f ms  (snapshot + %lld-record tail)\n",
              1e3 * sec_compact, static_cast<long long>(compact_replayed));
  const bool agree = journal_diff < 1e-10 && compact_diff < 1e-10;
  std::printf("  [%s] recovered smooth vs uninterrupted |diff| %.2e / %.2e\n",
              agree ? "OK " : "???", journal_diff, compact_diff);
  std::filesystem::remove_all(base);
  return agree;
}

bool check_backend_agreement() {
  std::printf("backend agreement vs dense reference (n=4, k=60):\n");
  la::Rng rng(0xA9EE);
  kalman::Problem p = kalman::make_paper_benchmark(rng, 4, 60);
  kalman::GaussianPrior prior = kalman::diffuse_prior(4);
  par::ThreadPool pool(4);
  const kalman::SmootherResult ref =
      engine::solve_with(Backend::DenseReference, p, prior, pool);
  bool all_ok = true;
  for (const engine::BackendInfo& info : engine::all_backends()) {
    const kalman::SmootherResult got = engine::solve_with(info.id, p, prior, pool);
    const double d = max_deviation(got, ref);
    const bool ok = d < 1e-6;
    all_ok = all_ok && ok;
    std::printf("  [%s] %-16s max |diff| = %.3e\n", ok ? "OK " : "???", info.name, d);
  }
  return all_ok;
}

}  // namespace

int main() {
  const index jobs = env_long("PITK_ENGINE_JOBS", 256);
  const index k = env_long("PITK_ENGINE_K", 96);
  const index n = env_long("PITK_ENGINE_N", 4);

  std::printf("engine throughput: B=%lld jobs, k=%lld steps, n=%lld\n",
              static_cast<long long>(jobs), static_cast<long long>(k),
              static_cast<long long>(n));

  // Problem construction is excluded from timing, as in the paper.
  std::vector<kalman::Problem> problems;
  problems.reserve(static_cast<std::size_t>(jobs));
  la::Rng rng(0xE6617E);
  for (index b = 0; b < jobs; ++b) {
    la::Rng job_rng = rng.split();
    problems.push_back(kalman::make_paper_benchmark(job_rng, n, k));
  }

  // Repeated measurements through the shared JSON harness; the paper-style
  // single-pass numbers below use the medians.
  const int reps = bench::json_repetitions();
  bench::JsonBench out("BENCH_engine.json");
  std::vector<double> seq_samples;
  std::vector<double> eng_samples;
  std::vector<double> warm_samples;
  double checksum_seq = 0.0;
  double checksum_eng = 0.0;
  double checksum_warm = 0.0;
  std::size_t workspace_peak = 0;
  double allocs_per_job_cold = 0.0;
  double allocs_per_job_warm = 0.0;
  engine::EngineStats st;
  unsigned concurrency = 0;
  // Per-job latency distributions over the timed reps (bench-local
  // histograms, not the global registry: warm-up and other series stay
  // excluded).  p50/p99 land in the JSON as report-only fields.
  obs::Histogram queue_hist;
  obs::Histogram solve_hist;
  obs::Histogram warm_queue_hist;
  obs::Histogram warm_solve_hist;

  // Sequential baseline: one job at a time, serial solver.
  {
    par::ThreadPool serial(1);
    for (int r = 0; r < reps; ++r) {
      checksum_seq = 0.0;
      const auto t_seq = std::chrono::steady_clock::now();
      for (const kalman::Problem& p : problems) {
        const kalman::SmootherResult res =
            engine::solve_with(Backend::Auto, p, std::nullopt, serial);
        checksum_seq += res.means.back()[0];
      }
      seq_samples.push_back(seconds_since(t_seq));
    }
  }

  // Batched engine: all jobs in flight over the shared pool.  One engine
  // serves every repetition AND an untimed warm-up batch first, so the timed
  // reps measure warm-path throughput (per-worker SolverCaches and Workspace
  // arenas populated) rather than calibration + pool spin-up + cold heap
  // growth.  The cold/warm split is visible in the allocations-per-job
  // figures recorded below.
  {
    engine::SmootherEngine eng;
    concurrency = eng.concurrency();
    {
      std::vector<kalman::Problem> warmup = problems;
      auto futures = eng.submit_batch(std::move(warmup), {});
      eng.wait_idle();
      std::uint64_t allocs = 0;
      for (auto& f : futures) allocs += f.get().metrics.allocations;
      allocs_per_job_cold = static_cast<double>(allocs) / static_cast<double>(jobs);
    }
    for (int r = 0; r < reps; ++r) {
      std::vector<kalman::Problem> batch = problems;  // construction excluded
      checksum_eng = 0.0;
      const auto t_eng = std::chrono::steady_clock::now();
      auto futures = eng.submit_batch(std::move(batch), {});
      eng.wait_idle();  // the submitting thread works as one of the pool's lanes
      for (auto& f : futures) {
        engine::JobResult jr = f.get();
        checksum_eng += jr.result.means.back()[0];
        workspace_peak = std::max(workspace_peak, jr.metrics.workspace_high_water_bytes);
        queue_hist.record(jr.metrics.queue_seconds);
        solve_hist.record(jr.metrics.solve_seconds);
      }
      eng_samples.push_back(seconds_since(t_eng));
    }

    // Warm into-storage serving: results land in caller-owned storage that
    // is reused across repetitions, so a warm worker touches zero heap per
    // job (JobOptions::into — the steady-state pattern for tenants that
    // re-smooth the same track shape).
    std::vector<kalman::SmootherResult> storage(static_cast<std::size_t>(jobs));
    std::uint64_t warm_allocs = 0;
    std::uint64_t warm_jobs = 0;
    for (int r = 0; r < reps + 1; ++r) {  // rep 0 warms the storage, untimed
      checksum_warm = 0.0;
      std::vector<kalman::Problem> batch = problems;  // construction excluded
      std::vector<std::future<engine::JobResult>> futures;
      futures.reserve(static_cast<std::size_t>(jobs));
      const auto t_warm = std::chrono::steady_clock::now();
      for (index b = 0; b < jobs; ++b) {
        engine::JobOptions jo;
        jo.into = &storage[static_cast<std::size_t>(b)];
        futures.push_back(eng.submit(std::move(batch[static_cast<std::size_t>(b)]), jo));
      }
      eng.wait_idle();
      for (auto& f : futures) {
        const engine::JobResult jr = f.get();
        if (r > 0) {
          warm_allocs += jr.metrics.allocations;
          ++warm_jobs;
          warm_queue_hist.record(jr.metrics.queue_seconds);
          warm_solve_hist.record(jr.metrics.solve_seconds);
        }
      }
      for (const kalman::SmootherResult& res : storage) checksum_warm += res.means.back()[0];
      if (r > 0) warm_samples.push_back(seconds_since(t_warm));
    }
    allocs_per_job_warm =
        warm_jobs == 0 ? 0.0 : static_cast<double>(warm_allocs) / static_cast<double>(warm_jobs);
    st = eng.stats();
  }

  const double sec_seq = bench::percentile(seq_samples, 0.5);
  const double sec_eng = bench::percentile(eng_samples, 0.5);
  const double sec_warm = bench::percentile(warm_samples, 0.5);
  const double tp_seq = static_cast<double>(jobs) / sec_seq;
  const double tp_eng = static_cast<double>(jobs) / sec_eng;
  const double tp_warm = static_cast<double>(jobs) / sec_warm;
  out.record("sequential_loop", seq_samples,
             {{"jobs", static_cast<double>(jobs)},
              {"k", static_cast<double>(k)},
              {"n", static_cast<double>(n)},
              {"jobs_per_second", tp_seq}});
  out.record("engine_batched", eng_samples,
             {{"jobs", static_cast<double>(jobs)},
              {"k", static_cast<double>(k)},
              {"n", static_cast<double>(n)},
              {"threads", static_cast<double>(concurrency)},
              {"jobs_per_second", tp_eng},
              {"workspace_peak_bytes", static_cast<double>(workspace_peak)},
              {"allocations_per_job_cold", allocs_per_job_cold},
              {"calibrated_small_job_flops", engine::calibrated_small_job_flops()},
              {"calibrated_gemm_gflops", engine::calibrated_gemm_flops_per_second() * 1e-9},
              {"queue_p50_s", queue_hist.quantile(0.5)},
              {"queue_p99_s", queue_hist.quantile(0.99)},
              {"solve_p50_s", solve_hist.quantile(0.5)},
              {"solve_p99_s", solve_hist.quantile(0.99)}});
  out.record("engine_batched_warm", warm_samples,
             {{"jobs", static_cast<double>(jobs)},
              {"k", static_cast<double>(k)},
              {"n", static_cast<double>(n)},
              {"threads", static_cast<double>(concurrency)},
              {"jobs_per_second", tp_warm},
              {"allocations_per_job", allocs_per_job_warm},
              {"queue_p50_s", warm_queue_hist.quantile(0.5)},
              {"queue_p99_s", warm_queue_hist.quantile(0.99)},
              {"solve_p50_s", warm_solve_hist.quantile(0.5)},
              {"solve_p99_s", warm_solve_hist.quantile(0.99)}});
  std::printf("\n  sequential loop : %8.3f s  (%8.1f jobs/s, median of %d)\n", sec_seq, tp_seq,
              reps);
  std::printf("  engine, %2u-way  : %8.3f s  (%8.1f jobs/s)  speedup %.2fx\n",
              concurrency, sec_eng, tp_eng, sec_seq / sec_eng);
  std::printf("  warm into-store : %8.3f s  (%8.1f jobs/s)  %.2f allocs/job (cold %.1f)\n",
              sec_warm, tp_warm, allocs_per_job_warm, allocs_per_job_cold);
  std::printf("  workspace peak  : %8.1f KiB per worker arena\n",
              static_cast<double>(workspace_peak) / 1024.0);
  std::printf("  mean queue wait : %8.3f ms\n",
              st.jobs_completed == 0
                  ? 0.0
                  : 1e3 * st.total_queue_seconds / static_cast<double>(st.jobs_completed));
  std::printf("  small/large jobs: %llu / %llu\n",
              static_cast<unsigned long long>(st.jobs_small),
              static_cast<unsigned long long>(st.jobs_large));
  for (const engine::BackendInfo& info : engine::all_backends()) {
    const auto c = st.per_backend[engine::backend_index(info.id)];
    if (c != 0)
      std::printf("  backend %-16s %llu jobs\n", info.name,
                  static_cast<unsigned long long>(c));
  }
  std::printf("  checksum drift  : %.3e (warm %.3e)\n", std::abs(checksum_seq - checksum_eng),
              std::abs(checksum_seq - checksum_warm));

  // The throughput criterion is about thread scaling, so it is only
  // enforceable where 4+ threads map to 4+ actual cores.
  const bool enforce_speedup = concurrency >= 4 && par::ThreadPool::hardware_cores() >= 4;
  const bool speedup_ok = !enforce_speedup || tp_eng >= tp_seq;
  std::printf("  [%s] batched >= sequential at 4+ threads%s\n", speedup_ok ? "OK " : "???",
              enforce_speedup ? "" : " (not enforced: <4 threads or <4 cores)");

  // Incremental session re-smoothing: appended-steps sweep around the
  // serving shape (4096-step track, 16 appended steps per re-smooth).
  bool resmooth_ok = true;
  {
    const index k0 = env_long("PITK_RESMOOTH_K", 4096);
    const index append = env_long("PITK_RESMOOTH_APPEND", 16);
    const index sweep[] = {1, append, 256};
    index total = k0;
    for (index a : sweep) total = std::max(total, k0 + static_cast<index>(reps) * a);
    std::printf("\nsession re-smoothing: k=%lld base steps, n=%lld, incremental vs cold full\n",
                static_cast<long long>(k0), static_cast<long long>(n));
    la::Rng rng_rs(0x5E5510);
    const kalman::Problem track = kalman::make_paper_benchmark(rng_rs, n, total);
    engine::SmootherEngine seng({.threads = 1});
    resmooth_ok &= bench_session_resmooth(out, seng, track, k0, sweep[0],
                                          "session_resmooth_a1", "session_resmooth_a1_full",
                                          reps, false);
    resmooth_ok &= bench_session_resmooth(out, seng, track, k0, sweep[1], "session_resmooth",
                                          "session_resmooth_full", reps, true);
    resmooth_ok &= bench_session_resmooth(out, seng, track, k0, sweep[2],
                                          "session_resmooth_a256", "session_resmooth_a256_full",
                                          reps, false);
    resmooth_ok &= bench_session_resmooth_delta(out, seng, track, k0, reps);
  }

  // Nonlinear tenants: Gauss-Newton outer loops as engine jobs.
  const bool nonlinear_ok = bench_nonlinear(out, reps);

  // Overload: open-loop over-submission against the bounded queue.
  const bool overload_ok = bench_engine_overload(out, reps);

  // Crash recovery: recover_all() over full and compacted journals.
  bool recover_ok = true;
  {
    engine::SmootherEngine reng({.threads = 1});
    recover_ok = bench_session_recover(out, reng, n, reps);
  }

  std::printf("\n");
  const bool agree = check_backend_agreement();
  const bool wrote = out.write();
  return (agree && speedup_ok && resmooth_ok && nonlinear_ok && overload_ok && recover_ok &&
          wrote)
             ? 0
             : 1;
}
