/// \file stream.cpp
/// The stream section of every workload: an open loop on a seeded Poisson
/// schedule at one fixed rate, driven by one generator thread against a
/// ServingTier.
///
/// Each arrival is, with equal odds, either
///  - a session update on one of the long-lived sessions (k = 4096 base
///    steps, so re-smooths take the truncated delta path): append one step
///    (evolve + observe, the write path), then smooth_async (the read path)
///    into the session's own result storage; or
///  - a one-shot request: an n=4, k=96 track through ServingTier::submit as
///    a Standard-class tenant (buffered, flushed on size or deadline).
///
/// Latency runs from the arrival's due time to the moment a collector
/// thread sees its future ready (the collector polls every ~20 us).  A shed
/// or failed operation counts as +inf latency and as failed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "core/paige_saunders.hpp"
#include "engine/backend.hpp"
#include "engine/session.hpp"
#include "kalman/simulate.hpp"
#include "la/random.hpp"
#include "obs/registry.hpp"
#include "open_loop.hpp"
#include "parallel/thread_pool.hpp"
#include "pitk/serve.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using kalman::CovFactor;
using kalman::Problem;
using kalman::SmootherResult;
using la::index;
using la::Matrix;
using la::Vector;

constexpr index kN = 4;
constexpr std::size_t kSessions = 16;
constexpr std::size_t kSessionBase = 4096;  ///< pre-filled steps per session
constexpr std::size_t kWarmUpdates = 8;     ///< untimed updates per session in set-up
constexpr std::size_t kTracks = 64;         ///< distinct one-shot request problems
constexpr index kTrackSteps = 96;
constexpr std::size_t kTenants = 32;        ///< one-shot request tenants
/// Arrivals per second (updates + requests), about half the engine_batch
/// capacity at 4 threads measured at the commit that defined this workload.
constexpr double kRate = 2400.0;
constexpr double kUpdateShare = 0.5;
/// Standard-class admission budget in seconds (the tier's default is 25 ms).
constexpr double kMaxQueueWait = 0.25;
constexpr double kTolerance = 1e-9;

/// One long-lived session: its model, the observations it has absorbed,
/// and the storage its async smooths write into.
struct Feed {
  Matrix F, G;
  std::vector<Vector> obs;   ///< o_0 .. o_current, in absorption order
  la::Rng rng{0};            ///< draws observations appended while measured
  std::optional<engine::Session> session;
  SmootherResult into;       ///< one storage; one smooth in flight at a time
  std::atomic<bool> in_flight{false};
};

void append(Feed& f, const Vector& o) {
  f.session->evolve(f.F, Vector{}, CovFactor::identity(kN));
  f.session->observe(f.G, o, CovFactor::identity(kN));
  f.obs.push_back(o);
}

/// The session's whole history as a Problem, for the exact reference smooth.
Problem history(const Feed& f) {
  Problem p;
  p.start(kN);
  p.observe(f.G, f.obs[0], CovFactor::identity(kN));
  for (std::size_t i = 1; i < f.obs.size(); ++i) {
    p.evolve(f.F, Vector{}, CovFactor::identity(kN));
    p.observe(f.G, f.obs[i], CovFactor::identity(kN));
  }
  return p;
}

struct Inputs {
  std::vector<Matrix> F, G;
  std::vector<std::vector<Vector>> obs;  ///< pre-fill + warm-up observations
  std::vector<Problem> tracks;
  std::vector<SmootherResult> refs;
};

struct Tier {
  std::unique_ptr<serve::ServingTier> tier;
  std::vector<std::unique_ptr<Feed>> feeds;
  std::vector<serve::TenantHandle> tenants;
};

/// Program set-up: the tier, its sessions opened and pre-filled, one cold
/// smooth per session, then untimed warm-up updates and requests.
Tier set_up(const RunConfig& cfg, const Inputs& in, std::uint64_t seed) {
  Tier t;
  serve::ServeOptions so;
  so.shards = 2;
  so.threads_per_shard = std::max(1u, cfg.threads / 2);
  // Standard admits up to kMaxQueueWait of estimated backlog before it
  // sheds: a host stall of a few tens of milliseconds delays requests (the
  // due-time latency shows it) instead of failing them.
  so.classes[serve::tenant_class_index(serve::TenantClass::Standard)].max_queue_wait_seconds =
      kMaxQueueWait;
  t.tier = std::make_unique<serve::ServingTier>(so);
  for (std::size_t i = 0; i < kTenants; ++i)
    t.tenants.push_back(t.tier->tenant("req-" + std::to_string(i), serve::TenantClass::Standard));
  for (std::size_t s = 0; s < kSessions; ++s) {
    auto f = std::make_unique<Feed>();
    f->F = in.F[s];
    f->G = in.G[s];
    f->rng = la::Rng(seed * 0x2545F4914F6CDD1DULL + s);
    f->session.emplace(t.tier->open_session(
        t.tier->tenant("sess-" + std::to_string(s), serve::TenantClass::Standard), kN));
    const std::vector<Vector>& obs = in.obs[s];
    f->session->observe(f->G, obs[0], CovFactor::identity(kN));
    f->obs.push_back(obs[0]);
    for (std::size_t i = 1; i <= kSessionBase; ++i) append(*f, obs[i]);
    (void)f->session->smooth_async(true, &f->into).get();
    t.feeds.push_back(std::move(f));
  }
  for (std::size_t w = 0; w < kWarmUpdates; ++w)
    for (std::size_t s = 0; s < kSessions; ++s) {
      Feed& f = *t.feeds[s];
      append(f, in.obs[s][kSessionBase + 1 + w]);
      (void)f.session->smooth_async(true, &f.into).get();
    }
  // Warm-up requests go out one flush batch at a time: a burst would be
  // shed by admission control, whose per-job estimate still carries the
  // cold session smooths above.
  const serve::TenantClass standard = serve::TenantClass::Standard;
  const std::size_t flush_jobs =
      t.tier->options().classes[serve::tenant_class_index(standard)].flush_max_jobs;
  for (std::size_t r = 0; r < kTracks;) {
    std::vector<std::future<engine::JobResult>> warm;
    for (std::size_t j = 0; j < flush_jobs && r < kTracks; ++j, ++r)
      warm.push_back(
          t.tier->submit(t.tenants[r % kTenants], serve::Request{in.tracks[r], {}, true}));
    for (auto& fu : warm) (void)fu.get();
  }
  return t;
}

enum Kind : int { kUpdate = 0, kRequest = 1 };

struct Pending {
  std::future<engine::JobResult> fut;
  OpTiming timing;
  int kind = kUpdate;
  std::size_t index = 0;  ///< session (update) or track (request)
  std::uint64_t op = 0;   ///< arrival index, shared by the operation's spans
  std::int64_t span = -1; ///< root span of the operation (traced phase)
};

/// Per-phase results of one open-loop phase.
struct Phase {
  std::vector<OpTiming> updates, requests;
  std::vector<double> lag, append_s, smooth_solve_s, buffer_wait_s;
  std::uint64_t update_allocs = 0;
};

/// Run one open-loop phase of `horizon` seconds on `t`.
Phase run_phase(Tier& t, const Inputs& in, std::uint64_t seed, double horizon, Tracer& tr,
                Outcome& out) {
  // Arrival kinds come from their own seeded stream, independent of the
  // arrival times.
  const std::vector<double> due = poisson_schedule(seed, kRate, horizon);
  std::vector<int> kinds(due.size());
  {
    la::Rng r(seed ^ 0x5EEDC0DEULL);
    for (int& k : kinds) k = r.uniform() < kUpdateShare ? kUpdate : kRequest;
  }
  Phase ph;
  std::mutex mu;
  std::vector<Pending> pending;
  std::atomic<bool> generator_done{false};
  const LoopClock clock = steady_loop_clock();
  const std::int64_t t0_ns = now_ns();
  const auto to_ns = [t0_ns](double s) { return t0_ns + static_cast<std::int64_t>(1e9 * s); };

  std::thread collector([&] {
    std::vector<Pending> ready;
    for (;;) {
      const bool last = generator_done.load(std::memory_order_acquire);
      {
        std::lock_guard<std::mutex> lk(mu);
        const double now = clock.now();
        for (std::size_t i = 0; i < pending.size();) {
          if (pending[i].fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
            pending[i].timing.done = now;
            ready.push_back(std::move(pending[i]));
            pending[i] = std::move(pending.back());
            pending.pop_back();
          } else {
            ++i;
          }
        }
        if (last && pending.empty() && ready.empty()) break;
      }
      if (ready.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      for (Pending& p : ready) {
        std::optional<engine::JobResult> jr;
        std::string err;
        try {
          jr = p.fut.get();
        } catch (const std::exception& e) {
          err = e.what();
        }
        if (p.kind == kUpdate) {
          Feed& f = *t.feeds[p.index];
          p.timing.ok = jr.has_value();
          if (jr) {
            ph.smooth_solve_s.push_back(jr->metrics.solve_seconds);
            ph.update_allocs += jr->metrics.allocations;
          }
          f.in_flight.store(false, std::memory_order_release);
          out.account(p.timing.ok, "session update failed: " + err);
          ph.updates.push_back(p.timing);
        } else {
          double dev = 0.0;
          if (jr) dev = max_rel_deviation(jr->result, in.refs[p.index]);
          p.timing.ok = jr.has_value() && dev <= kTolerance;
          if (jr)
            ph.buffer_wait_s.push_back(p.timing.done - p.timing.sent -
                                       jr->metrics.queue_seconds - jr->metrics.solve_seconds);
          out.account(p.timing.ok, jr ? "tier request deviates from solve_with by " + fmt(dev)
                                      : "tier request failed: " + err);
          ph.requests.push_back(p.timing);
        }
        if (p.span >= 0) {
          tr.end(p.span);
          if (jr) {
            // The job's own measurements, placed to end at the completion
            // stamp (the engine reports durations, not absolute times).
            const std::int64_t end = to_ns(p.timing.done);
            const std::int64_t solve = static_cast<std::int64_t>(1e9 * jr->metrics.solve_seconds);
            const std::int64_t queue = static_cast<std::int64_t>(1e9 * jr->metrics.queue_seconds);
            tr.add("engine.job.queue", end - solve - queue, end - solve, p.span, p.op);
            tr.add("engine.job.solve", end - solve, end, p.span, p.op);
          }
        }
      }
      ready.clear();
    }
  });

  std::size_t next_session = 0;
  std::uint64_t gen_allocs = 0;
  {
    // The collector is joined when this scope ends, on every path.
    struct JoinOnExit {
      std::atomic<bool>& done;
      std::thread& th;
      ~JoinOnExit() {
        done.store(true, std::memory_order_release);
        th.join();
      }
    } join_on_exit{generator_done, collector};
    (void)run_open_loop(due, clock, [&](std::size_t i, double sent) {
      Pending p;
      p.timing.due = due[i];
      p.timing.sent = sent;
      p.kind = kinds[i];
      p.op = i;
      const std::uint64_t op = i;
      if (p.kind == kUpdate) {
        p.index = next_session;
        next_session = (next_session + 1) % kSessions;
        Feed& f = *t.feeds[p.index];
        p.span = tr.add("stream.update", to_ns(due[i]), -1, -1, op);
        // One smooth in flight per session storage; a late one makes the
        // generator late, which the lag and the due-time latency both show.
        while (f.in_flight.load(std::memory_order_acquire)) std::this_thread::yield();
        Vector o(kN);
        for (index j = 0; j < kN; ++j) o[j] = f.rng.gaussian();
        const std::uint64_t a0 = la::aligned_alloc_count_this_thread();
        {
          ScopedSpan s(tr, "engine.session_append", p.span, op);
          ph.append_s.push_back(time_call([&] { append(f, o); }));
        }
        gen_allocs += la::aligned_alloc_count_this_thread() - a0;
        f.in_flight.store(true, std::memory_order_release);
        ScopedSpan s(tr, "engine.session_smooth_async", p.span, op);
        p.fut = f.session->smooth_async(true, &f.into);
      } else {
        p.index = i % kTracks;
        p.span = tr.add("stream.request", to_ns(due[i]), -1, -1, op);
        serve::Request req{in.tracks[p.index], {}, true};
        ScopedSpan s(tr, "serve.submit", p.span, op);
        p.fut = t.tier->submit(t.tenants[i % kTenants], std::move(req));
      }
      ph.lag.push_back(generator_lag(p.timing));
      std::lock_guard<std::mutex> lk(mu);
      pending.push_back(std::move(p));
    });
  }
  ph.update_allocs += gen_allocs;
  return ph;
}

std::vector<double> latencies(const std::vector<OpTiming>& ops) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const OpTiming& o : ops) v.push_back(due_latency(o));
  return v;
}

/// Report a latency percentile; an infinite one (failures beyond the
/// percentile) is reported as the largest finite double.
double finite(double v) { return std::isinf(v) ? std::numeric_limits<double>::max() : v; }

/// The q-th percentile of due-time latency, as the median over the phase's
/// one-second windows (by due time) of each window's own q-th percentile;
/// windows too small to support q are skipped.  A host stall of a few
/// milliseconds (steal time on a shared machine) moves one window's tail,
/// not the median window's.  The whole-phase percentile goes to the notes.
void add_latency(Outcome& out, const char* name, const std::vector<OpTiming>& ops, double q) {
  std::vector<std::vector<double>> windows;
  for (const OpTiming& o : ops) {
    const std::size_t w = static_cast<std::size_t>(std::max(0.0, o.due));
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(due_latency(o));
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows)
    if (percentile_supported(w.size(), q)) per_window.push_back(finite(percentile(w, q)));
  const std::vector<double> all = latencies(ops);
  out.add(name, per_window.empty() ? finite(percentile(all, q)) : median(per_window), "s");
  out.note(std::string(name) + ": median of " + std::to_string(per_window.size()) +
           " one-second windows; whole phase " + fmt(finite(percentile(all, q))) + " s over " +
           std::to_string(all.size()) + " samples" +
           (percentile_supported(all.size(), q) ? "" : " (too few for this percentile)"));
}

}  // namespace

Section run_stream(const RunConfig& cfg, double seconds, Outcome& out) {
  // ---- inputs (not timed, not set-up) ----
  la::Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 0x57E4);
  Inputs in;
  for (std::size_t s = 0; s < kSessions; ++s) {
    in.F.push_back(la::random_orthonormal(rng, kN));
    in.G.push_back(la::random_orthonormal(rng, kN));
    std::vector<Vector> obs;
    for (std::size_t i = 0; i <= kSessionBase + kWarmUpdates; ++i)
      obs.push_back(la::random_gaussian_vector(rng, kN));
    in.obs.push_back(std::move(obs));
  }
  {
    par::ThreadPool serial(1);
    for (std::size_t r = 0; r < kTracks; ++r) {
      la::Rng tr = rng.split();
      in.tracks.push_back(kalman::make_paper_benchmark(tr, kN, kTrackSteps));
      in.refs.push_back(engine::solve_with(engine::Backend::PaigeSaunders, in.tracks.back(),
                                           std::nullopt, serial));
    }
  }

  // ---- set-up, three times; the last tier serves the run ----
  Section sec;
  Tier t;
  for (int rep = 0; rep < 3; ++rep) {
    t.feeds.clear();  // sessions must not outlive their engine
    t.tier.reset();
    sec.setups.push_back(time_call([&] { t = set_up(cfg, in, cfg.seed); }));
  }

  std::vector<engine::SessionStats> s0;
  for (auto& f : t.feeds) s0.push_back(f->session->stats());
  const serve::TierStats tier0 = t.tier->stats();
  obs::Histogram& window = obs::histogram("pitk.session.truncation_window");
  const double w_sum0 = window.sum();
  const std::uint64_t w_n0 = window.count();

  const std::uint64_t schedule_seed = cfg.seed * 0xD1B54A32D192ED03ULL + 1;
  Tracer off(false);
  Tracer tr(true);
  Phase ph;
  Phase plain;
  if (cfg.trace) {
    // Half the measured phase untraced, half traced: the difference is the
    // tracing overhead.
    plain = run_phase(t, in, schedule_seed, 0.5 * seconds, off, out);
    ph = run_phase(t, in, schedule_seed + 1, 0.5 * seconds, tr, out);
  } else {
    ph = run_phase(t, in, schedule_seed, seconds, off, out);
  }

  // ---- final session estimates against an exact full smooth ----
  for (auto& f : t.feeds) {
    const SmootherResult exact = kalman::paige_saunders_smooth(history(*f));
    const double dev_async = max_rel_deviation(f->into, exact);
    const double dev_sync = max_rel_deviation(f->session->smooth(true), exact);
    out.account(dev_async <= kTolerance && dev_sync <= kTolerance,
                "session final estimate deviates from the exact smooth by " +
                    fmt(std::max(dev_async, dev_sync)));
  }

  if (cfg.trace) {
    std::uint64_t hits = 0, misses = 0, truncated = 0;
    for (std::size_t s = 0; s < t.feeds.size(); ++s) {
      const engine::SessionStats now = t.feeds[s]->session->stats();
      hits += now.resmooth_hits - s0[s].resmooth_hits;
      misses += now.resmooth_misses - s0[s].resmooth_misses;
      truncated += now.truncated_resmooths - s0[s].truncated_resmooths;
    }
    const serve::TierStats tier1 = t.tier->stats();
    const std::size_t updates = plain.updates.size() + ph.updates.size();
    std::vector<double> append_s = plain.append_s;
    append_s.insert(append_s.end(), ph.append_s.begin(), ph.append_s.end());
    std::vector<double> smooth_s = plain.smooth_solve_s;
    smooth_s.insert(smooth_s.end(), ph.smooth_solve_s.begin(), ph.smooth_solve_s.end());
    std::vector<double> buffer = plain.buffer_wait_s;
    buffer.insert(buffer.end(), ph.buffer_wait_s.begin(), ph.buffer_wait_s.end());
    std::vector<double> lag = plain.lag;
    lag.insert(lag.end(), ph.lag.begin(), ph.lag.end());

    out.add("engine.session_append_p50_s", percentile(append_s, 0.5), "s");
    out.add("engine.session_smooth_p50_s", percentile(smooth_s, 0.5), "s");
    out.add("engine.session_smooth_p99_s", percentile(smooth_s, 0.99), "s");
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    out.add("engine.session_truncated_share", ratio(truncated, misses), "share");
    out.add("engine.session_window_mean",
            ratio(window.sum() - w_sum0, static_cast<double>(window.count() - w_n0)), "states");
    out.add("engine.session_hit_share", ratio(hits, hits + misses), "share");
    out.add("engine.session_allocs_per_update",
            ratio(plain.update_allocs + ph.update_allocs, updates), "count");
    out.add("serve.buffer_wait_p50_s", percentile(buffer, 0.5), "s");
    for (int c = 0; c < serve::num_tenant_classes; ++c) {
      const auto cls = static_cast<serve::TenantClass>(c);
      out.add(std::string("serve.shed.") + serve::tenant_class_name(cls),
              static_cast<double>(tier1.classes[c].shed - tier0.classes[c].shed), "count");
    }
    out.add("serve.size_flushes", static_cast<double>(tier1.size_flushes - tier0.size_flushes),
            "count");
    out.add("serve.deadline_flushes",
            static_cast<double>(tier1.deadline_flushes - tier0.deadline_flushes), "count");
    out.add("serve.generator_lag_p99_s", percentile(lag, 0.99), "s");
    // Update latency and the tails, from the untraced half.  Reported here,
    // ungated: on a shared host they follow steal time more than the program.
    add_latency(out, "stream.update_p50_s", plain.updates, 0.5);
    add_latency(out, "stream.update_p90_s", plain.updates, 0.9);
    add_latency(out, "stream.update_p99_s", plain.updates, 0.99);
    add_latency(out, "stream.request_p90_s", plain.requests, 0.9);
    add_latency(out, "stream.request_p99_s", plain.requests, 0.99);
    const double p50_traced = percentile(latencies(ph.updates), 0.5);
    const double p50_plain = percentile(latencies(plain.updates), 0.5);
    out.add("trace.overhead.stream", ratio(p50_traced, p50_plain) - 1.0, "share");
    out.note("samples: " + std::to_string(updates) + " updates, " +
             std::to_string(plain.requests.size() + ph.requests.size()) + " requests");
    tr.write_chrome_json(cfg.state_dir + "/trace-" + cfg.workload + "-stream.json");
  } else {
    add_latency(out, "request_p50_s", ph.requests, 0.5);
    out.note("offered rate " + fmt(kRate) + "/s; generator lag p99 " +
             fmt(percentile(ph.lag, 0.99)) + " s");
  }

  const serve::TierStats ts = t.tier->stats();
  sec.selection = "tier:shards=" + std::to_string(t.tier->num_shards()) +
                  ",batched=" + std::to_string(ts.classes[1].batched > 0) +
                  ",direct=" + std::to_string(ts.classes[1].direct > 0);
  return sec;
}

}  // namespace perfbench
