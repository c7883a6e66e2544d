/// \file engine_batch.cpp
/// The engine-batch section of every workload: a closed loop over
/// SmootherEngine::submit_batch on warm engines.  One batch is many small
/// tracks (n=4, k=96, the whole-job path) plus two tracks far above the
/// odd-even selection cutoff (n=8, k=4096, the intra-parallel path).
/// Batches alternate between an engine at nproc threads and one at 1
/// thread; the next batch goes out only when every future of the previous
/// one is ready.

#include <algorithm>
#include <array>
#include <future>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "engine/backend.hpp"
#include "engine/engine.hpp"
#include "kalman/simulate.hpp"
#include "la/random.hpp"
#include "parallel/thread_pool.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using engine::JobMetrics;
using engine::SmootherEngine;
using kalman::Problem;
using kalman::SmootherResult;

constexpr int kSmallJobs = 512;
constexpr int kLargeJobs = 2;
/// Agreement bar against a direct Paige-Saunders solve, relative per entry.
constexpr double kTolerance = 1e-8;

struct BatchRun {
  double wall = 0.0;
  double cpu = 0.0;  ///< process CPU seconds inside the timed window
  std::vector<JobMetrics> jobs;
  std::uint64_t allocations = 0;
  std::uint64_t small = 0;  ///< EngineStats deltas over the batch
  std::uint64_t large = 0;
};

/// Submit one batch, help drain it, collect and check every result.
BatchRun run_batch(SmootherEngine& eng, const std::vector<Problem>& problems,
                   const std::vector<SmootherResult>& refs, Outcome& out, Tracer& tr,
                   std::uint64_t op) {
  std::vector<Problem> batch = problems;  // copied outside the timed window
  const engine::EngineStats s0 = eng.stats();
  BatchRun r;
  std::vector<std::future<engine::JobResult>> futs;
  std::vector<std::optional<engine::JobResult>> results(problems.size());
  std::vector<std::string> errors(problems.size());
  const std::int64_t t_submit = now_ns();
  const std::int64_t root = tr.begin("engine.batch", -1, op);
  const double cpu0 = process_cpu_seconds();
  r.wall = time_call([&] {
    {
      ScopedSpan s(tr, "engine.submit_batch", root, op);
      futs = eng.submit_batch(std::move(batch));
    }
    {
      ScopedSpan s(tr, "engine.wait_idle", root, op);
      eng.wait_idle();
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      try {
        results[i] = futs[i].get();
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  });
  r.cpu = process_cpu_seconds() - cpu0;
  tr.end(root);
  const engine::EngineStats s1 = eng.stats();
  r.small = s1.jobs_small - s0.jobs_small;
  r.large = s1.jobs_large - s0.jobs_large;

  // Checks run after the timed window.
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i]) {
      out.account(false, "job threw: " + errors[i]);
      continue;
    }
    const engine::JobResult& jr = *results[i];
    const double dev = max_rel_deviation(jr.result, refs[i]);
    out.account(dev <= kTolerance && jr.result.has_covariances(),
                "job " + std::to_string(i) + " deviates from solve_with by " + fmt(dev));
    r.jobs.push_back(jr.metrics);
    r.allocations += jr.metrics.allocations;
    if (tr.enabled()) {
      // Job spans rebuilt from the engine's own per-job measurements: queued
      // from the batch submit, then solved.
      const auto ns = [](double sec) { return static_cast<std::int64_t>(1e9 * sec); };
      const std::int64_t start = t_submit + ns(jr.metrics.queue_seconds);
      const std::int64_t end = start + ns(jr.metrics.solve_seconds);
      tr.add("engine.job.queue", t_submit, start, root, op);
      tr.add("engine.job.solve", start, end, root, op);
    }
  }
  return r;
}

struct Engines {
  std::unique_ptr<SmootherEngine> all;
  std::unique_ptr<SmootherEngine> one;
};

}  // namespace

Section run_engine_batch(const RunConfig& cfg, double seconds, Outcome& out) {
  // ---- inputs: the batch and its references (not timed, not set-up) ----
  la::Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 0xBA7C4);
  std::vector<Problem> problems;
  for (int i = 0; i < kSmallJobs; ++i) {
    la::Rng r = rng.split();
    problems.push_back(kalman::make_paper_benchmark(r, 4, 96));
  }
  for (int i = 0; i < kLargeJobs; ++i) {
    la::Rng r = rng.split();
    problems.push_back(kalman::make_paper_benchmark(r, 8, 4096));
  }
  std::vector<SmootherResult> refs;
  {
    par::ThreadPool serial(1);
    for (const Problem& p : problems)
      refs.push_back(engine::solve_with(engine::Backend::PaigeSaunders, p, std::nullopt, serial));
  }

  // ---- set-up: both engines (GEMM calibration on first construction) and
  // one untimed warm-up batch each; three times, the last pair serves ----
  Tracer off(false);
  Section sec;
  Engines engs;
  for (int rep = 0; rep < 3; ++rep) {
    engs = Engines{};
    sec.setups.push_back(time_call([&] {
      engine::EngineOptions o;
      o.threads = cfg.threads;
      engs.all = std::make_unique<SmootherEngine>(o);
      o.threads = 1;
      engs.one = std::make_unique<SmootherEngine>(o);
      (void)run_batch(*engs.all, problems, refs, out, off, 0);
      (void)run_batch(*engs.one, problems, refs, out, off, 0);
    }));
  }

  Tracer tr(cfg.trace);
  std::vector<double> rate_all, rate_one, traced_wall, plain_wall;
  std::vector<double> queue, solve, solve_one;
  double cpu_all = 0.0, wall_all = 0.0;
  std::uint64_t allocs = 0, jobs_all = 0, small = 0, large = 0, batches_all = 0;
  std::array<std::uint64_t, engine::num_backends> per_backend{};
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t b = 0; b == 0 || seconds_since(t0) < seconds; ++b) {
    // The traced run alternates traced and untraced nproc batches, so the
    // difference is the tracing overhead.
    const bool traced = cfg.trace && b % 2 == 0;
    const BatchRun ra = run_batch(*engs.all, problems, refs, out, traced ? tr : off, b);
    cpu_all += ra.cpu;
    wall_all += ra.wall;
    rate_all.push_back(static_cast<double>(problems.size()) / ra.wall);
    (traced ? traced_wall : plain_wall).push_back(ra.wall);
    for (const JobMetrics& m : ra.jobs) {
      queue.push_back(m.queue_seconds);
      solve.push_back(m.solve_seconds);
      ++per_backend[static_cast<std::size_t>(engine::backend_index(m.backend))];
    }
    allocs += ra.allocations;
    jobs_all += ra.jobs.size();
    small += ra.small;
    large += ra.large;
    ++batches_all;

    const BatchRun r1 = run_batch(*engs.one, problems, refs, out, off, b);
    rate_one.push_back(static_cast<double>(problems.size()) / r1.wall);
    for (const JobMetrics& m : r1.jobs) solve_one.push_back(m.solve_seconds);
  }

  const auto jobs_on = [&per_backend](const engine::BackendInfo& info) {
    return per_backend[static_cast<std::size_t>(engine::backend_index(info.id))];
  };
  for (const engine::BackendInfo& info : engine::all_backends())
    if (jobs_on(info) != 0)
      sec.selection += std::string(sec.selection.empty() ? "batch:" : ",") + info.name + "=" +
                       std::to_string(jobs_on(info) / batches_all);

  if (cfg.trace) {
    const double bn = static_cast<double>(batches_all);
    out.add("engine.queue_p50_s", percentile(queue, 0.5), "s");
    out.add("engine.queue_p99_s", percentile(queue, 0.99), "s");
    out.add("engine.solve_p50_s", percentile(solve, 0.5), "s");
    out.add("engine.solve_p99_s", percentile(solve, 0.99), "s");
    out.add("engine.solve_p50_1t_s", percentile(solve_one, 0.5), "s");
    out.add("engine.jobs_per_s_1t", median(rate_one), "1/s");
    out.add("engine.solve_inflation", percentile(solve, 0.5) / percentile(solve_one, 0.5), "x");
    out.add("engine.allocs_per_job",
            static_cast<double>(allocs) / static_cast<double>(std::max<std::uint64_t>(jobs_all, 1)),
            "count");
    out.add("engine.cpu_utilization", cpu_all / (cfg.threads * wall_all), "share");
    out.add("engine.jobs_small", static_cast<double>(small) / bn, "count");
    out.add("engine.jobs_large", static_cast<double>(large) / bn, "count");
    for (const engine::BackendInfo& info : engine::all_backends())
      out.add(std::string("engine.backend.") + info.name,
              static_cast<double>(jobs_on(info)) / bn, "count");
    out.add("engine.calibrated_gemm_flops", engine::calibrated_gemm_flops_per_second(), "flop/s");
    out.add("trace.overhead.engine_batch", median(traced_wall) / median(plain_wall) - 1.0,
            "share");
    out.note("samples: " + std::to_string(queue.size()) + " jobs at " +
             std::to_string(cfg.threads) + " threads, " + std::to_string(solve_one.size()) +
             " at 1 thread");
    tr.write_chrome_json(cfg.state_dir + "/trace-" + cfg.workload + "-engine_batch.json");
  } else {
    out.add("jobs_per_s", median(rate_all), "1/s");
    out.note("batches: " + std::to_string(rate_all.size()) + " at " +
             std::to_string(cfg.threads) + " threads, " + std::to_string(rate_one.size()) +
             " at 1 thread, " + std::to_string(problems.size()) + " jobs each");
  }
  return sec;
}

}  // namespace perfbench
