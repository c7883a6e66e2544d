/// \file paper.cpp
/// The paper section of every workload: the Section 5.2 synthetic problem
/// (kalman::make_paper_benchmark) at the workload's n and k, solved by the
/// smoother variants of the paper's Fig. 2, each checked against
/// Paige-Saunders.
///
/// Untraced run: rounds over the three gated variants (odd-even and
/// associative at nproc threads, Paige-Saunders), the order rotating each
/// round, until the section's share of the measured phase is used up; each
/// metric is the median wall time of one full solve.  Traced run: rounds
/// of every variant, the odd-even and Paige-Saunders ones split into their
/// core stages, each stage a span; then kernel rates of la::qr_factor and
/// la::gemm at the shapes the smoothers build.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>

#include <malloc.h>

#include "bench.hpp"
#include "core/associative.hpp"
#include "core/oddeven.hpp"
#include "core/paige_saunders.hpp"
#include "core/selinv.hpp"
#include "engine/backend.hpp"
#include "kalman/rts.hpp"
#include "kalman/simulate.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "la/random.hpp"
#include "parallel/thread_pool.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using kalman::Problem;
using kalman::SmootherResult;
using la::index;

/// Agreement bar against Paige-Saunders, relative per entry (means and
/// covariances).  The repository's cross-validation tests hold the same
/// variants to 1e-7 on smaller problems.
constexpr double kTolerance = 1e-7;

struct Inputs {
  Problem problem;       ///< full problem, step-0 observation included
  Problem conventional;  ///< step-0 observation stripped ...
  kalman::GaussianPrior prior;  ///< ... and turned into this exact prior
};

/// The conventional smoothers (RTS, associative) need a prior: with
/// orthonormal G and L = I the step-0 observation is exactly the Gaussian
/// prior N(G^T o_0, I), so both formulations solve the same problem.
Inputs make_inputs(la::Rng& rng, index n, index k) {
  Inputs in;
  in.problem = kalman::make_paper_benchmark(rng, n, k);
  const kalman::Observation& ob0 = *in.problem.step(0).observation;
  in.prior.mean = la::Vector(n);
  la::gemv(1.0, ob0.G.view(), la::Trans::Yes, ob0.o.span(), 0.0, in.prior.mean.span());
  in.prior.cov = la::Matrix::identity(n);
  in.conventional = in.problem;
  in.conventional.step(0).observation.reset();
  return in;
}

struct Pools {
  std::unique_ptr<par::ThreadPool> all;  ///< nproc lanes
  std::unique_ptr<par::ThreadPool> one;  ///< 1 lane: the sequential build
};

struct Variant {
  const char* metric;
  bool covariances;
  std::function<SmootherResult(const Inputs&, Pools&)> run;
};

/// The end-to-end variants: the paper's method, its parallel competitor
/// and the sequential reference.
std::vector<Variant> gated_variants() {
  return {
      {"oddeven_s", true,
       [](const Inputs& in, Pools& p) { return kalman::oddeven_smooth(in.problem, *p.all); }},
      {"associative_s", true,
       [](const Inputs& in, Pools& p) {
         return kalman::associative_smooth(in.conventional, in.prior, *p.all);
       }},
      {"paige_saunders_s", true,
       [](const Inputs& in, Pools&) { return kalman::paige_saunders_smooth(in.problem); }},
  };
}

/// The other Fig. 2 variants, timed whole in the traced run; the span name
/// is also the metric name.
std::vector<Variant> traced_variants() {
  using kalman::OddEvenOptions;
  return {
      {"core.oddeven_nc", false,
       [](const Inputs& in, Pools& p) {
         return kalman::oddeven_smooth(in.problem, *p.all,
                                       OddEvenOptions{.compute_covariance = false});
       }},
      {"core.associative_1t", true,
       [](const Inputs& in, Pools& p) {
         return kalman::associative_smooth(in.conventional, in.prior, *p.one);
       }},
      {"kalman.rts", true,
       [](const Inputs& in, Pools&) { return kalman::rts_smooth(in.conventional, in.prior); }},
  };
}

/// Check one result against the reference; means only for NC variants.
void check(Outcome& out, const char* what, SmootherResult got, const SmootherResult& ref,
           bool covariances) {
  if (!covariances) got.covariances.clear();
  const double dev = max_rel_deviation(got, ref);
  const bool shape_ok = covariances == got.has_covariances();
  out.account(shape_ok && dev <= kTolerance,
              std::string(what) + ": deviation from Paige-Saunders " + fmt(dev));
}

/// Program set-up: thread pools plus an untimed warm-up pass: every variant
/// on a prefix of the problem (per-thread workspace arenas, pool workers),
/// then one full-size solve of each gated variant.  The full-size solves
/// bring the allocator to its steady state (glibc raises its mmap threshold
/// as large blocks are freed), which otherwise shifts the first timed
/// solves of each variant.
Pools set_up(const RunConfig& cfg, const Inputs& warm, const Inputs& full) {
  Pools p;
  p.all = std::make_unique<par::ThreadPool>(cfg.threads);
  p.one = std::make_unique<par::ThreadPool>(1);
  for (const Variant& v : gated_variants()) (void)v.run(warm, p);
  for (const Variant& v : traced_variants()) (void)v.run(warm, p);
  (void)kalman::oddeven_smooth(warm.problem, *p.one);
  for (const Variant& v : gated_variants()) (void)v.run(full, p);
  return p;
}

void fig2_note(Outcome& out, double oddeven_s, double associative_s) {
  out.note(std::string("paper.fig2 [") + (oddeven_s < associative_s ? "OK  " : "FAIL") +
           "] Odd-Even faster than Associative at max cores (oddeven " + fmt(oddeven_s) +
           " s, associative " + fmt(associative_s) + " s)");
}

// ---- traced run -----------------------------------------------------------

/// la::qr_factor on an m x n block: rate and computed traffic.  Calls are
/// timed in batches over fresh copies of one random matrix.
void trace_qr(Outcome& out, Tracer& tr, la::Rng& rng, index m, index n, const std::string& tag,
              double budget) {
  const la::Matrix pristine = la::random_gaussian(rng, m, n);
  constexpr int kBatch = 64;
  std::vector<la::Matrix> work(kBatch, pristine);
  std::vector<double> tau(static_cast<std::size_t>(std::min(m, n)));
  long calls = 0;
  std::vector<double> per_call;
  const Clock::time_point t0 = Clock::now();
  while (calls == 0 || seconds_since(t0) < budget) {
    for (la::Matrix& w : work) w = pristine;
    ScopedSpan span(tr, "la.qr_factor", -1, static_cast<std::uint64_t>(m));
    const double dt = time_call([&] {
      for (la::Matrix& w : work) la::qr_factor(w.view(), tau);
    });
    calls += kBatch;
    per_call.push_back(dt / kBatch);
  }
  const double md = static_cast<double>(m);
  const double nd = static_cast<double>(n);
  const double flops = 2.0 * md * nd * nd - 2.0 * nd * nd * nd / 3.0;  // Householder, m >= n
  const double s_per_call = median(per_call);
  out.add("la.qr_factor." + tag + ".s_per_call", s_per_call, "s");
  out.add("la.qr_factor." + tag + ".gflops", 1e-9 * flops / s_per_call, "GFLOP/s");
  out.add("la.qr_factor." + tag + ".flops", flops, "flop");
  // Computed, not measured: the block is read and written once.
  out.add("la.qr_factor." + tag + ".bytes_computed", 2.0 * md * nd * 8.0, "B");
}

void trace_gemm(Outcome& out, Tracer& tr, la::Rng& rng, index n, double budget) {
  const la::Matrix a = la::random_gaussian(rng, n, n);
  const la::Matrix b = la::random_gaussian(rng, n, n);
  la::Matrix c(n, n);
  const int batch = std::max(16, static_cast<int>(4e6 / (2.0 * n * n * n)));
  std::vector<double> per_call;
  const Clock::time_point t0 = Clock::now();
  while (per_call.empty() || seconds_since(t0) < budget) {
    ScopedSpan span(tr, "la.gemm", -1, static_cast<std::uint64_t>(n));
    const double dt = time_call([&] {
      for (int r = 0; r < batch; ++r)
        la::gemm(1.0, a.view(), la::Trans::No, b.view(), la::Trans::No, 0.0, c.view());
    });
    per_call.push_back(dt / batch);
  }
  const double nd = static_cast<double>(n);
  out.add("la.gemm.gflops", 1e-9 * 2.0 * nd * nd * nd / median(per_call), "GFLOP/s");
}

/// Span names of one odd-even solve split into its core stages.
struct Stages {
  const char* root;
  const char* factor;
  const char* solve;
  const char* covariances;
  const char* release;
};
constexpr Stages kStages{"core.oddeven", "core.oddeven_factor", "core.oddeven_solve",
                         "core.oddeven_covariances", "core.oddeven_release"};
constexpr Stages kStages1t{"core.oddeven_1t", "core.oddeven_factor_1t", "core.oddeven_solve_1t",
                           "core.oddeven_covariances_1t", "core.oddeven_release_1t"};

/// One odd-even solve on `pool`, split into the stages `st` names.
/// Returns the root span.
std::int64_t oddeven_stages(Tracer& tr, const Stages& st, const Inputs& in, par::ThreadPool& pool,
                            std::uint64_t round, const SmootherResult& ref, Outcome& out,
                            double& levels, double& allocs_per_state) {
  const std::int64_t root = tr.begin(st.root, -1, round);
  const std::uint64_t a0 = la::aligned_alloc_count();
  std::int64_t s = tr.begin(st.factor, root, round);
  auto f = std::make_unique<kalman::OddEvenFactor>(kalman::oddeven_factor(in.problem, pool));
  tr.end(s);
  allocs_per_state = static_cast<double>(la::aligned_alloc_count() - a0) /
                     static_cast<double>(in.problem.num_states());
  levels = static_cast<double>(f->levels.size());
  SmootherResult res;
  s = tr.begin(st.solve, root, round);
  res.means = kalman::oddeven_solve(*f, pool);
  tr.end(s);
  s = tr.begin(st.covariances, root, round);
  res.covariances = kalman::oddeven_covariances(*f, pool);
  tr.end(s);
  // oddeven_smooth frees its factor before returning; that is a stage of
  // its own (millions of small blocks at n=6).
  s = tr.begin(st.release, root, round);
  f.reset();
  tr.end(s);
  tr.end(root);
  check(out, st.root, std::move(res), ref, true);
  return root;
}

void run_traced(const RunConfig& cfg, double seconds, const Inputs& in,
                const SmootherResult& ref, Pools& pools, la::Rng& rng, index n, Outcome& out,
                Tracer& tr) {
  const Clock::time_point t0 = Clock::now();
  // The kernel rates run last, on a budget reserved from the measured phase.
  const double la_budget = std::min(0.15 * seconds, 3.0) / 3.0;
  const double rounds_budget = seconds - 3.0 * la_budget;

  const double states = static_cast<double>(in.problem.num_states());
  std::vector<double> gap, overhead, cpu_util;
  double oe_allocs = 0.0, ps_allocs = 0.0, levels = 0.0, unused = 0.0;
  const std::vector<Variant> whole = traced_variants();
  // At least one round; another only when it is expected to end inside the
  // measured phase.
  double last_round = 0.0;
  for (std::uint64_t round = 0; round == 0 || seconds_since(t0) + last_round <= rounds_budget;
       ++round) {
    const Clock::time_point r0 = Clock::now();
    // Untraced end-to-end solve and the traced stage split of the same
    // solve, in alternating order so drift between the two cancels in the
    // median over rounds.
    double e2e = 0.0;
    const auto plain = [&] {
      SmootherResult res;
      malloc_trim(0);
      e2e = time_call([&] { res = kalman::oddeven_smooth(in.problem, *pools.all); });
      check(out, "oddeven_smooth", std::move(res), ref, true);
    };
    double root_s = 0.0, stages = 0.0;
    const auto split = [&] {
      malloc_trim(0);
      const double cpu0 = process_cpu_seconds();
      const std::int64_t root =
          oddeven_stages(tr, kStages, in, *pools.all, round, ref, out, levels, unused);
      const std::vector<Span> all = tr.spans();
      const auto secs = [](const Span& sp) {
        return 1e-9 * static_cast<double>(sp.end_ns - sp.start_ns);
      };
      root_s = secs(all[static_cast<std::size_t>(root)]);
      for (const Span& sp : all)
        if (sp.parent == root) stages += secs(sp);
      cpu_util.push_back((process_cpu_seconds() - cpu0) / (cfg.threads * root_s));
    };
    if (round % 2 == 0) {
      plain();
      split();
    } else {
      split();
      plain();
    }
    gap.push_back((e2e - stages) / e2e);
    overhead.push_back((root_s - e2e) / e2e);
    malloc_trim(0);
    (void)oddeven_stages(tr, kStages1t, in, *pools.one, round, ref, out, unused, oe_allocs);
    malloc_trim(0);
    {
      const std::int64_t root = tr.begin("core.paige_saunders", -1, round);
      const std::uint64_t a0 = la::aligned_alloc_count();
      std::int64_t s = tr.begin("core.paige_saunders_factor", root, round);
      const kalman::BidiagonalFactor f = kalman::paige_saunders_factor(in.problem);
      tr.end(s);
      ps_allocs = static_cast<double>(la::aligned_alloc_count() - a0) / states;
      SmootherResult res;
      s = tr.begin("core.paige_saunders_solve", root, round);
      res.means = kalman::paige_saunders_solve(f);
      tr.end(s);
      s = tr.begin("core.selinv_bidiagonal", root, round);
      res.covariances = kalman::selinv_bidiagonal(f);
      tr.end(s);
      tr.end(root);
      check(out, "paige_saunders stages", std::move(res), ref, true);
    }
    malloc_trim(0);
    {
      SmootherResult res;
      {
        ScopedSpan span(tr, "core.associative", -1, round);
        res = kalman::associative_smooth(in.conventional, in.prior, *pools.all);
      }
      check(out, "associative", std::move(res), ref, true);
    }
    for (const Variant& v : whole) {
      SmootherResult res;
      malloc_trim(0);
      {
        ScopedSpan span(tr, v.metric, -1, round);
        res = v.run(in, pools);
      }
      check(out, v.metric, std::move(res), ref, v.covariances);
    }
    last_round = seconds_since(r0);
  }
  trace_qr(out, tr, rng, 2 * n, n, "2nxn", la_budget);
  trace_qr(out, tr, rng, 3 * n, n, "3nxn", la_budget);
  trace_gemm(out, tr, rng, n, la_budget);

  const auto med = [&tr](const char* name) { return median(tr.durations(name)); };
  out.add("core.oddeven_factor_s", med("core.oddeven_factor"), "s");
  out.add("core.oddeven_solve_s", med("core.oddeven_solve"), "s");
  out.add("core.oddeven_covariances_s", med("core.oddeven_covariances"), "s");
  out.add("core.oddeven_release_s", med("core.oddeven_release"), "s");
  out.add("core.oddeven_1t_s", med("core.oddeven_1t"), "s");
  out.add("core.oddeven_factor_1t_s", med("core.oddeven_factor_1t"), "s");
  out.add("core.paige_saunders_factor_s", med("core.paige_saunders_factor"), "s");
  out.add("core.paige_saunders_solve_s", med("core.paige_saunders_solve"), "s");
  out.add("core.selinv_bidiagonal_s", med("core.selinv_bidiagonal"), "s");
  out.add("core.associative_s", med("core.associative"), "s");
  for (const Variant& v : whole) out.add(std::string(v.metric) + "_s", med(v.metric), "s");
  out.add("core.oddeven_factor.allocs_per_state", oe_allocs, "count");
  out.add("core.paige_saunders_factor.allocs_per_state", ps_allocs, "count");
  out.add("core.oddeven.levels", levels, "count");
  out.add("core.stage_sum_gap", median(gap), "share");
  out.add("parallel.cpu_utilization", median(cpu_util), "share");
  out.add("parallel.oddeven_factor_speedup",
          med("core.oddeven_factor_1t") / med("core.oddeven_factor"), "x");
  out.add("trace.overhead.paper", median(overhead), "share");

  // Report-only paper shape fields, from the traced rounds' whole-solve
  // spans (core.oddeven and core.oddeven_1t are within trace.overhead of
  // an untraced solve).
  const double oe = med("core.oddeven"), oe1 = med("core.oddeven_1t");
  const double as = med("core.associative"), as1 = med("core.associative_1t");
  fig2_note(out, oe, as);
  out.note("paper.fig3 speedup at max cores: odd-even " + fmt(oe1 / oe) + "x, associative " +
           fmt(as1 / as) + "x");
  out.note("paper.table1 Odd-Even/Paige-Saunders on 1 core = " +
           fmt(oe1 / med("core.paige_saunders")) + "x (paper: 1.8-2.5x)");
  out.note("paper.table1 Associative/Kalman on 1 core = " + fmt(as1 / med("kalman.rts")) +
           "x (paper: 1.8-2.7x)");
  out.note("paper traced rounds: " + std::to_string(tr.durations("core.oddeven").size()));
}

}  // namespace

Section run_paper(const RunConfig& cfg, double seconds, la::index n, la::index k,
                  Outcome& out) {
  // ---- inputs (not timed, not set-up) ----
  la::Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(n));
  Inputs in;
  const double gen_s = time_call([&] { in = make_inputs(rng, n, k); });
  la::Rng warm_rng = rng.split();
  const Inputs warm = make_inputs(warm_rng, n, std::max<index>(64, k / 50));
  const SmootherResult ref = kalman::paige_saunders_smooth(in.problem);

  // ---- set-up, three times; the last set-up's pools serve the run ----
  Section sec;
  Pools pools;
  for (int r = 0; r < 3; ++r) {
    pools = Pools{};
    sec.setups.push_back(time_call([&] { pools = set_up(cfg, warm, in); }));
  }

  if (cfg.trace) {
    Tracer tr(true);
    run_traced(cfg, seconds, in, ref, pools, rng, n, out, tr);
    out.add("kalman.make_paper_benchmark_s", gen_s, "s");
    tr.write_chrome_json(cfg.state_dir + "/trace-" + cfg.workload + "-paper.json");
  } else {
    const std::vector<Variant> vs = gated_variants();
    std::map<std::string, std::vector<double>> samples;
    // Variants in rounds whose order rotates by one each round.  At least
    // two full rounds; after that a solve starts only when its previous
    // time says it ends inside the section's share.
    const Clock::time_point t0 = Clock::now();
    const std::size_t nv = vs.size();
    for (std::size_t j = 0;; ++j) {
      const Variant& v = vs[(j + j / nv) % nv];
      std::vector<double>& mine = samples[v.metric];
      if (j >= 2 * nv && seconds_since(t0) + mine.back() > seconds) break;
      SmootherResult res;
      malloc_trim(0);
      mine.push_back(time_call([&] { res = v.run(in, pools); }));
      check(out, v.metric, std::move(res), ref, v.covariances);
    }
    for (const Variant& v : vs) {
      out.add(v.metric, median(samples[v.metric]), "s");
      std::string all;
      for (double x : samples[v.metric]) all.append(" ").append(fmt(x));
      out.note(std::string(v.metric) + " samples:" + all);
    }
    fig2_note(out, median(samples["oddeven_s"]), median(samples["associative_s"]));
  }

  const engine::Backend sel = engine::select_backend(in.problem, false, true, cfg.threads);
  sec.selection = std::string("paper=") + engine::backend_info(sel).name;
  return sec;
}

}  // namespace perfbench
