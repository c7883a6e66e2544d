/// \file serve_load.cpp
/// Open-loop load benchmark of the sharded serving tier (BENCH_serve.json;
/// merged into the committed BENCH_engine.json baseline).
///
/// Three phases, all of which gate the exit status:
///
///  1. Agreement: for every backend, small jobs routed through a *batched*
///     tenant class (deadline-flushed, no explicit flush() call) must agree
///     with a direct engine submit to 1e-10.
///  2. serve_load: Poisson arrivals at a target QPS with a mixed tenant
///     population (interactive / standard / besteffort) against a fresh
///     tier; reports per-class end-to-end p50/p99 latency (stamped when the
///     caller-visible future resolves, so buffer wait and forwarding are
///     included), offered vs achieved QPS, and shed rate.  Exact accounting
///     (completed + shed + failed == submitted) is an invariant.
///  3. serve_overload: a burst far over capacity with tight per-class
///     admission budgets; the class SLO ordering (besteffort sheds at least
///     as hard as interactive) is an invariant.
///
/// Both series are report-only in bench_diff (their wall time measures load
/// generation, not solver speed).  Knobs:
///
///   PITK_SHARDS            tier shards                (default 2)
///   PITK_SERVE_QPS         offered load, phase 2      (default 2000)
///   PITK_SERVE_REQUESTS    requests per rep, phase 2  (default 2000)
///   PITK_SERVE_TENANTS     tenant population          (default 48)
///   PITK_OVERLOAD_REQUESTS burst size, phase 3        (default 1200)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "kalman/simulate.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "obs/histogram.hpp"
#include "pitk/serve.hpp"

namespace {

using namespace pitk;
using Clock = std::chrono::steady_clock;
using engine::Backend;
using la::index;
using serve::TenantClass;

long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atol(v) : fallback;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double max_deviation(const kalman::SmootherResult& got, const kalman::SmootherResult& ref) {
  double d = 0.0;
  for (std::size_t i = 0; i < ref.means.size(); ++i)
    d = std::max(d, la::max_abs_diff(got.means[i].span(), ref.means[i].span()));
  if (got.has_covariances() && ref.has_covariances())
    for (std::size_t i = 0; i < ref.covariances.size(); ++i)
      d = std::max(d, la::max_abs_diff(got.covariances[i].view(), ref.covariances[i].view()));
  return d;
}

/// Phase 1: batched-through-the-tier vs direct-to-the-engine, per backend.
bool check_batched_agreement(index n, index k) {
  serve::ServeOptions so;
  so.shards = 2;
  // Aggressive batching so the agreement path really exercises the buffer:
  // a large size cut plus a short deadline forces deadline flushes.
  so.classes[serve::tenant_class_index(TenantClass::Standard)].flush_max_jobs = 64;
  so.classes[serve::tenant_class_index(TenantClass::Standard)].flush_deadline_seconds = 0.002;
  serve::ServingTier tier(so);

  bool ok = true;
  int b = 0;
  for (const engine::BackendInfo& info : engine::all_backends()) {
    const Backend backend = info.id;
    la::Rng rng(0x5E21AD + static_cast<std::uint64_t>(b++));
    kalman::Problem p = kalman::make_paper_benchmark(rng, n, k);
    const kalman::GaussianPrior prior = kalman::diffuse_prior(n);

    engine::JobOptions ref_opts;
    ref_opts.backend = backend;
    ref_opts.prior = prior;
    serve::TenantHandle t =
        tier.tenant("agreement-" + std::string(info.name), TenantClass::Standard);
    const kalman::SmootherResult ref =
        tier.shard_engine(t.shard()).submit(p, ref_opts).get().result;

    serve::Request req;
    req.problem = p;
    req.prior = prior;
    engine::SubmitOptions opts;
    opts.backend = backend;
    // No flush() call: the pump's deadline flush must deliver this.
    std::future<engine::JobResult> fut = tier.submit(t, std::move(req), opts);
    const kalman::SmootherResult got = fut.get().result;

    const double dev = max_deviation(got, ref);
    if (!(dev <= 1e-10)) {
      std::fprintf(stderr, "serve_load: backend %s batched-vs-direct deviation %.3e > 1e-10\n",
                   info.name, dev);
      ok = false;
    }
  }
  return ok;
}

struct ClassAccounting {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;  ///< deadline/cancel/other exceptional completions
};

/// An in-flight request; the collector stamps its completion.
struct Outstanding {
  std::future<engine::JobResult> fut;
  Clock::time_point submitted;
  int cls = 0;
};

/// Sweep `inflight` (under `mu`), stamping completed futures into the
/// per-class histograms/accounting.  Returns the number still pending.
std::size_t sweep(std::vector<Outstanding>& inflight, std::mutex& mu,
                  obs::Histogram* lat, ClassAccounting* acct) {
  std::lock_guard<std::mutex> lk(mu);
  for (std::size_t i = 0; i < inflight.size();) {
    Outstanding& o = inflight[i];
    if (o.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++i;
      continue;
    }
    try {
      (void)o.fut.get();
      lat[o.cls].record(seconds_since(o.submitted));
      ++acct[o.cls].completed;
    } catch (const engine::SolveError& e) {
      if (e.code() == engine::SolveErrorCode::QueueFull)
        ++acct[o.cls].shed;
      else
        ++acct[o.cls].failed;
    } catch (...) {
      ++acct[o.cls].failed;
    }
    inflight[i] = std::move(inflight.back());
    inflight.pop_back();
  }
  return inflight.size();
}

TenantClass class_of_tenant(long tenant) {
  // 25% interactive, 50% standard, 25% besteffort.
  const long r = tenant % 4;
  return r == 0 ? TenantClass::Interactive
                : (r == 3 ? TenantClass::BestEffort : TenantClass::Standard);
}

}  // namespace

int main() {
  const index n = static_cast<index>(env_long("PITK_SERVE_N", 4));
  const index k = static_cast<index>(env_long("PITK_SERVE_K", 48));
  const long requests = env_long("PITK_SERVE_REQUESTS", 2000);
  const long tenants = env_long("PITK_SERVE_TENANTS", 48);
  const double qps = static_cast<double>(env_long("PITK_SERVE_QPS", 2000));
  const long overload_requests = env_long("PITK_OVERLOAD_REQUESTS", 1200);
  const int reps = bench::json_repetitions();
  bench::JsonBench out("BENCH_serve.json");

  bool ok = check_batched_agreement(n, k);
  std::printf("serve_load: batched-vs-direct agreement %s\n", ok ? "OK (5 backends)" : "FAILED");

  // Problem pool, built once (construction excluded from timing).
  la::Rng rng(0x5EAF00D);
  std::vector<kalman::Problem> pool;
  const kalman::GaussianPrior prior = kalman::diffuse_prior(n);
  for (int i = 0; i < 32; ++i) {
    la::Rng r = rng.split();
    pool.push_back(kalman::make_paper_benchmark(r, n, k));
  }

  // ---- Phase 2: open-loop Poisson load at the target QPS ----------------
  std::vector<double> load_samples;
  obs::Histogram lat[serve::num_tenant_classes];
  ClassAccounting acct[serve::num_tenant_classes];
  double achieved_qps = 0.0;
  for (int r = 0; r < reps; ++r) {
    serve::ServeOptions so = serve::ServeOptions::env_defaults();
    if (env_long("PITK_SHARDS", 0) == 0) so.shards = 2;
    serve::ServingTier tier(so);
    std::vector<serve::TenantHandle> handles;
    for (long t = 0; t < tenants; ++t)
      handles.push_back(tier.tenant("tenant-" + std::to_string(t), class_of_tenant(t)));

    std::vector<Outstanding> inflight;
    std::mutex mu;
    std::atomic<bool> done{false};
    std::thread collector([&] {
      while (!done.load(std::memory_order_acquire)) {
        (void)sweep(inflight, mu, lat, acct);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      while (sweep(inflight, mu, lat, acct) != 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    });

    std::mt19937_64 arrivals(0xA221 + static_cast<std::uint64_t>(r));
    std::exponential_distribution<double> gap(qps);
    const auto t0 = Clock::now();
    auto next = t0;
    for (long i = 0; i < requests; ++i) {
      std::this_thread::sleep_until(next);
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(arrivals)));
      const long tenant = static_cast<long>(arrivals() % static_cast<std::uint64_t>(tenants));
      const serve::TenantHandle& h = handles[static_cast<std::size_t>(tenant)];
      serve::Request req;
      req.problem = pool[static_cast<std::size_t>(i) % pool.size()];
      req.prior = prior;
      const int c = serve::tenant_class_index(h.tenant_class());
      ++acct[c].submitted;
      Outstanding o;
      o.submitted = Clock::now();
      o.cls = c;
      o.fut = tier.submit(h, std::move(req));
      std::lock_guard<std::mutex> lk(mu);
      inflight.push_back(std::move(o));
    }
    tier.wait_idle();
    done.store(true, std::memory_order_release);
    collector.join();
    load_samples.push_back(seconds_since(t0));
    achieved_qps = static_cast<double>(requests) / load_samples.back();
  }

  std::uint64_t total_submitted = 0, total_completed = 0, total_shed = 0, total_failed = 0;
  for (const ClassAccounting& a : acct) {
    total_submitted += a.submitted;
    total_completed += a.completed;
    total_shed += a.shed;
    total_failed += a.failed;
    if (a.completed + a.shed + a.failed != a.submitted) {
      std::fprintf(stderr, "serve_load: accounting mismatch (%llu + %llu + %llu != %llu)\n",
                   static_cast<unsigned long long>(a.completed),
                   static_cast<unsigned long long>(a.shed),
                   static_cast<unsigned long long>(a.failed),
                   static_cast<unsigned long long>(a.submitted));
      ok = false;
    }
  }
  const double shed_rate =
      total_submitted == 0 ? 0.0
                           : static_cast<double>(total_shed) / static_cast<double>(total_submitted);
  out.record("serve_load", load_samples,
             {{"requests", static_cast<double>(requests)},
              {"tenants", static_cast<double>(tenants)},
              {"k", static_cast<double>(k)},
              {"n", static_cast<double>(n)},
              {"offered_qps", qps},
              {"achieved_qps", achieved_qps},
              {"shed_rate", shed_rate},
              {"completed", static_cast<double>(total_completed)},
              {"interactive_p50_s", lat[0].quantile(0.5)},
              {"interactive_p99_s", lat[0].quantile(0.99)},
              {"standard_p50_s", lat[1].quantile(0.5)},
              {"standard_p99_s", lat[1].quantile(0.99)},
              {"besteffort_p50_s", lat[2].quantile(0.5)},
              {"besteffort_p99_s", lat[2].quantile(0.99)}});
  std::printf(
      "serve_load: %ld req @ %g qps  achieved %.0f qps  shed %.1f%%  "
      "p99 interactive %.2fms standard %.2fms besteffort %.2fms\n",
      requests, qps, achieved_qps, shed_rate * 100.0, lat[0].quantile(0.99) * 1e3,
      lat[1].quantile(0.99) * 1e3, lat[2].quantile(0.99) * 1e3);

  // ---- Phase 3: burst overload; class SLO ordering is the invariant ------
  std::vector<double> over_samples;
  ClassAccounting oacct[serve::num_tenant_classes];
  obs::Histogram olat[serve::num_tenant_classes];
  for (int r = 0; r < reps; ++r) {
    serve::ServeOptions so;
    so.shards = 2;
    // Tight budgets so the burst trips admission quickly; interactive still
    // blocks briefly (and therefore sheds last).
    so.classes[0].max_queue_wait_seconds = 2e-3;
    so.classes[0].max_block_seconds = 2e-3;
    so.classes[1].max_queue_wait_seconds = 1e-3;
    so.classes[2].max_queue_wait_seconds = 0.4e-3;
    serve::ServingTier tier(so);
    std::vector<serve::TenantHandle> handles;
    for (long t = 0; t < tenants; ++t)
      handles.push_back(tier.tenant("tenant-" + std::to_string(t), class_of_tenant(t)));

    // Warm the per-shard seconds/job estimate (admission needs completions).
    for (unsigned s = 0; s < tier.num_shards(); ++s) {
      engine::JobOptions warm;
      warm.prior = prior;
      (void)tier.shard_engine(s).submit(pool[0], warm).get();
    }

    std::vector<Outstanding> inflight;
    std::mutex mu;
    const auto t0 = Clock::now();
    for (long i = 0; i < overload_requests; ++i) {
      const serve::TenantHandle& h = handles[static_cast<std::size_t>(i % tenants)];
      serve::Request req;
      req.problem = pool[static_cast<std::size_t>(i) % pool.size()];
      req.prior = prior;
      const int c = serve::tenant_class_index(h.tenant_class());
      ++oacct[c].submitted;
      Outstanding o;
      o.submitted = Clock::now();
      o.cls = c;
      o.fut = tier.submit(h, std::move(req));
      std::lock_guard<std::mutex> lk(mu);
      inflight.push_back(std::move(o));
    }
    tier.wait_idle();
    while (sweep(inflight, mu, olat, oacct) != 0)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    over_samples.push_back(seconds_since(t0));
  }

  auto rate = [](const ClassAccounting& a) {
    return a.submitted == 0 ? 0.0
                            : static_cast<double>(a.shed) / static_cast<double>(a.submitted);
  };
  const double shed_int = rate(oacct[0]);
  const double shed_std = rate(oacct[1]);
  const double shed_be = rate(oacct[2]);
  std::printf("serve_overload: shed interactive %.1f%%  standard %.1f%%  besteffort %.1f%%\n",
              shed_int * 100.0, shed_std * 100.0, shed_be * 100.0);
  // The SLO ordering under overload: besteffort must shed at least as hard
  // as interactive (interactive blocks briefly and has the largest budget).
  if (shed_be + 1e-12 < shed_int) {
    std::fprintf(stderr, "serve_overload: class ordering violated (besteffort %.3f < interactive %.3f)\n",
                 shed_be, shed_int);
    ok = false;
  }
  for (const ClassAccounting& a : oacct) {
    if (a.completed + a.shed + a.failed != a.submitted) {
      std::fprintf(stderr, "serve_overload: accounting mismatch\n");
      ok = false;
    }
  }
  out.record("serve_overload", over_samples,
             {{"requests", static_cast<double>(overload_requests)},
              {"shed_rate_interactive", shed_int},
              {"shed_rate_standard", shed_std},
              {"shed_rate_besteffort", shed_be}});

  const bool wrote = out.write();
  return ok && wrote ? 0 : 1;
}
