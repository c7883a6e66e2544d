/// \file test_alloc_free.cpp
/// The allocation-counting hook of the acceptance criteria: once warm (spare
/// pools populated, per-thread Workspace consolidated, result capacity in
/// place), the per-step loops of the incremental filter, the Paige-Saunders
/// sweep and the associative scans perform ZERO heap allocations, as counted
/// by la::aligned_alloc_count() — every Matrix/Vector/Workspace buffer in the
/// library draws from the counted allocator.
///
/// The assertions use a serial pool: the parallel scan additionally copies
/// one chunk seed per `grain` elements (amortized, documented), which is a
/// scheduling cost, not a per-step one.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/associative.hpp"
#include "core/filter.hpp"
#include "core/oddeven.hpp"
#include "core/paige_saunders.hpp"
#include "core/selinv.hpp"
#include "engine/durable.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "io/session_store.hpp"
#include "la/workspace.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace pitk::kalman {
namespace {

using la::aligned_alloc_count;
using la::Rng;
using test::CommonProblem;

/// Consolidate the calling thread's arena so the measured region cannot be
/// charged for chunk growth triggered during warmup.
void settle_workspace() { la::tls_workspace().reset(); }

/// Warm Paige-Saunders factor + solve of an n-dimensional problem.  At
/// n = 48 the sweep's 144 x 96 panels take the blocked QR path, whose V, T
/// and product scratch are Workspace borrows.
void expect_warm_paige_saunders_alloc_free(std::uint64_t seed, la::index n, la::index k) {
  Rng rng(seed);
  CommonProblem cp = test::common_problem(rng, n, k, /*dense_cov=*/true);

  BidiagonalFactor f;
  std::vector<Vector> u;
  paige_saunders_factor_into(cp.for_qr, f);  // warmup: allocates capacity
  paige_saunders_solve_into(f, u);
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  paige_saunders_factor_into(cp.for_qr, f);
  paige_saunders_solve_into(f, u);
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "warm Paige-Saunders sweep must not touch the heap (n=" << n << ")";

  // The warm pass must still produce the same factor/solution.
  BidiagonalFactor fresh = paige_saunders_factor(cp.for_qr);
  for (std::size_t i = 0; i < fresh.diag.size(); ++i)
    test::expect_near(f.diag[i].view(), fresh.diag[i].view(), 0.0, "warm refactor diag");
}

TEST(AllocFree, PaigeSaundersFactorAndSolveIntoWarmStorage) {
  expect_warm_paige_saunders_alloc_free(0xA110C, 5, 60);
  expect_warm_paige_saunders_alloc_free(0xA110C + 20, 48, 24);
}

/// Per-step streaming inputs for one track, built outside the measured
/// region; evolve/observe consume them by move.
struct TrackInputs {
  std::vector<Matrix> F;
  std::vector<Vector> c;
  std::vector<CovFactor> K;
  std::vector<Matrix> G;
  std::vector<Vector> o;
  std::vector<CovFactor> L;
};

TrackInputs make_track(Rng& rng, la::index n, la::index k) {
  TrackInputs t;
  for (la::index i = 0; i < k; ++i) {
    t.F.push_back(la::random_orthonormal(rng, n));
    t.c.push_back(la::random_gaussian_vector(rng, n));
    t.K.push_back(CovFactor::scaled_identity(n, 0.5));
    t.G.push_back(la::random_orthonormal(rng, n));
    t.o.push_back(la::random_gaussian_vector(rng, n));
    t.L.push_back(CovFactor::scaled_identity(n, 0.25));
  }
  return t;
}

void run_track(IncrementalFilter& filt, TrackInputs& t) {
  const la::index k = static_cast<la::index>(t.F.size());
  for (la::index i = 0; i < k; ++i) {
    filt.observe(std::move(t.G[static_cast<std::size_t>(i)]),
                 std::move(t.o[static_cast<std::size_t>(i)]),
                 std::move(t.L[static_cast<std::size_t>(i)]));
    filt.evolve(std::move(t.F[static_cast<std::size_t>(i)]),
                std::move(t.c[static_cast<std::size_t>(i)]),
                std::move(t.K[static_cast<std::size_t>(i)]));
  }
}

TEST(AllocFree, IncrementalFilterStepsAfterReset) {
  Rng rng(0xA110C + 1);
  const la::index n = 4;
  const la::index k = 50;
  IncrementalFilter filt(n);
  TrackInputs warm = make_track(rng, n, k);
  run_track(filt, warm);  // warmup track populates the spare pools

  filt.reset(n);
  TrackInputs second = make_track(rng, n, k);  // inputs built before counting
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  run_track(filt, second);
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "warm evolve/observe steps must not touch the heap";

  // The recycled track still smooths correctly (sanity, not timing).
  SmootherResult res = filt.smooth(/*with_covariances=*/false);
  EXPECT_EQ(static_cast<la::index>(res.means.size()), filt.current_step() + 1);
  for (const Vector& m : res.means) EXPECT_TRUE(la::norm_max(m.span()) < 1e6);
}

TEST(AllocFree, AssociativeScansWithWarmScratch) {
  Rng rng(0xA110C + 2);
  CommonProblem cp = test::common_problem(rng, 4, 80, /*dense_cov=*/true);
  par::ThreadPool pool(1);  // serial: no chunk-seed copies

  AssociativeScratch scratch;
  AssociativeOptions opts;
  opts.scratch = &scratch;
  associative_scan(cp.for_conventional, cp.prior, pool, opts, scratch, /*with_smooth=*/true);
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  associative_scan(cp.for_conventional, cp.prior, pool, opts, scratch, /*with_smooth=*/true);
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "warm associative scans must not touch the heap";

  // Scratch-reusing solve agrees with the scratch-free one.
  SmootherResult with_scratch = associative_smooth(cp.for_conventional, cp.prior, pool, opts);
  SmootherResult plain = associative_smooth(cp.for_conventional, cp.prior, pool, {});
  test::expect_means_near(with_scratch.means, plain.means, 1e-12, "scratch vs plain means");
}

TEST(AllocFree, AssociativeSmoothIntoWarmStorage) {
  // The ROADMAP PR-3 follow-up: result extraction used to copy into freshly
  // allocated vectors; associative_smooth_into writes straight into warm
  // caller storage, so the conventional-backend warm path — scans AND
  // extraction — is fully allocation-free.
  Rng rng(0xA110C + 8);
  CommonProblem cp = test::common_problem(rng, 4, 60, /*dense_cov=*/true);
  par::ThreadPool pool(1);  // serial: no chunk-seed copies

  AssociativeScratch scratch;
  AssociativeOptions opts;
  opts.scratch = &scratch;
  SmootherResult out;
  associative_smooth_into(cp.for_conventional, cp.prior, pool, opts, out);  // warmup
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  associative_smooth_into(cp.for_conventional, cp.prior, pool, opts, out);
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "warm associative smooth-into must not touch the heap";

  SmootherResult plain = associative_smooth(cp.for_conventional, cp.prior, pool, {});
  test::expect_means_near(out.means, plain.means, 1e-12, "into vs plain means");
  test::expect_covs_near(out.covariances, plain.covariances, 1e-12, "into vs plain covs");
}

TEST(AllocFree, EngineAssociativeJobOnWarmWorker) {
  // End-to-end: the associative backend through a warm serial engine worker
  // with into-storage performs zero counted allocations per job, like the
  // QR-family path already pinned below.
  Rng rng(0xA110C + 9);
  CommonProblem cp = test::common_problem(rng, 4, 40, /*dense_cov=*/true);

  engine::SmootherEngine eng({.threads = 1});
  engine::JobOptions jo;
  jo.backend = engine::Backend::Associative;
  jo.prior = cp.prior;
  kalman::SmootherResult storage;
  jo.into = &storage;

  kalman::Problem second = cp.for_conventional;  // built before counting
  engine::JobOptions jo2 = jo;                   // the prior copy, ditto
  eng.submit(cp.for_conventional, jo).get();     // warmup round
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  engine::JobResult jr = eng.submit(std::move(second), std::move(jo2)).get();
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "a warm associative engine job must not touch the heap";
  EXPECT_EQ(jr.metrics.allocations, 0u);
  EXPECT_EQ(jr.metrics.backend, engine::Backend::Associative);

  engine::JobOptions plain = jo;
  plain.into = nullptr;
  engine::JobResult value = eng.submit(cp.for_conventional, plain).get();
  test::expect_means_near(storage.means, value.result.means, 0.0, "into vs value means");
}

TEST(AllocFree, SelinvCovariancesIntoWarmStorage) {
  Rng rng(0xA110C + 4);
  CommonProblem cp = test::common_problem(rng, 5, 50, /*dense_cov=*/true);

  BidiagonalFactor f;
  paige_saunders_factor_into(cp.for_qr, f);
  std::vector<Matrix> cov;
  selinv_bidiagonal_into(f, cov);  // warmup: allocates block capacity
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  selinv_bidiagonal_into(f, cov);
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "warm SelInv covariance pass must not touch the heap";

  test::expect_covs_near(cov, selinv_bidiagonal(f), 0.0, "warm selinv vs fresh");
}

TEST(AllocFree, OddEvenSolveAndCovariancesWithWarmScratch) {
  Rng rng(0xA110C + 5);
  CommonProblem cp = test::common_problem(rng, 4, 70, /*dense_cov=*/true);
  par::ThreadPool pool(1);  // serial: no chunk-seed copies

  OddEvenFactor f = oddeven_factor(cp.for_qr, pool);
  OddEvenCovScratch scratch;
  std::vector<Vector> sol;
  std::vector<Matrix> cov;
  oddeven_solve_into(f, pool, par::default_grain, sol);  // warmup
  oddeven_covariances_into(f, pool, par::default_grain, scratch, cov);
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  oddeven_solve_into(f, pool, par::default_grain, sol);
  oddeven_covariances_into(f, pool, par::default_grain, scratch, cov);
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "warm odd-even solve + covariance replay must not touch the heap";

  test::expect_means_near(sol, oddeven_solve(f, pool), 0.0, "warm oddeven solve vs fresh");
  test::expect_covs_near(cov, oddeven_covariances(f, pool), 0.0, "warm oddeven cov vs fresh");
}

/// Both factorization entry points refill a warm factor in place: its level
/// slabs, row descriptors and reduction storage reuse their capacity.  One
/// factor serves both, as the engine's per-worker cache does (OddEven
/// backend jobs and large session re-smooths).  At n = 48 every Phase A, B
/// and C panel takes the blocked QR path.
void expect_warm_oddeven_refill_alloc_free(std::uint64_t seed, la::index n, la::index k) {
  Rng rng(seed);
  CommonProblem cp = test::common_problem(rng, n, k, /*dense_cov=*/true);
  const BidiagonalFactor b = paige_saunders_factor(cp.for_qr);
  par::ThreadPool pool(1);  // serial: every allocation lands on this thread

  OddEvenFactor f;
  oddeven_factor_into(cp.for_qr, pool, par::default_grain, f);  // warmup
  oddeven_factor_from_bidiagonal_into(b, pool, par::default_grain, f);
  settle_workspace();

  std::uint64_t before = aligned_alloc_count();
  oddeven_factor_into(cp.for_qr, pool, par::default_grain, f);
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "a warm refill from a problem must not touch the heap (n=" << n << ")";
  test::expect_means_near(oddeven_solve(f, pool),
                          oddeven_solve(oddeven_factor(cp.for_qr, pool), pool), 0.0,
                          "warm refill vs fresh factor");

  before = aligned_alloc_count();
  oddeven_factor_from_bidiagonal_into(b, pool, par::default_grain, f);
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "a warm refill from a bidiagonal factor must not touch the heap (n=" << n << ")";
  test::expect_means_near(oddeven_solve(f, pool),
                          oddeven_solve(oddeven_factor_from_bidiagonal(b, pool), pool), 0.0,
                          "warm bidiagonal refill vs fresh factor");
}

TEST(AllocFree, OddEvenFactorRefillsWarmFactor) {
  expect_warm_oddeven_refill_alloc_free(0xA110C + 14, 4, 70);
  expect_warm_oddeven_refill_alloc_free(0xA110C + 21, 48, 40);
}

TEST(AllocFree, ColdCovarianceScratchAllocatesPerRoleNotPerState) {
  // The replay's cross blocks live in one slab placed before the pass, and
  // the diagonal blocks are the caller's output: over warm output storage, a
  // cold scratch's only counted allocation is that slab, at any k (its slot
  // array is a std::vector on the default allocator, which is not counted).
  Rng rng(0xA110C + 22);
  CommonProblem cp = test::common_problem(rng, 3, 2048);
  par::ThreadPool pool(1);
  const OddEvenFactor f = oddeven_factor(cp.for_qr, pool);
  std::vector<Matrix> cov = oddeven_covariances(f, pool);  // warm output blocks
  settle_workspace();

  OddEvenCovScratch scratch;
  const std::uint64_t before = aligned_alloc_count();
  oddeven_covariances_into(f, pool, par::default_grain, scratch, cov);
  EXPECT_EQ(aligned_alloc_count() - before, 1u)
      << "a cold covariance scratch must not allocate per state";
  test::expect_covs_near(cov, oddeven_covariances(f, pool), 0.0, "cold scratch vs fresh");
}

TEST(AllocFree, ColdOddEvenFactorAllocatesPerRoleNotPerState) {
  // A cold factor draws each storage role once (row blocks, row descriptors,
  // columns, even positions, leftover and column slabs by level parity), so
  // its allocation count is bounded by the level count, not by k.
  Rng rng(0xA110C + 15);
  CommonProblem small = test::common_problem(rng, 3, 16);
  CommonProblem cp = test::common_problem(rng, 3, 4096);
  par::ThreadPool pool(1);
  (void)oddeven_factor(small.for_qr, pool);  // size this thread's arena for n=3
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  const OddEvenFactor f = oddeven_factor(cp.for_qr, pool);
  const std::uint64_t allocs = aligned_alloc_count() - before;
  EXPECT_LE(allocs, f.levels.size())
      << "a cold k=4096 factor must not allocate per state or per block";
}

TEST(AllocFree, EngineBatchedJobsOnWarmWorker) {
  // The end-to-end criterion: N small same-shaped jobs through a warm engine
  // worker, solved into warm caller storage, perform ZERO matrix-buffer heap
  // allocations — factor and covariance state live in the worker's
  // SolverCache, transients in its Workspace arena, results in the reused
  // `into` storage.  A serial engine executes jobs inline on this thread, so
  // the global counter is exact.
  Rng rng(0xA110C + 6);
  const int jobs = 4;
  CommonProblem cp = test::common_problem(rng, 4, 40, /*dense_cov=*/true);

  engine::SmootherEngine eng({.threads = 1});
  std::vector<kalman::SmootherResult> storage(static_cast<std::size_t>(jobs));
  std::vector<kalman::Problem> first;
  std::vector<kalman::Problem> second;
  for (int j = 0; j < jobs; ++j) {
    first.push_back(cp.for_qr);
    second.push_back(cp.for_qr);
  }

  engine::JobOptions jo;
  for (int j = 0; j < jobs; ++j) {
    jo.into = &storage[static_cast<std::size_t>(j)];
    eng.submit(std::move(first[static_cast<std::size_t>(j)]), jo).get();  // warmup round
  }
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  std::vector<std::future<engine::JobResult>> futures;
  for (int j = 0; j < jobs; ++j) {
    jo.into = &storage[static_cast<std::size_t>(j)];
    futures.push_back(eng.submit(std::move(second[static_cast<std::size_t>(j)]), jo));
  }
  eng.wait_idle();
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "a warm engine worker must serve whole batched jobs without heap traffic";
  for (auto& fu : futures) {
    engine::JobResult jr = fu.get();
    EXPECT_EQ(jr.metrics.allocations, 0u) << "per-job metric must agree";
    EXPECT_EQ(jr.metrics.backend, engine::Backend::PaigeSaunders);
    EXPECT_TRUE(jr.result.means.empty()) << "into-jobs leave JobResult::result empty";
  }

  // The into-storage results match a plain value-returning solve.
  engine::JobResult plain = eng.submit(cp.for_qr, {}).get();
  for (int j = 0; j < jobs; ++j) {
    test::expect_means_near(storage[static_cast<std::size_t>(j)].means, plain.result.means,
                            0.0, "into vs value means");
    test::expect_covs_near(storage[static_cast<std::size_t>(j)].covariances,
                           plain.result.covariances, 0.0, "into vs value covs");
  }
}

TEST(AllocFree, EngineOddEvenJobOnWarmWorker) {
  // The OddEven backend serves from the worker's cached factor: a warm job
  // refills the factor, its S-block slots and the caller storage in place.
  Rng rng(0xA110C + 16);
  CommonProblem cp = test::common_problem(rng, 4, 300, /*dense_cov=*/true);

  engine::SmootherEngine eng({.threads = 1});
  kalman::Problem first = cp.for_qr;
  kalman::Problem second = cp.for_qr;
  kalman::SmootherResult storage;
  engine::JobOptions jo;
  jo.backend = engine::Backend::OddEven;
  jo.into = &storage;
  (void)eng.submit(std::move(first), jo).get();  // warmup
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  engine::JobResult jr = eng.submit(std::move(second), jo).get();
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "a warm engine worker must serve an odd-even job without heap traffic";
  EXPECT_EQ(jr.metrics.allocations, 0u) << "per-job metric must agree";
  EXPECT_EQ(jr.metrics.backend, engine::Backend::OddEven);

  par::ThreadPool pool(1);
  const SmootherResult ref = oddeven_smooth(cp.for_qr, pool);
  test::expect_means_near(storage.means, ref.means, 0.0, "warm job vs fresh smooth");
  test::expect_covs_near(storage.covariances, ref.covariances, 0.0, "warm job vs fresh smooth");
}

TEST(AllocFree, SessionIncrementalResmoothOnWarmCache) {
  // The streaming serving pattern: a warm session re-smoothing after a new
  // measurement touches zero heap — the spliced factor, the QR scratch, the
  // cached result and the caller storage all reuse capacity; transients are
  // arena borrows.  (Appending *steps* grows the factor's block vectors, an
  // amortized cost excluded here by mutating only the live state.)
  Rng rng(0xA110C + 7);
  CommonProblem cp = test::common_problem(rng, 4, 48);

  engine::SmootherEngine eng({.threads = 1});
  engine::Session s = eng.open_session(4);
  for (la::index i = 0; i <= cp.for_qr.last_index(); ++i) {
    if (i > 0) {
      const Evolution& e = *cp.for_qr.step(i).evolution;
      s.evolve(e.F, e.c, e.noise);
    }
    if (cp.for_qr.step(i).observation) {
      const Observation& ob = *cp.for_qr.step(i).observation;
      s.observe(ob.G, ob.o, ob.noise);
    }
  }

  SmootherResult out;
  s.smooth_into(out, true);  // cold: builds factor, result and out storage
  s.observe(Matrix::identity(4), Vector({0.1, -0.2, 0.3, -0.4}), CovFactor::identity(4));
  s.smooth_into(out, true);  // second pass settles every capacity high-water
  settle_workspace();

  // A mutated session (cache miss: recompress + solve + SelInv + copy-out).
  Matrix g = Matrix::identity(4);
  Vector o({0.5, 0.25, -0.5, -0.25});
  CovFactor l = CovFactor::identity(4);
  s.observe(std::move(g), std::move(o), std::move(l));
  const std::uint64_t before_miss = aligned_alloc_count();
  s.smooth_into(out, true);
  EXPECT_EQ(aligned_alloc_count() - before_miss, 0u)
      << "a warm incremental re-smooth must not touch the heap";

  // An unmutated session (cache hit: served from the stored result).
  const std::uint64_t before_hit = aligned_alloc_count();
  s.smooth_into(out, true);
  EXPECT_EQ(aligned_alloc_count() - before_hit, 0u)
      << "a cached-result smooth must not touch the heap";

  // Alternating means-only and covariance re-smooths: the NC pass keeps the
  // cached covariance storage (gated by a flag, not by clearing), so the
  // covariance upgrade that follows reuses it instead of reallocating.
  SmootherResult nc;
  s.observe(Matrix::identity(4), Vector({0.2, 0.1, -0.2, -0.1}), CovFactor::identity(4));
  s.smooth_into(nc, false);
  settle_workspace();
  Matrix g2 = Matrix::identity(4);
  Vector o2({-0.3, 0.15, 0.3, -0.15});
  CovFactor l2 = CovFactor::identity(4);
  s.observe(std::move(g2), std::move(o2), std::move(l2));
  const std::uint64_t before_alt = aligned_alloc_count();
  s.smooth_into(nc, false);  // miss: means only, stale covariances retained
  s.smooth_into(out, true);  // covariance upgrade into the retained storage
  EXPECT_EQ(aligned_alloc_count() - before_alt, 0u)
      << "alternating NC/covariance re-smooths must stay allocation-free";
}

TEST(AllocFree, SessionTruncatedResmoothOnWarmCache) {
  // The PR-10 steady-state criterion: a warm re-smooth that the decay bound
  // truncates — delta back substitution, delta SelInv and the delta copy-out
  // — performs zero counted allocations.  Damped dynamics (F = 0.5 I, full
  // identity observations) make the bound provably fire.
  Rng rng(0xA110C + 13);
  const la::index n = 3;
  engine::SmootherEngine eng({.threads = 1});
  engine::Session s = eng.open_session(n);

  auto append = [&](bool first) {
    if (!first) {
      Matrix f = Matrix::identity(n);
      for (la::index q = 0; q < n; ++q) f(q, q) = 0.5;
      s.evolve(std::move(f), Vector(n), CovFactor::identity(n));
    }
    s.observe(Matrix::identity(n), la::random_gaussian_vector(rng, n),
              CovFactor::identity(n));
  };
  for (int i = 0; i < 120; ++i) append(i == 0);

  SmootherResult out;
  s.smooth_into(out, true);  // cold pass builds all capacity
  append(false);
  s.smooth_into(out, true);  // settles the per-append high-water
  const std::uint64_t warm_truncated = s.stats().truncated_resmooths;
  EXPECT_GT(warm_truncated, 0u) << "the damped track must truncate once warm";

  // An observe-only mutation built outside the measured region (evolving
  // would grow the factor's block vectors — the amortized append cost the
  // existing warm-resmooth test also excludes).
  Matrix g2 = Matrix::identity(n);
  Vector o2 = la::random_gaussian_vector(rng, n);
  CovFactor l2 = CovFactor::identity(n);
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  s.observe(std::move(g2), std::move(o2), std::move(l2));
  s.smooth_into(out, true);
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "a warm truncated re-smooth must not touch the heap";
  EXPECT_GT(s.stats().truncated_resmooths, warm_truncated)
      << "the measured pass must have taken the truncated path";
}

TEST(AllocFree, RecoveredSessionResmoothOnWarmCache) {
  // The PR-8 durability criterion: a session rebuilt by recover_all() serves
  // exactly like a live one — once its caches are warm, a re-smooth after a
  // new durable append performs zero counted allocations (the journal's own
  // staging buffers are plain byte vectors outside the counted allocator,
  // and they capacity-reuse too).
  Rng rng(0xA110C + 12);
  CommonProblem cp = test::common_problem(rng, 4, 48);

  io::DurabilityOptions dopts;
  dopts.dir = testing::TempDir() + "/pitk_alloc_free_store";
  dopts.compact_every = 0;  // replay the whole journal: the worst-case restore
  std::filesystem::remove_all(dopts.dir);
  io::SessionStore store(dopts);

  engine::SmootherEngine eng({.threads = 1});
  {
    engine::Session live = eng.open_durable_session(store, "warm", 4);
    for (la::index i = 0; i <= cp.for_qr.last_index(); ++i) {
      if (i > 0) {
        const Evolution& e = *cp.for_qr.step(i).evolution;
        live.evolve(e.F, e.c, e.noise);
      }
      if (cp.for_qr.step(i).observation) {
        const Observation& ob = *cp.for_qr.step(i).observation;
        live.observe(ob.G, ob.o, ob.noise);
      }
    }
  }  // "crash": the handle dies, the journal stays on disk

  engine::RecoveredSessions rec = eng.recover_all(store);
  ASSERT_EQ(rec.linear.size(), 1u) << (rec.failed.empty() ? "" : rec.failed[0].second);
  engine::Session& s = rec.linear[0].second;

  SmootherResult out;
  s.smooth_into(out, true);  // cold post-recovery rebuild
  s.observe(Matrix::identity(4), Vector({0.1, -0.2, 0.3, -0.4}), CovFactor::identity(4));
  s.smooth_into(out, true);  // settles every capacity high-water (incl. journal)
  settle_workspace();

  // Warm miss: a durable append (journaled!) followed by the incremental
  // re-smooth, all at zero counted allocations.
  Matrix g = Matrix::identity(4);
  Vector o({0.5, 0.25, -0.5, -0.25});
  CovFactor l = CovFactor::identity(4);
  const std::uint64_t before_miss = aligned_alloc_count();
  s.observe(std::move(g), std::move(o), std::move(l));
  s.smooth_into(out, true);
  EXPECT_EQ(aligned_alloc_count() - before_miss, 0u)
      << "a warm re-smooth of a recovered session must not touch the heap";

  // Warm hit: served from the rebuilt cached result.
  const std::uint64_t before_hit = aligned_alloc_count();
  s.smooth_into(out, true);
  EXPECT_EQ(aligned_alloc_count() - before_hit, 0u)
      << "a cached-result smooth of a recovered session must not touch the heap";
}

TEST(AllocFree, EngineJobStaysAllocFreeWithTracingEnabled) {
  // The PR-6 observability criterion: metrics recording is always-on relaxed
  // atomics and spans go to a preallocated per-thread ring, so a warm engine
  // job stays at ZERO counted allocations even with tracing switched on.
  // Tracing is enabled before the warmup job so this thread's ring (a plain
  // uncounted `new`, once per thread) exists before counting starts.
  Rng rng(0xA110C + 10);
  CommonProblem cp = test::common_problem(rng, 4, 40, /*dense_cov=*/true);

  obs::trace::set_enabled(true);
  engine::SmootherEngine eng({.threads = 1});
  engine::JobOptions jo;
  kalman::SmootherResult storage;
  jo.into = &storage;

  kalman::Problem second = cp.for_qr;  // built before counting
  engine::JobOptions jo2 = jo;
  eng.submit(cp.for_qr, jo).get();  // warmup: worker cache + trace ring warm
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  engine::JobResult jr = eng.submit(std::move(second), std::move(jo2)).get();
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "a warm engine job with tracing on must not touch the counted heap";
  EXPECT_EQ(jr.metrics.allocations, 0u);

  obs::trace::set_enabled(false);
  EXPECT_GT(obs::trace::event_count(), 0u) << "the traced jobs recorded spans";
  obs::trace::clear();
}

TEST(AllocFree, EngineJobWithDeadlineAndCancelTokenStaysAllocFree) {
  // The PR-7 robustness criterion: with fault sites disarmed, the deadline/
  // cancellation machinery costs the warm path nothing — resolving the
  // timeout, installing the thread-local JobControl and running the stage
  // checkpoints touch zero counted allocations.
  Rng rng(0xA110C + 11);
  CommonProblem cp = test::common_problem(rng, 4, 40, /*dense_cov=*/true);

  engine::SmootherEngine eng({.threads = 1});
  engine::JobOptions jo;
  kalman::SmootherResult storage;
  jo.into = &storage;
  jo.timeout = std::chrono::duration<double>(60.0);  // armed but never fires
  jo.cancel = std::make_shared<engine::CancelToken>();  // allocated up front

  kalman::Problem second = cp.for_qr;  // built before counting
  engine::JobOptions jo2 = jo;
  eng.submit(cp.for_qr, jo).get();  // warmup round
  settle_workspace();

  const std::uint64_t before = aligned_alloc_count();
  engine::JobResult jr = eng.submit(std::move(second), std::move(jo2)).get();
  EXPECT_EQ(aligned_alloc_count() - before, 0u)
      << "a warm engine job with a live deadline must not touch the counted heap";
  EXPECT_EQ(jr.metrics.allocations, 0u);
  EXPECT_EQ(jr.metrics.backend, engine::Backend::PaigeSaunders);
}

TEST(AllocFree, WorkspaceHighWaterIsBoundedAcrossRepeats) {
  // Regression guard: repeated warm solves must not keep growing the arena
  // (a leaked Scope or runaway borrow would).
  Rng rng(0xA110C + 3);
  CommonProblem cp = test::common_problem(rng, 4, 40);
  BidiagonalFactor f;
  paige_saunders_factor_into(cp.for_qr, f);
  const std::size_t high = la::tls_workspace().high_water();
  for (int rep = 0; rep < 5; ++rep) paige_saunders_factor_into(cp.for_qr, f);
  EXPECT_EQ(la::tls_workspace().high_water(), high);
}

}  // namespace
}  // namespace pitk::kalman
