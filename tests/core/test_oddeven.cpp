#include "core/oddeven.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "core/paige_saunders.hpp"
#include "core/selinv.hpp"
#include "kalman/dense_reference.hpp"
#include "kalman/simulate.hpp"
#include "la/blas.hpp"
#include "test_util.hpp"

namespace pitk::kalman {
namespace {

using la::index;
using la::Matrix;
using la::Rng;
using la::Trans;
using la::Vector;

/// Sweep every chain length 0..25 on 1 and 4 threads: the odd-even recursion
/// has distinct even/odd parity paths at every level, and short chains hit
/// all of its edge cases.
class OddEvenChainTest : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(OddEvenChainTest, MeansMatchDenseForEveryChainLength) {
  auto [k, threads] = GetParam();
  par::ThreadPool pool(threads);
  Rng rng(200 + k);
  test::RandomProblemSpec spec;
  spec.k = k;
  spec.n_min = spec.n_max = 2;
  spec.obs_probability = 0.8;
  Problem p = test::random_problem(rng, spec);
  SmootherResult got = oddeven_smooth(p, pool, {.compute_covariance = false, .grain = 2});
  SmootherResult ref = dense_smooth(p, false);
  test::expect_means_near(got.means, ref.means, 1e-8, "k=" + std::to_string(k));
}

INSTANTIATE_TEST_SUITE_P(AllShortChains, OddEvenChainTest,
                         ::testing::Combine(::testing::Range(0, 26),
                                            ::testing::Values(1u, 4u)));

struct OeCase {
  const char* name;
  test::RandomProblemSpec spec;
};

class OddEvenFeatureTest : public ::testing::TestWithParam<OeCase> {};

TEST_P(OddEvenFeatureTest, MeansMatchPaigeSaunders) {
  Rng rng(300);
  par::ThreadPool pool(4);
  for (int rep = 0; rep < 3; ++rep) {
    Problem p = test::random_problem(rng, GetParam().spec);
    SmootherResult oe = oddeven_smooth(p, pool, {.compute_covariance = false, .grain = 1});
    SmootherResult ps = paige_saunders_smooth(p, {.compute_covariance = false});
    test::expect_means_near(oe.means, ps.means, 1e-7,
                            std::string(GetParam().name) + " rep " + std::to_string(rep));
  }
}

TEST_P(OddEvenFeatureTest, CovariancesMatchPaigeSaunders) {
  // Algorithm 2 against the sequential SelInv for every feature case: the
  // level slabs hold rows of every shape these problems produce (empty and
  // tall local blocks, varying and rectangular neighbor blocks).
  Rng rng(305);
  par::ThreadPool pool(4);
  for (int rep = 0; rep < 3; ++rep) {
    Problem p = test::random_problem(rng, GetParam().spec);
    SmootherResult oe = oddeven_smooth(p, pool, {.compute_covariance = true, .grain = 1});
    SmootherResult ps = paige_saunders_smooth(p, {.compute_covariance = true});
    test::expect_covs_near(oe.covariances, ps.covariances, 1e-7,
                           std::string(GetParam().name) + " rep " + std::to_string(rep));
  }
}

OeCase oe_cases[] = {
    {"plain", {.k = 24, .n_min = 3, .n_max = 3}},
    {"missing_obs", {.k = 31, .n_min = 2, .n_max = 2, .obs_probability = 0.35}},
    {"varying_dims", {.k = 17, .n_min = 2, .n_max = 5, .varying_dims = true}},
    {"rect_h", {.k = 13, .n_min = 3, .n_max = 3, .rectangular_h = true}},
    {"dense_cov", {.k = 21, .n_min = 3, .n_max = 3, .dense_covariances = true}},
    {"diag_cov", {.k = 20, .n_min = 4, .n_max = 4, .diagonal_covariances = true}},
    {"no_control", {.k = 19, .n_min = 3, .n_max = 3, .with_control = false}},
    {"everything",
     {.k = 33,
      .n_min = 2,
      .n_max = 4,
      .varying_dims = true,
      .rectangular_h = true,
      .obs_probability = 0.45,
      .dense_covariances = true}},
};

INSTANTIATE_TEST_SUITE_P(Features, OddEvenFeatureTest, ::testing::ValuesIn(oe_cases),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(OddEven, RFactorGramMatchesNormalEquations) {
  // Assemble R from the level rows and verify R^T R == P^T (A^T A) P for the
  // odd-even permutation P — i.e. the factorization really is a QR of UAP.
  Rng rng(310);
  test::RandomProblemSpec spec;
  spec.k = 11;
  spec.n_min = spec.n_max = 2;
  Problem p = test::random_problem(rng, spec);
  par::ThreadPool pool(2);
  OddEvenFactor f = oddeven_factor(p, pool, 1);

  const index n = 2;
  const index total = p.total_state_dim();
  // Column offsets in *original* ordering.
  auto off = [&](index col) { return col * n; };
  Matrix rfull(total, total);  // rows in elimination order, columns original
  index row = 0;
  // Rows must be emitted deepest level first to make R upper triangular
  // under the permuted ordering; sanity only needs the Gram product, which
  // is row-order independent.
  for (const auto& lev : f.levels) {
    for (const auto& r : lev.rows) {
      rfull.block(row, off(r.col), n, n).assign(r.R);
      if (r.left >= 0) rfull.block(row, off(r.left), n, n).assign(r.Eblk);
      if (r.right >= 0) rfull.block(row, off(r.right), n, n).assign(r.Yblk);
      row += n;
    }
  }
  ASSERT_EQ(row, total);

  DenseSystem sys = build_dense_system(p);
  Matrix ata = la::multiply(sys.A.view(), Trans::Yes, sys.A.view(), Trans::No);
  Matrix rtr = la::multiply(rfull.view(), Trans::Yes, rfull.view(), Trans::No);
  test::expect_near(rtr.view(), ata.view(), 1e-9, "R^T R vs A^T A");
}

TEST(OddEven, RowsAreUpperTriangularInPermutedOrder) {
  // Every row's couplings must reference columns that are eliminated later
  // (odd columns of the same level), i.e. strictly deeper levels.
  Rng rng(311);
  test::RandomProblemSpec spec;
  spec.k = 19;
  spec.n_min = spec.n_max = 2;
  Problem p = test::random_problem(rng, spec);
  par::ThreadPool pool(2);
  OddEvenFactor f = oddeven_factor(p, pool, 1);

  std::vector<int> elim_level(static_cast<std::size_t>(f.num_states()), -1);
  for (std::size_t lev = 0; lev < f.levels.size(); ++lev)
    for (const auto& r : f.levels[lev].rows)
      elim_level[static_cast<std::size_t>(r.col)] = static_cast<int>(lev);
  for (index c = 0; c < f.num_states(); ++c) EXPECT_GE(elim_level[static_cast<std::size_t>(c)], 0);

  for (std::size_t lev = 0; lev < f.levels.size(); ++lev) {
    for (const auto& r : f.levels[lev].rows) {
      if (r.left >= 0)
        EXPECT_GT(elim_level[static_cast<std::size_t>(r.left)], static_cast<int>(lev));
      if (r.right >= 0)
        EXPECT_GT(elim_level[static_cast<std::size_t>(r.right)], static_cast<int>(lev));
      // Diagonal blocks are upper triangular.
      for (index jc = 0; jc < r.R.cols(); ++jc)
        for (index ir = jc + 1; ir < r.R.rows(); ++ir) EXPECT_EQ(r.R(ir, jc), 0.0);
    }
  }
}

TEST(OddEven, LevelCountIsLogarithmic) {
  Rng rng(313);
  test::RandomProblemSpec spec;
  spec.k = 63;  // 64 states -> exactly 7 levels (32,16,8,4,2,1 evens + base)
  spec.n_min = spec.n_max = 1;
  Problem p = test::random_problem(rng, spec);
  par::ThreadPool pool(2);
  OddEvenFactor f = oddeven_factor(p, pool, 4);
  EXPECT_EQ(f.levels.size(), 7u);
  EXPECT_EQ(f.levels.front().rows.size(), 32u);
  EXPECT_EQ(f.levels.back().rows.size(), 1u);
}

TEST(OddEven, GrainInsensitivity) {
  // Results must be bit-for-bit independent of the grain parameter (it only
  // affects scheduling, never arithmetic).
  Rng rng(317);
  test::RandomProblemSpec spec;
  spec.k = 40;
  spec.n_min = spec.n_max = 3;
  Problem p = test::random_problem(rng, spec);
  par::ThreadPool pool(4);
  SmootherResult a = oddeven_smooth(p, pool, {.compute_covariance = true, .grain = 1});
  SmootherResult b = oddeven_smooth(p, pool, {.compute_covariance = true, .grain = 1000});
  test::expect_means_near(a.means, b.means, 0.0, "grain determinism");
  test::expect_covs_near(a.covariances, b.covariances, 0.0, "grain determinism");
}

TEST(OddEven, DeterministicAcrossThreadCounts) {
  Rng rng(319);
  test::RandomProblemSpec spec;
  spec.k = 33;
  spec.n_min = spec.n_max = 2;
  Problem p = test::random_problem(rng, spec);
  par::ThreadPool p1(1);
  par::ThreadPool p4(4);
  SmootherResult a = oddeven_smooth(p, p1, {});
  SmootherResult b = oddeven_smooth(p, p4, {});
  test::expect_means_near(a.means, b.means, 0.0, "thread determinism");
  test::expect_covs_near(a.covariances, b.covariances, 0.0, "thread determinism");
}

TEST(OddEven, UnknownInitialStateMatchesPaigeSaunders) {
  Problem p;
  p.start(2);
  Matrix f({{1.0, 0.1}, {0.0, 1.0}});
  p.evolve(f, Vector(), CovFactor::scaled_identity(2, 1e-6));
  p.observe(Matrix::identity(2), Vector({1.0, 2.0}), CovFactor::identity(2));
  p.evolve(f, Vector(), CovFactor::scaled_identity(2, 1e-6));
  p.observe(Matrix::identity(2), Vector({1.2, 2.0}), CovFactor::identity(2));
  par::ThreadPool pool(2);
  SmootherResult oe = oddeven_smooth(p, pool, {.compute_covariance = false});
  SmootherResult ps = paige_saunders_smooth(p, {.compute_covariance = false});
  test::expect_means_near(oe.means, ps.means, 1e-9);
}

TEST(OddEven, LongChainStressAgainstPaigeSaunders) {
  Rng rng(331);
  test::RandomProblemSpec spec;
  spec.k = 999;
  spec.n_min = spec.n_max = 2;
  spec.obs_probability = 0.7;
  Problem p = test::random_problem(rng, spec);
  par::ThreadPool pool(4);
  SmootherResult oe = oddeven_smooth(p, pool, {.compute_covariance = false, .grain = 10});
  SmootherResult ps = paige_saunders_smooth(p, {.compute_covariance = false});
  test::expect_means_near(oe.means, ps.means, 1e-6, "k=999");
}

TEST(OddEven, RejectsInvalidProblem) {
  Problem p;
  p.start(2);
  par::ThreadPool pool(1);
  EXPECT_THROW((void)oddeven_smooth(p, pool, {}), std::invalid_argument);
}

TEST(OddEven, FactorFromBidiagonalMatchesSequentialSolve) {
  // A factorization seeded from an already-assembled bidiagonal R (the large
  // session re-smooth path) must reproduce the sequential Paige-Saunders
  // solution and SelInv covariances: the bidiagonal rows are one orthogonal
  // transform of the original problem, so both factorizations solve the same
  // least-squares problem.
  Rng rng(337);
  par::ThreadPool pool(4);
  for (const index k : {0, 1, 2, 7, 64, 150}) {
    test::RandomProblemSpec spec;
    spec.k = k;
    spec.n_min = spec.n_max = 3;
    spec.obs_probability = k == 0 ? 1.0 : 0.8;
    Problem p = test::random_problem(rng, spec);

    BidiagonalFactor b = paige_saunders_factor(p);
    std::vector<Vector> ps_means;
    paige_saunders_solve_into(b, ps_means);
    std::vector<Matrix> ps_covs = selinv_bidiagonal(b);

    OddEvenFactor f = oddeven_factor_from_bidiagonal(b, pool, 2);
    std::vector<Vector> oe_means = oddeven_solve(f, pool, 2);
    std::vector<Matrix> oe_covs = oddeven_covariances(f, pool, 2);

    test::expect_means_near(oe_means, ps_means, 1e-10, "k=" + std::to_string(k));
    test::expect_covs_near(oe_covs, ps_covs, 1e-10, "k=" + std::to_string(k));
  }

  // Varying state dimensions (1-5) and one wide state (n=48): the reduced
  // levels' blocks take every neighbor shape.
  struct Dims {
    index k, n_min, n_max;
  };
  for (const Dims d : {Dims{1, 1, 5}, Dims{7, 1, 5}, Dims{64, 1, 5}, Dims{150, 1, 5},
                       Dims{20, 48, 48}}) {
    test::RandomProblemSpec spec;
    spec.k = d.k;
    spec.n_min = d.n_min;
    spec.n_max = d.n_max;
    spec.varying_dims = d.n_min != d.n_max;
    spec.obs_probability = 0.8;
    Problem p = test::random_problem(rng, spec);

    BidiagonalFactor b = paige_saunders_factor(p);
    std::vector<Vector> ps_means;
    paige_saunders_solve_into(b, ps_means);
    std::vector<Matrix> ps_covs = selinv_bidiagonal(b);

    OddEvenFactor f = oddeven_factor_from_bidiagonal(b, pool, 2);
    const std::string what = "k=" + std::to_string(d.k) + " n=" + std::to_string(d.n_min) + ".." +
                             std::to_string(d.n_max);
    test::expect_means_near(oddeven_solve(f, pool, 2), ps_means, 1e-10, what);
    test::expect_covs_near(oddeven_covariances(f, pool, 2), ps_covs, 1e-10, what);
  }
}

TEST(OddEven, MovedFactorsSolveIdentically) {
  // A factor's rows view slabs the factor owns, so it is move-only: a move
  // carries the slabs along, and a warm factor moved over releases its own.
  static_assert(!std::is_copy_constructible_v<OddEvenFactor>);
  static_assert(!std::is_copy_assignable_v<OddEvenFactor>);
  Rng rng(343);
  test::RandomProblemSpec spec;
  spec.k = 37;
  spec.n_min = 2;
  spec.n_max = 4;
  spec.varying_dims = true;
  spec.obs_probability = 0.7;
  Problem p = test::random_problem(rng, spec);
  spec.k = 90;
  Problem other = test::random_problem(rng, spec);
  par::ThreadPool pool(4);

  const OddEvenFactor ref = oddeven_factor(p, pool, 3);
  const std::vector<Vector> means = oddeven_solve(ref, pool, 3);
  const std::vector<Matrix> covs = oddeven_covariances(ref, pool, 3);

  OddEvenFactor source = oddeven_factor(p, pool, 3);
  OddEvenFactor moved(std::move(source));
  test::expect_means_near(oddeven_solve(moved, pool, 3), means, 0.0, "move-constructed");
  test::expect_covs_near(oddeven_covariances(moved, pool, 3), covs, 0.0, "move-constructed");

  OddEvenFactor warm = oddeven_factor(other, pool, 3);
  warm = std::move(moved);
  test::expect_means_near(oddeven_solve(warm, pool, 3), means, 0.0, "move-assigned");
  test::expect_covs_near(oddeven_covariances(warm, pool, 3), covs, 0.0, "move-assigned");

  // A moved-from factor is refillable, and a warm refill of a differently
  // shaped factor is bit-for-bit a fresh one.
  oddeven_factor_into(p, pool, 3, source);
  test::expect_means_near(oddeven_solve(source, pool, 3), means, 0.0, "refilled moved-from");
  oddeven_factor_into(other, pool, 3, warm);
  oddeven_factor_into(p, pool, 3, warm);
  test::expect_means_near(oddeven_solve(warm, pool, 3), means, 0.0, "warm refill");
  test::expect_covs_near(oddeven_covariances(warm, pool, 3), covs, 0.0, "warm refill");
}

TEST(OddEven, FactorFromBidiagonalValidatesShapes) {
  par::ThreadPool pool(1);
  BidiagonalFactor b;  // no states at all
  EXPECT_THROW((void)oddeven_factor_from_bidiagonal(b, pool), std::invalid_argument);
  b.diag.push_back(Matrix::identity(2));
  b.diag.push_back(Matrix::identity(2));
  b.sup.push_back(Matrix::identity(3));  // wrong shape: must be 2x2
  b.sup.emplace_back();                  // entry k stays empty
  b.rhs.push_back(Vector(2));
  b.rhs.push_back(Vector(2));
  EXPECT_THROW((void)oddeven_factor_from_bidiagonal(b, pool), std::invalid_argument);
}

}  // namespace
}  // namespace pitk::kalman
