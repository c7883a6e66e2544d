#include "core/paige_saunders.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "kalman/dense_reference.hpp"
#include "la/blas.hpp"
#include "test_util.hpp"

namespace pitk::kalman {
namespace {

using la::index;
using la::Matrix;
using la::Rng;
using la::Trans;
using la::Vector;

struct PsCase {
  const char* name;
  test::RandomProblemSpec spec;
};

class PaigeSaundersTest : public ::testing::TestWithParam<PsCase> {};

TEST_P(PaigeSaundersTest, MeansMatchDenseReference) {
  Rng rng(71);
  for (int rep = 0; rep < 3; ++rep) {
    Problem p = test::random_problem(rng, GetParam().spec);
    SmootherResult got = paige_saunders_smooth(p, {.compute_covariance = false});
    SmootherResult ref = dense_smooth(p, false);
    test::expect_means_near(got.means, ref.means, 1e-8,
                            std::string(GetParam().name) + " rep " + std::to_string(rep));
  }
}

TEST_P(PaigeSaundersTest, CovariancesMatchDenseReference) {
  Rng rng(73);
  Problem p = test::random_problem(rng, GetParam().spec);
  SmootherResult got = paige_saunders_smooth(p, {.compute_covariance = true});
  SmootherResult ref = dense_smooth(p, true);
  test::expect_covs_near(got.covariances, ref.covariances, 1e-7, GetParam().name);
}

PsCase ps_cases[] = {
    {"plain", {.k = 12, .n_min = 3, .n_max = 3}},
    {"tiny_k1", {.k = 1, .n_min = 2, .n_max = 2}},
    {"k2", {.k = 2, .n_min = 3, .n_max = 3}},
    {"missing_obs", {.k = 15, .n_min = 2, .n_max = 2, .obs_probability = 0.4}},
    {"varying_dims", {.k = 10, .n_min = 2, .n_max = 4, .varying_dims = true}},
    {"rect_h", {.k = 8, .n_min = 3, .n_max = 3, .rectangular_h = true}},
    {"dense_cov", {.k = 9, .n_min = 3, .n_max = 3, .dense_covariances = true}},
    {"diag_cov", {.k = 9, .n_min = 3, .n_max = 3, .diagonal_covariances = true}},
    {"everything",
     {.k = 14,
      .n_min = 2,
      .n_max = 4,
      .varying_dims = true,
      .rectangular_h = true,
      .obs_probability = 0.5,
      .dense_covariances = true}},
};

INSTANTIATE_TEST_SUITE_P(Shapes, PaigeSaundersTest, ::testing::ValuesIn(ps_cases),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(PaigeSaunders, FactorIsBlockBidiagonalAndTriangular) {
  Rng rng(79);
  test::RandomProblemSpec spec;
  spec.k = 6;
  spec.n_min = spec.n_max = 3;
  Problem p = test::random_problem(rng, spec);
  BidiagonalFactor f = paige_saunders_factor(p);
  ASSERT_EQ(f.diag.size(), 7u);
  for (index i = 0; i <= 6; ++i) {
    const Matrix& r = f.diag[static_cast<std::size_t>(i)];
    ASSERT_EQ(r.rows(), 3);
    ASSERT_EQ(r.cols(), 3);
    for (index jc = 0; jc < 3; ++jc)
      for (index ir = jc + 1; ir < 3; ++ir) EXPECT_EQ(r(ir, jc), 0.0);
    if (i < 6) EXPECT_EQ(f.sup[static_cast<std::size_t>(i)].cols(), 3);
  }
  EXPECT_TRUE(f.sup[6].empty());
}

TEST(PaigeSaunders, RFactorGramMatchesNormalEquations) {
  // The block-bidiagonal R satisfies R^T R == A^T A (same Cholesky factor up
  // to signs), restricted to the block tri-diagonal structure.
  Rng rng(83);
  test::RandomProblemSpec spec;
  spec.k = 5;
  spec.n_min = spec.n_max = 2;
  Problem p = test::random_problem(rng, spec);
  BidiagonalFactor f = paige_saunders_factor(p);
  DenseSystem sys = build_dense_system(p);
  Matrix ata = la::multiply(sys.A.view(), Trans::Yes, sys.A.view(), Trans::No);

  // Assemble R^T R densely from the blocks.
  const index total = p.total_state_dim();
  Matrix rfull(total, total);
  index off = 0;
  for (index i = 0; i <= 5; ++i) {
    const index n = p.state_dim(i);
    rfull.block(off, off, n, n).assign(f.diag[static_cast<std::size_t>(i)].view());
    if (i < 5)
      rfull.block(off, off + n, n, p.state_dim(i + 1))
          .assign(f.sup[static_cast<std::size_t>(i)].view());
    off += n;
  }
  Matrix rtr = la::multiply(rfull.view(), Trans::Yes, rfull.view(), Trans::No);
  test::expect_near(rtr.view(), ata.view(), 1e-9, "R^T R vs A^T A");
}

TEST(PaigeSaunders, SingleStateProblem) {
  Problem p;
  p.start(2);
  p.observe(Matrix::identity(2), Vector({3.0, -1.0}), CovFactor::identity(2));
  SmootherResult res = paige_saunders_smooth(p);
  EXPECT_NEAR(res.means[0][0], 3.0, 1e-12);
  EXPECT_NEAR(res.means[0][1], -1.0, 1e-12);
  test::expect_near(res.covariances[0].view(), Matrix::identity(2).view(), 1e-12);
}

TEST(PaigeSaunders, NoPriorUnknownInitialState) {
  // Initial state entirely unobserved: only reachable through the evolution
  // and a later observation — conventional smoothers cannot pose this.
  Problem p;
  p.start(2);
  Matrix f({{1.0, 0.1}, {0.0, 1.0}});
  p.evolve(f, Vector(), CovFactor::scaled_identity(2, 1e-8));
  p.observe(Matrix::identity(2), Vector({1.0, 2.0}), CovFactor::identity(2));
  SmootherResult res = paige_saunders_smooth(p, {.compute_covariance = false});
  // u_1 == observation; u_0 == F^{-1} u_1 (noise-free evolution).
  EXPECT_NEAR(res.means[1][0], 1.0, 1e-6);
  EXPECT_NEAR(res.means[1][1], 2.0, 1e-6);
  EXPECT_NEAR(res.means[0][1], 2.0, 1e-6);
  EXPECT_NEAR(res.means[0][0], 1.0 - 0.1 * 2.0, 1e-6);
}

TEST(PaigeSaunders, RejectsInvalidProblem) {
  Problem p;
  p.start(3);
  EXPECT_THROW((void)paige_saunders_smooth(p), std::invalid_argument);
}

// ---- the ranged pass that streaming re-smooths run ----

/// 2-norm of a - b.
double diff_norm(const Vector& a, const Vector& b) {
  double s2 = 0.0;
  for (index q = 0; q < a.size(); ++q) s2 += (a[q] - b[q]) * (a[q] - b[q]);
  return std::sqrt(s2);
}

/// Parameter: the state dimension (3 runs the small-dim loops, 10 gemv/trsv).
class RangedSolveTest : public ::testing::TestWithParam<index> {
 protected:
  static constexpr index k0 = 40;  ///< live block of the seed == `from`
  Rng rng{0x5A1 + static_cast<std::uint64_t>(GetParam())};
  test::ExtendedFactor ef = test::extended_factor(rng, GetParam(), k0, 3);
  std::vector<Vector> seed = paige_saunders_solve(ef.before);
  std::vector<Vector> full = paige_saunders_solve(ef.after);
};

TEST_P(RangedSolveTest, FromZeroIsTheByValuePass) {
  // Warm storage holding stale values and a tolerance that would truncate:
  // from = 0 still recomputes every state.
  std::vector<Vector> u = seed;
  const TruncatedPass tp = paige_saunders_solve_into(ef.after, u, 0, ef.decay_amp, 1e-6);
  EXPECT_EQ(tp.updated_from, 0);
  EXPECT_FALSE(tp.truncated);
  test::expect_means_near(u, full, 0.0, "from 0 vs by-value");
}

TEST_P(RangedSolveTest, ToleranceZeroIsTheFullPassBitForBit) {
  std::vector<Vector> u = seed;
  const TruncatedPass tp = paige_saunders_solve_into(ef.after, u, k0, ef.decay_amp, 0.0);
  EXPECT_EQ(tp.updated_from, 0);
  EXPECT_FALSE(tp.truncated);
  test::expect_means_near(u, full, 0.0, "tol 0 vs full pass");
}

TEST_P(RangedSolveTest, PositiveToleranceTruncatesWithinTheBound) {
  const double tol = 1e-6;
  std::vector<Vector> u = seed;
  const TruncatedPass tp = paige_saunders_solve_into(ef.after, u, k0, ef.decay_amp, tol);
  EXPECT_TRUE(tp.truncated);
  EXPECT_GT(tp.updated_from, 0);
  EXPECT_LT(tp.updated_from, k0);
  ASSERT_EQ(u.size(), full.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_LE(diff_norm(u[i], full[i]), tol) << "state " << i;
    if (static_cast<index>(i) < tp.updated_from)
      test::expect_near(u[i].span(), seed[i].span(), 0.0, "skipped state keeps the seed");
  }
}

INSTANTIATE_TEST_SUITE_P(StateDims, RangedSolveTest, ::testing::Values(3, 10));

TEST(PaigeSaunders, RangedSolveRejectsBadArguments) {
  Rng rng(0x5A2);
  const index k0 = 12;
  const test::ExtendedFactor ef = test::extended_factor(rng, 3, k0, 2);
  const index k = k0 + 2;
  std::vector<Vector> u = paige_saunders_solve(ef.before);
  EXPECT_THROW(paige_saunders_solve_into(ef.after, u, -1), std::invalid_argument);
  EXPECT_THROW(paige_saunders_solve_into(ef.after, u, k + 1), std::invalid_argument);
  EXPECT_THROW(paige_saunders_solve_into(ef.after, u, k0, ef.decay_amp, -1.0),
               std::invalid_argument);
  std::vector<Vector> short_seed(u.begin(), u.end() - 1);
  EXPECT_THROW(paige_saunders_solve_into(ef.after, short_seed, k0, ef.decay_amp, 1e-6),
               std::invalid_argument);
  const std::span<const double> short_amp(ef.decay_amp.data(), k0 - 1);
  EXPECT_THROW(paige_saunders_solve_into(ef.after, u, k0, short_amp, 1e-6),
               std::invalid_argument);
}

}  // namespace
}  // namespace pitk::kalman
