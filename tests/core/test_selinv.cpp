#include "core/selinv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "la/cholesky.hpp"

#include "kalman/dense_reference.hpp"
#include "la/blas.hpp"
#include "la/triangular.hpp"
#include "test_util.hpp"

namespace pitk::kalman {
namespace {

using la::index;
using la::Matrix;
using la::Rng;
using la::Trans;

TEST(TriInvGram, MatchesExplicitInverse) {
  Rng rng(89);
  for (index n : {1, 2, 5}) {
    Matrix r(n, n);
    for (index j = 0; j < n; ++j) {
      for (index i = 0; i < j; ++i) r(i, j) = rng.gaussian() * 0.3;
      r(j, j) = 1.5 + rng.uniform();
    }
    Matrix s = tri_inv_gram(r.view());
    // s must satisfy (R^T R) s == I.
    Matrix rtr = la::multiply(r.view(), Trans::Yes, r.view(), Trans::No);
    Matrix prod = la::multiply(rtr.view(), s.view());
    test::expect_near(prod.view(), Matrix::identity(n).view(), 1e-11);
  }
}

class SelInvBidiagonalTest : public ::testing::TestWithParam<int> {};

TEST_P(SelInvBidiagonalTest, DiagonalBlocksMatchDenseInverse) {
  Rng rng(97 + GetParam());
  test::RandomProblemSpec spec;
  spec.k = GetParam();
  spec.n_min = 2;
  spec.n_max = 3;
  spec.varying_dims = true;
  spec.obs_probability = 0.7;
  Problem p = test::random_problem(rng, spec);

  BidiagonalFactor f = paige_saunders_factor(p);
  std::vector<Matrix> covs = selinv_bidiagonal(f);

  SmootherResult ref = dense_smooth(p, true);
  test::expect_covs_near(covs, ref.covariances, 1e-7, "selinv k=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(ChainLengths, SelInvBidiagonalTest, ::testing::Values(0, 1, 2, 3, 7, 16));

TEST(SelInvBidiagonal, ScalarChainAgainstHandComputation) {
  // Scalar states, R = [[2, 1], [0, 3]]: S = (R^T R)^{-1} computed by hand.
  BidiagonalFactor f;
  f.diag.resize(2);
  f.sup.resize(2);
  f.rhs.resize(2);
  f.diag[0] = Matrix({{2.0}});
  f.diag[1] = Matrix({{3.0}});
  f.sup[0] = Matrix({{1.0}});
  std::vector<Matrix> s = selinv_bidiagonal(f);
  // R^{-1} = [[1/2, -1/6], [0, 1/3]]; S = R^{-1} R^{-T}.
  EXPECT_NEAR(s[1](0, 0), 1.0 / 9.0, 1e-14);
  EXPECT_NEAR(s[0](0, 0), 0.25 + 1.0 / 36.0, 1e-14);
}

TEST(SelInvBidiagonal, CovariancesAreSymmetricPsd) {
  Rng rng(101);
  test::RandomProblemSpec spec;
  spec.k = 10;
  spec.n_min = spec.n_max = 3;
  spec.dense_covariances = true;
  Problem p = test::random_problem(rng, spec);
  BidiagonalFactor f = paige_saunders_factor(p);
  std::vector<Matrix> covs = selinv_bidiagonal(f);
  for (const Matrix& c : covs) {
    for (index j = 0; j < c.cols(); ++j)
      for (index i = 0; i < c.rows(); ++i) EXPECT_EQ(c(i, j), c(j, i));
    Matrix l = c;
    EXPECT_TRUE(la::cholesky_lower(l.view())) << "covariance must be PSD";
  }
}

// ---- the ranged pass that streaming re-smooths run ----

/// Frobenius norm of a - b.
double diff_norm(const Matrix& a, const Matrix& b) {
  double s2 = 0.0;
  for (index j = 0; j < a.cols(); ++j)
    for (index i = 0; i < a.rows(); ++i) s2 += (a(i, j) - b(i, j)) * (a(i, j) - b(i, j));
  return std::sqrt(s2);
}

/// Parameter: the state dimension (3 runs the small-dim tiles, 10 the
/// blocked kernels).
class RangedSelInvTest : public ::testing::TestWithParam<index> {
 protected:
  static constexpr index k0 = 40;  ///< live block of the seed == `from`
  Rng rng{0x5B1 + static_cast<std::uint64_t>(GetParam())};
  test::ExtendedFactor ef = test::extended_factor(rng, GetParam(), k0, 3);
  std::vector<Matrix> seed = selinv_bidiagonal(ef.before);
  std::vector<Matrix> full = selinv_bidiagonal(ef.after);
};

TEST_P(RangedSelInvTest, FromZeroIsTheByValuePass) {
  std::vector<Matrix> s = seed;
  const TruncatedPass tp = selinv_bidiagonal_into(ef.after, s, 0, ef.decay_amp, 1e-6);
  EXPECT_EQ(tp.updated_from, 0);
  EXPECT_FALSE(tp.truncated);
  test::expect_covs_near(s, full, 0.0, "from 0 vs by-value");
}

TEST_P(RangedSelInvTest, ToleranceZeroIsTheFullPassBitForBit) {
  std::vector<Matrix> s = seed;
  const TruncatedPass tp = selinv_bidiagonal_into(ef.after, s, k0, ef.decay_amp, 0.0);
  EXPECT_EQ(tp.updated_from, 0);
  EXPECT_FALSE(tp.truncated);
  test::expect_covs_near(s, full, 0.0, "tol 0 vs full pass");
}

TEST_P(RangedSelInvTest, PositiveToleranceTruncatesWithinTheBound) {
  const double tol = 1e-6;
  std::vector<Matrix> s = seed;
  const TruncatedPass tp = selinv_bidiagonal_into(ef.after, s, k0, ef.decay_amp, tol);
  EXPECT_TRUE(tp.truncated);
  EXPECT_GT(tp.updated_from, 0);
  EXPECT_LT(tp.updated_from, k0);
  ASSERT_EQ(s.size(), full.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_LE(diff_norm(s[i], full[i]), tol) << "state " << i;
    if (static_cast<index>(i) < tp.updated_from)
      test::expect_near(s[i].view(), seed[i].view(), 0.0, "skipped state keeps the seed");
  }
}

INSTANTIATE_TEST_SUITE_P(StateDims, RangedSelInvTest, ::testing::Values(3, 10));

TEST(SelInvBidiagonal, RangedPassRejectsBadArguments) {
  Rng rng(0x5B2);
  const index k0 = 12;
  const test::ExtendedFactor ef = test::extended_factor(rng, 3, k0, 2);
  const index k = k0 + 2;
  std::vector<Matrix> s = selinv_bidiagonal(ef.before);
  EXPECT_THROW(selinv_bidiagonal_into(ef.after, s, -1), std::invalid_argument);
  EXPECT_THROW(selinv_bidiagonal_into(ef.after, s, k + 1), std::invalid_argument);
  EXPECT_THROW(selinv_bidiagonal_into(ef.after, s, k0, ef.decay_amp, -1.0),
               std::invalid_argument);
  std::vector<Matrix> short_seed(s.begin(), s.end() - 1);
  EXPECT_THROW(selinv_bidiagonal_into(ef.after, short_seed, k0, ef.decay_amp, 1e-6),
               std::invalid_argument);
  const std::span<const double> short_amp(ef.decay_amp.data(), k0 - 1);
  EXPECT_THROW(selinv_bidiagonal_into(ef.after, s, k0, short_amp, 1e-6),
               std::invalid_argument);
}

}  // namespace
}  // namespace pitk::kalman
