#include "la/qr.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "la/blas.hpp"
#include "la/random.hpp"
#include "test_util.hpp"

namespace pitk::la {
namespace {

/// Reconstruct A from its factored form by applying Q to [R; 0].
Matrix reconstruct(const Matrix& factored, std::span<const double> tau) {
  const index r = factored.rows();
  const index c = factored.cols();
  Matrix rz(r, c);
  const index k = std::min(r, c);
  for (index j = 0; j < c; ++j)
    for (index i = 0; i <= std::min(j, k - 1); ++i) rz(i, j) = factored(i, j);
  qr_apply_q(factored.view(), tau, rz.view());
  return rz;
}

class QrShapeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrShapeTest, ReconstructsInput) {
  auto [r, c] = GetParam();
  Rng rng(31 + r * 10 + c);
  Matrix a = random_gaussian(rng, r, c);
  Matrix f = a;
  std::vector<double> tau(static_cast<std::size_t>(std::min(r, c)));
  qr_factor(f.view(), tau);
  Matrix back = reconstruct(f, tau);
  test::expect_near(back.view(), a.view(), 1e-12);
}

TEST_P(QrShapeTest, QtQIsIdentity) {
  auto [r, c] = GetParam();
  Rng rng(37 + r * 10 + c);
  Matrix a = random_gaussian(rng, r, c);
  std::vector<double> tau(static_cast<std::size_t>(std::min(r, c)));
  qr_factor(a.view(), tau);
  // Apply Q then Q^T to a random block; must be the identity action.
  Matrix x = random_gaussian(rng, r, 3);
  Matrix y = x;
  qr_apply_q(a.view(), tau, y.view());
  qr_apply_qt(a.view(), tau, y.view());
  test::expect_near(y.view(), x.view(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrShapeTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{4, 4}, std::pair{8, 3},
                                           std::pair{3, 8}, std::pair{12, 12}, std::pair{2, 5},
                                           std::pair{5, 2}, std::pair{20, 7}));

TEST(Qr, ThinQHasOrthonormalColumns) {
  Rng rng(41);
  Matrix a = random_gaussian(rng, 9, 4);
  std::vector<double> tau(4);
  qr_factor(a.view(), tau);
  Matrix q = qr_form_q(a.view(), tau);
  EXPECT_EQ(q.rows(), 9);
  EXPECT_EQ(q.cols(), 4);
  Matrix qtq = multiply(q.view(), Trans::Yes, q.view(), Trans::No);
  test::expect_near(qtq.view(), Matrix::identity(4).view(), 1e-13);
}

TEST(Qr, RAgreesWithNormalEquationsCholesky) {
  // R^T R == A^T A up to rounding (uniqueness of the Cholesky factor).
  Rng rng(43);
  Matrix a = random_gaussian(rng, 10, 5);
  Matrix ata = multiply(a.view(), Trans::Yes, a.view(), Trans::No);
  std::vector<double> tau(5);
  qr_factor(a.view(), tau);
  Matrix rsq(5, 5);
  qr_extract_r_square(a.view(), rsq.view());
  Matrix rtr = multiply(rsq.view(), Trans::Yes, rsq.view(), Trans::No);
  test::expect_near(rtr.view(), ata.view(), 1e-11);
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
  Rng rng(47);
  Matrix a = random_gaussian(rng, 12, 4);
  Vector b = random_gaussian_vector(rng, 12);
  Vector x = qr_least_squares(a, b);
  // Residual must be orthogonal to the column space: A^T (A x - b) = 0.
  Vector res(12);
  gemv(1.0, a.view(), Trans::No, x.span(), 0.0, res.span());
  axpy(-1.0, b.span(), res.span());
  Vector atr(4);
  gemv(1.0, a.view(), Trans::Yes, res.span(), 0.0, atr.span());
  EXPECT_LE(norm_max(atr.span()), 1e-11);
}

TEST(Qr, ExtractRSquarePadsShortPanels) {
  Rng rng(53);
  Matrix a = random_gaussian(rng, 2, 4);  // fewer rows than columns
  std::vector<double> tau(2);
  qr_factor(a.view(), tau);
  Matrix r(4, 4);
  qr_extract_r_square(a.view(), r.view());
  // Rows 2..3 must be zero padding.
  for (index j = 0; j < 4; ++j) {
    EXPECT_EQ(r(2, j), 0.0);
    EXPECT_EQ(r(3, j), 0.0);
  }
  // Strictly-lower part must be zero.
  EXPECT_EQ(r(1, 0), 0.0);
}

TEST(Qr, ZeroRowInputsAreHandled) {
  Matrix a(0, 3);
  std::vector<double> tau(0);
  qr_factor(a.view(), tau);  // must not crash
  Matrix r(3, 3);
  qr_extract_r_square(a.view(), r.view());
  EXPECT_EQ(norm_max(r.view()), 0.0);
}

TEST(Qr, AppliesToZeroColumnAttachment) {
  Rng rng(59);
  Matrix a = random_gaussian(rng, 4, 2);
  std::vector<double> tau(2);
  qr_factor(a.view(), tau);
  Matrix empty(4, 0);
  qr_apply_qt(a.view(), tau, empty.view());  // no-op, must not crash
}

TEST(Qr, ScratchFactorApplyMatchesManualPath) {
  Rng rng(61);
  Matrix a = random_gaussian(rng, 6, 3);
  Matrix att = random_gaussian(rng, 6, 2);
  Matrix a2 = a;
  Matrix att2 = att;

  QrScratch scratch;
  scratch.factor_apply(a.view(), att.view());

  std::vector<double> tau(3);
  qr_factor(a2.view(), tau);
  qr_apply_qt(a2.view(), tau, att2.view());

  test::expect_near(att.view(), att2.view(), 1e-13);
  test::expect_near(a.view(), a2.view(), 1e-13);
}

TEST(Qr, StableOnGradedColumns) {
  // Columns with wildly different scales: Householder QR must not blow up.
  Rng rng(67);
  Matrix a = random_gaussian(rng, 8, 4);
  for (index i = 0; i < 8; ++i) {
    a(i, 0) *= 1e12;
    a(i, 3) *= 1e-12;
  }
  Matrix f = a;
  std::vector<double> tau(4);
  qr_factor(f.view(), tau);
  Matrix back = reconstruct(f, tau);
  // Relative accuracy per column scale.
  for (index j = 0; j < 4; ++j) {
    double colnorm = 0.0;
    for (index i = 0; i < 8; ++i) colnorm = std::max(colnorm, std::abs(a(i, j)));
    for (index i = 0; i < 8; ++i)
      EXPECT_LE(std::abs(back(i, j) - a(i, j)), 1e-12 * colnorm) << i << "," << j;
  }
}

// ---------------------------------------------------------------------------
// Compact-WY blocked path against the unblocked loop.
// ---------------------------------------------------------------------------

using detail::qr_blocked_min_cols;

/// One factorization through a forced code path: the factored matrix, tau
/// and Q^T applied to the attachment.
struct Factored {
  Matrix a;
  std::vector<double> tau;
  Matrix qtb;
};

Factored factor_with(bool blocked, const Matrix& a0, const Matrix& b0) {
  Factored f{a0, std::vector<double>(static_cast<std::size_t>(std::min(a0.rows(), a0.cols()))),
             b0};
  if (blocked)
    detail::qr_factor_blocked(f.a.view(), f.tau, f.qtb.view());
  else
    detail::qr_factor_unblocked(f.a.view(), f.tau, f.qtb.view());
  return f;
}

/// R (upper triangle of the first min(rows, cols) rows) of a factored matrix.
Matrix r_of(const Matrix& f) {
  const index k = std::min(f.rows(), f.cols());
  Matrix r(k, f.cols());
  for (index j = 0; j < f.cols(); ++j)
    for (index i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = f(i, j);
  return r;
}

/// Blocked and unblocked agree on R, Q^T b and the explicit thin Q, each
/// measured relative to its own scale.
void expect_paths_agree(const Matrix& a0, const Matrix& b0, double tol) {
  const Factored u = factor_with(false, a0, b0);
  const Factored b = factor_with(true, a0, b0);
  const double scale = std::max(1.0, norm_max(a0.view()));
  test::expect_near(r_of(b.a).view(), r_of(u.a).view(), tol * scale, "R");
  test::expect_near(b.qtb.view(), u.qtb.view(), tol * std::max(1.0, norm_max(b0.view())),
                    "Q^T b");
  const Matrix qb = qr_form_q(b.a.view(), b.tau);
  test::expect_near(qb.view(), qr_form_q(u.a.view(), u.tau).view(), tol, "Q");
  // And the blocked factorization really is one of A.
  const Matrix back = multiply(qb.view(), r_of(b.a).view());
  test::expect_near(back.view(), a0.view(), tol * scale, "Q R");
}

struct BlockedCase {
  index rows;
  index cols;
  index attached;
};

class QrBlockedTest : public ::testing::TestWithParam<BlockedCase> {};

TEST_P(QrBlockedTest, MatchesUnblocked) {
  const BlockedCase c = GetParam();
  Rng rng(71 + static_cast<std::uint64_t>(c.rows * 1000 + c.cols * 10 + c.attached));
  const Matrix a = random_gaussian(rng, c.rows, c.cols);
  const Matrix b = random_gaussian(rng, c.rows, c.attached);
  expect_paths_agree(a, b, 1e-13);
}

TEST_P(QrBlockedTest, DispatchedPathsAgreeWithScratch) {
  // qr_factor + qr_apply_qt and QrScratch::factor_apply take the same path
  // for the same shape, and produce the same bits: the blocked apply forms
  // each panel's V and T exactly as the fused factor-and-apply does.
  const BlockedCase c = GetParam();
  Rng rng(73 + static_cast<std::uint64_t>(c.rows * 1000 + c.cols * 10 + c.attached));
  const Matrix a0 = random_gaussian(rng, c.rows, c.cols);
  const Matrix b0 = random_gaussian(rng, c.rows, c.attached);
  Matrix a = a0;
  Matrix b = b0;
  QrScratch scratch;
  scratch.factor_apply(a.view(), b.view());

  Matrix a2 = a0;
  Matrix b2 = b0;
  std::vector<double> tau(static_cast<std::size_t>(std::min(c.rows, c.cols)));
  qr_factor(a2.view(), tau);
  qr_apply_qt(a2.view(), tau, b2.view());
  EXPECT_TRUE(a == a2);
  EXPECT_TRUE(b == b2);
}

// Both sides of the crossover (k = min(rows, cols) vs qr_blocked_min_cols),
// k not a multiple of the panel width, rows < cols, an empty attachment, and
// the odd-even (2n x n, 3n x n) and Paige-Saunders (3n x 2n) shapes at n=48.
INSTANTIATE_TEST_SUITE_P(
    Shapes, QrBlockedTest,
    ::testing::Values(BlockedCase{12, 6, 13}, BlockedCase{24, 16, 1}, BlockedCase{32, 16, 33},
                      BlockedCase{40, 23, 5}, BlockedCase{48, 24, 25}, BlockedCase{50, 27, 3},
                      BlockedCase{61, 37, 2}, BlockedCase{30, 40, 4}, BlockedCase{26, 60, 7},
                      BlockedCase{20, 40, 2}, BlockedCase{64, 33, 0}, BlockedCase{96, 48, 49},
                      BlockedCase{96, 48, 97}, BlockedCase{144, 48, 1},
                      BlockedCase{144, 96, 1}),
    [](const ::testing::TestParamInfo<BlockedCase>& info) {
      return std::to_string(info.param.rows) + "x" + std::to_string(info.param.cols) + "_" +
             std::to_string(info.param.attached);
    });

TEST(QrBlocked, BelowCrossoverIsBitIdenticalToUnblocked) {
  // Every shape a state dimension <= 8 produces stays on the unblocked loop:
  // the dispatched entry points reproduce the unblocked hook bit for bit.
  const BlockedCase shapes[] = {{12, 6, 13}, {18, 6, 1}, {24, 16, 1},  {16, 8, 17},
                                {32, 16, 33}, {20, 40, 2}, {48, 23, 24}, {23, 60, 3}};
  for (const BlockedCase& c : shapes) {
    ASSERT_LT(std::min(c.rows, c.cols), qr_blocked_min_cols);
    Rng rng(79 + static_cast<std::uint64_t>(c.rows * 100 + c.cols));
    const Matrix a0 = random_gaussian(rng, c.rows, c.cols);
    const Matrix b0 = random_gaussian(rng, c.rows, c.attached);
    const Factored ref = factor_with(false, a0, b0);

    Matrix a = a0;
    Matrix b = b0;
    QrScratch scratch;
    scratch.factor_apply(a.view(), b.view());
    EXPECT_TRUE(a == ref.a) << c.rows << "x" << c.cols;
    EXPECT_TRUE(b == ref.qtb) << c.rows << "x" << c.cols;

    Matrix a2 = a0;
    Matrix b2 = b0;
    std::vector<double> tau(ref.tau.size());
    qr_factor(a2.view(), tau);
    qr_apply_qt(a2.view(), tau, b2.view());
    EXPECT_TRUE(a2 == ref.a) << c.rows << "x" << c.cols;
    EXPECT_TRUE(b2 == ref.qtb) << c.rows << "x" << c.cols;
    EXPECT_EQ(tau, ref.tau);
  }
}

TEST(QrBlocked, ZeroColumnsGiveIdentityReflectors) {
  // An all-zero column stays zero under every earlier reflector, so its
  // tau is 0 on both paths and the blocked T carries a zero column for it.
  Rng rng(83);
  Matrix a = random_gaussian(rng, 60, 40);
  for (const index j : {0, 9, 16, 39})
    for (index i = 0; i < a.rows(); ++i) a(i, j) = 0.0;
  const Matrix b = random_gaussian(rng, 60, 5);
  const Factored blk = factor_with(true, a, b);
  const Factored unb = factor_with(false, a, b);
  for (const index j : {0, 9, 16, 39}) {
    EXPECT_EQ(blk.tau[static_cast<std::size_t>(j)], 0.0);
    EXPECT_EQ(unb.tau[static_cast<std::size_t>(j)], 0.0);
  }
  expect_paths_agree(a, b, 1e-13);
}

TEST(QrBlocked, GradedColumnsAgreeColumnByColumn) {
  Rng rng(89);
  Matrix a = random_gaussian(rng, 72, 40);
  for (index i = 0; i < a.rows(); ++i) {
    for (index j = 0; j < 8; ++j) a(i, j) *= 1e12;
    for (index j = 32; j < 40; ++j) a(i, j) *= 1e-12;
  }
  const Matrix b = random_gaussian(rng, 72, 3);
  const Factored blk = factor_with(true, a, b);
  const Factored unb = factor_with(false, a, b);
  // R's column j is a rotation of A's column j: compare on that column's scale.
  for (index j = 0; j < a.cols(); ++j) {
    double colnorm = 0.0;
    for (index i = 0; i < a.rows(); ++i) colnorm = std::max(colnorm, std::abs(a(i, j)));
    for (index i = 0; i <= j; ++i)
      EXPECT_LE(std::abs(blk.a(i, j) - unb.a(i, j)), 1e-13 * colnorm) << i << "," << j;
  }
  test::expect_near(blk.qtb.view(), unb.qtb.view(), 1e-13 * norm_max(b.view()), "Q^T b");
  test::expect_near(qr_form_q(blk.a.view(), blk.tau).view(),
                    qr_form_q(unb.a.view(), unb.tau).view(), 1e-13, "Q");
}

TEST(QrBlocked, EmptyAttachmentAndEmptyView) {
  Rng rng(97);
  const Matrix a0 = random_gaussian(rng, 50, 30);
  Matrix a = a0;
  std::vector<double> tau(30);
  detail::qr_factor_blocked(a.view(), tau);  // default: no attachment
  Matrix a2 = a0;
  Matrix none(50, 0);
  std::vector<double> tau2(30);
  detail::qr_factor_blocked(a2.view(), tau2, none.view());
  EXPECT_TRUE(a == a2);
  EXPECT_EQ(tau, tau2);
  expect_paths_agree(a0, none, 1e-13);
}

TEST(QrBlocked, NonFiniteInputsPropagate) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Rng rng(101);
    const Matrix a0 = random_gaussian(rng, 64, 40);
    const Matrix b0 = random_gaussian(rng, 64, 6);
    for (const bool blocked : {false, true}) {
      // A bad entry in a later panel's column poisons R from that column on.
      Matrix a = a0;
      a(20, 30) = bad;
      const Factored f = factor_with(blocked, a, b0);
      EXPECT_FALSE(all_finite(f.a.block(0, 30, 40, 10))) << bad << " blocked=" << blocked;
      EXPECT_FALSE(all_finite(f.qtb.view())) << bad << " blocked=" << blocked;

      // A bad attached column stays in that column: the factor and the
      // other attached columns are untouched by it.
      Matrix b = b0;
      b(7, 2) = bad;
      const Factored g = factor_with(blocked, a0, b);
      const Factored clean = factor_with(blocked, a0, b0);
      EXPECT_TRUE(g.a == clean.a);
      EXPECT_FALSE(all_finite(g.qtb.block(0, 2, 64, 1))) << bad << " blocked=" << blocked;
      for (const index j : {0, 1, 3, 4, 5})
        EXPECT_EQ(max_abs_diff(g.qtb.block(0, j, 64, 1), clean.qtb.block(0, j, 64, 1)), 0.0)
            << "column " << j << " blocked=" << blocked;
    }
  }
}

}  // namespace
}  // namespace pitk::la
