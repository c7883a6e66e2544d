#include "la/qr.hpp"

#include <algorithm>
#include <cmath>

#include "la/blas.hpp"
#include "la/triangular.hpp"
#include "la/workspace.hpp"

namespace pitk::la {

namespace {

/// Generate a Householder reflector for the vector [alpha; x] such that
/// H [alpha; x] = [beta; 0].  Returns {beta, tau}; x is overwritten with the
/// essential part v (v0 == 1 implicit).  Mirrors LAPACK dlarfg.
struct Reflector {
  double beta;
  double tau;
};

inline Reflector make_reflector(double alpha, std::span<double> x) {
  double xnorm = norm2(x);
  if (xnorm == 0.0) return {alpha, 0.0};
  const double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  const double tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  for (double& v : x) v *= inv;
  return {beta, tau};
}

/// Apply H = I - tau [1; v] [1; v]^T to the rows [row0, row0+1+v.size()) of
/// every column of b.
inline void apply_reflector(std::span<const double> v, double tau, index row0, MatrixView b) {
  if (tau == 0.0) return;
  const index nv = static_cast<index>(v.size());
  for (index j = 0; j < b.cols(); ++j) {
    double* col = b.col_span(j).data();
    double w = col[row0];
    for (index i = 0; i < nv; ++i) w += v[static_cast<std::size_t>(i)] * col[row0 + 1 + i];
    w *= tau;
    col[row0] -= w;
    for (index i = 0; i < nv; ++i) col[row0 + 1 + i] -= w * v[static_cast<std::size_t>(i)];
  }
}

/// Unblocked factorization: one reflector at a time over the trailing
/// columns of `a`.
void factor_unblocked(MatrixView a, std::span<double> tau) {
  const index r = a.rows();
  const index c = a.cols();
  const index k = std::min(r, c);
  assert(static_cast<index>(tau.size()) >= k);
  for (index j = 0; j < k; ++j) {
    double* col = a.col_span(j).data();
    std::span<double> below(col + j + 1, static_cast<std::size_t>(r - j - 1));
    const Reflector h = make_reflector(col[j], below);
    tau[static_cast<std::size_t>(j)] = h.tau;
    if (j + 1 < c) {
      apply_reflector(below, h.tau, j, a.block(0, j + 1, r, c - j - 1));
    }
    col[j] = h.beta;
  }
}

void apply_qt_unblocked(ConstMatrixView a, std::span<const double> tau, MatrixView b) {
  const index k = std::min(a.rows(), a.cols());
  // Q = H_0 H_1 ... H_{k-1}, so Q^T = H_{k-1} ... H_0 but each H_j is
  // symmetric; applying in ascending order yields Q^T b.
  for (index j = 0; j < k; ++j) {
    std::span<const double> v(a.col_span(j).data() + j + 1,
                              static_cast<std::size_t>(a.rows() - j - 1));
    apply_reflector(v, tau[static_cast<std::size_t>(j)], j, b);
  }
}

bool use_blocked(ConstMatrixView a) {
  return std::min(a.rows(), a.cols()) >= detail::qr_blocked_min_cols;
}

/// One panel's reflectors in compact-WY form: H_0 ... H_{jb-1} = I - V T V^T
/// with V (m x jb) unit lower trapezoidal and T (jb x jb) upper triangular.
/// V, T and the product scratch W are Workspace borrows sized at
/// construction for the tallest panel and the widest operand.
class WyPanel {
 public:
  WyPanel(Workspace::Scope& scope, index rows, index width)
      : v_buf_(scope.raw(static_cast<std::size_t>(rows * detail::qr_block))),
        t_buf_(scope.raw(static_cast<std::size_t>(detail::qr_block * detail::qr_block))),
        w_buf_(scope.raw(static_cast<std::size_t>(detail::qr_block * width))) {}

  /// Load the reflectors stored in `panel` (rows j0.. of jb factored
  /// columns) with their `tau`, and form T (LAPACK dlarft, forward and
  /// columnwise).
  void load(ConstMatrixView panel, std::span<const double> tau) {
    const index m = panel.rows();
    const index jb = panel.cols();
    v_ = MatrixView(v_buf_, m, jb, m);
    t_ = MatrixView(t_buf_, jb, jb, jb);
    for (index l = 0; l < jb; ++l) {
      double* vl = v_.col_span(l).data();
      const double* pl = panel.col_span(l).data();
      std::fill(vl, vl + l, 0.0);
      vl[l] = 1.0;
      std::copy(pl + l + 1, pl + m, vl + l + 1);
    }
    // T starts as V^T V, whose strict upper triangle holds the products
    // V(:, p)^T v_i; column i then becomes -tau_i T(0:i, 0:i) V(:, 0:i)^T v_i
    // over the finished columns to its left.
    gemm(1.0, v_, Trans::Yes, v_, Trans::No, 0.0, t_);
    for (index i = 0; i < jb; ++i) {
      const double ti = tau[static_cast<std::size_t>(i)];
      double* tcol = t_.col_span(i).data();
      std::fill(tcol + i + 1, tcol + jb, 0.0);
      tcol[i] = ti;
      if (ti == 0.0) {
        // H_i = I: its column of T is zero whatever V holds (as in dlarft).
        std::fill(tcol, tcol + i, 0.0);
        continue;
      }
      for (index p = 0; p < i; ++p) {
        double acc = 0.0;
        for (index q = p; q < i; ++q) acc += t_(p, q) * tcol[q];
        tcol[p] = -ti * acc;
      }
    }
  }

  /// C <- (I - V T V^T)^T C = C - V (T^T (V^T C)).  C has the panel's rows
  /// and at most the width given at construction.
  void apply_qt(MatrixView c) {
    if (c.cols() == 0) return;
    MatrixView w(w_buf_, v_.cols(), c.cols(), v_.cols());
    gemm(1.0, v_, Trans::Yes, c, Trans::No, 0.0, w);
    trmm_left(Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0, t_, w);
    gemm(-1.0, v_, Trans::No, w, Trans::No, 1.0, c);
  }

 private:
  double* v_buf_;
  double* t_buf_;
  double* w_buf_;
  MatrixView v_;
  MatrixView t_;
};

void apply_qt_blocked(ConstMatrixView a, std::span<const double> tau, MatrixView b) {
  const index r = a.rows();
  const index k = std::min(r, a.cols());
  Workspace::Scope scope(tls_workspace());
  WyPanel wy(scope, r, b.cols());
  for (index j0 = 0; j0 < k; j0 += detail::qr_block) {
    const index jb = std::min(detail::qr_block, k - j0);
    wy.load(a.block(j0, j0, r - j0, jb), tau.subspan(static_cast<std::size_t>(j0)));
    wy.apply_qt(b.block(j0, 0, r - j0, b.cols()));
  }
}

}  // namespace

namespace detail {

void qr_factor_unblocked(MatrixView a, std::span<double> tau, MatrixView attached) {
  factor_unblocked(a, tau);
  if (!attached.empty()) apply_qt_unblocked(a, tau, attached);
}

void qr_factor_blocked(MatrixView a, std::span<double> tau, MatrixView attached) {
  const index r = a.rows();
  const index c = a.cols();
  const index k = std::min(r, c);
  assert(static_cast<index>(tau.size()) >= k);
  assert(attached.cols() == 0 || attached.rows() == r);
  Workspace::Scope scope(tls_workspace());
  WyPanel wy(scope, r, std::max(c, attached.cols()));
  for (index j0 = 0; j0 < k; j0 += qr_block) {
    const index jb = std::min(qr_block, k - j0);
    const index m = r - j0;
    const MatrixView panel = a.block(j0, j0, m, jb);
    const std::span<double> panel_tau = tau.subspan(static_cast<std::size_t>(j0));
    factor_unblocked(panel, panel_tau);
    const index trailing = c - j0 - jb;
    if (trailing == 0 && attached.cols() == 0) continue;
    wy.load(panel, panel_tau);
    wy.apply_qt(a.block(j0, j0 + jb, m, trailing));
    if (attached.cols() > 0) wy.apply_qt(attached.block(j0, 0, m, attached.cols()));
  }
}

}  // namespace detail

void qr_factor(MatrixView a, std::span<double> tau) {
  if (use_blocked(a))
    detail::qr_factor_blocked(a, tau);
  else
    factor_unblocked(a, tau);
}

void qr_apply_qt(ConstMatrixView a, std::span<const double> tau, MatrixView b) {
  assert(b.rows() == a.rows());
  if (b.cols() == 0) return;
  assert(static_cast<index>(tau.size()) >= std::min(a.rows(), a.cols()));
  if (use_blocked(a))
    apply_qt_blocked(a, tau, b);
  else
    apply_qt_unblocked(a, tau, b);
}

void qr_apply_q(ConstMatrixView a, std::span<const double> tau, MatrixView b) {
  assert(b.rows() == a.rows());
  if (b.cols() == 0) return;
  const index k = std::min(a.rows(), a.cols());
  assert(static_cast<index>(tau.size()) >= k);
  for (index j = k - 1; j >= 0; --j) {
    std::span<const double> v(a.col_span(j).data() + j + 1,
                              static_cast<std::size_t>(a.rows() - j - 1));
    apply_reflector(v, tau[static_cast<std::size_t>(j)], j, b);
  }
}

void qr_extract_r_square(ConstMatrixView a, MatrixView r) {
  const index c = a.cols();
  assert(r.rows() == c && r.cols() == c);
  r.set_zero();
  const index k = std::min(a.rows(), c);
  for (index j = 0; j < c; ++j)
    for (index i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = a(i, j);
}

Matrix qr_form_q(ConstMatrixView a, std::span<const double> tau) {
  const index k = std::min(a.rows(), a.cols());
  Matrix q(a.rows(), k);
  for (index j = 0; j < k; ++j) q(j, j) = 1.0;
  qr_apply_q(a, tau, q.view());
  return q;
}

Vector qr_least_squares(Matrix a, Vector b) {
  assert(a.rows() == b.size());
  assert(a.rows() >= a.cols());
  std::vector<double> tau(static_cast<std::size_t>(std::min(a.rows(), a.cols())));
  qr_factor(a.view(), tau);
  qr_apply_qt(a.view(), tau, b.as_matrix());
  Vector x(a.cols());
  for (index i = 0; i < a.cols(); ++i) x[i] = b[i];
  trsv(Uplo::Upper, Trans::No, Diag::NonUnit, a.block(0, 0, a.cols(), a.cols()), x.span());
  return x;
}

void QrScratch::factor_apply(MatrixView m, MatrixView attached) {
  const std::size_t need = static_cast<std::size_t>(std::min(m.rows(), m.cols()));
  if (tau_.size() < need) tau_.resize(need);
  std::span<double> tau(tau_.data(), need);
  if (use_blocked(m))
    detail::qr_factor_blocked(m, tau, attached);
  else
    detail::qr_factor_unblocked(m, tau, attached);
}

}  // namespace pitk::la
