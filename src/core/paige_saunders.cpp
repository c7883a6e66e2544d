#include "core/paige_saunders.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/selinv.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "la/workspace.hpp"

namespace pitk::kalman {

namespace {

using la::MatrixView;
using la::Trans;

}  // namespace

BidiagonalFactor paige_saunders_factor(const Problem& p) {
  BidiagonalFactor f;
  paige_saunders_factor_into(p, f);
  return f;
}

void paige_saunders_factor_into(const Problem& p, BidiagonalFactor& f) {
  if (auto err = p.validate(true)) throw std::invalid_argument("paige_saunders: " + *err);
  const index k = p.last_index();

  // Preallocate every result block before the sweep; Matrix::resize reuses a
  // warm factor's capacity, so re-factoring a same-shaped problem allocates
  // nothing inside the per-step loop below.
  f.diag.resize(static_cast<std::size_t>(k + 1));
  f.sup.resize(static_cast<std::size_t>(k + 1));
  f.rhs.resize(static_cast<std::size_t>(k + 1));
  index maxn = 0;
  index maxm = 0;
  index maxl = 0;
  for (index i = 0; i <= k; ++i) {
    const index ni = p.state_dim(i);
    f.diag[static_cast<std::size_t>(i)].resize(ni, ni);
    if (i < k)
      f.sup[static_cast<std::size_t>(i)].resize(ni, p.state_dim(i + 1));
    else
      f.sup[static_cast<std::size_t>(i)].resize(0, 0);
    f.rhs[static_cast<std::size_t>(i)].resize(ni);
    maxn = std::max(maxn, ni);
    maxm = std::max(maxm, p.step(i).obs_rows());
    maxl = std::max(maxl, p.step(i).evo_rows());
  }

  // `pending` carries every row that still constrains the current state:
  // initially the weighted observation of step 0, later the triangular
  // leftovers of each elimination stacked with fresh observation rows.  It
  // lives in a fixed arena borrow (rows <= maxn + maxm) viewed at the current
  // shape; the stacked QR panel gets its own fixed borrow.
  const index max_pend = maxn + maxm;
  const index max_panel = max_pend + maxl;
  la::Workspace::Scope outer(la::tls_workspace());
  double* pend_buf = outer.raw(static_cast<std::size_t>(max_pend * maxn));
  double* prhs_buf = outer.raw(static_cast<std::size_t>(max_pend));
  double* panel_buf = outer.raw(static_cast<std::size_t>(max_panel * 2 * maxn));
  double* panel_rhs_buf = outer.raw(static_cast<std::size_t>(max_panel));

  la::QrScratch scratch;
  index pr = 0;  // current pending row count

  {
    la::Workspace::Scope scope(la::tls_workspace());
    WeightedStepView w0 = weigh_step_into(p.step(0), scope);
    pr = w0.C.rows();
    MatrixView pv(pend_buf, pr, p.state_dim(0), max_pend);
    pv.assign(w0.C);
    std::copy(w0.ow.begin(), w0.ow.end(), prhs_buf);
  }

  for (index i = 1; i <= k; ++i) {
    la::Workspace::Scope scope(la::tls_workspace());
    const index n_prev = p.state_dim(i - 1);
    const index n_cur = p.state_dim(i);
    WeightedStepView w = weigh_step_into(p.step(i), scope);
    const index l = w.D.rows();
    const index rp = pr;

    // Stacked panel over states (i-1, i):
    //   [ pending   0  ]   rhs: [ pending_rhs ]
    //   [  -B_i    D_i ]        [     c_w     ]
    MatrixView s(panel_buf, rp + l, n_prev + n_cur, max_panel);
    s.set_zero();
    std::span<double> srhs(panel_rhs_buf, static_cast<std::size_t>(rp + l));
    if (rp > 0) {
      s.block(0, 0, rp, n_prev).assign(MatrixView(pend_buf, rp, n_prev, max_pend));
      for (index q = 0; q < rp; ++q) srhs[static_cast<std::size_t>(q)] = prhs_buf[q];
    }
    {
      MatrixView bblk = s.block(rp, 0, l, n_prev);
      bblk.assign(w.B);
      la::scale(-1.0, bblk);
      s.block(rp, n_prev, l, n_cur).assign(w.D);
      for (index q = 0; q < l; ++q) srhs[static_cast<std::size_t>(rp + q)] = w.cw[static_cast<std::size_t>(q)];
    }

    scratch.factor_apply(s, MatrixView(srhs.data(), rp + l, 1, rp + l));

    // Top n_prev rows are the final R rows of state i-1 (upper triangle only;
    // below-diagonal storage holds Householder vectors).  The preallocated
    // blocks were zeroed by resize, so only the triangle is written.
    {
      Matrix& dg = f.diag[static_cast<std::size_t>(i - 1)];
      Matrix& sp = f.sup[static_cast<std::size_t>(i - 1)];
      Vector& rh = f.rhs[static_cast<std::size_t>(i - 1)];
      const index avail = std::min(s.rows(), n_prev);
      for (index j = 0; j < n_prev; ++j)
        for (index q = 0; q < std::min(avail, j + 1); ++q) dg(q, j) = s(q, j);
      for (index j = 0; j < n_cur; ++j)
        for (index q = 0; q < avail; ++q) sp(q, j) = s(q, n_prev + j);
      for (index q = 0; q < avail; ++q) rh[q] = srhs[static_cast<std::size_t>(q)];
    }

    // Remaining rows (triangular leftover in the u_i columns) + fresh
    // observation rows become the new pending block.  Rows below the panel's
    // R factor (beyond its column count) are identically zero and must be
    // dropped, otherwise the pending block grows by ~n rows per step and the
    // sweep degrades from O(k n^3) to O(k^2 n^3).
    const index rem = std::max<index>(0, std::min(s.rows() - n_prev, n_cur));
    const index m = w.C.rows();
    pr = rem + m;
    MatrixView np(pend_buf, pr, n_cur, max_pend);
    for (index j = 0; j < n_cur; ++j)
      for (index q = 0; q < rem; ++q)
        // Upper-trapezoidal part only; below-diagonal entries of the panel
        // hold Householder vectors, not matrix values.
        np(q, j) = (q <= j) ? s(n_prev + q, n_prev + j) : 0.0;
    for (index q = 0; q < rem; ++q) prhs_buf[q] = srhs[static_cast<std::size_t>(n_prev + q)];
    if (m > 0) {
      np.block(rem, 0, m, n_cur).assign(w.C);
      for (index q = 0; q < m; ++q) prhs_buf[rem + q] = w.ow[static_cast<std::size_t>(q)];
    }
  }

  // Final state: compress the pending rows into R_kk.
  const index nk = p.state_dim(k);
  MatrixView pv(pend_buf, pr, nk, max_pend);
  scratch.factor_apply(pv, MatrixView(prhs_buf, pr, 1, max_pend));
  la::qr_extract_r_square(pv, f.diag[static_cast<std::size_t>(k)].view());
  const index avail = std::min(pr, nk);
  for (index q = 0; q < avail; ++q) f.rhs[static_cast<std::size_t>(k)][q] = prhs_buf[q];
  for (index q = avail; q < nk; ++q) f.rhs[static_cast<std::size_t>(k)][q] = 0.0;
}

std::vector<Vector> paige_saunders_solve(const BidiagonalFactor& f) {
  std::vector<Vector> u;
  paige_saunders_solve_into(f, u);
  return u;
}

namespace {

// Kalman state dimensions live in n <= 8; there the per-state update runs
// on direct loops instead of gemv/trsv, whose call dispatch dominates the
// ~50 flops of a 4x4 step (same trade as the SelInv small-dim path).
constexpr index kSmallState = 8;

void back_substitute_state(const BidiagonalFactor& f, index i, index k, std::vector<Vector>& u) {
  const Matrix& rd = f.diag[static_cast<std::size_t>(i)];
  const index n = rd.rows();
  Vector& x = u[static_cast<std::size_t>(i)];
  x.assign_from(f.rhs[static_cast<std::size_t>(i)].span());
  if (i < k) {
    const Matrix& rs = f.sup[static_cast<std::size_t>(i)];
    const Vector& un = u[static_cast<std::size_t>(i + 1)];
    if (n <= kSmallState && rs.cols() <= kSmallState) {
      for (index c = 0; c < rs.cols(); ++c) {
        const double uc = un[c];
        for (index r = 0; r < n; ++r) x[r] -= rs(r, c) * uc;
      }
    } else {
      la::gemv(-1.0, rs.view(), Trans::No, un.span(), 1.0, x.span());
    }
  }
  if (n <= kSmallState) {
    for (index r = n - 1; r >= 0; --r) {
      double acc = x[r];
      for (index c = r + 1; c < n; ++c) acc -= rd(r, c) * x[c];
      x[r] = acc / rd(r, r);
    }
  } else {
    la::trsv(la::Uplo::Upper, Trans::No, la::Diag::NonUnit, rd.view(), x.span());
  }
}

}  // namespace

TruncatedPass paige_saunders_solve_into(const BidiagonalFactor& f, std::vector<Vector>& u,
                                        la::index from, std::span<const double> decay_amp,
                                        double tol) {
  const index k = static_cast<index>(f.diag.size()) - 1;
  if (from < 0 || from > k)
    throw std::invalid_argument("paige_saunders_solve_into: from out of range");
  if (!(tol >= 0.0)) throw std::invalid_argument("paige_saunders_solve_into: tol must be >= 0");
  // tol == 0 neglects nothing: the exact sweep continues down to state 0.
  if (from == 0 || tol == 0.0) {
    u.resize(static_cast<std::size_t>(k + 1));
    for (index i = k; i >= 0; --i) back_substitute_state(f, i, k, u);
    return {};
  }
  if (static_cast<index>(u.size()) <= from || static_cast<index>(decay_amp.size()) < from)
    throw std::invalid_argument(
        "paige_saunders_solve_into: previous solution / decay bounds too short");

  la::Workspace::Scope scope(la::tls_workspace());
  index maxn = 0;
  for (index i = 0; i <= from; ++i) maxn = std::max(maxn, f.diag[static_cast<std::size_t>(i)].rows());
  std::span<double> cur = scope.vec(maxn);   // delta at the state just updated
  std::span<double> next = scope.vec(maxn);  // staging for the next delta

  // Seed: exact recompute of the tail, delta = new u[from] - old u[from].
  const index nf = f.diag[static_cast<std::size_t>(from)].rows();
  if (u[static_cast<std::size_t>(from)].size() != nf)
    throw std::invalid_argument("paige_saunders_solve_into: stale solution shape");
  for (index q = 0; q < nf; ++q) cur[static_cast<std::size_t>(q)] = u[static_cast<std::size_t>(from)][q];
  u.resize(static_cast<std::size_t>(k + 1));
  for (index i = k; i >= from; --i) back_substitute_state(f, i, k, u);
  double dn = 0.0;
  for (index q = 0; q < nf; ++q) {
    const double v = u[static_cast<std::size_t>(from)][q] - cur[static_cast<std::size_t>(q)];
    cur[static_cast<std::size_t>(q)] = v;
    dn += v * v;
  }
  dn = std::sqrt(dn);

  index i = from - 1;
  for (; i >= 0; --i) {
    if (dn == 0.0) break;
    // decay_amp[i] may be +inf (rank-deficient block: never truncate across
    // it); dn > 0 here, so the product is well defined, and a NaN bound
    // (never produced, but belt-and-braces) compares false -> keep going.
    if (decay_amp[static_cast<std::size_t>(i)] * dn <= tol) break;
    const Matrix& rd = f.diag[static_cast<std::size_t>(i)];
    const Matrix& rs = f.sup[static_cast<std::size_t>(i)];
    const index n = rd.rows();
    const index m = rs.cols();
    // delta_i = -R_ii^{-1} (R_{i,i+1} delta_{i+1})
    if (n <= kSmallState && m <= kSmallState) {
      for (index r = 0; r < n; ++r) {
        double acc = 0.0;
        for (index c = 0; c < m; ++c) acc -= rs(r, c) * cur[static_cast<std::size_t>(c)];
        next[static_cast<std::size_t>(r)] = acc;
      }
      for (index r = n - 1; r >= 0; --r) {
        double acc = next[static_cast<std::size_t>(r)];
        for (index c = r + 1; c < n; ++c) acc -= rd(r, c) * next[static_cast<std::size_t>(c)];
        next[static_cast<std::size_t>(r)] = acc / rd(r, r);
      }
    } else {
      la::gemv(-1.0, rs.view(), Trans::No, cur.first(static_cast<std::size_t>(m)), 0.0,
               next.first(static_cast<std::size_t>(n)));
      la::trsv(la::Uplo::Upper, Trans::No, la::Diag::NonUnit, rd.view(),
               next.first(static_cast<std::size_t>(n)));
    }
    Vector& x = u[static_cast<std::size_t>(i)];
    if (x.size() != n)
      throw std::invalid_argument("paige_saunders_solve_into: stale solution shape");
    double s2 = 0.0;
    for (index r = 0; r < n; ++r) {
      const double d = next[static_cast<std::size_t>(r)];
      x[r] += d;
      cur[static_cast<std::size_t>(r)] = d;
      s2 += d * d;
    }
    dn = std::sqrt(s2);
  }
  return TruncatedPass{.updated_from = i + 1, .truncated = i >= 0};
}

SmootherResult paige_saunders_smooth(const Problem& p, const PaigeSaundersOptions& opts) {
  BidiagonalFactor f = paige_saunders_factor(p);
  SmootherResult res;
  res.means = paige_saunders_solve(f);
  if (opts.compute_covariance) res.covariances = selinv_bidiagonal(f);
  return res;
}

}  // namespace pitk::kalman
