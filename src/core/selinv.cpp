#include "core/selinv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "la/blas.hpp"
#include "la/triangular.hpp"
#include "la/workspace.hpp"

namespace pitk::kalman {

using la::index;
using la::MatrixView;
using la::Trans;

namespace {

/// Kalman state dimensions live in n <= 8; for those blocks the recurrence
/// runs on fused fixed-ld stack tiles instead of the blocked kernels, whose
/// per-call dispatch dominates at 4x4 (the same trade the small-dim gemm
/// dispatch in la/blas.cpp makes).
constexpr index kSmallDim = 8;

/// rinv = R^{-1} for upper-triangular R of order n <= kSmallDim (upper
/// triangle written, ld 8).
inline void small_tri_inv(const Matrix& r, index n, double (&rinv)[kSmallDim * kSmallDim]) {
  assert(n <= kSmallDim);
  for (index j = 0; j < std::min(n, kSmallDim); ++j) {
    rinv[j + j * kSmallDim] = 1.0 / r(j, j);
    for (index i = j; i-- > 0;) {
      double t = 0.0;
      for (index p = i + 1; p <= j; ++p) t += r(i, p) * rinv[p + j * kSmallDim];
      rinv[i + j * kSmallDim] = -t / r(i, i);
    }
  }
}

/// out = R^{-1} R^{-T} from the triangular inverse (symmetric, full write).
inline void small_gram(const double* rinv, index n, Matrix& out) {
  for (index j = 0; j < n; ++j)
    for (index i = 0; i <= j; ++i) {
      double t = 0.0;
      for (index p = j; p < n; ++p) t += rinv[i + p * kSmallDim] * rinv[j + p * kSmallDim];
      out(i, j) = t;
      out(j, i) = t;
    }
}

/// One small-dimension SelInv step: S_jj = R_jj^{-1} R_jj^{-T} + W S_next W^T
/// with W = R_jj^{-1} R_{j,j+1} (the soff = -W S_next off-diagonal block is
/// folded in; S_next is symmetric, so S_jj is computed as a triangle and
/// mirrored).  All transients live in fixed stack tiles.
inline void small_selinv_step(const Matrix& rjj, const Matrix& rjn, const Matrix& snext,
                              Matrix& sjj) {
  const index n = rjj.rows();
  const index nn = rjn.cols();
  double rinv[kSmallDim * kSmallDim];
  double w[kSmallDim * kSmallDim];
  double t[kSmallDim * kSmallDim];
  small_tri_inv(rjj, n, rinv);
  // W = R_jj^{-1} R_{j,j+1}.
  for (index c = 0; c < nn; ++c)
    for (index i = 0; i < n; ++i) {
      double acc = 0.0;
      for (index p = i; p < n; ++p) acc += rinv[i + p * kSmallDim] * rjn(p, c);
      w[i + c * kSmallDim] = acc;
    }
  // T = W S_next.
  for (index c = 0; c < nn; ++c)
    for (index i = 0; i < n; ++i) {
      double acc = 0.0;
      for (index p = 0; p < nn; ++p) acc += w[i + p * kSmallDim] * snext(p, c);
      t[i + c * kSmallDim] = acc;
    }
  if (sjj.rows() != n || sjj.cols() != n) sjj.resize(n, n);
  small_gram(rinv, n, sjj);
  for (index j = 0; j < n; ++j)
    for (index i = 0; i <= j; ++i) {
      double acc = 0.0;
      for (index c = 0; c < nn; ++c) acc += t[i + c * kSmallDim] * w[j + c * kSmallDim];
      sjj(i, j) += acc;
      sjj(j, i) = sjj(i, j);
    }
}

}  // namespace

void tri_inv_gram_into(la::ConstMatrixView r, MatrixView out, la::Workspace::Scope& scope) {
  const index n = r.rows();
  MatrixView rinv = scope.mat(n, n);
  rinv.assign(r);
  la::tri_inverse_upper(rinv);
  // out = R^{-1} R^{-T}: stage the transpose, then multiply by the upper
  // triangle in place through the blocked trmm (gemm panel updates), which
  // costs half the flops of the previous full gemm(rinv, rinv^T).
  for (index j = 0; j < n; ++j)
    for (index i = 0; i < n; ++i) out(i, j) = rinv(j, i);
  la::trmm_left(la::Uplo::Upper, Trans::No, la::Diag::NonUnit, 1.0, rinv, out);
  la::symmetrize(out);
}

Matrix tri_inv_gram(la::ConstMatrixView r) {
  Matrix s(r.rows(), r.rows());
  la::Workspace::Scope scope(la::tls_workspace());
  tri_inv_gram_into(r, s.view(), scope);
  return s;
}

std::vector<Matrix> selinv_bidiagonal(const BidiagonalFactor& f) {
  std::vector<Matrix> s;
  selinv_bidiagonal_into(f, s);
  return s;
}

namespace {

/// The exact recurrence over s[from..k], restarting at the last block.
void selinv_range(const BidiagonalFactor& f, index from, index k, std::vector<Matrix>& s) {
  s.resize(static_cast<std::size_t>(k + 1));
  {
    const Matrix& rkk = f.diag[static_cast<std::size_t>(k)];
    Matrix& sk = s[static_cast<std::size_t>(k)];
    if (rkk.rows() <= kSmallDim) {
      double rinv[kSmallDim * kSmallDim];
      small_tri_inv(rkk, rkk.rows(), rinv);
      if (sk.rows() != rkk.rows() || sk.cols() != rkk.rows()) sk.resize(rkk.rows(), rkk.rows());
      small_gram(rinv, rkk.rows(), sk);
    } else {
      sk.resize(rkk.rows(), rkk.rows());
      la::Workspace::Scope scope(la::tls_workspace());
      tri_inv_gram_into(rkk.view(), sk.view(), scope);
    }
  }
  for (index j = k - 1; j >= from; --j) {
    const Matrix& rjj = f.diag[static_cast<std::size_t>(j)];
    const Matrix& rjn = f.sup[static_cast<std::size_t>(j)];
    if (rjj.rows() <= kSmallDim && rjn.cols() <= kSmallDim) {
      small_selinv_step(rjj, rjn, s[static_cast<std::size_t>(j + 1)], s[static_cast<std::size_t>(j)]);
      continue;
    }
    la::Workspace::Scope scope(la::tls_workspace());
    // W = R_jj^{-1} R_{j,j+1}.
    MatrixView w = scope.mat(rjn.rows(), rjn.cols());
    w.assign(rjn.view());
    la::trsm_left(la::Uplo::Upper, Trans::No, la::Diag::NonUnit, rjj.view(), w);
    // S_{j,j+1} = -W S_{j+1,j+1}.
    MatrixView soff = scope.mat(w.rows(), w.cols());
    la::gemm(-1.0, w, Trans::No, s[static_cast<std::size_t>(j + 1)].view(), Trans::No, 0.0,
             soff);
    // S_jj = R_jj^{-1} R_jj^{-T} - S_{j,j+1} W^T.
    Matrix& sjj = s[static_cast<std::size_t>(j)];
    sjj.resize(rjj.rows(), rjj.rows());
    tri_inv_gram_into(rjj.view(), sjj.view(), scope);
    la::gemm(-1.0, soff, Trans::No, w, Trans::Yes, 1.0, sjj.view());
    la::symmetrize(sjj.view());
  }
}

}  // namespace

TruncatedPass selinv_bidiagonal_into(const BidiagonalFactor& f, std::vector<Matrix>& s,
                                     la::index from, std::span<const double> decay_amp,
                                     double tol) {
  const index k = static_cast<index>(f.diag.size()) - 1;
  if (from < 0 || from > k)
    throw std::invalid_argument("selinv_bidiagonal_into: from out of range");
  if (!(tol >= 0.0)) throw std::invalid_argument("selinv_bidiagonal_into: tol must be >= 0");
  // tol == 0 neglects nothing: the exact recurrence continues down to state 0.
  if (from == 0 || tol == 0.0) {
    selinv_range(f, 0, k, s);
    return {};
  }
  if (static_cast<index>(s.size()) <= from || static_cast<index>(decay_amp.size()) < from)
    throw std::invalid_argument(
        "selinv_bidiagonal_into: previous covariances / decay bounds too short");

  la::Workspace::Scope scope(la::tls_workspace());
  index maxn = 0;
  for (index i = 0; i <= from; ++i) maxn = std::max(maxn, f.diag[static_cast<std::size_t>(i)].rows());
  MatrixView cur = scope.mat(maxn, maxn);   // Delta at the state just updated
  MatrixView wbuf = scope.mat(maxn, maxn);  // W_j staging
  MatrixView tbuf = scope.mat(maxn, maxn);  // W_j Delta staging

  // Seed: exact recompute of the tail, Delta = new S[from] - old S[from].
  const index nf = f.diag[static_cast<std::size_t>(from)].rows();
  const Matrix& sf = s[static_cast<std::size_t>(from)];
  if (sf.rows() != nf || sf.cols() != nf)
    throw std::invalid_argument("selinv_bidiagonal_into: stale covariance shape");
  cur.block(0, 0, nf, nf).assign(sf.view());
  selinv_range(f, from, k, s);
  double dn = 0.0;
  for (index j = 0; j < nf; ++j)
    for (index q = 0; q < nf; ++q) {
      const double v = s[static_cast<std::size_t>(from)](q, j) - cur(q, j);
      cur(q, j) = v;
      dn += v * v;
    }
  dn = std::sqrt(dn);

  index j = from - 1;
  for (; j >= 0; --j) {
    if (dn == 0.0) break;
    const double a = decay_amp[static_cast<std::size_t>(j)];
    if (a * a * dn <= tol) break;
    const Matrix& rjj = f.diag[static_cast<std::size_t>(j)];
    const Matrix& rjn = f.sup[static_cast<std::size_t>(j)];
    const index n = rjj.rows();
    const index m = rjn.cols();
    // Delta_j = W Delta_{j+1} W^T with W = R_jj^{-1} R_{j,j+1}; writing the
    // result back into `cur` is safe because the first gemm already consumed
    // the old Delta.
    MatrixView w = wbuf.block(0, 0, n, m);
    w.assign(rjn.view());
    la::trsm_left(la::Uplo::Upper, Trans::No, la::Diag::NonUnit, rjj.view(), w);
    MatrixView t = tbuf.block(0, 0, n, m);
    la::gemm(1.0, w, Trans::No, cur.block(0, 0, m, m), Trans::No, 0.0, t);
    la::gemm(1.0, t, Trans::No, w, Trans::Yes, 0.0, cur.block(0, 0, n, n));
    Matrix& sj = s[static_cast<std::size_t>(j)];
    if (sj.rows() != n || sj.cols() != n)
      throw std::invalid_argument("selinv_bidiagonal_into: stale covariance shape");
    double s2 = 0.0;
    for (index c = 0; c < n; ++c)
      for (index q = 0; q < n; ++q) {
        const double d = cur(q, c);
        sj(q, c) += d;
        s2 += d * d;
      }
    la::symmetrize(sj.view());
    dn = std::sqrt(s2);
  }
  return TruncatedPass{.updated_from = j + 1, .truncated = j >= 0};
}

}  // namespace pitk::kalman
