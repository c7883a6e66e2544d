#pragma once

/// \file qr.hpp
/// Householder QR factorization and reflector application.
///
/// This is the orthogonal-transformation engine behind every QR-based
/// smoother in the library (Paige-Saunders and Odd-Even).  The factored form
/// mirrors LAPACK's dgeqrf storage: R in the upper triangle, the essential
/// parts of the Householder vectors below the diagonal, scalar factors in
/// `tau`.  Q is never formed unless explicitly requested; the smoothers only
/// ever apply Q^T to attached right-hand-side/coupled-block columns, which is
/// the 2-block-row primitive of Section 3 of the paper.
///
/// Two code paths share that storage, chosen by the number of reflectors
/// k = min(rows, cols):
///
/// - Below detail::qr_blocked_min_cols: the unblocked level-2 loop, one
///   reflector at a time over every trailing and attached column.  Every
///   panel a state dimension <= 8 produces (up to the 16-column
///   Paige-Saunders and filter panels) takes this path, where the per-panel
///   setup of the blocked path would cost more than it saves.
/// - From there on: compact-WY blocked Householder (Schreiber & Van Loan
///   1989; LAPACK dgeqrf/dlarft/dlarfb).  Each detail::qr_block-column panel
///   is factored by the unblocked loop, its reflectors are accumulated as
///   H_0 ... H_{nb-1} = I - V T V^T, and I - V T^T V^T is applied to the
///   trailing and attached columns through the packed gemm and trmm_left.
///   V, T and the product scratch are borrows from the thread's
///   la::Workspace, so a warm call does not allocate.
///
/// Both paths produce the same factorization up to rounding.

#include <span>

#include "la/matrix.hpp"

namespace pitk::la {

/// In-place Householder QR of `a` (any shape, including rows < cols).
/// `tau` must have size >= min(a.rows(), a.cols()).
void qr_factor(MatrixView a, std::span<double> tau);

/// Apply Q^T (from a previous qr_factor of `a`) to `b` in place.
/// `b` must have a.rows() rows.  No-op when b has zero columns.
void qr_apply_qt(ConstMatrixView a, std::span<const double> tau, MatrixView b);

/// Apply Q (not transposed) to `b` in place.
void qr_apply_q(ConstMatrixView a, std::span<const double> tau, MatrixView b);

/// Extract the R factor from a factored matrix, zero-padded to a square
/// cols x cols upper-triangular matrix.  Padding rows correspond to the
/// trivially-satisfied equations 0*u = 0 and keep downstream block shapes
/// uniform (see DESIGN.md section 3).
void qr_extract_r_square(ConstMatrixView a, MatrixView r);

/// Form the thin Q factor explicitly: a.rows() x min(a.rows(), a.cols()).
[[nodiscard]] Matrix qr_form_q(ConstMatrixView a, std::span<const double> tau);

/// Solve the full-column-rank least-squares problem min ||A x - b||_2.
/// Both arguments are consumed (factored / transformed in place).
[[nodiscard]] Vector qr_least_squares(Matrix a, Vector b);

/// Reusable workspace + convenience wrapper around qr_factor/qr_apply_qt for
/// the smoothers' hot loops: factors `m` and applies Q^T to `attached`
/// without allocating when capacity suffices.  On the blocked path each
/// panel's reflectors reach `attached` in the same gemm pass as the trailing
/// columns, so T is formed once per panel.
class QrScratch {
 public:
  /// Factor `m` in place and apply Q^T to `attached` (may be empty view).
  void factor_apply(MatrixView m, MatrixView attached);

 private:
  std::vector<double> tau_;
};

namespace detail {
/// Panel width nb of the blocked path.
inline constexpr index qr_block = 8;
/// Reflector count k = min(rows, cols) from which qr_factor, qr_apply_qt
/// and QrScratch::factor_apply take the blocked path (picked from the
/// qr_* series of bench/kernel_microbench).
inline constexpr index qr_blocked_min_cols = 24;

/// Test/benchmark hooks: factor `a` in place and apply Q^T to `attached`
/// (rows == a.rows(), or zero columns), forcing one code path regardless of
/// the dispatch above.  Same storage contract as qr_factor.
void qr_factor_unblocked(MatrixView a, std::span<double> tau, MatrixView attached = {});
void qr_factor_blocked(MatrixView a, std::span<double> tau, MatrixView attached = {});
}  // namespace detail

}  // namespace pitk::la
