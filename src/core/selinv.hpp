#pragma once

/// \file selinv.hpp
/// Sequential block SelInv (Algorithm 1 of the paper).
///
/// Computes the diagonal blocks of S = (R^T R)^{-1} for the block-bidiagonal
/// R produced by the Paige-Saunders sweep; these are exactly cov(\hat u_i)
/// (Section 4).  The paper's mapping onto the Lin et al. LDL^T SelInv is
///   D_ii = R_ii^T R_ii,   L_ii = I,   L_ij = R_ji^T R_jj^{-T},
/// which turns the selected-inversion recurrences into operations on R's
/// blocks only:
///   S_{j,I} = -R_jj^{-1} R_{j,I} S_{I,I}
///   S_jj    =  R_jj^{-1} R_jj^{-T} - S_{j,I} (R_jj^{-1} R_{j,I})^T
/// with I = {j+1} in the bidiagonal case.

#include "core/paige_saunders.hpp"
#include "kalman/model.hpp"
#include "la/workspace.hpp"

namespace pitk::kalman {

/// cov(\hat u_i) for every state from a bidiagonal factor (Algorithm 1).
[[nodiscard]] std::vector<Matrix> selinv_bidiagonal(const BidiagonalFactor& f);

/// Ranged SelInv into caller-owned storage, reusing each block's capacity.
/// All per-state transients (W, the off-diagonal S block, the triangular
/// inverse, the correction) are borrowed from the calling thread's
/// la::Workspace, so a repeat pass with warm `s` performs zero heap
/// allocations.  Same contract as paige_saunders_solve_into: s[from..k] is
/// recomputed exactly (the recurrence restarts at the last block); tol == 0
/// (the default) continues the exact recurrence down to state 0, bit for bit
/// the full pass.  tol > 0 needs `s` to hold the previous covariances of a
/// factor whose blocks below `from` are unchanged, and applies only the
/// correction
///   Delta_j = W_j Delta_{j+1} W_j^T,   W_j = R_jj^{-1} R_{j,j+1}
/// downward, stopping at the first j where
///   decay_amp[j]^2 * ||Delta_{j+1}||_F <= tol
/// (squared: the covariance recurrence applies W on both sides), so each
/// skipped state's covariance is missing a correction of Frobenius norm at
/// most tol.
TruncatedPass selinv_bidiagonal_into(const BidiagonalFactor& f, std::vector<Matrix>& s,
                                     la::index from = 0,
                                     std::span<const double> decay_amp = {},
                                     double tol = 0.0);

/// Helper shared by both SelInv variants: R^{-1} R^{-T} for an upper
/// triangular R (the "diagonal source" term of the recurrence).
[[nodiscard]] Matrix tri_inv_gram(la::ConstMatrixView r);

/// R^{-1} R^{-T} written into `out` (same order as r); the triangular
/// inverse is staged in a borrow from `scope` and the product runs through
/// the blocked trmm_left path (half the flops of the dense gemm form).
void tri_inv_gram_into(la::ConstMatrixView r, la::MatrixView out, la::Workspace::Scope& scope);

}  // namespace pitk::kalman
