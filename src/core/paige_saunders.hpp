#pragma once

/// \file paige_saunders.hpp
/// Sequential Paige-Saunders QR smoother (the paper's sequential QR baseline).
///
/// Streams through the steps once, orthogonally eliminating each state column
/// as soon as its successor's evolution rows arrive, producing a block
/// *bidiagonal* R factor (diagonal blocks R_ii and super-diagonal blocks
/// R_{i,i+1}) and the transformed right-hand side.  Back substitution then
/// yields the smoothed states; covariances come from sequential SelInv
/// (Algorithm 1 of the paper) applied to the bidiagonal R.
///
/// Like the paper's implementation (based on UltimateKalman), this smoother
/// needs no prior on the initial state, and supports rectangular H_i,
/// varying state dimensions and missing observations.

#include <span>

#include "kalman/model.hpp"

namespace pitk::kalman {

/// Block-bidiagonal R factor and transformed RHS of QR = U A.
struct BidiagonalFactor {
  std::vector<Matrix> diag;  ///< R_ii, square n_i x n_i (zero-padded if rank deficient)
  std::vector<Matrix> sup;   ///< R_{i,i+1}; entry k is empty
  std::vector<Vector> rhs;   ///< (Q^T U b)_i, length n_i
};

struct PaigeSaundersOptions {
  /// Compute cov(\hat u_i) with sequential SelInv.  false = the "NC" variant
  /// of the paper (used inside Gauss-Newton/LM nonlinear smoothers).
  bool compute_covariance = true;
};

/// Factor the problem; exposed separately for tests and for SelInv.
[[nodiscard]] BidiagonalFactor paige_saunders_factor(const Problem& p);

/// Factor into caller-owned storage, reusing its block capacity.  All scratch
/// (weighted blocks, stacked panels) is borrowed from the calling thread's
/// la::Workspace, so refactoring a same-shaped problem into a warm factor
/// performs zero heap allocations in the per-step sweep.
void paige_saunders_factor_into(const Problem& p, BidiagonalFactor& f);

/// Back substitution on a bidiagonal factor (the full pass below).
[[nodiscard]] std::vector<Vector> paige_saunders_solve(const BidiagonalFactor& f);

/// Outcome of a ranged pass (paige_saunders_solve_into, selinv_bidiagonal_into).
struct TruncatedPass {
  la::index updated_from = 0;  ///< lowest state index rewritten by the pass
  bool truncated = false;      ///< the decay bound stopped the pass early
};

/// Ranged back substitution into caller-owned storage (capacity-reusing; all
/// transients are borrowed from the calling thread's la::Workspace, so the
/// pass is allocation-free once `u` is warm).  u[from..k] is recomputed
/// exactly; what happens below `from` depends on `tol`:
///  - tol == 0 (the default) neglects nothing: back substitution continues
///    down to state 0, bit for bit the full pass whatever `from` is.
///  - tol > 0 is the streaming re-smooth.  `u` must hold the previous
///    solution of a factor whose blocks below `from` are unchanged (the
///    finalized prefix only appends).  Only the correction
///      delta_i = -R_ii^{-1} R_{i,i+1} delta_{i+1}
///    is propagated downward, stopping at the first i where
///      decay_amp[i] * ||delta_{i+1}||_2 <= tol.
///    decay_amp (IncrementalFilter::decay_amplification, at least `from`
///    entries) bounds the amplification of a correction across every window
///    of remaining blocks, so each state the pass skips is missing a
///    correction of 2-norm at most tol; it keeps its previous value.
/// Throws std::invalid_argument when `from` is outside [0, k], tol is
/// negative or NaN, or (tol > 0, from > 0) the seed or decay_amp is too short.
TruncatedPass paige_saunders_solve_into(const BidiagonalFactor& f, std::vector<Vector>& u,
                                        la::index from = 0,
                                        std::span<const double> decay_amp = {},
                                        double tol = 0.0);

/// Full smoother: factor + solve (+ covariances unless disabled).
[[nodiscard]] SmootherResult paige_saunders_smooth(const Problem& p,
                                                   const PaigeSaundersOptions& opts = {});

}  // namespace pitk::kalman
