#pragma once

/// \file oddeven.hpp
/// The Odd-Even parallel-in-time Kalman smoother — the paper's primary
/// contribution (Sections 3 and 4).
///
/// The smoother computes a QR factorization of a recursive odd-even
/// block-column permutation of the weighted least-squares matrix U A.  Each
/// reduction level finalizes the R rows of its even block columns with three
/// batches of small independent QR factorizations (perfectly parallel across
/// columns), and hands the odd columns — recompressed to O(n) rows — to the
/// next level.  Work is Theta(k n^3) like the sequential Paige-Saunders
/// algorithm (with a ~2x constant), span is Theta(log k * n log n).
///
/// Covariances come from the parallel odd-even SelInv (Algorithm 2): levels
/// are replayed bottom-up and all even rows of a level are processed
/// concurrently, each needing only S-blocks of adjacent odd columns already
/// produced by deeper levels.

#include <memory>
#include <span>
#include <vector>

#include "core/paige_saunders.hpp"
#include "kalman/model.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace pitk::kalman {

struct OddEvenOptions {
  /// Compute cov(\hat u_i) with parallel SelInv (Algorithm 2).  false is the
  /// paper's "NC" variant (for Levenberg-Marquardt nonlinear smoothing).
  bool compute_covariance = true;
  /// parallel_for grain: the TBB block-size parameter of Section 5.1
  /// (default 10, as in the paper).
  la::index grain = par::default_grain;
};

/// One finalized block row of the permuted R factor.  `col` is the original
/// state index of the diagonal block; `left`/`right` are the original state
/// indices of the off-diagonal coupling blocks (-1 when absent, with an
/// empty block).  Both neighbors are odd columns of this row's level, i.e.
/// they come later in the permuted ordering, so the row is genuinely upper
/// triangular.  The blocks are views into the owning factor's row slab.
struct OddEvenRow {
  la::index col = -1;
  la::index left = -1;
  la::index right = -1;
  la::ConstMatrixView R;         ///< n_col x n_col, upper triangular (zero-padded square)
  la::ConstMatrixView Eblk;      ///< n_col x n_left: R_{col,left}
  la::ConstMatrixView Yblk;      ///< n_col x n_right: R_{col,right}
  std::span<const double> rhs;   ///< transformed right-hand side rows of this block row
};

/// The rows finalized by one reduction level (its even columns).
struct OddEvenLevel {
  std::span<const OddEvenRow> rows;  ///< into the owning factor's row array
};

/// Complete odd-even factorization of U A P: all levels, top first.
///
/// Storage layout: the row blocks (R, Eblk, Yblk, rhs of every even column,
/// in that order) live back to back in one slab, one contiguous region per
/// level, placed by a serial prefix sum over shapes known before the
/// level's parallel pass, so the workers write in place and every block is
/// first touched by the worker that fills it.  The factor also owns the
/// reduction's working slabs (ping-pong column and leftover-row slabs).  A
/// refill through oddeven_factor_into reuses all of it, so refactoring a
/// same-shaped problem performs zero heap allocations; the by-value entry
/// points, whose factors are never refilled, release the working slabs
/// before returning.  Move-only: moving keeps the rows' views valid, a copy
/// could not.
class OddEvenFactor {
 public:
  std::vector<OddEvenLevel> levels;
  std::vector<la::index> dims;  ///< n_i per state

  OddEvenFactor();
  ~OddEvenFactor();
  OddEvenFactor(OddEvenFactor&&) noexcept;
  OddEvenFactor& operator=(OddEvenFactor&&) noexcept;
  OddEvenFactor(const OddEvenFactor&) = delete;
  OddEvenFactor& operator=(const OddEvenFactor&) = delete;

  [[nodiscard]] la::index num_states() const noexcept {
    return static_cast<la::index>(dims.size());
  }

  /// Free the reduction's working slabs (about as large as the rows
  /// themselves); the rows stay valid and the next refill reallocates them.
  void release_working_storage() noexcept;

  /// Level slabs and reduction working storage (defined in oddeven.cpp).
  struct Storage;

 private:
  friend void oddeven_factor_into(const Problem&, par::ThreadPool&, la::index, OddEvenFactor&);
  friend void oddeven_factor_from_bidiagonal_into(const BidiagonalFactor&, par::ThreadPool&,
                                                  la::index, OddEvenFactor&);
  std::unique_ptr<Storage> storage_;
};

/// Reusable per-state S-block storage for the odd-even SelInv replay
/// (Algorithm 2).  The diagonal and cross blocks of every state live here
/// across the level loop; keeping one scratch warm across covariance passes
/// lets a repeat pass over a same-shaped factor run with zero heap
/// allocations (blocks reuse their capacity, transients are per-thread
/// la::Workspace borrows).  One scratch per concurrent solve — never share
/// across jobs in flight.
struct OddEvenCovScratch {
  struct Slot {
    const OddEvenRow* row = nullptr;  ///< the R row whose diagonal is this state
    Matrix diag;                      ///< S_{col,col}
    Matrix s_left;                    ///< S_{col,left}
    Matrix s_right;                   ///< S_{col,right}
  };
  std::vector<Slot> slots;
};

/// Factor the problem (parallel across block columns within each level)
/// into `f`, reusing its storage: a warm `f` of a same-shaped problem is
/// refilled without heap traffic.  On an exception `f` is left empty.
void oddeven_factor_into(const Problem& p, par::ThreadPool& pool, la::index grain,
                         OddEvenFactor& f);

[[nodiscard]] OddEvenFactor oddeven_factor(const Problem& p, par::ThreadPool& pool,
                                           la::index grain = par::default_grain);

/// Factor an already-compressed block-bidiagonal system — e.g. a streaming
/// session's spliced prefix (IncrementalFilter::finished_prefix() plus the
/// compressed live block).  Row block i of `b` covers columns (i, i+1) and
/// enters the top level as the evolution rows of column i+1 (E = R_ii,
/// D = R_{i,i+1}); the last diagonal block becomes the final column's local
/// rows.  Because the bidiagonal rows are an orthogonal transform of the
/// original weighted problem rows, this solves the same least-squares
/// system: means and SelInv covariances agree with back substitution on `b`
/// to backend tolerance, and a long session's re-smooth gets the
/// intra-parallel solver without re-paying the sequential elimination of the
/// raw O(k (n+m)) rows.  Storage reuse as in oddeven_factor_into.
void oddeven_factor_from_bidiagonal_into(const BidiagonalFactor& b, par::ThreadPool& pool,
                                         la::index grain, OddEvenFactor& f);

[[nodiscard]] OddEvenFactor oddeven_factor_from_bidiagonal(const BidiagonalFactor& b,
                                                           par::ThreadPool& pool,
                                                           la::index grain = par::default_grain);

/// Back substitution: levels in reverse, all rows of a level in parallel.
[[nodiscard]] std::vector<Vector> oddeven_solve(const OddEvenFactor& f, par::ThreadPool& pool,
                                                la::index grain = par::default_grain);

/// Back substitution into caller-owned storage (capacity-reusing: a warm
/// `sol` of matching shape is refilled without heap traffic).
void oddeven_solve_into(const OddEvenFactor& f, par::ThreadPool& pool, la::index grain,
                        std::vector<Vector>& sol);

/// Parallel odd-even SelInv (Algorithm 2): cov(\hat u_i) for every state.
[[nodiscard]] std::vector<Matrix> oddeven_covariances(const OddEvenFactor& f,
                                                      par::ThreadPool& pool,
                                                      la::index grain = par::default_grain);

/// SelInv replay into caller-owned storage through a reusable scratch; with
/// both warm, a repeat pass performs zero heap allocations.
void oddeven_covariances_into(const OddEvenFactor& f, par::ThreadPool& pool, la::index grain,
                              OddEvenCovScratch& scratch, std::vector<Matrix>& out);

/// The full smoother: factor + solve (+ covariances unless disabled).
[[nodiscard]] SmootherResult oddeven_smooth(const Problem& p, par::ThreadPool& pool,
                                            const OddEvenOptions& opts = {});

}  // namespace pitk::kalman
