#include "core/oddeven.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/selinv.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "la/slab.hpp"
#include "la/triangular.hpp"
#include "la/workspace.hpp"

namespace pitk::kalman {

using la::ConstMatrixView;
using la::index;
using la::MatrixView;
using la::Trans;

struct OddEvenFactor::Storage {
  /// Working state of one block column at the current reduction level.  A
  /// reduced level's blocks are views into a column slab (local rows) and
  /// into the previous level's leftover slab (evolution rows).  The top
  /// level is never stored: built from a bidiagonal factor it views the
  /// input's blocks, built from a problem it holds shapes only (see
  /// column()).
  struct Col {
    index col = -1;  ///< original state index
    index n = 0;     ///< state dimension
    ConstMatrixView C;  ///< local rows (r x n, r may be 0)
    std::span<const double> crhs;  ///< r
    bool has_evo = false;
    ConstMatrixView E;  ///< evolution rows, previous column's block (l x n_prev)
    ConstMatrixView D;  ///< evolution rows, own block (l x n)
    std::span<const double> erhs;  ///< l
  };

  /// Per-even-position leftovers of one reduction step (views into the
  /// level's leftover slab), plus where the position's blocks start.
  struct Even {
    index row_off = 0;   ///< into the factor's row blocks
    index left_off = 0;  ///< into the level's leftover slab
    index col_off = 0;   ///< odd column 2j+1's local rows, into the reduced level's slab
    // Phase-A leftover rows for the right neighbor's local block.
    MatrixView dtil;
    std::span<double> dtil_rhs;
    // Phase-B leftover rows: [Z | Xtil] evolution row for the reduced level
    // (Xtil empty for the last even position; Z then joins the left
    // neighbor's local block instead).
    MatrixView z;
    MatrixView xtil;
    std::span<double> z_rhs;
  };

  /// Every level's row blocks, level after level, and every level's row
  /// descriptors (each state is the diagonal of exactly one row).
  la::SlabVector<double> row_blocks;
  la::SlabVector<OddEvenRow> rows;

  /// The reduction's working storage: dead once the factor is built, kept
  /// only so that a refill reuses it.
  struct Work {
    /// Two regions: the top level's k+1 columns, then room for (k+1)/2
    /// more.  Level L lives in region L % 2, so a level is read while the
    /// one it reduces to is written (each level at most halves).
    la::SlabVector<Col> cols;
    /// Local rows of the reduced levels, by level parity.
    la::SlabVector<double> col_slabs[2];
    la::SlabVector<Even> evens;
    /// Leftover rows by level parity: a level's are written while the
    /// previous level's are still read as the current columns' evolution
    /// rows.
    la::SlabVector<double> leftover_slabs[2];
  } work;
};

OddEvenFactor::OddEvenFactor() = default;
OddEvenFactor::~OddEvenFactor() = default;
OddEvenFactor::OddEvenFactor(OddEvenFactor&&) noexcept = default;
OddEvenFactor& OddEvenFactor::operator=(OddEvenFactor&&) noexcept = default;

void OddEvenFactor::release_working_storage() noexcept {
  if (storage_) storage_->work = Storage::Work{};
}

namespace {

using ColState = OddEvenFactor::Storage::Col;
using EvenOut = OddEvenFactor::Storage::Even;

/// Slab offsets are rounded up to whole cache lines so that no two
/// positions' blocks share one (workers fill neighboring positions).
index line_round(index doubles) {
  constexpr index line = static_cast<index>(la::cache_line_bytes / sizeof(double));
  return (doubles + line - 1) / line * line;
}

/// Hands out consecutive blocks of a slab region.
struct Carve {
  double* p;
  MatrixView mat(index rows, index cols) {
    MatrixView v(p, rows, cols, rows);
    p += rows * cols;
    return v;
  }
  std::span<double> vec(index n) {
    std::span<double> v(p, static_cast<std::size_t>(n));
    p += n;
    return v;
  }
};

/// Copy the top min(avail, dst.rows()) rows of src into dst, zero-padding.
void copy_top_padded(ConstMatrixView src, MatrixView dst) {
  dst.set_zero();
  const index take = std::min(src.rows(), dst.rows());
  for (index j = 0; j < dst.cols(); ++j)
    for (index i = 0; i < take; ++i) dst(i, j) = src(i, j);
}

void copy_top_padded(std::span<const double> src, index avail, std::span<double> dst) {
  const index take = std::min<index>(avail, static_cast<index>(dst.size()));
  for (index i = 0; i < take; ++i) dst[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(i)];
  for (index i = take; i < static_cast<index>(dst.size()); ++i) dst[static_cast<std::size_t>(i)] = 0.0;
}

/// Shapes of the blocks one even position produces: its R row and its
/// Phase-A/Phase-B leftover rows.
struct EvenShape {
  index n = 0;        ///< own dimension
  index n_left = 0;   ///< left neighbor's dimension (0 at position 0)
  index n_right = 0;  ///< right neighbor's dimension (0 at the last position)
  index l = 0;        ///< own evolution rows, all left over by Phase B
  index dtil = 0;     ///< Phase-A leftover rows: max(0, r + l_right - n)

  [[nodiscard]] index row_doubles() const { return n * (n + n_left + n_right + 1); }
  [[nodiscard]] index leftover_doubles() const {
    return dtil * (n_right + 1) + l * (n_left + n_right + 1);
  }
};

EvenShape even_shape(std::span<const ColState> level, index pos) {
  const index last = static_cast<index>(level.size()) - 1;
  const ColState& cs = level[static_cast<std::size_t>(pos)];
  EvenShape s;
  s.n = cs.n;
  if (cs.has_evo) {
    s.n_left = cs.E.cols();
    s.l = cs.D.rows();
  }
  if (pos < last) {
    const ColState& nx = level[static_cast<std::size_t>(pos + 1)];
    s.n_right = nx.n;
    s.dtil = std::max<index>(0, cs.C.rows() + nx.E.rows() - s.n);
  }
  return s;
}

/// Rows the odd position `pos` stacks before recompression: the Phase-A
/// leftover of its left even neighbor, its own local rows, and (for the last
/// odd position when the level ends even) the Phase-B leftover of the last
/// even position.
index odd_stacked_rows(std::span<const ColState> level, std::span<const EvenOut> evens,
                       index pos) {
  const index last = static_cast<index>(level.size()) - 1;
  index rows = evens[static_cast<std::size_t>((pos - 1) / 2)].dtil.rows() +
               level[static_cast<std::size_t>(pos)].C.rows();
  if (pos + 1 == last && last % 2 == 0)
    rows += evens[static_cast<std::size_t>((pos + 1) / 2)].z.rows();
  return rows;
}

/// A top-level block known by its shape only (see column()).
ConstMatrixView shape_only(index rows, index cols) { return {nullptr, rows, cols, rows}; }

/// Column `pos` of `level` with readable blocks.  A top level built from a
/// problem (`p` non-null) holds shapes only: the step's weighted blocks are
/// formed here, as borrows from `scope`, by the worker that consumes them.
ColState column(std::span<const ColState> level, index pos, const Problem* p,
                la::Workspace::Scope& scope) {
  ColState cs = level[static_cast<std::size_t>(pos)];
  if (p == nullptr) return cs;
  WeightedStepView w = weigh_step_into(p->step(cs.col), scope);
  cs.C = w.C;
  cs.crhs = w.ow;
  if (cs.has_evo) {
    la::scale(-1.0, w.B);  // the matrix block is -B_i
    cs.E = w.B;
    cs.D = w.D;
    cs.erhs = w.cw;
  }
  return cs;
}

/// Phases A and B for the even position `pos` of the current level
/// (Section 3's two batches of 2-block-row QR factorizations).  The row's
/// blocks are written to `row_mem`, the leftover rows to `left_mem`; `top`
/// is the problem a shapes-only top level is weighed from.
void reduce_even(std::span<const ColState> level, index pos, const Problem* top,
                 double* row_mem, double* left_mem, OddEvenRow& row, EvenOut& out) {
  const index last = static_cast<index>(level.size()) - 1;
  const EvenShape sh = even_shape(level, pos);
  const index n = sh.n;
  const index n_left = sh.n_left;
  const index n_right = sh.n_right;
  const bool has_right = pos < last;

  static thread_local la::QrScratch scratch;
  la::Workspace::Scope scope(la::tls_workspace());
  const ColState cs = column(level, pos, top, scope);

  Carve rc{row_mem};
  const MatrixView r_blk = rc.mat(n, n);
  const MatrixView e_blk = rc.mat(n, n_left);
  const MatrixView y_blk = rc.mat(n, n_right);
  const std::span<double> rhs_blk = rc.vec(n);
  row = OddEvenRow{};
  row.col = cs.col;
  row.R = r_blk;
  row.rhs = rhs_blk;
  if (cs.has_evo) {
    row.left = level[static_cast<std::size_t>(pos - 1)].col;
    row.Eblk = e_blk;
  }
  if (has_right) {
    row.right = level[static_cast<std::size_t>(pos + 1)].col;
    row.Yblk = y_blk;
  }
  Carve lc{left_mem};
  out.dtil = lc.mat(sh.dtil, n_right);
  out.dtil_rhs = lc.vec(sh.dtil);
  out.z = lc.mat(sh.l, n_left);
  out.xtil = lc.mat(sh.l, n_right);
  out.z_rhs = lc.vec(sh.l);

  // ---- Phase A: QR of [C_pos; E_{pos+1}], Q^T applied to [0; D_{pos+1}]
  // and the stacked right-hand side.  All staging panels are arena borrows.
  MatrixView rtil = scope.mat(n, n);  // \tilde R_pos, zero-padded square
  MatrixView x;                       // fill block X_pos (n x n_right)
  std::span<double> rtil_rhs = scope.vec(n);
  if (has_right) {
    const ColState nx = column(level, pos + 1, top, scope);
    const index r = cs.C.rows();
    const index l = nx.E.rows();
    MatrixView m = scope.mat(r + l, n);
    if (r > 0) m.block(0, 0, r, n).assign(cs.C);
    m.block(r, 0, l, n).assign(nx.E);
    // attached = [ 0 | rhs_top ; D_{pos+1} | rhs_bot ].
    MatrixView att = scope.mat(r + l, n_right + 1);
    att.block(r, 0, l, n_right).assign(nx.D);
    for (index q = 0; q < r; ++q) att(q, n_right) = cs.crhs[static_cast<std::size_t>(q)];
    for (index q = 0; q < l; ++q) att(r + q, n_right) = nx.erhs[static_cast<std::size_t>(q)];

    scratch.factor_apply(m, att);

    la::qr_extract_r_square(m, rtil);
    x = scope.mat(n, n_right);
    copy_top_padded(att.block(0, 0, att.rows(), n_right), x);
    copy_top_padded(att.col_span(n_right), std::min(att.rows(), n), rtil_rhs);
    if (sh.dtil > 0) out.dtil.assign(att.block(n, 0, sh.dtil, n_right));
    for (index q = 0; q < sh.dtil; ++q)
      out.dtil_rhs[static_cast<std::size_t>(q)] = att(n + q, n_right);
  } else {
    // Last even position: nothing to pair with; compress C alone.
    const index r = cs.C.rows();
    MatrixView m = scope.mat(r, n);
    m.assign(cs.C);
    std::span<double> rhs = scope.vec(r);
    copy_top_padded(cs.crhs, r, rhs);
    scratch.factor_apply(m, la::MatrixView(rhs.data(), r, 1, r));
    la::qr_extract_r_square(m, rtil);
    copy_top_padded(rhs, std::min(r, n), rtil_rhs);
    // Rows beyond n are pure residual (zero matrix entries) and are dropped.
  }

  // ---- Phase B: QR of [D_pos; \tilde R_pos], Q^T applied to [E_pos 0; 0 X]
  // and the stacked right-hand side.
  if (cs.has_evo) {
    const index l = sh.l;
    MatrixView m2 = scope.mat(l + n, n);
    m2.block(0, 0, l, n).assign(cs.D);
    m2.block(l, 0, n, n).assign(rtil);
    MatrixView att2 = scope.mat(l + n, n_left + n_right + 1);
    att2.block(0, 0, l, n_left).assign(cs.E);
    if (n_right > 0) att2.block(l, n_left, n, n_right).assign(x);
    for (index q = 0; q < l; ++q) att2(q, n_left + n_right) = cs.erhs[static_cast<std::size_t>(q)];
    for (index q = 0; q < n; ++q) att2(l + q, n_left + n_right) = rtil_rhs[static_cast<std::size_t>(q)];

    scratch.factor_apply(m2, att2);

    la::qr_extract_r_square(m2, r_blk);
    copy_top_padded(att2.block(0, 0, att2.rows(), n_left), e_blk);
    if (n_right > 0) copy_top_padded(att2.block(0, n_left, att2.rows(), n_right), y_blk);
    copy_top_padded(att2.col_span(n_left + n_right), att2.rows(), rhs_blk);

    // Leftover evolution rows (exactly l of them).
    out.z.assign(att2.block(n, 0, l, n_left));
    if (n_right > 0) out.xtil.assign(att2.block(n, n_left, l, n_right));
    for (index q = 0; q < l; ++q)
      out.z_rhs[static_cast<std::size_t>(q)] = att2(n + q, n_left + n_right);
  } else {
    // Position 0: Phase A already produced the final row.
    r_blk.assign(rtil);
    std::copy(rtil_rhs.begin(), rtil_rhs.end(), rhs_blk.begin());
    if (n_right > 0) y_blk.assign(x);
  }
}

/// Phase C: build the reduced-level column for odd position `pos` by
/// stacking its odd_stacked_rows, then recompressing by QR when taller than
/// n.  The column's local rows are written to `mem` (min(rows, n) * (n + 1)
/// doubles); its evolution rows stay where the left even position's Phase B
/// left them.
void reduce_odd(std::span<const ColState> level, std::span<const EvenOut> evens,
                index pos, const Problem* top, double* mem, ColState& out) {
  const index last = static_cast<index>(level.size()) - 1;
  la::Workspace::Scope scope(la::tls_workspace());
  const ColState cs = column(level, pos, top, scope);
  const EvenOut& leftev = evens[static_cast<std::size_t>((pos - 1) / 2)];
  const index n = cs.n;

  const EvenOut* extra = nullptr;
  if (pos + 1 == last && last % 2 == 0) {
    // The level ends on an even position whose Z-leftover has no D part; it
    // is additional local information about this (its left) column.
    extra = &evens[static_cast<std::size_t>((pos + 1) / 2)];
  }

  const index r_d = leftev.dtil.rows();
  const index r_c = cs.C.rows();
  const index r_x = extra ? extra->z.rows() : 0;
  const index rows = r_d + r_c + r_x;
  MatrixView m = scope.mat(rows, n);
  std::span<double> rhs = scope.vec(rows);
  if (r_d > 0) {
    m.block(0, 0, r_d, n).assign(leftev.dtil);
    std::copy(leftev.dtil_rhs.begin(), leftev.dtil_rhs.end(), rhs.begin());
  }
  if (r_c > 0) {
    m.block(r_d, 0, r_c, n).assign(cs.C);
    std::copy(cs.crhs.begin(), cs.crhs.end(), rhs.begin() + r_d);
  }
  if (r_x > 0) {
    m.block(r_d + r_c, 0, r_x, n).assign(extra->z);
    std::copy(extra->z_rhs.begin(), extra->z_rhs.end(), rhs.begin() + r_d + r_c);
  }

  const index kept = std::min(rows, n);
  Carve c{mem};
  const MatrixView c_blk = c.mat(kept, n);
  const std::span<double> crhs_blk = c.vec(kept);
  if (rows > n) {
    // Restore the O(n)-row invariant (the paper's step 3).
    static thread_local la::QrScratch scratch;
    scratch.factor_apply(m, la::MatrixView(rhs.data(), rows, 1, rows));
    la::qr_extract_r_square(m, c_blk);
    copy_top_padded(rhs, kept, crhs_blk);
  } else {
    c_blk.assign(m);
    std::copy(rhs.begin(), rhs.end(), crhs_blk.begin());
  }
  out = ColState{};
  out.col = cs.col;
  out.n = n;
  out.C = c_blk;
  out.crhs = crhs_blk;
  // The reduced level's evolution row for this column (absent for the first
  // odd position) is the Phase-B leftover of the even position to our left.
  if (pos >= 2) {
    out.has_evo = true;
    out.E = leftev.z;
    out.D = leftev.xtil;
    out.erhs = leftev.z_rhs;
  }
}

/// Doubles for every level's row blocks.  Each state is the diagonal of
/// exactly one row, whose neighbors are states too, so this bound needs no
/// walk of the reduction tree; capacity past the rows actually placed is
/// never touched and costs no memory.
index row_blocks_bound(std::span<const index> dims) {
  const index max_n = dims.empty() ? 0 : *std::max_element(dims.begin(), dims.end());
  index total = 0;
  for (const index n : dims) total += line_round(n * (n + 2 * max_n + 1));
  return total;
}

/// The reduction shared by every factorization entry point: consume the top
/// level in region 0 of `st.work.cols` (shapes only when `top` is given, see
/// column()) and produce the complete factor into `f`.  Each level places
/// its blocks by a serial prefix sum over shapes known before the parallel
/// pass, then the workers fill them in place.
void reduce_levels(OddEvenFactor::Storage& st, OddEvenFactor& f, par::ThreadPool& pool,
                   index grain, const Problem* top) {
  const index states = f.num_states();
  std::size_t num_levels = 1;
  for (index size = states; size > 1; size /= 2) ++num_levels;
  f.levels.resize(num_levels);
  st.rows.resize(static_cast<std::size_t>(states));
  double* const row_blocks =
      la::refill(st.row_blocks, static_cast<std::size_t>(row_blocks_bound(f.dims)));

  std::span<ColState> level(st.work.cols.data(), static_cast<std::size_t>(states));
  index row_used = 0;   // doubles of row_blocks placed so far
  index row_first = 0;  // first row descriptor of the current level
  std::size_t lvl = 0;
  for (; level.size() > 1; ++lvl) {
    const index size = static_cast<index>(level.size());
    const index n_even = (size + 1) / 2;
    const index n_odd = size / 2;
    const Problem* lazy = lvl == 0 ? top : nullptr;
    const std::span<OddEvenRow> rows(st.rows.data() + row_first, static_cast<std::size_t>(n_even));
    f.levels[lvl].rows = rows;

    st.work.evens.resize(static_cast<std::size_t>(n_even));
    index left_total = 0;
    for (index e = 0; e < n_even; ++e) {
      const EvenShape sh = even_shape(level, 2 * e);
      EvenOut& ev = st.work.evens[static_cast<std::size_t>(e)];
      ev.row_off = row_used;
      ev.left_off = left_total;
      row_used += line_round(sh.row_doubles());
      left_total += line_round(sh.leftover_doubles());
    }
    assert(row_used <= static_cast<index>(st.row_blocks.size()));
    double* left_mem =
        la::refill(st.work.leftover_slabs[lvl % 2], static_cast<std::size_t>(left_total));
    par::parallel_for(pool, 0, n_even, grain, [&](index e) {
      EvenOut& ev = st.work.evens[static_cast<std::size_t>(e)];
      reduce_even(level, 2 * e, lazy, row_blocks + ev.row_off, left_mem + ev.left_off,
                  rows[static_cast<std::size_t>(e)], ev);
    });

    const std::span<ColState> reduced(st.work.cols.data() + (lvl % 2 == 0 ? states : 0),
                                      static_cast<std::size_t>(n_odd));
    index col_total = 0;
    for (index j = 0; j < n_odd; ++j) {
      const index pos = 2 * j + 1;
      const index n = level[static_cast<std::size_t>(pos)].n;
      st.work.evens[static_cast<std::size_t>(j)].col_off = col_total;
      col_total +=
          line_round(std::min(odd_stacked_rows(level, st.work.evens, pos), n) * (n + 1));
    }
    double* col_mem =
        la::refill(st.work.col_slabs[(lvl + 1) % 2], static_cast<std::size_t>(col_total));
    par::parallel_for(pool, 0, n_odd, grain, [&](index j) {
      reduce_odd(level, st.work.evens, 2 * j + 1, lazy,
                 col_mem + st.work.evens[static_cast<std::size_t>(j)].col_off,
                 reduced[static_cast<std::size_t>(j)]);
    });

    level = reduced;
    row_first += n_even;
  }

  // Base case: a single remaining column.
  la::Workspace::Scope scope(la::tls_workspace());
  const ColState cs = column(level, 0, lvl == 0 ? top : nullptr, scope);
  const index r = cs.C.rows();
  MatrixView m = scope.mat(r, cs.n);
  m.assign(cs.C);
  std::span<double> rhs = scope.vec(r);
  std::copy(cs.crhs.begin(), cs.crhs.end(), rhs.begin());
  static thread_local la::QrScratch scratch;
  scratch.factor_apply(m, la::MatrixView(rhs.data(), r, 1, r));
  assert(row_used + cs.n * (cs.n + 1) <= static_cast<index>(st.row_blocks.size()));
  Carve c{row_blocks + row_used};
  const MatrixView r_blk = c.mat(cs.n, cs.n);
  const std::span<double> rhs_blk = c.vec(cs.n);
  la::qr_extract_r_square(m, r_blk);
  copy_top_padded(rhs, std::min(r, cs.n), rhs_blk);
  OddEvenRow& row = st.rows[static_cast<std::size_t>(row_first)];
  row = OddEvenRow{};
  row.col = cs.col;
  row.R = r_blk;
  row.rhs = rhs_blk;
  f.levels[lvl].rows = std::span<const OddEvenRow>(&row, 1);
}

/// Run `fill` (which validates the input, places the top level and reduces
/// it) against `f`'s storage; on an exception `f` is left empty rather than
/// holding views into a slab that may have been released.
template <class Fill>
void fill_factor(OddEvenFactor& f, std::unique_ptr<OddEvenFactor::Storage>& storage, Fill fill) {
  if (!storage) storage = std::make_unique<OddEvenFactor::Storage>();
  try {
    fill(*storage);
  } catch (...) {
    f.levels.clear();
    f.dims.clear();
    throw;
  }
}

}  // namespace

void oddeven_factor_into(const Problem& p, par::ThreadPool& pool, index grain,
                         OddEvenFactor& f) {
  const index k = p.last_index();
  fill_factor(f, f.storage_, [&](OddEvenFactor::Storage& st) {
    if (auto err = p.validate(true)) throw std::invalid_argument("oddeven_factor: " + *err);
    f.dims.resize(static_cast<std::size_t>(k + 1));
    st.work.cols.resize(static_cast<std::size_t>(k + 1 + (k + 1) / 2));
    // One column per state, by shape: its weighted observation rows C and
    // evolution rows [-B_i D_i] are formed where they are consumed.
    for (index i = 0; i <= k; ++i) {
      const TimeStep& s = p.step(i);
      f.dims[static_cast<std::size_t>(i)] = s.n;
      ColState& cs = st.work.cols[static_cast<std::size_t>(i)];
      cs = ColState{};
      cs.col = i;
      cs.n = s.n;
      cs.C = shape_only(s.obs_rows(), s.n);
      if (i > 0) {
        cs.has_evo = true;
        cs.E = shape_only(s.evo_rows(), f.dims[static_cast<std::size_t>(i - 1)]);
        cs.D = shape_only(s.evo_rows(), s.n);
      }
    }
    reduce_levels(st, f, pool, grain, &p);
  });
}

OddEvenFactor oddeven_factor(const Problem& p, par::ThreadPool& pool, index grain) {
  OddEvenFactor f;
  oddeven_factor_into(p, pool, grain, f);
  f.release_working_storage();
  return f;
}

void oddeven_factor_from_bidiagonal_into(const BidiagonalFactor& b, par::ThreadPool& pool,
                                         index grain, OddEvenFactor& f) {
  const index k = static_cast<index>(b.diag.size()) - 1;
  auto dim = [&](index i) { return b.diag[static_cast<std::size_t>(i)].rows(); };
  auto validate = [&] {
    if (k < 0 || b.sup.size() != b.diag.size() || b.rhs.size() != b.diag.size())
      throw std::invalid_argument("oddeven_factor_from_bidiagonal: malformed factor");
    for (index i = 0; i <= k; ++i) {
      const Matrix& d = b.diag[static_cast<std::size_t>(i)];
      if (d.rows() <= 0 || d.rows() != d.cols() ||
          b.rhs[static_cast<std::size_t>(i)].size() != d.rows())
        throw std::invalid_argument("oddeven_factor_from_bidiagonal: malformed diagonal block");
    }
    for (index i = 0; i < k; ++i) {
      const Matrix& sp = b.sup[static_cast<std::size_t>(i)];
      if (sp.rows() != dim(i) || sp.cols() != dim(i + 1))
        throw std::invalid_argument("oddeven_factor_from_bidiagonal: malformed coupling block");
    }
  };

  // Row block i of the bidiagonal factor is [R_ii | R_{i,i+1}] = rhs_i over
  // columns (i, i+1): it enters the top level as the evolution rows of
  // column i+1 (E = R_ii, D = R_{i,i+1}), and the final diagonal block — the
  // session's compressed live state — as the last column's local rows.  The
  // bidiagonal rows are an orthogonal transform of the original weighted
  // problem rows, so the reduction solves the same least-squares system: the
  // odd-even pass re-eliminates only the already-compressed O(k n) rows
  // instead of re-weighing the raw problem.
  fill_factor(f, f.storage_, [&](OddEvenFactor::Storage& st) {
    validate();
    f.dims.resize(static_cast<std::size_t>(k + 1));
    st.work.cols.resize(static_cast<std::size_t>(k + 1 + (k + 1) / 2));
    for (index i = 0; i <= k; ++i) {
      f.dims[static_cast<std::size_t>(i)] = dim(i);
      ColState& cs = st.work.cols[static_cast<std::size_t>(i)];
      cs = ColState{};
      cs.col = i;
      cs.n = dim(i);
      cs.C = shape_only(0, cs.n);
      if (i == k) {
        cs.C = b.diag[static_cast<std::size_t>(i)].view();
        cs.crhs = b.rhs[static_cast<std::size_t>(i)].span();
      }
      if (i > 0) {
        cs.has_evo = true;
        cs.E = b.diag[static_cast<std::size_t>(i - 1)].view();
        cs.D = b.sup[static_cast<std::size_t>(i - 1)].view();
        cs.erhs = b.rhs[static_cast<std::size_t>(i - 1)].span();
      }
    }
    reduce_levels(st, f, pool, grain, nullptr);
  });
}

OddEvenFactor oddeven_factor_from_bidiagonal(const BidiagonalFactor& b, par::ThreadPool& pool,
                                             index grain) {
  OddEvenFactor f;
  oddeven_factor_from_bidiagonal_into(b, pool, grain, f);
  f.release_working_storage();
  return f;
}

std::vector<Vector> oddeven_solve(const OddEvenFactor& f, par::ThreadPool& pool, index grain) {
  std::vector<Vector> sol;
  oddeven_solve_into(f, pool, grain, sol);
  return sol;
}

void oddeven_solve_into(const OddEvenFactor& f, par::ThreadPool& pool, index grain,
                        std::vector<Vector>& sol) {
  sol.resize(static_cast<std::size_t>(f.num_states()));
  for (index lev = static_cast<index>(f.levels.size()) - 1; lev >= 0; --lev) {
    const auto& rows = f.levels[static_cast<std::size_t>(lev)].rows;
    par::parallel_for(pool, 0, static_cast<index>(rows.size()), grain, [&](index ri) {
      const OddEvenRow& row = rows[static_cast<std::size_t>(ri)];
      // Each state is the diagonal of exactly one row across all levels, so
      // writing in place is race-free; neighbors were solved by deeper levels.
      Vector& x = sol[static_cast<std::size_t>(row.col)];
      x.assign_from(row.rhs);
      if (row.left >= 0)
        la::gemv(-1.0, row.Eblk, Trans::No, sol[static_cast<std::size_t>(row.left)].span(),
                 1.0, x.span());
      if (row.right >= 0)
        la::gemv(-1.0, row.Yblk, Trans::No,
                 sol[static_cast<std::size_t>(row.right)].span(), 1.0, x.span());
      la::trsv(la::Uplo::Upper, Trans::No, la::Diag::NonUnit, row.R, x.span());
    });
  }
}

namespace {

/// S_{a,b} for a < b, both already processed, copied into a borrowed `dst`
/// (n_a x n_b): stored either as a's right cross block or as the transpose
/// of b's left cross block (one of the two rows necessarily lists the other
/// column as its neighbor).
void copy_cross_into(const std::vector<OddEvenCovScratch::Slot>& cov, index a, index b,
                     MatrixView dst) {
  const OddEvenCovScratch::Slot& ca = cov[static_cast<std::size_t>(a)];
  if (ca.row != nullptr && ca.row->right == b) {
    dst.assign(ca.s_right.view());
    return;
  }
  const OddEvenCovScratch::Slot& cb = cov[static_cast<std::size_t>(b)];
  assert(cb.row != nullptr && cb.row->left == a);
  for (index j = 0; j < dst.cols(); ++j)
    for (index i = 0; i < dst.rows(); ++i) dst(i, j) = cb.s_left(j, i);
}

/// Algorithm 2 proper: replay the levels bottom-up, leaving every state's
/// diagonal (and cross) S-blocks in `scratch`.  All transients are
/// per-thread workspace borrows; scratch blocks reuse their capacity.
void oddeven_cov_pass(const OddEvenFactor& f, par::ThreadPool& pool, index grain,
                      OddEvenCovScratch& scratch) {
  auto& cov = scratch.slots;
  cov.resize(static_cast<std::size_t>(f.num_states()));
  // Row pointers from a previous pass dangle into a dead factor; clear them
  // so copy_cross_into never consults stale adjacency.
  for (auto& slot : cov) slot.row = nullptr;
  for (index lev = static_cast<index>(f.levels.size()) - 1; lev >= 0; --lev) {
    const auto& rows = f.levels[static_cast<std::size_t>(lev)].rows;
    par::parallel_for(pool, 0, static_cast<index>(rows.size()), grain, [&](index ri) {
      const OddEvenRow& row = rows[static_cast<std::size_t>(ri)];
      OddEvenCovScratch::Slot& slot = cov[static_cast<std::size_t>(row.col)];
      slot.row = &row;
      const index n = row.R.rows();
      la::Workspace::Scope scope(la::tls_workspace());
      slot.diag.resize(n, n);
      tri_inv_gram_into(row.R, slot.diag.view(), scope);  // R^{-1} R^{-T} source term
      const bool hl = row.left >= 0;
      const bool hr = row.right >= 0;
      MatrixView wl;
      MatrixView wr;
      if (hl) {
        wl = scope.mat(row.Eblk.rows(), row.Eblk.cols());
        wl.assign(row.Eblk);
        la::trsm_left(la::Uplo::Upper, Trans::No, la::Diag::NonUnit, row.R, wl);
      }
      if (hr) {
        wr = scope.mat(row.Yblk.rows(), row.Yblk.cols());
        wr.assign(row.Yblk);
        la::trsm_left(la::Uplo::Upper, Trans::No, la::Diag::NonUnit, row.R, wr);
      }
      // The neighbors' cross block S_{left,right}, staged once for both uses.
      MatrixView slr;
      if (hl && hr) {
        slr = scope.mat(row.Eblk.cols(), row.Yblk.cols());
        copy_cross_into(cov, row.left, row.right, slr);
      }
      // S_{j,I} = -W S_{I,I} with I = {left, right} (either may be absent).
      if (hl) {
        slot.s_left.resize(wl.rows(), wl.cols());
        la::gemm(-1.0, wl, Trans::No, cov[static_cast<std::size_t>(row.left)].diag.view(),
                 Trans::No, 0.0, slot.s_left.view());
        // minus W_r * S_{right,left} = minus W_r * S_{left,right}^T.
        if (hr) la::gemm(-1.0, wr, Trans::No, slr, Trans::Yes, 1.0, slot.s_left.view());
      }
      if (hr) {
        slot.s_right.resize(wr.rows(), wr.cols());
        la::gemm(-1.0, wr, Trans::No, cov[static_cast<std::size_t>(row.right)].diag.view(),
                 Trans::No, 0.0, slot.s_right.view());
        if (hl) la::gemm(-1.0, wl, Trans::No, slr, Trans::No, 1.0, slot.s_right.view());
      }
      // S_jj = R^{-1}R^{-T} - S_{j,I} W^T.
      if (hl)
        la::gemm(-1.0, slot.s_left.view(), Trans::No, wl, Trans::Yes, 1.0, slot.diag.view());
      if (hr)
        la::gemm(-1.0, slot.s_right.view(), Trans::No, wr, Trans::Yes, 1.0, slot.diag.view());
      la::symmetrize(slot.diag.view());
    });
  }
}

}  // namespace

std::vector<Matrix> oddeven_covariances(const OddEvenFactor& f, par::ThreadPool& pool,
                                        index grain) {
  OddEvenCovScratch scratch;
  oddeven_cov_pass(f, pool, grain, scratch);
  std::vector<Matrix> out(static_cast<std::size_t>(f.num_states()));
  for (index i = 0; i < f.num_states(); ++i)
    out[static_cast<std::size_t>(i)] = std::move(scratch.slots[static_cast<std::size_t>(i)].diag);
  return out;
}

void oddeven_covariances_into(const OddEvenFactor& f, par::ThreadPool& pool, index grain,
                              OddEvenCovScratch& scratch, std::vector<Matrix>& out) {
  oddeven_cov_pass(f, pool, grain, scratch);
  out.resize(static_cast<std::size_t>(f.num_states()));
  // Copy (not move) so the scratch keeps its warm capacity for the next job.
  for (index i = 0; i < f.num_states(); ++i)
    out[static_cast<std::size_t>(i)].assign_from(
        scratch.slots[static_cast<std::size_t>(i)].diag.view());
}

SmootherResult oddeven_smooth(const Problem& p, par::ThreadPool& pool,
                              const OddEvenOptions& opts) {
  OddEvenFactor f = oddeven_factor(p, pool, opts.grain);
  SmootherResult res;
  res.means = oddeven_solve(f, pool, opts.grain);
  if (opts.compute_covariance) res.covariances = oddeven_covariances(f, pool, opts.grain);
  return res;
}

}  // namespace pitk::kalman
