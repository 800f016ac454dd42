//! Sparse linear algebra for the revised simplex: CSC matrices, an LU
//! factorization of the basis and the eta file used between refactorizations.
//!
//! The constraint matrix is stored column-compressed ([`CscMatrix`]) because
//! the simplex only ever needs whole columns (pricing, FTRAN of the entering
//! column) and row access is expressible through BTRAN. The basis matrix `B`
//! is factorized as `P·B = L·U` with partial pivoting ([`LuFactors`]); basis
//! changes between refactorizations are captured as product-form eta vectors
//! ([`Eta`]), so one pivot costs two sparse triangular solves plus an eta
//! append instead of an `O(m·n)` tableau update. The [`BasisFactor`] wrapper
//! owns the refactorization policy: refactorize after a fixed number of eta
//! updates or when an eta pivot becomes too small to trust.
//!
//! The factorization is left-looking and its work follows the nonzero
//! pattern of the basis, not its dimension. The TTW bases are small and
//! mostly logical unit vectors, so a column reaches a handful of positions.
//! The accumulator is indexed by *original* row; the permuted positions the
//! current column reaches are a bitset, one `u64` per 64 rows
//! ([`LuWorkspace`]). Elimination takes the lowest marked position below the
//! diagonal, applies that `L` column — its fill lands only on positions above
//! it — and looks again; the pivot is the largest marked entry at or below
//! the diagonal, the first one met in ascending order on a tie; and the
//! harvest walks the marks once, in position order, clearing them. A row
//! swap is two index writes plus swapping the two positions' marks, because
//! `L` keeps original row ids until the last column is done and is mapped to
//! final positions once.
//!
//! **Harvest order is numerics.** BTRAN sums each column's products in
//! stored order, so `U` and `L` entries are stored in ascending position —
//! what a dense sweep of the accumulator would leave — and `L` is relabelled
//! to final positions only at the end. `lu_kernel_bits_are_pinned` holds the
//! kernel to the bits of every factor, verdict and solve.
//!
//! `L` and `U` are themselves [`CscMatrix`]es whose buffers — like the
//! [`LuWorkspace`] — are reused from one refactorization to the next, and
//! across every LP of a mode: its `R_M` attempts' trees and its polish LP
//! (the `SimplexWorkspace` in `simplex` owns the [`BasisFactor`]).
//! FTRAN/BTRAN walk them front to back. The eta file is one entries buffer
//! plus a range per eta; it is kept from LP to LP too and emptied as each
//! LP starts, and an entries buffer that outgrew a cap tied to the new LP's
//! row count is replaced by one of the cap's size
//! ([`BasisFactor::start_lp`]).
//!
//! [`BasisFactor`] holds its factors behind an `Rc`, separate from its own eta
//! file. A branch-and-bound node's children start from the basis its LP
//! ended on, so the tree [captures](BasisFactor::capture) the factors and eta
//! file that LP ended with — an `Rc` clone and a copy of a few eta vectors —
//! and each child [restores](BasisFactor::restore) them instead of
//! factorizing that basis from scratch (the memo in `branch_bound`). A
//! restored state represents the same basis up to the drift of its eta file,
//! not bit for bit a fresh factorization; debug builds check that it FTRANs
//! every basic column to its unit vector (to a backward error of 1e-7). A
//! shared factorization is never written; once its last other holder lets
//! go, its buffers come back as the spare the next factorization is built in
//! ([`recycle`](BasisFactor::recycle)), or wait in a small pool for the next
//! factorization whose spare is still shared.

use std::rc::Rc;

/// Numerical zero threshold for dropping entries from sparse vectors.
const DROP_TOL: f64 = 1e-12;

/// A column-compressed sparse matrix.
#[derive(Debug, Clone, Default)]
pub(crate) struct CscMatrix {
    nrows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Creates an empty matrix with `nrows` rows and no columns.
    pub(crate) fn new(nrows: usize) -> Self {
        CscMatrix {
            nrows,
            col_ptr: vec![0],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// An empty matrix with `nrows` rows and room for `ncols` columns of
    /// `nnz` entries in all.
    pub(crate) fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        col_ptr.push(0);
        CscMatrix {
            nrows,
            col_ptr,
            row_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Empties the matrix to `nrows` rows and no columns, keeping its buffers
    /// and making room for `ncols` columns.
    fn reset(&mut self, nrows: usize, ncols: usize) {
        self.nrows = nrows;
        self.col_ptr.clear();
        self.col_ptr.reserve(ncols + 1);
        self.col_ptr.push(0);
        self.row_idx.clear();
        self.values.clear();
    }

    /// Number of columns.
    #[cfg(test)]
    pub(crate) fn ncols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Appends a column given as `(row, value)` pairs; rows may repeat (the
    /// duplicates are merged) and zero entries are dropped. A column whose
    /// rows already ascend strictly — what every LP builder hands in — is
    /// copied straight in, without a sorted copy.
    pub(crate) fn push_column(&mut self, entries: &[(usize, f64)]) {
        if entries.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            for &(r, v) in entries {
                debug_assert!(r < self.nrows);
                if v.abs() > DROP_TOL {
                    self.push_entry(r, v);
                }
            }
            self.end_column();
            return;
        }
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(entries.len());
        let mut sorted = entries.to_vec();
        sorted.sort_unstable_by_key(|&(r, _)| r);
        for &(r, v) in &sorted {
            debug_assert!(r < self.nrows);
            match merged.last_mut() {
                Some((last_r, last_v)) if *last_r == r => *last_v += v,
                _ => merged.push((r, v)),
            }
        }
        for (r, v) in merged {
            if v.abs() > DROP_TOL {
                self.push_entry(r, v);
            }
        }
        self.end_column();
    }

    /// Appends one entry, as given, to the column under construction.
    fn push_entry(&mut self, row: usize, value: f64) {
        self.row_idx.push(row);
        self.values.push(value);
    }

    /// Closes the column under construction.
    fn end_column(&mut self) {
        self.col_ptr.push(self.row_idx.len());
    }

    /// Returns the `(rows, values)` slices of column `j`.
    pub(crate) fn column(&self, j: usize) -> (&[usize], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Sparse dot product of column `j` with a dense vector.
    pub(crate) fn column_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let (rows, vals) = self.column(j);
        rows.iter().zip(vals).map(|(&r, &v)| v * dense[r]).sum()
    }

    /// Scatters `scale * column(j)` into a dense vector.
    pub(crate) fn scatter_column(&self, j: usize, scale: f64, dense: &mut [f64]) {
        let (rows, vals) = self.column(j);
        for (&r, &v) in rows.iter().zip(vals) {
            dense[r] += scale * v;
        }
    }

    /// Total number of stored entries.
    pub(crate) fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Whether both matrices store the same entries in the same slots, values
    /// compared bit for bit.
    #[cfg(test)]
    fn same_bits(&self, other: &CscMatrix) -> bool {
        self.nrows == other.nrows
            && self.col_ptr == other.col_ptr
            && self.row_idx == other.row_idx
            && tests::same_bits(&self.values, &other.values)
    }
}

/// LU factors of the (row-permuted) basis: `P·B = L·U`.
///
/// `L` is unit lower triangular and `U` upper triangular, one stored column
/// per elimination step, indexed by permuted position. `perm[k]` is the
/// original row placed at permuted position `k`.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuFactors {
    m: usize,
    /// `perm[k]` = original row index occupying permuted row `k`.
    perm: Vec<usize>,
    /// Column `k` of `L` below the diagonal (unit diagonal implicit), in
    /// permuted row indices `> k`.
    l: CscMatrix,
    /// Column `k` of `U` above the diagonal, in permuted row indices `< k`.
    u: CscMatrix,
    /// Diagonal of `U`.
    u_diag: Vec<f64>,
}

/// Scratch state of [`LuFactors::factorize`], reused across factorizations.
/// Between two columns — and on return, singular or not — `work` is all
/// zero and no position is marked.
#[derive(Debug, Default)]
pub(crate) struct LuWorkspace {
    /// Dense accumulator of the current column, by *original* row.
    work: Vec<f64>,
    /// The permuted positions the current column reaches, as a bitset: bit
    /// `p % 64` of word `p / 64`. An unmarked position's accumulator entry
    /// is exactly zero.
    marks: Vec<u64>,
    /// Permuted position of every original row (the inverse of `perm`).
    pos: Vec<usize>,
}

impl LuWorkspace {
    /// Marks the position original row `r` occupies.
    fn mark_row(&mut self, r: usize) {
        let p = self.pos[r];
        self.marks[p / 64] |= 1 << (p % 64);
    }

    /// The lowest marked position at or after `from`.
    fn next_mark(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.marks.get(word)? & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.marks.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// Exchanges the marks of positions `a` and `b`.
    fn swap_marks(&mut self, a: usize, b: usize) {
        let bit = |p: usize| (self.marks[p / 64] >> (p % 64)) & 1;
        if bit(a) != bit(b) {
            self.marks[a / 64] ^= 1 << (a % 64);
            self.marks[b / 64] ^= 1 << (b % 64);
        }
    }

    /// Visits every marked position in ascending order with the original
    /// row occupying it and that row's accumulator entry, clearing both.
    fn drain_marks(&mut self, perm: &[usize], mut visit: impl FnMut(usize, usize, f64)) {
        for (word, bits) in self.marks.iter_mut().enumerate() {
            let mut rest = std::mem::take(bits);
            while rest != 0 {
                let p = word * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let r = perm[p];
                visit(p, r, std::mem::take(&mut self.work[r]));
            }
        }
    }
}

/// Error raised when the basis matrix is numerically singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SingularBasis;

impl LuFactors {
    /// Factorizes the basis given by `columns` (each a sparse column of the
    /// full constraint matrix; a row may repeat inside a column) with partial
    /// pivoting, into `self`'s buffers.
    ///
    /// On `Err` the contents of `self` are unspecified and must not be used;
    /// `ws` is clean either way.
    pub(crate) fn factorize<'c>(
        &mut self,
        m: usize,
        columns: impl Iterator<Item = (&'c [usize], &'c [f64])>,
        ws: &mut LuWorkspace,
    ) -> Result<(), SingularBasis> {
        self.m = m;
        self.perm.clear();
        self.perm.extend(0..m);
        self.l.reset(m, m);
        self.u.reset(m, m);
        self.u_diag.clear();
        self.u_diag.reserve(m);
        ws.work.resize(m, 0.0);
        ws.marks.resize(m.div_ceil(64), 0);
        ws.pos.clear();
        ws.pos.extend(0..m);
        for (k, (rows, vals)) in columns.enumerate() {
            for (&r, &v) in rows.iter().zip(vals) {
                ws.mark_row(r);
                ws.work[r] += v;
            }
            // Eliminate with the already-computed L columns, in pivot order.
            // Fill from L column `j` only lands on positions above `j`, so
            // the next marked position is looked up after each column.
            let mut from = 0;
            while let Some(j) = ws.next_mark(from).filter(|&j| j < k) {
                let pivot_val = ws.work[self.perm[j]];
                if pivot_val.abs() > DROP_TOL {
                    let (idx, val) = self.l.column(j);
                    for (&r, &lv) in idx.iter().zip(val) {
                        ws.mark_row(r);
                        ws.work[r] -= pivot_val * lv;
                    }
                }
                from = j + 1;
            }
            // Partial pivoting: largest magnitude at or below the diagonal,
            // ties to the smallest permuted position.
            let mut best = k;
            let mut best_abs = 0.0;
            let mut from = k;
            while let Some(p) = ws.next_mark(from) {
                let a = ws.work[self.perm[p]].abs();
                if a > best_abs {
                    best = p;
                    best_abs = a;
                }
                from = p + 1;
            }
            if best_abs <= DROP_TOL * 10.0 {
                ws.drain_marks(&self.perm, |_, _, _| {});
                return Err(SingularBasis);
            }
            // Permuted positions k and best swap, and their marks with them
            // (the row leaving k may be one the column never reached). L is
            // still in original row ids and U only references positions < k:
            // nothing to relabel.
            self.perm.swap(k, best);
            ws.pos[self.perm[k]] = k;
            ws.pos[self.perm[best]] = best;
            ws.swap_marks(k, best);
            let diag = ws.work[self.perm[k]];
            // Harvest U (positions < k) and L (positions > k), resetting the
            // accumulator on the way. BTRAN sums a column's products in
            // stored order, so that order is part of the numerics: ascending
            // position, as a dense sweep of the accumulator would leave it.
            let (l, u) = (&mut self.l, &mut self.u);
            ws.drain_marks(&self.perm, |p, r, w| {
                if w.abs() > DROP_TOL {
                    match p.cmp(&k) {
                        std::cmp::Ordering::Less => u.push_entry(p, w),
                        std::cmp::Ordering::Equal => {}
                        std::cmp::Ordering::Greater => l.push_entry(r, w / diag),
                    }
                }
            });
            self.u.end_column();
            self.l.end_column();
            self.u_diag.push(diag);
        }
        // Every row has its final position now.
        for r in &mut self.l.row_idx {
            *r = ws.pos[*r];
        }
        Ok(())
    }

    /// Solves `B x = b` in place: `x` enters holding `b` (original row
    /// indexing) and leaves holding the solution (basis-position indexing).
    pub(crate) fn ftran(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        let m = self.m;
        // Apply the row permutation: scratch = P b.
        scratch.clear();
        scratch.extend(self.perm.iter().map(|&r| x[r]));
        // Forward solve L y = P b (unit diagonal).
        for k in 0..m {
            let yk = scratch[k];
            if yk.abs() > DROP_TOL {
                let (idx, val) = self.l.column(k);
                for (&i, &lv) in idx.iter().zip(val) {
                    scratch[i] -= yk * lv;
                }
            }
        }
        // Back solve U x = y.
        for k in (0..m).rev() {
            let xk = scratch[k] / self.u_diag[k];
            scratch[k] = xk;
            if xk.abs() > DROP_TOL {
                let (idx, val) = self.u.column(k);
                for (&i, &uv) in idx.iter().zip(val) {
                    scratch[i] -= xk * uv;
                }
            }
        }
        x[..m].copy_from_slice(scratch);
    }

    /// Solves `Bᵀ y = c` in place: `y` enters holding `c` indexed by basis
    /// position and leaves holding the solution in original row indexing.
    pub(crate) fn btran(&self, y: &mut [f64], scratch: &mut Vec<f64>) {
        let m = self.m;
        scratch.clear();
        scratch.extend_from_slice(&y[..m]);
        // Uᵀ z = c (forward, Uᵀ is lower triangular).
        for k in 0..m {
            let (idx, val) = self.u.column(k);
            let mut acc = scratch[k];
            for (&i, &uv) in idx.iter().zip(val) {
                acc -= uv * scratch[i];
            }
            scratch[k] = acc / self.u_diag[k];
        }
        // Lᵀ w = z (backward, unit diagonal).
        for k in (0..m).rev() {
            let (idx, val) = self.l.column(k);
            let mut acc = scratch[k];
            for (&i, &lv) in idx.iter().zip(val) {
                acc -= lv * scratch[i];
            }
            scratch[k] = acc;
        }
        // y = Pᵀ w: the permuted position k speaks for original row perm[k].
        for (&r, &w) in self.perm.iter().zip(scratch.iter()) {
            y[r] = w;
        }
    }

    /// Whether both are the same factorization slot for slot, values compared
    /// bit for bit.
    #[cfg(test)]
    fn same_bits(&self, other: &LuFactors) -> bool {
        self.perm == other.perm
            && self.l.same_bits(&other.l)
            && self.u.same_bits(&other.u)
            && tests::same_bits(&self.u_diag, &other.u_diag)
    }
}

/// One product-form eta vector: the basis inverse after a pivot on row `r`
/// with FTRAN'd entering column `w` is `E⁻¹·B⁻¹` with `E = I` except column
/// `r` replaced by `w`.
#[derive(Debug, Clone)]
struct Eta {
    /// Pivotal row (basis position).
    row: usize,
    /// Pivot element `w[row]`.
    pivot: f64,
    /// Where its off-pivot entries of `w` sit in the eta file's entries
    /// buffer, as `(basis position, value)` pairs.
    entries: std::ops::Range<usize>,
}

/// The factors and eta file a [`BasisFactor`] held when it was
/// [captured](BasisFactor::capture), for a later
/// [`BasisFactor::restore`] over the same basis.
#[derive(Debug, Default)]
pub(crate) struct FactorSnapshot {
    /// `None` until a capture, and after [`FactorSnapshot::release`].
    lu: Option<Rc<LuFactors>>,
    etas: Vec<Eta>,
    eta_entries: Vec<(usize, f64)>,
}

impl FactorSnapshot {
    /// Whether a state was captured into it (and not released since).
    pub(crate) fn is_captured(&self) -> bool {
        self.lu.is_some()
    }

    /// Lets go of the captured factors, keeping the eta buffers, and
    /// returns them for [`BasisFactor::recycle`].
    pub(crate) fn release(&mut self) -> Option<Rc<LuFactors>> {
        self.lu.take()
    }
}

/// The factorized basis plus its eta file and refactorization policy.
#[derive(Debug, Default)]
pub(crate) struct BasisFactor {
    /// The last from-scratch factorization; possibly shared with the memo of
    /// the tree this engine solves a node of, hence never written in place.
    lu: Rc<LuFactors>,
    /// Where the next factorization is built, so that a singular basis leaves
    /// `lu` and the eta file as they were.
    spare: Rc<LuFactors>,
    /// Factorizations nobody reads any more, each held only here, for a
    /// refactorization whose spare is still shared; at most [`LU_POOL`].
    pool: Vec<Rc<LuFactors>>,
    etas: Vec<Eta>,
    /// The entries of every eta vector, one after another.
    eta_entries: Vec<(usize, f64)>,
    scratch: Vec<f64>,
    workspace: LuWorkspace,
}

/// Refactorize after this many eta updates (empirically a good trade-off
/// between FTRAN/BTRAN cost growth and refactorization cost).
pub(crate) const REFACTOR_INTERVAL: usize = 60;

/// Smallest eta pivot accepted before forcing a refactorization.
pub(crate) const MIN_ETA_PIVOT: f64 = 1e-8;

/// Released factorizations a [`BasisFactor`] keeps for later
/// refactorizations. A tree's memo holds at most four factor states, so
/// after a few nodes every factorization is built in buffers that exist.
const LU_POOL: usize = 4;

/// Eta entries per row of an LP that the eta file's entries buffer may keep
/// from the LPs before it ([`BasisFactor::start_lp`]). An eta holds at most
/// one entry per row, and most node LPs pivot a handful of times, so 16
/// etas' worth covers them; a buffer a long LP grew past that is not held
/// for the rest of the mode.
const KEPT_ETA_ENTRIES_PER_ROW: usize = 16;

impl BasisFactor {
    /// Factorizes the basis columns from scratch and clears the eta file.
    ///
    /// # Errors
    ///
    /// On a singular basis the previous factors and eta file stay in force.
    pub(crate) fn refactorize<'c>(
        &mut self,
        m: usize,
        columns: impl Iterator<Item = (&'c [usize], &'c [f64])>,
    ) -> Result<(), SingularBasis> {
        if Rc::strong_count(&self.spare) > 1 {
            // Still held by a memo: leave it alone and build in a released
            // one, or a fresh one when none is left.
            self.spare = self.pool.pop().unwrap_or_default();
        }
        Rc::make_mut(&mut self.spare).factorize(m, columns, &mut self.workspace)?;
        std::mem::swap(&mut self.lu, &mut self.spare);
        self.clear_etas();
        Ok(())
    }

    /// Copies the current factors (shared, not cloned) and eta file into
    /// `into`, for a later [`BasisFactor::restore`] of the same basis. The
    /// factors `into` held before are offered to [`BasisFactor::recycle`].
    pub(crate) fn capture(&mut self, into: &mut FactorSnapshot) {
        if let Some(old) = into.lu.replace(Rc::clone(&self.lu)) {
            self.recycle(old);
        }
        into.etas.clone_from(&self.etas);
        into.eta_entries.clone_from(&self.eta_entries);
    }

    /// Installs a captured state as the factorization of the basis
    /// `columns`, which must be the basis it was captured on. Debug builds
    /// check that it FTRANs every basic column to its unit vector, to a
    /// backward error of 1e-7.
    ///
    /// # Panics
    ///
    /// When `from` holds no captured state.
    pub(crate) fn restore<'c>(
        &mut self,
        from: &FactorSnapshot,
        columns: impl Iterator<Item = (&'c [usize], &'c [f64])>,
    ) {
        let lu = from.lu.as_ref().expect("restore from a captured state");
        let replaced = std::mem::replace(&mut self.lu, Rc::clone(lu));
        self.recycle(replaced);
        self.etas.clone_from(&from.etas);
        self.eta_entries.clone_from(&from.eta_entries);
        if cfg!(debug_assertions) {
            self.assert_solves_basic_columns(&columns.collect::<Vec<_>>());
        }
    }

    /// Debug check of [`BasisFactor::restore`]: FTRAN maps every basic
    /// column `a_k` to its unit vector `e_k`, measured as a backward error —
    /// `B·x = a_k` within 1e-7, the simplex's primal feasibility tolerance,
    /// of the largest product it sums (at least 1). The forward error would
    /// fail ill-conditioned bases whose fresh factorization misses `e_k` by
    /// 1e-8, and the bound leaves room for an eta file's drift (a 16-eta
    /// state on the tests' scheduler instances solves a unit column to a
    /// residual of 1.2e-9 where a fresh factorization gives 5e-13). A state
    /// restored onto another basis misses by the size of the columns.
    fn assert_solves_basic_columns(&mut self, columns: &[(&[usize], &[f64])]) {
        let m = columns.len();
        let (mut x, mut residual) = (vec![0.0; m], vec![0.0; m]);
        for (k, &(rows, vals)) in columns.iter().enumerate() {
            x.iter_mut().for_each(|v| *v = 0.0);
            for (&r, &a) in rows.iter().zip(vals) {
                x[r] += a;
            }
            self.ftran(&mut x);
            // `B·x − a_k`, and the largest product it sums.
            residual.iter_mut().for_each(|v| *v = 0.0);
            let mut scale = 1.0f64;
            for (&r, &a) in rows.iter().zip(vals) {
                residual[r] -= a;
                scale = scale.max(a.abs());
            }
            for (&xi, &(rows, vals)) in x.iter().zip(columns).filter(|(&xi, _)| xi != 0.0) {
                for (&r, &a) in rows.iter().zip(vals) {
                    residual[r] += xi * a;
                    scale = scale.max((xi * a).abs());
                }
            }
            let worst = residual.iter().fold(0.0f64, |w, r| w.max(r.abs()));
            assert!(
                worst <= 1e-7 * scale,
                "a restored factor state solves basic column {k} to a residual of {worst}"
            );
        }
    }

    /// Takes a factorization nobody reads any more — the one a restore
    /// replaced, or one a memo evicted — when it is the last holder: as the
    /// spare while the spare is still shared, else into the pool while it
    /// has room. Its buffers then serve a later factorization instead of
    /// being freed while a fresh one is allocated.
    pub(crate) fn recycle(&mut self, lu: Rc<LuFactors>) {
        if Rc::strong_count(&lu) > 1 {
            return;
        }
        if Rc::strong_count(&self.spare) > 1 {
            self.spare = lu;
        } else if self.pool.len() < LU_POOL {
            self.pool.push(lu);
        }
    }

    /// Empties the eta file, keeping its buffers.
    fn clear_etas(&mut self) {
        self.etas.clear();
        self.eta_entries.clear();
    }

    /// Empties the eta file for the start of an LP with `nrows` rows,
    /// keeping its buffers up to a cap. Unlike the factors, whose size
    /// follows the basis, an eta file is as long as one LP's pivots — a
    /// handful on most node LPs, up to [`REFACTOR_INTERVAL`] columns on a
    /// few — and a buffer kept without a bound would hold the longest one a
    /// mode ever ran for the rest of the mode (0.3–0.4 MB more peak memory
    /// when `warm_hit` primes its systems). So the entries buffer keeps at
    /// most [`KEPT_ETA_ENTRIES_PER_ROW`] entries per row of the new LP: one
    /// that outgrew that is replaced by one of exactly that size.
    pub(crate) fn start_lp(&mut self, nrows: usize) {
        self.clear_etas();
        let kept = KEPT_ETA_ENTRIES_PER_ROW * nrows;
        if self.eta_entries.capacity() > kept {
            self.eta_entries = Vec::with_capacity(kept);
        }
    }

    /// Returns `true` when the eta file is long enough to warrant a
    /// refactorization before the next update.
    pub(crate) fn should_refactorize(&self) -> bool {
        self.etas.len() >= REFACTOR_INTERVAL
    }

    /// Number of eta updates since the last refactorization.
    #[cfg(test)]
    pub(crate) fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Records the basis change `basic[row] := entering` given the FTRAN'd
    /// entering column `w = B⁻¹ a_q`.
    ///
    /// Returns `false` (and records nothing) if the pivot element is too
    /// small; the caller must refactorize and retry.
    pub(crate) fn push_eta(&mut self, row: usize, w: &[f64]) -> bool {
        let pivot = w[row];
        if pivot.abs() < MIN_ETA_PIVOT {
            return false;
        }
        let start = self.eta_entries.len();
        for (i, &v) in w.iter().enumerate() {
            if i != row && v.abs() > DROP_TOL {
                self.eta_entries.push((i, v));
            }
        }
        self.etas.push(Eta {
            row,
            pivot,
            entries: start..self.eta_entries.len(),
        });
        true
    }

    /// FTRAN through the LU factors and the eta file: `x ← B⁻¹ x`.
    pub(crate) fn ftran(&mut self, x: &mut [f64]) {
        self.lu.ftran(x, &mut self.scratch);
        for eta in &self.etas {
            let xr = x[eta.row];
            if xr.abs() > DROP_TOL {
                let t = xr / eta.pivot;
                x[eta.row] = t;
                for &(i, v) in &self.eta_entries[eta.entries.clone()] {
                    x[i] -= v * t;
                }
            }
        }
    }

    /// BTRAN through the eta file (reverse order) and the LU factors:
    /// `y ← B⁻ᵀ y`.
    pub(crate) fn btran(&mut self, y: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut acc = y[eta.row];
            for &(i, v) in &self.eta_entries[eta.entries.clone()] {
                acc -= v * y[i];
            }
            y[eta.row] = acc / eta.pivot;
        }
        self.lu.btran(y, &mut self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bitwise equality of two float slices (`==` would equate `0.0` and
    /// `-0.0`).
    pub(super) fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    type Columns = Vec<(Vec<usize>, Vec<f64>)>;

    fn dense_to_columns(a: &[&[f64]]) -> Columns {
        let m = a.len();
        let n = a[0].len();
        (0..n)
            .map(|j| {
                let mut rows = Vec::new();
                let mut vals = Vec::new();
                for (i, row) in a.iter().enumerate().take(m) {
                    if row[j] != 0.0 {
                        rows.push(i);
                        vals.push(row[j]);
                    }
                }
                (rows, vals)
            })
            .collect()
    }

    fn borrowed(columns: &Columns) -> impl Iterator<Item = (&[usize], &[f64])> {
        columns.iter().map(|(r, v)| (r.as_slice(), v.as_slice()))
    }

    fn factorize_in(columns: &Columns, ws: &mut LuWorkspace) -> Result<LuFactors, SingularBasis> {
        let mut lu = LuFactors::default();
        lu.factorize(columns.len(), borrowed(columns), ws)?;
        Ok(lu)
    }

    fn factorize(columns: &Columns) -> Result<LuFactors, SingularBasis> {
        factorize_in(columns, &mut LuWorkspace::default())
    }

    fn factor_of(columns: &Columns) -> BasisFactor {
        let mut factor = BasisFactor::default();
        factor
            .refactorize(columns.len(), borrowed(columns))
            .expect("nonsingular");
        factor
    }

    #[test]
    fn csc_roundtrip_and_dot() {
        let mut csc = CscMatrix::new(3);
        csc.push_column(&[(0, 1.0), (2, -2.0)]);
        csc.push_column(&[(1, 3.0), (1, 1.0), (0, 0.0)]);
        // Already ascending: copied straight in, the zero still dropped.
        csc.push_column(&[(0, 0.0), (2, 5.0)]);
        assert_eq!(csc.ncols(), 3);
        assert_eq!(csc.nnz(), 4);
        let (rows, vals) = csc.column(1);
        assert_eq!(rows, &[1]);
        assert_eq!(vals, &[4.0]);
        assert_eq!(csc.column(2), (&[2usize][..], &[5.0][..]));
        let dense = [2.0, 5.0, 1.0];
        assert_eq!(csc.column_dot(0, &dense), 2.0 - 2.0);
        assert_eq!(csc.column_dot(1, &dense), 20.0);
        let mut out = vec![0.0; 3];
        csc.scatter_column(0, 2.0, &mut out);
        assert_eq!(out, vec![2.0, 0.0, -4.0]);
    }

    #[test]
    fn lu_solves_a_small_system() {
        // A = [[2,1,0],[1,3,1],[0,1,4]], b chosen so x = [1,2,3].
        let a: &[&[f64]] = &[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]];
        let lu = factorize(&dense_to_columns(a)).expect("nonsingular");
        let mut scratch = Vec::new();
        let mut x = [4.0, 10.0, 14.0];
        lu.ftran(&mut x, &mut scratch);
        for (xi, want) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((xi - want).abs() < 1e-10, "x = {x:?}");
        }
        // Bᵀ y = c with c = Aᵀ·[1,2,3] → y = [1,2,3].
        let mut y = [4.0, 10.0, 14.0];
        // c = Aᵀ [1,2,3] = [2*1+1*2, 1*1+3*2+1*3, 1*2+4*3] = [4, 10, 14].
        lu.btran(&mut y, &mut scratch);
        for (yi, want) in y.iter().zip([1.0, 2.0, 3.0]) {
            assert!((yi - want).abs() < 1e-10, "y = {y:?}");
        }
    }

    #[test]
    fn lu_needs_pivoting() {
        // Leading zero forces a row swap.
        let a: &[&[f64]] = &[&[0.0, 1.0], &[1.0, 0.0]];
        let lu = factorize(&dense_to_columns(a)).expect("nonsingular");
        let mut scratch = Vec::new();
        let mut x = [5.0, 7.0]; // A x = b → x = [7, 5]
        lu.ftran(&mut x, &mut scratch);
        assert!((x[0] - 7.0).abs() < 1e-12 && (x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singular_basis_is_detected() {
        let a: &[&[f64]] = &[&[1.0, 2.0], &[2.0, 4.0]];
        assert!(factorize(&dense_to_columns(a)).is_err());
    }

    #[test]
    fn singular_refactorization_keeps_the_previous_factors() {
        let regular: &[&[f64]] = &[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]];
        let singular: &[&[f64]] = &[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0], &[0.0, 1.0, 1.0]];
        let mut factor = factor_of(&dense_to_columns(regular));
        assert!(factor.push_eta(1, &[0.5, 2.0, 0.25]));
        let answers = |factor: &mut BasisFactor| {
            let (mut x, mut y) = ([4.0, 10.0, 14.0], [1.0, -2.0, 3.0]);
            factor.ftran(&mut x);
            factor.btran(&mut y);
            (x.map(f64::to_bits), y.map(f64::to_bits))
        };
        let before = answers(&mut factor);
        // Twice: the second failure builds in what the first left behind.
        for _ in 0..2 {
            let failed = factor.refactorize(3, borrowed(&dense_to_columns(singular)));
            assert_eq!(failed, Err(SingularBasis));
            assert_eq!(factor.eta_count(), 1, "the eta file survives as well");
            assert_eq!(answers(&mut factor), before);
        }
    }

    #[test]
    fn a_failed_factorization_leaves_the_workspace_clean() {
        // The singular column is met after fill-in has touched every row.
        let singular: &[&[f64]] = &[&[1.0, 1.0, 2.0], &[2.0, 1.0, 3.0], &[3.0, 1.0, 4.0]];
        let regular: &[&[f64]] = &[&[0.0, 1.0, 2.0], &[1.0, 3.0, 1.0], &[4.0, 1.0, 0.5]];
        let mut ws = LuWorkspace::default();
        assert!(factorize_in(&dense_to_columns(singular), &mut ws).is_err());
        assert!(ws.work.iter().all(|&w| w == 0.0) && ws.marks.iter().all(|&w| w == 0));
        let reused = factorize_in(&dense_to_columns(regular), &mut ws).expect("nonsingular");
        let fresh = factorize(&dense_to_columns(regular)).expect("nonsingular");
        assert!(reused.same_bits(&fresh));
    }

    #[test]
    fn restored_factors_answer_like_the_captured_ones() {
        let a: &[&[f64]] = &[&[0.0, 1.0, 2.0], &[1.0, 3.0, 1.0], &[4.0, 1.0, 0.5]];
        let mut columns = dense_to_columns(a);
        let mut computed = factor_of(&columns);
        // One eta update: column 1 of the basis becomes (1, 2, 0).
        let mut w = [1.0, 2.0, 0.0];
        computed.ftran(&mut w);
        assert!(computed.push_eta(1, &w));
        columns[1] = (vec![0, 1], vec![1.0, 2.0]);
        let mut state = FactorSnapshot::default();
        computed.capture(&mut state);
        let mut restorer = factor_of(&dense_to_columns(&[&[1.0]]));
        restorer.restore(&state, borrowed(&columns));
        assert_eq!(restorer.eta_count(), 1);
        let answers = |factor: &mut BasisFactor| {
            let (mut x, mut y) = ([1.0, 2.0, 3.0], [3.0, -1.0, 0.5]);
            factor.ftran(&mut x);
            factor.btran(&mut y);
            (x.map(f64::to_bits), y.map(f64::to_bits))
        };
        let before = answers(&mut computed);
        assert_eq!(answers(&mut restorer), before);
        // The restorer moving on never writes into the factors it shares.
        restorer
            .refactorize(1, borrowed(&dense_to_columns(&[&[2.0]])))
            .expect("nonsingular");
        restorer
            .refactorize(1, borrowed(&dense_to_columns(&[&[4.0]])))
            .expect("nonsingular");
        assert_eq!(answers(&mut computed), before);
        let shared = state.release().expect("captured");
        assert!(shared.same_bits(&factorize(&dense_to_columns(a)).expect("nonsingular")));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a restored factor state solves basic column")]
    fn restoring_onto_another_basis_is_caught_in_debug_builds() {
        let a: &[&[f64]] = &[&[0.0, 1.0, 2.0], &[1.0, 3.0, 1.0], &[4.0, 1.0, 0.5]];
        let mut state = FactorSnapshot::default();
        factor_of(&dense_to_columns(a)).capture(&mut state);
        let other: &[&[f64]] = &[&[0.0, 1.0, 2.0], &[1.0, 3.0, 1.0], &[4.0, 1.0, 0.75]];
        let mut restorer = BasisFactor::default();
        restorer.restore(&state, borrowed(&dense_to_columns(other)));
    }

    #[test]
    fn a_factorization_let_go_of_is_built_over_not_a_shared_one() {
        let a: &[&[f64]] = &[&[0.0, 1.0, 2.0], &[1.0, 3.0, 1.0], &[4.0, 1.0, 0.5]];
        let columns = dense_to_columns(a);
        let mut factor = factor_of(&columns);
        let mut state = FactorSnapshot::default();
        factor.capture(&mut state);
        let shared = state.release().expect("captured");
        // The shared factors become the spare: a memo still holds them.
        factor
            .refactorize(1, borrowed(&dense_to_columns(&[&[2.0]])))
            .expect("nonsingular");
        factor.recycle(Rc::clone(&shared));
        let let_go = Rc::new(factorize(&columns).expect("nonsingular"));
        let buffers = Rc::as_ptr(&let_go);
        factor.recycle(let_go);
        factor
            .refactorize(1, borrowed(&dense_to_columns(&[&[4.0]])))
            .expect("nonsingular");
        assert!(std::ptr::eq(Rc::as_ptr(&factor.lu), buffers));
        assert!(shared.same_bits(&factorize(&columns).expect("nonsingular")));
    }

    #[test]
    fn eta_update_matches_refactorization() {
        // Start from B = I, replace column 1 with w = [1, 2, 1]ᵀ.
        let id: &[&[f64]] = &[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]];
        let mut factor = factor_of(&dense_to_columns(id));
        let w = [1.0, 2.0, 1.0];
        assert!(factor.push_eta(1, &w));
        // New basis B' = [e0, w, e2]; solve B' x = [3, 8, 5] → x = [3-?, ...]:
        // x1 solves 2·x1 = middle component after removing others:
        // B' x = x0 e0 + x1 w + x2 e2 = [x0 + x1, 2 x1, x1 + x2].
        // Want [3, 8, 5] → x1 = 4, x0 = -1, x2 = 1.
        let mut x = [3.0, 8.0, 5.0];
        factor.ftran(&mut x);
        assert!((x[0] + 1.0).abs() < 1e-12);
        assert!((x[1] - 4.0).abs() < 1e-12);
        assert!((x[2] - 1.0).abs() < 1e-12);
        // BTRAN: B'ᵀ y = c with y = [1, 1, 1] → c = B'ᵀ 1 = [1, 4, 1].
        let mut y = [1.0, 4.0, 1.0];
        factor.btran(&mut y);
        for yi in y {
            assert!((yi - 1.0).abs() < 1e-12, "y = {yi}");
        }
    }

    #[test]
    fn tiny_eta_pivot_is_rejected() {
        let id: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 1.0]];
        let mut factor = factor_of(&dense_to_columns(id));
        assert!(!factor.push_eta(0, &[1e-12, 1.0]));
        assert_eq!(factor.eta_count(), 0);
    }

    /// SplitMix64, as everywhere else in the workspace.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        /// A coefficient like the TTW models': mostly small integers.
        fn coeff(&mut self) -> f64 {
            let magnitude = match self.below(4) {
                0 => 1.0,
                1 => (1 + self.below(9)) as f64,
                2 => (1 + self.below(2000)) as f64 / 8.0,
                _ => (1 + self.below(1_000_000)) as f64 / 1000.0,
            };
            if self.below(2) == 0 {
                magnitude
            } else {
                -magnitude
            }
        }
        fn vector(&mut self, m: usize) -> Vec<f64> {
            (0..m).map(|_| self.coeff()).collect()
        }
    }

    /// What a generated basis is built to be.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        Regular,
        /// Two columns agree up to a relative 1e-5 in one entry.
        NearSingular,
        /// Two columns agree exactly (or two unit columns name one row).
        Singular,
    }

    /// The size of the `case`-th basis of a sweep: mostly 2–40 rows, the size
    /// of a node LP's basis, and one case in sixteen 41–200 rows, so that the
    /// position sets of the kernel span one, two, three and four words.
    fn basis_size(rng: &mut Rng, case: u64) -> usize {
        if case % 16 == 9 {
            41 + rng.below(160)
        } else {
            2 + rng.below(39)
        }
    }

    /// A random `m`-row basis shaped like the ones the tree factorizes:
    /// 50–80 % unit columns, the rest sparse structural columns (each through
    /// one row no unit column covers, some with a row entered twice), at
    /// shuffled positions, so that most pivots need a row swap.
    fn random_basis(rng: &mut Rng, m: usize, shape: Shape) -> Columns {
        let mut rows: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            rows.swap(i, rng.below(i + 1));
        }
        let free_rows = rows.split_off(m * (50 + rng.below(31)) / 100);
        let mut columns: Columns = rows.iter().map(|&r| (vec![r], vec![1.0])).collect();
        for own_row in free_rows {
            let mut rows = vec![own_row];
            let mut vals = vec![rng.coeff()];
            for _ in 0..rng.below(6) {
                rows.push(rng.below(m));
                vals.push(rng.coeff());
            }
            if rng.below(4) == 0 {
                // The same row once more, as `factorize` allows.
                rows.push(rows[rng.below(rows.len())]);
                vals.push(rng.coeff());
            }
            columns.push((rows, vals));
        }
        for i in (1..m).rev() {
            columns.swap(i, rng.below(i + 1));
        }
        if shape != Shape::Regular {
            let (from, to) = (rng.below(m), rng.below(m - 1));
            let to = if to >= from { to + 1 } else { to };
            columns[to] = columns[from].clone();
            if shape == Shape::NearSingular {
                columns[to].1[0] *= 1.0 + 1e-5;
            }
        }
        columns
    }

    fn to_dense(columns: &Columns) -> Vec<Vec<f64>> {
        let m = columns.len();
        let mut b = vec![vec![0.0; m]; m];
        for (c, (rows, vals)) in columns.iter().enumerate() {
            for (&r, &v) in rows.iter().zip(vals) {
                b[r][c] += v;
            }
        }
        b
    }

    /// Dense Gaussian elimination with the kernel's pivot rule and
    /// threshold; `true` when every pivot passes.
    fn dense_elimination_succeeds(mut b: Vec<Vec<f64>>) -> bool {
        let m = b.len();
        for k in 0..m {
            let mut best = k;
            for i in k + 1..m {
                if b[i][k].abs() > b[best][k].abs() {
                    best = i;
                }
            }
            if b[best][k].abs() <= DROP_TOL * 10.0 {
                return false;
            }
            b.swap(k, best);
            let (pivot_row, below) = b[k..].split_first_mut().expect("k < m");
            for row in below {
                let factor = row[k] / pivot_row[k];
                if factor != 0.0 {
                    for (x, p) in row[k..].iter_mut().zip(&pivot_row[k..]) {
                        *x -= factor * p;
                    }
                }
            }
        }
        true
    }

    fn max_abs(v: &[f64]) -> f64 {
        v.iter().fold(0.0f64, |s, x| s.max(x.abs()))
    }

    /// `got ≈ want` within 1e-9 of `scale` (floored at 1).
    fn assert_close(got: &[f64], want: &[f64], scale: f64, what: &str, case: u64) {
        for (g, w) in got.iter().zip(want) {
            assert!(
                (g - w).abs() <= 1e-9 * scale.max(1.0),
                "case {case}: {what}: got {got:?}, want {want:?}"
            );
        }
    }

    /// Normwise backward error: `B·x = rhs` (`transposed`: `Bᵀ·x = rhs`)
    /// within 1e-9 of `‖B‖·‖x‖ + ‖rhs‖`.
    fn assert_solves(b: &[Vec<f64>], x: &[f64], rhs: &[f64], transposed: bool, case: u64) {
        let m = b.len();
        let product: Vec<f64> = (0..m)
            .map(|i| {
                (0..m)
                    .map(|j| if transposed { b[j][i] } else { b[i][j] } * x[j])
                    .sum()
            })
            .collect();
        let norm_b = b.iter().map(|row| max_abs(row)).fold(0.0, f64::max);
        let scale = norm_b * max_abs(x) * m as f64 + max_abs(rhs);
        let what = if transposed {
            "Bᵀ·y = c"
        } else {
            "B·x = b"
        };
        assert_close(&product, rhs, scale, what, case);
    }

    fn check_one_basis(rng: &mut Rng, case: u64, ws: &mut LuWorkspace) {
        let shape = match case % 8 {
            6 => Shape::NearSingular,
            7 => Shape::Singular,
            _ => Shape::Regular,
        };
        let m = basis_size(rng, case);
        let columns = random_basis(rng, m, shape);
        let b = to_dense(&columns);
        let factorized = factorize_in(&columns, ws);
        assert_eq!(
            factorized.is_ok(),
            dense_elimination_succeeds(b.clone()),
            "case {case}: the verdict differs from dense elimination's"
        );
        assert!(
            shape != Shape::Singular || factorized.is_err(),
            "case {case}"
        );
        let Ok(lu) = factorized else { return };

        // P·B = L·U, column by column: (L·U)[·][c] = Σ_j U[j][c]·L[·][j].
        for (c, u_cc) in lu.u_diag.iter().enumerate() {
            let mut product = vec![0.0; m];
            let (u_idx, u_val) = lu.u.column(c);
            let diagonal = (&c, u_cc);
            for (&j, &u_jc) in u_idx.iter().zip(u_val).chain([diagonal]) {
                assert!(j <= c, "case {case}: U is upper triangular");
                product[j] += u_jc;
                let (l_idx, l_val) = lu.l.column(j);
                for (&i, &l_ij) in l_idx.iter().zip(l_val) {
                    assert!(i > j, "case {case}: L is strictly lower triangular");
                    product[i] += l_ij * u_jc;
                }
            }
            let permuted: Vec<f64> = lu.perm.iter().map(|&r| b[r][c]).collect();
            let scale = max_abs(&permuted).max(max_abs(u_val)) * m as f64;
            assert_close(&product, &permuted, scale, "P·B = L·U", case);
        }

        // FTRAN / BTRAN residuals.
        let mut scratch = Vec::new();
        let rhs = rng.vector(m);
        let mut x = rhs.clone();
        lu.ftran(&mut x, &mut scratch);
        assert_solves(&b, &x, &rhs, false, case);
        let mut y = rhs.clone();
        lu.btran(&mut y, &mut scratch);
        assert_solves(&b, &y, &rhs, true, case);

        // One eta update solves the exchanged basis as its refactorization
        // would.
        if shape == Shape::Regular {
            let row = rng.below(m);
            let entering = (vec![rng.below(m), row], rng.vector(2));
            let mut w = vec![0.0; m];
            for (&r, &v) in entering.0.iter().zip(&entering.1) {
                w[r] += v;
            }
            let mut updated = factor_of(&columns);
            updated.ftran(&mut w);
            if w[row].abs() > 1e-3 && updated.push_eta(row, &w) {
                let mut exchanged = columns;
                exchanged[row] = entering;
                let b = to_dense(&exchanged);
                let (mut x, mut y) = (rhs.clone(), rhs.clone());
                updated.ftran(&mut x);
                assert_solves(&b, &x, &rhs, false, case);
                updated.btran(&mut y);
                assert_solves(&b, &y, &rhs, true, case);
            }
        }
    }

    /// Seeded sweep over random bases; one workspace throughout, so every
    /// factorization also runs on what the previous ones — the singular ones
    /// among them — left behind. The `dense-reference` CI job runs the large
    /// budget.
    #[test]
    fn kernel_properties_hold_on_random_bases() {
        let cases = if cfg!(feature = "dense-reference") {
            20_000
        } else {
            1_000
        };
        let mut rng = Rng(0x7717_2018);
        let mut ws = LuWorkspace::default();
        for case in 0..cases {
            check_one_basis(&mut rng, case, &mut ws);
        }
    }

    /// FNV-1a over 64-bit words.
    struct Fnv(u64);
    impl Fnv {
        fn word(&mut self, w: u64) {
            for byte in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        fn words(&mut self, ws: impl IntoIterator<Item = usize>) {
            for w in ws {
                self.word(w as u64);
            }
        }
        fn floats(&mut self, fs: &[f64]) {
            for f in fs {
                self.word(f.to_bits());
            }
        }
        fn csc(&mut self, a: &CscMatrix) {
            self.words(a.col_ptr.iter().copied());
            self.words(a.row_idx.iter().copied());
            self.floats(&a.values);
        }
    }

    /// Every bit the kernel produces, pinned: permutation, `L`, `U` (slot
    /// order included — BTRAN sums in it), the diagonal, the singular
    /// verdicts, and FTRAN/BTRAN of one seeded right-hand side per basis
    /// before and after one eta update. Sizes cycle through the word
    /// boundaries of the position sets. A kernel change that moves any of
    /// these moves a pivot somewhere in a tree; the literal was recorded from
    /// the `touched`/sort kernel this one replaced, and a change that means
    /// to move it is a numerics change, not a refactor.
    #[test]
    fn lu_kernel_bits_are_pinned() {
        let (cases, pinned): (usize, u64) = if cfg!(feature = "dense-reference") {
            (20_000, 0xae0d_4c83_75b2_b876)
        } else {
            (1_000, 0xf10d_23fc_7bbb_1771)
        };
        const EDGES: [usize; 6] = [63, 64, 65, 127, 128, 129];
        let mut rng = Rng(0x0DA7_A5E7);
        let mut ws = LuWorkspace::default();
        let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
        for case in 0..cases {
            let shape = match case % 8 {
                6 => Shape::NearSingular,
                7 => Shape::Singular,
                _ => Shape::Regular,
            };
            let m = if case % 3 == 0 {
                EDGES[(case / 3) % EDGES.len()]
            } else {
                2 + rng.below(199)
            };
            let columns = random_basis(&mut rng, m, shape);
            let Ok(lu) = factorize_in(&columns, &mut ws) else {
                digest.word(0);
                continue;
            };
            digest.word(1);
            digest.words(lu.perm.iter().copied());
            digest.csc(&lu.l);
            digest.csc(&lu.u);
            digest.floats(&lu.u_diag);

            let rhs = rng.vector(m);
            let mut factor = factor_of(&columns);
            let solve = |factor: &mut BasisFactor, digest: &mut Fnv| {
                let (mut x, mut y) = (rhs.clone(), rhs.clone());
                factor.ftran(&mut x);
                factor.btran(&mut y);
                digest.floats(&x);
                digest.floats(&y);
            };
            solve(&mut factor, &mut digest);
            let row = rng.below(m);
            let mut w = vec![0.0; m];
            w[rng.below(m)] += rng.coeff();
            w[row] += rng.coeff();
            factor.ftran(&mut w);
            if factor.push_eta(row, &w) {
                solve(&mut factor, &mut digest);
            } else {
                digest.word(2);
            }
        }
        assert_eq!(digest.0, pinned, "the kernel's bits moved");
    }
}
