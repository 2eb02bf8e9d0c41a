use crate::simd::{self, SimdTier};
use trout_std::par;

/// Row-major dense `f32` matrix.
///
/// Storage is a single flat `Vec<f32>` (row `r` occupies
/// `data[r*cols .. (r+1)*cols]`). All products below iterate in row-major
/// order with an `ikj` loop nest so the inner loop streams contiguously, and
/// parallelize over output rows once the work is large enough to amortize
/// the fork/join.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

trout_std::impl_json_struct!(Matrix { rows, cols, data });

/// Below this many multiply-adds the parallel paths fall back to serial —
/// forking rayon tasks for tiny layers costs more than the math.
const PAR_THRESHOLD: usize = 64 * 1024;

/// Below this many output rows the forward product stays serial whatever
/// its size. Every batch the serve router flushes (its cap defaults to 32)
/// sits under it, so a served forward pass never forks threads or reads
/// `TROUT_THREADS` (which allocates); training batches (256 rows) still
/// split. Rows are computed independently either way, so the split never
/// changes a bit of the result.
const PAR_MIN_ROWS: usize = 128;

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transpose (materialized).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Reshapes this matrix to `rows x cols` as a *scratch buffer*: element
    /// contents are unspecified afterwards (callers are expected to overwrite
    /// them fully, as every `_into` kernel does). The backing `Vec` only
    /// reallocates when `rows * cols` exceeds its high-water capacity, so a
    /// buffer sized once for the largest batch reshapes allocation-free
    /// forever after — the contract the workspace hot path is built on.
    pub fn reshape_scratch(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `self * other` — parallel over output rows for large products.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self * other` written into `out` (reshaped to `m x n`, no allocation
    /// once `out` has the capacity). Bit-identical to [`Matrix::matmul`].
    ///
    /// Eight shared-dim steps run per pass over the output row (then one
    /// four-step block and a scalar tail): the fused update applies its `+=`
    /// terms left-to-right — exactly the serial chain, so results are
    /// bit-identical — while the out-row load/store traffic amortizes 8×.
    /// Every result equals the step-by-step chain that skips `a == 0.0`
    /// terms; [`fused_skips_zeros`] says when a block holding a zero may
    /// still take the fused pass (see [`axpy_block8`]); on the AVX2 tier a
    /// fused product runs as register tiles instead (`simd::gemm_rows`,
    /// the same chain per element). A one-column product runs eight rows'
    /// chains side by side ([`matvec_into`]).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.reshape_scratch(m, n);
        if n == 1 {
            matvec_into(&self.data, k, &other.data, &mut out.data);
            return;
        }
        let parallel = m >= PAR_MIN_ROWS && m * k * n >= PAR_THRESHOLD;
        let fused = fused_skips_zeros(m, &other.data);
        if fused && n > 0 {
            let tier = SimdTier::current();
            if simd::tiled(tier) {
                let group = simd::GEMM_TILE_ROWS;
                for_row_groups(&mut out.data, n, group, parallel, |r0, rows| {
                    simd::gemm_rows(tier, &self.data[r0 * k..], k, 1, k, &other.data, n, rows);
                });
                return;
            }
        }
        out.data.fill(0.0);
        let body = |r: usize, out_row: &mut [f32]| {
            let a_row = &self.data[r * k..(r + 1) * k];
            let mut kk = 0;
            while kk + 8 <= k {
                let a: [f32; 8] = a_row[kk..kk + 8].try_into().unwrap();
                let b: [&[f32]; 8] =
                    core::array::from_fn(|l| &other.data[(kk + l) * n..(kk + l + 1) * n]);
                axpy_block8(out_row, a, b, fused);
                kk += 8;
            }
            if kk + 4 <= k {
                let a: [f32; 4] = a_row[kk..kk + 4].try_into().unwrap();
                let b: [&[f32]; 4] =
                    core::array::from_fn(|l| &other.data[(kk + l) * n..(kk + l + 1) * n]);
                axpy_block4(out_row, a, b, fused);
                kk += 4;
            }
            for (kk, &a) in a_row.iter().enumerate().skip(kk) {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        };
        if parallel && n > 0 {
            par::par_chunks_mut(&mut out.data, n, body);
        } else if n > 0 {
            out.data
                .chunks_exact_mut(n)
                .enumerate()
                .for_each(|(r, row)| body(r, row));
        }
    }

    /// `self * otherᵀ` without materializing the transpose. For backprop:
    /// `dX = dY * Wᵀ` with `W` stored `[in, out]`.
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_bt_into(other, &mut out);
        out
    }

    /// `self * otherᵀ` written into `out`. Bit-identical to
    /// [`Matrix::matmul_bt`].
    ///
    /// Four output columns are computed per pass over `a_row`: every element
    /// still accumulates with exactly [`crate::ops::dot`]'s four-accumulator
    /// pattern (so the result is bit-identical to a per-column `dot`), but
    /// the four reduction chains are independent, which quadruples the ILP
    /// this reduction-bound kernel exposes and amortizes the `a_row` loads.
    /// On the AVX2 tier four rows share each pass over `other` instead
    /// (`simd::gemm_bt_rows`, the same `dot` per element).
    pub fn matmul_bt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_bt dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        // No zero-fill: every output element is assigned (not accumulated
        // into) by the bodies below.
        out.reshape_scratch(m, n);
        let parallel = m * k * n >= PAR_THRESHOLD;
        let tier = SimdTier::current();
        if n > 0 && simd::tiled(tier) {
            let group = simd::GEMM_BT_TILE_ROWS;
            for_row_groups(&mut out.data, n, group, parallel, |r0, rows| {
                simd::gemm_bt_rows(tier, &self.data[r0 * k..], k, &other.data, n, rows);
            });
            return;
        }
        let body = |r: usize, out_row: &mut [f32]| {
            let a_row = &self.data[r * k..(r + 1) * k];
            let mut c = 0;
            while c + 4 <= n {
                let b0 = &other.data[c * k..(c + 1) * k];
                let b1 = &other.data[(c + 1) * k..(c + 2) * k];
                let b2 = &other.data[(c + 2) * k..(c + 3) * k];
                let b3 = &other.data[(c + 3) * k..(c + 4) * k];
                let (s0, s1, s2, s3) = crate::simd::dot4(a_row, b0, b1, b2, b3);
                out_row[c] = s0;
                out_row[c + 1] = s1;
                out_row[c + 2] = s2;
                out_row[c + 3] = s3;
                c += 4;
            }
            for cc in c..n {
                let b_row = &other.data[cc * k..(cc + 1) * k];
                out_row[cc] = crate::ops::dot(a_row, b_row);
            }
        };
        if parallel && n > 0 {
            par::par_chunks_mut(&mut out.data, n, body);
        } else if n > 0 {
            out.data
                .chunks_exact_mut(n)
                .enumerate()
                .for_each(|(r, row)| body(r, row));
        }
    }

    /// `selfᵀ * other` without materializing the transpose. For backprop:
    /// `dW = Xᵀ * dY`.
    pub fn matmul_at(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_at_into(other, &mut out);
        out
    }

    /// `selfᵀ * other` written into `out` — parallel over output rows for
    /// large products, bit-identical to the serial path.
    ///
    /// The parallel split hands each worker a contiguous block of *output*
    /// rows (its private accumulator — no cross-thread reduction) and every
    /// output element accumulates over the shared dimension in the same
    /// ascending order as the serial loop, including the `a == 0.0` skip, so
    /// the float summation sequence per element is identical for any thread
    /// count. The fused-block rule is [`Matrix::matmul_into`]'s, with `other`
    /// (`dY` in backprop) as the right operand, and so are its AVX2 register
    /// tiles, which read `self` down its columns (stride `m`); a one-column
    /// product walks `self`'s rows contiguously instead ([`matvec_t_into`]).
    pub fn matmul_at_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_at dimension mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        out.reshape_scratch(m, n);
        let fused = n > 1 && fused_skips_zeros(k, &other.data);
        if fused {
            let tier = SimdTier::current();
            if simd::tiled(tier) {
                let group = simd::GEMM_TILE_ROWS;
                let parallel = k * m * n >= PAR_THRESHOLD;
                for_row_groups(&mut out.data, n, group, parallel, |c0, rows| {
                    simd::gemm_rows(tier, &self.data[c0..], 1, m, k, &other.data, n, rows);
                });
                return;
            }
        }
        out.data.fill(0.0);
        if n == 1 {
            matvec_t_into(&self.data, m, &other.data, &mut out.data);
            return;
        }
        // The row-parallel split needs each worker to gather its `a` column
        // strided, which costs a cache line per element; the serial algorithm
        // streams both inputs contiguously instead. Both orders are
        // bit-identical (asserted by `parallel_path_matches_serial`), so on a
        // single worker the large-product case routes to the streaming form
        // too.
        if k * m * n >= PAR_THRESHOLD && n > 0 && par::thread_count(m) > 1 {
            let a_data = &self.data;
            let b_data = &other.data;
            par::par_chunks_mut(&mut out.data, n, |c, out_row| {
                let mut kk = 0;
                while kk + 8 <= k {
                    let a: [f32; 8] = core::array::from_fn(|l| a_data[(kk + l) * m + c]);
                    let b: [&[f32]; 8] =
                        core::array::from_fn(|l| &b_data[(kk + l) * n..(kk + l + 1) * n]);
                    axpy_block8(out_row, a, b, fused);
                    kk += 8;
                }
                if kk + 4 <= k {
                    let a: [f32; 4] = core::array::from_fn(|l| a_data[(kk + l) * m + c]);
                    let b: [&[f32]; 4] =
                        core::array::from_fn(|l| &b_data[(kk + l) * n..(kk + l + 1) * n]);
                    axpy_block4(out_row, a, b, fused);
                    kk += 4;
                }
                for kk in kk..k {
                    let a = a_data[kk * m + c];
                    if a == 0.0 {
                        continue;
                    }
                    let b_row = &b_data[kk * n..(kk + 1) * n];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            });
        } else {
            // Serial accumulation over the shared dimension streams both
            // inputs contiguously — cache friendly for the small layer-width
            // products that dominate below the threshold. Eight shared-dim
            // steps per pass (then one four-step block and a scalar tail),
            // same fused left-to-right chain as [`Matrix::matmul_into`]
            // (bit-identical to the step-by-step loop), falling back when a
            // block contains a zero the fused pass may not absorb (see
            // [`axpy_block8`]).
            let mut kk = 0;
            while kk + 8 <= k {
                let a_rows: [&[f32]; 8] =
                    core::array::from_fn(|l| &self.data[(kk + l) * m..(kk + l + 1) * m]);
                let b: [&[f32]; 8] =
                    core::array::from_fn(|l| &other.data[(kk + l) * n..(kk + l + 1) * n]);
                for c in 0..m {
                    let a: [f32; 8] = core::array::from_fn(|l| a_rows[l][c]);
                    axpy_block8(&mut out.data[c * n..(c + 1) * n], a, b, fused);
                }
                kk += 8;
            }
            if kk + 4 <= k {
                let a_rows: [&[f32]; 4] =
                    core::array::from_fn(|l| &self.data[(kk + l) * m..(kk + l + 1) * m]);
                let b: [&[f32]; 4] =
                    core::array::from_fn(|l| &other.data[(kk + l) * n..(kk + l + 1) * n]);
                for c in 0..m {
                    let a: [f32; 4] = core::array::from_fn(|l| a_rows[l][c]);
                    axpy_block4(&mut out.data[c * n..(c + 1) * n], a, b, fused);
                }
                kk += 4;
            }
            for kk in kk..k {
                let a_row = &self.data[kk * m..(kk + 1) * m];
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (c, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let out_row = &mut out.data[c * n..(c + 1) * n];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// Adds `row` (a 1 x cols vector) to every row — bias broadcast.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "broadcast width mismatch");
        for r in self.data.chunks_exact_mut(self.cols) {
            for (a, b) in r.iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sums each column into a `cols`-length vector (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        self.col_sums_into(&mut out);
        out
    }

    /// Column sums written into a caller-owned slice of length `cols`.
    pub fn col_sums_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "col_sums_into width mismatch");
        out.fill(0.0);
        for r in self.data.chunks_exact(self.cols.max(1)) {
            for (o, &v) in out.iter_mut().zip(r) {
                *o += v;
            }
        }
    }

    /// Extracts the sub-matrix made of the given rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Row selection written into a caller-owned matrix (reshaped to
    /// `indices.len() x cols`, no allocation once `out` has the capacity).
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.reshape_scratch(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
    }

    /// Extracts the sub-matrix made of the given columns, in order.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            let src = self.row(r);
            for (j, &c) in indices.iter().enumerate() {
                out.set(r, j, src[c]);
            }
        }
        out
    }
}

/// Runs `tile(first_row, rows)` over `out` (row-major, `n > 0` wide): once
/// over every row, or, when `parallel`, over whole groups of `group` rows
/// split across workers (each taking a contiguous run of groups) and then
/// once over the last `rows % group` rows. Every output row is computed
/// independently, so the split never changes a bit.
fn for_row_groups(
    out: &mut [f32],
    n: usize,
    group: usize,
    parallel: bool,
    tile: impl Fn(usize, &mut [f32]) + Sync,
) {
    if !parallel {
        tile(0, out);
        return;
    }
    let split = out.len() / (group * n) * (group * n);
    let (full, rest) = out.split_at_mut(split);
    par::par_chunks_mut(full, group * n, |g, rows| tile(g * group, rows));
    if !rest.is_empty() {
        tile(split / n, rest);
    }
}

/// Whether a product with `rows` left-operand rows and right operand `b` may
/// run every block through the fused pass, zero coefficients included.
///
/// Adding a zero term is exact: each accumulator starts at `+0.0`, and under
/// round-to-nearest a sum is `-0.0` only when both addends are, so an
/// accumulator never holds `-0.0`. Then `acc + (±0 · b)` returns `acc`'s own
/// bits — `+0.0` stays `+0.0`, anything else is unchanged — provided `b` is
/// finite (`0 · ±inf` and `0 · NaN` are NaN). So on a finite right operand
/// the fused chain equals the chain that skips `a == 0.0` terms, and blocks
/// holding dropout zeros stay on SIMD.
///
/// The scan reads `b` once, one read per `out.rows()` multiply-adds of the
/// product, and runs only when the left operand has at least
/// [`PAR_MIN_ROWS`] rows (training batches); the serve router's flushes (32
/// rows by default) keep the per-block zero test and never pay it.
fn fused_skips_zeros(rows: usize, b: &[f32]) -> bool {
    rows >= PAR_MIN_ROWS && b.iter().fold(true, |ok, v| ok & v.is_finite())
}

/// One four-step shared-dim block: the fused [`crate::simd::axpy4`] pass
/// (dispatched to the active SIMD tier) when every coefficient is nonzero or
/// `fused` (see [`fused_skips_zeros`]) says zeros are harmless; otherwise the
/// per-step loop, which skips `a == 0.0` terms. Either way each output
/// element sees its `+=` terms in ascending step order — bit-identical to
/// four sequential row updates on every tier.
fn axpy_block4(out: &mut [f32], a: [f32; 4], b: [&[f32]; 4], fused: bool) {
    if fused || a.iter().all(|&v| v != 0.0) {
        crate::simd::axpy4(out, a, b[0], b[1], b[2], b[3]);
    } else {
        for (l, b_row) in b.into_iter().enumerate() {
            let av = a[l];
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in out.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// One eight-step shared-dim block: [`crate::simd::axpy8`] when all eight
/// coefficients are nonzero or `fused`, else two [`axpy_block4`] halves. All
/// paths apply the same per-element chain in ascending step order, so the
/// choice never changes a bit.
fn axpy_block8(out: &mut [f32], a: [f32; 8], b: [&[f32]; 8], fused: bool) {
    if fused || a.iter().all(|&v| v != 0.0) {
        crate::simd::axpy8(out, a, b);
    } else {
        axpy_block4(
            out,
            [a[0], a[1], a[2], a[3]],
            [b[0], b[1], b[2], b[3]],
            false,
        );
        axpy_block4(
            out,
            [a[4], a[5], a[6], a[7]],
            [b[4], b[5], b[6], b[7]],
            false,
        );
    }
}

/// `acc + a·b`, or `acc` itself when `a == 0.0` — one step of the chain
/// every product kernel computes, written as a select so it needs no
/// finiteness precondition and no branch.
#[inline(always)]
fn step_skipping_zero(acc: f32, a: f32, b: f32) -> f32 {
    let sum = acc + a * b;
    if a == 0.0 {
        acc
    } else {
        sum
    }
}

/// `out = a · b` for row-major `a` (`out.len()` rows of width `k`) and a
/// column `b`: the one-output-column product. Each row is one serial chain
/// over the shared dimension, so eight rows' chains run side by side
/// (independent accumulators instead of eight-wide vectors over a single
/// output element).
fn matvec_into(a: &[f32], k: usize, b: &[f32], out: &mut [f32]) {
    const LANES: usize = 8;
    let done = out.len() / LANES * LANES;
    for (blk, out8) in out.chunks_exact_mut(LANES).enumerate() {
        let rows: [&[f32]; LANES] =
            core::array::from_fn(|l| &a[(blk * LANES + l) * k..(blk * LANES + l + 1) * k]);
        let mut acc = [0.0f32; LANES];
        for (kk, &bv) in b.iter().enumerate() {
            for l in 0..LANES {
                acc[l] = step_skipping_zero(acc[l], rows[l][kk], bv);
            }
        }
        out8.copy_from_slice(&acc);
    }
    for (r, o) in out.iter_mut().enumerate().skip(done) {
        let row = &a[r * k..(r + 1) * k];
        *o = row
            .iter()
            .zip(b)
            .fold(0.0, |acc, (&av, &bv)| step_skipping_zero(acc, av, bv));
    }
}

/// `out = aᵀ · b` for row-major `a` (`b.len()` rows of width `out.len()`)
/// and a column `b`: walks `a`'s rows contiguously, every output element
/// accumulating over the shared dimension in ascending order.
fn matvec_t_into(a: &[f32], m: usize, b: &[f32], out: &mut [f32]) {
    for (a_row, &bv) in a.chunks_exact(m.max(1)).zip(b) {
        for (o, &av) in out.iter_mut().zip(a_row) {
            *o = step_skipping_zero(*o, av, bv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = m(
            4,
            3,
            &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0],
        );
        assert_eq!(a.matmul_bt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = m(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = m(
            4,
            3,
            &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0],
        );
        assert_eq!(a.matmul_at(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Large enough to cross PAR_THRESHOLD and PAR_MIN_ROWS.
        let n = PAR_MIN_ROWS;
        let a = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(n, n, |r, c| ((r * 17 + c * 5) % 11) as f32 - 5.0);
        let fast = a.matmul(&b);
        // Reference: naive triple loop.
        let mut want = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a.get(i, k) * b.get(k, j);
                }
                want.set(i, j, s);
            }
        }
        for (x, y) in fast.as_slice().iter().zip(want.as_slice()) {
            assert!((x - y).abs() <= 1e-3, "{x} vs {y}");
        }

        // matmul_at crosses the threshold too (128^3 multiply-adds). Its
        // parallel split promises *bit*-identity with the serial loop order,
        // so emulate that order here and compare exactly.
        let fast_at = a.matmul_at(&b);
        let mut want_at = Matrix::zeros(n, n);
        for kk in 0..n {
            for c in 0..n {
                let av = a.get(kk, c);
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let cur = want_at.get(c, j);
                    want_at.set(c, j, cur + av * b.get(kk, j));
                }
            }
        }
        assert_eq!(
            fast_at.as_slice(),
            want_at.as_slice(),
            "parallel matmul_at must be bit-identical to the serial order"
        );
    }

    #[test]
    fn matmul_bt_blocked_columns_are_bit_identical_to_dot() {
        // The column-blocked kernel promises *bit*-identity with a
        // per-column `ops::dot`. Cover odd shapes: a column count with a
        // tail after the 4-wide blocks (n = 7) and a shared dimension with
        // a tail after dot's 4-wide unroll (k = 13).
        let (m_, k_, n_) = (5, 13, 7);
        let a = Matrix::from_fn(m_, k_, |r, c| ((r * 29 + c * 13) % 17) as f32 * 0.37 - 2.9);
        let b = Matrix::from_fn(n_, k_, |r, c| ((r * 23 + c * 7) % 19) as f32 * 0.53 - 4.1);
        let got = a.matmul_bt(&b);
        for r in 0..m_ {
            for c in 0..n_ {
                assert_eq!(
                    got.get(r, c).to_bits(),
                    crate::ops::dot(a.row(r), b.row(c)).to_bits(),
                    "({r},{c})"
                );
            }
        }
    }

    #[test]
    fn into_kernels_match_owned_and_reuse_buffers() {
        let a = m(3, 4, &[1.0; 12]);
        let a2 = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 - 5.0);
        let b = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 * 0.5 - 1.0);
        let bt = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32 * 0.25);
        let at = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32 - 7.0);

        // One scratch buffer driven through all three kernels at different
        // shapes; each call must fully overwrite the stale contents.
        let mut out = Matrix::zeros(0, 0);
        a2.matmul_into(&b, &mut out);
        assert_eq!(out, a2.matmul(&b));
        a2.matmul_bt_into(&bt, &mut out);
        assert_eq!(out, a2.matmul_bt(&bt));
        a2.matmul_at_into(&at, &mut out);
        assert_eq!(out, a2.matmul_at(&at));

        a.select_rows_into(&[2, 0], &mut out);
        assert_eq!(out, a.select_rows(&[2, 0]));

        let mut sums = vec![9.0f32; 4];
        a2.col_sums_into(&mut sums);
        assert_eq!(sums, a2.col_sums());
    }

    #[test]
    fn reshape_scratch_reuses_capacity() {
        let mut s = Matrix::zeros(8, 8);
        let cap = s.data.capacity();
        s.reshape_scratch(2, 3);
        assert_eq!((s.rows(), s.cols()), (2, 3));
        s.reshape_scratch(8, 8);
        assert_eq!(s.data.capacity(), cap, "shrink+regrow must not reallocate");
    }

    #[test]
    fn broadcast_and_col_sums() {
        let mut a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        a.add_row_broadcast(&[10.0, 20.0, 30.0]);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        assert_eq!(a.col_sums(), vec![25.0, 47.0, 69.0]);
    }

    #[test]
    fn select_rows_orders_output() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn select_cols_orders_output() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.select_cols(&[2, 0]);
        assert_eq!(s.as_slice(), &[3.0, 1.0, 6.0, 4.0]);
        let empty = a.select_cols(&[]);
        assert_eq!((empty.rows(), empty.cols()), (2, 0));
    }

    #[test]
    fn products_bit_identical_under_every_simd_tier() {
        // Odd shapes hit the 8-block, 4-block and scalar tails of every
        // kernel; the three products must produce the same bits no matter
        // which tier the dispatch lands on.
        let a = Matrix::from_fn(9, 21, |r, c| ((r * 31 + c * 7) % 23) as f32 * 0.41 - 4.3);
        let b = Matrix::from_fn(21, 13, |r, c| ((r * 17 + c * 5) % 19) as f32 * 0.29 - 2.7);
        let bt = Matrix::from_fn(13, 21, |r, c| ((r * 13 + c * 3) % 29) as f32 * 0.17 - 2.2);
        let at = Matrix::from_fn(9, 13, |r, c| ((r * 7 + c * 11) % 31) as f32 * 0.23 - 3.4);
        let want =
            crate::SimdTier::Scalar.force(|| (a.matmul(&b), a.matmul_bt(&bt), a.matmul_at(&at)));
        for tier in crate::SimdTier::available() {
            let got = tier.force(|| (a.matmul(&b), a.matmul_bt(&bt), a.matmul_at(&at)));
            for (g, w) in [(&got.0, &want.0), (&got.1, &want.1), (&got.2, &want.2)] {
                let same = g
                    .as_slice()
                    .iter()
                    .zip(w.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{tier:?} diverged from scalar");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_bad_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn zero_sized_edges() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 0);
        let c = a.matmul(&b);
        assert_eq!((c.rows(), c.cols()), (0, 0));
        let d = Matrix::zeros(2, 0).matmul(&Matrix::zeros(0, 4));
        assert_eq!((d.rows(), d.cols()), (2, 4));
        assert!(d.as_slice().iter().all(|&v| v == 0.0));
    }
}
