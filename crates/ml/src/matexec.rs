//! Execution formats for compressed weight matrices.
//!
//! Storage formats are chosen for size and mmap-shareability (CSR triples,
//! row-major int8 — what `.cogm` serializes); the *kernels* want different
//! layouts. This module compiles a storage matrix into an execution format
//! once — at plan build or artifact open — and memoizes it on the matrix
//! behind an [`ExecCache`], so every session cloned from a shared artifact
//! reuses one compiled image while the mmap-backed weight arrays stay
//! untouched.
//!
//! Everything here is governed by one contract: **the execution format is
//! bit-invisible**. Per output element, the f32 kernels apply exactly one
//! `multiply, add` per weight term in ascending weight-row order — the
//! same sequence as the storage kernels ([`CsrMatrix::left_matmul_into`],
//! [`crate::tensor::matmul_kernel`]) — and the int8 kernels accumulate in
//! exact i32 arithmetic, which is associative. Two facts make the sparse
//! format changes safe:
//!
//! * an f32 accumulator that starts at `+0.0` can never become `-0.0`
//!   (IEEE 754 addition returns `-0.0` only when *both* addends are
//!   `-0.0`, and exact cancellation returns `+0.0`), so adding a
//!   zero-valued product — an unstored weight in the densified form, or a
//!   zero activation the CSR kernel would have skipped — never changes a
//!   single bit. Zero-skipping is a performance choice, not a numeric one.
//! * CSC construction is a stable counting sort, so entries within one
//!   column stay in ascending weight-row order and duplicate coordinates
//!   (legal in validated CSR) are applied in storage order, exactly as the
//!   CSR kernel applies them.
//!
//! Weights and activations are assumed finite (no NaN/inf), as everywhere
//! else in the inference stack.

use std::sync::{Arc, OnceLock};

use crate::sparse::CsrMatrix;
use crate::tensor::{matmul_kernel, transpose_into};

/// Memoized compiled execution format, attached to a storage matrix.
///
/// Cloning shares the compiled form (it is an `Arc`), which is what lets
/// every serving session cloned from one artifact model reuse a single
/// compiled image. The cache is derived data: it never serializes, never
/// participates in equality, and is rebuilt on demand after deserialization.
/// Mutating a matrix's public storage fields after the cache is populated
/// is unsupported (compression transforms always build fresh matrices).
pub struct ExecCache<T>(OnceLock<Arc<T>>);

impl<T> ExecCache<T> {
    /// Returns the compiled form, building it on first use.
    pub fn get_or_compile(&self, build: impl FnOnce() -> T) -> &Arc<T> {
        self.0.get_or_init(|| Arc::new(build()))
    }

    /// Whether the execution format has been compiled yet.
    #[must_use]
    pub fn is_compiled(&self) -> bool {
        self.0.get().is_some()
    }
}

impl<T> Default for ExecCache<T> {
    fn default() -> Self {
        Self(OnceLock::new())
    }
}

impl<T> Clone for ExecCache<T> {
    fn clone(&self) -> Self {
        Self(self.0.clone())
    }
}

impl<T> std::fmt::Debug for ExecCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_compiled() {
            "ExecCache(compiled)"
        } else {
            "ExecCache(empty)"
        })
    }
}

/// Caches compare equal unconditionally: they are derived from the storage
/// fields their owner already compares, so two matrices are interchangeable
/// exactly when those fields match, regardless of who compiled first.
impl<T> PartialEq for ExecCache<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Densities **above** this compile the sparse execution format to a
/// densified matrix (zeros materialized, run through the dense kernel)
/// instead of CSC streaming. Re-derived in PR 9 from the
/// `BENCH_matvec-density.json` sweep (512×512): even the batched CSC
/// panels stop paying once roughly half the entries are present, while
/// the densified form rides the SIMD dense kernel at full width
/// regardless of density.
pub const SPARSE_DENSIFY_MIN_DENSITY: f64 = 0.5;

/// Output widths at or above this are "wide": the dense kernel runs
/// its 8-lane AVX2 column panels, so sparse execution competes against
/// SIMD instead of a scalar loop. Narrow matrices (the paper's 3-class
/// head) compare against the scalar dense path, where CSC wins at any
/// density below [`SPARSE_DENSIFY_MIN_DENSITY`].
pub const DENSE_SIMD_MIN_COLS: usize = 8;

/// For wide matrices, densities **above** this compile the hybrid form
/// (CSC *and* a densified copy, picked per call by batch width). From the
/// same 512×512 sweep: single-row CSC — serial add-latency chains against
/// an 8-lane dense kernel — crosses over between 20% (0.80× dense) and
/// 30% (1.20×) density, while batched CSC panels still win at 50%
/// (0.39×). Batch width is only known at call time, so mid-density wide
/// matrices carry both forms.
pub const SPARSE_HYBRID_MIN_DENSITY: f64 = 0.25;

/// Output widths **below** this compile the int8 execution format to a
/// column-major transpose (per-output-dot kernel); wider matrices keep the
/// storage row-major layout and run the panel kernel. 16-column panels
/// need two panels of headroom to amortize their setup, and narrow heads
/// (the 3-class classifier) vectorize along `k` instead.
pub const INT8_COLMAJOR_MAX_COLS: usize = 32;

/// Compiled execution form of a CSR matrix.
#[derive(Debug)]
pub enum SparseExec {
    /// Column-major streaming form: per output element a serial
    /// multiply-add chain over that column's stored entries.
    Csc(CscExec),
    /// Densified form for high-density matrices: zeros materialized,
    /// executed by [`crate::tensor::matmul_kernel`] (`[k, n]` row-major).
    Densified {
        /// Input width.
        k: usize,
        /// Output width.
        n: usize,
        /// Row-major dense weights.
        w: Vec<f32>,
    },
    /// Mid-density wide matrices carry both forms and pick per call:
    /// batches that fill the 8-row CSC panels stream CSC, single rows and
    /// small batches run the densified copy (the m == 1 CSC chains lose
    /// to the 8-lane dense kernel in this density band). Every form is
    /// bit-identical, so the per-call choice is invisible.
    Hybrid {
        /// CSC form for batched calls.
        csc: CscExec,
        /// Input width.
        k: usize,
        /// Output width.
        n: usize,
        /// Row-major densified weights for single-row calls.
        w: Vec<f32>,
    },
}

/// CSC (compressed sparse column) execution format.
///
/// `left_matmul` reduces each output element to a dot product over one
/// column's entries, so accumulators live in registers and nothing
/// scatters — the storage CSR kernel's `out[col] +=` store-to-load chain
/// is gone. Entries within a column are in ascending weight-row order
/// (stable counting sort), which is exactly the storage kernel's
/// per-element accumulation order.
#[derive(Debug)]
pub struct CscExec {
    k: usize,
    n: usize,
    /// `n + 1` offsets into `row_idx` / `values`.
    col_ptr: Vec<u32>,
    /// Weight-row index of each stored value, ascending within a column.
    row_idx: Vec<u32>,
    values: Vec<f32>,
}

impl SparseExec {
    /// Compiles the execution format for a validated CSR matrix, selecting
    /// the form from measured density *and* shape (see the constants
    /// above): pure CSC where its chains win outright, densified above
    /// [`SPARSE_DENSIFY_MIN_DENSITY`], and the dual-form hybrid for wide
    /// matrices in the band where the winner depends on batch width.
    ///
    /// Densifying (fully or as the hybrid's dense half) requires every
    /// row's columns to be strictly increasing (always true for
    /// [`CsrMatrix::from_dense`] output). Duplicate coordinates must be
    /// applied sequentially to match the storage kernel bit-for-bit,
    /// which a dense cell cannot represent, so such matrices fall back to
    /// CSC, which preserves per-entry application order unconditionally.
    #[must_use]
    pub fn compile(csr: &CsrMatrix) -> Self {
        let cells = csr.rows * csr.cols;
        let density = if cells == 0 {
            0.0
        } else {
            csr.nnz() as f64 / cells as f64
        };
        let wide = csr.cols >= DENSE_SIMD_MIN_COLS;
        if columns_strictly_increasing(csr) {
            if density > SPARSE_DENSIFY_MIN_DENSITY {
                return SparseExec::Densified {
                    k: csr.rows,
                    n: csr.cols,
                    w: csr.to_dense().data().to_vec(),
                };
            }
            if wide && density > SPARSE_HYBRID_MIN_DENSITY {
                return SparseExec::Hybrid {
                    csc: CscExec::from_csr(csr),
                    k: csr.rows,
                    n: csr.cols,
                    w: csr.to_dense().data().to_vec(),
                };
            }
        }
        SparseExec::Csc(CscExec::from_csr(csr))
    }

    /// Whether this compiled to the pure CSC streaming form.
    #[must_use]
    pub fn is_csc(&self) -> bool {
        matches!(self, SparseExec::Csc(_))
    }

    /// Whether this compiled to the dual-form hybrid.
    #[must_use]
    pub fn is_hybrid(&self) -> bool {
        matches!(self, SparseExec::Hybrid { .. })
    }

    /// The CSC form a call over `m` batch rows runs, or `None` when it
    /// runs a densified matrix: pure CSC runs at every row count, the
    /// hybrid's CSC half once a batch fills at least one 8-row panel
    /// (`CSC_PANEL_ROWS`; below that its densified copy wins this
    /// density band), and the densified form never. Both
    /// [`SparseExec::left_matmul_into`] and callers that chain CSC stages
    /// in the transposed domain ([`CscExec::transposed_into`]) decide
    /// with this one rule.
    #[must_use]
    pub fn csc_at(&self, m: usize) -> Option<&CscExec> {
        match self {
            SparseExec::Csc(c) => Some(c),
            SparseExec::Hybrid { csc, .. } if m >= CSC_PANEL_ROWS => Some(csc),
            SparseExec::Hybrid { .. } | SparseExec::Densified { .. } => None,
        }
    }

    /// `x [m, k] × W -> [m, n]`, bit-identical to
    /// [`CsrMatrix::left_matmul_into`] on the matrix this was compiled
    /// from. `out` is fully overwritten; `xt`/`yt` are caller scratch
    /// (grow-only, so warm calls allocate nothing).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` is shorter than the dimensions imply.
    pub fn left_matmul_into(
        &self,
        x: &[f32],
        m: usize,
        out: &mut [f32],
        xt: &mut Vec<f32>,
        yt: &mut Vec<f32>,
    ) {
        match (self.csc_at(m), self) {
            (Some(csc), _) => csc.left_matmul_into(x, m, out, xt, yt),
            (None, SparseExec::Densified { k, n, w } | SparseExec::Hybrid { k, n, w, .. }) => {
                matmul_kernel(x, w, m, *k, *n, out);
            }
            (None, SparseExec::Csc(_)) => unreachable!("pure CSC runs at every row count"),
        }
    }
}

/// Batch rows per AVX2 panel in [`CscExec::transposed_into`]; also the
/// hybrid form's call-time cutover from densified to CSC execution.
const CSC_PANEL_ROWS: usize = 8;

/// Whether every row's column indices are strictly increasing (sorted,
/// no duplicates) — the precondition for densifying.
fn columns_strictly_increasing(csr: &CsrMatrix) -> bool {
    (0..csr.rows).all(|p| {
        csr.col_idx[csr.row_ptr[p]..csr.row_ptr[p + 1]]
            .windows(2)
            .all(|w| w[0] < w[1])
    })
}

impl CscExec {
    /// Transposes validated CSR storage into CSC with a stable counting
    /// sort: rows are visited in ascending order and entries in storage
    /// order, so each column's entries end up in exactly the order the
    /// storage kernel applies them.
    #[must_use]
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        let (k, n) = (csr.rows, csr.cols);
        let nnz = csr.nnz();
        let mut col_ptr = vec![0u32; n + 1];
        for &c in csr.col_idx.iter() {
            col_ptr[c as usize + 1] += 1;
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut cursor: Vec<u32> = col_ptr[..n].to_vec();
        let mut row_idx = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        for p in 0..k {
            for e in csr.row_ptr[p]..csr.row_ptr[p + 1] {
                let c = csr.col_idx[e] as usize;
                let slot = cursor[c] as usize;
                cursor[c] += 1;
                row_idx[slot] = p as u32;
                values[slot] = csr.values[e];
            }
        }
        Self {
            k,
            n,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// See [`SparseExec::left_matmul_into`].
    ///
    /// Bit-identity note: unlike the storage kernel this path does *not*
    /// test activations for zero — a zero activation contributes an exact
    /// `±0.0` product, which cannot change an accumulator that is never
    /// `-0.0` (it starts at `+0.0`, and `+0.0 + -0.0 = +0.0`).
    pub fn left_matmul_into(
        &self,
        x: &[f32],
        m: usize,
        out: &mut [f32],
        xt: &mut Vec<f32>,
        yt: &mut Vec<f32>,
    ) {
        let (k, n) = (self.k, self.n);
        assert!(x.len() >= m * k, "input shorter than m*k");
        let out = &mut out[..m * n];
        if m == 1 {
            self.single_row(x, out);
            return;
        }
        // Transpose x [m, k] -> xt [k, m] so one column's entries read
        // contiguous activation panels across the batch, run the batched
        // kernel, and transpose yt [n, m] back into out [m, n].
        xt.resize(k * m, 0.0);
        transpose_into(x, k, m, k, xt);
        yt.resize(n * m, 0.0);
        self.transposed_into(xt, m, yt);
        transpose_into(yt, m, n, m, out);
    }

    /// The batched kernel over transposed activations:
    /// `xt [k, m] × W -> yt [n, m]`, i.e. `yt[c·m + i]` is output column
    /// `c` of batch row `i`. Each element is one chain over column `c`'s
    /// stored entries in ascending weight row, starting from `+0.0` — the
    /// per-element sequence of [`CsrMatrix::left_matmul_into`], so the
    /// bits match it at any `m`. The AVX2 panels take blocks of eight rows
    /// and the scalar body (`CscExec::batch_scalar`) only the rows they
    /// leave: all of them with dispatch off, none when `m` is a multiple
    /// of eight. Callers that keep activations transposed between stages
    /// call this directly and skip [`CscExec::left_matmul_into`]'s two
    /// transposes.
    ///
    /// # Panics
    ///
    /// Panics if `xt` is shorter than `k·m` or `yt` than `n·m`.
    pub fn transposed_into(&self, xt: &[f32], m: usize, yt: &mut [f32]) {
        assert!(xt.len() >= self.k * m, "transposed input shorter than k*m");
        let yt = &mut yt[..self.n * m];
        let tail = self.panel_rows(xt, m, yt);
        if tail < m {
            self.batch_scalar(xt, m, tail, yt);
        }
    }

    /// Runs the AVX2 panels over the leading blocks of eight batch rows
    /// and returns the first row they left: a multiple of eight with SIMD
    /// dispatch on, otherwise 0.
    #[cfg(target_arch = "x86_64")]
    fn panel_rows(&self, xt: &[f32], m: usize, yt: &mut [f32]) -> usize {
        if !crate::simd::enabled() || m < CSC_PANEL_ROWS {
            return 0;
        }
        // SAFETY: AVX2 support was just detected; `xt` holds `k*m` and `yt`
        // exactly `n*m` values (checked and sliced by the caller), and the
        // panels stay within both. Their twin is `batch_scalar`, which
        // computes the same bits per element without AVX2.
        unsafe { self.batch_panels_avx2(xt, m, yt) }
    }

    /// Off x86-64 there are no panels: every row takes the scalar body.
    #[cfg(not(target_arch = "x86_64"))]
    fn panel_rows(&self, _: &[f32], _: usize, _: &mut [f32]) -> usize {
        0
    }

    /// `m == 1` kernel: one serial multiply-add chain per output element,
    /// interleaved eight columns at a time so the chains' add latencies
    /// overlap (four chains were measurably latency-bound at mid
    /// densities). Interleaving distinct output elements reorders nothing
    /// within any element, so bits are unaffected.
    fn single_row(&self, x: &[f32], out: &mut [f32]) {
        debug_assert!(x.len() >= self.k);
        let mut c0 = 0;
        while c0 < self.n {
            let width = 8.min(self.n - c0);
            let mut start = [0usize; 8];
            let mut len = [0usize; 8];
            let mut shortest = usize::MAX;
            for r in 0..width {
                start[r] = self.col_ptr[c0 + r] as usize;
                len[r] = self.col_ptr[c0 + r + 1] as usize - start[r];
                shortest = shortest.min(len[r]);
            }
            let mut acc = [0.0f32; 8];
            // SAFETY: `from_csr` builds `row_idx` from validated CSR column
            // indices, so every entry is `< k <= x.len()`, and `col_ptr`
            // brackets `values`/`row_idx` by construction. The unchecked
            // loads change nothing about evaluation order, so bits match
            // the checked form exactly.
            unsafe {
                for t in 0..shortest {
                    for r in 0..width {
                        let e = start[r] + t;
                        let p = *self.row_idx.get_unchecked(e) as usize;
                        acc[r] += x.get_unchecked(p) * self.values.get_unchecked(e);
                    }
                }
                for r in 0..width {
                    for e in start[r] + shortest..start[r] + len[r] {
                        let p = *self.row_idx.get_unchecked(e) as usize;
                        acc[r] += x.get_unchecked(p) * self.values.get_unchecked(e);
                    }
                    out[c0 + r] = acc[r];
                }
            }
            c0 += width;
        }
    }

    /// Batched AVX2 kernel over transposed activations: each column's
    /// entry list is walked once for up to six eight-row batch panels (48,
    /// then 32, 16 and 8 rows), whose accumulators live in registers across
    /// the whole list; per entry and panel one multiply, one add
    /// (`vmulps`/`vaddps`, never FMA) — the storage kernel's exact
    /// per-element sequence. Six panels cover the paper Transformer's
    /// 48-step window in one walk; with fewer, each walk's short entry
    /// lists leave the add latency exposed. Returns the first batch row
    /// left for the scalar tail.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available, `xt.len() >= k*m` and
    /// `yt.len() >= n*m`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn batch_panels_avx2(&self, xt: &[f32], m: usize, yt: &mut [f32]) -> usize {
        let mut i = 0;
        while i + 48 <= m {
            self.panels_avx2::<6>(xt, m, i, yt);
            i += 48;
        }
        if i + 32 <= m {
            self.panels_avx2::<4>(xt, m, i, yt);
            i += 32;
        }
        if i + 16 <= m {
            self.panels_avx2::<2>(xt, m, i, yt);
            i += 16;
        }
        if i + 8 <= m {
            self.panels_avx2::<1>(xt, m, i, yt);
            i += 8;
        }
        i
    }

    /// Batch rows `i0..i0 + 8·P` of [`CscExec::batch_panels_avx2`], every
    /// output column.
    ///
    /// # Safety
    ///
    /// As [`CscExec::batch_panels_avx2`], with `i0 + 8*P <= m`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn panels_avx2<const P: usize>(&self, xt: &[f32], m: usize, i0: usize, yt: &mut [f32]) {
        use std::arch::x86_64::{
            _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
            _mm256_storeu_ps,
        };
        for c in 0..self.n {
            let start = self.col_ptr[c] as usize;
            let end = self.col_ptr[c + 1] as usize;
            let mut acc = [_mm256_setzero_ps(); P];
            for e in start..end {
                let p = *self.row_idx.get_unchecked(e) as usize;
                let v = _mm256_set1_ps(*self.values.get_unchecked(e));
                let xs = xt.as_ptr().add(p * m + i0);
                for (x, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(v, _mm256_loadu_ps(xs.add(8 * x))));
                }
            }
            for (x, &a) in acc.iter().enumerate() {
                _mm256_storeu_ps(yt.as_mut_ptr().add(c * m + i0 + 8 * x), a);
            }
        }
    }

    /// Scalar batch kernel for rows `[i0, m)` of the transposed
    /// activations: the twin of the AVX2 panels, run on the rows they
    /// leave, or on the full batch when SIMD is unavailable.
    fn batch_scalar(&self, xt: &[f32], m: usize, i0: usize, yt: &mut [f32]) {
        for c in 0..self.n {
            let start = self.col_ptr[c] as usize;
            let end = self.col_ptr[c + 1] as usize;
            let col = &mut yt[c * m..c * m + m];
            for v in &mut col[i0..] {
                *v = 0.0;
            }
            for e in start..end {
                let p = self.row_idx[e] as usize;
                let v = self.values[e];
                let xs = &xt[p * m..p * m + m];
                for (o, &xv) in col[i0..].iter_mut().zip(&xs[i0..]) {
                    *o += xv * v;
                }
            }
        }
    }
}

/// Compiled execution form of an int8 matrix. The weight bytes for the
/// row-major form stay in the (possibly mmap-backed) storage array — only
/// the narrow column-major transpose materializes new data.
#[derive(Debug)]
pub enum Int8Exec {
    /// Column-major transpose `[n, k]` for narrow outputs: each output
    /// element is one `k`-long dot product vectorized along `k`.
    ColMajor {
        /// Transposed weights.
        wt: Vec<i8>,
    },
    /// Wide outputs execute straight from row-major storage via the
    /// 16-column panel kernel.
    RowMajor,
}

impl Int8Exec {
    /// Picks the execution form from the output width (see
    /// [`INT8_COLMAJOR_MAX_COLS`]).
    #[must_use]
    pub fn compile(k: usize, n: usize, w: &[i8]) -> Self {
        if n >= INT8_COLMAJOR_MAX_COLS {
            return Int8Exec::RowMajor;
        }
        let mut wt = vec![0i8; k * n];
        for p in 0..k {
            for c in 0..n {
                wt[c * k + p] = w[p * n + c];
            }
        }
        Int8Exec::ColMajor { wt }
    }

    /// Whether this compiled to the column-major transpose.
    #[must_use]
    pub fn is_col_major(&self) -> bool {
        matches!(self, Int8Exec::ColMajor { .. })
    }

    /// Quantized GEMM with fused dequantization:
    /// `out[i, c] = (Σ_p xq[i, p] · w[p, c]) as f32 * deq[i]`.
    ///
    /// `w` is the row-major storage array (used by the row-major form),
    /// `deq` the per-batch-row dequantization scale. i32 accumulation is
    /// exact, so every dispatch variant produces identical sums; the f32
    /// epilogue is a single convert-and-multiply per element everywhere.
    /// Callers must keep `k * 127 * 127 < i32::MAX` (`k` ≲ 133 000),
    /// which every layer in this codebase satisfies by orders of
    /// magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `xq`, `w` or `out` is shorter than the dimensions imply.
    // A GEMM call site genuinely carries this many operands (dims, both
    // operand arrays, per-row scales, output, scratch); bundling them
    // into a struct would just move the argument list one layer up.
    #[allow(clippy::too_many_arguments)]
    pub fn left_matmul_into(
        &self,
        xq: &[i8],
        m: usize,
        k: usize,
        n: usize,
        w: &[i8],
        deq: &[f32],
        out: &mut [f32],
        acc: &mut Vec<i32>,
    ) {
        assert!(xq.len() >= m * k, "quantized input shorter than m*k");
        let out = &mut out[..m * n];
        match self {
            Int8Exec::ColMajor { wt } => {
                #[cfg(target_arch = "x86_64")]
                if crate::simd::enabled() && k >= 16 {
                    // SAFETY: AVX2 was just detected; the kernel reads
                    // `xq[..m*k]`, `wt[..n*k]` and writes `out[..m*n]`.
                    unsafe { col_major_avx2(xq, wt, m, k, n, deq, out) };
                    return;
                }
                col_major_scalar(xq, wt, m, k, n, deq, out);
            }
            Int8Exec::RowMajor => {
                assert!(w.len() >= k * n, "weights shorter than k*n");
                #[cfg(target_arch = "x86_64")]
                if crate::simd::enabled() && n >= 16 {
                    // SAFETY: as above, with `w[..k*n]` row-major.
                    unsafe { row_major_avx2(xq, w, m, k, n, deq, out) };
                    return;
                }
                for i in 0..m {
                    acc.clear();
                    acc.resize(n, 0);
                    accumulate_scalar(&xq[i * k..(i + 1) * k], w, k, n, 0, acc);
                    for (o, &a) in out[i * n..(i + 1) * n].iter_mut().zip(acc.iter()) {
                        *o = a as f32 * deq[i];
                    }
                }
            }
        }
    }
}

/// Scalar reference kernel for the row-major form, register-blocked four
/// weight rows deep so the accumulator row is loaded and stored once per
/// four rows instead of once per row. Operates on the column range
/// `[j0, n)` (`acc` holds just that range) so it can also serve as a
/// panel tail.
pub(crate) fn accumulate_scalar(xq: &[i8], w: &[i8], k: usize, n: usize, j0: usize, acc: &mut [i32]) {
    let width = acc.len();
    let mut p = 0;
    while p + 4 <= k {
        let x0 = i32::from(xq[p]);
        let x1 = i32::from(xq[p + 1]);
        let x2 = i32::from(xq[p + 2]);
        let x3 = i32::from(xq[p + 3]);
        if (x0 | x1 | x2 | x3) != 0 {
            let w0 = &w[p * n + j0..p * n + j0 + width];
            let w1 = &w[(p + 1) * n + j0..(p + 1) * n + j0 + width];
            let w2 = &w[(p + 2) * n + j0..(p + 2) * n + j0 + width];
            let w3 = &w[(p + 3) * n + j0..(p + 3) * n + j0 + width];
            for j in 0..width {
                acc[j] += x0 * i32::from(w0[j])
                    + x1 * i32::from(w1[j])
                    + x2 * i32::from(w2[j])
                    + x3 * i32::from(w3[j]);
            }
        }
        p += 4;
    }
    while p < k {
        let xv = i32::from(xq[p]);
        if xv != 0 {
            let wrow = &w[p * n + j0..p * n + j0 + width];
            for j in 0..width {
                acc[j] += xv * i32::from(wrow[j]);
            }
        }
        p += 1;
    }
}

/// Scalar column-major kernel: one `k`-dot per output element.
fn col_major_scalar(xq: &[i8], wt: &[i8], m: usize, k: usize, n: usize, deq: &[f32], out: &mut [f32]) {
    for i in 0..m {
        let xrow = &xq[i * k..(i + 1) * k];
        for c in 0..n {
            let wrow = &wt[c * k..(c + 1) * k];
            let mut s = 0i32;
            for (&xv, &wv) in xrow.iter().zip(wrow) {
                s += i32::from(xv) * i32::from(wv);
            }
            out[i * n + c] = s as f32 * deq[i];
        }
    }
}

/// AVX2 column-major kernel: 16 bytes of activations and weights widened
/// to i16 and combined with `vpmaddwd` (two exact i16×i16 products summed
/// into each i32 lane), horizontally reduced once per output element.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `xq.len() >= m*k`,
/// `wt.len() >= n*k`, `out.len() >= m*n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn col_major_avx2(xq: &[i8], wt: &[i8], m: usize, k: usize, n: usize, deq: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_castsi256_si128, _mm256_cvtepi8_epi16, _mm256_extracti128_si256,
        _mm256_madd_epi16, _mm256_setzero_si256, _mm_add_epi32, _mm_cvtsi128_si32, _mm_loadu_si128,
        _mm_shuffle_epi32,
    };
    let chunks = k - k % 16;
    // Indexing `deq` by the same `i` that strides `xq`/`out` keeps the
    // row coupling visible; an enumerate over `deq` would obscure it.
    #[allow(clippy::needless_range_loop)]
    for i in 0..m {
        let xrow = xq.as_ptr().add(i * k);
        for c in 0..n {
            let wrow = wt.as_ptr().add(c * k);
            let mut acc = _mm256_setzero_si256();
            let mut p = 0;
            while p + 16 <= k {
                let xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(xrow.add(p).cast()));
                let wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(wrow.add(p).cast()));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, wv));
                p += 16;
            }
            let four = _mm_add_epi32(
                _mm256_castsi256_si128(acc),
                _mm256_extracti128_si256(acc, 1),
            );
            let two = _mm_add_epi32(four, _mm_shuffle_epi32(four, 0b01_00_11_10));
            let one = _mm_add_epi32(two, _mm_shuffle_epi32(two, 0b00_00_00_01));
            let mut s = _mm_cvtsi128_si32(one);
            for p in chunks..k {
                s += i32::from(*xrow.add(p)) * i32::from(*wrow.add(p));
            }
            *out.get_unchecked_mut(i * n + c) = s as f32 * deq[i];
        }
    }
}

/// Packs two quantized activations into the i32 `vpmaddwd` expects:
/// low i16 pairs the even weight row, high i16 the odd one.
#[cfg(target_arch = "x86_64")]
#[inline]
fn madd_pair(x0: i8, x1: i8) -> i32 {
    (u32::from(x0 as i16 as u16) | (u32::from(x1 as i16 as u16) << 16)) as i32
}

/// AVX2 row-major panel kernel: 16-column panels × four batch rows, two
/// weight rows per step. The two weight rows are widened to i16 and
/// interleaved (`vpunpcklwd`/`vpunpckhwd`), each batch row's activation
/// pair broadcast, and `vpmaddwd` accumulates both products into i32
/// lanes — ~0.2 instructions per MAC, weight loads amortized across the
/// four rows. The interleave permutes columns within the register; one
/// `vperm2i128` pair at store time restores order, then dequantization
/// fuses into the store. Remainder columns (`n % 16`) and an odd final
/// weight row take exact scalar/zero-padded paths.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `xq.len() >= m*k`,
/// `w.len() >= k*n`, `out.len() >= m*n`, `deq.len() >= m`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_major_avx2(xq: &[i8], w: &[i8], m: usize, k: usize, n: usize, deq: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi16, _mm256_madd_epi16,
        _mm256_mul_ps, _mm256_permute2x128_si256, _mm256_set1_epi32, _mm256_set1_ps,
        _mm256_setzero_si256, _mm256_storeu_ps, _mm256_unpackhi_epi16, _mm256_unpacklo_epi16,
        _mm_loadu_si128,
    };
    let panels = n - n % 16;
    let kpairs = k - k % 2;
    let mut i = 0;
    while i < m {
        let rows = 4.min(m - i);
        let mut j = 0;
        while j + 16 <= n {
            let mut acc_lo = [_mm256_setzero_si256(); 4];
            let mut acc_hi = [_mm256_setzero_si256(); 4];
            let mut p = 0;
            while p + 2 <= k {
                let wp = _mm256_cvtepi8_epi16(_mm_loadu_si128(w.as_ptr().add(p * n + j).cast()));
                let wp1 =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(w.as_ptr().add((p + 1) * n + j).cast()));
                let lo = _mm256_unpacklo_epi16(wp, wp1);
                let hi = _mm256_unpackhi_epi16(wp, wp1);
                for r in 0..rows {
                    let xp = _mm256_set1_epi32(madd_pair(
                        xq[(i + r) * k + p],
                        xq[(i + r) * k + p + 1],
                    ));
                    acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(lo, xp));
                    acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(hi, xp));
                }
                p += 2;
            }
            if kpairs < k {
                let wp =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(w.as_ptr().add(kpairs * n + j).cast()));
                let zero = _mm256_setzero_si256();
                let lo = _mm256_unpacklo_epi16(wp, zero);
                let hi = _mm256_unpackhi_epi16(wp, zero);
                for r in 0..rows {
                    let xp = _mm256_set1_epi32(madd_pair(xq[(i + r) * k + kpairs], 0));
                    acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(lo, xp));
                    acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(hi, xp));
                }
            }
            for r in 0..rows {
                // acc_lo holds columns {0-3, 8-11}, acc_hi {4-7, 12-15}
                // of the panel; the lane permutes restore linear order.
                let first = _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x20);
                let second = _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x31);
                let d = _mm256_set1_ps(deq[i + r]);
                let dst = out.as_mut_ptr().add((i + r) * n + j);
                _mm256_storeu_ps(dst, _mm256_mul_ps(_mm256_cvtepi32_ps(first), d));
                _mm256_storeu_ps(dst.add(8), _mm256_mul_ps(_mm256_cvtepi32_ps(second), d));
            }
            j += 16;
        }
        // Column tail: exact scalar dots.
        for r in 0..rows {
            for c in panels..n {
                let mut s = 0i32;
                for p in 0..k {
                    s += i32::from(xq[(i + r) * k + p]) * i32::from(w[p * n + c]);
                }
                out[(i + r) * n + c] = s as f32 * deq[i + r];
            }
        }
        i += rows;
    }
}

/// Quantizes one activation row: `out[j] = (x[j] / ax).round().clamp(-127,
/// 127)` with round-half-away-from-zero (`f32::round`) semantics, exactly.
///
/// Dispatches to an AVX2 variant that *emulates* those semantics
/// bit-exactly: hardware rounding is round-half-even, so ties (fractional
/// part exactly ±0.5) are detected and nudged away from zero. The naive
/// `trunc(x + copysign(0.5, x))` shortcut is wrong (e.g. `0.49999997 +
/// 0.5` rounds up to `1.0`) and is not used. IEEE division is exactly
/// rounded, so the SIMD divide matches the scalar divide bit-for-bit, and
/// `ax == 1.0` skips the divide entirely (`x / 1.0 == x`).
pub fn quantize_row(x: &[f32], ax: f32, out: &mut [i8]) {
    debug_assert!(out.len() >= x.len());
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() && x.len() >= 8 {
        // SAFETY: AVX2 was just detected; reads `x`, writes `out[..x.len()]`.
        unsafe { quantize_row_avx2(x, ax, out) };
        return;
    }
    quantize_row_scalar(x, ax, out);
}

/// Scalar reference for [`quantize_row`] (the original int8 path's exact
/// expression).
pub(crate) fn quantize_row_scalar(x: &[f32], ax: f32, out: &mut [i8]) {
    if ax == 1.0 {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = v.round().clamp(-127.0, 127.0) as i8;
        }
    } else {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = (v / ax).round().clamp(-127.0, 127.0) as i8;
        }
    }
}

/// AVX2 quantization with exact round-half-away emulation: clamp to
/// `±127.0` first (bit-equivalent — any value the clamp moves saturates to
/// ±127 either way, and `|v| ≤ 127` keeps every later conversion exact),
/// truncate, recover the exact fractional part, detect `±0.5` ties, and
/// blend truncation+sign for ties with hardware round-to-nearest-even for
/// everything else (they agree except at ties).
///
/// # Safety
///
/// Caller must ensure AVX2 is available and `out.len() >= x.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(x: &[f32], ax: f32, out: &mut [i8]) {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_blendv_epi8, _mm256_castps_si256, _mm256_castsi256_si128,
        _mm256_cmp_ps, _mm256_cvtepi32_ps, _mm256_cvtps_epi32, _mm256_cvttps_epi32,
        _mm256_div_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_or_ps,
        _mm256_packs_epi32, _mm256_permute4x64_epi64, _mm256_set1_epi32, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_sub_ps, _mm_packs_epi16, _mm_storel_epi64, _CMP_EQ_OQ,
        _CMP_LT_OQ,
    };
    let divide = ax != 1.0;
    let axv = _mm256_set1_ps(ax);
    let hi = _mm256_set1_ps(127.0);
    let lo = _mm256_set1_ps(-127.0);
    let half = _mm256_set1_ps(0.5);
    let nhalf = _mm256_set1_ps(-0.5);
    let zero = _mm256_setzero_ps();
    let one = _mm256_set1_epi32(1);
    let none = _mm256_set1_epi32(-1);
    let mut j = 0;
    while j + 8 <= x.len() {
        let v = _mm256_loadu_ps(x.as_ptr().add(j));
        let q = if divide { _mm256_div_ps(v, axv) } else { v };
        let qc = _mm256_max_ps(_mm256_min_ps(q, hi), lo);
        let t = _mm256_cvttps_epi32(qc);
        let frac = _mm256_sub_ps(qc, _mm256_cvtepi32_ps(t));
        let tie = _mm256_or_ps(
            _mm256_cmp_ps(frac, half, _CMP_EQ_OQ),
            _mm256_cmp_ps(frac, nhalf, _CMP_EQ_OQ),
        );
        let neg = _mm256_castps_si256(_mm256_cmp_ps(qc, zero, _CMP_LT_OQ));
        let away = _mm256_add_epi32(t, _mm256_blendv_epi8(one, none, neg));
        let nearest = _mm256_cvtps_epi32(qc);
        let r = _mm256_blendv_epi8(nearest, away, _mm256_castps_si256(tie));
        // Narrow 8×i32 (already within ±127) to 8×i8 and store.
        let p16 = _mm256_permute4x64_epi64(_mm256_packs_epi32(r, r), 0b00_00_10_00);
        let p8 = _mm_packs_epi16(
            _mm256_castsi256_si128(p16),
            _mm256_castsi256_si128(p16),
        );
        _mm_storel_epi64(out.as_mut_ptr().add(j).cast(), p8);
        j += 8;
    }
    if j < x.len() {
        quantize_row_scalar(&x[j..], ax, &mut out[j..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                if rng.gen_bool(density) {
                    rng.gen_range(-1.0..1.0)
                } else {
                    0.0
                }
            })
            .collect();
        CsrMatrix::from_dense(&Tensor::new(vec![rows, cols], data))
    }

    fn random_x(m: usize, k: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m * k)
            .map(|i| {
                // Sprinkle exact zeros: the storage kernel skips them, the
                // execution formats do not — bits must still agree.
                if i % 7 == 0 {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
            .collect()
    }

    #[test]
    fn exec_selection_policy() {
        let sparse = random_sparse(40, 30, 0.1, 1);
        assert!(
            SparseExec::compile(&sparse).is_csc(),
            "wide at 10% density → CSC"
        );
        let mid_wide = random_sparse(40, 30, 0.4, 3);
        assert!(
            SparseExec::compile(&mid_wide).is_hybrid(),
            "wide at 40% density → hybrid (winner depends on batch width)"
        );
        let mid_narrow = random_sparse(40, 3, 0.4, 4);
        assert!(
            SparseExec::compile(&mid_narrow).is_csc(),
            "narrow at 40% density → CSC (dense kernel is scalar there)"
        );
        let densish = random_sparse(40, 30, 0.9, 2);
        let densish = SparseExec::compile(&densish);
        assert!(
            !densish.is_csc() && !densish.is_hybrid(),
            "90% density → densified"
        );
        let head = Int8Exec::compile(64, 3, &[1i8; 64 * 3]);
        assert!(head.is_col_major(), "narrow output → column-major");
        let wide = Int8Exec::compile(64, 32, &[1i8; 64 * 32]);
        assert!(!wide.is_col_major(), "wide output → row-major panels");
    }

    #[test]
    fn sparse_exec_is_bit_identical_to_storage_kernel() {
        // Both compiled forms, against the CSR scatter kernel, at batch
        // sizes that hit the m == 1 chain kernel, the scalar batch kernel
        // and the 8-wide SIMD panels with a tail.
        for (density, seed) in [(0.05, 10), (0.3, 11), (0.7, 12), (0.95, 13)] {
            for (k, n) in [(57, 3), (33, 19), (16, 8)] {
                let csr = random_sparse(k, n, density, seed);
                let exec = SparseExec::compile(&csr);
                for m in [1usize, 3, 8, 16] {
                    let x = random_x(m, k, seed + m as u64);
                    let mut want = vec![0.0f32; m * n];
                    csr.left_matmul_into(&x, m, &mut want);
                    let mut got = vec![1.0f32; m * n];
                    let (mut xt, mut yt) = (Vec::new(), Vec::new());
                    exec.left_matmul_into(&x, m, &mut got, &mut xt, &mut yt);
                    assert_eq!(
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "density {density} shape {k}x{n} m {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn csc_panels_match_scalar_twin_and_storage_kernel() {
        // Batch widths straddle every panel walk (48, 32, 16 and 8 rows)
        // and the scalar row tail; activations carry ±0.0, denormals,
        // ±Inf and NaN, compared as NaN-ness. The dispatched kernel, its
        // scalar body and the storage CSR kernel must all agree.
        let canon = |v: &[f32]| -> Vec<u32> {
            v.iter()
                .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
                .collect()
        };
        for (k, n, density, seed) in [(40, 24, 0.2, 20), (17, 9, 0.5, 21), (64, 3, 0.3, 22)] {
            let csr = random_sparse(k, n, density, seed);
            let csc = CscExec::from_csr(&csr);
            for m in [
                1usize, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33, 40, 47, 48, 49, 56,
                64, 80, 97,
            ] {
                let mut x = random_x(m, k, seed + m as u64);
                for (i, v) in x.iter_mut().enumerate() {
                    match i % 41 {
                        1 => *v = -0.0,
                        2 => *v = 1e-40,
                        3 if i % 3 == 0 => *v = f32::INFINITY,
                        4 if i % 3 == 0 => *v = f32::NAN,
                        _ => {}
                    }
                }
                let mut want = vec![0.0f32; m * n];
                csr.left_matmul_into(&x, m, &mut want);
                let mut got = vec![1.0f32; m * n];
                let (mut xt, mut yt) = (Vec::new(), Vec::new());
                csc.left_matmul_into(&x, m, &mut got, &mut xt, &mut yt);
                assert_eq!(canon(&want), canon(&got), "shape {k}x{n} m {m}");
                if m > 1 {
                    // The batched path's scalar body over the same staging.
                    let mut twin = vec![1.0f32; n * m];
                    csc.batch_scalar(&xt, m, 0, &mut twin);
                    assert_eq!(canon(&yt), canon(&twin), "shape {k}x{n} m {m}");
                }
            }
        }
    }

    #[test]
    fn duplicate_coordinates_fall_back_to_csc_and_match() {
        // Validated CSR permits duplicate (row, col) coordinates; the
        // storage kernel applies both entries sequentially. A dense cell
        // cannot, so such matrices must refuse to densify regardless of
        // density — and still match the reference bit-for-bit.
        let csr = CsrMatrix::new(
            2,
            2,
            vec![0, 3, 4],
            vec![0, 0, 1, 1],
            vec![0.1f32, 0.7, -0.3, 0.4],
        )
        .unwrap();
        let exec = SparseExec::compile(&csr);
        assert!(exec.is_csc(), "duplicates must not densify");
        let x = vec![0.3f32, -1.2, 0.0, 2.5];
        let mut want = vec![0.0f32; 4];
        csr.left_matmul_into(&x, 2, &mut want);
        let mut got = vec![0.0f32; 4];
        let (mut xt, mut yt) = (Vec::new(), Vec::new());
        exec.left_matmul_into(&x, 2, &mut got, &mut xt, &mut yt);
        assert_eq!(want, got);
    }

    #[test]
    fn int8_exec_matches_straight_line_reference() {
        // Every dispatch variant against the naive i32 triple loop, over
        // shapes covering the column-major k-tail (k % 16), the row-major
        // column tail (n % 16), an odd k (zero-padded last weight row) and
        // batch-row tails (m % 4).
        let mut rng = StdRng::seed_from_u64(42);
        for (m, k, n) in [
            (1usize, 57usize, 3usize),
            (5, 16, 3),
            (1, 33, 35),
            (6, 25, 32),
            (3, 2, 48),
            (7, 17, 19),
        ] {
            let w: Vec<i8> = (0..k * n).map(|_| rng.gen_range(-127i8..=127)).collect();
            let xq: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-127i8..=127)).collect();
            let deq: Vec<f32> = (0..m).map(|_| rng.gen_range(0.001f32..0.1)).collect();
            let mut want = vec![0.0f32; m * n];
            for i in 0..m {
                for c in 0..n {
                    let mut s = 0i32;
                    for p in 0..k {
                        s += i32::from(xq[i * k + p]) * i32::from(w[p * n + c]);
                    }
                    want[i * n + c] = s as f32 * deq[i];
                }
            }
            for exec in [Int8Exec::compile(k, n, &w), Int8Exec::RowMajor] {
                let mut got = vec![1.0f32; m * n];
                let mut acc = Vec::new();
                exec.left_matmul_into(&xq, m, k, n, &w, &deq, &mut got, &mut acc);
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "shape {m}x{k}x{n} {exec:?}"
                );
            }
        }
    }

    #[test]
    fn quantize_row_simd_matches_scalar_including_ties() {
        // The tie cases are the whole point: hardware rounds half-even,
        // the scalar reference rounds half-away. 0.49999997 guards the
        // broken add-half shortcut, large values the pre-clamp argument.
        let mut pattern = vec![
            0.5f32, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5, 127.5, -127.5, 0.49999997,
            -0.49999997, 1e30, -1e30, 0.0, -0.0, 126.9999, 3.499_999_8,
        ];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..101 {
            pattern.push(rng.gen_range(-300.0f32..300.0));
            // Exact ties after division by 0.25 and 1.0 alike.
            pattern.push((rng.gen_range(-200i32..200) as f32 + 0.5) * 0.25);
        }
        for ax in [1.0f32, 0.25, 0.013] {
            let mut want = vec![0i8; pattern.len()];
            quantize_row_scalar(&pattern, ax, &mut want);
            let mut got = vec![99i8; pattern.len()];
            quantize_row(&pattern, ax, &mut got);
            assert_eq!(want, got, "ax {ax}");
        }
    }

    #[test]
    fn exec_cache_clone_shares_the_compiled_form() {
        let csr = random_sparse(20, 10, 0.2, 3);
        let cache: ExecCache<SparseExec> = ExecCache::default();
        let first = Arc::clone(cache.get_or_compile(|| SparseExec::compile(&csr)));
        let cloned = cache.clone();
        assert!(cloned.is_compiled());
        assert!(Arc::ptr_eq(
            &first,
            cloned.get_or_compile(|| unreachable!("already compiled"))
        ));
    }
}
