//! Dense `f32` tensors and the numeric kernels everything else builds on.
//!
//! Deliberately simple: contiguous row-major storage, explicit shapes, and
//! a blocked `matmul` that is fast enough for the model sizes the paper
//! deploys on a Jetson-class device. `Tensor` has no views/strides —
//! clarity over generality, since the autodiff layer above composes
//! whole-tensor ops; only the slice kernels the inference plan calls read
//! strided column blocks, where a copy would cost more than the math.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::arena::ArenaVec;

/// A dense row-major tensor of `f32`.
///
/// Storage is an [`ArenaVec`]: either an owned buffer (trained models,
/// intermediate results — exactly the old `Vec<f32>` semantics) or a
/// borrowed view into a shared weight arena such as a memory-mapped
/// `.cogm` image, in which case clones are refcount bumps and mutation is
/// copy-on-write.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: ArenaVec<f32>,
}

impl Tensor {
    /// Creates a tensor from shape and data (a `Vec<f32>` or an
    /// [`ArenaVec`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    #[must_use]
    pub fn new(shape: Vec<usize>, data: impl Into<ArenaVec<f32>>) -> Self {
        let data = data.into();
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {shape:?} implies {numel} elements, got {}",
            data.len()
        );
        Self { shape, data }
    }

    /// All-zero tensor.
    #[must_use]
    pub fn zeros(shape: Vec<usize>) -> Self {
        let numel = shape.iter().product();
        Self {
            shape,
            data: vec![0.0; numel].into(),
        }
    }

    /// Tensor filled with a constant.
    #[must_use]
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let numel = shape.iter().product();
        Self {
            shape,
            data: vec![value; numel].into(),
        }
    }

    /// Uniform init in `[-limit, limit]` (used for Glorot/He scaling by the
    /// layers).
    #[must_use]
    pub fn uniform(shape: Vec<usize>, limit: f32, rng: &mut StdRng) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| rng.gen_range(-limit..=limit)).collect();
        Self { shape, data }
    }

    /// Whether the data lives in a shared weight arena (clones are
    /// refcount bumps, not copies).
    #[must_use]
    pub fn is_shared(&self) -> bool {
        self.data.is_shared()
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (copy-on-write when the data is
    /// arena-shared).
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.data.make_mut()
    }

    /// Consumes the tensor, returning its data buffer (one copy when
    /// arena-shared).
    #[must_use]
    pub fn into_data(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Reinterprets the data with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    #[must_use]
    pub fn reshaped(mut self, shape: Vec<usize>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, self.data.len(), "reshape to {shape:?} changes size");
        self.shape = shape;
        self
    }

    /// Number of rows when interpreted as a matrix `[rows, cols]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "not a matrix: {:?}", self.shape);
        self.shape[0]
    }

    /// Number of columns when interpreted as a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "not a matrix: {:?}", self.shape);
        self.shape[1]
    }

    /// Matrix multiply `self [m,k] × rhs [k,n] -> [m,n]`.
    ///
    /// Uses the ikj loop order so the inner loop streams both operands.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or inner dimensions differ.
    #[must_use]
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (rhs.rows(), rhs.cols());
        assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        matmul_kernel(&self.data, &rhs.data, m, k, n, &mut out);
        Tensor::new(vec![m, n], out)
    }

    /// Matrix multiply with the right operand transposed:
    /// `self [m,k] × rhs^T where rhs is [n,k] -> [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics on non-2-D operands or mismatched inner dimensions.
    #[must_use]
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (rhs.rows(), rhs.cols());
        assert_eq!(k, k2, "matmul_t inner dims: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        matmul_t_kernel(&self.data, &rhs.data, m, k, n, &mut out);
        Tensor::new(vec![m, n], out)
    }

    /// Matrix multiply with the left operand transposed:
    /// `self^T × rhs` where `self` is `[k,m]` and `rhs` is `[k,n]` ->
    /// `[m,n]`. Bit-identical to `self.transposed().matmul(rhs)`, without
    /// the copy (see [`matmul_tn_kernel`]).
    ///
    /// # Panics
    ///
    /// Panics on non-2-D operands or mismatched inner dimensions.
    #[must_use]
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (rhs.rows(), rhs.cols());
        assert_eq!(k, k2, "matmul_tn inner dims: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        matmul_tn_kernel(&self.data, &rhs.data, m, k, n, &mut out);
        Tensor::new(vec![m, n], out)
    }

    /// Transpose of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn transposed(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; m * n];
        transpose_into(&self.data, n, m, n, &mut out);
        Tensor::new(vec![n, m], out)
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "add_assign shape mismatch");
        for (a, b) in self.data.make_mut().iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Elementwise in-place scaling.
    pub fn scale_assign(&mut self, k: f32) {
        for a in self.data.make_mut() {
            *a *= k;
        }
    }

    /// Returns a new tensor mapped elementwise.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the maximum element in each row of a matrix, by the one
    /// total rule of [`crate::ensemble::argmax`] (NaN ranks lowest, the
    /// last maximum wins), so a NaN row never panics.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (m, n) = (self.rows(), self.cols());
        (0..m)
            .map(|i| crate::ensemble::argmax(&self.data[i * n..(i + 1) * n]))
            .collect()
    }

    /// True if any element is NaN or infinite.
    #[must_use]
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

/// The raw `a [m,k] × b [k,n] -> out [m,n]` kernel behind
/// [`Tensor::matmul`], exposed over slices for the callers that run it
/// into preallocated buffers: the densified sparse execution format
/// (`crate::matexec`) and training. `out` is fully overwritten.
///
/// Per output element it runs **the v1 sequence**: start at `+0.0`, then
/// `acc + a·b` (multiply, then add; never FMA) in ascending `k`, skipping
/// every term whose `a` is exactly zero. Attention's `softmax·V`
/// (`attention_mix_into`) and the transposed-lhs product
/// ([`matmul_tn_kernel`]) run the same sequence, through the same bodies.
///
/// On x86-64 hosts with AVX2 the kernel runs register blocks of 4 rows ×
/// 16 columns, then 8 columns, then the `n % 8` remainder columns as
/// masked lanes, and single rows after the last 4-row block. Each lane
/// runs one element's chain, so dispatch is **bit-invisible** and the
/// golden label traces stay valid on every host.
///
/// **The finite-rhs rule.** With `m >= 8` the AVX2 dispatch first reads
/// `b` once. If every value is finite, the skip cannot change a bit: the
/// accumulator starts at `+0.0` and round-to-nearest never turns it into
/// `-0.0`, and a `±0·finite` term is `±0`, which leaves any value
/// unchanged. The blocks then drop the per-row branch (which ReLU and
/// dropout zeros make mispredict), and narrow outputs (`n < 8`) put eight
/// output rows in the lanes instead. An `Inf` or NaN in `b` keeps the
/// skip, because `0·Inf` is NaN. Below 8 rows the pass would not
/// amortize, so the skip stays and nothing is read twice: `matexec`'s
/// densified rows run there.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` dimensions imply.
pub fn matmul_kernel(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let g = Product::dense(m, k, n);
    v1_product(a, b, g, ZeroSkip::UnlessRhsFinite, None, out);
}

/// The transposed-lhs product `a [k,m]ᵀ × b [k,n] -> out [m,n]` behind
/// [`Tensor::matmul_tn`]. Each element is [`matmul_kernel`]'s v1 sequence
/// over the rows of `a` — exactly what `a.transposed().matmul(b)`
/// computes, bit for bit and under the same finite-rhs rule, without the
/// transposed copy. The backward rules of [`crate::graph::Graph::matmul`],
/// [`crate::graph::Graph::matmul_nt`] and [`crate::graph::Graph::conv2d`]
/// run it for their `aᵀ·g` gradients. `out` is fully overwritten.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` dimensions imply.
pub fn matmul_tn_kernel(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let g = Product {
        lhs_row: 1,
        lhs_col: m,
        ..Product::dense(m, k, n)
    };
    v1_product(a, b, g, ZeroSkip::UnlessRhsFinite, None, out);
}

/// The raw `a [m,k] × b^T (b [n,k]) -> out [m,n]` kernel behind
/// [`Tensor::matmul_t`]; training's forward `a·Wᵀ` and backward `g·Wᵀ`
/// products run it. Per element: start at `+0.0`, then `acc + a·b`
/// (multiply, then add; never FMA) in ascending `k`, with **no** zero
/// skip. `out` is fully overwritten.
///
/// The scalar body walks `b`'s rows as dot products. The AVX2 body
/// transposes `b` once into per-call scratch (only training calls this
/// kernel) and runs [`matmul_kernel`]'s register blocks without the skip,
/// so the two agree bit for bit.
///
/// # Panics
///
/// Panics if any slice is shorter than its dimensions imply.
pub fn matmul_t_kernel(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert!(a.len() >= m * k, "lhs shorter than m*k");
    assert!(b.len() >= n * k, "rhs shorter than n*k");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        let mut bt = vec![0.0f32; k * n];
        transpose_into(b, k, n, k, &mut bt);
        v1_product(a, &bt, Product::dense(m, k, n), ZeroSkip::Never, None, out);
        return;
    }
    matmul_t_scalar(a, b, m, k, n, out);
}

/// The scalar body of [`matmul_t_kernel`]: one dot product per element,
/// over a row of `a` and a row of `b`.
fn matmul_t_scalar(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
}

/// One v1 product `out [m,n] = lhs [m,k] · rhs [k,n]` over strided views:
/// lhs element `(i, p)` sits at `lhs[i·lhs_row + p·lhs_col]`, rhs element
/// `(p, j)` at `rhs[p·ldb + j]` and output element `(i, j)` at
/// `out[i·ldo + j]`. Either `lhs_row` or `lhs_col` is 1: a row-major lhs,
/// or a transposed one read in place.
#[derive(Clone, Copy, Debug)]
struct Product {
    m: usize,
    k: usize,
    n: usize,
    lhs_row: usize,
    lhs_col: usize,
    ldb: usize,
    ldo: usize,
}

impl Product {
    /// Contiguous row-major operands and output.
    fn dense(m: usize, k: usize, n: usize) -> Self {
        Self {
            m,
            k,
            n,
            lhs_row: k,
            lhs_col: 1,
            ldb: n,
            ldo: n,
        }
    }

    /// Asserts that every element the view addresses lies inside its
    /// slice — the invariant each AVX2 body's `SAFETY` note relies on.
    fn check(&self, lhs: &[f32], rhs: &[f32], out: &[f32]) {
        assert!(
            self.lhs_row == 1 || self.lhs_col == 1,
            "lhs view is neither row-major nor transposed"
        );
        assert!(
            lhs.len() >= span(self.m, self.lhs_row, self.k, self.lhs_col),
            "lhs shorter than its view"
        );
        assert!(
            rhs.len() >= span(self.k, self.ldb, self.n, 1),
            "rhs shorter than its view"
        );
        assert!(
            out.len() >= span(self.m, self.ldo, self.n, 1),
            "output shorter than its view"
        );
    }
}

/// Elements a `[rows, cols]` view spans from its first element:
/// `(rows-1)·row_stride + (cols-1)·col_stride + 1`, or zero when empty.
fn span(rows: usize, row_stride: usize, cols: usize, col_stride: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        (rows - 1) * row_stride + (cols - 1) * col_stride + 1
    }
}

/// Whether a v1 product skips a term whose lhs value is exactly zero.
#[derive(Clone, Copy, Debug)]
enum ZeroSkip {
    /// Always (attention's `softmax·V`: its weights are rarely exactly
    /// zero, so the branch predicts well).
    Always,
    /// Never (`matmul_t_kernel` and attention scores).
    Never,
    /// [`matmul_kernel`]'s finite-rhs rule: the AVX2 dispatch drops the
    /// skip over at least `FINITE_CHECK_ROWS` rows when every rhs value
    /// is finite, where dropping it cannot change a bit.
    UnlessRhsFinite,
}

/// Output rows from which the AVX2 dispatch pays one pass over the rhs to
/// test it for the finite-rhs rule.
#[cfg(target_arch = "x86_64")]
const FINITE_CHECK_ROWS: usize = 8;

/// Whether every value is finite: one pass with no early exit, so it
/// vectorizes.
#[cfg(target_arch = "x86_64")]
fn all_finite(v: &[f32]) -> bool {
    v.iter().fold(true, |ok, x| ok & x.is_finite())
}

/// Runs one v1 product on the host's body, each element then multiplied
/// by `scale` when given (attention scores). Every element of the output
/// view is overwritten.
fn v1_product(
    lhs: &[f32],
    rhs: &[f32],
    g: Product,
    skip: ZeroSkip,
    scale: Option<f32>,
    out: &mut [f32],
) {
    g.check(lhs, rhs, out);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        let skip = match skip {
            ZeroSkip::Always => true,
            ZeroSkip::Never => false,
            ZeroSkip::UnlessRhsFinite => {
                g.m < FINITE_CHECK_ROWS || !all_finite(&rhs[..span(g.k, g.ldb, g.n, 1)])
            }
        };
        let ops = Operands {
            g,
            lhs: lhs.as_ptr(),
            rhs: rhs.as_ptr(),
            out: out.as_mut_ptr(),
            scale,
        };
        // SAFETY: AVX2 support was just detected, and `check` asserted
        // that every element the view addresses lies inside its slice;
        // the pointers come from those slices, and `out` is borrowed
        // mutably for the call. The twin is `v1_scalar`, bit for bit.
        unsafe {
            if skip {
                v1_avx2::<true>(ops);
            } else {
                v1_avx2::<false>(ops);
            }
        }
        return;
    }
    v1_scalar(lhs, rhs, g, !matches!(skip, ZeroSkip::Never), scale, out);
}

/// The scalar body of every v1 product (`COGARM_NO_SIMD=1`, hosts without
/// AVX2) and the twin each AVX2 body is held to: per output row, zero it,
/// add `lhs·rhs` row by row in ascending `p` — skipping a zero lhs value
/// when `skip` — then multiply by `scale`. With a finite rhs, `skip` does
/// not change a bit (see [`matmul_kernel`]).
fn v1_scalar(
    lhs: &[f32],
    rhs: &[f32],
    g: Product,
    skip: bool,
    scale: Option<f32>,
    out: &mut [f32],
) {
    for i in 0..g.m {
        let orow = &mut out[i * g.ldo..i * g.ldo + g.n];
        orow.fill(0.0);
        for p in 0..g.k {
            let av = lhs[i * g.lhs_row + p * g.lhs_col];
            if skip && av == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(&rhs[p * g.ldb..p * g.ldb + g.n]) {
                *o += av * bv;
            }
        }
        if let Some(s) = scale {
            for o in orow.iter_mut() {
                *o *= s;
            }
        }
    }
}

/// A checked [`Product`] with its buffers, for the AVX2 bodies.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Operands {
    g: Product,
    lhs: *const f32,
    rhs: *const f32,
    out: *mut f32,
    scale: Option<f32>,
}

/// AVX2 body of every v1 product; the scalar twin is [`v1_scalar`]. With
/// `!SKIP` and `n < 8`, eight output rows at a time ride the lanes
/// ([`v1_row_lanes_avx2`]); every other row runs [`v1_rows_avx2`]'s
/// column blocks, four rows at a time, then singly.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and that `ops.g` was checked
/// against the buffers `ops` points into ([`Product::check`]), with the
/// output borrowed exclusively. With `!SKIP` the rhs must be all finite
/// for the result to match `v1_scalar` with its skip.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn v1_avx2<const SKIP: bool>(ops: Operands) {
    let g = ops.g;
    if g.n == 0 {
        return;
    }
    let mut i = 0;
    if !SKIP && g.n < 8 {
        while i + 8 <= g.m {
            match g.n {
                1 => v1_row_lanes_avx2::<1>(ops, i),
                2 => v1_row_lanes_avx2::<2>(ops, i),
                3 => v1_row_lanes_avx2::<3>(ops, i),
                4 => v1_row_lanes_avx2::<4>(ops, i),
                5 => v1_row_lanes_avx2::<5>(ops, i),
                6 => v1_row_lanes_avx2::<6>(ops, i),
                _ => v1_row_lanes_avx2::<7>(ops, i),
            }
            i += 8;
        }
    }
    while i < g.m {
        if i + 4 <= g.m {
            v1_rows_avx2::<4, SKIP>(ops, i);
            i += 4;
        } else {
            v1_rows_avx2::<1, SKIP>(ops, i);
            i += 1;
        }
    }
}

/// Rows `i0..i0 + R` of a v1 product over every column: 16-column
/// blocks, then an 8-column block, then the `n % 8` remainder columns as
/// one masked block.
///
/// # Safety
///
/// As [`v1_avx2`], with `i0 + R <= ops.g.m`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn v1_rows_avx2<const R: usize, const SKIP: bool>(ops: Operands, i0: usize) {
    use std::arch::x86_64::{_mm256_cmpgt_epi32, _mm256_set1_epi32, _mm256_setr_epi32};
    let n = ops.g.n;
    let all = _mm256_set1_epi32(-1);
    let mut j = 0;
    while j + 16 <= n {
        v1_block_avx2::<R, 2, SKIP, false>(ops, i0, j, all);
        j += 16;
    }
    if j + 8 <= n {
        v1_block_avx2::<R, 1, SKIP, false>(ops, i0, j, all);
        j += 8;
    }
    if j < n {
        // Lane `c` is live iff `c < n - j`.
        let live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32((n - j) as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        v1_block_avx2::<R, 1, SKIP, true>(ops, i0, j, live);
    }
}

/// Output rows `i0..i0 + R` by columns `j0..j0 + 8·P`: `R × P`
/// accumulators, each rhs vector loaded once for all `R` rows and each
/// lhs value broadcast once for all `P` vectors. Per element: start at
/// `+0.0`, then `acc + lhs·rhs` (`vmulps`, `vaddps`; never `vfmadd`) in
/// ascending `p`, and with `SKIP` a row whose lhs value is exactly zero
/// skips the term — the sequence of [`v1_scalar`]. Then one multiply by
/// the scale, if any. With `MASKED` only the lanes `live` selects are
/// loaded and stored, so the remainder columns touch nothing past `n`.
///
/// # Safety
///
/// As [`v1_avx2`], with `i0 + R <= ops.g.m` and the block's columns
/// inside `ops.g.n`: all `8·P` of them, or with `MASKED` the live lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn v1_block_avx2<const R: usize, const P: usize, const SKIP: bool, const MASKED: bool>(
    ops: Operands,
    i0: usize,
    j0: usize,
    live: std::arch::x86_64::__m256i,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let g = ops.g;
    let mut acc = [[_mm256_setzero_ps(); P]; R];
    for p in 0..g.k {
        let row = ops.rhs.add(p * g.ldb + j0);
        let mut bv = [_mm256_setzero_ps(); P];
        for (x, bv) in bv.iter_mut().enumerate() {
            *bv = if MASKED {
                _mm256_maskload_ps(row.add(8 * x), live)
            } else {
                _mm256_loadu_ps(row.add(8 * x))
            };
        }
        for (r, acc) in acc.iter_mut().enumerate() {
            let av = *ops.lhs.add((i0 + r) * g.lhs_row + p * g.lhs_col);
            if SKIP && av == 0.0 {
                continue;
            }
            let av = _mm256_set1_ps(av);
            for (a, &bv) in acc.iter_mut().zip(&bv) {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(av, bv));
            }
        }
    }
    let scale = ops.scale.map(|s| _mm256_set1_ps(s));
    for (r, acc) in acc.iter().enumerate() {
        for (x, &a) in acc.iter().enumerate() {
            let v = scale.map_or(a, |s| _mm256_mul_ps(a, s));
            let dst = ops.out.add((i0 + r) * g.ldo + j0 + 8 * x);
            if MASKED {
                _mm256_maskstore_ps(dst, live, v);
            } else {
                _mm256_storeu_ps(dst, v);
            }
        }
    }
}

/// Rows `i0..i0 + 8` of a v1 product without the skip and with `N < 8`
/// columns: eight output rows ride the eight lanes, one accumulator per
/// column, and lane `r` runs row `i0 + r`'s chain of [`v1_scalar`]: start
/// at `+0.0`, then `acc + lhs·rhs` in ascending `p`. A transposed lhs
/// holds the eight rows' values at one `p` contiguously; a row-major one
/// reaches the lanes through [`columns8`]'s 8×8 transposes, a pure copy.
///
/// # Safety
///
/// As [`v1_avx2`] without the skip, with `0 < N = ops.g.n < 8` and
/// `i0 + 8 <= ops.g.m`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn v1_row_lanes_avx2<const N: usize>(ops: Operands, i0: usize) {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    let g = ops.g;
    let mut acc = [_mm256_setzero_ps(); N];
    // Lane `r` of `x` is lhs element `(i0 + r, p)`.
    let term = |acc: &mut [__m256; N], x: __m256, p: usize| {
        let b = ops.rhs.add(p * g.ldb);
        for (j, acc) in acc.iter_mut().enumerate() {
            *acc = _mm256_add_ps(*acc, _mm256_mul_ps(x, _mm256_set1_ps(*b.add(j))));
        }
    };
    if g.lhs_row == 1 {
        for p in 0..g.k {
            let x = _mm256_loadu_ps(ops.lhs.add(i0 + p * g.lhs_col));
            term(&mut acc, x, p);
        }
    } else {
        let rows = ops.lhs.add(i0 * g.lhs_row);
        for p in (0..g.k).step_by(8) {
            let width = (g.k - p).min(8);
            let x = columns8(rows.add(p), g.lhs_row, width);
            for (c, &x) in x.iter().take(width).enumerate() {
                term(&mut acc, x, p + c);
            }
        }
    }
    let scale = ops.scale.map(|s| _mm256_set1_ps(s));
    for (j, &a) in acc.iter().enumerate() {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), scale.map_or(a, |s| _mm256_mul_ps(a, s)));
        for (r, &v) in lanes.iter().enumerate() {
            *ops.out.add((i0 + r) * g.ldo + j) = v;
        }
    }
}

/// The **plan-v2** dense GEMM: `a [m,k] × b [k,n] -> out [m,n]`, blocked
/// over `a` rows with the `k` loop unrolled in pairs.
///
/// Two deliberate departures from [`matmul_kernel`]:
///
/// * **Row blocking.** Several output rows advance together (four in the
///   scalar body; eight, then four, then one in the AVX2 body), so each
///   streamed `b` row is reused from registers instead of reloaded per
///   row — at batch 16 the weight matrix crosses memory two to four
///   times, not sixteen. This is pure scheduling: each output row still
///   accumulates independently, so results are **row-count invariant** —
///   row `i` of an `m`-row call is bit-identical to a 1-row call on the
///   same data, which is what lets the batched serving tick share one
///   numerics version with solo sessions.
/// * **Paired-`k` reassociation.** Each update folds two `k` terms at once
///   (`acc + (a0·b0 + a1·b1)` instead of `(acc + a0·b0) + a1·b1`), halving
///   the dependency chain on the accumulator. f32 addition is not
///   associative, so this produces *different bits* than
///   [`matmul_kernel`] — the reason the engine carries a numerics version
///   (`crate::plan::PlanVersion`). Odd `k` finishes with a single term;
///   the remainder rows use the same per-row pairing, keeping the
///   invariance above.
///
/// `out` is fully overwritten.
///
/// On x86-64 hosts with AVX2 the kernel dispatches to an explicit SIMD
/// variant. For `n >= 8` (`matmul_blocked_avx2`) it vectorizes the `j`
/// (output column) loop eight lanes wide. Narrow outputs (`n < 8`, the
/// 3-class heads) with `m >= 8` run `row_lanes_avx2` instead: eight
/// output *rows* ride the eight lanes, and the last `m % 8` rows take the
/// scalar body. Either way the lanes are independent elements — the SIMD
/// variants perform *exactly* the scalar kernel's per-element operations
/// in the same order (multiply, pair-add, accumulate; no FMA contraction,
/// no `k` reassociation beyond the pairing every variant shares) — so
/// hardware dispatch is **bit-invisible**: the same model produces the
/// same v2 bits on every host, and the committed golden traces stay valid
/// everywhere. Narrow heads with `m < 8` (one window's head) stay on the
/// scalar body.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` dimensions imply.
pub fn matmul_blocked_kernel(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert!(a.len() >= m * k, "lhs shorter than m*k");
    assert!(b.len() >= k * n, "rhs shorter than k*n");
    let out = &mut out[..m * n];
    out.fill(0.0);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        if n >= 8 {
            // SAFETY: AVX2 support was just detected, and the slice lengths
            // were asserted above; the kernel reads `a[..m*k]`, `b[..k*n]`
            // and writes `out[..m*n]` only.
            unsafe { matmul_blocked_avx2(a, b, m, k, n, out) };
            return;
        }
        if n > 0 && m >= 8 {
            // SAFETY: AVX2 support was just detected, `0 < n < 8`, and the
            // slice lengths were asserted above; the kernel reads
            // `a[..m*k]`, `b[..k*n]` and writes `out[..m*n]` only. Its
            // twin is `matmul_blocked_scalar`, bit for bit.
            unsafe { row_lanes_avx2(a, b, m, k, n, out) };
            return;
        }
    }
    matmul_blocked_scalar(a, b, m, k, n, 0, out);
}

/// The scalar reference body of [`matmul_blocked_kernel`], restricted to
/// the column range `[j0, n)` so it also serves as the SIMD variant's
/// column tail. `out` rows outside the range are left untouched;
/// accumulation starts from the (pre-zeroed) buffer contents.
fn matmul_blocked_scalar(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    let mut i = 0;
    while i + 4 <= m {
        let (o0, rest) = out[i * n..(i + 4) * n].split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let (a0, a1, a2, a3) = (
            &a[i * k..(i + 1) * k],
            &a[(i + 1) * k..(i + 2) * k],
            &a[(i + 2) * k..(i + 3) * k],
            &a[(i + 3) * k..(i + 4) * k],
        );
        let mut p = 0;
        while p + 2 <= k {
            let b0 = &b[p * n..(p + 1) * n];
            let b1 = &b[(p + 1) * n..(p + 2) * n];
            let (x00, x01) = (a0[p], a0[p + 1]);
            let (x10, x11) = (a1[p], a1[p + 1]);
            let (x20, x21) = (a2[p], a2[p + 1]);
            let (x30, x31) = (a3[p], a3[p + 1]);
            for j in j0..n {
                let (v0, v1) = (b0[j], b1[j]);
                o0[j] += x00 * v0 + x01 * v1;
                o1[j] += x10 * v0 + x11 * v1;
                o2[j] += x20 * v0 + x21 * v1;
                o3[j] += x30 * v0 + x31 * v1;
            }
            p += 2;
        }
        if p < k {
            let b0 = &b[p * n..(p + 1) * n];
            let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
            for j in j0..n {
                let v0 = b0[j];
                o0[j] += x0 * v0;
                o1[j] += x1 * v0;
                o2[j] += x2 * v0;
                o3[j] += x3 * v0;
            }
        }
        i += 4;
    }
    while i < m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut p = 0;
        while p + 2 <= k {
            let b0 = &b[p * n..(p + 1) * n];
            let b1 = &b[(p + 1) * n..(p + 2) * n];
            let (x0, x1) = (arow[p], arow[p + 1]);
            for j in j0..n {
                orow[j] += x0 * b0[j] + x1 * b1[j];
            }
            p += 2;
        }
        if p < k {
            let b0 = &b[p * n..(p + 1) * n];
            let x0 = arow[p];
            for j in j0..n {
                orow[j] += x0 * b0[j];
            }
        }
        i += 1;
    }
}

/// AVX2 variant of the blocked GEMM: eight-column panels whose f32
/// accumulators live in registers across the entire `k` loop, eight `a`
/// rows deep, then a four-row block, then single rows. Per output element
/// the operation sequence is *identical* to [`matmul_blocked_scalar`] —
/// broadcast-multiply the paired `k` terms, add the pair, fold into the
/// accumulator (`vmulps`/`vaddps`, never `vfmadd`, which would skip the
/// intermediate rounding the scalar kernel performs) — so the two variants
/// agree bit for bit; the block height only changes *which* independent
/// rows and columns advance together. Columns `n - n % 8..` are handled
/// by the scalar tail.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and that `a.len() >= m*k`,
/// `b.len() >= k*n`, `out.len() >= m*n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_blocked_avx2(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let mut i = 0;
    while i + 8 <= m {
        blocked_rows_avx2::<8>(a, b, i, k, n, out);
        i += 8;
    }
    if i + 4 <= m {
        blocked_rows_avx2::<4>(a, b, i, k, n, out);
        i += 4;
    }
    while i < m {
        blocked_rows_avx2::<1>(a, b, i, k, n, out);
        i += 1;
    }
    let panels = n - n % 8;
    if panels < n {
        matmul_blocked_scalar(a, b, m, k, n, panels, out);
    }
}

/// Rows `i0..i0 + R` of [`matmul_blocked_avx2`] over every full
/// eight-column panel: `R` accumulators, each `b` pair loaded once for all
/// `R` rows.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `a.len() >= (i0 + R)*k`,
/// `b.len() >= k*n` and `out.len() >= (i0 + R)*n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn blocked_rows_avx2<const R: usize>(
    a: &[f32],
    b: &[f32],
    i0: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    let a = a.as_ptr().add(i0 * k);
    let mut j = 0;
    while j + 8 <= n {
        let mut c = [_mm256_setzero_ps(); R];
        let mut p = 0;
        while p + 2 <= k {
            let b0 = _mm256_loadu_ps(b.as_ptr().add(p * n + j));
            let b1 = _mm256_loadu_ps(b.as_ptr().add((p + 1) * n + j));
            for (r, acc) in c.iter_mut().enumerate() {
                let pair = _mm256_add_ps(
                    _mm256_mul_ps(_mm256_set1_ps(*a.add(r * k + p)), b0),
                    _mm256_mul_ps(_mm256_set1_ps(*a.add(r * k + p + 1)), b1),
                );
                *acc = _mm256_add_ps(*acc, pair);
            }
            p += 2;
        }
        if p < k {
            let b0 = _mm256_loadu_ps(b.as_ptr().add(p * n + j));
            for (r, acc) in c.iter_mut().enumerate() {
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(_mm256_set1_ps(*a.add(r * k + p)), b0));
            }
        }
        for (r, acc) in c.iter().enumerate() {
            _mm256_storeu_ps(out.as_mut_ptr().add((i0 + r) * n + j), *acc);
        }
        j += 8;
    }
}

/// AVX2 body of [`matmul_blocked_kernel`] for narrow outputs (`0 < n < 8`,
/// `m >= 8`): the scalar twin is [`matmul_blocked_scalar`]. Eight output
/// rows ride the eight lanes, one accumulator per output column, and each
/// lane runs that row's scalar chain exactly: start at `+0.0`, then
/// `acc + (a0·b0 + a1·b1)` per `k` pair in ascending `k`, and a lone
/// `acc + a·b` for an odd last `k`. The rows reach the lanes through
/// [`columns8`]'s 8×8 transposes. The last `m % 8` rows run the scalar
/// body, which gives every row the same bits whatever block it sits in.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `0 < n < 8`, `a.len() >= m*k`,
/// `b.len() >= k*n` and `out.len() >= m*n`. The safe scalar twin,
/// [`matmul_blocked_scalar`], computes the same bits without them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_lanes_avx2(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let full = m - m % 8;
    for i0 in (0..full).step_by(8) {
        match n {
            1 => row_lanes_block_avx2::<1>(a, b, i0, k, out),
            2 => row_lanes_block_avx2::<2>(a, b, i0, k, out),
            3 => row_lanes_block_avx2::<3>(a, b, i0, k, out),
            4 => row_lanes_block_avx2::<4>(a, b, i0, k, out),
            5 => row_lanes_block_avx2::<5>(a, b, i0, k, out),
            6 => row_lanes_block_avx2::<6>(a, b, i0, k, out),
            _ => row_lanes_block_avx2::<7>(a, b, i0, k, out),
        }
    }
    if full < m {
        matmul_blocked_scalar(&a[full * k..], b, m - full, k, n, 0, &mut out[full * n..]);
    }
}

/// Rows `i0..i0 + 8` of [`row_lanes_avx2`] for `N` output columns.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `a.len() >= (i0 + 8)*k`,
/// `b.len() >= k*N` and `out.len() >= (i0 + 8)*N`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_lanes_block_avx2<const N: usize>(
    a: &[f32],
    b: &[f32],
    i0: usize,
    k: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let rows = a.as_ptr().add(i0 * k);
    let bp = b.as_ptr();
    let mut acc = [_mm256_setzero_ps(); N];
    // The `k` pair `(p, p + 1)`: `acc + (a0·b0 + a1·b1)` per column.
    let pair = |acc: &mut [__m256; N], x0: __m256, x1: __m256, p: usize| {
        let (b0, b1) = (bp.add(p * N), bp.add((p + 1) * N));
        for (j, acc) in acc.iter_mut().enumerate() {
            let terms = _mm256_add_ps(
                _mm256_mul_ps(x0, _mm256_set1_ps(*b0.add(j))),
                _mm256_mul_ps(x1, _mm256_set1_ps(*b1.add(j))),
            );
            *acc = _mm256_add_ps(*acc, terms);
        }
    };
    let mut p = 0;
    while p + 8 <= k {
        let x = load_columns8(rows.add(p), k);
        for c in (0..8).step_by(2) {
            pair(&mut acc, x[c], x[c + 1], p + c);
        }
        p += 8;
    }
    if p < k {
        let width = k - p;
        let x = columns8(rows.add(p), k, width);
        let mut c = 0;
        while c + 2 <= width {
            pair(&mut acc, x[c], x[c + 1], p + c);
            c += 2;
        }
        if c < width {
            let b0 = bp.add((p + c) * N);
            for (j, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(x[c], _mm256_set1_ps(*b0.add(j))));
            }
        }
    }
    for (j, acc) in acc.iter().enumerate() {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), *acc);
        for (r, &v) in lanes.iter().enumerate() {
            out[(i0 + r) * N + j] = v;
        }
    }
}

/// Columns `0..width` (`width <= 8`) of the eight rows at `src`, `src +
/// ld`, …, `src + 7·ld`, one row per lane: lane `r` of vector `c` holds
/// `src[r·ld + c]`. A full tile is transposed straight from memory; a
/// narrower one is first copied into a zeroed stack tile, so vectors
/// `width..8` hold zeros. A pure copy: every bit arrives unchanged.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `width <= 8`, and that
/// `src + r·ld + c` is readable for every `r < 8`, `c < width`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn columns8(
    src: *const f32,
    ld: usize,
    width: usize,
) -> [std::arch::x86_64::__m256; 8] {
    if width == 8 {
        return load_columns8(src, ld);
    }
    let mut tile = [0.0f32; 64];
    for (r, row) in tile.chunks_exact_mut(8).enumerate() {
        std::ptr::copy_nonoverlapping(src.add(r * ld), row.as_mut_ptr(), width);
    }
    load_columns8(tile.as_ptr(), 8)
}

/// The full-tile case of [`columns8`]: an 8×8 register transpose. Each
/// vector starts as the matching 4-wide halves of rows `r` and `r + 4`,
/// so unpacks and shuffles within 128-bit lanes finish the transpose.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and that `src + r·ld + c` is
/// readable for every `r, c < 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn load_columns8(src: *const f32, ld: usize) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::{
        _mm256_castps128_ps256, _mm256_insertf128_ps, _mm256_setzero_ps, _mm256_shuffle_ps,
        _mm256_unpackhi_ps, _mm256_unpacklo_ps, _mm_loadu_ps,
    };
    let halves = |r: usize, c: usize| {
        _mm256_insertf128_ps::<1>(
            _mm256_castps128_ps256(_mm_loadu_ps(src.add(r * ld + c))),
            _mm_loadu_ps(src.add((r + 4) * ld + c)),
        )
    };
    let mut cols = [_mm256_setzero_ps(); 8];
    for c in [0, 4] {
        let (t0, t1, t2, t3) = (halves(0, c), halves(1, c), halves(2, c), halves(3, c));
        let (u0, u1) = (_mm256_unpacklo_ps(t0, t1), _mm256_unpackhi_ps(t0, t1));
        let (u2, u3) = (_mm256_unpacklo_ps(t2, t3), _mm256_unpackhi_ps(t2, t3));
        cols[c] = _mm256_shuffle_ps::<0x44>(u0, u2);
        cols[c + 1] = _mm256_shuffle_ps::<0xEE>(u0, u2);
        cols[c + 2] = _mm256_shuffle_ps::<0x44>(u1, u3);
        cols[c + 3] = _mm256_shuffle_ps::<0xEE>(u1, u3);
    }
    cols
}

/// Transposes the `[rows, cols]` view starting at `src[0]` with row
/// stride `ld` into `dst` as a contiguous `[cols, rows]` matrix:
/// `dst[c·rows + r] = src[r·ld + c]`. A pure copy, so every bit (NaN
/// payloads and signed zeros included) arrives unchanged on every
/// dispatch; the AVX2 body moves 8×8 tiles through registers.
///
/// # Panics
///
/// Panics if `cols > ld` or a slice is shorter than the shapes imply.
pub(crate) fn transpose_into(src: &[f32], ld: usize, rows: usize, cols: usize, dst: &mut [f32]) {
    assert!(
        src.len() >= strided_len(ld, rows, cols),
        "source view shorter than its rows"
    );
    let dst = &mut dst[..rows * cols];
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        // SAFETY: AVX2 support was just detected; `src` holds `rows` rows
        // of stride `ld` with `cols <= ld` columns each (asserted above)
        // and `dst` was sliced to `rows*cols`.
        unsafe { transpose_avx2(src, ld, rows, cols, dst) };
        return;
    }
    transpose_scalar(src, ld, rows, cols, 0, 0, dst);
}

/// The scalar body of [`transpose_into`] for the source rows `r0..` and
/// columns `c0..`, so it also serves as the SIMD variant's edge.
fn transpose_scalar(
    src: &[f32],
    ld: usize,
    rows: usize,
    cols: usize,
    r0: usize,
    c0: usize,
    dst: &mut [f32],
) {
    for r in r0..rows {
        for (c, &v) in src[r * ld + c0..r * ld + cols].iter().enumerate() {
            dst[(c0 + c) * rows + r] = v;
        }
    }
}

/// Source rows per block of [`transpose_avx2`]: each 8-column band is
/// finished over this many rows before the next band starts.
#[cfg(target_arch = "x86_64")]
const TRANSPOSE_BLOCK_ROWS: usize = 128;

/// AVX2 body of [`transpose_into`]: full 8×8 tiles through registers
/// ([`load_columns8`]), then the scalar edges — the last `cols % 8`
/// columns of the tiled rows, and the last `rows % 8` rows whole.
///
/// Tiles go band by band within blocks of [`TRANSPOSE_BLOCK_ROWS`] source
/// rows: the tiles of one 8-column band store along the same eight
/// destination rows, one after another, instead of each row strip of
/// tiles striding across every destination row.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `cols <= ld`,
/// `src.len() >= (rows-1)*ld + cols` and `dst.len() >= rows*cols`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_avx2(src: &[f32], ld: usize, rows: usize, cols: usize, dst: &mut [f32]) {
    use std::arch::x86_64::_mm256_storeu_ps;
    let (tr, tc) = (rows - rows % 8, cols - cols % 8);
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    for r0 in (0..tr).step_by(TRANSPOSE_BLOCK_ROWS) {
        let r1 = tr.min(r0 + TRANSPOSE_BLOCK_ROWS);
        for c in (0..tc).step_by(8) {
            for r in (r0..r1).step_by(8) {
                for (i, col) in load_columns8(sp.add(r * ld + c), ld).iter().enumerate() {
                    _mm256_storeu_ps(dp.add((c + i) * rows + r), *col);
                }
            }
        }
        for c in tc..cols {
            for r in r0..r1 {
                *dp.add(c * rows + r) = *sp.add(r * ld + c);
            }
        }
    }
    if tr < rows {
        transpose_scalar(src, ld, rows, cols, tr, 0, dst);
    }
}

/// Scaled attention scores of one head, read in place from the stacked
/// projections: `scores [t, t] = (Q · Kᵀ) · scale`, where `Q` and `K` are
/// the `[t, dh]` column blocks starting at `q[0]` and `k[0]` of row-major
/// matrices with row stride `ld`.
///
/// `K` is transposed once into `kt` (`[dh, t]`), so every score row
/// streams contiguous `kt` rows and vectorizes across output columns.
/// Per element the sum is [`matmul_t_kernel`]'s exact sequence — start at
/// `+0.0`, then `acc + q·k` (multiply, then add; never FMA) in ascending
/// `p`, with **no** zero skip — followed by one multiply by `scale`, the
/// separate scaling pass it replaces. It runs [`matmul_kernel`]'s blocks
/// without the skip, so the bits match that kernel plus the pass, on
/// every dispatch.
///
/// # Panics
///
/// Panics if `dh > ld` or a slice is shorter than the shapes imply.
// A kernel over strided views carries its operands, dims and scratch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_scores_into(
    q: &[f32],
    k: &[f32],
    ld: usize,
    t: usize,
    dh: usize,
    scale: f32,
    kt: &mut [f32],
    scores: &mut [f32],
) {
    let view = strided_len(ld, t, dh);
    assert!(
        q.len() >= view && k.len() >= view,
        "head view shorter than its rows"
    );
    let kt = &mut kt[..dh * t];
    transpose_into(k, ld, t, dh, kt);
    let g = Product {
        lhs_row: ld,
        ..Product::dense(t, dh, t)
    };
    v1_product(q, kt, g, ZeroSkip::Never, Some(scale), scores);
}

/// Elements a `[t, dh]` view of row stride `ld` spans: `(t-1)·ld + dh`
/// (zero for an empty view). Asserts the view fits its stride.
fn strided_len(ld: usize, t: usize, dh: usize) -> usize {
    assert!(dh <= ld, "head width {dh} exceeds row stride {ld}");
    if t == 0 {
        0
    } else {
        (t - 1) * ld + dh
    }
}

/// One head's attention output, written in place: `out [t, dh] = P · V`,
/// where `P` is the `[t, t]` softmax matrix `probs` and `V`/`out` are the
/// `[t, dh]` column blocks starting at `v[0]`/`out[0]` of row-major
/// matrices with row stride `ld`. Columns of `out` outside the head are
/// left untouched, so heads write straight into the merged matrix.
///
/// Per element the sum is [`matmul_kernel`]'s exact sequence, through
/// its blocks: start at `+0.0`, then `acc + p·v` in ascending `j`,
/// **skipping** every `p == 0` term. The skip is part of the bits, not an
/// optimization: softmax weights underflow to exactly zero, and `0·Inf`
/// is NaN where the skip leaves the sum finite. Each row tests its own
/// weight, whatever `V` holds: the weights are rarely exactly zero, so
/// the branch predicts well.
///
/// # Panics
///
/// Panics if `dh > ld` or a slice is shorter than the shapes imply.
pub(crate) fn attention_mix_into(
    probs: &[f32],
    v: &[f32],
    ld: usize,
    t: usize,
    dh: usize,
    out: &mut [f32],
) {
    let view = strided_len(ld, t, dh);
    assert!(
        v.len() >= view && out.len() >= view,
        "head view shorter than its rows"
    );
    let g = Product {
        ldb: ld,
        ldo: ld,
        ..Product::dense(t, t, dh)
    };
    v1_product(&probs[..t * t], v, g, ZeroSkip::Always, None, out);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::new(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_t_equals_matmul_of_transpose() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Tensor::uniform(vec![4, 6], 1.0, &mut rng);
        let b = Tensor::uniform(vec![5, 6], 1.0, &mut rng);
        let direct = a.matmul_t(&b);
        let via_transpose = a.matmul(&b.transposed());
        for (x, y) in direct.data().iter().zip(via_transpose.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// Row counts straddling the 8-row and 4-row blocks, the 8-row lanes
    /// of narrow outputs, and single rows.
    const BLOCK_ROWS: [usize; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 33, 48, 49];
    /// Column counts straddling the 8-column panels and the scalar tail;
    /// the ones below 8 run the row lanes.
    const BLOCK_COLS: [usize; 12] = [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 33, 128];
    /// Inner dimensions straddling the paired-`k` tail and the 8-wide
    /// transpose chunks of the row lanes.
    const BLOCK_DEPTHS: [usize; 7] = [1, 2, 7, 8, 9, 16, 33];

    /// Seeded values in `[-2, 2)` with exact `±0.0` and denormals mixed
    /// in, plus `±Inf` and NaN when `special` — the operands on which
    /// skipping a `0·x` term differs from adding it.
    pub(crate) fn adversarial(len: usize, seed: u64, special: bool) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|i| match (i * 7 + seed as usize) % 29 {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-40,
                3 => -3e-39,
                4 if special => f32::INFINITY,
                5 if special => f32::NEG_INFINITY,
                6 if special => f32::NAN,
                _ => rng.gen_range(-2.0..2.0),
            })
            .collect()
    }

    /// IEEE 754 pins down only NaN-ness for a NaN result, so NaNs compare
    /// as one token and every other value by its bits.
    pub(crate) fn canon(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    #[test]
    fn blocked_kernel_is_row_count_invariant() {
        // Every row of a blocked m-row call must be bit-identical to a
        // 1-row call on the same data: the batched serving path depends on
        // this to share one numerics version with solo sessions. Odd k
        // exercises the single-k tail; m values straddle the 8- and 4-row
        // blocks, n the 8-column panels, the scalar column tail and the
        // row lanes of narrow outputs.
        let mut rng = StdRng::seed_from_u64(3);
        for k in BLOCK_DEPTHS {
            for n in BLOCK_COLS {
                let b = Tensor::uniform(vec![k, n], 1.0, &mut rng);
                for m in BLOCK_ROWS {
                    let a = Tensor::uniform(vec![m, k], 1.0, &mut rng);
                    let mut batched = vec![0.0f32; m * n];
                    matmul_blocked_kernel(a.data(), b.data(), m, k, n, &mut batched);
                    for i in 0..m {
                        let mut solo = vec![0.0f32; n];
                        matmul_blocked_kernel(
                            &a.data()[i * k..(i + 1) * k],
                            b.data(),
                            1,
                            k,
                            n,
                            &mut solo,
                        );
                        for (x, y) in solo.iter().zip(&batched[i * n..(i + 1) * n]) {
                            assert_eq!(x.to_bits(), y.to_bits(), "m={m} k={k} n={n} row {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_kernel_dispatch_is_bit_invisible() {
        // Whatever SIMD variant the host dispatches to must reproduce the
        // scalar reference bit for bit — the committed v2 golden traces
        // depend on it. Shapes straddle the 8- and 4-row blocks, the
        // 8-column panel, the paired-k tail, and for n < 8 the 8-row lanes,
        // their 8-wide transpose chunks and the m % 8 scalar rows.
        // Operands carry ±0.0 and denormals, plus ±Inf and NaN on the
        // second pass (the first keeps most sums finite, so their bits
        // show any change of order).
        for special in [false, true] {
            for (seed, k) in BLOCK_DEPTHS.into_iter().enumerate() {
                for n in BLOCK_COLS {
                    let b = adversarial(k * n, 100 + seed as u64, special);
                    for m in BLOCK_ROWS {
                        let a = adversarial(m * k, (m * n + k) as u64, special);
                        let mut dispatched = vec![0.0f32; m * n];
                        matmul_blocked_kernel(&a, &b, m, k, n, &mut dispatched);
                        let mut scalar = vec![0.0f32; m * n];
                        matmul_blocked_scalar(&a, &b, m, k, n, 0, &mut scalar);
                        assert_eq!(
                            canon(&scalar),
                            canon(&dispatched),
                            "m={m} k={k} n={n} special={special}"
                        );
                    }
                }
            }
        }
    }

    /// Sizes for every `m`, `k` and `n` of the v1 sweep: empty, 1–9, and
    /// both sides of the 4-row blocks, the 8-row lanes, the 16- and
    /// 8-column blocks and the masked remainder lanes.
    const V1_SIZES: [usize; 18] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48, 49];

    /// The v1 loop written out plainly, the reference every v1 body is
    /// held to: zero the output, then per row add `a·b` rows in ascending
    /// `p`, skipping a zero `a` when `skip`.
    fn v1_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, skip: bool) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if skip && av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
        out
    }

    /// A `[m, k]` lhs and a `[k, n]` rhs with ±0 and denormals throughout,
    /// and exact `±0.0` in the even rows of every third lhs column — the
    /// zeros ReLU and dropout leave. With `special`, the rhs rows opposite
    /// those columns hold ±Inf and NaN, where the skip must hold.
    fn v1_operands(m: usize, k: usize, n: usize, special: bool) -> (Vec<f32>, Vec<f32>) {
        let seed = (m * 4099 + k * 67 + n) as u64;
        let mut lhs = adversarial(m * k, seed, false);
        let mut rhs = adversarial(k * n, seed + 1, false);
        let specials = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY, 1.5];
        for p in (1..k).step_by(3) {
            for i in (0..m).step_by(2) {
                lhs[i * k + p] = if i % 4 == 0 { 0.0 } else { -0.0 };
            }
            if special {
                for j in 0..n {
                    rhs[p * n + j] = specials[(j + p) % 4];
                }
            }
        }
        (lhs, rhs)
    }

    #[test]
    fn v1_products_match_their_twins_and_what_they_replace() {
        // Every v1 product against its scalar twin and against the code
        // it replaced: `matmul_kernel` and `matmul_tn_kernel` against the
        // old skip loop (and `matmul_tn_kernel` against `transposed()`
        // followed by `matmul_kernel`), `matmul_t_kernel` against its dot
        // loop. The finite pass takes the branch-free route from 8 rows;
        // the special pass must keep the skip. Outputs start as 7.0, so
        // an element no body writes shows.
        let mut shapes = Vec::new();
        for m in V1_SIZES {
            for k in V1_SIZES {
                for n in V1_SIZES {
                    shapes.push((m, k, n));
                }
            }
        }
        // The CNN head's depth: 288 row-lane transposes, masked lanes
        // over a long `k`.
        for m in [0, 1, 7, 8, 9, 16, 17] {
            for n in [0, 1, 3, 7, 8, 9, 25] {
                shapes.push((m, 2304, n));
            }
        }
        for special in [false, true] {
            for &(m, k, n) in &shapes {
                let ctx = format!("m={m} k={k} n={n} special={special}");
                let (lhs, rhs) = v1_operands(m, k, n, special);
                let run = |f: &dyn Fn(&mut [f32])| {
                    let mut out = vec![7.0f32; m * n];
                    f(&mut out);
                    canon(&out)
                };

                let want = canon(&v1_reference(&lhs, &rhs, m, k, n, true));
                let dense = Product::dense(m, k, n);
                let got = run(&|o| matmul_kernel(&lhs, &rhs, m, k, n, o));
                assert_eq!(got, want, "matmul_kernel {ctx}");
                let twin = run(&|o| v1_scalar(&lhs, &rhs, dense, true, None, o));
                assert_eq!(twin, want, "v1_scalar {ctx}");

                let lhs_t = Tensor::new(vec![m, k], lhs.clone()).transposed();
                let got = run(&|o| matmul_tn_kernel(lhs_t.data(), &rhs, m, k, n, o));
                assert_eq!(got, want, "matmul_tn_kernel {ctx}");
                let tn = Product {
                    lhs_row: 1,
                    lhs_col: m,
                    ..dense
                };
                let twin = run(&|o| v1_scalar(lhs_t.data(), &rhs, tn, true, None, o));
                assert_eq!(twin, want, "matmul_tn twin {ctx}");
                let rhs_tensor = Tensor::new(vec![k, n], rhs.clone());
                let replaced = lhs_t.transposed().matmul(&rhs_tensor);
                assert_eq!(canon(replaced.data()), want, "transposed + matmul {ctx}");

                let want = canon(&v1_reference(&lhs, &rhs, m, k, n, false));
                let rhs_t = Tensor::new(vec![k, n], rhs.clone()).transposed();
                let got = run(&|o| matmul_t_kernel(&lhs, rhs_t.data(), m, k, n, o));
                assert_eq!(got, want, "matmul_t_kernel {ctx}");
                let old = run(&|o| matmul_t_scalar(&lhs, rhs_t.data(), m, k, n, o));
                assert_eq!(old, want, "matmul_t loop {ctx}");
                let twin = run(&|o| v1_scalar(&lhs, &rhs, dense, false, None, o));
                assert_eq!(twin, want, "v1_scalar without skip {ctx}");
            }
        }
    }

    #[test]
    fn v1_products_refuse_short_buffers() {
        let (a, b) = (vec![1.0f32; 6], vec![1.0f32; 6]);
        let mut out = vec![0.0f32; 3];
        let caught = |f: &dyn Fn(&mut [f32])| {
            let mut out = out.clone();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut out))).is_err()
        };
        // [3,2]·[2,3] needs 9 outputs; [2,3]ᵀ·[2,3] needs 9 too.
        assert!(caught(&|o| matmul_kernel(&a, &b, 3, 2, 3, o)));
        assert!(caught(&|o| matmul_tn_kernel(&a, &b, 3, 2, 3, o)));
        assert!(caught(&|o| matmul_t_kernel(&a, &b, 3, 2, 3, o)));
        assert!(caught(&|o| matmul_tn_kernel(&a[..5], &b, 3, 2, 1, o)));
        matmul_tn_kernel(&a, &b, 3, 2, 1, &mut out);
        assert_eq!(out, [2.0; 3]);
    }

    /// The `[t, dh]` column block at `off` of a `[t, ld]` matrix, copied
    /// out — the per-head copy attention made before it read in place.
    fn head_copy(src: &[f32], ld: usize, t: usize, off: usize, dh: usize) -> Vec<f32> {
        (0..t)
            .flat_map(|i| src[i * ld + off..i * ld + off + dh].iter().copied())
            .collect()
    }

    /// Sequence lengths straddling the 4-row, 16- and 8-column blocks.
    const SEQ_LENS: [usize; 8] = [0, 1, 7, 8, 9, 25, 48, 49];
    /// Head widths: one panel, a panel plus tail, two panels, the paper's.
    const HEAD_WIDTHS: [usize; 4] = [8, 12, 16, 64];

    #[test]
    fn attention_scores_match_matmul_t_and_their_scalar_twin() {
        // Both heads of a two-head [t, 2·dh] projection, read in place,
        // against the per-head copy + `matmul_t_kernel` + scaling pass the
        // engine ran before, and against the scalar body. Every 5th key
        // row carries ±Inf/NaN; zeros and denormals are everywhere.
        let scale = 0.125f32;
        for t in SEQ_LENS {
            for dh in HEAD_WIDTHS {
                let ld = 2 * dh;
                let q = adversarial(t * ld, (t * 31 + dh) as u64, false);
                let mut k = adversarial(t * ld, (t * 17 + dh) as u64, false);
                let specials = adversarial(t * ld, 5, true);
                for j in (2..t).step_by(5) {
                    k[j * ld..(j + 1) * ld].copy_from_slice(&specials[j * ld..(j + 1) * ld]);
                }
                // An empty view has no second head to offset into.
                for off in [0, dh].into_iter().take(if t == 0 { 1 } else { 2 }) {
                    let mut old = vec![0.0f32; t * t];
                    matmul_t_kernel(
                        &head_copy(&q, ld, t, off, dh),
                        &head_copy(&k, ld, t, off, dh),
                        t,
                        dh,
                        t,
                        &mut old,
                    );
                    for s in &mut old {
                        *s *= scale;
                    }
                    let mut kt = vec![0.0f32; dh * t];
                    let mut got = vec![7.0f32; t * t];
                    attention_scores_into(
                        &q[off..],
                        &k[off..],
                        ld,
                        t,
                        dh,
                        scale,
                        &mut kt,
                        &mut got,
                    );
                    let mut twin = vec![7.0f32; t * t];
                    transpose_scalar(&k[off..], ld, t, dh, 0, 0, &mut kt);
                    let g = Product {
                        lhs_row: ld,
                        ..Product::dense(t, dh, t)
                    };
                    v1_scalar(&q[off..], &kt, g, false, Some(scale), &mut twin);
                    assert_eq!(canon(&old), canon(&got), "t={t} dh={dh} head at {off}");
                    assert_eq!(canon(&twin), canon(&got), "t={t} dh={dh} head at {off}");
                }
            }
        }
    }

    #[test]
    fn attention_mix_matches_matmul_kernel_and_its_scalar_twin() {
        // P·V written in place into both heads' column blocks of a merged
        // [t, 2·dh] matrix, against `matmul_kernel` on per-head copies and
        // against the scalar body. Half the weights are exact zeros (and
        // some `-0.0`), so the skip runs; every 3rd value row carries
        // ±Inf/NaN, where adding `0·x` would differ from skipping it.
        for t in SEQ_LENS {
            for dh in HEAD_WIDTHS {
                let ld = 2 * dh;
                let mut probs = adversarial(t * t, (t * 13 + dh) as u64, false);
                for (i, p) in probs.iter_mut().enumerate() {
                    if i % 2 == 1 {
                        *p = 0.0;
                    }
                }
                let mut v = adversarial(t * ld, (t * 7 + dh) as u64, false);
                let specials = adversarial(t * ld, 6, true);
                for j in (1..t).step_by(3) {
                    v[j * ld..(j + 1) * ld].copy_from_slice(&specials[j * ld..(j + 1) * ld]);
                }
                // An empty view has no second head to offset into.
                for off in [0, dh].into_iter().take(if t == 0 { 1 } else { 2 }) {
                    let mut old = vec![0.0f32; t * dh];
                    matmul_kernel(&probs, &head_copy(&v, ld, t, off, dh), t, t, dh, &mut old);
                    let mut got = vec![7.0f32; t * ld];
                    attention_mix_into(&probs, &v[off..], ld, t, dh, &mut got[off..]);
                    let mut twin = vec![7.0f32; t * ld];
                    let g = Product {
                        ldb: ld,
                        ldo: ld,
                        ..Product::dense(t, t, dh)
                    };
                    v1_scalar(&probs, &v[off..], g, true, None, &mut twin[off..]);
                    assert_eq!(canon(&twin), canon(&got), "t={t} dh={dh} head at {off}");
                    assert_eq!(
                        canon(&old),
                        canon(&head_copy(&got, ld, t, off, dh)),
                        "t={t} dh={dh} head at {off}"
                    );
                    let other = if off == 0 { dh } else { 0 };
                    assert!(
                        head_copy(&got, ld, t, other, dh).iter().all(|&x| x == 7.0),
                        "t={t} dh={dh}: a head wrote outside its columns"
                    );
                }
            }
        }
    }

    #[test]
    fn attention_mix_keeps_the_zero_weight_skip() {
        // One query attends fully to key 1; key 0's weight underflowed to
        // exactly zero and its value row is infinite. Skipping the term
        // leaves the output finite — adding `0·Inf` would make it NaN.
        let (t, dh) = (2, 8);
        let probs = [0.0f32, 1.0, 0.5, 0.5];
        let mut v = vec![f32::INFINITY; dh];
        v.extend(vec![3.0f32; dh]);
        let mut out = vec![0.0f32; t * dh];
        attention_mix_into(&probs, &v, dh, t, dh, &mut out);
        assert!(out[..dh].iter().all(|&x| x == 3.0), "{out:?}");
        assert!(out[dh..].iter().all(|&x| x == f32::INFINITY), "{out:?}");
    }

    #[test]
    fn transpose_matches_its_scalar_twin_bit_for_bit() {
        // A pure copy: every bit moves, NaN payloads and -0.0 included.
        // Views are strided and start one element in (unaligned); shapes
        // straddle the 8×8 tiles on both axes and the 128-row blocks,
        // empty views included.
        for rows in [0usize, 1, 7, 8, 9, 16, 17, 48, 128, 129, 136, 263] {
            for cols in [0usize, 1, 3, 8, 9, 16, 17] {
                let ld = cols + 5;
                let mut src = adversarial(1 + rows * ld, (rows * 40 + cols) as u64, true);
                src[0] = f32::from_bits(0x7fc0_1234);
                let mut got = vec![9.0f32; rows * cols];
                transpose_into(&src[1..], ld, rows, cols, &mut got);
                let mut twin = vec![9.0f32; rows * cols];
                transpose_scalar(&src[1..], ld, rows, cols, 0, 0, &mut twin);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&twin), bits(&got), "rows={rows} cols={cols}");
                for r in 0..rows {
                    for c in 0..cols {
                        assert_eq!(got[c * rows + r].to_bits(), src[1 + r * ld + c].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_kernel_tracks_v1_within_float_tolerance() {
        // v2 reassociates the k loop, so bits differ from v1 — but only by
        // accumulated f32 rounding, not by algorithm.
        let mut rng = StdRng::seed_from_u64(4);
        let (m, k, n) = (6, 37, 23);
        let a = Tensor::uniform(vec![m, k], 1.0, &mut rng);
        let b = Tensor::uniform(vec![k, n], 1.0, &mut rng);
        let mut v1 = vec![0.0f32; m * n];
        let mut v2 = vec![0.0f32; m * n];
        matmul_kernel(a.data(), b.data(), m, k, n, &mut v1);
        matmul_blocked_kernel(a.data(), b.data(), m, k, n, &mut v2);
        for (x, y) in v1.iter().zip(&v2) {
            assert!((x - y).abs() <= 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_roundtrips() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::uniform(vec![3, 7], 1.0, &mut rng);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_rejects_bad_dims() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let t = Tensor::new(vec![2, 3], vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.8]);
        assert_eq!(t.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::new(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.clone().reshaped(vec![3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "changes size")]
    fn reshape_rejects_size_change() {
        let _ = Tensor::zeros(vec![2, 3]).reshaped(vec![2, 2]);
    }

    #[test]
    fn uniform_respects_limit_and_seed() {
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let a = Tensor::uniform(vec![100], 0.5, &mut rng1);
        let b = Tensor::uniform(vec![100], 0.5, &mut rng2);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|&x| (-0.5..=0.5).contains(&x)));
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(vec![3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
