//! The deployment runtime (the Jetson-side engine).
//!
//! Training uses the autodiff graph; deployment compiles a trained model
//! into a forward-only network whose weight matrices can be stored dense,
//! pruned-sparse (CSR) or int8-quantized. This split mirrors real embedded
//! stacks (PyTorch → TensorRT) and is what makes Fig. 12 honest: the pruned
//! and quantized variants run *different kernels*, not masked dense math.
//!
//! The single-window `predict_*` surface here matches the 15 Hz real-time
//! loop of Sec. IV-A3. It is a thin wrapper over the one engine, the
//! compiled [`crate::plan::InferPlan`]: a preallocated scratch arena whose
//! batched stages call the `_into` primitives defined here.

use serde::{Deserialize, Serialize};

use crate::arena::ArenaVec;
use crate::matexec::{CscExec, ExecCache, Int8Exec};
use crate::models::{
    CnnModel, LstmModel, Model, PoolKind, TransformerModel,
};
use crate::sparse::CsrMatrix;
use crate::tensor::{transpose_into, Tensor};

/// How a weight matrix is stored and multiplied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MatRep {
    /// Plain dense `f32` matrix `[k, n]`.
    Dense(Tensor),
    /// Pruned CSR matrix (zeros skipped).
    Sparse(CsrMatrix),
    /// 8-bit integer matrix with a dequantization scale.
    Int8(QuantMatrix),
}

/// Reusable buffers for the compressed-weight execution kernels: int8
/// activation quantization and i32 accumulation, plus the transpose
/// staging the batched CSC kernel and the chained feed-forward pair
/// (`TfBlockInfer::feed_forward_into`) use. One instance per inference
/// lane; the compiled plan owns one, and every buffer grows monotonically,
/// so the compressed paths allocate nothing per warm tick.
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    /// Quantized activations, all batch rows (`[m, k]`).
    xq: Vec<i8>,
    /// i32 accumulators (scalar int8 fallback).
    acc: Vec<i32>,
    /// Per-batch-row dequantization scales.
    deq: Vec<f32>,
    /// Transposed activations for the batched CSC kernel (`[k, m]`).
    xt: Vec<f32>,
    /// Transposed outputs for the batched CSC kernel (`[n, m]`).
    yt: Vec<f32>,
}

impl MatRep {
    /// `x [m, k] × W [k, n]` over raw slices into a preallocated output
    /// (`out` is fully overwritten), dispatching on the representation.
    /// Dense matrices run [`crate::tensor::matmul_blocked_kernel`] (the
    /// multi-row blocked GEMM); compressed representations execute through
    /// their compiled execution format ([`crate::matexec::SparseExec`] /
    /// [`crate::matexec::Int8Exec`]), which is bit-identical to the storage
    /// kernel it replaces. Every path is row-count invariant: row `i` of an
    /// `m`-row call gets the bits of a 1-row call.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` is shorter than the dimensions imply.
    pub fn left_matmul_into(&self, x: &[f32], m: usize, out: &mut [f32], qs: &mut ExecScratch) {
        match self {
            MatRep::Dense(w) => {
                crate::tensor::matmul_blocked_kernel(x, w.data(), m, w.rows(), w.cols(), out);
            }
            MatRep::Sparse(w) => {
                w.exec()
                    .left_matmul_into(x, m, out, &mut qs.xt, &mut qs.yt);
            }
            MatRep::Int8(w) => w.left_matmul_into(x, m, out, qs),
        }
    }

    /// Forces this matrix's execution format to compile now (plan build /
    /// artifact open) instead of lazily on the first inference call.
    /// Dense matrices execute in place and have nothing to compile.
    pub fn precompile(&self) {
        match self {
            MatRep::Dense(_) => {}
            MatRep::Sparse(w) => {
                w.exec();
            }
            MatRep::Int8(w) => {
                w.exec();
            }
        }
    }

    /// Whether the execution format has been compiled (dense matrices
    /// execute in place and always count as compiled).
    #[must_use]
    pub fn exec_compiled(&self) -> bool {
        match self {
            MatRep::Dense(_) => true,
            MatRep::Sparse(w) => w.exec.is_compiled(),
            MatRep::Int8(w) => w.exec.is_compiled(),
        }
    }

    /// `(k, n)` dimensions.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        match self {
            MatRep::Dense(w) => (w.rows(), w.cols()),
            MatRep::Sparse(w) => (w.rows, w.cols),
            MatRep::Int8(w) => (w.rows, w.cols),
        }
    }

    /// Effective parameter count (non-zeros for sparse).
    #[must_use]
    pub fn param_count(&self) -> usize {
        match self {
            MatRep::Dense(w) => w.numel(),
            MatRep::Sparse(w) => w.nnz(),
            MatRep::Int8(w) => w.data.len(),
        }
    }

    /// Bytes of weight storage (f32 dense, CSR overhead, i8 quantized).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        match self {
            MatRep::Dense(w) => w.numel() * 4,
            MatRep::Sparse(w) => w.nnz() * (4 + 4) + (w.rows + 1) * 8,
            MatRep::Int8(w) => w.data.len(),
        }
    }
}

/// Int8 weight matrix with dynamic activation quantization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantMatrix {
    /// Row count (input width).
    pub rows: usize,
    /// Column count (output width).
    pub cols: usize,
    /// Quantized weights, row-major `[rows, cols]` (owned or borrowed from
    /// a shared weight arena).
    pub data: ArenaVec<i8>,
    /// Dequantization scale: `w ≈ q * scale`.
    pub scale: f32,
    /// Fixed activation scale; `None` computes a dynamic per-call scale
    /// (calibrated mode), `Some(s)` clips activations at `±127 s`
    /// (the paper-faithful global mode that collapses accuracy).
    pub act_scale: Option<f32>,
    /// Memoized execution format (see [`QuantMatrix::exec`]). Derived
    /// data: skipped by comparison and serialization, shared by clones.
    pub exec: ExecCache<Int8Exec>,
}

impl QuantMatrix {
    /// Quantizes a dense matrix with the given weight scale.
    ///
    /// Values beyond `±127 * scale` saturate — that clipping is the whole
    /// story of Fig. 12's accuracy collapse.
    #[must_use]
    pub fn quantize(dense: &Tensor, scale: f32, act_scale: Option<f32>) -> Self {
        let (rows, cols) = (dense.rows(), dense.cols());
        let data = dense
            .data()
            .iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        Self {
            rows,
            cols,
            data,
            scale,
            act_scale,
            exec: ExecCache::default(),
        }
    }

    /// The compiled execution format for this matrix, built on first use
    /// (or eagerly via [`MatRep::precompile`]) and shared by every clone.
    pub fn exec(&self) -> &std::sync::Arc<Int8Exec> {
        self.exec
            .get_or_compile(|| Int8Exec::compile(self.rows, self.cols, &self.data))
    }

    /// Integer matmul `x [m, rows] × W -> [m, cols]` with i32 accumulation.
    #[must_use]
    pub fn left_matmul(&self, x: &Tensor) -> Tensor {
        let (m, k) = (x.rows(), x.cols());
        assert_eq!(k, self.rows, "quant matmul dims {k} vs {}", self.rows);
        let n = self.cols;
        let mut out = vec![0.0f32; m * n];
        self.left_matmul_into(x.data(), m, &mut out, &mut ExecScratch::default());
        Tensor::new(vec![m, n], out)
    }

    /// [`QuantMatrix::left_matmul`] over raw slices into a preallocated
    /// output, reusing the caller's scratch.
    ///
    /// All `m` activation rows are quantized up front
    /// ([`crate::matexec::quantize_row`], SIMD with exact
    /// round-half-away semantics), then a single quantized GEMM runs
    /// through the compiled execution format ([`Int8Exec`]) with
    /// dequantization fused into the store. i32 accumulation is exact and
    /// associative, so every kernel variant — column-major `vpmaddwd`
    /// dots, row-major panels, scalar fallback — is **bit-identical** to
    /// the straightforward row-at-a-time loop: a skipped zero contributes
    /// exactly 0, and the worst-case sum `127·127·rows` stays far below
    /// `i32::MAX` for any realistic layer width. Hardware dispatch can
    /// therefore never change outputs.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` is shorter than the dimensions imply.
    pub fn left_matmul_into(&self, x: &[f32], m: usize, out: &mut [f32], qs: &mut ExecScratch) {
        let k = self.rows;
        let n = self.cols;
        qs.xq.resize(m * k, 0);
        qs.deq.resize(m, 0.0);
        for i in 0..m {
            let xrow = &x[i * k..(i + 1) * k];
            let ax = self.act_scale.unwrap_or_else(|| {
                let max = xrow.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                if max == 0.0 {
                    1.0
                } else {
                    max / 127.0
                }
            });
            crate::matexec::quantize_row(xrow, ax, &mut qs.xq[i * k..(i + 1) * k]);
            qs.deq[i] = ax * self.scale;
        }
        self.exec()
            .left_matmul_into(&qs.xq, m, k, n, &self.data, &qs.deq, out, &mut qs.acc);
    }
}

/// Activation applied after a linear stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectifier.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation elementwise in place.
    pub fn apply_slice(self, s: &mut [f32]) {
        match self {
            Activation::None => {}
            Activation::Relu => {
                for v in s {
                    *v = v.max(0.0);
                }
            }
            Activation::Tanh => {
                for v in s {
                    *v = v.tanh();
                }
            }
        }
    }
}

/// A linear stage `y = act(x W + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearInfer {
    /// Weight representation.
    pub w: MatRep,
    /// Bias, length = output width.
    pub bias: Vec<f32>,
    /// Post-activation.
    pub act: Activation,
}

impl LinearInfer {
    /// Applies the stage to `x [m, k]` into a preallocated output (fully
    /// overwritten): matmul, bias rows, activation.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` is shorter than the dimensions imply.
    pub fn forward_into(&self, x: &[f32], m: usize, out: &mut [f32], qs: &mut ExecScratch) {
        let (k, _) = self.w.dims();
        assert_eq!(x.len(), m * k, "linear stage input size");
        self.w.left_matmul_into(x, m, out, qs);
        self.bias_act(out, m);
    }

    /// The epilogue of [`LinearInfer::forward_into`] on `out [m, n]`: the
    /// bias along each row, then the activation.
    fn bias_act(&self, out: &mut [f32], m: usize) {
        let (_, n) = self.w.dims();
        let out = &mut out[..m * n];
        let bias = &self.bias[..n];
        for i in 0..m {
            for (o, b) in out[i * n..(i + 1) * n].iter_mut().zip(bias) {
                *o += b;
            }
        }
        self.act.apply_slice(out);
    }

    /// [`LinearInfer::bias_act`] on the output held transposed, `yt [n, m]`:
    /// row `c` takes `bias[c]`, then the activation. Each element sees the
    /// same add and then the same activation as in the row-major epilogue.
    fn bias_act_transposed(&self, yt: &mut [f32], m: usize) {
        let (_, n) = self.w.dims();
        for (row, &b) in yt[..n * m].chunks_exact_mut(m).zip(&self.bias[..n]) {
            for v in row.iter_mut() {
                *v += b;
            }
            self.act.apply_slice(row);
        }
    }

    /// Output width (bias length).
    #[must_use]
    pub fn out_width(&self) -> usize {
        self.bias.len()
    }
}

/// One compiled CNN stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvInfer {
    /// Kernel `[cout, cin*kh*kw]`.
    pub w: MatRep,
    /// Per-map bias.
    pub bias: Vec<f32>,
    /// Input channels.
    pub cin: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub wdim: usize,
    /// Kernel size (square).
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Pooling applied after (2×2) if any.
    pub pool: PoolKind,
}

impl ConvInfer {
    /// Output dims after conv (before pooling).
    #[must_use]
    pub fn conv_out(&self) -> (usize, usize) {
        ((self.h - self.k) / self.stride + 1, (self.wdim - self.k) / self.stride + 1)
    }

    /// Lowers one image into conv patches: `cols` receives the
    /// `[spots, patch]` matrix the weight multiply consumes. The compiled
    /// plan stacks many windows' patch matrices into one GEMM. The kernel
    /// is stored `[patch, cout]` at compile time, so the plain
    /// left-multiply applies: `cols [spots, patch] × W -> [spots, cout]`.
    ///
    /// A patch row is `cin·k` runs of `k` contiguous image samples, so the
    /// lowering copies whole runs rather than one indexed load per patch
    /// element: fixed-size copies for Table III's kernel sizes 3 and 5
    /// (the quick CNN at batch 32 runs about 30 % faster with them than
    /// with runtime-length copies on a 2-vCPU AVX2 host), a slice copy for
    /// any other. It is a pure copy in portable Rust, so every bit arrives
    /// unchanged on every host and dispatch.
    pub(crate) fn im2col_into(&self, img: &[f32], cols: &mut [f32]) {
        match self.k {
            3 => self.im2col_runs::<3>(img, cols),
            5 => self.im2col_runs::<5>(img, cols),
            _ => self.im2col_runs::<0>(img, cols),
        }
    }

    /// The body of [`ConvInfer::im2col_into`]. `K` is the kernel size when
    /// it is known at compile time, or `0` to read it from `self.k`.
    fn im2col_runs<const K: usize>(&self, img: &[f32], cols: &mut [f32]) {
        let k = if K == 0 { self.k } else { K };
        let (ho, wo) = self.conv_out();
        let plane = self.h * self.wdim;
        let patch = self.cin * k * k;
        let cols = &mut cols[..ho * wo * patch];
        let mut idx = 0;
        for oy in 0..ho {
            for ox in 0..wo {
                let origin = oy * self.stride * self.wdim + ox * self.stride;
                for c in 0..self.cin {
                    for dy in 0..k {
                        let src = c * plane + origin + dy * self.wdim;
                        cols[idx..idx + k].copy_from_slice(&img[src..src + k]);
                        idx += k;
                    }
                }
            }
        }
    }

    /// The per-element reference the tests compare
    /// [`ConvInfer::im2col_into`] against: one indexed load per patch
    /// element.
    #[cfg(test)]
    fn im2col_scalar(&self, img: &[f32], cols: &mut [f32]) {
        let (ho, wo) = self.conv_out();
        let patch = self.cin * self.k * self.k;
        let cols = &mut cols[..ho * wo * patch];
        for oy in 0..ho {
            for ox in 0..wo {
                let spot = oy * wo + ox;
                let base = spot * patch;
                let mut idx = 0;
                for c in 0..self.cin {
                    for dy in 0..self.k {
                        let iy = oy * self.stride + dy;
                        for dx in 0..self.k {
                            let ix = ox * self.stride + dx;
                            cols[base + idx] =
                                img[c * self.h * self.wdim + iy * self.wdim + ix];
                            idx += 1;
                        }
                    }
                }
            }
        }
    }

    /// The conv epilogue: bias + fused ReLU (transposing `[spots, cout]`
    /// to channel-major, [`bias_relu_into`]), then the optional 2×2 pool
    /// into `out` — one window's worth of `flat`.
    pub(crate) fn bias_pool_into(&self, flat: &[f32], prepool: &mut [f32], out: &mut [f32]) {
        let (ho, wo) = self.conv_out();
        let spots = ho * wo;
        let cout = self.bias.len();
        let pooled = !matches!(self.pool, PoolKind::None) && ho >= 2 && wo >= 2;
        if pooled {
            let conv_dst = &mut prepool[..cout * spots];
            bias_relu_into(flat, &self.bias, spots, conv_dst);
            pool2_into(
                conv_dst,
                cout,
                ho,
                wo,
                matches!(self.pool, PoolKind::Max),
                out,
            );
        } else {
            bias_relu_into(flat, &self.bias, spots, &mut out[..cout * spots]);
        }
    }

    /// Output dims after conv and pooling.
    #[must_use]
    pub fn out_dims(&self) -> (usize, usize) {
        let (ho, wo) = self.conv_out();
        match self.pool {
            PoolKind::None => (ho, wo),
            _ if ho < 2 || wo < 2 => (ho, wo),
            _ => (ho / 2, wo / 2),
        }
    }

    /// Flattened output length after conv and pooling.
    #[must_use]
    pub fn out_len(&self) -> usize {
        let (ho, wo) = self.out_dims();
        self.bias.len() * ho * wo
    }
}

/// Bias + fused ReLU of one window's conv output, transposed from
/// `[spots, cout]` to channel-major:
/// `dst[c·spots + s] = (flat[s·cout + c] + bias[c]).max(0.0)`.
///
/// [`crate::tensor::transpose_into`] (AVX2 8×8 tiles, or its scalar twin
/// with dispatch off) moves the values first, then the bias add and the
/// ReLU run along each contiguous channel row. Each element still sees the
/// same two operations in the same order, so the bits match the fused
/// per-element reference loop the tests compare against
/// (`bias_relu_scalar`).
fn bias_relu_into(flat: &[f32], bias: &[f32], spots: usize, dst: &mut [f32]) {
    let cout = bias.len();
    transpose_into(flat, cout, spots, cout, dst);
    for (c, &b) in bias.iter().enumerate() {
        for v in &mut dst[c * spots..(c + 1) * spots] {
            *v = (*v + b).max(0.0);
        }
    }
}

/// The fused reference the tests compare [`bias_relu_into`] against: one
/// gather, bias add and ReLU per element.
#[cfg(test)]
fn bias_relu_scalar(flat: &[f32], bias: &[f32], spots: usize, dst: &mut [f32]) {
    let cout = bias.len();
    for s in 0..spots {
        for c in 0..cout {
            let v = flat[s * cout + c] + bias[c];
            dst[c * spots + s] = v.max(0.0);
        }
    }
}

fn pool2_into(x: &[f32], c: usize, h: usize, w: usize, max: bool, out: &mut [f32]) {
    let ho = h / 2;
    let wo = w / 2;
    let out = &mut out[..c * ho * wo];
    for ch in 0..c {
        for oy in 0..ho {
            for ox in 0..wo {
                let mut vals = [0.0f32; 4];
                for dy in 0..2 {
                    for dx in 0..2 {
                        vals[dy * 2 + dx] = x[ch * h * w + (oy * 2 + dy) * w + ox * 2 + dx];
                    }
                }
                out[ch * ho * wo + oy * wo + ox] = if max {
                    vals.iter().copied().fold(f32::NEG_INFINITY, f32::max)
                } else {
                    vals.iter().sum::<f32>() / 4.0
                };
            }
        }
    }
}

/// Compiled CNN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CnnInfer {
    /// Conv stages.
    pub convs: Vec<ConvInfer>,
    /// Classification head.
    pub head: LinearInfer,
    /// Expected channels.
    pub channels: usize,
    /// Expected window length.
    pub window: usize,
}

/// Compiled LSTM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LstmInfer {
    /// Per-layer fused gate weights `[in+h, 4h]` and biases.
    pub cells: Vec<LinearInfer>,
    /// Hidden width.
    pub hidden: usize,
    /// Classification head.
    pub head: LinearInfer,
    /// Expected channels.
    pub channels: usize,
    /// Expected window length.
    pub window: usize,
    /// Temporal subsampling.
    pub time_stride: usize,
}

/// One compiled transformer encoder block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TfBlockInfer {
    /// Q/K/V/O projections.
    pub wq: LinearInfer,
    /// Key projection.
    pub wk: LinearInfer,
    /// Value projection.
    pub wv: LinearInfer,
    /// Output projection.
    pub wo: LinearInfer,
    /// Post-attention LayerNorm `(gamma, beta)`.
    pub ln1: (Vec<f32>, Vec<f32>),
    /// Feed-forward stage 1 (ReLU fused).
    pub ff1: LinearInfer,
    /// Feed-forward stage 2.
    pub ff2: LinearInfer,
    /// Post-FF LayerNorm.
    pub ln2: (Vec<f32>, Vec<f32>),
}

impl TfBlockInfer {
    /// The feed-forward pair, `ff2(ff1(x))`, for `x [m, d]` into
    /// `out [m, d]`. `mid` holds FF1's `[m, dim_ff]` output when the two
    /// stages run as two [`LinearInfer::forward_into`] calls.
    ///
    /// When both matrices run CSC at `m` rows ([`Self::csc_chain`]), the
    /// pair stays in the transposed domain instead: one transpose takes
    /// `x` to `[d, m]`, FF1's batched CSC kernel
    /// ([`CscExec::transposed_into`]) writes `[dim_ff, m]`, whose rows take
    /// FF1's bias and then its ReLU and are FF2's transposed input as they
    /// stand, and one transpose brings FF2's `[d, m]` output back for its
    /// bias. That saves two of the four transposes and leaves `mid`
    /// untouched; the staging is `qs`'s own `xt`/`yt`. Every element keeps
    /// its CSC chain, its bias-then-activation and its second chain, so
    /// the bits are those of the two calls.
    ///
    /// # Panics
    ///
    /// Panics if `x`, `mid` or `out` is shorter than the dimensions imply.
    pub(crate) fn feed_forward_into(
        &self,
        x: &[f32],
        m: usize,
        mid: &mut [f32],
        out: &mut [f32],
        qs: &mut ExecScratch,
    ) {
        let Some((ff1, ff2)) = self.csc_chain(m) else {
            let ff = self.ff1.out_width();
            self.ff1.forward_into(x, m, mid, qs);
            self.ff2.forward_into(&mid[..m * ff], m, out, qs);
            return;
        };
        let ((d, ff), (_, n)) = (self.ff1.w.dims(), self.ff2.w.dims());
        assert_eq!(x.len(), m * d, "feed-forward input size");
        let ExecScratch { xt, yt, .. } = qs;
        xt.resize(d.max(n) * m, 0.0);
        transpose_into(x, d, m, d, xt);
        yt.resize(ff * m, 0.0);
        ff1.transposed_into(xt, m, yt);
        self.ff1.bias_act_transposed(yt, m);
        ff2.transposed_into(yt, m, xt);
        transpose_into(xt, m, n, m, out);
        self.ff2.bias_act(out, m);
    }

    /// The CSC forms of both feed-forward matrices when both are sparse
    /// and both run CSC at `m` rows ([`crate::matexec::SparseExec::csc_at`]),
    /// otherwise `None`: dense, int8 and densified stages, and a hybrid
    /// below eight rows, run through [`LinearInfer::forward_into`]. A
    /// single row never chains either: its transposes are plain copies,
    /// and the `m == 1` CSC chains beat the batched walk there.
    fn csc_chain(&self, m: usize) -> Option<(&CscExec, &CscExec)> {
        match (&self.ff1.w, &self.ff2.w) {
            (MatRep::Sparse(a), MatRep::Sparse(b)) if m > 1 => {
                Some((a.exec().csc_at(m)?, b.exec().csc_at(m)?))
            }
            _ => None,
        }
    }
}

/// Compiled transformer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TfInfer {
    /// Input projection 16 → d_model.
    pub input_proj: LinearInfer,
    /// Encoder blocks.
    pub blocks: Vec<TfBlockInfer>,
    /// Classification head.
    pub head: LinearInfer,
    /// Positional encodings `[seq_len, d_model]`.
    pub pos: Tensor,
    /// Attention heads.
    pub heads: usize,
    /// Model width.
    pub d_model: usize,
    /// Expected channels.
    pub channels: usize,
    /// Expected window length.
    pub window: usize,
    /// Temporal subsampling.
    pub time_stride: usize,
}

/// A compiled, deployable classifier.
// One value per ensemble member, never stored in bulk, so variant size
// spread costs nothing; boxing would only add a pointer chase.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InferModel {
    /// Convolutional network.
    Cnn(CnnInfer),
    /// Recurrent network.
    Lstm(LstmInfer),
    /// Transformer encoder.
    Transformer(TfInfer),
}

impl InferModel {
    /// Expected channel count.
    #[must_use]
    pub fn channels(&self) -> usize {
        match self {
            InferModel::Cnn(m) => m.channels,
            InferModel::Lstm(m) => m.channels,
            InferModel::Transformer(m) => m.channels,
        }
    }

    /// Expected window length in samples.
    #[must_use]
    pub fn window(&self) -> usize {
        match self {
            InferModel::Cnn(m) => m.window,
            InferModel::Lstm(m) => m.window,
            InferModel::Transformer(m) => m.window,
        }
    }

    /// Architecture label.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            InferModel::Cnn(_) => "cnn",
            InferModel::Lstm(_) => "lstm",
            InferModel::Transformer(_) => "transformer",
        }
    }

    /// Number of output classes (the classification head's width).
    #[must_use]
    pub fn classes(&self) -> usize {
        match self {
            InferModel::Cnn(m) => m.head.out_width(),
            InferModel::Lstm(m) => m.head.out_width(),
            InferModel::Transformer(m) => m.head.out_width(),
        }
    }

    /// Logits for one channel-major window.
    ///
    /// A thin wrapper over the compiled plan (`crate::plan::InferPlan`):
    /// it compiles a fresh plan per call, so the steady-state loop should
    /// hold a plan and call [`InferModel::predict_logits_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the window length differs from
    /// `channels() * window()`.
    #[must_use]
    pub fn predict_logits(&self, window: &[f32]) -> Vec<f32> {
        let mut plan = crate::plan::InferPlan::compile(self);
        let mut out = vec![0.0f32; self.classes()];
        self.predict_logits_into(window, 1, &mut plan, &mut out);
        out
    }

    /// Batched logits: `windows` holds `batch` channel-major windows
    /// back-to-back, `out` receives `batch × classes()` logits. All
    /// intermediate activations live in `plan`'s preallocated scratch
    /// arena, so the steady-state call performs **zero heap allocations**;
    /// per window the arithmetic (and its order) is identical to
    /// [`InferModel::predict_logits`] — batching changes memory layout,
    /// never numerics.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was compiled from a structurally different model,
    /// or if `windows`/`out` disagree with `batch` and the model's
    /// dimensions.
    pub fn predict_logits_into(
        &self,
        windows: &[f32],
        batch: usize,
        plan: &mut crate::plan::InferPlan,
        out: &mut [f32],
    ) {
        plan.predict_logits_into(self, windows, batch, out);
    }

    /// Softmax probabilities for one window.
    #[must_use]
    pub fn predict_proba(&self, window: &[f32]) -> Vec<f32> {
        let logits = self.predict_logits(window);
        let mut out = vec![0.0f32; logits.len()];
        softmax_into(&logits, &mut out);
        out
    }

    /// Predicted class index for one window, by the one total
    /// [`crate::ensemble::argmax`] (a NaN logit never panics).
    #[must_use]
    pub fn predict(&self, window: &[f32]) -> usize {
        crate::ensemble::argmax(&self.predict_logits(window))
    }

    /// Effective parameter count (non-zeros for pruned weights).
    #[must_use]
    pub fn param_count(&self) -> usize {
        let mut total = 0usize;
        self.visit_weights(|w| total += w.param_count());
        total + self.bias_count()
    }

    fn bias_count(&self) -> usize {
        let mut total = 0usize;
        match self {
            InferModel::Cnn(m) => {
                for c in &m.convs {
                    total += c.bias.len();
                }
                total += m.head.bias.len();
            }
            InferModel::Lstm(m) => {
                for c in &m.cells {
                    total += c.bias.len();
                }
                total += m.head.bias.len();
            }
            InferModel::Transformer(m) => {
                total += m.input_proj.bias.len() + m.head.bias.len();
                for b in &m.blocks {
                    total += b.wq.bias.len()
                        + b.wk.bias.len()
                        + b.wv.bias.len()
                        + b.wo.bias.len()
                        + b.ff1.bias.len()
                        + b.ff2.bias.len()
                        + b.ln1.0.len() * 2
                        + b.ln2.0.len() * 2;
                }
            }
        }
        total
    }

    /// Visits every weight matrix immutably.
    pub fn visit_weights(&self, mut f: impl FnMut(&MatRep)) {
        match self {
            InferModel::Cnn(m) => {
                for c in &m.convs {
                    f(&c.w);
                }
                f(&m.head.w);
            }
            InferModel::Lstm(m) => {
                for c in &m.cells {
                    f(&c.w);
                }
                f(&m.head.w);
            }
            InferModel::Transformer(m) => {
                f(&m.input_proj.w);
                for b in &m.blocks {
                    f(&b.wq.w);
                    f(&b.wk.w);
                    f(&b.wv.w);
                    f(&b.wo.w);
                    f(&b.ff1.w);
                    f(&b.ff2.w);
                }
                f(&m.head.w);
            }
        }
    }

    /// Visits every weight matrix mutably (used by the compressors).
    pub fn visit_weights_mut(&mut self, mut f: impl FnMut(&mut MatRep)) {
        match self {
            InferModel::Cnn(m) => {
                for c in &mut m.convs {
                    f(&mut c.w);
                }
                f(&mut m.head.w);
            }
            InferModel::Lstm(m) => {
                for c in &mut m.cells {
                    f(&mut c.w);
                }
                f(&mut m.head.w);
            }
            InferModel::Transformer(m) => {
                f(&mut m.input_proj.w);
                for b in &mut m.blocks {
                    f(&mut b.wq.w);
                    f(&mut b.wk.w);
                    f(&mut b.wv.w);
                    f(&mut b.wo.w);
                    f(&mut b.ff1.w);
                    f(&mut b.ff2.w);
                }
                f(&mut m.head.w);
            }
        }
    }
}

pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Softmax of `logits` into `out` — the exact arithmetic (and order) of
/// the historical `predict_proba`: subtract the max, exponentiate, sum in
/// index order, divide. Shared by the allocating wrapper and the
/// allocation-free ensemble path so both produce identical bits.
///
/// # Panics
///
/// Panics if `out.len() != logits.len()`.
pub fn softmax_into(logits: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), logits.len(), "softmax buffer size");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (o, &l) in out.iter_mut().zip(logits) {
        *o = (l - max).exp();
        sum += *o;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Row-wise softmax over a `[m, n]` slice (the attention kernel's shape).
pub(crate) fn softmax_rows_slice(data: &mut [f32], m: usize, n: usize) {
    for i in 0..m {
        let row = &mut data[i * n..(i + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// LayerNorm's variance epsilon.
const LN_EPS: f32 = 1e-5;

/// Row-wise layer norm over a `[m, n]` slice. Per row: `mean = Σv / n`
/// and `var = Σ(v − mean)² / n`, both sums starting at `-0.0` in index
/// order as `Iterator::sum` runs them; `inv = 1 / √(var + ε)`; then
/// `v ← ((v − mean)·inv)·γ + β` along the row.
///
/// With SIMD dispatch on, each block of eight rows gets its means and
/// `inv`s from [`layer_norm_stats_avx2`], one row per lane
/// ([`layer_norm_lanes`]). The last `m % 8` rows (and every row with
/// dispatch off) use the scalar twin [`layer_norm_stats`]. Every row then
/// normalizes through [`normalize_row`], so the bits match on every
/// dispatch.
pub(crate) fn layer_norm_slice(data: &mut [f32], m: usize, n: usize, gamma: &[f32], beta: &[f32]) {
    let data = &mut data[..m * n];
    for row in layer_norm_lanes(data, m, n, gamma, beta)..m {
        let row = &mut data[row * n..(row + 1) * n];
        let (mean, inv) = layer_norm_stats(row);
        normalize_row(row, mean, inv, gamma, beta);
    }
}

/// Normalizes the leading blocks of eight rows of `data` through the AVX2
/// row lanes and returns how many rows it handled: `m − m % 8` with SIMD
/// dispatch on and `n > 0`, otherwise 0.
#[cfg(target_arch = "x86_64")]
fn layer_norm_lanes(data: &mut [f32], m: usize, n: usize, gamma: &[f32], beta: &[f32]) -> usize {
    if !crate::simd::enabled() || n == 0 {
        return 0;
    }
    let full = m - m % 8;
    for block in data[..full * n].chunks_exact_mut(8 * n) {
        // SAFETY: AVX2 support was just detected, `n > 0`, and `block`
        // holds exactly eight rows of width `n`. Its twin is
        // `layer_norm_stats`, bit for bit.
        let (mean, inv) = unsafe { layer_norm_stats_avx2(block, n) };
        for (r, row) in block.chunks_exact_mut(n).enumerate() {
            normalize_row(row, mean[r], inv[r], gamma, beta);
        }
    }
    full
}

/// Off x86-64 there are no row lanes: every row takes the scalar body.
#[cfg(not(target_arch = "x86_64"))]
fn layer_norm_lanes(_: &mut [f32], _: usize, _: usize, _: &[f32], _: &[f32]) -> usize {
    0
}

/// One row's LayerNorm mean and `1 / √(var + ε)` — the reference twin of
/// [`layer_norm_stats_avx2`].
fn layer_norm_stats(row: &[f32]) -> (f32, f32) {
    let n = row.len() as f32;
    let mean: f32 = row.iter().sum::<f32>() / n;
    let var: f32 = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n;
    (mean, 1.0 / (var + LN_EPS).sqrt())
}

/// `v ← ((v − mean)·inv)·γ + β` along one row.
fn normalize_row(row: &mut [f32], mean: f32, inv: f32, gamma: &[f32], beta: &[f32]) {
    let (gamma, beta) = (&gamma[..row.len()], &beta[..row.len()]);
    for ((v, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
        *v = (*v - mean) * inv * g + b;
    }
}

/// AVX2 twin of [`layer_norm_stats`] for eight rows at once, one row per
/// lane: columns reach the lanes through [`crate::tensor::columns8`]'s
/// 8×8 transposes, and each lane runs its row's scalar chains exactly —
/// both sums from `-0.0` in ascending column order, `d·d` for `powi(2)`,
/// `/ n`, then `1 / √(var + ε)`, every step correctly rounded and never
/// fused.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `n > 0` and `rows.len() >= 8·n`.
/// The safe scalar twin, [`layer_norm_stats`], computes the same bits row
/// by row without them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn layer_norm_stats_avx2(rows: &[f32], n: usize) -> ([f32; 8], [f32; 8]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_div_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_sqrt_ps,
        _mm256_storeu_ps, _mm256_sub_ps,
    };
    let src = rows.as_ptr();
    let len = _mm256_set1_ps(n as f32);
    let mut sum = _mm256_set1_ps(-0.0);
    each_column8(src, n, |v| sum = _mm256_add_ps(sum, v));
    let mean = _mm256_div_ps(sum, len);
    let mut squares = _mm256_set1_ps(-0.0);
    each_column8(src, n, |v| {
        let d = _mm256_sub_ps(v, mean);
        squares = _mm256_add_ps(squares, _mm256_mul_ps(d, d));
    });
    let var = _mm256_div_ps(squares, len);
    let inv = _mm256_div_ps(
        _mm256_set1_ps(1.0),
        _mm256_sqrt_ps(_mm256_add_ps(var, _mm256_set1_ps(LN_EPS))),
    );
    let (mut means, mut invs) = ([0.0f32; 8], [0.0f32; 8]);
    _mm256_storeu_ps(means.as_mut_ptr(), mean);
    _mm256_storeu_ps(invs.as_mut_ptr(), inv);
    (means, invs)
}

/// Calls `f` on every column of the eight rows of width `n` at `src`, in
/// ascending order, one row per lane.
///
/// # Safety
///
/// Caller must ensure AVX2 is available and that `src` holds eight rows of
/// width `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn each_column8(src: *const f32, n: usize, mut f: impl FnMut(std::arch::x86_64::__m256)) {
    use crate::tensor::columns8;
    let mut c = 0;
    while c + 8 <= n {
        for v in columns8(src.add(c), n, 8) {
            f(v);
        }
        c += 8;
    }
    if c < n {
        for &v in &columns8(src.add(c), n, n - c)[..n - c] {
            f(v);
        }
    }
}

// --- compilers ---------------------------------------------------------------

/// Compiles a trained CNN into the deployment representation.
#[must_use]
pub fn compile_cnn(model: &CnnModel) -> InferModel {
    let (convs, dims, head, _final) = model.stages();
    let store = model.store();
    let compiled: Vec<ConvInfer> = convs
        .iter()
        .zip(dims)
        .map(|(conv, &(h, w))| ConvInfer {
            // Stored transposed ([patch, cout]) so inference multiplies
            // cols × W directly.
            w: MatRep::Dense(store.get(conv.weight_slot()).transposed()),
            bias: store.get(conv.bias_slot()).data().to_vec(),
            cin: conv.cin,
            h,
            wdim: w,
            k: conv.kh,
            stride: conv.stride,
            pool: model.pool(),
        })
        .collect();
    InferModel::Cnn(CnnInfer {
        convs: compiled,
        head: LinearInfer {
            w: MatRep::Dense(store.get(head.weight_slot()).clone()),
            bias: store.get(head.bias_slot()).data().to_vec(),
            act: Activation::None,
        },
        channels: model.channels(),
        window: model.window(),
    })
}

/// Compiles a trained LSTM into the deployment representation.
#[must_use]
pub fn compile_lstm(model: &LstmModel) -> InferModel {
    let (cells, head) = model.parts();
    let store = model.store();
    let compiled = cells
        .iter()
        .map(|cell| LinearInfer {
            w: MatRep::Dense(store.get(cell.weight_slot()).clone()),
            bias: store.get(cell.bias_slot()).data().to_vec(),
            act: Activation::None,
        })
        .collect();
    let cfg = model.config();
    InferModel::Lstm(LstmInfer {
        cells: compiled,
        hidden: cfg.hidden,
        head: LinearInfer {
            w: MatRep::Dense(store.get(head.weight_slot()).clone()),
            bias: store.get(head.bias_slot()).data().to_vec(),
            act: Activation::None,
        },
        channels: cfg.channels,
        window: cfg.window,
        time_stride: cfg.time_stride,
    })
}

/// Compiles a trained transformer into the deployment representation.
#[must_use]
pub fn compile_transformer(model: &TransformerModel) -> InferModel {
    let (input_proj, blocks, head, pos) = model.parts();
    let store = model.store();
    let lin = |d: &crate::layers::Dense, act: Activation| LinearInfer {
        w: MatRep::Dense(store.get(d.weight_slot()).clone()),
        bias: store.get(d.bias_slot()).data().to_vec(),
        act,
    };
    let compiled = blocks
        .iter()
        .map(|b| {
            let (wq, wk, wv, wo) = b.attn.projections();
            let (g1, b1) = b.norm1.slots();
            let (g2, b2) = b.norm2.slots();
            TfBlockInfer {
                wq: lin(wq, Activation::None),
                wk: lin(wk, Activation::None),
                wv: lin(wv, Activation::None),
                wo: lin(wo, Activation::None),
                ln1: (
                    store.get(g1).data().to_vec(),
                    store.get(b1).data().to_vec(),
                ),
                ff1: lin(&b.ff1, Activation::Relu),
                ff2: lin(&b.ff2, Activation::None),
                ln2: (
                    store.get(g2).data().to_vec(),
                    store.get(b2).data().to_vec(),
                ),
            }
        })
        .collect();
    let cfg = model.config();
    InferModel::Transformer(TfInfer {
        input_proj: lin(input_proj, Activation::None),
        blocks: compiled,
        head: lin(head, Activation::None),
        pos: pos.clone(),
        heads: cfg.heads,
        d_model: cfg.d_model,
        channels: cfg.channels,
        window: cfg.window,
        time_stride: cfg.time_stride,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::models::{CnnConfig, ConvSpec, LstmConfig, TransformerConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_window(channels: usize, win: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..channels * win).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Training-graph logits for a single window.
    fn graph_logits(model: &dyn crate::models::Model, window: &[f32]) -> Vec<f32> {
        let x = model.prepare_batch(&[window]);
        let mut g = Graph::new();
        let xi = g.input(x);
        let mut rng = StdRng::seed_from_u64(0);
        let logits = model.forward(&mut g, xi, 1, false, &mut rng);
        g.value(logits).data().to_vec()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn compiled_cnn_matches_training_graph() {
        let cfg = CnnConfig {
            convs: vec![
                ConvSpec {
                    filters: 6,
                    kernel: 3,
                    stride: 2,
                },
                ConvSpec {
                    filters: 4,
                    kernel: 3,
                    stride: 1,
                },
            ],
            pool: crate::models::PoolKind::Max,
            window: 40,
            channels: 16,
            dropout: 0.0,
        };
        let model = cfg.build(3).unwrap();
        let window = random_window(16, 40, 1);
        let compiled = compile_cnn(&model);
        assert_close(
            &compiled.predict_logits(&window),
            &graph_logits(&model, &window),
            1e-4,
        );
    }

    #[test]
    fn compiled_lstm_matches_training_graph() {
        let cfg = LstmConfig {
            hidden: 12,
            layers: 2,
            dropout: 0.0,
            window: 32,
            channels: 16,
            time_stride: 4,
        };
        let model = cfg.build(4).unwrap();
        let window = random_window(16, 32, 2);
        let compiled = compile_lstm(&model);
        assert_close(
            &compiled.predict_logits(&window),
            &graph_logits(&model, &window),
            1e-4,
        );
    }

    #[test]
    fn compiled_transformer_matches_training_graph() {
        let cfg = TransformerConfig {
            layers: 2,
            heads: 2,
            d_model: 16,
            dim_ff: 32,
            dropout: 0.0,
            window: 32,
            channels: 16,
            time_stride: 4,
        };
        let model = cfg.build(5).unwrap();
        let window = random_window(16, 32, 3);
        let compiled = compile_transformer(&model);
        assert_close(
            &compiled.predict_logits(&window),
            &graph_logits(&model, &window),
            1e-3,
        );
    }

    #[test]
    fn quant_matmul_approximates_dense() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = Tensor::uniform(vec![10, 8], 0.5, &mut rng);
        let x = Tensor::uniform(vec![3, 10], 1.0, &mut rng);
        let max = w.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let q = QuantMatrix::quantize(&w, max / 127.0, None);
        let qy = q.left_matmul(&x);
        let dy = x.matmul(&w);
        for (a, b) in qy.data().iter().zip(dy.data()) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn blocked_int8_kernel_matches_reference_bitwise() {
        // Straight-line i32 reference for the register-blocked kernel:
        // integer accumulation is associative, so the two must agree
        // bit-for-bit on every dequantized output.
        let mut rng = StdRng::seed_from_u64(11);
        // 37 rows exercises the 4-row blocks plus a 1-row tail.
        let w = Tensor::uniform(vec![37, 19], 0.5, &mut rng);
        let mut x = Tensor::uniform(vec![5, 37], 1.0, &mut rng);
        // Exact zeros exercise the skip paths.
        for v in x.data_mut().iter_mut().step_by(9) {
            *v = 0.0;
        }
        let q = QuantMatrix::quantize(&w, 0.004, None);
        let got = q.left_matmul(&x);
        for i in 0..5 {
            let xrow = &x.data()[i * 37..(i + 1) * 37];
            let max = xrow.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let ax = if max == 0.0 { 1.0 } else { max / 127.0 };
            let xq: Vec<i32> = xrow
                .iter()
                .map(|&v| (v / ax).round().clamp(-127.0, 127.0) as i32)
                .collect();
            for j in 0..19 {
                let acc: i32 = (0..37).map(|p| xq[p] * i32::from(q.data[p * 19 + j])).sum();
                let expect = acc as f32 * (ax * q.scale);
                let v = got.data()[i * 19 + j];
                assert!(
                    v.to_bits() == expect.to_bits(),
                    "({i},{j}): {v} vs reference {expect}"
                );
            }
        }
    }

    #[test]
    fn bad_global_scale_clips_weights() {
        let w = Tensor::new(vec![1, 4], vec![0.01, 2.0, -3.0, 0.5]);
        // Scale chosen far too small: big weights saturate at ±127*scale.
        let q = QuantMatrix::quantize(&w, 0.001, None);
        assert_eq!(q.data[1], 127); // 2.0 clipped
        assert_eq!(q.data[2], -127); // -3.0 clipped
    }

    #[test]
    fn param_count_drops_with_sparsity() {
        let model = CnnConfig::paper_best().build(1).unwrap();
        let mut compiled = compile_cnn(&model);
        let dense_count = compiled.param_count();
        compiled.visit_weights_mut(|w| {
            if let MatRep::Dense(d) = w {
                let mut zeroed = d.clone();
                for v in zeroed.data_mut().iter_mut().take(d.numel() / 2) {
                    *v = 0.0;
                }
                *w = MatRep::Sparse(crate::sparse::CsrMatrix::from_dense(&zeroed));
            }
        });
        assert!(compiled.param_count() < dense_count);
    }

    #[test]
    fn predict_and_proba_are_consistent() {
        let model = CnnConfig::paper_best().build(2).unwrap();
        let compiled = compile_cnn(&model);
        let window = random_window(16, 190, 7);
        let proba = compiled.predict_proba(&window);
        let pred = compiled.predict(&window);
        let argmax = proba
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(pred, argmax);
        assert!((proba.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(proba.len(), crate::models::CLASSES);
    }

    #[test]
    fn conv_lowering_and_epilogue_match_their_scalar_twins() {
        // The run-copy lowering against the per-element loop, and the
        // transposed bias + ReLU epilogue against the fused loop, for every
        // kernel size and stride pair, pooled and unpooled. Image sizes put
        // the spot counts on and off the 8×8 transpose tiles; the image,
        // the GEMM output and the bias carry ±0, denormals, ±Inf and NaN.
        use crate::tensor::tests::{adversarial, canon};
        for k in [1usize, 3, 5, 7] {
            for stride in [1usize, 2, 3] {
                for (cin, h, wdim, cout) in [(1, 16, 23, 8), (2, 9, 17, 3), (3, 12, 12, 9)] {
                    for pool in [PoolKind::None, PoolKind::Max, PoolKind::Avg] {
                        let mut bias = adversarial(cout, (k * 10 + stride) as u64, true);
                        bias[0] = -0.0;
                        let conv = ConvInfer {
                            w: MatRep::Dense(Tensor::zeros(vec![cin * k * k, cout])),
                            bias,
                            cin,
                            h,
                            wdim,
                            k,
                            stride,
                            pool,
                        };
                        let (ho, wo) = conv.conv_out();
                        let (spots, patch) = (ho * wo, cin * k * k);
                        let ctx = format!("k={k} stride={stride} cin={cin} cout={cout} {pool:?}");

                        let img = adversarial(cin * h * wdim, (h * k + stride) as u64, true);
                        let mut runs = vec![7.0f32; spots * patch];
                        conv.im2col_into(&img, &mut runs);
                        let mut twin = vec![7.0f32; spots * patch];
                        conv.im2col_scalar(&img, &mut twin);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&twin), bits(&runs), "im2col {ctx}");

                        let mut flat = adversarial(spots * cout, (spots + cout) as u64, true);
                        flat[0] = -0.0;
                        let mut prepool = vec![7.0f32; spots * cout];
                        let mut got = vec![7.0f32; conv.out_len()];
                        conv.bias_pool_into(&flat, &mut prepool, &mut got);
                        let mut fused = vec![7.0f32; spots * cout];
                        bias_relu_scalar(&flat, &conv.bias, spots, &mut fused);
                        let want = if conv.out_dims() == (ho, wo) {
                            fused
                        } else {
                            let mut pooled = vec![7.0f32; conv.out_len()];
                            let max = matches!(pool, PoolKind::Max);
                            pool2_into(&fused, cout, ho, wo, max, &mut pooled);
                            pooled
                        };
                        assert_eq!(canon(&want), canon(&got), "epilogue {ctx}");
                    }
                }
            }
        }
    }

    /// A `[rows, cols]` CSR matrix keeping each entry with probability
    /// `keep`: seeded weights in `[-1, 1)`, columns strictly increasing.
    fn seeded_csr(rows: usize, cols: usize, keep: f64, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                if rng.gen_bool(keep) {
                    rng.gen_range(-1.0..1.0)
                } else {
                    0.0
                }
            })
            .collect();
        CsrMatrix::from_dense(&Tensor::new(vec![rows, cols], data))
    }

    #[test]
    fn sparse_feed_forward_chain_matches_two_forward_calls() {
        // The FF pair of a block, chained in the transposed domain where
        // both stages run CSC, against two `forward_into` calls and against
        // the storage CSR kernel with the same bias-then-activation, bit
        // for bit. One pair compiles to pure CSC (chains from two rows),
        // one to the hybrid (chains from eight; below that both paths run
        // its densified copy). Row counts straddle the 8-row panels and
        // their scalar tail rows, and one scratch serves every call, so a
        // row the kernels skip shows stale values. Every fifth row carries
        // ±Inf and NaN; ±0 and denormals are everywhere.
        use crate::tensor::tests::{adversarial, canon};
        let (d, ff) = (24usize, 40usize);
        let unused = || LinearInfer {
            w: MatRep::Dense(Tensor::zeros(vec![1, 1])),
            bias: vec![0.0],
            act: Activation::None,
        };
        for (keep, seed, hybrid) in [(0.2, 40u64, false), (0.4, 41, true)] {
            let (csr1, csr2) = (
                seeded_csr(d, ff, keep, seed),
                seeded_csr(ff, d, keep, seed + 1),
            );
            let exec = (csr1.exec(), csr2.exec());
            assert_eq!((exec.0.is_hybrid(), exec.1.is_hybrid()), (hybrid, hybrid));
            assert_eq!((exec.0.is_csc(), exec.1.is_csc()), (!hybrid, !hybrid));
            let mut bias1 = adversarial(ff, seed, false);
            bias1[1] = -0.0;
            let block = TfBlockInfer {
                wq: unused(),
                wk: unused(),
                wv: unused(),
                wo: unused(),
                ln1: (vec![], vec![]),
                ff1: LinearInfer {
                    w: MatRep::Sparse(csr1.clone()),
                    bias: bias1,
                    act: Activation::Relu,
                },
                ff2: LinearInfer {
                    w: MatRep::Sparse(csr2.clone()),
                    bias: adversarial(d, seed + 2, false),
                    act: Activation::None,
                },
                ln2: (vec![], vec![]),
            };
            // The storage kernel, then the bias along each row, then the
            // activation: the oracle neither path shares code with.
            let storage = |csr: &CsrMatrix, lin: &LinearInfer, x: &[f32], m: usize| {
                let mut y = vec![0.0f32; m * csr.cols];
                csr.left_matmul_into(x, m, &mut y);
                for row in y.chunks_exact_mut(csr.cols) {
                    for (v, &b) in row.iter_mut().zip(&lin.bias) {
                        *v += b;
                    }
                }
                lin.act.apply_slice(&mut y);
                y
            };
            let (mut qs, mut twin_qs) = (ExecScratch::default(), ExecScratch::default());
            for m in [2usize, 7, 8, 9, 47, 48, 49, 97] {
                let ctx = format!("hybrid={hybrid} m={m}");
                assert_eq!(
                    block.csc_chain(m).is_some(),
                    m >= if hybrid { 8 } else { 2 },
                    "{ctx}"
                );
                let mut x = adversarial(m * d, (m * 31) as u64 + seed, false);
                let specials = adversarial(m * d, m as u64, true);
                for i in (4..m).step_by(5) {
                    x[i * d..(i + 1) * d].copy_from_slice(&specials[i * d..(i + 1) * d]);
                }

                let mut mid = vec![7.0f32; m * ff];
                let mut got = vec![7.0f32; m * d];
                block.feed_forward_into(&x, m, &mut mid, &mut got, &mut qs);

                let mut twin_mid = vec![7.0f32; m * ff];
                let mut twin = vec![7.0f32; m * d];
                block.ff1.forward_into(&x, m, &mut twin_mid, &mut twin_qs);
                block
                    .ff2
                    .forward_into(&twin_mid, m, &mut twin, &mut twin_qs);
                assert_eq!(canon(&twin), canon(&got), "two forward calls, {ctx}");

                // A densified copy multiplies its unstored zeros, so
                // `0·Inf` turns NaN where CSC and the storage kernel never
                // look: the oracle holds where both stages run CSC.
                if block.csc_chain(m).is_some() {
                    let oracle = storage(&csr2, &block.ff2, &storage(&csr1, &block.ff1, &x, m), m);
                    assert_eq!(canon(&oracle), canon(&got), "storage kernel, {ctx}");
                }
            }
        }
    }

    #[test]
    fn layer_norm_matches_its_scalar_twin_and_the_reference_loop() {
        // Row counts straddle the 8-row lanes (blocks of 8 plus scalar
        // tail rows), widths the 8-wide transpose chunks. Row 1 is all
        // -0.0 (its sums stay -0.0 only from a -0.0 start) and row 2 is
        // constant (zero variance); later rows carry ±0, denormals and,
        // every fifth row, ±Inf and NaN. β has -0.0 entries so a sign-of-
        // zero change in `v − mean` reaches the output.
        use crate::tensor::tests::{adversarial, canon};
        /// The plain per-row loop the row lanes must reproduce.
        fn reference(data: &mut [f32], m: usize, n: usize, gamma: &[f32], beta: &[f32]) {
            const EPS: f32 = 1e-5;
            for i in 0..m {
                let row = &mut data[i * n..(i + 1) * n];
                let mean: f32 = row.iter().sum::<f32>() / n as f32;
                let var: f32 = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
                let inv = 1.0 / (var + EPS).sqrt();
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (*v - mean) * inv * gamma[j] + beta[j];
                }
            }
        }
        for n in [1usize, 3, 8, 9, 32, 128] {
            let gamma = adversarial(n, n as u64, false);
            let mut beta = adversarial(n, 3 * n as u64, false);
            for b in beta.iter_mut().step_by(2) {
                *b = -0.0;
            }
            for m in [1usize, 7, 8, 9, 16, 17, 24, 33] {
                let mut data = adversarial(m * n, (m * 100 + n) as u64, false);
                let specials = adversarial(m * n, 17, true);
                for i in (4..m).step_by(5) {
                    data[i * n..(i + 1) * n].copy_from_slice(&specials[i * n..(i + 1) * n]);
                }
                if m > 1 {
                    data[n..2 * n].fill(-0.0);
                }
                if m > 2 {
                    data[2 * n..3 * n].fill(0.75);
                }

                let mut got = data.clone();
                layer_norm_slice(&mut got, m, n, &gamma, &beta);
                let mut want = data.clone();
                reference(&mut want, m, n, &gamma, &beta);
                assert_eq!(canon(&want), canon(&got), "m={m} n={n}");

                #[cfg(target_arch = "x86_64")]
                if crate::simd::enabled() {
                    for i0 in (0..m - m % 8).step_by(8) {
                        // SAFETY: AVX2 was detected and the block holds
                        // eight rows of width `n > 0`.
                        let (means, invs) =
                            unsafe { layer_norm_stats_avx2(&data[i0 * n..(i0 + 8) * n], n) };
                        for r in 0..8 {
                            let row = &data[(i0 + r) * n..(i0 + r + 1) * n];
                            let (mean, inv) = layer_norm_stats(row);
                            assert_eq!(
                                canon(&[mean, inv]),
                                canon(&[means[r], invs[r]]),
                                "m={m} n={n} row {}",
                                i0 + r
                            );
                        }
                    }
                }
            }
        }
    }
}
