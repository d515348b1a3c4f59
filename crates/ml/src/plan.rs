//! Compiled inference plans: the allocation-free, batch-first engine
//! behind the 15 Hz label tick.
//!
//! An [`InferPlan`] is compiled once per model: every per-layer activation
//! buffer is sized at build time into one scratch arena, and
//! [`InferPlan::predict_logits_into`] runs a whole batch of windows
//! through **stacked multi-window GEMMs** — the batch's windows become
//! matrix rows and every linear stage runs once at
//! `m = batch·rows_per_window` (dense weights through
//! [`crate::tensor::matmul_blocked_kernel`], the row-blocked, paired-`k`
//! kernel), writing logits into a caller-provided buffer. The
//! steady-state call performs **zero heap allocations**.
//!
//! Every kernel the plan dispatches to is **row-count invariant**: window
//! `i` of a batch gets exactly the bits a single-window call produces, so
//! micro-batched serving stays bit-identical to solo sessions
//! (`tests/tests/serving.rs` and the golden label traces lock exactly
//! that). [`InferModel::predict_logits`] is a fresh-plan wrapper over the
//! same engine.
//!
//! A plan is only meaningful for the model it was compiled from; the
//! entry point asserts the cheap structural facts (architecture, input
//! dims, class count) and the sized buffers bound everything else.
//!
//! # Numerics versions
//!
//! [`PlanVersion`] names the numerics the engine produces. There is one,
//! **V2**, locked by committed golden traces. A change that would move
//! its bits adds a new version beside it with its own fixtures; an old
//! version stays only while something consumes it.

use crate::infer::{self, CnnInfer, ExecScratch, InferModel, LstmInfer, TfInfer};
use crate::tensor::{attention_mix_into, attention_scores_into};

/// Which numerics generation the engine runs — see the module docs for
/// the contract a version carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanVersion {
    /// Batched multi-window GEMMs; row-count-invariant reassociated math.
    V2,
}

impl PlanVersion {
    /// The version compiled plans run: **V2**, the only one.
    #[must_use]
    pub fn runtime_default() -> Self {
        PlanVersion::V2
    }
}

/// A compiled, reusable execution plan for one [`InferModel`] (see the
/// module docs). Cheap to move, safe to keep for the life of a session;
/// compile one per ensemble member per inference lane.
#[derive(Debug, Clone)]
pub struct InferPlan {
    channels: usize,
    window: usize,
    classes: usize,
    /// Largest batch the buffers currently hold.
    batch_cap: usize,
    kind: KindPlan,
    qs: ExecScratch,
}

// One plan exists per inference lane and lives for a session; the variant
// size gap (a dozen `Vec` headers) is irrelevant and boxing would cost an
// indirection on the hottest loop in the system.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum KindPlan {
    Cnn(CnnPlan),
    Lstm(LstmPlan),
    Tf(TfPlan),
}

/// Ping-pong activation buffers plus per-stage im2col scratch.
#[derive(Debug, Clone)]
struct CnnPlan {
    a: Vec<f32>,
    b: Vec<f32>,
    cols: Vec<f32>,
    flat: Vec<f32>,
    prepool: Vec<f32>,
}

/// Recurrent state and gate buffers, one slot per layer and window.
#[derive(Debug, Clone)]
struct LstmPlan {
    /// Hidden states, `cells × batch × hidden`.
    h: Vec<f32>,
    /// Cell states, `cells × batch × hidden`.
    c: Vec<f32>,
    h_new: Vec<f32>,
    input: Vec<f32>,
    z_in: Vec<f32>,
    z_out: Vec<f32>,
}

/// Encoder activation buffers sized to a batch of windows' stacked
/// `[batch·t, ·]` rows, plus two per-head scratch blocks reused by every
/// window and head.
///
/// Attention reads each head in place: its Q, K and V are the `dh`-wide
/// column blocks of the stacked `q`/`k`/`v` projections (row stride
/// `d_model`), and its output goes straight into its column block of
/// `merged`. Only K is copied, transposed once per head into `kt` so the
/// score kernel streams contiguous rows.
#[derive(Debug, Clone)]
struct TfPlan {
    rows: Vec<f32>,
    cur: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// One head's keys, transposed: `[dh, t]`.
    kt: Vec<f32>,
    /// One head's `[t, t]` scores, softmaxed in place.
    scores: Vec<f32>,
    merged: Vec<f32>,
    attn: Vec<f32>,
    ff_mid: Vec<f32>,
    ff_out: Vec<f32>,
    pooled: Vec<f32>,
}

impl InferPlan {
    /// Compiles a plan for `model`: sizes every activation buffer a
    /// single-window forward pass needs (no arithmetic happens here).
    #[must_use]
    pub fn compile(model: &InferModel) -> Self {
        // Compressed weights compile their execution formats now (CSC /
        // densified sparse, int8 layout selection) rather than on the
        // first inference call — plan build is the declared compile point,
        // and the memoized forms are shared by every clone of the model.
        model.visit_weights(infer::MatRep::precompile);
        let kind = match model {
            InferModel::Cnn(m) => KindPlan::Cnn(CnnPlan::sized(m, 1)),
            InferModel::Lstm(m) => KindPlan::Lstm(LstmPlan::sized(m, 1)),
            InferModel::Transformer(m) => KindPlan::Tf(TfPlan::sized(m, 1)),
        };
        Self {
            channels: model.channels(),
            window: model.window(),
            classes: model.classes(),
            batch_cap: 1,
            kind,
            qs: ExecScratch::default(),
        }
    }

    /// Number of output classes the compiled head produces.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Runs `batch` channel-major windows (concatenated in `windows`)
    /// through the compiled network, writing `batch × classes` logits to
    /// `out`. Zero heap allocations once the plan has seen its largest
    /// batch (the buffers grow on first use of a bigger batch). Row-count
    /// invariance makes window `i`'s logits bit-identical to a
    /// `batch = 1` call.
    ///
    /// # Panics
    ///
    /// Panics if `model` is structurally different from the model this
    /// plan was compiled from, or if buffer lengths disagree with `batch`.
    pub fn predict_logits_into(
        &mut self,
        model: &InferModel,
        windows: &[f32],
        batch: usize,
        out: &mut [f32],
    ) {
        assert_eq!(
            (self.channels, self.window, self.classes),
            (model.channels(), model.window(), model.classes()),
            "plan compiled for a different model shape"
        );
        let per_window = self.channels * self.window;
        assert_eq!(windows.len(), batch * per_window, "window batch size");
        assert_eq!(out.len(), batch * self.classes, "logit buffer size");
        let grow = batch > self.batch_cap;
        match (&mut self.kind, model) {
            (KindPlan::Cnn(plan), InferModel::Cnn(m)) => {
                if grow {
                    *plan = CnnPlan::sized(m, batch);
                }
                plan.run(m, windows, batch, out, &mut self.qs);
            }
            (KindPlan::Lstm(plan), InferModel::Lstm(m)) => {
                if grow {
                    *plan = LstmPlan::sized(m, batch);
                }
                plan.run(m, windows, batch, out, &mut self.qs);
            }
            (KindPlan::Tf(plan), InferModel::Transformer(m)) => {
                if grow {
                    *plan = TfPlan::sized(m, batch);
                }
                plan.run(m, windows, batch, out, &mut self.qs);
            }
            _ => panic!("plan architecture disagrees with model"),
        }
        self.batch_cap = self.batch_cap.max(batch);
    }
}

impl CnnPlan {
    /// Buffers for `batch` windows (`prepool` stays per-window — the conv
    /// epilogue runs one window at a time).
    fn sized(m: &CnnInfer, batch: usize) -> Self {
        let mut act = m.channels * m.window;
        let (mut cols, mut flat) = (0usize, 0usize);
        for conv in &m.convs {
            let (ho, wo) = conv.conv_out();
            let spots = ho * wo;
            cols = cols.max(spots * conv.cin * conv.k * conv.k);
            flat = flat.max(spots * conv.bias.len());
            act = act.max(conv.out_len());
        }
        Self {
            a: vec![0.0; act * batch],
            b: vec![0.0; act * batch],
            cols: vec![0.0; cols * batch],
            flat: vec![0.0; flat * batch],
            prepool: vec![0.0; flat],
        }
    }

    /// Every conv stage lowers **all** windows' patches into one stacked
    /// `[batch·spots, patch]` matrix and multiplies the weights once; the
    /// bias/ReLU/pool epilogue and the head run per-window-row, so each
    /// window's activations are bit-identical to a `batch = 1` call.
    fn run(
        &mut self,
        m: &CnnInfer,
        windows: &[f32],
        batch: usize,
        logits: &mut [f32],
        qs: &mut ExecScratch,
    ) {
        let mut len = m.channels * m.window;
        self.a[..batch * len].copy_from_slice(&windows[..batch * len]);
        for conv in &m.convs {
            let (ho, wo) = conv.conv_out();
            let spots = ho * wo;
            let patch = conv.cin * conv.k * conv.k;
            let cout = conv.bias.len();
            let out_len = conv.out_len();
            for b in 0..batch {
                conv.im2col_into(
                    &self.a[b * len..(b + 1) * len],
                    &mut self.cols[b * spots * patch..(b + 1) * spots * patch],
                );
            }
            conv.w.left_matmul_into(
                &self.cols[..batch * spots * patch],
                batch * spots,
                &mut self.flat,
                qs,
            );
            for b in 0..batch {
                conv.bias_pool_into(
                    &self.flat[b * spots * cout..(b + 1) * spots * cout],
                    &mut self.prepool,
                    &mut self.b[b * out_len..(b + 1) * out_len],
                );
            }
            len = out_len;
            std::mem::swap(&mut self.a, &mut self.b);
        }
        m.head
            .forward_into(&self.a[..batch * len], batch, logits, qs);
    }
}

impl LstmPlan {
    fn sized(m: &LstmInfer, batch: usize) -> Self {
        let cells = m.cells.len();
        let input = m.channels.max(m.hidden);
        Self {
            h: vec![0.0; cells * m.hidden * batch],
            c: vec![0.0; cells * m.hidden * batch],
            h_new: vec![0.0; m.hidden * batch],
            input: vec![0.0; input * batch],
            z_in: vec![0.0; (input + m.hidden) * batch],
            z_out: vec![0.0; 4 * m.hidden * batch],
        }
    }

    /// At every timestep each layer's `[x_t, h_{t-1}]` rows for **all**
    /// windows stack into one `[batch, in+h]` GEMM; the gate
    /// nonlinearities run per row. Recurrent state is laid out
    /// `[layer][window][hidden]`, so the final layer's hidden block feeds
    /// the head as a contiguous `[batch, hidden]` matrix.
    fn run(
        &mut self,
        m: &LstmInfer,
        windows: &[f32],
        batch: usize,
        logits: &mut [f32],
        qs: &mut ExecScratch,
    ) {
        let hid = m.hidden;
        let iw = m.channels.max(hid);
        let per_window = m.channels * m.window;
        let t_len = m.window.div_ceil(m.time_stride);
        let cells = m.cells.len();
        self.h[..cells * batch * hid].fill(0.0);
        self.c[..cells * batch * hid].fill(0.0);
        for ti in 0..t_len {
            let t_src = ti * m.time_stride;
            let mut in_len = m.channels;
            for b in 0..batch {
                let window = &windows[b * per_window..(b + 1) * per_window];
                for ch in 0..m.channels {
                    self.input[b * iw + ch] = window[ch * m.window + t_src];
                }
            }
            for (li, cell) in m.cells.iter().enumerate() {
                let z_len = in_len + hid;
                for b in 0..batch {
                    let z = &mut self.z_in[b * z_len..(b + 1) * z_len];
                    z[..in_len].copy_from_slice(&self.input[b * iw..b * iw + in_len]);
                    z[in_len..].copy_from_slice(
                        &self.h[(li * batch + b) * hid..(li * batch + b + 1) * hid],
                    );
                }
                cell.forward_into(&self.z_in[..batch * z_len], batch, &mut self.z_out, qs);
                for b in 0..batch {
                    let z_out = &self.z_out[b * 4 * hid..(b + 1) * 4 * hid];
                    for j in 0..hid {
                        let i_g = infer::sigmoid(z_out[j]);
                        let f_g = infer::sigmoid(z_out[hid + j]);
                        let g_g = z_out[2 * hid + j].tanh();
                        let o_g = infer::sigmoid(z_out[3 * hid + j]);
                        let c = &mut self.c[(li * batch + b) * hid + j];
                        *c = f_g * *c + i_g * g_g;
                        self.h_new[b * hid + j] = o_g * c.tanh();
                    }
                    self.h[(li * batch + b) * hid..(li * batch + b + 1) * hid]
                        .copy_from_slice(&self.h_new[b * hid..(b + 1) * hid]);
                    self.input[b * iw..b * iw + hid].copy_from_slice(
                        &self.h[(li * batch + b) * hid..(li * batch + b + 1) * hid],
                    );
                }
                in_len = hid;
            }
        }
        let last = (cells - 1) * batch * hid;
        m.head
            .forward_into(&self.h[last..last + batch * hid], batch, logits, qs);
    }
}

impl TfPlan {
    /// Sequence-shaped buffers for `batch` windows' stacked rows (the
    /// per-head scratch — `kt`, `scores` — is reused across windows and
    /// stays single-sized).
    fn sized(m: &TfInfer, batch: usize) -> Self {
        let t = m.window.div_ceil(m.time_stride);
        let d = m.d_model;
        let dh = d / m.heads;
        let ff = m
            .blocks
            .iter()
            .map(|b| b.ff1.out_width())
            .max()
            .unwrap_or(0);
        let rows = t * batch;
        Self {
            rows: vec![0.0; rows * m.channels],
            cur: vec![0.0; rows * d],
            q: vec![0.0; rows * d],
            k: vec![0.0; rows * d],
            v: vec![0.0; rows * d],
            kt: vec![0.0; dh * t],
            scores: vec![0.0; t * t],
            merged: vec![0.0; rows * d],
            attn: vec![0.0; rows * d],
            ff_mid: vec![0.0; rows * ff],
            ff_out: vec![0.0; rows * d],
            pooled: vec![0.0; d * batch],
        }
    }

    /// All projections and the feed-forward stages run once over the
    /// stacked `[batch·t, d]` rows; attention — inherently per-window
    /// (each window owns a `t × t` score matrix) — loops over windows and
    /// heads, reading every head in place (see the struct docs). LayerNorm,
    /// softmax and the residual adds are all row-local, so every window's
    /// rows see exactly the arithmetic a `batch = 1` call applies.
    fn run(
        &mut self,
        m: &TfInfer,
        windows: &[f32],
        batch: usize,
        logits: &mut [f32],
        qs: &mut ExecScratch,
    ) {
        let chans = m.channels;
        let per_window = chans * m.window;
        let t = m.window.div_ceil(m.time_stride);
        let d = m.d_model;
        let dh = d / m.heads;
        for b in 0..batch {
            let window = &windows[b * per_window..(b + 1) * per_window];
            for (ti, t_src) in (0..m.window).step_by(m.time_stride).enumerate() {
                for ch in 0..chans {
                    self.rows[(b * t + ti) * chans + ch] = window[ch * m.window + t_src];
                }
            }
        }
        let rows = batch * t;
        m.input_proj
            .forward_into(&self.rows[..rows * chans], rows, &mut self.cur, qs);
        for b in 0..batch {
            for (c, &p) in self.cur[b * t * d..(b + 1) * t * d]
                .iter_mut()
                .zip(m.pos.data())
            {
                *c += p;
            }
        }
        let scale = 1.0 / (dh as f32).sqrt();
        for block in &m.blocks {
            block
                .wq
                .forward_into(&self.cur[..rows * d], rows, &mut self.q, qs);
            block
                .wk
                .forward_into(&self.cur[..rows * d], rows, &mut self.k, qs);
            block
                .wv
                .forward_into(&self.cur[..rows * d], rows, &mut self.v, qs);
            for b in 0..batch {
                for hidx in 0..m.heads {
                    let head = b * t * d + hidx * dh;
                    attention_scores_into(
                        &self.q[head..],
                        &self.k[head..],
                        d,
                        t,
                        dh,
                        scale,
                        &mut self.kt,
                        &mut self.scores,
                    );
                    infer::softmax_rows_slice(&mut self.scores, t, t);
                    attention_mix_into(
                        &self.scores,
                        &self.v[head..],
                        d,
                        t,
                        dh,
                        &mut self.merged[head..],
                    );
                }
            }
            block
                .wo
                .forward_into(&self.merged[..rows * d], rows, &mut self.attn, qs);
            for (c, &a) in self.cur[..rows * d].iter_mut().zip(&self.attn[..rows * d]) {
                *c += a;
            }
            infer::layer_norm_slice(&mut self.cur, rows, d, &block.ln1.0, &block.ln1.1);
            let ff = block.ff1.out_width();
            block
                .ff1
                .forward_into(&self.cur[..rows * d], rows, &mut self.ff_mid, qs);
            block
                .ff2
                .forward_into(&self.ff_mid[..rows * ff], rows, &mut self.ff_out, qs);
            for (c, &f) in self.cur[..rows * d].iter_mut().zip(&self.ff_out[..rows * d]) {
                *c += f;
            }
            infer::layer_norm_slice(&mut self.cur, rows, d, &block.ln2.0, &block.ln2.1);
        }
        // Mean pool over time, per window.
        self.pooled[..batch * d].fill(0.0);
        for b in 0..batch {
            let pooled = &mut self.pooled[b * d..(b + 1) * d];
            for ti in 0..t {
                for (j, p) in pooled.iter_mut().enumerate() {
                    *p += self.cur[(b * t + ti) * d + j] / t as f32;
                }
            }
        }
        m.head
            .forward_into(&self.pooled[..batch * d], batch, logits, qs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{CnnConfig, ConvSpec, LstmConfig, PoolKind, TransformerConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_window(channels: usize, win: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..channels * win).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn models() -> Vec<InferModel> {
        let cnn = CnnConfig {
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
            pool: PoolKind::Max,
            window: 40,
            channels: 16,
            dropout: 0.0,
        };
        let lstm = LstmConfig {
            hidden: 12,
            layers: 2,
            dropout: 0.0,
            window: 32,
            channels: 16,
            time_stride: 4,
        };
        let tf = TransformerConfig {
            layers: 2,
            heads: 2,
            d_model: 16,
            dim_ff: 32,
            dropout: 0.0,
            window: 32,
            channels: 16,
            time_stride: 4,
        };
        vec![
            infer::compile_cnn(&cnn.build(1).unwrap()),
            infer::compile_lstm(&lstm.build(2).unwrap()),
            infer::compile_transformer(&tf.build(3).unwrap()),
        ]
    }

    #[test]
    fn batched_logits_match_per_window_calls_bitwise() {
        for model in &models() {
            let mut plan = InferPlan::compile(model);
            let per = model.channels() * model.window();
            let batch = 5;
            let mut windows = Vec::with_capacity(batch * per);
            for b in 0..batch {
                windows.extend(random_window(model.channels(), model.window(), 100 + b as u64));
            }
            let mut batched = vec![0.0f32; batch * model.classes()];
            plan.predict_logits_into(model, &windows, batch, &mut batched);
            for b in 0..batch {
                let solo = model.predict_logits(&windows[b * per..(b + 1) * per]);
                let got = &batched[b * model.classes()..(b + 1) * model.classes()];
                for (x, y) in solo.iter().zip(got) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{} window {b}", model.kind());
                }
            }
        }
    }

    #[test]
    fn plan_reuse_does_not_leak_state_across_windows() {
        // Recurrent/attention state must be reset per window: running the
        // same window twice through one plan must give the same answer as
        // a fresh plan.
        for model in &models() {
            let w = random_window(model.channels(), model.window(), 9);
            let mut plan = InferPlan::compile(model);
            let mut first = vec![0.0f32; model.classes()];
            plan.predict_logits_into(model, &w, 1, &mut first);
            // Poison with a different window, then repeat the original.
            let other = random_window(model.channels(), model.window(), 10);
            let mut sink = vec![0.0f32; model.classes()];
            plan.predict_logits_into(model, &other, 1, &mut sink);
            let mut second = vec![0.0f32; model.classes()];
            plan.predict_logits_into(model, &w, 1, &mut second);
            for (a, b) in first.iter().zip(&second) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} state leaked", model.kind());
            }
        }
    }

    #[test]
    #[should_panic(expected = "plan compiled for a different model shape")]
    fn mismatched_model_is_rejected() {
        let models = models();
        let mut plan = InferPlan::compile(&models[0]);
        let w = random_window(models[1].channels(), models[1].window(), 0);
        let mut out = vec![0.0f32; models[1].classes()];
        plan.predict_logits_into(&models[1], &w, 1, &mut out);
    }
}
