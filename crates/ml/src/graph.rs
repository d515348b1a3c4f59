//! Reverse-mode tape autodiff over [`Tensor`]s.
//!
//! A [`Graph`] is rebuilt for every forward pass (define-by-run, like
//! PyTorch): ops append nodes carrying their output value, their parent ids
//! and a backward closure that turns the node's output gradient into parent
//! gradients. [`Graph::backward`] walks the tape in reverse, accumulating.
//!
//! The op set is exactly what the paper's four architectures need — matmuls
//! and slicing for LSTM gates, batched-by-loop attention, im2col conv, a
//! fused softmax-cross-entropy — nothing speculative.

use rand::rngs::StdRng;
use rand::Rng;

use crate::tensor::Tensor;

/// Identifier of a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// A node's backward rule: given the graph (so operand and output values
/// can be read back off the tape instead of being captured as clones — the
/// tape outlives every closure by construction) and the node's output
/// gradient, produce one gradient per parent.
type BackFn = Box<dyn Fn(&Graph, &Tensor) -> Vec<Tensor>>;

struct Node {
    value: Tensor,
    parents: Vec<NodeId>,
    backward: Option<BackFn>,
}

/// A define-by-run autodiff tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// `(node, param slot)` pairs registered by [`Graph::param`].
    param_nodes: Vec<(NodeId, usize)>,
    /// Memoizes the node created for each param slot so layers applied
    /// repeatedly (e.g. an LSTM cell across timesteps) share one node and
    /// gradients accumulate on it.
    param_cache: std::collections::HashMap<usize, NodeId>,
    grads: Vec<Option<Tensor>>,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.len())
            .field("params", &self.param_nodes.len())
            .finish()
    }
}

impl Graph {
    /// Creates an empty tape.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes on the tape.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// The gradient of a node after [`Graph::backward`]; `None` for nodes
    /// the loss does not depend on.
    #[must_use]
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    fn push(&mut self, value: Tensor, parents: Vec<NodeId>, backward: Option<BackFn>) -> NodeId {
        self.nodes.push(Node {
            value,
            parents,
            backward,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Inserts a constant input (no gradient flows into it).
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(value, vec![], None)
    }

    /// Inserts a trainable parameter; `slot` is the caller's parameter-store
    /// index used to collect gradients after backward. Repeated calls with
    /// the same slot return the same node (the value of later calls is
    /// ignored), so weight-tied layers accumulate gradients correctly.
    pub fn param(&mut self, slot: usize, value: Tensor) -> NodeId {
        if let Some(&id) = self.param_cache.get(&slot) {
            return id;
        }
        let id = self.push(value, vec![], None);
        self.param_nodes.push((id, slot));
        self.param_cache.insert(slot, id);
        id
    }

    /// Iterates `(slot, grad)` for every registered parameter that received
    /// a gradient.
    pub fn param_grads(&self) -> impl Iterator<Item = (usize, &Tensor)> + '_ {
        self.param_nodes
            .iter()
            .filter_map(move |&(id, slot)| self.grad(id).map(|g| (slot, g)))
    }

    // --- elementwise -----------------------------------------------------

    /// Elementwise addition of two same-shape nodes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        v.add_assign(self.value(b));
        self.push(
            v,
            vec![a, b],
            Some(Box::new(|_, g| vec![g.clone(), g.clone()])),
        )
    }

    /// Adds a bias row vector `b [n]` to every row of `x [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if widths disagree.
    pub fn add_bias(&mut self, x: NodeId, b: NodeId) -> NodeId {
        let xv = self.value(x);
        let bv = self.value(b);
        let (m, n) = (xv.rows(), xv.cols());
        assert_eq!(bv.numel(), n, "bias width {} vs cols {n}", bv.numel());
        let mut out = xv.clone();
        let data = out.data_mut();
        for i in 0..m {
            for (o, &b) in data[i * n..(i + 1) * n].iter_mut().zip(bv.data()) {
                *o += b;
            }
        }
        self.push(
            out,
            vec![x, b],
            Some(Box::new(move |_, g| {
                let mut db = vec![0.0f32; n];
                for i in 0..m {
                    for (j, db_j) in db.iter_mut().enumerate() {
                        *db_j += g.data()[i * n + j];
                    }
                }
                vec![g.clone(), Tensor::new(vec![n], db)]
            })),
        )
    }

    /// Elementwise product.
    ///
    /// The backward closure reads both operands back off the tape (they
    /// outlive it by construction) instead of capturing clones — the same
    /// pattern every binary op here follows, which removes two full-tensor
    /// copies per op from the forward pass.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let av = self.value(a);
        let bv = self.value(b);
        assert_eq!(av.shape(), bv.shape(), "mul shape mismatch");
        let data: Vec<f32> = av
            .data()
            .iter()
            .zip(bv.data())
            .map(|(x, y)| x * y)
            .collect();
        let v = Tensor::new(av.shape().to_vec(), data);
        self.push(
            v,
            vec![a, b],
            Some(Box::new(move |gr, g| {
                let (av, bv) = (gr.value(a), gr.value(b));
                let da: Vec<f32> = g
                    .data()
                    .iter()
                    .zip(bv.data())
                    .map(|(gi, y)| gi * y)
                    .collect();
                let db: Vec<f32> = g
                    .data()
                    .iter()
                    .zip(av.data())
                    .map(|(gi, x)| gi * x)
                    .collect();
                vec![
                    Tensor::new(g.shape().to_vec(), da),
                    Tensor::new(g.shape().to_vec(), db),
                ]
            })),
        )
    }

    /// Multiplies by a compile-time constant.
    pub fn scale(&mut self, a: NodeId, k: f32) -> NodeId {
        let v = self.value(a).map(|x| x * k);
        self.push(
            v,
            vec![a],
            Some(Box::new(move |_, g| vec![g.map(|x| x * k)])),
        )
    }

    // --- linear algebra ---------------------------------------------------

    /// Matrix product `a [m,k] × b [k,n]` ([`Tensor::matmul`]).
    ///
    /// Backward: `da = g·bᵀ` runs [`crate::tensor::matmul_t_kernel`] and
    /// `db = aᵀ·g` runs [`crate::tensor::matmul_tn_kernel`], which reads
    /// `a` in place.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(
            v,
            vec![a, b],
            Some(Box::new(move |gr, g| {
                // y = a b; da = g b^T ; db = a^T g
                let da = g.matmul_t(gr.value(b));
                let db = gr.value(a).matmul_tn(g);
                vec![da, db]
            })),
        )
    }

    /// `a [m,k] × b^T` where `b` is `[n,k]` ([`Tensor::matmul_t`]).
    ///
    /// Backward: `da = g·b` runs [`crate::tensor::matmul_kernel`] and
    /// `db = gᵀ·a` runs [`crate::tensor::matmul_tn_kernel`], which reads
    /// `g` in place.
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul_t(self.value(b));
        self.push(
            v,
            vec![a, b],
            Some(Box::new(move |gr, g| {
                // y = a b^T; da = g b ; db = g^T a
                let da = g.matmul(gr.value(b));
                let db = g.matmul_tn(gr.value(a));
                vec![da, db]
            })),
        )
    }

    // --- activations -------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(
            v,
            vec![a],
            Some(Box::new(move |gr, g| {
                let data: Vec<f32> = g
                    .data()
                    .iter()
                    .zip(gr.value(a).data())
                    .map(|(gi, x)| if *x > 0.0 { *gi } else { 0.0 })
                    .collect();
                vec![Tensor::new(g.shape().to_vec(), data)]
            })),
        )
    }

    /// Hyperbolic tangent. The backward closure reads the node's *own*
    /// output back off the tape (its id is known before the push), so the
    /// forward pass no longer keeps a second copy of the activation alive.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::tanh);
        let id = NodeId(self.nodes.len());
        self.push(
            v,
            vec![a],
            Some(Box::new(move |gr, g| {
                let data: Vec<f32> = g
                    .data()
                    .iter()
                    .zip(gr.value(id).data())
                    .map(|(gi, yi)| gi * (1.0 - yi * yi))
                    .collect();
                vec![Tensor::new(g.shape().to_vec(), data)]
            })),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let id = NodeId(self.nodes.len());
        self.push(
            v,
            vec![a],
            Some(Box::new(move |gr, g| {
                let data: Vec<f32> = g
                    .data()
                    .iter()
                    .zip(gr.value(id).data())
                    .map(|(gi, yi)| gi * yi * (1.0 - yi))
                    .collect();
                vec![Tensor::new(g.shape().to_vec(), data)]
            })),
        )
    }

    /// Row-wise softmax of a matrix.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let (m, n) = (av.rows(), av.cols());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &av.data()[i * n..(i + 1) * n];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (o, &x) in out[i * n..(i + 1) * n].iter_mut().zip(row) {
                *o = (x - max).exp();
                sum += *o;
            }
            for o in &mut out[i * n..(i + 1) * n] {
                *o /= sum;
            }
        }
        let v = Tensor::new(vec![m, n], out);
        let id = NodeId(self.nodes.len());
        self.push(
            v,
            vec![a],
            Some(Box::new(move |gr, g| {
                let y = gr.value(id);
                let mut da = vec![0.0f32; m * n];
                for i in 0..m {
                    let yr = &y.data()[i * n..(i + 1) * n];
                    let gr = &g.data()[i * n..(i + 1) * n];
                    let dot: f32 = yr.iter().zip(gr).map(|(yi, gi)| yi * gi).sum();
                    for j in 0..n {
                        da[i * n + j] = yr[j] * (gr[j] - dot);
                    }
                }
                vec![Tensor::new(vec![m, n], da)]
            })),
        )
    }

    /// Inverted dropout with keep-scale `1 / (1 - p)`; identity when `p == 0`.
    pub fn dropout(&mut self, a: NodeId, p: f32, rng: &mut StdRng) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout p in [0,1): {p}");
        if p == 0.0 {
            return a;
        }
        let av = self.value(a);
        let keep = 1.0 - p;
        let mask: Vec<f32> = (0..av.numel())
            .map(|_| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 })
            .collect();
        let data: Vec<f32> = av.data().iter().zip(&mask).map(|(x, m)| x * m).collect();
        let v = Tensor::new(av.shape().to_vec(), data);
        self.push(
            v,
            vec![a],
            Some(Box::new(move |_, g| {
                let data: Vec<f32> = g.data().iter().zip(&mask).map(|(gi, m)| gi * m).collect();
                vec![Tensor::new(g.shape().to_vec(), data)]
            })),
        )
    }

    /// Layer normalization over the last dimension of `x [m, n]` with
    /// learned `gamma [n]` and `beta [n]`.
    pub fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId) -> NodeId {
        const EPS: f32 = 1e-5;
        let xv = self.value(x);
        let gv = self.value(gamma);
        let bv = self.value(beta);
        let (m, n) = (xv.rows(), xv.cols());
        let mut out = vec![0.0f32; m * n];
        let mut xhat = vec![0.0f32; m * n];
        let mut inv_std = vec![0.0f32; m];
        for i in 0..m {
            let row = &xv.data()[i * n..(i + 1) * n];
            let mean: f32 = row.iter().sum::<f32>() / n as f32;
            let var: f32 = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
            let inv = 1.0 / (var + EPS).sqrt();
            inv_std[i] = inv;
            for j in 0..n {
                let xh = (row[j] - mean) * inv;
                xhat[i * n + j] = xh;
                out[i * n + j] = xh * gv.data()[j] + bv.data()[j];
            }
        }
        let v = Tensor::new(vec![m, n], out);
        self.push(
            v,
            vec![x, gamma, beta],
            Some(Box::new(move |graph, g| {
                // `xhat`/`inv_std` are derived statistics (kept), but gamma
                // is read back off the tape instead of captured.
                let gv = graph.value(gamma);
                let mut dx = vec![0.0f32; m * n];
                let mut dgamma = vec![0.0f32; n];
                let mut dbeta = vec![0.0f32; n];
                for i in 0..m {
                    let gr = &g.data()[i * n..(i + 1) * n];
                    let xh = &xhat[i * n..(i + 1) * n];
                    // dxhat = g * gamma
                    let dxhat: Vec<f32> = gr
                        .iter()
                        .zip(gv.data())
                        .map(|(gi, ga)| gi * ga)
                        .collect();
                    let sum_dxhat: f32 = dxhat.iter().sum();
                    let sum_dxhat_xhat: f32 =
                        dxhat.iter().zip(xh).map(|(d, h)| d * h).sum();
                    for j in 0..n {
                        dx[i * n + j] = inv_std[i] / n as f32
                            * (n as f32 * dxhat[j] - sum_dxhat - xh[j] * sum_dxhat_xhat);
                        dgamma[j] += gr[j] * xh[j];
                        dbeta[j] += gr[j];
                    }
                }
                vec![
                    Tensor::new(vec![m, n], dx),
                    Tensor::new(vec![n], dgamma),
                    Tensor::new(vec![n], dbeta),
                ]
            })),
        )
    }

    // --- shape plumbing -----------------------------------------------------

    /// Reshapes without moving data.
    pub fn reshape(&mut self, a: NodeId, shape: Vec<usize>) -> NodeId {
        let old_shape = self.value(a).shape().to_vec();
        let v = self.value(a).clone().reshaped(shape);
        self.push(
            v,
            vec![a],
            Some(Box::new(move |_, g| {
                vec![g.clone().reshaped(old_shape.clone())]
            })),
        )
    }

    /// Selects a contiguous block of rows `[from, to)` of a matrix.
    pub fn rows_slice(&mut self, a: NodeId, from: usize, to: usize) -> NodeId {
        let av = self.value(a);
        let (m, n) = (av.rows(), av.cols());
        assert!(from < to && to <= m, "row slice {from}..{to} of {m}");
        let v = Tensor::new(
            vec![to - from, n],
            av.data()[from * n..to * n].to_vec(),
        );
        self.push(
            v,
            vec![a],
            Some(Box::new(move |_, g| {
                let mut da = vec![0.0f32; m * n];
                da[from * n..to * n].copy_from_slice(g.data());
                vec![Tensor::new(vec![m, n], da)]
            })),
        )
    }

    /// Selects a contiguous block of columns `[from, to)` of a matrix.
    pub fn cols_slice(&mut self, a: NodeId, from: usize, to: usize) -> NodeId {
        let av = self.value(a);
        let (m, n) = (av.rows(), av.cols());
        assert!(from < to && to <= n, "col slice {from}..{to} of {n}");
        let w = to - from;
        let mut data = vec![0.0f32; m * w];
        for i in 0..m {
            data[i * w..(i + 1) * w]
                .copy_from_slice(&av.data()[i * n + from..i * n + to]);
        }
        let v = Tensor::new(vec![m, w], data);
        self.push(
            v,
            vec![a],
            Some(Box::new(move |_, g| {
                let mut da = vec![0.0f32; m * n];
                for i in 0..m {
                    da[i * n + from..i * n + to]
                        .copy_from_slice(&g.data()[i * w..(i + 1) * w]);
                }
                vec![Tensor::new(vec![m, n], da)]
            })),
        )
    }

    /// Concatenates two matrices along columns.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let av = self.value(a);
        let bv = self.value(b);
        let (m, n1) = (av.rows(), av.cols());
        let (m2, n2) = (bv.rows(), bv.cols());
        assert_eq!(m, m2, "concat rows {m} vs {m2}");
        let mut data = Vec::with_capacity(m * (n1 + n2));
        for i in 0..m {
            data.extend_from_slice(&av.data()[i * n1..(i + 1) * n1]);
            data.extend_from_slice(&bv.data()[i * n2..(i + 1) * n2]);
        }
        let v = Tensor::new(vec![m, n1 + n2], data);
        self.push(
            v,
            vec![a, b],
            Some(Box::new(move |_, g| {
                let w = n1 + n2;
                let mut da = vec![0.0f32; m * n1];
                let mut db = vec![0.0f32; m * n2];
                for i in 0..m {
                    da[i * n1..(i + 1) * n1]
                        .copy_from_slice(&g.data()[i * w..i * w + n1]);
                    db[i * n2..(i + 1) * n2]
                        .copy_from_slice(&g.data()[i * w + n1..(i + 1) * w]);
                }
                vec![Tensor::new(vec![m, n1], da), Tensor::new(vec![m, n2], db)]
            })),
        )
    }

    /// Mean-pools groups of `group_size` consecutive rows:
    /// `[g * group_size, n] -> [g, n]`. Used for temporal average pooling.
    pub fn mean_pool_rows(&mut self, a: NodeId, group_size: usize) -> NodeId {
        let av = self.value(a);
        let (m, n) = (av.rows(), av.cols());
        assert!(group_size > 0 && m % group_size == 0, "pool {m} by {group_size}");
        let groups = m / group_size;
        let mut data = vec![0.0f32; groups * n];
        for gi in 0..groups {
            for r in 0..group_size {
                let row = &av.data()[(gi * group_size + r) * n..(gi * group_size + r + 1) * n];
                for j in 0..n {
                    data[gi * n + j] += row[j] / group_size as f32;
                }
            }
        }
        let v = Tensor::new(vec![groups, n], data);
        self.push(
            v,
            vec![a],
            Some(Box::new(move |_, g| {
                let mut da = vec![0.0f32; m * n];
                for gi in 0..groups {
                    for r in 0..group_size {
                        for j in 0..n {
                            da[(gi * group_size + r) * n + j] =
                                g.data()[gi * n + j] / group_size as f32;
                        }
                    }
                }
                vec![Tensor::new(vec![m, n], da)]
            })),
        )
    }

    // --- loss ----------------------------------------------------------------

    /// Fused softmax + cross-entropy over logits `[batch, classes]`,
    /// averaged over the batch. Returns a scalar node (shape `[1]`).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the batch size or any label is
    /// out of range.
    pub fn cross_entropy(&mut self, logits: NodeId, labels: &[usize]) -> NodeId {
        let lv = self.value(logits);
        let (m, c) = (lv.rows(), lv.cols());
        assert_eq!(labels.len(), m, "labels {} vs batch {m}", labels.len());
        let mut probs = vec![0.0f32; m * c];
        let mut loss = 0.0f64;
        for i in 0..m {
            assert!(labels[i] < c, "label {} out of range {c}", labels[i]);
            let row = &lv.data()[i * c..(i + 1) * c];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (p, &x) in probs[i * c..(i + 1) * c].iter_mut().zip(row) {
                *p = (x - max).exp();
                sum += *p;
            }
            for p in &mut probs[i * c..(i + 1) * c] {
                *p /= sum;
            }
            loss -= f64::from(probs[i * c + labels[i]].max(1e-12).ln());
        }
        let v = Tensor::new(vec![1], vec![(loss / m as f64) as f32]);
        let labels = labels.to_vec();
        self.push(
            v,
            vec![logits],
            Some(Box::new(move |_, g| {
                let scale = g.data()[0] / m as f32;
                let mut da = probs.clone();
                for i in 0..m {
                    da[i * c + labels[i]] -= 1.0;
                }
                for d in &mut da {
                    *d *= scale;
                }
                vec![Tensor::new(vec![m, c], da)]
            })),
        )
    }

    // --- convolution -----------------------------------------------------------

    /// 2-D convolution via im2col.
    ///
    /// * `x` — input `[batch, cin * h * w]` with the spatial dims given.
    /// * `w` — kernel `[cout, cin * kh * kw]`.
    /// * stride applies to both spatial dims; padding is zero ("valid").
    ///
    /// Output is `[batch, cout * hout * wout]`. The im2col product
    /// `cols·wᵀ` runs [`crate::tensor::matmul_t_kernel`]; backward, `dW =
    /// gᵀ·cols` runs [`crate::tensor::matmul_tn_kernel`] (reading `g` in
    /// place) and `dcols = g·w` runs [`crate::tensor::matmul_kernel`].
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        &mut self,
        x: NodeId,
        w: NodeId,
        cin: usize,
        h: usize,
        wdim: usize,
        kh: usize,
        kw: usize,
        stride: usize,
    ) -> NodeId {
        let xv = self.value(x);
        let wv = self.value(w);
        let batch = xv.rows();
        assert_eq!(xv.cols(), cin * h * wdim, "conv input size");
        let cout = wv.rows();
        assert_eq!(wv.cols(), cin * kh * kw, "conv kernel size");
        assert!(h >= kh && wdim >= kw, "kernel larger than input");
        let hout = (h - kh) / stride + 1;
        let wout = (wdim - kw) / stride + 1;
        let patch = cin * kh * kw;
        let spots = hout * wout;

        // im2col for the whole batch: [batch * spots, patch]
        let mut cols = vec![0.0f32; batch * spots * patch];
        for b in 0..batch {
            let img = &xv.data()[b * cin * h * wdim..(b + 1) * cin * h * wdim];
            for oy in 0..hout {
                for ox in 0..wout {
                    let spot = oy * wout + ox;
                    let base = (b * spots + spot) * patch;
                    let mut k = 0;
                    for c in 0..cin {
                        for dy in 0..kh {
                            let iy = oy * stride + dy;
                            for dx in 0..kw {
                                let ix = ox * stride + dx;
                                cols[base + k] = img[c * h * wdim + iy * wdim + ix];
                                k += 1;
                            }
                        }
                    }
                }
            }
        }
        let cols_t = Tensor::new(vec![batch * spots, patch], cols);
        // out[b*spots + spot, cout] = cols × w^T
        let flat = cols_t.matmul_t(self.value(w));
        // Rearrange to [batch, cout * spots] (channel-major per image).
        let mut out = vec![0.0f32; batch * cout * spots];
        for b in 0..batch {
            for s in 0..spots {
                for c in 0..cout {
                    out[b * cout * spots + c * spots + s] =
                        flat.data()[(b * spots + s) * cout + c];
                }
            }
        }
        let v = Tensor::new(vec![batch, cout * spots], out);
        self.push(
            v,
            vec![x, w],
            Some(Box::new(move |graph, g| {
                // The im2col matrix is a derived value (kept); the kernel is
                // read back off the tape.
                let wv = graph.value(w);
                // g: [batch, cout*spots] -> gflat [batch*spots, cout]
                let mut gflat = vec![0.0f32; batch * spots * cout];
                for b in 0..batch {
                    for s in 0..spots {
                        for c in 0..cout {
                            gflat[(b * spots + s) * cout + c] =
                                g.data()[b * cout * spots + c * spots + s];
                        }
                    }
                }
                let gflat = Tensor::new(vec![batch * spots, cout], gflat);
                // dW = gflat^T × cols : [cout, patch], gflat read in place
                let dw = gflat.matmul_tn(&cols_t);
                // dcols = gflat × w : [batch*spots, patch]
                let dcols = gflat.matmul(wv);
                // col2im
                let mut dx = vec![0.0f32; batch * cin * h * wdim];
                for b in 0..batch {
                    for oy in 0..hout {
                        for ox in 0..wout {
                            let spot = oy * wout + ox;
                            let base = (b * spots + spot) * patch;
                            let mut k = 0;
                            for c in 0..cin {
                                for dy in 0..kh {
                                    let iy = oy * stride + dy;
                                    for dxk in 0..kw {
                                        let ix = ox * stride + dxk;
                                        dx[b * cin * h * wdim + c * h * wdim + iy * wdim + ix] +=
                                            dcols.data()[base + k];
                                        k += 1;
                                    }
                                }
                            }
                        }
                    }
                }
                vec![Tensor::new(vec![batch, cin * h * wdim], dx), dw]
            })),
        )
    }

    /// 2-D max pooling over non-overlapping `k × k` cells with stride `k`.
    ///
    /// Input `[batch, c * h * w]`, output `[batch, c * (h/k) * (w/k)]`
    /// (floor division; ragged edges are dropped).
    pub fn max_pool2d(
        &mut self,
        x: NodeId,
        c: usize,
        h: usize,
        w: usize,
        k: usize,
    ) -> NodeId {
        let xv = self.value(x);
        let batch = xv.rows();
        assert_eq!(xv.cols(), c * h * w, "pool input size");
        let hout = h / k;
        let wout = w / k;
        assert!(hout > 0 && wout > 0, "pool kernel {k} too large for {h}x{w}");
        let mut out = vec![0.0f32; batch * c * hout * wout];
        let mut argmax = vec![0usize; batch * c * hout * wout];
        for b in 0..batch {
            let img = &xv.data()[b * c * h * w..(b + 1) * c * h * w];
            for ch in 0..c {
                for oy in 0..hout {
                    for ox in 0..wout {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for dy in 0..k {
                            for dx in 0..k {
                                let iy = oy * k + dy;
                                let ix = ox * k + dx;
                                let idx = ch * h * w + iy * w + ix;
                                if img[idx] > best {
                                    best = img[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let o = b * c * hout * wout + ch * hout * wout + oy * wout + ox;
                        out[o] = best;
                        argmax[o] = b * c * h * w + best_idx;
                    }
                }
            }
        }
        let v = Tensor::new(vec![batch, c * hout * wout], out);
        let in_numel = batch * c * h * w;
        self.push(
            v,
            vec![x],
            Some(Box::new(move |_, g| {
                let mut dx = vec![0.0f32; in_numel];
                for (o, &src) in argmax.iter().enumerate() {
                    dx[src] += g.data()[o];
                }
                vec![Tensor::new(vec![batch, c * h * w], dx)]
            })),
        )
    }

    /// 2-D average pooling over non-overlapping `k × k` cells with stride
    /// `k`. Same layout contract as [`Graph::max_pool2d`].
    pub fn avg_pool2d(
        &mut self,
        x: NodeId,
        c: usize,
        h: usize,
        w: usize,
        k: usize,
    ) -> NodeId {
        let xv = self.value(x);
        let batch = xv.rows();
        assert_eq!(xv.cols(), c * h * w, "pool input size");
        let hout = h / k;
        let wout = w / k;
        assert!(hout > 0 && wout > 0, "pool kernel {k} too large for {h}x{w}");
        let inv = 1.0 / (k * k) as f32;
        let mut out = vec![0.0f32; batch * c * hout * wout];
        for b in 0..batch {
            let img = &xv.data()[b * c * h * w..(b + 1) * c * h * w];
            for ch in 0..c {
                for oy in 0..hout {
                    for ox in 0..wout {
                        let mut acc = 0.0f32;
                        for dy in 0..k {
                            for dx in 0..k {
                                acc += img[ch * h * w + (oy * k + dy) * w + ox * k + dx];
                            }
                        }
                        out[b * c * hout * wout + ch * hout * wout + oy * wout + ox] =
                            acc * inv;
                    }
                }
            }
        }
        let v = Tensor::new(vec![batch, c * hout * wout], out);
        self.push(
            v,
            vec![x],
            Some(Box::new(move |_, g| {
                let mut dx = vec![0.0f32; batch * c * h * w];
                for b in 0..batch {
                    for ch in 0..c {
                        for oy in 0..hout {
                            for ox in 0..wout {
                                let gv = g.data()
                                    [b * c * hout * wout + ch * hout * wout + oy * wout + ox]
                                    * inv;
                                for dy in 0..k {
                                    for dx_ in 0..k {
                                        dx[b * c * h * w
                                            + ch * h * w
                                            + (oy * k + dy) * w
                                            + ox * k
                                            + dx_] += gv;
                                    }
                                }
                            }
                        }
                    }
                }
                vec![Tensor::new(vec![batch, c * h * w], dx)]
            })),
        )
    }

    // --- backward ---------------------------------------------------------------

    /// Runs reverse-mode accumulation from `loss` (which must be scalar).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(self.value(loss).numel(), 1, "loss must be scalar");
        self.grads = vec![None; self.nodes.len()];
        self.grads[loss.0] = Some(Tensor::new(vec![1], vec![1.0]));

        for i in (0..=loss.0).rev() {
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            if let Some(back) = &self.nodes[i].backward {
                let parent_grads = back(self, &g);
                let parents = self.nodes[i].parents.clone();
                assert_eq!(parent_grads.len(), parents.len());
                for (pid, pg) in parents.into_iter().zip(parent_grads) {
                    match &mut self.grads[pid.0] {
                        Some(existing) => existing.add_assign(&pg),
                        slot @ None => *slot = Some(pg),
                    }
                }
            }
            self.grads[i] = Some(g);
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Finite-difference check of d(loss)/d(x[idx]).
    fn numeric_grad(
        f: &dyn Fn(&Tensor) -> f32,
        x: &Tensor,
        idx: usize,
        eps: f32,
    ) -> f32 {
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        (f(&xp) - f(&xm)) / (2.0 * eps)
    }

    fn check_grads(
        build: impl Fn(&mut Graph, NodeId) -> NodeId,
        x: Tensor,
        tol: f32,
    ) {
        let f = |t: &Tensor| -> f32 {
            let mut g = Graph::new();
            let xi = g.input(t.clone());
            let out = build(&mut g, xi);
            g.value(out).data()[0]
        };
        let mut g = Graph::new();
        let xi = g.param(0, x.clone());
        let out = build(&mut g, xi);
        g.backward(out);
        let analytic = g.grad(xi).expect("grad exists").clone();
        for idx in 0..x.numel() {
            let numeric = numeric_grad(&f, &x, idx, 1e-3);
            let a = analytic.data()[idx];
            assert!(
                (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                "idx {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn sum_to_scalar(g: &mut Graph, x: NodeId) -> NodeId {
        // mean_pool to one row, then use cross-entropy-free reduction:
        // scale-sum via matmul with ones.
        let v = g.value(x).clone();
        let (m, n) = (v.rows(), v.cols());
        let ones = g.input(Tensor::full(vec![n, 1], 1.0));
        let rowsum = g.matmul(x, ones); // [m,1]
        let ones2 = g.input(Tensor::full(vec![1, m], 1.0));
        let total = g.matmul(ones2, rowsum); // [1,1]
        g.reshape(total, vec![1])
    }

    #[test]
    fn matmul_grads_are_correct() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::uniform(vec![3, 4], 1.0, &mut rng);
        let w = Tensor::uniform(vec![4, 2], 1.0, &mut rng);
        check_grads(
            move |g, xi| {
                let wi = g.input(w.clone());
                let y = g.matmul(xi, wi);
                let y = g.tanh(y);
                sum_to_scalar(g, y)
            },
            x,
            1e-2,
        );
    }

    #[test]
    fn matmul_nt_grads_are_correct() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::uniform(vec![3, 4], 1.0, &mut rng);
        let w = Tensor::uniform(vec![5, 4], 1.0, &mut rng);
        check_grads(
            move |g, xi| {
                let wi = g.input(w.clone());
                let y = g.matmul_nt(xi, wi);
                let y = g.sigmoid(y);
                sum_to_scalar(g, y)
            },
            x,
            1e-2,
        );
    }

    #[test]
    fn softmax_grads_are_correct() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::uniform(vec![2, 5], 2.0, &mut rng);
        check_grads(
            |g, xi| {
                let y = g.softmax_rows(xi);
                let y2 = g.mul(y, y); // nonlinear readout so grads are nontrivial
                sum_to_scalar(g, y2)
            },
            x,
            1e-2,
        );
    }

    #[test]
    fn cross_entropy_grads_are_correct() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::uniform(vec![4, 3], 2.0, &mut rng);
        let labels = vec![0usize, 2, 1, 1];
        let f = |t: &Tensor| -> f32 {
            let mut g = Graph::new();
            let xi = g.input(t.clone());
            let loss = g.cross_entropy(xi, &labels);
            g.value(loss).data()[0]
        };
        let mut g = Graph::new();
        let xi = g.param(0, x.clone());
        let loss = g.cross_entropy(xi, &labels);
        g.backward(loss);
        let analytic = g.grad(xi).unwrap().clone();
        for idx in 0..x.numel() {
            let numeric = numeric_grad(&f, &x, idx, 1e-3);
            assert!(
                (analytic.data()[idx] - numeric).abs() < 1e-2,
                "idx {idx}: {} vs {numeric}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn layer_norm_grads_are_correct() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::uniform(vec![3, 6], 1.0, &mut rng);
        check_grads(
            |g, xi| {
                let gamma = g.input(Tensor::full(vec![6], 1.3));
                let beta = g.input(Tensor::full(vec![6], 0.1));
                let y = g.layer_norm(xi, gamma, beta);
                let y = g.tanh(y);
                sum_to_scalar(g, y)
            },
            x,
            2e-2,
        );
    }

    #[test]
    fn conv_and_pool_grads_are_correct() {
        let mut rng = StdRng::seed_from_u64(5);
        // 1 image, 2 input channels, 6x6.
        let x = Tensor::uniform(vec![1, 2 * 6 * 6], 1.0, &mut rng);
        let w = Tensor::uniform(vec![3, 2 * 3 * 3], 0.5, &mut rng);
        check_grads(
            move |g, xi| {
                let wi = g.input(w.clone());
                let y = g.conv2d(xi, wi, 2, 6, 6, 3, 3, 1); // -> [1, 3*4*4]
                let y = g.relu(y);
                let y = g.max_pool2d(y, 3, 4, 4, 2); // -> [1, 3*2*2]
                sum_to_scalar(g, y)
            },
            x,
            2e-2,
        );
    }

    #[test]
    fn conv_weight_grads_are_correct() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::uniform(vec![2, 5 * 5], 1.0, &mut rng);
        let w = Tensor::uniform(vec![2, 3 * 3], 0.5, &mut rng);
        let f = |t: &Tensor| -> f32 {
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let wi = g.input(t.clone());
            let y = g.conv2d(xi, wi, 1, 5, 5, 3, 3, 2);
            let y = g.tanh(y);
            let n = g.value(y).cols();
            let ones = g.input(Tensor::full(vec![n, 1], 1.0));
            let s = g.matmul(y, ones);
            let ones2 = g.input(Tensor::full(vec![1, 2], 1.0));
            let t2 = g.matmul(ones2, s);
            g.value(t2).data()[0]
        };
        let mut g = Graph::new();
        let xi = g.input(x.clone());
        let wi = g.param(0, w.clone());
        let y = g.conv2d(xi, wi, 1, 5, 5, 3, 3, 2);
        let y = g.tanh(y);
        let n = g.value(y).cols();
        let ones = g.input(Tensor::full(vec![n, 1], 1.0));
        let s = g.matmul(y, ones);
        let ones2 = g.input(Tensor::full(vec![1, 2], 1.0));
        let t2 = g.matmul(ones2, s);
        let t2 = g.reshape(t2, vec![1]);
        g.backward(t2);
        let analytic = g.grad(wi).unwrap().clone();
        for idx in 0..w.numel() {
            let numeric = numeric_grad(&f, &w, idx, 1e-3);
            assert!(
                (analytic.data()[idx] - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "idx {idx}: {} vs {numeric}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn slicing_and_concat_grads() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::uniform(vec![4, 6], 1.0, &mut rng);
        check_grads(
            |g, xi| {
                let a = g.cols_slice(xi, 0, 3);
                let b = g.cols_slice(xi, 3, 6);
                let m = g.mul(a, b);
                let cat = g.concat_cols(m, m);
                let r = g.rows_slice(cat, 1, 3);
                let r = g.tanh(r);
                sum_to_scalar(g, r)
            },
            x,
            2e-2,
        );
    }

    #[test]
    fn mean_pool_rows_grads() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::uniform(vec![6, 3], 1.0, &mut rng);
        check_grads(
            |g, xi| {
                let y = g.mean_pool_rows(xi, 3); // [2,3]
                let y = g.tanh(y);
                sum_to_scalar(g, y)
            },
            x,
            1e-2,
        );
    }

    #[test]
    fn add_bias_grads() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::uniform(vec![3, 4], 1.0, &mut rng);
        check_grads(
            |g, xi| {
                let b = g.input(Tensor::new(vec![4], vec![0.5, -0.5, 1.0, 0.0]));
                let y = g.add_bias(xi, b);
                let y = g.sigmoid(y);
                sum_to_scalar(g, y)
            },
            x,
            1e-2,
        );
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let x = g.input(Tensor::full(vec![2, 2], 3.0));
        let y = g.dropout(x, 0.0, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_scales_kept_values() {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(1);
        let x = g.input(Tensor::full(vec![100, 10], 1.0));
        let y = g.dropout(x, 0.5, &mut rng);
        let vals = g.value(y).data();
        assert!(vals.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        let kept = vals.iter().filter(|&&v| v != 0.0).count();
        let frac = kept as f64 / vals.len() as f64;
        assert!((frac - 0.5).abs() < 0.07, "keep fraction {frac}");
    }

    #[test]
    fn grads_accumulate_over_reused_nodes() {
        // y = x * x reuses x twice; dy/dx = 2x.
        let mut g = Graph::new();
        let x = g.param(0, Tensor::new(vec![1, 1], vec![3.0]));
        let y = g.mul(x, x);
        let y = g.reshape(y, vec![1]);
        g.backward(y);
        assert!((g.grad(x).unwrap().data()[0] - 6.0).abs() < 1e-6);
    }

    /// FNV-1a over a stream of 64-bit words (grad bits), order-sensitive.
    fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for byte in w.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    #[test]
    fn backward_bit_identity_locked() {
        // A composite graph touching every rewritten backward op (conv,
        // pooling, matmuls, activations, layer-norm, slicing, concat,
        // softmax, cross-entropy). The hash of every parameter gradient's
        // bits was recorded *before* the backward closures were rewritten
        // to read operand values through the tape instead of capturing
        // clones; the rewrite is a memory optimization and must never move
        // a single bit.
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let x = Tensor::uniform(vec![4, 2 * 6 * 6], 1.0, &mut rng);
        let wc = Tensor::uniform(vec![3, 2 * 3 * 3], 0.5, &mut rng);
        let wd = Tensor::uniform(vec![12, 6], 0.7, &mut rng);
        let gamma = Tensor::full(vec![6], 1.1);
        let beta = Tensor::full(vec![6], -0.2);
        let bias = Tensor::uniform(vec![6], 0.3, &mut rng);
        let wq = Tensor::uniform(vec![3, 6], 0.9, &mut rng);

        let mut g = Graph::new();
        let xi = g.input(x);
        let wci = g.param(0, wc);
        let y = g.conv2d(xi, wci, 2, 6, 6, 3, 3, 1); // [4, 3*4*4]
        let y = g.relu(y);
        let y = g.max_pool2d(y, 3, 4, 4, 2); // [4, 3*2*2]
        let wdi = g.param(1, wd);
        let y = g.matmul(y, wdi); // [4, 6]
        let bi = g.param(2, bias);
        let y = g.add_bias(y, bi);
        let gi = g.param(3, gamma);
        let be = g.param(4, beta);
        let y = g.layer_norm(y, gi, be);
        let t = g.tanh(y);
        let s = g.sigmoid(y);
        let y = g.mul(t, s);
        let a = g.cols_slice(y, 0, 3);
        let b = g.cols_slice(y, 3, 6);
        let y = g.concat_cols(a, b); // [4, 6]
        let y = g.rows_slice(y, 0, 4);
        let y = g.mean_pool_rows(y, 2); // [2, 6]
        let y = g.softmax_rows(y);
        let y = g.scale(y, 1.5);
        let wqi = g.param(5, wq);
        let q = g.matmul_nt(y, wqi); // [2,6] × [3,6]^T -> [2,3]
        let loss = g.cross_entropy(q, &[0, 2]);
        g.backward(loss);

        let hash = fnv1a(
            g.param_grads()
                .flat_map(|(_, t)| t.data().iter().map(|v| u64::from(v.to_bits())))
                .collect::<Vec<_>>()
                .into_iter(),
        );
        assert_eq!(
            hash, 0xC61E_608B_8E9F_7DF5,
            "backward numerics drifted: {hash:#x}"
        );
    }

    #[test]
    fn param_grads_iterator_reports_slots() {
        let mut g = Graph::new();
        let w = g.param(42, Tensor::new(vec![1, 1], vec![2.0]));
        let x = g.input(Tensor::new(vec![1, 1], vec![5.0]));
        let y = g.mul(w, x);
        let y = g.reshape(y, vec![1]);
        g.backward(y);
        let collected: Vec<(usize, f32)> =
            g.param_grads().map(|(s, t)| (s, t.data()[0])).collect();
        assert_eq!(collected, vec![(42, 5.0)]);
    }
}
