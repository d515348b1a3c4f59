//! [`Persist`] implementations for the `ml` crate: tensors, compiled
//! inference networks, random forests, ensembles and the trainable-model
//! configurations.
//!
//! Validating constructors (`Tree::from_nodes`, `RandomForest::from_parts`,
//! …) are used on the way in wherever the target type maintains
//! invariants, so a decoded value is as well-formed as a freshly trained
//! one. Cheap local consistency checks (dimension agreement, non-zero
//! strides) guard the arithmetic the inference kernels perform. Tensor,
//! CSR and int8 payloads decode through the cursor's arena-aware readers,
//! so a [`crate::WeightImage`] read borrows them from the image.

use std::io::Write;

use ml::ensemble::{Classifier, Ensemble, ForestClassifier, Member, Voting};
use ml::forest::{ForestConfig, RandomForest, Tree, TreeNode};
use ml::infer::{
    Activation, CnnInfer, ConvInfer, InferModel, LinearInfer, LstmInfer, MatRep, QuantMatrix,
    TfBlockInfer, TfInfer,
};
use ml::models::{CnnConfig, ConvSpec, LstmConfig, PoolKind, TransformerConfig};
use ml::optim::OptimizerKind;
use ml::matexec::ExecCache;
use ml::sparse::CsrMatrix;
use ml::tensor::Tensor;

use crate::error::{ModelIoError, Result};
use crate::persist_struct;
use crate::rw::{write_slice, Persist, ViewCursor};

/// Sanity ceiling on a classifier's window length in samples (~2.3 hours
/// at 125 Hz; real windows are hundreds of samples). Bounds the ring
/// buffer the pipeline allocates for a loaded ensemble.
pub(crate) const MAX_MEMBER_WINDOW: usize = 1 << 20;

/// Fails with [`ModelIoError::Malformed`] unless `cond` holds.
pub(crate) fn ensure(cond: bool, context: &str) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(ModelIoError::malformed(context))
    }
}

impl Persist for Tensor {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        write_slice(self.shape(), w)?;
        write_slice(self.data(), w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let shape = Vec::<usize>::read_from(r)?;
        let numel = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| ModelIoError::malformed("tensor shape overflows"))?;
        let len = r.len_prefix("tensor data")?;
        ensure(numel == len, "tensor shape disagrees with data length")?;
        Ok(Tensor::new(shape, r.f32_arena(len, "tensor data")?))
    }
}

impl Persist for CsrMatrix {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.rows.write_to(w)?;
        self.cols.write_to(w)?;
        write_slice(&self.row_ptr, w)?;
        write_slice(&self.col_idx, w)?;
        write_slice(&self.values, w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let rows = usize::read_from(r)?;
        let cols = usize::read_from(r)?;
        let row_ptr = Vec::<usize>::read_from(r)?;
        let col_idx = Vec::<u32>::read_from(r)?;
        let n_values = r.len_prefix("csr values")?;
        let values = r.f32_arena(n_values, "csr values")?;
        // The sparse matmul indexes `values[row_ptr[i]..row_ptr[i+1]]` and
        // columns up to `cols`; validate exactly what it assumes.
        ensure(
            rows.checked_add(1) == Some(row_ptr.len()),
            "csr row_ptr length",
        )?;
        ensure(row_ptr.first() == Some(&0), "csr row_ptr start")?;
        ensure(row_ptr.windows(2).all(|w| w[0] <= w[1]), "csr row_ptr order")?;
        ensure(row_ptr.last() == Some(&values.len()), "csr row_ptr end")?;
        ensure(col_idx.len() == values.len(), "csr col_idx length")?;
        ensure(
            col_idx.iter().all(|&c| (c as usize) < cols),
            "csr column index out of range",
        )?;
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr: r.share(row_ptr),
            col_idx: r.share(col_idx),
            values,
            exec: ExecCache::default(),
        })
    }
}

impl Persist for QuantMatrix {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.rows.write_to(w)?;
        self.cols.write_to(w)?;
        write_slice(&self.data, w)?;
        self.scale.write_to(w)?;
        self.act_scale.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let rows = usize::read_from(r)?;
        let cols = usize::read_from(r)?;
        let n = r.len_prefix("quant data")?;
        let data = r.i8_arena(n, "quant data")?;
        let scale = f32::read_from(r)?;
        let act_scale = Option::<f32>::read_from(r)?;
        let numel = rows
            .checked_mul(cols)
            .ok_or_else(|| ModelIoError::malformed("quant matrix dims overflow"))?;
        ensure(numel == data.len(), "quant matrix dims disagree with data")?;
        Ok(QuantMatrix {
            rows,
            cols,
            data,
            scale,
            act_scale,
            exec: ExecCache::default(),
        })
    }
}

impl Persist for MatRep {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        match self {
            MatRep::Dense(t) => {
                0u8.write_to(w)?;
                t.write_to(w)
            }
            MatRep::Sparse(m) => {
                1u8.write_to(w)?;
                m.write_to(w)
            }
            MatRep::Int8(m) => {
                2u8.write_to(w)?;
                m.write_to(w)
            }
        }
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        match u8::read_from(r)? {
            0 => {
                let t = Tensor::read_from(r)?;
                ensure(t.shape().len() == 2, "dense weight must be 2-D")?;
                Ok(MatRep::Dense(t))
            }
            1 => Ok(MatRep::Sparse(CsrMatrix::read_from(r)?)),
            2 => Ok(MatRep::Int8(QuantMatrix::read_from(r)?)),
            tag => Err(ModelIoError::BadTag {
                context: "MatRep",
                tag,
            }),
        }
    }
}

impl Persist for Activation {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        let tag: u8 = match self {
            Activation::None => 0,
            Activation::Relu => 1,
            Activation::Tanh => 2,
        };
        tag.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        match u8::read_from(r)? {
            0 => Ok(Activation::None),
            1 => Ok(Activation::Relu),
            2 => Ok(Activation::Tanh),
            tag => Err(ModelIoError::BadTag {
                context: "Activation",
                tag,
            }),
        }
    }
}

impl Persist for PoolKind {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        let tag: u8 = match self {
            PoolKind::Max => 0,
            PoolKind::Avg => 1,
            PoolKind::None => 2,
        };
        tag.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        match u8::read_from(r)? {
            0 => Ok(PoolKind::Max),
            1 => Ok(PoolKind::Avg),
            2 => Ok(PoolKind::None),
            tag => Err(ModelIoError::BadTag {
                context: "PoolKind",
                tag,
            }),
        }
    }
}

impl Persist for LinearInfer {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.w.write_to(w)?;
        self.bias.write_to(w)?;
        self.act.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let weight = MatRep::read_from(r)?;
        let bias = Vec::<f32>::read_from(r)?;
        let act = Activation::read_from(r)?;
        ensure(
            weight.dims().1 == bias.len(),
            "linear stage bias length disagrees with weight columns",
        )?;
        Ok(LinearInfer {
            w: weight,
            bias,
            act,
        })
    }
}

impl Persist for ConvInfer {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.w.write_to(w)?;
        self.bias.write_to(w)?;
        self.cin.write_to(w)?;
        self.h.write_to(w)?;
        self.wdim.write_to(w)?;
        self.k.write_to(w)?;
        self.stride.write_to(w)?;
        self.pool.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let weight = MatRep::read_from(r)?;
        let bias = Vec::<f32>::read_from(r)?;
        let cin = usize::read_from(r)?;
        let h = usize::read_from(r)?;
        let wdim = usize::read_from(r)?;
        let k = usize::read_from(r)?;
        let stride = usize::read_from(r)?;
        let pool = PoolKind::read_from(r)?;
        // `conv_out` computes (h - k) / stride + 1; im2col walks cin·k·k
        // patches against a [patch, cout] kernel.
        ensure(stride >= 1, "conv stride must be positive")?;
        ensure(k >= 1 && k <= h && k <= wdim, "conv kernel exceeds input dims")?;
        ensure(cin >= 1, "conv input channels must be positive")?;
        let patch = cin
            .checked_mul(k)
            .and_then(|p| p.checked_mul(k))
            .ok_or_else(|| ModelIoError::malformed("conv patch size overflows"))?;
        ensure(
            weight.dims() == (patch, bias.len()),
            "conv kernel dims disagree with cin/k/bias",
        )?;
        Ok(ConvInfer {
            w: weight,
            bias,
            cin,
            h,
            wdim,
            k,
            stride,
            pool,
        })
    }
}

impl Persist for CnnInfer {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.convs.write_to(w)?;
        self.head.write_to(w)?;
        self.channels.write_to(w)?;
        self.window.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let convs = Vec::<ConvInfer>::read_from(r)?;
        let head = LinearInfer::read_from(r)?;
        let channels = usize::read_from(r)?;
        let window = usize::read_from(r)?;
        ensure(!convs.is_empty(), "cnn needs at least one conv stage")?;
        ensure(channels >= 1 && window >= 1, "cnn input dims must be positive")?;
        Ok(CnnInfer {
            convs,
            head,
            channels,
            window,
        })
    }
}

impl Persist for LstmInfer {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.cells.write_to(w)?;
        self.hidden.write_to(w)?;
        self.head.write_to(w)?;
        self.channels.write_to(w)?;
        self.window.write_to(w)?;
        self.time_stride.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let cells = Vec::<LinearInfer>::read_from(r)?;
        let hidden = usize::read_from(r)?;
        let head = LinearInfer::read_from(r)?;
        let channels = usize::read_from(r)?;
        let window = usize::read_from(r)?;
        let time_stride = usize::read_from(r)?;
        // The recurrence unwraps the last cell and divides by the stride.
        ensure(!cells.is_empty(), "lstm needs at least one cell")?;
        ensure(hidden >= 1, "lstm hidden width must be positive")?;
        ensure(time_stride >= 1, "lstm time stride must be positive")?;
        ensure(
            channels >= 1 && window >= 1,
            "lstm input dims must be positive",
        )?;
        let gate_width = hidden
            .checked_mul(4)
            .ok_or_else(|| ModelIoError::malformed("lstm hidden width overflows"))?;
        ensure(
            cells.iter().all(|c| c.bias.len() == gate_width),
            "lstm cell gate width disagrees with hidden size",
        )?;
        Ok(LstmInfer {
            cells,
            hidden,
            head,
            channels,
            window,
            time_stride,
        })
    }
}

impl Persist for TfBlockInfer {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.wq.write_to(w)?;
        self.wk.write_to(w)?;
        self.wv.write_to(w)?;
        self.wo.write_to(w)?;
        self.ln1.write_to(w)?;
        self.ff1.write_to(w)?;
        self.ff2.write_to(w)?;
        self.ln2.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        Ok(TfBlockInfer {
            wq: LinearInfer::read_from(r)?,
            wk: LinearInfer::read_from(r)?,
            wv: LinearInfer::read_from(r)?,
            wo: LinearInfer::read_from(r)?,
            ln1: <(Vec<f32>, Vec<f32>)>::read_from(r)?,
            ff1: LinearInfer::read_from(r)?,
            ff2: LinearInfer::read_from(r)?,
            ln2: <(Vec<f32>, Vec<f32>)>::read_from(r)?,
        })
    }
}

impl Persist for TfInfer {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.input_proj.write_to(w)?;
        self.blocks.write_to(w)?;
        self.head.write_to(w)?;
        self.pos.write_to(w)?;
        self.heads.write_to(w)?;
        self.d_model.write_to(w)?;
        self.channels.write_to(w)?;
        self.window.write_to(w)?;
        self.time_stride.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let input_proj = LinearInfer::read_from(r)?;
        let blocks = Vec::<TfBlockInfer>::read_from(r)?;
        let head = LinearInfer::read_from(r)?;
        let pos = Tensor::read_from(r)?;
        let heads = usize::read_from(r)?;
        let d_model = usize::read_from(r)?;
        let channels = usize::read_from(r)?;
        let window = usize::read_from(r)?;
        let time_stride = usize::read_from(r)?;
        ensure(time_stride >= 1, "transformer time stride must be positive")?;
        ensure(
            channels >= 1 && window >= 1,
            "transformer input dims must be positive",
        )?;
        ensure(
            heads >= 1 && d_model >= 1 && d_model.is_multiple_of(heads),
            "transformer heads must divide d_model",
        )?;
        let t_len = window.div_ceil(time_stride);
        ensure(
            pos.shape() == [t_len, d_model],
            "positional encoding shape disagrees with window/d_model",
        )?;
        ensure(
            blocks.iter().all(|b| {
                b.ln1.0.len() == d_model
                    && b.ln1.1.len() == d_model
                    && b.ln2.0.len() == d_model
                    && b.ln2.1.len() == d_model
            }),
            "layer-norm parameter length disagrees with d_model",
        )?;
        Ok(TfInfer {
            input_proj,
            blocks,
            head,
            pos,
            heads,
            d_model,
            channels,
            window,
            time_stride,
        })
    }
}

impl Persist for InferModel {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        match self {
            InferModel::Cnn(m) => {
                0u8.write_to(w)?;
                m.write_to(w)
            }
            InferModel::Lstm(m) => {
                1u8.write_to(w)?;
                m.write_to(w)
            }
            InferModel::Transformer(m) => {
                2u8.write_to(w)?;
                m.write_to(w)
            }
        }
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        match u8::read_from(r)? {
            0 => Ok(InferModel::Cnn(CnnInfer::read_from(r)?)),
            1 => Ok(InferModel::Lstm(LstmInfer::read_from(r)?)),
            2 => Ok(InferModel::Transformer(TfInfer::read_from(r)?)),
            tag => Err(ModelIoError::BadTag {
                context: "InferModel",
                tag,
            }),
        }
    }
}

impl Persist for TreeNode {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        match self {
            TreeNode::Leaf { probs } => {
                0u8.write_to(w)?;
                probs.write_to(w)
            }
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                1u8.write_to(w)?;
                feature.write_to(w)?;
                threshold.write_to(w)?;
                left.write_to(w)?;
                right.write_to(w)
            }
        }
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        match u8::read_from(r)? {
            0 => Ok(TreeNode::Leaf {
                probs: Vec::<f32>::read_from(r)?,
            }),
            1 => Ok(TreeNode::Split {
                feature: usize::read_from(r)?,
                threshold: f32::read_from(r)?,
                left: usize::read_from(r)?,
                right: usize::read_from(r)?,
            }),
            tag => Err(ModelIoError::BadTag {
                context: "TreeNode",
                tag,
            }),
        }
    }
}

impl Persist for Tree {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        write_slice(self.nodes(), w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let nodes = Vec::<TreeNode>::read_from(r)?;
        Tree::from_nodes(nodes).map_err(|e| ModelIoError::malformed(e.to_string()))
    }
}

persist_struct!(ForestConfig {
    n_estimators,
    max_depth,
    min_samples_split,
    classes,
    seed,
});

impl Persist for RandomForest {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.config().write_to(w)?;
        write_slice(self.trees(), w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let config = ForestConfig::read_from(r)?;
        let trees = Vec::<Tree>::read_from(r)?;
        RandomForest::from_parts(config, trees).map_err(|e| ModelIoError::malformed(e.to_string()))
    }
}

impl Persist for ForestClassifier {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.forest().write_to(w)?;
        Classifier::window(self).write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let forest = RandomForest::read_from(r)?;
        let window = usize::read_from(r)?;
        ensure(window >= 1, "forest window must be positive")?;
        Ok(ForestClassifier::new(forest, window))
    }
}

impl Persist for Voting {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        let tag: u8 = match self {
            Voting::Soft => 0,
            Voting::Hard => 1,
        };
        tag.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        match u8::read_from(r)? {
            0 => Ok(Voting::Soft),
            1 => Ok(Voting::Hard),
            tag => Err(ModelIoError::BadTag {
                context: "Voting",
                tag,
            }),
        }
    }
}

impl Persist for Member {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        match self {
            Member::Net(m) => {
                0u8.write_to(w)?;
                m.write_to(w)
            }
            Member::Forest(c) => {
                1u8.write_to(w)?;
                c.write_to(w)
            }
            Member::Custom(c) => Err(ModelIoError::UnsupportedMember { name: c.name() }),
        }
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        match u8::read_from(r)? {
            0 => Ok(Member::Net(InferModel::read_from(r)?)),
            1 => Ok(Member::Forest(ForestClassifier::read_from(r)?)),
            tag => Err(ModelIoError::BadTag {
                context: "Member",
                tag,
            }),
        }
    }
}

impl Persist for Ensemble {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.voting().write_to(w)?;
        write_slice(self.members(), w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let voting = Voting::read_from(r)?;
        let members = Vec::<Member>::read_from(r)?;
        ensure(!members.is_empty(), "ensemble needs at least one member")?;
        // The pipeline allocates a per-channel ring buffer of the longest
        // member window; cap it so a forged window cannot demand gigabytes
        // (the paper's windows are 100-200 samples).
        ensure(
            members.iter().all(|m| Classifier::window(m) <= MAX_MEMBER_WINDOW),
            "member window implausibly large",
        )?;
        Ok(Ensemble::new(members, voting))
    }
}

persist_struct!(ConvSpec {
    filters,
    kernel,
    stride,
});

persist_struct!(CnnConfig {
    convs,
    pool,
    window,
    channels,
    dropout,
});

persist_struct!(LstmConfig {
    hidden,
    layers,
    dropout,
    window,
    channels,
    time_stride,
});

persist_struct!(TransformerConfig {
    layers,
    heads,
    d_model,
    dim_ff,
    dropout,
    window,
    channels,
    time_stride,
});

impl Persist for OptimizerKind {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        match self {
            OptimizerKind::Sgd { lr, momentum } => {
                0u8.write_to(w)?;
                lr.write_to(w)?;
                momentum.write_to(w)
            }
            OptimizerKind::Adam { lr } => {
                1u8.write_to(w)?;
                lr.write_to(w)
            }
            OptimizerKind::RmsProp { lr, decay } => {
                2u8.write_to(w)?;
                lr.write_to(w)?;
                decay.write_to(w)
            }
            OptimizerKind::AdamW { lr, weight_decay } => {
                3u8.write_to(w)?;
                lr.write_to(w)?;
                weight_decay.write_to(w)
            }
        }
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        match u8::read_from(r)? {
            0 => Ok(OptimizerKind::Sgd {
                lr: f32::read_from(r)?,
                momentum: f32::read_from(r)?,
            }),
            1 => Ok(OptimizerKind::Adam {
                lr: f32::read_from(r)?,
            }),
            2 => Ok(OptimizerKind::RmsProp {
                lr: f32::read_from(r)?,
                decay: f32::read_from(r)?,
            }),
            3 => Ok(OptimizerKind::AdamW {
                lr: f32::read_from(r)?,
                weight_decay: f32::read_from(r)?,
            }),
            tag => Err(ModelIoError::BadTag {
                context: "OptimizerKind",
                tag,
            }),
        }
    }
}
