//! From-scratch machine-learning framework for the CognitiveArm
//! reproduction.
//!
//! The paper's on-device DL engine spans four model families — CNN, LSTM,
//! Transformer and Random Forest (Sec. III-C1, Table III) — trained with
//! Adam/SGD/RMSProp/AdamW and compressed with magnitude pruning and 8-bit
//! post-training quantization for embedded deployment (Sec. III-E). No
//! external ML crates are permitted, so everything here is built up from a
//! plain `f32` tensor:
//!
//! * [`tensor`] — shapes, matmul and elementwise kernels.
//! * [`graph`] — reverse-mode tape autodiff over tensors.
//! * [`layers`] — Dense, Conv2d (im2col), MaxPool, Dropout, LayerNorm,
//!   LSTM and multi-head self-attention, all built on the graph ops.
//! * [`models`] — the paper's configurable CNN / LSTM / Transformer
//!   classifiers behind one [`models::Model`] trait.
//! * [`forest`] — CART random forest over statistical features.
//! * [`optim`] — SGD, Adam, RMSProp, AdamW.
//! * [`train`] — minibatch trainer with early stopping and metrics.
//! * [`infer`] — the deployment runtime: a compiled forward-only network
//!   whose weight matrices can be dense, pruned-sparse (CSR) or int8
//!   quantized; this is where Fig. 12's latency/accuracy trade-off is
//!   produced with real kernels.
//! * [`matexec`] — compiled execution formats for compressed weights:
//!   CSC/densified sparse kernels and SIMD int8 GEMMs, selected per layer
//!   at plan build and bit-identical to the storage kernels they replace.
//! * [`compress`] — global magnitude pruning and post-training
//!   quantization transforms from trained models into [`infer`] networks.
//! * [`ensemble`] — soft/hard-voting ensembles (Fig. 11).
//! * [`metrics`] — accuracy, confusion matrices, paired t-tests
//!   (Sec. V-A).

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod arena;
pub mod compress;
pub mod ensemble;
pub mod forest;
pub mod graph;
pub mod infer;
pub mod layers;
pub mod matexec;
pub mod metrics;
pub mod models;
pub mod optim;
pub mod plan;
pub mod simd;
pub mod sparse;
pub mod tensor;
pub mod train;

mod error;

pub use error::MlError;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, MlError>;
