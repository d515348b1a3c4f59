//! Minibatch training loop with validation tracking and early stopping.
//!
//! Sec. III-D: models train on an 80:20 train/validation split with
//! monitored losses (overfitting analysis) and the evolutionary search
//! evaluates validation accuracy per candidate. This module is that loop.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::ensemble::argmax;
use crate::graph::Graph;
use crate::metrics::accuracy;
use crate::models::Model;
use crate::optim::{Optimizer, OptimizerKind};
use crate::tensor::Tensor;
use crate::{MlError, Result};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Optimizer and learning rate.
    pub optimizer: OptimizerKind,
    /// RNG seed for shuffling and dropout.
    pub seed: u64,
    /// Stop if validation accuracy has not improved for this many epochs
    /// (`None` disables early stopping).
    pub patience: Option<usize>,
    /// Optional cap on minibatches per epoch (proxy-training budget used by
    /// the evolutionary search; `None` = full epoch).
    pub max_batches: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 32,
            optimizer: OptimizerKind::Adam { lr: 1e-3 },
            seed: 0,
            patience: Some(3),
            max_batches: None,
        }
    }
}

/// Per-epoch history and final quality of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_losses: Vec<f64>,
    /// Validation accuracy per epoch.
    pub val_accuracies: Vec<f64>,
    /// Best validation accuracy observed.
    pub best_val_accuracy: f64,
    /// Epochs actually run (≤ configured epochs with early stopping).
    pub epochs_run: usize,
}

/// Builds and trains a model in one owned step: `build` constructs a fresh
/// model, [`train_model`] fits it, and the trained model is returned by
/// value together with its report.
///
/// This is the borrow shape parallel training wants: [`train_model`] needs
/// `&mut` exclusivity for the whole fit, so concurrent callers must each
/// *own* their model rather than share one — `train_built` packages
/// construction + fit + handoff so an `exec::ExecPool` closure (one
/// ensemble member or LOSO fold per work item) never holds a borrow that
/// outlives its item.
///
/// # Errors
///
/// Propagates `build` failures and [`train_model`] errors.
pub fn train_built<M, B>(
    build: B,
    train_x: &[Vec<f32>],
    train_y: &[usize],
    val_x: &[Vec<f32>],
    val_y: &[usize],
    cfg: &TrainConfig,
) -> Result<(M, TrainReport)>
where
    M: Model,
    B: FnOnce() -> Result<M>,
{
    let mut model = build()?;
    let report = train_model(&mut model, train_x, train_y, val_x, val_y, cfg)?;
    Ok((model, report))
}

/// Trains `model` in place.
///
/// # Errors
///
/// Returns [`MlError::EmptyDataset`] for empty inputs and
/// [`MlError::Diverged`] if a training loss becomes non-finite, or if an
/// epoch's last step leaves a non-finite parameter (which no training
/// loss has seen yet, and validation would otherwise read).
pub fn train_model<M: Model + ?Sized>(
    model: &mut M,
    train_x: &[Vec<f32>],
    train_y: &[usize],
    val_x: &[Vec<f32>],
    val_y: &[usize],
    cfg: &TrainConfig,
) -> Result<TrainReport> {
    if train_x.is_empty() || train_x.len() != train_y.len() {
        return Err(MlError::EmptyDataset);
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut optimizer = Optimizer::new(cfg.optimizer);
    let mut order: Vec<usize> = (0..train_x.len()).collect();

    let mut report = TrainReport {
        train_losses: Vec::new(),
        val_accuracies: Vec::new(),
        best_val_accuracy: 0.0,
        epochs_run: 0,
    };
    let mut stale = 0usize;

    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            if let Some(cap) = cfg.max_batches {
                if batches >= cap {
                    break;
                }
            }
            let windows: Vec<&[f32]> = chunk.iter().map(|&i| train_x[i].as_slice()).collect();
            let labels: Vec<usize> = chunk.iter().map(|&i| train_y[i]).collect();
            let x = model.prepare_batch(&windows);

            let mut g = Graph::new();
            let xi = g.input(x);
            let logits = model.forward(&mut g, xi, chunk.len(), true, &mut rng);
            let loss = g.cross_entropy(logits, &labels);
            let loss_value = f64::from(g.value(loss).data()[0]);
            if !loss_value.is_finite() {
                return Err(MlError::Diverged { epoch });
            }
            epoch_loss += loss_value;
            batches += 1;

            g.backward(loss);
            let mut grads: Vec<Option<Tensor>> = vec![None; model.store().len()];
            for (slot, grad) in g.param_grads() {
                match &mut grads[slot] {
                    Some(existing) => existing.add_assign(grad),
                    slot_ref @ None => *slot_ref = Some(grad.clone()),
                }
            }
            optimizer.step(model.store_mut(), &grads);
        }
        let store = model.store();
        if (0..store.len()).any(|slot| store.get(slot).has_non_finite()) {
            return Err(MlError::Diverged { epoch });
        }
        report
            .train_losses
            .push(epoch_loss / batches.max(1) as f64);

        let val_acc = if val_x.is_empty() {
            0.0
        } else {
            evaluate(model, val_x, val_y, cfg.batch_size)
        };
        report.val_accuracies.push(val_acc);
        report.epochs_run = epoch + 1;

        if val_acc > report.best_val_accuracy {
            report.best_val_accuracy = val_acc;
            stale = 0;
        } else {
            stale += 1;
            if let Some(patience) = cfg.patience {
                if stale >= patience {
                    break;
                }
            }
        }
    }
    Ok(report)
}

/// Predicts class indices for a set of windows, by the one total
/// [`crate::ensemble::argmax`] (a NaN probability never panics).
#[must_use]
pub fn predict<M: Model + ?Sized>(model: &M, xs: &[Vec<f32>], batch_size: usize) -> Vec<usize> {
    predict_proba(model, xs, batch_size)
        .iter()
        .map(|p| argmax(p))
        .collect()
}

/// Predicts class probabilities (softmax over logits) for a set of windows.
#[must_use]
pub fn predict_proba<M: Model + ?Sized>(model: &M, xs: &[Vec<f32>], batch_size: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut out = Vec::with_capacity(xs.len());
    for chunk in xs.chunks(batch_size.max(1)) {
        let windows: Vec<&[f32]> = chunk.iter().map(Vec::as_slice).collect();
        let x = model.prepare_batch(&windows);
        let mut g = Graph::new();
        let xi = g.input(x);
        let logits = model.forward(&mut g, xi, chunk.len(), false, &mut rng);
        let probs = g.softmax_rows(logits);
        let pv = g.value(probs);
        let c = pv.cols();
        for i in 0..chunk.len() {
            out.push(pv.data()[i * c..(i + 1) * c].to_vec());
        }
    }
    out
}

/// Accuracy of `model` on a labelled set.
#[must_use]
pub fn evaluate<M: Model + ?Sized>(model: &M, xs: &[Vec<f32>], ys: &[usize], batch_size: usize) -> f64 {
    let preds = predict(model, xs, batch_size);
    accuracy(&preds, ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{CnnConfig, ConvSpec, PoolKind, TransformerConfig};
    use rand::Rng;

    /// A tiny synthetic task: class is determined by which half of the
    /// window carries a strong oscillation on channel 0 vs channel 1.
    fn toy_dataset(n: usize, channels: usize, win: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 3;
            let mut w = vec![0.0f32; channels * win];
            for v in w.iter_mut() {
                *v = rng.gen_range(-0.3..0.3);
            }
            // Strong class-dependent amplitude on a specific channel.
            let ch = label; // channels 0,1,2 carry the signal
            for t in 0..win {
                w[ch * win + t] += (t as f32 * 0.5).sin() * 2.0;
            }
            xs.push(w);
            ys.push(label);
        }
        (xs, ys)
    }

    /// FNV-1a over the bit patterns of every trained weight, in slot order.
    fn weight_hash(store: &crate::layers::ParamStore) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for slot in 0..store.len() {
            for &v in store.get(slot).data() {
                for byte in v.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        h
    }

    #[test]
    fn training_bit_identity_locked() {
        // End-to-end guard for the autodiff backward rewrite (operand
        // values read through the tape instead of captured clones): a
        // short, fully seeded training run must land on exactly the same
        // weights it produced before the rewrite. Dropout is on so the
        // seeded mask path is covered too.
        let (xs, ys) = toy_dataset(24, 8, 32, 7);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            patience: None,
            ..TrainConfig::default()
        };
        let mut model = tiny_cnn(32).build(0).unwrap();
        train_model(&mut model, &xs, &ys, &xs, &ys, &cfg).unwrap();
        let hash = weight_hash(model.store());
        assert_eq!(
            hash, 0x64E9_D3D4_E1B2_8C4E,
            "training numerics drifted: {hash:#x}"
        );
    }

    fn tiny_cnn(win: usize) -> CnnConfig {
        CnnConfig {
            convs: vec![ConvSpec {
                filters: 4,
                kernel: 3,
                stride: 2,
            }],
            pool: PoolKind::Max,
            window: win,
            channels: 8,
            dropout: 0.1,
        }
    }

    #[test]
    fn cnn_learns_the_toy_task() {
        let (xs, ys) = toy_dataset(120, 8, 32, 0);
        let (vx, vy) = toy_dataset(45, 8, 32, 1);
        let mut model = tiny_cnn(32).build(0).unwrap();
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 16,
            optimizer: OptimizerKind::Adam { lr: 3e-3 },
            seed: 1,
            patience: None,
            max_batches: None,
        };
        let report = train_model(&mut model, &xs, &ys, &vx, &vy, &cfg).unwrap();
        assert!(
            report.best_val_accuracy > 0.85,
            "val acc {}",
            report.best_val_accuracy
        );
        // Loss must decrease.
        assert!(report.train_losses.last().unwrap() < &report.train_losses[0]);
    }

    #[test]
    fn early_stopping_cuts_epochs() {
        let (xs, ys) = toy_dataset(60, 8, 32, 2);
        let mut model = tiny_cnn(32).build(0).unwrap();
        let cfg = TrainConfig {
            epochs: 50,
            batch_size: 16,
            optimizer: OptimizerKind::Adam { lr: 3e-3 },
            seed: 1,
            patience: Some(2),
            max_batches: None,
        };
        let report = train_model(&mut model, &xs, &ys, &xs, &ys, &cfg).unwrap();
        assert!(report.epochs_run < 50, "ran {} epochs", report.epochs_run);
    }

    #[test]
    fn max_batches_caps_work_per_epoch() {
        let (xs, ys) = toy_dataset(200, 8, 32, 3);
        let mut model = tiny_cnn(32).build(0).unwrap();
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 10,
            optimizer: OptimizerKind::Sgd {
                lr: 0.01,
                momentum: 0.0,
            },
            seed: 1,
            patience: None,
            max_batches: Some(2),
        };
        // Mostly checking it completes fast and doesn't error.
        let report = train_model(&mut model, &xs, &ys, &[], &[], &cfg).unwrap();
        assert_eq!(report.epochs_run, 1);
    }

    #[test]
    fn train_built_matches_borrowing_path_bitwise() {
        let (xs, ys) = toy_dataset(60, 8, 32, 5);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 16,
            optimizer: OptimizerKind::Adam { lr: 3e-3 },
            seed: 1,
            patience: None,
            max_batches: None,
        };
        let mut borrowed = tiny_cnn(32).build(0).unwrap();
        let report_a = train_model(&mut borrowed, &xs, &ys, &xs, &ys, &cfg).unwrap();
        let (owned, report_b) =
            train_built(|| tiny_cnn(32).build(0), &xs, &ys, &xs, &ys, &cfg).unwrap();
        assert_eq!(report_a, report_b);
        assert_eq!(predict(&borrowed, &xs, 16), predict(&owned, &xs, 16));
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut model = tiny_cnn(32).build(0).unwrap();
        let cfg = TrainConfig::default();
        assert!(matches!(
            train_model(&mut model, &[], &[], &[], &[], &cfg),
            Err(MlError::EmptyDataset)
        ));
    }

    /// The fleet fixture's two quick genomes (`quick_cnn_config` and
    /// `quick_transformer_config` in the core crate's `eval`).
    fn quick_cnn() -> CnnConfig {
        CnnConfig {
            convs: vec![ConvSpec {
                filters: 8,
                kernel: 5,
                stride: 2,
            }],
            pool: PoolKind::None,
            window: 100,
            channels: 16,
            dropout: 0.2,
        }
    }

    fn quick_transformer() -> TransformerConfig {
        TransformerConfig {
            layers: 1,
            heads: 2,
            d_model: 32,
            dim_ff: 64,
            dropout: 0.2,
            window: 100,
            channels: 16,
            time_stride: 4,
        }
    }

    #[test]
    fn a_diverging_run_returns_diverged() {
        // SGD at lr 1e3 blows both quick nets up. The step that leaves a
        // NaN weight can be an epoch's last, which no training loss sees:
        // validation used to read it first and panic on a NaN probability.
        let (xs, ys) = toy_dataset(48, 16, 100, 11);
        let cfg = TrainConfig {
            epochs: 12,
            batch_size: 16,
            optimizer: OptimizerKind::Sgd {
                lr: 1e3,
                momentum: 0.0,
            },
            seed: 0,
            patience: None,
            max_batches: None,
        };
        let cnn = train_built(|| quick_cnn().build(0), &xs, &ys, &xs, &ys, &cfg);
        assert!(matches!(cnn, Err(MlError::Diverged { .. })), "{:?}", cnn.map(|r| r.1));
        let tf = train_built(|| quick_transformer().build(0), &xs, &ys, &xs, &ys, &cfg);
        assert!(matches!(tf, Err(MlError::Diverged { .. })), "{:?}", tf.map(|r| r.1));
    }

    #[test]
    fn predicting_with_nan_weights_does_not_panic() {
        let (xs, ys) = toy_dataset(12, 8, 32, 6);
        let mut model = tiny_cnn(32).build(0).unwrap();
        for slot in 0..model.store().len() {
            model.store_mut().get_mut(slot).data_mut()[0] = f32::NAN;
        }
        let labels = predict(&model, &xs, 4);
        assert_eq!(labels.len(), xs.len());
        assert!(labels.iter().all(|&l| l < 3), "{labels:?}");
        assert!(evaluate(&model, &xs, &ys, 4) <= 1.0);
        let compiled = crate::infer::compile_cnn(&model);
        assert!(compiled.predict(&xs[0]) < 3);
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let (xs, _) = toy_dataset(10, 8, 32, 4);
        let model = tiny_cnn(32).build(0).unwrap();
        for p in predict_proba(&model, &xs, 4) {
            let s: f32 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "sum {s}");
            assert_eq!(p.len(), 3);
        }
    }
}
