//! Dataset preparation, genome training and LOSO evaluation (Sec. III-D).
//!
//! The [`DatasetBuilder`] runs the paper's collection protocol on synthetic
//! subjects, zero-phase filters every recording and fits per-subject
//! normalization. [`train_genome`] turns any [`evo::Genome`] into a trained,
//! compiled classifier plus its validation accuracy — and [`EegEvaluator`]
//! exposes exactly that as the fitness oracle Algorithm 1 needs.
//!
//! Reproduction note on budgets: the authors train every candidate to
//! convergence on an RTX A6000. Our CPU must evaluate dozens of candidates
//! inside a bench run, so [`TrainBudget`] caps epochs/batches/windows. The
//! caps shrink absolute accuracies a little but preserve the orderings the
//! figures are about; `TrainBudget::full()` lifts them when you have the
//! patience.

use std::sync::Arc;

use dsp::normalize::Zscore;
use eeg::dataset::{train_val_split, Protocol, Study};
use eeg::types::LabeledWindow;
use eeg::CHANNELS;
use evo::{EvalResult, Evaluator, Genome};
use exec::ExecPool;
use ml::ensemble::{Classifier, Ensemble, ForestClassifier, Member, Voting};
use ml::forest::{window_stat_features, RandomForest};
use ml::infer::{compile_cnn, compile_lstm, compile_transformer, InferModel};
use ml::models::{CnnConfig, ConvSpec, PoolKind, TransformerConfig};
use ml::optim::OptimizerKind;
use ml::train::{train_built, TrainConfig};

use crate::preprocess::{FilterSpec, OfflineChain};
use crate::{CoreError, Result};

/// A filtered, normalized study ready for windowing.
#[derive(Debug, Clone)]
pub struct PreparedData {
    /// The filtered recordings.
    pub study: Study,
    /// Per-subject normalization statistics (fitted on the filtered data).
    pub zscores: Vec<Zscore>,
    seed: u64,
}

/// Builds [`PreparedData`] from the collection protocol.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    protocol: Protocol,
    n_subjects: usize,
    seed: u64,
    filter: FilterSpec,
    pool: Arc<ExecPool>,
}

impl DatasetBuilder {
    /// Creates a builder for `n_subjects` under `protocol`, filtering on
    /// the process-wide [`exec::shared`] pool.
    #[must_use]
    pub fn new(protocol: Protocol, n_subjects: usize, seed: u64) -> Self {
        Self {
            protocol,
            n_subjects,
            seed,
            filter: FilterSpec::default(),
            pool: exec::shared(),
        }
    }

    /// Overrides the filter design.
    #[must_use]
    pub fn with_filter(mut self, filter: FilterSpec) -> Self {
        self.filter = filter;
        self
    }

    /// Runs the offline filtering on an explicit pool.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<ExecPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Generates, filters and normalizes the study.
    ///
    /// # Errors
    ///
    /// Propagates generation and filtering failures.
    pub fn build(self) -> Result<PreparedData> {
        let mut study = Study::generate(&self.protocol, self.n_subjects, self.seed)?;
        let chain = OfflineChain::with_pool(&self.filter, self.pool)?;
        let mut zscores = Vec::with_capacity(study.recordings.len());
        for rec in &mut study.recordings {
            chain.apply(&mut rec.data)?;
            let z = Zscore::fit_transform(&mut rec.data.data, CHANNELS)?;
            zscores.push(z);
        }
        Ok(PreparedData {
            study,
            zscores,
            seed: self.seed,
        })
    }
}

impl PreparedData {
    /// All windows of the given size/step, balanced per subject.
    ///
    /// # Errors
    ///
    /// Propagates windowing failures.
    pub fn windows(&self, size: usize, step: usize) -> Result<Vec<LabeledWindow>> {
        Ok(self.study.windows(size, step, self.seed ^ 0x57EB)?)
    }

    /// LOSO split for `test_subject`.
    ///
    /// # Errors
    ///
    /// Propagates windowing failures and unknown subjects.
    pub fn loso(
        &self,
        test_subject: usize,
        size: usize,
        step: usize,
    ) -> Result<(Vec<LabeledWindow>, Vec<LabeledWindow>)> {
        Ok(self
            .study
            .loso_split(test_subject, size, step, self.seed ^ 0x1050)?)
    }
}

/// Proxy-training budget (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainBudget {
    /// Epochs per candidate.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Cap on minibatches per epoch.
    pub max_batches: Option<usize>,
    /// Cap on training windows.
    pub train_cap: usize,
    /// Cap on validation windows.
    pub val_cap: usize,
    /// Sliding-window step during training-set extraction.
    pub step: usize,
}

impl TrainBudget {
    /// Tiny budget for tests and doc examples.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            epochs: 12,
            batch_size: 16,
            max_batches: None,
            train_cap: 300,
            val_cap: 120,
            step: 25,
        }
    }

    /// The default bench budget: enough to separate good from bad configs.
    #[must_use]
    pub fn bench() -> Self {
        Self {
            epochs: 25,
            batch_size: 16,
            max_batches: Some(60),
            train_cap: 1200,
            val_cap: 400,
            step: 25,
        }
    }

    /// Uncapped training (slow; for offline reproduction runs).
    #[must_use]
    pub fn full() -> Self {
        Self {
            epochs: 40,
            batch_size: 32,
            max_batches: None,
            train_cap: usize::MAX,
            val_cap: usize::MAX,
            step: 25,
        }
    }
}

/// Rough forward-pass cost of one window, in FLOPs, for fair-compute
/// budgeting across families (the paper trains every candidate on a GPU
/// farm; we give every candidate the same FLOP allowance instead).
#[must_use]
pub fn flops_per_window(genome: &Genome) -> f64 {
    match genome {
        Genome::Cnn { config, .. } => {
            let mut flops = 0.0;
            let (mut h, mut w, mut cin) = (config.channels as f64, config.window as f64, 1.0);
            for spec in &config.convs {
                let ho = ((h - spec.kernel as f64) / spec.stride as f64 + 1.0).max(1.0);
                let wo = ((w - spec.kernel as f64) / spec.stride as f64 + 1.0).max(1.0);
                flops += 2.0
                    * spec.filters as f64
                    * cin
                    * (spec.kernel * spec.kernel) as f64
                    * ho
                    * wo;
                cin = spec.filters as f64;
                h = ho;
                w = wo;
                if config.pool != PoolKind::None && h >= 2.0 && w >= 2.0 {
                    h /= 2.0;
                    w /= 2.0;
                }
            }
            flops + 2.0 * cin * h * w * 3.0
        }
        Genome::Lstm { config, .. } => {
            let t = config.seq_len() as f64;
            let h = config.hidden as f64;
            let mut flops = 0.0;
            let mut in_dim = config.channels as f64;
            for _ in 0..config.layers {
                flops += 2.0 * 4.0 * (in_dim + h) * h * t;
                in_dim = h;
            }
            flops + 2.0 * h * 3.0
        }
        Genome::Transformer { config, .. } => {
            let t = config.seq_len() as f64;
            let d = config.d_model as f64;
            let ff = config.dim_ff as f64;
            let per_layer = 2.0 * t * (4.0 * d * d + 2.0 * d * ff) + 4.0 * t * t * d;
            2.0 * t * (config.channels as f64) * d
                + config.layers as f64 * per_layer
                + 2.0 * d * 3.0
        }
        // Forest fitting is cheap and not iterative; report a nominal cost.
        Genome::Forest { .. } => 1e4,
    }
}

/// Derives a per-candidate budget giving roughly `flop_budget` total
/// training FLOPs (forward+backward ≈ 3× forward), so a 512-unit LSTM gets
/// fewer minibatches than a small CNN instead of stalling the whole search.
#[must_use]
pub fn fair_budget(genome: &Genome, base: &TrainBudget, flop_budget: f64) -> TrainBudget {
    let per_batch = 3.0 * flops_per_window(genome) * base.batch_size as f64;
    let total_batches = (flop_budget / per_batch).max(6.0) as usize;
    let per_epoch = (total_batches / base.epochs.max(1)).max(1);
    TrainBudget {
        max_batches: Some(match base.max_batches {
            Some(cap) => cap.min(per_epoch),
            None => per_epoch,
        }),
        ..*base
    }
}

/// A trained, deployable artifact.
// A handful of these exist at a time, so the Net/Forest size gap is
// irrelevant and boxing would complicate every destructuring site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum TrainedArtifact {
    /// A compiled neural network.
    Net(InferModel),
    /// A fitted random forest with its window length.
    Forest(ForestClassifier),
}

impl std::fmt::Debug for TrainedArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainedArtifact::Net(m) => write!(f, "Net({})", m.kind()),
            TrainedArtifact::Forest(c) => write!(f, "Forest({})", c.name()),
        }
    }
}

impl TrainedArtifact {
    /// Effective parameter count (the paper's `P(m)`: scalar weights for
    /// nets, total nodes for forests).
    #[must_use]
    pub fn param_count(&self) -> usize {
        match self {
            TrainedArtifact::Net(m) => m.param_count(),
            TrainedArtifact::Forest(c) => c.param_count(),
        }
    }

    /// Converts the artifact into a tagged ensemble member.
    #[must_use]
    pub fn into_member(self) -> Member {
        match self {
            TrainedArtifact::Net(m) => Member::Net(m),
            TrainedArtifact::Forest(c) => Member::Forest(c),
        }
    }

    /// Classifies one channel-major window (handles member window length).
    #[must_use]
    pub fn predict(&self, window: &[f32], channels: usize) -> usize {
        let win_len = window.len() / channels;
        let probs = match self {
            TrainedArtifact::Net(m) => m.predict_proba_window(window, channels, win_len),
            TrainedArtifact::Forest(c) => c.predict_proba_window(window, channels, win_len),
        };
        ml::ensemble::argmax(&probs)
    }
}

fn cap<T: Clone>(v: &[T], cap: usize) -> Vec<T> {
    v.iter().take(cap).cloned().collect()
}

/// Trains one genome on the given windows, returning the artifact and its
/// accuracy on `val`. Parallel training stages run on the process-wide
/// [`exec::shared`] pool; use [`train_genome_with`] to pin them to an
/// explicit pool.
///
/// # Errors
///
/// Propagates training failures (empty data, divergence, bad configs).
pub fn train_genome(
    genome: &Genome,
    train: &[LabeledWindow],
    val: &[LabeledWindow],
    budget: &TrainBudget,
    seed: u64,
) -> Result<(TrainedArtifact, f64)> {
    train_genome_with(genome, train, val, budget, seed, &exec::shared())
}

/// [`train_genome`] on an explicit pool (feature extraction, per-tree
/// forest fitting and batched scoring fan out on it; the iterative
/// net-training path is inherently sequential).
///
/// # Errors
///
/// Same as [`train_genome`].
pub fn train_genome_with(
    genome: &Genome,
    train: &[LabeledWindow],
    val: &[LabeledWindow],
    budget: &TrainBudget,
    seed: u64,
    pool: &ExecPool,
) -> Result<(TrainedArtifact, f64)> {
    if train.is_empty() {
        return Err(CoreError::Ml(ml::MlError::EmptyDataset));
    }
    let train = cap(train, budget.train_cap);
    let val = cap(val, budget.val_cap);
    let tx: Vec<Vec<f32>> = train.iter().map(|w| w.data.clone()).collect();
    let ty: Vec<usize> = train.iter().map(|w| w.label.label()).collect();
    let vx: Vec<Vec<f32>> = val.iter().map(|w| w.data.clone()).collect();
    let vy: Vec<usize> = val.iter().map(|w| w.label.label()).collect();

    let train_cfg = |optimizer: OptimizerKind| TrainConfig {
        epochs: budget.epochs,
        batch_size: budget.batch_size,
        optimizer,
        seed,
        patience: Some(budget.epochs),
        max_batches: budget.max_batches,
    };

    // Net training runs through `train_built`'s owned path: each call
    // constructs, fits and returns its own model, so concurrent genome
    // trainings (parallel ensemble members, parallel LOSO folds) never
    // contend for a `&mut` borrow.
    match genome {
        Genome::Cnn { config, optimizer } => {
            let (model, _) =
                train_built(|| config.build(seed), &tx, &ty, &vx, &vy, &train_cfg(*optimizer))?;
            let compiled = compile_cnn(&model);
            let acc = accuracy_of(&compiled, &vx, &vy);
            Ok((TrainedArtifact::Net(compiled), acc))
        }
        Genome::Lstm { config, optimizer } => {
            let (model, _) =
                train_built(|| config.build(seed), &tx, &ty, &vx, &vy, &train_cfg(*optimizer))?;
            let compiled = compile_lstm(&model);
            let acc = accuracy_of(&compiled, &vx, &vy);
            Ok((TrainedArtifact::Net(compiled), acc))
        }
        Genome::Transformer { config, optimizer } => {
            let (model, _) =
                train_built(|| config.build(seed), &tx, &ty, &vx, &vy, &train_cfg(*optimizer))?;
            let compiled = compile_transformer(&model);
            let acc = accuracy_of(&compiled, &vx, &vy);
            Ok((TrainedArtifact::Net(compiled), acc))
        }
        Genome::Forest { config, window } => {
            // Feature extraction, per-tree fitting and scoring all fan out
            // over the pool; every step is per-index deterministic.
            let fx: Vec<Vec<f32>> =
                pool.par_map(&tx, |w| window_stat_features(w, CHANNELS));
            let forest = RandomForest::fit_with(*config, &fx, &ty, pool)?;
            let vfx: Vec<Vec<f32>> =
                pool.par_map(&vx, |w| window_stat_features(w, CHANNELS));
            let acc = forest.evaluate_with(&vfx, &vy, pool);
            Ok((
                TrainedArtifact::Forest(ForestClassifier::new(forest, *window)),
                acc,
            ))
        }
    }
}

fn accuracy_of(model: &InferModel, vx: &[Vec<f32>], vy: &[usize]) -> f64 {
    if vx.is_empty() {
        return 0.0;
    }
    let correct = vx
        .iter()
        .zip(vy)
        .filter(|(w, &l)| model.predict(w) == l)
        .count();
    correct as f64 / vx.len() as f64
}

/// The fitness oracle wiring [`evo::EvolutionarySearch`] to real EEG
/// training: windows the prepared study at each genome's window size,
/// splits 80:20 (Sec. III-D1), trains under the budget and reports
/// validation accuracy + parameter count.
#[derive(Debug)]
pub struct EegEvaluator {
    data: PreparedData,
    budget: TrainBudget,
    /// Subject held out from fitness evaluation entirely (LOSO test set).
    held_out: Option<usize>,
    /// When set, every candidate trains under [`fair_budget`] at this many
    /// total FLOPs.
    flop_budget: Option<f64>,
    /// Pool for the parallel training stages of each candidate.
    pool: Arc<ExecPool>,
}

impl EegEvaluator {
    /// Creates the evaluator, training candidates on the process-wide
    /// [`exec::shared`] pool.
    #[must_use]
    pub fn new(data: PreparedData, budget: TrainBudget, held_out: Option<usize>) -> Self {
        Self {
            data,
            budget,
            held_out,
            flop_budget: None,
            pool: exec::shared(),
        }
    }

    /// Enables fair-compute budgeting (see [`fair_budget`]).
    #[must_use]
    pub fn with_flop_budget(mut self, flops: f64) -> Self {
        self.flop_budget = Some(flops);
        self
    }

    /// Pins the parallel training stages to an explicit pool.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<ExecPool>) -> Self {
        self.pool = pool;
        self
    }

    /// The prepared data backing this evaluator.
    #[must_use]
    pub fn data(&self) -> &PreparedData {
        &self.data
    }
}

impl Evaluator for EegEvaluator {
    fn evaluate(&self, genome: &Genome, seed: u64) -> EvalResult {
        let window = genome.window();
        let result = (|| -> Result<EvalResult> {
            let all = self.data.windows(window, self.budget.step)?;
            let pool: Vec<LabeledWindow> = match self.held_out {
                Some(held) => all.into_iter().filter(|w| w.subject != held).collect(),
                None => all,
            };
            let (train, val) = train_val_split(pool, 0.2, seed ^ 0x8020);
            let budget = match self.flop_budget {
                Some(flops) => fair_budget(genome, &self.budget, flops),
                None => self.budget,
            };
            let (artifact, accuracy) =
                train_genome_with(genome, &train, &val, &budget, seed, &self.pool)?;
            Ok(EvalResult {
                accuracy,
                params: artifact.param_count(),
            })
        })();
        // A candidate that fails to train is simply unfit, not fatal to the
        // search (mirrors NAS practice).
        result.unwrap_or(EvalResult {
            accuracy: 0.0,
            params: usize::MAX / 2,
        })
    }
}

/// Scaled-down "known-good" configs used by quick examples and tests.
#[must_use]
pub fn quick_cnn_config() -> CnnConfig {
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

/// Scaled-down transformer partner for [`quick_cnn_config`].
#[must_use]
pub fn quick_transformer_config() -> TransformerConfig {
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

/// Trains the paper's winning ensemble shape (CNN + Transformer, soft
/// voting). With a quick budget the scaled-down configs are used so tests
/// stay fast; with [`TrainBudget::full`] the paper-best configs train.
///
/// # Errors
///
/// Propagates training failures.
pub fn train_default_ensemble(
    data: &PreparedData,
    budget: &TrainBudget,
    seed: u64,
) -> Result<Ensemble> {
    train_default_ensemble_with(data, budget, seed, &exec::shared())
}

/// [`train_default_ensemble`] with the members trained **concurrently** on
/// an explicit pool, one work item per member. Every member's windowing
/// split and training seed depend only on its index, and members are
/// collected in index order, so the ensemble is bit-identical to the one
/// the sequential (1-thread) path trains.
///
/// # Errors
///
/// Propagates training failures.
pub fn train_default_ensemble_with(
    data: &PreparedData,
    budget: &TrainBudget,
    seed: u64,
    pool: &ExecPool,
) -> Result<Ensemble> {
    let quick = budget.train_cap <= TrainBudget::bench().train_cap;
    let cnn_cfg = if quick {
        quick_cnn_config()
    } else {
        CnnConfig::paper_best()
    };
    let tf_cfg = if quick {
        quick_transformer_config()
    } else {
        TransformerConfig::paper_best()
    };

    let genomes = [
        Genome::Cnn {
            config: cnn_cfg,
            optimizer: OptimizerKind::Adam { lr: 2e-3 },
        },
        Genome::Transformer {
            config: tf_cfg,
            optimizer: OptimizerKind::AdamW {
                lr: 1e-3,
                weight_decay: 1e-5,
            },
        },
    ];

    let results: Vec<Result<Member>> = pool.par_map_indexed(&genomes, |i, genome| {
        let all = data.windows(genome.window(), budget.step)?;
        let (train, val) = train_val_split(all, 0.2, seed ^ (i as u64 + 1));
        let (artifact, _) = train_genome_with(genome, &train, &val, budget, seed + i as u64, pool)?;
        Ok(artifact.into_member())
    });
    let members = results.into_iter().collect::<Result<Vec<Member>>>()?;
    Ok(Ensemble::new(members, Voting::Soft))
}

/// Leave-one-subject-out accuracies for one genome: each subject in turn is
/// the unseen test set (Sec. III-D1).
///
/// # Errors
///
/// Propagates training failures.
pub fn loso_accuracies(
    data: &PreparedData,
    genome: &Genome,
    budget: &TrainBudget,
    seed: u64,
) -> Result<Vec<f64>> {
    loso_accuracies_with(data, genome, budget, seed, &exec::shared())
}

/// [`loso_accuracies`] with the folds trained **concurrently** on an
/// explicit pool, one work item per held-out subject. Each fold's split
/// and training seed are independent of scheduling, and accuracies are
/// collected in subject order, so the result is bit-identical to the
/// sequential path.
///
/// # Errors
///
/// Propagates training failures.
pub fn loso_accuracies_with(
    data: &PreparedData,
    genome: &Genome,
    budget: &TrainBudget,
    seed: u64,
    pool: &ExecPool,
) -> Result<Vec<f64>> {
    pool.par_map_range(0..data.study.subjects(), |subject| {
        let (train_pool, test) = data.loso(subject, genome.window(), budget.step)?;
        let (train, val) = train_val_split(train_pool, 0.2, seed ^ 0xAB);
        let (artifact, _) = train_genome_with(genome, &train, &val, budget, seed, pool)?;
        let test = cap(&test, budget.val_cap);
        let correct = test
            .iter()
            .filter(|w| artifact.predict(&w.data, CHANNELS) == w.label.label())
            .count();
        Ok(correct as f64 / test.len().max(1) as f64)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_data() -> PreparedData {
        DatasetBuilder::new(Protocol::quick(), 2, 11).build().unwrap()
    }

    #[test]
    fn dataset_builds_and_is_normalized() {
        let data = quick_data();
        assert_eq!(data.study.subjects(), 2);
        // Normalized: per-channel std ≈ 1.
        let rec = &data.study.recordings[0];
        let row = rec.data.channel(0);
        let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn cnn_genome_trains_above_chance() {
        let data = quick_data();
        let genome = Genome::Cnn {
            config: quick_cnn_config(),
            optimizer: OptimizerKind::Adam { lr: 2e-3 },
        };
        let all = data.windows(100, 50).unwrap();
        let (train, val) = train_val_split(all, 0.2, 3);
        let (artifact, acc) =
            train_genome(&genome, &train, &val, &TrainBudget::quick(), 5).unwrap();
        assert!(acc > 0.4, "accuracy {acc} barely above chance");
        assert!(artifact.param_count() > 100);
    }

    #[test]
    fn forest_genome_trains_above_chance() {
        let data = quick_data();
        let genome = Genome::Forest {
            config: ml::forest::ForestConfig {
                n_estimators: 50,
                max_depth: Some(12),
                min_samples_split: 4,
                classes: 3,
                seed: 1,
            },
            window: 100,
        };
        let all = data.windows(100, 50).unwrap();
        let (train, val) = train_val_split(all, 0.2, 3);
        let (_, acc) = train_genome(&genome, &train, &val, &TrainBudget::quick(), 5).unwrap();
        assert!(acc > 0.4, "forest accuracy {acc}");
    }

    #[test]
    fn evaluator_is_usable_by_the_search() {
        let data = quick_data();
        let eval = EegEvaluator::new(data, TrainBudget::quick(), None);
        let genome = Genome::Cnn {
            config: quick_cnn_config(),
            optimizer: OptimizerKind::Adam { lr: 2e-3 },
        };
        let r = eval.evaluate(&genome, 1);
        assert!(r.accuracy > 0.0 && r.params > 0);
    }

    #[test]
    fn default_ensemble_trains() {
        let data = quick_data();
        let ensemble = train_default_ensemble(&data, &TrainBudget::quick(), 2).unwrap();
        assert_eq!(ensemble.len(), 2);
        assert!(ensemble.window() >= 100);
    }
}
