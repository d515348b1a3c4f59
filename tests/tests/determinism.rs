//! Determinism regression: the whole stack (synthetic subject, training,
//! closed-loop pipeline) is seeded, so two identically-seeded runs must be
//! bit-for-bit identical — the verification discipline the repo's
//! benchmarks rely on. Since every parallel path runs on the deterministic
//! `exec` substrate, the same holds across thread counts: a 4-worker run
//! must reproduce a single-threaded run bit for bit.
//!
//! These tests deliberately bypass the shared trained-artifact cache —
//! retraining from scratch is the point.

use std::sync::Arc;

use cognitive_arm::eval::{train_default_ensemble, DatasetBuilder, TrainBudget};
use cognitive_arm::pipeline::{CognitiveArm, PipelineConfig, SessionTrace};
use eeg::dataset::Protocol;
use eeg::types::Action;
use exec::ExecPool;
use ml::forest::{ForestConfig, RandomForest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn seeded_trace(seed: u64) -> SessionTrace {
    seeded_trace_with_threads(seed, None)
}

/// Builds and runs the full stack; `threads` pins every parallel stage
/// (offline filtering, ensemble inference) to an explicit pool size.
fn seeded_trace_with_threads(seed: u64, threads: Option<usize>) -> SessionTrace {
    let pool = threads.map_or_else(exec::shared, |n| Arc::new(ExecPool::new(n)));
    let data = DatasetBuilder::new(Protocol::quick(), 1, seed)
        .with_pool(Arc::clone(&pool))
        .build()
        .expect("dataset builds");
    let ensemble =
        train_default_ensemble(&data, &TrainBudget::quick(), seed).expect("ensemble trains");
    let mut system = CognitiveArm::with_pool(PipelineConfig::default(), ensemble, seed, pool);
    system.set_normalization(data.zscores[0].clone());
    system.set_subject_action(Action::Right);
    system.run_for(3.0).expect("runs")
}

fn assert_identical(a: &SessionTrace, b: &SessionTrace) {
    assert_eq!(a.labels.len(), b.labels.len(), "label counts differ");
    for (x, y) in a.labels.iter().zip(&b.labels) {
        assert!(
            x.t.to_bits() == y.t.to_bits() && x.label == y.label,
            "label trace diverged: ({}, {}) vs ({}, {})",
            x.t,
            x.label,
            y.t,
            y.label
        );
    }
    assert_eq!(a.joints.len(), b.joints.len(), "joint sample counts differ");
    for (x, y) in a.joints.iter().zip(&b.joints) {
        assert!(
            x.0.to_bits() == y.0.to_bits()
                && x.1.to_bits() == y.1.to_bits()
                && x.2.to_bits() == y.2.to_bits()
                && x.3.to_bits() == y.3.to_bits(),
            "joint trajectory diverged: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn same_seed_produces_identical_traces() {
    let first = seeded_trace(1234);
    let second = seeded_trace(1234);
    assert!(!first.labels.is_empty(), "run produced no labels");
    assert!(!first.joints.is_empty(), "run produced no joint samples");
    assert_identical(&first, &second);
}

#[test]
fn thread_count_does_not_change_the_label_trace() {
    let single = seeded_trace_with_threads(1234, Some(1));
    let four = seeded_trace_with_threads(1234, Some(4));
    assert!(!single.labels.is_empty(), "run produced no labels");
    assert_identical(&single, &four);
}

#[test]
fn thread_count_does_not_change_the_forest_model() {
    // Separable toy rows; the shape training sees after feature extraction.
    let mut rng = StdRng::seed_from_u64(31);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..200 {
        let row: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        ys.push(usize::from(row[0] > 0.0) + usize::from(row[1] > 0.0));
        xs.push(row);
    }
    let config = ForestConfig {
        n_estimators: 24,
        max_depth: Some(8),
        min_samples_split: 2,
        classes: 3,
        seed: 77,
    };
    let single = RandomForest::fit_with(config, &xs, &ys, &ExecPool::new(1)).expect("fits");
    let four = RandomForest::fit_with(config, &xs, &ys, &ExecPool::new(4)).expect("fits");
    // PartialEq covers every split threshold and leaf distribution —
    // tree-for-tree, node-for-node equality, not just summary stats.
    assert_eq!(single, four, "forest models diverged across thread counts");
    assert_eq!(
        single.predict_batch(&xs, &ExecPool::new(4)),
        four.predict_batch(&xs, &ExecPool::new(1)),
        "batched predictions diverged across thread counts"
    );
}

#[test]
fn different_seeds_produce_different_subjects() {
    // Guard against the determinism test passing vacuously (e.g. a constant
    // trace): distinct seeds must actually change the joint trajectory.
    let a = seeded_trace(1234);
    let b = seeded_trace(4321);
    let identical = a.joints.len() == b.joints.len()
        && a.joints
            .iter()
            .zip(&b.joints)
            .all(|(x, y)| x.1.to_bits() == y.1.to_bits() && x.2.to_bits() == y.2.to_bits());
    assert!(!identical, "seeds 1234 and 4321 produced identical trajectories");
}
