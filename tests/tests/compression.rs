//! Integration: training → compilation → compression, checking the Fig. 12
//! qualitative claims on real (synthetic-EEG-trained) models.

use cognitive_arm::eval::{train_genome, quick_cnn_config, TrainBudget};
use eeg::dataset::train_val_split;
use evo::Genome;
use integration_tests::quick_data;
use ml::compress::{measured_sparsity, prune_global, quantize, storage_bytes, QuantMode};
use ml::ensemble::Member;
use ml::infer::InferModel;
use ml::optim::OptimizerKind;

fn trained_cnn() -> (InferModel, Vec<eeg::types::LabeledWindow>) {
    let data = quick_data(13);
    let genome = Genome::Cnn {
        config: quick_cnn_config(),
        optimizer: OptimizerKind::Adam { lr: 3e-3 },
    };
    let all = data.windows(100, 25).expect("windows cut");
    let (train, val) = train_val_split(all, 0.25, 1);
    let (member, acc) =
        train_genome(&genome, &train, &val, &TrainBudget::quick(), 3).expect("trains");
    assert!(acc > 0.6, "base model too weak for the test: {acc}");
    let Member::Net(m) = member else {
        unreachable!("cnn genome")
    };
    (m, val)
}

fn accuracy(m: &InferModel, val: &[eeg::types::LabeledWindow]) -> f64 {
    let correct = val
        .iter()
        .filter(|w| m.predict(&w.data) == w.label.label())
        .count();
    correct as f64 / val.len() as f64
}

#[test]
fn moderate_pruning_preserves_accuracy() {
    let (dense, val) = trained_cnn();
    let dense_acc = accuracy(&dense, &val);
    for ratio in [0.3, 0.5, 0.7] {
        let mut pruned = dense.clone();
        prune_global(&mut pruned, ratio);
        let s = measured_sparsity(&pruned);
        assert!((s - ratio).abs() < 0.05, "sparsity {s} for ratio {ratio}");
        let acc = accuracy(&pruned, &val);
        assert!(
            acc > dense_acc - 0.15,
            "pruning {ratio} dropped accuracy {dense_acc} -> {acc}"
        );
    }
}

#[test]
fn extreme_pruning_hurts_more_than_moderate() {
    let (dense, val) = trained_cnn();
    let mut p70 = dense.clone();
    prune_global(&mut p70, 0.7);
    let mut p90 = dense.clone();
    prune_global(&mut p90, 0.9);
    // Not strictly monotone on every seed, but 90% must not beat 70% by a
    // margin; and parameter counts must order strictly.
    assert!(p90.param_count() < p70.param_count());
    assert!(accuracy(&p90, &val) <= accuracy(&p70, &val) + 0.05);
}

#[test]
fn global_int8_collapses_calibrated_survives() {
    let (dense, val) = trained_cnn();
    let dense_acc = accuracy(&dense, &val);

    let mut calibrated = dense.clone();
    quantize(&mut calibrated, QuantMode::Calibrated).unwrap();
    let cal_acc = accuracy(&calibrated, &val);
    assert!(
        cal_acc > dense_acc - 0.1,
        "calibrated int8 should track dense: {dense_acc} -> {cal_acc}"
    );

    let mut faithful = dense.clone();
    quantize(&mut faithful, QuantMode::GlobalFaithful).unwrap();
    let faith_acc = accuracy(&faithful, &val);
    assert!(
        faith_acc <= cal_acc,
        "global-scale int8 ({faith_acc}) should not beat calibrated ({cal_acc})"
    );
    // Storage shrinks ~4x either way.
    assert!(storage_bytes(&faithful) * 3 < storage_bytes(&dense));
}

#[test]
fn compressed_models_stay_deterministic() {
    let (dense, _) = trained_cnn();
    let mut a = dense.clone();
    let mut b = dense.clone();
    prune_global(&mut a, 0.5);
    prune_global(&mut b, 0.5);
    let w: Vec<f32> = (0..16 * 100).map(|i| (i as f32 * 0.01).sin()).collect();
    assert_eq!(a.predict_logits(&w), b.predict_logits(&w));
}
