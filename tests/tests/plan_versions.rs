//! The numerics contract of the one inference engine (plan **v2**,
//! stacked multi-window GEMMs):
//!
//! 1. a seeded sweep pinning how far compiled-plan outputs may sit from
//!    the training graph's, for a CNN, an LSTM and a transformer at batch
//!    sizes {1, 3, 16, 64};
//! 2. batched ensemble calls stay **bit-identical** to per-window calls at
//!    1 and 4 threads, at a batch large enough that the lanes get chunked;
//! 3. the golden label trace, locked as a committed fixture (regenerate
//!    deliberately with `COGARM_REGEN_FIXTURES=1 cargo test -q --test
//!    plan_versions`).

use std::path::PathBuf;

use eeg::CHANNELS;
use exec::ExecPool;
use integration_tests::quick_trained;
use ml::ensemble::EnsembleScratch;
use ml::infer::{compile_cnn, compile_lstm, compile_transformer, softmax_into, InferModel};
use ml::models::{CnnConfig, ConvSpec, LstmConfig, Model, PoolKind, TransformerConfig, CLASSES};
use ml::plan::{InferPlan, PlanVersion};
use ml::train::predict_proba;

/// Deterministic pseudo-EEG windows, seeded per batch so every batch size
/// sweeps different data.
fn seeded_windows(per_window: usize, batch: usize, seed: u32) -> Vec<f32> {
    (0..batch * per_window)
        .map(|i| {
            let x = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed) >> 8;
            (x as f32 / 8_388_608.0) - 1.0
        })
        .collect()
}

/// The fixture tag of the engine's numerics version. A new version makes
/// this match non-exhaustive, which is the prompt to commit its traces.
fn version_tag() -> &'static str {
    match PlanVersion::runtime_default() {
        PlanVersion::V2 => "v2",
    }
}

#[test]
fn compiled_plan_tracks_training_graph_across_batches() {
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
    }
    .build(3)
    .expect("cnn builds");
    let lstm = LstmConfig {
        hidden: 12,
        layers: 2,
        dropout: 0.0,
        window: 32,
        channels: 16,
        time_stride: 4,
    }
    .build(4)
    .expect("lstm builds");
    let tf = TransformerConfig {
        layers: 2,
        heads: 2,
        d_model: 16,
        dim_ff: 32,
        dropout: 0.0,
        window: 32,
        channels: 16,
        time_stride: 4,
    }
    .build(5)
    .expect("transformer builds");
    // The tolerances of the single-window graph checks in `ml::infer`:
    // the plan reassociates float adds (blocked dense kernel, im2col,
    // fused gates), so it tracks the graph to rounding, not bit for bit.
    let cases: [(&dyn Model, InferModel, f32); 3] = [
        (&cnn, compile_cnn(&cnn), 1e-4),
        (&lstm, compile_lstm(&lstm), 1e-4),
        (&tf, compile_transformer(&tf), 1e-3),
    ];

    for (graph, compiled, tol) in &cases {
        let mut plan = InferPlan::compile(compiled);
        let per_window = compiled.channels() * compiled.window();
        let classes = compiled.classes();
        for (bi, &batch) in [1usize, 3, 16, 64].iter().enumerate() {
            let flat = seeded_windows(per_window, batch, 0xC0A7 + bi as u32);
            let mut logits = vec![0.0f32; batch * classes];
            plan.predict_logits_into(compiled, &flat, batch, &mut logits);
            let xs: Vec<Vec<f32>> = flat.chunks(per_window).map(<[f32]>::to_vec).collect();
            let want = predict_proba(*graph, &xs, batch);
            let mut got = vec![0.0f32; classes];
            for (b, want) in want.iter().enumerate() {
                softmax_into(&logits[b * classes..(b + 1) * classes], &mut got);
                for (c, (&g, &w)) in got.iter().zip(want).enumerate() {
                    assert!(
                        (g - w).abs() <= *tol,
                        "{} batch {batch} window {b} class {c}: plan {g} vs graph {w}",
                        compiled.kind()
                    );
                }
            }
        }
    }
}

#[test]
fn batched_is_bit_identical_to_the_per_window_path_at_1_and_4_threads() {
    // Row-count invariance end to end: a batched ensemble call must
    // reproduce, bit for bit, the same windows classified one at a time —
    // at any thread count. Batch 6 on a 4-thread pool splits each member's
    // batch into several chunk lanes, so chunking is covered too. Batch 19
    // gives the narrow heads and LayerNorm 8-row lanes, lane groups that
    // straddle two windows' rows, and m % 8 tail rows.
    let artifacts = quick_trained(21, 21);
    let ensemble = &artifacts.ensemble;
    let per_window = CHANNELS * ensemble.window();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    for batch in [6usize, 19] {
        let windows = seeded_windows(per_window, batch, 0xBEEF);
        let mut per_thread_count: Vec<Vec<u32>> = Vec::new();
        for threads in [1usize, 4] {
            let pool = ExecPool::new(threads);
            let mut scratch = EnsembleScratch::new(ensemble);
            let mut probas = vec![0.0f32; batch * CLASSES];
            ensemble.predict_batch_into(
                &windows,
                batch,
                CHANNELS,
                &pool,
                &mut scratch,
                &mut probas,
            );

            let mut solo_scratch = EnsembleScratch::new(ensemble);
            for b in 0..batch {
                let mut solo = vec![0.0f32; CLASSES];
                ensemble.predict_batch_into(
                    &windows[b * per_window..(b + 1) * per_window],
                    1,
                    CHANNELS,
                    &pool,
                    &mut solo_scratch,
                    &mut solo,
                );
                assert_eq!(
                    bits(&solo),
                    bits(&probas[b * CLASSES..(b + 1) * CLASSES]),
                    "batch {batch}: window {b} drifted from the per-window path at {threads} threads"
                );
            }
            per_thread_count.push(bits(&probas));
        }
        assert_eq!(
            per_thread_count[0], per_thread_count[1],
            "batch {batch}: thread count changed the bits"
        );
    }
}

// --- golden label trace -------------------------------------------------------

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Classifies 24 real (synthetic-EEG) windows on a 1-thread pool and
/// renders the trace: one line per window, the argmax label followed by
/// every combined probability as raw f32 bits.
fn render_trace() -> String {
    let artifacts = quick_trained(21, 21);
    let ensemble = &artifacts.ensemble;
    let win = ensemble.window();
    let labeled = artifacts.data.windows(win, 25).expect("windows cut");
    let take = 24.min(labeled.len());
    let mut flat = Vec::with_capacity(take * CHANNELS * win);
    for w in labeled.iter().take(take) {
        flat.extend_from_slice(&w.data);
    }

    let pool = ExecPool::new(1);
    let mut scratch = EnsembleScratch::new(ensemble);
    let mut probas = vec![0.0f32; take * CLASSES];
    ensemble.predict_batch_into(&flat, take, CHANNELS, &pool, &mut scratch, &mut probas);

    let mut out = format!(
        "# golden label trace, plan {}: <label> <proba f32 bits, hex, per class>\n",
        version_tag()
    );
    for b in 0..take {
        let row = &probas[b * CLASSES..(b + 1) * CLASSES];
        out.push_str(&ml::ensemble::argmax(row).to_string());
        for p in row {
            out.push_str(&format!(" {:08x}", p.to_bits()));
        }
        out.push('\n');
    }
    out
}

#[test]
fn golden_label_trace_fixture_locks_the_engine() {
    let rendered = render_trace();
    let name = format!("trace_{}.txt", version_tag());
    let path = fixture_path(&name);
    if std::env::var_os("COGARM_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixtures dir")).expect("mkdir");
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {name} ({e}); run with COGARM_REGEN_FIXTURES=1")
    });
    assert_eq!(
        committed, rendered,
        "{name}: the engine no longer reproduces its committed golden trace — \
         an unversioned numerics change; add a new PlanVersion and regenerate deliberately"
    );
}
