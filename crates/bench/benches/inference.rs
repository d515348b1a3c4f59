//! The inference engine's scorecard: single-window latency (legacy
//! allocating path vs compiled plan), batched throughput at batch
//! 1/4/16/64, the batched-vs-sequential comparison the serving
//! micro-batcher banks on, and cold-load time through the weight image
//! (mmap + validate + decode).
//!
//! `batch_16` vs `sequential_16` is the acceptance comparison: one
//! batched tick (stacked multi-window GEMMs) against 16 solo calls on the
//! same engine, which is what 16 non-batched sessions pay per tick. The
//! ratio is what batching a serving tick buys over per-window dispatch.

use criterion::{criterion_group, criterion_main, Criterion};

use cognitive_arm::eval::{train_default_ensemble, DatasetBuilder, TrainBudget};
use eeg::dataset::Protocol;
use eeg::CHANNELS;
use ml::ensemble::EnsembleScratch;
use ml::models::CLASSES;
use model_io::SavedModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_inference(c: &mut Criterion) {
    let data = DatasetBuilder::new(Protocol::quick(), 1, 21)
        .build()
        .expect("quick dataset builds");
    let ensemble = train_default_ensemble(&data, &TrainBudget::quick(), 21)
        .expect("quick ensemble trains");
    let pool = exec::shared();
    let per_window = CHANNELS * ensemble.window();
    let mut rng = StdRng::seed_from_u64(99);
    let windows: Vec<f32> = (0..64 * per_window)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    println!(
        "ensemble: {} ({} params), window {} samples, pool {} threads",
        ensemble.name(),
        ensemble.param_count(),
        ensemble.window(),
        pool.threads()
    );

    let mut group = c.benchmark_group("inference");
    // The pre-PR5 shape: every member allocates every activation, and a
    // fresh scratch (plan compile included) per call.
    group.bench_function("single_window_legacy_alloc", |b| {
        b.iter(|| ensemble.predict_proba_with(&windows[..per_window], CHANNELS, &pool));
    });

    let mut scratch = EnsembleScratch::new(&ensemble);
    let mut out = vec![0.0f32; 64 * CLASSES];
    group.bench_function("single_window_plan", |b| {
        b.iter(|| {
            ensemble.predict_batch_into(
                &windows[..per_window],
                1,
                CHANNELS,
                &pool,
                &mut scratch,
                &mut out[..CLASSES],
            );
            out[0]
        });
    });
    // 16 windows, 16 solo dispatches: what 16 sessions pay per tick
    // without the micro-batcher.
    group.bench_function("sequential_16", |b| {
        b.iter(|| {
            for w in 0..16 {
                ensemble.predict_batch_into(
                    &windows[w * per_window..(w + 1) * per_window],
                    1,
                    CHANNELS,
                    &pool,
                    &mut scratch,
                    &mut out[..CLASSES],
                );
            }
            out[0]
        });
    });
    for batch in [1usize, 4, 16, 64] {
        group.bench_function(&format!("batch_{batch}"), |b| {
            b.iter(|| {
                ensemble.predict_batch_into(
                    &windows[..batch * per_window],
                    batch,
                    CHANNELS,
                    &pool,
                    &mut scratch,
                    &mut out[..batch * CLASSES],
                );
                out[0]
            });
        });
    }

    // Cold start through the one reader: mmap + validate + decode, with
    // aligned weight payloads borrowed from the image.
    let saved = SavedModel {
        pipeline: cognitive_arm::pipeline::PipelineConfig::default(),
        ensemble: ensemble.clone(),
        normalization: Some(data.zscores[0].clone()),
    };
    let path = std::env::temp_dir().join("bench-inference-model.cogm");
    saved.save(&path).expect("artifact saves");
    group.bench_function("cold_load_mmap", |b| {
        b.iter(|| {
            model_io::WeightImage::open(&path)
                .expect("image opens")
                .decode()
                .expect("image decodes")
        });
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
