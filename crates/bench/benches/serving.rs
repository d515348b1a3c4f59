//! Serving-engine throughput: a fleet of concurrent sessions multiplexed
//! over one persistent-worker pool, timed at 1/2/4/8 worker threads.
//!
//! Two shapes are measured — batch sessions (`SessionManager::add_session`,
//! read straight off the board) and streaming sessions
//! (`add_streaming_session`, read through the wire and dejitter); either
//! fleet is one micro-batch group whose tick advances every member and
//! makes one batched ensemble call per label period — plus an explicit
//! **sessions/sec** figure per thread count: how many simulated
//! session-seconds the engine advances per wall-clock second, divided by
//! the segment length. Outputs are bit-identical at every thread count
//! (enforced by `tests/tests/serving.rs`); only the wall-clock should move.
//! (A 1-core container shows flat numbers; scaling materializes on
//! multi-core serving hosts.)

use std::sync::Arc;
use std::time::Instant;

use cognitive_arm::eval::{train_default_ensemble, DatasetBuilder, PreparedData, TrainBudget};
use cognitive_arm::pipeline::PipelineConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use eeg::dataset::Protocol;
use eeg::types::Action;
use exec::ExecPool;
use ml::ensemble::Ensemble;
use serve::{SessionManager, SessionSpec};

const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Fleet size: the acceptance bar is ≥ 8 concurrent sessions.
const SESSIONS: u64 = 8;
/// Simulated seconds advanced per measured segment.
const SEGMENT_S: f64 = 0.5;

/// One shared trained artifact for the whole fleet (the deployment shape).
fn artifacts() -> (PreparedData, Ensemble) {
    let data = DatasetBuilder::new(Protocol::quick(), 1, 21)
        .build()
        .expect("quick dataset builds");
    let ensemble =
        train_default_ensemble(&data, &TrainBudget::quick(), 21).expect("quick ensemble trains");
    (data, ensemble)
}

fn fleet(
    threads: usize,
    streaming: bool,
    data: &PreparedData,
    ensemble: &Ensemble,
) -> SessionManager {
    let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
    for subject in 0..SESSIONS {
        let spec = SessionSpec::new(PipelineConfig::default(), ensemble.clone(), 21 + subject)
            .with_normalization(data.zscores[0].clone())
            .with_action(Action::Right);
        if streaming {
            manager
                .add_streaming_session(spec)
                .expect("admit streaming session");
        } else {
            manager.add_session(spec).expect("admit session");
        }
    }
    manager
}

fn batch_serving(c: &mut Criterion) {
    let (data, ensemble) = artifacts();
    let mut group = c.benchmark_group(&format!("serving_batch_{SESSIONS}_sessions"));
    for threads in THREADS {
        let mut manager = fleet(threads, false, &data, &ensemble);
        group.bench_function(&format!("threads_{threads}"), |b| {
            b.iter(|| manager.run_for(SEGMENT_S).expect("segment runs"))
        });
    }
    group.finish();
}

fn streaming_serving(c: &mut Criterion) {
    let (data, ensemble) = artifacts();
    let mut group = c.benchmark_group(&format!("serving_streaming_{SESSIONS}_sessions"));
    for threads in THREADS {
        let mut manager = fleet(threads, true, &data, &ensemble);
        group.bench_function(&format!("threads_{threads}"), |b| {
            b.iter(|| manager.run_for(SEGMENT_S).expect("segment runs"))
        });
    }
    group.finish();
}

/// The headline figure: sessions/sec per thread count — how many sessions
/// the engine sustains in real time (each session needs 1 simulated second
/// per wall second to keep up with its headset).
fn sessions_per_sec(_c: &mut Criterion) {
    let (data, ensemble) = artifacts();
    println!("sessions/sec ({SESSIONS} streaming sessions, 1.0 s segments):");
    for threads in THREADS {
        let mut manager = fleet(threads, true, &data, &ensemble);
        // Warm-up: fill windows and spawn pool workers.
        manager.run_for(1.0).expect("warm-up runs");
        let t0 = Instant::now();
        manager.run_for(1.0).expect("measured segment runs");
        let wall = t0.elapsed().as_secs_f64();
        let rate = SESSIONS as f64 / wall;
        println!("  threads_{threads}: {rate:.1} sessions/sec ({wall:.3} s wall for {SESSIONS} session-seconds)");
    }
}

criterion_group!(serving, batch_serving, streaming_serving, sessions_per_sec);
criterion_main!(serving);
