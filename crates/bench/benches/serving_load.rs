//! Session-churn load generator: a ≥64-session fleet under continuous
//! connect/disconnect churn and an adversarial wire, scored on the two
//! numbers a serving deployment is provisioned by — **sessions/sec**
//! (how many real-time sessions the engine sustains) and **p99 tick
//! latency** (the scheduling quantum's tail, which bounds worst-case
//! actuation lag).
//!
//! The fleet is the deployment shape: one shared trained artifact,
//! `FLEET` (64) micro-batched sessions plus a squad of streaming sessions
//! whose wire is adversarial (burst jitter above the sample cadence, 5%
//! loss with retransmission); both shapes join one micro-batch group and
//! share its batched ensemble call. Every measured tick advances the whole
//! fleet one label period; every cycle also disconnects the oldest session
//! and admits a fresh subject in its place, so `CYCLES` (2000) cycles
//! exercise thousands of connect/disconnect transitions through group
//! recomposition (a leaving session is removed from the group that owns
//! it and leaves nothing behind). Determinism is not measured here
//! — `tests/tests/serving.rs` proves churn and the adversarial wire are
//! bit-invisible; this bench prices them.
//!
//! Standalone `harness = false` bench; its rates and percentile tails go
//! to `BENCH_serving-load.json` through `criterion::write_values`, the
//! shim's writer for results that are not criterion timings.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use cognitive_arm::eval::{train_default_ensemble, DatasetBuilder, PreparedData, TrainBudget};
use cognitive_arm::pipeline::PipelineConfig;
use eeg::dataset::Protocol;
use eeg::types::Action;
use exec::ExecPool;
use ml::ensemble::Ensemble;
use serve::{SessionManager, SessionSpec};
use stream::transport::TransportParams;

/// One scheduling quantum: 8 samples at 125 Hz — exactly one label period,
/// the smallest segment the engine serves.
const TICK_S: f64 = 0.064;
/// Micro-batched sessions in the fleet.
const FLEET: usize = 64;
/// Streaming sessions riding the adversarial wire alongside the batch fleet.
const STREAMING: usize = 8;
/// Measured cycles: one fleet tick and one connect/disconnect each.
const CYCLES: usize = 2000;

/// Burst jitter far above the 8 ms sample cadence plus 5% loss with
/// retransmission: heavy reordering every tick (the same wire
/// `tests/tests/serving.rs` proves label-invisible).
fn adversarial_wire() -> TransportParams {
    TransportParams {
        base_latency: 0.004,
        jitter: 0.050,
        loss_prob: 0.05,
        retransmit: true,
        timestamps: true,
        overhead_bytes: 66,
    }
}

fn record(
    metrics: &mut Vec<(String, f64, &'static str)>,
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
) {
    let name = name.into();
    println!("serving-load/{name:<24} {value:>16.1} {unit}");
    metrics.push((name, value, unit));
}

fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 * p).ceil() as usize).max(1) - 1;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

fn spec(data: &PreparedData, ensemble: &Ensemble, subject: u64) -> SessionSpec {
    SessionSpec::new(PipelineConfig::default(), ensemble.clone(), subject)
        .with_normalization(data.zscores[0].clone())
        .with_action(Action::Right)
}

fn main() {
    let threads = exec::shared().threads();

    // One shared trained artifact for the whole fleet.
    let data = DatasetBuilder::new(Protocol::quick(), 1, 21)
        .build()
        .expect("quick dataset builds");
    let ensemble =
        train_default_ensemble(&data, &TrainBudget::quick(), 21).expect("quick ensemble trains");

    let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
    let mut roster: VecDeque<serve::SessionId> = VecDeque::new();
    let mut next_subject = 100u64;
    for _ in 0..FLEET {
        roster.push_back(
            manager
                .add_session(spec(&data, &ensemble, next_subject))
                .expect("batch session admits"),
        );
        next_subject += 1;
    }
    for _ in 0..STREAMING {
        roster.push_back(
            manager
                .add_streaming_session(
                    spec(&data, &ensemble, next_subject).with_wire(adversarial_wire()),
                )
                .expect("streaming session admits"),
        );
        next_subject += 1;
    }
    let live = FLEET + STREAMING;
    println!(
        "serving-load: {live} sessions ({FLEET} batched + {STREAMING} adversarial-wire \
         streaming), {CYCLES} churn cycles, {threads} pool threads, {TICK_S} s ticks"
    );

    // Warm-up: fill every window, grow packet pools and dejitter rings,
    // spawn the pool's workers.
    manager.run_for(1.0).expect("warm-up runs");

    // The measured loop. Each cycle: one fleet tick (timed), then one
    // connect/disconnect transition (timed separately — admission cost is
    // real but must not pollute the tick tail).
    let mut tick_ns: Vec<f64> = Vec::with_capacity(CYCLES);
    let mut churn_ns: Vec<f64> = Vec::with_capacity(CYCLES);
    let mut streaming_turn = false;
    let bench_t0 = Instant::now();
    for _ in 0..CYCLES {
        let t0 = Instant::now();
        manager.run_for(TICK_S).expect("fleet tick runs");
        tick_ns.push(t0.elapsed().as_nanos() as f64);

        let t0 = Instant::now();
        let gone = roster.pop_front().expect("roster never empties");
        manager.remove_session(gone).expect("disconnect succeeds");
        let fresh = spec(&data, &ensemble, next_subject);
        next_subject += 1;
        let id = if streaming_turn {
            manager
                .add_streaming_session(fresh.with_wire(adversarial_wire()))
                .expect("reconnect (streaming) admits")
        } else {
            manager.add_session(fresh).expect("reconnect admits")
        };
        streaming_turn = !streaming_turn;
        roster.push_back(id);
        churn_ns.push(t0.elapsed().as_nanos() as f64);
    }
    let bench_wall = bench_t0.elapsed().as_secs_f64();
    assert_eq!(manager.len(), live, "churn leaked or lost sessions");

    // Scorecard. sessions/sec divides the session-seconds the engine
    // simulated by the wall clock of the tick loop alone: how many
    // real-time sessions this host sustains at this thread count.
    let tick_wall_s: f64 = tick_ns.iter().sum::<f64>() / 1e9;
    let sessions_per_sec = (live as f64 * TICK_S * CYCLES as f64) / tick_wall_s;
    tick_ns.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite ns"));
    churn_ns.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite ns"));

    let mut metrics = Vec::new();
    record(&mut metrics, "sessions", live as f64, "count");
    record(&mut metrics, "churn_cycles", CYCLES as f64, "count");
    record(&mut metrics, "pool_threads", threads as f64, "count");
    record(&mut metrics, "sessions_per_sec", sessions_per_sec, "1/s");
    record(&mut metrics, "tick_p50_ns", percentile(&tick_ns, 0.50), "ns");
    record(&mut metrics, "tick_p99_ns", percentile(&tick_ns, 0.99), "ns");
    record(
        &mut metrics,
        "tick_max_ns",
        tick_ns.last().copied().unwrap_or(0.0),
        "ns",
    );
    record(&mut metrics, "churn_p50_ns", percentile(&churn_ns, 0.50), "ns");
    record(&mut metrics, "churn_p99_ns", percentile(&churn_ns, 0.99), "ns");
    record(&mut metrics, "bench_wall_s", bench_wall, "s");
    criterion::write_values("serving-load", &metrics);

    // Acceptance floor: the engine must at least keep the fleet real-time
    // (each session needs one simulated second per wall second), and the
    // tick tail must stay under the label period — a p99 above it means
    // actuation deadlines were missed.
    assert!(
        sessions_per_sec >= live as f64,
        "engine fell behind real time: {sessions_per_sec:.1} sessions/sec < {live} live sessions"
    );
    println!(
        "serving-load acceptance: {live} churning sessions sustained at \
         {sessions_per_sec:.0} sessions/sec"
    );
}
