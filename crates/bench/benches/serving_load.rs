//! Session-churn load generator: a ≥64-session fleet under continuous
//! connect/disconnect churn and an adversarial wire, scored on the two
//! numbers a serving deployment is provisioned by — **sessions/sec**
//! (how many real-time sessions the engine sustains) and **p99 tick
//! latency** (the scheduling quantum's tail, which bounds worst-case
//! actuation lag).
//!
//! The fleet is the deployment shape: one shared trained artifact,
//! `COGARM_LOAD_SESSIONS` (default 64) micro-batched sessions plus a
//! squad of streaming sessions whose wire is adversarial (burst jitter
//! above the sample cadence, 5% loss with retransmission); both shapes
//! join one micro-batch group and share its batched ensemble call. Every
//! measured tick advances the whole fleet one label period; every cycle
//! also disconnects the oldest session and admits a fresh subject in its
//! place, so `COGARM_LOAD_CYCLES` (default 2000) cycles exercise
//! thousands of connect/disconnect transitions through group
//! recomposition (a leaving session is removed from the group that owns
//! it and leaves nothing behind). Determinism is not measured here
//! — `tests/tests/serving.rs` proves churn and the adversarial wire are
//! bit-invisible; this bench prices them.
//!
//! Standalone `harness = false` bench; results are hand-written to
//! `BENCH_serving-load.json` (sessions/sec and percentile tails are not
//! criterion-shaped), honoring `COGARM_BENCH_JSON_DIR` like the shim.

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
/// Streaming sessions riding the adversarial wire alongside the batch fleet.
const STREAMING: usize = 8;

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

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn record(metrics: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    let name = name.into();
    println!("serving-load/{name:<24} {value:>16.1} {unit}");
    metrics.push(Metric { name, value, unit });
}

/// Where `BENCH_serving-load.json` lands: `COGARM_BENCH_JSON_DIR`, else
/// the repository root (two levels above this crate's manifest).
fn json_path() -> Option<std::path::PathBuf> {
    if let Some(dir) = std::env::var_os("COGARM_BENCH_JSON_DIR") {
        let dir = std::path::PathBuf::from(dir);
        let _ = std::fs::create_dir_all(&dir);
        return Some(dir.join("BENCH_serving-load.json"));
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.join("Cargo.toml")
        .exists()
        .then(|| root.join("BENCH_serving-load.json"))
}

fn write_json(metrics: &[Metric]) {
    let Some(path) = json_path() else { return };
    let mut out = String::from("{\n  \"group\": \"serving-load\",\n  \"results\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {:.1}, \"unit\": \"{}\"}}{}\n",
            m.name,
            m.value,
            m.unit,
            if i + 1 == metrics.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    let _ = std::fs::write(&path, out);
    println!("wrote {}", path.display());
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
    let fleet = env_usize("COGARM_LOAD_SESSIONS", 64).max(1);
    let cycles = env_usize("COGARM_LOAD_CYCLES", 2000).max(1);
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
    for _ in 0..fleet {
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
    let live = fleet + STREAMING;
    println!(
        "serving-load: {live} sessions ({fleet} batched + {STREAMING} adversarial-wire \
         streaming), {cycles} churn cycles, {threads} pool threads, {TICK_S} s ticks"
    );

    // Warm-up: fill every window, grow packet pools and dejitter rings,
    // spawn the pool's workers.
    manager.run_for(1.0).expect("warm-up runs");

    // The measured loop. Each cycle: one fleet tick (timed), then one
    // connect/disconnect transition (timed separately — admission cost is
    // real but must not pollute the tick tail).
    let mut tick_ns: Vec<f64> = Vec::with_capacity(cycles);
    let mut churn_ns: Vec<f64> = Vec::with_capacity(cycles);
    let mut streaming_turn = false;
    let bench_t0 = Instant::now();
    for _ in 0..cycles {
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
    let sessions_per_sec = (live as f64 * TICK_S * cycles as f64) / tick_wall_s;
    tick_ns.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite ns"));
    churn_ns.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite ns"));

    let mut metrics = Vec::new();
    record(&mut metrics, "sessions", live as f64, "count");
    record(&mut metrics, "churn_cycles", cycles as f64, "count");
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
    write_json(&metrics);

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
