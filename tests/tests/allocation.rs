//! Allocation-freeness of the steady-state label tick, enforced with a
//! counting global allocator.
//!
//! The 15 Hz classify-actuate loop is the hottest path in the system;
//! PR 5 rebuilt it so that — once warm — a label tick performs **zero
//! heap allocations** on a 1-thread pool: frames drain without a chunk,
//! the causal filter runs in place, the window flattens into a reused
//! buffer, every ensemble member classifies inside its preallocated
//! scratch lane, and actuation reuses its command buffer.
//!
//! Counting is thread-local, so the assertions hold regardless of what
//! other test threads do; the pool under test is explicitly 1-thread, so
//! all work runs inline on the counting thread (CI's `COGARM_THREADS=4`
//! pass exercises the same code through the determinism suites — the
//! multi-thread pool's job dispatch may allocate, which is why the
//! allocation *contract* is stated at one thread).
//!
//! The streaming session's wire stage (outlet → transport → inlet →
//! dejitter) recycles payload buffers through a packet pool, so the
//! zero-allocation contract now covers the **full** streaming tick:
//! board drain → pooled outlet push → transport → inlet pull → dejitter
//! ring → filter → window → classify → actuate
//! (`full_streaming_tick_is_allocation_free_once_warm` below).
//!
//! The allocator also counts the bytes each event asks for, so a test can
//! hold a tick that does allocate to a fixed budget: a `SessionManager`
//! tick allocates its result vectors, and churn must not grow them
//! (`manager_tick_allocations_do_not_grow_with_churn` below).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use arm::controller::{Controller, ControllerConfig};
use arm::safety::{SafetyConfig, SafetyGate};
use cognitive_arm::pipeline::{
    CognitiveArm, InferenceHead, LatencyReport, PipelineConfig, SessionTrace,
};
use eeg::types::Action;
use eeg::CHANNELS;
use exec::ExecPool;
use integration_tests::{quick_data, quick_trained, window_forest, FOREST_WINDOW};
use ml::ensemble::{Ensemble, EnsembleScratch, ForestClassifier, Member, Voting};
use ml::forest::ForestConfig;
use ml::models::CLASSES;
use serve::{SessionManager, SessionSpec};
use stream::clock::SimClock;
use stream::inlet::{Inlet, ReceivedSample};
use stream::transport::{Transport, TransportParams};

/// Counts allocator entries (alloc/realloc/alloc_zeroed) on the current
/// thread, and the bytes they ask for (a realloc counts its new size).
/// `try_with` keeps TLS teardown safe.
struct CountingAllocator;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

fn events() -> u64 {
    ALLOC_EVENTS.try_with(Cell::get).unwrap_or(0)
}

fn bytes() -> u64 {
    ALLOC_BYTES.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: delegates to `System`; the counters never allocate (const-init
// thread-local `Cell`s).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many allocation events it performed on this
/// thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = events();
    f();
    events() - before
}

/// Runs `f` and returns `(events, bytes)` it allocated on this thread.
fn count_alloc_bytes(f: impl FnOnce()) -> (u64, u64) {
    let (events_before, bytes_before) = (events(), bytes());
    f();
    (events() - events_before, bytes() - bytes_before)
}

#[test]
fn monolithic_loop_is_allocation_free_once_warm() {
    let artifacts = quick_trained(21, 21);
    let mut system = CognitiveArm::with_pool(
        PipelineConfig::default(),
        artifacts.ensemble.clone(),
        21,
        Arc::new(ExecPool::new(1)),
    );
    system.set_normalization(artifacts.data.zscores[0].clone());
    system.set_subject_action(Action::Right);

    // One trace with capacity for everything this test runs.
    let mut trace = SessionTrace::default();
    trace.labels.reserve(4096);
    trace.joints.reserve(4096);

    // Warm-up: fills the sliding window, grows the flat/command buffers
    // to their steady-state capacities, touches every member's scratch.
    system.run_into(2.0, &mut trace).expect("warm-up runs");

    // Steady state: ~39 label ticks (125 Hz / label_every=8 over 2.5 s),
    // each draining samples, filtering, flattening, classifying both
    // ensemble members and actuating — with zero heap allocations.
    let allocs = count_allocs(|| {
        system.run_into(2.5, &mut trace).expect("measured run");
    });
    assert!(
        !trace.labels.is_empty(),
        "measured segment produced no labels"
    );
    assert_eq!(
        allocs, 0,
        "steady-state monolithic label ticks allocated {allocs} times"
    );
}

#[test]
fn label_tick_head_is_allocation_free_once_warm() {
    // The classify → actuate → record step in isolation — the exact code
    // both the monolithic loop and the streaming session run per label. Driven with alternating windows so the controller actually
    // emits servo frames (the debounce streak builds and moves joints),
    // proving the command/decode buffers are warm too.
    let artifacts = quick_trained(21, 21);
    let pool = ExecPool::new(1);
    let controller = Controller::new(
        ControllerConfig::default(),
        SafetyGate::new(SafetyConfig::default()),
    );
    let mut head = InferenceHead::new(artifacts.ensemble.clone(), controller);
    let mut trace = SessionTrace::default();
    trace.labels.reserve(512);
    trace.joints.reserve(512);
    let mut latency = LatencyReport::default();

    let window_len = CHANNELS * head.ensemble().window();
    let windows: Vec<Vec<f32>> = (0..4)
        .map(|k| {
            (0..window_len)
                .map(|i| ((i + k * 37) as f32 * 0.37).sin())
                .collect()
        })
        .collect();

    // Warm pass over the same windows the measurement replays.
    for (i, w) in windows.iter().cycle().take(16).enumerate() {
        head.step(w, &pool, i as f64, 8, &mut trace, &mut latency)
            .expect("warm step");
    }
    let allocs = count_allocs(|| {
        for (i, w) in windows.iter().cycle().take(16).enumerate() {
            head.step(w, &pool, 100.0 + i as f64, 8, &mut trace, &mut latency)
                .expect("measured step");
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state label ticks allocated {allocs} times"
    );
}

#[test]
fn forest_label_tick_is_allocation_free_once_warm() {
    // The paper's forest family serves through its own member path — the
    // window tail, the Table III features, the compiled lockstep node
    // table — and keeps the same contract as the networks above.
    let data = quick_data(21);
    let config = ForestConfig {
        n_estimators: 27,
        seed: 21,
        ..ForestConfig::paper_best()
    };
    let forest = window_forest(&data, config, &ExecPool::new(1));
    let ensemble = Ensemble::new(
        vec![Member::Forest(ForestClassifier::new(forest, FOREST_WINDOW))],
        Voting::Soft,
    );

    let pool = ExecPool::new(1);
    let controller = Controller::new(
        ControllerConfig::default(),
        SafetyGate::new(SafetyConfig::default()),
    );
    let mut head = InferenceHead::new(ensemble, controller);
    let mut trace = SessionTrace::default();
    trace.labels.reserve(512);
    trace.joints.reserve(512);
    let mut latency = LatencyReport::default();
    // Real windows of every class, so the vote and the controller move.
    let windows = data.windows(FOREST_WINDOW, 10).expect("windows");
    let ticks: Vec<&[f32]> = windows
        .iter()
        .step_by(windows.len() / 8)
        .map(|w| w.data.as_slice())
        .collect();

    for (i, w) in ticks.iter().cycle().take(16).enumerate() {
        head.step(w, &pool, i as f64, 8, &mut trace, &mut latency)
            .expect("warm step");
    }
    let allocs = count_allocs(|| {
        for (i, w) in ticks.iter().cycle().take(16).enumerate() {
            head.step(w, &pool, 100.0 + i as f64, 8, &mut trace, &mut latency)
                .expect("measured step");
        }
    });
    let voted: std::collections::BTreeSet<usize> = trace.labels.iter().map(|l| l.label).collect();
    assert!(voted.len() > 1, "the forest only ever voted {voted:?}");
    assert_eq!(
        allocs, 0,
        "steady-state forest label ticks allocated {allocs} times"
    );
}

#[test]
fn compressed_label_tick_is_allocation_free_once_warm() {
    // PR 9: compressed models run real execution kernels (CSC/hybrid
    // sparse streaming, batch-stacked int8 GEMM) and those paths keep the
    // zero-allocation contract. Execution formats compile once during
    // warm-up (shared per-matrix caches), and the quantization/transpose
    // scratch in `ExecScratch` is grow-only — so warm compressed label
    // ticks allocate exactly as much as dense ones: nothing.
    for variant in ["pruned_70", "int8_calibrated"] {
        let artifacts = quick_trained(21, 21);
        let mut ensemble = artifacts.ensemble.clone();
        match variant {
            "pruned_70" => {
                ensemble.visit_net_models_mut(|m| ml::compress::prune_global(m, 0.7));
            }
            _ => ensemble.visit_net_models_mut(|m| {
                ml::compress::quantize(m, ml::compress::QuantMode::Calibrated)
                    .expect("dense model quantizes");
            }),
        }
        ensemble.precompile_exec();

        let pool = ExecPool::new(1);
        let controller = Controller::new(
            ControllerConfig::default(),
            SafetyGate::new(SafetyConfig::default()),
        );
        let mut head = InferenceHead::new(ensemble, controller);
        let mut trace = SessionTrace::default();
        trace.labels.reserve(512);
        trace.joints.reserve(512);
        let mut latency = LatencyReport::default();

        let window_len = CHANNELS * head.ensemble().window();
        let windows: Vec<Vec<f32>> = (0..4)
            .map(|k| {
                (0..window_len)
                    .map(|i| ((i + k * 37) as f32 * 0.43).sin())
                    .collect()
            })
            .collect();

        for (i, w) in windows.iter().cycle().take(16).enumerate() {
            head.step(w, &pool, i as f64, 8, &mut trace, &mut latency)
                .expect("warm step");
        }
        let allocs = count_allocs(|| {
            for (i, w) in windows.iter().cycle().take(16).enumerate() {
                head.step(w, &pool, 100.0 + i as f64, 8, &mut trace, &mut latency)
                    .expect("measured step");
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state {variant} label ticks allocated {allocs} times"
        );
    }
}

#[test]
fn full_streaming_tick_is_allocation_free_once_warm() {
    // The tentpole contract: an entire steady-state streaming tick —
    // board drain → pooled payload → outlet push → transport → inlet
    // pull → dejitter ring → causal filter → sliding window → batched
    // classify → actuate → trace — performs zero heap allocations on a
    // 1-thread pool. The packet pool recycles payload vectors through
    // the wire, the dejitter ring has grown to the wire's worst observed
    // reorder distance, and everything downstream was already
    // allocation-free.
    let artifacts = quick_trained(21, 21);
    let spec = SessionSpec::new(PipelineConfig::default(), artifacts.ensemble.clone(), 21)
        .with_normalization(artifacts.data.zscores[0].clone())
        .with_action(Action::Right);
    let mut session = spec
        .into_session(Arc::new(ExecPool::new(1)))
        .expect("session assembles");

    let mut trace = SessionTrace::default();
    trace.labels.reserve(4096);
    trace.joints.reserve(4096);

    // Warm-up: grows the packet pool to the wire's in-flight depth, the
    // dejitter ring to its worst reorder distance, and every downstream
    // buffer to steady-state capacity. Longer than the measured segment
    // so per-segment scratch (label-period bounds) is covered too.
    session.run_into(3.0, &mut trace).expect("warm-up runs");
    let (allocated_warm, _) = session.pool_stats();
    assert!(allocated_warm > 0, "pool never filled during warm-up");

    let allocs = count_allocs(|| {
        session.run_into(2.0, &mut trace).expect("measured run");
    });
    assert!(
        !trace.labels.is_empty(),
        "measured segment produced no labels"
    );
    assert_eq!(
        allocs, 0,
        "steady-state full streaming ticks allocated {allocs} times"
    );
    let (allocated_after, reused) = session.pool_stats();
    assert_eq!(
        allocated_after, allocated_warm,
        "measured segment allocated fresh payload buffers"
    );
    assert!(reused > 0, "pool was never exercised");
}

#[test]
fn manager_tick_allocations_do_not_grow_with_churn() {
    // A manager tick allocates its per-session results, and nothing else
    // may scale with the sessions served: a warm one-period tick of a
    // batch and a streaming session asks for the same allocations after
    // 500 connect/disconnect cycles of a third session as before them.
    let artifacts = quick_trained(21, 21);
    let spec = |subject: u64| {
        SessionSpec::new(
            PipelineConfig::default(),
            artifacts.ensemble.clone(),
            subject,
        )
        .with_normalization(artifacts.data.zscores[0].clone())
        .with_action(Action::Right)
    };
    let mut manager = SessionManager::new(Arc::new(ExecPool::new(1)));
    manager.add_session(spec(21)).expect("admit");
    manager.add_streaming_session(spec(22)).expect("admit");
    // Past window fill, so every measured tick labels both sessions.
    manager.run_for(2.0).expect("warm-up runs");

    let tick = |manager: &mut SessionManager| {
        count_alloc_bytes(|| {
            let results = manager.run_for_each(0.064).expect("tick runs");
            assert!(
                results
                    .iter()
                    .all(|r| r.as_ref().is_ok_and(|t| t.labels.len() == 1)),
                "every session labels once per tick"
            );
        })
    };
    let before = tick(&mut manager);
    for _ in 0..500 {
        let id = manager.add_session(spec(23)).expect("admit");
        manager.remove_session(id).expect("remove");
    }
    let after = tick(&mut manager);
    assert_eq!(before, after, "(events, bytes) of one tick grew with churn");
}

#[test]
fn wire_drain_is_allocation_free_once_warm() {
    // The receiving half of the wire — transport poll + inlet pull — used
    // to allocate two fresh vectors per drain. `poll_into`/`pull_into`
    // partition into persistent scratch and move payloads straight
    // through, so once the buffers have grown, draining a burst performs
    // zero heap allocations. (Sending still allocates one payload vector
    // per packet by design — it models a network — which is why the sends
    // sit outside the measured region.)
    let mut transport = Transport::new(TransportParams::lsl(), 9);
    let mut inlet = Inlet::new(SimClock::aligned());
    let mut got: Vec<ReceivedSample> = Vec::new();
    let burst = |transport: &mut Transport, base: f64| {
        for i in 0..64 {
            let t = base + f64::from(i) * 0.008;
            transport.send(vec![0.5; CHANNELS], t, t);
        }
    };

    // Two warm rounds: the first grows the drain buffers, the second
    // exercises the swapped partition scratch too.
    for round in 0..2 {
        burst(&mut transport, f64::from(round));
        got.clear();
        inlet.pull_into(&mut transport, f64::INFINITY, &mut got);
    }

    burst(&mut transport, 10.0);
    let allocs = count_allocs(|| {
        got.clear();
        inlet.pull_into(&mut transport, f64::INFINITY, &mut got);
    });
    assert!(!got.is_empty(), "measured drain delivered nothing");
    assert_eq!(allocs, 0, "steady-state wire drain allocated {allocs} times");
}

#[test]
fn batched_ensemble_call_is_allocation_free_once_warm() {
    // The serving micro-batcher's per-tick call: 16 windows, one batched
    // ensemble classification into a warm scratch arena.
    let artifacts = quick_trained(21, 21);
    let ensemble = &artifacts.ensemble;
    let pool = ExecPool::new(1);
    let mut scratch = EnsembleScratch::new(ensemble);
    let batch = 16;
    let per_window = CHANNELS * ensemble.window();
    let windows: Vec<f32> = (0..batch * per_window)
        .map(|i| (i as f32 * 0.11).cos())
        .collect();
    let mut out = vec![0.0f32; batch * CLASSES];

    // Warm-up grows the scratch to batch capacity and the lane buffers to
    // their steady sizes.
    ensemble.predict_batch_into(&windows, batch, CHANNELS, &pool, &mut scratch, &mut out);
    let allocs = count_allocs(|| {
        ensemble.predict_batch_into(&windows, batch, CHANNELS, &pool, &mut scratch, &mut out);
    });
    assert_eq!(
        allocs, 0,
        "warm batched inference allocated {allocs} times"
    );
}

#[test]
fn filter_bank_tick_is_allocation_free() {
    // The compiled filter bank advances a full label period (8 frames ×
    // 16 channels) through the band-pass + notch cascade without a
    // single allocation — the bank is compiled at build, state is fixed
    // at `sections × lanes`, and dispatch was resolved up front. No
    // warm-up needed: even the first frame must be clean.
    let bp = dsp::butterworth::Butterworth::bandpass(9, 0.5, 45.0, 125.0).expect("bandpass");
    let nt = dsp::notch::notch_filter(50.0, 30.0, 125.0).expect("notch");
    let mut bank = dsp::filterbank::FilterBank::new(CHANNELS, &[&bp, &nt]);
    let mut frame = [0.25f32; CHANNELS];
    let allocs = count_allocs(|| {
        for i in 0..8 {
            frame[i % CHANNELS] = i as f32 * 0.5 - 1.0;
            bank.step_frame(&mut frame);
        }
    });
    assert_eq!(allocs, 0, "filter bank tick allocated {allocs} times");
}

#[test]
fn zero_phase_rerun_is_allocation_free_once_warm() {
    // Re-running offline chains over same-shape recordings must not
    // allocate: `filtfilt_into` draws all working memory from its
    // scratch, and the bank-backed `ZeroPhaseBank` reuses its
    // interleaved extended block.
    let bp = dsp::butterworth::Butterworth::bandpass(9, 0.5, 45.0, 125.0).expect("bandpass");
    let signal: Vec<f32> = (0..400).map(|i| (i as f32 * 0.17).sin() * 12.0).collect();

    let mut out = Vec::new();
    let mut scratch = dsp::filtfilt::FiltfiltScratch::default();
    dsp::filtfilt::filtfilt_into(&bp, &signal, &mut out, &mut scratch).expect("warm-up");
    let allocs = count_allocs(|| {
        dsp::filtfilt::filtfilt_into(&bp, &signal, &mut out, &mut scratch).expect("re-run");
    });
    assert_eq!(allocs, 0, "warm filtfilt_into allocated {allocs} times");

    let mut block: Vec<f32> = (0..4 * 400).map(|i| (i as f32 * 0.07).cos() * 9.0).collect();
    let mut zp = dsp::filtfilt::ZeroPhaseBank::new(&bp, 4);
    zp.apply_channel_major(&mut block, 400).expect("warm-up");
    let allocs = count_allocs(|| {
        zp.apply_channel_major(&mut block, 400).expect("re-run");
    });
    assert_eq!(allocs, 0, "warm zero-phase bank allocated {allocs} times");
}
