//! The filter-engine bit-identity contract.
//!
//! PR 10 replaces the per-channel scalar filter walk (`StreamingFilter`
//! per channel, one sample at a time) with `dsp::filterbank::FilterBank`,
//! a compiled channel-interleaved execution form advanced by SIMD lanes.
//! The swap must be **bit-invisible**: no label, joint angle, or filtered
//! sample may move by a single bit when the engine underneath changes, at
//! any thread count and with SIMD dispatch forced off
//! (`COGARM_NO_SIMD=1`). This suite locks that four ways:
//!
//! 1. golden label traces for the monolithic loop and the streaming
//!    session, committed as fixtures *before* the engine swap, plus the
//!    streaming session over an adversarial (jittery, lossy,
//!    retransmitting) wire (regenerate deliberately with
//!    `COGARM_REGEN_FIXTURES=1 cargo test -q --test filters`);
//! 2. a golden filtered-sample trace straight off the causal chain — the
//!    rawest view of the filter bits, before windowing or inference can
//!    coarsen a discrepancy into an unchanged label;
//! 3. a golden zero-phase (filtfilt) trace off the offline chain, at 1
//!    and 4 threads;
//! 4. thread-count invariance in-test: a 4-thread pool must reproduce the
//!    1-thread bits exactly (CI additionally runs the whole file at
//!    `COGARM_THREADS=1` and `=4`, and once with `COGARM_NO_SIMD=1`).
//!
//! Pools are explicit (`ExecPool::new`), never `COGARM_THREADS` — tests
//! run concurrently and must not race on process state.

use std::path::PathBuf;
use std::sync::Arc;

use cognitive_arm::pipeline::{CognitiveArm, PipelineConfig, SessionTrace};
use cognitive_arm::preprocess::{FilterSpec, OfflineChain, StreamingChain};
use dsp::biquad::StreamingFilter;
use dsp::butterworth::Butterworth;
use dsp::filterbank::FilterBank;
use dsp::notch::notch_filter;
use eeg::signal::{SignalGenerator, SubjectParams};
use eeg::types::Action;
use eeg::{CHANNELS, SAMPLE_RATE};
use exec::ExecPool;
use integration_tests::quick_trained;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::SessionSpec;
use stream::transport::TransportParams;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Compares `rendered` against the committed fixture `name`, or rewrites
/// the fixture when `COGARM_REGEN_FIXTURES` is set.
fn check_fixture(name: &str, rendered: &str) {
    let path = fixture_path(name);
    if std::env::var_os("COGARM_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixtures dir")).expect("mkdir");
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {name} ({e}); run with COGARM_REGEN_FIXTURES=1")
    });
    assert_eq!(
        committed, rendered,
        "{name}: the filter path no longer reproduces its committed golden trace — \
         the engine swap moved bits; the compiled filter bank must be bit-identical \
         to the scalar per-channel runners it replaces"
    );
}

/// Renders a session trace: one line per label with the timestamp and the
/// three joint angles as raw f64 bits (hex) plus the label index.
fn render_session_trace(header: &str, trace: &SessionTrace) -> String {
    let mut out = format!("# {header}: <t f64 bits> <label> <lift wrist grip f64 bits>\n");
    for (l, j) in trace.labels.iter().zip(&trace.joints) {
        out.push_str(&format!(
            "{:016x} {} {:016x} {:016x} {:016x}\n",
            l.t.to_bits(),
            l.label,
            j.1.to_bits(),
            j.2.to_bits(),
            j.3.to_bits()
        ));
    }
    out
}

/// The monolithic closed-loop label trace over `threads` (explicit pool).
fn mono_trace(threads: usize) -> SessionTrace {
    let artifacts = quick_trained(21, 21);
    let mut sys = CognitiveArm::with_pool(
        PipelineConfig::default(),
        artifacts.ensemble.clone(),
        21,
        Arc::new(ExecPool::new(threads)),
    );
    sys.set_normalization(artifacts.data.zscores[0].clone());
    sys.set_subject_action(Action::Right);
    sys.run_for(2.0).expect("monolithic run")
}

/// The streaming session's label trace over `threads`, on `wire` (`None`
/// is the LSL role).
fn streamed_trace(threads: usize, wire: Option<TransportParams>) -> SessionTrace {
    let artifacts = quick_trained(21, 21);
    let mut spec = SessionSpec::new(PipelineConfig::default(), artifacts.ensemble.clone(), 22)
        .with_normalization(artifacts.data.zscores[0].clone())
        .with_action(Action::Right);
    spec.wire = wire;
    let mut session = spec
        .into_session(Arc::new(ExecPool::new(threads)))
        .expect("session assembles");
    session.run_for(2.0).expect("streaming run")
}

/// Burst jitter far above the sample cadence, 5% loss with
/// retransmission and heavy reordering: the dejitter ring must restore
/// sequence order however the packets arrive.
const ADVERSARIAL_WIRE: TransportParams = TransportParams {
    base_latency: 0.004,
    jitter: 0.050,
    loss_prob: 0.05,
    retransmit: true,
    timestamps: true,
    overhead_bytes: 66,
};

#[test]
fn golden_label_traces_survive_the_filter_swap() {
    for (tag, run) in [
        ("mono", mono_trace as fn(usize) -> SessionTrace),
        ("stream", |threads| streamed_trace(threads, None)),
        ("adversarial", |threads| {
            streamed_trace(threads, Some(ADVERSARIAL_WIRE))
        }),
    ] {
        let trace = run(1);
        // Thread-count invariance, in-test: the filter stage is causal
        // per-channel state advanced in sample order; the pool size can
        // never reach its numerics.
        let on_four = run(4);
        assert_eq!(trace, on_four, "{tag}: thread count changed label bits");
        assert!(!trace.labels.is_empty(), "{tag}: trace is non-trivial");
        check_fixture(
            &format!("trace_filter_{tag}.txt"),
            &render_session_trace(&format!("golden {tag} label trace"), &trace),
        );
    }
}

#[test]
fn golden_causal_chain_samples_survive_the_filter_swap() {
    // The rawest lock: every filtered sample off the causal chain, as raw
    // f32 bits, over a seeded synthetic recording. 256 samples × 16
    // channels, one line per sample instant.
    let mut g = SignalGenerator::new(SubjectParams::sampled(7), 11);
    let chunk = g.generate_action(Action::Left, 256);
    let per = chunk.samples;
    let mut chain = StreamingChain::new(&FilterSpec::default()).expect("default spec designs");
    let mut out = String::from("# golden causal chain trace: <16 channel f32 bits per sample>\n");
    for i in 0..per {
        let mut s = [0.0f32; CHANNELS];
        for (ch, v) in s.iter_mut().enumerate() {
            *v = chunk.data[ch * per + i];
        }
        chain.step(&mut s);
        for (ch, &v) in s.iter().enumerate() {
            if ch > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{:08x}", v.to_bits()));
        }
        out.push('\n');
    }
    check_fixture("trace_filter_chain.txt", &out);
}

/// One property-sweep case: `channels` parallel chains of a
/// `order`-prototype band-pass followed by the 50 Hz notch, driven with
/// seeded noise laced with adversarial values — denormals, ±0.0, and NaN
/// (which must poison exactly the lanes it entered, bit-for-bit).
/// Returns the bank's output bits after asserting them identical to the
/// scalar per-channel `StreamingFilter` composition.
fn sweep_case(order: usize, channels: usize, seed: u64) -> Vec<u32> {
    let bp = Butterworth::bandpass(order, 0.5, 45.0, SAMPLE_RATE).expect("bandpass designs");
    let nt = notch_filter(50.0, 30.0, SAMPLE_RATE).expect("notch designs");

    let frames = 160;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data: Vec<f32> = (0..frames * channels)
        .map(|_| rng.gen_range(-40.0f32..40.0))
        .collect();
    let specials = [
        0.0f32,
        -0.0,
        f32::from_bits(1),              // smallest positive denormal
        f32::from_bits(0x8000_0001),    // smallest negative denormal
        f32::MIN_POSITIVE / 2.0,        // mid-range denormal
        f32::NAN,
    ];
    // Sprinkle specials over the back half so every lane first builds up
    // real state, then meets each adversarial value.
    for (k, v) in data.iter_mut().skip(frames * channels / 2).step_by(11).enumerate() {
        *v = specials[k % specials.len()];
    }

    let mut scalar_bp: Vec<StreamingFilter> =
        (0..channels).map(|_| StreamingFilter::new(bp.clone())).collect();
    let mut scalar_nt: Vec<StreamingFilter> =
        (0..channels).map(|_| StreamingFilter::new(nt.clone())).collect();
    let want: Vec<u32> = data
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let ch = i % channels;
            scalar_nt[ch].step(scalar_bp[ch].step(x)).to_bits()
        })
        .collect();

    let mut bank = FilterBank::new(channels, &[&bp, &nt]);
    bank.process_frames(&mut data);
    let got: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        want, got,
        "order {order} channels {channels} seed {seed} simd {}: \
         bank diverged from the scalar streaming chains",
        bank.is_simd()
    );
    got
}

#[test]
fn bank_matches_scalar_chains_across_shapes_and_adversarial_inputs() {
    let orders = [1usize, 2, 5, 9];
    let channel_counts = [1usize, 3, 7, 8, 9, 16, 33];
    let cases: Vec<(usize, usize, u64)> = orders
        .iter()
        .flat_map(|&o| channel_counts.iter().map(move |&c| (o, c, 1000 + o as u64 * 64 + c as u64)))
        .collect();
    // The sweep itself runs per-case; fanning cases over 1- and 4-thread
    // pools additionally locks that concurrent bank execution cannot
    // couple work items.
    let on_one = ExecPool::new(1).par_map(&cases, |&(o, c, s)| sweep_case(o, c, s));
    let on_four = ExecPool::new(4).par_map(&cases, |&(o, c, s)| sweep_case(o, c, s));
    assert_eq!(on_one, on_four, "thread count changed sweep bits");
    // NaN actually reached the filters (the poisoning is non-trivial).
    let saw_nan = on_one
        .iter()
        .any(|bits| bits.iter().any(|&b| f32::from_bits(b).is_nan()));
    assert!(saw_nan, "sweep never produced a NaN output");
}

#[test]
fn golden_offline_chain_survives_the_filter_swap() {
    // The zero-phase (filtfilt) path, locked at 1 and 4 threads: channels
    // are independent work items, so the pool size must be invisible.
    let mut g = SignalGenerator::new(SubjectParams::sampled(7), 13);
    let chunk = g.generate_action(Action::Idle, 256);
    let per = chunk.samples;
    let mut filtered = chunk.clone();
    OfflineChain::with_pool(&FilterSpec::default(), Arc::new(ExecPool::new(1)))
        .expect("default spec designs")
        .apply(&mut filtered)
        .expect("offline chain applies");
    let mut on_four = chunk.clone();
    OfflineChain::with_pool(&FilterSpec::default(), Arc::new(ExecPool::new(4)))
        .expect("default spec designs")
        .apply(&mut on_four)
        .expect("offline chain applies");
    assert_eq!(
        filtered.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        on_four.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "thread count changed offline chain bits"
    );

    let mut out = String::from("# golden offline chain trace: <16 channel f32 bits per sample>\n");
    for i in 0..per {
        for ch in 0..CHANNELS {
            if ch > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{:08x}", filtered.data[ch * per + i].to_bits()));
        }
        out.push('\n');
    }
    check_fixture("trace_filter_offline.txt", &out);
}
