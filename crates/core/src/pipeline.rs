//! The real-time control loop (Sec. IV-A).
//!
//! Samples stream from the (simulated) headset at 125 Hz, pass through the
//! causal filter chain, and fill a sliding window; every `label_every`
//! samples the compiled ensemble classifies the window into an action label
//! (8 samples ≈ 15.6 Hz, the paper's "15 Hz" label rate); labels pass
//! through the voice-mode multiplexer's active mode into the controller,
//! whose serial bytes drive the MCU and its servos. Per-stage wall-clock
//! latency is recorded for the paper's end-to-end timing story.
//!
//! [`CognitiveArm`] is the one session type and runs the one label loop,
//! with the board read directly or through a network wire; the serving
//! engine (`serve`) drives many of them through the same lockstep API.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

use arm::controller::{ActionLabel, Controller, ControllerConfig, ControlMode};
use arm::kinematics::Joint;
use arm::mcu::Mcu;
use arm::safety::{SafetyConfig, SafetyGate};
use dsp::normalize::Zscore;
use eeg::board::{Board, SimulatedBoard};
use eeg::signal::SubjectParams;
use eeg::types::Action;
use eeg::{CHANNELS, SAMPLE_RATE};
use exec::ExecPool;
use ml::ensemble::{Ensemble, EnsembleScratch};
use ml::models::CLASSES;
use serde::{Deserialize, Serialize};
use stream::clock::SimClock;
use stream::dejitter::ReorderRing;
use stream::inlet::{Inlet, ReceivedSample};
use stream::outlet::{Outlet, StreamInfo};
use stream::pool::PacketPool;
use stream::transport::{Transport, TransportParams};

use crate::preprocess::{FilterSpec, StreamingChain};
use crate::{panic_message, CoreError, Result};

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Samples between classifications (8 → 15.6 Hz at 125 Hz).
    pub label_every: usize,
    /// Filter design.
    pub filter: FilterSpec,
    /// Controller behaviour.
    pub controller: ControllerConfig,
    /// Safety limits.
    pub safety: SafetyConfig,
    /// Worker threads for parallel stages (`None` = the process-wide
    /// [`exec::shared`] pool, sized by `COGARM_THREADS` or
    /// `available_parallelism`). Thread count never changes outputs.
    pub threads: Option<usize>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            label_every: 8,
            filter: FilterSpec::default(),
            controller: ControllerConfig::default(),
            safety: SafetyConfig::default(),
            threads: None,
        }
    }
}

impl PipelineConfig {
    /// The one check of a session's spec, run by the session constructor
    /// ([`CognitiveArm::assemble`]), serve's admission and model-io's
    /// artifact loader alike. Returns the causal filter chain it designed,
    /// without `normalization` installed.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for a zero `label_every`, a
    /// `normalization` not fitted on [`CHANNELS`] channels, a negative or
    /// NaN `safety.max_step`, or a filter spec that cannot be designed.
    pub fn checked_chain(&self, normalization: Option<&Zscore>) -> Result<StreamingChain> {
        let refuse = |msg: String| Err(CoreError::BadConfig(msg));
        if self.label_every == 0 {
            return refuse("label_every must be positive".into());
        }
        if let Some(z) = normalization.filter(|z| z.channels() != CHANNELS) {
            return refuse(format!(
                "normalization fitted on {} channels, the board streams {CHANNELS}",
                z.channels()
            ));
        }
        let max_step = self.safety.max_step;
        if max_step.is_nan() || max_step < 0.0 {
            return refuse(format!(
                "safety.max_step must be non-negative, got {max_step}"
            ));
        }
        StreamingChain::new(&self.filter)
            .map_err(|e| CoreError::BadConfig(format!("filter spec rejected: {e}")))
    }
}

/// Accumulating mean/max statistics for one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageStats {
    /// Invocations measured.
    pub count: u64,
    sum_s: f64,
    /// Worst-case seconds observed.
    pub max_s: f64,
}

impl StageStats {
    /// Folds one invocation's duration into the stats.
    pub fn record(&mut self, seconds: f64) {
        self.count += 1;
        self.sum_s += seconds;
        self.max_s = self.max_s.max(seconds);
    }

    /// Mean seconds per invocation.
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }
}

/// Per-stage latency accounting (Sec. IV's timing claims).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Filtering cost per label period.
    pub filter: StageStats,
    /// Ensemble inference per label.
    pub inference: StageStats,
    /// Controller + serial encode + MCU parse per label.
    pub actuation: StageStats,
}

impl LatencyReport {
    /// Mean end-to-end compute latency per label, in seconds.
    #[must_use]
    pub fn end_to_end_s(&self) -> f64 {
        self.filter.mean_s() + self.inference.mean_s() + self.actuation.mean_s()
    }
}

/// One emitted label with its timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LabelEvent {
    /// Simulated time in seconds.
    pub t: f64,
    /// Predicted class index.
    pub label: usize,
}

/// Trace of a pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionTrace {
    /// Every label emitted.
    pub labels: Vec<LabelEvent>,
    /// Joint positions sampled at each label instant
    /// `(t, lift, wrist, grip)`.
    pub joints: Vec<(f64, f64, f64, f64)>,
}

/// The longest duration one run call serves: an hour is 450 000 samples,
/// and a trace reserved for it stays near 25 MB.
pub const MAX_RUN_SECONDS: f64 = 3600.0;

/// The sample count of a run of `seconds`.
///
/// # Errors
///
/// [`CoreError::BadConfig`] unless the duration is positive and at most
/// [`MAX_RUN_SECONDS`] (NaN and ∞ are neither).
pub fn run_samples(seconds: f64) -> Result<usize> {
    let refusal = "run duration must be positive and at most one hour";
    (seconds > 0.0 && seconds <= MAX_RUN_SECONDS)
        .then_some((seconds * SAMPLE_RATE) as usize)
        .ok_or_else(|| CoreError::BadConfig(refusal.into()))
}

/// Per-channel sliding window of the most recent filtered samples — the
/// classifier's input buffer.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    rows: Vec<VecDeque<f32>>,
    len: usize,
}

impl SlidingWindow {
    /// An empty window holding up to `len` samples per channel.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            rows: (0..CHANNELS)
                .map(|_| VecDeque::with_capacity(len))
                .collect(),
            len,
        }
    }

    /// Appends one multichannel sample, evicting the oldest when full.
    pub fn push(&mut self, sample: &[f32; CHANNELS]) {
        for (row, &v) in self.rows.iter_mut().zip(sample) {
            if row.len() == self.len {
                row.pop_front();
            }
            row.push_back(v);
        }
    }

    /// Whether every channel holds `window_len` samples.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.rows[0].len() == self.len
    }

    /// The configured window length in samples.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.len
    }

    /// Writes the channel-major flattened window (the ensemble's input
    /// layout) into a reused buffer, cleared first — the allocation-free
    /// label-tick path.
    pub fn flat_into(&self, out: &mut Vec<f32>) {
        out.clear();
        self.append_to(out);
    }

    /// Appends the channel-major window values to `out` without clearing
    /// it — how a session copies out each window that comes due, back to
    /// back, for one classify call over all of them.
    pub fn append_to(&self, out: &mut Vec<f32>) {
        for row in &self.rows {
            out.extend(row.iter().copied());
        }
    }
}

/// The classify → actuate → record half of the label loop: ensemble
/// inference on the pool, controller → MCU actuation, and the trace +
/// latency bookkeeping. [`CognitiveArm::run_for`] classifies through
/// [`InferenceHead::step`]; a serving group classifies many sessions'
/// windows in one batched call and actuates each through
/// [`InferenceHead::apply`].
pub struct InferenceHead {
    ensemble: Ensemble,
    controller: Controller,
    mcu: Mcu,
    /// Inference lanes (one per ensemble member × batch slot); every
    /// activation of every member lives here, so a warm label tick
    /// allocates nothing. Built lazily on the first classification: a
    /// session whose classifications run through a serving group's shared
    /// batch scratch never classifies through its own head, and skipping
    /// the arena build there removes the dominant share of per-session
    /// scratch memory.
    scratch: Option<EnsembleScratch>,
    /// Combined class probabilities of the last classification.
    probas: Vec<f32>,
    /// Reused serial-command buffer (largest emission: three 7-byte
    /// frames in grip mode).
    cmd_buf: Vec<u8>,
}

impl std::fmt::Debug for InferenceHead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceHead")
            .field("ensemble", &self.ensemble.name())
            .field("mode", &self.controller.mode())
            .finish()
    }
}

impl InferenceHead {
    /// Assembles the head from a trained ensemble and a configured
    /// controller, with a fresh MCU. The inference scratch arena is built
    /// on the first classification through this head (see the field doc);
    /// the rest of the reusable state is allocated here, once.
    #[must_use]
    pub fn new(ensemble: Ensemble, controller: Controller) -> Self {
        Self {
            ensemble,
            controller,
            mcu: Mcu::new(),
            scratch: None,
            probas: vec![0.0; CLASSES],
            cmd_buf: Vec::with_capacity(32),
        }
    }

    /// Builds the head's own scratch arena now instead of on the first
    /// classification — the warm-up hook for latency-sensitive callers
    /// that want the first label tick to be as allocation-free as the
    /// rest.
    pub fn warm_scratch(&mut self) {
        if self.scratch.is_none() {
            self.scratch = Some(EnsembleScratch::new(&self.ensemble));
        }
    }

    /// The classifying ensemble.
    #[must_use]
    pub fn ensemble(&self) -> &Ensemble {
        &self.ensemble
    }

    /// Switches the voice-selected control mode.
    pub fn set_mode(&mut self, mode: ControlMode) {
        self.controller.set_mode(mode);
    }

    /// The active control mode.
    #[must_use]
    pub fn mode(&self) -> ControlMode {
        self.controller.mode()
    }

    /// Current value of a joint on the physical (simulated) arm.
    #[must_use]
    pub fn joint(&self, joint: Joint) -> f64 {
        self.mcu.arm.joint_value(joint)
    }

    /// One label step over a full channel-major window: classify on
    /// `pool`, drive the controller/MCU for a label period of
    /// `period_samples`, and record the label + joint snapshot at
    /// simulated time `t` into `trace` (and the stage timings into
    /// `latency`). Returns the predicted label.
    ///
    /// # Errors
    ///
    /// Propagates actuation failures.
    pub fn step(
        &mut self,
        window: &[f32],
        pool: &ExecPool,
        t: f64,
        period_samples: usize,
        trace: &mut SessionTrace,
        latency: &mut LatencyReport,
    ) -> Result<usize> {
        // Classification.
        let t1 = Instant::now();
        let label = self.classify(window, pool);
        latency.inference.record(t1.elapsed().as_secs_f64());
        self.apply(label, t, period_samples, trace, latency)
    }

    /// The classification half of the label tick: one batched (batch = 1)
    /// ensemble call into the head's preallocated scratch, then the shared
    /// argmax. Bit-identical to `Ensemble::predict_with`; zero heap
    /// allocations once warm.
    pub fn classify(&mut self, window: &[f32], pool: &ExecPool) -> usize {
        self.warm_scratch();
        let scratch = self.scratch.as_mut().expect("warmed above");
        self.ensemble
            .predict_batch_into(window, 1, CHANNELS, pool, scratch, &mut self.probas);
        ml::ensemble::argmax(&self.probas)
    }

    /// The actuation + record half of the label tick. Split from
    /// [`InferenceHead::step`] so a serving group can classify many
    /// sessions' windows in one ensemble call and actuate each session
    /// here.
    ///
    /// # Errors
    ///
    /// Propagates actuation failures.
    pub fn apply(
        &mut self,
        label: usize,
        t: f64,
        period_samples: usize,
        trace: &mut SessionTrace,
        latency: &mut LatencyReport,
    ) -> Result<usize> {
        let t2 = Instant::now();
        let action = match label {
            0 => ActionLabel::Left,
            1 => ActionLabel::Right,
            _ => ActionLabel::Idle,
        };
        self.controller.on_label_into(action, &mut self.cmd_buf)?;
        if !self.cmd_buf.is_empty() {
            self.mcu.receive(&self.cmd_buf);
        }
        self.mcu.tick(period_samples as f64 / SAMPLE_RATE);
        latency.actuation.record(t2.elapsed().as_secs_f64());

        trace.labels.push(LabelEvent { t, label });
        trace.joints.push((
            t,
            self.mcu.arm.joint_value(Joint::Lift),
            self.mcu.arm.joint_value(Joint::Wrist),
            self.mcu.arm.joint_value(Joint::Grip),
        ));
        Ok(label)
    }
}

/// The causal filter, the sliding window and the label boundaries not yet
/// reached: every arrived sample passes through [`Feed::push`] in sequence
/// order.
struct Feed {
    chain: StreamingChain,
    window: SlidingWindow,
    /// Label boundaries not yet reached, as (sample count, period length).
    bounds: VecDeque<(u64, usize)>,
    /// Samples fed so far.
    fed: u64,
    /// The windows captured by the current advance, channel-major and back
    /// to back.
    windows: Vec<f32>,
    /// Each captured window's (label time, period length).
    stamps: Vec<(f64, usize)>,
}

impl Feed {
    fn push(&mut self, sample: &[f32; CHANNELS]) {
        let mut s = *sample;
        self.chain.step(&mut s);
        self.window.push(&s);
        self.fed += 1;
        if self.bounds.front().is_some_and(|&(end, _)| end == self.fed) {
            let (end, period) = self.bounds.pop_front().expect("front checked");
            if self.window.is_full() {
                self.window.append_to(&mut self.windows);
                self.stamps.push((end as f64 / SAMPLE_RATE, period));
            }
        }
    }
}

/// The network between a streaming session's board and its feed: board
/// → outlet → transport (LSL role: reliable, timestamped, occasionally out
/// of order) → inlet → dejitter.
struct Wire {
    outlet: Outlet,
    transport: Transport,
    inlet: Inlet,
    /// Payload buffers recycled through outlet → transport → inlet →
    /// filter and back: the sender takes from here, the consumer puts
    /// back after filtering, and the transport returns silently dropped
    /// payloads at the drop site. Once warm, the wire allocates nothing.
    pool: Arc<PacketPool>,
    /// Sequence-order restoration for out-of-order arrivals (O(1)
    /// amortized per packet).
    reorder: ReorderRing,
    /// Reused drain buffer for the inlet pull.
    drained: Vec<ReceivedSample>,
    /// Board samples before the current segment: push and pull times
    /// count from here.
    segment_start: u64,
}

impl Wire {
    fn new(params: TransportParams, subject_seed: u64) -> Self {
        // Seeded per subject so concurrent sessions see independent (but
        // reproducible) networks.
        let mut transport = Transport::new(params, subject_seed ^ 0x0057_EA11);
        let pool = Arc::new(PacketPool::new());
        transport.set_pool(Arc::clone(&pool));
        Self {
            outlet: Outlet::new(StreamInfo::eeg_default(), SimClock::aligned()),
            transport,
            inlet: Inlet::new(SimClock::aligned()),
            pool,
            reorder: ReorderRing::new(),
            drained: Vec::new(),
            segment_start: 0,
        }
    }

    /// Pushes every frame the board holds as a pooled payload, stamped
    /// `base + (sent + i + 1) / SAMPLE_RATE` for the `i`-th frame after
    /// the segment's first `sent` samples.
    fn send(&mut self, board: &mut SimulatedBoard, base: f64, sent: usize) -> Result<()> {
        let Self {
            outlet,
            transport,
            pool,
            ..
        } = self;
        let mut push_err = None;
        let mut i = sent;
        board.drain_frames(|frame| {
            if push_err.is_some() {
                return;
            }
            let mut payload = pool.take(CHANNELS);
            payload.extend_from_slice(frame);
            i += 1;
            if let Err(e) = outlet.push(transport, payload, base + i as f64 / SAMPLE_RATE) {
                push_err = Some(e);
            }
        })?;
        push_err.map_or(Ok(()), |e| Err(e.into()))
    }

    /// Pulls every packet that has arrived by `now` and feeds the ones now
    /// in sequence order.
    fn receive(&mut self, now: f64, feed: &mut Feed) {
        self.drained.clear();
        self.inlet
            .pull_into(&mut self.transport, now, &mut self.drained);
        for sample in self.drained.drain(..) {
            if let Some(stale) = self.reorder.insert(sample.seq, sample.payload) {
                // Duplicate delivery: the displaced copy goes back to the
                // pool instead of leaking out of the recycle cycle.
                self.pool.put(stale);
            }
        }
        while let Some(payload) = self.reorder.pop_ready() {
            let mut s = [0.0f32; CHANNELS];
            s.copy_from_slice(&payload[..CHANNELS]);
            self.pool.put(payload);
            feed.push(&s);
        }
    }
}

/// The assembled CognitiveArm system: the one session type, read off the
/// board directly or through a network wire (board → outlet → transport →
/// inlet → dejitter). Every label period is one
/// [`advance`](CognitiveArm::advance), which feeds each arrived sample
/// through the causal filter and the sliding window and copies out every
/// window that comes due at a full label boundary;
/// [`CognitiveArm::run_for`] classifies and actuates each one through the
/// session's own [`InferenceHead`], and a serving group drives the same
/// lockstep API to classify many sessions' windows in one batched call.
///
/// Every label is a pure function of the sample sequence (the dejitter
/// ring restores sequence order however packets arrive), so a session's
/// trace is the same bits with or without a wire, at any pool size. State
/// (filters, window, wire, arm pose) persists across run calls, so one
/// session serves many segments.
pub struct CognitiveArm {
    config: PipelineConfig,
    board: SimulatedBoard,
    /// `None` reads the board directly.
    wire: Option<Wire>,
    feed: Feed,
    head: InferenceHead,
    elapsed_samples: u64,
    latency: LatencyReport,
    pool: Arc<ExecPool>,
    /// Set when a segment failed partway: the board has advanced past the
    /// trace, so continuing would silently desynchronize timestamps.
    poisoned: bool,
}

impl std::fmt::Debug for CognitiveArm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CognitiveArm")
            .field("ensemble", &self.head.ensemble().name())
            .field("window_len", &self.feed.window.window_len())
            .field("wire", &self.wire.is_some())
            .field("elapsed_samples", &self.elapsed_samples)
            .field("threads", &self.pool.threads())
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl CognitiveArm {
    /// Assembles the system for one simulated subject.
    ///
    /// # Panics
    ///
    /// Panics on a config that [`PipelineConfig::checked_chain`] refuses;
    /// the default config passes.
    #[must_use]
    pub fn new(config: PipelineConfig, ensemble: Ensemble, subject_seed: u64) -> Self {
        let pool = match config.threads {
            Some(n) => Arc::new(ExecPool::new(n)),
            None => exec::shared(),
        };
        Self::with_pool(config, ensemble, subject_seed, pool)
    }

    /// [`CognitiveArm::new`] on an explicit execution pool, ignoring
    /// `config.threads` — the hook for multiplexing many systems over one
    /// serving pool (`serve::SessionManager`). Thread count never changes
    /// outputs, so sharing a pool never couples sessions numerically.
    ///
    /// # Panics
    ///
    /// As [`CognitiveArm::new`]; [`CognitiveArm::assemble`] returns the
    /// refusal instead.
    #[must_use]
    pub fn with_pool(
        config: PipelineConfig,
        ensemble: Ensemble,
        subject_seed: u64,
        pool: Arc<ExecPool>,
    ) -> Self {
        Self::assemble(config, ensemble, None, subject_seed, None, pool)
            .unwrap_or_else(|e| panic!("CognitiveArm: {e}"))
    }

    /// The one constructor: checks `config` and `normalization` with
    /// [`PipelineConfig::checked_chain`], designs the filter once, and
    /// puts `wire` (if any) between the board and the filter. Wire
    /// parameters are the caller's to check (serve's admission does).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for a config or normalization
    /// [`PipelineConfig::checked_chain`] refuses.
    pub fn assemble(
        config: PipelineConfig,
        ensemble: Ensemble,
        normalization: Option<Zscore>,
        subject_seed: u64,
        wire: Option<TransportParams>,
        pool: Arc<ExecPool>,
    ) -> Result<Self> {
        let mut chain = config.checked_chain(normalization.as_ref())?;
        if let Some(z) = normalization {
            chain.set_normalization(z);
        }
        let params = SubjectParams::sampled(subject_seed);
        // The loop drains the board every label period, so the ring never
        // holds more than one period (plus slack up to the window length);
        // sizing it to the consumption window instead of the hardware
        // default's 6 minutes cuts per-session scratch ~450× with
        // bit-identical frames.
        let ring = ensemble.window().max(config.label_every).max(64);
        let mut board = SimulatedBoard::with_buffer_capacity(params, subject_seed ^ 0xB0A7D, ring);
        board.start_stream().expect("fresh board starts");
        let controller = Controller::new(config.controller, SafetyGate::new(config.safety));
        Ok(Self {
            config,
            board,
            wire: wire.map(|params| Wire::new(params, subject_seed)),
            feed: Feed {
                chain,
                window: SlidingWindow::new(ensemble.window()),
                bounds: VecDeque::new(),
                fed: 0,
                windows: Vec::new(),
                stamps: Vec::new(),
            },
            head: InferenceHead::new(ensemble, controller),
            elapsed_samples: 0,
            latency: LatencyReport::default(),
            pool,
            poisoned: false,
        })
    }

    /// The execution pool driving this system's parallel stages.
    #[must_use]
    pub fn pool(&self) -> &Arc<ExecPool> {
        &self.pool
    }

    /// The pipeline configuration this system was assembled with.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The classifying ensemble.
    #[must_use]
    pub fn ensemble(&self) -> &Ensemble {
        self.head.ensemble()
    }

    /// The frozen per-subject normalization, if installed (see
    /// [`CognitiveArm::set_normalization`]).
    #[must_use]
    pub fn normalization(&self) -> Option<&Zscore> {
        self.feed.chain.normalization()
    }

    /// Installs the frozen per-subject normalization fitted during training
    /// (Sec. V-A). Without it the classifier sees raw µV while it was
    /// trained on z-scored data, and accuracy collapses — call this with
    /// the subject's statistics from
    /// [`crate::eval::PreparedData::zscores`].
    pub fn set_normalization(&mut self, zscore: Zscore) {
        self.feed.chain.set_normalization(zscore);
    }

    /// Sets the mental task the simulated user performs.
    pub fn set_subject_action(&mut self, action: Action) {
        self.board.set_action(action);
    }

    /// Switches the voice-selected control mode (wired from
    /// [`crate::mux::VoiceMux`] by the caller, keeping the audio thread
    /// separate from the EEG loop as in Sec. III-F3).
    pub fn set_mode(&mut self, mode: ControlMode) {
        self.head.set_mode(mode);
    }

    /// The active control mode.
    #[must_use]
    pub fn mode(&self) -> ControlMode {
        self.head.mode()
    }

    /// Current value of a joint on the physical (simulated) arm.
    #[must_use]
    pub fn joint(&self, joint: Joint) -> f64 {
        self.head.joint(joint)
    }

    /// Latency accounting so far: `filter` times each label period's read
    /// (wire included), dejitter, filtering and windowing; inference and
    /// actuation come from the [`InferenceHead`].
    #[must_use]
    pub fn latency(&self) -> &LatencyReport {
        &self.latency
    }

    /// Simulated seconds elapsed across all segments.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_samples as f64 / SAMPLE_RATE
    }

    /// Wire-pool recycling statistics `(allocated, reused)`: buffers the
    /// packet pool had to allocate fresh vs. takes served from the free
    /// list. At steady state `reused` grows and `allocated` does not.
    /// `(0, 0)` without a wire.
    #[must_use]
    pub fn pool_stats(&self) -> (u64, u64) {
        self.wire
            .as_ref()
            .map_or((0, 0), |w| (w.pool.allocated(), w.pool.reused()))
    }

    /// Packets that arrived out of sequence order and were restored by the
    /// dejitter ring (a wire-health statistic; never affects labels).
    #[must_use]
    pub fn out_of_order(&self) -> u64 {
        self.wire.as_ref().map_or(0, |w| w.inlet.out_of_order())
    }

    /// Whether a segment failed partway and poisoned the session (it will
    /// not run again).
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Runs the loop for `seconds` of simulated time, returning this
    /// segment's trace.
    ///
    /// # Errors
    ///
    /// As [`CognitiveArm::run_into`].
    pub fn run_for(&mut self, seconds: f64) -> Result<SessionTrace> {
        let mut trace = SessionTrace::default();
        self.run_into(seconds, &mut trace)?;
        Ok(trace)
    }

    /// [`CognitiveArm::run_for`] appending to a caller-provided trace: each
    /// period advances, and each window it captured is classified and
    /// actuated through the session's own head, in order. With a trace
    /// whose capacity covers the segment, a warm segment on a 1-thread
    /// pool performs **zero heap allocations**, with or without a wire:
    /// the wire recycles its payloads, the filter runs in place, the
    /// captured windows reuse their buffer, the ensemble classifies into
    /// its preallocated scratch arena, and actuation reuses its command
    /// buffer (`tests/tests/allocation.rs` enforces this with a counting
    /// global allocator).
    ///
    /// # Errors
    ///
    /// Rejects a duration that [`run_samples`] refuses, and runs the
    /// segment under [`CognitiveArm::guard`]: board, wire and actuation
    /// failures and panics come back as errors and poison the session, and
    /// a poisoned session refuses to run.
    pub fn run_into(&mut self, seconds: f64, trace: &mut SessionTrace) -> Result<()> {
        let total = run_samples(seconds)?;
        let step = self.config.label_every;
        let labels = total.div_ceil(step);
        trace.labels.reserve(labels);
        trace.joints.reserve(labels);
        self.guard(|s| {
            let mut done = 0usize;
            while done < total {
                let n = step.min(total - done);
                done += n;
                s.advance(n, done == total)?;
                let len = s.feed.window.window_len() * CHANNELS;
                for (j, &(t, period)) in s.feed.stamps.iter().enumerate() {
                    let window = &s.feed.windows[j * len..(j + 1) * len];
                    s.head
                        .step(window, &s.pool, t, period, trace, &mut s.latency)?;
                }
            }
            Ok(())
        })
    }

    /// Runs `f` on the session unless it is poisoned, turning a panic
    /// into [`CoreError::Panicked`]; any failure poisons the session.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for a poisoned session, else `f`'s error or
    /// its panic.
    pub fn guard<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.poisoned {
            let refusal = "session poisoned by an earlier mid-segment failure";
            return Err(CoreError::BadConfig(refusal.into()));
        }
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut *self)))
            .unwrap_or_else(|payload| Err(CoreError::Panicked(panic_message(payload))));
        self.poisoned = out.is_err();
        out
    }

    /// Advances one label period of `n` samples: reads the board directly
    /// or through the wire, feeds every sample that arrived through the
    /// filter and the window in sequence order, and copies out each window
    /// that came due at a full label boundary ([`CognitiveArm::captured`]).
    /// Read directly, that is zero or one window; over a jittery wire, any
    /// number. The segment's `last` period drains the wire.
    ///
    /// # Errors
    ///
    /// Propagates board and wire failures.
    pub fn advance(&mut self, n: usize, last: bool) -> Result<()> {
        let Self {
            board, wire, feed, ..
        } = self;
        feed.windows.clear();
        feed.stamps.clear();
        board.advance(n)?;
        let end = self.elapsed_samples + n as u64;
        feed.bounds.push_back((end, n));
        // At most one window per pending boundary comes due, so sizing the
        // capture buffers here keeps a warm tick allocation-free however
        // the wire bunches its arrivals; a session whose window has not
        // filled yet allocates none.
        if feed.window.is_full() {
            feed.windows
                .reserve(feed.bounds.len() * feed.window.window_len() * CHANNELS);
            feed.stamps.reserve(feed.bounds.len());
        }
        let t0 = Instant::now();
        match wire {
            None => board.drain_frames(|frame| feed.push(frame))?,
            Some(wire) => {
                let base = wire.segment_start as f64 / SAMPLE_RATE;
                let sent = (self.elapsed_samples - wire.segment_start) as usize;
                wire.send(board, base, sent)?;
                wire.receive(base + (sent + n) as f64 / SAMPLE_RATE, feed);
                if last {
                    // Drain packets still in flight (retransmissions land
                    // late).
                    wire.receive(f64::INFINITY, feed);
                    debug_assert_eq!(feed.fed, end, "reliable transport delivered everything");
                    wire.segment_start = end;
                }
            }
        }
        self.latency.filter.record(t0.elapsed().as_secs_f64());
        self.elapsed_samples = end;
        Ok(())
    }

    /// The windows the last [`CognitiveArm::advance`] captured,
    /// channel-major and back to back, and each one's `(t, period)` stamp:
    /// the simulated time it came due and its label period in samples.
    #[must_use]
    pub fn captured(&self) -> (&[f32], &[(f64, usize)]) {
        (&self.feed.windows, &self.feed.stamps)
    }

    /// Applies a label classified outside this system: it must come from
    /// this system's ensemble over the window that came due at simulated
    /// time `t` (a [`CognitiveArm::captured`] stamp, since the caller may
    /// actuate after the clock has moved on). Records `inference_seconds`
    /// — the wall time of the call that classified it — and runs the
    /// head's actuation + record code.
    ///
    /// # Errors
    ///
    /// Propagates actuation failures.
    pub fn apply_label_at(
        &mut self,
        label: usize,
        t: f64,
        period_samples: usize,
        inference_seconds: f64,
        trace: &mut SessionTrace,
    ) -> Result<usize> {
        self.latency.inference.record(inference_seconds);
        self.head
            .apply(label, t, period_samples, trace, &mut self.latency)
    }

    /// [`CognitiveArm::advance`] of a whole one-period segment, reporting
    /// whether a window came due. Kept for the benchmark's traced run
    /// (`cogbench/src/traced.rs`) until it moves onto `advance`,
    /// `captured` and `apply_label_at`.
    ///
    /// # Errors
    ///
    /// As [`CognitiveArm::advance`].
    pub fn advance_period(&mut self, n: usize) -> Result<bool> {
        self.advance(n, true)?;
        Ok(!self.feed.stamps.is_empty())
    }

    /// Appends the current channel-major window to `out`. Kept for the
    /// benchmark's traced run with [`CognitiveArm::advance_period`].
    pub fn append_window_to(&self, out: &mut Vec<f32>) {
        self.feed.window.append_to(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{train_default_ensemble, DatasetBuilder, TrainBudget};
    use eeg::dataset::Protocol;

    /// A free stub classifier so a test can skip training entirely.
    #[derive(Clone)]
    struct Stub;
    impl ml::ensemble::Classifier for Stub {
        fn predict_proba_window(&self, _w: &[f32], _c: usize, _l: usize) -> Vec<f32> {
            vec![1.0, 0.0, 0.0]
        }
        fn window(&self) -> usize {
            4
        }
        fn name(&self) -> String {
            "stub".into()
        }
        fn param_count(&self) -> usize {
            0
        }
        fn clone_box(&self) -> Box<dyn ml::ensemble::Classifier> {
            Box::new(self.clone())
        }
    }

    fn stub_ensemble() -> Ensemble {
        Ensemble::new(
            vec![ml::ensemble::Member::Custom(Box::new(Stub))],
            ml::ensemble::Voting::Soft,
        )
    }

    fn quick_system() -> CognitiveArm {
        let data = DatasetBuilder::new(Protocol::quick(), 1, 21)
            .build()
            .unwrap();
        let ensemble = train_default_ensemble(&data, &TrainBudget::quick(), 3).unwrap();
        CognitiveArm::new(PipelineConfig::default(), ensemble, 21)
    }

    #[test]
    fn pipeline_emits_labels_at_the_configured_rate() {
        let mut sys = quick_system();
        sys.set_subject_action(Action::Idle);
        let trace = sys.run_for(3.0).unwrap();
        // Window fills after `window` samples (100 at quick config = 0.8 s),
        // then one label per 8 samples.
        let expected = ((3.0 * SAMPLE_RATE) as usize - 100) / 8;
        assert!(
            (trace.labels.len() as i64 - expected as i64).abs() <= 2,
            "{} labels vs expected {expected}",
            trace.labels.len()
        );
        // Label cadence ≈ 15 Hz.
        let rate = trace.labels.len() as f64 / (3.0 - 0.8);
        assert!(rate > 13.0 && rate < 17.0, "label rate {rate} Hz");
    }

    #[test]
    fn latency_is_recorded_for_every_stage() {
        let mut sys = quick_system();
        let _ = sys.run_for(2.0).unwrap();
        let lat = sys.latency();
        assert!(lat.inference.count > 0);
        assert!(lat.filter.mean_s() > 0.0);
        assert!(lat.end_to_end_s() > 0.0);
        assert!(lat.inference.max_s >= lat.inference.mean_s());
    }

    #[test]
    fn threads_config_sizes_the_pool() {
        let config = PipelineConfig {
            threads: Some(3),
            ..PipelineConfig::default()
        };
        let sys = CognitiveArm::new(config, stub_ensemble(), 1);
        assert_eq!(sys.pool().threads(), 3);
        // None delegates to the shared pool.
        let sys = CognitiveArm::new(PipelineConfig::default(), stub_ensemble(), 1);
        assert!(Arc::ptr_eq(sys.pool(), &exec::shared()));
    }

    #[test]
    fn assemble_refuses_every_unsound_field() {
        let with = |tweak: fn(&mut PipelineConfig)| {
            let mut config = PipelineConfig::default();
            tweak(&mut config);
            config
        };
        let narrow = Zscore::from_parts(vec![0.0; 4], vec![1.0; 4]).expect("valid stats");
        for (name, config, normalization) in [
            ("zero label_every", with(|c| c.label_every = 0), None),
            (
                "4-channel normalization",
                PipelineConfig::default(),
                Some(narrow),
            ),
            (
                "negative max_step",
                with(|c| c.safety.max_step = -1.0),
                None,
            ),
            ("NaN max_step", with(|c| c.safety.max_step = f64::NAN), None),
            (
                "undesignable filter",
                with(|c| {
                    c.filter.low_hz = 90.0;
                    c.filter.high_hz = 10.0;
                }),
                None,
            ),
        ] {
            let pool = Arc::new(ExecPool::new(1));
            let refused =
                CognitiveArm::assemble(config, stub_ensemble(), normalization, 1, None, pool);
            assert!(
                matches!(refused, Err(CoreError::BadConfig(_))),
                "{name}: {:?}",
                refused.err()
            );
        }
        let pool = Arc::new(ExecPool::new(1));
        let sound = CognitiveArm::assemble(
            PipelineConfig::default(),
            stub_ensemble(),
            None,
            1,
            None,
            pool,
        );
        assert!(sound.is_ok(), "the default config assembles");
    }

    #[test]
    #[should_panic(expected = "label_every must be positive")]
    fn zero_cadence_panics_at_construction_instead_of_hanging() {
        let config = PipelineConfig {
            label_every: 0,
            ..PipelineConfig::default()
        };
        let _ = CognitiveArm::new(config, stub_ensemble(), 1);
    }

    #[test]
    fn mode_switch_changes_driven_joint() {
        let mut sys = quick_system();
        assert_eq!(sys.mode(), ControlMode::Arm);
        sys.set_mode(ControlMode::Fingers);
        assert_eq!(sys.mode(), ControlMode::Fingers);
    }

    #[test]
    fn zero_duration_is_rejected() {
        let mut sys = quick_system();
        let past_cap = MAX_RUN_SECONDS * (1.0 + f64::EPSILON);
        for seconds in [0.0, f64::NAN, f64::INFINITY, 1e300, past_cap] {
            assert!(
                matches!(sys.run_for(seconds), Err(CoreError::BadConfig(_))),
                "{seconds} s must be refused"
            );
        }
    }

    #[test]
    fn trace_joints_track_the_mcu() {
        let mut sys = quick_system();
        sys.set_subject_action(Action::Right);
        let trace = sys.run_for(2.0).unwrap();
        let last = trace.joints.last().unwrap();
        assert!((last.1 - sys.joint(Joint::Lift)).abs() < 1e-9);
    }
}
