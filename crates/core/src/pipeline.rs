//! The real-time control loop (Sec. IV-A).
//!
//! Samples stream from the (simulated) headset at 125 Hz, pass through the
//! causal filter chain, and fill a sliding window; every `label_every`
//! samples the compiled ensemble classifies the window into an action label
//! (8 samples ≈ 15.6 Hz, the paper's "15 Hz" label rate); labels pass
//! through the voice-mode multiplexer's active mode into the controller,
//! whose serial bytes drive the MCU and its servos. Per-stage wall-clock
//! latency is recorded for the paper's end-to-end timing story.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use arm::controller::{ActionLabel, Controller, ControllerConfig, ControlMode};
use arm::kinematics::Joint;
use arm::mcu::Mcu;
use arm::safety::{SafetyConfig, SafetyGate};
use eeg::board::{Board, SimulatedBoard};
use eeg::signal::SubjectParams;
use eeg::types::Action;
use eeg::{CHANNELS, SAMPLE_RATE};
use exec::ExecPool;
use ml::ensemble::{Ensemble, EnsembleScratch};
use ml::models::CLASSES;
use serde::{Deserialize, Serialize};

use crate::preprocess::{FilterSpec, StreamingChain};
use crate::{CoreError, Result};

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
    /// Folds one invocation's duration into the stats (public so the
    /// serving engine's sessions account with the same machinery).
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

/// The sample count of a run of `seconds`, or `None` unless the duration
/// is positive and at most [`MAX_RUN_SECONDS`] (NaN and ∞ are neither).
#[must_use]
pub fn run_samples(seconds: f64) -> Option<usize> {
    (seconds > 0.0 && seconds <= MAX_RUN_SECONDS).then_some((seconds * SAMPLE_RATE) as usize)
}

/// Per-channel sliding window of the most recent filtered samples — the
/// classifier's input buffer, shared by the monolithic loop and the
/// serving engine's sessions so the two can never drift.
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
    /// it — how a serving session copies out each window that comes due,
    /// back to back, for its group's batched call.
    pub fn append_to(&self, out: &mut Vec<f32>) {
        for row in &self.rows {
            out.extend(row.iter().copied());
        }
    }
}

/// The classify → actuate → record half of the label loop: ensemble
/// inference on the pool, controller → MCU actuation, and the trace +
/// latency bookkeeping. [`CognitiveArm::run_for`] and the serving
/// engine's sessions both run **this exact code**, which is what makes
/// their traces bit-identical by construction.
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
    /// [`InferenceHead::step`] so the serving micro-batcher can classify
    /// many sessions' windows in one ensemble call and still actuate each
    /// session through **this exact code**.
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

/// The assembled CognitiveArm system.
pub struct CognitiveArm {
    config: PipelineConfig,
    board: SimulatedBoard,
    chain: StreamingChain,
    head: InferenceHead,
    window: SlidingWindow,
    /// Reused channel-major flattening of the sliding window.
    flat_buf: Vec<f32>,
    elapsed_samples: u64,
    latency: LatencyReport,
    pool: Arc<ExecPool>,
}

impl std::fmt::Debug for CognitiveArm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CognitiveArm")
            .field("ensemble", &self.head.ensemble().name())
            .field("window_len", &self.window.window_len())
            .field("elapsed_samples", &self.elapsed_samples)
            .field("threads", &self.pool.threads())
            .finish()
    }
}

impl CognitiveArm {
    /// Assembles the system for one simulated subject.
    ///
    /// # Panics
    ///
    /// Panics if the filter design fails (the default spec never does).
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
    /// Panics if the filter design fails (the default spec never does).
    #[must_use]
    pub fn with_pool(
        config: PipelineConfig,
        ensemble: Ensemble,
        subject_seed: u64,
        pool: Arc<ExecPool>,
    ) -> Self {
        let params = SubjectParams::sampled(subject_seed);
        // The loop drains the board every label period, so the ring never
        // holds more than one period (plus slack up to the window length);
        // sizing it to the consumption window instead of the hardware
        // default's 6 minutes cuts per-session scratch ~450× with
        // bit-identical frames.
        let ring = ensemble.window().max(config.label_every).max(64);
        let mut board = SimulatedBoard::with_buffer_capacity(params, subject_seed ^ 0xB0A7D, ring);
        board.start_stream().expect("fresh board starts");
        let chain = StreamingChain::new(&config.filter).expect("default filter spec is valid");
        let controller = Controller::new(config.controller, SafetyGate::new(config.safety));
        let window = SlidingWindow::new(ensemble.window());
        let flat_buf = Vec::with_capacity(CHANNELS * ensemble.window());
        Self {
            config,
            board,
            chain,
            head: InferenceHead::new(ensemble, controller),
            window,
            flat_buf,
            elapsed_samples: 0,
            latency: LatencyReport::default(),
            pool,
        }
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
    pub fn normalization(&self) -> Option<&dsp::normalize::Zscore> {
        self.chain.normalization()
    }

    /// Installs the frozen per-subject normalization fitted during training
    /// (Sec. V-A). Without it the classifier sees raw µV while it was
    /// trained on z-scored data, and accuracy collapses — call this with
    /// the subject's statistics from
    /// [`crate::eval::PreparedData::zscores`].
    pub fn set_normalization(&mut self, zscore: dsp::normalize::Zscore) {
        self.chain.set_normalization(zscore);
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

    /// Latency accounting so far.
    #[must_use]
    pub fn latency(&self) -> &LatencyReport {
        &self.latency
    }

    /// Simulated seconds elapsed.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_samples as f64 / SAMPLE_RATE
    }

    /// Runs the loop for `seconds` of simulated time, returning the trace.
    ///
    /// # Errors
    ///
    /// Propagates board and actuation failures.
    pub fn run_for(&mut self, seconds: f64) -> Result<SessionTrace> {
        let mut trace = SessionTrace::default();
        self.run_into(seconds, &mut trace)?;
        Ok(trace)
    }

    /// [`CognitiveArm::run_for`] appending to a caller-provided trace.
    /// With a trace whose capacity covers the segment, the steady-state
    /// label tick performs **zero heap allocations**: acquisition drains
    /// frame-by-frame, the filter runs in place, the window flattens into
    /// a reused buffer, the ensemble classifies into its preallocated
    /// scratch arena, and actuation reuses its command buffer
    /// (`tests/tests/allocation.rs` enforces this with a counting global
    /// allocator).
    ///
    /// # Errors
    ///
    /// Propagates board and actuation failures; rejects a duration that
    /// [`run_samples`] refuses.
    pub fn run_into(&mut self, seconds: f64, trace: &mut SessionTrace) -> Result<()> {
        let total = run_samples(seconds).ok_or_else(|| {
            CoreError::BadConfig("run duration must be positive and at most one hour".into())
        })?;
        let step = self.config.label_every;
        let expected_labels = total.div_ceil(step.max(1));
        trace.labels.reserve(expected_labels);
        trace.joints.reserve(expected_labels);
        let mut done = 0usize;
        while done < total {
            let n = step.min(total - done);
            if self.advance_period(n)? {
                self.window.flat_into(&mut self.flat_buf);
                let t = self.elapsed_s();
                self.head
                    .step(&self.flat_buf, &self.pool, t, n, trace, &mut self.latency)?;
            }
            done += n;
        }
        Ok(())
    }

    /// Advances one label period of `n` samples — acquisition, causal
    /// filtering and windowing — and reports whether the sliding window is
    /// full (i.e. a classification is due). The lockstep half of the label
    /// tick: [`CognitiveArm::run_into`] drives it followed by the head's
    /// classify-actuate step, and a caller that classifies elsewhere (the
    /// benchmark's traced serving driver) drives it with
    /// [`CognitiveArm::append_window_to`] and [`CognitiveArm::apply_label_at`].
    ///
    /// # Errors
    ///
    /// Propagates board failures.
    pub fn advance_period(&mut self, n: usize) -> Result<bool> {
        self.board.advance(n)?;
        let chain = &mut self.chain;
        let window = &mut self.window;
        let t0 = Instant::now();
        self.board.drain_frames(|frame| {
            let mut s = *frame;
            chain.step(&mut s);
            window.push(&s);
        })?;
        self.latency.filter.record(t0.elapsed().as_secs_f64());
        self.elapsed_samples += n as u64;
        Ok(self.window.is_full())
    }

    /// Appends the current channel-major window to `out`, for a caller
    /// that stacks many systems' windows into one batched ensemble call.
    /// Values are exactly what the monolithic loop classifies.
    pub fn append_window_to(&self, out: &mut Vec<f32>) {
        self.window.append_to(out);
    }

    /// Applies a label classified outside this system: it must come from
    /// this system's ensemble over the window that came due at simulated
    /// time `t` (the caller captures `elapsed_s()` then, since it may
    /// actuate after the clock has moved on). Records `inference_seconds`
    /// — the wall time of the call that classified it — and runs the same
    /// actuation + record code as the monolithic loop.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{train_default_ensemble, DatasetBuilder, TrainBudget};
    use eeg::dataset::Protocol;

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
        /// A free stub classifier so this test skips training entirely.
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
        let ensemble = Ensemble::new(
            vec![ml::ensemble::Member::Custom(Box::new(Stub))],
            ml::ensemble::Voting::Soft,
        );
        let config = PipelineConfig {
            threads: Some(3),
            ..PipelineConfig::default()
        };
        let sys = CognitiveArm::new(config, ensemble, 1);
        assert_eq!(sys.pool().threads(), 3);
        // None delegates to the shared pool.
        let ensemble = Ensemble::new(
            vec![ml::ensemble::Member::Custom(Box::new(Stub))],
            ml::ensemble::Voting::Soft,
        );
        let sys = CognitiveArm::new(PipelineConfig::default(), ensemble, 1);
        assert!(Arc::ptr_eq(sys.pool(), &exec::shared()));
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
