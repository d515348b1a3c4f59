//! The streaming session: the label loop behind a network wire.
//!
//! [`crate::SessionManager`]'s batch sessions run the monolithic
//! [`CognitiveArm::run_for`](cognitive_arm::pipeline::CognitiveArm::run_for)
//! loop straight off the board. A [`StreamSession`] instead models the
//! deployed serving shape: samples arrive **over the wire** — board →
//! [`stream::outlet::Outlet`] → [`stream::transport::Transport`] (LSL role:
//! reliable, timestamped, occasionally out of order) →
//! [`stream::inlet::Inlet`] — are dejittered back into sequence order, and
//! are causally filtered and windowed by the *filter stage*, which calls
//! the inference head inline at every label boundary to classify and
//! actuate, on every pool size.
//!
//! Determinism: every label is a pure function of the sample sequence (the
//! reorder buffer restores sequence order no matter how packets arrive),
//! and the head is the **same code** as the monolithic loop's
//! ([`cognitive_arm::pipeline::InferenceHead`]) — so the label trace is
//! bit-identical to `CognitiveArm::run_for` over the same spec, at any
//! pool size (`tests/tests/serving.rs` locks exactly that equivalence).

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use arm::controller::{ControlMode, Controller};
use arm::kinematics::Joint;
use arm::safety::SafetyGate;
use cognitive_arm::pipeline::{InferenceHead, LatencyReport, SessionTrace, SlidingWindow, StageStats};
use cognitive_arm::preprocess::StreamingChain;
use eeg::board::{Board, SimulatedBoard};
use eeg::signal::SubjectParams;
use eeg::types::Action;
use eeg::{CHANNELS, SAMPLE_RATE};
use exec::ExecPool;
use stream::clock::SimClock;
use stream::dejitter::ReorderRing;
use stream::inlet::{Inlet, ReceivedSample};
use stream::outlet::{Outlet, StreamInfo};
use stream::pool::PacketPool;
use stream::transport::{Transport, TransportParams};

use crate::error::panic_message;
use crate::manager::SessionSpec;
use crate::{Result, ServeError};

/// Acquisition, wire transport, dejitter, causal filtering and the
/// sliding window.
struct FilterStage {
    board: SimulatedBoard,
    outlet: Outlet,
    transport: Transport,
    inlet: Inlet,
    chain: StreamingChain,
    window: SlidingWindow,
    /// Payload buffers recycled through outlet → transport → inlet →
    /// filter and back: the sender takes from here, the consumer puts
    /// back after filtering, and the transport returns silently dropped
    /// payloads at the drop site. Once warm, the wire allocates nothing.
    pool: Arc<PacketPool>,
    /// Sequence-order restoration for out-of-order arrivals (O(1)
    /// amortized per packet; replaces a node-allocating `BTreeMap`).
    reorder: ReorderRing,
    /// Reused drain buffer for the inlet pull: the wire's arrival batch
    /// lands here allocation-free before the dejitter pass moves the
    /// payloads out.
    drained: Vec<ReceivedSample>,
    /// Reused label-period boundary queue for [`FilterStage::run_segment`]
    /// as (cumulative end, period length) pairs.
    bounds: VecDeque<(usize, usize)>,
    /// Filtering + windowing cost per label period (the monolithic loop's
    /// `latency.filter` counterpart; inference time excluded).
    stats: StageStats,
}

impl FilterStage {
    /// Runs one segment of `total` samples: push every sample through the
    /// wire, restore sequence order, filter, window, and call `on_window`
    /// with the label timestamp, the label period and the window at every
    /// label boundary once the window is full.
    fn run_segment(
        &mut self,
        total: usize,
        label_every: usize,
        start_elapsed: u64,
        on_window: &mut impl FnMut(f64, usize, &SlidingWindow) -> Result<()>,
    ) -> Result<()> {
        // Label-period boundaries within this segment — the last period may
        // be partial, exactly like the monolithic loop's
        // `step.min(total - done)`.
        self.bounds.clear();
        {
            let mut c = 0usize;
            while c < total {
                let n = label_every.min(total - c);
                c += n;
                self.bounds.push_back((c, n));
            }
        }
        let base = start_elapsed as f64 / SAMPLE_RATE;
        let mut done = 0usize;
        let mut processed = 0usize;
        while done < total {
            let n = label_every.min(total - done);
            self.board.advance(n)?;
            // Frame-wise drain straight into pooled payloads: no
            // transposed Chunk is materialized and no payload Vec is
            // allocated once the pool has warmed to the wire's in-flight
            // depth. Values and push order are identical to the previous
            // chunk-transpose path.
            {
                let outlet = &mut self.outlet;
                let transport = &mut self.transport;
                let pool = &self.pool;
                let mut push_err: Option<ServeError> = None;
                let mut i = 0usize;
                self.board.drain_frames(|frame| {
                    if push_err.is_some() {
                        return;
                    }
                    let mut payload = pool.take(CHANNELS);
                    payload.extend_from_slice(frame);
                    let t_push = base + (done + i + 1) as f64 / SAMPLE_RATE;
                    if let Err(e) = outlet.push(transport, payload, t_push) {
                        push_err = Some(e.into());
                    }
                    i += 1;
                })?;
                if let Some(e) = push_err {
                    return Err(e);
                }
            }
            done += n;
            let now = base + done as f64 / SAMPLE_RATE;
            let spent = self.ingest(now, &mut processed, start_elapsed, on_window)?;
            self.stats.record(spent);
        }
        // Drain packets still in flight (retransmissions land late).
        let spent = self.ingest(f64::INFINITY, &mut processed, start_elapsed, on_window)?;
        if spent > 0.0 {
            self.stats.record(spent);
        }
        debug_assert_eq!(processed, total, "reliable transport delivered everything");
        Ok(())
    }

    /// Pulls every packet that has arrived by `now`, feeds the filter in
    /// sequence order, and emits windows at label-period boundaries.
    /// Returns the seconds spent on filtering + windowing (`on_window`
    /// time excluded).
    fn ingest(
        &mut self,
        now: f64,
        processed: &mut usize,
        start_elapsed: u64,
        on_window: &mut impl FnMut(f64, usize, &SlidingWindow) -> Result<()>,
    ) -> Result<f64> {
        let mut spent = 0.0f64;
        self.drained.clear();
        self.inlet.pull_into(&mut self.transport, now, &mut self.drained);
        for sample in self.drained.drain(..) {
            if let Some(stale) = self.reorder.insert(sample.seq, sample.payload) {
                // Duplicate delivery: the displaced copy goes back to the
                // pool instead of leaking out of the recycle cycle.
                self.pool.put(stale);
            }
        }
        while let Some(payload) = self.reorder.pop_ready() {
            let t0 = std::time::Instant::now();
            let mut s = [0.0f32; CHANNELS];
            for (ch, v) in s.iter_mut().enumerate() {
                *v = payload[ch];
            }
            self.pool.put(payload);
            self.chain.step(&mut s);
            self.window.push(&s);
            spent += t0.elapsed().as_secs_f64();
            *processed += 1;

            if self.bounds.front().is_some_and(|&(end, _)| end == *processed) {
                let (end, period) = self.bounds.pop_front().expect("front checked");
                if self.window.is_full() {
                    let t = (start_elapsed + end as u64) as f64 / SAMPLE_RATE;
                    on_window(t, period, &self.window)?;
                }
            }
        }
        Ok(spent)
    }
}

/// A long-lived streaming serving session (see the module docs). State —
/// filters, sliding window, transport, arm pose — persists across
/// [`StreamSession::run_for`] calls, so one session serves many segments.
pub struct StreamSession {
    filter: FilterStage,
    head: InferenceHead,
    pool: Arc<ExecPool>,
    label_every: usize,
    /// Reused channel-major flattening of the window the head classifies.
    flat_buf: Vec<f32>,
    elapsed_samples: u64,
    latency: LatencyReport,
    /// Set when a segment failed partway: the board has advanced past the
    /// trace, so continuing would silently desynchronize timestamps.
    poisoned: bool,
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("ensemble", &self.head.ensemble().name())
            .field("window_len", &self.filter.window.window_len())
            .field("elapsed_samples", &self.elapsed_samples)
            .field("threads", &self.pool.threads())
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl StreamSession {
    /// Assembles a streaming session from a spec on an explicit pool.
    ///
    /// The acquisition side mirrors `CognitiveArm::new` exactly (same
    /// subject parameters, same board seed), which is what makes the
    /// streamed trace comparable bit-for-bit with the batch loop.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for an undesignable filter spec, a
    /// degenerate `label_every` or a silently lossy wire
    /// ([`SessionSpec::validate`]).
    pub fn new(spec: SessionSpec, pool: Arc<ExecPool>) -> Result<Self> {
        spec.validate()?;
        let params = SubjectParams::sampled(spec.subject_seed);
        // The filter stage drains the board every label period, so the
        // ring only ever holds one period (plus window-length slack) —
        // size it to consumption instead of the hardware default's six
        // minutes (~2.9 MB per session).
        let ring = spec
            .ensemble
            .window()
            .max(spec.config.label_every)
            .max(64);
        let mut board =
            SimulatedBoard::with_buffer_capacity(params, spec.subject_seed ^ 0xB0A7D, ring);
        board.start_stream().expect("fresh board starts");
        board.set_action(spec.action);

        // The serving wire defaults to the LSL role: reliable and ordered
        // after the dejitter buffer, so no sample is ever lost to the
        // classifier. An explicit wire may be jittery and lossy, but must
        // retransmit, which `validate` checked above.
        let wire = spec.wire.unwrap_or_else(TransportParams::lsl);
        // Seeded per subject so concurrent sessions see independent (but
        // reproducible) networks.
        let mut transport = Transport::new(wire, spec.subject_seed ^ 0x0057_EA11);
        let packet_pool = Arc::new(PacketPool::new());
        transport.set_pool(Arc::clone(&packet_pool));

        let mut chain = StreamingChain::new(&spec.config.filter)?;
        if let Some(z) = spec.normalization {
            chain.set_normalization(z);
        }
        let window = SlidingWindow::new(spec.ensemble.window());
        let controller = Controller::new(spec.config.controller, SafetyGate::new(spec.config.safety));

        Ok(Self {
            filter: FilterStage {
                board,
                outlet: Outlet::new(StreamInfo::eeg_default(), SimClock::aligned()),
                transport,
                inlet: Inlet::new(SimClock::aligned()),
                chain,
                window,
                pool: packet_pool,
                reorder: ReorderRing::new(),
                drained: Vec::new(),
                bounds: VecDeque::new(),
                stats: StageStats::default(),
            },
            flat_buf: Vec::with_capacity(CHANNELS * spec.ensemble.window()),
            head: InferenceHead::new(spec.ensemble, controller),
            pool,
            label_every: spec.config.label_every,
            elapsed_samples: 0,
            latency: LatencyReport::default(),
            poisoned: false,
        })
    }

    /// Wire-pool recycling statistics `(allocated, reused)`: buffers the
    /// packet pool had to allocate fresh vs. takes served from the free
    /// list. At steady state `reused` grows and `allocated` does not.
    #[must_use]
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.filter.pool.allocated(), self.filter.pool.reused())
    }

    /// Sets the mental task the simulated subject performs.
    pub fn set_subject_action(&mut self, action: Action) {
        self.filter.board.set_action(action);
    }

    /// Switches the voice-selected control mode.
    pub fn set_mode(&mut self, mode: ControlMode) {
        self.head.set_mode(mode);
    }

    /// The active control mode.
    #[must_use]
    pub fn mode(&self) -> ControlMode {
        self.head.mode()
    }

    /// Current value of a joint on the simulated arm.
    #[must_use]
    pub fn joint(&self, joint: Joint) -> f64 {
        self.head.joint(joint)
    }

    /// Simulated seconds elapsed across all segments.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_samples as f64 / SAMPLE_RATE
    }

    /// Per-stage latency accounting so far: filtering from the filter
    /// stage's own clock, inference + actuation from the shared
    /// [`InferenceHead`].
    #[must_use]
    pub fn latency(&self) -> LatencyReport {
        LatencyReport {
            filter: self.filter.stats,
            ..self.latency
        }
    }

    /// Packets that arrived out of sequence order and were restored by the
    /// dejitter buffer (a wire-health statistic; never affects labels).
    #[must_use]
    pub fn out_of_order(&self) -> u64 {
        self.filter.inlet.out_of_order()
    }

    /// Runs the session for `seconds` of simulated time, returning this
    /// segment's trace. The filter stage calls the inference head inline
    /// at each label boundary, so windows are classified in order, one at
    /// a time, from one reused buffer.
    ///
    /// # Errors
    ///
    /// Propagates board, wire and actuation failures, and turns a panic
    /// (say, from a custom ensemble member) into
    /// [`ServeError::Panicked`]; rejects non-positive durations. A failed
    /// segment **poisons** the session (the board advanced past the
    /// recorded trace), so further `run_for` calls return an error instead
    /// of desynchronized labels.
    pub fn run_for(&mut self, seconds: f64) -> Result<SessionTrace> {
        let mut trace = SessionTrace::default();
        self.run_into(seconds, &mut trace)?;
        Ok(trace)
    }

    /// [`StreamSession::run_for`] appending to a caller-provided trace.
    /// On a 1-thread pool the label tick — flatten, classify, actuate,
    /// record — performs zero steady-state heap allocations (the wire
    /// stage still allocates per packet; it models a network).
    ///
    /// # Errors
    ///
    /// As [`StreamSession::run_for`].
    pub fn run_into(&mut self, seconds: f64, trace: &mut SessionTrace) -> Result<()> {
        if seconds <= 0.0 {
            return Err(ServeError::BadRequest("non-positive run duration".into()));
        }
        if self.poisoned {
            return Err(ServeError::BadRequest(
                "session poisoned by an earlier mid-segment failure".into(),
            ));
        }
        let total = (seconds * SAMPLE_RATE) as usize;
        let labels = total.div_ceil(self.label_every);
        trace.labels.reserve(labels);
        trace.joints.reserve(labels);

        let filter = &mut self.filter;
        let head = &mut self.head;
        let pool = &self.pool;
        let latency = &mut self.latency;
        let flat_buf = &mut self.flat_buf;
        let mut on_window = |t: f64, period: usize, window: &SlidingWindow| -> Result<()> {
            window.flat_into(flat_buf);
            head.step(flat_buf, pool, t, period, trace, latency)?;
            Ok(())
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            filter.run_segment(
                total,
                self.label_every,
                self.elapsed_samples,
                &mut on_window,
            )
        }))
        .unwrap_or_else(|payload| Err(ServeError::Panicked(panic_message(payload))));

        match result {
            Ok(()) => {
                self.elapsed_samples += total as u64;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }
}
