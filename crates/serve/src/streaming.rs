//! The serving session: one label loop, read off the board directly or
//! through a network wire.
//!
//! A [`StreamSession`] models the deployed serving shape: samples arrive
//! **over the wire** — board → [`stream::outlet::Outlet`] →
//! [`stream::transport::Transport`] (LSL role: reliable, timestamped,
//! occasionally out of order) → [`stream::inlet::Inlet`] — are dejittered
//! back into sequence order, then causally filtered and windowed. Each
//! label period is one *advance*, which copies out every window that comes
//! due at a full label boundary; [`StreamSession::run_for`] classifies and
//! actuates each one through the session's own inference head.
//! [`crate::SessionManager`] serves this same type — without the wire for
//! its batch sessions — and classifies the windows a whole micro-batch
//! group captured in one batched ensemble call instead.
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
use std::time::Instant;

use arm::controller::{ControlMode, Controller};
use arm::kinematics::Joint;
use arm::safety::SafetyGate;
use cognitive_arm::pipeline::{InferenceHead, LatencyReport, SessionTrace, SlidingWindow};
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

/// The network between a streaming session's board and its filter.
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

/// A long-lived serving session (see the module docs). State — filters,
/// sliding window, wire, arm pose — persists across
/// [`StreamSession::run_for`] calls, so one session serves many segments.
pub struct StreamSession {
    board: SimulatedBoard,
    /// `None` reads the board directly (a manager's batch session).
    wire: Option<Wire>,
    feed: Feed,
    head: InferenceHead,
    pool: Arc<ExecPool>,
    label_every: usize,
    elapsed_samples: u64,
    latency: LatencyReport,
    /// Set when a segment failed partway: the board has advanced past the
    /// trace, so continuing would silently desynchronize timestamps.
    pub(crate) poisoned: bool,
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("ensemble", &self.head.ensemble().name())
            .field("window_len", &self.feed.window.window_len())
            .field("elapsed_samples", &self.elapsed_samples)
            .field("threads", &self.pool.threads())
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

pub(crate) const POISONED: &str = "session poisoned by an earlier mid-segment failure";

impl StreamSession {
    /// Assembles a streaming session from a spec on an explicit pool.
    ///
    /// The acquisition side mirrors `CognitiveArm::new` exactly (same
    /// subject parameters, same board seed), which is what makes the
    /// streamed trace comparable bit-for-bit with the batch loop.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a spec [`SessionSpec::validate`]
    /// refuses.
    pub fn new(spec: SessionSpec, pool: Arc<ExecPool>) -> Result<Self> {
        let chain = spec.checked_chain()?;
        Ok(Self::build(spec, chain, true, pool))
    }

    /// The one constructor: `chain` is the filter the spec's checks
    /// designed, and `streaming` puts the wire (the spec's, or the LSL
    /// role) between board and filter.
    pub(crate) fn build(
        spec: SessionSpec,
        mut chain: StreamingChain,
        streaming: bool,
        pool: Arc<ExecPool>,
    ) -> Self {
        let params = SubjectParams::sampled(spec.subject_seed);
        let win = spec.ensemble.window();
        let label_every = spec.config.label_every;
        // The session drains the board every label period, so the ring
        // only ever holds one period (plus window-length slack) — size it
        // to consumption instead of the hardware default's six minutes.
        let ring = win.max(label_every).max(64);
        let mut board =
            SimulatedBoard::with_buffer_capacity(params, spec.subject_seed ^ 0xB0A7D, ring);
        board.start_stream().expect("fresh board starts");
        board.set_action(spec.action);
        if let Some(z) = spec.normalization {
            chain.set_normalization(z);
        }
        let controller =
            Controller::new(spec.config.controller, SafetyGate::new(spec.config.safety));
        Self {
            board,
            wire: streaming.then(|| {
                Wire::new(
                    spec.wire.unwrap_or_else(TransportParams::lsl),
                    spec.subject_seed,
                )
            }),
            feed: Feed {
                chain,
                window: SlidingWindow::new(win),
                bounds: VecDeque::new(),
                fed: 0,
                windows: Vec::new(),
                stamps: Vec::new(),
            },
            head: InferenceHead::new(spec.ensemble, controller),
            pool,
            label_every,
            elapsed_samples: 0,
            latency: LatencyReport::default(),
            poisoned: false,
        }
    }

    /// Wire-pool recycling statistics `(allocated, reused)`: buffers the
    /// packet pool had to allocate fresh vs. takes served from the free
    /// list. At steady state `reused` grows and `allocated` does not.
    #[must_use]
    pub fn pool_stats(&self) -> (u64, u64) {
        self.wire
            .as_ref()
            .map_or((0, 0), |w| (w.pool.allocated(), w.pool.reused()))
    }

    /// Sets the mental task the simulated subject performs.
    pub fn set_subject_action(&mut self, action: Action) {
        self.board.set_action(action);
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

    /// Per-stage latency accounting so far: `filter` times each label
    /// period's read (wire included), dejitter, filtering and windowing;
    /// inference and actuation come from the [`InferenceHead`].
    #[must_use]
    pub fn latency(&self) -> LatencyReport {
        self.latency
    }

    /// Packets that arrived out of sequence order and were restored by the
    /// dejitter buffer (a wire-health statistic; never affects labels).
    #[must_use]
    pub fn out_of_order(&self) -> u64 {
        self.wire.as_ref().map_or(0, |w| w.inlet.out_of_order())
    }

    /// Runs the session for `seconds` of simulated time, returning this
    /// segment's trace. Each captured window is classified through the
    /// session's own head, in order, one at a time.
    ///
    /// # Errors
    ///
    /// Propagates board, wire and actuation failures, and turns a panic
    /// (say, from a custom ensemble member) into
    /// [`ServeError::Panicked`]; rejects a duration that is not finite and
    /// positive. A failed segment **poisons** the session (the board
    /// advanced past the recorded trace), so further `run_for` calls
    /// return an error instead of desynchronized labels.
    pub fn run_for(&mut self, seconds: f64) -> Result<SessionTrace> {
        let mut trace = SessionTrace::default();
        self.run_into(seconds, &mut trace)?;
        Ok(trace)
    }

    /// [`StreamSession::run_for`] appending to a caller-provided trace.
    /// On a 1-thread pool a warm segment — wire, dejitter, filter, window,
    /// classify, actuate, record — performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// As [`StreamSession::run_for`].
    pub fn run_into(&mut self, seconds: f64, trace: &mut SessionTrace) -> Result<()> {
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err(ServeError::BadRequest(
                "run duration must be finite and positive".into(),
            ));
        }
        if self.poisoned {
            return Err(ServeError::BadRequest(POISONED.into()));
        }
        let total = (seconds * SAMPLE_RATE) as usize;
        let labels = total.div_ceil(self.label_every);
        trace.labels.reserve(labels);
        trace.joints.reserve(labels);
        self.guard(|s| {
            let mut done = 0usize;
            while done < total {
                let n = s.label_every.min(total - done);
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

    /// Runs `f` on the session, turning a panic into
    /// [`ServeError::Panicked`]; any failure poisons the session.
    pub(crate) fn guard<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut *self)))
            .unwrap_or_else(|payload| Err(ServeError::Panicked(panic_message(payload))));
        self.poisoned |= out.is_err();
        out
    }

    /// Advances one label period of `n` samples: reads the board directly
    /// or through the wire, feeds every sample that arrived in sequence
    /// order, and copies out each window that came due at a full label
    /// boundary ([`StreamSession::captured`]). Read directly, that is zero
    /// or one window; over a jittery wire, any number. The segment's
    /// `last` period drains the wire.
    pub(crate) fn advance(&mut self, n: usize, last: bool) -> Result<()> {
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

    /// The windows the last advance captured, back to back, and their
    /// count.
    pub(crate) fn captured(&self) -> (&[f32], usize) {
        (&self.feed.windows, self.feed.stamps.len())
    }

    /// Actuates captured window `j` with a label classified elsewhere (a
    /// group's batched call, whose wall time `inference_s` is the latency
    /// this window saw), through the head's actuation and record code.
    pub(crate) fn actuate(
        &mut self,
        j: usize,
        label: usize,
        inference_s: f64,
        trace: &mut SessionTrace,
    ) -> Result<()> {
        let (t, period) = self.feed.stamps[j];
        self.latency.inference.record(inference_s);
        self.head
            .apply(label, t, period, trace, &mut self.latency)?;
        Ok(())
    }
}
