//! The layer-by-layer traced run.
//!
//! The driver replays a workload with the same seed by calling each
//! layer's public entry points itself, in serve's reference order
//! (`Scheduling::Barrier`), and records a span around every call:
//!
//! * batch sessions through `CognitiveArm::with_pool`, `advance_period`,
//!   `append_window_to`, `Ensemble::predict_batch_into` and
//!   `apply_label_at`;
//! * streaming sessions through a mirror of serve's filter stage built
//!   from `SimulatedBoard`, `Outlet`, `Transport` + `PacketPool`,
//!   `Inlet::pull_into`, `ReorderRing`, `StreamingChain`, `SlidingWindow`
//!   and `InferenceHead`, with serve's seeds;
//! * connects through the public calls a connect is made of.
//!
//! Sub-costs the tick does not expose are timed as probe spans outside the
//! tick, on the same inputs: each ensemble member on the windows the tick
//! classified, board and filter work of batch sessions on a shadow
//! acquisition chain, and the structural compare a batch admission runs.
//! The traced run must reproduce the untraced run's trace digest.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;

use arm::controller::Controller;
use arm::safety::SafetyGate;
use cognitive_arm::pipeline::{
    CognitiveArm, InferenceHead, LatencyReport, SessionTrace, SlidingWindow,
};
use cognitive_arm::preprocess::StreamingChain;
use eeg::board::{Board, SimulatedBoard};
use eeg::signal::SubjectParams;
use eeg::types::Action;
use eeg::{CHANNELS, SAMPLE_RATE};
use exec::{split_seed, ExecPool};
use ml::ensemble::{argmax, tail_window_into, Classifier, Ensemble, EnsembleScratch, Member};
use ml::models::CLASSES;
use ml::plan::InferPlan;
use model_io::{SavedModel, WeightImage};
use serve::SessionSpec;
use stream::clock::SimClock;
use stream::dejitter::ReorderRing;
use stream::inlet::{Inlet, ReceivedSample};
use stream::outlet::{Outlet, StreamInfo};
use stream::pool::PacketPool;
use stream::transport::{Transport, TransportParams};

use crate::report::Metric;
use crate::spans::{attributed_self, self_times, At, Span, SpanLog};
use crate::stats;
use crate::workload::{action_for, Fallible, Recorder, Workload, TICK_SAMPLES, WARMUP_TICKS};

/// Member probes run on every `PROBE_EVERY`-th tick.
const PROBE_EVERY: u32 = 4;
/// Ticks after warm-up whose spans go to the spans file (all spans stay in
/// memory and feed the metrics); enough to read a tick's structure while
/// keeping the file near a megabyte.
const SPANS_FILE_TICKS: u32 = 32;

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default, Clone)]
struct Counters {
    /// Windows classified by `ml.predict` spans in measured ticks.
    windows: u64,
    /// On-tick classify calls and the windows gathered for them (probes
    /// excluded).
    tick_calls: u64,
    tick_windows: u64,
    /// Windows each member probe set ran over.
    member_windows: u64,
    wire: WireCounts,
}

/// Wire, pool and dejitter counts summed over streaming sessions.
#[derive(Debug, Default, Clone, Copy)]
struct WireCounts {
    delivered: u64,
    lost: u64,
    received: u64,
    out_of_order: u64,
    allocated: u64,
    reused: u64,
    pending_sum: u64,
    pending_samples: u64,
}

impl WireCounts {
    fn add(&mut self, o: &WireCounts) {
        self.delivered += o.delivered;
        self.lost += o.lost;
        self.received += o.received;
        self.out_of_order += o.out_of_order;
        self.allocated += o.allocated;
        self.reused += o.reused;
        self.pending_sum += o.pending_sum;
        self.pending_samples += o.pending_samples;
    }
}

/// Board and filter of one batch session, re-run outside the tick on the
/// same subject and seed so their costs can be split from
/// `advance_period`.
struct Shadow {
    board: SimulatedBoard,
    chain: StreamingChain,
    frames: Vec<[f32; CHANNELS]>,
}

impl Shadow {
    /// The acquisition chain `CognitiveArm::with_pool` builds for a batch
    /// session of `model` and `subject`.
    fn new(model: &SavedModel, subject: u64) -> Fallible<Self> {
        let mut chain = StreamingChain::new(&model.pipeline.filter)?;
        if let Some(z) = &model.normalization {
            chain.set_normalization(z.clone());
        }
        let board = board_for(
            subject,
            model.ensemble.window(),
            model.pipeline.label_every,
            Action::Idle,
        )?;
        Ok(Self {
            board,
            chain,
            frames: Vec::with_capacity(TICK_SAMPLES),
        })
    }

    fn probe(&mut self, log: &mut SpanLog, at: At) -> Fallible<()> {
        let Self {
            board,
            chain,
            frames,
        } = self;
        log.record("eeg.board", at, || -> Fallible<()> {
            board.advance(TICK_SAMPLES)?;
            frames.clear();
            board.drain_frames(|f| frames.push(*f))?;
            Ok(())
        })?;
        log.record("dsp.filter", at, || {
            for f in frames.iter() {
                let mut s = *f;
                chain.step(&mut s);
            }
        });
        Ok(())
    }
}

/// Serve's acquisition board for a session: same subject parameters,
/// seed and ring size as `CognitiveArm` and `StreamSession` use.
fn board_for(
    subject: u64,
    window: usize,
    label_every: usize,
    action: Action,
) -> Fallible<SimulatedBoard> {
    let ring = window.max(label_every).max(64);
    let mut board = SimulatedBoard::with_buffer_capacity(
        SubjectParams::sampled(subject),
        subject ^ 0xB0A7D,
        ring,
    );
    board.start_stream()?;
    board.set_action(action);
    Ok(board)
}

/// A streaming session rebuilt from the stream crate's parts, in serve's
/// sequential (one-thread) order.
struct StreamMirror {
    board: SimulatedBoard,
    outlet: Outlet,
    transport: Transport,
    inlet: Inlet,
    chain: StreamingChain,
    window: SlidingWindow,
    packets: Arc<PacketPool>,
    reorder: ReorderRing,
    drained: Vec<ReceivedSample>,
    frames: Vec<[f32; CHANNELS]>,
    head: InferenceHead,
    flat: Vec<f32>,
    latency: LatencyReport,
    elapsed: u64,
    /// Whether this tick produced a label (its window is in `flat`).
    labeled: bool,
    pending_sum: u64,
    pending_samples: u64,
}

impl StreamMirror {
    fn new(spec: SessionSpec) -> Fallible<Self> {
        let board = board_for(
            spec.subject_seed,
            spec.ensemble.window(),
            spec.config.label_every,
            spec.action,
        )?;
        let wire = spec.wire.unwrap_or_else(TransportParams::lsl);
        let mut transport = Transport::new(wire, spec.subject_seed ^ 0x0057_EA11);
        let packets = Arc::new(PacketPool::new());
        transport.set_pool(Arc::clone(&packets));
        let mut chain = StreamingChain::new(&spec.config.filter)?;
        if let Some(z) = spec.normalization {
            chain.set_normalization(z);
        }
        let window = SlidingWindow::new(spec.ensemble.window());
        let controller =
            Controller::new(spec.config.controller, SafetyGate::new(spec.config.safety));
        Ok(Self {
            board,
            outlet: Outlet::new(StreamInfo::eeg_default(), SimClock::aligned()),
            transport,
            inlet: Inlet::new(SimClock::aligned()),
            chain,
            window,
            packets,
            reorder: ReorderRing::new(),
            drained: Vec::new(),
            frames: Vec::with_capacity(TICK_SAMPLES),
            flat: Vec::with_capacity(CHANNELS * spec.ensemble.window()),
            head: InferenceHead::new(spec.ensemble, controller),
            latency: LatencyReport::default(),
            elapsed: 0,
            labeled: false,
            pending_sum: 0,
            pending_samples: 0,
        })
    }

    fn wire_counts(&self) -> WireCounts {
        let stats = self.transport.stats();
        WireCounts {
            delivered: stats.delivered,
            lost: stats.lost,
            received: self.inlet.received(),
            out_of_order: self.inlet.out_of_order(),
            allocated: self.packets.allocated(),
            reused: self.packets.reused(),
            pending_sum: self.pending_sum,
            pending_samples: self.pending_samples,
        }
    }

    /// One label period: acquisition → wire → dejitter → filter → window,
    /// then classify and actuate when the window is due.
    fn tick(
        &mut self,
        log: &mut SpanLog,
        at: At,
        pool: &ExecPool,
        trace: &mut SessionTrace,
    ) -> Fallible<()> {
        let start = self.elapsed;
        let base = start as f64 / SAMPLE_RATE;
        let advance = log.open("core.advance", at);
        let inner = at.under(advance);
        let Self {
            board,
            frames,
            packets,
            outlet,
            transport,
            ..
        } = self;
        log.record("eeg.board", inner, || -> Fallible<()> {
            board.advance(TICK_SAMPLES)?;
            frames.clear();
            board.drain_frames(|f| frames.push(*f))?;
            Ok(())
        })?;
        log.record("stream.push", inner, || -> Fallible<()> {
            for (i, frame) in frames.iter().enumerate() {
                let mut payload = packets.take(CHANNELS);
                payload.extend_from_slice(frame);
                let t_push = base + (i + 1) as f64 / SAMPLE_RATE;
                outlet.push(transport, payload, t_push)?;
            }
            Ok(())
        })?;
        let now = base + TICK_SAMPLES as f64 / SAMPLE_RATE;
        let mut processed = 0usize;
        let mut due = None;
        // Serve drains what has arrived by the period's end, then
        // everything still in flight (retransmissions land late).
        for now in [now, f64::INFINITY] {
            self.ingest(log, inner, now, start, &mut processed, &mut due);
        }
        log.close(advance);
        self.elapsed += TICK_SAMPLES as u64;

        self.labeled = false;
        if let Some(t) = due {
            let Self {
                window,
                flat,
                head,
                latency,
                ..
            } = self;
            log.record("core.gather", at, || window.flat_into(flat));
            let label = log.record("ml.predict", at, || head.classify(flat, pool));
            log.record("arm.actuate", at, || {
                head.apply(label, t, TICK_SAMPLES, trace, latency)
            })?;
            self.labeled = true;
        }
        Ok(())
    }

    fn ingest(
        &mut self,
        log: &mut SpanLog,
        at: At,
        now: f64,
        start: u64,
        processed: &mut usize,
        due: &mut Option<f64>,
    ) {
        let Self {
            inlet,
            transport,
            drained,
            reorder,
            packets,
            chain,
            window,
            ..
        } = self;
        log.record("stream.pull", at, || {
            drained.clear();
            inlet.pull_into(transport, now, drained);
        });
        log.record("stream.dejitter", at, || {
            for sample in drained.drain(..) {
                if let Some(stale) = reorder.insert(sample.seq, sample.payload) {
                    packets.put(stale);
                }
            }
        });
        self.pending_sum += reorder.pending() as u64;
        self.pending_samples += 1;
        log.record("dsp.filter", at, || {
            while let Some(payload) = reorder.pop_ready() {
                let mut s = [0.0f32; CHANNELS];
                for (ch, v) in s.iter_mut().enumerate() {
                    *v = payload[ch];
                }
                packets.put(payload);
                chain.step(&mut s);
                window.push(&s);
                *processed += 1;
                if *processed == TICK_SAMPLES && window.is_full() {
                    *due = Some((start + TICK_SAMPLES as u64) as f64 / SAMPLE_RATE);
                }
            }
        });
    }
}

/// The two session shapes.
enum Shape {
    Batch {
        arm: Box<CognitiveArm>,
        /// Label timestamp captured when the window came due.
        due_ts: Option<f64>,
    },
    Stream(Box<StreamMirror>),
}

struct Session {
    index: u32,
    subject: u64,
    age: u32,
    shape: Shape,
    /// Probe-only copy of a batch session's acquisition.
    shadow: Option<Box<Shadow>>,
    /// This tick's labels and joints.
    trace: SessionTrace,
}

impl Session {
    fn set_action(&mut self, action: Action) {
        match &mut self.shape {
            Shape::Batch { arm, .. } => arm.set_subject_action(action),
            Shape::Stream(m) => m.board.set_action(action),
        }
        if let Some(shadow) = &self.shadow {
            shadow.board.set_action(action);
        }
    }

    /// The session's share of the tick's fan-out.
    fn advance(&mut self, log: &mut SpanLog, at: At, pool: &ExecPool) -> Fallible<()> {
        let at = at.session(self.index);
        match &mut self.shape {
            Shape::Batch { arm, due_ts, .. } => {
                let due = log.record("core.advance", at, || arm.advance_period(TICK_SAMPLES))?;
                *due_ts = due.then(|| arm.elapsed_s());
                Ok(())
            }
            Shape::Stream(m) => {
                let item = log.open("serve.session", at);
                let out = m.tick(log, at.under(item), pool, &mut self.trace);
                log.close(item);
                out
            }
        }
    }
}

/// A micro-batch group, as serve forms them: batch sessions whose
/// ensembles compare equal share one batched call per tick.
struct Group {
    ensemble: Ensemble,
    label_every: usize,
    /// Session indices in admission order.
    members: Vec<u32>,
    scratch: EnsembleScratch,
    windows: Vec<f32>,
    probas: Vec<f32>,
    /// Positions (in the session deque) classified this tick.
    due: Vec<usize>,
}

/// One opened artifact plus the probe state for its members.
struct Artifact {
    /// Keeps the mapped weights alive for the decoded model.
    _image: WeightImage,
    model: SavedModel,
    plans: Vec<Option<InferPlan>>,
    tails: Vec<f32>,
    logits: Vec<f32>,
    /// A seeded window for workloads that classify nothing on the tick.
    probe_window: Vec<f32>,
    probe_scratch: EnsembleScratch,
    probe_probas: Vec<f32>,
}

impl Artifact {
    fn new(image: WeightImage, model: SavedModel, seed: u64) -> Self {
        let ensemble = &model.ensemble;
        let plans = ensemble
            .members()
            .iter()
            .map(|m| match m {
                Member::Net(net) => Some(InferPlan::compile(net)),
                _ => None,
            })
            .collect();
        let probe_window = (0..CHANNELS * ensemble.window())
            .map(|i| (split_seed(seed, i as u64) >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0)
            .collect();
        let probe_scratch = EnsembleScratch::new(ensemble);
        Self {
            _image: image,
            model,
            plans,
            tails: Vec::new(),
            logits: Vec::new(),
            probe_window,
            probe_scratch,
            probe_probas: vec![0.0; CLASSES],
        }
    }

    /// Times each member on `batch` channel-major windows of `win_len`.
    fn probe_members(
        &mut self,
        log: &mut SpanLog,
        at: At,
        windows: &[f32],
        batch: usize,
        win_len: usize,
    ) {
        let Self {
            model,
            plans,
            tails,
            logits,
            ..
        } = self;
        for (member, plan) in model.ensemble.members().iter().zip(plans.iter_mut()) {
            match (member, plan) {
                (Member::Net(net), Some(plan)) => {
                    tails.clear();
                    let mut tail = Vec::new();
                    for b in 0..batch {
                        let w = &windows[b * CHANNELS * win_len..(b + 1) * CHANNELS * win_len];
                        tail_window_into(w, CHANNELS, win_len, net.window(), &mut tail);
                        tails.extend_from_slice(&tail);
                    }
                    logits.resize(batch * net.classes(), 0.0);
                    let name = match net.kind() {
                        "cnn" => "ml.member.cnn",
                        "lstm" => "ml.member.lstm",
                        _ => "ml.member.transformer",
                    };
                    log.record(name, at, || {
                        plan.predict_logits_into(net, tails, batch, logits)
                    });
                }
                (Member::Forest(forest), _) => {
                    log.record("ml.member.forest", at, || {
                        for b in 0..batch {
                            let w = &windows[b * CHANNELS * win_len..(b + 1) * CHANNELS * win_len];
                            std::hint::black_box(forest.predict_proba_window(w, CHANNELS, win_len));
                        }
                    });
                }
                _ => {}
            }
        }
    }
}

/// The traced replay of one workload.
pub struct Driver {
    workload: Workload,
    seed: u64,
    pool: Arc<ExecPool>,
    log: SpanLog,
    counters: Counters,
    artifacts: Vec<Artifact>,
    sessions: VecDeque<Session>,
    groups: Vec<Group>,
    next_index: u32,
    recorder: Recorder,
    tick: u32,
    /// Groups alive at the end of the measured loop.
    groups_at_end: usize,
}

impl Driver {
    /// Builds the fixture, saves, opens and decodes the artifacts, admits
    /// the sessions and runs the warm-up ticks, all traced.
    ///
    /// # Errors
    ///
    /// Any failure of the replayed calls.
    pub fn setup(
        workload: Workload,
        seed: u64,
        pool: &Arc<ExecPool>,
        dir: &Path,
    ) -> Fallible<Self> {
        let mut log = SpanLog::new();
        let models = log.record("ml.fixture", At::default(), || workload.fixture(pool))?;
        let mut artifacts = Vec::with_capacity(models.len());
        for (i, model) in models.iter().enumerate() {
            let path = dir.join(format!("{}-traced-{i}.cogm", workload.name()));
            log.record("model_io.save", At::default(), || model.save(&path))?;
            let image = log.record("model_io.open", At::default(), || WeightImage::open(&path))?;
            let model = log.record("model_io.decode", At::default(), || image.decode())?;
            log.record("ml.precompile", At::default(), || {
                model.ensemble.precompile_exec()
            });
            artifacts.push(Artifact::new(image, model, seed ^ i as u64));
        }
        let mut driver = Self {
            workload,
            seed,
            pool: Arc::clone(pool),
            log,
            counters: Counters::default(),
            artifacts,
            sessions: VecDeque::new(),
            groups: Vec::new(),
            next_index: 0,
            recorder: Recorder::new(&[]),
            tick: 0,
            groups_at_end: 0,
        };
        for _ in 0..workload.sessions() {
            driver.connect(None)?;
        }
        for _ in 0..WARMUP_TICKS {
            driver.tick()?;
        }
        driver.counters = Counters {
            wire: driver.counters.wire,
            ..Counters::default()
        };
        Ok(driver)
    }

    /// The trace digest so far.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.recorder.digest()
    }

    fn connect(&mut self, tick: Option<u32>) -> Fallible<()> {
        let index = self.next_index;
        let adm = self.workload.admission(self.seed, index);
        let at = At {
            parent: None,
            tick,
            session: Some(index),
        };
        let log = &mut self.log;
        let conn = log.open("serve.connect", at);
        let inner = at.under(conn);
        let artifact = &self.artifacts[adm.artifact];
        let model = log.record("ml.clone", inner, || artifact.model.clone());
        let spec = adm.spec(model);
        log.record("dsp.design", inner, || spec.validate())?;
        let shape = if adm.streaming {
            let mirror = log.record("core.construct", inner, || StreamMirror::new(spec))?;
            Shape::Stream(Box::new(mirror))
        } else {
            let groups = &mut self.groups;
            let found = log.record("ml.eq", inner, || {
                groups.iter().position(|g| {
                    g.label_every == spec.config.label_every && g.ensemble == spec.ensemble
                })
            });
            match found {
                Some(g) => groups[g].members.push(index),
                None => {
                    let ensemble = log.record("ml.clone", inner, || spec.ensemble.clone());
                    let scratch =
                        log.record("ml.scratch", inner, || EnsembleScratch::new(&ensemble));
                    groups.push(Group {
                        ensemble,
                        label_every: spec.config.label_every,
                        members: vec![index],
                        scratch,
                        windows: Vec::new(),
                        probas: Vec::new(),
                        due: Vec::new(),
                    });
                }
            }
            let pool = &self.pool;
            let arm = log.record("core.construct", inner, || {
                let mut arm = CognitiveArm::with_pool(
                    spec.config,
                    spec.ensemble,
                    spec.subject_seed,
                    Arc::clone(pool),
                );
                if let Some(z) = spec.normalization {
                    arm.set_normalization(z);
                }
                arm.set_subject_action(spec.action);
                arm
            });
            Shape::Batch {
                arm: Box::new(arm),
                due_ts: None,
            }
        };
        log.close(conn);
        let shadow = match &shape {
            Shape::Batch { .. } => Some(Box::new(Shadow::new(&artifact.model, adm.subject)?)),
            Shape::Stream(m) => {
                // Streaming admission never compares ensembles; probe the
                // compare a batch admission of this model would run.
                let reference = &artifact.model.ensemble;
                log.record("ml.eq", at, || {
                    std::hint::black_box(m.head.ensemble() == reference)
                });
                None
            }
        };
        self.sessions.push_back(Session {
            index,
            subject: adm.subject,
            age: 0,
            shape,
            shadow,
            trace: SessionTrace::default(),
        });
        self.recorder.admit(index);
        self.next_index += 1;
        Ok(())
    }

    fn remove_oldest(&mut self, tick: Option<u32>) {
        let Some(index) = self.sessions.front().map(|s| s.index) else {
            return;
        };
        let Self {
            log,
            sessions,
            groups,
            counters,
            ..
        } = self;
        let at = At {
            parent: None,
            tick,
            session: Some(index),
        };
        log.record("serve.remove", at, || {
            if let Some(Session {
                shape: Shape::Stream(m),
                ..
            }) = sessions.pop_front()
            {
                counters.wire.add(&m.wire_counts());
            }
            for g in groups.iter_mut() {
                g.members.retain(|&i| i != index);
            }
            groups.retain(|g| !g.members.is_empty());
        });
    }

    /// One traced serving tick, then the probes and the workload's churn.
    ///
    /// # Errors
    ///
    /// Any failure of the replayed calls.
    pub fn tick(&mut self) -> Fallible<()> {
        let tick = self.tick;
        let at = At {
            parent: None,
            tick: Some(tick),
            session: None,
        };
        for s in &mut self.sessions {
            if let Some(action) = action_for(s.subject, s.age) {
                s.set_action(action);
            }
        }
        let root = self.log.open("serve.tick", at);
        let fan = self.log.open("exec.fanout", at.under(root));
        let proto = self.log.child();
        let pool = Arc::clone(&self.pool);
        let outcomes = pool.par_map_mut(self.sessions.make_contiguous(), |s| {
            let mut local = proto.child();
            let out = s.advance(&mut local, at, &pool).map_err(|e| e.to_string());
            (local, out)
        });
        self.log.close(fan);
        let mut failure = None;
        for (local, out) in outcomes {
            self.log.adopt(local, fan);
            if let Err(e) = out {
                failure.get_or_insert(e);
            }
        }
        if let Some(e) = failure {
            return Err(e.into());
        }
        for g in 0..self.groups.len() {
            self.classify_group(g, at.under(root))?;
        }
        self.log.close(root);
        self.count_streaming_labels();
        self.probe(at)?;

        for s in &mut self.sessions {
            self.recorder.record(s.index, s.age, &s.trace);
            s.trace.labels.clear();
            s.trace.joints.clear();
            s.age += 1;
        }
        for _ in 0..self.workload.churn() {
            self.remove_oldest(Some(tick));
            self.connect(Some(tick))?;
        }
        self.tick += 1;
        self.groups_at_end = self.groups.len();
        Ok(())
    }

    fn count_streaming_labels(&mut self) {
        for s in &self.sessions {
            if let Shape::Stream(m) = &s.shape {
                if m.labeled {
                    self.counters.windows += 1;
                    self.counters.tick_calls += 1;
                    self.counters.tick_windows += 1;
                }
            }
        }
    }

    /// Gathers the group's due windows, classifies them in one batched
    /// call and actuates each session, in admission order.
    fn classify_group(&mut self, g: usize, at: At) -> Fallible<()> {
        let Self {
            log,
            sessions,
            groups,
            counters,
            pool,
            ..
        } = self;
        let group = &mut groups[g];
        group.due.clear();
        group.windows.clear();
        for &index in &group.members {
            let pos = sessions
                .binary_search_by_key(&index, |s| s.index)
                .map_err(|_| "group member is not a live session")?;
            if matches!(
                sessions[pos].shape,
                Shape::Batch {
                    due_ts: Some(_),
                    ..
                }
            ) {
                group.due.push(pos);
            }
        }
        if group.due.is_empty() {
            return Ok(());
        }
        log.record("core.gather", at, || {
            for &pos in &group.due {
                if let Shape::Batch { arm, .. } = &sessions[pos].shape {
                    arm.append_window_to(&mut group.windows);
                }
            }
        });
        let k = group.due.len();
        group.probas.clear();
        group.probas.resize(k * CLASSES, 0.0);
        let predict = log.open("ml.predict", at);
        group.ensemble.predict_batch_into(
            &group.windows,
            k,
            CHANNELS,
            pool,
            &mut group.scratch,
            &mut group.probas,
        );
        log.close(predict);
        let inference_s = log.spans()[predict as usize].dur() as f64 * 1e-9;
        counters.windows += k as u64;
        counters.tick_calls += 1;
        counters.tick_windows += k as u64;
        for (j, &pos) in group.due.iter().enumerate() {
            let label = argmax(&group.probas[j * CLASSES..(j + 1) * CLASSES]);
            let session = &mut sessions[pos];
            let Shape::Batch { arm, due_ts, .. } = &mut session.shape else {
                continue;
            };
            let ts = due_ts.take().ok_or("due window without a timestamp")?;
            let trace = &mut session.trace;
            log.record("arm.actuate", at.session(session.index), || {
                arm.apply_label_at(label, ts, TICK_SAMPLES, inference_s, trace)
            })?;
        }
        Ok(())
    }

    /// Probe spans outside the tick: shadow acquisition for batch sessions
    /// every tick; member costs (and, where the tick classifies nothing,
    /// the ensemble call itself) every [`PROBE_EVERY`] ticks.
    fn probe(&mut self, at: At) -> Fallible<()> {
        let Self {
            log,
            sessions,
            groups,
            artifacts,
            counters,
            pool,
            workload,
            seed,
            ..
        } = self;
        for s in sessions.iter_mut() {
            if let Some(shadow) = &mut s.shadow {
                shadow.probe(log, at.session(s.index))?;
            }
        }
        if !at.tick.unwrap_or(0).is_multiple_of(PROBE_EVERY) {
            return Ok(());
        }
        for group in groups.iter() {
            if group.due.is_empty() {
                continue;
            }
            let first = group.members[0];
            let adm = workload.admission(*seed, first);
            let win_len = group.ensemble.window();
            artifacts[adm.artifact].probe_members(
                log,
                at,
                &group.windows,
                group.due.len(),
                win_len,
            );
            counters.member_windows += group.due.len() as u64;
        }
        for s in sessions.iter() {
            if let Shape::Stream(m) = &s.shape {
                if m.labeled {
                    let adm = workload.admission(*seed, s.index);
                    let win_len = m.head.ensemble().window();
                    artifacts[adm.artifact].probe_members(
                        log,
                        at.session(s.index),
                        &m.flat,
                        1,
                        win_len,
                    );
                    counters.member_windows += 1;
                }
            }
        }
        if counters.tick_calls == 0 && at.tick.unwrap_or(0) >= WARMUP_TICKS {
            // Nothing classifies on this workload's tick (sessions leave
            // before their windows fill): price the ensemble call and its
            // members on a seeded window instead.
            for a in artifacts.iter_mut() {
                let win_len = a.model.ensemble.window();
                let Artifact {
                    model,
                    probe_window,
                    probe_scratch,
                    probe_probas,
                    ..
                } = a;
                log.record("ml.predict", at, || {
                    model.ensemble.predict_batch_into(
                        probe_window,
                        1,
                        CHANNELS,
                        pool,
                        probe_scratch,
                        probe_probas,
                    );
                });
                counters.windows += 1;
                let window = a.probe_window.clone();
                a.probe_members(log, at, &window, 1, win_len);
                counters.member_windows += 1;
            }
        }
        Ok(())
    }

    /// Removes every session (timed as disconnects) and folds the
    /// remaining wire counters.
    pub fn teardown(&mut self) {
        while !self.sessions.is_empty() {
            self.remove_oldest(None);
        }
    }

    /// Writes the setup spans and the first [`SPANS_FILE_TICKS`] measured
    /// ticks' spans as JSON lines.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        self.log.write_jsonl(path, |s| {
            s.tick.is_none_or(|t| t < WARMUP_TICKS + SPANS_FILE_TICKS)
        })
    }

    /// The measured traced ticks' wall times in ms, ascending.
    fn tick_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .log
            .spans()
            .iter()
            .filter(|s| s.name == "serve.tick" && measured(s))
            .map(|s| s.dur() as f64 * 1e-6)
            .collect();
        stats::sort(&mut v);
        v
    }

    /// Every per-layer metric, plus layer numbers that exist only on some
    /// workloads and the per-layer self time per tick.
    #[must_use]
    pub fn metrics(&self, untraced_p50_ms: f64) -> Vec<Metric> {
        let spans = self.log.spans();
        let c = &self.counters;
        let sum = |name: &str, only_measured: bool| -> (f64, usize) {
            spans
                .iter()
                .filter(|s| s.name == name && (!only_measured || measured(s)))
                .fold((0.0, 0), |(t, n), s| (t + s.dur() as f64, n + 1))
        };
        let us = |ns: f64| ns * 1e-3;
        let mean_us = |name: &str, only_measured: bool| {
            let (t, n) = sum(name, only_measured);
            (ratio(us(t), n as f64), n)
        };
        let mut out = Vec::new();
        let mut put = |name: &str, value: f64, unit: &str, n: usize| {
            out.push(Metric::new(name, value, unit, n))
        };

        let (predict, predict_n) = sum("ml.predict", true);
        put(
            "ml.predict_us",
            ratio(us(predict), predict_n as f64),
            "us",
            predict_n,
        );
        put(
            "ml.us_per_window",
            ratio(us(predict), c.windows as f64),
            "us",
            c.windows as usize,
        );
        put(
            "ml.batch_mean",
            ratio(c.tick_windows as f64, c.tick_calls as f64),
            "count",
            c.tick_calls as usize,
        );
        let members: Vec<(&str, f64)> = ["cnn", "lstm", "transformer", "forest"]
            .iter()
            .map(|k| {
                let name = format!("ml.member.{k}");
                let t: f64 = spans
                    .iter()
                    .filter(|s| s.name == name && measured(s))
                    .map(|s| s.dur() as f64)
                    .sum();
                (*k, t)
            })
            .collect();
        let member_total: f64 = members.iter().map(|m| m.1).sum();
        put(
            "ml.members_us_per_window",
            ratio(us(member_total), c.member_windows as f64),
            "us",
            c.member_windows as usize,
        );
        let (v, n) = mean_us("ml.clone", false);
        put("ml.clone_us", v, "us", n);
        let (v, n) = mean_us("ml.eq", false);
        put("ml.eq_us", v, "us", n);
        let (v, n) = mean_us("ml.precompile", false);
        put("ml.precompile_ms", v * 1e-3, "ms", n);
        let (t, n) = sum("ml.fixture", false);
        put("ml.fixture_s", t * 1e-9, "s", n);

        let fanouts: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "exec.fanout" && measured(s))
            .map(|(i, _)| i)
            .collect();
        let fan_wall: f64 = fanouts.iter().map(|&i| spans[i].dur() as f64).sum();
        let busy: f64 = spans
            .iter()
            .filter(|s| {
                s.parent
                    .is_some_and(|p| spans[p as usize].name == "exec.fanout")
                    && measured(s)
            })
            .map(|s| s.dur() as f64)
            .sum();
        put(
            "exec.advance_efficiency",
            ratio(busy, self.pool.threads() as f64 * fan_wall),
            "ratio",
            fanouts.len(),
        );

        let (v, n) = mean_us("core.advance", true);
        put("core.advance_us", v, "us", n);
        let (v, n) = mean_us("core.construct", false);
        put("core.construct_us", v, "us", n);
        let (board, board_n) = sum("eeg.board", true);
        put(
            "eeg.board_us",
            ratio(us(board), board_n as f64),
            "us",
            board_n,
        );
        let (filter, _) = sum("dsp.filter", true);
        put(
            "dsp.filter_us",
            ratio(us(filter), board_n as f64),
            "us",
            board_n,
        );
        let (v, n) = mean_us("dsp.design", false);
        put("dsp.design_us", v, "us", n);

        let w = {
            let mut w = c.wire;
            for s in &self.sessions {
                if let Shape::Stream(m) = &s.shape {
                    w.add(&m.wire_counts());
                }
            }
            w
        };
        put(
            "stream.delivery_ratio",
            ratio(w.delivered as f64, (w.delivered + w.lost) as f64),
            "ratio",
            (w.delivered + w.lost) as usize,
        );
        put(
            "stream.out_of_order_ratio",
            ratio(w.out_of_order as f64, w.received as f64),
            "ratio",
            w.received as usize,
        );
        put(
            "stream.pool_reuse_ratio",
            ratio(w.reused as f64, (w.reused + w.allocated) as f64),
            "ratio",
            (w.reused + w.allocated) as usize,
        );
        put(
            "stream.dejitter_held_mean",
            ratio(w.pending_sum as f64, w.pending_samples as f64),
            "count",
            w.pending_samples as usize,
        );

        let (v, n) = mean_us("serve.connect", false);
        put("serve.connect_us", v, "us", n);
        let (v, n) = mean_us("serve.remove", false);
        put("serve.remove_us", v, "us", n);
        put(
            "serve.connects",
            n_of(spans, "serve.connect") as f64,
            "count",
            1,
        );
        put("serve.groups", self.groups_at_end as f64, "count", 1);

        let own = self_times(spans);
        let ticks: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "serve.tick" && measured(s))
            .map(|(i, _)| i)
            .collect();
        let tick_total: f64 = ticks.iter().map(|&i| spans[i].dur() as f64).sum();
        let root_self: f64 = ticks.iter().map(|&i| own[i] as f64).sum();
        put(
            "serve.overhead_us",
            ratio(us(root_self), ticks.len() as f64),
            "us",
            ticks.len(),
        );

        for (name, unit) in [
            ("model_io.save", "ms"),
            ("model_io.open", "ms"),
            ("model_io.decode", "ms"),
        ] {
            let (v, n) = mean_us(name, false);
            put(&format!("{name}_{unit}"), v * 1e-3, unit, n);
        }
        let traced = self.tick_ms();
        let traced_p50 = if traced.is_empty() {
            f64::NAN
        } else {
            stats::percentile(&traced, 50.0)
        };
        put(
            "trace.overhead_ratio",
            traced_p50 / untraced_p50_ms,
            "ratio",
            traced.len(),
        );
        put(
            "trace.coverage",
            ratio(tick_total - root_self, tick_total),
            "ratio",
            ticks.len(),
        );

        // Layer numbers that exist only on some workloads.
        for (kind, t) in &members {
            if *t > 0.0 {
                put(
                    &format!("ml.member.{kind}_us_per_window"),
                    us(*t) / c.member_windows as f64,
                    "us",
                    c.member_windows as usize,
                );
            }
        }
        put(
            "core.gather_us",
            ratio(us(sum("core.gather", true).0), c.tick_windows as f64),
            "us",
            c.tick_windows as usize,
        );
        let (push, push_n) = sum("stream.push", true);
        for (name, t) in [
            ("stream.push_us", push),
            ("stream.pull_us", sum("stream.pull", true).0),
            ("stream.dejitter_us", sum("stream.dejitter", true).0),
        ] {
            put(name, ratio(us(t), push_n as f64), "us", push_n);
        }
        let (v, n) = mean_us("arm.actuate", true);
        put("arm.actuate_us", v, "us", n);
        put("trace.tick_p50_ms", traced_p50, "ms", traced.len());

        // Self time per layer per tick, attributed to wall time: these add
        // up to the traced tick.
        let attributed = attributed_self(spans);
        let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            let r = s.parent.map_or(i, |p| root_of[p as usize]);
            root_of.push(r);
        }
        let mut layers: Vec<(&str, f64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let root = &spans[root_of[i]];
            if root.name != "serve.tick" || !measured(root) {
                continue;
            }
            match layers.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some((_, t)) => *t += attributed[i],
                None => layers.push((s.layer(), attributed[i])),
            }
        }
        for (layer, t) in layers {
            put(
                &format!("{layer}.self_us_per_tick"),
                ratio(us(t), ticks.len() as f64),
                "us",
                ticks.len(),
            );
        }
        out
    }
}

fn measured(s: &Span) -> bool {
    s.tick.is_some_and(|t| t >= WARMUP_TICKS)
}

fn n_of(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
