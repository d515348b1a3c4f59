//! The [`SessionManager`]: many concurrent `CognitiveArm` sessions
//! multiplexed over one shared [`ExecPool`].

use std::sync::Arc;
use std::time::Instant;

use arm::controller::ControlMode;
use cognitive_arm::pipeline::{CognitiveArm, PipelineConfig, SessionTrace};
use cognitive_arm::preprocess::StreamingChain;
use dsp::normalize::Zscore;
use eeg::types::Action;
use eeg::{CHANNELS, SAMPLE_RATE};
use exec::ExecPool;
use ml::ensemble::{argmax, Ensemble, EnsembleScratch};
use ml::models::CLASSES;
use model_io::{SavedModel, WeightImage};
use stream::transport::TransportParams;

use crate::streaming::{StreamSession, DEFAULT_CHANNEL_CAPACITY};
use crate::{Result, ServeError};

/// Everything needed to admit one user session: the trained artifact plus
/// the per-user simulation parameters.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Pipeline configuration (filter design, label rate, controller).
    pub config: PipelineConfig,
    /// The trained classifying ensemble.
    pub ensemble: Ensemble,
    /// Frozen per-subject normalization, if fitted.
    pub normalization: Option<Zscore>,
    /// Seed identifying the simulated subject (and their wire).
    pub subject_seed: u64,
    /// The mental task the subject starts with.
    pub action: Action,
    /// Wire behaviour for streaming sessions (`None` = the LSL role).
    /// Ignored by batch sessions, which have no wire.
    pub wire: Option<TransportParams>,
}

impl SessionSpec {
    /// A spec with default normalization (none) and an idle subject.
    #[must_use]
    pub fn new(config: PipelineConfig, ensemble: Ensemble, subject_seed: u64) -> Self {
        Self {
            config,
            ensemble,
            normalization: None,
            subject_seed,
            action: Action::Idle,
            wire: None,
        }
    }

    /// Builds a spec straight from a persisted artifact — the serving cold
    /// start: `SavedModel::load` + `from_saved` + `add_session`.
    #[must_use]
    pub fn from_saved(model: SavedModel, subject_seed: u64) -> Self {
        Self {
            config: model.pipeline,
            ensemble: model.ensemble,
            normalization: model.normalization,
            subject_seed,
            action: Action::Idle,
            wire: None,
        }
    }

    /// Installs frozen normalization statistics.
    #[must_use]
    pub fn with_normalization(mut self, zscore: Zscore) -> Self {
        self.normalization = Some(zscore);
        self
    }

    /// Sets the subject's initial mental task.
    #[must_use]
    pub fn with_action(mut self, action: Action) -> Self {
        self.action = action;
        self
    }

    /// Sets an explicit wire for streaming sessions (jitter, loss,
    /// overhead — see [`TransportParams`]). Lossy wires must retransmit:
    /// a silent drop would park the dejitter cursor on the missing
    /// sequence number forever, so [`SessionSpec::validate`] rejects that
    /// combination.
    #[must_use]
    pub fn with_wire(mut self, wire: TransportParams) -> Self {
        self.wire = Some(wire);
        self
    }

    /// Rejects specs the pipeline constructors would panic on, so session
    /// admission is a typed error instead of a crash.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an undesignable filter, a zero
    /// `label_every`, or a silently lossy wire.
    pub fn validate(&self) -> Result<()> {
        if self.config.label_every == 0 {
            return Err(ServeError::BadRequest(
                "label_every must be positive".into(),
            ));
        }
        if let Some(wire) = &self.wire {
            if wire.loss_prob > 0.0 && !wire.retransmit {
                return Err(ServeError::BadRequest(
                    "streaming sessions need a reliable wire: lossy transports must retransmit"
                        .into(),
                ));
            }
        }
        StreamingChain::new(&self.config.filter)
            .map_err(|e| ServeError::BadRequest(format!("filter spec rejected: {e}")))?;
        Ok(())
    }
}

/// Handle to a session owned by a [`SessionManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(usize);

impl SessionId {
    /// The manager-local index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to an interned artifact owned by a [`SessionManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactId(usize);

impl ArtifactId {
    /// The manager-local index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One interned artifact: the shared weight image plus the model decoded
/// through it **once**. Every session admitted against this entry clones
/// `model.ensemble` — with arena-backed tensors that clone is a refcount
/// bump on the image, not a weight copy, so N sessions of one artifact
/// cost `weights + N × scratch`.
struct ArtifactEntry {
    image: WeightImage,
    model: SavedModel,
}

/// One managed session: either the monolithic batch loop or the two-stage
/// streaming pipeline. Both shapes share the manager's pool. Boxed so the
/// manager's session vector stays compact regardless of which shape a
/// slot holds.
enum ManagedSession {
    Batch(Box<CognitiveArm>),
    Streaming(Box<StreamSession>),
}

/// A managed session plus its health: a session whose segment failed
/// partway has advanced past its recorded trace, so the manager refuses
/// to run it again (the same poisoning rule `StreamSession` applies
/// internally, enforced here for both shapes).
struct Slot {
    session: ManagedSession,
    poisoned: bool,
}

const POISONED: &str = "session poisoned by an earlier mid-segment failure";

impl Slot {
    /// Advances a streaming session by one segment. Batch sessions never
    /// run through here — they advance in lockstep via their
    /// [`BatchGroup`].
    fn run_streaming_for(&mut self, seconds: f64) -> Result<SessionTrace> {
        if self.poisoned {
            return Err(ServeError::BadRequest(POISONED.into()));
        }
        let out = match &mut self.session {
            ManagedSession::Streaming(session) => session.run_for(seconds),
            ManagedSession::Batch(_) => {
                unreachable!("batch sessions run through their micro-batch group")
            }
        };
        if out.is_err() {
            self.poisoned = true;
        }
        out
    }

    fn batch_arm_mut(&mut self) -> &mut CognitiveArm {
        match &mut self.session {
            ManagedSession::Batch(arm) => arm,
            ManagedSession::Streaming(_) => unreachable!("grouped slots are batch sessions"),
        }
    }

    fn set_action(&mut self, action: Action) {
        match &mut self.session {
            ManagedSession::Batch(arm) => arm.set_subject_action(action),
            ManagedSession::Streaming(session) => session.set_subject_action(action),
        }
    }

    fn set_mode(&mut self, mode: ControlMode) {
        match &mut self.session {
            ManagedSession::Batch(arm) => arm.set_mode(mode),
            ManagedSession::Streaming(session) => session.set_mode(mode),
        }
    }
}

/// How a [`SessionManager`] schedules its micro-batch groups each tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Ready-set (the default): each tick classifies the windows gathered
    /// on the *previous* tick while every member's filter stage advances
    /// concurrently — one-tick software pipelining. A member whose filter
    /// is still running never stalls the batched ensemble call; it simply
    /// joins the next tick's batch. Per-session traces are bit-identical
    /// to [`Scheduling::Barrier`]: plan v2's row-count invariance makes
    /// batch composition invisible, timestamps are captured when the
    /// window comes due, and actuation per session happens in the same
    /// order with the same labels.
    #[default]
    ReadySet,
    /// The pre-pipelined scheduler: each tick advances every member, then
    /// classifies that tick's due windows before the next tick may start —
    /// the whole group stalls on its slowest member. Kept as the reference
    /// the equivalence tests compare against.
    Barrier,
}

/// A micro-batch group: batch sessions admitted with a structurally equal
/// ensemble and label cadence. Each serving tick, every member advances
/// one label period and the windows that come due are classified in **one
/// batched ensemble call** on the shared scratch arena. The engine's
/// stacked multi-window GEMMs are **row-count invariant**: window `i` of
/// a batched call is bit-identical to classifying that window alone, so
/// grouping is invisible in the traces.
struct BatchGroup {
    /// One structural copy of the members' shared ensemble (admission
    /// compares against it; the batched call runs it).
    ensemble: Ensemble,
    label_every: usize,
    /// Slot indices in admission order.
    members: Vec<usize>,
    scratch: EnsembleScratch,
    /// Gathered due windows, contiguous channel-major.
    windows: Vec<f32>,
    /// Batched combined probabilities.
    probas: Vec<f32>,
    /// Member positions (indices into `members`) due this tick (barrier)
    /// or gathered last tick and pending classification (ready-set).
    due: Vec<usize>,
    /// Label timestamps captured when each `due` window was gathered —
    /// the ready-set scheduler actuates one tick later, after the
    /// session's clock has advanced, so the gather-time stamp is what
    /// keeps its traces bit-identical to the barrier scheduler's.
    due_ts: Vec<f64>,
    /// Predicted labels for the pending `due` windows (ready-set).
    labels: Vec<usize>,
}

impl BatchGroup {
    fn new(ensemble: Ensemble, label_every: usize, slot: usize) -> Self {
        let scratch = EnsembleScratch::new(&ensemble);
        Self {
            ensemble,
            label_every,
            members: vec![slot],
            scratch,
            windows: Vec::new(),
            probas: Vec::new(),
            due: Vec::new(),
            due_ts: Vec::new(),
            labels: Vec::new(),
        }
    }

    fn admits(&self, ensemble: &Ensemble, label_every: usize) -> bool {
        // `Ensemble` equality is structural; `Custom` members never
        // compare equal, so un-batchable ensembles form singleton groups.
        self.label_every == label_every && self.ensemble == *ensemble
    }

    /// Advances this group's member slots (passed pre-split from the
    /// session vector, in admission order) by `seconds`, classifying due
    /// windows across sessions in one batched ensemble call per tick.
    /// Returns `(slot index, segment result)` per member; failing members
    /// are poisoned and drop out of the remaining ticks.
    fn run(
        &mut self,
        members: &mut [(usize, &mut Slot)],
        pool: &ExecPool,
        seconds: f64,
    ) -> Vec<(usize, Result<SessionTrace>)> {
        let total = (seconds * SAMPLE_RATE) as usize;
        let step = self.label_every;
        let mut traces: Vec<SessionTrace> =
            members.iter().map(|_| SessionTrace::default()).collect();
        let mut errors: Vec<Option<ServeError>> = members
            .iter()
            .map(|(_, slot)| {
                slot.poisoned
                    .then(|| ServeError::BadRequest(POISONED.into()))
            })
            .collect();

        let mut done = 0usize;
        while done < total {
            let n = step.min(total - done);
            // Filter phase: members advance independently in parallel
            // (ordered results, so failures land deterministically).
            let advanced: Vec<Option<Result<bool>>> = pool.par_map_mut(members, |(_, slot)| {
                if slot.poisoned {
                    return None;
                }
                Some(
                    slot.batch_arm_mut()
                        .advance_period(n)
                        .map_err(ServeError::from),
                )
            });
            self.due.clear();
            self.windows.clear();
            for (mi, outcome) in advanced.into_iter().enumerate() {
                if errors[mi].is_some() {
                    continue;
                }
                match outcome {
                    Some(Ok(true)) => {
                        members[mi]
                            .1
                            .batch_arm_mut()
                            .append_window_to(&mut self.windows);
                        self.due.push(mi);
                    }
                    Some(Ok(false)) | None => {}
                    Some(Err(e)) => {
                        members[mi].1.poisoned = true;
                        errors[mi] = Some(e);
                    }
                }
            }
            // Inference phase: one batched call for every due window.
            if !self.due.is_empty() {
                let k = self.due.len();
                self.probas.clear();
                self.probas.resize(k * CLASSES, 0.0);
                let t1 = Instant::now();
                self.ensemble.predict_batch_into(
                    &self.windows,
                    k,
                    CHANNELS,
                    pool,
                    &mut self.scratch,
                    &mut self.probas,
                );
                let inference_s = t1.elapsed().as_secs_f64();
                // Actuation phase, in admission order.
                for (j, &mi) in self.due.iter().enumerate() {
                    let label = argmax(&self.probas[j * CLASSES..(j + 1) * CLASSES]);
                    let arm = members[mi].1.batch_arm_mut();
                    if let Err(e) = arm.apply_label(label, n, inference_s, &mut traces[mi]) {
                        members[mi].1.poisoned = true;
                        errors[mi] = Some(ServeError::from(e));
                    }
                }
            }
            done += n;
        }
        members
            .iter()
            .zip(errors)
            .zip(traces)
            .map(|((&(si, _), error), trace)| match error {
                Some(e) => (si, Err(e)),
                None => (si, Ok(trace)),
            })
            .collect()
    }

    /// [`BatchGroup::run`] with one-tick software pipelining (see
    /// [`Scheduling::ReadySet`]): the batched ensemble call over tick
    /// `t`'s due windows runs **concurrently** with tick `t+1`'s filter
    /// advances, so the ready set of each tick never waits on a straggling
    /// filter stage. Labels actuate one tick after their window came due,
    /// stamped with the gather-time timestamp
    /// ([`CognitiveArm::apply_label_at`]) — per-session traces are
    /// bit-identical to the barrier scheduler's at any thread count.
    fn run_ready_set(
        &mut self,
        members: &mut [(usize, &mut Slot)],
        pool: &ExecPool,
        seconds: f64,
    ) -> Vec<(usize, Result<SessionTrace>)> {
        let total = (seconds * SAMPLE_RATE) as usize;
        let step = self.label_every;
        let mut traces: Vec<SessionTrace> =
            members.iter().map(|_| SessionTrace::default()).collect();
        let mut errors: Vec<Option<ServeError>> = members
            .iter()
            .map(|(_, slot)| {
                slot.poisoned
                    .then(|| ServeError::BadRequest(POISONED.into()))
            })
            .collect();

        let Self {
            ensemble,
            scratch,
            windows,
            probas,
            due,
            due_ts,
            labels,
            ..
        } = self;
        due.clear();
        due_ts.clear();
        windows.clear();
        labels.clear();
        // The label period the pending `due` windows were gathered with
        // (their actuation integrates the MCU over exactly this span).
        let mut pending_period = 0usize;

        let mut done = 0usize;
        while done < total {
            let n = step.min(total - done);
            // The pipelined pair: classify last tick's ready set while
            // every member's filter stage advances this tick. Both halves
            // nest their own parallelism on the same pool.
            let (inference_s, advanced) = pool.join(
                || {
                    if due.is_empty() {
                        return 0.0;
                    }
                    let k = due.len();
                    probas.clear();
                    probas.resize(k * CLASSES, 0.0);
                    let t1 = Instant::now();
                    ensemble.predict_batch_into(windows, k, CHANNELS, pool, scratch, probas);
                    labels.clear();
                    for j in 0..k {
                        labels.push(argmax(&probas[j * CLASSES..(j + 1) * CLASSES]));
                    }
                    t1.elapsed().as_secs_f64()
                },
                || {
                    pool.par_map_mut(members, |(_, slot)| {
                        if slot.poisoned {
                            return None;
                        }
                        Some(
                            slot.batch_arm_mut()
                                .advance_period(n)
                                .map_err(ServeError::from),
                        )
                    })
                },
            );

            // Actuate last tick's labels in admission order, before this
            // tick's advance outcomes are looked at: a failure this tick
            // cannot retract a label that was already due — exactly the
            // barrier scheduler's event order per session.
            for (j, &mi) in due.iter().enumerate() {
                if errors[mi].is_some() {
                    continue;
                }
                let arm = members[mi].1.batch_arm_mut();
                if let Err(e) = arm.apply_label_at(
                    labels[j],
                    due_ts[j],
                    pending_period,
                    inference_s,
                    &mut traces[mi],
                ) {
                    members[mi].1.poisoned = true;
                    errors[mi] = Some(ServeError::from(e));
                }
            }
            due.clear();
            due_ts.clear();
            windows.clear();

            // Gather this tick's ready set; the next tick classifies it.
            for (mi, outcome) in advanced.into_iter().enumerate() {
                if errors[mi].is_some() {
                    continue;
                }
                match outcome {
                    Some(Ok(true)) => {
                        let arm = members[mi].1.batch_arm_mut();
                        arm.append_window_to(windows);
                        due.push(mi);
                        due_ts.push(arm.elapsed_s());
                    }
                    Some(Ok(false)) | None => {}
                    Some(Err(e)) => {
                        members[mi].1.poisoned = true;
                        errors[mi] = Some(e);
                    }
                }
            }
            pending_period = n;
            done += n;
        }

        // Drain the pipeline: the final tick's ready set still needs its
        // classification and actuation.
        if !due.is_empty() {
            let k = due.len();
            probas.clear();
            probas.resize(k * CLASSES, 0.0);
            let t1 = Instant::now();
            ensemble.predict_batch_into(windows, k, CHANNELS, pool, scratch, probas);
            let inference_s = t1.elapsed().as_secs_f64();
            for (j, &mi) in due.iter().enumerate() {
                if errors[mi].is_some() {
                    continue;
                }
                let label = argmax(&probas[j * CLASSES..(j + 1) * CLASSES]);
                let arm = members[mi].1.batch_arm_mut();
                if let Err(e) = arm.apply_label_at(
                    label,
                    due_ts[j],
                    pending_period,
                    inference_s,
                    &mut traces[mi],
                ) {
                    members[mi].1.poisoned = true;
                    errors[mi] = Some(ServeError::from(e));
                }
            }
            due.clear();
            due_ts.clear();
            windows.clear();
        }

        members
            .iter()
            .zip(errors)
            .zip(traces)
            .map(|((&(si, _), error), trace)| match error {
                Some(e) => (si, Err(e)),
                None => (si, Ok(trace)),
            })
            .collect()
    }
}

/// One work item of a serving segment: a streaming session running its
/// two-stage pipeline, or a whole micro-batch group running its lockstep
/// ticks (with the group's member slots pre-split out of the session
/// vector).
enum Work<'a> {
    Stream(usize, &'a mut Slot),
    Group(&'a mut BatchGroup, Vec<(usize, &'a mut Slot)>),
}

/// Multiplexes many long-lived sessions over one shared [`ExecPool`].
///
/// [`SessionManager::run_for`] advances **every** session by the same
/// simulated duration, one pool work item per session; a session's own
/// parallel stages (ensemble inference, streaming stage pair) nest on the
/// same pool, which the persistent caller-participates pool design makes
/// deadlock-free. Sessions are independent and results are collected in
/// session order, so a serving run is bit-identical to running each
/// session alone, sequentially, at any thread count.
pub struct SessionManager {
    pool: Arc<ExecPool>,
    /// Admitted sessions by id; a removed session leaves a tombstone so
    /// ids stay stable under churn (`None` slots cost one pointer-sized
    /// entry and are skipped everywhere).
    sessions: Vec<Option<Slot>>,
    /// Micro-batch groups over the batch-shaped sessions (streaming
    /// sessions run their own two-stage pipelines and are not grouped).
    groups: Vec<BatchGroup>,
    /// Interned artifacts, keyed by weight-image content hash: one shared
    /// image per distinct artifact no matter how many times it is opened.
    artifacts: Vec<ArtifactEntry>,
    /// How micro-batch groups schedule their ticks.
    scheduling: Scheduling,
}

impl std::fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("sessions", &self.len())
            .field("threads", &self.pool.threads())
            .field("scheduling", &self.scheduling)
            .finish()
    }
}

impl SessionManager {
    /// A manager whose sessions run on `pool`.
    #[must_use]
    pub fn new(pool: Arc<ExecPool>) -> Self {
        Self {
            pool,
            sessions: Vec::new(),
            groups: Vec::new(),
            artifacts: Vec::new(),
            scheduling: Scheduling::default(),
        }
    }

    /// A manager on the process-wide [`exec::shared`] pool
    /// (`COGARM_THREADS` sizes it).
    #[must_use]
    pub fn with_shared_pool() -> Self {
        Self::new(exec::shared())
    }

    /// The pool every session runs on.
    #[must_use]
    pub fn pool(&self) -> &Arc<ExecPool> {
        &self.pool
    }

    /// Number of live (admitted and not removed) sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no live session remains.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids of every live session, in admission order — the order
    /// [`SessionManager::run_for_each`] reports results in.
    #[must_use]
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| SessionId(i)))
            .collect()
    }

    /// The micro-batch scheduling policy in force.
    #[must_use]
    pub fn scheduling(&self) -> Scheduling {
        self.scheduling
    }

    /// Switches the micro-batch scheduling policy. Safe to change between
    /// segments: both policies produce bit-identical per-session traces
    /// (ready-set is the default; barrier is the reference scheduler).
    pub fn set_scheduling(&mut self, scheduling: Scheduling) {
        self.scheduling = scheduling;
    }

    /// Disconnects a session: its slot becomes a tombstone (ids of other
    /// sessions are unaffected), it leaves its micro-batch group, and a
    /// group left empty is dropped. The churn path — thousands of
    /// connect/disconnect cycles leave nothing behind but the
    /// pointer-sized tombstones.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a foreign or already-removed id.
    pub fn remove_session(&mut self, id: SessionId) -> Result<()> {
        match self.sessions.get_mut(id.0) {
            Some(slot @ Some(_)) => {
                *slot = None;
            }
            _ => return Err(ServeError::UnknownSession(id.0)),
        }
        for group in &mut self.groups {
            group.members.retain(|&si| si != id.0);
        }
        self.groups.retain(|g| !g.members.is_empty());
        Ok(())
    }

    /// Sizes of the micro-batch groups, in creation order — how many
    /// batch sessions share one batched ensemble call per tick (streaming
    /// sessions are not grouped and do not appear).
    #[must_use]
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.members.len()).collect()
    }

    /// Admits a batch session (the monolithic `CognitiveArm` loop) on the
    /// manager's pool. Sessions admitted with a structurally equal
    /// ensemble and label cadence join one **micro-batch group**: windows
    /// that come due on the same serving tick are classified in a single
    /// batched ensemble call (label-invisible; see [`BatchGroup`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an invalid spec.
    pub fn add_session(&mut self, spec: SessionSpec) -> Result<SessionId> {
        spec.validate()?;
        let slot_index = self.sessions.len();
        match self
            .groups
            .iter_mut()
            .find(|g| g.admits(&spec.ensemble, spec.config.label_every))
        {
            Some(group) => group.members.push(slot_index),
            None => self.groups.push(BatchGroup::new(
                spec.ensemble.clone(),
                spec.config.label_every,
                slot_index,
            )),
        }
        let mut arm = CognitiveArm::with_pool(
            spec.config,
            spec.ensemble,
            spec.subject_seed,
            Arc::clone(&self.pool),
        );
        if let Some(z) = spec.normalization {
            arm.set_normalization(z);
        }
        arm.set_subject_action(spec.action);
        self.sessions.push(Some(Slot {
            session: ManagedSession::Batch(Box::new(arm)),
            poisoned: false,
        }));
        Ok(SessionId(slot_index))
    }

    /// Interns the artifact at `path` as one shared [`WeightImage`]:
    /// mmap (or aligned read) + validate + decode **once**, keyed by the
    /// image's content hash. Re-opening an identical artifact — same
    /// path, a copy, or the same model saved as v1 and v2 — returns the
    /// existing entry without touching its weights again.
    ///
    /// # Errors
    ///
    /// [`ServeError::Artifact`] for open, validation or decode failures.
    pub fn open_artifact<P: AsRef<std::path::Path>>(&mut self, path: P) -> Result<ArtifactId> {
        let image = WeightImage::open(path).map_err(ServeError::Artifact)?;
        if let Some(i) = self
            .artifacts
            .iter()
            .position(|e| e.image.content_hash() == image.content_hash())
        {
            return Ok(ArtifactId(i));
        }
        let model = image.decode().map_err(ServeError::Artifact)?;
        // Compile compressed-weight execution formats (CSC/int8 layouts)
        // once, here: sessions admitted from this artifact clone the model,
        // and clones share the memoized compiled forms, so a fleet of
        // sessions runs one compiled image on top of one weight image.
        model.ensemble.precompile_exec();
        self.artifacts.push(ArtifactEntry { image, model });
        Ok(ArtifactId(self.artifacts.len() - 1))
    }

    /// Number of distinct interned artifacts.
    #[must_use]
    pub fn artifact_count(&self) -> usize {
        self.artifacts.len()
    }

    /// The shared weight image behind an interned artifact.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownArtifact`] for a foreign id.
    pub fn artifact_image(&self, id: ArtifactId) -> Result<&WeightImage> {
        self.artifacts
            .get(id.0)
            .map(|e| &e.image)
            .ok_or(ServeError::UnknownArtifact(id.0))
    }

    /// The model decoded (once) through an interned artifact's image.
    /// Cloning it is the per-session weight handoff: arena-backed tensors
    /// make the clone a refcount bump, not a weight copy.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownArtifact`] for a foreign id.
    pub fn artifact_model(&self, id: ArtifactId) -> Result<&SavedModel> {
        self.artifacts
            .get(id.0)
            .map(|e| &e.model)
            .ok_or(ServeError::UnknownArtifact(id.0))
    }

    /// Admits a batch session reading the interned artifact `id` — the
    /// fleet-scale admission path. The session's ensemble is a clone of
    /// the artifact's decoded model, whose weight tensors share the
    /// [`WeightImage`] (refcount bumps, no weight copies), and every
    /// session of one artifact lands in the same micro-batch group
    /// (clones are structurally equal).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownArtifact`] for a foreign id;
    /// [`ServeError::BadRequest`] for a spec the pipeline rejects.
    pub fn add_session_from_artifact(
        &mut self,
        id: ArtifactId,
        subject_seed: u64,
    ) -> Result<SessionId> {
        let entry = self
            .artifacts
            .get(id.0)
            .ok_or(ServeError::UnknownArtifact(id.0))?;
        let spec = SessionSpec::from_saved(entry.model.clone(), subject_seed);
        self.add_session(spec)
    }

    /// Admits a streaming session (filter stage ∥ inference stage over a
    /// bounded channel, fed through the stream inlet) on the manager's
    /// pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an invalid spec.
    pub fn add_streaming_session(&mut self, spec: SessionSpec) -> Result<SessionId> {
        self.add_streaming_session_with_capacity(spec, DEFAULT_CHANNEL_CAPACITY)
    }

    /// [`SessionManager::add_streaming_session`] with an explicit
    /// inter-stage channel bound (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an invalid spec.
    pub fn add_streaming_session_with_capacity(
        &mut self,
        spec: SessionSpec,
        capacity: usize,
    ) -> Result<SessionId> {
        let session = StreamSession::new(spec, Arc::clone(&self.pool), capacity)?;
        self.sessions.push(Some(Slot {
            session: ManagedSession::Streaming(Box::new(session)),
            poisoned: false,
        }));
        Ok(SessionId(self.sessions.len() - 1))
    }

    /// Changes one subject's mental task.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a foreign id.
    pub fn set_action(&mut self, id: SessionId, action: Action) -> Result<()> {
        self.session_mut(id)?.set_action(action);
        Ok(())
    }

    /// Switches one session's voice-selected control mode.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a foreign id.
    pub fn set_mode(&mut self, id: SessionId, mode: ControlMode) -> Result<()> {
        self.session_mut(id)?.set_mode(mode);
        Ok(())
    }

    fn session_mut(&mut self, id: SessionId) -> Result<&mut Slot> {
        self.sessions
            .get_mut(id.0)
            .and_then(Option::as_mut)
            .ok_or(ServeError::UnknownSession(id.0))
    }

    /// Whether a session has been poisoned by a mid-segment failure (its
    /// state advanced past its recorded trace, so it will not run again).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a foreign id.
    pub fn is_poisoned(&self, id: SessionId) -> Result<bool> {
        self.sessions
            .get(id.0)
            .and_then(Option::as_ref)
            .map(|slot| slot.poisoned)
            .ok_or(ServeError::UnknownSession(id.0))
    }

    /// Advances every live session by `seconds` of simulated time,
    /// returning each session's segment result in admission order (one
    /// entry per live session; [`SessionManager::session_ids`] gives the
    /// matching ids). Streaming sessions run their two-stage pipelines as
    /// parallel work items; batch sessions run through their micro-batch
    /// groups under the active [`Scheduling`] policy, each tick's ready
    /// windows classified in **one batched ensemble call** (filter stages
    /// advance in parallel; the batched call itself fans
    /// `members × windows` across the pool). Everything stays
    /// bit-identical to running each session alone, sequentially, at any
    /// thread count and under either scheduler. A failing session is
    /// **poisoned** (it will not run again) but never takes its
    /// neighbours' traces with it.
    ///
    /// # Errors
    ///
    /// The outer `Err` only for an empty manager or a non-positive
    /// duration; per-session failures are the inner results.
    pub fn run_for_each(&mut self, seconds: f64) -> Result<Vec<Result<SessionTrace>>> {
        if self.is_empty() {
            return Err(ServeError::BadRequest("no sessions admitted".into()));
        }
        if seconds <= 0.0 {
            return Err(ServeError::BadRequest("non-positive run duration".into()));
        }
        let scheduling = self.scheduling;
        let Self {
            pool,
            sessions,
            groups,
            ..
        } = self;

        // Route every live slot to its micro-batch group or the streaming
        // set (one pass of mutable borrows, so groups and streaming
        // sessions can then run as *concurrent* pool work items — no
        // shape waits on the other).
        let mut slot_group: Vec<Option<usize>> = vec![None; sessions.len()];
        for (gi, group) in groups.iter().enumerate() {
            for &si in &group.members {
                slot_group[si] = Some(gi);
            }
        }
        let mut buckets: Vec<Vec<(usize, &mut Slot)>> =
            groups.iter().map(|_| Vec::new()).collect();
        let mut work: Vec<Work<'_>> = Vec::new();
        for (i, slot) in sessions.iter_mut().enumerate() {
            let Some(slot) = slot.as_mut() else { continue };
            match slot_group[i] {
                Some(gi) => buckets[gi].push((i, slot)),
                None => work.push(Work::Stream(i, slot)),
            }
        }
        for (group, bucket) in groups.iter_mut().zip(buckets) {
            work.push(Work::Group(group, bucket));
        }

        // One fan-out: each streaming session and each micro-batch group
        // is a work item; a group's inner phases (parallel filter advance,
        // the batched ensemble call) nest on the same pool, which the
        // caller-participates design keeps deadlock-free.
        let outcomes = pool.par_map_mut(&mut work, |item| match item {
            Work::Stream(i, slot) => vec![(*i, slot.run_streaming_for(seconds))],
            Work::Group(group, slots) => match scheduling {
                Scheduling::ReadySet => group.run_ready_set(slots, pool, seconds),
                Scheduling::Barrier => group.run(slots, pool, seconds),
            },
        });

        let mut results: Vec<Option<Result<SessionTrace>>> =
            (0..sessions.len()).map(|_| None).collect();
        let mut filled = 0usize;
        for (si, result) in outcomes.into_iter().flatten() {
            results[si] = Some(result);
            filled += 1;
        }
        debug_assert_eq!(
            filled,
            sessions.iter().filter(|s| s.is_some()).count(),
            "every live session belongs to a group or the streaming set"
        );
        Ok(results.into_iter().flatten().collect())
    }

    /// [`SessionManager::run_for_each`] flattened to the all-success case:
    /// every session's segment trace in admission order, or the first
    /// failing session's error (that segment's successful traces are
    /// discarded — use `run_for_each` when partial results matter).
    ///
    /// # Errors
    ///
    /// As [`SessionManager::run_for_each`], plus the first per-session
    /// failure.
    pub fn run_for(&mut self, seconds: f64) -> Result<Vec<SessionTrace>> {
        self.run_for_each(seconds)?.into_iter().collect()
    }
}
