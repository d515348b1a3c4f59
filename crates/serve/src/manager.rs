//! The [`SessionManager`]: many concurrent sessions multiplexed over one
//! shared [`ExecPool`], in micro-batch groups.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

use arm::controller::ControlMode;
use cognitive_arm::pipeline::{PipelineConfig, SessionTrace};
use cognitive_arm::preprocess::StreamingChain;
use dsp::normalize::Zscore;
use eeg::types::Action;
use eeg::{CHANNELS, SAMPLE_RATE};
use exec::ExecPool;
use ml::ensemble::{argmax, Ensemble, EnsembleScratch};
use ml::models::CLASSES;
use model_io::{SavedModel, WeightImage};
use stream::transport::TransportParams;

use crate::error::panic_message;
use crate::streaming::{StreamSession, POISONED};
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

    /// Rejects specs the session would panic on, so admission is a typed
    /// error instead of a crash.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an undesignable filter, a zero
    /// `label_every`, a normalization not fitted on [`CHANNELS`]
    /// channels, a negative or NaN `safety.max_step`, or a silently lossy
    /// wire.
    pub fn validate(&self) -> Result<()> {
        self.checked_chain().map(drop)
    }

    /// Runs [`SessionSpec::validate`]'s checks and returns the filter chain
    /// they designed, for the session constructor to take.
    pub(crate) fn checked_chain(&self) -> Result<StreamingChain> {
        let refuse = |msg: String| Err(ServeError::BadRequest(msg));
        if self.config.label_every == 0 {
            return refuse("label_every must be positive".into());
        }
        if let Some(z) = self
            .normalization
            .as_ref()
            .filter(|z| z.channels() != CHANNELS)
        {
            return refuse(format!(
                "normalization fitted on {} channels, the board streams {CHANNELS}",
                z.channels()
            ));
        }
        let max_step = self.config.safety.max_step;
        if max_step.is_nan() || max_step < 0.0 {
            return refuse(format!(
                "safety.max_step must be non-negative, got {max_step}"
            ));
        }
        if self
            .wire
            .is_some_and(|w| w.loss_prob > 0.0 && !w.retransmit)
        {
            return refuse(
                "streaming sessions need a reliable wire: lossy transports must retransmit".into(),
            );
        }
        StreamingChain::new(&self.config.filter)
            .map_err(|e| ServeError::BadRequest(format!("filter spec rejected: {e}")))
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

/// A micro-batch group: sessions admitted with a structurally equal
/// ensemble and label cadence, batch and streaming alike. Each serving
/// tick, every member advances one label period and the windows they
/// captured are classified in **one batched ensemble call** on the shared
/// scratch arena. The engine's stacked multi-window GEMMs are **row-count
/// invariant**: window `i` of a batched call is bit-identical to
/// classifying that window alone, so grouping is invisible in the traces.
struct BatchGroup {
    /// One structural copy of the members' shared ensemble (admission
    /// compares against it; the batched call runs it).
    ensemble: Ensemble,
    label_every: usize,
    /// Slot indices in admission order.
    members: Vec<usize>,
    scratch: EnsembleScratch,
    /// Gathered captured windows, contiguous channel-major.
    windows: Vec<f32>,
    /// Batched combined probabilities.
    probas: Vec<f32>,
    /// (member position, captured window) of each gathered window.
    due: Vec<(usize, usize)>,
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
        }
    }

    fn admits(&self, ensemble: &Ensemble, label_every: usize) -> bool {
        // `Ensemble` equality is structural; `Custom` members never
        // compare equal, so un-batchable ensembles form singleton groups.
        self.label_every == label_every && self.ensemble == *ensemble
    }

    /// Advances this group's member sessions (passed pre-split from the
    /// session vector, in admission order) by `seconds`: the serving tick.
    /// Each label period, every member advances in parallel, the windows
    /// they captured are classified in one batched ensemble call, and
    /// each window is actuated in admission order (in capture order
    /// within a member). Returns `(slot index, segment result)` per
    /// member. A member whose advance or actuation fails or panics is
    /// poisoned alone and skips the rest of the segment; a panic in the
    /// batched call cannot be traced to one window, so it poisons every
    /// member with a window in that call.
    fn run(
        &mut self,
        members: &mut [(usize, &mut StreamSession)],
        pool: &ExecPool,
        seconds: f64,
    ) -> Vec<(usize, Result<SessionTrace>)> {
        let total = (seconds * SAMPLE_RATE) as usize;
        let mut traces: Vec<SessionTrace> =
            members.iter().map(|_| SessionTrace::default()).collect();
        let mut errors: Vec<Option<ServeError>> = members
            .iter()
            .map(|(_, s)| s.poisoned.then(|| ServeError::BadRequest(POISONED.into())))
            .collect();

        let mut done = 0usize;
        while done < total {
            let n = self.label_every.min(total - done);
            done += n;
            let last = done == total;
            // Advance phase: live members in parallel, results in order.
            let advanced = pool.par_map_mut(members, |(_, s)| {
                (!s.poisoned).then(|| s.guard(|s| s.advance(n, last)))
            });
            // Gather phase, in admission order.
            self.windows.clear();
            self.due.clear();
            for (mi, outcome) in advanced.into_iter().enumerate() {
                match outcome {
                    Some(Ok(())) => {
                        let (windows, count) = members[mi].1.captured();
                        self.windows.extend_from_slice(windows);
                        self.due.extend((0..count).map(|j| (mi, j)));
                    }
                    Some(Err(e)) => errors[mi] = Some(e),
                    None => {}
                }
            }
            if self.due.is_empty() {
                continue;
            }
            // Inference phase: one batched call for every gathered window.
            let k = self.due.len();
            self.probas.clear();
            self.probas.resize(k * CLASSES, 0.0);
            let t1 = Instant::now();
            let classified = std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.ensemble.predict_batch_into(
                    &self.windows,
                    k,
                    CHANNELS,
                    pool,
                    &mut self.scratch,
                    &mut self.probas,
                );
            }))
            .map_err(panic_message);
            let inference_s = t1.elapsed().as_secs_f64();
            // Actuation phase, in gather order; a member whose window
            // failed is poisoned and skips its later ones.
            for (w, &(mi, j)) in self.due.iter().enumerate() {
                let session = &mut *members[mi].1;
                if session.poisoned {
                    continue;
                }
                let outcome = match &classified {
                    Ok(()) => {
                        let label = argmax(&self.probas[w * CLASSES..(w + 1) * CLASSES]);
                        session.guard(|s| s.actuate(j, label, inference_s, &mut traces[mi]))
                    }
                    Err(msg) => {
                        session.poisoned = true;
                        Err(ServeError::Panicked(msg.clone()))
                    }
                };
                if let Err(e) = outcome {
                    errors[mi] = Some(e);
                }
            }
        }
        members
            .iter()
            .zip(errors)
            .zip(traces)
            .map(|((&(si, _), error), trace)| (si, error.map_or(Ok(trace), Err)))
            .collect()
    }
}

/// Multiplexes many long-lived sessions over one shared [`ExecPool`].
///
/// [`SessionManager::run_for`] advances **every** session by the same
/// simulated duration, one pool work item per micro-batch group; a group's
/// own parallel stages (member advances, ensemble inference) nest on the
/// same pool, which the persistent caller-participates pool design makes
/// deadlock-free. Sessions are independent and results are collected in
/// session order, so a serving run is bit-identical to running each
/// session alone, sequentially, at any thread count.
pub struct SessionManager {
    pool: Arc<ExecPool>,
    /// Admitted sessions by id, boxed; a removed session leaves a
    /// tombstone so ids stay stable under churn (`None` slots cost one
    /// pointer-sized entry and are skipped everywhere).
    sessions: Vec<Option<Box<StreamSession>>>,
    /// Micro-batch groups; every live session belongs to exactly one.
    groups: Vec<BatchGroup>,
    /// Interned artifacts, keyed by weight-image content hash: one shared
    /// image per distinct artifact no matter how many times it is opened.
    artifacts: Vec<ArtifactEntry>,
}

impl std::fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("sessions", &self.len())
            .field("threads", &self.pool.threads())
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
    /// sessions, batch and streaming alike, share one batched ensemble
    /// call per tick. The sizes sum to [`SessionManager::len`].
    #[must_use]
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.members.len()).collect()
    }

    /// Admits a batch session (the monolithic loop, read straight off the
    /// board) on the manager's pool. Sessions admitted with a structurally
    /// equal ensemble and label cadence join one **micro-batch group**:
    /// windows that come due on the same serving tick are classified in a
    /// single batched ensemble call (label-invisible: the batched kernels
    /// are row-count invariant).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a spec [`SessionSpec::validate`]
    /// refuses.
    pub fn add_session(&mut self, spec: SessionSpec) -> Result<SessionId> {
        self.admit(spec, false)
    }

    fn admit(&mut self, spec: SessionSpec, streaming: bool) -> Result<SessionId> {
        let chain = spec.checked_chain()?;
        let slot = self.sessions.len();
        let label_every = spec.config.label_every;
        match self
            .groups
            .iter_mut()
            .find(|g| g.admits(&spec.ensemble, label_every))
        {
            Some(group) => group.members.push(slot),
            None => self
                .groups
                .push(BatchGroup::new(spec.ensemble.clone(), label_every, slot)),
        }
        let session = StreamSession::build(spec, chain, streaming, Arc::clone(&self.pool));
        self.sessions.push(Some(Box::new(session)));
        Ok(SessionId(slot))
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
    /// (clones compare equal without reading a weight).
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

    /// Admits a streaming session (wire → dejitter → filter → window) on
    /// the manager's pool. It joins a micro-batch group by the same rule
    /// as [`SessionManager::add_session`], so its windows share the
    /// group's batched call with batch sessions of the same model.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a spec [`SessionSpec::validate`]
    /// refuses.
    pub fn add_streaming_session(&mut self, spec: SessionSpec) -> Result<SessionId> {
        self.admit(spec, true)
    }

    /// Changes one subject's mental task.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a foreign id.
    pub fn set_action(&mut self, id: SessionId, action: Action) -> Result<()> {
        self.session_mut(id)?.set_subject_action(action);
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

    fn session_mut(&mut self, id: SessionId) -> Result<&mut StreamSession> {
        self.sessions
            .get_mut(id.0)
            .and_then(Option::as_deref_mut)
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
            .map(|session| session.poisoned)
            .ok_or(ServeError::UnknownSession(id.0))
    }

    /// Advances every live session by `seconds` of simulated time,
    /// returning each session's segment result in admission order (one
    /// entry per live session; [`SessionManager::session_ids`] gives the
    /// matching ids). The micro-batch groups run as parallel work items;
    /// each tick of a group advances its members in parallel and
    /// classifies their captured windows in **one batched ensemble call**,
    /// which fans `members × windows` across the pool. Everything stays
    /// bit-identical to running each session alone, sequentially, at any
    /// thread count. A failing session is **poisoned** (it will not run
    /// again) but never takes its neighbours' traces with it; a panic in a
    /// member's advance or actuation, or in a group's batched classify, is
    /// caught there and reported as [`ServeError::Panicked`].
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
        let Self {
            pool,
            sessions,
            groups,
            ..
        } = self;

        // Split the live sessions into their groups' member lists (one
        // pass of mutable borrows, so the groups run as concurrent pool
        // work items). Every live session is in exactly one group.
        let mut slot_group = vec![usize::MAX; sessions.len()];
        for (gi, group) in groups.iter().enumerate() {
            for &si in &group.members {
                slot_group[si] = gi;
            }
        }
        let mut work: Vec<(&mut BatchGroup, Vec<(usize, &mut StreamSession)>)> =
            groups.iter_mut().map(|g| (g, Vec::new())).collect();
        for (si, session) in sessions.iter_mut().enumerate() {
            if let Some(session) = session.as_deref_mut() {
                work[slot_group[si]].1.push((si, session));
            }
        }
        let outcomes = pool.par_map_mut(&mut work, |(group, members)| {
            group.run(members, pool, seconds)
        });

        let mut results: Vec<Option<Result<SessionTrace>>> =
            (0..sessions.len()).map(|_| None).collect();
        for (si, result) in outcomes.into_iter().flatten() {
            results[si] = Some(result);
        }
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
