//! The [`SessionManager`]: many concurrent sessions multiplexed over one
//! shared [`ExecPool`], in micro-batch groups that own their sessions.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

use arm::controller::ControlMode;
use cognitive_arm::pipeline::{run_samples, PipelineConfig, SessionTrace};
use cognitive_arm::{panic_message, CoreError};
use dsp::normalize::Zscore;
use eeg::types::Action;
use eeg::CHANNELS;
use exec::ExecPool;
use ml::ensemble::{argmax, Ensemble, EnsembleScratch};
use ml::models::CLASSES;
use model_io::{SavedModel, WeightImage};
use stream::transport::TransportParams;

use crate::{Result, ServeError, StreamSession};

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
    /// error instead of a crash: the wire checks below, then core's
    /// [`PipelineConfig::checked_chain`].
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an undesignable filter, a zero
    /// `label_every`, a normalization not fitted on [`CHANNELS`]
    /// channels, a negative or NaN `safety.max_step`, a wire whose
    /// `loss_prob` lies outside `[0, 1]` or whose `base_latency` or
    /// `jitter` is negative or not finite, or a silently lossy wire.
    pub fn validate(&self) -> Result<()> {
        self.check_wire()?;
        self.config.checked_chain(self.normalization.as_ref())?;
        Ok(())
    }

    /// Assembles a standalone streaming session on `pool`: the spec's
    /// wire, or the LSL role, between the board and the filter.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a spec [`SessionSpec::validate`]
    /// refuses.
    pub fn into_session(self, pool: Arc<ExecPool>) -> Result<StreamSession> {
        self.assemble(true, pool).map(|session| *session)
    }

    /// The wire checks, then core's constructor, which runs the config
    /// checks and designs the filter once. `streaming` puts the wire
    /// between board and filter; a batch session reads the board directly.
    /// Boxed as a group stores it, so admission moves the session once.
    fn assemble(self, streaming: bool, pool: Arc<ExecPool>) -> Result<Box<StreamSession>> {
        self.check_wire()?;
        let mut session = Box::new(StreamSession::assemble(
            self.config,
            self.ensemble,
            self.normalization,
            self.subject_seed,
            streaming.then(|| self.wire.unwrap_or_else(TransportParams::lsl)),
            pool,
        )?);
        session.set_subject_action(self.action);
        Ok(session)
    }

    /// The checks core leaves to admission: a wire the transport cannot
    /// sample or that would lose packets for good.
    fn check_wire(&self) -> Result<()> {
        let Some(w) = self.wire else {
            return Ok(());
        };
        let refuse = |msg: String| Err(ServeError::BadRequest(msg));
        if !(0.0..=1.0).contains(&w.loss_prob) {
            return refuse(format!("wire loss_prob {} is not in [0, 1]", w.loss_prob));
        }
        for (name, value) in [("base_latency", w.base_latency), ("jitter", w.jitter)] {
            if !value.is_finite() || value < 0.0 {
                return refuse(format!("wire {name} {value} is negative or not finite"));
            }
        }
        if w.loss_prob > 0.0 && !w.retransmit {
            return refuse(
                "streaming sessions need a reliable wire: lossy transports must retransmit".into(),
            );
        }
        Ok(())
    }
}

/// Handle to a session owned by a [`SessionManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(usize);

impl SessionId {
    /// The session's admission number in its manager: ids count up from 0
    /// in admission order and are never reused.
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
    /// The member sessions with their ids, in admission order, so the ids
    /// ascend.
    members: Vec<(SessionId, Box<StreamSession>)>,
    scratch: EnsembleScratch,
    /// Gathered captured windows, contiguous channel-major.
    windows: Vec<f32>,
    /// Batched combined probabilities.
    probas: Vec<f32>,
    /// (member position, `(t, period)` stamp) of each gathered window.
    due: Vec<(usize, (f64, usize))>,
}

impl BatchGroup {
    fn new(ensemble: Ensemble, label_every: usize) -> Self {
        let scratch = EnsembleScratch::new(&ensemble);
        Self {
            ensemble,
            label_every,
            members: Vec::new(),
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

    /// Advances every member by `total` samples: the serving tick. Each label
    /// period, every member advances in parallel, the windows they
    /// captured are classified in one batched ensemble call, and each
    /// window is actuated in admission order (in capture order within a
    /// member). Returns `(id, segment result)` per member, in admission
    /// order; a result is `Err` exactly when its member is poisoned (a
    /// member poisoned before the segment gets the session guard's
    /// refusal). A member whose advance or actuation fails or panics is
    /// poisoned alone and skips the rest of the segment; a panic in the
    /// batched call cannot be traced to one window, so it poisons every
    /// member with a window in that call.
    fn run(&mut self, pool: &ExecPool, total: usize) -> Vec<(SessionId, Result<SessionTrace>)> {
        let mut results: Vec<Result<SessionTrace>> = self
            .members
            .iter_mut()
            .map(|(_, s)| s.guard(|_| Ok(SessionTrace::default())).map_err(Into::into))
            .collect();

        let mut done = 0usize;
        while done < total {
            let n = self.label_every.min(total - done);
            done += n;
            let last = done == total;
            // Advance phase: live members in parallel, results in order.
            let advanced = pool.par_map_mut(&mut self.members, |(_, s)| {
                (!s.is_poisoned()).then(|| s.guard(|s| s.advance(n, last)))
            });
            // Gather phase, in admission order.
            self.windows.clear();
            self.due.clear();
            for (mi, outcome) in advanced.into_iter().enumerate() {
                match outcome {
                    Some(Ok(())) => {
                        let (windows, stamps) = self.members[mi].1.captured();
                        self.windows.extend_from_slice(windows);
                        self.due.extend(stamps.iter().map(|&stamp| (mi, stamp)));
                    }
                    Some(Err(e)) => results[mi] = Err(e.into()),
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
            for (w, &(mi, (t, period))) in self.due.iter().enumerate() {
                let Ok(trace) = &mut results[mi] else {
                    continue;
                };
                let session = &mut *self.members[mi].1;
                let outcome = match &classified {
                    Ok(()) => {
                        let label = argmax(&self.probas[w * CLASSES..(w + 1) * CLASSES]);
                        session.guard(|s| s.apply_label_at(label, t, period, inference_s, trace))
                    }
                    Err(msg) => session.guard(|_| Err(CoreError::Panicked(msg.clone()))),
                };
                if let Err(e) = outcome {
                    results[mi] = Err(e.into());
                }
            }
        }
        let ids = self.members.iter().map(|&(id, _)| id);
        ids.zip(results).collect()
    }
}

/// Multiplexes many long-lived sessions over one shared [`ExecPool`].
///
/// [`SessionManager::run_for`] advances **every** session by the same
/// simulated duration, one pool work item per micro-batch group; a group's
/// own parallel stages (member advances, ensemble inference) nest on the
/// same pool, which the persistent caller-participates pool design makes
/// deadlock-free. Sessions are independent and results are collected in
/// admission order, so a serving run is bit-identical to running each
/// session alone, sequentially, at any thread count.
pub struct SessionManager {
    pool: Arc<ExecPool>,
    /// Micro-batch groups, never empty; each owns its live sessions.
    groups: Vec<BatchGroup>,
    /// Sessions admitted so far, the next session's id.
    admitted: usize,
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
            groups: Vec::new(),
            admitted: 0,
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
        self.groups.iter().map(|g| g.members.len()).sum()
    }

    /// Whether no live session remains.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The ids of every live session, in admission order — the order
    /// [`SessionManager::run_for_each`] reports results in.
    #[must_use]
    pub fn session_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .groups
            .iter()
            .flat_map(|g| g.members.iter().map(|&(id, _)| id))
            .collect();
        ids.sort_unstable_by_key(|id| id.0);
        ids
    }

    /// The group holding session `id` and the session's position in it.
    fn locate(&self, id: SessionId) -> Result<(usize, usize)> {
        self.groups
            .iter()
            .enumerate()
            .find_map(|(gi, g)| {
                let found = g.members.binary_search_by_key(&id.0, |(m, _)| m.0);
                found.ok().map(|pos| (gi, pos))
            })
            .ok_or(ServeError::UnknownSession(id.0))
    }

    /// Disconnects a session: it leaves its micro-batch group (ids of
    /// other sessions are unaffected), and a group left empty is dropped.
    /// The churn path — connect/disconnect cycles leave nothing behind.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a foreign or already-removed id.
    pub fn remove_session(&mut self, id: SessionId) -> Result<()> {
        let (gi, pos) = self.locate(id)?;
        let group = &mut self.groups[gi];
        group.members.remove(pos);
        if group.members.is_empty() {
            self.groups.remove(gi);
        }
        Ok(())
    }

    /// Sizes of the micro-batch groups, in creation order — how many
    /// sessions, batch and streaming alike, share one batched ensemble
    /// call per tick. The sizes sum to [`SessionManager::len`].
    #[must_use]
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.members.len()).collect()
    }

    /// Admits a batch session (one that reads the board directly, with no
    /// wire) on the manager's pool. Sessions admitted with a structurally
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
        let session = spec.assemble(streaming, Arc::clone(&self.pool))?;
        let id = SessionId(self.admitted);
        self.admitted += 1;
        let label_every = session.config().label_every;
        let gi = self
            .groups
            .iter()
            .position(|g| g.admits(session.ensemble(), label_every))
            .unwrap_or_else(|| {
                self.groups
                    .push(BatchGroup::new(session.ensemble().clone(), label_every));
                self.groups.len() - 1
            });
        self.groups[gi].members.push((id, session));
        Ok(id)
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
        let (gi, pos) = self.locate(id)?;
        Ok(&mut self.groups[gi].members[pos].1)
    }

    /// Whether a session has been poisoned by a mid-segment failure (its
    /// state advanced past its recorded trace, so it will not run again).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a foreign id.
    pub fn is_poisoned(&self, id: SessionId) -> Result<bool> {
        let (gi, pos) = self.locate(id)?;
        Ok(self.groups[gi].members[pos].1.is_poisoned())
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
    /// The outer `Err` only for an empty manager or a duration that
    /// [`run_samples`] refuses; per-session failures are the inner
    /// results.
    pub fn run_for_each(&mut self, seconds: f64) -> Result<Vec<Result<SessionTrace>>> {
        if self.is_empty() {
            return Err(ServeError::BadRequest("no sessions admitted".into()));
        }
        let total = run_samples(seconds)?;
        let pool = &self.pool;
        let mut results: Vec<_> = pool
            .par_map_mut(&mut self.groups, |group| group.run(pool, total))
            .into_iter()
            .flatten()
            .collect();
        // Ids are admission numbers: sorting by id restores admission
        // order across groups.
        results.sort_unstable_by_key(|(id, _)| id.0);
        Ok(results.into_iter().map(|(_, result)| result).collect())
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

#[cfg(test)]
mod tests {
    use super::*;
    use ml::ensemble::{Classifier, Member, Voting};

    /// Votes from the sign of the window's mean, so labels follow the
    /// signal without a trained model.
    #[derive(Clone)]
    struct MeanSign;

    impl Classifier for MeanSign {
        fn predict_proba_window(&self, window: &[f32], _: usize, _: usize) -> Vec<f32> {
            let mean = window.iter().sum::<f32>() / window.len() as f32;
            let mut proba = vec![0.0; CLASSES];
            proba[usize::from(mean > 0.0)] = 1.0;
            proba
        }

        fn window(&self) -> usize {
            32
        }

        fn name(&self) -> String {
            "mean-sign".into()
        }

        fn param_count(&self) -> usize {
            0
        }

        fn clone_box(&self) -> Box<dyn Classifier> {
            Box::new(self.clone())
        }
    }

    fn spec(subject_seed: u64) -> SessionSpec {
        let ensemble = Ensemble::new(vec![Member::Custom(Box::new(MeanSign))], Voting::Soft);
        SessionSpec::new(PipelineConfig::default(), ensemble, subject_seed)
            .with_action(Action::Right)
    }

    #[test]
    fn a_member_whose_advance_panics_is_poisoned_alone() {
        // A loss probability of 2 trips the transport's RNG in the first
        // advance. Admission refuses that wire, so the session is built
        // through core's constructor, past serve's checks, and pushed
        // straight into a healthy batch session's group. Segments are whole label periods (1.024 s =
        // 128 samples), so two segments line up with one solo run.
        let solo = {
            let mut manager = SessionManager::new(Arc::new(ExecPool::new(1)));
            manager.add_session(spec(21)).expect("admit");
            manager.run_for(2.048).expect("solo run").remove(0)
        };
        assert!(!solo.labels.is_empty(), "the solo run labelled nothing");
        let mut broken_wire = TransportParams::lsl();
        broken_wire.loss_prob = 2.0;
        for threads in [1usize, 4] {
            let pool = Arc::new(ExecPool::new(threads));
            let mut manager = SessionManager::new(Arc::clone(&pool));
            let healthy = manager.add_session(spec(21)).expect("admit");
            let spec = spec(22).with_wire(broken_wire);
            assert!(spec.validate().is_err(), "admission refuses the wire");
            // Core's constructor leaves wire checks to admission.
            let mut session = StreamSession::assemble(
                spec.config,
                spec.ensemble,
                spec.normalization,
                spec.subject_seed,
                spec.wire,
                pool,
            )
            .expect("the config passes core's checks");
            session.set_subject_action(spec.action);
            let broken = SessionId(manager.admitted);
            manager.admitted += 1;
            manager.groups[0].members.push((broken, Box::new(session)));
            assert_eq!(manager.group_sizes(), vec![2]);

            let first = manager.run_for_each(1.024).expect("the call returns");
            assert!(
                matches!(&first[1], Err(ServeError::Panicked(_))),
                "threads={threads}: {:?}",
                first[1].as_ref().err()
            );
            assert!(manager.is_poisoned(broken).expect("known id"));
            assert!(!manager.is_poisoned(healthy).expect("known id"));
            let second = manager
                .run_for_each(1.024)
                .expect("the second call returns");
            assert!(second[1].is_err(), "the poisoned session stays out");

            let mut joined = first[0].as_ref().expect("healthy session").clone();
            let tail = second[0].as_ref().expect("healthy session still serves");
            joined.labels.extend_from_slice(&tail.labels);
            joined.joints.extend_from_slice(&tail.joints);
            assert_eq!(joined, solo, "threads={threads}: the healthy trace moved");
        }
    }
}
