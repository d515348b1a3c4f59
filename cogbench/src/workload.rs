//! The four serving workloads: their fixtures, how sessions are admitted,
//! the closed-loop tick, and the correctness oracle.
//!
//! Every workload follows the deployment path: the fixture is built, saved
//! as a `.cogm` artifact, opened through `SessionManager::open_artifact`
//! (mmap), and sessions are admitted from the interned artifact. The seed
//! picks the users: their subject seeds, action schedules and wires. Each
//! measured tick is one label period, `run_for(0.064)` (8 samples at
//! 125 Hz), timed from here.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cognitive_arm::eval::{train_default_ensemble_with, DatasetBuilder, PreparedData, TrainBudget};
use cognitive_arm::pipeline::{CognitiveArm, PipelineConfig, SessionTrace};
use eeg::dataset::Protocol;
use eeg::types::Action;
use eeg::CHANNELS;
use exec::{split_seed, ExecPool};
use ml::compress::prune_global;
use ml::ensemble::{Ensemble, ForestClassifier, Member, Voting};
use ml::forest::{window_stat_features, ForestConfig, RandomForest};
use ml::infer::{compile_cnn, compile_transformer};
use ml::models::{CnnConfig, TransformerConfig};
use model_io::SavedModel;
use serve::{ArtifactId, SessionId, SessionManager, SessionSpec};
use stream::transport::TransportParams;

/// Errors crossing the benchmark's own functions.
pub type Fallible<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// One serving tick: one label period.
pub const TICK_S: f64 = 0.064;
/// Samples in one tick at 125 Hz.
pub const TICK_SAMPLES: usize = 8;
/// A tick longer than the label period misses the actuation deadline.
pub const DEADLINE_MS: f64 = TICK_S * 1e3;
/// Warm-up ticks run inside set-up (2.048 s of simulated time).
pub const WARMUP_TICKS: u32 = 32;
/// Each subject's mental task switches every 62 ticks (3.97 s).
pub const ACTION_TICKS: u32 = 62;
/// The oracle replays this many ticks of a session solo (8 s).
pub const ORACLE_TICKS: u32 = 125;
/// Global magnitude pruning of the paper's compressed deployment.
pub const PRUNE_RATIO: f64 = 0.7;
/// Seed of the deployed models. The run's `--seed` picks the served
/// users — their EEG, action schedules and wires — while the models stay
/// fixed: a forest trained on another seed's data has a different size,
/// and the benchmark compares the serving engine, not the models.
const FIXTURE_SEED: u64 = 1;
/// The paper's best forest reads 90-sample windows.
const FOREST_WINDOW: usize = 90;
/// Training-window stride for the forest fixture.
const FOREST_STEP: usize = 10;

/// A workload: one traffic mix the benchmark serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 micro-batched sessions of one trained quick CNN+Transformer.
    Fleet,
    /// 32 streaming sessions of a window-90 forest on an adversarial wire.
    StreamForest,
    /// One session of the paper-scale pruned CNN+Transformer.
    PaperSolo,
    /// 64 live sessions from two paper-scale artifacts, 4 reconnects a
    /// tick: each session lives 16 ticks (1.02 s), less than the 1.52 s a
    /// window takes to fill, so nothing classifies.
    ConnectStorm,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Fleet,
        Workload::StreamForest,
        Workload::PaperSolo,
        Workload::ConnectStorm,
    ];

    /// The name used on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::StreamForest => "stream_forest",
            Workload::PaperSolo => "paper_solo",
            Workload::ConnectStorm => "connect_storm",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pool threads, never more than the host has. Only the fleet fans out:
    /// on two threads a single paper-scale classification and the
    /// streaming stage pair are both slower and bimodal from run to run
    /// (see `cogbench/README.md`), and admission is serial.
    #[must_use]
    pub fn threads(self) -> usize {
        let wanted = match self {
            Workload::Fleet => 2,
            Workload::StreamForest | Workload::PaperSolo | Workload::ConnectStorm => 1,
        };
        wanted.min(crate::report::nproc())
    }

    /// Sessions live at any time.
    #[must_use]
    pub fn sessions(self) -> u32 {
        match self {
            Workload::Fleet => 64,
            Workload::StreamForest => 32,
            Workload::PaperSolo => 1,
            Workload::ConnectStorm => 64,
        }
    }

    /// Measured ticks per second of `--seconds`: each run serves a fixed
    /// amount of work, sized so that it lasts about that long on the
    /// reference host (see `cogbench/README.md`). A fixed tick count keeps
    /// runs comparable across commits; `connect_storm`'s tick cost even
    /// grows with the ticks run, as removed sessions leave tombstones.
    #[must_use]
    pub fn ticks_per_second(self) -> f64 {
        match self {
            Workload::Fleet => 350.0,
            Workload::StreamForest => 1800.0,
            Workload::PaperSolo => 700.0,
            Workload::ConnectStorm => 300.0,
        }
    }

    /// Remove + connect pairs after every tick.
    #[must_use]
    pub fn churn(self) -> u32 {
        match self {
            Workload::ConnectStorm => 4,
            _ => 0,
        }
    }

    /// Sessions whose first [`ORACLE_TICKS`] the oracle replays solo. In
    /// `connect_storm` a session lives 16 ticks and never classifies, so
    /// its checks are the live count and poisoning instead.
    #[must_use]
    pub fn oracle_sessions(self) -> Vec<u32> {
        match self {
            Workload::ConnectStorm => Vec::new(),
            _ => {
                let mut v = vec![0, self.sessions() - 1];
                v.dedup();
                v
            }
        }
    }

    /// How the `index`-th admitted session is served.
    #[must_use]
    pub fn admission(self, seed: u64, index: u32) -> Admission {
        let (artifact, streaming) = match self {
            Workload::Fleet | Workload::PaperSolo => (0, false),
            Workload::StreamForest => (0, true),
            // Alternates the artifacts; one connect in four is streaming,
            // each artifact in turn. Batch admission compares the model
            // against the live groups and streaming admission does not,
            // so the two differ by an order of magnitude; a 3:1 mix keeps
            // the median connect inside one mode.
            Workload::ConnectStorm => ((index % 2) as usize, matches!(index % 8, 2 | 7)),
        };
        Admission {
            artifact,
            streaming,
            subject: split_seed(seed, u64::from(index)),
            wire: (self == Workload::StreamForest).then(adversarial_wire),
        }
    }

    /// Builds the workload's artifacts: a generated study, the models
    /// trained or initialized on it, and the study's first z-score as
    /// every artifact's normalization.
    ///
    /// # Errors
    ///
    /// Dataset generation and training failures.
    pub fn fixture(self, pool: &Arc<ExecPool>) -> Fallible<Vec<SavedModel>> {
        let seed = FIXTURE_SEED;
        let data = DatasetBuilder::new(Protocol::quick(), 1, seed)
            .with_pool(Arc::clone(pool))
            .build()?;
        let ensembles = match self {
            Workload::Fleet => vec![train_default_ensemble_with(
                &data,
                &TrainBudget::quick(),
                seed,
                pool,
            )?],
            Workload::StreamForest => vec![forest_ensemble(&data, seed, pool)?],
            Workload::PaperSolo => vec![paper_nets(seed, true)?],
            Workload::ConnectStorm => vec![paper_nets(seed, false)?, paper_nets(seed, true)?],
        };
        Ok(ensembles
            .into_iter()
            .map(|ensemble| SavedModel {
                pipeline: PipelineConfig::default(),
                ensemble,
                normalization: Some(data.zscores[0].clone()),
            })
            .collect())
    }
}

/// Where and how one session is admitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Admission {
    /// Index into the workload's artifacts.
    pub artifact: usize,
    /// Streaming session (wire, dejitter, filter stage) or batch session.
    pub streaming: bool,
    /// Simulated subject seed.
    pub subject: u64,
    /// Explicit wire for streaming sessions (`None` = the LSL role).
    pub wire: Option<TransportParams>,
}

impl Admission {
    /// The session spec serve admits, from the artifact's decoded model.
    #[must_use]
    pub fn spec(&self, model: SavedModel) -> SessionSpec {
        let spec = SessionSpec::from_saved(model, self.subject);
        match self.wire {
            Some(wire) => spec.with_wire(wire),
            None => spec,
        }
    }
}

/// Burst jitter far above the 8 ms sample cadence plus 5 % loss with
/// retransmission: heavy reordering every tick.
fn adversarial_wire() -> TransportParams {
    TransportParams {
        base_latency: 0.004,
        jitter: 0.050,
        loss_prob: 0.05,
        retransmit: true,
        timestamps: true,
        overhead_bytes: 66,
    }
}

/// The action a subject switches to on its `age`-th tick, if it switches
/// then: every [`ACTION_TICKS`], in an order seeded by the subject.
#[must_use]
pub fn action_for(subject: u64, age: u32) -> Option<Action> {
    age.is_multiple_of(ACTION_TICKS).then(|| {
        let draw = split_seed(subject, u64::from(age / ACTION_TICKS));
        Action::ALL[(draw % Action::ALL.len() as u64) as usize]
    })
}

fn forest_ensemble(data: &PreparedData, seed: u64, pool: &ExecPool) -> Fallible<Ensemble> {
    let windows = data.windows(FOREST_WINDOW, FOREST_STEP)?;
    let features: Vec<Vec<f32>> =
        pool.par_map(&windows, |w| window_stat_features(&w.data, CHANNELS));
    let labels: Vec<usize> = windows.iter().map(|w| w.label.label()).collect();
    let config = ForestConfig {
        seed,
        ..ForestConfig::paper_best()
    };
    let forest = RandomForest::fit_with(config, &features, &labels, pool)?;
    Ok(Ensemble::new(
        vec![Member::Forest(ForestClassifier::new(forest, FOREST_WINDOW))],
        Voting::Soft,
    ))
}

/// The paper's best CNN and Transformer at their seeded initialization,
/// optionally pruned like the paper's compressed deployment.
fn paper_nets(seed: u64, pruned: bool) -> Fallible<Ensemble> {
    let mut cnn = compile_cnn(&CnnConfig::paper_best().build(seed)?);
    let mut tf = compile_transformer(&TransformerConfig::paper_best().build(seed.wrapping_add(1))?);
    if pruned {
        prune_global(&mut cnn, PRUNE_RATIO);
        prune_global(&mut tf, PRUNE_RATIO);
    }
    Ok(Ensemble::new(
        vec![Member::Net(cnn), Member::Net(tf)],
        Voting::Soft,
    ))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds every session's trace into an FNV-1a digest, and keeps the first
/// [`ORACLE_TICKS`] of the oracle sessions for the solo replay.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    hashes: Vec<u64>,
    oracle: Vec<(u32, SessionTrace)>,
}

impl Recorder {
    /// A recorder keeping the traces of `oracle_sessions`.
    #[must_use]
    pub fn new(oracle_sessions: &[u32]) -> Self {
        Self {
            hashes: Vec::new(),
            oracle: oracle_sessions
                .iter()
                .map(|&i| (i, SessionTrace::default()))
                .collect(),
        }
    }

    /// Registers the next admitted session.
    pub fn admit(&mut self, index: u32) {
        debug_assert_eq!(index as usize, self.hashes.len(), "sessions admit in order");
        self.hashes.push(FNV_OFFSET);
    }

    /// Folds one segment of session `index`, which had run `age` ticks
    /// before it.
    pub fn record(&mut self, index: u32, age: u32, trace: &SessionTrace) {
        let h = &mut self.hashes[index as usize];
        for e in &trace.labels {
            *h = fnv(*h, &e.t.to_bits().to_le_bytes());
            *h = fnv(*h, &(e.label as u64).to_le_bytes());
        }
        for &(t, a, b, c) in &trace.joints {
            for v in [t, a, b, c] {
                *h = fnv(*h, &v.to_bits().to_le_bytes());
            }
        }
        if age < ORACLE_TICKS {
            if let Some((_, kept)) = self.oracle.iter_mut().find(|(i, _)| *i == index) {
                kept.labels.extend_from_slice(&trace.labels);
                kept.joints.extend_from_slice(&trace.joints);
            }
        }
    }

    /// The digest over every session ever admitted, in admission order.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.hashes
            .iter()
            .enumerate()
            .fold(FNV_OFFSET, |h, (i, s)| {
                fnv(fnv(h, &(i as u64).to_le_bytes()), &s.to_le_bytes())
            })
    }

    /// The kept oracle traces.
    #[must_use]
    pub fn oracle(&self) -> &[(u32, SessionTrace)] {
        &self.oracle
    }
}

/// Whether two traces agree bit for bit.
#[must_use]
pub fn same_bits(a: &SessionTrace, b: &SessionTrace) -> bool {
    let label = |e: &cognitive_arm::pipeline::LabelEvent| (e.t.to_bits(), e.label);
    let joint =
        |j: &(f64, f64, f64, f64)| [j.0.to_bits(), j.1.to_bits(), j.2.to_bits(), j.3.to_bits()];
    a.labels.iter().map(label).eq(b.labels.iter().map(label))
        && a.joints.iter().map(joint).eq(b.joints.iter().map(joint))
}

/// Replays the `index`-th session alone through `CognitiveArm::run_into`
/// for its first [`ORACLE_TICKS`], with the same action switches.
///
/// # Errors
///
/// Pipeline failures.
pub fn replay_solo(
    workload: Workload,
    seed: u64,
    index: u32,
    model: &SavedModel,
    pool: &Arc<ExecPool>,
) -> Fallible<SessionTrace> {
    let adm = workload.admission(seed, index);
    let mut arm = CognitiveArm::with_pool(
        model.pipeline.clone(),
        model.ensemble.clone(),
        adm.subject,
        Arc::clone(pool),
    );
    if let Some(z) = &model.normalization {
        arm.set_normalization(z.clone());
    }
    let mut trace = SessionTrace::default();
    for age in 0..ORACLE_TICKS {
        if let Some(action) = action_for(adm.subject, age) {
            arm.set_subject_action(action);
        }
        arm.run_into(TICK_S, &mut trace)?;
    }
    Ok(trace)
}

/// A live session of the untraced run.
#[derive(Debug, Clone, Copy)]
struct Live {
    id: SessionId,
    index: u32,
    subject: u64,
    age: u32,
}

/// A workload served through `SessionManager`, the way a deployment
/// serves it.
pub struct Served {
    workload: Workload,
    seed: u64,
    pool: Arc<ExecPool>,
    manager: SessionManager,
    artifacts: Vec<ArtifactId>,
    roster: VecDeque<Live>,
    next_index: u32,
    recorder: Recorder,
    /// Wall time of every connect, in ms.
    pub connect_ms: Vec<f64>,
    /// Session segments run.
    pub session_ticks: u64,
    /// Session segments that failed.
    pub failed_segments: u64,
    /// Connects attempted.
    pub connects: u64,
    /// Connects that failed.
    pub failed_connects: u64,
}

impl Served {
    /// The set-up a deployment pays: build the fixture from the seed, save
    /// it, open it, admit the sessions and warm up for
    /// [`WARMUP_TICKS`]. Artifacts land in `dir` under `tag`.
    ///
    /// # Errors
    ///
    /// Fixture, save and open failures (failed admissions are counted).
    pub fn setup(
        workload: Workload,
        seed: u64,
        pool: &Arc<ExecPool>,
        dir: &Path,
        tag: &str,
    ) -> Fallible<Self> {
        let models = workload.fixture(pool)?;
        let mut manager = SessionManager::new(Arc::clone(pool));
        let mut artifacts = Vec::with_capacity(models.len());
        for (i, model) in models.iter().enumerate() {
            let path = dir.join(format!("{}-{tag}-{i}.cogm", workload.name()));
            model.save(&path)?;
            artifacts.push(manager.open_artifact(&path)?);
        }
        let mut served = Self {
            workload,
            seed,
            pool: Arc::clone(pool),
            manager,
            artifacts,
            roster: VecDeque::new(),
            next_index: 0,
            recorder: Recorder::new(&workload.oracle_sessions()),
            connect_ms: Vec::new(),
            session_ticks: 0,
            failed_segments: 0,
            connects: 0,
            failed_connects: 0,
        };
        for _ in 0..workload.sessions() {
            served.connect();
        }
        for _ in 0..WARMUP_TICKS {
            served.tick();
        }
        Ok(served)
    }

    /// Admits the next session, timing the public admission call.
    fn connect(&mut self) {
        let index = self.next_index;
        let adm = self.workload.admission(self.seed, index);
        let artifact = self.artifacts[adm.artifact];
        self.connects += 1;
        let t0 = Instant::now();
        let admitted = if adm.streaming {
            self.manager
                .artifact_model(artifact)
                .map(|m| adm.spec(m.clone()))
                .and_then(|spec| self.manager.add_streaming_session(spec))
        } else {
            self.manager
                .add_session_from_artifact(artifact, adm.subject)
        };
        self.connect_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match admitted {
            Ok(id) => {
                self.recorder.admit(index);
                self.roster.push_back(Live {
                    id,
                    index,
                    subject: adm.subject,
                    age: 0,
                });
                self.next_index += 1;
            }
            Err(_) => self.failed_connects += 1,
        }
    }

    /// Removes the oldest session and admits a new one, `n` times.
    pub fn churn(&mut self, n: u32) {
        for _ in 0..n {
            if let Some(gone) = self.roster.pop_front() {
                if self.manager.remove_session(gone.id).is_err() {
                    self.failed_connects += 1;
                }
            }
            self.connect();
        }
    }

    /// One serving tick plus the workload's churn. Returns the tick's wall
    /// time in ms and whether every session's segment succeeded.
    pub fn tick(&mut self) -> (f64, bool) {
        for live in &self.roster {
            if let Some(action) = action_for(live.subject, live.age) {
                // The id is live: it came from this manager's roster.
                let _ = self.manager.set_action(live.id, action);
            }
        }
        let t0 = Instant::now();
        let results = self.manager.run_for_each(TICK_S);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut ok = true;
        match results {
            Ok(results) => {
                for (live, result) in self.roster.iter_mut().zip(results) {
                    self.session_ticks += 1;
                    match result {
                        Ok(trace) => self.recorder.record(live.index, live.age, &trace),
                        Err(_) => {
                            self.failed_segments += 1;
                            ok = false;
                        }
                    }
                    live.age += 1;
                }
            }
            Err(_) => {
                self.session_ticks += self.roster.len() as u64;
                self.failed_segments += self.roster.len() as u64;
                ok = false;
            }
        }
        self.churn(self.workload.churn());
        (wall_ms, ok)
    }

    /// Sessions live now.
    #[must_use]
    pub fn live(&self) -> usize {
        self.manager.len()
    }

    /// Micro-batch groups now.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.manager.group_sizes().len()
    }

    /// The trace digest so far.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.recorder.digest()
    }

    /// Runs the correctness checks after the measured loop and returns the
    /// number of mismatches: each oracle session replayed solo must match
    /// its served trace bit for bit; the live count must be what the
    /// workload keeps; no session may be poisoned.
    ///
    /// # Errors
    ///
    /// Replay failures.
    pub fn mismatches(&self) -> Fallible<u64> {
        let mut bad = 0u64;
        for (index, served) in self.recorder.oracle() {
            let adm = self.workload.admission(self.seed, *index);
            let model = self.manager.artifact_model(self.artifacts[adm.artifact])?;
            let solo = replay_solo(self.workload, self.seed, *index, model, &self.pool)?;
            if solo.labels.is_empty() || !same_bits(&solo, served) {
                bad += 1;
            }
        }
        if self.manager.len() != self.workload.sessions() as usize {
            bad += 1;
        }
        for live in &self.roster {
            if self.manager.is_poisoned(live.id).unwrap_or(true) {
                bad += 1;
            }
        }
        Ok(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eeg::SAMPLE_RATE;

    #[test]
    fn a_tick_is_exactly_one_label_period() {
        // Serve turns a duration into samples with this expression.
        assert_eq!((TICK_S * SAMPLE_RATE) as usize, TICK_SAMPLES);
        assert_eq!(PipelineConfig::default().label_every, TICK_SAMPLES);
    }

    #[test]
    fn actions_switch_on_schedule_and_vary_by_subject() {
        assert!(action_for(9, 0).is_some());
        assert!(action_for(9, 1).is_none());
        assert!(action_for(9, ACTION_TICKS).is_some());
        let drawn: Vec<Action> = (0..64u64).filter_map(|s| action_for(s, 0)).collect();
        for a in Action::ALL {
            assert!(drawn.contains(&a), "{a:?} never drawn");
        }
    }

    #[test]
    fn connect_storm_cycles_artifacts_and_session_shapes() {
        let shapes: Vec<(usize, bool)> = (0..8)
            .map(|i| {
                let a = Workload::ConnectStorm.admission(1, i);
                (a.artifact, a.streaming)
            })
            .collect();
        assert_eq!(
            shapes,
            [
                (0, false),
                (1, false),
                (0, true),
                (1, false),
                (0, false),
                (1, false),
                (0, false),
                (1, true)
            ]
        );
    }

    #[test]
    fn digest_depends_on_every_bit_and_on_order() {
        let mut trace = SessionTrace::default();
        trace
            .labels
            .push(cognitive_arm::pipeline::LabelEvent { t: 1.0, label: 2 });
        trace.joints.push((1.0, 0.5, 0.25, 0.0));
        let digest = |traces: &[&SessionTrace]| {
            let mut r = Recorder::new(&[]);
            for (i, t) in traces.iter().enumerate() {
                r.admit(i as u32);
                r.record(i as u32, 0, t);
            }
            r.digest()
        };
        let empty = SessionTrace::default();
        let mut nudged = trace.clone();
        nudged.joints[0].3 = -0.0;
        assert_ne!(digest(&[&trace, &empty]), digest(&[&empty, &trace]));
        assert_ne!(digest(&[&trace]), digest(&[&nudged]));
        assert!(!same_bits(&trace, &nudged));
        assert!(same_bits(&trace, &trace.clone()));
    }
}
