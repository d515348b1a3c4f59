//! Ensembles of heterogeneous classifiers (Fig. 11).
//!
//! The paper trains "ensemble combinations" of the four families and finds
//! CNN + Transformer best. Members may expect different window lengths (the
//! CNN wants 190 samples, the RF 90), so the ensemble holds a window long
//! enough for everyone and hands each member the most recent slice it needs.

use exec::ExecPool;

use crate::forest::{window_stat_features, window_stat_features_into, RandomForest};
use crate::infer::{softmax_into, InferModel};
use crate::models::CLASSES;
use crate::plan::InferPlan;

/// Anything that can classify a channel-major EEG window.
pub trait Classifier: Send + Sync {
    /// Class probabilities for the trailing `self.window()` samples of the
    /// given window.
    fn predict_proba_window(&self, window: &[f32], channels: usize, win_len: usize) -> Vec<f32>;

    /// Window length in samples this classifier wants.
    fn window(&self) -> usize;

    /// Human-readable name.
    fn name(&self) -> String;

    /// Effective parameter count.
    fn param_count(&self) -> usize;

    /// A boxed deep copy (lets [`Ensemble`] be `Clone` over trait objects).
    fn clone_box(&self) -> Box<dyn Classifier>;
}

/// Extracts the channel-major tail of length `target` from a longer
/// channel-major window.
///
/// # Panics
///
/// Panics if `target > win_len` or the layout is inconsistent.
#[must_use]
pub fn tail_window(window: &[f32], channels: usize, win_len: usize, target: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(channels * target);
    tail_window_into(window, channels, win_len, target, &mut out);
    out
}

/// [`tail_window`] into a reused buffer (cleared first) — the
/// allocation-free serving path; identical values.
///
/// # Panics
///
/// Panics if `target > win_len` or the layout is inconsistent.
pub fn tail_window_into(
    window: &[f32],
    channels: usize,
    win_len: usize,
    target: usize,
    out: &mut Vec<f32>,
) {
    assert_eq!(window.len(), channels * win_len, "window layout");
    assert!(target <= win_len, "target {target} > window {win_len}");
    out.clear();
    for ch in 0..channels {
        let row = &window[ch * win_len..(ch + 1) * win_len];
        out.extend_from_slice(&row[win_len - target..]);
    }
}

impl Classifier for InferModel {
    fn predict_proba_window(&self, window: &[f32], channels: usize, win_len: usize) -> Vec<f32> {
        let tail = tail_window(window, channels, win_len, self.window());
        self.predict_proba(&tail)
    }

    fn window(&self) -> usize {
        InferModel::window(self)
    }

    fn name(&self) -> String {
        self.kind().to_owned()
    }

    fn param_count(&self) -> usize {
        InferModel::param_count(self)
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

/// Random forest adapted to raw windows: computes the Table III statistical
/// features internally.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestClassifier {
    forest: RandomForest,
    window: usize,
}

impl ForestClassifier {
    /// Wraps a fitted forest with its expected window length.
    #[must_use]
    pub fn new(forest: RandomForest, window: usize) -> Self {
        Self { forest, window }
    }

    /// The wrapped forest.
    #[must_use]
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }
}

impl Classifier for ForestClassifier {
    fn predict_proba_window(&self, window: &[f32], channels: usize, win_len: usize) -> Vec<f32> {
        let tail = tail_window(window, channels, win_len, self.window);
        let features = window_stat_features(&tail, channels);
        self.forest.predict_proba(&features)
    }

    fn window(&self) -> usize {
        self.window
    }

    fn name(&self) -> String {
        format!("rf[{} trees]", self.forest.config().n_estimators)
    }

    fn param_count(&self) -> usize {
        self.forest.total_nodes()
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

/// Voting strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Voting {
    /// Average the members' probability vectors (the paper's ensembles
    /// aggregate predictions to reduce variance, Sec. III-D3).
    Soft,
    /// One vote per member's argmax.
    Hard,
}

/// A concrete ensemble member, tagged by kind.
///
/// The explicit kind tag is what makes ensembles persistable: `model-io`
/// can serialize `Net`/`Forest` members by matching on the variant, where
/// the old `Vec<Box<dyn Classifier>>` erasure left no way to recover the
/// concrete type. `Custom` keeps the open trait-object door for tests and
/// experimental classifiers; it is the one variant a save refuses.
// A handful of members exist per ensemble, so the Net/Forest size gap is
// irrelevant and boxing would complicate every match site.
#[allow(clippy::large_enum_variant)]
pub enum Member {
    /// A compiled neural network (CNN / LSTM / Transformer).
    Net(InferModel),
    /// A fitted random forest over statistical features.
    Forest(ForestClassifier),
    /// An arbitrary classifier behind the trait object (not persistable).
    Custom(Box<dyn Classifier>),
}

impl Member {
    /// Short kind tag (`net` / `forest` / `custom`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Member::Net(_) => "net",
            Member::Forest(_) => "forest",
            Member::Custom(_) => "custom",
        }
    }

    fn as_classifier(&self) -> &dyn Classifier {
        match self {
            Member::Net(m) => m,
            Member::Forest(c) => c,
            Member::Custom(b) => b.as_ref(),
        }
    }
}

/// One pool job of a batched ensemble call: one member classifying a
/// contiguous *chunk* of the batch through a single batched forward pass
/// (nets run one stacked-GEMM [`InferPlan`] call; forests loop windows
/// over their reused feature scratch). The plan's kernels are row-count
/// invariant, so each window's probabilities are bit-identical to a
/// single-window call — neither batching nor how the batch is chunked
/// across lanes has any numerics consequence.
#[derive(Debug)]
struct MemberSlot {
    member: usize,
    /// First window of this lane's contiguous chunk (assigned per call).
    start: usize,
    /// Number of windows in the chunk (assigned per call).
    len: usize,
    plan: Option<InferPlan>,
    tails: Vec<f32>,
    logits: Vec<f32>,
    features: Vec<f32>,
    /// `len × CLASSES` member probabilities, combined per window after
    /// the fan-out joins.
    out: Vec<f32>,
}

impl MemberSlot {
    fn new(member: usize) -> Self {
        Self {
            member,
            start: 0,
            len: 0,
            plan: None,
            tails: Vec::new(),
            logits: Vec::new(),
            features: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Classifies this lane's chunk (`start..start + len`) for its member.
    /// Buffers grow on first use of a larger chunk and are reused
    /// thereafter (zero steady-state allocations).
    fn run(&mut self, member: &Member, windows: &[f32], channels: usize, win_len: usize) {
        let batch = self.len;
        let per_window = channels * win_len;
        let windows = &windows[self.start * per_window..(self.start + batch) * per_window];
        self.out.resize(batch * CLASSES, 0.0);
        match member {
            Member::Net(m) => {
                let mw = m.window();
                let per_tail = channels * mw;
                self.tails.resize(batch * per_tail, 0.0);
                for b in 0..batch {
                    let window = &windows[b * per_window..(b + 1) * per_window];
                    for ch in 0..channels {
                        let row = &window[ch * win_len..(ch + 1) * win_len];
                        self.tails[b * per_tail + ch * mw..b * per_tail + (ch + 1) * mw]
                            .copy_from_slice(&row[win_len - mw..]);
                    }
                }
                let plan = self.plan.get_or_insert_with(|| InferPlan::compile(m));
                let classes = plan.classes();
                self.logits.resize(batch * classes, 0.0);
                plan.predict_logits_into(m, &self.tails[..batch * per_tail], batch, &mut self.logits);
                for b in 0..batch {
                    softmax_into(
                        &self.logits[b * classes..(b + 1) * classes],
                        &mut self.out[b * CLASSES..b * CLASSES + classes],
                    );
                }
            }
            Member::Forest(c) => {
                for b in 0..batch {
                    let window = &windows[b * per_window..(b + 1) * per_window];
                    tail_window_into(window, channels, win_len, Classifier::window(c), &mut self.tails);
                    window_stat_features_into(&self.tails, channels, &mut self.features);
                    c.forest()
                        .predict_proba_into(&self.features, &mut self.out[b * CLASSES..(b + 1) * CLASSES]);
                }
            }
            Member::Custom(custom) => {
                for b in 0..batch {
                    let window = &windows[b * per_window..(b + 1) * per_window];
                    let p = custom.predict_proba_window(window, channels, win_len);
                    let out = &mut self.out[b * CLASSES..(b + 1) * CLASSES];
                    out.fill(0.0);
                    for (o, &v) in out.iter_mut().zip(&p) {
                        *o = v;
                    }
                }
            }
        }
    }
}

/// The reusable scratch arena for one ensemble's batched inference:
/// chunk lanes laid out lane-major — `member_slots[lane * members + m]`
/// (each net slot owns a compiled [`InferPlan`]) — so growing the lane
/// count appends slots without touching warm ones, and a 1-lane
/// (sequential) call dispatches exactly the first `members` slots. Build
/// one per serving session (or per micro-batch group) with
/// [`EnsembleScratch::new`] and reuse it for every call; once warm it
/// allocates nothing.
///
/// A scratch arena belongs to the ensemble it was built from — slots are
/// compiled per member, and using it with a structurally different
/// ensemble panics.
#[derive(Debug)]
pub struct EnsembleScratch {
    member_slots: Vec<MemberSlot>,
    members: usize,
}

impl EnsembleScratch {
    /// Scratch for `ensemble`: one lane per member, grown on demand when a
    /// batched call fans out over more lanes.
    #[must_use]
    pub fn new(ensemble: &Ensemble) -> Self {
        Self {
            member_slots: (0..ensemble.len()).map(MemberSlot::new).collect(),
            members: ensemble.len(),
        }
    }

    /// Grows the arena to at least `lanes` chunk lanes per member,
    /// appending fresh lane-major slots without touching warm ones.
    fn ensure_lanes(&mut self, lanes: usize) {
        let cur = self.member_slots.len() / self.members;
        for _ in cur..lanes {
            for m in 0..self.members {
                self.member_slots.push(MemberSlot::new(m));
            }
        }
    }
}

impl std::fmt::Debug for Member {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Member::{}({})", self.kind(), self.as_classifier().name())
    }
}

impl Clone for Member {
    fn clone(&self) -> Self {
        match self {
            Member::Net(m) => Member::Net(m.clone()),
            Member::Forest(c) => Member::Forest(c.clone()),
            Member::Custom(b) => Member::Custom(b.clone_box()),
        }
    }
}

/// Structural equality for the concrete variants; `Custom` members never
/// compare equal (the trait object exposes no comparison).
impl PartialEq for Member {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Member::Net(a), Member::Net(b)) => a == b,
            (Member::Forest(a), Member::Forest(b)) => a == b,
            _ => false,
        }
    }
}

impl From<InferModel> for Member {
    fn from(m: InferModel) -> Self {
        Member::Net(m)
    }
}

impl From<ForestClassifier> for Member {
    fn from(c: ForestClassifier) -> Self {
        Member::Forest(c)
    }
}

impl Classifier for Member {
    fn predict_proba_window(&self, window: &[f32], channels: usize, win_len: usize) -> Vec<f32> {
        self.as_classifier()
            .predict_proba_window(window, channels, win_len)
    }

    fn window(&self) -> usize {
        self.as_classifier().window()
    }

    fn name(&self) -> String {
        self.as_classifier().name()
    }

    fn param_count(&self) -> usize {
        self.as_classifier().param_count()
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

/// A voting ensemble over heterogeneous classifiers.
#[derive(Clone)]
pub struct Ensemble {
    members: Vec<Member>,
    voting: Voting,
}

impl std::fmt::Debug for Ensemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ensemble")
            .field("members", &self.name())
            .field("voting", &self.voting)
            .finish()
    }
}

/// Structural equality over members and voting rule (see [`Member`]'s
/// `PartialEq` for the `Custom` caveat).
impl PartialEq for Ensemble {
    fn eq(&self, other: &Self) -> bool {
        self.voting == other.voting && self.members == other.members
    }
}

impl Ensemble {
    /// Creates an ensemble.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    #[must_use]
    pub fn new(members: Vec<Member>, voting: Voting) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        Self { members, voting }
    }

    /// The members, in voting order.
    #[must_use]
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// The voting rule.
    #[must_use]
    pub fn voting(&self) -> Voting {
        self.voting
    }

    /// Visits every compiled network member mutably — the entry point the
    /// compression passes (`ml::compress`) use to prune or quantize a
    /// trained ensemble in place. Forests and custom members are skipped;
    /// they have no weight matrices to transform.
    pub fn visit_net_models_mut(&mut self, mut f: impl FnMut(&mut InferModel)) {
        for m in &mut self.members {
            if let Member::Net(net) = m {
                f(net);
            }
        }
    }

    /// Compiles every network member's weight matrices into their
    /// execution formats (CSC / densified sparse plans, transposed int8
    /// panels) ahead of first inference. The compiled forms live in
    /// per-matrix shared caches, so cloning the ensemble afterwards — the
    /// per-session handoff in `serve` — shares one compiled set across
    /// all sessions of an artifact instead of recompiling per session.
    /// Forest members need nothing here: a forest compiles its lockstep
    /// node table at construction (`fit_with` / `from_parts`) and its
    /// clones share it.
    pub fn precompile_exec(&self) {
        for m in &self.members {
            if let Member::Net(net) = m {
                net.visit_weights(crate::infer::MatRep::precompile);
            }
        }
    }

    /// Longest member window — the buffer length the ensemble needs.
    #[must_use]
    pub fn window(&self) -> usize {
        self.members.iter().map(|m| m.window()).max().unwrap_or(0)
    }

    /// Member names joined with `+`.
    #[must_use]
    pub fn name(&self) -> String {
        self.members
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Combined parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.members.iter().map(|m| m.param_count()).sum()
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble has no members (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Combined class probabilities for a window of the ensemble's length.
    ///
    /// A thin wrapper over the batched scratch engine (fresh scratch per
    /// call); steady-state loops should hold an [`EnsembleScratch`] and
    /// call [`Ensemble::predict_batch_into`] instead.
    #[must_use]
    pub fn predict_proba(&self, window: &[f32], channels: usize) -> Vec<f32> {
        let mut scratch = EnsembleScratch::new(self);
        let mut out = vec![0.0f32; CLASSES];
        self.predict_batch_core(window, 1, channels, None, &mut scratch, &mut out);
        out
    }

    /// [`Ensemble::predict_proba`] with members evaluated in parallel on
    /// `pool`. Member probabilities are combined in member order, so the
    /// result is bit-identical to the sequential path.
    #[must_use]
    pub fn predict_proba_with(&self, window: &[f32], channels: usize, pool: &ExecPool) -> Vec<f32> {
        let mut scratch = EnsembleScratch::new(self);
        let mut out = vec![0.0f32; CLASSES];
        self.predict_batch_core(window, 1, channels, Some(pool), &mut scratch, &mut out);
        out
    }

    /// The batch-first, allocation-free inference entry point: classifies
    /// `batch` channel-major windows (concatenated in `windows`, each
    /// `channels × win_len` long) in one call, writing `batch × CLASSES`
    /// combined probabilities to `out`.
    ///
    /// Each member's batch splits into contiguous chunks, one job per
    /// (member, chunk) on `pool`, each into its own preallocated lane of
    /// `scratch`; results are combined per window in member order. Per
    /// window the bits equal [`Ensemble::predict_proba`]'s — the engine is
    /// row-count invariant — so a batched serving tick is bit-identical to
    /// per-session inference by construction.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was built for a different ensemble or the
    /// buffer lengths disagree with `batch`/`channels`.
    pub fn predict_batch_into(
        &self,
        windows: &[f32],
        batch: usize,
        channels: usize,
        pool: &ExecPool,
        scratch: &mut EnsembleScratch,
        out: &mut [f32],
    ) {
        self.predict_batch_core(windows, batch, channels, Some(pool), scratch, out);
    }

    fn predict_batch_core(
        &self,
        windows: &[f32],
        batch: usize,
        channels: usize,
        pool: Option<&ExecPool>,
        scratch: &mut EnsembleScratch,
        out: &mut [f32],
    ) {
        assert!(batch >= 1, "empty batch");
        assert!(
            windows.len().is_multiple_of(batch * channels),
            "window batch layout"
        );
        let win_len = windows.len() / (batch * channels);
        assert_eq!(out.len(), batch * CLASSES, "probability buffer size");
        let members = &self.members;
        let n_members = members.len();
        assert_eq!(
            scratch.members, n_members,
            "scratch built for a different ensemble"
        );
        // Fan-out: each member's batch splits into `lanes` contiguous
        // chunks, one stacked-GEMM job per (member, lane) — enough jobs to
        // feed every pool thread even when the ensemble has fewer members
        // than the pool has threads. The kernels are row-count invariant —
        // every window's bits are independent of how the batch is chunked
        // — so the lane count may track the thread count without
        // perturbing results, and the combine below is deterministic
        // because each window's member probabilities land in fixed slots
        // folded in member order. A single window is one lane, one chunk.
        let pool = pool.filter(|p| p.threads() > 1);
        let lanes = pool.map_or(1, |p| (p.threads() * 2).div_ceil(n_members).clamp(1, batch));
        let chunk = batch.div_ceil(lanes);
        let used = batch.div_ceil(chunk);
        scratch.ensure_lanes(used);
        let live = &mut scratch.member_slots[..used * n_members];
        for (i, slot) in live.iter_mut().enumerate() {
            slot.start = (i / n_members) * chunk;
            slot.len = chunk.min(batch - slot.start);
        }
        let run = |slot: &mut MemberSlot| {
            slot.run(&members[slot.member], windows, channels, win_len);
        };
        match pool {
            Some(pool) => {
                // A unit closure collects a `Vec<()>`, which never allocates.
                pool.par_map_mut(live, run);
            }
            None => live.iter_mut().for_each(run),
        }
        for b in 0..batch {
            let lane = b / chunk;
            let off = b - lane * chunk;
            self.combine_into(
                (0..n_members).map(|m| {
                    let s = &scratch.member_slots[lane * n_members + m];
                    &s.out[off * CLASSES..(off + 1) * CLASSES]
                }),
                &mut out[b * CLASSES..(b + 1) * CLASSES],
            );
        }
    }

    /// Reduces per-member probability slices under the voting rule into
    /// `acc` (fully overwritten), folding in member order (f32 addition is
    /// not associative; a fixed order keeps the vote reproducible).
    fn combine_into<'a>(&self, probas: impl Iterator<Item = &'a [f32]>, acc: &mut [f32]) {
        acc.fill(0.0);
        match self.voting {
            Voting::Soft => {
                for p in probas {
                    for (a, v) in acc.iter_mut().zip(p) {
                        *a += v;
                    }
                }
            }
            Voting::Hard => {
                for p in probas {
                    acc[argmax(p)] += 1.0;
                }
            }
        }
        let n = self.members.len() as f32;
        for a in acc.iter_mut() {
            *a /= n;
        }
    }

    /// Combined class prediction.
    #[must_use]
    pub fn predict(&self, window: &[f32], channels: usize) -> usize {
        argmax(&self.predict_proba(window, channels))
    }

    /// [`Ensemble::predict`] with members evaluated in parallel on `pool`.
    #[must_use]
    pub fn predict_with(&self, window: &[f32], channels: usize, pool: &ExecPool) -> usize {
        argmax(&self.predict_proba_with(window, channels, pool))
    }
}

/// Index of the largest probability — the vote-to-label rule every
/// consumer of [`Ensemble::predict_batch_into`] must share so external
/// batched classification (the serving micro-batcher) picks exactly the
/// label [`Ensemble::predict`] would. Hard voting casts each member's
/// vote with it too.
///
/// Total over every `f32`: NaN ranks below every number and equal to
/// NaN, and the last of several maximal entries wins. Every finite vote
/// therefore gets the label a plain comparison gives, and an all-NaN vote
/// (a member whose probabilities went NaN) returns the last class rather
/// than panicking the tick it runs in. An empty slice returns 0.
#[must_use]
pub fn argmax(probs: &[f32]) -> usize {
    probs
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.partial_cmp(b.1)
                .unwrap_or_else(|| b.1.is_nan().cmp(&a.1.is_nan()))
        })
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stub classifier that always answers one class.
    #[derive(Clone)]
    struct Fixed {
        class: usize,
        window: usize,
    }

    impl Classifier for Fixed {
        fn predict_proba_window(
            &self,
            _window: &[f32],
            _channels: usize,
            _win_len: usize,
        ) -> Vec<f32> {
            let mut p = vec![0.05f32; CLASSES];
            p[self.class] = 0.9;
            p
        }

        fn window(&self) -> usize {
            self.window
        }

        fn name(&self) -> String {
            format!("fixed{}", self.class)
        }

        fn param_count(&self) -> usize {
            1
        }

        fn clone_box(&self) -> Box<dyn Classifier> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn tail_window_takes_most_recent_samples() {
        // 2 channels x 5 samples.
        let w = [1., 2., 3., 4., 5., 10., 20., 30., 40., 50.];
        let tail = tail_window(&w, 2, 5, 2);
        assert_eq!(tail, vec![4., 5., 40., 50.]);
    }

    #[test]
    fn soft_voting_averages() {
        let e = Ensemble::new(
            vec![
                Member::Custom(Box::new(Fixed { class: 0, window: 4 })),
                Member::Custom(Box::new(Fixed { class: 1, window: 4 })),
                Member::Custom(Box::new(Fixed { class: 1, window: 4 })),
            ],
            Voting::Soft,
        );
        let w = vec![0.0f32; 2 * 4];
        assert_eq!(e.predict(&w, 2), 1);
        let p = e.predict_proba(&w, 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn hard_voting_counts_majority() {
        let e = Ensemble::new(
            vec![
                Member::Custom(Box::new(Fixed { class: 2, window: 4 })),
                Member::Custom(Box::new(Fixed { class: 2, window: 4 })),
                Member::Custom(Box::new(Fixed { class: 0, window: 4 })),
            ],
            Voting::Hard,
        );
        let w = vec![0.0f32; 2 * 4];
        assert_eq!(e.predict(&w, 2), 2);
    }

    /// A member whose probabilities went NaN.
    #[derive(Clone)]
    struct NanVote;

    impl Classifier for NanVote {
        fn predict_proba_window(&self, _: &[f32], _: usize, _: usize) -> Vec<f32> {
            vec![f32::NAN; CLASSES]
        }

        fn window(&self) -> usize {
            4
        }

        fn name(&self) -> String {
            "nan".into()
        }

        fn param_count(&self) -> usize {
            0
        }

        fn clone_box(&self) -> Box<dyn Classifier> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn argmax_ranks_nan_lowest_and_keeps_finite_labels() {
        // Finite votes (ties, ±0 and ±Inf included) keep the label a plain
        // comparison picks, the last maximal entry winning.
        let plain = |p: &[f32]| {
            p.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        let inf = f32::INFINITY;
        for p in [
            [0.2f32, 0.5, 0.3],
            [0.5, 0.5, 0.0],
            [0.4, 0.4, 0.4],
            [0.0, -0.0, -1.0],
            [-0.0, 0.0, -1.0],
            [-inf, -inf, -inf],
            [inf, 1.0, inf],
        ] {
            assert_eq!(argmax(&p), plain(&p), "{p:?}");
        }
        assert_eq!(argmax(&[]), 0);
        // NaN ranks below every number and equal to NaN.
        let nan = f32::NAN;
        assert_eq!(argmax(&[nan, 0.1, 0.2]), 2);
        assert_eq!(argmax(&[0.5, nan, 0.1]), 0);
        assert_eq!(argmax(&[-inf, nan, nan]), 0);
        assert_eq!(argmax(&[nan, -0.0, nan]), 1);
        assert_eq!(argmax(&[nan, nan, nan]), 2, "all-NaN picks the last class");

        // A NaN member casts its hard vote for the last class, and the
        // majority still carries the label.
        let e = Ensemble::new(
            vec![
                Member::Custom(Box::new(NanVote)),
                Member::Custom(Box::new(Fixed {
                    class: 0,
                    window: 4,
                })),
                Member::Custom(Box::new(Fixed {
                    class: 0,
                    window: 4,
                })),
            ],
            Voting::Hard,
        );
        let w = vec![0.0f32; 2 * 4];
        let p = e.predict_proba(&w, 2);
        assert_eq!(p, vec![2.0 / 3.0, 0.0, 1.0 / 3.0]);
        assert_eq!(e.predict(&w, 2), 0);
    }

    #[test]
    fn ensemble_window_is_longest_member() {
        let e = Ensemble::new(
            vec![
                Member::Custom(Box::new(Fixed { class: 0, window: 90 })),
                Member::Custom(Box::new(Fixed { class: 0, window: 190 })),
            ],
            Voting::Soft,
        );
        assert_eq!(e.window(), 190);
        assert_eq!(e.len(), 2);
        assert_eq!(e.param_count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_rejected() {
        let _ = Ensemble::new(vec![], Voting::Soft);
    }

    #[test]
    fn parallel_vote_matches_sequential_bitwise() {
        let e = Ensemble::new(
            vec![
                Member::Custom(Box::new(Fixed { class: 0, window: 4 })),
                Member::Custom(Box::new(Fixed { class: 1, window: 4 })),
                Member::Custom(Box::new(Fixed { class: 1, window: 4 })),
            ],
            Voting::Soft,
        );
        let w = vec![0.25f32; 2 * 4];
        let seq = e.predict_proba(&w, 2);
        for threads in [1, 2, 4] {
            let pool = ExecPool::new(threads);
            let par = e.predict_proba_with(&w, 2, &pool);
            let bits_equal = seq
                .iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bits_equal, "threads={threads}: {seq:?} vs {par:?}");
            assert_eq!(e.predict(&w, 2), e.predict_with(&w, 2, &pool));
        }
    }

    fn toy_forest_member(window: usize, channels: usize) -> Member {
        use crate::forest::ForestConfig;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let dim = channels * 5;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let row: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            xs.push(row);
            ys.push(i % CLASSES);
        }
        let forest = RandomForest::fit(
            ForestConfig {
                n_estimators: 3,
                max_depth: Some(3),
                min_samples_split: 2,
                classes: CLASSES,
                seed: 1,
            },
            &xs,
            &ys,
        )
        .expect("toy forest fits");
        Member::Forest(ForestClassifier::new(forest, window))
    }

    #[test]
    fn batched_call_matches_single_window_calls_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let channels = 2;
        let win_len = 6;
        let e = Ensemble::new(
            vec![
                toy_forest_member(4, channels),
                Member::Custom(Box::new(Fixed { class: 1, window: 4 })),
            ],
            Voting::Soft,
        );
        let mut rng = StdRng::seed_from_u64(77);
        let batch = 4;
        let windows: Vec<f32> = (0..batch * channels * win_len)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        for threads in [1, 2, 4] {
            let pool = ExecPool::new(threads);
            let mut scratch = EnsembleScratch::new(&e);
            let mut out = vec![0.0f32; batch * CLASSES];
            e.predict_batch_into(&windows, batch, channels, &pool, &mut scratch, &mut out);
            for b in 0..batch {
                let solo =
                    e.predict_proba(&windows[b * channels * win_len..(b + 1) * channels * win_len], channels);
                let got = &out[b * CLASSES..(b + 1) * CLASSES];
                for (x, y) in solo.iter().zip(got) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} window={b}");
                }
            }
            // Scratch reuse (including a smaller follow-up batch) stays
            // bit-identical.
            let mut again = vec![0.0f32; CLASSES];
            e.predict_batch_into(
                &windows[..channels * win_len],
                1,
                channels,
                &pool,
                &mut scratch,
                &mut again,
            );
            for (x, y) in out[..CLASSES].iter().zip(&again) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} reuse");
            }
        }
    }

    #[test]
    fn pruned_short_transformer_batches_match_per_window_calls() {
        // A transformer with fewer than eight steps per window: its FF
        // pairs run as two calls at one window's rows and chain in the
        // transposed domain once a batch stacks enough rows. Block 0's pair
        // compiles to pure CSC (chained from two rows, so t = 1 crosses
        // the switch at batch 2), block 1's to the hybrid (chained from
        // eight rows, so t = 5 crosses it at batch 2). Every batch must
        // give each window the bits of a per-window call, at 1 and 4
        // threads alike.
        use crate::infer::{compile_transformer, InferModel, MatRep};
        use crate::models::TransformerConfig;
        use crate::sparse::CsrMatrix;
        use crate::tensor::Tensor;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let prune = |w: &mut MatRep, keep: f64, seed: u64| {
            let MatRep::Dense(dense) = w else {
                unreachable!("compiled weights are dense")
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut data = dense.data().to_vec();
            for v in &mut data {
                if !rng.gen_bool(keep) {
                    *v = 0.0;
                }
            }
            let pruned = Tensor::new(dense.shape().to_vec(), data);
            *w = MatRep::Sparse(CsrMatrix::from_dense(&pruned));
        };
        let (channels, window) = (16usize, 40usize);
        for time_stride in [40usize, 8] {
            let cfg = TransformerConfig {
                layers: 2,
                heads: 2,
                d_model: 16,
                dim_ff: 32,
                dropout: 0.0,
                window,
                channels,
                time_stride,
            };
            let mut model = compile_transformer(&cfg.build(7).unwrap());
            let InferModel::Transformer(tf) = &mut model else {
                unreachable!()
            };
            for (b, (block, keep)) in tf.blocks.iter_mut().zip([0.15, 0.4]).enumerate() {
                prune(&mut block.ff1.w, keep, 2 * b as u64);
                prune(&mut block.ff2.w, keep, 2 * b as u64 + 1);
                for w in [&block.ff1.w, &block.ff2.w] {
                    let MatRep::Sparse(csr) = w else {
                        unreachable!()
                    };
                    let exec = csr.exec();
                    assert_eq!(
                        (exec.is_csc(), exec.is_hybrid()),
                        (b == 0, b == 1),
                        "block {b}"
                    );
                }
            }
            let e = Ensemble::new(vec![Member::Net(model)], Voting::Soft);
            let per = channels * window;
            let mut rng = StdRng::seed_from_u64(time_stride as u64);
            let windows: Vec<f32> = (0..19 * per).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            for threads in [1, 4] {
                let pool = ExecPool::new(threads);
                let mut solo_scratch = EnsembleScratch::new(&e);
                let mut solo = vec![0.0f32; 19 * CLASSES];
                for b in 0..19 {
                    e.predict_batch_into(
                        &windows[b * per..(b + 1) * per],
                        1,
                        channels,
                        &pool,
                        &mut solo_scratch,
                        &mut solo[b * CLASSES..(b + 1) * CLASSES],
                    );
                }
                let mut scratch = EnsembleScratch::new(&e);
                for batch in [1usize, 2, 3, 19] {
                    let mut out = vec![0.0f32; batch * CLASSES];
                    e.predict_batch_into(
                        &windows[..batch * per],
                        batch,
                        channels,
                        &pool,
                        &mut scratch,
                        &mut out,
                    );
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&solo[..batch * CLASSES]),
                        bits(&out),
                        "t={} batch={batch} threads={threads}",
                        window / time_stride
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "scratch built for a different ensemble")]
    fn foreign_scratch_is_rejected() {
        let one = Ensemble::new(
            vec![Member::Custom(Box::new(Fixed { class: 0, window: 4 }))],
            Voting::Soft,
        );
        let two = Ensemble::new(
            vec![
                Member::Custom(Box::new(Fixed { class: 0, window: 4 })),
                Member::Custom(Box::new(Fixed { class: 1, window: 4 })),
            ],
            Voting::Soft,
        );
        let mut scratch = EnsembleScratch::new(&one);
        let pool = ExecPool::new(1);
        let mut out = vec![0.0f32; CLASSES];
        two.predict_batch_into(&[0.0; 8], 1, 2, &pool, &mut scratch, &mut out);
    }

    #[test]
    fn clone_preserves_members_and_voting() {
        let e = Ensemble::new(
            vec![
                Member::Custom(Box::new(Fixed { class: 2, window: 8 })),
                Member::Custom(Box::new(Fixed { class: 0, window: 4 })),
            ],
            Voting::Hard,
        );
        let c = e.clone();
        assert_eq!(c.name(), e.name());
        assert_eq!(c.window(), e.window());
        let w = vec![0.0f32; 2 * 8];
        assert_eq!(c.predict(&w, 2), e.predict(&w, 2));
    }

    #[test]
    fn name_joins_members() {
        let e = Ensemble::new(
            vec![
                Member::Custom(Box::new(Fixed { class: 0, window: 4 })),
                Member::Custom(Box::new(Fixed { class: 1, window: 4 })),
            ],
            Voting::Soft,
        );
        assert_eq!(e.name(), "fixed0+fixed1");
    }
}
