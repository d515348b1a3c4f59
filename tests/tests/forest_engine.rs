//! The forest-engine bit-identity contract.
//!
//! The paper's Random Forest (Table III) serves from raw windows: the
//! Table III statistics per channel (`window_stat_features`), then a vote
//! over every tree (`RandomForest::predict_proba`). How either step
//! executes may change; what it computes may not move by a single bit.
//! This suite locks that three ways, in one golden file
//! (`tests/fixtures/trace_forest.txt`, regenerate deliberately with
//! `COGARM_REGEN_FIXTURES=1 cargo test -q --test forest_engine`):
//!
//! 1. **session labels** of a forest-ensemble session, served monolithic
//!    (`CognitiveArm::run_into`) and streaming (`SessionManager` on a
//!    lossy, retransmitting wire), at 1 and 4 threads. The forest is the
//!    serving benchmark's shape: `ForestConfig::paper_best` fitted on the
//!    quick study, window 90, but 27 trees so the last block of 8 trees
//!    is partial;
//! 2. **forest outputs**: `predict_proba` bits over 600 seeded feature
//!    vectors carrying NaN, ±0, ±Inf, denormals, overflow-scale values
//!    and exact split-threshold ties;
//! 3. **features**: `window_stat_features` bits for 1–17 channels over
//!    adversarial windows, all-`-0.0` channels included. A NaN is written
//!    as the token `nan`: Rust does not pin NaN payloads or signs, and
//!    every split sends any NaN right, so only NaN-ness is observable.
//!
//! Beside the golden file, the compiled engine is compared with the
//! one-at-a-time references it replaced, kept here: the per-tree enum
//! walk over `Tree::nodes` and the one-channel-at-a-time feature body.
//! Those sweeps cover the shapes a lockstep walk can get wrong — tree
//! counts around the 8-tree block, single-leaf and unbounded-depth
//! trees, blocks mixing depth 0 with depth 20, and arenas with shared
//! children — and channel counts around the 8-channel block.
//!
//! Pools are explicit (`ExecPool::new`), never `COGARM_THREADS` — tests
//! run concurrently and must not race on process state.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use cognitive_arm::eval::{DatasetBuilder, PreparedData};
use cognitive_arm::pipeline::{CognitiveArm, PipelineConfig, SessionTrace};
use eeg::dataset::Protocol;
use eeg::types::Action;
use eeg::CHANNELS;
use exec::ExecPool;
use integration_tests::{window_forest, FOREST_WINDOW};
use ml::ensemble::{Ensemble, ForestClassifier, Member, Voting};
use ml::forest::{window_stat_features, ForestConfig, RandomForest, Tree, TreeNode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{SessionManager, SessionSpec};
use stream::transport::TransportParams;

/// Seed of the study and the forest (the serving benchmark's fixture seed).
const SEED: u64 = 1;
/// Three full blocks of 8 trees and one partial block of 3.
const TREES: usize = 27;
/// Served subjects.
const SUBJECTS: [u64; 2] = [3, 4];
/// The action schedule every session follows: (action, seconds).
const SCHEDULE: [(Action, f64); 3] = [
    (Action::Left, 1.5),
    (Action::Right, 1.5),
    (Action::Idle, 1.5),
];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Compares `rendered` against the committed fixture `name`, or rewrites
/// the fixture when `COGARM_REGEN_FIXTURES` is set.
fn check_fixture(name: &str, rendered: &str) {
    let path = fixture_path(name);
    if std::env::var_os("COGARM_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixtures dir")).expect("mkdir");
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {name} ({e}); run with COGARM_REGEN_FIXTURES=1")
    });
    let (mut committed_lines, mut rendered_lines) = (committed.lines(), rendered.lines());
    for line in 1.. {
        match (committed_lines.next(), rendered_lines.next()) {
            (None, None) => break,
            (a, b) => assert_eq!(
                a, b,
                "{name}:{line}: the forest path no longer reproduces its committed golden \
                 trace — the forest engine and its features must stay bit-identical"
            ),
        }
    }
}

/// The quick study and the forest fitted on it, once per process.
fn study() -> &'static (PreparedData, RandomForest) {
    static STUDY: OnceLock<(PreparedData, RandomForest)> = OnceLock::new();
    STUDY.get_or_init(|| {
        let pool = Arc::new(ExecPool::new(2));
        let data = DatasetBuilder::new(Protocol::quick(), 1, SEED)
            .with_pool(Arc::clone(&pool))
            .build()
            .expect("quick study builds");
        let config = ForestConfig {
            n_estimators: TREES,
            seed: SEED,
            ..ForestConfig::paper_best()
        };
        let forest = window_forest(&data, config, &pool);
        (data, forest)
    })
}

fn ensemble() -> Ensemble {
    Ensemble::new(
        vec![Member::Forest(ForestClassifier::new(study().1.clone(), FOREST_WINDOW))],
        Voting::Soft,
    )
}

/// Burst jitter far above the 8 ms sample cadence plus 5 % loss with
/// retransmission: heavy reordering every tick.
fn lossy_wire() -> TransportParams {
    TransportParams {
        base_latency: 0.004,
        jitter: 0.050,
        loss_prob: 0.05,
        retransmit: true,
        timestamps: true,
        overhead_bytes: 66,
    }
}

/// Each subject served alone through the monolithic loop.
fn mono_traces(threads: usize) -> Vec<SessionTrace> {
    let pool = Arc::new(ExecPool::new(threads));
    SUBJECTS
        .iter()
        .map(|&subject| {
            let mut arm = CognitiveArm::with_pool(
                PipelineConfig::default(),
                ensemble(),
                subject,
                Arc::clone(&pool),
            );
            arm.set_normalization(study().0.zscores[0].clone());
            let mut trace = SessionTrace::default();
            for (action, seconds) in SCHEDULE {
                arm.set_subject_action(action);
                arm.run_into(seconds, &mut trace).expect("monolithic run");
            }
            trace
        })
        .collect()
}

/// Every subject served together as streaming sessions on the lossy wire.
fn streaming_traces(threads: usize) -> Vec<SessionTrace> {
    let mut manager = SessionManager::new(Arc::new(ExecPool::new(threads)));
    let ids: Vec<_> = SUBJECTS
        .iter()
        .map(|&subject| {
            let spec = SessionSpec::new(PipelineConfig::default(), ensemble(), subject)
                .with_normalization(study().0.zscores[0].clone())
                .with_wire(lossy_wire());
            manager.add_streaming_session(spec).expect("admits")
        })
        .collect();
    let mut traces = vec![SessionTrace::default(); SUBJECTS.len()];
    for (action, seconds) in SCHEDULE {
        for &id in &ids {
            manager.set_action(id, action).expect("live session");
        }
        let segment = manager.run_for(seconds).expect("streaming run");
        for (trace, part) in traces.iter_mut().zip(segment) {
            trace.labels.extend(part.labels);
            trace.joints.extend(part.joints);
        }
    }
    traces
}

/// One line per label: timestamp, label, and the three joint angles, the
/// floats as raw bits.
fn render_trace(out: &mut String, header: &str, trace: &SessionTrace) {
    writeln!(out, "# {header}: <t f64 bits> <label> <lift wrist grip f64 bits>").expect("fmt");
    for (l, j) in trace.labels.iter().zip(&trace.joints) {
        writeln!(
            out,
            "{:016x} {} {:016x} {:016x} {:016x}",
            l.t.to_bits(),
            l.label,
            j.1.to_bits(),
            j.2.to_bits(),
            j.3.to_bits()
        )
        .expect("fmt");
    }
}

/// An f32 as its bits, or `nan`.
fn f32_token(x: f32) -> String {
    if x.is_nan() {
        "nan".to_owned()
    } else {
        format!("{:08x}", x.to_bits())
    }
}

/// Values that stress comparisons and accumulations.
const SPECIALS: [f32; 12] = [
    f32::NAN,
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0e-40,
    -1.0e-40,
    f32::MIN_POSITIVE,
    f32::MAX,
    f32::MIN,
    1.0e30,
    -1.0e30,
];

/// 600 seeded feature vectors of the forest's width: real window features
/// with specials injected, real features snapped onto split thresholds
/// (exact `<=` ties and their neighbours), and wide-scale random rows.
fn probe_features() -> Vec<Vec<f32>> {
    let (data, forest) = study();
    let windows = data.windows(FOREST_WINDOW, 7).expect("windows");
    let width = CHANNELS * 5;
    let splits: Vec<(usize, f32)> = forest
        .trees()
        .iter()
        .flat_map(|t| t.nodes())
        .filter_map(|n| match n {
            TreeNode::Split {
                feature, threshold, ..
            } => Some((*feature, *threshold)),
            TreeNode::Leaf { .. } => None,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0xF0_4E57);
    let mut rows = Vec::with_capacity(600);
    for i in 0..600 {
        let base = &windows[(i * 13) % windows.len()];
        let mut row = window_stat_features(&base.data, CHANNELS);
        match i % 3 {
            0 => {
                for x in &mut row {
                    if rng.gen_range(0.0f32..1.0) < 0.1 {
                        *x = SPECIALS[rng.gen_range(0..SPECIALS.len())];
                    }
                }
            }
            1 => {
                for _ in 0..width / 2 {
                    let (feature, threshold) = splits[rng.gen_range(0..splits.len())];
                    row[feature] = match rng.gen_range(0..3) {
                        0 => threshold,
                        1 => f32::from_bits(threshold.to_bits().wrapping_add(1)),
                        _ => f32::from_bits(threshold.to_bits().wrapping_sub(1)),
                    };
                }
            }
            _ => {
                for x in &mut row {
                    *x = if rng.gen_range(0.0f32..1.0) < 0.15 {
                        SPECIALS[rng.gen_range(0..SPECIALS.len())]
                    } else {
                        let scale = 10f32.powi(rng.gen_range(-6..7));
                        rng.gen_range(-1.0f32..1.0) * scale
                    };
                }
            }
        }
        rows.push(row);
    }
    rows
}

/// One channel of an adversarial window, by `kind`.
fn adversarial_channel(kind: usize, len: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut row: Vec<f32> = match kind {
        0 => vec![-0.0; len],
        1 => vec![0.0; len],
        2 => (0..len).map(|i| if i % 2 == 0 { 0.0 } else { -0.0 }).collect(),
        3 => vec![rng.gen_range(-4.0f32..4.0); len],
        4 => (0..len).map(|_| rng.gen_range(-1.0e-38f32..1.0e-38)).collect(),
        5 => (0..len)
            .map(|i| if i % 2 == 0 { f32::MAX } else { f32::MIN })
            .collect(),
        _ => {
            let scale = 10f32.powi(rng.gen_range(-3..4));
            (0..len).map(|_| rng.gen_range(-1.0f32..1.0) * scale).collect()
        }
    };
    // Kinds 7.. also carry one special sample somewhere.
    if kind >= 7 {
        let at = rng.gen_range(0..len);
        row[at] = SPECIALS[rng.gen_range(0..SPECIALS.len())];
    }
    row
}

/// Channel-major adversarial windows: `(channels, per-channel length,
/// window)` for 1–17 channels × lengths {1, 2, 7, 90}.
fn probe_windows() -> Vec<(usize, usize, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(0x57A7);
    let mut cases = Vec::new();
    for channels in 1..=17 {
        for len in [1, 2, 7, 90] {
            let window = (0..channels)
                .flat_map(|ch| adversarial_channel((channels + len + ch) % 10, len, &mut rng))
                .collect();
            cases.push((channels, len, window));
        }
    }
    cases
}

fn render_golden(mono: &[SessionTrace], streaming: &[SessionTrace]) -> String {
    let mut out = String::new();
    for (subject, trace) in SUBJECTS.iter().zip(mono) {
        render_trace(&mut out, &format!("mono subject {subject}"), trace);
    }
    for (subject, trace) in SUBJECTS.iter().zip(streaming) {
        render_trace(&mut out, &format!("streaming subject {subject}"), trace);
    }
    let forest = &study().1;
    out.push_str("# forest outputs: <row> <class probability f32 bits>\n");
    for (i, row) in probe_features().iter().enumerate() {
        write!(out, "{i}").expect("fmt");
        for p in forest.predict_proba(row) {
            write!(out, " {}", f32_token(p)).expect("fmt");
        }
        out.push('\n');
    }
    out.push_str("# features: <channels> <length> <mean std min max var f32 bits per channel>\n");
    for (channels, len, window) in probe_windows() {
        write!(out, "{channels} {len}").expect("fmt");
        for x in window_stat_features(&window, channels) {
            write!(out, " {}", f32_token(x)).expect("fmt");
        }
        out.push('\n');
    }
    out
}

#[test]
fn golden_forest_trace_is_bit_identical() {
    let mono = mono_traces(1);
    let streaming = streaming_traces(1);
    assert!(
        mono.iter().all(|t| t.labels.len() > 40),
        "sessions produced too few labels"
    );
    assert_eq!(mono, mono_traces(4), "monolithic: thread count changed bits");
    assert_eq!(streaming, streaming_traces(4), "streaming: thread count changed bits");
    assert_eq!(mono, streaming, "the lossy wire changed the label trace");
    let labels: std::collections::BTreeSet<usize> = mono
        .iter()
        .flat_map(|t| t.labels.iter().map(|l| l.label))
        .collect();
    assert!(labels.len() > 1, "the forest only ever voted {labels:?}");
    check_fixture("trace_forest.txt", &render_golden(&mono, &streaming));
}

// --- the compiled engine against its references ------------------------------

/// The reference walk: each tree's enum arena from the root, its leaf
/// distribution added in tree order, then the mean.
fn reference_proba(forest: &RandomForest, features: &[f32]) -> Vec<f32> {
    let mut acc = vec![0.0f32; forest.config().classes];
    for tree in forest.trees() {
        let mut idx = 0;
        let probs = loop {
            match &tree.nodes()[idx] {
                TreeNode::Leaf { probs } => break probs,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => idx = if features[*feature] <= *threshold { *left } else { *right },
            }
        };
        for (a, p) in acc.iter_mut().zip(probs) {
            *a += p;
        }
    }
    let n = forest.trees().len() as f32;
    for a in &mut acc {
        *a /= n;
    }
    acc
}

/// The reference feature body: one channel at a time.
fn reference_features(window: &[f32], channels: usize) -> Vec<f32> {
    let per = window.len() / channels;
    let mut out = Vec::with_capacity(channels * 5);
    for ch in 0..channels {
        let row = &window[ch * per..(ch + 1) * per];
        let n = row.len() as f64;
        let mean = row.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
        let var = row
            .iter()
            .map(|&x| (f64::from(x) - mean).powi(2))
            .sum::<f64>()
            / n;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &x in row {
            min = min.min(x);
            max = max.max(x);
        }
        out.push(mean as f32);
        out.push(var.sqrt() as f32);
        out.push(min);
        out.push(max);
        out.push(var as f32);
    }
    out
}

/// Bitwise equality, except that any NaN equals any NaN.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a
            .iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Rows of `width` features with random labels, so unbounded trees grow
/// deep before they are pure.
fn noisy_rows(n: usize, width: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..n)
        .map(|_| (0..width).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let labels = (0..n).map(|_| rng.gen_range(0..3)).collect();
    (rows, labels)
}

fn fit(trees: usize, max_depth: Option<usize>, seed: u64) -> RandomForest {
    let (rows, labels) = noisy_rows(2000, 6, seed);
    RandomForest::fit_with(
        ForestConfig {
            n_estimators: trees,
            max_depth,
            min_samples_split: 2,
            classes: 3,
            seed,
        },
        &rows,
        &labels,
        &ExecPool::new(1),
    )
    .expect("fits")
}

/// `trees` as a forest of their own.
fn assemble(trees: Vec<Tree>) -> RandomForest {
    let config = ForestConfig {
        n_estimators: trees.len(),
        max_depth: None,
        min_samples_split: 2,
        classes: 3,
        seed: 0,
    };
    RandomForest::from_parts(config, trees).expect("valid forest")
}

fn leaf_tree(probs: [f32; 3]) -> Tree {
    Tree::from_nodes(vec![TreeNode::Leaf {
        probs: probs.to_vec(),
    }])
    .expect("valid arena")
}

/// Longest root-to-leaf path of a tree, in splits.
fn depth(tree: &Tree) -> usize {
    fn walk(nodes: &[TreeNode], at: usize) -> usize {
        match &nodes[at] {
            TreeNode::Leaf { .. } => 0,
            TreeNode::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
        }
    }
    walk(tree.nodes(), 0)
}

/// Probe vectors of `width`: uniform values, split-threshold ties and
/// their neighbours, and specials.
fn probes(forest: &RandomForest, width: usize, seed: u64) -> Vec<Vec<f32>> {
    let thresholds: Vec<(usize, f32)> = forest
        .trees()
        .iter()
        .flat_map(|t| t.nodes())
        .filter_map(|n| match n {
            TreeNode::Split {
                feature, threshold, ..
            } => Some((*feature, *threshold)),
            TreeNode::Leaf { .. } => None,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..300)
        .map(|i| {
            let mut row: Vec<f32> = (0..width).map(|_| rng.gen_range(-1.2f32..1.2)).collect();
            if i % 3 == 1 && !thresholds.is_empty() {
                for _ in 0..width {
                    let (f, t) = thresholds[rng.gen_range(0..thresholds.len())];
                    let nudge = rng.gen_range(-1i32..=1);
                    row[f] = f32::from_bits(t.to_bits().wrapping_add_signed(nudge));
                }
            }
            if i % 3 == 2 {
                for x in &mut row {
                    if rng.gen_range(0.0f32..1.0) < 0.3 {
                        *x = SPECIALS[rng.gen_range(0..SPECIALS.len())];
                    }
                }
            }
            row
        })
        .collect()
}

fn assert_matches_reference(forest: &RandomForest, width: usize, context: &str) {
    for (i, row) in probes(forest, width, 0xEC0 + width as u64).iter().enumerate() {
        let got = forest.predict_proba(row);
        let want = reference_proba(forest, row);
        assert!(
            same_bits(&got, &want),
            "{context}: probe {i} {got:?} vs reference {want:?}"
        );
        assert!(got.iter().all(|p| p.is_finite()), "{context}: probe {i}");
    }
}

#[test]
fn lockstep_walk_matches_the_enum_walk_across_tree_counts() {
    for trees in [1, 7, 8, 9, 200] {
        let forest = fit(trees, Some(20), trees as u64);
        assert_matches_reference(&forest, 6, &format!("{trees} trees"));
    }
    assert_matches_reference(&study().1, CHANNELS * 5, "served forest");
}

#[test]
fn lockstep_walk_matches_the_enum_walk_on_leaves_and_deep_trees() {
    let unbounded = fit(9, None, 41);
    let capped = fit(9, Some(20), 42);
    let deepest = unbounded.trees().iter().map(depth).max().unwrap_or(0);
    assert!(deepest > 20, "unbounded trees only reached depth {deepest}");
    assert_matches_reference(&unbounded, 6, "max_depth None");
    assert_matches_reference(&capped, 6, "max_depth 20");

    // Every tree a single leaf: blocks of depth 0, nothing to walk.
    let leaves: Vec<Tree> = (0..11)
        .map(|i| leaf_tree([i as f32 / 10.0, 1.0 - i as f32 / 10.0, 0.0]))
        .collect();
    assert_matches_reference(&assemble(leaves), 6, "single leaves");

    // Blocks mixing depth 0 and depth 20: the leaves idle in their own
    // loop while their block walks its deepest tree.
    let mut mixed = Vec::new();
    for (i, tree) in capped.trees().iter().enumerate() {
        mixed.push(leaf_tree([0.2, 0.3, 0.5]));
        if i % 2 == 0 {
            mixed.push(leaf_tree([1.0, 0.0, 0.0]));
        }
        mixed.push(tree.clone());
    }
    assert!(mixed.iter().any(|t| depth(t) == 20), "no depth-20 tree");
    assert_matches_reference(&assemble(mixed), 6, "mixed depths");
}

#[test]
fn lockstep_walk_matches_the_enum_walk_on_shared_children() {
    // `Tree::from_nodes` only asks for forward children, so an arena may
    // share a subtree between parents: 0 and 1 both reach node 3, and
    // the longest path (0 → 1 → 3 → 5) is longer than the other routes.
    let leaf = |p: [f32; 3]| TreeNode::Leaf { probs: p.to_vec() };
    let split = |feature: usize, threshold: f32, left: usize, right: usize| TreeNode::Split {
        feature,
        threshold,
        left,
        right,
    };
    let shared = Tree::from_nodes(vec![
        split(0, 0.0, 1, 3),
        split(1, 0.25, 2, 3),
        leaf([1.0, 0.0, 0.0]),
        split(2, -0.5, 4, 5),
        leaf([0.0, 1.0, 0.0]),
        leaf([0.0, 0.0, 1.0]),
    ])
    .expect("forward children");
    let diamond = Tree::from_nodes(vec![
        split(3, 0.1, 1, 2),
        split(4, 0.0, 3, 3),
        split(5, 0.0, 3, 4),
        leaf([0.25, 0.25, 0.5]),
        leaf([0.5, 0.5, 0.0]),
    ])
    .expect("forward children");
    let mut trees = vec![shared, diamond];
    trees.extend(fit(8, Some(6), 7).trees().iter().cloned());
    assert_matches_reference(&assemble(trees), 6, "shared children");
}

#[test]
fn interleaved_features_match_the_scalar_body() {
    let mut rng = StdRng::seed_from_u64(0xFEA7);
    for channels in [1, 3, 7, 8, 9, 16, 17] {
        for len in [1, 2, 90, 190] {
            for round in 0..4 {
                let window: Vec<f32> = (0..channels)
                    .flat_map(|ch| adversarial_channel((ch + round * 3 + len) % 10, len, &mut rng))
                    .collect();
                let got = window_stat_features(&window, channels);
                let want = reference_features(&window, channels);
                assert!(
                    same_bits(&got, &want),
                    "{channels} channels × {len}, round {round}: {got:?} vs {want:?}"
                );
            }
        }
    }
    // An all-`-0.0` channel keeps its sign through the mean.
    let f = window_stat_features(&[-0.0; 9 * 4], 9);
    assert!(f.chunks(5).all(|c| c[0].to_bits() == (-0.0f32).to_bits()));
}
