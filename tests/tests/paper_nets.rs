//! Golden logit bits of the paper-scale networks.
//!
//! The serving benchmark's `paper_solo` and `connect_storm` workloads run
//! the paper's best CNN (`CnnConfig::paper_best`, seed 1) and Transformer
//! (`TransformerConfig::paper_best`, seed 2: d_model 128, two heads of
//! 64, t = 48), dense and `prune_global(0.7)`. Those shapes reach kernel
//! paths the small test models never do: 64-wide attention heads over 48
//! steps, 128×128 dense projections at 48 and 144 rows, CSC feed-forward
//! matrices at m = 48, and a 558-spot convolution. This suite pins their
//! bits in one golden file (`tests/fixtures/trace_paper_nets.txt`,
//! regenerate deliberately with `COGARM_REGEN_FIXTURES=1 cargo test -q
//! --test paper_nets`):
//!
//! 1. **logits** of each of the four networks over 78 seeded windows
//!    through a warm `InferPlan`, at batch 1 and at batch 3 (which must
//!    agree bit for bit). Sixteen windows are large-magnitude, up to
//!    overflow, and eight carry one huge spike in an otherwise unit-scale
//!    window, so infinities reach attention's keys and values and
//!    exactly-zero softmax weights meet them;
//! 2. **ensemble probabilities** of the dense and the pruned CNN +
//!    Transformer pair, soft-voted on pools of 1 and 4 threads (which
//!    must agree bit for bit).
//!
//! A NaN is written as the token `nan`: Rust does not pin NaN payloads or
//! signs, so only NaN-ness is observable.

use std::fmt::Write as _;
use std::path::PathBuf;

use eeg::CHANNELS;
use exec::ExecPool;
use ml::compress::prune_global;
use ml::ensemble::{Ensemble, EnsembleScratch, Member, Voting};
use ml::infer::{compile_cnn, compile_transformer, InferModel};
use ml::models::{CnnConfig, TransformerConfig, CLASSES};
use ml::plan::InferPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The serving benchmark's pruning ratio.
const PRUNE_RATIO: f64 = 0.7;
/// Window length both paper networks read.
const WINDOW: usize = 190;
/// Unit-scale windows, then one large-magnitude window per scale, then
/// one unit-scale window per spike value.
const UNIT_WINDOWS: usize = 54;
const LARGE_SCALES: [f32; 16] = [
    1e1, 1e2, 1e3, 1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16, 1e18, 1e19, 1e20, 1e24, 1e30, 3e38,
];
const SPIKES: [f32; 8] = [1e4, -1e8, 1e12, 1e16, -1e20, 1e30, 3e38, -3e38];

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
                "{name}:{line}: the paper-scale networks no longer reproduce their committed \
                 golden logits — an inference kernel changed its bits"
            ),
        }
    }
}

/// The four networks of the serving benchmark's paper workloads.
fn nets() -> Vec<(&'static str, InferModel)> {
    let cnn = compile_cnn(&CnnConfig::paper_best().build(1).expect("cnn builds"));
    let tf = compile_transformer(
        &TransformerConfig::paper_best()
            .build(2)
            .expect("transformer builds"),
    );
    let pruned = |model: &InferModel| {
        let mut model = model.clone();
        prune_global(&mut model, PRUNE_RATIO);
        model
    };
    vec![
        ("cnn_pruned70", pruned(&cnn)),
        ("tf_pruned70", pruned(&tf)),
        ("cnn_dense", cnn),
        ("tf_dense", tf),
    ]
}

/// 78 seeded channel-major windows: unit-scale pseudo-EEG with a
/// sprinkling of exact `±0.0`, one window per large scale, and unit-scale
/// windows with one spike on a sample the Transformer reads (every 4th).
fn windows() -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(0x9A9E);
    let per = CHANNELS * WINDOW;
    let mut out = Vec::new();
    for _ in 0..UNIT_WINDOWS {
        out.push(
            (0..per)
                .map(|i| match i % 97 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0f32..1.0),
                })
                .collect(),
        );
    }
    for scale in LARGE_SCALES {
        out.push(
            (0..per)
                .map(|_| rng.gen_range(-1.0f32..1.0) * scale)
                .collect(),
        );
    }
    for (i, spike) in SPIKES.into_iter().enumerate() {
        let mut w: Vec<f32> = (0..per).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        w[(i * 5 % CHANNELS) * WINDOW + 4 * (3 + 5 * i)] = spike;
        out.push(w);
    }
    out
}

fn token(v: f32) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else {
        format!("{:08x}", v.to_bits())
    }
}

fn tokens(row: &[f32]) -> Vec<String> {
    row.iter().map(|&v| token(v)).collect()
}

/// Logits of every window at batch 1 through one warm plan, checked
/// against the same windows run three to a call.
fn logit_lines(name: &str, model: &InferModel, windows: &[Vec<f32>], out: &mut String) {
    let classes = model.classes();
    let mut plan = InferPlan::compile(model);
    let mut solo = vec![0.0f32; classes];
    let mut rows = Vec::with_capacity(windows.len());
    for w in windows {
        plan.predict_logits_into(model, w, 1, &mut solo);
        rows.push(tokens(&solo));
    }
    let mut batched = vec![0.0f32; 3 * classes];
    for (g, group) in windows.chunks(3).enumerate() {
        let flat: Vec<f32> = group.concat();
        let batch = group.len();
        plan.predict_logits_into(model, &flat, batch, &mut batched[..batch * classes]);
        for b in 0..batch {
            assert_eq!(
                tokens(&batched[b * classes..(b + 1) * classes]),
                rows[g * 3 + b],
                "{name} window {}: batch 3 drifted from batch 1",
                g * 3 + b
            );
        }
    }
    for (i, row) in rows.iter().enumerate() {
        writeln!(out, "{name} {i} {}", row.join(" ")).expect("write to string");
    }
}

/// Soft-voted probabilities of a CNN + Transformer pair at 1 and 4
/// threads, eight windows to a call so the 4-thread pool chunks them.
fn ensemble_lines(name: &str, ensemble: &Ensemble, windows: &[Vec<f32>], out: &mut String) {
    let mut per_pool = Vec::new();
    for threads in [1usize, 4] {
        let pool = ExecPool::new(threads);
        let mut scratch = EnsembleScratch::new(ensemble);
        let mut rows = Vec::with_capacity(windows.len());
        for group in windows.chunks(8) {
            let flat: Vec<f32> = group.concat();
            let mut probas = vec![0.0f32; group.len() * CLASSES];
            ensemble.predict_batch_into(
                &flat,
                group.len(),
                CHANNELS,
                &pool,
                &mut scratch,
                &mut probas,
            );
            rows.extend(probas.chunks(CLASSES).map(tokens));
        }
        per_pool.push(rows);
    }
    assert_eq!(
        per_pool[0], per_pool[1],
        "{name}: thread count changed the bits"
    );
    for (i, row) in per_pool[0].iter().enumerate() {
        writeln!(out, "{name} {i} {}", row.join(" ")).expect("write to string");
    }
}

#[test]
fn paper_nets_logit_trace_fixture_locks_the_kernels() {
    let nets = nets();
    let windows = windows();
    let mut out = String::from(
        "# golden paper-scale logits: <net> <window> <logit f32 bits, hex, per class>; \
         ensembles: <proba bits per class>\n",
    );
    for (name, model) in &nets {
        logit_lines(name, model, &windows, &mut out);
    }
    for (name, (cnn, tf)) in [("ens_pruned70", (0, 1)), ("ens_dense", (2, 3))] {
        let ensemble = Ensemble::new(
            vec![
                Member::Net(nets[cnn].1.clone()),
                Member::Net(nets[tf].1.clone()),
            ],
            Voting::Soft,
        );
        ensemble_lines(name, &ensemble, &windows, &mut out);
    }
    check_fixture("trace_paper_nets.txt", &out);
}
