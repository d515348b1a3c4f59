//! The model-persistence suite: round-trip fidelity, golden fixtures and
//! total-reader guarantees for the `.cogm` format.
//!
//! Three layers of protection:
//!
//! 1. **Round-trip property tests** (seeded loops, per the PR 1
//!    convention): `load(save(x)) == x` bit-exactly for forests, genomes
//!    and trained ensembles, and a *loaded* system's label trace equals
//!    the in-memory system's trace at 1 and 4 worker threads.
//! 2. **Golden fixtures** under `tests/fixtures/`: today's writer must
//!    reproduce the committed bytes exactly and today's reader must accept
//!    them, locking the format against silent drift. Regenerate
//!    deliberately with `COGARM_REGEN_FIXTURES=1 cargo test -q --test
//!    persistence` after an intentional format-version bump; that rewrites
//!    the v2 fixtures only. The `_v1` fixtures are **permanent, frozen
//!    inputs** (nothing writes v1 any more): they pin the total reader's
//!    promise to load every format version ever shipped, plus the
//!    canonical v1 → v2 upgrade, byte-for-byte.
//! 3. **Corruption sweeps**: every prefix truncation and every
//!    single-byte flip of a valid artifact must yield a typed
//!    `ModelIoError` — never a panic, never a wrong-but-`Ok` model —
//!    over both the current (v2, aligned) and legacy (v1) layouts; and
//!    payload mutations behind a recomputed CRC must reach the decoder
//!    and still never panic it. Every sweep loads through the one reader,
//!    `WeightImage`.

use std::path::PathBuf;
use std::sync::Arc;

use cognitive_arm::pipeline::{CognitiveArm, PipelineConfig, SessionTrace};
use eeg::types::Action;
use evo::{EvolutionarySearch, Family, SearchSpace};
use exec::ExecPool;
use integration_tests::quick_trained;
use ml::ensemble::{Ensemble, ForestClassifier, Member, Voting};
use ml::forest::{ForestConfig, RandomForest, TreeNode};
use ml::models::{CnnConfig, ConvSpec, PoolKind};
use ml::optim::OptimizerKind;
use ml::tensor::Tensor;
use model_io::{from_bytes, to_bytes, Container, ModelIoError, Persist, SavedModel, WeightImage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// --- shared builders ---------------------------------------------------------

/// Deterministic toy training data (separable; same shape forest training
/// sees after feature extraction).
fn toy_rows(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..n {
        let row: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        ys.push(usize::from(row[0] > 0.0) + usize::from(row[1] > 0.0));
        xs.push(row);
    }
    (xs, ys)
}

fn toy_forest(seed: u64, n_estimators: usize, max_depth: Option<usize>) -> RandomForest {
    let (xs, ys) = toy_rows(80, seed);
    RandomForest::fit(
        ForestConfig {
            n_estimators,
            max_depth,
            min_samples_split: 2,
            classes: 3,
            seed,
        },
        &xs,
        &ys,
    )
    .expect("toy forest fits")
}

/// A small but fully persistable closed-loop artifact (forest-only
/// ensemble), cheap enough that exhaustive corruption sweeps stay fast.
fn small_saved_model() -> SavedModel {
    let forest = toy_forest(5, 6, Some(5));
    let ensemble = Ensemble::new(
        vec![Member::Forest(ForestClassifier::new(forest, 90))],
        Voting::Soft,
    );
    SavedModel {
        pipeline: PipelineConfig::default(),
        ensemble,
        normalization: None,
    }
}

fn assert_traces_identical(a: &SessionTrace, b: &SessionTrace, context: &str) {
    assert_eq!(a.labels.len(), b.labels.len(), "{context}: label counts");
    for (x, y) in a.labels.iter().zip(&b.labels) {
        assert!(
            x.t.to_bits() == y.t.to_bits() && x.label == y.label,
            "{context}: label trace diverged at t={}",
            x.t
        );
    }
    assert_eq!(a.joints.len(), b.joints.len(), "{context}: joint counts");
    for (x, y) in a.joints.iter().zip(&b.joints) {
        assert!(
            x.1.to_bits() == y.1.to_bits()
                && x.2.to_bits() == y.2.to_bits()
                && x.3.to_bits() == y.3.to_bits(),
            "{context}: joint trajectory diverged"
        );
    }
}

/// A saved model's system on a pool of `threads` workers.
fn system_on_pool(model: SavedModel, subject_seed: u64, threads: usize) -> CognitiveArm {
    CognitiveArm::assemble(
        model.pipeline,
        model.ensemble,
        model.normalization,
        subject_seed,
        None,
        Arc::new(ExecPool::new(threads)),
    )
    .expect("a loaded model assembles")
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cogm-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

// --- round-trip property tests (seeded loops) --------------------------------

#[test]
fn forests_round_trip_bit_exactly() {
    for seed in 0..6u64 {
        let forest = toy_forest(seed, 3 + seed as usize, [None, Some(4)][seed as usize % 2]);
        let bytes = to_bytes(&forest).expect("serializes");
        let back: RandomForest = from_bytes(&bytes).expect("deserializes");
        assert_eq!(back, forest, "seed {seed}");
        // Bit-exact predictions, not just structural equality.
        let (probe, _) = toy_rows(10, seed ^ 0xFF);
        for row in &probe {
            let a = forest.predict_proba(row);
            let b = back.predict_proba(row);
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "seed {seed}: probabilities diverged"
            );
        }
    }
}

#[test]
fn genomes_round_trip_across_all_families() {
    for family in [Family::Cnn, Family::Lstm, Family::Transformer, Family::Forest] {
        let space = SearchSpace::new(family);
        let mut rng = StdRng::seed_from_u64(42);
        for i in 0..12 {
            let genome = space.sample(&mut rng);
            let back = from_bytes(&to_bytes(&genome).expect("serializes")).expect("deserializes");
            assert_eq!(genome, back, "{family} sample {i}");
        }
    }
}

#[test]
fn ensembles_round_trip_bit_exactly() {
    for seed in 0..3u64 {
        let forest = toy_forest(seed, 4, Some(4));
        let ensemble = Ensemble::new(
            vec![Member::Forest(ForestClassifier::new(forest, 90 + seed as usize))],
            [Voting::Soft, Voting::Hard][seed as usize % 2],
        );
        let back: Ensemble = from_bytes(&to_bytes(&ensemble).expect("serializes")).unwrap();
        assert_eq!(back, ensemble, "seed {seed}");
    }
}

#[test]
fn trained_cnn_transformer_ensemble_round_trips() {
    let artifacts = quick_trained(21, 21);
    let bytes = to_bytes(&artifacts.ensemble).expect("serializes");
    let back: Ensemble = from_bytes(&bytes).expect("deserializes");
    assert_eq!(back, artifacts.ensemble);
    assert_eq!(back.name(), artifacts.ensemble.name());
    assert_eq!(back.param_count(), artifacts.ensemble.param_count());
}

#[test]
fn custom_members_are_refused_with_a_typed_error() {
    struct Stub;
    impl ml::ensemble::Classifier for Stub {
        fn predict_proba_window(&self, _w: &[f32], _c: usize, _l: usize) -> Vec<f32> {
            vec![1.0, 0.0, 0.0]
        }
        fn window(&self) -> usize {
            4
        }
        fn name(&self) -> String {
            "stub".into()
        }
        fn param_count(&self) -> usize {
            0
        }
        fn clone_box(&self) -> Box<dyn ml::ensemble::Classifier> {
            Box::new(Stub)
        }
    }
    let ensemble = Ensemble::new(vec![Member::Custom(Box::new(Stub))], Voting::Soft);
    assert!(matches!(
        to_bytes(&ensemble).unwrap_err(),
        ModelIoError::UnsupportedMember { .. }
    ));
}

/// The acceptance criterion: a loaded model's label trace over a recorded
/// window equals the in-memory model's trace, at 1 and at 4 threads.
#[test]
fn loaded_model_trace_matches_in_memory_trace_across_thread_counts() {
    let artifacts = quick_trained(33, 33);
    let path = temp_path("trained.cogm");

    let run = |mut system: CognitiveArm| -> SessionTrace {
        system.set_normalization(artifacts.data.zscores[0].clone());
        system.set_subject_action(Action::Right);
        system.run_for(2.0).expect("runs")
    };

    // Save from a fresh single-threaded system, before any samples flow.
    let pool = Arc::new(ExecPool::new(1));
    let system = CognitiveArm::with_pool(
        PipelineConfig::default(),
        artifacts.ensemble.clone(),
        33,
        pool,
    );
    SavedModel::from(&system).save(&path).expect("saves");
    let reference = run(system);
    assert!(!reference.labels.is_empty(), "reference run emitted labels");

    // Loaded artifact, same thread count.
    let loaded = SavedModel::load(&path)
        .expect("loads")
        .into_system(33)
        .expect("assembles");
    assert_traces_identical(&reference, &run(loaded), "loaded @1 thread");

    // Loaded artifact, different thread count: the exec substrate keeps
    // thread count out of the numerics, so the trace must still match.
    let saved = SavedModel::load(&path).expect("loads");
    assert_traces_identical(
        &reference,
        &run(system_on_pool(saved, 33, 4)),
        "loaded @4 threads",
    );
}

#[test]
fn saved_model_preserves_normalization_and_config() {
    let artifacts = quick_trained(21, 21);
    let path = temp_path("with-norm.cogm");
    let mut system = CognitiveArm::new(PipelineConfig::default(), artifacts.ensemble.clone(), 21);
    system.set_normalization(artifacts.data.zscores[0].clone());
    SavedModel::from(&system).save(&path).expect("saves");

    let saved = SavedModel::load(&path).expect("loads");
    assert_eq!(saved.pipeline, PipelineConfig::default());
    assert_eq!(saved.normalization.as_ref(), system.normalization());
    assert_eq!(&saved.ensemble, system.ensemble());
}

/// A model decoded through the weight image must reproduce the in-memory
/// system's label trace bit-for-bit at 1 and 4 worker threads. A v1 file
/// upgrades to exactly the v2 bytes
/// (`v1_fixtures_load_and_upgrade_bit_identically`), so it decodes
/// through this same path.
#[test]
fn weight_image_models_reproduce_traces_across_thread_counts() {
    let artifacts = quick_trained(33, 33);
    let path = temp_path("image-trace.cogm");
    let run = |mut system: CognitiveArm| -> SessionTrace {
        system.set_normalization(artifacts.data.zscores[0].clone());
        system.set_subject_action(Action::Right);
        system.run_for(2.0).expect("runs")
    };
    let pool = Arc::new(ExecPool::new(1));
    let system = CognitiveArm::with_pool(
        PipelineConfig::default(),
        artifacts.ensemble.clone(),
        33,
        pool,
    );
    SavedModel::from(&system).save(&path).expect("saves");
    let reference = run(system);
    assert!(!reference.labels.is_empty(), "reference run emitted labels");

    let model = WeightImage::open(&path)
        .expect("image opens")
        .decode()
        .expect("image decodes");
    assert_traces_identical(
        &reference,
        &run(model.clone().into_system(33).expect("assembles")),
        "image @1 thread",
    );
    assert_traces_identical(
        &reference,
        &run(system_on_pool(model, 33, 4)),
        "image @4 threads",
    );
}

// --- golden fixtures ---------------------------------------------------------

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// The canonical fixture artifacts. Each returns a complete `.cogm` file
/// image; everything feeding them is seeded, so the bytes are identical on
/// every host and thread count.
fn golden_artifacts() -> Vec<(&'static str, Vec<u8>)> {
    let tensor = {
        let mut rng = StdRng::seed_from_u64(7);
        Tensor::uniform(vec![4, 3], 0.5, &mut rng)
    };
    let forest = toy_forest(11, 3, Some(4));
    let genome = evo::Genome::Cnn {
        config: CnnConfig {
            convs: vec![ConvSpec {
                filters: 8,
                kernel: 3,
                stride: 2,
            }],
            pool: PoolKind::Max,
            window: 100,
            channels: 16,
            dropout: 0.25,
        },
        optimizer: OptimizerKind::Adam { lr: 2e-3 },
    };
    let model = small_saved_model();

    let single = |tag: [u8; 4], value: &dyn erased::AnyPersist| -> Vec<u8> {
        let mut c = Container::new();
        value.add_to(&mut c, tag);
        c.to_file_bytes()
    };
    vec![
        ("tensor.cogm", single(*b"TENS", &tensor)),
        ("forest.cogm", single(*b"FRST", &forest)),
        ("genome.cogm", single(*b"GENO", &genome)),
        (
            "model.cogm",
            model.to_container().expect("persistable").to_file_bytes(),
        ),
    ]
}

/// Tiny object-safe shim so `golden_artifacts` can treat heterogeneous
/// `Persist` values uniformly.
mod erased {
    use model_io::{Container, Persist};

    pub trait AnyPersist {
        fn add_to(&self, c: &mut Container, tag: [u8; 4]);
    }

    impl<T: Persist> AnyPersist for T {
        fn add_to(&self, c: &mut Container, tag: [u8; 4]) {
            c.add(tag, self).expect("fixture serializes");
        }
    }
}

#[test]
fn golden_fixtures_are_reproduced_byte_for_byte() {
    let regen = std::env::var_os("COGARM_REGEN_FIXTURES").is_some();
    for (name, bytes) in golden_artifacts() {
        let path = fixture_path(name);
        if regen {
            std::fs::create_dir_all(path.parent().expect("fixtures dir")).expect("mkdir");
            std::fs::write(&path, &bytes).expect("write fixture");
            continue;
        }
        let committed = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("missing fixture {name} ({e}); run with COGARM_REGEN_FIXTURES=1")
        });
        assert_eq!(
            committed, bytes,
            "{name}: writer no longer reproduces the committed fixture — \
             this is a format change; bump FORMAT_VERSION and regenerate deliberately"
        );
    }
}

#[test]
fn golden_fixtures_are_accepted_by_the_reader() {
    let tensor: Tensor = model_io::load_section(fixture_path("tensor.cogm"), *b"TENS")
        .expect("tensor fixture decodes");
    assert_eq!(tensor.shape(), &[4, 3]);

    let forest: RandomForest = model_io::load_section(fixture_path("forest.cogm"), *b"FRST")
        .expect("forest fixture decodes");
    assert_eq!(forest, toy_forest(11, 3, Some(4)));

    let genome: evo::Genome = model_io::load_section(fixture_path("genome.cogm"), *b"GENO")
        .expect("genome fixture decodes");
    assert_eq!(genome.window(), 100);

    let model = SavedModel::load(fixture_path("model.cogm")).expect("model fixture decodes");
    assert_eq!(model, small_saved_model());
}

/// The permanent v1 fixtures must load, decode to the same model as the v2
/// fixture, and upgrade **byte-identically** to the committed v2 encoding
/// — the upgrade is canonical, so a v1 file upgraded in memory and the
/// same model saved as v2 are the same image.
#[test]
fn v1_fixtures_load_and_upgrade_bit_identically() {
    let v1 = std::fs::read(fixture_path("model_v1.cogm")).expect("v1 fixture present");
    let v2 = std::fs::read(fixture_path("model.cogm")).expect("v2 fixture present");
    assert_eq!(model_io::image_version(&v1).expect("v1 envelope"), 1);
    assert_eq!(model_io::image_version(&v2).expect("v2 envelope"), 2);

    // The file loader accepts the legacy layout directly.
    let model = SavedModel::load(fixture_path("model_v1.cogm")).expect("v1 decodes");
    assert_eq!(model, small_saved_model());
    let forest: RandomForest = model_io::load_section(fixture_path("forest_v1.cogm"), *b"FRST")
        .expect("v1 forest decodes");
    assert_eq!(forest, toy_forest(11, 3, Some(4)));

    // Canonical upgrade: re-encoding the v1 bytes as v2 reproduces the
    // committed v2 fixture exactly (and v2 is a fixed point).
    let upgraded = model_io::upgrade_file_bytes(&v1).expect("upgrades");
    assert_eq!(upgraded, v2, "v1 upgrade is not canonical");
    assert_eq!(model_io::upgrade_file_bytes(&v2).expect("re-encodes"), v2);

    // The weight image runs the same upgrade internally: both fixtures
    // intern to one content hash and decode to the same model.
    let from_v1 = WeightImage::from_bytes(&v1).expect("v1 image");
    let from_v2 = WeightImage::from_bytes(&v2).expect("v2 image");
    assert_eq!(from_v1.source_version(), 1);
    assert_eq!(from_v2.source_version(), 2);
    assert_eq!(from_v1.content_hash(), from_v2.content_hash());
    assert_eq!(from_v1.decode().expect("v1 image decodes"), model);
    assert_eq!(from_v2.decode().expect("v2 image decodes"), model);
}

// --- corruption and truncation sweeps ----------------------------------------

/// Opens `bytes` as a weight image and decodes the full model — the one
/// load path every sweep below drives.
fn load_image(bytes: &[u8]) -> model_io::Result<SavedModel> {
    WeightImage::from_bytes(bytes)?.decode()
}

/// Every prefix truncation of a valid saved model must fail with a typed
/// error — exercised on a complete `CognitiveArm` artifact.
#[test]
fn every_truncation_of_a_saved_model_errors() {
    let bytes = small_saved_model()
        .to_container()
        .expect("persistable")
        .to_file_bytes();
    assert_eq!(
        load_image(&bytes).expect("intact artifact loads"),
        small_saved_model()
    );
    for cut in 0..bytes.len() {
        // A shorter valid image is impossible: the checksum covers
        // length-bearing structure. `Ok` means the reader accepted
        // corrupt input.
        assert!(
            load_image(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes loaded",
            bytes.len()
        );
    }
}

/// Every single-byte flip of a valid saved model must fail with a typed
/// error (the CRC catches everything past the magic/version header; the
/// header checks catch the rest). No flip may panic or yield `Ok`.
#[test]
fn every_byte_flip_of_a_saved_model_errors() {
    let bytes = small_saved_model()
        .to_container()
        .expect("persistable")
        .to_file_bytes();
    let mut kinds = [0usize; 3]; // magic/version, checksum, other
    for i in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0xFF;
        match load_image(&flipped) {
            Err(ModelIoError::BadMagic { .. }) | Err(ModelIoError::UnsupportedVersion { .. }) => {
                kinds[0] += 1;
            }
            Err(ModelIoError::ChecksumMismatch { .. }) => kinds[1] += 1,
            Err(_) => kinds[2] += 1,
            Ok(_) => panic!("flip at byte {i} went undetected"),
        }
    }
    assert_eq!(kinds[0], 6, "4 magic + 2 version bytes");
    assert!(kinds[1] >= bytes.len() - 8, "CRC catches the body: {kinds:?}");
}

/// Flips must also be caught when they land *inside a section payload* and
/// the file is then fed to the full model decoder (not just the envelope
/// check).
#[test]
fn flipped_payloads_never_produce_a_wrong_but_ok_model() {
    let bytes = small_saved_model()
        .to_container()
        .expect("persistable")
        .to_file_bytes();
    for i in (0..bytes.len()).step_by(3) {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x10;
        assert!(
            load_image(&flipped).is_err(),
            "flip at byte {i} produced an Ok model"
        );
    }
}

/// Truncations and flips on the committed golden fixtures — both format
/// generations — so the sweep also covers bytes written by *past*
/// versions of the writer, including the v1-upgrading open path.
#[test]
fn fixture_corruption_sweep() {
    for name in ["forest.cogm", "forest_v1.cogm", "model_v1.cogm"] {
        let bytes = std::fs::read(fixture_path(name)).expect("fixture present");
        for cut in 0..bytes.len() {
            assert!(
                WeightImage::from_bytes(&bytes[..cut]).is_err(),
                "{name} truncation to {cut} accepted"
            );
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xFF;
            assert!(
                WeightImage::from_bytes(&flipped).is_err(),
                "{name} flip at {i} accepted"
            );
        }
    }
}

/// A structurally valid file whose pipeline section carries an
/// undesignable filter must be a typed error — `CognitiveArm::new` would
/// otherwise panic on it after loading.
#[test]
fn hostile_filter_spec_is_rejected_at_load_time() {
    let mut model = small_saved_model();
    model.pipeline.filter.low_hz = 90.0; // above the 45 Hz high edge
    model.pipeline.filter.high_hz = 10.0;
    let bytes = model.to_container().expect("serializes").to_file_bytes();
    let err = load_image(&bytes).unwrap_err();
    assert!(
        matches!(err, ModelIoError::Malformed { .. }),
        "expected Malformed, got {err}"
    );
}

/// A CRC-valid file whose pipeline section forges an absurd filter order
/// must be a typed error: the Butterworth design would otherwise overflow
/// (or size its pole vectors and filter state by the forged order).
#[test]
fn forged_filter_order_is_rejected_at_load_time() {
    for order in [dsp::butterworth::MAX_ORDER + 1, 1 << 40, usize::MAX] {
        let mut model = small_saved_model();
        model.pipeline.filter.order = order;
        let bytes = model.to_container().expect("serializes").to_file_bytes();
        let err = load_image(&bytes).unwrap_err();
        assert!(
            matches!(err, ModelIoError::Malformed { .. }),
            "order {order}: expected Malformed, got {err}"
        );
    }
}

/// A NaN notch quality factor would design NaN coefficients and turn
/// every filtered sample into NaN; it must be refused at load time.
#[test]
fn nan_notch_quality_is_rejected_at_load_time() {
    let mut model = small_saved_model();
    model.pipeline.filter.notch_q = f64::NAN;
    let bytes = model.to_container().expect("serializes").to_file_bytes();
    let err = load_image(&bytes).unwrap_err();
    assert!(
        matches!(err, ModelIoError::Malformed { .. }),
        "expected Malformed, got {err}"
    );
}

/// A negative `safety.max_step` used to load `Ok` and then panic the
/// safety gate's clamp on the first command; a NaN one would switch the
/// rate limit off. Both must be refused at load time.
#[test]
fn bad_max_step_is_rejected_at_load_time() {
    for max_step in [-1.0, f64::NAN] {
        let mut model = small_saved_model();
        model.pipeline.safety.max_step = max_step;
        let bytes = model.to_container().expect("serializes").to_file_bytes();
        let err = load_image(&bytes).unwrap_err();
        assert!(
            matches!(err, ModelIoError::Malformed { .. }),
            "max_step {max_step}: expected Malformed, got {err}"
        );
    }
}

/// A model's fields are public, so a hand-built one need never pass the
/// load-time check: `into_system` runs the same check, and a
/// normalization fitted on 4 channels is refused there instead of
/// assembling a system that poisons itself on its first sample.
#[test]
fn foreign_normalization_is_refused_at_into_system() {
    let mut model = small_saved_model();
    model.normalization =
        Some(dsp::normalize::Zscore::from_parts(vec![0.0; 4], vec![1.0; 4]).expect("4 channels"));
    let err = model.into_system(1).unwrap_err();
    assert!(
        matches!(err, ModelIoError::Malformed { .. }),
        "expected Malformed, got {err}"
    );
}

/// A NaN, infinite or negative leaf probability used to load `Ok` and
/// then panic the first label routed to that leaf (the vote's argmax
/// needs comparable numbers); it must be refused at load time. The leaf
/// is forged in place in a valid artifact and the CRC recomputed.
#[test]
fn non_finite_forest_leaf_is_rejected_at_load_time() {
    let model = small_saved_model();
    let bytes = model.to_container().expect("serializes").to_file_bytes();
    let Member::Forest(member) = &model.ensemble.members()[0] else {
        panic!("the small model is a forest")
    };
    let leaf = member.forest().trees()[0]
        .nodes()
        .iter()
        .find(|n| matches!(n, TreeNode::Leaf { .. }))
        .expect("a leaf")
        .clone();
    let encoded = to_bytes(&leaf).expect("serializes");
    let at = bytes
        .windows(encoded.len())
        .position(|w| w == encoded)
        .expect("the leaf's bytes are in the artifact");
    for bad in [f32::NAN, f32::INFINITY, -0.5] {
        let TreeNode::Leaf { mut probs } = leaf.clone() else {
            unreachable!("found as a leaf")
        };
        probs[0] = bad;
        let mut forged = bytes.clone();
        forged[at..at + encoded.len()]
            .copy_from_slice(&to_bytes(&TreeNode::Leaf { probs }).expect("serializes"));
        let tail = forged.len() - 4;
        let crc = model_io::crc32::crc32(&forged[..tail]);
        forged[tail..].copy_from_slice(&crc.to_le_bytes());
        let err = load_image(&forged).unwrap_err();
        assert!(
            matches!(err, ModelIoError::Malformed { .. }),
            "leaf entry {bad}: expected Malformed, got {err}"
        );
    }
}

#[test]
fn missing_and_empty_files_are_typed_errors() {
    assert!(matches!(
        SavedModel::load(temp_path("does-not-exist.cogm")).unwrap_err(),
        ModelIoError::Io(_)
    ));
    let path = temp_path("empty.cogm");
    std::fs::write(&path, []).expect("write empty");
    assert!(matches!(
        SavedModel::load(&path).unwrap_err(),
        ModelIoError::Truncated { .. }
    ));
}

/// A structurally valid, CRC-clean container carrying a CSR matrix whose
/// `col_idx` points past `cols` must be a typed error at load time: the
/// sparse kernel trusts those indices, so the reader (and
/// `CsrMatrix::new`) are the boundary that keeps a hostile fixture from
/// becoming an out-of-bounds read.
#[test]
fn hostile_csr_column_index_is_rejected_at_load_time() {
    use ml::sparse::CsrMatrix;
    let encode = |col_idx: Vec<u32>| -> Vec<u8> {
        let mut payload = Vec::new();
        2usize.write_to(&mut payload).unwrap(); // rows
        3usize.write_to(&mut payload).unwrap(); // cols
        vec![0usize, 1, 2].write_to(&mut payload).unwrap(); // row_ptr
        col_idx.write_to(&mut payload).unwrap();
        vec![1.0f32, 2.0].write_to(&mut payload).unwrap(); // values
        let mut container = Container::new();
        container.add(*b"RAWB", &payload).unwrap();
        container.to_file_bytes()
    };
    // Control: the same bytes with in-range indices load fine, so the
    // hostile variant below fails for the right reason.
    let good = WeightImage::from_bytes(&encode(vec![1, 2])).expect("envelope");
    let raw: Vec<u8> = good.get(*b"RAWB").expect("payload");
    assert!(from_bytes::<CsrMatrix>(&raw).is_ok(), "control fixture rejected");
    // Forged: column index 3 in a 3-column matrix.
    let bad = WeightImage::from_bytes(&encode(vec![1, 3])).expect("envelope is valid");
    let raw: Vec<u8> = bad.get(*b"RAWB").expect("payload");
    let err = from_bytes::<CsrMatrix>(&raw).unwrap_err();
    assert!(
        matches!(err, ModelIoError::Malformed { .. }),
        "expected Malformed, got {err}"
    );
}

/// A structurally valid container whose payload claims absurd lengths must
/// not over-allocate: the forged section is rejected by the checksummed
/// envelope, and a forged *inner* length (valid CRC, hostile payload) is
/// bounded by the actual bytes present.
#[test]
fn forged_inner_lengths_are_rejected_without_allocation() {
    let mut container = Container::new();
    // A "tensor" whose shape claims 2^32 elements but carries none.
    let mut payload = Vec::new();
    vec![1usize << 32].write_to(&mut payload).unwrap();
    Vec::<f32>::new().write_to(&mut payload).unwrap();
    container.add(*b"RAWB", &payload).unwrap();
    let bytes = container.to_file_bytes();
    let parsed = WeightImage::from_bytes(&bytes).expect("envelope is valid");
    let raw: Vec<u8> = parsed.get(*b"RAWB").expect("raw bytes round-trip");
    assert!(from_bytes::<Tensor>(&raw).is_err(), "forged tensor accepted");
}

/// A small artifact (tens of KB) carrying every weight representation a
/// deployed ensemble uses — a dense LSTM, a CSR-pruned transformer, an
/// int8 CNN and a forest member — plus `PCFG` and `NORM` sections.
fn mixed_saved_model() -> SavedModel {
    use dsp::normalize::Zscore;
    use ml::compress::{prune_global, quantize, QuantMode};
    use ml::infer::{compile_cnn, compile_lstm, compile_transformer, MatRep};
    use ml::models::{LstmConfig, TransformerConfig};
    let (window, channels) = (40, eeg::CHANNELS);
    let lstm = LstmConfig {
        hidden: 8,
        layers: 1,
        dropout: 0.0,
        window,
        channels,
        time_stride: 4,
    };
    let transformer = TransformerConfig {
        layers: 1,
        heads: 2,
        d_model: 8,
        dim_ff: 16,
        dropout: 0.0,
        window,
        channels,
        time_stride: 4,
    };
    let cnn = CnnConfig {
        convs: vec![ConvSpec {
            filters: 4,
            kernel: 3,
            stride: 2,
        }],
        pool: PoolKind::Max,
        window,
        channels,
        dropout: 0.0,
    };
    let dense = compile_lstm(&lstm.build(1).expect("lstm builds"));
    let mut sparse = compile_transformer(&transformer.build(2).expect("transformer builds"));
    prune_global(&mut sparse, 0.8);
    let mut csr = 0;
    sparse.visit_weights(|w| csr += usize::from(matches!(w, MatRep::Sparse(_))));
    assert!(csr > 0, "pruning produced no CSR matrices");
    let mut int8 = compile_cnn(&cnn.build(3).expect("cnn builds"));
    quantize(&mut int8, QuantMode::Calibrated).expect("quantizes");
    let forest = ForestClassifier::new(toy_forest(4, 3, Some(4)), window);
    SavedModel {
        pipeline: PipelineConfig::default(),
        ensemble: Ensemble::new(
            vec![
                Member::Net(dense),
                Member::Net(sparse),
                Member::Net(int8),
                Member::Forest(forest),
            ],
            Voting::Soft,
        ),
        normalization: Some(
            Zscore::from_parts(vec![0.25; channels], vec![1.5; channels]).expect("valid"),
        ),
    }
}

/// Forged-CRC mutation sweep: single bytes inside the payloads of a valid
/// artifact are overwritten at seeded offsets and the trailing CRC is
/// recomputed, so every mutant passes the envelope and reaches the
/// decoder's own validation. Each must load or fail with a typed error —
/// never panic. (Compiling or predicting a mutant that loads is a
/// separate trust question and out of scope here.)
#[test]
fn forged_crc_mutations_never_panic_the_decoder() {
    let bytes = mixed_saved_model()
        .to_container()
        .expect("persistable")
        .to_file_bytes();
    assert!(
        bytes.len() < 64 * 1024,
        "sweep artifact grew to {} bytes",
        bytes.len()
    );
    let base = bytes.as_ptr() as usize;
    let payloads: Vec<std::ops::Range<usize>> = model_io::container::parse_sections(&bytes)
        .expect("intact envelope")
        .iter()
        .map(|(_, p)| p.as_ptr() as usize - base..p.as_ptr() as usize - base + p.len())
        .collect();
    assert_eq!(payloads.len(), 3, "PCFG + ENSM + NORM");
    assert_eq!(
        load_image(&bytes).expect("intact artifact loads"),
        mixed_saved_model()
    );

    let mut rng = StdRng::seed_from_u64(0xC06A);
    let (mut loaded, mut refused) = (0usize, 0usize);
    for mutation in 0..2400 {
        let range = &payloads[rng.gen_range(0..payloads.len())];
        let offset = rng.gen_range(range.clone());
        let mut forged = bytes.clone();
        forged[offset] ^= rng.gen_range(1..=255u8);
        let tail = forged.len() - 4;
        let crc = model_io::crc32::crc32(&forged[..tail]);
        forged[tail..].copy_from_slice(&crc.to_le_bytes());
        match std::panic::catch_unwind(|| load_image(&forged)) {
            Ok(Ok(_)) => loaded += 1,
            Ok(Err(_)) => refused += 1,
            Err(_) => panic!("mutation {mutation} (byte {offset}) panicked the decoder"),
        }
    }
    // Both outcomes occur: weight bytes decode to other weights, while
    // structure bytes trip the decoder's validation.
    assert!(
        loaded > 0 && refused > 0,
        "loaded {loaded}, refused {refused}"
    );
}

// --- resumable search checkpoints --------------------------------------------

/// A cheap seed-sensitive fitness proxy: any scrambling of the resume
/// state (population, history, RNG position) changes the outcome, so
/// disk-resumed searches matching in-memory ones is a real statement.
struct SeedProxy;

impl evo::Evaluator for SeedProxy {
    fn evaluate(&self, genome: &evo::Genome, seed: u64) -> evo::EvalResult {
        let h = match genome {
            evo::Genome::Forest { config, .. } => config.n_estimators as u64,
            _ => 1,
        };
        let mix = exec::split_seed(seed, h);
        evo::EvalResult {
            accuracy: (mix % 1000) as f64 / 1000.0,
            params: (mix % 100_000) as usize + 1,
        }
    }
}

#[test]
fn mid_search_checkpoints_resume_from_disk_bit_identically() {
    use model_io::SearchCheckpoint;

    let config = evo::EvolutionConfig {
        population: 6,
        generations: 5,
        seed: 41,
        ..evo::EvolutionConfig::default()
    };
    let search = EvolutionarySearch::new(SearchSpace::new(Family::Forest), config);
    let path = temp_path("mid-search.cogm");

    // Uninterrupted reference run, persisting a checkpoint every
    // generation — the deployment loop's shape.
    let mut checkpoints = 0usize;
    let mut persist = |state: &evo::SearchState| {
        SearchCheckpoint::mid_search(config, state.clone())
            .save(&path)
            .expect("checkpoint saves");
        checkpoints += 1;
    };
    let reference = search.run_from(&SeedProxy, search.initial_state(), Some(&mut persist));
    assert_eq!(checkpoints, 4, "one checkpoint per non-final generation");

    // "Crash" after the last checkpoint: reload it from disk and resume.
    let loaded = SearchCheckpoint::load(&path).expect("checkpoint loads");
    assert_eq!(loaded.config, config);
    assert!(loaded.outcome.is_none(), "mid-search checkpoint has no outcome");
    let resume = loaded.resume.expect("mid-search checkpoint resumes");
    assert_eq!(resume.generation, 4);
    let resumed = search.run_from(&SeedProxy, resume, None);
    assert_eq!(resumed, reference, "disk-resumed search diverged");

    // Completed checkpoints round-trip too (the audit shape).
    let done = SearchCheckpoint::completed(config, reference);
    done.save(&path).expect("completed checkpoint saves");
    assert_eq!(SearchCheckpoint::load(&path).expect("loads"), done);
}

#[test]
fn inconsistent_resume_states_are_refused_on_save_and_load() {
    use model_io::SearchCheckpoint;
    let config = evo::EvolutionConfig {
        population: 4,
        generations: 3,
        seed: 8,
        ..evo::EvolutionConfig::default()
    };
    let search = EvolutionarySearch::new(SearchSpace::new(Family::Forest), config);
    let state = search.initial_state();
    let path = temp_path("inconsistent.cogm");

    // Population size disagreeing with the config would panic run_from;
    // the writer must refuse it up front.
    let mut short = state.clone();
    short.population.pop();
    assert!(matches!(
        SearchCheckpoint::mid_search(config, short).save(&path).unwrap_err(),
        ModelIoError::Malformed { .. }
    ));
    let mut overrun = state.clone();
    overrun.generation = 3;
    assert!(matches!(
        SearchCheckpoint::mid_search(config, overrun).save(&path).unwrap_err(),
        ModelIoError::Malformed { .. }
    ));

    // A file hand-crafted around the writer's guard (valid sections, but a
    // config whose population disagrees with the state) must be refused by
    // the reader, not crash the resume path later.
    let mut container = Container::new();
    let mut small = config;
    small.population = 3;
    container.add(model_io::tags::EVO_CONFIG, &small).unwrap();
    container.add(model_io::tags::EVO_RESUME, &state).unwrap();
    container.save(&path).unwrap();
    assert!(matches!(
        SearchCheckpoint::load(&path).unwrap_err(),
        ModelIoError::Malformed { .. }
    ));
}

#[test]
fn empty_search_checkpoints_are_refused() {
    use model_io::SearchCheckpoint;
    let hollow = SearchCheckpoint {
        config: evo::EvolutionConfig::default(),
        outcome: None,
        resume: None,
    };
    assert!(matches!(
        hollow.save(temp_path("hollow.cogm")).unwrap_err(),
        ModelIoError::Malformed { .. }
    ));
}

#[test]
fn zeroed_rng_state_in_a_checkpoint_is_a_typed_error() {
    let config = evo::EvolutionConfig {
        population: 3,
        generations: 2,
        seed: 9,
        ..evo::EvolutionConfig::default()
    };
    let search = EvolutionarySearch::new(SearchSpace::new(Family::Forest), config);
    let mut state = search.initial_state();
    state.rng_state = [0; 4];
    let bytes = to_bytes(&state).expect("writer does not validate");
    assert!(matches!(
        from_bytes::<evo::SearchState>(&bytes).unwrap_err(),
        ModelIoError::Malformed { .. }
    ));
}

// --- CI hook: determinism against an externally saved artifact ---------------

/// When `COGARM_MODEL` points at an artifact saved by another process (the
/// CI round-trip step), run the determinism check against it: the loaded
/// model must produce identical traces at 1 and 4 worker threads.
#[test]
fn env_model_artifact_is_deterministic_across_thread_counts() {
    let Some(path) = std::env::var_os("COGARM_MODEL") else {
        return; // not running under the CI round-trip step
    };
    let saved = SavedModel::load(&path).expect("COGARM_MODEL artifact loads");
    let run = |threads: usize| -> SessionTrace {
        let mut system = system_on_pool(saved.clone(), 33, threads);
        system.set_subject_action(Action::Right);
        system.run_for(2.0).expect("runs")
    };
    let single = run(1);
    assert!(!single.labels.is_empty(), "loaded artifact emitted labels");
    assert_traces_identical(&single, &run(4), "env artifact 1 vs 4 threads");
}
