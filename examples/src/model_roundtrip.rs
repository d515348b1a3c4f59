//! Model persistence round-trip CLI.
//!
//! `save` trains the quick CNN + Transformer ensemble, assembles the
//! closed-loop system and writes a versioned `.cogm` artifact. `verify`
//! (run it in a *fresh process*) maps the artifact through the one
//! reader, `WeightImage` (a v1 file takes the in-memory upgrade), prints
//! what it mapped, retrains the same seeds in memory, and asserts the
//! loaded system's label trace is bit-identical to the retrained one —
//! the end-to-end proof that cold starts can skip training entirely.
//!
//! `save-compressed` and `verify-compressed` do the same for an ensemble
//! carrying *both* compressed weight representations (first net member
//! pruned to CSR, second quantized to int8) — the proof that the
//! compressed execution kernels behave identically whether their storage
//! lives on a private heap or a shared mapping. `roundtrip` saves and
//! reloads in one process.
//!
//! ```text
//! cargo run --release --bin model_roundtrip -- save /tmp/model.cogm 21
//! cargo run --release --bin model_roundtrip -- verify /tmp/model.cogm 21
//! cargo run --release --bin model_roundtrip -- save-compressed /tmp/model-c.cogm 21
//! cargo run --release --bin model_roundtrip -- verify-compressed /tmp/model-c.cogm 21
//! ```

use std::process::ExitCode;
use std::time::Instant;

use cognitive_arm::eval::{train_default_ensemble, DatasetBuilder, TrainBudget};
use cognitive_arm::pipeline::{CognitiveArm, PipelineConfig, SessionTrace};
use eeg::dataset::Protocol;
use eeg::types::Action;
use ml::compress::{prune_global, quantize, QuantMode};
use model_io::{SavedModel, WeightImage};

fn usage() -> ExitCode {
    eprintln!(
        "usage: model_roundtrip \
         <save|save-compressed|verify|verify-compressed|roundtrip> <path.cogm> [seed]"
    );
    ExitCode::from(2)
}

/// Builds the fully trained closed-loop system for `seed` (the expensive
/// path an artifact lets later processes skip). With `compress`, the
/// ensemble leaves carrying both compressed representations: the first
/// net member pruned to CSR storage, the second quantized to int8.
fn train_system(seed: u64, compress: bool) -> CognitiveArm {
    let data = DatasetBuilder::new(Protocol::quick(), 1, seed)
        .build()
        .expect("quick dataset builds");
    let mut ensemble =
        train_default_ensemble(&data, &TrainBudget::quick(), seed).expect("quick ensemble trains");
    if compress {
        let mut member = 0usize;
        ensemble.visit_net_models_mut(|m| {
            if member == 0 {
                prune_global(m, 0.7);
            } else {
                quantize(m, QuantMode::Calibrated).expect("dense model quantizes");
            }
            member += 1;
        });
    }
    let mut system = CognitiveArm::new(PipelineConfig::default(), ensemble, seed);
    system.set_normalization(data.zscores[0].clone());
    system
}

fn trace_of(mut system: CognitiveArm) -> SessionTrace {
    system.set_subject_action(Action::Right);
    system.run_for(2.0).expect("simulated run succeeds")
}

fn traces_identical(a: &SessionTrace, b: &SessionTrace) -> bool {
    a.labels.len() == b.labels.len()
        && a.labels
            .iter()
            .zip(&b.labels)
            .all(|(x, y)| x.t.to_bits() == y.t.to_bits() && x.label == y.label)
}

fn save(path: &str, seed: u64, compress: bool) -> ExitCode {
    let t0 = Instant::now();
    let system = train_system(seed, compress);
    let train_s = t0.elapsed().as_secs_f64();
    SavedModel::from(&system)
        .save(path)
        .expect("artifact saves");
    let bytes = std::fs::metadata(path).expect("artifact exists").len();
    let members = if compress {
        " (pruned CSR + int8 members)"
    } else {
        ""
    };
    println!(
        "saved {path}{members}: {bytes} bytes, ensemble {} ({} params), trained in {train_s:.1} s",
        system.ensemble().name(),
        system.ensemble().param_count()
    );
    ExitCode::SUCCESS
}

fn verify(path: &str, seed: u64, compress: bool) -> ExitCode {
    let t0 = Instant::now();
    let image = WeightImage::open(path).expect("weight image opens");
    let model = image.decode().expect("weight image decodes");
    let load_s = t0.elapsed().as_secs_f64();
    println!(
        "mapped {path} in {load_s:.3} s: format v{} on disk, mapped={}, ensemble {} ({} params)",
        image.source_version(),
        image.is_mapped(),
        model.ensemble.name(),
        model.ensemble.param_count()
    );
    let loaded_trace = trace_of(model.into_system(seed).expect("artifact assembles"));
    let retrained_trace = trace_of(train_system(seed, compress));
    if traces_identical(&loaded_trace, &retrained_trace) {
        println!(
            "OK: {} labels bit-identical between loaded and retrained systems",
            loaded_trace.labels.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: loaded trace diverges from retrained trace");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (Some(mode), Some(path)) = (args.get(1), args.get(2)) else {
        return usage();
    };
    let seed: u64 = args
        .get(3)
        .map_or(Ok(21), |s| s.parse())
        .expect("seed must be an integer");

    match mode.as_str() {
        "save" => save(path, seed, false),
        "save-compressed" => save(path, seed, true),
        "verify" => verify(path, seed, false),
        "verify-compressed" => verify(path, seed, true),
        "roundtrip" => {
            let system = train_system(seed, false);
            SavedModel::from(&system)
                .save(path)
                .expect("artifact saves");
            let saved = SavedModel::load(path).expect("artifact loads");
            assert_eq!(saved.ensemble, *system.ensemble(), "ensemble drifted");
            let a = trace_of(system);
            let b = trace_of(saved.into_system(seed).expect("artifact assembles"));
            assert!(traces_identical(&a, &b), "traces diverged");
            println!(
                "OK: in-process round trip, {} labels identical",
                a.labels.len()
            );
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
