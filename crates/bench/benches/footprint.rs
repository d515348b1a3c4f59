//! Fleet-scale memory scorecard: bytes-per-session and cold-start time
//! when many sessions share one mmap-backed [`WeightImage`].
//!
//! The tentpole claim this bench enforces: per-session memory is
//! **scratch only**. Weights live once in the shared image; admitting a
//! session clones an arena-backed ensemble (refcount bumps), so the
//! **weight** bytes allocated by 128 admissions must stay under **2× the
//! weight bytes one eager session allocates** for its private copy.
//! Session scratch (board ring buffer, filters, inference scratch) is
//! identical in both worlds and reported separately — it is per-session
//! memory by design, and the point is that it no longer scales with
//! model size.
//!
//! This is a standalone `harness = false` bench with its own **counting
//! global allocator** (total bytes requested — the honest "what did
//! admission allocate" number; freed scratch still had to be allocated).
//! Its byte counts and timings go to `BENCH_footprint.json` through
//! `criterion::write_values`, the shim's writer for results that are not
//! criterion timings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cognitive_arm::pipeline::PipelineConfig;
use ml::ensemble::{Ensemble, Member, Voting};
use ml::infer::{compile_cnn, compile_lstm, compile_transformer};
use ml::models::{CnnConfig, LstmConfig, TransformerConfig};
use model_io::{tags, SavedModel, WeightImage};
use serve::{SessionManager, SessionSpec};

/// Counts every byte the process requests from the allocator.
struct CountingAllocator;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

fn bump(bytes: usize) {
    ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
}

fn allocated() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

// SAFETY: delegates to `System`; the counter is a lock-free atomic and
// never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn record(
    metrics: &mut Vec<(String, f64, &'static str)>,
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
) {
    let name = name.into();
    println!("footprint/{name:<28} {value:>14.0} {unit}");
    metrics.push((name, value, unit));
}

fn main() {
    let mut metrics = Vec::new();

    // One paper-scale artifact, saved in both formats. The weights are
    // randomly initialized (`paper_best` configs, no training) — a memory
    // bench cares about realistic weight *sizes*, and training a
    // paper-scale ensemble here would dominate the runtime without
    // changing a single byte count.
    let ensemble = Ensemble::new(
        vec![
            Member::Net(compile_cnn(
                &CnnConfig::paper_best().build(21).expect("cnn builds"),
            )),
            Member::Net(compile_lstm(
                &LstmConfig::paper_best().build(22).expect("lstm builds"),
            )),
            Member::Net(compile_transformer(
                &TransformerConfig::paper_best().build(23).expect("transformer builds"),
            )),
        ],
        Voting::Soft,
    );
    let saved = SavedModel {
        pipeline: PipelineConfig::default(),
        ensemble,
        normalization: None,
    };
    let dir = std::env::temp_dir().join(format!("bench-footprint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let v2_path = dir.join("model.cogm");
    let v1_path = dir.join("model-v1.cogm");
    saved.save(&v2_path).expect("v2 artifact saves");
    saved
        .to_container()
        .expect("container builds")
        .save_v1(&v1_path)
        .expect("v1 artifact saves");

    // The denominator of every ratio below: the weight payload (the ENSM
    // section) of the artifact on disk.
    let weight_bytes = WeightImage::open(&v2_path)
        .expect("artifact opens")
        .section(tags::ENSEMBLE)
        .expect("ensemble section present")
        .len() as f64;
    record(&mut metrics, "weight_image_bytes", weight_bytes, "bytes");

    // Cold start: mmap + validate + decode, from a v2 file and through
    // the in-memory v1 upgrade.
    let time_ns = |f: &mut dyn FnMut()| {
        let reps = 20u32;
        f(); // warm the page cache / branch predictors once
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_nanos() as f64 / f64::from(reps)
    };
    let mmap_ns = time_ns(&mut || {
        let image = WeightImage::open(&v2_path).expect("image opens");
        std::hint::black_box(image.decode().expect("image decodes"));
    });
    record(&mut metrics, "cold_start_mmap_ns", mmap_ns, "ns");
    let upgrade_ns = time_ns(&mut || {
        let image = WeightImage::open(&v1_path).expect("v1 image opens");
        std::hint::black_box(image.decode().expect("v1 image decodes"));
    });
    record(&mut metrics, "cold_start_v1_upgrade_ns", upgrade_ns, "ns");

    // Bytes per session, split into the two things admission allocates:
    //
    //   * the **weight handoff** — acquiring a model for the session
    //     (shared path: clone the interned arena-backed model, a refcount
    //     bump; eager path: decode a private owned image per session);
    //   * **session scratch** — the per-subject board ring buffer, filter
    //     state, sliding window and inference scratch, which is the same
    //     in both worlds and deliberately NOT weights.
    //
    // The tentpole contract is about the first number: the weight bytes
    // allocated by 128 shared-image sessions must stay under 2× what ONE
    // eager session allocates for its weights. Scratch is reported
    // separately (and honestly — it dominates per-session memory, as
    // "per-session memory is scratch-only" demands).
    let file_bytes = std::fs::read(&v2_path).expect("artifact reads");
    let mut eager_weights_1 = 0.0f64;
    for n in [1usize, 16, 128] {
        // Shared path: one interned image; the handoff is
        // `artifact_model(id).clone()` per session — exactly what
        // `add_session_from_artifact` does internally, split out here so
        // the allocator delta isolates the weight side.
        let mut mgr = SessionManager::with_shared_pool();
        let artifact = mgr.open_artifact(&v2_path).expect("artifact interns");
        let t0 = Instant::now();
        let before = allocated();
        let specs: Vec<SessionSpec> = {
            let model = mgr.artifact_model(artifact).expect("interned model");
            (0..n as u64)
                .map(|seed| SessionSpec::from_saved(model.clone(), seed))
                .collect()
        };
        let shared_weights = (allocated() - before) as f64;
        let before = allocated();
        for spec in specs {
            mgr.add_session(spec).expect("session admits");
        }
        let shared_scratch = (allocated() - before) as f64;
        let admit_ns = t0.elapsed().as_nanos() as f64;
        record(
            &mut metrics,
            format!("shared_weight_bytes_{n}"),
            shared_weights,
            "bytes",
        );
        record(
            &mut metrics,
            format!("shared_scratch_bytes_{n}"),
            shared_scratch,
            "bytes",
        );
        record(&mut metrics, format!("admit_{n}_ns"), admit_ns, "ns");
        drop(mgr);

        // Eager path (the old world): every session copies the artifact
        // into its own image and decodes its own model.
        let mut mgr = SessionManager::with_shared_pool();
        let before = allocated();
        let models: Vec<SavedModel> = (0..n)
            .map(|_| {
                WeightImage::from_bytes(&file_bytes)
                    .and_then(|image| image.decode())
                    .expect("loads")
            })
            .collect();
        let eager_weights = (allocated() - before) as f64;
        let before = allocated();
        for (seed, model) in models.into_iter().enumerate() {
            mgr.add_session(SessionSpec::from_saved(model, seed as u64))
                .expect("session admits");
        }
        let eager_scratch = (allocated() - before) as f64;
        record(
            &mut metrics,
            format!("eager_weight_bytes_{n}"),
            eager_weights,
            "bytes",
        );
        record(
            &mut metrics,
            format!("eager_scratch_bytes_{n}"),
            eager_scratch,
            "bytes",
        );

        if n == 1 {
            eager_weights_1 = eager_weights;
        }
        if n == 128 {
            let ratio = shared_weights / eager_weights_1;
            record(&mut metrics, "shared_128_vs_eager_1_weights", ratio, "x");
            // The tentpole acceptance bar: 128 sessions of one artifact
            // allocate < 2× the weight bytes of 1 (eager) session — i.e.
            // weights are demonstrably shared, not copied per session.
            assert!(
                ratio < 2.0,
                "128 shared-image sessions allocated {shared_weights} weight bytes \
                 ({ratio:.2}x one eager session's {eager_weights_1}); \
                 the shared-weight contract is broken"
            );
        }
    }

    criterion::write_values("footprint", &metrics);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "footprint acceptance: 128 shared sessions allocated fewer weight bytes \
         than 2x one eager session"
    );
}
