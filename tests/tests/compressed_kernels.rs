//! The compressed-kernel bit-identity contract.
//!
//! PR 9 replaces the execution kernels behind pruned (CSR) and quantized
//! (int8) models — CSC/densified sparse execution formats and SIMD int8
//! GEMMs selected at plan-compile time. The swap must be **bit-invisible**:
//! a compressed model's label trace may not move by a single bit when the
//! kernels underneath it change, at any thread count. This suite locks
//! that three ways:
//!
//! 1. golden label traces for pruned and quantized ensembles, committed as
//!    fixtures *before* the kernel swap (regenerate deliberately with
//!    `COGARM_REGEN_FIXTURES=1 cargo test -q --test compressed_kernels`);
//! 2. thread-count invariance in-test: a 4-thread pool must reproduce the
//!    1-thread bits exactly (CI additionally runs the whole file at
//!    `COGARM_THREADS=1` and `=4`);
//! 3. seeded property sweeps pinning every new kernel to its scalar
//!    reference: the sparse execution format against the storage-CSR
//!    kernel at batches {1, 3, 16}, and the SIMD int8 path against the
//!    straight-line integer reference across remainder-lane shapes.

use std::path::PathBuf;

use eeg::CHANNELS;
use exec::ExecPool;
use integration_tests::quick_trained;
use ml::compress::{prune_global, quantize, QuantMode};
use ml::ensemble::{Ensemble, EnsembleScratch};
use ml::infer::{ExecScratch, QuantMatrix};
use ml::matexec::SparseExec;
use ml::models::CLASSES;
use ml::plan::PlanVersion;
use ml::sparse::CsrMatrix;
use ml::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// A compression transform applied to a trained ensemble in place.
type Compressor = fn(&mut Ensemble);

/// The compression variants under contract, keyed by fixture tag.
fn variants() -> Vec<(&'static str, Compressor)> {
    vec![
        ("pruned70", |e: &mut Ensemble| {
            e.visit_net_models_mut(|m| prune_global(m, 0.7));
        }),
        ("int8cal", |e: &mut Ensemble| {
            e.visit_net_models_mut(|m| {
                quantize(m, QuantMode::Calibrated).expect("dense model quantizes");
            });
        }),
        ("int8global", |e: &mut Ensemble| {
            e.visit_net_models_mut(|m| {
                quantize(m, QuantMode::GlobalFaithful).expect("dense model quantizes");
            });
        }),
    ]
}

/// Classifies 24 real (synthetic-EEG) windows through `ensemble` on a
/// pool of `threads` and renders the trace: one line per window, the
/// argmax label followed by every combined probability as raw f32 bits.
fn render_trace(ensemble: &Ensemble, threads: usize) -> String {
    let artifacts = quick_trained(21, 21);
    let win = ensemble.window();
    let labeled = artifacts.data.windows(win, 25).expect("windows cut");
    let take = 24.min(labeled.len());
    let mut flat = Vec::with_capacity(take * CHANNELS * win);
    for w in labeled.iter().take(take) {
        flat.extend_from_slice(&w.data);
    }

    let pool = ExecPool::new(threads);
    let mut scratch = EnsembleScratch::new(ensemble);
    let mut probas = vec![0.0f32; take * CLASSES];
    ensemble.predict_batch_into(&flat, take, CHANNELS, &pool, &mut scratch, &mut probas);

    let mut out = format!(
        "# golden compressed label trace, plan {}: <label> <proba f32 bits, hex, per class>\n",
        version_tag()
    );
    for b in 0..take {
        let row = &probas[b * CLASSES..(b + 1) * CLASSES];
        out.push_str(&ml::ensemble::argmax(row).to_string());
        for p in row {
            out.push_str(&format!(" {:08x}", p.to_bits()));
        }
        out.push('\n');
    }
    out
}

/// The fixture tag of the engine's numerics version. A new version makes
/// this match non-exhaustive, which is the prompt to commit its traces.
fn version_tag() -> &'static str {
    match PlanVersion::runtime_default() {
        PlanVersion::V2 => "v2",
    }
}

/// Seeded random `[rows, cols]` tensor with roughly `density` of its
/// entries kept non-zero (plus a sprinkling of exact zeros in the
/// activations' case, handled by the caller).
fn random_sparse_tensor(rows: usize, cols: usize, density: f64, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tensor::uniform(vec![rows, cols], 1.0, &mut rng);
    for v in t.data_mut() {
        if !rng.gen_bool(density) {
            *v = 0.0;
        }
    }
    t
}

#[test]
fn sparse_execution_format_matches_storage_kernel_at_all_batches() {
    // Public-API property sweep: whatever form `SparseExec::compile`
    // selects (CSC, hybrid, densified) must reproduce the storage CSR
    // kernel bit-for-bit at every batch width the serving paths use —
    // m == 1 chains, the scalar batch tail, and the 8-wide SIMD panels.
    for (density, seed) in [(0.1, 40), (0.35, 41), (0.8, 42)] {
        for (k, n) in [(64, 3), (57, 24), (48, 8)] {
            let w = random_sparse_tensor(k, n, density, seed);
            let csr = CsrMatrix::from_dense(&w);
            let exec = SparseExec::compile(&csr);
            for m in [1usize, 3, 16] {
                let mut rng = StdRng::seed_from_u64(seed + m as u64);
                let mut x: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
                // Exact zeros the storage kernel skips and the exec
                // formats must still agree about.
                for v in x.iter_mut().step_by(7) {
                    *v = 0.0;
                }
                let mut want = vec![0.0f32; m * n];
                csr.left_matmul_into(&x, m, &mut want);
                let mut got = vec![1.0f32; m * n];
                let (mut xt, mut yt) = (Vec::new(), Vec::new());
                exec.left_matmul_into(&x, m, &mut got, &mut xt, &mut yt);
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(want, got, "density {density} shape {k}x{n} m {m}");
            }
        }
    }
}

#[test]
fn int8_simd_path_matches_straight_line_reference() {
    // Public-API property sweep: the batch-stacked SIMD int8 GEMM — SIMD
    // activation quantization, `vpmaddwd` dots or 16-column panels,
    // fused dequant — against a straight-line scalar reference written
    // out here independently. Shapes hit every remainder lane: odd k
    // (zero-padded pair), n % 16 column tails, m % 4 row tails.
    for (m, k, n, seed) in [
        (1usize, 57usize, 3usize, 50u64),
        (5, 30, 35, 51),
        (3, 19, 48, 52),
        (7, 16, 16, 53),
    ] {
        for act_scale in [None, Some(1.0f32)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let dense = Tensor::uniform(vec![k, n], 0.8, &mut rng);
            let scale = 0.8 / 127.0;
            let q = QuantMatrix::quantize(&dense, scale, act_scale);
            let x: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-3.0f32..3.0)).collect();

            let mut got = vec![0.0f32; m * n];
            q.left_matmul_into(&x, m, &mut got, &mut ExecScratch::default());

            // Straight-line reference: per row, scalar round-half-away
            // quantization, plain i32 dot per output, dequant on store.
            let mut want = vec![0.0f32; m * n];
            for i in 0..m {
                let xrow = &x[i * k..(i + 1) * k];
                let ax = act_scale.unwrap_or_else(|| {
                    let max = xrow.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
                    if max == 0.0 {
                        1.0
                    } else {
                        max / 127.0
                    }
                });
                let xq: Vec<i8> = xrow
                    .iter()
                    .map(|&v| (v / ax).round().clamp(-127.0, 127.0) as i8)
                    .collect();
                for c in 0..n {
                    let mut acc = 0i32;
                    for (p, &xv) in xq.iter().enumerate() {
                        acc += i32::from(xv) * i32::from(q.data[p * n + c]);
                    }
                    want[i * n + c] = acc as f32 * (ax * scale);
                }
            }
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(want, got, "shape m{m} k{k} n{n} act_scale {act_scale:?}");
        }
    }
}

#[test]
fn golden_compressed_traces_survive_the_kernel_swap() {
    let artifacts = quick_trained(21, 21);
    let regen = std::env::var_os("COGARM_REGEN_FIXTURES").is_some();
    for (tag, compress) in variants() {
        let mut ensemble = artifacts.ensemble.clone();
        compress(&mut ensemble);
        let rendered = render_trace(&ensemble, 1);
        // Thread-count invariance, in-test: the compressed kernels run
        // inside per-lane scratch, so the pool size can never reach the
        // numerics.
        let on_four = render_trace(&ensemble, 4);
        assert_eq!(
            rendered, on_four,
            "{tag}: thread count changed compressed bits"
        );

        let name = format!("trace_{tag}_{}.txt", version_tag());
        let path = fixture_path(&name);
        if regen {
            std::fs::create_dir_all(path.parent().expect("fixtures dir")).expect("mkdir");
            std::fs::write(&path, &rendered).expect("write fixture");
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing fixture {name} ({e}); run with COGARM_REGEN_FIXTURES=1")
        });
        assert_eq!(
            committed, rendered,
            "{name}: the compressed path no longer reproduces its committed golden \
             trace — the kernel swap moved bits; execution-format kernels must be \
             bit-identical to the storage kernels they replace"
        );
    }
}
