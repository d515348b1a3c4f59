//! Criterion micro-benchmarks for the three weight-matrix representations
//! at the paper's 512×512 layer shape: dense f32 vs CSR at 70% sparsity vs
//! int8 (the mechanism behind Fig. 12's latency story). Split into its own
//! bench target so CI can run and archive `BENCH_matvec-512.json` without
//! paying for the filter/FFT/forward-pass groups.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ml::infer::{ExecScratch, MatRep, QuantMatrix};
use ml::sparse::CsrMatrix;
use ml::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::uniform(shape, 1.0, &mut rng)
}

/// Sweeps sparse-vs-dense execution across density at the 512×512 layer
/// shape, through the `MatRep` dispatch serving actually runs (the blocked
/// dense kernel and the compiled sparse execution formats, not the
/// storage kernels). `BENCH_matvec-density.json`
/// is the empirical source for `ml::compress::CSR_MAX_DENSITY` — the
/// density up to which the sparse representation beats dense execution.
fn density_crossover(c: &mut Criterion) {
    let w = random_tensor(vec![512, 512], 10);
    let x = random_tensor(vec![16, 512], 11);
    let mut qs = ExecScratch::default();
    let mut out = vec![0.0f32; 16 * 512];

    let mut g = c.benchmark_group("matvec_density");
    let dense = MatRep::Dense(w.clone());
    for m in [1usize, 16] {
        g.bench_function(&format!("dense_m{m:02}"), |b| {
            b.iter(|| {
                dense.left_matmul_into(&x.data()[..m * 512], m, &mut out, &mut qs);
                black_box(out[0])
            })
        });
    }
    for pct in [10u32, 20, 30, 50, 70, 90] {
        let mut pruned = w.clone();
        let mut rng = StdRng::seed_from_u64(u64::from(pct));
        for v in pruned.data_mut() {
            if !rng.gen_bool(f64::from(pct) / 100.0) {
                *v = 0.0;
            }
        }
        let rep = MatRep::Sparse(CsrMatrix::from_dense(&pruned));
        rep.precompile();
        for m in [1usize, 16] {
            g.bench_function(&format!("sparse_d{pct:02}_m{m:02}"), |b| {
                b.iter(|| {
                    rep.left_matmul_into(&x.data()[..m * 512], m, &mut out, &mut qs);
                    black_box(out[0])
                })
            });
        }
    }
    g.finish();
}

fn prune_kernels(c: &mut Criterion) {
    // A 512x512 layer at 70% sparsity: the crossover the paper exploits.
    let w = random_tensor(vec![512, 512], 1);
    let x = random_tensor(vec![1, 512], 2);
    let mut sparse_w = w.clone();
    let mut rng = StdRng::seed_from_u64(3);
    for v in sparse_w.data_mut() {
        if rng.gen_bool(0.7) {
            *v = 0.0;
        }
    }
    let csr = CsrMatrix::from_dense(&sparse_w);
    let quant = QuantMatrix::quantize(&w, 0.01, None);

    let mut g = c.benchmark_group("matvec_512");
    g.bench_function("dense_f32", |b| b.iter(|| black_box(x.matmul(&w))));
    g.bench_function("csr_70pct", |b| b.iter(|| black_box(csr.left_matmul(&x))));
    g.bench_function("int8", |b| b.iter(|| black_box(quant.left_matmul(&x))));
    g.finish();
}

criterion_group!(benches, prune_kernels, density_crossover);
criterion_main!(benches);
