//! Cross-crate integration tests for the CognitiveArm workspace.
//!
//! The actual tests live in `tests/` (Cargo integration-test targets); this
//! library hosts shared fixtures. Trained artifacts are cached at two
//! levels: a once-per-process `OnceLock` map (so concurrent tests share one
//! training run), backed by **disk fixtures** — `.cogm` files under
//! `target/cogm-test-cache/` written through `model_io`, so warm test runs
//! load the quick ensemble in milliseconds instead of retraining it every
//! process. Cache entries are keyed by seed *and* a fingerprint of the
//! test executable, so any rebuild (i.e. any code change) invalidates
//! them automatically; `cargo clean` wipes the directory, and
//! `COGARM_NO_FIXTURE_CACHE=1` bypasses it entirely.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use cognitive_arm::eval::{train_default_ensemble, DatasetBuilder, PreparedData, TrainBudget};
use cognitive_arm::pipeline::{CognitiveArm, PipelineConfig};
use eeg::dataset::Protocol;
use eeg::CHANNELS;
use exec::ExecPool;
use ml::ensemble::Ensemble;
use ml::forest::{window_stat_features, ForestConfig, RandomForest};

/// A lazily initialized once-per-process artifact cache keyed by seed.
/// Each key gets its own `OnceLock` cell, so the map lock is only held for
/// the cheap entry lookup: misses for the *same* key wait on one training
/// run, while distinct keys train concurrently.
type SeedCache<K, V> = OnceLock<Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>>;

fn get_or_build<K, V>(cache: &SeedCache<K, V>, key: K, build: impl FnOnce() -> V) -> Arc<V>
where
    K: Eq + std::hash::Hash,
{
    let cell = {
        let mut map = cache
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("artifact cache lock");
        Arc::clone(map.entry(key).or_default())
    };
    Arc::clone(cell.get_or_init(|| Arc::new(build())))
}

/// A small two-subject prepared dataset shared by the integration tests,
/// cached once per process per seed.
///
/// # Panics
///
/// Panics if generation fails (it cannot for the quick protocol).
#[must_use]
pub fn quick_data(seed: u64) -> PreparedData {
    static CACHE: SeedCache<u64, PreparedData> = OnceLock::new();
    let data = get_or_build(&CACHE, seed, || {
        DatasetBuilder::new(Protocol::quick(), 2, seed)
            .build()
            .expect("quick dataset builds")
    });
    PreparedData::clone(&data)
}

/// A one-subject quick dataset plus the default ensemble trained on it.
#[derive(Debug, Clone)]
pub struct QuickArtifacts {
    /// The prepared single-subject dataset.
    pub data: PreparedData,
    /// The trained CNN + Transformer soft-voting ensemble.
    pub ensemble: Ensemble,
}

/// Section tag for cached test ensembles.
const CACHE_TAG: [u8; 4] = *b"ENSM";

/// A fingerprint of the running test binary (size + mtime). Baking it
/// into the cache key makes a cached artifact die with the build that
/// wrote it: recompiling any crate the tests link (ml, core, …) produces
/// a new executable and therefore a fresh cache entry, so a stale
/// ensemble can never outlive a training-code change.
fn exe_fingerprint() -> Option<(String, String)> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?;
    // The sanitized binary name keys entries per test target, so pruning
    // one binary's stale builds never evicts another binary's entries;
    // no '-' inside either component, because the pruner splits the
    // filename on its last dash to recover the stable prefix.
    let stem: String = exe
        .file_stem()?
        .to_str()?
        .chars()
        .filter(char::is_ascii_alphanumeric)
        .collect();
    Some((stem, format!("{:x}x{:x}", meta.len(), mtime.as_secs())))
}

/// Where disk-backed test fixtures live: under `target/`, so they are
/// wiped by `cargo clean` and never survive a fresh CI checkout. The key
/// includes `COGARM_THREADS` so CI's 1- and 4-thread passes each *train*
/// at their own pool size (the dual-thread matrix exists to prove training
/// is thread-count-invariant; sharing one artifact would mask a
/// regression there), and the kernel dispatch ([`ml::simd::enabled`]) so
/// a `COGARM_NO_SIMD=1` pass trains through the scalar twins instead of
/// loading an ensemble the SIMD bodies trained.
fn fixture_cache_path(data_seed: u64, train_seed: u64) -> Option<PathBuf> {
    if std::env::var_os("COGARM_NO_FIXTURE_CACHE").is_some() {
        return None;
    }
    let (stem, fingerprint) = exe_fingerprint()?;
    let threads: String = std::env::var("COGARM_THREADS")
        .unwrap_or_else(|_| "auto".into())
        .chars()
        .filter(char::is_ascii_alphanumeric)
        .collect();
    // No '-' inside the component: the pruner splits on the last dash.
    let dispatch = if ml::simd::enabled() {
        "simd"
    } else {
        "scalar"
    };
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("target")
        .join("cogm-test-cache");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir.join(format!(
        "quick-{data_seed}-{train_seed}-t{threads}-{dispatch}-{stem}-{fingerprint}.cogm"
    )))
}

/// Removes cache entries for the same seeds written by *other* builds, so
/// the directory stays bounded instead of accumulating one orphan per
/// rebuild.
fn prune_stale_cache_entries(current: &std::path::Path) {
    let (Some(dir), Some(name)) = (current.parent(), current.file_name()) else {
        return;
    };
    // Keep the trailing dash so "…-t1-" never matches "…-t10-…".
    let Some(prefix) = name.to_str().and_then(|n| n.rfind('-').map(|i| &n[..=i])) else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let stale = entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.starts_with(prefix) && n != name);
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Trains (once per process per `(data_seed, train_seed)` pair) the default
/// ensemble at `Protocol::quick()` on a one-subject dataset. Concurrent
/// tests wanting the same artifact wait for one training run instead of
/// racing a second one; different pairs train in parallel.
///
/// The trained ensemble is persisted as a `.cogm` fixture on first build
/// and loaded from disk afterwards (training is deterministic, so the
/// loaded artifact is bit-identical to a retrained one — the persistence
/// suite enforces exactly that). A missing, stale-format or corrupt
/// fixture silently falls back to retraining and rewrites the file.
///
/// # Panics
///
/// Panics if dataset generation or training fails.
#[must_use]
pub fn quick_trained(data_seed: u64, train_seed: u64) -> Arc<QuickArtifacts> {
    static CACHE: SeedCache<(u64, u64), QuickArtifacts> = OnceLock::new();
    get_or_build(&CACHE, (data_seed, train_seed), || {
        let data = DatasetBuilder::new(Protocol::quick(), 1, data_seed)
            .build()
            .expect("quick dataset builds");
        let cache_path = fixture_cache_path(data_seed, train_seed);
        let ensemble = cache_path
            .as_ref()
            .and_then(|p| model_io::load_section::<Ensemble, _>(p, CACHE_TAG).ok())
            .unwrap_or_else(|| {
                let trained = train_default_ensemble(&data, &TrainBudget::quick(), train_seed)
                    .expect("quick ensemble trains");
                if let Some(p) = &cache_path {
                    // Best-effort: a failed write just means retraining
                    // next process.
                    let _ = model_io::save_section(p, CACHE_TAG, &trained);
                    prune_stale_cache_entries(p);
                }
                trained
            });
        QuickArtifacts { data, ensemble }
    })
}

/// An assembled closed-loop system over [`quick_trained`] artifacts
/// (`train_seed = data_seed`, the common fixture shape), with the subject's
/// frozen normalization installed.
#[must_use]
pub fn quick_system(seed: u64) -> CognitiveArm {
    let artifacts = quick_trained(seed, seed);
    let mut system = CognitiveArm::new(PipelineConfig::default(), artifacts.ensemble.clone(), seed);
    system.set_normalization(artifacts.data.zscores[0].clone());
    system
}

/// Window length of the paper's best forest (Sec. V).
pub const FOREST_WINDOW: usize = 90;

/// The serving benchmark's forest recipe: the Table III features of every
/// [`FOREST_WINDOW`]-sample window of `data` (stride 10), fitted with
/// `config` on `pool`.
///
/// # Panics
///
/// Panics if windowing or fitting fails.
#[must_use]
pub fn window_forest(data: &PreparedData, config: ForestConfig, pool: &ExecPool) -> RandomForest {
    let windows = data.windows(FOREST_WINDOW, 10).expect("windows");
    let features: Vec<Vec<f32>> = windows
        .iter()
        .map(|w| window_stat_features(&w.data, CHANNELS))
        .collect();
    let labels: Vec<usize> = windows.iter().map(|w| w.label.label()).collect();
    RandomForest::fit_with(config, &features, &labels, pool).expect("forest fits")
}
