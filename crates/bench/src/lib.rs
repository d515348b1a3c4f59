//! Shared scaffolding for the benchmark harness binaries.
//!
//! Every table/figure of the paper has one binary in `src/bin/` named
//! after it (`fig4`…`fig12`, `table2`), beside `ablation`, `realworld`
//! and `summary`; README "Reproducing figures" shows how to run them.
//! They all honour the `COGARM_SCALE` environment variable:
//!
//! * `quick` — seconds per harness; orderings hold, absolute numbers rough.
//! * `default` — a few minutes per harness (what CI would run).
//! * `full` — the closest to the paper's training regime; slow.

use cognitive_arm::eval::{DatasetBuilder, PreparedData, TrainBudget};
use eeg::dataset::Protocol;
use evo::EvolutionConfig;

/// Benchmark effort level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per harness.
    Quick,
    /// Minutes per harness.
    Default,
    /// Paper-faithful training budgets.
    Full,
}

impl Scale {
    /// Reads `COGARM_SCALE` (quick|default|full), defaulting to `Default`.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("COGARM_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("full") => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// Study size and protocol for this scale.
    #[must_use]
    pub fn protocol(self) -> (Protocol, usize) {
        match self {
            Scale::Quick => (Protocol::quick(), 2),
            Scale::Default => (
                Protocol {
                    task_secs: 8.0,
                    rest_secs: 8.0,
                    session_secs: 120.0,
                    sessions: 1,
                    transition_secs: 0.6,
                },
                3,
            ),
            Scale::Full => (Protocol::paper_default(), 5),
        }
    }

    /// Training budget for this scale.
    #[must_use]
    pub fn budget(self) -> TrainBudget {
        match self {
            Scale::Quick => TrainBudget::quick(),
            Scale::Default => TrainBudget::bench(),
            Scale::Full => TrainBudget::full(),
        }
    }

    /// Per-candidate FLOP allowance for the evolutionary search.
    #[must_use]
    pub fn flop_budget(self) -> f64 {
        match self {
            Scale::Quick => 3e9,
            Scale::Default => 2e10,
            Scale::Full => 3e11,
        }
    }

    /// Evolutionary-search shape for this scale.
    #[must_use]
    pub fn evo_config(self, seed: u64) -> EvolutionConfig {
        let (population, generations) = match self {
            Scale::Quick => (6, 3),
            Scale::Default => (8, 4),
            Scale::Full => (14, 8),
        };
        EvolutionConfig {
            population,
            generations,
            accuracy_threshold: 0.85,
            seed,
            ..EvolutionConfig::default()
        }
    }
}

/// Builds (and prints the provenance of) the prepared dataset for a scale.
///
/// # Panics
///
/// Panics if dataset generation fails (it cannot for the built-in scales).
#[must_use]
pub fn prepared_data(scale: Scale, seed: u64) -> PreparedData {
    let (protocol, subjects) = scale.protocol();
    println!(
        "# dataset: {subjects} subjects × {} session(s) × {}s, seed {seed}",
        protocol.sessions, protocol.session_secs
    );
    DatasetBuilder::new(protocol, subjects, seed)
        .build()
        .expect("dataset generation is infallible for built-in scales")
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a table header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// Mean wall-clock seconds of `f` over `iters` runs (after one warm-up).
pub fn time_mean_s(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

use cognitive_arm::eval::{fair_budget, train_genome, TrainedArtifact};
use eeg::dataset::train_val_split;
use eeg::types::LabeledWindow;
use eeg::CHANNELS;
use evo::Genome;
use ml::forest::ForestConfig;
use ml::models::{CnnConfig, LstmConfig, TransformerConfig};
use ml::optim::OptimizerKind;

/// A named trained artifact with its validation accuracy.
pub struct Trained {
    /// Human-readable configuration summary.
    pub name: String,
    /// The compiled model or fitted forest.
    pub artifact: TrainedArtifact,
    /// Validation accuracy at training time.
    pub val_acc: f64,
}

/// The four family representatives used by Figs. 11/12 and the summary.
/// At `Full` scale these are exactly the paper's winning configs (Sec. V);
/// smaller scales shrink the recurrent/attention models so the harness
/// stays minutes-fast while preserving orderings.
#[must_use]
pub fn family_genomes(scale: Scale) -> Vec<Genome> {
    let cnn = Genome::Cnn {
        config: CnnConfig::paper_best(),
        optimizer: OptimizerKind::Adam { lr: 3e-3 },
    };
    let lstm_cfg = match scale {
        Scale::Quick => LstmConfig {
            hidden: 64,
            window: 100,
            ..LstmConfig::paper_best()
        },
        Scale::Default => LstmConfig {
            hidden: 256,
            ..LstmConfig::paper_best()
        },
        Scale::Full => LstmConfig::paper_best(),
    };
    let tf_cfg = match scale {
        Scale::Quick => TransformerConfig {
            layers: 1,
            d_model: 32,
            dim_ff: 64,
            window: 100,
            ..TransformerConfig::paper_best()
        },
        Scale::Default => TransformerConfig {
            d_model: 64,
            dim_ff: 128,
            window: 130,
            ..TransformerConfig::paper_best()
        },
        Scale::Full => TransformerConfig::paper_best(),
    };
    vec![
        cnn,
        Genome::Lstm {
            config: lstm_cfg,
            optimizer: OptimizerKind::Adam { lr: 3e-3 },
        },
        Genome::Transformer {
            config: tf_cfg,
            optimizer: OptimizerKind::AdamW {
                lr: 1e-3,
                weight_decay: 1e-5,
            },
        },
        Genome::Forest {
            config: ForestConfig::paper_best(),
            window: 90,
        },
    ]
}

/// Trains one genome on `data` under the scale's fair FLOP budget.
///
/// # Panics
///
/// Panics if training fails (it cannot for the built-in genomes).
#[must_use]
pub fn train_one(data: &PreparedData, genome: &Genome, scale: Scale, seed: u64) -> Trained {
    let base = scale.budget();
    let budget = fair_budget(genome, &base, scale.flop_budget());
    let all = data
        .windows(genome.window(), base.step)
        .expect("windowing built-in genomes succeeds");
    let (train, val) = train_val_split(all, 0.2, seed ^ 0xBE);
    let (artifact, val_acc) =
        train_genome(genome, &train, &val, &budget, seed).expect("built-in genomes train");
    Trained {
        name: genome.describe(),
        artifact,
        val_acc,
    }
}

/// A common evaluation set: windows at the longest family window (190) so
/// every member can consume its own tail.
///
/// # Panics
///
/// Panics if windowing fails (it cannot for the built-in scales).
#[must_use]
pub fn common_eval_set(data: &PreparedData, cap: usize) -> Vec<LabeledWindow> {
    let mut wins = data.windows(190, 25).expect("eval windowing succeeds");
    wins.truncate(cap);
    wins
}

/// Accuracy of an arbitrary window classifier on the common eval set.
pub fn eval_accuracy(
    windows: &[LabeledWindow],
    mut classify: impl FnMut(&[f32]) -> usize,
) -> f64 {
    if windows.is_empty() {
        return 0.0;
    }
    let correct = windows
        .iter()
        .filter(|w| classify(&w.data) == w.label.label())
        .count();
    correct as f64 / windows.len() as f64
}

/// Mean single-window inference seconds for a classifier.
pub fn classifier_latency_s(
    windows: &[LabeledWindow],
    iters: usize,
    mut classify: impl FnMut(&[f32]) -> usize,
) -> f64 {
    let w = &windows[0].data;
    time_mean_s(iters, || {
        let _ = classify(w);
    })
}

/// Channel count re-exported for binaries.
pub const EEG_CHANNELS: usize = CHANNELS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_genomes_cover_all_families() {
        let genomes = family_genomes(Scale::Quick);
        let fams: Vec<String> = genomes.iter().map(|g| g.family().to_string()).collect();
        assert_eq!(fams, vec!["cnn", "lstm", "transformer", "forest"]);
    }

    #[test]
    fn scale_parses_env_values() {
        // Not setting the env var here (tests run in parallel); just check
        // the default path and the protocol mapping.
        let (p, n) = Scale::Quick.protocol();
        assert_eq!(n, 2);
        assert!(p.session_secs <= 60.0);
        let (p, n) = Scale::Full.protocol();
        assert_eq!(n, 5);
        assert_eq!(p.sessions, 3);
    }

    #[test]
    fn budgets_scale_up() {
        assert!(Scale::Full.flop_budget() > Scale::Quick.flop_budget());
        assert!(
            Scale::Full.evo_config(0).population > Scale::Quick.evo_config(0).population
        );
    }
}
