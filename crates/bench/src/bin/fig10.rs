//! Fig. 10 — Random-Forest hyperparameter selection: the n_estimators ×
//! max_depth grid the evolutionary search explores, with validation
//! accuracy and total node counts (the paper annotates the selected model
//! "max_depth: 20, n_est: 100-200, ~72000 total nodes").

use bench::{header, prepared_data, row, Scale};
use cognitive_arm::eval::{train_genome, TrainBudget};
use eeg::dataset::train_val_split;
use evo::Genome;
use ml::ensemble::Classifier;
use ml::forest::ForestConfig;

fn main() {
    let scale = Scale::from_env();
    let seed = 53;
    println!("# Fig. 10 — Random Forest hyperparameter grid (window 90)\n");
    let data = prepared_data(scale, seed);
    let all = data.windows(90, 25).expect("windowing succeeds");
    let (train, val) = train_val_split(all, 0.2, seed);
    let budget = TrainBudget {
        train_cap: match scale {
            Scale::Quick => 400,
            Scale::Default => 1500,
            Scale::Full => usize::MAX,
        },
        ..scale.budget()
    };

    header(&["n_estimators", "max_depth", "val acc", "total nodes"]);
    let mut best: Option<(f64, usize, String)> = None;
    for n_estimators in [100usize, 200, 300, 400, 500] {
        for max_depth in [Some(10), Some(20), Some(30), None] {
            let genome = Genome::Forest {
                config: ForestConfig {
                    n_estimators,
                    max_depth,
                    min_samples_split: 4,
                    classes: 3,
                    seed,
                },
                window: 90,
            };
            let (member, acc) =
                train_genome(&genome, &train, &val, &budget, seed).expect("forest fits");
            let nodes = member.param_count();
            let depth_str = max_depth.map_or("None".to_owned(), |d| d.to_string());
            row(&[
                n_estimators.to_string(),
                depth_str.clone(),
                format!("{acc:.3}"),
                nodes.to_string(),
            ]);
            let key = format!("{n_estimators} est, depth {depth_str}, {nodes} nodes");
            // Prefer accuracy, break ties on fewer nodes.
            if best
                .as_ref()
                .is_none_or(|(ba, bn, _)| acc > *ba || (acc == *ba && nodes < *bn))
            {
                best = Some((acc, nodes, key));
            }
        }
    }
    let (acc, _, desc) = best.expect("grid non-empty");
    println!("\nselected: {desc} at acc {acc:.3}");
    println!("paper reference: max_depth 20, n_est 100-200, ~72000 total nodes.");
}
