//! Fig. 11 — ensemble comparison: every two-model combination of the four
//! family representatives, scored by accuracy and single-window inference
//! time. Expected shape: CNN + Transformer gives the best trade-off.
//! Includes a soft-vs-hard voting ablation on the CNN + Transformer pair.

use bench::{
    classifier_latency_s, common_eval_set, eval_accuracy, family_genomes, header, prepared_data,
    row, train_one, Scale, EEG_CHANNELS,
};
use ml::ensemble::{Ensemble, Voting};

fn main() {
    let scale = Scale::from_env();
    let seed = 61;
    println!("# Fig. 11 — ensemble accuracy vs inference time\n");
    let data = prepared_data(scale, seed);
    let eval_cap = match scale {
        Scale::Quick => 150,
        Scale::Default => 400,
        Scale::Full => 1500,
    };
    let eval_set = common_eval_set(&data, eval_cap);

    // Train the four family representatives once.
    let mut members = Vec::new();
    for genome in family_genomes(scale) {
        let t = train_one(&data, &genome, scale, seed);
        println!("trained {:<28} val acc {:.3}", t.name, t.val_acc);
        members.push(t);
    }

    println!("\n## Single models\n");
    header(&["model", "accuracy", "inference (ms)", "params"]);
    for t in &members {
        let acc = eval_accuracy(&eval_set, |w| t.artifact.predict(w, EEG_CHANNELS));
        let lat = classifier_latency_s(&eval_set, 20, |w| t.artifact.predict(w, EEG_CHANNELS));
        row(&[
            t.name.clone(),
            format!("{acc:.3}"),
            format!("{:.2}", lat * 1e3),
            t.artifact.param_count().to_string(),
        ]);
    }

    println!("\n## Two-model ensembles (soft voting)\n");
    header(&["ensemble", "accuracy", "inference (ms)", "params"]);
    let names: Vec<String> = members.iter().map(|t| t.name.clone()).collect();
    let mut best: Option<(f64, f64, String)> = None;
    let n = members.len();
    for i in 0..n {
        for j in (i + 1)..n {
            let ensemble = Ensemble::new(
                vec![
                    members[i].artifact.clone().into_member(),
                    members[j].artifact.clone().into_member(),
                ],
                Voting::Soft,
            );
            let acc = eval_accuracy(&eval_set, |w| ensemble.predict(w, EEG_CHANNELS));
            let lat =
                classifier_latency_s(&eval_set, 20, |w| ensemble.predict(w, EEG_CHANNELS));
            let label = format!("{} + {}", names[i], names[j]);
            row(&[
                label.clone(),
                format!("{acc:.3}"),
                format!("{:.2}", lat * 1e3),
                ensemble.param_count().to_string(),
            ]);
            let score = acc - lat * 2.0; // accuracy minus a latency penalty
            if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
                best = Some((score, acc, label));
            }
        }
    }
    let (_, acc, label) = best.expect("pairs exist");
    println!("\nbest trade-off: {label} at accuracy {acc:.3}");
    println!("paper reference: CNN + Transformer ensemble, 91% accuracy at 0.075 s on Jetson Orin Nano.");

    // Voting ablation on the winning pair shape (CNN + Transformer).
    let soft = Ensemble::new(
        vec![
            members[0].artifact.clone().into_member(),
            members[2].artifact.clone().into_member(),
        ],
        Voting::Soft,
    );
    let hard = Ensemble::new(
        vec![
            members[0].artifact.clone().into_member(),
            members[2].artifact.clone().into_member(),
        ],
        Voting::Hard,
    );
    println!("\n## Voting ablation (CNN + Transformer)\n");
    header(&["voting", "accuracy"]);
    for (name, e) in [("soft", &soft), ("hard", &hard)] {
        let acc = eval_accuracy(&eval_set, |w| e.predict(w, EEG_CHANNELS));
        row(&[name.to_owned(), format!("{acc:.3}")]);
    }
}
