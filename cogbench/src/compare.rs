//! `cogbench compare <base-dir> <change-dir>`: the regression gate.
//!
//! Each directory holds the `seed-<S>/report.json` files of several
//! end-to-end runs of one commit (copy `<target>/cogbench` aside after
//! running the parent). Runs pair up by seed. Every (workload, metric)
//! pairing gets the parent's and the change's median and quartiles, the
//! paired win count, and a verdict; any regression makes the exit code
//! non-zero.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::report::{RunReport, END_TO_END, FAILURE_GATES, REPORTED};
use crate::stats::{compare, Verdict};
use crate::workload::Workload;

/// Every end-to-end report under `dir/seed-*/report.json`.
fn load(dir: &Path) -> Result<Vec<RunReport>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut reports = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        if !name.to_string_lossy().starts_with("seed-") {
            continue;
        }
        let path = entry.path().join("report.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for w in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            reports.push(RunReport::from_json(w).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    Ok(reports)
}

fn values(reports: &[RunReport], workload: &str, metric: &str) -> Vec<(u64, f64)> {
    reports
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metric(metric).map(|v| (r.seed, v)))
        .collect()
}

/// Prints the comparison table; fails on any regression.
pub fn run(base_dir: &Path, change_dir: &Path) -> ExitCode {
    let (base, change) = match (load(base_dir), load(change_dir)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cogbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<20} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut compared = 0;
    let mut regressions = 0;
    for w in Workload::ALL {
        for gate in END_TO_END.iter().chain(&REPORTED).chain(&FAILURE_GATES) {
            let b = values(&base, w.name(), gate.name);
            let c = values(&change, w.name(), gate.name);
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let cmp = compare(&b, &c, gate.better, gate.bound);
            compared += 1;
            if cmp.verdict == Verdict::Regression {
                regressions += 1;
            }
            let fmt =
                |q: crate::stats::Quartiles| format!("{:.4} [{:.4}, {:.4}]", q.median, q.q1, q.q3);
            println!(
                "{:<14} {:<20} {:>30} {:>30} {:>3}/{:<2}  {}",
                w.name(),
                gate.name,
                fmt(cmp.base),
                fmt(cmp.change),
                cmp.wins,
                cmp.pairs,
                cmp.verdict.as_str()
            );
        }
    }
    if compared == 0 {
        eprintln!("cogbench compare: no run of a common workload in both directories");
        return ExitCode::from(2);
    }
    println!("{compared} pairings compared, {regressions} regressions");
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
