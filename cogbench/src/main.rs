//! `cogbench`: the serving benchmark.
//!
//! ```text
//! cogbench [--seed S] [--seconds N] [--trace [0|1]] [--workload W]
//! cogbench compare <base-dir> <change-dir>
//! ```
//!
//! Without `--workload` it runs every workload, each in its own process
//! (so set-up time and peak memory are per workload), and writes
//! `<target>/cogbench/seed-<S>/report.json`. With `--workload` it runs that
//! one workload and prints, last, one JSON line with `correct`,
//! `attempted`, `failed` and the metrics. `--trace` switches from the
//! end-to-end run to the layer-by-layer traced run. The exit code is
//! non-zero when a correctness check fails. See `cogbench/README.md`.

mod compare;
mod json;
mod report;
mod spans;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use exec::ExecPool;

use crate::json::Json;
use crate::report::{host_facts, peak_rss_mb, seed_dir, Metric, RunReport};
use crate::traced::Driver;
use crate::workload::{
    Fallible, Served, Workload, DEADLINE_MS, ORACLE_TICKS, TICK_S, WARMUP_TICKS,
};

/// Seconds one run measures (mirrored as `run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Disconnect + connect pairs after the measured loop, so every workload
/// has enough connects for `connect_p50_ms`.
const RECONNECTS: u32 = 16;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--workload" => {
                let name = value.ok_or("--workload needs a name")?;
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
                i += 1;
            }
            "--seed" => {
                out.seed = value
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
                i += 1;
            }
            "--seconds" => {
                out.seconds = value
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
                i += 1;
            }
            "--trace" => match value.map(String::as_str) {
                Some("0") => {
                    out.trace = false;
                    i += 1;
                }
                Some("1") => {
                    out.trace = true;
                    i += 1;
                }
                _ => out.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, base, change] => compare::run(Path::new(base), Path::new(change)),
            _ => {
                eprintln!("usage: cogbench compare <base-dir> <change-dir>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cogbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// Runs every workload in a child process of its own and collects the
/// reports into `report.json`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cogbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reports = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
        match std::fs::read_to_string(report_path(w, args.seed, args.trace))
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(j) => reports.push(j),
            Err(e) => {
                eprintln!("cogbench: no report from {}: {e}", w.name());
                ok = false;
            }
        }
    }
    let report = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::Arr(reports)),
    ]);
    let name = if args.trace {
        "report-trace.json"
    } else {
        "report.json"
    };
    let path = seed_dir(args.seed).join(name);
    match std::fs::write(&path, format!("{report}\n")) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cogbench: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn report_path(w: Workload, seed: u64, trace: bool) -> PathBuf {
    let suffix = if trace { "-trace" } else { "" };
    seed_dir(seed).join(format!("{}{suffix}.json", w.name()))
}

/// Runs one workload in this process and prints its result line last.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let started = Instant::now();
    let dir = seed_dir(args.seed);
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(Into::into)
        .and_then(|()| ScratchDir::create())
        .and_then(|scratch| {
            if args.trace {
                run_traced(w, args, scratch.path())
            } else {
                run_untraced(w, args, scratch.path())
            }
        });
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cogbench: {} failed: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        println!(
            "{}/{} {} {} (n={})",
            w.name(),
            m.name,
            m.value,
            m.unit,
            m.samples
        );
    }
    println!(
        "{}/trace_digest {:016x} | correct {} | attempted {} failed {} | {:.1} s",
        w.name(),
        report.trace_digest,
        report.correct,
        report.attempted,
        report.failed,
        started.elapsed().as_secs_f64()
    );
    println!("{}/host {}", w.name(), report.host);
    let path = report_path(w, args.seed, args.trace);
    if let Err(e) = std::fs::write(&path, format!("{}\n", report.to_json())) {
        eprintln!("cogbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A directory for the run's artifacts inside the output directory,
/// removed when the run ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> Fallible<Self> {
        let path = report::out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Measured ticks for a run of `seconds` (never fewer than the oracle's
/// span of simulated time needs).
fn run_ticks(w: Workload, seconds: f64) -> usize {
    let oracle = (ORACLE_TICKS - WARMUP_TICKS) as usize;
    ((w.ticks_per_second() * seconds).ceil() as usize).max(oracle)
}

/// Runs `n` measured ticks; returns each tick's wall time in ms and the
/// number of ticks that missed the label-period deadline or failed.
fn measure(served: &mut Served, n: usize) -> (Vec<f64>, u64) {
    let mut ticks = Vec::with_capacity(n);
    let mut misses = 0;
    for _ in 0..n {
        let (ms, ok) = served.tick();
        if ms > DEADLINE_MS || !ok {
            misses += 1;
        }
        ticks.push(ms);
    }
    (ticks, misses)
}

/// Operation totals of served runs, and their connect latencies.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    connect_ms: Vec<f64>,
}

impl Ops {
    fn add(&mut self, served: &Served) {
        self.attempted += served.session_ticks + served.connects;
        self.failed += served.failed_segments + served.failed_connects;
        self.connect_ms.extend_from_slice(&served.connect_ms);
    }
}

/// The end-to-end run: set up [`SETUP_REPEATS`] times, serve the measured
/// ticks, check, reconnect.
fn run_untraced(w: Workload, args: &Args, scratch: &Path) -> Fallible<RunReport> {
    let pool = Arc::new(ExecPool::new(w.threads()));
    let mut ops = Ops::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut served: Option<Served> = None;
    for repeat in 0..SETUP_REPEATS {
        if let Some(old) = served.take() {
            ops.add(&old);
        }
        let t0 = Instant::now();
        let s = Served::setup(w, args.seed, &pool, scratch, &repeat.to_string())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        served = Some(s);
    }
    let mut served = served.ok_or("no set-up ran")?;
    let live = served.live();
    let (ticks, misses) = measure(&mut served, run_ticks(w, args.seconds));
    let digest = served.digest();
    let mismatches = served.mismatches()?;
    served.churn(RECONNECTS);
    ops.add(&served);
    ops.failed += mismatches;
    let mut connects = std::mem::take(&mut ops.connect_ms);
    stats::sort(&mut connects);
    stats::sort(&mut setup_s);
    let mut sorted = ticks.clone();
    stats::sort(&mut sorted);
    let n = sorted.len();
    let tick = |p: f64| stats::percentile(&sorted, p);
    let connect = |p: f64| stats::percentile(&connects, p);
    let wall_s: f64 = ticks.iter().sum::<f64>() * 1e-3;

    let mut m = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str, samples: usize| {
        m.push(Metric::new(name, value, unit, samples));
    };
    put(
        "setup_s",
        stats::percentile(&setup_s, 50.0),
        "s",
        setup_s.len(),
    );
    put("tick_p10_ms", tick(10.0), "ms", n);
    put(
        "peak_rss_mb",
        peak_rss_mb().ok_or("VmHWM unreadable")?,
        "MB",
        1,
    );
    put("tick_p50_ms", tick(50.0), "ms", n);
    put("tick_p99_ms", tick(99.0), "ms", n);
    if let Some(tail) = stats::supported_tail(&sorted).filter(|t| t.pct != 99.0) {
        put(&format!("tick_p{}_ms", tail.pct), tail.value, "ms", n);
    }
    put("tick_max_ms", sorted[n - 1], "ms", n);
    let sessions_per_sec = live as f64 * TICK_S * n as f64 / wall_s;
    put("sessions_per_sec", sessions_per_sec, "1/s", n);
    put("connect_p50_ms", connect(50.0), "ms", connects.len());
    put("connect_p99_ms", connect(99.0), "ms", connects.len());
    let failed_ratio = ops.failed as f64 / ops.attempted.max(1) as f64;
    put(
        "ops_failed_ratio",
        failed_ratio,
        "ratio",
        ops.attempted as usize,
    );
    put("deadline_miss_ratio", misses as f64 / n as f64, "ratio", n);
    put("sessions", live as f64, "count", 1);
    put("groups", served.groups() as f64, "count", 1);
    Ok(RunReport {
        workload: w.name().into(),
        seed: args.seed,
        trace: false,
        correct: ops.failed == 0 && m.iter().all(|x| x.value.is_finite()),
        attempted: ops.attempted,
        failed: ops.failed,
        trace_digest: digest,
        metrics: m,
        host: host_facts(w.threads()),
    })
}

/// The traced run: an untraced reference serves a third of the run's
/// ticks and fixes the digest, then the traced driver replays exactly as
/// many ticks.
fn run_traced(w: Workload, args: &Args, scratch: &Path) -> Fallible<RunReport> {
    let pool = Arc::new(ExecPool::new(w.threads()));
    let mut ops = Ops::default();
    let mut served = Served::setup(w, args.seed, &pool, scratch, "reference")?;
    let (mut ticks, _) = measure(&mut served, run_ticks(w, args.seconds / 3.0));
    let reference = served.digest();
    let mismatches = served.mismatches()?;
    ops.add(&served);
    ops.failed += mismatches;
    drop(served);
    stats::sort(&mut ticks);
    let untraced_p50 = stats::percentile(&ticks, 50.0);

    let mut driver = Driver::setup(w, args.seed, &pool, scratch)?;
    for _ in 0..ticks.len() {
        driver.tick()?;
    }
    let digest = driver.digest();
    if digest != reference {
        ops.failed += 1;
    }
    driver.teardown();
    let metrics = driver.metrics(untraced_p50);
    let spans = seed_dir(args.seed).join(format!("{}.spans.jsonl", w.name()));
    driver.write_spans(&spans)?;
    let coverage = metrics
        .iter()
        .find(|m| m.name == "trace.coverage")
        .map_or(0.0, |m| m.value);
    if coverage < 0.9 {
        eprintln!(
            "cogbench: {}: layer spans cover only {:.1}% of the traced tick",
            w.name(),
            coverage * 100.0
        );
    }
    Ok(RunReport {
        workload: w.name().into(),
        seed: args.seed,
        trace: true,
        correct: ops.failed == 0 && metrics.iter().all(|x| x.value.is_finite()),
        attempted: ops.attempted,
        failed: ops.failed,
        trace_digest: digest,
        metrics,
        host: host_facts(w.threads()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_invocation_and_the_trace_flag() {
        let a = args(&[
            "--workload",
            "fleet",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::Fleet), 3, 10.0, false)
        );
        let a = args(&["--trace", "1"]).expect("valid");
        assert!(a.trace);
        let a = args(&["--trace", "--seed", "2"]).expect("valid");
        assert!(a.trace && a.seed == 2);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
    }
}
