//! The metric catalogue, per-run reports and the host facts they carry.
//!
//! The catalogue here is the single source of the metric names, units,
//! directions and bounds; `BENCHMARK.json` mirrors it, and a test keeps the
//! two in agreement.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::stats::{Better, Bound};

/// An end-to-end metric: what a user of the serving engine sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening before a change regresses.
    pub bound: Bound,
}

/// End-to-end metrics gated on every workload (`BENCHMARK.json`
/// `end_to_end`). None of them can read zero, and each stays steady from
/// run to run on the reference host; see the README's noise findings for
/// why the tick is gated at its 10th percentile.
pub const END_TO_END: [Gate; 3] = [
    Gate {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
    },
    Gate {
        name: "tick_p10_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
    },
    Gate {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Relative(0.15),
    },
];

/// End-to-end metrics every run reports and `cogbench compare` judges,
/// but whose run-to-run spread on the reference host is too wide for the
/// benchmark's own gate. Their medians drift by up to a fifth between sets
/// of runs of one commit there, hence the wide bounds; `compare` calls a
/// pairing unresolved when its spread exceeds the bound.
pub const REPORTED: [Gate; 4] = [
    Gate {
        name: "tick_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
    },
    Gate {
        name: "tick_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
    },
    Gate {
        name: "sessions_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.25),
    },
    Gate {
        name: "connect_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
    },
];

/// Failure ratios: zero on a healthy run, so they cannot sit in
/// `BENCHMARK.json` (whose metrics must never read zero); `cogbench
/// compare` gates them with an absolute bound of zero instead.
pub const FAILURE_GATES: [Gate; 2] = [
    Gate {
        name: "ops_failed_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Absolute(0.0),
    },
    Gate {
        name: "deadline_miss_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Absolute(0.0),
    },
];

/// A per-layer metric of the traced run (`BENCHMARK.json` `per_layer`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMetric {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// Per-layer metrics every traced run reports, on every workload. Layer
/// numbers that exist only on some workloads (per-member times, wire stage
/// times, actuation, gather) are printed and written to the report but not
/// listed here, since a metric listed here must be measured everywhere.
pub const PER_LAYER: [LayerMetric; 28] = [
    layer("ml.predict_us", "us", Better::Lower),
    layer("ml.us_per_window", "us", Better::Lower),
    layer("ml.batch_mean", "count", Better::Higher),
    layer("ml.members_us_per_window", "us", Better::Lower),
    layer("ml.clone_us", "us", Better::Lower),
    layer("ml.eq_us", "us", Better::Lower),
    layer("ml.precompile_ms", "ms", Better::Lower),
    layer("ml.fixture_s", "s", Better::Lower),
    layer("exec.advance_efficiency", "ratio", Better::Higher),
    layer("core.advance_us", "us", Better::Lower),
    layer("core.construct_us", "us", Better::Lower),
    layer("eeg.board_us", "us", Better::Lower),
    layer("dsp.filter_us", "us", Better::Lower),
    layer("dsp.design_us", "us", Better::Lower),
    layer("stream.delivery_ratio", "ratio", Better::Higher),
    layer("stream.out_of_order_ratio", "ratio", Better::Lower),
    layer("stream.pool_reuse_ratio", "ratio", Better::Higher),
    layer("stream.dejitter_held_mean", "count", Better::Lower),
    layer("serve.connect_us", "us", Better::Lower),
    layer("serve.remove_us", "us", Better::Lower),
    layer("serve.connects", "count", Better::Higher),
    layer("serve.groups", "count", Better::Lower),
    layer("serve.overhead_us", "us", Better::Lower),
    layer("model_io.save_ms", "ms", Better::Lower),
    layer("model_io.open_ms", "ms", Better::Lower),
    layer("model_io.decode_ms", "ms", Better::Lower),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
    layer("trace.coverage", "ratio", Better::Higher),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind the value (1 for a single measurement).
    pub samples: u64,
}

impl Metric {
    /// A metric from its parts.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.to_owned(),
            samples: samples as u64,
        }
    }
}

/// The full result of one workload process.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (session-ticks plus connects).
    pub attempted: u64,
    /// Operations failed (failed segments, failed connects, mismatches).
    pub failed: u64,
    /// FNV-1a digest over every session's label and joint trace.
    pub trace_digest: u64,
    /// Every metric measured, gated or not.
    pub metrics: Vec<Metric>,
    /// Host facts (see [`host_facts`]).
    pub host: Json,
}

impl RunReport {
    /// The value of metric `name`, if measured.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The report as JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "trace_digest",
                Json::str(format!("{:016x}", self.trace_digest)),
            ),
            (
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(&m.name)),
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(&m.unit)),
                                ("samples", Json::Num(m.samples as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("host", self.host.clone()),
        ])
    }

    /// Reads a report back from [`RunReport::to_json`]'s form.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("report lacks `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let flag = |k: &str| {
            field(k)?
                .as_bool()
                .ok_or_else(|| format!("`{k}` is not a boolean"))
        };
        let text = |k: &str| {
            field(k)?
                .as_str()
                .ok_or_else(|| format!("`{k}` is not a string"))
        };
        let metrics = field("metrics")?
            .as_arr()
            .ok_or("`metrics` is not an array")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("metric name")?
                        .to_owned(),
                    value: m
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or("metric value")?,
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or("metric unit")?
                        .to_owned(),
                    samples: m
                        .get("samples")
                        .and_then(Json::as_f64)
                        .ok_or("metric samples")? as u64,
                })
            })
            .collect::<Result<Vec<_>, &str>>()?;
        Ok(Self {
            workload: text("workload")?.to_owned(),
            seed: num("seed")? as u64,
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            trace_digest: u64::from_str_radix(text("trace_digest")?, 16)
                .map_err(|e| e.to_string())?,
            metrics,
            host: field("host")?.clone(),
        })
    }

    /// The one-line result the benchmark prints last: exactly `correct`,
    /// `attempted`, `failed` and the catalogue's metrics for this mode.
    #[must_use]
    pub fn result_line(&self) -> String {
        let names: Vec<(&str, &str)> = if self.trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.metric(name).unwrap_or(f64::NAN);
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }
}

/// Facts about the host and build that every number depends on.
#[must_use]
pub fn host_facts(pool_threads: usize) -> Json {
    let cogarm_env: Vec<(String, Json)> = {
        let mut vars: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("COGARM_"))
            .collect();
        vars.sort();
        vars.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()
    };
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("pool_threads", Json::Num(pool_threads as f64)),
        ("dsp_simd", Json::Bool(dsp::simd::enabled())),
        ("ml_simd", Json::Bool(ml::simd::enabled())),
        (
            "plan_version",
            Json::str(format!("{:?}", ml::plan::PlanVersion::runtime_default())),
        ),
        ("cogarm_env", Json::Obj(cogarm_env)),
        ("commit", Json::str(commit())),
    ])
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in the working directory, read from `.git/HEAD`
/// (a checkout without git metadata reports `unknown`).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(reference) {
        return hash.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where the benchmark keeps its outputs: `<target>/cogbench`, with
/// `<target>` the Cargo target directory (`CARGO_TARGET_DIR`, else
/// `target`) relative to the working directory.
#[must_use]
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("cogbench")
}

/// The directory of one seed's reports.
#[must_use]
pub fn seed_dir(seed: u64) -> PathBuf {
    out_dir().join(format!("seed-{seed}"))
}

/// Peak resident set size of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            workload: "fleet".into(),
            seed: 7,
            trace: false,
            correct: true,
            attempted: 123_456,
            failed: 0,
            trace_digest: 0xDEAD_BEEF_0123_4567,
            metrics: vec![
                Metric::new("tick_p10_ms", 2.534_012_345_678_9, "ms", 4096),
                Metric::new("setup_s", 0.5, "s", 5),
            ],
            host: host_facts(2),
        }
    }

    #[test]
    fn report_json_round_trips() {
        let report = sample();
        let text = report.to_json().to_string();
        let back =
            RunReport::from_json(&Json::parse(&text).expect("valid JSON")).expect("a report");
        assert_eq!(back, report);
    }

    #[test]
    fn result_line_holds_exactly_the_contract_keys() {
        let line = Json::parse(&sample().result_line()).expect("valid JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("tick_p10_ms"))
                .and_then(|m| m.get("value")),
            Some(&Json::Num(2.534_012_345_678_9))
        );
    }

    /// `BENCHMARK.json` at the repository root mirrors the catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .to_vec()
        };
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, gate) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(m, "name").as_deref(), Some(gate.name));
            assert_eq!(field(m, "unit").as_deref(), Some(gate.unit));
            assert_eq!(field(m, "better").as_deref(), Some(gate.better.as_str()));
            let Bound::Relative(share) = gate.bound else {
                panic!("end-to-end bounds are shares of the parent's median");
            };
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(share));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, spec) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(m, "name").as_deref(), Some(spec.name));
            assert_eq!(field(m, "unit").as_deref(), Some(spec.unit));
            assert_eq!(field(m, "better").as_deref(), Some(spec.better.as_str()));
        }
        let workloads: Vec<String> = list("workloads")
            .iter()
            .filter_map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS as f64)
        );
    }
}
