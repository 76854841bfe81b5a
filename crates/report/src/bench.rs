//! Benchmark baselines and regression gating.
//!
//! A [`BenchRecord`] captures one workload's metrics (median/p95/min/max
//! over N runs) in a stable JSON schema: keys sort deterministically and
//! floats round-trip exactly, so re-recording on the same commit produces
//! byte-identical files — the property the `--check-against` gate and the
//! checked-in `BENCH_*.json` baselines rely on.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Bump when the JSON layout changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// Order statistics of one metric over the benchmark runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricStats {
    /// Median (nearest-rank) of the samples.
    pub median: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl MetricStats {
    /// Compute stats from raw samples. Panics on an empty slice.
    pub fn from_samples(samples: &[f64]) -> MetricStats {
        assert!(!samples.is_empty(), "metric needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| {
            let rank = (p * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        MetricStats {
            median: pct(0.50),
            p95: pct(0.95),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

/// One workload's recorded benchmark: named metrics in a stable schema.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Workload name (`fig4`, `fig6`, ...).
    pub name: String,
    /// Number of repetitions each latency metric was sampled over.
    pub runs: usize,
    /// Metrics keyed by dotted name. Keys ending in `.ms` or `.us` are
    /// latency metrics and participate in regression gating.
    pub metrics: BTreeMap<String, MetricStats>,
}

/// An I/O or parse failure, carrying the offending path.
#[derive(Debug)]
pub struct BenchIoError {
    /// The file being read or written.
    pub path: PathBuf,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for BenchIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for BenchIoError {}

impl BenchRecord {
    /// Empty record for `name` over `runs` repetitions.
    pub fn new(name: impl Into<String>, runs: usize) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            runs,
            metrics: BTreeMap::new(),
        }
    }

    /// Record a metric from raw samples.
    pub fn insert(&mut self, key: impl Into<String>, samples: &[f64]) {
        self.metrics
            .insert(key.into(), MetricStats::from_samples(samples));
    }

    /// The stable JSON form (sorted keys at every level).
    pub fn to_json(&self) -> Value {
        let mut metrics = serde_json::Map::new();
        for (key, s) in &self.metrics {
            metrics.insert(
                key.clone(),
                json!({
                    "max": s.max,
                    "median": s.median,
                    "min": s.min,
                    "p95": s.p95,
                }),
            );
        }
        json!({
            "metrics": Value::Object(metrics),
            "name": self.name,
            "runs": self.runs as u64,
            "schema_version": SCHEMA_VERSION,
        })
    }

    /// Parse the JSON form back.
    pub fn from_json(v: &Value) -> Result<BenchRecord, String> {
        let version = v
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} unsupported (expected {SCHEMA_VERSION})"
            ));
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing name")?
            .to_string();
        let runs = v
            .get("runs")
            .and_then(Value::as_u64)
            .ok_or("missing runs")? as usize;
        let mut metrics = BTreeMap::new();
        let obj = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("missing metrics object")?;
        for (key, m) in obj {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("metric '{key}' missing field '{f}'"))
            };
            metrics.insert(
                key.clone(),
                MetricStats {
                    median: field("median")?,
                    p95: field("p95")?,
                    min: field("min")?,
                    max: field("max")?,
                },
            );
        }
        Ok(BenchRecord {
            name,
            runs,
            metrics,
        })
    }

    /// Write the record as JSON (trailing newline). Deterministic: the
    /// same record always produces the same bytes.
    pub fn write(&self, path: &Path) -> Result<(), BenchIoError> {
        let body = format!("{}\n", self.to_json());
        std::fs::write(path, body).map_err(|e| BenchIoError {
            path: path.to_path_buf(),
            message: format!("failed to write bench record: {e}"),
        })
    }

    /// Read a record written by [`BenchRecord::write`].
    pub fn read(path: &Path) -> Result<BenchRecord, BenchIoError> {
        let text = std::fs::read_to_string(path).map_err(|e| BenchIoError {
            path: path.to_path_buf(),
            message: format!("failed to read bench baseline: {e}"),
        })?;
        let value = serde_json::parse_value(&text).map_err(|e| BenchIoError {
            path: path.to_path_buf(),
            message: format!("invalid JSON: {e}"),
        })?;
        BenchRecord::from_json(&value).map_err(|m| BenchIoError {
            path: path.to_path_buf(),
            message: m,
        })
    }
}

/// Whether `key` names a latency metric that participates in regression
/// gating (lower is better). Aggregate context metrics (counts,
/// utilization fractions) are recorded but never gate.
pub fn gated(key: &str) -> bool {
    key.ends_with(".ms") || key.ends_with(".us")
}

/// One gated metric whose median moved beyond the noise threshold; the
/// [`Comparison`] list it sits in says which way.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricChange {
    /// Metric key.
    pub key: String,
    /// Baseline median.
    pub baseline: f64,
    /// Current median.
    pub current: f64,
    /// `current / baseline`.
    pub ratio: f64,
}

/// Outcome of comparing a current record against a baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Comparison {
    /// Gated metrics slower than `baseline * (1 + threshold)`.
    pub regressions: Vec<MetricChange>,
    /// Gated metrics faster than `baseline * (1 - threshold)`.
    pub improvements: Vec<MetricChange>,
    /// Gated baseline metrics absent from the current record.
    pub missing_in_current: Vec<String>,
    /// Gated current metrics absent from the baseline.
    pub new_in_current: Vec<String>,
    /// Gated metrics compared.
    pub compared: usize,
}

impl Comparison {
    /// True when nothing regressed and no gated metric disappeared.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.missing_in_current.is_empty()
    }

    /// Number of gated baseline metrics the current run never produced —
    /// the signal `bench --fail-on-missing` hard-fails on, since a
    /// silently dropped workload would otherwise pass the gate.
    pub fn missing(&self) -> usize {
        self.missing_in_current.len()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.regressions {
            out.push_str(&format!(
                "REGRESSION {}: {:.3} -> {:.3} ({:+.1}%)\n",
                c.key,
                c.baseline,
                c.current,
                (c.ratio - 1.0) * 100.0
            ));
        }
        for c in &self.improvements {
            out.push_str(&format!(
                "improvement {}: {:.3} -> {:.3} ({:+.1}%)\n",
                c.key,
                c.baseline,
                c.current,
                (c.ratio - 1.0) * 100.0
            ));
        }
        for k in &self.missing_in_current {
            out.push_str(&format!("MISSING {k}: in baseline but not re-measured\n"));
        }
        for k in &self.new_in_current {
            out.push_str(&format!("new metric {k}: not in baseline\n"));
        }
        out.push_str(&format!(
            "{} gated metrics compared: {} regressed, {} improved\n",
            self.compared,
            self.regressions.len(),
            self.improvements.len()
        ));
        out
    }
}

/// Compare `current` against `baseline` on the gated (latency) metrics.
/// A metric regresses when its median exceeds the baseline median by more
/// than `threshold` (e.g. `0.05` = 5% noise allowance).
pub fn compare(baseline: &BenchRecord, current: &BenchRecord, threshold: f64) -> Comparison {
    let mut cmp = Comparison::default();
    for (key, base) in baseline.metrics.iter().filter(|(k, _)| gated(k)) {
        let Some(cur) = current.metrics.get(key) else {
            cmp.missing_in_current.push(key.clone());
            continue;
        };
        cmp.compared += 1;
        if base.median.abs() < 1e-12 {
            continue; // zero baseline: ratio undefined, skip gating
        }
        let ratio = cur.median / base.median;
        let change = || MetricChange {
            key: key.clone(),
            baseline: base.median,
            current: cur.median,
            ratio,
        };
        if ratio > 1.0 + threshold {
            cmp.regressions.push(change());
        } else if ratio < 1.0 - threshold {
            cmp.improvements.push(change());
        }
    }
    for key in current.metrics.keys().filter(|k| gated(k)) {
        if !baseline.metrics.contains_key(key) {
            cmp.new_in_current.push(key.clone());
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(pairs: &[(&str, f64)]) -> BenchRecord {
        let mut r = BenchRecord::new("t", 3);
        for (k, v) in pairs {
            r.insert(*k, &[*v]);
        }
        r
    }

    #[test]
    fn stats_order_statistics() {
        let s = MetricStats::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p95, 5.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        let one = MetricStats::from_samples(&[7.5]);
        assert_eq!(one.median, 7.5);
        assert_eq!(one.p95, 7.5);
    }

    #[test]
    fn json_roundtrip_is_byte_identical() {
        let mut r = BenchRecord::new("fig6", 5);
        r.insert("fig6.mobilenet_v2.tvm.ms", &[12.5, 12.5, 13.0]);
        r.insert("fig6.subgraphs", &[3.0]);
        let first = format!("{}\n", r.to_json());
        let second = format!("{}\n", r.to_json());
        assert_eq!(first, second);
        let parsed = BenchRecord::from_json(&serde_json::parse_value(first.trim()).unwrap());
        assert_eq!(parsed.unwrap(), r);
        // Keys appear in sorted order in the serialized form.
        let a = first.find("fig6.mobilenet_v2.tvm.ms").unwrap();
        let b = first.find("fig6.subgraphs").unwrap();
        assert!(a < b);
    }

    #[test]
    fn write_read_roundtrip_and_error_paths_carry_the_path() {
        let dir = std::env::temp_dir().join("tvmnp_report_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_t.json");
        let r = record(&[("t.x.ms", 10.0)]);
        r.write(&path).unwrap();
        assert_eq!(BenchRecord::read(&path).unwrap(), r);
        // Same record, written twice: identical bytes.
        let bytes1 = std::fs::read(&path).unwrap();
        r.write(&path).unwrap();
        assert_eq!(bytes1, std::fs::read(&path).unwrap());

        let missing = dir.join("does_not_exist.json");
        let err = BenchRecord::read(&missing).unwrap_err();
        assert!(err.to_string().contains("does_not_exist.json"));

        let bad_dir = dir.join("no_such_subdir").join("x.json");
        let err = r.write(&bad_dir).unwrap_err();
        assert!(err.to_string().contains("no_such_subdir"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_latency_suffixes_gate() {
        assert!(gated("fig6.mobilenet_v2.tvm.ms"));
        assert!(gated("sched.pipeline.makespan.us"));
        assert!(!gated("fig6.subgraphs"));
        assert!(!gated("fig5.cpu.utilization"));
    }

    #[test]
    fn regression_detected_beyond_threshold() {
        let base = record(&[("t.a.ms", 10.0), ("t.count", 3.0)]);
        let slow = record(&[("t.a.ms", 20.0), ("t.count", 99.0)]);
        let cmp = compare(&base, &slow, 0.05);
        assert!(!cmp.ok());
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].key, "t.a.ms");
        assert!((cmp.regressions[0].ratio - 2.0).abs() < 1e-9);
        assert!(cmp.render().contains("REGRESSION t.a.ms"));
        // Non-gated metric movement is ignored.
        assert_eq!(cmp.compared, 1);
    }

    #[test]
    fn noise_within_threshold_passes() {
        let base = record(&[("t.a.ms", 10.0)]);
        let near = record(&[("t.a.ms", 10.4)]);
        assert!(compare(&base, &near, 0.05).ok());
        let faster = record(&[("t.a.ms", 5.0)]);
        let cmp = compare(&base, &faster, 0.05);
        assert!(cmp.ok());
        assert_eq!(cmp.improvements.len(), 1);
    }

    #[test]
    fn missing_gated_metric_fails_new_metric_does_not() {
        let base = record(&[("t.a.ms", 10.0), ("t.b.ms", 5.0)]);
        let cur = record(&[("t.a.ms", 10.0), ("t.c.ms", 1.0)]);
        let cmp = compare(&base, &cur, 0.05);
        assert!(!cmp.ok());
        assert_eq!(cmp.missing(), 1);
        assert_eq!(cmp.missing_in_current, vec!["t.b.ms".to_string()]);
        assert_eq!(cmp.new_in_current, vec!["t.c.ms".to_string()]);
    }
}
