//! Benchmark baselines and the exact gate.
//!
//! A [`BenchRecord`] holds one value per metric of one workload run. Every
//! metric is a deterministic function of shapes on the simulated clock,
//! so one run is the whole measurement: keys sort deterministically and
//! floats round-trip exactly, so re-recording on the same commit produces
//! byte-identical files, and [`mismatches`] compares two records bit for
//! bit — the `--check-against` gate the checked-in `BENCH_*.json`
//! baselines rely on.

use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Bump when the JSON layout changes incompatibly.
pub(crate) const SCHEMA_VERSION: u64 = 2;

/// One workload's recorded benchmark: named metrics in a stable schema.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Workload name (`fig4`, `fig6`, ...).
    pub name: String,
    /// Metrics keyed by dotted name.
    pub metrics: BTreeMap<String, f64>,
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
    /// Empty record for `name`.
    pub fn new(name: impl Into<String>) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            metrics: BTreeMap::new(),
        }
    }

    /// Record a metric. A run measures each key once; a second value for
    /// a key is a harness bug and panics.
    pub fn insert(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        assert!(
            !self.metrics.contains_key(&key),
            "metric '{key}' measured twice"
        );
        self.metrics.insert(key, value);
    }

    /// The stable JSON form (sorted keys at every level).
    pub fn to_json(&self) -> Value {
        json!({
            "metrics": self.metrics,
            "name": self.name,
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
                "schema_version {version} unsupported (expected {SCHEMA_VERSION}); \
                 regenerate it with scripts/bench_baseline.sh"
            ));
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing name")?;
        let obj = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("missing metrics object")?;
        let mut record = BenchRecord::new(name);
        for (key, value) in obj {
            let value = value
                .as_f64()
                .ok_or_else(|| format!("metric '{key}' is not a number"))?;
            record.metrics.insert(key.clone(), value);
        }
        Ok(record)
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
        let error = |message| BenchIoError {
            path: path.to_path_buf(),
            message,
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| error(format!("failed to read bench baseline: {e}")))?;
        let value =
            serde_json::parse_value(&text).map_err(|e| error(format!("invalid JSON: {e}")))?;
        BenchRecord::from_json(&value).map_err(error)
    }
}

/// One key on which two records are not bit-equal: its value in each,
/// `None` where a record lacks the key.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Metric key.
    pub key: String,
    /// The baseline's value.
    pub old: Option<f64>,
    /// The current run's value.
    pub new: Option<f64>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |v: Option<f64>| v.map_or("missing".to_string(), |v| v.to_string());
        write!(f, "{}: {} -> {}", self.key, side(self.old), side(self.new))
    }
}

/// Every key missing from `current`, new in it, or holding a value whose
/// bits differ from `baseline`'s, in key order. Empty means the records
/// are the same measurement.
pub fn mismatches(baseline: &BenchRecord, current: &BenchRecord) -> Vec<Mismatch> {
    let keys: BTreeSet<&String> = baseline
        .metrics
        .keys()
        .chain(current.metrics.keys())
        .collect();
    keys.into_iter()
        .filter_map(|key| {
            let old = baseline.metrics.get(key).copied();
            let new = current.metrics.get(key).copied();
            let equal = matches!((old, new), (Some(a), Some(b)) if a.to_bits() == b.to_bits());
            (!equal).then(|| Mismatch {
                key: key.clone(),
                old,
                new,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(pairs: &[(&str, f64)]) -> BenchRecord {
        let mut r = BenchRecord::new("t");
        for (k, v) in pairs {
            r.insert(*k, *v);
        }
        r
    }

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tvmnp_report_bench_{test}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn json_roundtrip_is_byte_identical() {
        let r = record(&[("fig6.mobilenet_v2.tvm.ms", 12.5), ("fig6.subgraphs", 3.0)]);
        let first = format!("{}\n", r.to_json());
        assert_eq!(first, format!("{}\n", r.to_json()));
        let parsed = BenchRecord::from_json(&serde_json::parse_value(first.trim()).unwrap());
        assert_eq!(parsed.unwrap(), r);
        // Keys appear in sorted order in the serialized form.
        let a = first.find("fig6.mobilenet_v2.tvm.ms").unwrap();
        let b = first.find("fig6.subgraphs").unwrap();
        assert!(a < b);
        assert!(!first.contains("runs"), "one run per record: {first}");
    }

    #[test]
    fn write_read_write_is_byte_identical_and_errors_carry_the_path() {
        let dir = scratch("roundtrip");
        let (a, b) = (dir.join("BENCH_a.json"), dir.join("BENCH_b.json"));
        // A value that only round-trips through the shortest exact form.
        let r = record(&[("t.x.ms", 1.8124601142857142), ("t.n", 9.0)]);
        r.write(&a).unwrap();
        let read = BenchRecord::read(&a).unwrap();
        assert_eq!(read, r);
        read.write(&b).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());

        let missing = dir.join("does_not_exist.json");
        let err = BenchRecord::read(&missing).unwrap_err();
        assert!(err.to_string().contains("does_not_exist.json"));

        let bad_dir = dir.join("no_such_subdir").join("x.json");
        let err = r.write(&bad_dir).unwrap_err();
        assert!(err.to_string().contains("no_such_subdir"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_version_1_file_is_an_error_naming_the_file() {
        let dir = scratch("v1");
        let path = dir.join("BENCH_old.json");
        let v1 = r#"{"metrics":{"t.a.ms":{"max":1.0,"median":1.0,"min":1.0,"p95":1.0}},"name":"t","runs":5,"schema_version":1}"#;
        std::fs::write(&path, v1).unwrap();
        let err = BenchRecord::read(&path).unwrap_err().to_string();
        assert!(err.contains("BENCH_old.json"), "{err}");
        assert!(err.contains("schema_version 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_non_numeric_metric_is_an_error_naming_the_key() {
        let v = serde_json::parse_value(
            r#"{"metrics":{"t.a.ms":1.5,"t.b.ms":{"median":2.0}},"name":"t","schema_version":2}"#,
        )
        .unwrap();
        let err = BenchRecord::from_json(&v).unwrap_err();
        assert!(err.contains("'t.b.ms'"), "{err}");
    }

    #[test]
    fn identical_records_pass() {
        let r = record(&[("t.a.ms", 10.0), ("t.count", 3.0), ("t.zero.ms", 0.0)]);
        assert_eq!(mismatches(&r, &r.clone()), []);
    }

    #[test]
    fn one_flipped_bit_fails() {
        let base = record(&[("t.a.ms", 10.0), ("t.count", 3.0)]);
        for key in ["t.a.ms", "t.count"] {
            let mut cur = base.clone();
            let v = cur.metrics.get_mut(key).unwrap();
            *v = f64::from_bits(v.to_bits() ^ 1);
            let found = mismatches(&base, &cur);
            assert_eq!(found.len(), 1, "{key}");
            assert_eq!(found[0].key, key);
            assert_ne!(found[0].old, found[0].new);
            // The shortest exact form tells the two values apart.
            let line = found[0].to_string();
            let (old, new) = line.split_once(": ").unwrap().1.split_once(" -> ").unwrap();
            assert_ne!(old, new, "{line}");
        }
    }

    #[test]
    fn a_missing_key_and_a_new_key_each_fail() {
        let base = record(&[("t.a.ms", 10.0), ("t.b.ms", 5.0)]);
        let missing = record(&[("t.a.ms", 10.0)]);
        let found = mismatches(&base, &missing);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].to_string(), "t.b.ms: 5 -> missing");

        let mut new = base.clone();
        new.insert("t.c", 1.0);
        let found = mismatches(&base, &new);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].to_string(), "t.c: missing -> 1");
    }
}
