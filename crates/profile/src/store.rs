//! The measured profile: the cost ledgers of the models a run executed,
//! binned into cells, and the one file a profile is saved as.
//!
//! A profile is a map from `kind/device/class` cells (e.g.
//! `mac/apu/vendor_tuned`) to latency/energy sums. Samples are ledger
//! entries ([`Profile::record_ledger`]): one per kernel and one per other
//! charged item, each carrying the `us` and `energy_uj` the ledger holds.
//!
//! A profile is keyed by its workload alone and saved as
//! [`profile_path`]`(dir, workload)`, sorted-key JSON with exact float
//! formatting: the same seeded run produces byte-identical profile files,
//! which is what lets CI diff them.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use tvmnp_hwsim::ledger::{CostEntry, CostRole};
use tvmnp_hwsim::{DeviceKind, KernelClass, WorkKind};

/// Version stamp written into every profile file.
pub(crate) const PROFILE_SCHEMA_VERSION: u64 = 3;

/// One `(work kind, device, kernel class)` cell of a profile: the sums
/// of its ledger entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileCell {
    /// Samples observed.
    pub count: u64,
    /// Exact sum of measured simulated time, µs.
    pub total_us: f64,
    /// Exact sum of estimated energy, µJ.
    pub total_energy_uj: f64,
}

impl ProfileCell {
    /// Mean measured latency, µs (0 when empty).
    pub(crate) fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us / self.count as f64
        }
    }
}

/// Parse a `kind/device/class` cell key back into typed components.
pub(crate) fn parse_cell_key(key: &str) -> Option<(WorkKind, DeviceKind, KernelClass)> {
    let mut it = key.splitn(3, '/');
    let kind = WorkKind::parse(it.next()?)?;
    let device = DeviceKind::parse(it.next()?)?;
    let class = KernelClass::parse(it.next()?)?;
    Some((kind, device, class))
}

/// A measured cost profile of one workload: per-cell latency/energy
/// sums.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The workload the profile measures, e.g. `fig4`; it names the file.
    pub workload: String,
    /// `kind/device/class` → sums, deterministically ordered.
    pub cells: BTreeMap<String, ProfileCell>,
}

impl Profile {
    /// An empty profile of `workload`.
    pub fn new(workload: &str) -> Profile {
        Profile {
            workload: workload.to_string(),
            cells: BTreeMap::new(),
        }
    }

    /// Record one kernel sample into its `kind/device/class` cell.
    pub fn record(
        &mut self,
        (kind, device, class): (WorkKind, DeviceKind, KernelClass),
        us: f64,
        energy_uj: f64,
    ) {
        let cell = self
            .cells
            .entry(format!(
                "{}/{}/{}",
                kind.name(),
                device.name(),
                class.name()
            ))
            .or_default();
        cell.count += 1;
        cell.total_us += us;
        cell.total_energy_uj += energy_uj;
    }

    /// Bin one model's cost ledger into cells, in ledger order: one sample
    /// per kernel and one per other entry. A host fusion group's `Launch`
    /// folds into the kernel after it, as a Neuron kernel entry already
    /// carries its own launch.
    pub fn record_ledger(&mut self, ledger: &[CostEntry]) {
        let mut launch: Option<&CostEntry> = None;
        for e in ledger {
            if e.role == CostRole::Launch {
                launch = Some(e);
                continue;
            }
            let (us, energy_uj) = match launch.take() {
                Some(l) => (l.us + e.us, l.energy_uj + e.energy_uj),
                None => (e.us, e.energy_uj),
            };
            self.record((e.kind, e.device, e.class), us, energy_uj);
        }
    }

    /// Total measured time across all cells, µs.
    pub fn total_us(&self) -> f64 {
        self.cells.values().map(|c| c.total_us).sum()
    }

    /// Total samples across all cells.
    pub fn total_count(&self) -> u64 {
        self.cells.values().map(|c| c.count).sum()
    }

    /// Serialize to a JSON value (sorted keys, exact floats — the
    /// byte-determinism contract).
    pub fn to_json(&self) -> Value {
        let mut cells = serde_json::Map::new();
        for (key, cell) in &self.cells {
            cells.insert(
                key.clone(),
                json!({
                    "count": cell.count,
                    "total_energy_uj": cell.total_energy_uj,
                    "total_us": cell.total_us
                }),
            );
        }
        json!({
            "cells": Value::Object(cells),
            "schema_version": PROFILE_SCHEMA_VERSION,
            "workload": self.workload
        })
    }

    /// Rebuild a profile from [`Profile::to_json`] output — the one place
    /// a profile document is checked, each field as it is read: the
    /// schema version, a non-empty workload, `kind/device/class` cell
    /// keys, counts > 0 whose sum fits a `u64`, and finite totals ≥ 0.
    pub fn from_json(doc: &Value) -> Result<Profile, ProfileError> {
        if doc["schema_version"].as_u64() != Some(PROFILE_SCHEMA_VERSION) {
            return Err(ProfileError(format!(
                "bad schema_version: {} (expected {PROFILE_SCHEMA_VERSION})",
                doc["schema_version"]
            )));
        }
        let workload = (doc["workload"].as_str())
            .filter(|w| !w.is_empty())
            .ok_or_else(|| ProfileError("workload missing or empty".to_string()))?;
        let cells = doc["cells"]
            .as_object()
            .ok_or_else(|| ProfileError("cells is not an object".to_string()))?;
        let mut profile = Profile::new(workload);
        // `Profile::total_count` sums the counts, so together they must fit.
        let mut samples = 0u64;
        for (key, raw) in cells {
            let problem = |what: &str| ProfileError(format!("cell {key}: {what}"));
            if parse_cell_key(key).is_none() {
                return Err(ProfileError(format!(
                    "cell key `{key}` is not kind/device/class"
                )));
            }
            let count = (raw["count"].as_u64())
                .filter(|&c| c > 0)
                .ok_or_else(|| problem("count missing or zero"))?;
            samples = samples
                .checked_add(count)
                .ok_or_else(|| problem("counts overflow a u64 sum"))?;
            let total = |field: &str| {
                (raw[field].as_f64())
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| problem(&format!("{field} missing or invalid")))
            };
            let cell = ProfileCell {
                count,
                total_us: total("total_us")?,
                total_energy_uj: total("total_energy_uj")?,
            };
            profile.cells.insert(key.clone(), cell);
        }
        Ok(profile)
    }

    /// Save into `dir`, creating it if needed, as [`profile_path`] (one
    /// JSON document plus trailing newline); returns the path written.
    /// Saving the same workload again overwrites its file.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, ProfileError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ProfileError(format!("create {}: {e}", dir.display())))?;
        let path = profile_path(dir, &self.workload);
        let text = serde_json::to_string(&self.to_json())
            .map_err(|e| ProfileError(format!("serialize {}: {e}", path.display())))?;
        std::fs::write(&path, format!("{text}\n"))
            .map_err(|e| ProfileError(format!("write {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Read a profile file written by [`Profile::write`].
    pub fn read(path: &Path) -> Result<Profile, ProfileError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ProfileError(format!("read {}: {e}", path.display())))?;
        let doc = serde_json::parse_value(text.trim_end())
            .map_err(|e| ProfileError(format!("parse {}: {e}", path.display())))?;
        Profile::from_json(&doc)
    }
}

/// The file a profile of `workload` is saved as inside `dir`.
pub fn profile_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("profile-{workload}.json"))
}

/// Error from profile (de)serialization or file I/O.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileError(pub String);

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile error: {}", self.0)
    }
}

impl std::error::Error for ProfileError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        let mut p = Profile::new("fig4");
        for i in 0..50 {
            let cell = |key| parse_cell_key(key).unwrap();
            p.record(cell("mac/apu/vendor_tuned"), 100.0 + i as f64, 7.5);
            p.record(cell("elementwise/cpu/tvm_untuned"), 3.0, 0.2);
        }
        p
    }

    #[test]
    fn cell_keys_roundtrip_through_parser() {
        let p = sample_profile();
        for cell_key in p.cells.keys() {
            let (kind, device, class) = parse_cell_key(cell_key).expect("parses");
            assert_eq!(
                format!("{}/{}/{}", kind.name(), device.name(), class.name()),
                *cell_key
            );
        }
        assert!(parse_cell_key("mac/apu").is_none());
        assert!(parse_cell_key("bogus/apu/vendor_tuned").is_none());
    }

    /// The problem `from_json` names for `doc`.
    fn refusal(doc: &Value) -> String {
        Profile::from_json(doc).expect_err("must be rejected").0
    }

    #[test]
    fn json_roundtrip_and_validation() {
        let p = sample_profile();
        let doc = p.to_json();
        let back = Profile::from_json(&doc).unwrap();
        assert_eq!(back.workload, p.workload);
        assert_eq!(back.cells, p.cells);
        // A document of another schema version is rejected by its version.
        let mut broken = doc.clone();
        if let Value::Object(m) = &mut broken {
            m.insert("schema_version".into(), json!(99));
        }
        assert!(refusal(&broken).contains("schema_version"));
    }

    #[test]
    fn a_cell_is_written_as_its_three_sums() {
        let doc = sample_profile().to_json();
        let cell = doc["cells"]["mac/apu/vendor_tuned"].as_object().unwrap();
        let fields: Vec<&str> = cell.keys().map(String::as_str).collect();
        assert_eq!(fields, ["count", "total_energy_uj", "total_us"]);
        assert_eq!(cell["count"].as_u64(), Some(50));
        // 100 + 101 + ... + 149, and 50 samples of 7.5 µJ.
        assert_eq!(cell["total_us"].as_f64(), Some(6225.0));
        assert_eq!(cell["total_energy_uj"].as_f64(), Some(375.0));
        assert_eq!(doc["schema_version"].as_u64(), Some(PROFILE_SCHEMA_VERSION));
    }

    /// A document over `cells`, the cell map's entries as JSON text.
    fn doc_with(cells: &str) -> Value {
        serde_json::from_str(&format!(
            r#"{{"cells":{{{cells}}},"schema_version":{PROFILE_SCHEMA_VERSION},
               "workload":"fig4"}}"#
        ))
        .unwrap()
    }

    /// A one-cell document, `cell` being the cell's fields as JSON text.
    fn doc(cell: &str) -> Value {
        doc_with(&format!(r#""mac/apu/vendor_tuned":{{{cell}}}"#))
    }

    #[test]
    fn hostile_cells_are_a_schema_violation_not_a_panic() {
        // What `obs_check --profile` runs on a file from disk.
        let well_formed = doc(r#""count":2,"total_energy_uj":1.0,"total_us":3.0"#);
        assert!(Profile::from_json(&well_formed).is_ok());
        for (cell, want) in [
            (r#""count":0,"total_energy_uj":1.0,"total_us":3.0"#, "count"),
            (
                r#""count":-1,"total_energy_uj":1.0,"total_us":3.0"#,
                "count",
            ),
            (
                r#""count":2,"total_energy_uj":1.0,"total_us":-3.0"#,
                "total_us",
            ),
            (r#""count":2,"total_us":3.0"#, "total_energy_uj"),
            (
                r#""count":2,"total_energy_uj":"1","total_us":3.0"#,
                "total_energy_uj",
            ),
        ] {
            let problem = refusal(&doc(cell));
            assert!(
                problem.contains("mac/apu/vendor_tuned") && problem.contains(want),
                "{cell}: {problem}"
            );
        }
        // Each count fits, their sum does not: `total_count` would wrap
        // (release) or panic (debug).
        let half = r#"{"count":9223372036854775808,"total_energy_uj":1.0,"total_us":3.0}"#;
        let two = doc_with(&format!(
            r#""mac/apu/vendor_tuned":{half},"mac/cpu/vendor_tuned":{half}"#
        ));
        let problem = refusal(&two);
        assert!(problem.contains("counts overflow"), "{problem}");
        // A key that is not `kind/device/class` is refused by name.
        let problem = refusal(&doc_with(&format!(r#""mac/apu":{half}"#)));
        assert!(problem.contains("`mac/apu`"), "{problem}");
    }

    #[test]
    fn a_profile_without_a_workload_is_refused_naming_workload() {
        // The workload names the file, so a document must carry one.
        let with = |workload: &str| -> Value {
            serde_json::from_str(&format!(
                r#"{{"cells":{{}},"schema_version":{PROFILE_SCHEMA_VERSION}{workload}}}"#
            ))
            .unwrap()
        };
        for workload in ["", r#","workload":"""#, r#","workload":4"#] {
            let problem = refusal(&with(workload));
            assert!(problem.contains("workload"), "{workload}: {problem}");
        }
        let named = with(r#","workload":"sched""#);
        assert_eq!(Profile::from_json(&named).unwrap().workload, "sched");
    }

    #[test]
    fn a_profile_is_saved_as_its_workload_file_byte_deterministically() {
        let dir = std::env::temp_dir().join(format!("tvmnp-profile-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The directory is created on save.
        let path = sample_profile().write(&dir).unwrap();
        assert_eq!(path, dir.join("profile-fig4.json"));
        assert_eq!(path, profile_path(&dir, "fig4"));
        let first = std::fs::read(&path).unwrap();
        // Re-building the same profile from scratch writes identical bytes
        // over the same file.
        sample_profile().write(&dir).unwrap();
        assert_eq!(first, std::fs::read(&path).unwrap());
        let stored: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(stored.len(), 1);
        let loaded = Profile::read(&path).unwrap();
        assert_eq!(loaded.workload, "fig4");
        assert_eq!(loaded.cells, sample_profile().cells);
        assert!(Profile::read(&profile_path(&dir, "other")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
