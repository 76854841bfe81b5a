//! The measured-profile database: in-memory [`Profile`]s binned from the
//! cost ledgers of the models a run executed, and the content-addressed
//! on-disk [`ProfileStore`] they persist into.
//!
//! A profile is a map from `kind/device/class` cells (e.g.
//! `mac/apu/vendor_tuned`) to latency/energy aggregates. Samples are
//! ledger entries ([`Profile::record_ledger`]): one per kernel and one
//! per other charged item, each carrying the `f64`s the ledger holds.
//!
//! Everything serializes to sorted-key JSON with exact float formatting:
//! the same seeded run produces byte-identical profile files, which is
//! what lets CI diff them and the bench gate cache them.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use tvmnp_hwsim::ledger::{CostEntry, CostRole};
use tvmnp_hwsim::{DeviceKind, KernelClass, WorkKind};
use tvmnp_telemetry::QuantileSketch;

/// Version stamp written into every profile file.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// Identity of one measured profile: what ran and how it was compiled.
/// Two runs with the same key land in the same store slot and are
/// directly comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileKey {
    /// Workload (or module) fingerprint, e.g. `fig4`.
    pub workload: String,
    /// Target permutation the run was compiled for, e.g. `byoc-cpu-apu`.
    pub permutation: String,
    /// Quantization config, e.g. `f32` or `int8`.
    pub quant: String,
    /// SoC / device the cost model simulated, e.g. `dimensity-800`.
    pub soc: String,
}

impl ProfileKey {
    /// Canonical string form (the content-address input).
    pub fn canonical(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.workload, self.permutation, self.quant, self.soc
        )
    }

    /// Stable 16-hex-digit content hash of the canonical key (FNV-1a).
    pub fn hash(&self) -> String {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.canonical().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        format!("{h:016x}")
    }

    /// File name this key addresses inside a [`ProfileStore`].
    pub fn file_name(&self) -> String {
        let sanitize = |s: &str| {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '-' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect::<String>()
        };
        format!(
            "profile-{}-{}-{}-{}.json",
            sanitize(&self.workload),
            sanitize(&self.permutation),
            sanitize(&self.quant),
            &self.hash()[..8]
        )
    }
}

/// One `(work kind, device, kernel class)` cell of a profile.
#[derive(Debug, Clone)]
pub struct ProfileCell {
    /// Samples observed.
    pub count: u64,
    /// Exact sum of measured simulated time, µs.
    pub total_us: f64,
    /// Exact sum of the unscaled analytic predictions, µs.
    pub total_analytic_us: f64,
    /// Exact sum of estimated energy, µJ.
    pub total_energy_uj: f64,
    /// Mergeable latency distribution of the per-kernel samples.
    pub sketch: QuantileSketch,
}

impl ProfileCell {
    fn new() -> ProfileCell {
        ProfileCell {
            count: 0,
            total_us: 0.0,
            total_analytic_us: 0.0,
            total_energy_uj: 0.0,
            sketch: QuantileSketch::default(),
        }
    }

    /// Mean measured latency, µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us / self.count as f64
        }
    }

    /// Fold another cell's samples in (used when merging shard profiles).
    pub fn merge(&mut self, other: &ProfileCell) {
        self.count += other.count;
        self.total_us += other.total_us;
        self.total_analytic_us += other.total_analytic_us;
        self.total_energy_uj += other.total_energy_uj;
        self.sketch.merge(&other.sketch);
    }
}

/// Parse a `kind/device/class` cell key back into typed components.
pub fn parse_cell_key(key: &str) -> Option<(WorkKind, DeviceKind, KernelClass)> {
    let mut it = key.splitn(3, '/');
    let kind = WorkKind::parse(it.next()?)?;
    let device = DeviceKind::parse(it.next()?)?;
    let class = KernelClass::parse(it.next()?)?;
    Some((kind, device, class))
}

/// A measured cost profile: per-cell latency/energy aggregates under one
/// [`ProfileKey`].
#[derive(Debug, Clone)]
pub struct Profile {
    /// Identity of the run this profile measures.
    pub key: ProfileKey,
    /// `kind/device/class` → aggregates, deterministically ordered.
    pub cells: BTreeMap<String, ProfileCell>,
}

impl Profile {
    /// An empty profile under `key`.
    pub fn new(key: ProfileKey) -> Profile {
        Profile {
            key,
            cells: BTreeMap::new(),
        }
    }

    /// Record one kernel sample into its `kind/device/class` cell.
    pub fn record(
        &mut self,
        (kind, device, class): (WorkKind, DeviceKind, KernelClass),
        us: f64,
        analytic_us: f64,
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
            .or_insert_with(ProfileCell::new);
        cell.count += 1;
        cell.total_us += us;
        cell.total_analytic_us += analytic_us;
        cell.total_energy_uj += energy_uj;
        cell.sketch.insert(us);
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
            let (us, analytic_us, energy_uj) = match launch.take() {
                Some(l) => (
                    l.us + e.us,
                    l.analytic_us + e.analytic_us,
                    l.energy_uj + e.energy_uj,
                ),
                None => (e.us, e.analytic_us, e.energy_uj),
            };
            self.record((e.kind, e.device, e.class), us, analytic_us, energy_uj);
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

    /// Fold another profile's cells in (shard merge). Keys must match.
    pub fn merge(&mut self, other: &Profile) {
        for (key, cell) in &other.cells {
            self.cells
                .entry(key.clone())
                .or_insert_with(ProfileCell::new)
                .merge(cell);
        }
    }

    /// Serialize to a JSON value (sorted keys, exact floats — the
    /// byte-determinism contract). Mutable because the cell sketches
    /// flush their insert buffers first.
    pub fn to_json(&mut self) -> Value {
        let mut cells = serde_json::Map::new();
        for (key, cell) in self.cells.iter_mut() {
            cells.insert(
                key.clone(),
                json!({
                    "count": cell.count,
                    "sketch": cell.sketch.to_json(),
                    "total_analytic_us": cell.total_analytic_us,
                    "total_energy_uj": cell.total_energy_uj,
                    "total_us": cell.total_us
                }),
            );
        }
        let key = json!({
            "permutation": self.key.permutation,
            "quant": self.key.quant,
            "soc": self.key.soc,
            "workload": self.key.workload
        });
        json!({
            "cells": Value::Object(cells),
            "key": key,
            "schema_version": PROFILE_SCHEMA_VERSION
        })
    }

    /// Rebuild a profile from [`Profile::to_json`] output.
    pub fn from_json(doc: &Value) -> Result<Profile, ProfileError> {
        if let Some(problem) = validate_profile(doc) {
            return Err(ProfileError(problem));
        }
        let key_field = |name: &str| {
            doc["key"][name]
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| ProfileError(format!("key.{name} missing")))
        };
        let key = ProfileKey {
            workload: key_field("workload")?,
            permutation: key_field("permutation")?,
            quant: key_field("quant")?,
            soc: key_field("soc")?,
        };
        let mut profile = Profile::new(key);
        let cells = doc["cells"]
            .as_object()
            .ok_or_else(|| ProfileError("cells is not an object".to_string()))?;
        for (cell_key, raw) in cells {
            let num = |name: &str| {
                raw[name]
                    .as_f64()
                    .ok_or_else(|| ProfileError(format!("cell {cell_key}: {name} missing")))
            };
            let cell = ProfileCell {
                count: raw["count"]
                    .as_u64()
                    .ok_or_else(|| ProfileError(format!("cell {cell_key}: count missing")))?,
                total_us: num("total_us")?,
                total_analytic_us: num("total_analytic_us")?,
                total_energy_uj: num("total_energy_uj")?,
                sketch: QuantileSketch::from_json(&raw["sketch"])
                    .map_err(|e| ProfileError(format!("cell {cell_key}: {e}")))?,
            };
            profile.cells.insert(cell_key.clone(), cell);
        }
        Ok(profile)
    }

    /// Write as a profile file (one JSON document plus trailing newline).
    pub fn write(&mut self, path: &Path) -> Result<(), ProfileError> {
        let text = serde_json::to_string(&self.to_json())
            .map_err(|e| ProfileError(format!("serialize {}: {e}", path.display())))?;
        std::fs::write(path, format!("{text}\n"))
            .map_err(|e| ProfileError(format!("write {}: {e}", path.display())))
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

/// Schema validation for a profile document; `None` when well-formed,
/// otherwise a description of the first problem (the `obs_check` CI
/// binary surfaces it).
pub fn validate_profile(doc: &Value) -> Option<String> {
    if doc["schema_version"].as_u64() != Some(PROFILE_SCHEMA_VERSION) {
        return Some(format!(
            "bad schema_version: {} (expected {PROFILE_SCHEMA_VERSION})",
            doc["schema_version"]
        ));
    }
    for field in ["workload", "permutation", "quant", "soc"] {
        if doc["key"][field].as_str().is_none_or(str::is_empty) {
            return Some(format!("key.{field} missing or empty"));
        }
    }
    let Some(cells) = doc["cells"].as_object() else {
        return Some("cells is not an object".to_string());
    };
    for (key, cell) in cells {
        if parse_cell_key(key).is_none() {
            return Some(format!("cell key `{key}` is not kind/device/class"));
        }
        let count = cell["count"].as_u64();
        if count.is_none_or(|c| c == 0) {
            return Some(format!("cell {key}: count missing or zero"));
        }
        for field in ["total_us", "total_analytic_us", "total_energy_uj"] {
            match cell[field].as_f64() {
                Some(v) if v.is_finite() && v >= 0.0 => {}
                _ => return Some(format!("cell {key}: {field} missing or invalid")),
            }
        }
        match QuantileSketch::from_json(&cell["sketch"]) {
            Ok(sketch) => {
                if sketch.count() != count.unwrap_or(0) {
                    return Some(format!(
                        "cell {key}: sketch count {} != cell count {}",
                        sketch.count(),
                        count.unwrap_or(0)
                    ));
                }
            }
            Err(e) => return Some(format!("cell {key}: {e}")),
        }
    }
    None
}

/// Error from profile (de)serialization or store I/O.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileError(pub String);

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile error: {}", self.0)
    }
}

impl std::error::Error for ProfileError {}

/// Content-addressed on-disk profile database: one file per
/// [`ProfileKey`], named by the key's hash so distinct configurations
/// never collide and re-saving the same run overwrites in place.
#[derive(Debug, Clone)]
pub struct ProfileStore {
    dir: PathBuf,
}

impl ProfileStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ProfileStore, ProfileError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ProfileError(format!("create {}: {e}", dir.display())))?;
        Ok(ProfileStore { dir })
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a key addresses.
    pub fn path_for(&self, key: &ProfileKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Persist a profile into its slot; returns the path written.
    pub fn save(&self, profile: &mut Profile) -> Result<PathBuf, ProfileError> {
        let path = self.path_for(&profile.key);
        profile.write(&path)?;
        Ok(path)
    }

    /// Load the profile stored for `key`.
    pub fn load(&self, key: &ProfileKey) -> Result<Profile, ProfileError> {
        let path = self.path_for(key);
        if !path.exists() {
            return Err(ProfileError(format!(
                "no profile for {} in {}",
                key.canonical(),
                self.dir.display()
            )));
        }
        Profile::read(&path)
    }

    /// All profile files currently stored, sorted by name.
    pub fn list(&self) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "json")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("profile-"))
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ProfileKey {
        ProfileKey {
            workload: "fig4".to_string(),
            permutation: "byoc-cpu-apu".to_string(),
            quant: "f32".to_string(),
            soc: "dimensity-800".to_string(),
        }
    }

    fn sample_profile() -> Profile {
        let mut p = Profile::new(key());
        for i in 0..50 {
            let cell = |key| parse_cell_key(key).unwrap();
            p.record(cell("mac/apu/vendor_tuned"), 100.0 + i as f64, 100.0, 7.5);
            p.record(cell("elementwise/cpu/tvm_untuned"), 3.0, 3.0, 0.2);
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

    #[test]
    fn json_roundtrip_and_validation() {
        let mut p = sample_profile();
        let doc = p.to_json();
        assert!(
            validate_profile(&doc).is_none(),
            "{:?}",
            validate_profile(&doc)
        );
        let back = Profile::from_json(&doc).unwrap();
        assert_eq!(back.key, p.key);
        assert_eq!(back.total_count(), p.total_count());
        assert!((back.total_us() - p.total_us()).abs() < 1e-9);
        // A truncated cell is rejected with a pointed message.
        let mut broken = doc.clone();
        if let Value::Object(m) = &mut broken {
            m.insert("schema_version".into(), json!(99));
        }
        assert!(validate_profile(&broken).is_some());
        assert!(Profile::from_json(&broken).is_err());
    }

    #[test]
    fn hostile_sketch_counters_are_a_schema_violation_not_a_panic() {
        // What `obs_check --profile` runs on a file from disk. The cell's
        // second tuple claims a rank slack of u64::MAX: once accepted, the
        // next quantile query overflowed (panic in debug, wrong answer in
        // release).
        let doc: Value = serde_json::from_str(
            r#"{"cells":{"mac/apu/vendor_tuned":{"count":2,
                "sketch":{"count":2,"entries":[[1.0,1,0],[2.0,1,18446744073709551615]],
                          "epsilon":0.005,"max":2.0,"min":1.0,"sum":3.0},
                "total_analytic_us":3.0,"total_energy_uj":1.0,"total_us":3.0}},
               "key":{"permutation":"byoc-cpu-apu","quant":"f32","soc":"dimensity-800",
                      "workload":"fig4"},
               "schema_version":1}"#,
        )
        .unwrap();
        let problem = validate_profile(&doc).expect("must be rejected");
        assert!(
            problem.contains("mac/apu/vendor_tuned") && problem.contains("entry 1 bad delta"),
            "{problem}"
        );
        assert!(Profile::from_json(&doc).is_err());
    }

    #[test]
    fn store_roundtrip_is_byte_deterministic() {
        let dir = std::env::temp_dir().join(format!("tvmnp-profile-test-{}", std::process::id()));
        let store = ProfileStore::open(&dir).unwrap();
        let mut p = sample_profile();
        let path = store.save(&mut p).unwrap();
        let first = std::fs::read(&path).unwrap();
        // Re-building the same profile from scratch writes identical bytes.
        let mut again = sample_profile();
        store.save(&mut again).unwrap();
        assert_eq!(first, std::fs::read(&path).unwrap());
        let loaded = store.load(&key()).unwrap();
        assert_eq!(loaded.total_count(), p.total_count());
        assert_eq!(store.list(), vec![path]);
        assert!(store
            .load(&ProfileKey {
                workload: "other".to_string(),
                ..key()
            })
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_merge_accumulates_exactly() {
        let mut a = sample_profile();
        let b = sample_profile();
        a.merge(&b);
        assert_eq!(a.total_count(), 200);
        let cell = &a.cells["mac/apu/vendor_tuned"];
        assert_eq!(cell.count, 100);
        assert_eq!(cell.sketch.count(), 100);
    }

    #[test]
    fn distinct_keys_address_distinct_files() {
        let a = key();
        let b = ProfileKey {
            quant: "int8".to_string(),
            ..key()
        };
        assert_ne!(a.file_name(), b.file_name());
        assert_eq!(a.file_name(), key().file_name());
    }
}
