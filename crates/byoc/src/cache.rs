//! Content-addressed compiled-artifact cache.
//!
//! TVM treats compilation artifacts as reusable, deployable units
//! (Listing 6's `export_library`); this cache applies that idea across the
//! paper's seven target permutations: each (module fingerprint, target
//! permutation, quant config) triple is compiled exactly once, and every
//! later request — including a resilience-layer fallback re-dispatch —
//! instantiates an executor from the stored compile products without
//! running the partitioner, the Neuron codegen, or the planner again.
//!
//! The cache sits between the two halves of a build: [`compile`] makes the
//! cost-independent [`CachedArtifact`], the memory tier holds it typed, and
//! `instantiate` prices it under the *caller's* cost model on every
//! request. Bytes exist only at the file boundary: one serialization per
//! disk write, one parse per disk read, none on a memory hit.
//!
//! Bookkeeping is observable: [`ArtifactCache::stats`] counts hits,
//! misses and evictions, each eviction is a `cache.evict` event for the
//! installed event sink, and an LRU budget in weight bytes bounds resident
//! size. With a cache directory configured (`--cache-dir`), entries also
//! persist, surviving the process and LRU eviction, as the export's own
//! file plus a `key` member: a library `Artifact::load_library` reads, or
//! an NP-only build's `neuropilot` payload.

use crate::build::{compile, BuildError, CachedArtifact, CompiledModel, TargetMode};
use parking_lot::Mutex;
use serde_json::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use tvmnp_hwsim::CostModel;
use tvmnp_relay::module_fingerprint;
use tvmnp_relay::Module;

struct CacheState {
    /// key → (entry, weight bytes); recency tracked in `order` (back = newest).
    entries: HashMap<String, (CachedArtifact, usize)>,
    order: Vec<String>,
    total_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The process-wide artifact cache. Cheap to share via `Arc`; all methods
/// take `&self`.
pub struct ArtifactCache {
    state: Mutex<CacheState>,
    budget_bytes: usize,
    disk_dir: Option<PathBuf>,
}

/// Aggregate cache statistics for reports and bench JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from memory or disk.
    pub hits: u64,
    /// Requests that compiled.
    pub misses: u64,
    /// Entries evicted by the LRU byte budget.
    pub evictions: u64,
    /// Weight bytes (host params + Neuron constants) the memory tier holds
    /// — what the LRU budget is charged.
    pub resident_bytes: usize,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl ArtifactCache {
    /// In-memory cache with an LRU budget in weight bytes.
    pub fn new(budget_bytes: usize) -> Self {
        ArtifactCache {
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                order: Vec::new(),
                total_bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            budget_bytes,
            disk_dir: None,
        }
    }

    /// Also persist entries as JSON files under `dir` (created on first
    /// write). Disk entries survive eviction and process restarts.
    pub fn with_disk_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }

    /// Cache key for (module, mode, quant config).
    pub fn key(module: &Module, mode: TargetMode, quant: &str) -> String {
        format!("{}-{}-{}", module_fingerprint(module), mode.label(), quant)
    }

    /// Canonical quant-config label for the cache key: the input
    /// quantization of a model, or `"fp32"` for float models.
    pub fn quant_label(input_quant: Option<tvmnp_tensor::QuantParams>) -> String {
        match input_quant {
            Some(q) => format!("u8-s{}-z{}", q.scale, q.zero_point),
            None => "fp32".to_string(),
        }
    }

    /// Build-or-load: returns a runnable model, compiling only on a miss.
    /// `quant` labels the quantization config of the module (use `"fp32"`
    /// for float models); it is part of the key because two quantizations
    /// of one architecture are distinct compilation products.
    pub fn get_or_build(
        &self,
        module: &Module,
        mode: TargetMode,
        cost: &CostModel,
        quant: &str,
    ) -> Result<CompiledModel, BuildError> {
        let key = Self::key(module, mode, quant);
        let entry = match self.lookup(&key, mode) {
            Some(entry) => entry,
            None => {
                self.state.lock().misses += 1;
                let entry = compile(module, mode)?;
                self.persist(&key, &entry);
                self.admit(key, entry.clone());
                entry
            }
        };
        entry.instantiate(cost)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        let st = self.state.lock();
        CacheStats {
            hits: st.hits,
            misses: st.misses,
            evictions: st.evictions,
            resident_bytes: st.total_bytes,
        }
    }

    fn lookup(&self, key: &str, mode: TargetMode) -> Option<CachedArtifact> {
        {
            let mut st = self.state.lock();
            if let Some((entry, _)) = st.entries.get(key) {
                let entry = entry.clone();
                st.order.retain(|k| k != key);
                st.order.push(key.to_string());
                st.hits += 1;
                return Some(entry);
            }
        }
        // Miss in memory: an evicted or prior-process entry may be on disk.
        // The file carries the key it was stored under (it embeds the
        // module fingerprint), so a renamed, corrupted, hand-edited or
        // old-schema file is a miss, never a silently served wrong
        // artifact; so is a Neuron graph or plan that does not validate.
        let json = std::fs::read_to_string(self.disk_path(key)?).ok()?;
        let disk = serde_json::parse_value(&json).ok()?;
        if disk["key"].as_str()? != key {
            return None;
        }
        let entry = CachedArtifact::from_library_value(&disk, mode)?;
        self.state.lock().hits += 1;
        self.admit(key.to_string(), entry.clone());
        Some(entry)
    }

    /// Write the entry's library file plus its key to the cache dir, when
    /// one is configured: the one serialization of an insert, from a borrow.
    fn persist(&self, key: &str, entry: &CachedArtifact) {
        if let Some(path) = self.disk_path(key) {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let mut disk = entry.to_library_value();
            if let Value::Object(members) = &mut disk {
                members.insert("key".into(), key.into());
            }
            let _ = std::fs::write(&path, disk.to_string());
        }
    }

    /// Put an entry in memory, evicting LRU past the budget.
    fn admit(&self, key: String, entry: CachedArtifact) {
        let size = entry.weight_bytes();
        let mut st = self.state.lock();
        if let Some((_, old)) = st.entries.remove(&key) {
            st.total_bytes -= old;
            st.order.retain(|k| k != &key);
        }
        st.entries.insert(key.clone(), (entry, size));
        st.order.push(key);
        st.total_bytes += size;
        let mut evicted: Vec<(String, usize)> = Vec::new();
        while st.total_bytes > self.budget_bytes && st.order.len() > 1 {
            let victim = st.order.remove(0);
            if let Some((_, bytes)) = st.entries.remove(&victim) {
                st.total_bytes -= bytes;
                st.evictions += 1;
                evicted.push((victim, bytes));
            }
        }
        drop(st);
        // Event-sink forwarding happens outside the lock: the flight
        // recorder takes its own mutex and may do I/O on dump triggers.
        if tvmnp_telemetry::sink_active() {
            for (victim, bytes) in evicted {
                tvmnp_telemetry::emit_event(
                    "cache.evict",
                    vec![
                        ("key", victim.into()),
                        ("bytes", bytes.into()),
                        ("reason", "lru-budget".into()),
                    ],
                );
            }
        }
    }

    fn disk_path(&self, key: &str) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{key}.json")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::relay_build;
    use crate::codegen::NeuronBlob;
    use std::collections::HashMap as Map;
    use tvmnp_neuropilot::TargetPolicy;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{var, Function};
    use tvmnp_relay::{Conv2dAttrs, TensorType};
    use tvmnp_tensor::rng::TensorRng;
    use tvmnp_tensor::Tensor;

    fn conv_model(seed: u64) -> Module {
        let mut rng = TensorRng::new(seed);
        let x = var("x", TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let y = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        Module::from_main(Function::new(vec![x], y))
    }

    fn an_input() -> Map<String, Tensor> {
        let mut rng = TensorRng::new(99);
        let mut m = Map::new();
        m.insert("x".to_string(), rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0));
        m.insert(
            "input".to_string(),
            rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0),
        );
        m
    }

    #[test]
    fn second_build_hits_with_bit_identical_outputs() {
        // (The zero-codegen-span assertion lives in tests/serving_flow.rs,
        // which owns the process-global telemetry collector.)
        let cache = ArtifactCache::new(64 << 20);
        let m = conv_model(7);
        let cost = CostModel::default();
        for mode in [
            TargetMode::TvmOnly,
            TargetMode::Byoc(TargetPolicy::CpuApu),
            TargetMode::NeuroPilotOnly(TargetPolicy::ApuPrefer),
        ] {
            let mut first = cache.get_or_build(&m, mode, &cost, "fp32").unwrap();
            let mut second = cache.get_or_build(&m, mode, &cost, "fp32").unwrap();

            // The loaded model is numerically identical to the built one.
            let inputs = an_input();
            let (a, ta) = first.run(&inputs).unwrap();
            let (b, tb) = second.run(&inputs).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!(x.bit_eq(y), "cached build must be bit-identical");
            }
            assert_eq!(ta, tb);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 3);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_quant_label_is_a_different_entry() {
        let cache = ArtifactCache::new(64 << 20);
        let m = conv_model(7);
        let cost = CostModel::default();
        cache
            .get_or_build(&m, TargetMode::TvmOnly, &cost, "fp32")
            .unwrap();
        cache
            .get_or_build(&m, TargetMode::TvmOnly, &cost, "u8")
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn lru_budget_evicts_oldest() {
        let m1 = conv_model(1);
        let m2 = conv_model(2);
        let cost = CostModel::default();
        // Size one entry, then budget for ~1.5 entries: the second insert
        // must evict the first.
        let probe = ArtifactCache::new(usize::MAX);
        probe
            .get_or_build(&m1, TargetMode::TvmOnly, &cost, "fp32")
            .unwrap();
        let one = probe.stats().resident_bytes;
        assert!(one > 0);

        let cache = ArtifactCache::new(one + one / 2);
        cache
            .get_or_build(&m1, TargetMode::TvmOnly, &cost, "fp32")
            .unwrap();
        cache
            .get_or_build(&m2, TargetMode::TvmOnly, &cost, "fp32")
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        // The newer model is resident: a hit.
        cache
            .get_or_build(&m2, TargetMode::TvmOnly, &cost, "fp32")
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        // The evicted model compiles again — miss, not a crash.
        cache
            .get_or_build(&m1, TargetMode::TvmOnly, &cost, "fp32")
            .unwrap();
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn disk_cache_survives_a_new_cache_instance() {
        let dir = std::env::temp_dir().join(format!("tvmnp-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = conv_model(7);
        let cost = CostModel::default();
        {
            let cache = ArtifactCache::new(64 << 20).with_disk_dir(&dir);
            cache
                .get_or_build(&m, TargetMode::Byoc(TargetPolicy::CpuApu), &cost, "fp32")
                .unwrap();
            assert_eq!(cache.stats().misses, 1);
        }
        // Fresh instance, same dir: served from disk, no compile.
        let cache = ArtifactCache::new(64 << 20).with_disk_dir(&dir);
        cache
            .get_or_build(&m, TargetMode::Byoc(TargetPolicy::CpuApu), &cost, "fp32")
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_entry_with_mismatched_key_is_a_miss_not_a_wrong_artifact() {
        let dir = std::env::temp_dir().join(format!("tvmnp-cache-mkey-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m1 = conv_model(1);
        let m2 = conv_model(2);
        let cost = CostModel::default();
        {
            let cache = ArtifactCache::new(64 << 20).with_disk_dir(&dir);
            cache
                .get_or_build(&m1, TargetMode::TvmOnly, &cost, "fp32")
                .unwrap();
        }
        // Masquerade m1's artifact under m2's key, as a renamed / restored /
        // hand-copied cache file would.
        let k1 = ArtifactCache::key(&m1, TargetMode::TvmOnly, "fp32");
        let k2 = ArtifactCache::key(&m2, TargetMode::TvmOnly, "fp32");
        std::fs::rename(
            dir.join(format!("{k1}.json")),
            dir.join(format!("{k2}.json")),
        )
        .unwrap();

        // A fresh instance must detect the embedded-key mismatch and
        // recompile m2 instead of serving m1's artifact.
        let cache = ArtifactCache::new(64 << 20).with_disk_dir(&dir);
        let mut built = cache
            .get_or_build(&m2, TargetMode::TvmOnly, &cost, "fp32")
            .unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);

        // And the recompile really is m2: bit-identical to a direct build.
        let inputs = an_input();
        let (got, _) = built.run(&inputs).unwrap();
        let mut direct = relay_build(&m2, TargetMode::TvmOnly, cost).unwrap();
        let (want, _) = direct.run(&inputs).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!(a.bit_eq(b));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_disk_format_without_key_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("tvmnp-cache-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = conv_model(3);
        let key = ArtifactCache::key(&m, TargetMode::TvmOnly, "fp32");
        // Pre-wrapper files stored the bare entry; they no longer parse as
        // `DiskEntry` and must fall through to a rebuild, not an error.
        std::fs::write(dir.join(format!("{key}.json")), "{\"not\":\"a DiskEntry\"}").unwrap();
        let cache = ArtifactCache::new(64 << 20).with_disk_dir(&dir);
        cache
            .get_or_build(&m, TargetMode::TvmOnly, &CostModel::default(), "fp32")
            .unwrap();
        assert_eq!(cache.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_inserts_of_one_key_keep_resident_bytes_constant() {
        let cache = ArtifactCache::new(usize::MAX);
        let entry = compile(&conv_model(7), TargetMode::TvmOnly).unwrap();
        cache.admit("k".to_string(), entry.clone());
        let once = cache.stats().resident_bytes;
        assert_eq!(once, entry.weight_bytes());
        assert!(once > 0);
        cache.admit("k".to_string(), entry);
        assert_eq!(cache.stats().resident_bytes, once);
    }

    /// A cache file is bytes we did not necessarily write: a tensor whose
    /// shape lies about its payload does not decode, so it is a miss and a
    /// correct rebuild — not a served entry that panics in a kernel.
    #[test]
    fn disk_entry_with_a_lying_tensor_shape_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("tvmnp-cache-lying-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = conv_model(7);
        let cost = CostModel::default();
        ArtifactCache::new(64 << 20)
            .with_disk_dir(&dir)
            .get_or_build(&m, TargetMode::TvmOnly, &cost, "fp32")
            .unwrap();
        let file = dir.join(format!(
            "{}.json",
            ArtifactCache::key(&m, TargetMode::TvmOnly, "fp32")
        ));
        let honest = std::fs::read_to_string(&file).unwrap();
        let weight_shape = "\"quant\":null,\"shape\":[4,3,3,3]";
        assert_eq!(honest.matches(weight_shape).count(), 1);
        let lying = honest.replace(weight_shape, "\"quant\":null,\"shape\":[4,3,64,64]");
        std::fs::write(&file, lying).unwrap();

        let cache = ArtifactCache::new(64 << 20).with_disk_dir(&dir);
        let mut rebuilt = cache
            .get_or_build(&m, TargetMode::TvmOnly, &cost, "fp32")
            .unwrap();
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 0));
        let inputs = an_input();
        let (got, _) = rebuilt.run(&inputs).unwrap();
        let (want, _) = relay_build(&m, TargetMode::TvmOnly, cost)
            .unwrap()
            .run(&inputs)
            .unwrap();
        assert!(got[0].bit_eq(&want[0]));
        assert_eq!(std::fs::read_to_string(&file).unwrap(), honest, "rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An external entry another compiler wrote is not a `neuropilot` blob,
    /// even when its payload would decode as one: a miss and a rebuild.
    #[test]
    fn disk_entry_of_another_compiler_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("tvmnp-cache-nnapi-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = conv_model(7);
        let (mode, cost) = (TargetMode::Byoc(TargetPolicy::CpuApu), CostModel::default());
        let writer = ArtifactCache::new(64 << 20).with_disk_dir(&dir);
        writer.get_or_build(&m, mode, &cost, "fp32").unwrap();
        let file = dir.join(format!("{}.json", ArtifactCache::key(&m, mode, "fp32")));
        let honest = std::fs::read_to_string(&file).unwrap();
        let neuropilot = "\"compiler\":\"neuropilot\"";
        assert_eq!(honest.matches(neuropilot).count(), 1);
        std::fs::write(&file, honest.replace(neuropilot, "\"compiler\":\"nnapi\"")).unwrap();

        let cache = ArtifactCache::new(64 << 20).with_disk_dir(&dir);
        let rebuilt = cache.get_or_build(&m, mode, &cost, "fp32").unwrap();
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 0));
        let direct = relay_build(&m, mode, cost).unwrap();
        assert_eq!(rebuilt.estimate_breakdown(), direct.estimate_breakdown());
        assert_eq!(std::fs::read_to_string(&file).unwrap(), honest, "rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A Neuron graph or plan read from a cache file is checked before it
    /// is priced: under NP-only and BYOC, a malformed one is a miss and a
    /// correct rebuild — not a panic in the ledger.
    fn assert_malformed_entry_is_a_miss(
        tag: &str,
        corrupt: impl Fn(&mut tvmnp_neuropilot::NeuronGraph, &mut tvmnp_neuropilot::ExecutionPlan),
    ) {
        let dir = std::env::temp_dir().join(format!("tvmnp-cache-{tag}-{}", std::process::id()));
        let m = conv_model(11);
        let cost = CostModel::default();
        for mode in [
            TargetMode::NeuroPilotOnly(TargetPolicy::ApuPrefer),
            TargetMode::Byoc(TargetPolicy::ApuPrefer),
        ] {
            let _ = std::fs::remove_dir_all(&dir);
            let mut entry = compile(&m, mode).unwrap();
            match &mut entry {
                CachedArtifact::Neuron(NeuronBlob { graph, plan, .. }) => corrupt(graph, plan),
                CachedArtifact::Tvm { modules, .. } => {
                    let NeuronBlob { graph, plan, .. } = &mut modules[0];
                    corrupt(graph, plan)
                }
            }
            let key = ArtifactCache::key(&m, mode, "fp32");
            ArtifactCache::new(64 << 20)
                .with_disk_dir(&dir)
                .persist(&key, &entry);

            let cache = ArtifactCache::new(64 << 20).with_disk_dir(&dir);
            let rebuilt = cache.get_or_build(&m, mode, &cost, "fp32").unwrap();
            assert_eq!((cache.stats().misses, cache.stats().hits), (1, 0), "{mode}");
            let direct = relay_build(&m, mode, cost.clone()).unwrap();
            assert_eq!(rebuilt.estimate_breakdown(), direct.estimate_breakdown());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_entry_with_fewer_placements_than_ops_is_a_miss() {
        assert_malformed_entry_is_a_miss("placements", |_, plan| {
            plan.placements.pop();
        });
    }

    #[test]
    fn disk_entry_with_an_out_of_range_input_is_a_miss() {
        assert_malformed_entry_is_a_miss("input", |graph, _| graph.ops[0].inputs[0] = 999);
    }

    #[test]
    fn disk_entry_with_a_rank_2_conv_weight_is_a_miss() {
        assert_malformed_entry_is_a_miss("weight-rank", |graph, _| {
            let w = graph.ops[0].inputs[1];
            graph.tensors[w].shape = [4, 27].into();
        });
    }

    #[test]
    fn disk_entry_with_an_op_without_output_is_a_miss() {
        assert_malformed_entry_is_a_miss("output", |graph, _| graph.ops[0].outputs.clear());
    }
}
