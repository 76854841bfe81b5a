//! The deploy path end to end: build → cache → export → load, on the four
//! showcase models. Whichever way a compiled model is reached — a fresh
//! `relay_build`, a cache miss, a memory hit, a disk hit, or Listing 6's
//! `export_library` → `load_library` → `AndroidDevice::load` — it must be
//! the same model: same output bits, same simulated time, same ledger.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::path::PathBuf;
use tvm_neuropilot::byoc::build::{compile, relay_build_with_artifact};
use tvm_neuropilot::byoc::{
    relay_build, ArtifactCache, BuildError, CachedArtifact, CompiledModel, NeuronBlob,
    NeuronModule, Permutation, TargetMode,
};
use tvm_neuropilot::hwsim::{CostModel, WorkKind};
use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection, Model};
use tvm_neuropilot::neuropilot::support::NeuronSupport;
use tvm_neuropilot::neuropilot::NeuronGraph;
use tvm_neuropilot::relay::passes::{fold_constants, partition_graph, simplify};
use tvm_neuropilot::relay::TensorType;
use tvm_neuropilot::runtime::module::ExternalModule;
use tvm_neuropilot::runtime::{AndroidDevice, Artifact, ExecutorGraph, LoaderRegistry, NodeKind};
use tvm_neuropilot::tensor::Tensor;

const MODES: [Permutation; 3] = [
    Permutation::TvmOnly,
    Permutation::ByocCpuApu,
    Permutation::NpCpuApu,
];

fn showcase_models() -> Vec<Model> {
    vec![
        anti_spoofing::anti_spoofing_model(1),
        emotion::emotion_model(2),
        object_detection::mobilenet_ssd_model(3),
        object_detection::yolo_model(4),
    ]
}

fn quant(model: &Model) -> String {
    ArtifactCache::quant_label(model.input_quant)
}

/// A fresh directory under the system temp dir, unique to this test.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tvmnp-deploy-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What must not depend on how a compiled model was reached.
struct Facts {
    outputs: Vec<Tensor>,
    run_us: f64,
    estimate_us: f64,
    ledger_len: usize,
    subgraphs: usize,
}

fn same_bits(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y))
}

impl PartialEq for Facts {
    fn eq(&self, other: &Facts) -> bool {
        same_bits(&self.outputs, &other.outputs)
            && (self.run_us, self.estimate_us) == (other.run_us, other.estimate_us)
            && (self.ledger_len, self.subgraphs) == (other.ledger_len, other.subgraphs)
    }
}

/// The scalars only: a failed comparison should not print the tensors.
impl std::fmt::Debug for Facts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Facts {
            outputs,
            run_us,
            estimate_us,
            ledger_len,
            subgraphs,
        } = self;
        write!(
            f,
            "{} outputs, run {run_us} us, estimate {estimate_us} us, \
             {ledger_len} ledger entries, {subgraphs} subgraphs",
            outputs.len()
        )
    }
}

fn facts_of(model: &mut CompiledModel, inputs: &HashMap<String, Tensor>) -> Facts {
    let (outputs, run_us) = model.run(inputs).unwrap();
    Facts {
        outputs,
        run_us,
        estimate_us: model.estimate_us(),
        ledger_len: model.estimate_breakdown().len(),
        subgraphs: model.num_subgraphs(),
    }
}

fn phone(cost: &CostModel) -> AndroidDevice {
    let mut loaders = LoaderRegistry::new();
    loaders.register("neuropilot", NeuronModule::loader(cost.clone()));
    AndroidDevice::new("OPPO Reno4 Z 5G", loaders, cost.clone())
}

/// Constant bytes a model's weights occupy: host params plus the constants
/// of every Neuron graph (the external blobs of a TVM-side artifact, or
/// the whole network under NP-only).
fn weight_bytes(model: &CompiledModel, artifact: Option<&Artifact>) -> usize {
    let neuron = |g: &NeuronGraph| -> usize {
        let consts = g.tensors.iter().filter_map(|t| t.data.as_ref());
        consts.map(|d| d.size_bytes()).sum()
    };
    match (model, artifact) {
        (CompiledModel::Neuron { network, .. }, _) => neuron(network.graph()),
        (CompiledModel::Tvm { .. }, Some(artifact)) => {
            let blobs = artifact.externals.iter();
            let graphs = blobs.map(|b| NeuronGraph::from_value(&b.payload["graph"]).unwrap());
            artifact.graph.param_bytes() + graphs.map(|g| neuron(&g)).sum::<usize>()
        }
        (CompiledModel::Tvm { .. }, None) => unreachable!("TVM-side builds export artifacts"),
    }
}

#[test]
fn every_way_to_a_compiled_model_gives_the_same_model() {
    let cost = CostModel::default();
    let phone = phone(&cost);
    let dir = scratch_dir("same-model");
    for model in showcase_models() {
        let inputs = model.sample_inputs(7);
        for p in MODES {
            let label = format!("{} / {}", model.name, p.label());
            let mut fresh = match relay_build(&model.module, p.mode(), cost.clone()) {
                Ok(m) => m,
                Err(BuildError::Unsupported(_)) if p == Permutation::NpCpuApu => continue,
                Err(e) => panic!("{label}: {e}"),
            };
            let want = facts_of(&mut fresh, &inputs);
            let get = |cache: &ArtifactCache| {
                let mut got = cache
                    .get_or_build(&model.module, p.mode(), &cost, &quant(&model))
                    .unwrap();
                facts_of(&mut got, &inputs)
            };

            let memory = ArtifactCache::new(usize::MAX);
            assert_eq!(get(&memory), want, "{label}: memory-only miss");
            assert_eq!(get(&memory), want, "{label}: memory hit");
            assert_eq!((memory.stats().misses, memory.stats().hits), (1, 1));

            let writer = ArtifactCache::new(usize::MAX).with_disk_dir(&dir);
            assert_eq!(get(&writer), want, "{label}: disk-backed miss");
            let reader = ArtifactCache::new(usize::MAX).with_disk_dir(&dir);
            assert_eq!(get(&reader), want, "{label}: disk hit");
            assert_eq!((reader.stats().misses, reader.stats().hits), (0, 1));
            assert_eq!(
                reader.stats().resident_bytes,
                writer.stats().resident_bytes,
                "{label}: a disk hit is admitted at the size it was inserted at"
            );

            // Listing 6: export on the host, load on the phone.
            let (_, artifact) =
                relay_build_with_artifact(&model.module, p.mode(), cost.clone()).unwrap();
            let Some(artifact) = artifact else {
                assert_eq!(p, Permutation::NpCpuApu, "{label}: no artifact");
                continue;
            };
            let lib = dir.join("model.so.json");
            artifact.export_library(&lib).unwrap();
            let loaded = Artifact::load_library(&lib).unwrap();
            let mut ex = phone.load(&loaded).unwrap();
            ex.set_input(&model.input_name, inputs[&model.input_name].clone())
                .unwrap();
            let run_us = ex.run().unwrap();
            let outputs: Vec<Tensor> = (0..ex.num_outputs())
                .map(|i| ex.get_output(i).unwrap())
                .collect();
            assert!(same_bits(&outputs, &want.outputs), "{label}: phone outputs");
            assert_eq!(run_us, want.run_us, "{label}: phone run time");
            assert_eq!(ex.estimate_time_us(), want.estimate_us, "{label}: phone");
            assert_eq!(ex.ledger().len(), want.ledger_len, "{label}: phone ledger");
            assert_eq!(
                (loaded.graph.nodes.iter())
                    .filter(|n| matches!(n.kind, NodeKind::External { .. }))
                    .count(),
                loaded.externals.len(),
                "{label}: every external symbol has its blob"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hit is priced under the cost model of whoever asks, not of whoever
/// filled the cache: compile products carry no cost.
#[test]
fn a_hit_is_priced_under_the_callers_cost_model() {
    let default = CostModel::default();
    let scaled = CostModel::default().with_kind_scale(WorkKind::MacHeavy, 2.0);
    let cache = ArtifactCache::new(usize::MAX);
    for model in showcase_models() {
        for p in MODES {
            let Ok(filled) = cache.get_or_build(&model.module, p.mode(), &default, &quant(&model))
            else {
                continue;
            };
            let hit = cache
                .get_or_build(&model.module, p.mode(), &scaled, &quant(&model))
                .unwrap();
            let fresh = relay_build(&model.module, p.mode(), scaled.clone()).unwrap();
            let label = format!("{} / {}", model.name, p.label());
            assert_eq!(hit.estimate_us(), fresh.estimate_us(), "{label}");
            assert!(
                hit.estimate_us() > filled.estimate_us(),
                "{label}: unscaled"
            );
        }
    }
    // NeuroPilot refuses three of the four models whole: a miss each.
    assert_eq!((cache.stats().hits, cache.stats().misses), (9, 12));
}

/// The LRU budget counts what the memory tier holds — weight bytes — not
/// the length of a serialization nobody needs.
#[test]
fn resident_bytes_is_the_weight_bytes_of_the_entries() {
    let cost = CostModel::default();
    let cache = ArtifactCache::new(usize::MAX);
    let mut want = 0;
    for model in showcase_models() {
        for p in MODES {
            let Ok((built, artifact)) =
                relay_build_with_artifact(&model.module, p.mode(), cost.clone())
            else {
                continue;
            };
            want += weight_bytes(&built, artifact.as_ref());
            cache
                .get_or_build(&model.module, p.mode(), &cost, &quant(&model))
                .unwrap();
            assert_eq!(
                cache.stats().resident_bytes,
                want,
                "after inserting {} / {}",
                model.name,
                p.label()
            );
        }
    }
    assert!(want > 0);
}

/// `relay_build_with_artifact` hands back exactly what `Artifact::export`
/// over the graph and its linked modules produces (the file schema of
/// §4.5 did not move when the cache stopped holding artifacts).
#[test]
fn the_built_artifact_is_the_export_of_the_linked_modules() {
    let cost = CostModel::default();
    for model in showcase_models() {
        let policy = tvm_neuropilot::neuropilot::TargetPolicy::CpuApu;
        let (_, artifact) =
            relay_build_with_artifact(&model.module, TargetMode::Byoc(policy), cost.clone())
                .unwrap();
        let built = serde_json::to_string(&artifact.unwrap()).unwrap();

        let prepared = fold_constants(&simplify(&model.module));
        let (partitioned, _) = partition_graph(&prepared, &NeuronSupport).unwrap();
        let graph = ExecutorGraph::build(&partitioned).unwrap();
        let modules: Vec<NeuronModule> = partitioned
            .external_functions()
            .into_iter()
            .map(|n| {
                NeuronModule::codegen(n, &partitioned.functions[n], policy, cost.clone()).unwrap()
            })
            .collect();
        let refs: Vec<&dyn ExternalModule> =
            modules.iter().map(|m| m as &dyn ExternalModule).collect();
        let by_hand = serde_json::to_string(&Artifact::export(&graph, &refs)).unwrap();

        assert!(
            built == by_hand,
            "{}: built artifact differs from the hand export",
            model.name
        );
        // An export is a pure function of the model: a second compile in
        // the same process, with other expression ids, gives the same bytes.
        let again = compile(&model.module, TargetMode::Byoc(policy)).unwrap();
        assert!(
            serde_json::to_string(&again.artifact().unwrap()).unwrap() == built,
            "{}: two compiles of one model export different bytes",
            model.name
        );

        let (_, tvm_only) =
            relay_build_with_artifact(&model.module, TargetMode::TvmOnly, cost.clone()).unwrap();
        let by_hand = Artifact::export(&ExecutorGraph::build(&prepared).unwrap(), &[]);
        assert!(
            serde_json::to_string(&tvm_only.unwrap()).unwrap()
                == serde_json::to_string(&by_hand).unwrap(),
            "{}: TVM-only artifact differs from the hand export",
            model.name
        );
    }
}

/// A disk-tier file is the export itself: a TVM-side entry loads with
/// `Artifact::load_library` and runs on the phone as the fresh build does,
/// and without its `key` member it is byte for byte what `export_library`
/// writes; an NP-only entry is a payload the `neuropilot` loader decodes.
#[test]
fn a_disk_tier_file_is_the_exported_library() {
    let cost = CostModel::default();
    let phone = phone(&cost);
    let load_neuron = NeuronModule::loader(cost.clone());
    let dir = scratch_dir("library");
    for model in showcase_models() {
        let inputs = model.sample_inputs(7);
        let input = &inputs[&model.input_name];
        for p in MODES {
            let label = format!("{} / {}", model.name, p.label());
            let Ok(mut fresh) = relay_build(&model.module, p.mode(), cost.clone()) else {
                assert_eq!(p, Permutation::NpCpuApu, "{label}: builds");
                continue;
            };
            let (want, want_us) = fresh.run(&inputs).unwrap();
            let cache = ArtifactCache::new(usize::MAX).with_disk_dir(&dir);
            cache
                .get_or_build(&model.module, p.mode(), &cost, &quant(&model))
                .unwrap();
            let key = ArtifactCache::key(&model.module, p.mode(), &quant(&model));
            let file = dir.join(format!("{key}.json"));
            let text = std::fs::read_to_string(&file).unwrap();
            let mut library = serde_json::parse_value(&text).unwrap();
            let Value::Object(members) = &mut library else {
                panic!("{label}: the file is an object");
            };
            assert_eq!(members.remove("key"), Some(Value::from(key.as_str())));

            if p == Permutation::NpCpuApu {
                let module = load_neuron("main", &library).unwrap();
                let (outputs, run_us) = module.run(&[input]).unwrap();
                assert!(
                    same_bits(&outputs, &want),
                    "{label}: loaded payload outputs"
                );
                assert_eq!(run_us, want_us, "{label}: loaded payload run time");
                continue;
            }
            let mut ex = phone.load(&Artifact::load_library(&file).unwrap()).unwrap();
            ex.set_input(&model.input_name, input.clone()).unwrap();
            let run_us = ex.run().unwrap();
            let outputs: Vec<Tensor> = (0..ex.num_outputs())
                .map(|i| ex.get_output(i).unwrap())
                .collect();
            assert!(same_bits(&outputs, &want), "{label}: phone outputs");
            assert_eq!(run_us, want_us, "{label}: phone run time");

            let (_, artifact) =
                relay_build_with_artifact(&model.module, p.mode(), cost.clone()).unwrap();
            let lib = dir.join("model.so.json");
            artifact.unwrap().export_library(&lib).unwrap();
            assert!(
                library.to_string() == std::fs::read_to_string(&lib).unwrap(),
                "{label}: the cache file less its key is not the exported library"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Neuron payload as layout version 1 wrote it: with its symbol.
fn v1_payload(blob: &NeuronBlob) -> Value {
    json!({
        "graph": blob.graph,
        "plan": blob.plan,
        "policy": blob.policy,
        "symbol": blob.symbol
    })
}

/// A library as layout version 1 wrote it: an input index beside the
/// `Input` nodes, a type on every `Param` node beside its tensor's, and
/// every Neuron symbol in its payload as well as in its entry.
fn v1_library(graph: &ExecutorGraph, modules: &[NeuronBlob]) -> Value {
    let mut v1_graph = graph.to_value();
    let Value::Object(members) = &mut v1_graph else {
        unreachable!("a graph is an object")
    };
    let inputs = graph
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(k, n)| match &n.kind {
            NodeKind::Input { name } => Some((name.clone(), Value::from(k as u64))),
            _ => None,
        });
    members.insert("input_index".into(), Value::Object(inputs.collect()));
    let Some(Value::Array(nodes)) = members.get_mut("nodes") else {
        unreachable!("a graph has nodes")
    };
    for (node, typed) in nodes.iter_mut().zip(&graph.nodes) {
        if let (Value::Object(node), NodeKind::Param { index }) = (node, &typed.kind) {
            let t = &graph.params[*index];
            let declared = TensorType::new(t.shape().clone(), t.dtype());
            node.insert("out_types".into(), json!([declared]));
        }
    }
    let entry = |b: &NeuronBlob| {
        let payload = v1_payload(b);
        json!({ "compiler": "neuropilot", "payload": payload, "symbol": b.symbol })
    };
    let externals: Vec<Value> = modules.iter().map(entry).collect();
    json!({ "externals": externals, "graph": v1_graph, "version": 1u32 })
}

/// `file` plus the `key` member the disk tier stores it under.
fn with_key(mut file: Value, key: &str) -> Value {
    let Value::Object(members) = &mut file else {
        unreachable!("a cache file is an object")
    };
    members.insert("key".into(), key.into());
    file
}

/// The cache's disk schema moved three times: a file an older build wrote
/// under the right key — the `{"key", "entry"}` envelope around
/// `Tvm { artifact, .. }`, or around the products with their four derived
/// facts, or a library (an NP-only payload) of layout version 1 — is a
/// miss, rebuilt correctly and overwritten: never an error, never a wrong
/// model.
#[test]
fn an_entry_in_the_old_disk_schema_is_a_miss_and_is_overwritten() {
    let cost = CostModel::default();
    let dir = scratch_dir("old-schema");
    let models = showcase_models();
    let mut cases = Vec::new();
    for model in &models {
        for p in [Permutation::ByocCpuApu, Permutation::NpCpuApu] {
            let Ok((fresh, artifact)) =
                relay_build_with_artifact(&model.module, p.mode(), cost.clone())
            else {
                continue;
            };
            let key = ArtifactCache::key(&model.module, p.mode(), &quant(model));
            let old = |entry: Value| json!({ "key": key, "entry": entry });
            let names = vec![model.input_name.clone()];
            let (entry, v1) = match compile(&model.module, p.mode()).unwrap() {
                CachedArtifact::Tvm { graph, modules } => {
                    let v1 = v1_library(&graph, &modules);
                    let modules: Vec<Value> = modules.iter().map(v1_payload).collect();
                    let entry = json!({ "Tvm": json!({
                        "graph": graph,
                        "modules": modules,
                        "input_names": names,
                        "num_subgraphs": fresh.num_subgraphs(),
                        "offloaded_calls": 0usize,
                        "host_calls": 0usize
                    }) });
                    (entry, v1)
                }
                CachedArtifact::Neuron(blob) => {
                    let entry = json!({ "Neuron": json!({
                        "graph": blob.graph,
                        "plan": blob.plan,
                        "input_names": names
                    }) });
                    (entry, v1_payload(&blob))
                }
            };
            cases.push((model, p, old(entry)));
            cases.push((model, p, with_key(v1, &key)));
            if let Some(artifact) = artifact {
                let entry = json!({ "Tvm": json!({
                    "artifact": artifact,
                    "input_names": names,
                    "num_subgraphs": fresh.num_subgraphs(),
                    "offloaded_calls": 0usize,
                    "host_calls": 0usize
                }) });
                cases.push((model, p, old(entry)));
            }
        }
    }
    assert_eq!(
        cases.len(),
        14,
        "three schemas per BYOC build, two per NP-only build"
    );
    for (model, p, file) in cases {
        let label = format!("{} / {}", model.name, p.label());
        let mode = p.mode();
        let key = ArtifactCache::key(&model.module, mode, &quant(model));
        let old = file.to_string();
        let path = dir.join(format!("{key}.json"));
        std::fs::write(&path, &old).unwrap();

        let inputs = model.sample_inputs(7);
        let want = facts_of(
            &mut relay_build(&model.module, mode, cost.clone()).unwrap(),
            &inputs,
        );
        let cache = ArtifactCache::new(usize::MAX).with_disk_dir(&dir);
        let mut rebuilt = cache
            .get_or_build(&model.module, mode, &cost, &quant(model))
            .unwrap();
        assert_eq!(
            (cache.stats().misses, cache.stats().hits),
            (1, 0),
            "{label}"
        );
        assert_eq!(facts_of(&mut rebuilt, &inputs), want, "{label}");
        assert_ne!(
            std::fs::read_to_string(&path).unwrap(),
            old,
            "{label}: overwritten"
        );

        let reader = ArtifactCache::new(usize::MAX).with_disk_dir(&dir);
        let mut reread = reader
            .get_or_build(&model.module, mode, &cost, &quant(model))
            .unwrap();
        assert_eq!(
            (reader.stats().misses, reader.stats().hits),
            (0, 1),
            "{label}"
        );
        assert_eq!(facts_of(&mut reread, &inputs), want, "{label}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every member of `value`, at any depth, with its name.
fn members<'a>(value: &'a Value, out: &mut Vec<(&'a str, &'a Value)>) {
    match value {
        Value::Object(map) => {
            for (name, member) in map {
                out.push((name, member));
                members(member, out);
            }
        }
        Value::Array(items) => items.iter().for_each(|item| members(item, out)),
        _ => {}
    }
}

/// The names of `value`'s members, at any depth.
fn member_names(value: &Value) -> Vec<&str> {
    let mut all = Vec::new();
    members(value, &mut all);
    all.into_iter().map(|(name, _)| name).collect()
}

/// A compiled model's file states each fact once (layout version 2): an
/// input's name is its `Input` node, with no index beside it; a param's
/// type is its tensor's, so a `Param` node declares none; an external's
/// symbol is its entry's, in no payload. Checked on the library of every
/// showcase model under TVM-only and BYOC CPU+APU, and on the NP-only
/// disk-tier file, a bare payload.
#[test]
fn a_library_states_each_fact_once() {
    let cost = CostModel::default();
    let dir = scratch_dir("each-fact-once");
    let (mut libraries, mut param_nodes) = (0, 0);
    for model in showcase_models() {
        for p in MODES {
            let label = format!("{} / {}", model.name, p.label());
            if p == Permutation::NpCpuApu {
                let cache = ArtifactCache::new(usize::MAX).with_disk_dir(&dir);
                let quant = quant(&model);
                if cache
                    .get_or_build(&model.module, p.mode(), &cost, &quant)
                    .is_err()
                {
                    continue;
                }
                let key = ArtifactCache::key(&model.module, p.mode(), &quant);
                let text = std::fs::read_to_string(dir.join(format!("{key}.json"))).unwrap();
                let payload = serde_json::parse_value(&text).unwrap();
                let names = member_names(&payload);
                assert!(
                    !names.contains(&"symbol"),
                    "{label}: a payload states a symbol"
                );
                assert!(!names.contains(&"input_index"), "{label}");
                libraries += 1;
                continue;
            }
            let (_, artifact) =
                relay_build_with_artifact(&model.module, p.mode(), cost.clone()).unwrap();
            let lib = dir.join("model.so.json");
            artifact.unwrap().export_library(&lib).unwrap();
            let text = std::fs::read_to_string(&lib).unwrap();
            let library = serde_json::parse_value(&text).unwrap();
            assert!(!member_names(&library).contains(&"input_index"), "{label}");

            let nodes = library["graph"]["nodes"].as_array().unwrap();
            let params = nodes.iter().filter(|n| n["kind"].get("Param").is_some());
            let declared: Vec<&Value> = params.map(|n| &n["out_types"]).collect();
            param_nodes += declared.len();
            assert!(
                declared
                    .iter()
                    .all(|t| t.as_array().is_some_and(Vec::is_empty)),
                "{label}: a param node declares a type"
            );

            let externals = library["externals"].as_array().unwrap();
            for entry in externals {
                let names = member_names(&entry["payload"]);
                assert!(
                    !names.contains(&"symbol"),
                    "{label}: a payload states a symbol"
                );
            }
            let called = nodes
                .iter()
                .filter_map(|n| n["kind"]["External"]["symbol"].as_str());
            let called: Vec<&str> = called.collect();
            assert_eq!(called.is_empty(), p == Permutation::TvmOnly, "{label}");
            for symbol in &called {
                let stated = externals
                    .iter()
                    .filter(|e| e["symbol"].as_str() == Some(symbol));
                assert_eq!(stated.count(), 1, "{label}: {symbol} is stated once");
            }
            assert_eq!(externals.len(), called.len(), "{label}: one entry per call");
            libraries += 1;
        }
    }
    assert_eq!(
        libraries, 9,
        "four models under two TVM-side modes, one NP-only"
    );
    assert!(param_nodes > 0, "the host graphs hold weights");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Characters a JSON string must escape or may carry raw, next to each
/// other: quote, backslash, controls, 2-/3-/4-byte scalars.
fn awkward_char() -> impl Strategy<Value = char> {
    const AWKWARD: [char; 12] = [
        '"', '\\', '/', '\n', '\u{1}', '\u{1f}', 'a', 'é', '\u{7ff}', '€', '\u{ffff}', '😀',
    ];
    (0usize..AWKWARD.len()).prop_map(|i| AWKWARD[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every file on the deploy path goes through this parser: what the
    /// emitter prints, it reads back, whatever the strings hold.
    #[test]
    fn json_strings_round_trip(chars in proptest::collection::vec(awkward_char(), 0..24)) {
        let text: String = chars.into_iter().collect();
        let value = serde_json::json!({ "k": text.clone(), "nested": serde_json::json!([text]) });
        prop_assert_eq!(serde_json::parse_value(&value.to_string()).unwrap(), value);
    }
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The bytes at the file boundary are pinned: `export_library`'s file of
/// every showcase model under TVM-only and BYOC CPU+APU, and the NP-only
/// disk-tier file less its `key` (the key hashes the module's `Debug`
/// text, so it is not a file-format fact). A change to how an operator's
/// attributes are held in memory must not move a byte of any of them.
#[test]
fn exported_library_bytes_are_pinned() {
    let cost = CostModel::default();
    let dir = scratch_dir("library-bytes");
    let mut digests = Vec::new();
    for model in showcase_models() {
        for p in MODES {
            let label = format!("{} / {}", model.name, p.label());
            let bytes = if p == Permutation::NpCpuApu {
                let cache = ArtifactCache::new(usize::MAX).with_disk_dir(&dir);
                let quant = quant(&model);
                if cache
                    .get_or_build(&model.module, p.mode(), &cost, &quant)
                    .is_err()
                {
                    continue;
                }
                let key = ArtifactCache::key(&model.module, p.mode(), &quant);
                let text = std::fs::read_to_string(dir.join(format!("{key}.json"))).unwrap();
                let mut file = serde_json::parse_value(&text).unwrap();
                let Value::Object(members) = &mut file else {
                    panic!("{label}: the file is an object");
                };
                assert!(members.remove("key").is_some(), "{label}: keyed");
                file.to_string().into_bytes()
            } else {
                let (_, artifact) =
                    relay_build_with_artifact(&model.module, p.mode(), cost.clone()).unwrap();
                let lib = dir.join("model.so.json");
                artifact.unwrap().export_library(&lib).unwrap();
                std::fs::read(&lib).unwrap()
            };
            let (digest, n) = (fnv1a(&bytes), bytes.len());
            digests.push(format!("{label}: {digest:016x} {n}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let want = [
        "anti-spoofing / TVM-only: 3d9418767fca9536 1060432",
        "anti-spoofing / BYOC CPU+APU: 183f6acb8a2a864c 1065253",
        "emotion-detection / TVM-only: 2ed82c28e28dd02e 1005742",
        "emotion-detection / BYOC CPU+APU: 739e4deeda92ddc6 1006700",
        "emotion-detection / NP-only CPU+APU: b0fbe65d857ac405 1006336",
        "mobilenet-ssd-quant / TVM-only: f444b74b156dfe72 93950",
        "mobilenet-ssd-quant / BYOC CPU+APU: a7880166b4d5432c 94412",
        "yolov3-tiny / TVM-only: 054a1c969fbb2fbd 316645",
        "yolov3-tiny / BYOC CPU+APU: 8442128eabed235f 319086",
    ];
    assert_eq!(digests, want);
}

/// A library whose `Input` or `Op` node does not declare exactly one type
/// — the executor prices and binds each by that type — is refused when
/// the executor is made, by node, never a panic. The file is otherwise
/// the emotion model's TVM-only export, loaded as a phone would.
#[test]
fn a_node_without_its_one_type_is_refused_by_node() {
    let cost = CostModel::default();
    let phone = phone(&cost);
    let dir = scratch_dir("untyped-node");
    let model = emotion::emotion_model(2);
    let (_, artifact) =
        relay_build_with_artifact(&model.module, TargetMode::TvmOnly, cost.clone()).unwrap();
    let lib = dir.join("model.so.json");
    artifact.unwrap().export_library(&lib).unwrap();
    let exported = serde_json::parse_value(&std::fs::read_to_string(&lib).unwrap()).unwrap();
    let nodes = exported["graph"]["nodes"].as_array().unwrap();
    let first = |kind: &str| nodes.iter().position(|n| n["kind"].get(kind).is_some());
    let (input, op) = (first("Input").unwrap(), first("Op").unwrap());
    let typed = |k: usize| nodes[k]["out_types"].as_array().unwrap()[0].clone();
    for (k, types) in [
        (input, vec![]),
        (op, vec![]),
        (op, vec![typed(op), typed(op)]),
    ] {
        let mut file = exported.clone();
        let Value::Object(members) = &mut file else {
            unreachable!("a library is an object")
        };
        let Some(Value::Object(graph)) = members.get_mut("graph") else {
            unreachable!("a library has a graph")
        };
        let Some(Value::Array(nodes)) = graph.get_mut("nodes") else {
            unreachable!("a graph has nodes")
        };
        let Value::Object(node) = &mut nodes[k] else {
            unreachable!("a node is an object")
        };
        let n = types.len();
        node.insert("out_types".into(), Value::Array(types));
        std::fs::write(&lib, file.to_string()).unwrap();
        let loaded = Artifact::load_library(&lib).unwrap();
        let err = phone.load(&loaded).err().expect("refused");
        assert_eq!(err.context().node, Some(format!("node#{k}")));
        assert_eq!(
            err.message(),
            format!("node#{k} declares {n} types, expects 1")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
