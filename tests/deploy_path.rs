//! The deploy path end to end: build → cache → export → load, on the four
//! showcase models. Whichever way a compiled model is reached — a fresh
//! `relay_build`, a cache miss, a memory hit, a disk hit, or Listing 6's
//! `export_library` → `load_library` → `AndroidDevice::load` — it must be
//! the same model: same output bits, same simulated time, same ledger.

use proptest::prelude::*;
use serde::Deserialize;
use std::collections::HashMap;
use std::path::PathBuf;
use tvm_neuropilot::byoc::build::{compile, relay_build_with_artifact};
use tvm_neuropilot::byoc::{
    relay_build, ArtifactCache, BuildError, CompiledModel, NeuronModule, Permutation, TargetMode,
};
use tvm_neuropilot::hwsim::{CostModel, WorkKind};
use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection, Model};
use tvm_neuropilot::neuropilot::support::NeuronSupport;
use tvm_neuropilot::neuropilot::NeuronGraph;
use tvm_neuropilot::relay::passes::{fold_constants, partition_graph, simplify};
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
        (CompiledModel::Tvm { executor, .. }, Some(artifact)) => {
            let blobs = artifact.externals.iter();
            let graphs = blobs.map(|b| NeuronGraph::from_value(&b.payload["graph"]).unwrap());
            executor.graph().param_bytes() + graphs.map(|g| neuron(&g)).sum::<usize>()
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
                (ex.graph().nodes.iter())
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

/// The cache's disk schema is private and moved: a file an older build
/// wrote (`Tvm { artifact, .. }`) under the right key is a miss, rebuilt
/// correctly and overwritten — never an error, never a wrong model.
#[test]
fn an_entry_in_the_old_disk_schema_is_a_miss_and_is_overwritten() {
    let cost = CostModel::default();
    let dir = scratch_dir("old-schema");
    let model = emotion::emotion_model(2);
    let mode = Permutation::ByocCpuApu.mode();
    let (mut fresh, artifact) =
        relay_build_with_artifact(&model.module, mode, cost.clone()).unwrap();
    let key = ArtifactCache::key(&model.module, mode, &quant(&model));
    let old = serde_json::json!({
        "key": key,
        "entry": serde_json::json!({ "Tvm": serde_json::json!({
            "artifact": artifact.unwrap(),
            "input_names": vec![model.input_name.clone()],
            "num_subgraphs": fresh.num_subgraphs(),
            "offloaded_calls": 0usize,
            "host_calls": 0usize
        }) })
    })
    .to_string();
    let file = dir.join(format!("{key}.json"));
    std::fs::write(&file, &old).unwrap();

    let inputs = model.sample_inputs(7);
    let want = facts_of(&mut fresh, &inputs);
    let cache = ArtifactCache::new(usize::MAX).with_disk_dir(&dir);
    let mut rebuilt = cache
        .get_or_build(&model.module, mode, &cost, &quant(&model))
        .unwrap();
    assert_eq!((cache.stats().misses, cache.stats().hits), (1, 0));
    assert_eq!(facts_of(&mut rebuilt, &inputs), want);
    assert_ne!(std::fs::read_to_string(&file).unwrap(), old, "overwritten");

    let reader = ArtifactCache::new(usize::MAX).with_disk_dir(&dir);
    let mut reread = reader
        .get_or_build(&model.module, mode, &cost, &quant(&model))
        .unwrap();
    assert_eq!((reader.stats().misses, reader.stats().hits), (0, 1));
    assert_eq!(facts_of(&mut reread, &inputs), want);
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
