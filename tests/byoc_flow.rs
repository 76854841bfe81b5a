//! The BYOC mechanics end to end: partition → external codegen → runtime
//! linkage → artifact deployment (paper §3.1, §4.5, Figs. 2/3).

use tvm_neuropilot::byoc::build::{partition_for_nir, relay_build_with_artifact};
use tvm_neuropilot::byoc::NeuronModule;
use tvm_neuropilot::models::{anti_spoofing, emotion, zoo};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::runtime::artifact::LoaderRegistry;
use tvm_neuropilot::runtime::AndroidDevice;

/// Partitioned modules carry the `Compiler`/`global_symbol` attributes TVM
/// BYOC uses, and re-type-check.
#[test]
fn partitioned_module_shape() {
    let model = emotion::emotion_model(31);
    let (partitioned, report) = partition_for_nir(&model.module).unwrap();
    assert!(report.num_subgraphs >= 1);
    for name in partitioned.external_functions() {
        let f = &partitioned.functions[name];
        assert_eq!(f.compiler(), Some("neuropilot"));
        assert_eq!(f.attrs.get("global_symbol").map(String::as_str), Some(name));
        assert_eq!(f.attrs.get("Primitive").map(String::as_str), Some("1"));
    }
    assert!(tvm_neuropilot::relay::infer_types(&partitioned).is_ok());
}

/// The anti-spoofing model shatters into many subgraphs while the fully
/// supported emotion model collapses into one — the §5.1 contrast.
#[test]
fn subgraph_counts_tell_the_fig4_story() {
    let spoof = anti_spoofing::anti_spoofing_model(32);
    let emo = emotion::emotion_model(33);
    let (_, spoof_report) = partition_for_nir(&spoof.module).unwrap();
    let (_, emo_report) = partition_for_nir(&emo.module).unwrap();
    assert_eq!(
        emo_report.num_subgraphs, 1,
        "emotion model is fully supported"
    );
    assert!(
        spoof_report.num_subgraphs >= 3 * emo_report.num_subgraphs,
        "anti-spoofing must fragment ({} vs {})",
        spoof_report.num_subgraphs,
        emo_report.num_subgraphs
    );
    assert!(spoof_report.host_calls > 0, "batch norms stay on TVM");
}

/// More subgraphs ⇒ more dispatch/transfer overhead: measured BYOC time
/// per MAC is worse for the fragmented model.
#[test]
fn fragmentation_costs_time() {
    let cost = CostModel::default();
    let spoof = anti_spoofing::anti_spoofing_model(34);
    let frag = measure_one(&spoof.module, Permutation::ByocCpuApu, &cost).unwrap();
    assert!(frag.subgraphs >= 3);
    // Against a single-subgraph model of comparable op count.
    let emo = emotion::emotion_model(36);
    let solid = measure_one(&emo.module, Permutation::ByocCpuApu, &cost).unwrap();
    assert_eq!(solid.subgraphs, 1);
    assert!(
        frag.time_ms.unwrap() > solid.time_ms.unwrap(),
        "fragmented {:?} vs solid {:?}",
        frag.time_ms,
        solid.time_ms
    );
}

/// Full §4.5 deployment: export on the server, load on a runtime-only
/// simulated phone, get bit-identical outputs.
#[test]
fn artifact_deploys_to_runtime_only_device() {
    let cost = CostModel::default();
    for model in [zoo::mobilenet_v2(40), zoo::inception_v3_quant(41)] {
        let (mut compiled, artifact) = relay_build_with_artifact(
            &model.module,
            TargetMode::Byoc(TargetPolicy::ApuPrefer),
            cost.clone(),
        )
        .unwrap();
        let artifact = artifact.unwrap();
        let inputs = model.sample_inputs(42);
        let (reference, _) = compiled.run(&inputs).unwrap();

        // Serialize through disk, as export_library does.
        let dir = std::env::temp_dir().join("tvmnp_byoc_flow_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}.json", model.name.replace(' ', "_")));
        artifact.export_library(&path).unwrap();
        let loaded = tvm_neuropilot::runtime::Artifact::load_library(&path).unwrap();

        let mut loaders = LoaderRegistry::new();
        loaders.register("neuropilot", NeuronModule::loader(cost.clone()));
        let phone = AndroidDevice::new("test-phone", loaders, cost.clone());
        let mut ex = phone.load(&loaded).unwrap();
        ex.set_input(&model.input_name, inputs[&model.input_name].clone())
            .unwrap();
        ex.run().unwrap();
        assert!(
            ex.get_output(0).unwrap().bit_eq(&reference[0]),
            "{}: device output diverged",
            model.name
        );
    }
}

/// NP-only builds fail on exactly the models whose bars are missing, and
/// the error names the offending operator.
#[test]
fn missing_bars_have_named_causes() {
    let cases = [
        (
            anti_spoofing::anti_spoofing_model(50).module,
            "nn.batch_norm",
        ),
        (zoo::nasnet(51).module, "mean"),
        (zoo::densenet(52).module, "nn.batch_norm"),
    ];
    for (module, expected_op) in cases {
        match relay_build(
            &module,
            TargetMode::NeuroPilotOnly(TargetPolicy::CpuOnly),
            CostModel::default(),
        ) {
            Err(tvm_neuropilot::byoc::build::BuildError::Unsupported(op)) => {
                assert_eq!(op, expected_op)
            }
            other => panic!(
                "expected Unsupported({expected_op}), got ok={}",
                other.is_ok()
            ),
        }
    }
}

/// An average pool that counts its padding taps computes the same bits
/// under every flow: NeuroPilot and NNAPI pools average over valid taps
/// only, so BYOC and NNAPI keep it on the host and an NP-only build names
/// it as the unsupported op.
#[test]
fn padding_counting_avg_pool_stays_on_the_host() {
    use std::collections::HashMap;
    use tvm_neuropilot::byoc::build::BuildError;
    use tvm_neuropilot::byoc::relay_build_nnapi;
    use tvm_neuropilot::relay::expr::{call, var, Function};
    use tvm_neuropilot::relay::{builder, OpKind, Pool2dAttrs, TensorType};
    use tvm_neuropilot::tensor::rng::TensorRng;
    let x = var("x", TensorType::f32([1, 2, 5, 5]));
    let pool = Pool2dAttrs {
        kernel: (3, 3),
        strides: (1, 1),
        padding: (1, 1, 1, 1),
        count_include_pad: true,
    };
    let body = call(OpKind::AvgPool2d(pool), vec![builder::relu(x.clone())]);
    let module = Module::from_main(Function::new(vec![x], builder::relu(body)));
    let mut inputs = HashMap::new();
    let input = TensorRng::new(70).uniform_f32([1, 2, 5, 5], 0.5, 1.5);
    inputs.insert("x".to_string(), input);
    let reference = run_module(&module, &inputs).unwrap();
    let cost = CostModel::default();
    for mode in [
        TargetMode::TvmOnly,
        TargetMode::Byoc(TargetPolicy::CpuOnly),
        TargetMode::Byoc(TargetPolicy::ApuPrefer),
    ] {
        let mut compiled = relay_build(&module, mode, cost.clone()).unwrap();
        let (outs, _) = compiled.run(&inputs).unwrap();
        assert!(outs[0].bit_eq(&reference), "{mode} diverged");
    }
    let (mut nnapi, _) = relay_build_nnapi(&module, TargetPolicy::CpuOnly, cost.clone()).unwrap();
    let (outs, _) = nnapi.run(&inputs).unwrap();
    assert!(outs[0].bit_eq(&reference), "NNAPI diverged");
    let np_only = TargetMode::NeuroPilotOnly(TargetPolicy::CpuOnly);
    match relay_build(&module, np_only, cost) {
        Err(BuildError::Unsupported(op)) => assert_eq!(op, "nn.avg_pool2d"),
        Err(e) => panic!("expected Unsupported(nn.avg_pool2d), got {e}"),
        Ok(_) => panic!("expected Unsupported(nn.avg_pool2d), got a build"),
    }
}

/// The memory planner produces alias-free storage for every showcase model.
#[test]
fn storage_planning_is_sound_on_real_models() {
    use tvm_neuropilot::runtime::{plan_memory, ExecutorGraph};
    for model in [
        emotion::emotion_model(60),
        zoo::mobilenet_v2(61),
        zoo::densenet(62),
    ] {
        let (partitioned, _) = partition_for_nir(&model.module).unwrap();
        let graph = ExecutorGraph::build(&partitioned).unwrap();
        let plan = plan_memory(&graph);
        assert!(plan.peak_bytes > 0);
        assert!(
            plan.check_no_alias(&graph).is_none(),
            "{}: aliasing storage plan",
            model.name
        );
    }
}

/// One pricing rule: every op the converter emits is priced by the same
/// formula as the Relay operator it lifts back to, so a Neuron op costs
/// the `WorkItem` its host twin would.
#[test]
fn neuron_work_keys_match_their_lifts() {
    use tvm_neuropilot::hwsim::WorkKey;
    use tvm_neuropilot::models::object_detection;
    use tvm_neuropilot::neuropilot::{convert::relay_op, convert_function};
    use tvm_neuropilot::runtime::executor::work_key;
    let mut models = zoo::zoo(41);
    models.extend([
        anti_spoofing::anti_spoofing_model(42),
        emotion::emotion_model(43),
        object_detection::yolo_model(44),
        object_detection::mobilenet_ssd_model(45),
    ]);
    let mut seen: Vec<WorkKey> = Vec::new();
    for model in &models {
        let (partitioned, _) = partition_for_nir(&model.module).unwrap();
        for name in partitioned.external_functions() {
            let graph = convert_function(&partitioned.functions[name]).unwrap();
            for op in &graph.ops {
                let lifted = relay_op(&graph, op).unwrap();
                let key = op.kind.work_key();
                assert_eq!(key, work_key(&lifted), "{}: {}", model.name, op.kind.name());
                if !seen.contains(&key) {
                    seen.push(key);
                }
            }
        }
    }
    // Every formula a Neuron op can take is exercised.
    assert!(seen.iter().any(|k| matches!(k, WorkKey::Window(..))));
    for key in [
        WorkKey::Mac,
        WorkKey::ReduceInput,
        WorkKey::Softmax,
        WorkKey::DataMovement,
        WorkKey::Elementwise(1),
    ] {
        assert!(seen.contains(&key), "no converted op priced by {key:?}");
    }
}
