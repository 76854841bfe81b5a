//! The per-layer probes of the traced run: one timed call into each
//! layer's public functions, on a fixed subject, from outside.
//!
//! Every `_ms`/`_us`/`_ns` value is the floor of repeated calls (at least
//! three, then as many as the probe's share of the budget allows); every
//! count is exact. The subjects are the same on every workload, so a
//! layer's number can be read next to any workload's end-to-end numbers:
//!
//! | layer | subject |
//! |---|---|
//! | `frontends` | the six seeded framework descriptions of `compile_zoo` |
//! | `relay`, `byoc`, `hwsim` | the DeePixBiS anti-spoofing module (9 BYOC subgraphs) |
//! | `neuropilot`, `runtime`, `tensor` | mobilenet v1 and its layer shapes |
//! | `runtime.artifact_*`, `runtime.device_load` | quantized MobileNet-SSD, BYOC CPU+APU (Listing 6) |
//! | `vision`, `scheduler`, `serving`, `telemetry`, `observe` | one 4-frame scene cycle of the synthetic video |

use crate::fixtures::{showcase_models, FrontendInputs};
use crate::harness::probe_floor_ns_prepared;
use crate::pin::Pin;
use crate::workloads::serve_showcase;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use tvm_neuropilot::byoc::{
    relay_build, ArtifactCache, CompiledModel, NeuronModule, Permutation, TargetMode,
};
use tvm_neuropilot::hwsim::{CostModel, DeviceKind};
use tvm_neuropilot::models::{zoo, Model};
use tvm_neuropilot::neuropilot::support::NeuronSupport;
use tvm_neuropilot::neuropilot::{convert_function, CompiledNetwork, Planner, TargetPolicy};
use tvm_neuropilot::observe::{ObserveConfig, ObservePlane};
use tvm_neuropilot::relay::interp::run_module;
use tvm_neuropilot::relay::module_fingerprint;
use tvm_neuropilot::relay::passes::{fold_constants, partition_graph, simplify};
use tvm_neuropilot::runtime::module::ExternalModule;
use tvm_neuropilot::runtime::{
    plan_memory, AndroidDevice, Artifact, ExecutorGraph, GraphExecutor, LoaderRegistry,
    ModuleRegistry,
};
use tvm_neuropilot::scheduler::{simulate_pipelined, ResourceLocks};
use tvm_neuropilot::serving::{frame_segments, serving_rotation, simulate_serve, SessionPool};
use tvm_neuropilot::tensor::kernels::{
    concat, conv2d_f32, dense_f32, global_avg_pool2d, qconv2d, qdense, unary, Conv2dParams,
    QConvQuant, UnaryOp,
};
use tvm_neuropilot::tensor::rng::TensorRng;
use tvm_neuropilot::tensor::{DType, QuantParams};
use tvm_neuropilot::vision::{luminance_saliency, match_faces, Showcase, SyntheticVideo};
use tvmnp_conformance::{build_case, random_spec};

/// Timed probes in `run_all`; each gets an equal share of the budget.
const TIMED_PROBES: u32 = 63;
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 2000;
/// Random conformance graphs behind `runtime.tiny_run_us`.
const TINY_GRAPHS: u64 = 128;

struct Probes {
    out: Vec<(&'static str, f64)>,
    share: Duration,
    timed: u32,
}

impl Probes {
    /// Floor of `f` in ns; `prepare` makes each call's input, untimed.
    fn floor_ns_prepared<T>(&mut self, prepare: impl FnMut() -> T, f: impl FnMut(T)) -> f64 {
        self.timed += 1;
        probe_floor_ns_prepared(self.share, MIN_REPS, MAX_REPS, prepare, f)
    }

    fn floor_ns(&mut self, mut f: impl FnMut()) -> f64 {
        self.floor_ns_prepared(|| (), |()| f())
    }

    fn ms(&mut self, name: &'static str, f: impl FnMut()) -> f64 {
        let ms = self.floor_ns(f) / 1e6;
        self.out.push((name, ms));
        ms
    }

    fn us(&mut self, name: &'static str, f: impl FnMut()) {
        let us = self.floor_ns(f) / 1e3;
        self.out.push((name, us));
    }

    fn value(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }
}

/// Run every probe; returns `(metric name, value)` for every per-layer
/// metric outside the `harness` layer.
pub fn run_all(seed: u64, work: &Path, pin: &Pin, budget: Duration) -> Vec<(&'static str, f64)> {
    let mut p = Probes {
        out: Vec::new(),
        share: budget / TIMED_PROBES,
        timed: 0,
    };
    let cost = CostModel::default();
    frontends_and_models(&mut p, seed);
    let showcase = showcase_models(seed);
    relay_byoc_hwsim(&mut p, &showcase[0], &cost, work, &showcase);
    let mobilenet = zoo::mobilenet_v1(seed);
    neuropilot(&mut p, &mobilenet, seed, &cost);
    runtime(&mut p, &mobilenet, &showcase[2], seed, &cost, work);
    tensor(&mut p, seed, pin);
    vision_scheduler_serving(&mut p, seed, &cost);
    debug_assert_eq!(
        p.timed, TIMED_PROBES,
        "the budget is shared among TIMED_PROBES"
    );
    p.out
}

fn frontends_and_models(p: &mut Probes, seed: u64) {
    let inputs = FrontendInputs::new(seed);
    const NAMES: [&str; 6] = [
        "frontends.pytorch_ms",
        "frontends.keras_ms",
        "frontends.tflite_ms",
        "frontends.darknet_ms",
        "frontends.onnx_ms",
        "frontends.mxnet_ms",
    ];
    for (which, name) in NAMES.into_iter().enumerate() {
        p.ms(name, || {
            std::hint::black_box(inputs.import(which).expect("imports"));
        });
    }
    p.ms("models.zoo_build_ms", || {
        std::hint::black_box(zoo::zoo(seed));
    });
    p.ms("models.showcase_build_ms", || {
        std::hint::black_box(showcase_models(seed));
    });
}

/// The BYOC build of `model`, step by step on stored inputs, against the
/// real `relay_build`; the cache tiers; the cost-model walks.
fn relay_byoc_hwsim(p: &mut Probes, model: &Model, cost: &CostModel, work: &Path, all: &[Model]) {
    let module = &model.module;
    let policy = TargetPolicy::CpuApu;
    let byoc = TargetMode::Byoc(policy);
    let inputs = model.sample_inputs(1);

    let simplified = simplify(module);
    let prepared = fold_constants(&simplified);
    let (partitioned, report) = partition_graph(&prepared, &NeuronSupport).expect("partitions");
    let graph = ExecutorGraph::build(&partitioned).expect("lowers");
    let codegen_all = || -> Vec<NeuronModule> {
        partitioned
            .external_functions()
            .into_iter()
            .map(|n| {
                NeuronModule::codegen(n, &partitioned.functions[n], policy, cost.clone())
                    .expect("codegen")
            })
            .collect()
    };
    let modules = codegen_all();
    let export = |modules: &[NeuronModule]| {
        let refs: Vec<&dyn ExternalModule> =
            modules.iter().map(|m| m as &dyn ExternalModule).collect();
        Artifact::export(&graph, &refs)
    };

    let mut parts = 0.0;
    parts += p.ms("relay.simplify_ms", || {
        std::hint::black_box(simplify(module));
    });
    parts += p.ms("relay.fold_constants_ms", || {
        std::hint::black_box(fold_constants(&simplified));
    });
    parts += p.ms("relay.partition_ms", || {
        std::hint::black_box(partition_graph(&prepared, &NeuronSupport).expect("partitions"));
    });
    p.ms("relay.fingerprint_ms", || {
        std::hint::black_box(module_fingerprint(module));
    });
    p.ms("relay.interp_ms", || {
        std::hint::black_box(run_module(module, &inputs).expect("interprets"));
    });
    p.value("relay.calls_after_fold", prepared.main().num_calls() as f64);
    p.value("relay.subgraphs", report.num_subgraphs as f64);

    p.ms("byoc.build_tvm_ms", || {
        std::hint::black_box(relay_build(module, TargetMode::TvmOnly, cost.clone()).is_ok());
    });
    let build_byoc_ms = p.ms("byoc.build_byoc_ms", || {
        std::hint::black_box(relay_build(module, byoc, cost.clone()).is_ok());
    });
    // NeuroPilot refuses this model; the emotion model is the showcase's
    // NP-only citizen (Fig. 5's green bar).
    let emotion = &all[1].module;
    p.ms("byoc.build_np_ms", || {
        std::hint::black_box(
            relay_build(emotion, TargetMode::NeuroPilotOnly(policy), cost.clone()).is_ok(),
        );
    });
    parts += p.ms("byoc.codegen_ms", || {
        std::hint::black_box(codegen_all());
    });
    // The rest of `relay_build`'s BYOC arm, which has no metric of its own.
    parts += p.floor_ns(|| {
        std::hint::black_box(ExecutorGraph::build(&partitioned).expect("lowers"));
    }) / 1e6;
    parts += p.floor_ns(|| {
        std::hint::black_box(export(&modules));
    }) / 1e6;
    parts += p.floor_ns_prepared(
        || (graph.clone(), codegen_all()),
        |(graph, modules)| {
            let mut registry = ModuleRegistry::new();
            for m in modules {
                registry.register(Box::new(m));
            }
            std::hint::black_box(GraphExecutor::new(graph, registry, cost.clone()).expect("links"));
        },
    ) / 1e6;
    p.value("byoc.build_unattributed_ms", build_byoc_ms - parts);

    let mut compiled = relay_build(module, byoc, cost.clone()).expect("builds");
    p.ms("byoc.run_byoc_ms", || {
        std::hint::black_box(compiled.run(&inputs).expect("runs"));
    });
    p.us("hwsim.estimate_us", || {
        std::hint::black_box((
            compiled.estimate_us(),
            compiled.estimate_energy_uj(),
            compiled.estimate_breakdown(),
        ));
    });

    let quant = ArtifactCache::quant_label(model.input_quant);
    let cold_dir = work.join("probe-cold");
    let seeded_dir = work.join("probe-seeded");
    let warm = ArtifactCache::new(usize::MAX).with_disk_dir(&seeded_dir);
    warm.get_or_build(module, byoc, cost, &quant)
        .expect("seeds the cache");
    let cold_ns = p.floor_ns_prepared(
        || {
            let _ = std::fs::remove_dir_all(&cold_dir);
        },
        |()| {
            let cache = ArtifactCache::new(usize::MAX).with_disk_dir(&cold_dir);
            std::hint::black_box(cache.get_or_build(module, byoc, cost, &quant).is_ok());
        },
    );
    p.value("byoc.cache_cold_ms", cold_ns / 1e6);
    p.ms("byoc.cache_warm_ms", || {
        std::hint::black_box(warm.get_or_build(module, byoc, cost, &quant).is_ok());
    });
    p.ms("byoc.cache_disk_ms", || {
        let cache = ArtifactCache::new(usize::MAX).with_disk_dir(&seeded_dir);
        std::hint::black_box(cache.get_or_build(module, byoc, cost, &quant).is_ok());
    });

    // Thrash: a byte budget of half the resident set of the four showcase
    // BYOC entries, accessed cyclically, so LRU evicts what is needed next.
    let all_in = ArtifactCache::new(usize::MAX);
    let get_all = |cache: &ArtifactCache| {
        for m in all {
            let q = ArtifactCache::quant_label(m.input_quant);
            std::hint::black_box(cache.get_or_build(&m.module, byoc, cost, &q).is_ok());
        }
    };
    get_all(&all_in);
    let budget = all_in.stats().resident_bytes / 2;
    let thrash = ArtifactCache::new(budget);
    let per_cycle = p.floor_ns(|| get_all(&thrash)) / 1e6;
    p.value("byoc.cache_thrash_ms", per_cycle / all.len() as f64);
    // The counts come from a sequence of fixed length: three cycles.
    let counted = ArtifactCache::new(budget);
    for _ in 0..3 {
        get_all(&counted);
    }
    let stats = counted.stats();
    p.value("byoc.cache_hits", stats.hits as f64);
    p.value("byoc.cache_misses", stats.misses as f64);
    p.value("byoc.cache_evictions", stats.evictions as f64);
    p.value("byoc.cache_resident_kb", stats.resident_bytes as f64 / 1e3);
}

fn neuropilot(p: &mut Probes, model: &Model, seed: u64, cost: &CostModel) {
    let prepared = fold_constants(&simplify(&model.module));
    let policy = TargetPolicy::CpuApu;
    let graph = convert_function(prepared.main()).expect("mobilenet v1 converts");
    p.ms("neuropilot.convert_ms", || {
        std::hint::black_box(convert_function(prepared.main()).expect("converts"));
    });
    p.ms("neuropilot.plan_ms", || {
        std::hint::black_box(Planner::plan(&graph, policy).expect("plans"));
    });
    let compile_ns = p.floor_ns_prepared(
        || graph.clone(),
        |g| {
            std::hint::black_box(
                CompiledNetwork::compile(g, policy, cost.clone()).expect("compiles"),
            );
        },
    );
    p.value("neuropilot.compile_ms", compile_ns / 1e6);
    let network = CompiledNetwork::compile(graph.clone(), policy, cost.clone()).expect("compiles");
    let input = [model.sample_input(seed)];
    p.ms("neuropilot.execute_ms", || {
        std::hint::black_box(network.execute(&input).expect("executes"));
    });
    p.value(
        "neuropilot.fallback_ops",
        network.plan().fallback_ops() as f64,
    );
}

fn runtime(
    p: &mut Probes,
    mobilenet: &Model,
    ssd: &Model,
    seed: u64,
    cost: &CostModel,
    work: &Path,
) {
    let prepared = fold_constants(&simplify(&mobilenet.module));
    let graph = ExecutorGraph::build(&prepared).expect("lowers");
    p.ms("runtime.graph_build_ms", || {
        std::hint::black_box(ExecutorGraph::build(&prepared).expect("lowers"));
    });
    p.ms("runtime.plan_memory_ms", || {
        std::hint::black_box(plan_memory(&graph));
    });
    let new_ns = p.floor_ns_prepared(
        || graph.clone(),
        |g| {
            std::hint::black_box(
                GraphExecutor::new(g, ModuleRegistry::new(), cost.clone()).expect("links"),
            );
        },
    );
    p.value("runtime.executor_new_ms", new_ns / 1e6);
    let mut executor =
        GraphExecutor::new(graph.clone(), ModuleRegistry::new(), cost.clone()).expect("links");
    let input = mobilenet.sample_input(seed);
    p.ms("runtime.run_ms", || {
        executor
            .set_input(&mobilenet.input_name, input.clone())
            .expect("binds");
        std::hint::black_box(executor.run().expect("runs"));
    });
    p.value("runtime.param_kb", graph.param_bytes() as f64 / 1e3);

    // Dispatch overhead: graphs so small that kernels are negligible.
    let mut tiny: Vec<(
        CompiledModel,
        HashMap<String, tvm_neuropilot::tensor::Tensor>,
    )> = (0..TINY_GRAPHS)
        .map(|i| {
            let case = build_case(&random_spec(seed.wrapping_add(i), false)).expect("spec builds");
            let model =
                relay_build(&case.module, TargetMode::TvmOnly, cost.clone()).expect("builds");
            (model, case.inputs)
        })
        .collect();
    let all_tiny_ns = p.floor_ns(|| {
        for (model, inputs) in tiny.iter_mut() {
            std::hint::black_box(model.run(inputs).expect("runs"));
        }
    });
    p.value(
        "runtime.tiny_run_us",
        all_tiny_ns / 1e3 / TINY_GRAPHS as f64,
    );

    // Listing 6: export on the server, load on the phone.
    let mode = Permutation::ByocCpuApu.mode();
    let (_, artifact) =
        tvm_neuropilot::byoc::build::relay_build_with_artifact(&ssd.module, mode, cost.clone())
            .expect("builds");
    let artifact = artifact.expect("TVM-side builds export artifacts");
    let path = work.join("probe-model.so.json");
    p.ms("runtime.artifact_export_ms", || {
        artifact.export_library(&path).expect("exports");
    });
    p.ms("runtime.artifact_load_ms", || {
        std::hint::black_box(Artifact::load_library(&path).expect("loads"));
    });
    let mut loaders = LoaderRegistry::new();
    loaders.register("neuropilot", NeuronModule::loader(cost.clone()));
    let phone = AndroidDevice::new("OPPO Reno4 Z 5G", loaders, cost.clone());
    p.ms("runtime.device_load_ms", || {
        std::hint::black_box(phone.load(&artifact).expect("links"));
    });
    p.value("runtime.artifact_kb", artifact.size_bytes() as f64 / 1e3);
}

/// Kernels on mobilenet v1's layer shapes. `tensor.macs_per_op` is the
/// multiply-accumulate count of the `conv2d_f32` probe, computed from its
/// shapes — not measured.
fn tensor(p: &mut Probes, seed: u64, pin: &Pin) {
    let mut rng = TensorRng::new(seed);
    // First pointwise block: 1x1, 32 -> 64 channels on 32x32.
    let (c_in, c_out, hw) = (32usize, 64usize, 32usize);
    let x = rng.uniform_f32([1, c_in, hw, hw], -1.0, 1.0);
    let w = rng.kaiming_f32([c_out, c_in, 1, 1], c_in);
    let b = rng.uniform_f32([c_out], -0.05, 0.05);
    let pointwise = Conv2dParams::default();
    p.value("tensor.macs_per_op", (c_out * c_in * hw * hw) as f64);
    p.ms("tensor.conv2d_f32_ms", || {
        std::hint::black_box(conv2d_f32(&x, &w, Some(&b), &pointwise).expect("conv"));
    });
    let dw_w = rng.kaiming_f32([c_in, 1, 3, 3], 9);
    let depthwise = Conv2dParams {
        groups: c_in,
        ..Conv2dParams::same(1)
    };
    p.ms("tensor.conv2d_dw_f32_ms", || {
        std::hint::black_box(conv2d_f32(&x, &dw_w, None, &depthwise).expect("depthwise conv"));
    });
    let (q_act, q_w) = (QuantParams::new(0.05, 128), QuantParams::new(0.02, 128));
    let qx = rng.uniform_quantized([1, c_in, hw, hw], DType::U8, q_act);
    let qw = rng.uniform_quantized([c_out, c_in, 1, 1], DType::U8, q_w);
    let quant = QConvQuant {
        input: q_act,
        weight: q_w,
        output: q_act,
        out_dtype: DType::U8,
    };
    p.ms("tensor.qconv2d_ms", || {
        std::hint::black_box(qconv2d(&qx, &qw, None, &pointwise, &quant).expect("qconv"));
    });
    // The classifier head: 128 features -> 10 classes.
    let feat = rng.uniform_f32([1, 128], -1.0, 1.0);
    let fc = rng.kaiming_f32([10, 128], 128);
    p.ms("tensor.dense_f32_ms", || {
        std::hint::black_box(dense_f32(&feat, &fc, None).expect("dense"));
    });
    let qfeat = rng.uniform_quantized([1, 128], DType::U8, q_act);
    let qfc = rng.uniform_quantized([10, 128], DType::U8, q_w);
    p.ms("tensor.qdense_ms", || {
        std::hint::black_box(
            qdense(&qfeat, &qfc, None, q_act, q_w, q_act, DType::U8).expect("qdense"),
        );
    });
    let last = rng.uniform_f32([1, 128, 8, 8], -1.0, 1.0);
    p.ms("tensor.pool_ms", || {
        std::hint::black_box(global_avg_pool2d(&last).expect("pool"));
    });
    let act = rng.uniform_f32([1, c_out, hw, hw], -8.0, 8.0);
    p.ms("tensor.elementwise_ms", || {
        std::hint::black_box(unary(&act, UnaryOp::Clip(0.0, 6.0)).expect("relu6"));
    });
    p.ms("tensor.concat_ms", || {
        std::hint::black_box(concat(&[&x, &x], 1).expect("concat"));
    });
    let one_mb = rng.uniform_f32([1 << 18], -1.0, 1.0);
    p.us("tensor.clone_mb_us", || {
        std::hint::black_box(one_mb.clone());
    });
    // The same two kernels with every CPU of the original mask: the only
    // place a parallel-kernel gain shows on this runner.
    pin.unpinned(|| {
        p.ms("tensor.conv2d_f32_par_ms", || {
            std::hint::black_box(conv2d_f32(&x, &w, Some(&b), &pointwise).expect("conv"));
        });
        p.ms("tensor.qconv2d_par_ms", || {
            std::hint::black_box(qconv2d(&qx, &qw, None, &pointwise, &quant).expect("qconv"));
        });
    });
}

fn vision_scheduler_serving(p: &mut Probes, seed: u64, cost: &CostModel) {
    // One scene cycle: empty, person, real face, spoof face.
    const CYCLE: usize = 4;
    let frames = serve_showcase::frames(seed);
    let cycle = &frames[..CYCLE];
    let with_face = &frames[2];
    let face = with_face.objects[0].face.expect("scene 2 has a face").0;
    let per_frame = CYCLE as f64;

    let mut video = SyntheticVideo::new(seed, 64, 64);
    let ms = p.floor_ns(|| {
        std::hint::black_box(video.frames(CYCLE));
    }) / 1e6;
    p.value("vision.video_frame_ms", ms / per_frame);
    p.ms("vision.match_faces_ms", || {
        std::hint::black_box(match_faces(with_face, 0.6));
    });
    p.ms("vision.saliency_ms", || {
        std::hint::black_box(luminance_saliency(with_face, 4, 1.8));
    });
    p.ms("vision.crop_resize_ms", || {
        std::hint::black_box(with_face.crop_resized(face, 32, 32));
    });
    let rotation = serving_rotation();
    let sessions: Vec<Showcase> = rotation
        .iter()
        .map(|a| Showcase::new(seed, *a, cost))
        .collect();
    let results: Vec<_> = frames
        .iter()
        .map(|f| sessions[f.index % sessions.len()].process_frame(f))
        .collect();
    let faces: usize = results.iter().map(|r| r.faces.len()).sum();
    p.value("vision.faces_per_frame", faces as f64 / frames.len() as f64);
    let process_ms = p.floor_ns(|| {
        for f in cycle {
            std::hint::black_box(sessions[f.index % sessions.len()].process_frame(f));
        }
    }) / 1e6
        / per_frame;
    p.value("vision.process_frame_ms", process_ms);

    let locks = ResourceLocks::new();
    const LOCK_CALLS: usize = 1000;
    let ns = p.floor_ns(|| {
        for _ in 0..LOCK_CALLS {
            locks.with_resources(&[DeviceKind::Cpu, DeviceKind::Apu], || {
                std::hint::black_box(())
            });
        }
    });
    p.value("scheduler.locks_ns", ns / LOCK_CALLS as f64);
    let stages = sessions[0].stage_profile(seed);
    p.ms("scheduler.simulate_pipelined_ms", || {
        std::hint::black_box(simulate_pipelined(&stages, 64));
    });

    let cache = Arc::new(ArtifactCache::new(usize::MAX));
    p.ms("serving.pool_new_cold_ms", || {
        let fresh = Arc::new(ArtifactCache::new(usize::MAX));
        std::hint::black_box(SessionPool::new(seed, &rotation, cost, fresh));
    });
    let pool = SessionPool::new(seed, &rotation, cost, cache.clone());
    p.ms("serving.pool_new_warm_ms", || {
        std::hint::black_box(SessionPool::new(seed, &rotation, cost, cache.clone()));
    });
    let serve_c1_ms = p.floor_ns(|| {
        std::hint::black_box(pool.serve(cycle, 1));
    }) / 1e6
        / per_frame;
    p.value("serving.serve_c1_ms", serve_c1_ms);
    let c2 = p.floor_ns(|| {
        std::hint::black_box(pool.serve(cycle, 2));
    }) / 1e6;
    p.value("serving.serve_c2_ms", c2 / per_frame);
    p.value("serving.pool_overhead_frac", serve_c1_ms / process_ms - 1.0);
    let segments: Vec<_> = results
        .iter()
        .map(|r| frame_segments(pool.assignment_for(r.frame_index), r))
        .collect();
    p.ms("serving.simulate_serve_ms", || {
        std::hint::black_box(simulate_serve(&segments, 4));
    });

    // The collector keeps every span until `reset`: clear it before
    // each repetition.
    tvm_neuropilot::telemetry::enable();
    let enabled_ms = p.floor_ns_prepared(tvm_neuropilot::telemetry::reset, |()| {
        std::hint::black_box(pool.serve(cycle, 1));
    }) / 1e6
        / per_frame;
    p.value("telemetry.enabled_frame_ms", enabled_ms);
    p.value("telemetry.overhead_frac", enabled_ms / serve_c1_ms - 1.0);
    let plane = Arc::new(ObservePlane::new(ObserveConfig::default()).expect("in-memory plane"));
    plane.install();
    let observed_ms = p.floor_ns_prepared(tvm_neuropilot::telemetry::reset, |()| {
        std::hint::black_box(pool.serve_observed(cycle, 1, &plane));
    }) / 1e6
        / per_frame;
    ObservePlane::uninstall();
    tvm_neuropilot::telemetry::disable();
    tvm_neuropilot::telemetry::reset();
    p.value("observe.observed_frame_ms", observed_ms);
    p.value("observe.overhead_frac", observed_ms / serve_c1_ms - 1.0);
}
