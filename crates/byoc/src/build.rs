//! The user-facing compile pipeline — the paper's Listings 2/3/4/6:
//! `mod = nir.partition_for_nir(mod, params)` followed by
//! `relay.build(mod, target)` and `GraphModule(...)`.

use crate::codegen::NeuronBlob;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use tvmnp_hwsim::{CostEntry, CostModel, CostRole};
use tvmnp_neuropilot::support::{first_unsupported, NeuronSupport};
use tvmnp_neuropilot::{CompiledNetwork, ExecutionPlan, NeuronError, NeuronGraph, TargetPolicy};
use tvmnp_relay::expr::{ExprKind, Module};
use tvmnp_relay::passes::{fold_constants, partition_graph, simplify, PartitionReport};
use tvmnp_runtime::{
    Artifact, ExecError, ExecutorGraph, GraphExecutor, ModuleRegistry, RunOptions,
};
use tvmnp_tensor::Tensor;

/// How the model is compiled and where it runs — the axis of the paper's
/// seven permutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetMode {
    /// Pure TVM: no partitioning, untuned kernels on the mobile CPU.
    TvmOnly,
    /// TVM BYOC: NeuroPilot-supported regions offloaded under the given
    /// target policy; the remainder stays on TVM's CPU codegen.
    Byoc(TargetPolicy),
    /// NeuroPilot-only: the *whole* model must be Neuron-convertible; any
    /// unsupported op aborts compilation (the paper's missing bars).
    NeuroPilotOnly(TargetPolicy),
}

impl TargetMode {
    /// Label matching the figures' x-axis.
    pub fn label(self) -> String {
        match self {
            TargetMode::TvmOnly => "tvm".to_string(),
            TargetMode::Byoc(p) => format!("byoc-{}", p.label()),
            TargetMode::NeuroPilotOnly(p) => format!("np-{}", p.label()),
        }
    }
}

impl fmt::Display for TargetMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Build failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// NeuroPilot cannot compile the model (NP-only modes).
    Unsupported(String),
    /// Partitioning failed.
    Partition(String),
    /// Neuron conversion/planning failed.
    Neuron(NeuronError),
    /// Graph lowering/linking failed.
    Runtime(String),
    /// Typed executor failure (device fault / deadline, with node context
    /// and fault cause chain).
    Exec(ExecError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Unsupported(op) => {
                write!(f, "NeuroPilot-only build aborted: unsupported op '{op}'")
            }
            BuildError::Partition(m) => write!(f, "partition failed: {m}"),
            BuildError::Neuron(e) => write!(f, "neuron codegen failed: {e}"),
            BuildError::Runtime(m) => write!(f, "runtime build failed: {m}"),
            BuildError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// `nir.partition_for_nir(mod, params)` — simplify, fold constants, and
/// partition for the NeuroPilot codegen. Returns the partitioned module
/// and the partition report (subgraph counts drive Fig. 4's analysis).
pub fn partition_for_nir(module: &Module) -> Result<(Module, PartitionReport), BuildError> {
    let _span = tvmnp_telemetry::span!("byoc.partition");
    let prepared = fold_constants(&simplify(module));
    partition_graph(&prepared, &NeuronSupport).map_err(|e| BuildError::Partition(e.to_string()))
}

/// A compiled, runnable model under one target mode.
// One per built model and never moved in bulk: boxing the executor would
// cost an allocation per build to shrink a value nobody copies.
#[allow(clippy::large_enum_variant)]
pub enum CompiledModel {
    /// TVM graph executor (with or without linked Neuron modules).
    Tvm {
        /// The executor, ready for `set_input`/`run`.
        executor: GraphExecutor,
        /// Input names in parameter order.
        input_names: Vec<String>,
        /// Partition report (empty subgraphs for TVM-only).
        report: PartitionReport,
    },
    /// Whole-model Neuron network (NeuroPilot-only modes).
    Neuron {
        /// The planned Neuron network.
        network: CompiledNetwork,
        /// Input names in parameter order.
        input_names: Vec<String>,
    },
}

impl CompiledModel {
    /// Run inference on named inputs; returns outputs and simulated µs.
    /// A clean run: [`CompiledModel::run_with`] under the default options.
    pub fn run(
        &mut self,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<(Vec<Tensor>, f64), BuildError> {
        self.run_with(inputs, &RunOptions::default())
    }

    /// Run inference under fault-handling options — the one run body.
    /// Every device dispatch first goes through [`RunOptions::dispatch`]
    /// (retries per `opts.retry`, the wasted dispatch and backoff charged
    /// in simulated µs) and the run is bounded by `opts.deadline_us`; a
    /// device fault or a passed deadline is a [`BuildError::Exec`] whose
    /// [`ExecError::kind`] says which. Faults change time, never values.
    ///
    /// The dispatching runtime consults the injector, never the module it
    /// dispatches to: the graph executor once per fusion group and external
    /// call, and for an NP-only model this function, once per planned
    /// segment in segment order, before the network computes.
    pub fn run_with(
        &mut self,
        inputs: &HashMap<String, Tensor>,
        opts: &RunOptions<'_>,
    ) -> Result<(Vec<Tensor>, f64), BuildError> {
        match self {
            CompiledModel::Tvm {
                executor,
                input_names,
                ..
            } => {
                for (name, v) in input_names.iter().zip(ordered_inputs(input_names, inputs)) {
                    executor
                        .set_input(name, v?.clone())
                        .map_err(BuildError::Exec)?;
                }
                let t = executor.run_with(opts).map_err(BuildError::Exec)?;
                let outs = (0..executor.num_outputs())
                    .map(|i| executor.get_output(i))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(BuildError::Exec)?;
                Ok((outs, t))
            }
            CompiledModel::Neuron {
                network,
                input_names,
            } => {
                let ordered: Vec<&Tensor> =
                    ordered_inputs(input_names, inputs).collect::<Result<_, _>>()?;
                // What a segment's aborted dispatch wastes, and on which
                // device, is its own dispatch entry in the network's ledger.
                let mut extra_us = 0.0;
                for seg in network.ledger() {
                    if seg.role == CostRole::Dispatch {
                        opts.dispatch(seg.device, seg.us, &mut extra_us)
                            .map_err(BuildError::Exec)?;
                    }
                }
                let (outputs, base_us) = network
                    .execute_borrowed(&ordered)
                    .map_err(BuildError::Neuron)?;
                let total_us = base_us + extra_us;
                opts.check_deadline(total_us).map_err(BuildError::Exec)?;
                Ok((outputs, total_us))
            }
        }
    }

    /// Simulated inference time, computed analytically (no numeric
    /// execution): static shapes make the time input-independent, so the
    /// figure harnesses measure without running each model.
    pub fn estimate_us(&self) -> f64 {
        match self {
            CompiledModel::Tvm { executor, .. } => executor.estimate_time_us(),
            CompiledModel::Neuron { network, .. } => network.estimate_time_us(),
        }
    }

    /// Simulated inference energy, microjoules.
    pub fn estimate_energy_uj(&self) -> f64 {
        match self {
            CompiledModel::Tvm { executor, .. } => executor.estimate_energy_uj(),
            CompiledModel::Neuron { network, .. } => network.estimate_energy_uj(),
        }
    }

    /// The model's cost ledger: every charged item (device, µs, µJ) in
    /// accumulation order, summing exactly to [`CompiledModel::estimate_us`]
    /// and [`CompiledModel::estimate_energy_uj`]. TVM-side modes tag
    /// entries with their graph node; NP-only modes with the planned op,
    /// segment or crossing.
    pub fn estimate_breakdown(&self) -> &[CostEntry] {
        match self {
            CompiledModel::Tvm { executor, .. } => executor.ledger(),
            CompiledModel::Neuron { network, .. } => network.ledger(),
        }
    }

    /// Number of external subgraphs (0 for TVM-only and NP-only modes).
    pub fn num_subgraphs(&self) -> usize {
        match self {
            CompiledModel::Tvm { report, .. } => report.num_subgraphs,
            CompiledModel::Neuron { .. } => 0,
        }
    }
}

/// The named inputs in parameter order, borrowed.
fn ordered_inputs<'a>(
    names: &'a [String],
    inputs: &'a HashMap<String, Tensor>,
) -> impl Iterator<Item = Result<&'a Tensor, BuildError>> {
    let missing = |n: &String| BuildError::Runtime(format!("missing input '{n}'"));
    names
        .iter()
        .map(move |n| inputs.get(n).ok_or_else(|| missing(n)))
}

pub(crate) fn input_names_of(module: &Module) -> Vec<String> {
    module
        .main()
        .params
        .iter()
        .filter_map(|p| match &p.kind {
            ExprKind::Var(v) => Some(v.name.clone()),
            _ => None,
        })
        .collect()
}

/// The cost-independent products of compiling one module under one target
/// mode: everything a runnable model is made from except the `CostModel`
/// that prices it. This is what [`compile`] returns, what the artifact
/// cache holds in memory (typed — constants are `Arc`s, so a clone copies
/// no weight) and, serialized, the cache's private disk schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CachedArtifact {
    /// TVM-side modes (TvmOnly / Byoc): the lowered host graph and one
    /// planned Neuron blob per offloaded subgraph.
    Tvm {
        /// The lowered host graph (with params embedded).
        graph: ExecutorGraph,
        /// The compiled external subgraphs, in link order.
        modules: Vec<NeuronBlob>,
        /// Input names in parameter order.
        input_names: Vec<String>,
        /// Partition report fields (the report type itself is not serde).
        num_subgraphs: usize,
        /// Offloaded primitive calls.
        offloaded_calls: usize,
        /// Host-side primitive calls.
        host_calls: usize,
    },
    /// NeuroPilot-only modes: converted graph plus its execution plan (one
    /// placement per op).
    Neuron {
        /// The converted Neuron graph.
        graph: NeuronGraph,
        /// The planner's output for this graph/policy.
        plan: ExecutionPlan,
        /// Input names in parameter order.
        input_names: Vec<String>,
    },
}

/// The compile half of `relay.build`: passes, partitioning, lowering and
/// the Neuron codegen. Emits every compile-side span; takes no cost model.
pub fn compile(module: &Module, mode: TargetMode) -> Result<CachedArtifact, BuildError> {
    let _span = tvmnp_telemetry::span!("byoc.build", "mode" => mode.to_string());
    let prepared = fold_constants(&simplify(module));
    let input_names = input_names_of(&prepared);
    let lower =
        |m: &Module| ExecutorGraph::build(m).map_err(|e| BuildError::Runtime(e.to_string()));
    match mode {
        TargetMode::TvmOnly => Ok(CachedArtifact::Tvm {
            graph: lower(&prepared)?,
            modules: Vec::new(),
            input_names,
            num_subgraphs: 0,
            offloaded_calls: 0,
            host_calls: prepared.main().num_calls(),
        }),
        TargetMode::Byoc(policy) => {
            let (partitioned, report) = {
                let _span = tvmnp_telemetry::span!("byoc.partition");
                partition_graph(&prepared, &NeuronSupport)
                    .map_err(|e| BuildError::Partition(e.to_string()))?
            };
            let graph = lower(&partitioned)?;
            let mut modules = Vec::new();
            for name in partitioned.external_functions() {
                let _span = tvmnp_telemetry::span!("byoc.codegen", "symbol" => name.to_string());
                let func = &partitioned.functions[name];
                modules.push(NeuronBlob::codegen(name, func, policy).map_err(BuildError::Neuron)?);
            }
            Ok(CachedArtifact::Tvm {
                graph,
                modules,
                input_names,
                num_subgraphs: report.num_subgraphs,
                offloaded_calls: report.offloaded_calls,
                host_calls: report.host_calls,
            })
        }
        TargetMode::NeuroPilotOnly(policy) => {
            if let Some(op) = first_unsupported(prepared.main()) {
                return Err(BuildError::Unsupported(op));
            }
            let _span = tvmnp_telemetry::span!("byoc.codegen", "symbol" => "main");
            let NeuronBlob { graph, plan, .. } =
                NeuronBlob::codegen("main", prepared.main(), policy).map_err(BuildError::Neuron)?;
            Ok(CachedArtifact::Neuron {
                graph,
                plan,
                input_names,
            })
        }
    }
}

impl CachedArtifact {
    /// The instantiate half of `relay.build`, and the only place executors
    /// and networks are made from compile products: price them under the
    /// caller's `cost`. Pure load — no partition, codegen or planner span.
    pub fn instantiate(self, cost: &CostModel) -> Result<CompiledModel, BuildError> {
        match self {
            CachedArtifact::Tvm {
                graph,
                modules,
                input_names,
                num_subgraphs,
                offloaded_calls,
                host_calls,
            } => {
                let mut registry = ModuleRegistry::new();
                for blob in modules {
                    registry.register(Box::new(blob.link(cost.clone())));
                }
                let executor = GraphExecutor::new(graph, registry, cost.clone())
                    .map_err(|e| BuildError::Runtime(e.to_string()))?;
                Ok(CompiledModel::Tvm {
                    executor,
                    input_names,
                    report: PartitionReport {
                        num_subgraphs,
                        offloaded_calls,
                        host_calls,
                    },
                })
            }
            CachedArtifact::Neuron {
                graph,
                plan,
                input_names,
            } => Ok(CompiledModel::Neuron {
                network: CompiledNetwork::from_plan(graph, plan, cost.clone()),
                input_names,
            }),
        }
    }

    /// The deployable artifact of a TVM-side build (Listing 6's
    /// `export_library` input), byte for byte what `Artifact::export` over
    /// the linked modules gives; `None` for NP-only modes. Made on demand:
    /// this and the cache's disk write are where products become values.
    pub fn artifact(&self) -> Option<Artifact> {
        match self {
            CachedArtifact::Tvm { graph, modules, .. } => {
                let mut artifact = Artifact::export(graph, &[]);
                artifact.externals = modules.iter().map(NeuronBlob::to_external).collect();
                Some(artifact)
            }
            CachedArtifact::Neuron { .. } => None,
        }
    }

    /// Check every Neuron graph and plan of products read from bytes
    /// ([`ExecutionPlan::validate`]) before they are priced.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match self {
            CachedArtifact::Tvm { modules, .. } => {
                (modules.iter()).try_for_each(|blob| blob.plan.validate(&blob.graph))
            }
            CachedArtifact::Neuron { graph, plan, .. } => plan.validate(graph),
        }
    }

    /// Bytes of weights the products hold (host params plus Neuron
    /// constants) — what the cache's LRU budget counts.
    pub(crate) fn weight_bytes(&self) -> usize {
        match self {
            CachedArtifact::Tvm { graph, modules, .. } => {
                let neuron: usize = modules.iter().map(|b| const_bytes(&b.graph)).sum();
                graph.param_bytes() + neuron
            }
            CachedArtifact::Neuron { graph, .. } => const_bytes(graph),
        }
    }
}

/// Bytes of constant data a Neuron graph holds.
fn const_bytes(graph: &NeuronGraph) -> usize {
    let consts = graph.tensors.iter().filter_map(|t| t.data.as_ref());
    consts.map(|d| d.size_bytes()).sum()
}

/// `relay.build(mod, target)` — compile a Relay module under a target mode.
pub fn relay_build(
    module: &Module,
    mode: TargetMode,
    cost: CostModel,
) -> Result<CompiledModel, BuildError> {
    compile(module, mode)?.instantiate(&cost)
}

/// Like [`relay_build`], also returning the deployable artifact for the
/// TVM-side modes (Listing 6's `export_library`).
pub fn relay_build_with_artifact(
    module: &Module,
    mode: TargetMode,
    cost: CostModel,
) -> Result<(CompiledModel, Option<Artifact>), BuildError> {
    let products = compile(module, mode)?;
    let artifact = products.artifact();
    Ok((products.instantiate(&cost)?, artifact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{var, Function};
    use tvmnp_relay::{Conv2dAttrs, TensorType};
    use tvmnp_tensor::rng::TensorRng;

    /// conv → relu → batch_norm(NP-unsupported) → conv → softmax
    fn mixed_model() -> (Module, HashMap<String, Tensor>) {
        let mut rng = TensorRng::new(23);
        let x = var("x", TensorType::f32([1, 4, 8, 8]));
        let w1 = rng.uniform_f32([4, 4, 3, 3], -0.4, 0.4);
        let c1 = builder::relu(builder::conv2d(x.clone(), w1, Conv2dAttrs::same(1)));
        let bn = builder::batch_norm(
            c1,
            rng.uniform_f32([4], 0.9, 1.1),
            rng.uniform_f32([4], -0.1, 0.1),
            rng.uniform_f32([4], -0.1, 0.1),
            rng.uniform_f32([4], 0.9, 1.1),
            1e-5,
        );
        let w2 = rng.uniform_f32([4, 4, 3, 3], -0.4, 0.4);
        let c2 = builder::conv2d(bn, w2, Conv2dAttrs::same(1));
        let y = builder::softmax(builder::batch_flatten(c2));
        let m = Module::from_main(Function::new(vec![x], y));
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), rng.uniform_f32([1, 4, 8, 8], -1.0, 1.0));
        (m, inputs)
    }

    /// Fully NP-supported model, sized so compute dominates transfer
    /// overheads (like the paper's real CNNs).
    fn clean_model() -> (Module, HashMap<String, Tensor>) {
        let mut rng = TensorRng::new(29);
        let x = var("x", TensorType::f32([1, 16, 28, 28]));
        let w = rng.uniform_f32([32, 16, 3, 3], -0.4, 0.4);
        let c = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        let w2 = rng.uniform_f32([32, 32, 3, 3], -0.4, 0.4);
        let c = builder::relu(builder::conv2d(c, w2, Conv2dAttrs::same(1)));
        let y = builder::softmax(builder::batch_flatten(c));
        let m = Module::from_main(Function::new(vec![x], y));
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), rng.uniform_f32([1, 16, 28, 28], -1.0, 1.0));
        (m, inputs)
    }

    #[test]
    fn all_modes_numerically_agree_on_clean_model() {
        let (m, inputs) = clean_model();
        let reference = tvmnp_relay::interp::run_module(&m, &inputs).unwrap();
        for mode in [
            TargetMode::TvmOnly,
            TargetMode::Byoc(TargetPolicy::CpuOnly),
            TargetMode::Byoc(TargetPolicy::ApuPrefer),
            TargetMode::Byoc(TargetPolicy::CpuApu),
            TargetMode::NeuroPilotOnly(TargetPolicy::CpuOnly),
            TargetMode::NeuroPilotOnly(TargetPolicy::ApuPrefer),
            TargetMode::NeuroPilotOnly(TargetPolicy::CpuApu),
        ] {
            let mut compiled = relay_build(&m, mode, CostModel::default()).unwrap();
            let (outs, t) = compiled.run(&inputs).unwrap();
            assert!(outs[0].bit_eq(&reference), "{mode} diverged");
            assert!(t > 0.0);
        }
    }

    #[test]
    fn np_only_fails_on_unsupported_model() {
        let (m, _) = mixed_model();
        match relay_build(
            &m,
            TargetMode::NeuroPilotOnly(TargetPolicy::CpuOnly),
            CostModel::default(),
        ) {
            Err(BuildError::Unsupported(op)) => assert_eq!(op, "nn.batch_norm"),
            other => panic!("expected Unsupported, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn byoc_handles_unsupported_model() {
        let (m, inputs) = mixed_model();
        let reference = tvmnp_relay::interp::run_module(&m, &inputs).unwrap();
        let mut compiled = relay_build(
            &m,
            TargetMode::Byoc(TargetPolicy::CpuApu),
            CostModel::default(),
        )
        .unwrap();
        assert!(
            compiled.num_subgraphs() >= 2,
            "batch_norm must split the graph"
        );
        let (outs, _) = compiled.run(&inputs).unwrap();
        assert!(outs[0].bit_eq(&reference));
    }

    #[test]
    fn tvm_only_slower_than_byoc() {
        let (m, inputs) = clean_model();
        let mut tvm = relay_build(&m, TargetMode::TvmOnly, CostModel::default()).unwrap();
        let mut byoc = relay_build(
            &m,
            TargetMode::Byoc(TargetPolicy::CpuOnly),
            CostModel::default(),
        )
        .unwrap();
        let (_, t_tvm) = tvm.run(&inputs).unwrap();
        let (_, t_byoc) = byoc.run(&inputs).unwrap();
        assert!(
            t_tvm > t_byoc,
            "TVM-only ({t_tvm}) must be slower than BYOC-CPU ({t_byoc})"
        );
    }

    #[test]
    fn np_only_run_with_charges_each_retry_a_dispatch_and_its_backoff() {
        use tvmnp_hwsim::{DeviceKind, FaultInjector, FaultPlan};
        let (m, inputs) = clean_model();
        let cost = CostModel::default();
        let mode = TargetMode::NeuroPilotOnly(TargetPolicy::CpuOnly);
        let mut compiled = relay_build(&m, mode, cost.clone()).unwrap();
        let (clean, base_us) = compiled.run(&inputs).unwrap();
        let injector = FaultInjector::new(
            FaultPlan::seeded(7)
                .with_spec("cpu:dispatch:transient=2")
                .unwrap(),
        );
        let opts = RunOptions {
            injector: Some(&injector),
            ..RunOptions::default()
        };
        let (outs, faulted_us) = compiled.run_with(&inputs, &opts).unwrap();
        assert!(outs[0].bit_eq(&clean[0]), "faults must not change numerics");
        // One CPU segment, so every fault is a retry of the same dispatch.
        let k = injector.faults_injected() as u32;
        assert!(k >= 1);
        let dispatch_us = cost.subgraph_dispatch_us(DeviceKind::Cpu);
        let extra_us = (1..=k).fold(0.0, |us, attempt| {
            us + (dispatch_us + opts.retry.backoff_us(attempt))
        });
        assert_eq!(faulted_us, base_us + extra_us);
    }

    #[test]
    fn np_only_run_with_fails_with_the_executors_error_shape() {
        use tvmnp_hwsim::{FaultInjector, FaultPlan};
        use tvmnp_runtime::ExecErrorKind;
        let (m, inputs) = clean_model();
        let mode = TargetMode::NeuroPilotOnly(TargetPolicy::CpuOnly);
        let mut compiled = relay_build(&m, mode, CostModel::default()).unwrap();
        let lost = FaultInjector::new(
            FaultPlan::seeded(1)
                .with_spec("cpu:dispatch:device-lost")
                .unwrap(),
        );
        let opts = RunOptions {
            injector: Some(&lost),
            ..RunOptions::default()
        };
        let Err(BuildError::Exec(err)) = compiled.run_with(&inputs, &opts) else {
            panic!("a lost CPU must fail the run with a typed executor error");
        };
        assert_eq!(err.kind(), ExecErrorKind::DeviceFault);
        assert_eq!(err.context().device.as_deref(), Some("cpu"));
        assert_eq!(err.context().attempt, Some(1));
        assert!(!err.causes().is_empty(), "{err}");

        let tight = RunOptions {
            deadline_us: 0.001,
            ..RunOptions::default()
        };
        let Err(BuildError::Exec(err)) = compiled.run_with(&inputs, &tight) else {
            panic!("a 1 ns budget must fail the run with a typed executor error");
        };
        assert_eq!(err.kind(), ExecErrorKind::Deadline);
    }

    #[test]
    fn artifact_roundtrip_through_android_device() {
        use crate::codegen::NeuronModule;
        use tvmnp_runtime::artifact::LoaderRegistry;
        use tvmnp_runtime::AndroidDevice;
        let (m, inputs) = clean_model();
        let (mut compiled, artifact) = relay_build_with_artifact(
            &m,
            TargetMode::Byoc(TargetPolicy::ApuPrefer),
            CostModel::default(),
        )
        .unwrap();
        let artifact = artifact.unwrap();
        let (reference, _) = compiled.run(&inputs).unwrap();

        let mut loaders = LoaderRegistry::new();
        loaders.register("neuropilot", NeuronModule::loader(CostModel::default()));
        let phone = AndroidDevice::new("oppo-reno4z", loaders, CostModel::default());
        let mut ex = phone.load(&artifact).unwrap();
        ex.set_input("x", inputs["x"].clone()).unwrap();
        ex.run().unwrap();
        assert!(ex.get_output(0).unwrap().bit_eq(&reference[0]));
    }

    #[test]
    fn artifact_of_products_is_the_export_of_their_linked_modules() {
        use tvmnp_runtime::module::ExternalModule;
        let (m, _) = mixed_model();
        let products = compile(&m, TargetMode::Byoc(TargetPolicy::CpuApu)).unwrap();
        let CachedArtifact::Tvm { graph, modules, .. } = products.clone() else {
            unreachable!("BYOC products are TVM-side");
        };
        assert!(modules.len() >= 2);
        let link = |b: NeuronBlob| b.link(CostModel::default());
        let linked: Vec<_> = modules.into_iter().map(link).collect();
        let refs: Vec<&dyn ExternalModule> =
            linked.iter().map(|m| m as &dyn ExternalModule).collect();
        let by_export = serde_json::to_string(&Artifact::export(&graph, &refs)).unwrap();
        let on_demand = serde_json::to_string(&products.artifact().unwrap()).unwrap();
        assert!(
            on_demand == by_export,
            "artifact() and Artifact::export disagree"
        );
    }
}
