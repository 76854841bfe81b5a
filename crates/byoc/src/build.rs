//! The user-facing compile pipeline — the paper's Listings 2/3/4/6:
//! `mod = nir.partition_for_nir(mod, params)` followed by
//! `relay.build(mod, target)` and `GraphModule(...)`.

use crate::codegen::NeuronBlob;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use tvmnp_hwsim::{CostEntry, CostModel, FaultInjector, RetryPolicy};
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
    pub fn run(
        &mut self,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<(Vec<Tensor>, f64), BuildError> {
        match self {
            CompiledModel::Tvm {
                executor,
                input_names,
                ..
            } => {
                for name in input_names.iter() {
                    let v = inputs
                        .get(name)
                        .ok_or_else(|| BuildError::Runtime(format!("missing input '{name}'")))?;
                    executor
                        .set_input(name, v.clone())
                        .map_err(|e| BuildError::Runtime(e.to_string()))?;
                }
                let t = executor
                    .run()
                    .map_err(|e| BuildError::Runtime(e.to_string()))?;
                let outs = (0..executor.num_outputs())
                    .map(|i| executor.get_output(i))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| BuildError::Runtime(e.to_string()))?;
                Ok((outs, t))
            }
            CompiledModel::Neuron {
                network,
                input_names,
            } => {
                let ordered = ordered_inputs(input_names, inputs)?;
                network
                    .execute_borrowed(&ordered)
                    .map_err(BuildError::Neuron)
            }
        }
    }

    /// Run inference under fault injection: dispatches consult `injector`
    /// with retries per `retry` (backoff charged in simulated µs) and the
    /// whole run bounded by `deadline_us` of simulated time. Device-fault
    /// and deadline failures surface as [`BuildError::Exec`] /
    /// [`BuildError::Neuron`] with typed context; numerics are identical
    /// to [`CompiledModel::run`].
    pub fn run_resilient(
        &mut self,
        inputs: &HashMap<String, Tensor>,
        injector: &FaultInjector,
        retry: &RetryPolicy,
        deadline_us: f64,
    ) -> Result<(Vec<Tensor>, f64), BuildError> {
        match self {
            CompiledModel::Tvm {
                executor,
                input_names,
                ..
            } => {
                for name in input_names.iter() {
                    let v = inputs
                        .get(name)
                        .ok_or_else(|| BuildError::Runtime(format!("missing input '{name}'")))?;
                    executor
                        .set_input(name, v.clone())
                        .map_err(BuildError::Exec)?;
                }
                let opts = RunOptions {
                    injector: Some(injector),
                    retry: *retry,
                    deadline_us,
                };
                let t = executor.run_with(&opts).map_err(BuildError::Exec)?;
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
                let ordered = ordered_inputs(input_names, inputs)?;
                network
                    .execute_resilient(&ordered, injector, retry, deadline_us)
                    .map_err(BuildError::Neuron)
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

    /// The partition report (`None` for NP-only modes, which never
    /// partition).
    pub fn partition_report(&self) -> Option<&PartitionReport> {
        match self {
            CompiledModel::Tvm { report, .. } => Some(report),
            CompiledModel::Neuron { .. } => None,
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
    names: &[String],
    inputs: &'a HashMap<String, Tensor>,
) -> Result<Vec<&'a Tensor>, BuildError> {
    let find = |n: &String| inputs.get(n);
    let missing = |n: &String| BuildError::Runtime(format!("missing input '{n}'"));
    names
        .iter()
        .map(|n| find(n).ok_or_else(|| missing(n)))
        .collect()
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
    /// NeuroPilot-only modes: converted graph plus its execution plan.
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
