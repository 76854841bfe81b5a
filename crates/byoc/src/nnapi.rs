//! The Android NNAPI BYOC flow — the paper team's *previous* work
//! (reference \[11\], "Enabling android nnapi flow for tvm runtime"), which
//! §3/Fig. 3 positions as the predecessor of the NeuroPilot-direct flow
//! this paper builds.
//!
//! NNAPI reaches the same accelerators but through the Android HAL:
//!
//! * a **narrower op surface** than Neuron IR (the C API lags the vendor
//!   compiler — e.g. no leaky-ReLU, no element-wise maximum, no pad), so
//!   the BYOC partitioner offloads fewer ops and produces more subgraphs;
//! * an extra **HAL round trip** per compiled-model execution
//!   (`ANeuralNetworksExecution_compute` crosses the binder boundary).
//!
//! Both effects are modelled here, and the `nnapi_vs_nir` harness shows
//! the consequence the paper's introduction claims: the NeuroPilot-direct
//! flow dominates the NNAPI flow it replaced.

use crate::build::{input_names_of, BuildError, CompiledModel};
use crate::codegen::NeuronModule;
use tvmnp_hwsim::ledger::{self, CostEntry, CostRole};
use tvmnp_hwsim::CostModel;
use tvmnp_neuropilot::{neuron_supported, TargetPolicy};
use tvmnp_relay::expr::Module;
use tvmnp_relay::passes::{
    fold_constants, partition_graph, simplify, CompilerSupport, PartitionReport,
};
use tvmnp_relay::{OpKind, Type};
use tvmnp_runtime::module::{ExternalModule, ModuleError};
use tvmnp_runtime::{ExecutorGraph, GraphExecutor, ModuleRegistry};
use tvmnp_tensor::Tensor;

/// Fixed HAL/binder round-trip charged per NNAPI execution, microseconds
/// (scaled with the rest of the overhead model; see DESIGN.md).
pub const NNAPI_HAL_OVERHEAD_US: f64 = 40.0;

/// Relay ops Neuron IR converts but the NNAPI C API cannot express.
pub const NNAPI_GAPS: &[&str] = &["nn.leaky_relu", "maximum", "nn.pad", "transpose"];

/// Whether the NNAPI flow can take this Relay op: NNAPI drives the same
/// compiled network underneath, so its surface is NeuroPilot's
/// ([`neuron_supported`]) less [`NNAPI_GAPS`].
pub fn nnapi_supported(op: &OpKind) -> bool {
    neuron_supported(op) && !NNAPI_GAPS.contains(&op.name())
}

/// The `CompilerSupport` oracle of the NNAPI flow.
pub struct NnapiSupport;

impl CompilerSupport for NnapiSupport {
    fn name(&self) -> &str {
        "nnapi"
    }

    fn supported(&self, op: &OpKind, _arg_types: &[&Type]) -> bool {
        nnapi_supported(op)
    }
}

/// An NNAPI external module: the same compiled network underneath (NNAPI
/// drives the same silicon), plus the HAL round trip per execution.
pub struct NnapiModule {
    inner: NeuronModule,
    /// The inner network's entries plus the HAL round trip — real charged
    /// time, so it is an entry like any other and lands on the dispatch
    /// device in every per-device view.
    ledger: Vec<CostEntry>,
}

impl NnapiModule {
    /// Run the NNAPI codegen on a partitioned Relay function.
    pub fn codegen(
        symbol: impl Into<String>,
        func: &tvmnp_relay::Function,
        policy: TargetPolicy,
        cost: CostModel,
    ) -> Result<Self, tvmnp_neuropilot::NeuronError> {
        let inner = NeuronModule::codegen(symbol, func, policy, cost)?;
        let mut ledger = Vec::with_capacity(inner.ledger().len() + 1);
        ledger.extend_from_slice(inner.ledger());
        ledger.push(CostEntry::fixed(
            0,
            "nnapi-hal",
            CostRole::Hal,
            inner.dispatch_device(),
            NNAPI_HAL_OVERHEAD_US,
        ));
        Ok(NnapiModule { inner, ledger })
    }
}

impl ExternalModule for NnapiModule {
    fn symbol(&self) -> &str {
        self.inner.symbol()
    }

    fn compiler(&self) -> &str {
        "nnapi"
    }

    fn dispatch_device(&self) -> tvmnp_hwsim::DeviceKind {
        self.inner.dispatch_device()
    }

    fn run(&self, inputs: &[&Tensor]) -> Result<(Vec<Tensor>, f64), ModuleError> {
        let (outs, _) = self.inner.run(inputs)?;
        Ok((outs, ledger::total_us(&self.ledger)))
    }

    fn ledger(&self) -> &[CostEntry] {
        &self.ledger
    }

    fn serialize(&self) -> serde_json::Value {
        self.inner.serialize()
    }
}

/// Build a module through the NNAPI flow: partition with the NNAPI op
/// surface and execute external subgraphs through the HAL.
pub fn relay_build_nnapi(
    module: &Module,
    policy: TargetPolicy,
    cost: CostModel,
) -> Result<(CompiledModel, PartitionReport), BuildError> {
    let prepared = fold_constants(&simplify(module));
    let input_names = input_names_of(&prepared);
    let (partitioned, report) = partition_graph(&prepared, &NnapiSupport)
        .map_err(|e| BuildError::Partition(e.to_string()))?;
    let graph =
        ExecutorGraph::build(&partitioned).map_err(|e| BuildError::Runtime(e.to_string()))?;
    let mut registry = ModuleRegistry::new();
    for name in partitioned.external_functions() {
        let func = &partitioned.functions[name];
        let module =
            NnapiModule::codegen(name, func, policy, cost.clone()).map_err(BuildError::Neuron)?;
        registry.register(Box::new(module));
    }
    let executor = GraphExecutor::new(graph, registry, cost)
        .map_err(|e| BuildError::Runtime(e.to_string()))?;
    Ok((
        CompiledModel::Tvm {
            executor,
            input_names,
            report: report.clone(),
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{relay_build, TargetMode};
    use tvmnp_models_testutil::*;

    // Local mini-model helpers (the models crate depends on byoc's
    // downstream siblings, so tests build their own graphs).
    mod tvmnp_models_testutil {
        pub use std::collections::HashMap;
        pub use tvmnp_relay::builder::*;
        pub use tvmnp_relay::expr::{var, Function, Module};
        pub use tvmnp_relay::{Conv2dAttrs, TensorType};
        pub use tvmnp_tensor::rng::TensorRng;
        pub use tvmnp_tensor::Tensor;

        /// conv → leaky_relu (NNAPI-unsupported) → conv → relu → softmax.
        pub fn leaky_model() -> (Module, HashMap<String, Tensor>) {
            let mut rng = TensorRng::new(71);
            let x = var("x", TensorType::f32([1, 8, 16, 16]));
            let w1 = rng.uniform_f32([8, 8, 3, 3], -0.4, 0.4);
            let e = conv2d(x.clone(), w1, Conv2dAttrs::same(1));
            let e = leaky_relu(e, 0.1);
            let w2 = rng.uniform_f32([8, 8, 3, 3], -0.4, 0.4);
            let e = relu(conv2d(e, w2, Conv2dAttrs::same(1)));
            let e = softmax(batch_flatten(e));
            let m = Module::from_main(Function::new(vec![x], e));
            let mut ins = HashMap::new();
            ins.insert("x".to_string(), rng.uniform_f32([1, 8, 16, 16], -1.0, 1.0));
            (m, ins)
        }
    }

    #[test]
    fn nnapi_surface_is_a_strict_subset_of_neuron() {
        use tvmnp_relay::{LeakyReluAttrs, PadAttrs, TransposeAttrs};
        assert!(nnapi_supported(&OpKind::Relu));
        // The gaps that motivated the NeuroPilot-direct flow.
        for op in [
            OpKind::LeakyRelu(LeakyReluAttrs { alpha: 0.1 }),
            OpKind::Maximum,
            OpKind::Pad(PadAttrs {
                pads: vec![(0, 0)],
                value: 0.0,
            }),
            OpKind::Transpose(TransposeAttrs { axes: vec![0] }),
        ] {
            assert!(neuron_supported(&op));
            assert!(
                !nnapi_supported(&op),
                "{} should be an NNAPI gap",
                op.name()
            );
        }
    }

    #[test]
    fn nnapi_flow_runs_and_matches_reference() {
        let (m, ins) = leaky_model();
        let reference = tvmnp_relay::interp::run_module(&m, &ins).unwrap();
        let (mut compiled, report) =
            relay_build_nnapi(&m, TargetPolicy::CpuApu, CostModel::default()).unwrap();
        assert!(
            report.num_subgraphs >= 2,
            "leaky_relu must split the NNAPI offload"
        );
        let (outs, t) = compiled.run(&ins).unwrap();
        assert!(outs[0].bit_eq(&reference));
        assert!(t > 0.0);
    }

    #[test]
    fn neuropilot_direct_dominates_nnapi() {
        let (m, _) = leaky_model();
        let cost = CostModel::default();
        // NeuroPilot-direct offloads the leaky_relu too.
        let (_, nir_report) = crate::build::partition_for_nir(&m).unwrap();
        let (nnapi_compiled, nnapi_report) =
            relay_build_nnapi(&m, TargetPolicy::CpuApu, cost.clone()).unwrap();
        assert!(nir_report.offload_fraction() > nnapi_report.offload_fraction());
        assert!(nir_report.num_subgraphs < nnapi_report.num_subgraphs);

        let nir_compiled = relay_build(&m, TargetMode::Byoc(TargetPolicy::CpuApu), cost).unwrap();
        let t_nir = nir_compiled.estimate_us();
        let t_nnapi = nnapi_compiled.estimate_us();
        assert!(
            t_nir < t_nnapi,
            "NeuroPilot-direct ({t_nir:.1} us) must beat NNAPI ({t_nnapi:.1} us)"
        );
    }

    #[test]
    fn hal_overhead_charged_per_subgraph_execution() {
        let (m, _) = leaky_model();
        let cost = CostModel::default();
        let (nnapi_compiled, report) =
            relay_build_nnapi(&m, TargetPolicy::CpuOnly, cost.clone()).unwrap();
        // Build the same partition through plain NeuronModules to isolate
        // the HAL term.
        let prepared = fold_constants(&simplify(&m));
        let (partitioned, _) = partition_graph(&prepared, &NnapiSupport).unwrap();
        let graph = ExecutorGraph::build(&partitioned).unwrap();
        let mut registry = ModuleRegistry::new();
        for name in partitioned.external_functions() {
            registry.register(Box::new(
                NeuronModule::codegen(
                    name,
                    &partitioned.functions[name],
                    TargetPolicy::CpuOnly,
                    cost.clone(),
                )
                .unwrap(),
            ));
        }
        let plain = GraphExecutor::new(graph, registry, cost).unwrap();
        let delta = nnapi_compiled.estimate_us() - plain.estimate_time_us();
        let expected = report.num_subgraphs as f64 * NNAPI_HAL_OVERHEAD_US;
        assert!(
            (delta - expected).abs() < 1e-6,
            "HAL delta {delta} != {expected} ({} subgraphs)",
            report.num_subgraphs
        );
    }
}
