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

use crate::build::{byoc_lower, tvm_model, BuildError, CompiledModel};
use crate::codegen::NeuronModule;
use tvmnp_hwsim::ledger::{self, CostEntry, CostRole};
use tvmnp_hwsim::CostModel;
use tvmnp_neuropilot::{neuron_supported, TargetPolicy};
use tvmnp_relay::expr::Module;
use tvmnp_relay::passes::{CompilerSupport, PartitionReport};
use tvmnp_relay::OpKind;
use tvmnp_runtime::module::{ExternalModule, ModuleError};
use tvmnp_runtime::ModuleRegistry;
use tvmnp_tensor::Tensor;

/// Fixed HAL/binder round-trip charged per NNAPI execution, microseconds
/// (scaled with the rest of the overhead model; see DESIGN.md).
pub(crate) const NNAPI_HAL_OVERHEAD_US: f64 = 40.0;

/// Whether the NNAPI flow can take this Relay op: NNAPI drives the same
/// compiled network underneath, so its surface is NeuroPilot's
/// ([`neuron_supported`]) less the ops the NNAPI C API cannot express.
pub(crate) fn nnapi_supported(op: &OpKind) -> bool {
    neuron_supported(op)
        && !matches!(
            op,
            OpKind::LeakyRelu(_) | OpKind::Maximum | OpKind::Pad(_) | OpKind::Transpose(_)
        )
}

/// The `CompilerSupport` oracle of the NNAPI flow.
pub(crate) struct NnapiSupport;

impl CompilerSupport for NnapiSupport {
    fn name(&self) -> &str {
        "nnapi"
    }

    fn supported(&self, op: &OpKind) -> bool {
        nnapi_supported(op)
    }
}

/// An NNAPI external module: a linked Neuron module (NNAPI drives the
/// same silicon), plus the HAL round trip per execution.
pub(crate) struct NnapiModule {
    inner: NeuronModule,
    /// The inner network's entries plus the HAL round trip — real charged
    /// time, so it is an entry like any other and lands on the dispatch
    /// device in every per-device view.
    ledger: Vec<CostEntry>,
}

impl NnapiModule {
    /// Drive `inner` through the HAL.
    fn new(inner: NeuronModule) -> Self {
        let mut ledger = Vec::with_capacity(inner.ledger().len() + 1);
        ledger.extend_from_slice(inner.ledger());
        ledger.push(CostEntry::fixed(
            0,
            "nnapi-hal",
            CostRole::Hal,
            inner.dispatch_device(),
            NNAPI_HAL_OVERHEAD_US,
        ));
        NnapiModule { inner, ledger }
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

/// Build a module through the NNAPI flow: the BYOC step under the NNAPI
/// op surface, each external subgraph executed through the HAL.
pub fn relay_build_nnapi(
    module: &Module,
    policy: TargetPolicy,
    cost: CostModel,
) -> Result<(CompiledModel, PartitionReport), BuildError> {
    let (graph, blobs, report) = byoc_lower(module, &NnapiSupport, policy)?;
    let mut registry = ModuleRegistry::new();
    for blob in blobs {
        registry.register(Box::new(NnapiModule::new(blob.link(cost.clone()))));
    }
    Ok((tvm_model(graph, registry, cost)?, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{partition, relay_build, TargetMode};
    use tvmnp_models_testutil::*;
    use tvmnp_runtime::ExecutorGraph;
    use tvmnp_runtime::GraphExecutor;

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

    /// The whole support matrix, one instance of every `OpKind` variant
    /// (and both counting average pools): whether NeuroPilot takes it,
    /// and whether NNAPI does. A moved row is a moved Fig. 4/6 bar.
    #[test]
    fn support_matrix_is_pinned() {
        use tvmnp_relay::*;
        use tvmnp_tensor::{DType, QuantParams};
        let q = QuantParams::new(0.05, 128);
        let counting = |padding| Pool2dAttrs {
            padding,
            count_include_pad: true,
            ..Pool2dAttrs::square(3)
        };
        #[rustfmt::skip]
        let rows = [
            (OpKind::Conv2d(Conv2dAttrs::same(1)), true, true),
            (OpKind::Dense, true, true),
            (OpKind::BiasAdd, true, true),
            (OpKind::BatchNorm(BatchNormAttrs { epsilon: 1e-5 }), false, false),
            (OpKind::Relu, true, true),
            (OpKind::LeakyRelu(LeakyReluAttrs { alpha: 0.1 }), true, false),
            (OpKind::Clip(ClipAttrs { min: 0.0, max: 6.0 }), true, true),
            (OpKind::Sigmoid, true, true),
            (OpKind::Tanh, true, true),
            (OpKind::Exp, false, false),
            (OpKind::Sqrt, false, false),
            (OpKind::Negative, false, false),
            (OpKind::MaxPool2d(Pool2dAttrs::square(2)), true, true),
            (OpKind::AvgPool2d(Pool2dAttrs::square(2)), true, true),
            (OpKind::AvgPool2d(counting((0, 0, 0, 0))), true, true),
            (OpKind::AvgPool2d(counting((1, 1, 1, 1))), false, false),
            (OpKind::GlobalAvgPool2d, true, true),
            (OpKind::Softmax, true, true),
            (OpKind::LogSoftmax, false, false),
            (OpKind::Add, true, true),
            (OpKind::Subtract, false, false),
            (OpKind::Multiply, true, true),
            (OpKind::Divide, false, false),
            (OpKind::Maximum, true, false),
            (OpKind::Minimum, false, false),
            (OpKind::Reshape(ReshapeAttrs { new_shape: vec![1, 8] }), true, true),
            (OpKind::Transpose(TransposeAttrs { axes: vec![1, 0] }), true, false),
            (OpKind::Concatenate(ConcatAttrs { axis: 1 }), true, true),
            (OpKind::Pad(PadAttrs { pads: vec![(0, 0), (1, 1)], value: 0.0 }), true, false),
            (OpKind::StridedSlice(SliceAttrs { begin: vec![0], end: vec![1] }), false, false),
            (OpKind::BatchFlatten, true, true),
            (OpKind::Resize2d(Resize2dAttrs { out_h: 2, out_w: 2, bilinear: true }), false, false),
            (OpKind::Mean(MeanAttrs { axes: vec![1] }), false, false),
            (OpKind::Dropout, false, false),
            (OpKind::QnnQuantize(QuantizeAttrs { out: q, out_dtype: DType::U8 }), true, true),
            (OpKind::QnnDequantize(DequantizeAttrs { input: q }), true, true),
            (OpKind::QnnRequantize(RequantizeAttrs { input: q, output: q, out_dtype: DType::U8 }), true, true),
            (OpKind::QnnConv2d(QnnConv2dAttrs {
                conv: Conv2dAttrs::same(1), input_q: q, weight_q: q, output_q: q, out_dtype: DType::U8,
            }), true, true),
            (OpKind::QnnDense(QnnDenseAttrs { input_q: q, weight_q: q, output_q: q, out_dtype: DType::U8 }), true, true),
            (OpKind::QnnAdd(QnnAddAttrs { lhs_q: q, rhs_q: q, output_q: q, out_dtype: DType::U8 }), true, true),
            (OpKind::QnnConcatenate(QnnConcatAttrs { axis: 1, input_qs: vec![q, q], output_q: q }), true, true),
        ];
        let names: std::collections::BTreeSet<_> = rows.iter().map(|(op, ..)| op.name()).collect();
        assert_eq!(names.len(), 39, "one row per OpKind variant");
        for (op, neuron, nnapi) in &rows {
            assert_eq!(neuron_supported(op), *neuron, "NeuroPilot row {op:?}");
            assert_eq!(nnapi_supported(op), *nnapi, "NNAPI row {op:?}");
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
        let (partitioned, _) = partition(&m, &NnapiSupport).unwrap();
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
