//! The NeuroPilot external codegen and runtime-module wrapper.

use serde::{Deserialize, Serialize};
use tvmnp_hwsim::{CostEntry, CostModel};
use tvmnp_neuropilot::{
    convert_function, CompiledNetwork, ExecutionPlan, NeuronError, NeuronGraph, Planner,
    TargetPolicy,
};
use tvmnp_relay::Function;
use tvmnp_runtime::artifact::{ExternalBlob, ModuleLoader};
use tvmnp_runtime::module::{ExternalModule, ModuleError};
use tvmnp_tensor::Tensor;

/// The compiler name external blobs and loaders are keyed by.
const COMPILER: &str = "neuropilot";

/// One compiled Neuron subgraph, before it is priced: what the external
/// codegen produces, what the cache holds, and (serialized) the artifact
/// payload a runtime-only device loads. No cost model went into it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NeuronBlob {
    /// Global symbol the subgraph implements.
    pub symbol: String,
    /// Policy the plan was made under.
    pub policy: TargetPolicy,
    /// The converted Neuron graph (constants shared, not copied, on clone).
    pub graph: NeuronGraph,
    /// The execution plan (one placement per op). Shipping it lets a runtime-
    /// only device instantiate the network without a planner — loading is
    /// not compiling.
    pub plan: ExecutionPlan,
}

impl NeuronBlob {
    /// Run the external codegen on a partitioned Relay function: convert
    /// to Neuron IR and plan it.
    pub fn codegen(
        symbol: impl Into<String>,
        func: &Function,
        policy: TargetPolicy,
    ) -> Result<Self, NeuronError> {
        let graph = convert_function(func)?;
        let plan = {
            let _span = tvmnp_telemetry::span!("neuropilot.compile", "policy" => policy.label());
            Planner::plan(&graph, policy)?
        };
        Ok(NeuronBlob {
            symbol: symbol.into(),
            policy,
            graph,
            plan,
        })
    }

    /// Price the plan under `cost` and expose it to the graph executor.
    pub fn link(self, cost: CostModel) -> NeuronModule {
        NeuronModule {
            symbol: self.symbol,
            policy: self.policy,
            network: CompiledNetwork::from_plan(self.graph, self.plan, cost),
        }
    }

    /// This subgraph as an artifact's external entry.
    pub fn to_external(&self) -> ExternalBlob {
        ExternalBlob {
            symbol: self.symbol.clone(),
            compiler: COMPILER.to_string(),
            payload: serde_json::to_value(self).expect("Neuron blob serializes"),
        }
    }
}

/// A compiled Neuron subgraph exposed as a graph-executor module.
pub struct NeuronModule {
    symbol: String,
    policy: TargetPolicy,
    network: CompiledNetwork,
}

impl NeuronModule {
    /// Run the external codegen on a partitioned Relay function.
    pub fn codegen(
        symbol: impl Into<String>,
        func: &Function,
        policy: TargetPolicy,
        cost: CostModel,
    ) -> Result<Self, NeuronError> {
        Ok(NeuronBlob::codegen(symbol, func, policy)?.link(cost))
    }

    /// Rebuild from an artifact payload on a runtime-only device: the
    /// network is instantiated from the embedded plan — no planner run, no
    /// `neuropilot.compile` span. A malformed graph or plan is an error.
    pub fn from_blob(value: &serde_json::Value, cost: CostModel) -> Result<Self, String> {
        let blob = NeuronBlob::from_value(value).map_err(|e| e.to_string())?;
        blob.plan.validate(&blob.graph)?;
        Ok(blob.link(cost))
    }

    /// The runtime-side loader for `LoaderRegistry::register("neuropilot", ...)`.
    pub fn loader(cost: CostModel) -> ModuleLoader {
        Box::new(move |_symbol, payload| {
            NeuronModule::from_blob(payload, cost.clone())
                .map(|m| Box::new(m) as Box<dyn ExternalModule>)
        })
    }

    /// The planned network (for inspection in tests/benches).
    pub fn network(&self) -> &CompiledNetwork {
        &self.network
    }
}

impl ExternalModule for NeuronModule {
    fn symbol(&self) -> &str {
        &self.symbol
    }

    fn compiler(&self) -> &str {
        COMPILER
    }

    fn dispatch_device(&self) -> tvmnp_hwsim::DeviceKind {
        // Fault routing: the device whose driver a dispatch enters
        // through. CPU-only plans never touch the APU driver, so an APU
        // fault plan must not take them down.
        use tvmnp_hwsim::DeviceKind;
        match self.policy {
            TargetPolicy::CpuOnly => DeviceKind::Cpu,
            TargetPolicy::GpuPrefer => DeviceKind::Gpu,
            TargetPolicy::ApuPrefer | TargetPolicy::CpuApu => DeviceKind::Apu,
        }
    }

    fn run(&self, inputs: &[&Tensor]) -> Result<(Vec<Tensor>, f64), ModuleError> {
        self.network
            .execute_borrowed(inputs)
            .map_err(|e| ModuleError(e.to_string()))
    }

    fn ledger(&self) -> &[CostEntry] {
        // The plan's own per-op attribution: a CpuApu plan splits its
        // time between the devices it actually placed segments on.
        self.network.ledger()
    }

    fn serialize(&self) -> serde_json::Value {
        serde_json::to_value(NeuronBlob {
            symbol: self.symbol.clone(),
            policy: self.policy,
            graph: self.network.graph().clone(),
            plan: self.network.plan().clone(),
        })
        .expect("Neuron blob serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{var, Function};
    use tvmnp_relay::{Conv2dAttrs, TensorType};
    use tvmnp_tensor::rng::TensorRng;

    fn subgraph() -> Function {
        let mut rng = TensorRng::new(17);
        let x = var("nir_in0", TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let body = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        Function::new(vec![x], body).with_attr("Compiler", "neuropilot")
    }

    #[test]
    fn codegen_and_run() {
        let m = NeuronModule::codegen(
            "neuropilot_0",
            &subgraph(),
            TargetPolicy::CpuOnly,
            CostModel::default(),
        )
        .unwrap();
        let mut rng = TensorRng::new(18);
        let input = rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0);
        let (outs, t) = m.run(&[&input]).unwrap();
        assert_eq!(outs.len(), 1);
        assert!(t > 0.0);
        assert_eq!(m.compiler(), "neuropilot");
    }

    #[test]
    fn blob_roundtrip_preserves_numerics() {
        let m = NeuronModule::codegen(
            "neuropilot_0",
            &subgraph(),
            TargetPolicy::ApuPrefer,
            CostModel::default(),
        )
        .unwrap();
        let blob = m.serialize();
        let m2 = NeuronModule::from_blob(&blob, CostModel::default()).unwrap();
        let mut rng = TensorRng::new(19);
        let input = rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0);
        let (a, ta) = m.run(&[&input]).unwrap();
        let (b, tb) = m2.run(&[&input]).unwrap();
        assert!(a[0].bit_eq(&b[0]));
        assert_eq!(ta, tb);
    }

    /// Load a planned APU blob after `corrupt` has changed it, as bytes we
    /// did not write can.
    fn load_corrupted(corrupt: impl FnOnce(&mut NeuronBlob)) -> String {
        let mut blob = NeuronBlob::codegen("neuropilot_0", &subgraph(), TargetPolicy::ApuPrefer)
            .expect("codegen");
        corrupt(&mut blob);
        let loaded = NeuronModule::from_blob(&blob.to_external().payload, CostModel::default());
        loaded.err().expect("a malformed blob is an error")
    }

    #[test]
    fn blob_with_fewer_placements_than_ops_is_an_error_not_a_panic() {
        let err = load_corrupted(|blob| {
            blob.plan.placements.pop();
        });
        assert_eq!(err, "1 placements for 2 ops");
    }

    #[test]
    fn blob_with_an_out_of_range_input_is_an_error_not_a_panic() {
        let err = load_corrupted(|blob| blob.graph.ops[0].inputs[0] = 999);
        assert_eq!(err, "op 0 input id 999 out of range");
    }

    #[test]
    fn blob_with_an_op_without_output_is_an_error_not_a_panic() {
        let err = load_corrupted(|blob| blob.graph.ops[0].outputs.clear());
        assert_eq!(err, "op 0 (CONV_2D) has 0 outputs");
    }

    #[test]
    fn blob_with_a_one_operand_conv_is_an_error_not_a_panic() {
        let err = load_corrupted(|blob| blob.graph.ops[0].inputs.truncate(1));
        assert_eq!(err, "op 0 (CONV_2D) has 1 operands, expects 2 or 3");
    }

    #[test]
    fn blob_with_a_rank_2_conv_weight_is_an_error_not_a_panic() {
        let err = load_corrupted(|blob| {
            let w = blob.graph.ops[0].inputs[1];
            blob.graph.tensors[w].shape = [4, 27].into();
        });
        assert_eq!(err, "op 0 (CONV_2D) weight has rank 2, expects 4");
    }

    #[test]
    fn blob_with_an_overflowing_tensor_size_is_an_error_not_a_panic() {
        let err = load_corrupted(|blob| {
            let x = blob.graph.ops[0].inputs[0];
            blob.graph.tensors[x].shape = [1 << 33, 1 << 33].into();
        });
        assert_eq!(
            err,
            "tensor 0 ('nir_in0') of shape (8589934592, 8589934592) overflows a byte size"
        );
    }

    #[test]
    fn blob_with_a_tensor_written_twice_is_an_error() {
        let err =
            load_corrupted(|blob| blob.graph.ops[1].outputs[0] = blob.graph.ops[0].outputs[0]);
        assert_eq!(err, "op 1 (RELU) writes tensor 2, already defined");
    }

    #[test]
    fn unsupported_function_fails_codegen() {
        let x = var("p", TensorType::f32([1, 4]));
        let body = tvmnp_relay::expr::call(tvmnp_relay::OpKind::Exp, vec![x.clone()]);
        let f = Function::new(vec![x], body);
        assert!(matches!(
            NeuronModule::codegen("s", &f, TargetPolicy::CpuOnly, CostModel::default()),
            Err(NeuronError::UnsupportedOp(_))
        ));
    }
}
