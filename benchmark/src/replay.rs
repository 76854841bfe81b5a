//! Step-by-step replays of the calls the workloads make, one span per
//! public layer function, in the order the real call runs them. The
//! remainder of the real call against its replay is what the trace
//! reports as unattributed.

use crate::span::SpanBuf;
use std::collections::HashMap;
use tvm_neuropilot::byoc::{CompiledModel, NeuronModule, TargetMode};
use tvm_neuropilot::hwsim::CostModel;
use tvm_neuropilot::neuropilot::support::{first_unsupported, NeuronSupport};
use tvm_neuropilot::neuropilot::{convert_function, CompiledNetwork};
use tvm_neuropilot::relay::passes::{fold_constants, partition_graph, simplify};
use tvm_neuropilot::relay::Module;
use tvm_neuropilot::runtime::module::ExternalModule;
use tvm_neuropilot::runtime::{Artifact, ExecutorGraph, GraphExecutor, ModuleRegistry};
use tvm_neuropilot::tensor::Tensor;

/// `relay_build` + `estimate_us` (= `measure_one`), step by step. Returns
/// the simulated µs, or `None` where NeuroPilot refuses the model.
pub fn build(
    buf: &mut SpanBuf,
    module: &Module,
    mode: TargetMode,
    cost: &CostModel,
) -> Option<f64> {
    let simplified = buf.span("relay.simplify", |_| simplify(module));
    let prepared = buf.span("relay.fold_constants", |_| fold_constants(&simplified));
    match mode {
        TargetMode::TvmOnly => {
            let graph = buf
                .span("runtime.graph_build", |_| ExecutorGraph::build(&prepared))
                .expect("graph lowers");
            let _artifact = buf.span("runtime.artifact_export", |_| Artifact::export(&graph, &[]));
            let executor = buf
                .span("runtime.executor_new", |_| {
                    GraphExecutor::new(graph, ModuleRegistry::new(), cost.clone())
                })
                .expect("executor links");
            Some(buf.span("hwsim.estimate", |_| executor.estimate_time_us()))
        }
        TargetMode::Byoc(policy) => {
            let (partitioned, _report) = buf
                .span("relay.partition", |_| {
                    partition_graph(&prepared, &NeuronSupport)
                })
                .expect("partitions");
            let graph = buf
                .span("runtime.graph_build", |_| {
                    ExecutorGraph::build(&partitioned)
                })
                .expect("graph lowers");
            let modules: Vec<NeuronModule> = partitioned
                .external_functions()
                .into_iter()
                .map(|name| {
                    buf.span("byoc.codegen", |_| {
                        NeuronModule::codegen(
                            name,
                            &partitioned.functions[name],
                            policy,
                            cost.clone(),
                        )
                    })
                    .expect("codegen")
                })
                .collect();
            let _artifact = buf.span("runtime.artifact_export", |_| {
                let refs: Vec<&dyn ExternalModule> =
                    modules.iter().map(|m| m as &dyn ExternalModule).collect();
                Artifact::export(&graph, &refs)
            });
            let executor = buf
                .span("runtime.executor_new", |_| {
                    let mut registry = ModuleRegistry::new();
                    for m in modules {
                        registry.register(Box::new(m));
                    }
                    GraphExecutor::new(graph, registry, cost.clone())
                })
                .expect("executor links");
            Some(buf.span("hwsim.estimate", |_| executor.estimate_time_us()))
        }
        TargetMode::NeuroPilotOnly(policy) => {
            if buf
                .span("neuropilot.support", |_| first_unsupported(prepared.main()))
                .is_some()
            {
                return None;
            }
            let graph = buf
                .span("neuropilot.convert", |_| convert_function(prepared.main()))
                .expect("converts");
            let network = buf
                .span("neuropilot.compile", |_| {
                    CompiledNetwork::compile(graph, policy, cost.clone())
                })
                .expect("plans");
            Some(buf.span("hwsim.estimate", |_| network.estimate_time_us()))
        }
    }
}

/// `CompiledModel::run`, step by step through the variant's public
/// fields: bind inputs, run, fetch outputs.
pub fn run(buf: &mut SpanBuf, model: &mut CompiledModel, inputs: &HashMap<String, Tensor>) {
    match model {
        CompiledModel::Tvm {
            executor,
            input_names,
            ..
        } => {
            buf.span("runtime.set_input", |_| {
                for name in input_names.iter() {
                    executor
                        .set_input(name, inputs[name].clone())
                        .expect("input binds");
                }
            });
            buf.span("runtime.run", |_| executor.run()).expect("runs");
            buf.span("runtime.get_output", |_| {
                (0..executor.num_outputs())
                    .map(|i| executor.get_output(i).expect("output exists"))
                    .collect::<Vec<_>>()
            });
        }
        CompiledModel::Neuron {
            network,
            input_names,
        } => {
            let ordered: Vec<Tensor> = buf.span("neuropilot.bind_inputs", |_| {
                input_names.iter().map(|n| inputs[n].clone()).collect()
            });
            buf.span("neuropilot.execute", |_| network.execute(&ordered))
                .expect("executes");
        }
    }
}
