//! The Neuron runtime: executes a planned network.
//!
//! The runtime dispatches; it owns no op → kernel table. Each Neuron op is
//! lifted once, on the first run, back to the Relay operator it computes
//! ([`relay_op`]) and evaluated by the Relay interpreter's
//! [`eval_op`] — so numeric results are bit-identical to the interpreter
//! (the correctness check the paper performs against the origin
//! frameworks) by construction, while *simulated* time is charged on the
//! `tvmnp-hwsim` cost model: a driver dispatch per device run of the plan,
//! per-kernel time on the assigned device, reference-implementation penalty
//! for fallback ops, and a transfer per device-boundary crossing. Its
//! activations live in the slots of the graph executor's storage planner
//! ([`plan_memory`]), made with the lift.

use crate::convert::relay_op;
use crate::error::NeuronError;
use crate::nir::{NeuronGraph, TensorId};
use crate::planner::{ExecutionPlan, Placement, Planner, TargetPolicy};
use std::sync::OnceLock;
use tvmnp_hwsim::ledger::{self, CostEntry, CostRole};
use tvmnp_hwsim::{CostModel, DeviceKind, KernelClass};
use tvmnp_relay::interp::eval_op;
use tvmnp_relay::memory::{plan_memory, MemoryPlan, NodeRef, Program};
use tvmnp_relay::OpKind;
use tvmnp_tensor::Tensor;

/// A compiled, planned, executable Neuron network.
pub struct CompiledNetwork {
    graph: NeuronGraph,
    plan: ExecutionPlan,
    ledger: Vec<CostEntry>,
    /// What a run needs, made on the first one: a network that is only
    /// priced (every Fig. 4/6 bar) never pays for it.
    run_plan: OnceLock<Result<RunPlan, NeuronError>>,
}

/// `graph.ops` lifted to Relay operators, and where their results live.
struct RunPlan {
    relay_ops: Vec<OpKind>,
    memory: MemoryPlan,
    /// Per tensor, the op that writes it; `None` for inputs and constants.
    writer: Vec<Option<usize>>,
}

impl RunPlan {
    fn new(graph: &NeuronGraph) -> Result<RunPlan, NeuronError> {
        let relay_ops = (graph.ops.iter())
            .map(|op| relay_op(graph, op))
            .collect::<Result<_, _>>()?;
        let writer = graph.writers();
        let memory = plan_memory(&Steps(graph, &writer));
        Ok(RunPlan {
            relay_ops,
            memory,
            writer,
        })
    }

    /// The slot tensor `id` lives in, if an op writes it. Every op has a
    /// slot: the lift checked that each has a result.
    fn slot(&self, id: TensorId) -> Option<usize> {
        let op = self.writer.get(id).copied()??;
        Some(self.memory.slots_of(op)[0])
    }
}

/// A Neuron graph, with the op that writes each tensor, as a [`Program`]
/// of the storage planner: op `i` is step `i` and writes one value, its
/// result tensor.
struct Steps<'a>(&'a NeuronGraph, &'a [Option<usize>]);

impl Steps<'_> {
    /// The value tensor `id` is, if an op writes it.
    fn value(&self, &id: &TensorId) -> Option<NodeRef> {
        let node = self.1.get(id).copied()??;
        Some(NodeRef { node, output: 0 })
    }
}

impl Program for Steps<'_> {
    fn num_steps(&self) -> usize {
        self.0.ops.len()
    }

    fn writes(&self, step: usize) -> impl Iterator<Item = usize> {
        std::iter::once(self.0.tensors[self.0.ops[step].outputs[0]].size_bytes())
    }

    fn reads(&self, step: usize) -> impl Iterator<Item = NodeRef> {
        self.0.ops[step]
            .inputs
            .iter()
            .filter_map(|id| self.value(id))
    }

    fn outputs(&self) -> impl Iterator<Item = NodeRef> {
        self.0.outputs.iter().filter_map(|id| self.value(id))
    }
}

impl CompiledNetwork {
    /// Compile (plan) `graph` for `policy` over the cost model's SoC.
    pub fn compile(
        graph: NeuronGraph,
        policy: TargetPolicy,
        cost: CostModel,
    ) -> Result<Self, NeuronError> {
        let _span = tvmnp_telemetry::span!("neuropilot.compile", "policy" => policy.label());
        let plan = Planner::plan(&graph, policy)?;
        Ok(CompiledNetwork::from_plan(graph, plan, cost))
    }

    /// Wrap an externally-computed plan (e.g. the op-level scheduler of
    /// [`crate::oplevel`]) into an executable network.
    pub fn from_plan(graph: NeuronGraph, plan: ExecutionPlan, cost: CostModel) -> Self {
        let ledger = build_ledger(&graph, &plan, &cost);
        CompiledNetwork {
            graph,
            plan,
            ledger,
            run_plan: OnceLock::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &NeuronGraph {
        &self.graph
    }

    /// The execution plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Every charged item of one inference, in accumulation order: per
    /// device run a `dispatch` (and `staging` off-CPU), then one kernel per
    /// planned op, then one `transfer` per device crossing. The plan holds
    /// placements only; its runs and crossings exist as these entries.
    pub fn ledger(&self) -> &[CostEntry] {
        &self.ledger
    }

    /// Simulated inference time in microseconds (input-independent: static
    /// shapes, static plan).
    pub fn estimate_time_us(&self) -> f64 {
        ledger::total_us(&self.ledger)
    }

    /// Simulated inference energy in microjoules: per-op kernel energy on
    /// the assigned device (reference-fallback ops burn untuned-CPU
    /// energy) plus boundary-transfer traffic.
    pub fn estimate_energy_uj(&self) -> f64 {
        ledger::total_energy_uj(&self.ledger)
    }

    /// Execute on concrete inputs (in `graph.inputs` order); returns the
    /// output tensors and the simulated time in microseconds.
    pub fn execute(&self, inputs: &[Tensor]) -> Result<(Vec<Tensor>, f64), NeuronError> {
        self.execute_borrowed(&inputs.iter().collect::<Vec<_>>())
    }

    /// [`CompiledNetwork::execute`] on borrowed inputs — what a caller that
    /// does not own its tensors (the graph executor) uses. Nothing is
    /// copied in: an operand is read where it is (see
    /// [`CompiledNetwork::read`]), an activation lives in its planned slot
    /// until the plan says it dies, and outputs are moved out of theirs.
    pub fn execute_borrowed(&self, inputs: &[&Tensor]) -> Result<(Vec<Tensor>, f64), NeuronError> {
        let _span = tvmnp_telemetry::span!("neuropilot.execute");
        let graph = &self.graph;
        if inputs.len() != graph.inputs.len() {
            return Err(NeuronError::Execution(format!(
                "expected {} inputs, got {}",
                graph.inputs.len(),
                inputs.len()
            )));
        }
        let run_plan = (self.run_plan)
            .get_or_init(|| RunPlan::new(graph))
            .as_ref()
            .map_err(NeuronError::clone)?;
        for (&id, input) in graph.inputs.iter().zip(inputs) {
            let out_of_range = || NeuronError::Execution(format!("slot {id} out of range"));
            let expect = graph.tensors.get(id).ok_or_else(out_of_range)?;
            if input.shape() != &expect.shape || input.dtype() != expect.dtype {
                return Err(NeuronError::Execution(format!(
                    "input '{}' expects {} {}, got {} {}",
                    expect.name,
                    expect.shape,
                    expect.dtype,
                    input.shape(),
                    input.dtype()
                )));
            }
        }

        let memory = &run_plan.memory;
        let mut slots: Vec<Option<Tensor>> = vec![None; memory.slot_bytes.len()];
        for (i, (op, kind)) in graph.ops.iter().zip(&run_plan.relay_ops).enumerate() {
            let args: Vec<&Tensor> = (op.inputs.iter())
                .map(|&id| self.read(inputs, run_plan, &slots, id, "input"))
                .collect::<Result<_, _>>()?;
            let out = eval_op(kind, &args).map_err(|e| NeuronError::Execution(e.to_string()))?;
            slots[memory.slots_of(i)[0]] = Some(out);
            for &slot in memory.dying_after(i) {
                slots[slot] = None;
            }
        }
        let mut outputs = Vec::with_capacity(graph.outputs.len());
        for (k, &id) in graph.outputs.iter().enumerate() {
            // Moved out of its slot, unless the same tensor is listed again.
            let moved = (run_plan.slot(id))
                .filter(|_| !graph.outputs[k + 1..].contains(&id))
                .and_then(|slot| slots[slot].take());
            outputs.push(match moved {
                Some(tensor) => tensor,
                None => self.read(inputs, run_plan, &slots, id, "output")?.clone(),
            });
        }
        Ok((outputs, self.estimate_time_us()))
    }

    /// The value of tensor `id` at this point of a run: what an op has
    /// written to its slot, else the caller's input, else the graph's
    /// constant.
    fn read<'a>(
        &'a self,
        inputs: &[&'a Tensor],
        run_plan: &RunPlan,
        slots: &'a [Option<Tensor>],
        id: TensorId,
        what: &str,
    ) -> Result<&'a Tensor, NeuronError> {
        let written = run_plan.slot(id).and_then(|slot| slots[slot].as_ref());
        let input = || Some(inputs[self.graph.inputs.iter().position(|&i| i == id)?]);
        let constant = || self.graph.tensors.get(id)?.data.as_deref();
        (written.or_else(input).or_else(constant))
            .ok_or_else(|| NeuronError::Execution(format!("{what} slot {id} empty")))
    }
}

/// Derive the network's cost ledger — the only place a Neuron network is
/// charged, and the only place a plan's placements are walked into what
/// they imply. Per device run (a maximal run of consecutive ops on one
/// device) a driver dispatch; off-CPU runs also stage their weights
/// through the driver each dispatch (the prototype runtime does not cache
/// them). Per op its kernel on the assigned device (NNAPI-style reference
/// fallbacks run an untuned CPU kernel). Per tensor crossing devices one
/// transfer.
pub(crate) fn build_ledger(
    graph: &NeuronGraph,
    plan: &ExecutionPlan,
    cost: &CostModel,
) -> Vec<CostEntry> {
    let placements = &plan.placements;
    let runs = || placements.chunk_by(|a, b| a.device == b.device);
    let crossings = crossing_bytes(graph, placements);
    let mut ledger = Vec::with_capacity(2 * runs().count() + graph.ops.len() + crossings.len());
    let mut first = 0;
    for (s, run) in runs().enumerate() {
        let device = run[0].device;
        let ops = &graph.ops[first..first + run.len()];
        first += run.len();
        let dispatch_us = cost.subgraph_dispatch_us(device);
        let dispatch = CostEntry::fixed(s, "dispatch", CostRole::Dispatch, device, dispatch_us);
        ledger.push(dispatch);
        if device != DeviceKind::Cpu {
            let const_bytes: usize = (ops.iter().flat_map(|op| &op.inputs))
                .filter(|&&tid| graph.tensors[tid].is_const())
                .map(|&tid| graph.tensors[tid].size_bytes())
                .sum();
            if const_bytes > 0 {
                ledger.push(CostEntry::transfer(
                    cost,
                    s,
                    "staging",
                    CostRole::Staging,
                    device,
                    const_bytes,
                ));
            }
        }
    }
    for (i, (op, p)) in graph.ops.iter().zip(placements).enumerate() {
        let w = graph.work(op);
        let (device, class) = if p.fallback {
            (DeviceKind::Cpu, KernelClass::TvmUntuned)
        } else {
            (p.device, KernelClass::VendorTuned)
        };
        let kernel = CostEntry::kernel(cost, i, op.kind.name(), &w, device, class, p.fallback);
        ledger.push(kernel);
    }
    for (c, bytes) in crossings.into_iter().enumerate() {
        ledger.push(CostEntry::transfer(
            cost,
            c,
            "transfer",
            CostRole::Transfer,
            DeviceKind::Cpu,
            bytes,
        ));
    }
    ledger
}

/// The size of every tensor that crosses devices under `placements`, in
/// charge order: producer/consumer mismatches in op order, then graph
/// inputs read off the CPU, then graph outputs produced off it (the host
/// application lives on the CPU side).
fn crossing_bytes(graph: &NeuronGraph, placements: &[Placement]) -> Vec<usize> {
    let placed = || graph.ops.iter().zip(placements);
    let mut produced_on = vec![None; graph.tensors.len()];
    for (op, p) in placed() {
        for &id in &op.outputs {
            produced_on[id] = Some(p.device);
        }
    }
    let off = |id: TensorId, device: DeviceKind| produced_on[id].is_some_and(|d| d != device);
    let size = |&id: &TensorId| graph.tensors[id].size_bytes();
    let mut bytes = Vec::new();
    for (op, p) in placed() {
        bytes.extend(op.inputs.iter().filter(|&&id| off(id, p.device)).map(size));
    }
    let read_off_cpu = |id: TensorId| {
        placed().any(|(op, p)| op.inputs.contains(&id) && p.device != DeviceKind::Cpu)
    };
    bytes.extend(
        graph
            .inputs
            .iter()
            .filter(|&&id| read_off_cpu(id))
            .map(size),
    );
    bytes.extend(
        graph
            .outputs
            .iter()
            .filter(|&&id| off(id, DeviceKind::Cpu))
            .map(size),
    );
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert_function;
    use crate::nir::{NeuronOp, NeuronOpKind};
    use std::collections::HashMap;
    use tvmnp_hwsim::WorkKind;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{call, var, Function, Module};
    use tvmnp_relay::interp::run_module;
    use tvmnp_relay::{Conv2dAttrs, DequantizeAttrs, QnnConv2dAttrs, QuantizeAttrs, TensorType};
    use tvmnp_tensor::rng::TensorRng;
    use tvmnp_tensor::{DType, QuantParams};

    fn small_net() -> (Function, Tensor) {
        let mut rng = TensorRng::new(21);
        let x = var("x", TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let b = rng.uniform_f32([4], -0.1, 0.1);
        let body = builder::softmax(builder::batch_flatten(builder::relu(builder::bias_add(
            builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)),
            b,
        ))));
        (
            Function::new(vec![x], body),
            rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0),
        )
    }

    #[test]
    fn neuron_runtime_matches_relay_interpreter() {
        let (f, input) = small_net();
        let g = convert_function(&f).unwrap();
        let net = CompiledNetwork::compile(g, TargetPolicy::CpuOnly, CostModel::default()).unwrap();
        let (outs, time_us) = net.execute(std::slice::from_ref(&input)).unwrap();
        let module = Module::from_main(f);
        let mut ins = HashMap::new();
        ins.insert("x".to_string(), input);
        let reference = run_module(&module, &ins).unwrap();
        assert!(
            outs[0].bit_eq(&reference),
            "Neuron path must be bit-identical to Relay"
        );
        assert!(time_us > 0.0);
    }

    #[test]
    fn policies_agree_numerically_but_not_in_time() {
        let (f, input) = small_net();
        let g = convert_function(&f).unwrap();
        let mut times = Vec::new();
        let mut outputs: Vec<Tensor> = Vec::new();
        for policy in TargetPolicy::ALL {
            let net = CompiledNetwork::compile(g.clone(), policy, CostModel::default()).unwrap();
            let (outs, t) = net.execute(std::slice::from_ref(&input)).unwrap();
            times.push(t);
            outputs.push(outs[0].clone());
        }
        for o in &outputs[1..] {
            assert!(o.bit_eq(&outputs[0]), "placement must not change numerics");
        }
        // Times differ across policies (different devices/overheads).
        assert!(times.iter().any(|&t| (t - times[0]).abs() > 1e-6));
    }

    #[test]
    fn ledger_separates_injected_scale_from_analytic_time() {
        let (f, _) = small_net();
        let g = convert_function(&f).unwrap();
        let scaled = CostModel::default().with_kind_scale(WorkKind::MacHeavy, 2.0);
        let net = CompiledNetwork::compile(g, TargetPolicy::CpuApu, scaled).unwrap();
        // The injected 2x mac slowdown separates charged from analytic
        // exactly on mac kernels; everything else stays at parity.
        assert!(net.ledger().iter().any(|e| e.kind == WorkKind::MacHeavy));
        for e in net.ledger() {
            if e.kind == WorkKind::MacHeavy {
                assert!(e.us > e.analytic_us, "{}: scaled mac kernel", e.label);
            } else {
                assert_eq!(e.us, e.analytic_us, "{}", e.label);
            }
        }
    }

    #[test]
    fn concat_of_unwritten_slot_is_an_error_not_a_panic() {
        use crate::nir::NeuronTensor;
        // What a corrupt blob can hold: a concat whose second operand no
        // op produces and no constant fills.
        let t = |name: &str, dims: [usize; 2]| NeuronTensor {
            name: name.into(),
            shape: dims.into(),
            dtype: DType::F32,
            quant: None,
            data: None,
        };
        let graph = NeuronGraph {
            tensors: vec![t("x", [1, 2]), t("ghost", [1, 2]), t("y", [1, 4])],
            ops: vec![NeuronOp {
                kind: NeuronOpKind::Concat { axis: 1 },
                inputs: vec![0, 1],
                outputs: vec![2],
            }],
            inputs: vec![0],
            outputs: vec![2],
        };
        let net =
            CompiledNetwork::compile(graph, TargetPolicy::CpuOnly, CostModel::default()).unwrap();
        let err = net.execute(&[Tensor::zeros_f32([1, 2])]).unwrap_err();
        assert!(
            matches!(err, NeuronError::Execution(ref m) if m.contains("slot 1 empty")),
            "{err}"
        );
    }

    /// The executor's storage planner, run on a converted network: a value
    /// read by three ops and a result nothing reads never share a slot
    /// with a live value, and the run still matches the interpreter.
    #[test]
    fn shared_planner_never_aliases_a_neuron_network() {
        use crate::nir::NeuronTensor;
        let x = var("x", TensorType::f32([1, 64]));
        let a = builder::relu(x.clone());
        let f = Function::new(vec![x], builder::add(a.clone(), builder::sigmoid(a)));
        let mut g = convert_function(&f).unwrap();
        let relu = g.ops[0].outputs[0];
        let dead = g.add_tensor(NeuronTensor {
            name: "dead".into(),
            shape: [1, 64].into(),
            dtype: DType::F32,
            quant: None,
            data: None,
        });
        g.add_op(NeuronOp {
            kind: NeuronOpKind::Tanh,
            inputs: vec![relu],
            outputs: vec![dead],
        });
        g.validate().unwrap();

        let run_plan = RunPlan::new(&g).unwrap();
        let steps = Steps(&g, &run_plan.writer);
        let memory = &run_plan.memory;
        assert_eq!(memory.check_no_alias(&steps), None);
        let tanh = g.ops.len() - 1;
        assert!(memory.dying_after(tanh).contains(&memory.slots_of(tanh)[0]));
        assert!(0 < memory.peak_bytes && memory.peak_bytes <= memory.pool_bytes);

        let input = TensorRng::new(5).uniform_f32([1, 64], -1.0, 1.0);
        let net = CompiledNetwork::compile(g, TargetPolicy::CpuOnly, CostModel::default()).unwrap();
        let (outs, _) = net.execute(std::slice::from_ref(&input)).unwrap();
        let mut ins = HashMap::new();
        ins.insert("x".to_string(), input);
        let reference = run_module(&Module::from_main(f), &ins).unwrap();
        assert!(outs[0].bit_eq(&reference));
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let (f, _) = small_net();
        let g = convert_function(&f).unwrap();
        let net = CompiledNetwork::compile(g, TargetPolicy::CpuOnly, CostModel::default()).unwrap();
        let bad = Tensor::zeros_f32([1, 3, 4, 4]);
        assert!(net.execute(&[bad]).is_err());
    }

    /// quantize → qnn.conv2d → dequantize, and an input for it.
    fn quantized_net() -> (Function, Tensor) {
        let mut rng = TensorRng::new(31);
        let qx = QuantParams::new(1.0 / 64.0, 128);
        let qw = QuantParams::new(1.0 / 128.0, 0);
        let qy = QuantParams::new(1.0 / 16.0, 128);
        let x = var("x", TensorType::f32([1, 2, 6, 6]));
        let q = call(
            OpKind::QnnQuantize(QuantizeAttrs {
                out: qx,
                out_dtype: DType::U8,
            }),
            vec![x.clone()],
        );
        let w = rng.uniform_quantized([4, 2, 3, 3], DType::I8, qw);
        let conv = call(
            OpKind::QnnConv2d(QnnConv2dAttrs {
                conv: Conv2dAttrs::same(1),
                input_q: qx,
                weight_q: qw,
                output_q: qy,
                out_dtype: DType::U8,
            }),
            vec![q, tvmnp_relay::expr::constant(w)],
        );
        let d = call(
            OpKind::QnnDequantize(DequantizeAttrs { input: qy }),
            vec![conv],
        );
        let input = rng.uniform_f32([1, 2, 6, 6], -1.0, 1.0);
        (Function::new(vec![x], d), input)
    }

    #[test]
    fn quantized_network_runs_end_to_end() {
        let (f, input) = quantized_net();
        let g = convert_function(&f).unwrap();
        let net =
            CompiledNetwork::compile(g, TargetPolicy::ApuPrefer, CostModel::default()).unwrap();
        let (outs, _) = net.execute(std::slice::from_ref(&input)).unwrap();
        // Reference through the Relay interpreter.
        let module = Module::from_main(f);
        let mut ins = HashMap::new();
        ins.insert("x".to_string(), input);
        let reference = run_module(&module, &ins).unwrap();
        assert!(outs[0].bit_eq(&reference));
    }

    #[test]
    fn quantized_tensor_without_params_is_an_error_not_a_panic() {
        // What a corrupt blob can hold: the conv's result stripped of the
        // parameters §3.3 stamped on it. Nothing can lift that conv.
        let (f, input) = quantized_net();
        let mut g = convert_function(&f).unwrap();
        let conv_out = g.ops[1].outputs[0];
        g.tensors[conv_out].quant = None;
        let net = CompiledNetwork::compile(g, TargetPolicy::CpuOnly, CostModel::default()).unwrap();
        let err = net.execute(std::slice::from_ref(&input)).unwrap_err();
        assert!(
            matches!(err, NeuronError::Execution(ref m) if m.contains("misses quant params")),
            "{err}"
        );
        // The lift is made once; a second run reports the same error.
        assert_eq!(net.execute(&[input]).unwrap_err(), err);
    }

    #[test]
    fn apu_faster_than_cpu_for_quantized_conv_heavy_graph() {
        let mut rng = TensorRng::new(41);
        let qx = QuantParams::new(0.02, 128);
        let qw = QuantParams::new(0.01, 0);
        let x = var("x", TensorType::new([1, 32, 56, 56], DType::U8));
        let mut e = x.clone();
        for _ in 0..4 {
            let w = rng.uniform_quantized([32, 32, 3, 3], DType::I8, qw);
            e = call(
                OpKind::QnnConv2d(QnnConv2dAttrs {
                    conv: Conv2dAttrs::same(1),
                    input_q: qx,
                    weight_q: qw,
                    output_q: qx,
                    out_dtype: DType::U8,
                }),
                vec![e, tvmnp_relay::expr::constant(w)],
            );
        }
        let f = Function::new(vec![x], e);
        let g = convert_function(&f).unwrap();
        let apu =
            CompiledNetwork::compile(g.clone(), TargetPolicy::ApuPrefer, CostModel::default())
                .unwrap()
                .estimate_time_us();
        let cpu = CompiledNetwork::compile(g, TargetPolicy::CpuOnly, CostModel::default())
            .unwrap()
            .estimate_time_us();
        assert!(
            apu < cpu,
            "APU ({apu} us) must beat CPU ({cpu} us) on int8 convs"
        );
    }
}
