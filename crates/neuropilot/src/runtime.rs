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
//! for fallback ops, and a transfer per device-boundary crossing. It runs
//! on the graph executor's run loop ([`StepPlan::run`]), planned with the
//! lift.

use crate::convert::relay_op;
use crate::error::NeuronError;
use crate::nir::{NeuronGraph, TensorId};
use crate::planner::{ExecutionPlan, Placement, Planner, TargetPolicy};
use std::sync::OnceLock;
use tvmnp_hwsim::ledger::{self, CostEntry, CostRole};
use tvmnp_hwsim::{CostModel, DeviceKind, KernelClass};
use tvmnp_relay::interp::eval_op;
use tvmnp_relay::memory::{Missing, NodeRef, Program, Read, StepPlan};
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

/// `graph.ops` lifted to Relay operators, and the step plan they run on.
type RunPlan = (Vec<OpKind>, StepPlan);

fn run_plan(graph: &NeuronGraph) -> Result<RunPlan, NeuronError> {
    let relay_ops = (graph.ops.iter())
        .map(|op| relay_op(graph, op))
        .collect::<Result<_, _>>()?;
    let steps = StepPlan::new(graph).map_err(|missing| {
        let (what, id) = match missing {
            Missing::Operand(op, k) => ("input", graph.ops[op].inputs[k]),
            Missing::Output(k) => ("output", graph.outputs[k]),
        };
        NeuronError::Execution(format!("{what} slot {id} empty"))
    })?;
    Ok((relay_ops, steps))
}

impl NeuronGraph {
    /// What tensor `id` is to op `before` (past the last op: to the
    /// graph's caller): a constant, graph input `k`, or the result of the
    /// last op before it that writes it.
    fn source(&self, id: TensorId, before: usize) -> Read {
        if self.tensors.get(id).is_some_and(|t| t.is_const()) {
            return Read::Const(id);
        }
        if let Some(k) = self.inputs.iter().position(|&i| i == id) {
            return Read::Input(k);
        }
        let writer = self.ops[..before]
            .iter()
            .rposition(|op| op.outputs.first() == Some(&id));
        writer.map_or(Read::Nothing, |node| {
            Read::Value(NodeRef { node, output: 0 })
        })
    }
}

/// A Neuron graph as a [`Program`] of the storage planner: op `i` is step
/// `i` and writes one value, its result tensor. Constant `k` is tensor `k`.
impl Program for NeuronGraph {
    fn num_steps(&self) -> usize {
        self.ops.len()
    }

    fn writes(&self, step: usize) -> impl Iterator<Item = usize> {
        std::iter::once(self.tensors[self.ops[step].outputs[0]].size_bytes())
    }

    fn reads(&self, step: usize) -> impl Iterator<Item = Read> {
        self.ops[step]
            .inputs
            .iter()
            .map(move |&id| self.source(id, step))
    }

    fn outputs(&self) -> impl Iterator<Item = Read> {
        self.outputs
            .iter()
            .map(|&id| self.source(id, self.ops.len()))
    }
}

impl From<Missing> for NeuronError {
    fn from(missing: Missing) -> NeuronError {
        NeuronError::Execution(format!("{missing} has no value"))
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

    /// Execute on concrete inputs (in `graph.inputs` order); returns the
    /// output tensors and the simulated time in microseconds.
    pub fn execute(&self, inputs: &[Tensor]) -> Result<(Vec<Tensor>, f64), NeuronError> {
        self.execute_borrowed(&inputs.iter().collect::<Vec<_>>())
    }

    /// [`CompiledNetwork::execute`] on borrowed inputs — what a caller that
    /// does not own its tensors (the graph executor) uses. Nothing is
    /// copied in: an operand is read where it is, an activation lives in
    /// its planned slot until the plan says it dies, and outputs are moved
    /// out of theirs ([`StepPlan::run`]).
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
        let (relay_ops, steps) = (self.run_plan)
            .get_or_init(|| run_plan(graph))
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

        let pinned = |read| match read {
            Read::Input(k) => inputs.get(k).copied(),
            Read::Const(id) => graph.tensors.get(id)?.data.as_deref(),
            _ => None,
        };
        // Every op writes one result.
        let (mut slots, mut outs) = (Vec::new(), Vec::with_capacity(1));
        steps.run(pinned, &mut slots, &mut outs, |i, args, outs| {
            let out = eval_op(&relay_ops[i], args);
            outs.push(out.map_err(|e| NeuronError::Execution(e.to_string()))?);
            Ok::<_, NeuronError>(())
        })?;
        Ok((
            steps.take_outputs(pinned, &mut slots)?,
            self.estimate_time_us(),
        ))
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
        let kernel = CostEntry::kernel(cost, i, op.kind.name(), &w, device, class);
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
    use tvmnp_relay::{
        ConcatAttrs, Conv2dAttrs, DequantizeAttrs, QnnConv2dAttrs, QuantizeAttrs, TensorType,
    };
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
    fn an_injected_mac_scale_moves_only_mac_kernels() {
        let (f, _) = small_net();
        let g = convert_function(&f).unwrap();
        let scaled = CostModel::default().with_kind_scale(WorkKind::MacHeavy, 2.0);
        let plain = CompiledNetwork::compile(g.clone(), TargetPolicy::CpuApu, CostModel::default())
            .unwrap();
        let net = CompiledNetwork::compile(g, TargetPolicy::CpuApu, scaled).unwrap();
        // Against the same network under the default model, the injected
        // 2x mac slowdown raises exactly the mac kernels; every other
        // entry keeps its bits.
        assert!(net.ledger().iter().any(|e| e.kind == WorkKind::MacHeavy));
        assert_eq!(net.ledger().len(), plain.ledger().len());
        for (e, clean) in net.ledger().iter().zip(plain.ledger()) {
            assert_eq!(
                (e.label, e.role, e.device),
                (clean.label, clean.role, clean.device)
            );
            if e.kind == WorkKind::MacHeavy {
                assert!(e.us > clean.us, "{}: scaled mac kernel", e.label);
            } else {
                assert_eq!(e.us.to_bits(), clean.us.to_bits(), "{}", e.label);
            }
        }
    }

    #[test]
    fn a_fallback_op_is_charged_as_an_untuned_cpu_kernel() {
        let mut rng = TensorRng::new(5);
        let x = var("x", TensorType::f32([1, 3, 8, 8]));
        let mut conv = |input| {
            let w = rng.uniform_f32([3, 3, 3, 3], -0.5, 0.5);
            builder::conv2d(input, w, Conv2dAttrs::same(1))
        };
        let hidden = builder::sigmoid(conv(x.clone()));
        let body = conv(hidden);
        let g = convert_function(&Function::new(vec![x], body)).unwrap();
        let net =
            CompiledNetwork::compile(g, TargetPolicy::ApuPrefer, CostModel::default()).unwrap();
        assert!(net.plan().fallback_ops() > 0, "the APU runs no sigmoid");
        let kernels = || net.ledger().iter().filter(|e| e.role == CostRole::Kernel);
        for (i, p) in net.plan().placements.iter().enumerate() {
            let e = kernels().find(|e| e.node == i).expect("a kernel per op");
            let want = if p.fallback {
                (DeviceKind::Cpu, KernelClass::TvmUntuned)
            } else {
                (p.device, KernelClass::VendorTuned)
            };
            assert_eq!((e.device, e.class), want, "op {i} ({})", e.label);
        }
        let untuned = kernels().filter(|e| e.class == KernelClass::TvmUntuned);
        assert_eq!(untuned.count(), net.plan().fallback_ops());
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
                kind: NeuronOpKind::Concat(ConcatAttrs { axis: 1 }),
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

    #[test]
    fn outputs_repeat_a_result_pass_an_input_through_and_return_a_constant() {
        use crate::nir::NeuronTensor;
        let t = |name: &str, data: Option<Tensor>| NeuronTensor {
            name: name.into(),
            shape: [1, 2].into(),
            dtype: DType::F32,
            quant: None,
            data: data.map(std::sync::Arc::new),
        };
        let c = Tensor::from_f32([1, 2], vec![0.5, -4.0]).unwrap();
        let graph = NeuronGraph {
            tensors: vec![t("x", None), t("c", Some(c.clone())), t("y", None)],
            ops: vec![NeuronOp {
                kind: NeuronOpKind::Add,
                inputs: vec![0, 1],
                outputs: vec![2],
            }],
            inputs: vec![0],
            outputs: vec![2, 0, 2, 1],
        };
        let net =
            CompiledNetwork::compile(graph, TargetPolicy::CpuOnly, CostModel::default()).unwrap();
        let x = Tensor::from_f32([1, 2], vec![1.0, 2.0]).unwrap();
        let y = Tensor::from_f32([1, 2], vec![1.5, -2.0]).unwrap();
        let (outs, _) = net.execute(std::slice::from_ref(&x)).unwrap();
        let want = [&y, &x, &y, &c];
        assert_eq!(outs.len(), want.len());
        for (k, (got, want)) in outs.iter().zip(want).enumerate() {
            assert!(got.bit_eq(want), "output {k}: {got:?} vs {want:?}");
        }
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

        let memory = &tvmnp_relay::memory::plan_memory(&g);
        assert_eq!(memory.check_no_alias(&g), None);
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
