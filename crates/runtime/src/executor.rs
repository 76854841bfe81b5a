//! The graph executor — TVM's `GraphModule` (`set_input` / `run` /
//! `get_output`), with simulated-time accounting.

use crate::graph::{ExecutorGraph, NodeKind, NodeRef};
use crate::module::{ExternalModule, ModuleRegistry};
use std::collections::HashSet;
use std::fmt;
use tvmnp_hwsim::ledger::{self, CostEntry, CostRole};
use tvmnp_hwsim::{
    CostModel, DeviceKind, FaultInjector, KernelClass, RetryPolicy, WorkItem, WorkKey,
};
use tvmnp_relay::interp::eval_op;
use tvmnp_relay::memory::{Missing, Read, StepPlan};
use tvmnp_relay::OpKind;
use tvmnp_telemetry::Field;
use tvmnp_tensor::{DType, Shape, Tensor};

/// Where in the graph an executor failure happened.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecContext {
    /// Graph node identifier (e.g. `node#3`) or input/output name.
    pub node: Option<String>,
    /// Relay operator or external symbol being evaluated.
    pub op: Option<String>,
    /// Device the node was charged to (`cpu`, `gpu`, `apu`).
    pub device: Option<String>,
    /// Dispatch attempts made when the failure came from a device fault.
    pub attempt: Option<u32>,
}

/// Broad classification of an executor failure, so resilience layers can
/// tell a retryable device problem from a plain graph error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecErrorKind {
    /// Graph/numeric failure — retrying will not help.
    #[default]
    General,
    /// A device fault survived every retry attempt.
    DeviceFault,
}

/// Executor failure: a message plus structured context identifying the
/// failing node, so callers can report *where* a run died instead of
/// just why. Device-fault failures additionally carry the chain of fault
/// causes observed on the way down ([`ExecError::causes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError {
    message: String,
    // Boxed to keep `Result<_, ExecError>` small on the happy path
    // (clippy::result_large_err).
    context: Box<ExecContext>,
    kind: ExecErrorKind,
    causes: Vec<String>,
}

impl ExecError {
    /// An error with no node context.
    pub fn new(message: impl Into<String>) -> ExecError {
        ExecError {
            message: message.into(),
            context: Box::default(),
            kind: ExecErrorKind::General,
            causes: Vec::new(),
        }
    }

    /// Attach the failing node's identifier.
    pub(crate) fn with_node(mut self, node: impl Into<String>) -> ExecError {
        self.context.node = Some(node.into());
        self
    }

    /// Attach the operator or external symbol being evaluated.
    pub(crate) fn with_op(mut self, op: impl Into<String>) -> ExecError {
        self.context.op = Some(op.into());
        self
    }

    /// Attach the device the node was charged to.
    pub(crate) fn with_device(mut self, device: impl Into<String>) -> ExecError {
        self.context.device = Some(device.into());
        self
    }

    /// Attach the dispatch attempt count of a device-fault failure.
    pub(crate) fn with_attempt(mut self, attempt: u32) -> ExecError {
        self.context.attempt = Some(attempt);
        self
    }

    /// Set the failure classification.
    pub(crate) fn with_kind(mut self, kind: ExecErrorKind) -> ExecError {
        self.kind = kind;
        self
    }

    /// Append one fault cause to the chain.
    pub(crate) fn with_cause(mut self, cause: impl Into<String>) -> ExecError {
        self.causes.push(cause.into());
        self
    }

    /// The bare failure message (without context).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Structured location of the failure.
    pub fn context(&self) -> &ExecContext {
        &self.context
    }

    /// Failure classification.
    pub fn kind(&self) -> ExecErrorKind {
        self.kind
    }

    /// Fault cause chain (oldest first; empty for plain graph errors).
    pub fn causes(&self) -> &[String] {
        &self.causes
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Keep the historical "executor error: <message>" prefix intact;
        // context renders as an optional suffix.
        write!(f, "executor error: {}", self.message)?;
        let ExecContext {
            node,
            op,
            device,
            attempt,
        } = &*self.context;
        if node.is_some() || op.is_some() || device.is_some() || attempt.is_some() {
            let mut parts = Vec::new();
            if let Some(n) = node {
                parts.push(format!("node {n}"));
            }
            if let Some(o) = op {
                parts.push(format!("op {o}"));
            }
            if let Some(d) = device {
                parts.push(format!("device {d}"));
            }
            if let Some(a) = attempt {
                parts.push(format!("attempt {a}"));
            }
            write!(f, " ({})", parts.join(", "))?;
        }
        if !self.causes.is_empty() {
            write!(f, " [caused by: {}]", self.causes.join("; "))?;
        }
        Ok(())
    }
}

impl std::error::Error for ExecError {}

/// Record one node's simulated interval as its one `executor.node` sim
/// span; no-op while telemetry is disabled. What the node cost, kernel by
/// kernel, is its slice of the ledger.
fn record_node(start_us: f64, dur_us: f64, op: &str, device: &'static str, class: KernelClass) {
    if !tvmnp_telemetry::is_enabled() {
        return;
    }
    let fields = vec![
        ("op", op.to_string().into()),
        ("device", device.into()),
        ("class", class.name().into()),
    ];
    tvmnp_telemetry::record_sim_span("executor.node", start_us, dur_us, fields);
}

/// Fault-handling knobs for one run of a compiled model (see
/// [`GraphExecutor::run_with`]). The default is a clean run: the empty
/// fault plan and the default retry policy.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Fault source consulted at every device dispatch (`None` = the
    /// empty plan).
    pub injector: Option<&'a FaultInjector>,
    /// Retry/backoff policy for transient dispatch faults.
    pub retry: RetryPolicy,
}

impl RunOptions<'_> {
    /// The dispatch-retry loop, and the only consumer of
    /// [`FaultInjector::on_dispatch`]: whichever runtime dispatches — the
    /// executor per fusion group and external call, an NP-only run per
    /// planned segment — calls this at the dispatch point, never the module
    /// being dispatched to. Each failed attempt charges `wasted_us` (the
    /// aborted dispatch) plus the policy backoff to `time_us`, records a
    /// `resilience.retry` span, and every consumed fault goes
    /// to the installed event sink (flight recorder). A fatal fault or an
    /// exhausted retry budget is an [`ExecErrorKind::DeviceFault`] error
    /// with device, attempt and cause filled. No injector, no fault.
    // The one caller of `on_dispatch` (crates/clippy.toml).
    #[allow(clippy::disallowed_methods)]
    pub fn dispatch(
        &self,
        device: DeviceKind,
        wasted_us: f64,
        time_us: &mut f64,
    ) -> Result<(), ExecError> {
        let Some(injector) = self.injector else {
            return Ok(());
        };
        let mut attempt = 1u32;
        while let Some(fault) = injector.on_dispatch(device, attempt) {
            // Truly fatal, or out of retries: either way this point gives up.
            let fatal = fault.fatal || !self.retry.allows_retry(attempt);
            if tvmnp_telemetry::sink_active() {
                tvmnp_telemetry::emit_event(
                    "fault.injected",
                    vec![
                        ("stage", "dispatch".into()),
                        ("device", device.name().into()),
                        ("attempt", attempt.into()),
                        // Free text goes under `detail`, which the stats sink
                        // does not index — `cause` is reserved for bounded
                        // vocabularies so counter cardinality stays finite.
                        ("detail", fault.description.clone().into()),
                        ("fatal", Field::Bool(fatal)),
                    ],
                );
            }
            if fatal {
                return Err(
                    ExecError::new(format!("device fault: {}", fault.description))
                        .with_device(device.name())
                        .with_attempt(attempt)
                        .with_kind(ExecErrorKind::DeviceFault)
                        .with_cause(fault.description),
                );
            }
            let cost = wasted_us + self.retry.backoff_us(attempt);
            tvmnp_telemetry::record_sim_span(
                "resilience.retry",
                *time_us,
                cost,
                vec![
                    ("device", device.name().into()),
                    ("attempt", attempt.into()),
                    ("cause", fault.description.into()),
                ],
            );
            *time_us += cost;
            attempt += 1;
        }
        Ok(())
    }
}

/// The formula [`WorkItem::price`] prices a host op by.
pub fn work_key(op: &OpKind) -> WorkKey {
    match op {
        OpKind::Conv2d(_) | OpKind::QnnConv2d(_) | OpKind::Dense | OpKind::QnnDense(_) => {
            WorkKey::Mac
        }
        OpKind::MaxPool2d(a) | OpKind::AvgPool2d(a) => WorkKey::Window(a.kernel.0, a.kernel.1),
        OpKind::GlobalAvgPool2d | OpKind::Mean(_) => WorkKey::ReduceInput,
        OpKind::Softmax | OpKind::LogSoftmax => WorkKey::Softmax,
        OpKind::BatchNorm(_) => WorkKey::Elementwise(2),
        OpKind::Resize2d(a) if a.bilinear => WorkKey::Elementwise(8),
        OpKind::Reshape(_)
        | OpKind::Transpose(_)
        | OpKind::Concatenate(_)
        | OpKind::QnnConcatenate(_)
        | OpKind::Pad(_)
        | OpKind::StridedSlice(_)
        | OpKind::BatchFlatten
        | OpKind::Dropout => WorkKey::DataMovement,
        _ => WorkKey::Elementwise(1),
    }
}

/// Derive the executor's cost ledger — the only place host-side work is
/// priced — and its step plan. Per node, in execution order: a host op
/// charges one launch per fusion group plus its roofline body on the
/// untuned CPU; an external node charges a host → module transfer per
/// argument through the module's dispatch device, the linked module's own
/// entries, and a module → host transfer per result. Every entry carries
/// its node, so a node's entries are the next run of that node index. A
/// param's shape and dtype are its tensor's; a param node declaring a type
/// too, or an input or op node not declaring exactly one, is refused by
/// node.
fn compile(
    graph: &ExecutorGraph,
    modules: &ModuleRegistry,
    cost: &CostModel,
) -> Result<(Vec<CostEntry>, StepPlan), ExecError> {
    for (idx, node) in graph.nodes.iter().enumerate() {
        let n = node.out_types.len();
        let msg = match node.kind {
            NodeKind::Param { .. } if n != 0 => {
                format!("node#{idx} is a param that declares a type")
            }
            NodeKind::Input { .. } | NodeKind::Op { .. } if n != 1 => {
                format!("node#{idx} declares {n} types, expects 1")
            }
            _ => continue,
        };
        return Err(ExecError::new(msg).with_node(format!("node#{idx}")));
    }
    // Every read is now an earlier output, an input or a param in range.
    let plan = StepPlan::new(graph)?;
    let operand = |r: &NodeRef| match graph.nodes[r.node].kind {
        NodeKind::Param { index } => (graph.params[index].shape(), graph.params[index].dtype()),
        _ => {
            let t = &graph.nodes[r.node].out_types[r.output];
            (&t.shape, t.dtype)
        }
    };
    let cpu_launch = cost.soc().device(DeviceKind::Cpu).kernel_launch_us;
    // Two entries per host op; an external node's come in one `extend`.
    let mut ledger = Vec::with_capacity(2 * graph.nodes.len());
    let mut groups_dispatched: HashSet<usize> = HashSet::with_capacity(graph.nodes.len());
    for (idx, node) in graph.nodes.iter().enumerate() {
        match &node.kind {
            NodeKind::Input { .. } | NodeKind::Param { .. } => {}
            NodeKind::Op { op, inputs, group } => {
                let (args, out) = (inputs.iter().map(operand), &node.out_types[0]);
                let w = WorkItem::price(work_key(op), args, (&out.shape, out.dtype));
                if groups_dispatched.insert(*group) {
                    ledger.push(CostEntry::fixed(
                        idx,
                        op.name(),
                        CostRole::Launch,
                        DeviceKind::Cpu,
                        cpu_launch,
                    ));
                }
                ledger.push(CostEntry::kernel_body(
                    cost,
                    idx,
                    op.name(),
                    &w,
                    DeviceKind::Cpu,
                    KernelClass::TvmUntuned,
                ));
            }
            NodeKind::External { symbol, inputs } => {
                // The same constraint TVM enforces when linking BYOC
                // modules: every referenced symbol must be registered.
                let module = modules.get(symbol).ok_or_else(|| unlinked(symbol))?;
                let device = module.dispatch_device();
                let boundary = |label, (shape, dtype): (&Shape, DType)| {
                    let bytes = shape.num_elements() * dtype.size_bytes();
                    CostEntry::transfer(cost, idx, label, CostRole::Transfer, device, bytes)
                };
                ledger.extend(inputs.iter().map(|r| boundary("boundary-in", operand(r))));
                ledger.extend(
                    module
                        .ledger()
                        .iter()
                        .map(|e| CostEntry { node: idx, ..*e }),
                );
                let results = node.out_types.iter().map(|t| (&t.shape, t.dtype));
                ledger.extend(results.map(|t| boundary("boundary-out", t)));
            }
        }
    }
    Ok((ledger, plan))
}

fn unlinked(symbol: &str) -> ExecError {
    ExecError::new(format!("external symbol '{symbol}' is not linked")).with_op(symbol)
}

/// The tensors a run reads but no step writes: input node `node`'s bound
/// tensor and `params[k]`.
fn pinned<'a>(
    inputs: &'a [(usize, Option<Tensor>)],
    params: &'a [Tensor],
) -> impl Fn(Read) -> Option<&'a Tensor> + Copy {
    move |read| match read {
        Read::Input(node) => inputs.iter().find(|(n, _)| *n == node)?.1.as_ref(),
        Read::Const(k) => params.get(k),
        _ => None,
    }
}

/// What one node calls.
enum Callee<'a> {
    Host(&'a OpKind),
    Module(&'a dyn ExternalModule),
}

impl From<Missing> for ExecError {
    fn from(missing: Missing) -> ExecError {
        let e = ExecError::new(format!("{missing} has no value"));
        match missing {
            Missing::Operand(idx, _) => e.with_node(format!("node#{idx}")),
            Missing::Output(_) => e,
        }
    }
}

/// The graph executor: owns the graph, linked external modules, bound
/// inputs and computed outputs.
pub struct GraphExecutor {
    graph: ExecutorGraph,
    modules: ModuleRegistry,
    cost: CostModel,
    ledger: Vec<CostEntry>,
    /// Boxed to keep the executor, and `CompiledModel` around it, small.
    plan: Box<StepPlan>,
    /// Every input node, with its bound tensor.
    inputs: Vec<(usize, Option<Tensor>)>,
    /// The step plan's slots; after a run, what the outputs are read from.
    slots: Vec<Option<Tensor>>,
    /// `Some` once a run has completed, and until the next one starts.
    last_run_us: Option<f64>,
    /// Most bytes the slots held between two steps of the last run.
    peak_held_bytes: usize,
}

impl GraphExecutor {
    /// Construct from a lowered graph and linked external modules, and
    /// derive the cost ledger every run and estimate reads and the step
    /// plan every run walks.
    ///
    /// Every external symbol referenced by the graph must be registered.
    pub fn new(
        graph: ExecutorGraph,
        modules: ModuleRegistry,
        cost: CostModel,
    ) -> Result<Self, ExecError> {
        let (ledger, plan) = compile(&graph, &modules, &cost)?;
        Ok(GraphExecutor {
            inputs: (graph.nodes.iter().enumerate())
                .filter(|(_, n)| matches!(n.kind, NodeKind::Input { .. }))
                .map(|(idx, _)| (idx, None))
                .collect(),
            slots: Vec::new(),
            graph,
            modules,
            cost,
            ledger,
            plan: Box::new(plan),
            last_run_us: None,
            peak_held_bytes: 0,
        })
    }

    /// Bind a named input (TVM `m.set_input`): the input node of that name.
    pub fn set_input(&mut self, name: &str, value: Tensor) -> Result<(), ExecError> {
        let graph = &self.graph;
        let bound =
            (self.inputs.iter_mut()).find(|(node, _)| graph.input_name(*node) == Some(name));
        let Some((idx, bound)) = bound else {
            return Err(ExecError::new(format!("unknown input '{name}'")).with_node(name));
        };
        let expect = &graph.nodes[*idx].out_types[0];
        if value.shape() != &expect.shape || value.dtype() != expect.dtype {
            return Err(ExecError::new(format!(
                "input '{name}' expects {} {}, got {} {}",
                expect.shape,
                expect.dtype,
                value.shape(),
                value.dtype()
            ))
            .with_node(name));
        }
        *bound = Some(value);
        Ok(())
    }

    /// Execute the graph (TVM `m.run`). Returns the simulated time in
    /// microseconds.
    pub fn run(&mut self) -> Result<f64, ExecError> {
        self.run_with(&RunOptions::default())
    }

    /// Execute the graph under fault-handling options: every device
    /// dispatch (one per host fusion group, one per external module
    /// invocation) first consults the injector, retrying transient faults
    /// per `opts.retry` with the wasted dispatch + backoff charged in
    /// simulated microseconds. Fatal faults or exhausted retries abort
    /// with an [`ExecErrorKind::DeviceFault`] error carrying the attempt
    /// count and cause. With default options this is exactly
    /// [`GraphExecutor::run`] — same numerics, same time. Simulated time
    /// is the ledger charged in order (retries only add on top), so a
    /// fault-free run returns bit-exactly
    /// [`GraphExecutor::estimate_time_us`].
    ///
    /// The walk is the step plan's [`StepPlan::run`]; a step here charges
    /// its slice of the ledger around its dispatch point and calls its op
    /// or linked module.
    pub fn run_with(&mut self, opts: &RunOptions<'_>) -> Result<f64, ExecError> {
        let _run_span = tvmnp_telemetry::span!("executor.run");
        self.last_run_us = None;
        let graph = &self.graph;
        if let Some(&(idx, _)) = self.inputs.iter().find(|(_, bound)| bound.is_none()) {
            let name = graph.input_name(idx).unwrap_or("?");
            return Err(
                ExecError::new(format!("input '{name}' not set")).with_node(format!("node#{idx}"))
            );
        }

        let (modules, cost, ledger) = (&self.modules, &self.cost, &self.ledger[..]);
        let mut time_us = 0.0;
        // The next node's ledger entries start here.
        let mut next = 0;
        let step = |idx: usize, args: &[&Tensor], outs: &mut Vec<Tensor>| {
            let node = &graph.nodes[idx];
            let len = ledger[next..].iter().take_while(|e| e.node == idx).count();
            let entries = &ledger[next..next + len];
            next += len;
            let node_start_us = time_us;
            // What runs, where, what is charged before its dispatch point
            // and what an aborted dispatch wastes: a host op launches once
            // per fusion group (its first node's), an external call
            // dispatches after its host → module transfers.
            let (name, callee, device, staged, wasted_us) = match &node.kind {
                NodeKind::Op { op, .. } => {
                    let launch = entries.first().filter(|e| e.role == CostRole::Launch);
                    let wasted_us = launch.map(|l| l.us);
                    (op.name(), Callee::Host(op), DeviceKind::Cpu, 0, wasted_us)
                }
                NodeKind::External { symbol, .. } => {
                    let module = modules.get(symbol).ok_or_else(|| unlinked(symbol))?;
                    let device = module.dispatch_device();
                    let wasted_us = Some(cost.subgraph_dispatch_us(device));
                    (
                        &**symbol,
                        Callee::Module(module),
                        device,
                        args.len(),
                        wasted_us,
                    )
                }
                // A value, not a call: nothing runs.
                NodeKind::Input { .. } | NodeKind::Param { .. } => return Ok(()),
            };
            let at_node = |e: ExecError| e.with_node(format!("node#{idx}"));
            let err_here =
                |msg: String| at_node(ExecError::new(msg).with_op(name).with_device(device.name()));
            let (before, after) = entries.split_at(staged);
            ledger::charge(&mut time_us, before);
            if let Some(wasted_us) = wasted_us {
                opts.dispatch(device, wasted_us, &mut time_us)
                    .map_err(|e| at_node(e.with_op(name)))?;
            }
            let class = match callee {
                Callee::Host(op) => {
                    outs.push(eval_op(op, args).map_err(|e| err_here(e.to_string()))?);
                    KernelClass::TvmUntuned
                }
                Callee::Module(module) => {
                    *outs = module.run(args).map_err(|e| err_here(e.to_string()))?.0;
                    // The ledger charged the graph's types at build time,
                    // so what a module hands back must match them.
                    if outs.len() != node.out_types.len() {
                        return Err(err_here(format!(
                            "'{name}' returned {} outputs, expected {}",
                            outs.len(),
                            node.out_types.len()
                        )));
                    }
                    for (k, (o, expect)) in outs.iter().zip(&node.out_types).enumerate() {
                        if o.shape() != &expect.shape || o.dtype() != expect.dtype {
                            return Err(err_here(format!(
                                "'{name}' output {k} expects {} {}, got {} {}",
                                expect.shape,
                                expect.dtype,
                                o.shape(),
                                o.dtype()
                            )));
                        }
                    }
                    KernelClass::VendorTuned
                }
            };
            ledger::charge(&mut time_us, after);
            record_node(
                node_start_us,
                time_us - node_start_us,
                name,
                device.name(),
                class,
            );
            Ok(())
        };
        let pinned = pinned(&self.inputs, &graph.params);
        // A step's outputs, on their way to their slots; one buffer serves
        // every host step.
        let mut outs = Vec::new();
        self.peak_held_bytes = self.plan.run(pinned, &mut self.slots, &mut outs, step)?;
        self.last_run_us = Some(time_us);
        Ok(time_us)
    }

    /// Most bytes the slots held between two steps of the last run — what
    /// [`tvmnp_relay::memory::MemoryPlan::peak_bytes`] bounds.
    pub fn peak_held_bytes(&self) -> usize {
        self.peak_held_bytes
    }

    /// Every charged item of one inference, in execution (= accumulation)
    /// order; external nodes contribute their boundary transfers around
    /// the linked module's own entries, re-tagged with the node index.
    pub fn ledger(&self) -> &[CostEntry] {
        &self.ledger
    }

    /// Simulated time of one inference, read off the ledger — no numeric
    /// execution needed (static shapes make the time input-independent,
    /// like the paper's per-model measurements).
    pub fn estimate_time_us(&self) -> f64 {
        ledger::total_us(&self.ledger)
    }

    /// Fetch output `i` after a run (TVM `m.get_output`). An error before
    /// the first run and after a failed one: never an earlier run's tensor.
    pub fn get_output(&self, i: usize) -> Result<Tensor, ExecError> {
        if i >= self.graph.outputs.len() {
            return Err(ExecError::new(format!("output index {i} out of range")));
        }
        let pinned = pinned(&self.inputs, &self.graph.params);
        (self.plan.output(i, pinned, &self.slots))
            .filter(|_| self.last_run_us.is_some())
            .cloned()
            .ok_or_else(|| ExecError::new("run() has not produced outputs yet"))
    }

    /// Number of linked external modules.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.graph.outputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExecutorGraph;
    use crate::module::test_support::NegateModule;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{call_global, var, Function, Module};
    use tvmnp_relay::Conv2dAttrs;
    use tvmnp_tensor::rng::TensorRng;

    #[test]
    fn runs_host_graph() {
        let mut rng = TensorRng::new(2);
        let x = var("x", tvmnp_relay::TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let y = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        let m = Module::from_main(Function::new(vec![x], y));
        let g = ExecutorGraph::build(&m).unwrap();
        let mut ex = GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
        ex.set_input("x", rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0))
            .unwrap();
        let t = ex.run().unwrap();
        assert!(t > 0.0);
        let out = ex.get_output(0).unwrap();
        assert_eq!(out.shape().dims(), &[1, 4, 8, 8]);
        assert!(out.as_f32().unwrap().iter().all(|&v| v >= 0.0));
    }

    /// A param's type is its tensor's: a param node that declares one as
    /// well — a lying one here, the conv weight is `[4, 3, 3, 3]` — is
    /// refused by node, never priced or run.
    #[test]
    fn a_param_that_declares_a_type_is_refused_by_node() {
        let mut rng = TensorRng::new(2);
        let x = var("x", tvmnp_relay::TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let y = builder::conv2d(x.clone(), w, Conv2dAttrs::same(1));
        let mut g = ExecutorGraph::build(&Module::from_main(Function::new(vec![x], y))).unwrap();
        let param = (g.nodes.iter())
            .position(|n| matches!(n.kind, NodeKind::Param { .. }))
            .unwrap();
        (g.nodes[param].out_types).push(tvmnp_relay::TensorType::f32([64, 3, 3, 3]));
        let ex = GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default());
        let err = ex.err().expect("a typed param is refused");
        assert_eq!(err.context().node, Some(format!("node#{param}")));
        let msg = format!("node#{param} is a param that declares a type");
        assert_eq!(err.message(), msg);
    }

    #[test]
    fn missing_module_rejected_at_link() {
        let x = var("x", tvmnp_relay::TensorType::f32([2]));
        let y = call_global("nir_0", vec![x.clone()]);
        let px = var("p", tvmnp_relay::TensorType::f32([2]));
        let ext =
            Function::new(vec![px.clone()], builder::relu(px)).with_attr("Compiler", "neuropilot");
        let mut m = Module::from_main(Function::new(vec![x], y));
        m.functions.insert("nir_0".into(), ext);
        let g = ExecutorGraph::build(&m).unwrap();
        assert!(GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).is_err());
    }

    #[test]
    fn external_module_invoked_with_transfer_cost() {
        let x = var("x", tvmnp_relay::TensorType::f32([2]));
        let y = call_global("nir_0", vec![x.clone()]);
        let px = var("p", tvmnp_relay::TensorType::f32([2]));
        // Body irrelevant to numerics (fake module negates), but types must
        // line up.
        let ext = Function::new(vec![px.clone()], builder::relu(px)).with_attr("Compiler", "fake");
        let mut m = Module::from_main(Function::new(vec![x], y));
        m.functions.insert("nir_0".into(), ext);
        let g = ExecutorGraph::build(&m).unwrap();
        let mut reg = ModuleRegistry::new();
        reg.register(Box::new(NegateModule::new("nir_0", 42.0)));
        let cost = CostModel::default();
        let transfer = cost.transfer_us(8);
        let mut ex = GraphExecutor::new(g, reg, cost).unwrap();
        ex.set_input("x", Tensor::from_f32([2], vec![1.0, -2.0]).unwrap())
            .unwrap();
        let t = ex.run().unwrap();
        assert_eq!(ex.get_output(0).unwrap().as_f32().unwrap(), &[-1.0, 2.0]);
        assert_eq!(t, transfer + 42.0 + transfer, "transfer in, module, out");
        let labels: Vec<&str> = ex.ledger().iter().map(|e| e.label).collect();
        assert_eq!(labels, ["boundary-in", "negate", "boundary-out"]);
    }

    #[test]
    fn external_output_must_match_graph_type() {
        // The graph says nir_0 flattens f32[1,2,2] to f32[1,4]; the fake module
        // hands back its input's shape. Accepting that would run the rest
        // of the graph on a tensor the ledger never priced.
        let x = var("x", tvmnp_relay::TensorType::f32([1, 2, 2]));
        let y = call_global("nir_0", vec![x.clone()]);
        let px = var("p", tvmnp_relay::TensorType::f32([1, 2, 2]));
        let ext = Function::new(vec![px.clone()], builder::batch_flatten(px))
            .with_attr("Compiler", "fake");
        let mut m = Module::from_main(Function::new(vec![x], y));
        m.functions.insert("nir_0".into(), ext);
        let g = ExecutorGraph::build(&m).unwrap();
        let mut reg = ModuleRegistry::new();
        reg.register(Box::new(NegateModule::new("nir_0", 1.0)));
        let mut ex = GraphExecutor::new(g, reg, CostModel::default()).unwrap();
        ex.set_input("x", Tensor::zeros_f32([1, 2, 2])).unwrap();
        let err = ex.run().unwrap_err();
        assert!(err.message().contains("output 0 expects"), "{err}");
        assert_eq!(err.context().op.as_deref(), Some("nir_0"));
        assert_eq!(err.context().device.as_deref(), Some("cpu"));
        assert!(err.context().node.is_some());
    }

    #[test]
    fn unset_input_is_error() {
        let x = var("x", tvmnp_relay::TensorType::f32([2]));
        let y = builder::relu(x.clone());
        let m = Module::from_main(Function::new(vec![x], y));
        let g = ExecutorGraph::build(&m).unwrap();
        let mut ex = GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
        assert!(ex.run().is_err());
    }

    #[test]
    fn wrong_shape_input_rejected() {
        let x = var("x", tvmnp_relay::TensorType::f32([2]));
        let y = builder::relu(x.clone());
        let m = Module::from_main(Function::new(vec![x], y));
        let g = ExecutorGraph::build(&m).unwrap();
        let mut ex = GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
        assert!(ex.set_input("x", Tensor::zeros_f32([3])).is_err());
        assert!(ex.set_input("y", Tensor::zeros_f32([2])).is_err());
    }

    #[test]
    fn exec_error_display_is_superset_of_message() {
        let bare = ExecError::new("input 'x' not set");
        assert_eq!(bare.to_string(), "executor error: input 'x' not set");
        let rich = ExecError::new("input 'x' not set")
            .with_node("node#0")
            .with_op("nn.conv2d")
            .with_device("cpu");
        let shown = rich.to_string();
        assert!(
            shown.starts_with("executor error: input 'x' not set"),
            "{shown}"
        );
        assert!(shown.contains("node node#0"), "{shown}");
        assert!(shown.contains("op nn.conv2d"), "{shown}");
        assert!(shown.contains("device cpu"), "{shown}");
        assert_eq!(rich.message(), "input 'x' not set");
        assert_eq!(rich.context().device.as_deref(), Some("cpu"));
    }

    #[test]
    fn run_failure_carries_node_context() {
        let x = var("x", tvmnp_relay::TensorType::f32([2]));
        let y = builder::relu(x.clone());
        let m = Module::from_main(Function::new(vec![x], y));
        let g = ExecutorGraph::build(&m).unwrap();
        let mut ex = GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
        let err = ex.run().unwrap_err();
        assert!(
            err.context().node.is_some(),
            "failure must locate the node: {err}"
        );
    }

    #[test]
    fn per_node_sim_spans_cover_run_time() {
        let mut rng = TensorRng::new(7);
        let x = var("x", tvmnp_relay::TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let y = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        let m = Module::from_main(Function::new(vec![x], y));
        let g = ExecutorGraph::build(&m).unwrap();
        let mut ex = GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
        ex.set_input("x", rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0))
            .unwrap();
        tvmnp_telemetry::enable();
        tvmnp_telemetry::reset();
        // Sentinel pins down this thread's dense tid, so spans recorded by
        // concurrently running tests (same process-global collector) can
        // be filtered out.
        tvmnp_telemetry::record_sim_span("test.sentinel", 0.0, 0.0, vec![]);
        let total = ex.run().unwrap();
        tvmnp_telemetry::disable();
        let snap = tvmnp_telemetry::snapshot();
        let tid = |e: &tvmnp_telemetry::Record| e.interval.map(|i| i.tid);
        let my_tid = tid(snap
            .spans_named("test.sentinel")
            .next()
            .expect("sentinel recorded"));
        let node_us: f64 = snap
            .spans_named("executor.node")
            .filter(|e| tid(e) == my_tid)
            .map(|e| e.dur_us())
            .sum();
        assert!(
            (node_us - total).abs() <= 1e-9 * total.max(1.0),
            "per-node spans ({node_us}) must account for the whole run ({total})"
        );
        assert_eq!(total, ex.estimate_time_us(), "run is the ledger in order");
    }

    #[test]
    fn run_with_retries_transient_faults_without_changing_numerics() {
        use tvmnp_hwsim::FaultPlan;
        let mut rng = TensorRng::new(13);
        let x = var("x", tvmnp_relay::TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let y = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        let m = Module::from_main(Function::new(vec![x], y));
        let input = rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0);
        let build = || {
            let g = ExecutorGraph::build(&m).unwrap();
            let mut ex =
                GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
            ex.set_input("x", input.clone()).unwrap();
            ex
        };
        let mut clean = build();
        let clean_us = clean.run().unwrap();
        let clean_out = clean.get_output(0).unwrap();

        let injector = FaultInjector::new(
            FaultPlan::seeded(7)
                .with_spec("cpu:dispatch:transient=2")
                .unwrap(),
        );
        let mut faulted = build();
        let opts = RunOptions {
            injector: Some(&injector),
            ..RunOptions::default()
        };
        let faulted_us = faulted.run_with(&opts).unwrap();
        assert!(
            faulted.get_output(0).unwrap().bit_eq(&clean_out),
            "faults must not change numerics"
        );
        assert!(
            faulted_us > clean_us,
            "retries must cost simulated time ({faulted_us} vs {clean_us})"
        );
        assert!(injector.faults_injected() >= 1);
    }

    #[test]
    fn run_with_surfaces_fatal_fault_with_cause_chain() {
        use tvmnp_hwsim::FaultPlan;
        let mut rng = TensorRng::new(17);
        let x = var("x", tvmnp_relay::TensorType::f32([2]));
        let y = builder::relu(x.clone());
        let m = Module::from_main(Function::new(vec![x], y));
        let g = ExecutorGraph::build(&m).unwrap();
        let mut ex = GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
        ex.set_input("x", rng.uniform_f32([2], -1.0, 1.0)).unwrap();
        let injector = FaultInjector::new(
            FaultPlan::seeded(1)
                .with_spec("cpu:dispatch:device-lost")
                .unwrap(),
        );
        let err = ex
            .run_with(&RunOptions {
                injector: Some(&injector),
                ..RunOptions::default()
            })
            .unwrap_err();
        assert_eq!(err.kind(), ExecErrorKind::DeviceFault);
        assert_eq!(err.context().attempt, Some(1));
        assert_eq!(err.context().device.as_deref(), Some("cpu"));
        assert!(!err.causes().is_empty(), "{err}");
        assert!(err.to_string().contains("caused by"), "{err}");
    }

    #[test]
    fn fusion_reduces_dispatches() {
        // conv+bias+relu (one group) vs three separate groups: compare
        // times through two graphs with identical math.
        let mut rng = TensorRng::new(3);
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let b = rng.uniform_f32([4], -0.1, 0.1);
        let x1 = var("x", tvmnp_relay::TensorType::f32([1, 3, 8, 8]));
        let fused = builder::relu(builder::bias_add(
            builder::conv2d(x1.clone(), w.clone(), Conv2dAttrs::same(1)),
            b.clone(),
        ));
        let m1 = Module::from_main(Function::new(vec![x1], fused));
        // Break fusion by consuming the conv twice.
        let x2 = var("x", tvmnp_relay::TensorType::f32([1, 3, 8, 8]));
        let conv = builder::conv2d(x2.clone(), w, Conv2dAttrs::same(1));
        let split = builder::add(builder::relu(conv.clone()), builder::sigmoid(conv));
        let m2 = Module::from_main(Function::new(vec![x2], split));

        let input = rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0);
        let run = |m: &Module| {
            let g = ExecutorGraph::build(m).unwrap();
            let mut ex =
                GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
            ex.set_input("x", input.clone()).unwrap();
            ex.run().unwrap()
        };
        let t_fused = run(&m1);
        let t_split = run(&m2);
        assert!(t_split > t_fused, "more dispatch groups must cost more");
    }
}
