//! The graph executor — TVM's `GraphModule` (`set_input` / `run` /
//! `get_output`), with simulated-time accounting.

use crate::graph::{ExecutorGraph, NodeKind, NodeRef};
use crate::module::ModuleRegistry;
use std::collections::HashSet;
use std::fmt;
use std::ops::Range;
use tvmnp_hwsim::ledger::{self, CostEntry, CostRole};
use tvmnp_hwsim::{
    CostModel, DeviceKind, FaultInjector, KernelClass, RetryPolicy, WorkItem, WorkKey,
};
use tvmnp_relay::interp::eval_op;
use tvmnp_relay::memory::{plan_memory, MemoryPlan};
use tvmnp_relay::{OpKind, TensorType};
use tvmnp_telemetry::Field;
use tvmnp_tensor::Tensor;

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
    /// The run's simulated-time budget was exhausted.
    Deadline,
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
    pub fn with_node(mut self, node: impl Into<String>) -> ExecError {
        self.context.node = Some(node.into());
        self
    }

    /// Attach the operator or external symbol being evaluated.
    pub fn with_op(mut self, op: impl Into<String>) -> ExecError {
        self.context.op = Some(op.into());
        self
    }

    /// Attach the device the node was charged to.
    pub fn with_device(mut self, device: impl Into<String>) -> ExecError {
        self.context.device = Some(device.into());
        self
    }

    /// Attach the dispatch attempt count of a device-fault failure.
    pub fn with_attempt(mut self, attempt: u32) -> ExecError {
        self.context.attempt = Some(attempt);
        self
    }

    /// Set the failure classification.
    pub fn with_kind(mut self, kind: ExecErrorKind) -> ExecError {
        self.kind = kind;
        self
    }

    /// Append one fault cause to the chain.
    pub fn with_cause(mut self, cause: impl Into<String>) -> ExecError {
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
/// fault plan, the default retry policy, no deadline.
pub struct RunOptions<'a> {
    /// Fault source consulted at every device dispatch (`None` = the
    /// empty plan).
    pub injector: Option<&'a FaultInjector>,
    /// Retry/backoff policy for transient dispatch faults.
    pub retry: RetryPolicy,
    /// Simulated-time budget for the whole run, microseconds; exceeding
    /// it aborts with an [`ExecErrorKind::Deadline`] error.
    pub deadline_us: f64,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            injector: None,
            retry: RetryPolicy::default(),
            deadline_us: f64::INFINITY,
        }
    }
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

    /// An [`ExecErrorKind::Deadline`] error once `time_us` is past the budget.
    pub fn check_deadline(&self, time_us: f64) -> Result<(), ExecError> {
        if time_us <= self.deadline_us {
            return Ok(());
        }
        Err(ExecError::new(format!(
            "deadline exceeded: {time_us:.1} us past a {:.1} us budget",
            self.deadline_us
        ))
        .with_kind(ExecErrorKind::Deadline))
    }
}

/// Where a step finds one of its operands.
#[derive(Debug, Clone, Copy)]
enum Operand {
    /// The `k`-th graph input, as bound by `set_input`.
    Input(usize),
    /// `graph.params[k]`, borrowed from the graph for the whole run.
    Param(usize),
    /// Slot `k` of the memory plan.
    Slot(usize),
}

impl Operand {
    /// The tensor this operand names, if it is there to read.
    fn read<'a>(
        self,
        graph: &'a ExecutorGraph,
        inputs: &'a [Option<Tensor>],
        slots: &'a [Option<Tensor>],
    ) -> Option<&'a Tensor> {
        match self {
            Operand::Input(k) => inputs[k].as_ref(),
            Operand::Param(k) => graph.params.get(k),
            Operand::Slot(k) => slots[k].as_ref(),
        }
    }
}

/// One op/external node with its operands (in `ExecutionPlan::operands`)
/// and its slice of the ledger resolved: a run hashes and scans nothing.
struct Step {
    node: usize,
    operands: Range<usize>,
    ledger: Range<usize>,
}

/// The executor's walk, compiled once. Where a step's outputs go and which
/// slots die after it are the memory plan's.
struct ExecutionPlan {
    steps: Vec<Step>,
    operands: Vec<Operand>,
    /// Node of each graph input, in `Operand::Input` order.
    inputs: Vec<usize>,
    /// Where each graph output is after a run.
    outputs: Vec<Operand>,
    memory: MemoryPlan,
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
/// priced — and, in the same walk, its execution plan. Per node, in
/// execution order: a host op charges one launch per fusion group plus its
/// roofline body on the untuned CPU; an external node charges a host →
/// module transfer per argument through the module's dispatch device, the
/// linked module's own entries, and a module → host transfer per result.
fn compile(
    graph: &ExecutorGraph,
    modules: &ModuleRegistry,
    cost: &CostModel,
) -> Result<(Vec<CostEntry>, ExecutionPlan), ExecError> {
    let type_of = |r: &NodeRef| &graph.nodes[r.node].out_types[r.output];
    let cpu_launch = cost.soc().device(DeviceKind::Cpu).kernel_launch_us;
    // Two entries per host op; an external node's come in one `extend`.
    let mut ledger = Vec::with_capacity(2 * graph.nodes.len());
    let mut groups_dispatched: HashSet<usize> = HashSet::with_capacity(graph.nodes.len());

    let memory = plan_memory(graph);
    let mut input_nodes = Vec::new();
    let locate = |r: &NodeRef, input_nodes: &[usize]| match graph.nodes.get(r.node)?.kind {
        NodeKind::Input { .. } => {
            let k = input_nodes.iter().position(|&n| n == r.node);
            k.filter(|_| r.output == 0).map(Operand::Input)
        }
        NodeKind::Param { index } => Some(Operand::Param(index)).filter(|_| r.output == 0),
        NodeKind::Op { .. } | NodeKind::External { .. } => memory.slot_of(*r).map(Operand::Slot),
    };
    let missing = |r: &NodeRef| ExecError::new(format!("value for {r:?} missing"));
    let mut steps = Vec::with_capacity(graph.nodes.len());
    let mut operands = Vec::new();
    for (idx, node) in graph.nodes.iter().enumerate() {
        let first = ledger.len();
        let args = match &node.kind {
            NodeKind::Input { .. } => {
                input_nodes.push(idx);
                continue;
            }
            NodeKind::Param { .. } => continue,
            NodeKind::Op { op, inputs, group } => {
                let args = inputs.iter().map(type_of).map(|t| (&t.shape, t.dtype));
                let out = &node.out_types[0];
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
                inputs
            }
            NodeKind::External { symbol, inputs } => {
                // The same constraint TVM enforces when linking BYOC
                // modules: every referenced symbol must be registered.
                let module = modules.get(symbol).ok_or_else(|| {
                    ExecError::new(format!("external symbol '{symbol}' is not linked"))
                        .with_op(symbol)
                })?;
                let device = module.dispatch_device();
                let boundary = |label, t: &TensorType| {
                    CostEntry::transfer(
                        cost,
                        idx,
                        label,
                        CostRole::Transfer,
                        device,
                        t.size_bytes(),
                    )
                };
                ledger.extend(inputs.iter().map(|r| boundary("boundary-in", type_of(r))));
                ledger.extend(
                    module
                        .ledger()
                        .iter()
                        .map(|e| CostEntry { node: idx, ..*e }),
                );
                ledger.extend(node.out_types.iter().map(|t| boundary("boundary-out", t)));
                inputs
            }
        };
        let first_operand = operands.len();
        for r in args {
            // Only a value an earlier node produced is there to read.
            let earlier = Some(r).filter(|r| r.node < idx);
            let found = earlier.and_then(|r| locate(r, &input_nodes));
            operands.push(found.ok_or_else(|| missing(r).with_node(format!("node#{idx}")))?);
        }
        steps.push(Step {
            node: idx,
            operands: first_operand..operands.len(),
            ledger: first..ledger.len(),
        });
    }
    let outputs = graph
        .outputs
        .iter()
        .map(|r| locate(r, &input_nodes).ok_or_else(|| missing(r)))
        .collect::<Result<_, _>>()?;
    let plan = ExecutionPlan {
        steps,
        operands,
        inputs: input_nodes,
        outputs,
        memory,
    };
    Ok((ledger, plan))
}

/// The graph executor: owns the graph, linked external modules, bound
/// inputs and computed outputs.
pub struct GraphExecutor {
    graph: ExecutorGraph,
    modules: ModuleRegistry,
    cost: CostModel,
    ledger: Vec<CostEntry>,
    /// Boxed to keep the executor, and `CompiledModel` around it, small.
    plan: Box<ExecutionPlan>,
    /// Bound inputs, in `Operand::Input` order.
    inputs: Vec<Option<Tensor>>,
    /// The memory plan's slots; after a run, what the outputs are read from.
    slots: Vec<Option<Tensor>>,
    /// `Some` once a run has completed, and until the next one starts.
    last_run_us: Option<f64>,
    /// Most bytes the slots held between two steps of the last run.
    #[cfg(debug_assertions)]
    peak_held_bytes: usize,
}

impl GraphExecutor {
    /// Construct from a lowered graph and linked external modules, and
    /// derive the cost ledger every run and estimate reads and the
    /// execution plan every run walks.
    ///
    /// Every external symbol referenced by the graph must be registered.
    pub fn new(
        graph: ExecutorGraph,
        modules: ModuleRegistry,
        cost: CostModel,
    ) -> Result<Self, ExecError> {
        let (ledger, plan) = compile(&graph, &modules, &cost)?;
        Ok(GraphExecutor {
            inputs: vec![None; plan.inputs.len()],
            slots: vec![None; plan.memory.slot_bytes.len()],
            graph,
            modules,
            cost,
            ledger,
            plan: Box::new(plan),
            last_run_us: None,
            #[cfg(debug_assertions)]
            peak_held_bytes: 0,
        })
    }

    /// Bind a named input (TVM `m.set_input`).
    pub fn set_input(&mut self, name: &str, value: Tensor) -> Result<(), ExecError> {
        let unknown = || ExecError::new(format!("unknown input '{name}'")).with_node(name);
        let &idx = self.graph.input_index.get(name).ok_or_else(unknown)?;
        let k = self.plan.inputs.iter().position(|&n| n == idx);
        let k = k.ok_or_else(unknown)?;
        let expect = &self.graph.nodes[idx].out_types[0];
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
        self.inputs[k] = Some(value);
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
    /// count and cause; exceeding `opts.deadline_us` aborts with
    /// [`ExecErrorKind::Deadline`]. With default options this is exactly
    /// [`GraphExecutor::run`] — same numerics, same time. Simulated time
    /// is the ledger charged in order (retries only add on top), so a
    /// fault-free run returns bit-exactly
    /// [`GraphExecutor::estimate_time_us`].
    ///
    /// The walk is the execution plan: each step borrows its operands
    /// (inputs, the graph's parameters, slots), stores its outputs in their
    /// slots and drops the slots whose last reader it was.
    pub fn run_with(&mut self, opts: &RunOptions<'_>) -> Result<f64, ExecError> {
        let _run_span = tvmnp_telemetry::span!("executor.run");
        self.last_run_us = None;
        self.slots.fill(None);
        let (graph, plan, slots, inputs) =
            (&self.graph, &*self.plan, &mut self.slots, &self.inputs);
        let mut time_us = 0.0;
        #[cfg(debug_assertions)]
        {
            self.peak_held_bytes = 0;
        }
        for (k, &idx) in plan.inputs.iter().enumerate() {
            if inputs[k].is_none() {
                let NodeKind::Input { name } = &graph.nodes[idx].kind else {
                    unreachable!("plan.inputs lists input nodes");
                };
                return Err(ExecError::new(format!("input '{name}' not set"))
                    .with_node(format!("node#{idx}")));
            }
        }

        // A step's outputs, on their way to their slots; one buffer serves
        // every host step.
        let mut outs: Vec<Tensor> = Vec::new();
        for step in &plan.steps {
            let (idx, node) = (step.node, &graph.nodes[step.node]);
            let entries = &self.ledger[step.ledger.clone()];
            let node_start_us = time_us;
            // What runs, where, what is charged before its dispatch point
            // and what an aborted dispatch wastes: a host op launches once
            // per fusion group (its first node's), an external call
            // dispatches after its host → module transfers.
            let (name, module, device, staged, wasted_us) = match &node.kind {
                NodeKind::Op { op, .. } => {
                    let launch = entries.first().filter(|e| e.role == CostRole::Launch);
                    (op.name(), None, DeviceKind::Cpu, 0, launch.map(|l| l.us))
                }
                NodeKind::External { symbol, inputs } => {
                    let module = self.modules.get(symbol).expect("checked at construction");
                    let device = module.dispatch_device();
                    let wasted_us = self.cost.subgraph_dispatch_us(device);
                    (
                        &**symbol,
                        Some(module),
                        device,
                        inputs.len(),
                        Some(wasted_us),
                    )
                }
                NodeKind::Input { .. } | NodeKind::Param { .. } => {
                    unreachable!("steps are op and external nodes")
                }
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
            {
                let args: Vec<&Tensor> = plan.operands[step.operands.clone()]
                    .iter()
                    .map(|operand| operand.read(graph, inputs, slots))
                    .collect::<Option<_>>()
                    .ok_or_else(|| err_here("an operand is missing".into()))?;
                match (&node.kind, module) {
                    (NodeKind::Op { op, .. }, _) => {
                        outs.push(eval_op(op, &args).map_err(|e| err_here(e.to_string()))?)
                    }
                    (_, Some(module)) => {
                        outs = module.run(&args).map_err(|e| err_here(e.to_string()))?.0
                    }
                    _ => unreachable!("an external node has its module"),
                }
            }
            // The ledger charged the graph's types at build time, so what
            // a module hands back must match them.
            if module.is_some() {
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
            }
            ledger::charge(&mut time_us, after);
            let class = match module {
                Some(_) => KernelClass::VendorTuned,
                None => KernelClass::TvmUntuned,
            };
            record_node(
                node_start_us,
                time_us - node_start_us,
                name,
                device.name(),
                class,
            );
            opts.check_deadline(time_us).map_err(at_node)?;
            for (out, &slot) in outs.drain(..).zip(plan.memory.slots_of(idx)) {
                slots[slot] = Some(out);
            }
            for &slot in plan.memory.dying_after(idx) {
                slots[slot] = None;
            }
            #[cfg(debug_assertions)]
            {
                let held: usize = slots.iter().flatten().map(Tensor::size_bytes).sum();
                self.peak_held_bytes = self.peak_held_bytes.max(held);
            }
        }
        self.last_run_us = Some(time_us);
        Ok(time_us)
    }

    /// Most bytes the slots held between two steps of the last run — what
    /// [`MemoryPlan::peak_bytes`] bounds. Tracked in debug builds only.
    #[cfg(debug_assertions)]
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

    /// Simulated inference energy in microjoules (host ops burn untuned
    /// CPU energy; external modules bring their own entries).
    pub fn estimate_energy_uj(&self) -> f64 {
        ledger::total_energy_uj(&self.ledger)
    }

    /// Fetch output `i` after a run (TVM `m.get_output`). An error before
    /// the first run and after a failed one: never an earlier run's tensor.
    pub fn get_output(&self, i: usize) -> Result<Tensor, ExecError> {
        let operand = self
            .plan
            .outputs
            .get(i)
            .ok_or_else(|| ExecError::new(format!("output index {i} out of range")))?;
        (operand.read(&self.graph, &self.inputs, &self.slots))
            .filter(|_| self.last_run_us.is_some())
            .cloned()
            .ok_or_else(|| ExecError::new("run() has not produced outputs yet"))
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.graph.outputs.len()
    }

    /// Simulated time of the last run.
    pub fn last_run_us(&self) -> Option<f64> {
        self.last_run_us
    }

    /// The underlying graph.
    pub fn graph(&self) -> &ExecutorGraph {
        &self.graph
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

        let injector =
            FaultInjector::new(FaultPlan::seeded(7).transient_dispatch(DeviceKind::Cpu, 2));
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
        let injector = FaultInjector::new(FaultPlan::seeded(1).device_lost(DeviceKind::Cpu));
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
    fn run_with_enforces_simulated_deadline() {
        let mut rng = TensorRng::new(19);
        let x = var("x", tvmnp_relay::TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let y = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        let m = Module::from_main(Function::new(vec![x], y));
        let g = ExecutorGraph::build(&m).unwrap();
        let mut ex = GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
        ex.set_input("x", rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0))
            .unwrap();
        let err = ex
            .run_with(&RunOptions {
                deadline_us: 1e-6,
                ..RunOptions::default()
            })
            .unwrap_err();
        assert_eq!(err.kind(), ExecErrorKind::Deadline);
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
