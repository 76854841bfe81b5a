//! The BYOC graph partitioner (paper §3.1, Fig. 2).
//!
//! Given a [`CompilerSupport`] oracle describing which operators an
//! external compiler (NeuroPilot) can take, the pass performs the three
//! classic BYOC steps in one sweep:
//!
//! 1. **annotate** — mark each primitive call supported/unsupported;
//! 2. **merge regions** — grow maximal supported regions without creating
//!    cycles through unsupported nodes (the correctness hazard TVM's
//!    `MergeCompilerRegions` guards against);
//! 3. **partition** — lift each region into a module-level function with
//!    `Compiler=<name>` and `global_symbol` attributes, replacing it in
//!    `main` by a call to that global.
//!
//! The number of lifted functions is the paper's "number of subgraphs":
//! models whose op mix interleaves supported and unsupported operators
//! (DeePixBiS) shatter into many regions and pay per-subgraph dispatch
//! overhead, which is exactly the Fig. 4 anti-spoofing observation.

use crate::expr::{
    call_global, mk, tuple, tuple_get, var, Call, CallTarget, Expr, ExprKind, Function, Module,
};
use crate::infer::{infer_types, TypeMap};
use crate::op::OpKind;
use crate::visit::{consumers, topo_order};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Oracle describing an external compiler's operator coverage.
pub trait CompilerSupport {
    /// External compiler name (becomes the `Compiler` attribute and the
    /// global-symbol prefix).
    fn name(&self) -> &str;

    /// Whether the op can be offloaded.
    fn supported(&self, op: &OpKind) -> bool;
}

/// Partitioning failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// The module didn't type check before partitioning.
    Type(crate::infer::TypeError),
    /// The partitioned module failed re-inference (internal invariant).
    Internal(String),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Type(e) => write!(f, "partition: {e}"),
            PartitionError::Internal(m) => write!(f, "partition internal error: {m}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Summary of what the partitioner did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionReport {
    /// Number of external functions created.
    pub num_subgraphs: usize,
    /// Primitive calls offloaded to the external compiler.
    pub offloaded_calls: usize,
    /// Primitive calls left to the host (TVM) side.
    pub host_calls: usize,
}

impl PartitionReport {
    /// Fraction of calls offloaded, in `[0, 1]`.
    pub fn offload_fraction(&self) -> f64 {
        let total = self.offloaded_calls + self.host_calls;
        if total == 0 {
            0.0
        } else {
            self.offloaded_calls as f64 / total as f64
        }
    }
}

/// Simple union-find over region ids.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }

    fn make(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[rb] = ra;
        }
        ra
    }
}

/// Partition `module`'s `main` for the external compiler described by
/// `support`. Returns the transformed module and a report.
pub fn partition_graph(
    module: &Module,
    support: &dyn CompilerSupport,
) -> Result<(Module, PartitionReport), PartitionError> {
    let _span = tvmnp_telemetry::span!("relay.pass", "pass" => "partition_graph");
    let types = infer_types(module).map_err(PartitionError::Type)?;
    let main = module.main();
    let order = topo_order(&main.body);

    // ---- annotate + merge regions ------------------------------------
    let mut uf = UnionFind::new();
    // node id -> region id (un-normalized; use uf.find)
    let mut region_of: HashMap<usize, usize> = HashMap::new();
    // node id -> set of region ids (stale roots ok) that this node's
    // ancestry depends on through at least one node outside the region.
    let mut ext_deps: HashMap<usize, HashSet<usize>> = HashMap::new();

    let mut offloaded_calls = 0usize;
    let mut host_calls = 0usize;

    for e in &order {
        let args = e.args();
        // Union of argument ext-deps.
        let mut my_ext: HashSet<usize> = HashSet::new();
        for a in &args {
            if let Some(s) = ext_deps.get(&a.id) {
                for &r in s {
                    my_ext.insert(uf.find(r));
                }
            }
        }

        if e.op().is_some_and(|op| support.supported(op)) {
            offloaded_calls += 1;
            // Candidate regions: regions of direct call-args.
            let mut candidates: Vec<usize> = Vec::new();
            for a in &args {
                if let Some(&r) = region_of.get(&a.id) {
                    let root = uf.find(r);
                    if !candidates.contains(&root) {
                        candidates.push(root);
                    }
                }
            }
            // Eligible: not reachable through an outside path.
            let eligible: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|r| !my_ext.contains(r))
                .collect();
            let region = if eligible.is_empty() {
                uf.make()
            } else {
                let mut r = eligible[0];
                for &other in &eligible[1..] {
                    r = uf.union(r, other);
                }
                r
            };
            region_of.insert(e.id, region);
            // Ineligible candidate regions flow into this node from outside
            // this region: record them as exited.
            for a in &args {
                if let Some(&ra) = region_of.get(&a.id) {
                    let root = uf.find(ra);
                    if root != uf.find(region) {
                        my_ext.insert(root);
                    }
                }
            }
        } else {
            if matches!(
                &e.kind,
                ExprKind::Call(Call {
                    target: CallTarget::Op(_),
                    ..
                })
            ) {
                host_calls += 1;
            }
            // Outside any region: every producing region is exited here.
            for a in &args {
                if let Some(&ra) = region_of.get(&a.id) {
                    my_ext.insert(uf.find(ra));
                }
            }
        }
        ext_deps.insert(e.id, my_ext);
    }

    // Normalize regions and order them by first appearance.
    let mut region_order: Vec<usize> = Vec::new();
    let mut region_nodes: HashMap<usize, Vec<Expr>> = HashMap::new();
    for e in &order {
        if let Some(&r) = region_of.get(&e.id) {
            let root = uf.find(r);
            if !region_nodes.contains_key(&root) {
                region_order.push(root);
            }
            region_nodes.entry(root).or_default().push(e.clone());
        }
    }

    // ---- partition -----------------------------------------------------
    let cons = consumers(&main.body);
    let in_region = |uf: &mut UnionFind, id: usize, r: usize| -> bool {
        region_of
            .get(&id)
            .map(|&x| uf.find(x) == r)
            .unwrap_or(false)
    };

    // Region outputs: nodes consumed outside their region (or the body root).
    let mut region_outputs: HashMap<usize, Vec<Expr>> = HashMap::new();
    for &r in &region_order {
        let nodes = &region_nodes[&r];
        let mut outs = Vec::new();
        for n in nodes {
            let consumed_outside = cons
                .get(&n.id)
                .map(|cs| cs.iter().any(|&cid| !in_region(&mut uf, cid, r)))
                .unwrap_or(false);
            if consumed_outside || n.id == main.body.id {
                outs.push(n.clone());
            }
        }
        region_outputs.insert(r, outs);
    }

    // Region root -> global name (assigned in first-appearance order).
    let mut region_name: HashMap<usize, String> = HashMap::new();
    for (i, &r) in region_order.iter().enumerate() {
        region_name.insert(r, format!("{}_{}", support.name(), i));
    }
    // Normalize region_of to roots once, so the rewriter needs no union-find.
    let region_root: HashMap<usize, usize> =
        region_of.iter().map(|(&id, &r)| (id, uf.find(r))).collect();
    let by_id: HashMap<usize, Expr> = order.iter().map(|e| (e.id, e.clone())).collect();

    /// Demand-driven rewriter. Host nodes rebuild with rewritten args; the
    /// first time any output of a region is demanded, the whole region is
    /// emitted as an external function and a `call_global` placed in main.
    struct Rewriter<'a> {
        by_id: &'a HashMap<usize, Expr>,
        region_root: &'a HashMap<usize, usize>,
        region_nodes: &'a HashMap<usize, Vec<Expr>>,
        region_outputs: &'a HashMap<usize, Vec<Expr>>,
        region_name: &'a HashMap<usize, String>,
        types: &'a TypeMap,
        support_name: &'a str,
        main_map: HashMap<usize, Expr>,
        new_functions: HashMap<String, Function>,
    }

    impl Rewriter<'_> {
        fn resolve(&mut self, id: usize) -> Result<Expr, PartitionError> {
            if let Some(done) = self.main_map.get(&id) {
                return Ok(done.clone());
            }
            if let Some(&r) = self.region_root.get(&id) {
                self.emit_region(r)?;
                return self.main_map.get(&id).cloned().ok_or_else(|| {
                    PartitionError::Internal(format!(
                        "node {id} demanded from region {r} but is not one of its outputs"
                    ))
                });
            }
            let e = self.by_id[&id].clone();
            let rebuilt = match &e.kind {
                ExprKind::Var(_) | ExprKind::Constant(_) => e.clone(),
                ExprKind::Call(c) => {
                    let new_args: Vec<Expr> = c
                        .args
                        .iter()
                        .map(|a| self.resolve(a.id))
                        .collect::<Result<_, _>>()?;
                    if new_args.iter().zip(&c.args).all(|(n, o)| n.id == o.id) {
                        e.clone()
                    } else {
                        mk(ExprKind::Call(Call {
                            target: c.target.clone(),
                            args: new_args,
                        }))
                    }
                }
                ExprKind::Tuple(fs) => {
                    let new_fs: Vec<Expr> = fs
                        .iter()
                        .map(|a| self.resolve(a.id))
                        .collect::<Result<_, _>>()?;
                    if new_fs.iter().zip(fs).all(|(n, o)| n.id == o.id) {
                        e.clone()
                    } else {
                        mk(ExprKind::Tuple(new_fs))
                    }
                }
                ExprKind::TupleGetItem(t, i) => {
                    let nt = self.resolve(t.id)?;
                    if nt.id == t.id {
                        e.clone()
                    } else {
                        mk(ExprKind::TupleGetItem(nt, *i))
                    }
                }
            };
            self.main_map.insert(id, rebuilt.clone());
            Ok(rebuilt)
        }

        fn emit_region(&mut self, r: usize) -> Result<(), PartitionError> {
            let name = self.region_name[&r].clone();
            if self.new_functions.contains_key(&name) {
                return Ok(());
            }
            // Reserve the slot to break emit cycles early with a clear error
            // (regions are acyclic by construction, so this never recurses
            // back into itself through resolve()).
            let nodes = self.region_nodes[&r].clone();
            let node_ids: HashSet<usize> = nodes.iter().map(|n| n.id).collect();
            let mut inner: HashMap<usize, Expr> = HashMap::new();
            let mut params: Vec<Expr> = Vec::new();
            let mut input_main_exprs: Vec<Expr> = Vec::new();
            let mut input_vars: HashMap<usize, Expr> = HashMap::new();

            for n in &nodes {
                let ExprKind::Call(c) = &n.kind else { continue };
                let mut new_args = Vec::with_capacity(c.args.len());
                for a in &c.args {
                    if node_ids.contains(&a.id) {
                        new_args.push(inner[&a.id].clone());
                    } else if let ExprKind::Constant(_) = &a.kind {
                        // Constants are captured into the external function —
                        // NeuroPilot receives the weights with the subgraph.
                        new_args.push(a.clone());
                    } else if let Some(pv) = input_vars.get(&a.id) {
                        new_args.push(pv.clone());
                    } else {
                        let ty = self.types[&a.id].as_tensor().clone();
                        let pv = var(format!("{}_in{}", name, params.len()), ty);
                        params.push(pv.clone());
                        input_vars.insert(a.id, pv.clone());
                        let main_expr = self.resolve(a.id)?;
                        input_main_exprs.push(main_expr);
                        new_args.push(pv);
                    }
                }
                inner.insert(
                    n.id,
                    mk(ExprKind::Call(Call {
                        target: c.target.clone(),
                        args: new_args,
                    })),
                );
            }

            let outs = &self.region_outputs[&r];
            let body = if outs.len() == 1 {
                inner[&outs[0].id].clone()
            } else {
                tuple(outs.iter().map(|o| inner[&o.id].clone()).collect())
            };
            let func = Function::new(params, body)
                .with_attr("Compiler", self.support_name)
                .with_attr("global_symbol", name.clone())
                .with_attr("Primitive", "1");
            self.new_functions.insert(name.clone(), func);

            let call_expr = call_global(name, input_main_exprs);
            if outs.len() == 1 {
                self.main_map.insert(outs[0].id, call_expr);
            } else {
                for (k, o) in outs.iter().enumerate() {
                    self.main_map.insert(o.id, tuple_get(call_expr.clone(), k));
                }
            }
            Ok(())
        }
    }

    let mut rewriter = Rewriter {
        by_id: &by_id,
        region_root: &region_root,
        region_nodes: &region_nodes,
        region_outputs: &region_outputs,
        region_name: &region_name,
        types: &types,
        support_name: support.name(),
        main_map: HashMap::new(),
        new_functions: HashMap::new(),
    };
    let new_body = rewriter.resolve(main.body.id)?;
    let new_functions = rewriter.new_functions;
    let new_main = Function {
        params: main.params.clone(),
        body: new_body,
        attrs: main.attrs.clone(),
    };

    let mut out = Module::default();
    for (name, f) in &module.functions {
        if name != "main" {
            out.functions.insert(name.clone(), f.clone());
        }
    }
    out.functions.insert("main".into(), new_main);
    for (name, f) in new_functions {
        out.functions.insert(name, f);
    }

    // Invariant: the partitioned module still type checks.
    infer_types(&out).map_err(|e| PartitionError::Internal(e.to_string()))?;

    let report = PartitionReport {
        num_subgraphs: region_order.len(),
        offloaded_calls,
        host_calls,
    };
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::*;
    use crate::builder::*;
    use crate::expr::var;
    use crate::interp::run_module;
    use crate::ty::TensorType;
    use std::collections::HashMap as Map;
    use tvmnp_tensor::rng::TensorRng;
    use tvmnp_tensor::Tensor;

    /// A support oracle accepting everything — partitions the whole graph into
    /// one external function when it is connected.
    struct SupportAll(pub String);

    impl CompilerSupport for SupportAll {
        fn name(&self) -> &str {
            &self.0
        }

        fn supported(&self, _op: &OpKind) -> bool {
            true
        }
    }

    /// A support oracle driven by a list of supported op names.
    struct SupportByName {
        name: String,
        ops: HashSet<&'static str>,
    }

    impl SupportByName {
        /// New oracle for `name` supporting the given op-name list.
        fn new(name: impl Into<String>, ops: impl IntoIterator<Item = &'static str>) -> Self {
            SupportByName {
                name: name.into(),
                ops: ops.into_iter().collect(),
            }
        }
    }

    impl CompilerSupport for SupportByName {
        fn name(&self) -> &str {
            &self.name
        }

        fn supported(&self, op: &OpKind) -> bool {
            self.ops.contains(op.name())
        }
    }

    fn simple_cnn() -> (Module, Tensor) {
        let mut rng = TensorRng::new(3);
        let x = var("x", TensorType::f32([1, 3, 8, 8]));
        let w1 = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let c1 = relu(conv2d(x.clone(), w1, Conv2dAttrs::same(1)));
        let w2 = rng.uniform_f32([4, 4, 3, 3], -0.5, 0.5);
        let c2 = sigmoid(conv2d(c1, w2, Conv2dAttrs::same(1)));
        let m = Module::from_main(Function::new(vec![x], c2));
        let input = rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0);
        (m, input)
    }

    fn run(m: &Module, input: &Tensor) -> Tensor {
        let mut ins = Map::new();
        ins.insert("x".to_string(), input.clone());
        run_module(m, &ins).unwrap()
    }

    #[test]
    fn support_all_single_region() {
        let (m, input) = simple_cnn();
        let (p, report) = partition_graph(&m, &SupportAll("neuropilot".into())).unwrap();
        assert_eq!(report.num_subgraphs, 1);
        assert_eq!(report.host_calls, 0);
        assert_eq!(p.num_subgraphs(), 1);
        // Semantics preserved bit-exactly.
        assert!(run(&m, &input).bit_eq(&run(&p, &input)));
    }

    #[test]
    fn unsupported_op_splits_regions() {
        let (m, input) = simple_cnn();
        // sigmoid unsupported: conv+relu+conv region, then host sigmoid.
        let support = SupportByName::new("neuropilot", ["nn.conv2d", "nn.relu"]);
        let (p, report) = partition_graph(&m, &support).unwrap();
        assert_eq!(report.num_subgraphs, 1);
        assert_eq!(report.host_calls, 1);
        assert_eq!(report.offloaded_calls, 3);
        assert!(run(&m, &input).bit_eq(&run(&p, &input)));
    }

    #[test]
    fn interleaved_support_creates_multiple_subgraphs() {
        let mut rng = TensorRng::new(7);
        let x = var("x", TensorType::f32([1, 2, 4, 4]));
        let w = rng.uniform_f32([2, 2, 3, 3], -0.5, 0.5);
        // conv -> sigmoid(unsupported) -> conv -> sigmoid -> conv
        let mut e = conv2d(x.clone(), w.clone(), Conv2dAttrs::same(1));
        for _ in 0..2 {
            e = sigmoid(e);
            e = conv2d(e, w.clone(), Conv2dAttrs::same(1));
        }
        let m = Module::from_main(Function::new(vec![x], e));
        let support = SupportByName::new("neuropilot", ["nn.conv2d"]);
        let (p, report) = partition_graph(&m, &support).unwrap();
        assert_eq!(report.num_subgraphs, 3, "each conv is its own region");
        let input = rng.uniform_f32([1, 2, 4, 4], -1.0, 1.0);
        assert!(run(&m, &input).bit_eq(&run(&p, &input)));
    }

    #[test]
    fn diamond_through_unsupported_stays_acyclic() {
        // a = conv(x); b = sigmoid(a) [unsupported]; c = add(a, b) [supported]
        // Merging c into a's region would create region -> sigmoid -> region.
        let mut rng = TensorRng::new(9);
        let x = var("x", TensorType::f32([1, 2, 4, 4]));
        let w = rng.uniform_f32([2, 2, 1, 1], -0.5, 0.5);
        let a = conv2d(x.clone(), w, Conv2dAttrs::default());
        let b = sigmoid(a.clone());
        let c = add(a.clone(), b);
        let m = Module::from_main(Function::new(vec![x], c));
        let support = SupportByName::new("neuropilot", ["nn.conv2d", "add"]);
        let (p, report) = partition_graph(&m, &support).unwrap();
        // conv region and add region must be distinct.
        assert_eq!(report.num_subgraphs, 2);
        let input = rng.uniform_f32([1, 2, 4, 4], -1.0, 1.0);
        assert!(run(&m, &input).bit_eq(&run(&p, &input)));
    }

    #[test]
    fn multi_output_region_uses_tuple() {
        // Region producing two values consumed by host ops.
        let mut rng = TensorRng::new(11);
        let x = var("x", TensorType::f32([1, 2, 4, 4]));
        let w = rng.uniform_f32([2, 2, 1, 1], -0.5, 0.5);
        let a = conv2d(x.clone(), w.clone(), Conv2dAttrs::default());
        let b = relu(a.clone());
        // host sigmoid consumes a; host tanh consumes b.
        let s = sigmoid(a.clone());
        let t = crate::expr::call(OpKind::Tanh, vec![b]);
        let y = add(s, t);
        let m = Module::from_main(Function::new(vec![x], y));
        let support = SupportByName::new("neuropilot", ["nn.conv2d", "nn.relu"]);
        let (p, report) = partition_graph(&m, &support).unwrap();
        assert_eq!(report.num_subgraphs, 1);
        let input = rng.uniform_f32([1, 2, 4, 4], -1.0, 1.0);
        assert!(run(&m, &input).bit_eq(&run(&p, &input)));
        // Region function has a tuple body of two outputs.
        let ext = p.external_functions();
        let f = &p.functions[ext[0]];
        assert!(matches!(f.body.kind, ExprKind::Tuple(_)));
    }

    #[test]
    fn nothing_supported_is_identity_shape() {
        let (m, input) = simple_cnn();
        let support = SupportByName::new("neuropilot", []);
        let (p, report) = partition_graph(&m, &support).unwrap();
        assert_eq!(report.num_subgraphs, 0);
        assert_eq!(report.offloaded_calls, 0);
        assert!(run(&m, &input).bit_eq(&run(&p, &input)));
    }

    #[test]
    fn report_offload_fraction() {
        let r = PartitionReport {
            num_subgraphs: 2,
            offloaded_calls: 3,
            host_calls: 1,
        };
        assert!((r.offload_fraction() - 0.75).abs() < 1e-9);
    }
}
