//! Lowering a Relay module into a flat executor graph.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use tvmnp_relay::expr::{CallTarget, ExprKind, Module};
use tvmnp_relay::infer::infer_types;
use tvmnp_relay::memory::{Program, Read};
use tvmnp_relay::passes::fuse_analysis;
use tvmnp_relay::visit::topo_order;
use tvmnp_relay::{OpKind, TensorType, Type};
use tvmnp_tensor::Tensor;

pub use tvmnp_relay::memory::NodeRef;

/// Executor node payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NodeKind {
    /// A named graph input.
    Input {
        /// Input name (for `set_input`).
        name: String,
    },
    /// A weight/constant in the artifact's param table; its type is its tensor's.
    Param {
        /// Index into [`ExecutorGraph::params`].
        index: usize,
    },
    /// A host-side primitive op, executed by TVM codegen.
    Op {
        /// Operator and attributes.
        op: OpKind,
        /// Argument references.
        inputs: Vec<NodeRef>,
        /// Fusion group id (nodes sharing a group dispatch as one kernel).
        group: usize,
    },
    /// A call into an external (BYOC) module.
    External {
        /// Global symbol of the external module.
        symbol: String,
        /// Argument references.
        inputs: Vec<NodeRef>,
    },
}

/// One node with its checked output types.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphNode {
    /// Payload.
    pub kind: NodeKind,
    /// Output types, one per value; none for a param (its tensor's type).
    pub out_types: Vec<TensorType>,
}

/// The flat executor graph — the analogue of TVM's `graph.json` +
/// `params` pair.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct ExecutorGraph {
    /// Nodes in execution order.
    pub nodes: Vec<GraphNode>,
    /// Graph outputs.
    pub outputs: Vec<NodeRef>,
    /// Weight table referenced by `NodeKind::Param`; shared, so cloning a
    /// graph (one per pooled session) does not copy the weights.
    pub params: Arc<Vec<Tensor>>,
}

/// Failure while lowering a module to an executor graph.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildError(pub String);

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph build error: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

impl ExecutorGraph {
    /// Lower the `main` function of a (possibly partitioned) module.
    ///
    /// External functions are *not* lowered here — they are compiled by
    /// their external codegen and linked at executor construction, matching
    /// the BYOC build flow.
    pub fn build(module: &Module) -> Result<Self, BuildError> {
        let types = infer_types(module).map_err(|e| BuildError(e.to_string()))?;
        let main = module.main();
        let groups = fuse_analysis(&main.body);
        let group_of: HashMap<usize, usize> = groups
            .iter()
            .enumerate()
            .flat_map(|(gi, g)| g.members.iter().map(move |&m| (m, gi)))
            .collect();

        let mut g = ExecutorGraph::default();
        let mut params = Vec::new();
        // expr id -> its output refs
        let mut refs: HashMap<usize, Vec<NodeRef>> = HashMap::new();

        // A node's refs, one per value it makes: a param makes one and
        // declares no type.
        fn add_node(g: &mut ExecutorGraph, kind: NodeKind, types: Vec<TensorType>) -> Vec<NodeRef> {
            let (node, values) = (g.nodes.len(), types.len().max(1));
            g.nodes.push(GraphNode {
                kind,
                out_types: types,
            });
            (0..values).map(|output| NodeRef { node, output }).collect()
        }

        for p in &main.params {
            if let ExprKind::Var(v) = &p.kind {
                let input = NodeKind::Input {
                    name: v.name.clone(),
                };
                refs.insert(p.id, add_node(&mut g, input, vec![v.ty.clone()]));
            } else {
                return Err(BuildError("main parameter is not a Var".into()));
            }
        }

        for e in topo_order(&main.body) {
            if refs.contains_key(&e.id) {
                continue;
            }
            let out = match &e.kind {
                ExprKind::Var(v) => {
                    return Err(BuildError(format!("free variable '{}'", v.name)));
                }
                ExprKind::Constant(c) => {
                    params.push(c.value.clone());
                    let param = NodeKind::Param {
                        index: params.len() - 1,
                    };
                    add_node(&mut g, param, Vec::new())
                }
                ExprKind::Tuple(fields) => {
                    let mut rs = Vec::new();
                    for f in fields {
                        rs.extend(refs[&f.id].clone());
                    }
                    rs
                }
                ExprKind::TupleGetItem(t, i) => {
                    let rs = &refs[&t.id];
                    vec![*rs
                        .get(*i)
                        .ok_or_else(|| BuildError(format!("tuple index {i} out of range")))?]
                }
                ExprKind::Call(c) => {
                    let mut inputs = Vec::with_capacity(c.args.len());
                    for a in &c.args {
                        let rs = &refs[&a.id];
                        if rs.len() != 1 {
                            return Err(BuildError("tuple-valued call argument".into()));
                        }
                        inputs.push(rs[0]);
                    }
                    match &c.target {
                        CallTarget::Op(op) => {
                            let tt = types[&e.id]
                                .tensor()
                                .ok_or_else(|| BuildError(format!("{} yields tuple", op.name())))?
                                .clone();
                            let group = group_of.get(&e.id).copied().unwrap_or(usize::MAX);
                            let op = NodeKind::Op {
                                op: op.clone(),
                                inputs,
                                group,
                            };
                            add_node(&mut g, op, vec![tt])
                        }
                        CallTarget::Global(symbol) => {
                            let out_types: Vec<TensorType> = match &types[&e.id] {
                                Type::Tensor(t) => vec![t.clone()],
                                Type::Tuple(ts) => ts
                                    .iter()
                                    .map(|t| {
                                        t.tensor().cloned().ok_or_else(|| {
                                            BuildError("nested tuple external output".into())
                                        })
                                    })
                                    .collect::<Result<_, _>>()?,
                            };
                            let call = NodeKind::External {
                                symbol: symbol.clone(),
                                inputs,
                            };
                            add_node(&mut g, call, out_types)
                        }
                    }
                }
            };
            refs.insert(e.id, out);
        }

        g.outputs = refs[&main.body.id].clone();
        g.params = Arc::new(params);
        Ok(g)
    }

    /// Total parameter bytes.
    pub fn param_bytes(&self) -> usize {
        self.params.iter().map(Tensor::size_bytes).sum()
    }

    /// The name of input node `node`; `None` if it is not an input.
    pub fn input_name(&self, node: usize) -> Option<&str> {
        match &self.nodes.get(node)?.kind {
            NodeKind::Input { name } => Some(name),
            _ => None,
        }
    }

    /// What reading `r` reads: an op or external call's output, an input,
    /// a parameter, or nothing the graph holds.
    fn read(&self, r: NodeRef) -> Read {
        match self.nodes.get(r.node).map(|n| &n.kind) {
            Some(NodeKind::Op { .. } | NodeKind::External { .. }) => Read::Value(r),
            Some(NodeKind::Input { .. }) if r.output == 0 => Read::Input(r.node),
            Some(&NodeKind::Param { index }) if r.output == 0 && index < self.params.len() => {
                Read::Const(index)
            }
            _ => Read::Nothing,
        }
    }
}

/// The executor graph as the storage planner sees it: every node is a
/// step; an op or external call writes its outputs, while inputs and
/// params are pinned outside the transient pool and write nothing. Input
/// `k` is input node `k`, constant `k` is `params[k]`.
impl Program for ExecutorGraph {
    fn num_steps(&self) -> usize {
        self.nodes.len()
    }

    fn writes(&self, step: usize) -> impl Iterator<Item = usize> {
        let node = &self.nodes[step];
        let planned = match node.kind {
            NodeKind::Op { .. } | NodeKind::External { .. } => &node.out_types[..],
            NodeKind::Input { .. } | NodeKind::Param { .. } => &[],
        };
        planned.iter().map(TensorType::size_bytes)
    }

    fn reads(&self, step: usize) -> impl Iterator<Item = Read> {
        let inputs = match &self.nodes[step].kind {
            NodeKind::Op { inputs, .. } | NodeKind::External { inputs, .. } => &inputs[..],
            NodeKind::Input { .. } | NodeKind::Param { .. } => &[],
        };
        inputs.iter().map(|&r| self.read(r))
    }

    fn outputs(&self) -> impl Iterator<Item = Read> {
        self.outputs.iter().map(|&r| self.read(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{call_global, var, Function};
    use tvmnp_relay::Conv2dAttrs;
    use tvmnp_tensor::rng::TensorRng;

    fn host_ops(g: &ExecutorGraph) -> usize {
        g.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Op { .. }))
            .count()
    }

    #[test]
    fn lowers_plain_cnn() {
        let mut rng = TensorRng::new(1);
        let x = var("x", TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let y = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        let m = Module::from_main(Function::new(vec![x], y));
        let g = ExecutorGraph::build(&m).unwrap();
        assert_eq!(host_ops(&g), 2);
        assert_eq!(g.params.len(), 1);
        assert_eq!(g.input_name(0), Some("x"));
        let param_types: Vec<usize> = (g.nodes.iter())
            .filter(|n| matches!(n.kind, NodeKind::Param { .. }))
            .map(|n| n.out_types.len())
            .collect();
        assert_eq!(param_types, [0], "a parameter's type is its tensor's");
        assert_eq!(g.outputs.len(), 1);
        // conv+relu share a fusion group.
        let groups: Vec<usize> = g
            .nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Op { group, .. } => Some(*group),
                _ => None,
            })
            .collect();
        assert_eq!(groups[0], groups[1]);
    }

    #[test]
    fn lowers_external_call() {
        let px = var("p", TensorType::f32([1, 4]));
        let ext =
            Function::new(vec![px.clone()], builder::relu(px)).with_attr("Compiler", "neuropilot");
        let x = var("x", TensorType::f32([1, 4]));
        let y = call_global("neuropilot_0", vec![x.clone()]);
        let mut m = Module::from_main(Function::new(vec![x], y));
        m.functions.insert("neuropilot_0".into(), ext);
        let g = ExecutorGraph::build(&m).unwrap();
        let symbols: Vec<&str> = (g.nodes.iter())
            .filter_map(|n| match &n.kind {
                NodeKind::External { symbol, .. } => Some(symbol.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(symbols, ["neuropilot_0"]);
        assert_eq!(host_ops(&g), 0);
    }

    #[test]
    fn serializes_roundtrip() {
        let x = var("x", TensorType::f32([2, 2]));
        let y = builder::relu(x.clone());
        let m = Module::from_main(Function::new(vec![x], y));
        let g = ExecutorGraph::build(&m).unwrap();
        let s = serde_json::to_string(&g).unwrap();
        let back: ExecutorGraph = serde_json::from_str(&s).unwrap();
        assert_eq!(back.nodes.len(), g.nodes.len());
        assert_eq!(back.outputs, g.outputs);
    }
}
