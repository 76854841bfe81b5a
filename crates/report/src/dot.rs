//! Annotated Graphviz DOT dump of a partitioned graph with per-node
//! timing heat.
//!
//! The executor graph *is* the partitioned Relay graph after lowering —
//! host ops plus `nir_*` external calls — so the dump shows exactly what
//! the BYOC flow produced, with each node shaded by its share of the
//! analytic cost (white = free, deep red = the bottleneck).

use std::collections::HashMap;
use tvmnp_hwsim::CostEntry;
use tvmnp_runtime::{ExecutorGraph, NodeKind};

/// Escape a string for a double-quoted DOT label.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Heat fill for a cost share in `[0, 1]`: a 9-step white→red ramp
/// (Graphviz `reds9` color scheme).
fn heat(share_of_max: f64) -> String {
    let level = (share_of_max * 9.0).ceil().clamp(1.0, 9.0) as u32;
    format!("/reds9/{level}")
}

/// Render `graph` as DOT, annotating each node with its analytic cost:
/// the sum of its entries in `costs` (pass the executor's ledger).
/// Output is deterministic: nodes emit in index order, edges in input
/// order.
pub fn dot_graph(graph: &ExecutorGraph, costs: &[CostEntry], title: &str) -> String {
    let mut by_index: HashMap<usize, f64> = HashMap::new();
    for c in costs {
        *by_index.entry(c.node).or_default() += c.us;
    }
    let total_us: f64 = costs.iter().map(|c| c.us).sum();
    let max_us = by_index.values().copied().fold(0.0, f64::max);
    let mut out = String::new();
    out.push_str(&format!("digraph \"{}\" {{\n", esc(title)));
    out.push_str("  rankdir=TB;\n");
    out.push_str(&format!(
        "  label=\"{} — total {:.1} us (simulated)\";\n",
        esc(title),
        total_us
    ));
    out.push_str("  node [fontname=\"Helvetica\", style=filled, fillcolor=white];\n");
    for (idx, node) in graph.nodes.iter().enumerate() {
        let cost = by_index.get(&idx);
        let annotate = |name: &str| match cost {
            Some(us) if total_us > 0.0 => format!(
                "{}\\n{:.1} us ({:.1}%)",
                esc(name),
                us,
                us / total_us * 100.0
            ),
            _ => esc(name),
        };
        let fill = match cost {
            Some(&us) if max_us > 0.0 && us > 0.0 => heat(us / max_us),
            _ => "white".to_string(),
        };
        match &node.kind {
            // Params are weights; they would swamp the drawing.
            NodeKind::Param { .. } => continue,
            NodeKind::Input { name } => {
                out.push_str(&format!(
                    "  n{idx} [shape=ellipse, style=dashed, label=\"{}\"];\n",
                    esc(name)
                ));
            }
            NodeKind::Op { op, .. } => {
                out.push_str(&format!(
                    "  n{idx} [shape=box, fillcolor=\"{fill}\", label=\"{}\"];\n",
                    annotate(op.name())
                ));
            }
            NodeKind::External { symbol, .. } => {
                out.push_str(&format!(
                    "  n{idx} [shape=box3d, fillcolor=\"{fill}\", label=\"{}\"];\n",
                    annotate(symbol)
                ));
            }
        }
    }
    for (idx, node) in graph.nodes.iter().enumerate() {
        let inputs = match &node.kind {
            NodeKind::Op { inputs, .. } | NodeKind::External { inputs, .. } => inputs,
            _ => continue,
        };
        for r in inputs {
            if matches!(graph.nodes[r.node].kind, NodeKind::Param { .. }) {
                continue;
            }
            out.push_str(&format!("  n{} -> n{idx};\n", r.node));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{var, Function, Module};
    use tvmnp_relay::{Conv2dAttrs, TensorType};
    use tvmnp_tensor::rng::TensorRng;

    fn graph() -> ExecutorGraph {
        let mut rng = TensorRng::new(5);
        let x = var("x", TensorType::f32([1, 4, 8, 8]));
        let w = rng.uniform_f32([4, 4, 3, 3], -0.4, 0.4);
        let y = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        ExecutorGraph::build(&Module::from_main(Function::new(vec![x], y))).unwrap()
    }

    #[test]
    fn dot_is_wellformed_and_annotated() {
        let g = graph();
        // Synthetic costs: find the conv node index.
        let conv_idx = g
            .nodes
            .iter()
            .position(|n| matches!(&n.kind, NodeKind::Op { op, .. } if op.name() == "nn.conv2d"))
            .unwrap();
        // Two entries on one node (launch + body) sum into its label.
        let entry = |role, us| {
            CostEntry::fixed(
                conv_idx,
                "nn.conv2d",
                role,
                tvmnp_hwsim::DeviceKind::Cpu,
                us,
            )
        };
        let costs = vec![
            entry(tvmnp_hwsim::CostRole::Launch, 5.0),
            entry(tvmnp_hwsim::CostRole::Kernel, 75.0),
        ];
        let dot = dot_graph(&g, &costs, "toy");
        assert!(dot.starts_with("digraph \"toy\" {"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("nn.conv2d\\n80.0 us (100.0%)"));
        assert!(dot.contains("/reds9/9"), "max-cost node gets full heat");
        assert!(dot.contains("shape=ellipse"), "input node rendered");
        assert!(dot.contains(" -> "), "edges rendered");
        assert!(!dot.contains("Param"), "weights are skipped");
        // Deterministic: same inputs, same bytes.
        assert_eq!(dot, dot_graph(&g, &costs, "toy"));
    }

    #[test]
    fn zero_cost_nodes_stay_white() {
        let g = graph();
        let dot = dot_graph(&g, &[], "uncosted");
        assert!(!dot.contains("/reds9/"));
        assert!(dot.contains("fillcolor=white"));
    }
}
