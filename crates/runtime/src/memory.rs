//! The storage planner — TVM's `GraphPlanMemory`.
//!
//! Assigns each op/external output a storage slot, greedily reusing slots
//! whose value is dead, and says after which node each slot's value dies.
//! Inputs and params live in their own pinned storage. The executor runs on
//! these slot ids (see DESIGN.md "The execution plan"); `peak_bytes` is the
//! number that decides whether a model fits a phone's memory budget.

use crate::graph::{ExecutorGraph, GraphNode, NodeKind, NodeRef};

/// Result of memory planning.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// Storage slot of every op/external output, in node then output order.
    value_slots: Vec<usize>,
    /// `value_slots[first_value[n]..first_value[n + 1]]` belong to node `n`.
    first_value: Vec<usize>,
    /// Slots whose value dies at each node, in node order.
    dying: Vec<usize>,
    /// `dying[first_dying[n]..first_dying[n + 1]]` die after node `n`.
    first_dying: Vec<usize>,
    /// Size of each slot in bytes.
    pub slot_bytes: Vec<usize>,
    /// Peak transient memory: the maximum, over execution steps, of the
    /// total bytes of slots holding a live value after that step. This is
    /// the number that decides whether a model fits a phone's memory budget.
    pub peak_bytes: usize,
    /// Total pool size (sum of all slot sizes) — what the greedy planner
    /// actually reserves. Always `>= peak_bytes`; the gap is reuse slack.
    pub pool_bytes: usize,
}

/// The values a node reads.
fn inputs_of(node: &GraphNode) -> &[NodeRef] {
    match &node.kind {
        NodeKind::Op { inputs, .. } | NodeKind::External { inputs, .. } => inputs,
        // Inputs/params are pinned outside the transient pool.
        NodeKind::Input { .. } | NodeKind::Param { .. } => &[],
    }
}

/// Index of `r` among the planned values; `None` for inputs, params and
/// references to outputs that do not exist.
fn value_index(first_value: &[usize], r: NodeRef) -> Option<usize> {
    let (&base, &end) = (first_value.get(r.node)?, first_value.get(r.node + 1)?);
    (r.output < end - base).then_some(base + r.output)
}

/// Plan storage for a lowered graph: one pass over node-indexed tables.
///
/// A value is live from the step that produces it until the step of its
/// last consumer (graph outputs to the end; a value nothing consumes dies
/// with its own step, which still writes it). A slot is released *after*
/// the step its value dies at, so a step's outputs never share a slot with
/// its inputs or with each other.
pub fn plan_memory(graph: &ExecutorGraph) -> MemoryPlan {
    let mut first_value = Vec::with_capacity(graph.nodes.len() + 1);
    let mut values = 0;
    for node in &graph.nodes {
        first_value.push(values);
        values += match node.kind {
            NodeKind::Op { .. } | NodeKind::External { .. } => node.out_types.len(),
            NodeKind::Input { .. } | NodeKind::Param { .. } => 0,
        };
    }
    first_value.push(values);

    // How many reads each value still has coming; a graph output is one
    // that never comes.
    let mut pending = vec![0usize; values];
    let reads = graph.nodes.iter().flat_map(|n| inputs_of(n).iter());
    for &r in reads.chain(&graph.outputs) {
        if let Some(v) = value_index(&first_value, r) {
            pending[v] += 1;
        }
    }

    let mut value_slots = Vec::with_capacity(values);
    let mut slot_bytes: Vec<usize> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut dying = Vec::with_capacity(values);
    let mut first_dying = Vec::with_capacity(graph.nodes.len() + 1);
    let (mut live_bytes, mut peak_bytes) = (0usize, 0usize);
    for (idx, node) in graph.nodes.iter().enumerate() {
        first_dying.push(dying.len());
        // Allocate outputs: best-fit from the free list, else a new slot.
        for ty in &node.out_types[..first_value[idx + 1] - first_value[idx]] {
            let need = ty.size_bytes();
            let fit = free
                .iter()
                .enumerate()
                .filter(|(_, &s)| slot_bytes[s] >= need)
                .min_by_key(|(_, &s)| slot_bytes[s])
                .map(|(i, _)| i);
            let slot = match fit {
                Some(i) => free.swap_remove(i),
                None => {
                    slot_bytes.push(need);
                    slot_bytes.len() - 1
                }
            };
            live_bytes += slot_bytes[slot];
            value_slots.push(slot);
        }
        // Inputs whose last read this was are no longer live...
        for &r in inputs_of(node) {
            if let Some(v) = value_index(&first_value, r).filter(|&v| v < first_value[idx]) {
                pending[v] -= 1;
                if pending[v] == 0 {
                    live_bytes -= slot_bytes[value_slots[v]];
                    dying.push(value_slots[v]);
                }
            }
        }
        peak_bytes = peak_bytes.max(live_bytes);
        // ...and neither, once written, is an output nothing reads.
        for v in first_value[idx]..first_value[idx + 1] {
            if pending[v] == 0 {
                live_bytes -= slot_bytes[value_slots[v]];
                dying.push(value_slots[v]);
            }
        }
        free.extend_from_slice(&dying[first_dying[idx]..]);
    }
    first_dying.push(dying.len());

    MemoryPlan {
        pool_bytes: slot_bytes.iter().sum(),
        value_slots,
        first_value,
        dying,
        first_dying,
        slot_bytes,
        peak_bytes,
    }
}

impl MemoryPlan {
    /// Storage slots of a node's outputs, in output order; empty for
    /// inputs and params.
    pub fn slots_of(&self, node: usize) -> &[usize] {
        &self.value_slots[self.first_value[node]..self.first_value[node + 1]]
    }

    /// Storage slot of an op/external output; `None` for inputs and params.
    pub fn slot_of(&self, r: NodeRef) -> Option<usize> {
        value_index(&self.first_value, r).map(|v| self.value_slots[v])
    }

    /// The slots whose value is dead once node `node` has run.
    pub fn dying_after(&self, node: usize) -> &[usize] {
        &self.dying[self.first_dying[node]..self.first_dying[node + 1]]
    }

    /// Verify no two simultaneously-live values share a slot. Liveness is
    /// re-derived from the graph; returns the first conflict found.
    pub fn check_no_alias(&self, graph: &ExecutorGraph) -> Option<(NodeRef, NodeRef)> {
        // A value is live from its producing node until its last consumer.
        let refs: Vec<NodeRef> = (0..graph.nodes.len())
            .flat_map(|node| {
                let outputs = self.first_value[node + 1] - self.first_value[node];
                (0..outputs).map(move |output| NodeRef { node, output })
            })
            .collect();
        let mut last_use: Vec<usize> = refs.iter().map(|r| r.node).collect();
        for (idx, node) in graph.nodes.iter().enumerate() {
            for &r in inputs_of(node) {
                if let Some(v) = value_index(&self.first_value, r) {
                    last_use[v] = idx;
                }
            }
        }
        for &r in &graph.outputs {
            if let Some(v) = value_index(&self.first_value, r) {
                last_use[v] = graph.nodes.len();
            }
        }
        for (a, ra) in refs.iter().enumerate() {
            for (b, rb) in refs.iter().enumerate().skip(a + 1) {
                // Live intervals (start, end]: overlap when each starts
                // strictly before the other ends.
                if self.value_slots[a] == self.value_slots[b]
                    && ra.node < last_use[b]
                    && rb.node < last_use[a]
                {
                    return Some((*ra, *rb));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{var, Function, Module};
    use tvmnp_relay::TensorType;

    fn chain(n: usize) -> ExecutorGraph {
        let x = var("x", TensorType::f32([64]));
        let mut e = x.clone();
        for _ in 0..n {
            e = builder::relu(e);
        }
        ExecutorGraph::build(&Module::from_main(Function::new(vec![x], e))).unwrap()
    }

    #[test]
    fn chain_reuses_two_slots() {
        let g = chain(10);
        let plan = plan_memory(&g);
        // Ping-pong between two buffers regardless of depth.
        assert!(
            plan.slot_bytes.len() <= 2,
            "got {} slots",
            plan.slot_bytes.len()
        );
        assert!(plan.check_no_alias(&g).is_none());
    }

    #[test]
    fn diamond_needs_extra_slot() {
        let x = var("x", TensorType::f32([64]));
        let a = builder::relu(x.clone());
        let b = builder::sigmoid(a.clone());
        let c = builder::add(a.clone(), b); // `a` stays live across `b`
        let g = ExecutorGraph::build(&Module::from_main(Function::new(vec![x], c))).unwrap();
        let plan = plan_memory(&g);
        assert!(plan.slot_bytes.len() >= 2);
        assert!(plan.check_no_alias(&g).is_none());
    }

    #[test]
    fn peak_bytes_positive_and_bounded() {
        // On a chain the planner ping-pongs two slots (pool = 2 buffers),
        // but only one value crosses any step boundary: the true live peak
        // is a single buffer, strictly below the pool size.
        let g = chain(5);
        let plan = plan_memory(&g);
        assert_eq!(plan.peak_bytes, 64 * 4, "one live buffer at a time");
        assert_eq!(plan.pool_bytes, 2 * 64 * 4, "two slots reserved");
        assert!(
            plan.peak_bytes < plan.pool_bytes,
            "peak must report live bytes, not pool size"
        );
    }

    #[test]
    fn deep_chain_peak_stays_one_buffer() {
        let g = chain(10);
        let plan = plan_memory(&g);
        assert_eq!(plan.peak_bytes, 64 * 4);
        assert!(plan.peak_bytes < plan.pool_bytes);
    }

    #[test]
    fn diamond_peak_counts_both_live_values() {
        // `a` stays live across `b`: two values genuinely coexist, so the
        // peak equals the pool (no reuse slack to reclaim).
        let x = var("x", TensorType::f32([64]));
        let a = builder::relu(x.clone());
        let b = builder::sigmoid(a.clone());
        let c = builder::add(a.clone(), b);
        let g = ExecutorGraph::build(&Module::from_main(Function::new(vec![x], c))).unwrap();
        let plan = plan_memory(&g);
        assert_eq!(plan.peak_bytes, 2 * 64 * 4);
        assert!(plan.peak_bytes <= plan.pool_bytes);
    }

    #[test]
    fn peak_never_exceeds_pool() {
        for n in 1..12 {
            let plan = plan_memory(&chain(n));
            assert!(plan.peak_bytes <= plan.pool_bytes, "chain({n})");
            assert!(plan.peak_bytes > 0, "chain({n})");
        }
    }

    #[test]
    fn outputs_never_recycled_early() {
        // The graph output must hold a slot to the very end.
        let g = chain(3);
        let plan = plan_memory(&g);
        let out_slot = plan.slot_of(g.outputs[0]).expect("an op output has a slot");
        assert!(out_slot < plan.slot_bytes.len());
        assert!(plan.check_no_alias(&g).is_none());
    }
}
