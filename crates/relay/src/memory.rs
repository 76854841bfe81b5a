//! The storage planner — TVM's `GraphPlanMemory` — for both runtimes.
//!
//! A [`Program`] is a list of steps; each writes some values and reads
//! values earlier steps wrote. The planner assigns every value a storage
//! slot, greedily reusing slots whose value is dead, and says after which
//! step each slot's value dies. Whatever a step reads that no step wrote
//! (graph inputs, parameters, constants) lives in its own pinned storage.
//! The graph executor plans its `ExecutorGraph` and the Neuron runtime its
//! `NeuronGraph` with [`plan_memory`]; both run on the slot ids and free by
//! [`MemoryPlan::dying_after`].

use serde::{Deserialize, Serialize};

/// Reference to one output of a step (a node of the graph executor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeRef {
    /// Producing step (node) index.
    pub node: usize,
    /// Which of its outputs.
    pub output: usize,
}

/// A program as the storage planner sees it.
pub trait Program {
    /// Number of steps, in execution order.
    fn num_steps(&self) -> usize;
    /// The byte size of each value step `step` writes, in output order.
    fn writes(&self, step: usize) -> impl Iterator<Item = usize>;
    /// The values step `step` reads. A reference to anything but a value
    /// an earlier step wrote is not the planner's and is ignored.
    fn reads(&self, step: usize) -> impl Iterator<Item = NodeRef>;
    /// The values the program returns: they live to its end.
    fn outputs(&self) -> impl Iterator<Item = NodeRef>;
}

/// Result of memory planning.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// Storage slot of every value, in step then output order.
    value_slots: Vec<usize>,
    /// `value_slots[first_value[s]..first_value[s + 1]]` belong to step `s`.
    first_value: Vec<usize>,
    /// Slots whose value dies at each step, in step order.
    dying: Vec<usize>,
    /// `dying[first_dying[s]..first_dying[s + 1]]` die after step `s`.
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

/// Index of `r` among the planned values; `None` for a reference to a
/// value no step writes.
fn value_index(first_value: &[usize], r: NodeRef) -> Option<usize> {
    let (&base, &end) = (first_value.get(r.node)?, first_value.get(r.node + 1)?);
    (r.output < end - base).then_some(base + r.output)
}

/// Plan storage for `program`: one pass over step-indexed tables.
///
/// A value is live from the step that writes it until the step of its
/// last reader (outputs to the end; a value nothing reads dies with its
/// own step, which still writes it). A slot is released *after* the step
/// its value dies at, so a step's outputs never share a slot with its
/// inputs or with each other.
pub fn plan_memory(program: &impl Program) -> MemoryPlan {
    let steps = program.num_steps();
    let mut first_value = Vec::with_capacity(steps + 1);
    let mut values = 0;
    for step in 0..steps {
        first_value.push(values);
        values += program.writes(step).count();
    }
    first_value.push(values);

    // How many reads each value still has coming; an output is one that
    // never comes.
    let mut pending = vec![0usize; values];
    let reads = (0..steps).flat_map(|step| program.reads(step));
    for r in reads.chain(program.outputs()) {
        if let Some(v) = value_index(&first_value, r) {
            pending[v] += 1;
        }
    }

    let mut value_slots = Vec::with_capacity(values);
    let mut slot_bytes: Vec<usize> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut dying = Vec::with_capacity(values);
    let mut first_dying = Vec::with_capacity(steps + 1);
    let (mut live_bytes, mut peak_bytes) = (0usize, 0usize);
    for step in 0..steps {
        first_dying.push(dying.len());
        // Allocate outputs: best-fit from the free list, else a new slot.
        for need in program.writes(step) {
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
        for r in program.reads(step) {
            if let Some(v) = value_index(&first_value, r).filter(|&v| v < first_value[step]) {
                pending[v] -= 1;
                if pending[v] == 0 {
                    live_bytes -= slot_bytes[value_slots[v]];
                    dying.push(value_slots[v]);
                }
            }
        }
        peak_bytes = peak_bytes.max(live_bytes);
        // ...and neither, once written, is an output nothing reads.
        for v in first_value[step]..first_value[step + 1] {
            if pending[v] == 0 {
                live_bytes -= slot_bytes[value_slots[v]];
                dying.push(value_slots[v]);
            }
        }
        free.extend_from_slice(&dying[first_dying[step]..]);
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
    /// Storage slots of a step's outputs, in output order; empty for a
    /// step that writes nothing.
    pub fn slots_of(&self, step: usize) -> &[usize] {
        &self.value_slots[self.first_value[step]..self.first_value[step + 1]]
    }

    /// Storage slot of a value; `None` for anything no step writes.
    pub fn slot_of(&self, r: NodeRef) -> Option<usize> {
        value_index(&self.first_value, r).map(|v| self.value_slots[v])
    }

    /// The slots whose value is dead once step `step` has run.
    pub fn dying_after(&self, step: usize) -> &[usize] {
        &self.dying[self.first_dying[step]..self.first_dying[step + 1]]
    }

    /// Verify no two simultaneously-live values share a slot. Liveness is
    /// re-derived from the program; returns the first conflict found.
    pub fn check_no_alias(&self, program: &impl Program) -> Option<(NodeRef, NodeRef)> {
        // Value `v` is live from its writer's step until its last reader's.
        let steps = self.first_value.len() - 1;
        let writer = |v: usize| self.first_value.partition_point(|&f| f <= v) - 1;
        let mut last_use: Vec<usize> = (0..self.value_slots.len()).map(writer).collect();
        let reads = (0..steps).flat_map(|step| program.reads(step).map(move |r| (step, r)));
        for (step, r) in reads.chain(program.outputs().map(|r| (steps, r))) {
            if let Some(v) = value_index(&self.first_value, r) {
                last_use[v] = step;
            }
        }
        let node_ref = |v: usize| NodeRef {
            node: writer(v),
            output: v - self.first_value[writer(v)],
        };
        for a in 0..last_use.len() {
            for b in a + 1..last_use.len() {
                // Live intervals (start, end]: overlap when each starts
                // strictly before the other ends.
                if self.value_slots[a] == self.value_slots[b]
                    && writer(a) < last_use[b]
                    && writer(b) < last_use[a]
                {
                    return Some((node_ref(a), node_ref(b)));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps as `(byte sizes written, values read)`, plus the outputs.
    struct Toy(Vec<(Vec<usize>, Vec<NodeRef>)>, Vec<NodeRef>);

    impl Program for Toy {
        fn num_steps(&self) -> usize {
            self.0.len()
        }
        fn writes(&self, step: usize) -> impl Iterator<Item = usize> {
            self.0[step].0.iter().copied()
        }
        fn reads(&self, step: usize) -> impl Iterator<Item = NodeRef> {
            self.0[step].1.iter().copied()
        }
        fn outputs(&self) -> impl Iterator<Item = NodeRef> {
            self.1.iter().copied()
        }
    }

    fn r(node: usize, output: usize) -> NodeRef {
        NodeRef { node, output }
    }

    #[test]
    fn check_no_alias_finds_a_shared_live_slot() {
        // a = step 0; b = f(a); c = g(a, b); a dead value after c.
        let toy = Toy(
            vec![
                (vec![8], vec![]),
                (vec![8], vec![r(0, 0)]),
                (vec![8, 8], vec![r(0, 0), r(1, 0)]),
            ],
            vec![r(2, 0)],
        );
        let mut plan = plan_memory(&toy);
        assert_eq!(plan.check_no_alias(&toy), None);
        assert_eq!(plan.dying_after(2).len(), 3, "a, b and the unread (2, 1)");
        // `a` is live across step 1, so `b` may not take its slot.
        plan.value_slots[1] = plan.value_slots[0];
        assert_eq!(plan.check_no_alias(&toy), Some((r(0, 0), r(1, 0))));
    }
}
