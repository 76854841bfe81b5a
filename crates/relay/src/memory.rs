//! The storage planner — TVM's `GraphPlanMemory` — and the one run loop,
//! for both runtimes.
//!
//! A [`Program`] is a list of steps; each writes some values and reads
//! values earlier steps wrote, graph inputs or constants. The planner
//! assigns every value a storage slot, greedily reusing slots whose value
//! is dead, and says after which step each slot's value dies. Inputs and
//! constants live in the caller's storage, not in a slot.
//!
//! A [`StepPlan`] is that memory plan plus where every operand and output
//! is, resolved once; [`StepPlan::run`] walks it, handing each step its
//! operands and freeing each slot after its value's last reader. The graph
//! executor runs its `ExecutorGraph` and the Neuron runtime its
//! `NeuronGraph` on it: each supplies only what one step does.

use serde::{Deserialize, Serialize};
use std::fmt;
use tvmnp_tensor::Tensor;

/// Reference to one output of a step (a node of the graph executor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeRef {
    /// Producing step (node) index.
    pub node: usize,
    /// Which of its outputs.
    pub output: usize,
}

/// What a step reads, or the program returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// A value a step writes.
    Value(NodeRef),
    /// The caller's input `k`.
    Input(usize),
    /// The caller's constant `k`.
    Const(usize),
    /// Nothing the program holds.
    Nothing,
}

/// A program as the storage planner sees it.
pub trait Program {
    /// Number of steps, in execution order.
    fn num_steps(&self) -> usize;
    /// The byte size of each value step `step` writes, in output order.
    fn writes(&self, step: usize) -> impl Iterator<Item = usize>;
    /// What step `step` reads, in argument order. Only a [`Read::Value`]
    /// of an earlier step is the planner's.
    fn reads(&self, step: usize) -> impl Iterator<Item = Read>;
    /// What the program returns: its values live to its end.
    fn outputs(&self) -> impl Iterator<Item = Read>;
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

/// Index of the value `read` reads among the planned values; `None` for
/// anything no step writes.
fn value_index(first_value: &[usize], read: Read) -> Option<usize> {
    let Read::Value(r) = read else { return None };
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
    for read in reads.chain(program.outputs()) {
        if let Some(v) = value_index(&first_value, read) {
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
        for read in program.reads(step) {
            if let Some(v) = value_index(&first_value, read).filter(|&v| v < first_value[step]) {
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
    fn slots_of(&self, step: usize) -> &[usize] {
        &self.value_slots[self.first_value[step]..self.first_value[step + 1]]
    }

    /// Storage slot of a value; `None` for anything no step writes.
    pub fn slot_of(&self, r: NodeRef) -> Option<usize> {
        value_index(&self.first_value, Read::Value(r)).map(|v| self.value_slots[v])
    }

    /// The slots whose value is dead once step `step` has run.
    fn dying_after(&self, step: usize) -> &[usize] {
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
        for (step, read) in reads.chain(program.outputs().map(|r| (steps, r))) {
            if let Some(v) = value_index(&self.first_value, read) {
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

/// A read with no value. [`StepPlan::new`] refuses one that names neither
/// an earlier step's value, an input nor a constant; [`StepPlan::run`] one
/// the caller has no tensor for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Missing {
    /// `Operand(step, k)`: operand `k` of step `step`.
    Operand(usize, usize),
    /// The program's output `k`.
    Output(usize),
}

impl fmt::Display for Missing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Missing::Operand(step, k) => write!(f, "operand {k} of step {step}"),
            Missing::Output(k) => write!(f, "output {k}"),
        }
    }
}

/// A program's execution, compiled once: what each step reads, what the
/// program returns, and the memory plan that says where values live.
#[derive(Debug, Clone, PartialEq)]
pub struct StepPlan {
    /// Every step's operands, in step then argument order.
    operands: Vec<Read>,
    /// `operands[first_operand[s]..first_operand[s + 1]]` belong to step `s`.
    first_operand: Vec<usize>,
    outputs: Vec<Read>,
    memory: MemoryPlan,
}

impl StepPlan {
    /// Plan `program`. Every read must be an earlier step's value, an
    /// input or a constant; every output, any step's value, an input or a
    /// constant.
    pub fn new(program: &impl Program) -> Result<StepPlan, Missing> {
        let memory = plan_memory(program);
        let placed = |read: Read, before: usize| match read {
            Read::Value(r) => r.node < before && memory.slot_of(r).is_some(),
            Read::Input(_) | Read::Const(_) => true,
            Read::Nothing => false,
        };
        let steps = program.num_steps();
        let mut operands = Vec::new();
        let mut first_operand = Vec::with_capacity(steps + 1);
        for step in 0..steps {
            first_operand.push(operands.len());
            for (index, read) in program.reads(step).enumerate() {
                if !placed(read, step) {
                    return Err(Missing::Operand(step, index));
                }
                operands.push(read);
            }
        }
        first_operand.push(operands.len());
        let outputs: Vec<Read> = program.outputs().collect();
        if let Some(index) = outputs.iter().position(|&read| !placed(read, steps)) {
            return Err(Missing::Output(index));
        }
        Ok(StepPlan {
            operands,
            first_operand,
            outputs,
            memory,
        })
    }

    /// The tensor `read` names: a value from its slot, anything else from
    /// `pinned`.
    fn resolve<'a, 't: 'a>(
        &self,
        read: Read,
        pinned: &impl Fn(Read) -> Option<&'t Tensor>,
        slots: &'a [Option<Tensor>],
    ) -> Option<&'a Tensor> {
        match read {
            Read::Value(r) => slots.get(self.memory.slot_of(r)?)?.as_ref(),
            _ => pinned(read),
        }
    }

    /// Run the program: per step, `step` gets the step's index, its
    /// operands and `outs` to push its results to; the
    /// runner stores them in the step's slots and then drops every slot
    /// whose value this step read last. `pinned` answers the inputs and
    /// constants; `slots` is emptied first and holds the values after.
    ///
    /// Returns the most bytes the slots held after a step, which the plan's
    /// `peak_bytes` bounds (asserted in debug builds).
    pub fn run<'t, E: From<Missing>>(
        &self,
        pinned: impl Fn(Read) -> Option<&'t Tensor>,
        slots: &mut Vec<Option<Tensor>>,
        outs: &mut Vec<Tensor>,
        mut step: impl FnMut(usize, &[&Tensor], &mut Vec<Tensor>) -> Result<(), E>,
    ) -> Result<usize, E> {
        let n = self.memory.slot_bytes.len();
        slots.clear();
        slots.reserve_exact(n);
        slots.resize(n, None);
        let (mut held, mut peak) = (0usize, 0usize);
        // One operand buffer serves every step: emptied, it is collected
        // into a fresh borrow, which reuses its allocation.
        let mut spare: Vec<&Tensor> = Vec::new();
        for s in 0..self.first_operand.len() - 1 {
            let mut args: Vec<&Tensor> = spare.into_iter().map_while(|_| None).collect();
            let operands = &self.operands[self.first_operand[s]..self.first_operand[s + 1]];
            for (k, &read) in operands.iter().enumerate() {
                args.push(
                    self.resolve(read, &pinned, slots)
                        .ok_or(Missing::Operand(s, k))?,
                );
            }
            step(s, &args, outs)?;
            spare = args.into_iter().map_while(|_| None).collect();
            // A slot is empty when written: its last value died first.
            for (out, &slot) in outs.drain(..).zip(self.memory.slots_of(s)) {
                held += out.size_bytes();
                slots[slot] = Some(out);
            }
            for &slot in self.memory.dying_after(s) {
                if let Some(dead) = slots[slot].take() {
                    held -= dead.size_bytes();
                }
            }
            debug_assert!(
                held <= self.memory.peak_bytes,
                "step {s}: slots hold {held} B, the plan's peak is {} B",
                self.memory.peak_bytes
            );
            peak = peak.max(held);
        }
        Ok(peak)
    }

    /// Output `k` after a run.
    pub fn output<'a, 't: 'a>(
        &self,
        k: usize,
        pinned: impl Fn(Read) -> Option<&'t Tensor>,
        slots: &'a [Option<Tensor>],
    ) -> Option<&'a Tensor> {
        self.resolve(*self.outputs.get(k)?, &pinned, slots)
    }

    /// Every output after a run: moved out of its slot unless the same
    /// value is returned again, else cloned.
    pub fn take_outputs<'t>(
        &self,
        pinned: impl Fn(Read) -> Option<&'t Tensor>,
        slots: &mut [Option<Tensor>],
    ) -> Result<Vec<Tensor>, Missing> {
        let mut outputs = Vec::with_capacity(self.outputs.len());
        for (index, &read) in self.outputs.iter().enumerate() {
            let moved = match read {
                Read::Value(r) if !self.outputs[index + 1..].contains(&read) => {
                    (self.memory.slot_of(r)).and_then(|slot| slots.get_mut(slot)?.take())
                }
                _ => self.resolve(read, &pinned, slots).cloned(),
            };
            outputs.push(moved.ok_or(Missing::Output(index))?);
        }
        Ok(outputs)
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
        fn reads(&self, step: usize) -> impl Iterator<Item = Read> {
            self.0[step].1.iter().copied().map(Read::Value)
        }
        fn outputs(&self) -> impl Iterator<Item = Read> {
            self.1.iter().copied().map(Read::Value)
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

    /// A value nothing reads dies at the step that writes it: its slot is
    /// freed right after, even when that step is the last.
    #[test]
    fn an_unread_value_dies_where_it_is_written() {
        // a = step 0; b = f(a), returned; c = g(a), read by nothing.
        let toy = Toy(
            vec![
                (vec![8], vec![]),
                (vec![8], vec![r(0, 0)]),
                (vec![8], vec![r(0, 0)]),
            ],
            vec![r(1, 0)],
        );
        let plan = plan_memory(&toy);
        assert_eq!(plan.check_no_alias(&toy), None);
        assert!(plan.dying_after(2).contains(&plan.slots_of(2)[0]));
        assert!(!plan.dying_after(1).contains(&plan.slots_of(1)[0]));
    }

    /// A program whose steps write more than it declares: the runner's
    /// held bytes pass the plan's peak.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the plan's peak")]
    fn holding_more_than_the_plan_trips_the_runner() {
        // Each step declares 4 bytes and writes a 2-float (8-byte) tensor.
        let toy = Toy(
            vec![(vec![4], vec![]), (vec![4], vec![r(0, 0)])],
            vec![r(1, 0)],
        );
        let plan = StepPlan::new(&toy).unwrap();
        let (mut slots, mut outs) = (Vec::new(), Vec::new());
        let _ = plan.run(
            |_| None,
            &mut slots,
            &mut outs,
            |_, _, outs: &mut Vec<Tensor>| -> Result<(), Missing> {
                outs.push(Tensor::zeros_f32([2]));
                Ok(())
            },
        );
    }
}
