//! Operation-level scheduling — the paper's stated future work (§5.1):
//!
//! > "Another perspective is operation-level, which means we should assign
//! > the corresponding efficient targets to each operation. Compared to
//! > the model-level, this is more difficult since we need to break the
//! > models apart and also consider the I/O time while transferring data
//! > between targets."
//!
//! This module implements exactly that: a local search over per-op
//! placements whose only objective is the network's own cost ledger
//! (`runtime::build_ledger`, what
//! [`CompiledNetwork::ledger`](crate::CompiledNetwork::ledger) holds) — per
//! device run a driver dispatch and, off the CPU, the weights it stages;
//! per op its kernel; per tensor crossing devices, graph inputs and outputs
//! included, a transfer. A placement is priced by the same code that
//! charges it at run time, so nothing here models the I/O time a second
//! way. The search starts from the cheapest of three plans — all-CPU, APU
//! wherever it can run the op, and the CPU+APU heuristic of
//! [`Planner::plan`] — so it is never slower than a fixed CPU/APU policy
//! (an APU-prefer fallback op runs an untuned kernel, slower than the
//! vendor CPU one the second start gives it), and then moves one op to the
//! other device while that makes the plan strictly cheaper.

use crate::error::NeuronError;
use crate::nir::NeuronGraph;
use crate::planner::{ExecutionPlan, Planner, TargetPolicy};
use crate::runtime::build_ledger;
use crate::support::device_supports;
use tvmnp_hwsim::{ledger, CostModel, DeviceKind};

/// Plan `graph` by op-level local search over `cost`.
///
/// Returns an [`ExecutionPlan`] over the device set of
/// [`TargetPolicy::CpuApu`], with no fallback placement; only the
/// assignment algorithm differs.
pub fn plan_op_level(graph: &NeuronGraph, cost: &CostModel) -> Result<ExecutionPlan, NeuronError> {
    let price = |plan: &ExecutionPlan| ledger::total_us(&build_ledger(graph, plan, cost));
    let mut plan = Planner::plan(graph, TargetPolicy::CpuOnly)?;
    let mut total = price(&plan);
    for policy in [TargetPolicy::ApuPrefer, TargetPolicy::CpuApu] {
        let mut start = Planner::plan(graph, policy)?;
        // An op the APU cannot run stays on the CPU's vendor kernel.
        start.placements.iter_mut().for_each(|p| p.fallback = false);
        let us = price(&start);
        if us < total {
            (total, plan) = (us, start);
        }
    }
    let mut improved = true;
    while improved {
        improved = false;
        for (i, op) in graph.ops.iter().enumerate() {
            let current = plan.placements[i].device;
            let other = match current {
                DeviceKind::Cpu => DeviceKind::Apu,
                _ => DeviceKind::Cpu,
            };
            if !device_supports(other, &op.kind) {
                continue;
            }
            plan.placements[i].device = other;
            let us = price(&plan);
            if us < total {
                total = us;
                improved = true;
            } else {
                plan.placements[i].device = current;
            }
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert_function;
    use crate::runtime::CompiledNetwork;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{var, Function};
    use tvmnp_relay::{Conv2dAttrs, TensorType};
    use tvmnp_tensor::rng::TensorRng;

    fn cnn(channels: usize, layers: usize, seed: u64) -> NeuronGraph {
        let mut rng = TensorRng::new(seed);
        let x = var("x", TensorType::f32([1, channels, 32, 32]));
        let mut e = x.clone();
        for _ in 0..layers {
            let w = rng.uniform_f32([channels, channels, 3, 3], -0.3, 0.3);
            e = builder::relu(builder::conv2d(e, w, Conv2dAttrs::same(1)));
        }
        convert_function(&Function::new(vec![x], e)).unwrap()
    }

    fn plan_time(graph: &NeuronGraph, plan: ExecutionPlan, cost: &CostModel) -> f64 {
        CompiledNetwork::from_plan(graph.clone(), plan, cost.clone()).estimate_time_us()
    }

    #[test]
    fn op_level_never_worse_than_fixed_policies() {
        let cost = CostModel::default();
        for (ch, layers, seed) in [(8usize, 3usize, 1u64), (64, 4, 2), (32, 6, 3)] {
            let g = cnn(ch, layers, seed);
            let op_level = plan_op_level(&g, &cost).unwrap();
            let t_op = plan_time(&g, op_level, &cost);
            for policy in TargetPolicy::ALL {
                if policy == TargetPolicy::GpuPrefer {
                    continue; // op-level only considers CPU/APU
                }
                let fixed = crate::planner::Planner::plan(&g, policy).unwrap();
                let t_fixed = plan_time(&g, fixed, &cost);
                assert!(
                    t_op <= t_fixed,
                    "ch={ch} layers={layers}: op-level {t_op:.1}us vs {policy} {t_fixed:.1}us"
                );
            }
        }
    }

    #[test]
    fn small_graphs_stay_on_cpu() {
        let cost = CostModel::default();
        let g = cnn(4, 2, 7);
        let plan = plan_op_level(&g, &cost).unwrap();
        assert!(
            plan.placements.iter().all(|p| p.device == DeviceKind::Cpu),
            "tiny convs cannot amortize the APU"
        );
    }

    #[test]
    fn big_convs_move_to_apu() {
        let cost = CostModel::default();
        let g = cnn(128, 3, 8);
        let plan = plan_op_level(&g, &cost).unwrap();
        assert!(
            plan.placements.iter().any(|p| p.device == DeviceKind::Apu),
            "128-channel convs at 32x32 should amortize the APU"
        );
    }

    #[test]
    fn numerics_unchanged_under_op_level_plan() {
        let cost = CostModel::default();
        let mut rng = TensorRng::new(9);
        let g = cnn(16, 3, 9);
        let plan = plan_op_level(&g, &cost).unwrap();
        let net = CompiledNetwork::from_plan(g.clone(), plan, cost.clone());
        let cpu = CompiledNetwork::compile(g.clone(), TargetPolicy::CpuOnly, cost).unwrap();
        let input = rng.uniform_f32([1, 16, 32, 32], -1.0, 1.0);
        let (a, _) = net.execute(std::slice::from_ref(&input)).unwrap();
        let (b, _) = cpu.execute(&[input]).unwrap();
        assert!(a[0].bit_eq(&b[0]));
    }
}
