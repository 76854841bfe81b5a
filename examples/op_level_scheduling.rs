//! The paper's future work, working: operation-level scheduling with I/O
//! awareness (§5.1), compared against the fixed model-level policies.
//!
//! Run with: `cargo run --release --example op_level_scheduling`

use tvm_neuropilot::hwsim::CostRole;
use tvm_neuropilot::models::emotion::emotion_model;
use tvm_neuropilot::neuropilot::{convert_function, plan_op_level, CompiledNetwork};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::relay::passes::simplify;

/// The plan's device segments and crossings, as its ledger charges them:
/// one `dispatch` per segment, one `transfer` per crossing.
fn segments_and_crossings(net: &CompiledNetwork) -> (usize, usize) {
    let count = |role| net.ledger().iter().filter(|e| e.role == role).count();
    (count(CostRole::Dispatch), count(CostRole::Transfer))
}

fn main() {
    let cost = CostModel::default();
    let model = emotion_model(7);
    let prepared = simplify(&model.module);
    let graph = convert_function(prepared.main()).expect("emotion model converts");

    println!("model: {} ({} Neuron ops)\n", model.name, graph.num_ops());
    println!(
        "{:<18} {:>10} {:>10} {:>10}",
        "planner", "time (ms)", "segments", "crossings"
    );

    for policy in [
        TargetPolicy::CpuOnly,
        TargetPolicy::ApuPrefer,
        TargetPolicy::CpuApu,
    ] {
        let net = CompiledNetwork::compile(graph.clone(), policy, cost.clone()).unwrap();
        let (segments, crossings) = segments_and_crossings(&net);
        println!(
            "{:<18} {:>10.3} {:>10} {:>10}",
            policy.label(),
            net.estimate_time_us() / 1000.0,
            segments,
            crossings
        );
    }

    let plan = plan_op_level(&graph, &cost).expect("op-level plan");
    let net = CompiledNetwork::from_plan(graph.clone(), plan, cost.clone());
    let (segments, crossings) = segments_and_crossings(&net);
    println!(
        "{:<18} {:>10.3} {:>10} {:>10}",
        "op-level DP",
        net.estimate_time_us() / 1000.0,
        segments,
        crossings
    );

    println!("\nper-op placement chosen by the DP:");
    for (op, p) in graph.ops.iter().zip(&net.plan().placements) {
        println!("  {:<24} -> {}", op.kind.name(), p.device.name());
    }

    // The plan changes time only, never numerics.
    let input = model.sample_input(42);
    let (a, t) = net.execute(std::slice::from_ref(&input)).unwrap();
    let cpu = CompiledNetwork::compile(graph, TargetPolicy::CpuOnly, cost).unwrap();
    let (b, _) = cpu.execute(&[input]).unwrap();
    assert!(a[0].bit_eq(&b[0]), "placement must not change results");
    println!(
        "\nverified: op-level plan is bit-identical to CPU-only, {:.3} ms simulated",
        t / 1000.0
    );
}
