//! The `ablation` subcommand.

use crate::session::Session;
use tvm_neuropilot::models::{anti_spoofing, emotion, zoo};
use tvm_neuropilot::neuropilot::{convert_function, plan_op_level, CompiledNetwork};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::relay::passes::{
    count_batch_norms, fold_batch_norm, quantize_with_calibration, simplify,
};

/// Ablations of the reproduction's design choices (DESIGN.md §4 calls
/// these out) plus the paper's what-ifs:
///
/// 1. **BN folding** — the counterfactual for Fig. 4's anti-spoofing
///    story: folding batch norms before partitioning collapses the
///    subgraph count and unlocks NeuroPilot-only compilation.
/// 2. **Post-training quantization** — quantize a float showcase model
///    with the `relay.quantize`-style pass and compare APU times.
/// 3. **Operator fusion** — dispatch-count effect on TVM-only times.
/// 4. **Transfer latency sweep** — how the BYOC win erodes as the
///    CPU↔APU boundary gets more expensive (the I/O-cost discussion of
///    §5.1).
/// 5. **Op-level scheduling** — the paper's future work vs its fixed
///    policies.
///
/// `tvmnp ablation [--profile] [--trace-out <path>]`
pub fn ablation(telem: &mut Session) {
    let cost = CostModel::default();

    // ---- 1. BN folding ---------------------------------------------------
    println!("== ablation 1: batch-norm folding vs the Fig. 4 fragmentation ==\n");
    let spoof = anti_spoofing::anti_spoofing_model(800);
    let before = measure_all(&spoof.module, &cost).unwrap();
    let folded_module = fold_batch_norm(&spoof.module);
    assert_eq!(count_batch_norms(&folded_module), 0);
    let after = measure_all(&folded_module, &cost).unwrap();
    println!(
        "{:<18} {:>12} {:>12} {:>12}",
        "permutation", "unfused (ms)", "folded (ms)", "subgraphs"
    );
    for (b, a) in before.iter().zip(&after) {
        println!(
            "{:<18} {:>12} {:>12} {:>6} -> {:<3}",
            b.permutation.label(),
            b.time_ms.map(|t| format!("{t:.3}")).unwrap_or("--".into()),
            a.time_ms.map(|t| format!("{t:.3}")).unwrap_or("--".into()),
            b.subgraphs,
            a.subgraphs
        );
    }
    let b_sub = before.iter().map(|m| m.subgraphs).max().unwrap();
    let a_sub = after.iter().map(|m| m.subgraphs).max().unwrap();
    assert!(
        a_sub < b_sub,
        "folding must collapse subgraphs ({b_sub} -> {a_sub})"
    );
    assert!(
        before.iter().any(|m| m.time_ms.is_none()) && after.iter().all(|m| m.time_ms.is_some()),
        "folding must unlock NeuroPilot-only compilation"
    );
    let best = |ms: &[Measurement]| {
        ms.iter()
            .filter_map(|m| m.time_ms)
            .fold(f64::INFINITY, f64::min)
    };
    println!(
        "\nbest bar: unfused {:.3} ms -> folded {:.3} ms (subgraphs {} -> {})\n",
        best(&before),
        best(&after),
        b_sub,
        a_sub
    );
    assert!(best(&after) < best(&before));

    // ---- 2. Post-training quantization -----------------------------------
    println!("== ablation 2: post-training quantization of the emotion model ==\n");
    let emo = emotion::emotion_model(801);
    let simplified = simplify(&emo.module);
    let cal: Vec<_> = (0..4).map(|i| emo.sample_inputs(900 + i)).collect();
    let quantized = quantize_with_calibration(&simplified, &cal).expect("emotion quantizes");
    for (label, module) in [("float32", &simplified), ("int8 (PTQ)", &quantized)] {
        let apu = measure_one(module, Permutation::ByocApu, &cost)
            .unwrap()
            .time_ms
            .unwrap();
        let cpu = measure_one(module, Permutation::ByocCpu, &cost)
            .unwrap()
            .time_ms
            .unwrap();
        println!("{label:<12} BYOC CPU {cpu:>8.3} ms   BYOC APU {apu:>8.3} ms");
    }
    let f_apu = measure_one(&simplified, Permutation::ByocApu, &cost)
        .unwrap()
        .time_ms
        .unwrap();
    let q_apu = measure_one(&quantized, Permutation::ByocApu, &cost)
        .unwrap()
        .time_ms
        .unwrap();
    assert!(q_apu < f_apu, "PTQ must pay off on the APU");
    println!();

    // ---- 3. Fusion -------------------------------------------------------
    println!("== ablation 3: operator fusion (TVM dispatch grouping) ==\n");
    for model in [zoo::mobilenet_v1(802), zoo::inception_v3(803)] {
        use tvm_neuropilot::relay::passes::fuse_analysis;
        let prepared = tvm_neuropilot::relay::passes::fold_constants(&simplify(&model.module));
        let groups = fuse_analysis(&prepared.main().body).len();
        let calls = prepared.main().num_calls();
        let launch = cost.soc().device(DeviceKind::Cpu).kernel_launch_us;
        let saved_us = (calls - groups) as f64 * launch;
        println!(
            "{:<16} {calls:>3} ops -> {groups:>3} dispatch groups (saves {saved_us:>6.1} us/inference on TVM)",
            model.name
        );
        assert!(groups < calls);
    }
    println!();

    // ---- 4. Transfer-latency sweep ----------------------------------------
    println!("== ablation 4: CPU<->APU transfer latency vs the BYOC win ==\n");
    let model = zoo::mobilenet_v2(804);
    println!(
        "{:<14} {:>12} {:>12} {:>9}",
        "latency (us)", "tvm (ms)", "byoc-apu", "speedup"
    );
    let mut last_speedup = f64::INFINITY;
    for latency in [5.0, 15.0, 60.0, 240.0, 960.0] {
        let mut soc = tvm_neuropilot::hwsim::SocSpec::dimensity_800();
        soc.transfer.latency_us = latency;
        let c = CostModel::new(soc);
        let tvm = measure_one(&model.module, Permutation::TvmOnly, &c)
            .unwrap()
            .time_ms
            .unwrap();
        let apu = measure_one(&model.module, Permutation::ByocApu, &c)
            .unwrap()
            .time_ms
            .unwrap();
        let speedup = tvm / apu;
        println!("{latency:<14} {tvm:>12.3} {apu:>12.3} {speedup:>8.2}x");
        assert!(
            speedup < last_speedup + 1e-9,
            "speedup must erode with latency"
        );
        last_speedup = speedup;
    }
    println!();

    // ---- 5. Op-level scheduling -------------------------------------------
    println!("== ablation 5: op-level scheduling (paper future work) ==\n");
    let emo = emotion::emotion_model(805);
    let prepared = simplify(&emo.module);
    let graph = convert_function(prepared.main()).expect("emotion converts");
    println!("{:<18} {:>12}", "planner", "time (ms)");
    let mut fixed_best = f64::INFINITY;
    for policy in [
        TargetPolicy::CpuOnly,
        TargetPolicy::ApuPrefer,
        TargetPolicy::CpuApu,
    ] {
        let t = CompiledNetwork::compile(graph.clone(), policy, cost.clone())
            .unwrap()
            .estimate_time_us()
            / 1000.0;
        println!("{:<18} {t:>12.3}", policy.label());
        fixed_best = fixed_best.min(t);
    }
    let plan = plan_op_level(&graph, &cost).unwrap();
    let t_op = CompiledNetwork::from_plan(graph, plan, cost.clone()).estimate_time_us() / 1000.0;
    println!("{:<18} {t_op:>12.3}", "op-level DP");
    assert!(
        t_op <= fixed_best,
        "op-level must match or beat fixed policies"
    );
    println!("\nall ablation checks passed");
    telem.trace_model(&emotion::emotion_model(806), &cost);
}
