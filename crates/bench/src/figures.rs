//! The paper's own figures and tables: `fig4`, `fig5`, `fig6`, `table1`,
//! `table2`.

use crate::session::Session;
use crate::workloads::showcase_models;
use crate::{check_figure_shape, figure_group};
use tvm_neuropilot::hwsim::KernelClass;
use tvm_neuropilot::models::zoo;
use tvm_neuropilot::prelude::*;

/// Figure 4: inference time for the three application-showcase models
/// under the seven target permutations.
///
/// Expected shape (checked): TVM-only is the slowest bar of every group;
/// NeuroPilot-only bars are missing for anti-spoofing (unfused batch
/// norm) and the SSD (exp box decode) but present for the emotion model;
/// the emotion model is fastest on the APU alone; anti-spoofing carries
/// the most subgraphs and the largest absolute time.
///
/// `tvmnp fig4 [--profile] [--trace-out <path>]`
pub fn fig4(telem: &mut Session) {
    let cost = CostModel::default();
    println!("== Figure 4: showcase-model inference time (simulated ms) ==\n");

    let models = showcase_models(101);

    let mut groups = Vec::new();
    for model in &models {
        let (ms, text) = figure_group(model, &cost);
        check_figure_shape(&model.name, &ms);
        println!("{text}");
        groups.push((model.name.clone(), ms));
        telem.trace_model(model, &cost);
    }

    // Paper-shape assertions beyond the per-group checks.
    let time = |model: &str, p: Permutation| -> Option<f64> {
        groups
            .iter()
            .find(|(n, _)| n == model)
            .and_then(|(_, ms)| ms.iter().find(|m| m.permutation == p))
            .and_then(|m| m.time_ms)
    };

    // NP-only bars exist only for the emotion model.
    assert!(time("anti-spoofing", Permutation::NpCpu).is_none());
    assert!(time("mobilenet-ssd-quant", Permutation::NpApu).is_none());
    assert!(time("emotion-detection", Permutation::NpApu).is_some());

    // Emotion is fastest on APU alone (paper 5.1); the float anti-spoofing
    // model favors CPU+APU (its fragmented subgraphs are too small to
    // amortize the APU driver). For the int8 SSD the APU permutations tie
    // or win — consistent with 4.2's "performance similar to the original
    // flow" (EXPERIMENTS.md discusses the deviation from the figure).
    let emo_apu = time("emotion-detection", Permutation::NpApu).unwrap();
    let emo_cpu_apu = time("emotion-detection", Permutation::NpCpuApu).unwrap();
    assert!(
        emo_apu < emo_cpu_apu,
        "emotion: APU {emo_apu} vs CPU+APU {emo_cpu_apu}"
    );
    {
        let apu = time("anti-spoofing", Permutation::ByocApu).unwrap();
        let both = time("anti-spoofing", Permutation::ByocCpuApu).unwrap();
        assert!(
            both < apu,
            "anti-spoofing: CPU+APU {both} must beat APU-prefer {apu}"
        );
    }
    {
        let cpu = time("mobilenet-ssd-quant", Permutation::ByocCpu).unwrap();
        let both = time("mobilenet-ssd-quant", Permutation::ByocCpuApu).unwrap();
        assert!(
            both <= cpu * 1.01,
            "ssd: CPU+APU {both} must not lose to CPU {cpu}"
        );
    }

    // Anti-spoofing is the slowest model (most subgraphs).
    let best = |model: &str| {
        groups
            .iter()
            .find(|(n, _)| n == model)
            .unwrap()
            .1
            .iter()
            .filter_map(|m| m.time_ms)
            .fold(f64::INFINITY, f64::min)
    };
    assert!(best("anti-spoofing") > best("mobilenet-ssd-quant"));
    assert!(best("anti-spoofing") > best("emotion-detection"));

    println!("shape checks passed: TVM-only slowest; NP-only bars missing for");
    println!("anti-spoofing and SSD; emotion fastest on APU alone; anti-spoofing");
    println!("slowest overall (subgraph fragmentation); CPU+APU best for the");
    println!("fragmented float model.");
}

/// Figure 5: the early pipeline-scheduling prototype.
///
/// Yellow = CPU+APU (anti-spoofing), green = APU-only (emotion), blue =
/// CPU-only (object detection, deliberately moved off the APU so it can
/// overlap emotion across frames).
///
/// `tvmnp fig5 [--profile] [--trace-out <path>]`
pub fn fig5(telem: &mut Session) {
    // The pipeline figure executes no graph; its profile aggregates the
    // simulated stage spans instead of per-node executor spans.
    telem.profile_span = "scheduler.stage";
    let cost = CostModel::default();
    println!("== Figure 5: pipeline scheduling prototype ==\n");

    // Stage latencies measured from the real application under the
    // paper's assignment.
    let proto = Showcase::new(900, ShowcaseAssignment::paper_prototype(), &cost);
    let stages = proto.stage_profile(901);
    println!("measured stages:");
    for s in &stages {
        println!(
            "  {:<12} {:>9.3} ms on {}",
            s.label,
            s.us / 1000.0,
            DeviceKind::set_label(s.devices)
        );
    }

    let frames = 8;
    let seq = simulate_sequential(&stages, frames);
    let pipe = simulate_pipelined(&stages, frames);
    assert!(
        pipe.check_exclusive().is_none(),
        "exclusive-resource invariant"
    );
    assert!(pipe.makespan_us < seq.makespan_us, "pipelining must help");

    println!(
        "\nsequential: {:9.3} ms for {frames} frames ({:.3} ms/frame)",
        seq.makespan_us / 1000.0,
        seq.period_us() / 1000.0
    );
    println!(
        "pipelined : {:9.3} ms for {frames} frames ({:.3} ms/frame)",
        pipe.makespan_us / 1000.0,
        pipe.period_us() / 1000.0
    );
    println!("gain      : {:9.3}x", seq.makespan_us / pipe.makespan_us);

    println!("\nsequential schedule:");
    print!("{}", seq.ascii_gantt(72));
    println!("\npipelined schedule (obj-det of frame k+1 overlaps emotion of frame k):");
    print!("{}", pipe.ascii_gantt(72));

    // Contrast with the greedy assignment that shares CPU+APU everywhere:
    // pipelining cannot overlap and degenerates toward sequential.
    let greedy = Showcase::new(900, ShowcaseAssignment::greedy(), &cost);
    let greedy_stages = greedy.stage_profile(901);
    let greedy_pipe = simulate_pipelined(&greedy_stages, frames);
    println!(
        "\ngreedy (obj-det on CPU+APU) pipelined: {:9.3} ms — {}",
        greedy_pipe.makespan_us / 1000.0,
        if greedy_pipe.makespan_us > pipe.makespan_us {
            "worse than the prototype ✓"
        } else {
            "?"
        }
    );
    assert!(greedy_pipe.makespan_us > pipe.makespan_us);
}

/// Figure 6: inference time for the evaluation zoo (Table 1's models)
/// under the seven target permutations.
///
/// Expected shape (checked): the Fig. 4 pattern repeats — TVM-only
/// slowest everywhere, NeuroPilot-only bars missing exactly for the
/// models with NP-unsupported ops (densenet, inception-resnet-v2,
/// nasnet), quantized models gaining the most from the APU.
///
/// `tvmnp fig6 [--profile] [--trace-out <path>]`
pub fn fig6(telem: &mut Session) {
    let cost = CostModel::default();
    println!("== Figure 6: model-zoo inference time (simulated ms) ==\n");

    let missing_expected = ["densenet", "inception resnet v2", "nasnet"];

    for model in zoo::zoo(600) {
        let (ms, text) = figure_group(&model, &cost);
        check_figure_shape(&model.name, &ms);
        println!("{text}");

        let np_missing = ms.iter().filter(|m| m.time_ms.is_none()).count();
        let expect_missing = missing_expected.contains(&model.name.as_str());
        assert_eq!(
            np_missing > 0,
            expect_missing,
            "{}: NP-only coverage mismatch",
            model.name
        );

        telem.trace_model(&model, &cost);
    }

    // Same-architecture int8 vs float on the APU (the QNN-flow payoff).
    let apu_ms = |module: &Module| {
        measure_one(module, Permutation::ByocApu, &cost)
            .unwrap()
            .time_ms
            .unwrap()
    };
    let pairs = [
        (zoo::mobilenet_v1(600), zoo::mobilenet_v1_quant(600)),
        (zoo::mobilenet_v2(600), zoo::mobilenet_v2_quant(600)),
    ];
    for (f, q) in pairs {
        let tf = apu_ms(&f.module);
        let tq = apu_ms(&q.module);
        println!(
            "{:<22} BYOC APU: float {tf:.3} ms vs int8 {tq:.3} ms",
            f.name
        );
        assert!(tq < tf, "int8 must beat float on the APU");
    }
    println!("shape checks passed: same pattern as Fig. 4 across the zoo.");
}

/// Table 1: models used for testing and their data types.
///
/// `tvmnp table1 [--profile] [--trace-out <path>]`
pub fn table1(telem: &mut Session) {
    println!("== Table 1: models used for testing and their data types ==\n");
    println!("{:<22} | Data Type", "Model");
    println!("{:-<22}-+-{:-<9}", "", "");
    for (name, dtype) in zoo::table1(600) {
        println!("{name:<22} | {dtype}");
    }
    // The table itself runs nothing; trace one zoo model so --profile /
    // --trace-out show where its simulated time goes.
    if telem.obs.reporting() {
        telem.trace_model(&zoo::mobilenet_v2(600), &CostModel::default());
    }
}

/// Table 2: specifications of the experiment environment (OPPO Reno4 Z
/// 5G / MediaTek Dimensity 800), as modelled by the simulator.
///
/// `tvmnp table2 [--profile] [--trace-out <path>]`
pub fn table2(telem: &mut Session) {
    let soc = SocSpec::dimensity_800();
    println!("== Table 2: experiment environment ==\n");
    for (label, value) in soc.table2_rows() {
        println!("{label:<8} | {value}");
    }
    println!("\nsimulator calibration (effective throughput after derating):");
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>12}",
        "device", "f32 tvm", "f32 vendor", "int8 vendor", "dispatch"
    );
    for d in &soc.devices {
        println!(
            "{:<6} {:>11.1} GF {:>11.1} GF {:>11.1} GOP {:>9.0} us",
            d.kind.name(),
            d.effective_gops(false, KernelClass::TvmUntuned),
            d.effective_gops(false, KernelClass::VendorTuned),
            d.effective_gops(true, KernelClass::VendorTuned),
            d.subgraph_dispatch_us,
        );
    }
    println!(
        "\ntransfer: {:.0} us latency + {:.0} GB/s",
        soc.transfer.latency_us, soc.transfer.bandwidth_gbps
    );
    // The spec dump runs nothing; trace one model against this SoC so
    // --profile / --trace-out have an execute phase to show.
    if telem.obs.reporting() {
        telem.trace_model(&zoo::mobilenet_v2(600), &CostModel::default());
    }
}
