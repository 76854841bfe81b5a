//! Experiments beyond the paper's own figures: `nnapi`, `gpu_ext`,
//! `energy`.

use crate::session::Session;
use crate::workloads::showcase_models;
use tvm_neuropilot::byoc::nnapi::relay_build_nnapi;
use tvm_neuropilot::byoc::partition_for_nir;
use tvm_neuropilot::models::{object_detection, zoo};
use tvm_neuropilot::prelude::*;

/// Figure 3's lineage quantified: the team's previous NNAPI BYOC flow vs
/// the NeuroPilot-direct flow this paper contributes, over the showcase
/// models.
///
/// Expected (asserted): NeuroPilot-direct offloads at least as much and
/// is never slower — the introduction's motivation for the new flow.
///
/// `tvmnp nnapi [--profile] [--trace-out <path>]`
pub(crate) fn nnapi(telem: &mut Session) {
    let cost = CostModel::default();
    println!("== NNAPI flow (prior work [11]) vs NeuroPilot-direct (this paper) ==\n");
    println!(
        "{:<22} {:>13} {:>13} {:>11} {:>11}",
        "model", "offload nnapi", "offload nir", "t nnapi ms", "t nir ms"
    );

    let [spoof, ssd, emotion] = showcase_models(701);
    // YOLO's leaky activations are exactly the NNAPI gap that splits
    // the offload.
    let models = [spoof, ssd, emotion, object_detection::yolo_model(704)];
    for model in &models {
        telem.trace_model(model, &cost);
        let (nnapi_compiled, nnapi_report) =
            relay_build_nnapi(&model.module, TargetPolicy::CpuApu, cost.clone()).unwrap();
        let (_, nir_report) = partition_for_nir(&model.module).unwrap();
        let nir_compiled = relay_build(
            &model.module,
            TargetMode::Byoc(TargetPolicy::CpuApu),
            cost.clone(),
        )
        .unwrap();
        let t_nnapi = nnapi_compiled.estimate_us() / 1000.0;
        let t_nir = nir_compiled.estimate_us() / 1000.0;
        println!(
            "{:<22} {:>12.0}% {:>12.0}% {:>11.3} {:>11.3}",
            model.name,
            nnapi_report.offload_fraction() * 100.0,
            nir_report.offload_fraction() * 100.0,
            t_nnapi,
            t_nir
        );
        assert!(nir_report.offload_fraction() >= nnapi_report.offload_fraction());
        assert!(
            t_nir <= t_nnapi + 1e-9,
            "{}: direct flow must not lose",
            model.name
        );
    }
    println!("\nNeuroPilot-direct offloads >= NNAPI and never runs slower — the");
    println!("win the paper's introduction claims over the prior NNAPI flow.");
}

/// Extension: the mobile-GPU back-end the paper mentions but does not
/// evaluate ("the numerous back-ends provided by Mediatek NeuroPilot,
/// including mobile CPU, GPU or AI accelerators" — §1).
///
/// Expected (asserted): for compute-dominated float models the Mali-class
/// GPU lands between the vendor CPU and the APU; quantized models skip
/// the GPU entirely (the APU's int8 advantage is too large).
///
/// `tvmnp gpu_ext [--profile] [--trace-out <path>]`
pub(crate) fn gpu_ext(telem: &mut Session) {
    let cost = CostModel::default();
    println!("== Extension: BYOC with the mobile GPU back-end (simulated ms) ==\n");
    println!(
        "{:<22} {:>10} {:>10} {:>10}",
        "model", "byoc-cpu", "byoc-gpu", "byoc-apu"
    );

    let gpu_mode = TargetMode::Byoc(TargetPolicy::GpuPrefer);
    for model in [
        zoo::inception_v3(601),
        zoo::inception_v4(602),
        zoo::mobilenet_v2(603),
        zoo::densenet(604),
    ] {
        telem.trace_model(&model, &cost);
        let t = |mode: TargetMode| {
            relay_build(&model.module, mode, cost.clone())
                .unwrap()
                .estimate_us()
                / 1000.0
        };
        let cpu = t(TargetMode::Byoc(TargetPolicy::CpuOnly));
        let gpu = t(gpu_mode);
        let apu = t(TargetMode::Byoc(TargetPolicy::ApuPrefer));
        println!("{:<22} {cpu:>10.3} {gpu:>10.3} {apu:>10.3}", model.name);
        assert!(
            gpu < cpu && apu < gpu,
            "{}: expected apu < gpu < cpu, got {apu:.3} / {gpu:.3} / {cpu:.3}",
            model.name
        );
    }
    println!("\nfloat models: APU < GPU < vendor CPU, as the device peaks predict.");
}

/// Extension: inference *energy* per target permutation.
///
/// The paper motivates NeuroPilot with the edge's "physical limitations,
/// such as power and heat problems" (§2.1) but reports only time. This
/// harness adds the energy column: per-op silicon energy (inefficient
/// codegen burns proportionally more) plus DRAM-boundary traffic.
///
/// Expected (asserted): TVM-only burns the most energy everywhere; for
/// every model the APU permutation is the most frugal; int8 variants burn
/// less than their float32 twins.
///
/// `tvmnp energy [--profile] [--trace-out <path>]`
pub(crate) fn energy(telem: &mut Session) {
    let cost = CostModel::default();
    println!("== Extension: simulated inference energy (microjoules) ==\n");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "model", "tvm-only", "byoc-cpu", "byoc-gpu", "byoc-apu"
    );

    let energy_uj = |module: &Module, mode: TargetMode| {
        relay_build(module, mode, cost.clone())
            .unwrap()
            .estimate_energy_uj()
    };
    let models = [
        zoo::inception_v3(610),
        zoo::mobilenet_v1(611),
        zoo::mobilenet_v2(612),
        zoo::mobilenet_v1_quant(613),
        zoo::mobilenet_v2_quant(614),
    ];
    for model in &models {
        telem.trace_model(model, &cost);
        let e = |mode: TargetMode| energy_uj(&model.module, mode);
        let tvm = e(TargetMode::TvmOnly);
        let cpu = e(TargetMode::Byoc(TargetPolicy::CpuOnly));
        let gpu = e(TargetMode::Byoc(TargetPolicy::GpuPrefer));
        let apu = e(TargetMode::Byoc(TargetPolicy::ApuPrefer));
        println!(
            "{:<22} {tvm:>10.1} {cpu:>10.1} {gpu:>10.1} {apu:>10.1}",
            model.name
        );
        assert!(
            tvm > cpu && tvm > gpu && tvm > apu,
            "{}: TVM-only burns most",
            model.name
        );
        assert!(
            apu < cpu && apu < gpu,
            "{}: APU is the most frugal",
            model.name
        );
    }

    // Same-architecture int8 vs float on the APU.
    let pairs = [
        (zoo::mobilenet_v1(611), zoo::mobilenet_v1_quant(613)),
        (zoo::mobilenet_v2(612), zoo::mobilenet_v2_quant(614)),
    ];
    println!();
    for (f, q) in pairs {
        let ef = energy_uj(&f.module, TargetMode::Byoc(TargetPolicy::ApuPrefer));
        let eq = energy_uj(&q.module, TargetMode::Byoc(TargetPolicy::ApuPrefer));
        println!(
            "{:<22} APU energy: float {ef:>8.1} uJ vs int8 {eq:>8.1} uJ",
            f.name
        );
        assert!(eq < ef, "int8 must save energy");
    }
    println!("\nenergy checks passed: the power argument behind NeuroPilot holds.");
}
