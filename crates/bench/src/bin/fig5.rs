//! Figure 5: the early pipeline-scheduling prototype.
//!
//! Yellow = CPU+APU (anti-spoofing), green = APU-only (emotion), blue =
//! CPU-only (object detection, deliberately moved off the APU so it can
//! overlap emotion across frames).
//!
//! `cargo run --release -p tvmnp-bench --bin fig5 [--profile] [--trace-out <path>]`

use tvm_neuropilot::prelude::*;
use tvm_neuropilot::scheduler::pipeline::{simulate_pipelined, simulate_sequential};
use tvmnp_bench::profiling::TelemetryCli;

fn main() {
    let mut telem = TelemetryCli::from_env();
    // The pipeline bin executes no graph; its profile aggregates the
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
    telem.finish();
}
