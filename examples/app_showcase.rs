//! The application showcase (paper Fig. 1 / §4.4 / Listing 5) end to end.
//!
//! A synthetic video streams through object detection + face detection;
//! overlapping boxes gate the anti-spoofing model; real faces flow into
//! emotion detection. Runs the video twice — sequentially and through the
//! §5.2 pipeline — and prints the simulated Fig. 5 schedule.
//!
//! Run with: `cargo run --release --example app_showcase`

use tvm_neuropilot::prelude::*;
use tvm_neuropilot::scheduler::pipeline::{simulate_pipelined, simulate_sequential};

fn main() {
    let cost = CostModel::default();
    let showcase = Showcase::new(1000, ShowcaseAssignment::paper_prototype(), &cost);

    let mut video = SyntheticVideo::new(2000, 64, 64);
    let frames = video.frames(12);

    println!("== per-frame results (sequential) ==");
    let results = showcase.process_video(&frames);
    for r in &results {
        let faces: Vec<String> = r
            .faces
            .iter()
            .map(|f| {
                if f.real {
                    format!("real→{}", f.emotion.unwrap_or("?"))
                } else {
                    "spoof".to_string()
                }
            })
            .collect();
        println!(
            "frame {:>2}: {} object(s), faces: [{}]  ({:.2} ms model time)",
            r.frame_index,
            r.objects.len(),
            faces.join(", "),
            r.times.total_us() / 1000.0
        );
    }

    // Pipelined processing produces identical results.
    let pipelined = showcase.process_video_pipelined(frames);
    assert_eq!(results, pipelined, "pipelining must not change results");
    println!(
        "\npipelined run produced identical results on all {} frames",
        pipelined.len()
    );

    // The Fig. 5 schedule, from measured stage latencies.
    let stages = showcase.stage_profile(2000);
    println!("\n== measured stage profile ==");
    for s in &stages {
        println!(
            "{:<12} {:>8.2} ms on {}",
            s.label,
            s.us / 1000.0,
            DeviceKind::set_label(s.devices)
        );
    }

    let n = 8;
    let seq = simulate_sequential(&stages, n);
    let pipe = simulate_pipelined(&stages, n);
    println!("\n== Fig. 5: pipeline schedule over {n} frames ==");
    println!("sequential makespan : {:9.2} ms", seq.makespan_us / 1000.0);
    println!("pipelined  makespan : {:9.2} ms", pipe.makespan_us / 1000.0);
    println!(
        "throughput gain     : {:9.2}x",
        seq.makespan_us / pipe.makespan_us
    );
    println!("\nGantt (o = obj-det CPU, a = anti-spoof CPU+APU, e = emotion APU):");
    print!("{}", pipe.ascii_gantt(72));
    assert!(pipe.makespan_us <= seq.makespan_us);
}
