//! Pipeline scheduling (paper §5.2, Fig. 5).
//!
//! Dependencies are intra-frame: the anti-spoofing model waits for object
//! detection's output, and emotion detection waits for anti-spoofing.
//! Resources are exclusive: two models may not occupy the CPU (or APU) at
//! the same instant. The paper's prototype moves object detection from
//! CPU+APU to CPU-only so that, across frames, object detection (CPU) of
//! frame *k+1* overlaps emotion detection (APU) of frame *k* — Fig. 5's
//! yellow/blue/green bars.

use tvmnp_hwsim::{schedule, DeviceKind, Schedule, Task};

/// Place `frames` copies of the stage chain with `window` frames in
/// flight, recording one `scheduler.stage` sim span per placement.
fn simulate(name: &'static str, stages: &[Task], frames: usize, window: usize) -> Schedule {
    let result = schedule(&vec![stages; frames], window);
    if tvmnp_telemetry::is_enabled() {
        for p in &result.placements {
            tvmnp_telemetry::record_sim_span(
                "scheduler.stage",
                p.start_us,
                p.end_us - p.start_us,
                vec![
                    ("schedule", name.into()),
                    ("stage", p.label.into()),
                    ("frame", p.job.into()),
                    ("device", DeviceKind::set_label(p.devices).into()),
                ],
            );
        }
    }
    result
}

/// Sequential baseline: stages of each frame run back-to-back and frames
/// never overlap (the pre-pipelining execution of §4.4) — an admission
/// window of one frame.
pub fn simulate_sequential(stages: &[Task], frames: usize) -> Schedule {
    simulate("sequential", stages, frames, 1)
}

/// Pipelined schedule: greedy list scheduling honoring intra-frame
/// dependencies with exclusive device reservations, every frame admitted
/// at once. Each stage still runs one frame at a time (one compiled
/// network each): it holds the same devices on every frame.
pub fn simulate_pipelined(stages: &[Task], frames: usize) -> Schedule {
    simulate("pipelined", stages, frames, frames)
}

/// Automatic pipeline scheduling (the paper's stated future work): search
/// over candidate per-stage assignments — each stage offers
/// `(resource set, duration)` options from the §5.1 measurements — and
/// pick the combination minimizing pipelined makespan.
///
/// The search is exhaustive; with three models and a handful of
/// permutations each this is the "concatenation algorithm"-style small
/// combinatorial problem of [Liu & Wu 2019].
pub fn auto_schedule(options: &[Vec<Task>], frames: usize) -> Option<(Vec<Task>, Schedule)> {
    fn rec(
        options: &[Vec<Task>],
        chosen: &mut Vec<Task>,
        frames: usize,
        best: &mut Option<(Vec<Task>, Schedule)>,
    ) {
        if chosen.len() == options.len() {
            let result = simulate_pipelined(chosen, frames);
            let better = match best {
                Some((_, b)) => result.makespan_us < b.makespan_us,
                None => true,
            };
            if better {
                *best = Some((chosen.clone(), result));
            }
            return;
        }
        for opt in &options[chosen.len()] {
            chosen.push(*opt);
            rec(options, chosen, frames, best);
            chosen.pop();
        }
    }
    let mut best = None;
    rec(options, &mut Vec::new(), frames, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_hwsim::Bound;

    /// The assignment of the paper's Fig. 5 prototype: anti-spoofing on
    /// CPU+APU, object detection forced to CPU-only, emotion on APU-only —
    /// exclusive use, so object detection of the next frame overlaps
    /// emotion of the current one.
    fn stages() -> Vec<Task> {
        vec![
            Task::new("obj-det", &[DeviceKind::Cpu], 3000.0),
            Task::new("anti-spoof", &[DeviceKind::Cpu, DeviceKind::Apu], 6000.0),
            Task::new("emotion", &[DeviceKind::Apu], 2000.0),
        ]
    }

    #[test]
    fn pipelined_never_slower_than_sequential() {
        let s = stages();
        let seq = simulate_sequential(&s, 8);
        let pipe = simulate_pipelined(&s, 8);
        assert!(pipe.makespan_us <= seq.makespan_us + 1e-6);
    }

    #[test]
    fn overlap_actually_happens() {
        // obj-det (CPU) of frame k+1 must start before emotion (APU) of
        // frame k ends.
        let s = stages();
        let r = simulate_pipelined(&s, 3);
        let obj_f1 = r.job(1).segments[0];
        let emo_f0 = r.job(0).segments[2];
        assert_eq!((obj_f1.label, emo_f0.label), ("obj-det", "emotion"));
        assert!(
            obj_f1.start_us < emo_f0.end_us,
            "obj-det f1 ({}) should overlap emotion f0 (ends {})",
            obj_f1.start_us,
            emo_f0.end_us
        );
    }

    #[test]
    fn exclusivity_invariant_holds() {
        let s = stages();
        for frames in [1, 4, 16] {
            let r = simulate_pipelined(&s, frames);
            assert!(r.check_exclusive().is_none());
        }
    }

    #[test]
    fn shared_resource_blocks_overlap() {
        // If object detection also held the APU (the pre-prototype
        // CPU+APU assignment), no overlap with emotion is possible and
        // pipelining degenerates to sequential.
        let all_shared = vec![
            Task::new("obj-det", &[DeviceKind::Cpu, DeviceKind::Apu], 3000.0),
            Task::new("anti-spoof", &[DeviceKind::Cpu, DeviceKind::Apu], 6000.0),
            Task::new("emotion", &[DeviceKind::Apu], 2000.0),
        ];
        let seq = simulate_sequential(&all_shared, 6);
        let pipe = simulate_pipelined(&all_shared, 6);
        assert!((pipe.makespan_us - seq.makespan_us).abs() < 1e-6);
        // Whereas the paper's prototype (obj-det CPU-only) beats sequential.
        let proto = simulate_pipelined(&stages(), 6);
        assert!(proto.makespan_us < seq.makespan_us);
    }

    #[test]
    fn dependencies_respected() {
        let s = stages();
        let r = simulate_pipelined(&s, 4);
        for f in 0..4 {
            let [obj, sp, emo] = r.job(f).segments else {
                panic!("frame {f}: three stages");
            };
            assert!(sp.start_us >= obj.end_us - 1e-9);
            assert!(emo.start_us >= sp.end_us - 1e-9);
        }
    }

    #[test]
    fn auto_schedule_finds_paper_prototype_or_better() {
        // Candidate assignments per stage: CPU+APU (fast but greedy),
        // CPU-only (slower), APU-only (fast for emotion).
        let options = vec![
            vec![
                Task::new("obj-det", &[DeviceKind::Cpu, DeviceKind::Apu], 2500.0),
                Task::new("obj-det", &[DeviceKind::Cpu], 3000.0),
            ],
            vec![
                Task::new("anti-spoof", &[DeviceKind::Cpu, DeviceKind::Apu], 6000.0),
                Task::new("anti-spoof", &[DeviceKind::Cpu], 9000.0),
            ],
            vec![
                Task::new("emotion", &[DeviceKind::Apu], 2000.0),
                Task::new("emotion", &[DeviceKind::Cpu, DeviceKind::Apu], 1800.0),
            ],
        ];
        let (chosen, result) = auto_schedule(&options, 8).unwrap();
        // The paper's insight falls out of the search: obj-det CPU-only
        // wins despite being slower in isolation.
        assert_eq!(chosen[0].devices, [DeviceKind::Cpu]);
        let manual = simulate_pipelined(&stages(), 8);
        assert!(result.makespan_us <= manual.makespan_us + 1e-6);
    }

    #[test]
    fn placements_mirror_the_stage_list() {
        let s = stages();
        for result in [simulate_sequential(&s, 3), simulate_pipelined(&s, 3)] {
            assert_eq!(result.placements.len(), s.len() * 3);
            for p in &result.placements {
                assert_eq!(p.label, s[p.task].label);
                assert_eq!(p.devices, s[p.task].devices);
            }
            // Each run occupies every one of its stage's devices.
            for d in DeviceKind::ALL {
                let holding = |devices: &[DeviceKind]| devices.contains(&d);
                assert_eq!(
                    result
                        .placements
                        .iter()
                        .filter(|p| holding(p.devices))
                        .count(),
                    3 * s.iter().filter(|st| holding(st.devices)).count(),
                    "{d}"
                );
            }
            let max_end = result
                .placements
                .iter()
                .map(|p| p.end_us)
                .fold(0.0, f64::max);
            assert!((max_end - result.makespan_us).abs() < 1e-9);
        }
    }

    #[test]
    fn critical_path_spans_zero_to_makespan_and_is_contiguous() {
        for r in [
            simulate_sequential(&stages(), 4),
            simulate_pipelined(&stages(), 4),
        ] {
            let path: Vec<_> = r.critical_path().iter().map(|&i| r.placements[i]).collect();
            assert!(!path.is_empty());
            assert_eq!(path[0].start_us, 0.0, "path starts at t=0");
            assert_eq!(path[0].bound, Bound::Origin);
            assert_eq!(path.last().unwrap().end_us, r.makespan_us);
            for w in path.windows(2) {
                assert_eq!(w[0].end_us, w[1].start_us, "steps chain back-to-back");
                assert_ne!(w[1].bound, Bound::Origin);
            }
            // A contiguous path's durations sum to the makespan.
            let sum: f64 = path.iter().map(|p| p.us).sum();
            assert!((sum - r.makespan_us).abs() < 1e-6);
        }
    }

    #[test]
    fn sequential_path_is_pure_dependency_chain() {
        let r = simulate_sequential(&stages(), 3);
        let path = r.critical_path();
        // 3 stages x 3 frames, every step waiting on the previous one of
        // its frame or on the frame before it; never on a busy device.
        assert_eq!(path.len(), 9);
        assert!(path
            .iter()
            .skip(1)
            .all(|&i| matches!(r.placements[i].bound, Bound::PrevTask | Bound::Admission(_))));
    }

    #[test]
    fn pipelined_critical_path_runs_through_the_bottleneck() {
        let r = simulate_pipelined(&stages(), 8);
        let path: Vec<_> = r.critical_path().iter().map(|&i| r.placements[i]).collect();
        assert_eq!(path[0].start_us, 0.0, "path starts at t=0");
        assert_eq!(path.last().unwrap().end_us, r.makespan_us);
        // anti-spoof (6000 us on CPU+APU) dominates; the steady-state path
        // runs through it every frame.
        let spoof = path.iter().filter(|p| p.label == "anti-spoof").count();
        assert!(spoof >= 7, "bottleneck stage on path {spoof}/8 frames");
    }

    #[test]
    fn period_amortizes_with_frames() {
        let s = stages();
        let short = simulate_pipelined(&s, 2);
        let long = simulate_pipelined(&s, 32);
        assert!(long.period_us() < short.period_us());
    }
}
