//! Deterministic simulated-time model of the serving pool.
//!
//! The host has no guaranteed parallelism (and the workload's time axis
//! is simulated anyway), so throughput is measured on the simulated
//! clock: each model invocation of each frame holds its target-mode
//! device set exclusively for its measured duration, devices serve
//! frames FIFO in admission order, and at most `concurrency` frames are
//! in flight. The inputs are the per-frame stage timings of a real
//! (sequential) run, so the simulation replays exactly the work the pool
//! executes — it only re-times it.

use tvmnp_hwsim::{schedule, Schedule, Task};
use tvmnp_vision::{FrameResult, ShowcaseAssignment};

/// The tasks one served frame runs, in stage order, from the frame's
/// measured result under `assignment`: each holds its target mode's
/// devices for the stage's measured time (all invocations of the stage on
/// this frame, e.g. anti-spoofing over every candidate face). Stages that
/// did not run on this frame (no candidate faces, no real faces, dropped)
/// contribute nothing.
pub fn frame_segments(assignment: ShowcaseAssignment, result: &FrameResult) -> Vec<Task> {
    assignment
        .tasks(&result.times)
        .into_iter()
        .filter(|t| t.us > 0.0)
        .collect()
}

/// Outcome of one pool simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSim {
    /// Frames served.
    pub frames: usize,
    /// Admission window (frames in flight).
    pub concurrency: usize,
    /// Simulated time of the sequential baseline (the sum of every
    /// segment — exactly what [`SessionPool::serve`] at concurrency 1
    /// spends on model runs).
    ///
    /// [`SessionPool::serve`]: crate::pool::SessionPool::serve
    pub sequential_us: f64,
    /// Simulated makespan of the concurrent schedule.
    pub concurrent_us: f64,
}

impl ServeSim {
    /// Throughput gain of the concurrent schedule over sequential.
    pub fn speedup(&self) -> f64 {
        self.sequential_us / self.concurrent_us
    }

    /// Concurrent throughput in frames per second of simulated time.
    pub fn fps_concurrent(&self) -> f64 {
        self.frames as f64 / (self.concurrent_us / 1e6)
    }
}

/// Simulate serving `per_frame` task lists with at most `concurrency`
/// frames in flight: the [`tvmnp_hwsim::schedule`] engine with the
/// concurrency as its admission window.
pub fn simulate_serve(per_frame: &[Vec<Task>], concurrency: usize) -> ServeSim {
    simulate_serve_timeline(per_frame, concurrency).0
}

/// Like [`simulate_serve`], additionally returning the [`Schedule`] —
/// its per-frame [`tvmnp_hwsim::JobTimeline`]s are the queue-wait vs
/// compute decomposition the observability plane feeds into its live
/// stats and span trees.
pub fn simulate_serve_timeline(
    per_frame: &[Vec<Task>],
    concurrency: usize,
) -> (ServeSim, Schedule) {
    let timeline = schedule(per_frame, concurrency);
    let sim = ServeSim {
        frames: per_frame.len(),
        concurrency: timeline.window,
        sequential_us: timeline.compute_us(),
        concurrent_us: timeline.makespan_us.max(f64::MIN_POSITIVE),
    };
    (sim, timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{serving_rotation, SessionPool};
    use std::sync::Arc;
    use tvmnp_byoc::ArtifactCache;
    use tvmnp_hwsim::{CostModel, DeviceKind};
    use tvmnp_vision::SyntheticVideo;

    fn seg(devices: &'static [DeviceKind], us: f64) -> Task {
        Task::new("obj-det", devices, us)
    }

    #[test]
    fn concurrency_one_equals_sequential() {
        let frames = vec![
            vec![seg(&[DeviceKind::Cpu], 10.0), seg(&[DeviceKind::Apu], 5.0)],
            vec![seg(&[DeviceKind::Cpu], 7.0)],
        ];
        let sim = simulate_serve(&frames, 1);
        assert_eq!(sim.sequential_us, 22.0);
        assert_eq!(sim.concurrent_us, 22.0);
        assert_eq!(sim.speedup(), 1.0);
    }

    #[test]
    fn disjoint_devices_overlap_fully() {
        // Two frames on different devices: the second does not wait.
        let frames = vec![
            vec![seg(&[DeviceKind::Cpu], 10.0)],
            vec![seg(&[DeviceKind::Gpu], 10.0)],
        ];
        let sim = simulate_serve(&frames, 2);
        assert_eq!(sim.sequential_us, 20.0);
        assert_eq!(sim.concurrent_us, 10.0);
    }

    #[test]
    fn shared_device_serializes() {
        let frames = vec![
            vec![seg(&[DeviceKind::Cpu], 10.0)],
            vec![seg(&[DeviceKind::Cpu], 10.0)],
        ];
        let sim = simulate_serve(&frames, 2);
        assert_eq!(sim.concurrent_us, 20.0);
    }

    #[test]
    fn admission_window_bounds_in_flight_frames() {
        // Three frames on three different devices, window of 2: the
        // third frame waits for the first to finish even though its
        // device is idle.
        let frames = vec![
            vec![seg(&[DeviceKind::Cpu], 10.0)],
            vec![seg(&[DeviceKind::Gpu], 10.0)],
            vec![seg(&[DeviceKind::Apu], 10.0)],
        ];
        let window2 = simulate_serve(&frames, 2);
        assert_eq!(window2.concurrent_us, 20.0);
        let window3 = simulate_serve(&frames, 3);
        assert_eq!(window3.concurrent_us, 10.0);
    }

    #[test]
    fn timeline_decomposes_wait_and_compute() {
        let frames = vec![
            vec![seg(&[DeviceKind::Cpu], 10.0)],
            vec![seg(&[DeviceKind::Cpu], 5.0)],
        ];
        // Window 1: the second frame waits at admission.
        let (sim1, tl1) = simulate_serve_timeline(&frames, 1);
        assert_eq!(sim1, simulate_serve(&frames, 1));
        assert_eq!(tl1.job(1).admit_us, 10.0);
        assert_eq!(tl1.job(1).device_wait_us(), 0.0);
        assert_eq!(tl1.job(1).end_us, 15.0);
        // Window 2: admitted at once, but the shared CPU makes it wait.
        let (_, tl2) = simulate_serve_timeline(&frames, 2);
        assert_eq!(tl2.job(1).admit_us, 0.0);
        assert_eq!(tl2.job(1).device_wait_us(), 10.0);
        assert_eq!(tl2.job(1).segments[0].start_us, 10.0);
        // Every frame reconciles: latency = queue wait + compute.
        for tl in tl1.jobs().chain(tl2.jobs()) {
            let queue_wait_us = tl.admit_us + tl.device_wait_us();
            assert!((tl.end_us - queue_wait_us - tl.compute_us()).abs() < 1e-9);
        }
    }

    #[test]
    fn serving_rotation_clears_2x_at_concurrency_4() {
        let pool = SessionPool::new(
            1000,
            &serving_rotation(),
            &CostModel::default(),
            Arc::new(ArtifactCache::new(usize::MAX)),
        );
        let frames = SyntheticVideo::new(42, 64, 64).frames(64);
        let results = pool.serve(&frames, 1);
        let per_frame: Vec<Vec<Task>> = results
            .iter()
            .map(|r| frame_segments(pool.assignment_for(r.frame_index), r))
            .collect();
        let sim = simulate_serve(&per_frame, 4);
        assert!(
            sim.speedup() >= 2.0,
            "throughput gate: {:.3}x at concurrency 4 (sequential {:.1} us, concurrent {:.1} us)",
            sim.speedup(),
            sim.sequential_us,
            sim.concurrent_us
        );
        // The admission window is a real constraint: serving strictly
        // sequentially through the same simulator gains nothing.
        assert!((simulate_serve(&per_frame, 1).speedup() - 1.0).abs() < 1e-12);
    }
}
