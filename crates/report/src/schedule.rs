//! Idle-gap and critical-path analysis for pipeline schedules (Fig. 5).
//!
//! The schedule engine records, for every placement, which constraint its
//! start time equals; this module reads off *why* the makespan is what it
//! is: which chain of runs is tight (the critical path) and where each
//! device sits idle (the gaps pipelining should be filling).

use crate::util::{utilization_from_schedule, UtilizationReport};
use tvmnp_hwsim::{Bound, DeviceKind, Schedule};

/// Idle gaps of one device within the schedule's makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceGaps {
    /// Device name.
    pub device: String,
    /// `(start, end)` idle intervals, in time order.
    pub gaps: Vec<(f64, f64)>,
    /// Summed gap time, microseconds.
    pub total_us: f64,
    /// Largest single gap, microseconds.
    pub largest_us: f64,
}

/// Why a critical-path step could not start earlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// First step: starts at t = 0.
    Start,
    /// Waited on the previous stage of the same frame (data dependency).
    Dependency,
    /// Waited on the previous frame: its own previous-frame run
    /// (single-instance stage) or the admission window.
    PrevFrame,
    /// Waited for a device held by an unrelated run (resource conflict).
    Resource,
}

impl WaitReason {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            WaitReason::Start => "start",
            WaitReason::Dependency => "dep",
            WaitReason::PrevFrame => "prev-frame",
            WaitReason::Resource => "resource",
        }
    }
}

/// One step on the critical path, in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Stage name.
    pub name: &'static str,
    /// Frame number.
    pub frame: usize,
    /// Start time, microseconds.
    pub start_us: f64,
    /// End time, microseconds.
    pub end_us: f64,
    /// What this step was waiting on.
    pub reason: WaitReason,
}

/// Full analysis of one schedule simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// Schedule makespan, microseconds.
    pub makespan_us: f64,
    /// Frames scheduled.
    pub frames: usize,
    /// Average per-frame period, microseconds.
    pub period_us: f64,
    /// Busy/idle/overlap accounting per device.
    pub utilization: UtilizationReport,
    /// Idle gaps per device actually used by the schedule.
    pub gaps: Vec<DeviceGaps>,
    /// Back-to-back chain of runs ending at the makespan.
    pub critical_path: Vec<PathStep>,
    /// Summed duration of the critical-path steps, microseconds. Equals
    /// the makespan when the path is gap-free (greedy schedules are).
    pub critical_path_us: f64,
}

impl ScheduleReport {
    /// Render as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "makespan {:.1} us over {} frames (period {:.1} us)\n\n",
            self.makespan_us, self.frames, self.period_us
        );
        out.push_str(&self.utilization.render_text());
        out.push_str("\nidle gaps:\n");
        for g in &self.gaps {
            out.push_str(&format!(
                "  {:<6} {} gaps, total {:.1} us, largest {:.1} us\n",
                g.device,
                g.gaps.len(),
                g.total_us,
                g.largest_us
            ));
        }
        out.push_str(&format!(
            "\ncritical path ({:.1} us / {:.1} us makespan):\n",
            self.critical_path_us, self.makespan_us
        ));
        for s in &self.critical_path {
            out.push_str(&format!(
                "  [{:>10.1} - {:>10.1}] {} f{} ({})\n",
                s.start_us,
                s.end_us,
                s.name,
                s.frame,
                s.reason.label()
            ));
        }
        out
    }
}

/// The critical path, in time order: the engine's recorded chain of
/// placements ending at the makespan, each with the reason it waited.
pub fn critical_path(schedule: &Schedule) -> Vec<PathStep> {
    let step = |i: usize| {
        let p = &schedule.placements[i];
        let reason = match p.bound {
            Bound::Origin => WaitReason::Start,
            Bound::PrevTask => WaitReason::Dependency,
            Bound::Admission(_) => WaitReason::PrevFrame,
            Bound::Device(holder) => {
                let q = &schedule.placements[holder];
                if (q.job + 1, q.task) == (p.job, p.task) {
                    WaitReason::PrevFrame
                } else {
                    WaitReason::Resource
                }
            }
        };
        PathStep {
            name: p.label,
            frame: p.job,
            start_us: p.start_us,
            end_us: p.end_us,
            reason,
        }
    };
    schedule.critical_path().into_iter().map(step).collect()
}

/// Analyze one schedule simulation end to end.
pub fn analyze_schedule(result: &Schedule) -> ScheduleReport {
    let utilization = utilization_from_schedule(result);
    // Devices the schedule never used have no utilization entry.
    let gaps = DeviceKind::ALL
        .iter()
        .filter_map(|d| utilization.device(d.name()))
        .map(|u| DeviceGaps {
            device: u.device.clone(),
            gaps: u.gaps.clone(),
            total_us: u.gaps.iter().map(|(s, e)| e - s).sum(),
            largest_us: u.gaps.iter().map(|(s, e)| e - s).fold(0.0, f64::max),
        })
        .collect();
    let critical_path = critical_path(result);
    let critical_path_us = critical_path.iter().map(|s| s.end_us - s.start_us).sum();
    ScheduleReport {
        makespan_us: result.makespan_us,
        frames: result.jobs().len(),
        period_us: result.period_us(),
        utilization,
        gaps,
        critical_path,
        critical_path_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_scheduler::pipeline::paper_prototype_stages;
    use tvmnp_scheduler::{simulate_pipelined, simulate_sequential};

    // Every test takes the crate's telemetry lock: the simulators record
    // `scheduler.stage` spans whenever another test has telemetry enabled.
    fn stages() -> Vec<tvmnp_hwsim::Task> {
        paper_prototype_stages(3000.0, 6000.0, 2000.0)
    }

    #[test]
    fn critical_path_spans_zero_to_makespan_and_is_contiguous() {
        let _l = crate::testutil::lock();
        for result in [
            simulate_sequential(&stages(), 4),
            simulate_pipelined(&stages(), 4),
        ] {
            let report = analyze_schedule(&result);
            let path = &report.critical_path;
            assert!(!path.is_empty());
            assert_eq!(path[0].start_us, 0.0, "path starts at t=0");
            assert_eq!(path[0].reason, WaitReason::Start);
            assert_eq!(
                path.last().unwrap().end_us,
                result.makespan_us,
                "path ends at the makespan"
            );
            for w in path.windows(2) {
                assert_eq!(w[0].end_us, w[1].start_us, "steps chain back-to-back");
                assert_ne!(w[1].reason, WaitReason::Start);
            }
            // A contiguous path's durations sum to the makespan.
            assert!((report.critical_path_us - result.makespan_us).abs() < 1e-6);
        }
    }

    #[test]
    fn sequential_path_is_pure_dependency_chain() {
        let _l = crate::testutil::lock();
        let result = simulate_sequential(&stages(), 3);
        let report = analyze_schedule(&result);
        // 3 stages x 3 frames, every step waiting on the previous.
        assert_eq!(report.critical_path.len(), 9);
        assert!(report
            .critical_path
            .iter()
            .skip(1)
            .all(|s| s.reason != WaitReason::Start));
    }

    #[test]
    fn pipelined_path_blames_the_bottleneck_stage() {
        let _l = crate::testutil::lock();
        let result = simulate_pipelined(&stages(), 8);
        let report = analyze_schedule(&result);
        // anti-spoof (6000 us on CPU+APU) dominates; the steady-state path
        // runs through it every frame.
        let spoof_steps = report
            .critical_path
            .iter()
            .filter(|s| s.name == "anti-spoof")
            .count();
        assert!(
            spoof_steps >= 7,
            "bottleneck stage on path {spoof_steps}/8 frames"
        );
    }

    #[test]
    fn gaps_cover_only_used_devices() {
        let _l = crate::testutil::lock();
        let result = simulate_pipelined(&stages(), 4);
        let report = analyze_schedule(&result);
        let devices: Vec<&str> = report.gaps.iter().map(|g| g.device.as_str()).collect();
        assert_eq!(devices, vec!["cpu", "apu"], "gpu is unused and excluded");
        for g in &report.gaps {
            let sum: f64 = g.gaps.iter().map(|(s, e)| e - s).sum();
            assert!((sum - g.total_us).abs() < 1e-9);
            assert!(g.largest_us <= g.total_us + 1e-9);
        }
    }

    #[test]
    fn pipelining_shrinks_makespan_and_gaps() {
        let _l = crate::testutil::lock();
        let seq = analyze_schedule(&simulate_sequential(&stages(), 8));
        let pipe = analyze_schedule(&simulate_pipelined(&stages(), 8));
        assert!(pipe.makespan_us < seq.makespan_us);
        let idle = |r: &ScheduleReport| -> f64 { r.gaps.iter().map(|g| g.total_us).sum() };
        assert!(idle(&pipe) < idle(&seq), "pipelining fills idle gaps");
        assert!(pipe.utilization.overlap_us > 0.0, "stages overlap");
        let text = pipe.render_text();
        assert!(text.contains("critical path"));
        assert!(text.contains("anti-spoof"));
    }
}
