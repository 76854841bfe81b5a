//! # tvmnp-report
//!
//! Run-report analysis layer on top of `tvmnp-telemetry` and the hwsim
//! schedule engine: turns raw spans, placements, and analytic cost
//! breakdowns into the structured summaries the paper's evaluation
//! sections reason about.
//!
//! * [`util`] — per-device utilization/occupancy (busy, idle, overlap) on
//!   the simulated timeline, from either a telemetry [`Snapshot`] or an
//!   hwsim `Schedule`.
//! * [`schedule`] — idle-gap and critical-path analysis for pipeline
//!   schedules (Fig. 5): *which* chain of stage runs sets the makespan
//!   and where pipelining still leaves devices idle.
//! * [`coverage`] — partition coverage: ops offloaded to Neuron IR vs
//!   left on the TVM fallback, per op kind (Fig. 4's support story).
//! * [`attribution`] — top-K op cost attribution by `(op, device)`.
//! * [`dot`] — annotated Graphviz dump of the partitioned graph with
//!   per-node timing heat.
//! * [`bench`] — benchmark baselines: a stable, byte-deterministic JSON
//!   record of a workload's metrics plus threshold-gated regression
//!   comparison (`--bench-out` / `--check-against` in the bench binary).
//! * [`resilience`] — aggregation of the `resilience.*` telemetry from
//!   fault-injected runs: retries, fallbacks, breaker trips, dropped
//!   frames, and post-degradation latency.

pub mod attribution;
pub mod bench;
pub mod coverage;
pub mod dot;
pub mod resilience;
pub mod schedule;
pub mod util;

pub use attribution::{attribute_breakdown, attribute_spans, OpCost};
pub use bench::{compare, BenchIoError, BenchRecord, Comparison, MetricStats, SCHEMA_VERSION};
pub use coverage::{coverage, CoverageReport, OpCoverage};
pub use dot::dot_graph;
pub use resilience::{FallbackEdge, FallbackTransition, ResilienceReport};
pub use schedule::{analyze_schedule, critical_path, PathStep, ScheduleReport, WaitReason};
pub use util::{
    utilization_from_schedule, utilization_from_snapshot, DeviceUtil, UtilizationReport,
};

use tvmnp_telemetry::Snapshot;

/// One run's aggregated report: utilization plus cost attribution, with
/// optional partition coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload/model label.
    pub name: String,
    /// Per-device busy/idle accounting over the run.
    pub utilization: UtilizationReport,
    /// Top-K `(op, device)` cost groups, most expensive first.
    pub top_ops: Vec<OpCost>,
    /// Partition coverage, when the run went through the BYOC flow.
    pub coverage: Option<CoverageReport>,
}

impl RunReport {
    /// Build a report from a traced run's snapshot. `top_k = 0` keeps
    /// every cost group.
    pub fn from_snapshot(
        name: impl Into<String>,
        snap: &Snapshot,
        coverage: Option<CoverageReport>,
        top_k: usize,
    ) -> RunReport {
        RunReport {
            name: name.into(),
            utilization: utilization_from_snapshot(snap),
            top_ops: attribute_spans(snap, "executor.node", top_k),
            coverage,
        }
    }

    /// Render the whole report as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = format!("== run report: {} ==\n\n", self.name);
        out.push_str("-- device utilization (simulated) --\n");
        out.push_str(&self.utilization.render_text());
        out.push_str("\n-- top op costs --\n");
        out.push_str(&attribution::render_text(&self.top_ops));
        if let Some(cov) = &self.coverage {
            out.push_str("\n-- partition coverage --\n");
            out.push_str(&cov.render_text());
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use parking_lot::Mutex;

    /// The telemetry collector is process-global; tests that record
    /// spans serialize on this lock.
    pub fn lock() -> parking_lot::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_report_combines_utilization_and_attribution() {
        let _l = testutil::lock();
        tvmnp_telemetry::enable();
        tvmnp_telemetry::reset();
        for (op, device, ts, us) in [
            ("nn.conv2d", "apu", 0.0, 70.0),
            ("nn.softmax", "cpu", 70.0, 10.0),
        ] {
            tvmnp_telemetry::record_sim_span(
                "executor.node",
                ts,
                us,
                vec![("op", op.into()), ("device", device.into())],
            );
        }
        tvmnp_telemetry::disable();
        let report = RunReport::from_snapshot("toy", &tvmnp_telemetry::snapshot(), None, 5);
        assert!((report.utilization.span_us - 80.0).abs() < 1e-9);
        assert_eq!(report.top_ops[0].op, "nn.conv2d");
        let text = report.render_text();
        assert!(text.contains("run report: toy"));
        assert!(text.contains("nn.conv2d"));
        assert!(text.contains("device utilization"));
        assert!(!text.contains("partition coverage"), "no coverage given");
    }
}
