//! # tvmnp-report
//!
//! Run-report analysis layer on top of `tvmnp-telemetry` and the hwsim
//! schedule engine: turns raw spans, placements, and analytic cost
//! breakdowns into the structured summaries the paper's evaluation
//! sections reason about.
//!
//! * [`util`] — per-device utilization/occupancy (busy, idle, overlap) on
//!   the simulated timeline, from either a telemetry
//!   [`Snapshot`](tvmnp_telemetry::Snapshot) or an
//!   hwsim `Schedule`. Everything else Fig. 5 reads off a schedule — its
//!   makespan, period and critical path — is a query on the
//!   `Schedule` itself.
//! * [`bench`] — benchmark baselines: a stable, byte-deterministic JSON
//!   record of one value per metric of a workload run, and the exact
//!   bit-for-bit gate (`--bench-out` / `--check-against` of `tvmnp bench`).
//! * [`resilience`] — aggregation of the `resilience.*` telemetry from
//!   fault-injected runs: retries, fallbacks, breaker trips, dropped
//!   frames, and post-degradation latency.

pub mod bench;
pub mod resilience;
pub mod util;

pub use bench::{mismatches, BenchIoError, BenchRecord, Mismatch, SCHEMA_VERSION};
pub use resilience::{FallbackEdge, FallbackTransition, ResilienceReport};
pub use util::{
    utilization_from_schedule, utilization_from_snapshot, DeviceUtil, UtilizationReport,
};

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
