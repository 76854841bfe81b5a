//! `tvmnp-profile` — measured-profile store, differential regression
//! attribution, and telemetry-calibrated cost models.
//!
//! The benches gate on opaque workload medians and the scheduler trusts
//! the analytic `tvmnp-hwsim::CostModel` alone; this crate closes the
//! loop from *measured* costs back to both (ROADMAP item 2's feedback
//! signal). Three pieces:
//!
//! * **[`store`]** — [`Profile`]/[`ProfileStore`]: an on-disk measured-
//!   cost database, content-addressed by (workload fingerprint ×
//!   permutation × quant config × SoC). The cost ledger of each model a
//!   run executed ([`Profile::record_ledger`]) is binned into
//!   per-(work kind, device, kernel class) cells, each holding a
//!   mergeable [`tvmnp_telemetry::QuantileSketch`] of kernel latencies
//!   plus exact µs / analytic-µs / µJ totals — the `f64`s the ledger
//!   holds. Files are byte-deterministic under a fixed seed.
//! * **[`diff`]** — [`ProfileDiff`]: compares two profiles and
//!   attributes latency/energy movement to specific cells with
//!   significance filtering, rendered as a ranked attribution table.
//!   The bench regression gate prints it so a failure names the
//!   responsible ops ("mac on apu regressed 2.0×"), not just a median.
//! * **[`calibrate`]** — [`CalibratedCostModel`]: fits per-(device,
//!   kind) scale factors from a measured profile back onto the analytic
//!   cost model, reports measured-vs-analytic residuals, and flags
//!   drifted cells. `to_cost_model()` returns a `CostModel` whose
//!   predictions track the measurements.

pub mod calibrate;
pub mod diff;
pub mod store;

pub use calibrate::{CalibratedCostModel, CellResidual, DRIFT_THRESHOLD};
pub use diff::{diff_profiles, CellDelta, DiffOptions, ProfileDiff};
pub use store::{
    parse_cell_key, validate_profile, Profile, ProfileCell, ProfileKey, ProfileStore,
    PROFILE_SCHEMA_VERSION,
};
