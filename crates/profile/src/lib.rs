//! `tvmnp-profile` — measured-profile store and differential regression
//! attribution.
//!
//! A bench gate that only compares workload totals cannot say which ops
//! moved; this crate records the *measured* costs behind a run and
//! attributes a difference between two runs to the cells that caused it.
//! Two pieces:
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
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod diff;
pub mod store;

pub use diff::{diff_profiles, CellDelta, DiffOptions, ProfileDiff};
pub use store::{
    parse_cell_key, validate_profile, Profile, ProfileCell, ProfileKey, ProfileStore,
    PROFILE_SCHEMA_VERSION,
};
