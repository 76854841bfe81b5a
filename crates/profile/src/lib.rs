//! `tvmnp-profile` — measured profiles and differential regression
//! attribution.
//!
//! A bench gate that only compares workload totals cannot say which ops
//! moved; this crate records the *measured* costs behind a run and
//! attributes a difference between two runs to the cells that caused it.
//! `tvmnp bench --profile-store` is the one producer of a profile. Two
//! pieces:
//!
//! * **[`store`]** — [`Profile`]: the cost ledger of each model a run
//!   executed ([`Profile::record_ledger`]) binned into per-(work kind,
//!   device, kernel class) cells, each holding its sample count and exact
//!   µs / µJ totals — the sums of the `f64`s the ledger holds. A profile
//!   is keyed by its workload alone and saved as
//!   `profile-<workload>.json` ([`profile_path`]); files are
//!   byte-deterministic under a fixed seed.
//! * **[`diff`]** — [`ProfileDiff`]: compares two profiles and
//!   attributes latency/energy movement to specific cells with
//!   significance filtering, rendered as a ranked attribution table.
//!   The bench regression gate prints it so a failure names the
//!   responsible ops ("mac on apu regressed 2.0×"), not just a median.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod diff;
pub mod store;

pub use diff::{diff_profiles, CellDelta, ProfileDiff};
pub use store::{profile_path, Profile, ProfileCell};
