//! # tvmnp-serving
//!
//! The concurrent serving layer on top of the showcase pipeline:
//!
//! * [`pool`] — a multi-frame session pool: `N` frames in flight at
//!   once, each processed by a cached showcase session whose model runs
//!   hold their devices exclusively (the §5.2 constraint enforced
//!   *across* frames). Outputs are returned in input order and are
//!   bit-identical to sequential processing — concurrency only changes
//!   the schedule, never the numerics.
//! * [`simulate`] — the deterministic simulated-time model of that pool:
//!   each served frame's measured stages as a job of the `tvmnp-hwsim`
//!   schedule engine, admitted `concurrency` at a time; used by the
//!   `serve` bench workload to measure frames/sec without depending on
//!   host parallelism.
//!
//! Compiled artifacts come from one shared [`tvmnp_byoc::ArtifactCache`]:
//! sessions that agree on (model, permutation, quant config) share a
//! single compilation, so standing up a pool re-runs codegen only for
//! configurations never built before.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod observe;
pub mod pool;
pub mod simulate;

pub use observe::{trace_id_for, PIPELINE};
pub use pool::{serving_rotation, SessionPool};
pub use simulate::{frame_segments, simulate_serve, simulate_serve_timeline, ServeSim};
