//! # tvmnp-scheduler
//!
//! The scheduling layer of paper §5: once the application's three models
//! are compiled, *where* and *when* they run decides end-to-end
//! performance.
//!
//! * [`computation`] — §5.1 model-level computation scheduling: measure
//!   each model under every target permutation and assign it to its
//!   fastest one (the paper's "simple method ... on the model-level");
//! * [`pipeline`] — §5.2 pipeline scheduling: the sequential baseline and
//!   the pipelined schedule as two admission windows (one frame, every
//!   frame) of the `tvmnp-hwsim` schedule engine, which honors the
//!   intra-frame dependency chain (object detection → anti-spoofing →
//!   emotion) and the exclusive-resource constraint ("models could not
//!   utilize the same resources at the same time"); plus the automatic
//!   assignment search the paper lists as future work;
//! * [`threaded`] — the one threaded runtime: the per-device locks and
//!   `run_window`, the admission window every threaded frame loop
//!   (pipelined video, the serving pool) is a call to.

pub mod computation;
pub mod pipeline;
pub mod threaded;

pub use computation::{best_assignment, ModelProfile};
pub use pipeline::{auto_schedule, simulate_pipelined, simulate_sequential};
pub use threaded::{run_window, ResourceLocks};
