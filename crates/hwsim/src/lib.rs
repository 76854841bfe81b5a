//! # tvmnp-hwsim
//!
//! Analytic performance simulator for a MediaTek Dimensity-800-class
//! mobile SoC (the paper's testbed, Table 2: OPPO Reno4 Z 5G — 4×A76 +
//! 4×A55 CPU, Mali-G57 MC4 GPU, MediaTek APU 3.0).
//!
//! ## Why a simulator
//!
//! The paper measures wall-clock inference time on proprietary silicon we
//! cannot run. What its figures actually demonstrate is *relative* cost:
//! which target permutation wins per model, by roughly what factor, and
//! where coverage gaps leave bars missing. Those relations are functions
//! of (a) per-device arithmetic/memory throughput, (b) per-kernel and
//! per-subgraph dispatch overheads, and (c) inter-device transfer costs —
//! all of which an analytic model captures deterministically.
//!
//! The *numeric results* of every graph are still computed for real on the
//! host (see `tvmnp-tensor`); this crate only charges simulated time.
//!
//! Modules:
//! * [`device`] — device kinds, throughput/overhead specs, kernel classes;
//! * [`soc`] — the Dimensity 800 SoC descriptor (Table 2) and transfer model;
//! * [`cost`] — work items and the time model;
//! * [`ledger`] — the per-model list of charged items every estimate,
//!   run and profile view is read from;
//! * [`timeline`] — simulated time: the one schedule engine (jobs of
//!   device-exclusive tasks behind an admission window, paper §5.2) and
//!   the makespan / Gantt / wait-split / critical-path queries over it;
//! * [`fault`] — deterministic fault injection (seeded [`FaultPlan`]s,
//!   retry/backoff policy, per-device circuit breaker) so the resilience
//!   layers above can be exercised reproducibly.

pub mod cost;
pub mod device;
pub mod fault;
pub mod ledger;
pub mod soc;
pub mod timeline;

pub use cost::{CostModel, WorkItem, WorkKey, WorkKind};
pub use device::{DeviceKind, DeviceSpec, KernelClass};
pub use fault::{
    CircuitBreaker, Fault, FaultInjector, FaultKind, FaultPlan, FaultRule, FaultSite,
    FaultSpecError, RetryPolicy,
};
pub use ledger::{CostEntry, CostRole};
pub use soc::{SocSpec, TransferModel};
pub use timeline::{schedule, Bound, JobTimeline, Placement, Schedule, Task};
