//! # tvmnp-runtime
//!
//! The TVM-side runtime of the reproduction: graph executor, storage
//! planning, module system and deployable artifacts.
//!
//! TVM's stack splits into *compiler* and *runtime* (paper §4.5): models
//! are compiled on the server with `relay.build`, exported with
//! `lib.export_library(...)`, and executed on the phone by the runtime
//! alone. This crate is that runtime:
//!
//! * [`graph`] — lowering a (possibly partitioned) Relay module into a
//!   flat executor graph: input/param/op/external-call nodes with checked
//!   output types, plus fusion groups for dispatch accounting;
//! * [`executor`] — the `GraphModule` equivalent: `set_input` / `run` /
//!   `get_output`, executing host ops with TVM-untuned kernels on the
//!   simulated mobile CPU and delegating external calls to linked
//!   [`module::ExternalModule`]s (the BYOC runtime linkage);
//! * [`memory`] — the storage planner (TVM's `GraphPlanMemory`): greedy
//!   buffer reuse with liveness, reported as slot assignments + peak bytes;
//! * [`artifact`] — `export_library` / load: a serialized artifact that a
//!   compiler-less [`artifact::AndroidDevice`] can load and run, which is
//!   how the paper deploys to the phone.

pub mod artifact;
pub mod executor;
pub mod graph;
pub mod memory;
pub mod module;
pub mod work;

pub use artifact::{AndroidDevice, Artifact, ArtifactError, LoaderRegistry};
pub use executor::{ExecContext, ExecError, ExecErrorKind, GraphExecutor, RunOptions};
pub use graph::{ExecutorGraph, GraphNode, NodeKind, NodeRef};
pub use memory::{plan_memory, MemoryPlan};
pub use module::{ExternalModule, ModuleRegistry};
