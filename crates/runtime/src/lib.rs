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
//!   output types, plus fusion groups for dispatch accounting — and, as
//!   a `Program`, what the storage planner ([`plan_memory`], TVM's
//!   `GraphPlanMemory`, shared with the Neuron runtime) assigns slots for;
//! * [`executor`] — the `GraphModule` equivalent: `set_input` / `run` /
//!   `get_output`, executing host ops with TVM-untuned kernels on the
//!   simulated mobile CPU and delegating external calls to linked
//!   [`module::ExternalModule`]s (the BYOC runtime linkage);
//! * [`artifact`] — `export_library` / load: a serialized artifact that a
//!   compiler-less [`artifact::AndroidDevice`] can load and run, which is
//!   how the paper deploys to the phone.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod artifact;
pub mod executor;
pub mod graph;
pub mod module;

pub use artifact::{AndroidDevice, Artifact, ArtifactError, LoaderRegistry};
pub use executor::{ExecContext, ExecError, ExecErrorKind, GraphExecutor, RunOptions};
pub use graph::{ExecutorGraph, GraphNode, NodeKind, NodeRef};
pub use module::{ExternalModule, ModuleRegistry};
pub use tvmnp_relay::memory::{plan_memory, MemoryPlan};
