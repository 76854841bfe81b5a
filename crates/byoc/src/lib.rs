//! # tvmnp-byoc
//!
//! The glue that realizes the paper's flow: TVM front/middle-end +
//! NeuroPilot back-end, joined through BYOC.
//!
//! * [`codegen`] — the external codegen + runtime wrapper: each
//!   `Compiler="neuropilot"` function is converted to Neuron IR, planned,
//!   and exposed to the graph executor as an `ExternalModule` (including
//!   artifact (de)serialization for runtime-only devices);
//! * [`build`] — `partition_for_nir` / `relay_build`: the user-facing
//!   compile pipeline of paper Listings 2/3/4/6, as `compile` (to
//!   cost-independent products) then `instantiate` (under a cost model);
//! * [`cache`] — the content-addressed cache between those two halves;
//! * [`permutations`] — the seven target permutations of §5/§6 (TVM-only,
//!   BYOC×{CPU, APU, CPU+APU}, NeuroPilot-only×{CPU, APU, CPU+APU}) with a
//!   single `measure` entry point that returns `None` exactly where the
//!   paper's figures have missing bars;
//! * [`nnapi`] — the team's *previous* NNAPI BYOC flow (paper Fig. 3 /
//!   ref \[11\]): a second external compiler over the same framework,
//!   demonstrating BYOC generality and why NeuroPilot-direct replaced it;
//! * [`resilient`] — retries, deadlines, circuit breakers, and graceful
//!   fallback down the permutation chain under (injected) device faults.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod build;
pub mod cache;
pub mod codegen;
pub mod nnapi;
pub mod permutations;
pub mod resilient;

pub use build::{
    partition_for_nir, relay_build, BuildError, CachedArtifact, CompiledModel, TargetMode,
};
pub use cache::{ArtifactCache, CacheStats};
pub use codegen::{NeuronBlob, NeuronModule};
pub use nnapi::{nnapi_supported, relay_build_nnapi, NnapiModule, NnapiSupport};
pub use permutations::{measure_all, measure_one, Measurement, Permutation};
pub use resilient::{
    FaultCause, ResilienceError, ResiliencePolicy, ResilienceStats, ResilientSession, RunOutcome,
};
