//! Property-based differential conformance harness across the seven
//! target permutations.
//!
//! The paper's central claim is that a Relay module partitioned through
//! BYOC and lowered to Neuron IR stays numerically faithful on every
//! target permutation (§3.2–§3.4). This crate turns that claim into a
//! generative test: a seeded random graph generator ([`generator`]), a
//! differential runner that bit-compares every permutation against the
//! Relay interpreter ([`differential`]), invariant checkers for quant
//! parameters, partition shape, memory planning, and fingerprint
//! stability ([`invariants`]), a greedy shrinker ([`shrink`]), and
//! self-contained `.repro` captures replayable via the `conformance`
//! bench binary ([`repro`]).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub(crate) mod differential;
pub(crate) mod generator;
pub(crate) mod invariants;
pub mod repro;
pub mod shrink;
pub(crate) mod suite;

pub use differential::{check_case, CaseFailure, CaseOutcome};
pub use generator::{build_case, random_spec, BuiltCase, GraphSpec, SpecOp};
pub use invariants::CheckOptions;
pub use repro::{read_repro, write_repro, Repro};
pub use shrink::{shrink, ShrinkResult};
pub use suite::{case_spec, run_suite, FailureRecord, SuiteConfig, SuiteReport};
