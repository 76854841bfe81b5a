//! The four workloads. Each is a fixed list of op kinds over seeded
//! inputs, so op counts never depend on the seed.

pub mod compile_zoo;
pub mod deploy_cache;
pub mod infer_zoo;
pub mod serve_showcase;

use crate::harness::Kind;
use std::path::PathBuf;

/// Workload names, as `--workload` takes them and `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["compile_zoo", "infer_zoo", "serve_showcase", "deploy_cache"];

/// What a run gives its workload.
pub struct Input {
    /// Drives weights, model inputs and the synthetic video.
    pub seed: u64,
    /// A directory of this run's own, emptied before the run.
    pub work: PathBuf,
    /// Distinguishes the set-up repetitions' directories.
    pub setup_index: usize,
}

/// A workload: its set-up (timed, repeated into fresh state) and its kinds.
pub trait Workload {
    type State;

    /// Build model descriptions, import, compile, stand up pools, seed
    /// disk caches — what a process does before it can serve its first
    /// op. Never the benchmark's own reference computations.
    fn setup(input: &Input) -> Self::State;

    /// Wrap the state into op kinds and compute the references their
    /// checks compare against (untimed). `Err` when the state itself
    /// contradicts `expected.rs`.
    fn kinds(state: Self::State, input: &Input) -> Result<Vec<Kind>, String>;
}
