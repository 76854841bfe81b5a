//! The differential runner: one spec, seven permutations, one golden
//! model.
//!
//! The Relay interpreter is the semantic ground truth (the analogue of
//! checking BYOC output against the origin framework). Every compiled
//! permutation must reproduce its output bit-for-bit; `NP-only` builds may
//! skip with `BuildError::Unsupported` — but only when the module really
//! contains an op outside the NeuroPilot support matrix, otherwise the
//! skip itself is a conformance failure.

use crate::generator::{build_case, GraphSpec};
use crate::invariants::{check_ledger, run_invariants, CheckOptions};
use std::fmt;
use tvmnp_byoc::build::{relay_build, BuildError};
use tvmnp_byoc::permutations::Permutation;
use tvmnp_hwsim::CostModel;
use tvmnp_neuropilot::support::first_unsupported;
use tvmnp_relay::expr::Module;
use tvmnp_relay::interp::run_module;

/// Why a case failed. The discriminating [`CaseFailure::kind`] string is
/// what the shrinker preserves while minimizing.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseFailure {
    /// The spec could not be realized as a module (generator bug).
    Spec(String),
    /// The golden interpreter itself failed.
    Reference(String),
    /// A permutation failed to compile for a non-`Unsupported` reason.
    Build {
        /// Figure-axis label of the permutation.
        permutation: String,
        /// The build error.
        error: String,
    },
    /// A permutation compiled but its output differs from the golden
    /// interpreter.
    Divergence {
        /// Figure-axis label of the permutation.
        permutation: String,
        /// What differed.
        detail: String,
    },
    /// An invariant checker fired (quant params, partition shape, memory
    /// plan, fingerprint stability, or an unjustified NP-only skip).
    Invariant {
        /// Checker name.
        name: String,
        /// What it saw.
        detail: String,
    },
}

impl CaseFailure {
    /// Stable failure class, e.g. `divergence:BYOC APU` or
    /// `invariant:quant-params`. Shrink candidates are accepted only when
    /// they fail with the same kind.
    pub fn kind(&self) -> String {
        match self {
            CaseFailure::Spec(_) => "spec".to_string(),
            CaseFailure::Reference(_) => "reference".to_string(),
            CaseFailure::Build { permutation, .. } => format!("build:{permutation}"),
            CaseFailure::Divergence { permutation, .. } => format!("divergence:{permutation}"),
            CaseFailure::Invariant { name, .. } => format!("invariant:{name}"),
        }
    }
}

impl fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseFailure::Spec(m) => write!(f, "spec error: {m}"),
            CaseFailure::Reference(m) => write!(f, "reference interpreter error: {m}"),
            CaseFailure::Build { permutation, error } => {
                write!(f, "build failed on {permutation}: {error}")
            }
            CaseFailure::Divergence {
                permutation,
                detail,
            } => write!(f, "{permutation} diverged from interpreter: {detail}"),
            CaseFailure::Invariant { name, detail } => {
                write!(f, "invariant '{name}' violated: {detail}")
            }
        }
    }
}

/// Per-case statistics for the suite report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseOutcome {
    /// Permutations that compiled, ran, and bit-matched the interpreter.
    pub permutations_compared: usize,
    /// NP-only permutations skipped on a justified `Unsupported` error.
    pub permutations_skipped: usize,
    /// External subgraphs in the BYOC partition of this module.
    pub subgraphs: usize,
}

/// Whether `main` contains a primitive call outside the NeuroPilot
/// support matrix (the justification for an NP-only `Unsupported` skip).
pub(crate) fn has_unsupported_op(module: &Module) -> bool {
    first_unsupported(module.main()).is_some()
}

/// Check one spec: golden-run it, execute all seven permutations against
/// the interpreter, then run every invariant checker.
pub fn check_case(spec: &GraphSpec, opts: &CheckOptions) -> Result<CaseOutcome, CaseFailure> {
    let built = build_case(spec).map_err(|e| CaseFailure::Spec(e.to_string()))?;
    let reference = run_module(&built.module, &built.inputs)
        .map_err(|e| CaseFailure::Reference(e.to_string()))?;

    let mut outcome = CaseOutcome::default();
    let module_is_np_clean = !has_unsupported_op(&built.module);
    for p in Permutation::ALL {
        let mode = p.mode();
        let mut compiled = match relay_build(&built.module, mode, CostModel::default()) {
            Ok(c) => c,
            Err(BuildError::Unsupported(op)) => {
                if module_is_np_clean {
                    return Err(CaseFailure::Invariant {
                        name: "np-skip".to_string(),
                        detail: format!(
                            "{p} skipped on '{op}' but the module contains no unsupported op"
                        ),
                    });
                }
                outcome.permutations_skipped += 1;
                continue;
            }
            Err(e) => {
                return Err(CaseFailure::Build {
                    permutation: p.label().to_string(),
                    error: e.to_string(),
                })
            }
        };
        let (outs, run_us) = compiled
            .run(&built.inputs)
            .map_err(|e| CaseFailure::Build {
                permutation: p.label().to_string(),
                error: format!("run failed: {e}"),
            })?;
        if outs.len() != 1 {
            return Err(CaseFailure::Divergence {
                permutation: p.label().to_string(),
                detail: format!("expected 1 output, got {}", outs.len()),
            });
        }
        if !outs[0].bit_eq(&reference) {
            return Err(CaseFailure::Divergence {
                permutation: p.label().to_string(),
                detail: format!(
                    "output shape {:?} dtype {:?} not bit-identical to interpreter",
                    outs[0].shape(),
                    outs[0].dtype()
                ),
            });
        }
        check_ledger(&compiled, run_us)?;
        outcome.permutations_compared += 1;
    }

    let stats = run_invariants(spec, &built, &reference, opts)?;
    outcome.subgraphs = stats.subgraphs;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::random_spec;

    #[test]
    fn a_float_and_a_quant_case_pass_end_to_end() {
        for (seed, quant) in [(3u64, false), (5u64, true)] {
            let spec = random_spec(seed, quant);
            let out = check_case(&spec, &CheckOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed} quant {quant}: {e}"));
            assert_eq!(out.permutations_compared + out.permutations_skipped, 7);
        }
    }

    #[test]
    fn unsupported_float_case_skips_np_only_modes() {
        // Find a float spec whose *live* graph contains an NP-unsupported
        // op (a drawn batch_norm/exp may be dead if no later op uses it).
        let spec = (0..64u64)
            .map(|s| random_spec(s, false))
            .find(|s| {
                crate::generator::build_case(s)
                    .map(|b| has_unsupported_op(&b.module))
                    .unwrap_or(false)
            })
            .expect("some float spec keeps batch_norm/exp live");
        let out = check_case(&spec, &CheckOptions::default()).unwrap();
        assert_eq!(out.permutations_skipped, 3, "all NP-only modes skip");
        assert_eq!(out.permutations_compared, 4);
    }
}
