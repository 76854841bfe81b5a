//! Greedy spec shrinker: minimize a failing [`GraphSpec`] while keeping
//! the *same* failure kind.
//!
//! Candidates are tried in two families until a fixpoint:
//! 1. **op deletion** — drop op `i`, redirect its consumers to its primary
//!    operand, renumber later indices;
//! 2. **parameter simplification** — shrink conv channel counts/kernels,
//!    drop biases.
//!
//! A candidate is accepted only when [`check_case`] still fails with the
//! original [`CaseFailure::kind`]. Relay's type checker judges each
//! candidate as it builds (see `generator`): one it refuses surfaces as a
//! `spec` failure and is rejected, and one it types is kept even where the
//! generator would not have drawn it — a pool on an odd plane, an add that
//! broadcasts one channel. Because every candidate is strictly smaller
//! (fewer ops, or smaller parameters with equal op count), the loop
//! terminates.

use crate::differential::{check_case, CaseFailure};
use crate::generator::{GraphSpec, SpecOp};
use crate::invariants::CheckOptions;

/// Result of a shrink run.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimized spec.
    pub spec: GraphSpec,
    /// The (same-kind) failure of the minimized spec.
    pub failure: CaseFailure,
    /// Accepted shrink steps.
    pub steps: usize,
}

/// Delete op `i`: consumers of node `i + 1` fall back to the op's primary
/// operand, and every node index above `i + 1` shifts down by one.
pub(crate) fn delete_op(spec: &GraphSpec, i: usize) -> GraphSpec {
    let removed = spec.ops[i].clone();
    let fallback = removed.primary_operand();
    let deleted_node = i + 1;
    let mut out = spec.clone();
    out.ops.remove(i);
    for op in out.ops.iter_mut().skip(i) {
        op.map_operands(|n| {
            if n == deleted_node {
                fallback
            } else if n > deleted_node {
                n - 1
            } else {
                n
            }
        });
    }
    out
}

fn param_candidates(spec: &GraphSpec, i: usize) -> Vec<GraphSpec> {
    let mut out = Vec::new();
    if let SpecOp::Conv2d {
        out_channels,
        kernel,
        bias,
        ..
    } = spec.ops[i]
    {
        if out_channels > 1 {
            let mut s = spec.clone();
            if let SpecOp::Conv2d { out_channels, .. } = &mut s.ops[i] {
                *out_channels = 1;
            }
            out.push(s);
        }
        if kernel > 1 {
            let mut s = spec.clone();
            if let SpecOp::Conv2d { kernel, .. } = &mut s.ops[i] {
                *kernel = 1;
            }
            out.push(s);
        }
        if bias {
            let mut s = spec.clone();
            if let SpecOp::Conv2d { bias, .. } = &mut s.ops[i] {
                *bias = false;
            }
            out.push(s);
        }
    }
    out
}

/// Greedily minimize `spec`, preserving the failure kind of `failure`.
/// `spec` must actually fail under `opts` with that kind.
pub fn shrink(spec: &GraphSpec, failure: &CaseFailure, opts: &CheckOptions) -> ShrinkResult {
    let kind = failure.kind();
    let mut current = spec.clone();
    let mut current_failure = failure.clone();
    let mut steps = 0usize;
    loop {
        let mut improved = false;
        // Deletion, highest index first: late ops are the cheapest to
        // re-wire and deleting them never invalidates earlier shapes.
        let mut i = current.ops.len();
        while i > 0 {
            i -= 1;
            if current.ops.len() <= 1 {
                break;
            }
            let candidate = delete_op(&current, i);
            if let Err(f) = check_case(&candidate, opts) {
                if f.kind() == kind {
                    current = candidate;
                    current_failure = f;
                    steps += 1;
                    improved = true;
                    i = current.ops.len(); // restart the sweep on the smaller spec
                }
            }
        }
        // Parameter simplification.
        for i in 0..current.ops.len() {
            for candidate in param_candidates(&current, i) {
                if let Err(f) = check_case(&candidate, opts) {
                    if f.kind() == kind {
                        current = candidate;
                        current_failure = f;
                        steps += 1;
                        improved = true;
                        break;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    ShrinkResult {
        spec: current,
        failure: current_failure,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::random_spec;

    #[test]
    fn delete_op_renumbers_consumers() {
        let spec = GraphSpec {
            seed: 1,
            in_channels: 2,
            height: 4,
            width: 4,
            quantize: false,
            ops: vec![
                SpecOp::Relu { input: 0 },
                SpecOp::Sigmoid { input: 1 },
                SpecOp::Add { lhs: 2, rhs: 1 },
            ],
        };
        // Delete the sigmoid (node 2): Add's lhs falls back to node 1,
        // rhs stays node 1.
        let out = delete_op(&spec, 1);
        assert_eq!(
            out.ops,
            vec![SpecOp::Relu { input: 0 }, SpecOp::Add { lhs: 1, rhs: 1 },]
        );
    }

    /// Deleting the relu between a one-channel conv and an add leaves an
    /// add of `[1, h, w]` to `[3, h, w]`. Relay broadcasts it, so the
    /// candidate builds and conforms instead of failing as a spec.
    #[test]
    fn a_deletion_leaving_a_broadcasting_add_is_a_candidate() {
        let spec = GraphSpec {
            seed: 3,
            in_channels: 3,
            height: 4,
            width: 4,
            quantize: false,
            ops: vec![
                SpecOp::Conv2d {
                    input: 0,
                    out_channels: 1,
                    kernel: 1,
                    bias: false,
                },
                SpecOp::Relu { input: 1 },
                SpecOp::Add { lhs: 2, rhs: 0 },
            ],
        };
        let candidate = delete_op(&spec, 1);
        assert_eq!(candidate.ops[1], SpecOp::Add { lhs: 1, rhs: 0 });
        check_case(&candidate, &CheckOptions::default()).unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn shrink_preserves_failure_kind_and_reduces_size() {
        // Use the injected quant bug as a reproducible failure source.
        let opts = CheckOptions {
            inject_quant_bug: true,
        };
        let (spec, failure) = (0..128u64)
            .find_map(|s| {
                let spec = random_spec(s, true);
                check_case(&spec, &opts).err().map(|f| (spec, f))
            })
            .expect("some quantized spec trips the injected bug");
        let result = shrink(&spec, &failure, &opts);
        assert!(result.spec.ops.len() <= spec.ops.len());
        assert_eq!(result.failure.kind(), failure.kind());
        // The minimized case still fails the same way when re-checked.
        let recheck = check_case(&result.spec, &opts).unwrap_err();
        assert_eq!(recheck.kind(), failure.kind());
    }
}
