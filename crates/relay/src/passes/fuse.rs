//! Operator-fusion analysis.
//!
//! TVM's `FuseOps` groups an *anchor* (complex-out-fusable) operator with
//! the injective/element-wise operators that follow it, then emits each
//! group as one primitive function so the runtime dispatches it as a single
//! kernel. In this reproduction the grouping is computed as an analysis and
//! consumed by the graph executor / cost model: every group costs one
//! kernel dispatch instead of one per node. That is exactly the observable
//! the paper leans on when it attributes the anti-spoofing model's slow
//! BYOC times to "the large number of subgraphs".

use crate::expr::{Expr, ExprKind};
use crate::op::OpKind;
use crate::visit::{consumers, topo_order};
use std::collections::HashMap;

/// One fused execution group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    /// Node id of the group's anchor (first/dominant op).
    pub anchor: usize,
    /// All member node ids, in topological order (anchor first).
    pub members: Vec<usize>,
}

/// Whether an op may *absorb* following ops (conv/dense-style anchors).
fn is_anchor(op: &OpKind) -> bool {
    op.is_compute_heavy()
}

/// Whether an op may be fused *into* a preceding anchor's group.
fn is_fusable_follower(op: &OpKind) -> bool {
    matches!(
        op,
        OpKind::BiasAdd
            | OpKind::BatchNorm(_)
            | OpKind::Relu
            | OpKind::LeakyRelu(_)
            | OpKind::Clip(_)
            | OpKind::Sigmoid
            | OpKind::Tanh
            | OpKind::Add
            | OpKind::Multiply
            | OpKind::QnnRequantize(_)
    )
}

/// Compute fusion groups for the expression DAG rooted at `root`.
///
/// Rules (a simplification of TVM's dominator-tree fusion that preserves
/// its dispatch-count behaviour on the straight-line CNNs used here):
/// * a compute-heavy op opens a group;
/// * a fusable element-wise op joins its producer's group when it is that
///   producer's *only* consumer (no duplication of work across branches);
/// * every other call node forms its own singleton group.
pub fn fuse_analysis(root: &Expr) -> Vec<FusionGroup> {
    let _span = tvmnp_telemetry::span!("relay.pass", "pass" => "fuse_analysis");
    let order = topo_order(root);
    let cons = consumers(root);
    // Node id -> group index, for the members of groups a follower may
    // join. Whether a group's anchor is compute-heavy is decided here, once,
    // when the group opens: the other groups' members are never looked up.
    let mut absorbing: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<FusionGroup> = Vec::new();

    for e in &order {
        let ExprKind::Call(c) = &e.kind else { continue };
        // Calls to globals (already-partitioned externals) dispatch once.
        let op = match &c.target {
            crate::expr::CallTarget::Op(op) => Some(op),
            crate::expr::CallTarget::Global(_) => None,
        };

        // Try to join the group of a producer this is the only consumer of.
        let joined = if op.is_some_and(is_fusable_follower) {
            (c.args.iter())
                .filter(|a| cons.get(&a.id).is_some_and(|v| v.len() == 1))
                .find_map(|a| absorbing.get(&a.id).copied())
        } else {
            None
        };
        match joined {
            Some(gi) => {
                groups[gi].members.push(e.id);
                absorbing.insert(e.id, gi);
            }
            None => {
                if op.is_some_and(is_anchor) {
                    absorbing.insert(e.id, groups.len());
                }
                groups.push(FusionGroup {
                    anchor: e.id,
                    members: vec![e.id],
                });
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Conv2dAttrs;
    use crate::builder::{bias_add, conv2d, relu, sigmoid};
    use crate::expr::{call, var};
    use crate::ty::TensorType;
    use tvmnp_tensor::rng::TensorRng;

    #[test]
    fn conv_bias_relu_fuses_to_one_group() {
        let mut rng = TensorRng::new(1);
        let x = var("x", TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([8, 3, 3, 3], -1.0, 1.0);
        let b = rng.uniform_f32([8], -1.0, 1.0);
        let y = relu(bias_add(conv2d(x, w, Conv2dAttrs::same(1)), b));
        let groups = fuse_analysis(&y);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members.len(), 3);
    }

    #[test]
    fn branch_blocks_fusion() {
        let mut rng = TensorRng::new(2);
        let x = var("x", TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([8, 3, 3, 3], -1.0, 1.0);
        let c = conv2d(x, w, Conv2dAttrs::same(1));
        // Two consumers of the conv: the relu cannot be folded in.
        let r1 = relu(c.clone());
        let r2 = sigmoid(c.clone());
        let y = call(OpKind::Add, vec![r1, r2]);
        let groups = fuse_analysis(&y);
        // conv alone, relu alone, sigmoid alone, add alone.
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn elementwise_without_anchor_is_singleton() {
        let x = var("x", TensorType::f32([4]));
        let y = relu(sigmoid(x));
        let groups = fuse_analysis(&y);
        assert_eq!(groups.len(), 2);
    }
}
