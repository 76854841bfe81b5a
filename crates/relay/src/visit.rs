//! Post-order DAG traversal and rewriting — the `ExprVisitor` /
//! `ExprMutator` machinery of paper Listing 1.

use crate::expr::{mk, Call, Expr, ExprKind};
use std::collections::HashMap;

/// Visit every node of the DAG exactly once, children before parents
/// (post-order DFS, memoized on node identity).
pub fn post_order(root: &Expr, mut f: impl FnMut(&Expr)) {
    let mut visited: HashMap<usize, ()> = HashMap::new();
    // Explicit stack to survive deep graphs (NASNet et al.).
    enum Frame {
        Enter(Expr),
        Exit(Expr),
    }
    let mut stack = vec![Frame::Enter(root.clone())];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Enter(e) => {
                if visited.contains_key(&e.id) {
                    continue;
                }
                visited.insert(e.id, ());
                stack.push(Frame::Exit(e.clone()));
                for a in e.args() {
                    stack.push(Frame::Enter(a));
                }
            }
            Frame::Exit(e) => f(&e),
        }
    }
}

/// All nodes in topological (post-) order.
pub fn topo_order(root: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    post_order(root, |e| out.push(e.clone()));
    out
}

/// `e` with each child replaced by its rewrite in `memo` (keyed by the
/// child's id); `e` itself when no child changed.
pub(crate) fn rebuild(e: &Expr, memo: &HashMap<usize, Expr>) -> Expr {
    match &e.kind {
        ExprKind::Var(_) | ExprKind::Constant(_) => e.clone(),
        ExprKind::Call(c) => {
            let args: Vec<Expr> = c.args.iter().map(|a| memo[&a.id].clone()).collect();
            if args.iter().zip(&c.args).all(|(n, o)| n.id == o.id) {
                e.clone()
            } else {
                mk(ExprKind::Call(Call {
                    target: c.target.clone(),
                    args,
                }))
            }
        }
        ExprKind::Tuple(fs) => {
            let fields: Vec<Expr> = fs.iter().map(|a| memo[&a.id].clone()).collect();
            if fields.iter().zip(fs).all(|(n, o)| n.id == o.id) {
                e.clone()
            } else {
                mk(ExprKind::Tuple(fields))
            }
        }
        ExprKind::TupleGetItem(t, i) => {
            let nt = memo[&t.id].clone();
            if nt.id == t.id {
                e.clone()
            } else {
                mk(ExprKind::TupleGetItem(nt, *i))
            }
        }
    }
}

/// Boxed rewrite rule: maps a node to an optional replacement.
type RewriteFn<'a> = Box<dyn FnMut(&Expr) -> Option<Expr> + 'a>;

/// Rewrite the DAG bottom-up. `f` receives a node whose children are
/// already rewritten and may return a replacement; returning `None` keeps
/// the (child-rewritten) node. Sharing is preserved: a node reached twice
/// is rewritten once.
pub(crate) struct ExprMutator<'a> {
    memo: HashMap<usize, Expr>,
    rewrite: RewriteFn<'a>,
}

impl<'a> ExprMutator<'a> {
    /// New mutator with the given rewrite rule.
    pub fn new(rewrite: impl FnMut(&Expr) -> Option<Expr> + 'a) -> Self {
        ExprMutator {
            memo: HashMap::new(),
            rewrite: Box::new(rewrite),
        }
    }

    /// Rewrite the graph rooted at `root` (iterative, safe on deep graphs).
    pub(crate) fn mutate(&mut self, root: &Expr) -> Expr {
        for e in topo_order(root) {
            if self.memo.contains_key(&e.id) {
                continue;
            }
            let rebuilt = rebuild(&e, &self.memo);
            let result = (self.rewrite)(&rebuilt).unwrap_or(rebuilt);
            self.memo.insert(e.id, result);
        }
        self.memo[&root.id].clone()
    }
}

/// Map from node id to the ids of nodes that consume it (reverse edges).
pub(crate) fn consumers(root: &Expr) -> HashMap<usize, Vec<usize>> {
    let mut map: HashMap<usize, Vec<usize>> = HashMap::new();
    post_order(root, |e| {
        for a in e.args() {
            map.entry(a.id).or_default().push(e.id);
        }
    });
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{call, var};
    use crate::op::OpKind;
    use crate::ty::TensorType;
    use tvmnp_tensor::DType;

    fn tt() -> TensorType {
        TensorType::new([1, 4], DType::F32)
    }

    #[test]
    fn post_order_children_first() {
        let x = var("x", tt());
        let r = call(OpKind::Relu, vec![x.clone()]);
        let s = call(OpKind::Sigmoid, vec![r.clone()]);
        let order: Vec<usize> = topo_order(&s).iter().map(|e| e.id).collect();
        assert_eq!(order, vec![x.id, r.id, s.id]);
    }

    #[test]
    fn shared_node_visited_once() {
        let x = var("x", tt());
        let r = call(OpKind::Relu, vec![x.clone()]);
        let a = call(OpKind::Add, vec![r.clone(), r.clone()]);
        assert_eq!(topo_order(&a).len(), 3);
    }

    #[test]
    fn mutator_preserves_sharing() {
        let x = var("x", tt());
        let r = call(OpKind::Relu, vec![x.clone()]);
        let a = call(OpKind::Add, vec![r.clone(), r.clone()]);
        // Replace relu with tanh.
        let mut m = ExprMutator::new(|e| {
            if matches!(e.op(), Some(OpKind::Relu)) {
                Some(call(OpKind::Tanh, e.args()))
            } else {
                None
            }
        });
        let out = m.mutate(&a);
        let args = out.args();
        assert_eq!(args[0].id, args[1].id, "rewritten shared node stays shared");
        assert!(matches!(args[0].op(), Some(OpKind::Tanh)));
    }

    #[test]
    fn mutator_identity_keeps_ids() {
        let x = var("x", tt());
        let r = call(OpKind::Relu, vec![x]);
        let mut m = ExprMutator::new(|_| None);
        let out = m.mutate(&r);
        assert_eq!(out.id, r.id);
    }

    #[test]
    fn consumer_map() {
        let x = var("x", tt());
        let r = call(OpKind::Relu, vec![x.clone()]);
        let s = call(OpKind::Sigmoid, vec![x.clone()]);
        let a = call(OpKind::Add, vec![r.clone(), s.clone()]);
        let c = consumers(&a);
        let mut xs = c[&x.id].clone();
        xs.sort_unstable();
        let mut expect = vec![r.id, s.id];
        expect.sort_unstable();
        assert_eq!(xs, expect);
    }

    #[test]
    fn deep_graph_no_stack_overflow() {
        let mut e = var("x", tt());
        for _ in 0..50_000 {
            e = call(OpKind::Relu, vec![e]);
        }
        assert_eq!(topo_order(&e).len(), 50_001);
    }
}
