//! Constant folding: any primitive call whose arguments are all constants
//! is evaluated at compile time with the reference interpreter.

use crate::expr::{constant, CallTarget, Expr, ExprKind, Function, Module};
use crate::interp::eval_op;
use crate::visit::ExprMutator;
use tvmnp_tensor::Tensor;

/// Fold constant subgraphs in every function of the module.
pub fn fold_constants(module: &Module) -> Module {
    let _span = tvmnp_telemetry::span!("relay.pass", "pass" => "fold_constants");
    let mut out = Module::default();
    for (name, f) in &module.functions {
        out.functions.insert(name.clone(), fold_function(f));
    }
    out
}

fn fold_function(f: &Function) -> Function {
    let mut m = ExprMutator::new(|e: &Expr| {
        let ExprKind::Call(c) = &e.kind else {
            return None;
        };
        let CallTarget::Op(op) = &c.target else {
            return None;
        };
        // Dropout folds to its argument even when not constant.
        let all_const = c
            .args
            .iter()
            .all(|a| matches!(a.kind, ExprKind::Constant(_)));
        if !all_const {
            return None;
        }
        let argv: Vec<&Tensor> = c
            .args
            .iter()
            .map(|a| match &a.kind {
                ExprKind::Constant(k) => &k.value,
                _ => unreachable!(),
            })
            .collect();
        eval_op(op, &argv).ok().map(constant)
    });
    let body = m.mutate(&f.body);
    Function {
        params: f.params.clone(),
        body,
        attrs: f.attrs.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{call, var};
    use crate::op::OpKind;
    use crate::ty::TensorType;
    use crate::visit::topo_order;
    use tvmnp_tensor::Tensor;

    #[test]
    fn folds_constant_add() {
        let a = constant(Tensor::from_f32([2], vec![1.0, 2.0]).unwrap());
        let b = constant(Tensor::from_f32([2], vec![3.0, 4.0]).unwrap());
        let sum = call(OpKind::Add, vec![a, b]);
        let x = var("x", TensorType::f32([2]));
        let y = call(OpKind::Add, vec![x.clone(), sum]);
        let m = Module::from_main(Function::new(vec![x], y));
        let folded = fold_constants(&m);
        // add(const, const) collapsed: x, const, add = 3 nodes.
        assert_eq!(topo_order(&folded.main().body).len(), 3);
        let body = &folded.main().body;
        let args = body.args();
        match &args[1].kind {
            ExprKind::Constant(c) => assert_eq!(c.value.as_f32().unwrap(), &[4.0, 6.0]),
            other => panic!("expected folded constant, got {other:?}"),
        }
    }

    #[test]
    fn leaves_dynamic_graph_alone() {
        let x = var("x", TensorType::f32([2]));
        let y = call(OpKind::Relu, vec![x.clone()]);
        let m = Module::from_main(Function::new(vec![x], y.clone()));
        let folded = fold_constants(&m);
        assert_eq!(folded.main().body.id, y.id);
    }

    #[test]
    fn folds_transitively() {
        let a = constant(Tensor::from_f32([1], vec![2.0]).unwrap());
        let n1 = call(OpKind::Negative, vec![a]);
        let n2 = call(OpKind::Negative, vec![n1]);
        let x = var("x", TensorType::f32([1]));
        let y = call(OpKind::Add, vec![x.clone(), n2]);
        let m = Module::from_main(Function::new(vec![x], y));
        let folded = fold_constants(&m);
        assert_eq!(topo_order(&folded.main().body).len(), 3);
    }
}
