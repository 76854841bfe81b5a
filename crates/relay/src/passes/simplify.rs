//! Structural simplifications.

use crate::expr::{CallTarget, Expr, ExprKind, Function, Module};
use crate::op::OpKind;
use crate::visit::ExprMutator;

/// Simplify every function:
/// * `TupleGetItem(Tuple(f0..fn), i)` → `fi`
/// * `nn.dropout(x)` → `x` (inference identity)
pub fn simplify(module: &Module) -> Module {
    let _span = tvmnp_telemetry::span!("relay.pass", "pass" => "simplify");
    let mut out = Module::default();
    for (name, f) in &module.functions {
        let mut m = ExprMutator::new(|e: &Expr| match &e.kind {
            ExprKind::TupleGetItem(t, i) => match &t.kind {
                ExprKind::Tuple(fs) => fs.get(*i).cloned(),
                _ => None,
            },
            ExprKind::Call(c) => match &c.target {
                CallTarget::Op(OpKind::Dropout) => Some(c.args[0].clone()),
                _ => None,
            },
            _ => None,
        });
        let body = m.mutate(&f.body);
        out.functions.insert(
            name.clone(),
            Function {
                params: f.params.clone(),
                body,
                attrs: f.attrs.clone(),
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{call, tuple, tuple_get, var};
    use crate::ty::TensorType;
    use crate::visit::topo_order;

    fn v(name: &str) -> Expr {
        var(name, TensorType::f32([2]))
    }

    #[test]
    fn projection_collapses() {
        let x = v("x");
        let t = tuple(vec![call(OpKind::Relu, vec![x.clone()]), x.clone()]);
        let g = tuple_get(t, 1);
        let m = Module::from_main(Function::new(vec![x.clone()], g));
        let s = simplify(&m);
        assert_eq!(s.main().body.id, x.id);
    }

    #[test]
    fn dropout_removed() {
        let x = v("x");
        let d = call(OpKind::Dropout, vec![x.clone()]);
        let r = call(OpKind::Relu, vec![d]);
        let m = Module::from_main(Function::new(vec![x], r));
        let s = simplify(&m);
        assert_eq!(topo_order(&s.main().body).len(), 2);
    }
}
