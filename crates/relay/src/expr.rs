//! The expression AST: a dataflow DAG of reference-counted nodes.

use crate::op::OpKind;
use crate::ty::TensorType;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tvmnp_tensor::Tensor;

static NEXT_ID: AtomicUsize = AtomicUsize::new(1);

/// Reference-counted expression handle. Structural sharing is significant:
/// two `Expr`s with the same `id` are the *same* node (the DAG form TVM
/// calls a "graph-normal-form" module).
pub type Expr = Arc<ExprNode>;

/// One node of the dataflow graph.
#[derive(Debug)]
pub struct ExprNode {
    /// Unique node identity (process-wide).
    pub id: usize,
    /// Node payload.
    pub kind: ExprKind,
}

/// Payload of an expression node.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// A named input placeholder.
    Var(Var),
    /// An embedded weight/constant tensor.
    Constant(Constant),
    /// An operator or global-function call.
    Call(Call),
    /// Tuple construction.
    Tuple(Vec<Expr>),
    /// Tuple projection.
    TupleGetItem(Expr, usize),
}

/// A free variable (graph input or function parameter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Var {
    /// Variable name, unique within its function.
    pub name: String,
    /// Declared type.
    pub ty: TensorType,
}

/// A constant tensor baked into the graph (weights, biases, quant tables).
#[derive(Debug, Clone)]
pub struct Constant {
    /// The payload.
    pub value: Tensor,
}

/// Call target: a primitive operator or a module-level function (used by
/// the BYOC partitioner for external sub-modules).
#[derive(Debug, Clone)]
pub enum CallTarget {
    /// Primitive operator with attributes.
    Op(OpKind),
    /// Reference to a module-level function by name.
    Global(String),
}

/// A call node.
#[derive(Debug, Clone)]
pub struct Call {
    /// What is being called.
    pub target: CallTarget,
    /// Argument expressions, in operator order.
    pub args: Vec<Expr>,
}

impl Drop for ExprNode {
    /// Iterative drop: a deep chain of `Arc<ExprNode>` would otherwise be
    /// freed by recursion and overflow the stack on long graphs.
    fn drop(&mut self) {
        fn take_children(kind: &mut ExprKind, out: &mut Vec<Expr>) {
            let taken = std::mem::replace(kind, ExprKind::Tuple(Vec::new()));
            match taken {
                ExprKind::Call(c) => out.extend(c.args),
                ExprKind::Tuple(fs) => out.extend(fs),
                ExprKind::TupleGetItem(t, _) => out.push(t),
                ExprKind::Var(_) | ExprKind::Constant(_) => {}
            }
        }
        let mut stack: Vec<Expr> = Vec::new();
        take_children(&mut self.kind, &mut stack);
        while let Some(e) = stack.pop() {
            if let Some(mut node) = Arc::into_inner(e) {
                take_children(&mut node.kind, &mut stack);
            }
        }
    }
}

/// Allocate a fresh node around `kind`.
pub(crate) fn mk(kind: ExprKind) -> Expr {
    Arc::new(ExprNode {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        kind,
    })
}

/// Build a variable node.
pub fn var(name: impl Into<String>, ty: TensorType) -> Expr {
    mk(ExprKind::Var(Var {
        name: name.into(),
        ty,
    }))
}

/// Build a constant node.
pub fn constant(value: Tensor) -> Expr {
    mk(ExprKind::Constant(Constant { value }))
}

/// Build a primitive-op call node.
pub fn call(op: OpKind, args: Vec<Expr>) -> Expr {
    mk(ExprKind::Call(Call {
        target: CallTarget::Op(op),
        args,
    }))
}

/// Build a global-function call node.
pub fn call_global(name: impl Into<String>, args: Vec<Expr>) -> Expr {
    mk(ExprKind::Call(Call {
        target: CallTarget::Global(name.into()),
        args,
    }))
}

/// Build a tuple node.
pub fn tuple(fields: Vec<Expr>) -> Expr {
    mk(ExprKind::Tuple(fields))
}

/// Build a tuple-projection node.
pub fn tuple_get(tuple: Expr, index: usize) -> Expr {
    mk(ExprKind::TupleGetItem(tuple, index))
}

impl ExprNode {
    /// Direct dataflow inputs of this node.
    pub fn args(&self) -> Vec<Expr> {
        match &self.kind {
            ExprKind::Var(_) | ExprKind::Constant(_) => Vec::new(),
            ExprKind::Call(c) => c.args.clone(),
            ExprKind::Tuple(fs) => fs.clone(),
            ExprKind::TupleGetItem(t, _) => vec![t.clone()],
        }
    }

    /// The primitive op kind, when this is a primitive call.
    pub fn op(&self) -> Option<&OpKind> {
        match &self.kind {
            ExprKind::Call(Call {
                target: CallTarget::Op(op),
                ..
            }) => Some(op),
            _ => None,
        }
    }

    /// Short human-readable label for diagnostics.
    pub fn label(&self) -> String {
        match &self.kind {
            ExprKind::Var(v) => format!("%{}", v.name),
            ExprKind::Constant(c) => format!("const{}", c.value.shape()),
            ExprKind::Call(c) => match &c.target {
                CallTarget::Op(op) => op.name().to_string(),
                CallTarget::Global(g) => format!("@{g}"),
            },
            ExprKind::Tuple(fs) => format!("tuple/{}", fs.len()),
            ExprKind::TupleGetItem(_, i) => format!(".{i}"),
        }
    }
}

/// A function: named parameters and a body DAG, plus string attributes
/// (the BYOC flow stores `Compiler` / `global_symbol` / `Primitive` here,
/// exactly like TVM).
#[derive(Debug, Clone)]
pub struct Function {
    /// Parameters (each an `ExprKind::Var` node, shared with the body).
    pub params: Vec<Expr>,
    /// Result expression.
    pub body: Expr,
    /// Function attributes.
    pub attrs: BTreeMap<String, String>,
}

impl Function {
    /// Function with no attributes.
    pub fn new(params: Vec<Expr>, body: Expr) -> Self {
        Function {
            params,
            body,
            attrs: BTreeMap::new(),
        }
    }

    /// Attach an attribute (builder style).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    /// The external-compiler name if this function was produced by the BYOC
    /// partitioner (`Compiler` attribute).
    pub fn compiler(&self) -> Option<&str> {
        self.attrs.get("Compiler").map(String::as_str)
    }

    /// Count call nodes in the body (diagnostics; Fig. 4's subgraph count).
    pub fn num_calls(&self) -> usize {
        let mut n = 0;
        crate::visit::post_order(&self.body, |e| {
            if matches!(e.kind, ExprKind::Call(_)) {
                n += 1;
            }
        });
        n
    }
}

/// A module: a set of named functions with `main` as entry, mirroring
/// TVM's `IRModule`.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Functions by global name.
    pub functions: BTreeMap<String, Function>,
}

impl Module {
    /// Module holding just `main`.
    pub fn from_main(f: Function) -> Self {
        let mut m = Module::default();
        m.functions.insert("main".to_string(), f);
        m
    }

    /// The entry function.
    pub fn main(&self) -> &Function {
        self.functions
            .get("main")
            .expect("module has no main function")
    }

    /// Names of functions carrying a `Compiler` attribute (external
    /// sub-modules produced by partitioning).
    pub fn external_functions(&self) -> Vec<&str> {
        self.functions
            .iter()
            .filter(|(_, f)| f.compiler().is_some())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Number of external (partitioned) sub-functions.
    pub fn num_subgraphs(&self) -> usize {
        self.external_functions().len()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, func) in &self.functions {
            write!(f, "def @{name}(")?;
            for (i, p) in func.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", p.label())?;
            }
            writeln!(f, ") {{ {} calls }}", func.num_calls())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_tensor::DType;

    fn tt() -> TensorType {
        TensorType::new([1, 4], DType::F32)
    }

    #[test]
    fn ids_unique() {
        let a = var("a", tt());
        let b = var("b", tt());
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn structural_sharing_visible() {
        let x = var("x", tt());
        let y = call(OpKind::Relu, vec![x.clone()]);
        let z = call(OpKind::Add, vec![y.clone(), y.clone()]);
        let args = z.args();
        assert_eq!(args[0].id, args[1].id, "shared node must keep one id");
    }

    #[test]
    fn function_attrs_and_compiler() {
        let x = var("x", tt());
        let f = Function::new(vec![x.clone()], x).with_attr("Compiler", "neuropilot");
        assert_eq!(f.compiler(), Some("neuropilot"));
    }

    #[test]
    fn module_counts_externals() {
        let x = var("x", tt());
        let main = Function::new(vec![x.clone()], x.clone());
        let mut m = Module::from_main(main);
        m.functions.insert(
            "nir_0".into(),
            Function::new(vec![x.clone()], x).with_attr("Compiler", "neuropilot"),
        );
        assert_eq!(m.num_subgraphs(), 1);
        assert_eq!(m.external_functions(), vec!["nir_0"]);
    }

    #[test]
    fn labels() {
        let x = var("x", tt());
        assert_eq!(x.label(), "%x");
        let c = call(OpKind::Relu, vec![x]);
        assert_eq!(c.label(), "nn.relu");
    }
}
