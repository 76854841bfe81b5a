//! # tvmnp-relay
//!
//! A Relay-like graph-level IR, reproducing the parts of TVM the paper's
//! BYOC flow relies on:
//!
//! * an expression AST (`Var`, `Constant`, `Call`, `Tuple`, `TupleGetItem`)
//!   over dataflow DAGs ([`expr`]);
//! * tensor types with shape/dtype inference per operator ([`ty`], [`infer`]);
//! * `ExprVisitor`-style post-order traversal and rewriting ([`visit`]) —
//!   the structure paper Listing 1 builds its `NodeEntry` bookkeeping on;
//! * a reference interpreter that executes a module on the host with the
//!   `tvmnp-tensor` kernels ([`interp`]) — the semantic ground truth every
//!   backend is checked against;
//! * the storage planner both runtimes run on ([`memory`], TVM's
//!   `GraphPlanMemory`);
//! * graph passes ([`passes`]): constant folding, dead-code elimination,
//!   operator fusion, and the BYOC *annotate → merge regions → partition*
//!   pipeline that splits a module into a TVM-native part and external
//!   `Compiler="neuropilot"` functions (paper §3.1, Fig. 2);
//! * the QNN dialect (`qnn.quantize/dequantize/requantize/conv2d/dense/add/
//!   concatenate`) with *operator-oriented* quantization attributes, the
//!   representation §3.3 converts into Neuron's tensor-oriented form.

pub mod attrs;
pub mod builder;
pub mod expr;
pub mod fingerprint;
pub mod infer;
pub mod interp;
pub mod memory;
pub mod op;
pub mod passes;
pub mod ty;
pub mod visit;

pub use attrs::*;
pub use expr::{Call, CallTarget, Constant, Expr, ExprKind, Function, Module, Var};
pub use fingerprint::module_fingerprint;
pub use infer::{infer_types, TypeError};
pub use interp::{Interpreter, RunError};
pub use op::OpKind;
pub use ty::{TensorType, Type};
