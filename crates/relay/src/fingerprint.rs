//! Structural module fingerprints for compiled-artifact caching.
//!
//! Relay modules are DAGs with structural sharing and process-global node
//! ids, so node identity cannot key a cache across builds or processes.
//! This module computes a *content* hash: two modules that are structurally
//! identical — same functions, same ops and attributes, same types, same
//! constant payloads, same sharing shape — fingerprint the same, while any
//! semantic difference (a changed weight byte, a different stride, a
//! re-ordered function) changes the digest.

use crate::expr::{Expr, ExprKind, Module};
use crate::visit::post_order;
use std::collections::HashMap;
use std::fmt::Write;

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms.
#[derive(Clone, Copy)]
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;

    fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// `write_str` of `value`'s `Debug` text, rendered into `text`, the
    /// one buffer every node of a function reuses.
    fn write_debug(&mut self, text: &mut String, value: &impl std::fmt::Debug) {
        text.clear();
        let _ = write!(text, "{value:?}");
        self.write_str(text);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Content hash of a whole module, as a fixed-width hex string (the form
/// used in cache keys and on-disk cache file names).
pub fn module_fingerprint(module: &Module) -> String {
    let mut h = Fnv64::new();
    h.write_u64(module.functions.len() as u64);
    // BTreeMap iteration is name-ordered — deterministic by construction.
    for (name, func) in &module.functions {
        h.write_str(name);
        h.write_u64(func.attrs.len() as u64);
        for (k, v) in &func.attrs {
            h.write_str(k);
            h.write_str(v);
        }
        hash_function_body(&mut h, &func.params, &func.body);
    }
    format!("{:016x}", h.finish())
}

/// Hash a function body DAG. Each unique node gets a sequential ordinal in
/// post-order; parents reference children by ordinal, so the sharing shape
/// (diamond vs duplicated subtree) is part of the digest.
fn hash_function_body(h: &mut Fnv64, params: &[Expr], body: &Expr) {
    let mut ordinal: HashMap<usize, u64> = HashMap::new();
    let mut text = String::new();
    // Parameters first, in declaration order, so `f(x, y)` and `f(y, x)`
    // differ even when the bodies are symmetric.
    for (i, p) in params.iter().enumerate() {
        ordinal.insert(p.id, i as u64);
        h.write_u64(i as u64);
        hash_node_payload(h, &mut text, p);
    }
    let mut next = params.len() as u64;
    post_order(body, |e| {
        if ordinal.contains_key(&e.id) {
            return; // a param node shared with the body
        }
        ordinal.insert(e.id, next);
        h.write_u64(next);
        next += 1;
        hash_node_payload(h, &mut text, e);
        for a in e.args() {
            // Children precede parents in post-order, so the ordinal is
            // always present.
            h.write_u64(ordinal[&a.id]);
        }
    });
    h.write_u64(ordinal.get(&body.id).copied().unwrap_or(u64::MAX));
}

/// Hash one node's own payload (not its edges).
fn hash_node_payload(h: &mut Fnv64, text: &mut String, e: &Expr) {
    match &e.kind {
        ExprKind::Var(v) => {
            h.write_str("var");
            h.write_str(&v.name);
            h.write_debug(text, &v.ty);
        }
        ExprKind::Constant(c) => {
            h.write_str("const");
            h.write_debug(text, c.value.shape());
            h.write_debug(text, &c.value.dtype());
            h.write_debug(text, &c.value.quant());
            hash_tensor_payload(h, &c.value);
        }
        ExprKind::Call(call) => {
            h.write_str("call");
            match &call.target {
                crate::expr::CallTarget::Op(op) => {
                    // Debug form includes the attribute structs (strides,
                    // padding, quant params …), which is exactly the
                    // compile-relevant content.
                    h.write_debug(text, op);
                }
                crate::expr::CallTarget::Global(g) => {
                    h.write_str("global");
                    h.write_str(g);
                }
            }
            h.write_u64(call.args.len() as u64);
        }
        ExprKind::Tuple(fields) => {
            h.write_str("tuple");
            h.write_u64(fields.len() as u64);
        }
        ExprKind::TupleGetItem(_, index) => {
            h.write_str("tgi");
            h.write_u64(*index as u64);
        }
    }
}

/// Hash a constant tensor's raw payload bit-exactly.
fn hash_tensor_payload(h: &mut Fnv64, t: &tvmnp_tensor::Tensor) {
    if let Ok(v) = t.as_f32() {
        for x in v {
            h.write(&x.to_bits().to_le_bytes());
        }
    } else if let Ok(v) = t.as_i8() {
        for x in v {
            h.write(&x.to_le_bytes());
        }
    } else if let Ok(v) = t.as_u8() {
        h.write(v);
    } else if let Ok(v) = t.as_i32() {
        for x in v {
            h.write(&x.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::expr::{var, Function, Module};
    use crate::ty::TensorType;
    use tvmnp_tensor::Tensor;

    fn small_module(weight: f32) -> Module {
        let x = var("x", TensorType::f32([4]));
        let w = crate::expr::constant(Tensor::from_f32([4], vec![weight; 4]).unwrap());
        let y = builder::relu(builder::add(x.clone(), w));
        Module::from_main(Function::new(vec![x], y))
    }

    #[test]
    fn identical_structure_same_fingerprint() {
        // Two independently-built modules (fresh node ids throughout) with
        // the same structure must collide — that is the caching contract.
        let a = module_fingerprint(&small_module(0.5));
        let b = module_fingerprint(&small_module(0.5));
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn changed_weight_changes_fingerprint() {
        let a = module_fingerprint(&small_module(0.5));
        let b = module_fingerprint(&small_module(0.5000001));
        assert_ne!(a, b);
    }

    #[test]
    fn different_op_changes_fingerprint() {
        let x = var("x", TensorType::f32([4]));
        let a = Module::from_main(Function::new(vec![x.clone()], builder::relu(x.clone())));
        let x2 = var("x", TensorType::f32([4]));
        let b = Module::from_main(Function::new(vec![x2.clone()], builder::sigmoid(x2)));
        assert_ne!(module_fingerprint(&a), module_fingerprint(&b));
    }

    #[test]
    fn sharing_shape_is_significant() {
        // relu(x) + relu(x) with one shared relu node vs two distinct relu
        // nodes: numerically identical but different DAGs; the fingerprint
        // keys *compilation* input, which distinguishes them.
        let x = var("x", TensorType::f32([4]));
        let shared = builder::relu(x.clone());
        let a = Module::from_main(Function::new(
            vec![x.clone()],
            builder::add(shared.clone(), shared),
        ));
        let x2 = var("x", TensorType::f32([4]));
        let b = Module::from_main(Function::new(
            vec![x2.clone()],
            builder::add(builder::relu(x2.clone()), builder::relu(x2)),
        ));
        assert_ne!(module_fingerprint(&a), module_fingerprint(&b));
    }

    #[test]
    fn fingerprint_matches_golden_across_process_runs() {
        // The disk cache persists entries under their fingerprint, so the
        // digest must be identical across *processes*, not just within one
        // run. A hardcoded golden value catches any accidental change to
        // the hash inputs (new attrs, reordered traversal, FNV constants).
        let fp = module_fingerprint(&small_module(1.0));
        assert_eq!(fp, "722bed22d143496a");
        // An op's key is its `Debug` text, which names its attribute
        // structs: a renamed or reshaped struct moves this digest, and
        // with it every disk-tier entry of a model using the op.
        let x = var("x", TensorType::f32([1, 2, 4, 4]));
        let w = Tensor::from_f32([2, 2, 3, 3], vec![0.25; 36]).unwrap();
        let y = builder::conv2d(x.clone(), w, crate::Conv2dAttrs::same(1));
        let y = builder::avg_pool2d(y, crate::Pool2dAttrs::square(2));
        let q = tvmnp_tensor::QuantParams::new(0.05, 128);
        let y = crate::expr::call(
            crate::OpKind::QnnQuantize(crate::QuantizeAttrs {
                out: q,
                out_dtype: tvmnp_tensor::DType::U8,
            }),
            vec![y],
        );
        let y = crate::expr::call(
            crate::OpKind::QnnDequantize(crate::DequantizeAttrs { input: q }),
            vec![y],
        );
        let fp = module_fingerprint(&Module::from_main(Function::new(vec![x], y)));
        assert_eq!(fp, "07236ec7b98213dd");
    }

    #[test]
    fn changed_conv_attrs_change_fingerprint() {
        // Same weights and shapes, different stride / padding: distinct
        // compilation products, so the digests must differ pairwise.
        let conv_module = |attrs: crate::Conv2dAttrs| {
            let x = var("x", TensorType::f32([1, 1, 4, 4]));
            let w = Tensor::from_f32([1, 1, 3, 3], vec![0.1; 9]).unwrap();
            let y = builder::conv2d(x.clone(), w, attrs);
            Module::from_main(Function::new(vec![x], y))
        };
        let same = module_fingerprint(&conv_module(crate::Conv2dAttrs::same(1)));
        let valid = module_fingerprint(&conv_module(crate::Conv2dAttrs::default()));
        let strided = module_fingerprint(&conv_module(crate::Conv2dAttrs {
            strides: (2, 2),
            ..crate::Conv2dAttrs::same(1)
        }));
        assert_ne!(same, valid);
        assert_ne!(same, strided);
        assert_ne!(valid, strided);
    }

    #[test]
    fn changed_function_attrs_change_fingerprint() {
        // Partition attrs (Compiler / global_symbol / Primitive) decide
        // which codegen path a function takes, so they are hash content.
        let make = |attr: Option<(&str, &str)>| {
            let x = var("x", TensorType::f32([4]));
            let mut f = Function::new(vec![x.clone()], builder::relu(x));
            if let Some((k, v)) = attr {
                f = f.with_attr(k, v);
            }
            Module::from_main(f)
        };
        let plain = module_fingerprint(&make(None));
        let annotated = module_fingerprint(&make(Some(("Compiler", "neuropilot"))));
        let other = module_fingerprint(&make(Some(("Compiler", "other"))));
        assert_ne!(plain, annotated);
        assert_ne!(annotated, other);
    }

    #[test]
    fn real_model_fingerprint_is_stable_across_builds() {
        let a = crate::builder::relu(var("x", TensorType::f32([8])));
        let _ = a; // builder smoke
        let m1 = small_module(1.25);
        let fp1 = module_fingerprint(&m1);
        let fp2 = module_fingerprint(&m1);
        assert_eq!(fp1, fp2, "fingerprint must be a pure function");
    }
}
