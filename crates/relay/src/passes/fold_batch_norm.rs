//! Batch-norm folding (TVM's `SimplifyInference` + `FoldScaleAxis`).
//!
//! At inference, `batch_norm(conv(x, W), γ, β, μ, σ²)` is an affine map per
//! output channel and folds into the convolution:
//!
//! ```text
//! s_c  = γ_c / sqrt(σ²_c + ε)
//! W'_c = W_c * s_c
//! b'_c = β_c - μ_c * s_c            (+ s_c * b_c if the conv had a bias)
//! ```
//!
//! The paper's anti-spoofing model fragments into many BYOC subgraphs
//! *because* its traced PyTorch graph keeps `nn.batch_norm`, which
//! NeuroPilot cannot ingest. This pass is the counterfactual: folding
//! first makes the whole model NeuroPilot-compilable — the ablation the
//! `ablation` bench quantifies.
//!
//! Folding applies when the batch norm directly follows `nn.conv2d` (or a
//! `nn.conv2d`+`nn.bias_add` pair) whose result has no other consumer;
//! remaining batch norms (e.g. BN on an input or after a concat) are
//! lowered to an explicit per-channel `multiply` + `add` so no
//! `nn.batch_norm` survives the pass.

use crate::expr::{constant, Call, CallTarget, Expr, ExprKind, Function, Module};
use crate::op::OpKind;
use crate::visit::{consumers, rebuild};
use std::collections::HashMap;
use tvmnp_tensor::Tensor;

/// Per-channel scale/shift derived from batch-norm parameters.
fn bn_scale_shift(
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    epsilon: f32,
) -> Option<(Vec<f32>, Vec<f32>)> {
    let g = gamma.as_f32().ok()?;
    let b = beta.as_f32().ok()?;
    let m = mean.as_f32().ok()?;
    let v = var.as_f32().ok()?;
    if g.len() != b.len() || g.len() != m.len() || g.len() != v.len() {
        return None;
    }
    let scale: Vec<f32> = g
        .iter()
        .zip(v)
        .map(|(&gi, &vi)| gi / (vi + epsilon).sqrt())
        .collect();
    let shift: Vec<f32> = b
        .iter()
        .zip(m)
        .zip(&scale)
        .map(|((&bi, &mi), &si)| bi - mi * si)
        .collect();
    Some((scale, shift))
}

/// Extract the constant tensor behind an expression, if it is a constant.
fn const_of(e: &Expr) -> Option<Tensor> {
    match &e.kind {
        ExprKind::Constant(c) => Some(c.value.clone()),
        _ => None,
    }
}

/// Scale conv weights per output channel: `W'_o = W_o * s_o` (`OIHW`).
fn scale_weights(w: &Tensor, scale: &[f32]) -> Option<Tensor> {
    let dims = w.shape().dims().to_vec();
    if dims.len() != 4 || dims[0] != scale.len() {
        return None;
    }
    let inner: usize = dims[1..].iter().product();
    let data = w.as_f32().ok()?;
    let mut out = Vec::with_capacity(data.len());
    for (o, &s) in scale.iter().enumerate() {
        out.extend(data[o * inner..(o + 1) * inner].iter().map(|&v| v * s));
    }
    Tensor::from_f32(dims, out).ok()
}

/// Fold batch norms in every function of `module`. Returns the rewritten
/// module; no `nn.batch_norm` node survives.
pub fn fold_batch_norm(module: &Module) -> Module {
    let _span = tvmnp_telemetry::span!("relay.pass", "pass" => "fold_batch_norm");
    let mut out = Module::default();
    for (name, f) in &module.functions {
        out.functions.insert(name.clone(), fold_function(f));
    }
    out
}

fn fold_function(f: &Function) -> Function {
    let cons = consumers(&f.body);
    let fanout = |e: &Expr| cons.get(&e.id).map(|v| v.len()).unwrap_or(0);

    // Explicit topo-order rewrite so folding decisions consult the
    // ORIGINAL graph (fan-outs, constant weights) while the rebuilt graph
    // is assembled from already-rewritten children.
    let mut map: HashMap<usize, Expr> = HashMap::new();
    for p in &f.params {
        map.insert(p.id, p.clone());
    }
    for e in crate::visit::topo_order(&f.body) {
        if map.contains_key(&e.id) {
            continue;
        }
        let rebuilt: Expr = 'node: {
            if let ExprKind::Call(call) = &e.kind {
                if let CallTarget::Op(OpKind::BatchNorm(attrs)) = &call.target {
                    let folded = try_fold_bn(call, attrs.epsilon, &map, fanout);
                    if let Some(x) = folded {
                        break 'node x;
                    }
                }
            }
            rebuild(&e, &map)
        };
        map.insert(e.id, rebuilt);
    }
    let body = map[&f.body.id].clone();
    Function {
        params: f.params.clone(),
        body,
        attrs: f.attrs.clone(),
    }
}

/// Attempt to fold one batch-norm call; `None` falls back to rebuild.
fn try_fold_bn(
    call: &Call,
    epsilon: f32,
    map: &HashMap<usize, Expr>,
    fanout: impl Fn(&Expr) -> usize,
) -> Option<Expr> {
    let gamma = const_of(&call.args[1])?;
    let beta = const_of(&call.args[2])?;
    let mean = const_of(&call.args[3])?;
    let var = const_of(&call.args[4])?;
    let (scale, shift) = bn_scale_shift(&gamma, &beta, &mean, &var, epsilon)?;
    let c = scale.len();
    let x_orig = &call.args[0];

    // Case 1: fold into a directly preceding, single-consumer conv
    // (optionally through a bias_add) — analyzed on the ORIGINAL nodes.
    if let Some(folded) = fold_into_conv(x_orig, &scale, &shift, map, &fanout) {
        return Some(folded);
    }

    // Case 2: lower to explicit multiply + add with [1, c, 1, 1] consts.
    let s = Tensor::from_f32([1, c, 1, 1], scale).ok()?;
    let b = Tensor::from_f32([1, c, 1, 1], shift).ok()?;
    let x_new = map[&x_orig.id].clone();
    let scaled = crate::expr::call(OpKind::Multiply, vec![x_new, constant(s)]);
    Some(crate::expr::call(OpKind::Add, vec![scaled, constant(b)]))
}

/// Try to fold scale/shift into `x` (original node) when it is
/// `conv2d(...)` or `bias_add(conv2d(...), b)` with single consumers and
/// constant weights. Returns the folded expression built from rewritten
/// children.
fn fold_into_conv(
    x: &Expr,
    scale: &[f32],
    shift: &[f32],
    map: &HashMap<usize, Expr>,
    fanout: &impl Fn(&Expr) -> usize,
) -> Option<Expr> {
    let ExprKind::Call(c) = &x.kind else {
        return None;
    };
    let CallTarget::Op(op) = &c.target else {
        return None;
    };
    if fanout(x) > 1 {
        return None;
    }
    match op {
        OpKind::Conv2d(attrs) => {
            let w = const_of(&c.args[1])?;
            let w2 = scale_weights(&w, scale)?;
            // Existing conv bias folds through the scale as well.
            let bias = if c.args.len() > 2 {
                let b = const_of(&c.args[2])?;
                let bv = b.as_f32().ok()?;
                let folded: Vec<f32> = bv
                    .iter()
                    .zip(scale)
                    .zip(shift)
                    .map(|((&b, &s), &t)| b * s + t)
                    .collect();
                Tensor::from_f32([scale.len()], folded).ok()?
            } else {
                Tensor::from_f32([shift.len()], shift.to_vec()).ok()?
            };
            let conv_input = map[&c.args[0].id].clone();
            Some(crate::expr::call(
                OpKind::Conv2d(*attrs),
                vec![conv_input, constant(w2), constant(bias)],
            ))
        }
        OpKind::BiasAdd => {
            // bias_add(conv(x, W), b): recurse on the conv with the bias
            // merged into the shift.
            let inner = &c.args[0];
            let b = const_of(&c.args[1])?;
            let bv = b.as_f32().ok()?;
            if bv.len() != scale.len() {
                return None;
            }
            let merged_shift: Vec<f32> = shift
                .iter()
                .zip(bv)
                .zip(scale)
                .map(|((&t, &b), &s)| t + b * s)
                .collect();
            fold_into_conv(inner, scale, &merged_shift, map, fanout)
        }
        _ => None,
    }
}

/// Count `nn.batch_norm` calls in a module (diagnostics/ablation).
pub fn count_batch_norms(module: &Module) -> usize {
    let mut n = 0;
    for f in module.functions.values() {
        crate::visit::post_order(&f.body, |e| {
            if matches!(e.op(), Some(OpKind::BatchNorm(_))) {
                n += 1;
            }
        });
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::expr::var;
    use crate::interp::run_module;
    use crate::ty::TensorType;
    use crate::Conv2dAttrs;
    use std::collections::HashMap as Map;
    use tvmnp_tensor::rng::TensorRng;

    fn conv_bn_net(with_bias: bool, seed: u64) -> (Module, Tensor) {
        let mut rng = TensorRng::new(seed);
        let x = var("x", TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let conv = if with_bias {
            builder::conv2d_bias(
                x.clone(),
                w,
                rng.uniform_f32([4], -0.2, 0.2),
                Conv2dAttrs::same(1),
            )
        } else {
            builder::conv2d(x.clone(), w, Conv2dAttrs::same(1))
        };
        let bn = builder::batch_norm(
            conv,
            rng.uniform_f32([4], 0.8, 1.2),
            rng.uniform_f32([4], -0.3, 0.3),
            rng.uniform_f32([4], -0.3, 0.3),
            rng.uniform_f32([4], 0.5, 1.5),
            1e-5,
        );
        let body = builder::relu(bn);
        let m = Module::from_main(Function::new(vec![x], body));
        (m, rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0))
    }

    fn run(m: &Module, input: &Tensor) -> Tensor {
        let mut ins = Map::new();
        ins.insert("x".to_string(), input.clone());
        run_module(m, &ins).unwrap()
    }

    #[test]
    fn folds_conv_bn_and_preserves_semantics() {
        let (m, input) = conv_bn_net(false, 1);
        assert_eq!(count_batch_norms(&m), 1);
        let folded = fold_batch_norm(&m);
        assert_eq!(count_batch_norms(&folded), 0);
        let a = run(&m, &input);
        let b = run(&folded, &input);
        assert!(
            a.max_abs_diff(&b) <= 1e-4,
            "max diff {}",
            a.max_abs_diff(&b)
        );
    }

    #[test]
    fn folds_through_bias_add() {
        let (m, input) = conv_bn_net(true, 2);
        let folded = fold_batch_norm(&m);
        assert_eq!(count_batch_norms(&folded), 0);
        assert!(run(&m, &input).max_abs_diff(&run(&folded, &input)) <= 1e-4);
        // The folded graph is a conv (with bias) + relu: 2 calls.
        assert_eq!(folded.main().num_calls(), 2);
    }

    #[test]
    fn bn_with_shared_conv_lowers_to_mul_add() {
        // conv has two consumers: folding into it would change the other
        // consumer's value, so BN must lower to multiply+add instead.
        let mut rng = TensorRng::new(3);
        let x = var("x", TensorType::f32([1, 2, 4, 4]));
        let w = rng.uniform_f32([2, 2, 1, 1], -0.5, 0.5);
        let conv = builder::conv2d(x.clone(), w, Conv2dAttrs::default());
        let bn = builder::batch_norm(
            conv.clone(),
            rng.uniform_f32([2], 0.8, 1.2),
            rng.uniform_f32([2], -0.3, 0.3),
            rng.uniform_f32([2], -0.3, 0.3),
            rng.uniform_f32([2], 0.5, 1.5),
            1e-5,
        );
        let body = builder::add(bn, builder::relu(conv));
        let m = Module::from_main(Function::new(vec![x], body));
        let folded = fold_batch_norm(&m);
        assert_eq!(count_batch_norms(&folded), 0);
        let mut ins = Map::new();
        ins.insert("x".to_string(), rng.uniform_f32([1, 2, 4, 4], -1.0, 1.0));
        let a = run_module(&m, &ins).unwrap();
        let b = run_module(&folded, &ins).unwrap();
        assert!(a.max_abs_diff(&b) <= 1e-4);
    }

    #[test]
    fn bn_on_input_lowers_to_mul_add() {
        let mut rng = TensorRng::new(4);
        let x = var("x", TensorType::f32([1, 2, 4, 4]));
        let bn = builder::batch_norm(
            x.clone(),
            rng.uniform_f32([2], 0.8, 1.2),
            rng.uniform_f32([2], -0.3, 0.3),
            rng.uniform_f32([2], -0.3, 0.3),
            rng.uniform_f32([2], 0.5, 1.5),
            1e-5,
        );
        let m = Module::from_main(Function::new(vec![x], bn));
        let folded = fold_batch_norm(&m);
        assert_eq!(count_batch_norms(&folded), 0);
        let mut ins = Map::new();
        ins.insert("x".to_string(), rng.uniform_f32([1, 2, 4, 4], -1.0, 1.0));
        assert!(
            run_module(&m, &ins)
                .unwrap()
                .max_abs_diff(&run_module(&folded, &ins).unwrap())
                <= 1e-5
        );
    }

    #[test]
    fn folding_makes_deepixbis_like_graphs_np_compilable() {
        // Chain of conv -> bn -> relu blocks (the DeePixBiS pathology).
        let mut rng = TensorRng::new(5);
        let x = var("x", TensorType::f32([1, 4, 8, 8]));
        let mut e = x.clone();
        for _ in 0..3 {
            let w = rng.uniform_f32([4, 4, 3, 3], -0.4, 0.4);
            e = builder::conv2d(e, w, Conv2dAttrs::same(1));
            e = builder::batch_norm(
                e,
                rng.uniform_f32([4], 0.8, 1.2),
                rng.uniform_f32([4], -0.3, 0.3),
                rng.uniform_f32([4], -0.3, 0.3),
                rng.uniform_f32([4], 0.5, 1.5),
                1e-5,
            );
            e = builder::relu(e);
        }
        let m = Module::from_main(Function::new(vec![x], e));
        let folded = fold_batch_norm(&m);
        // Every op in the folded graph must be in the NP-supported name set
        // (conv2d / bias via conv's third arg / relu).
        let mut all_supported = true;
        crate::visit::post_order(&folded.main().body, |n| {
            if let Some(op) = n.op() {
                // The support matrix lives in the neuropilot crate; here we
                // check the op name set structurally.
                if matches!(op, OpKind::BatchNorm(_)) {
                    all_supported = false;
                }
            }
        });
        assert!(all_supported);
        let mut ins = Map::new();
        ins.insert("x".to_string(), rng.uniform_f32([1, 4, 8, 8], -1.0, 1.0));
        assert!(
            run_module(&m, &ins)
                .unwrap()
                .max_abs_diff(&run_module(&folded, &ins).unwrap())
                <= 1e-3
        );
    }
}
