//! The evaluation model zoo of paper §6 (Table 1, Fig. 6).
//!
//! | model               | data type |
//! |---------------------|-----------|
//! | densenet            | float32   |
//! | inception resnet v2 | float32   |
//! | inception v3        | float32   |
//! | inception v4        | float32   |
//! | mobilenet v1        | float32   |
//! | mobilenet v2        | float32   |
//! | nasnet              | float32   |
//! | inception v3 quant  | int8      |
//! | mobilenet v1 quant  | int8      |
//! | mobilenet v2 quant  | int8      |
//!
//! Architecture signatures are preserved at reduced width/resolution:
//! mobilenets use depthwise-separable blocks + ReLU6; the inception family
//! uses multi-branch concat modules (v3/v4 exported with BN folded, as
//! their deployment artifacts are); inception-resnet-v2 and densenet keep
//! *unfused* `nn.batch_norm` (which NeuroPilot cannot ingest — their
//! NP-only bars are the missing ones in Fig. 6); nasnet's separable cells
//! reduce with a `mean` op (also unsupported). Quantized variants run
//! int8 `qnn.*` chains end to end.

use crate::{Framework, Model};
use tvmnp_relay::builder::*;
use tvmnp_relay::expr::{call, constant, var, Expr, Function, Module};
use tvmnp_relay::{
    ClipAttrs, Conv2dAttrs, DequantizeAttrs, OpKind, Pool2dAttrs, QnnAddAttrs, QnnConv2dAttrs,
    QnnDenseAttrs, TensorType,
};
use tvmnp_tensor::rng::TensorRng;
use tvmnp_tensor::{DType, QuantParams};

const INPUT: [usize; 4] = [1, 3, 64, 64];

fn float_model(name: &str, module: Module) -> Model {
    Model {
        name: name.into(),
        dtype: DType::F32,
        framework: Framework::Relay,
        module,
        input_name: "input".into(),
        input_shape: INPUT.to_vec(),
        input_quant: None,
    }
}

/// Builder state for float nets.
struct Net {
    rng: TensorRng,
    cur: Expr,
    c: usize,
}

impl Net {
    fn new(seed: u64) -> Self {
        let input = var("input", TensorType::f32(INPUT));
        Net {
            rng: TensorRng::new(seed),
            cur: input,
            c: 3,
        }
    }

    fn conv(&mut self, out_c: usize, k: usize, stride: usize, with_relu: bool) -> &mut Self {
        let pad = k / 2;
        let w = self.rng.kaiming_f32([out_c, self.c, k, k], self.c * k * k);
        let b = self.rng.uniform_f32([out_c], -0.05, 0.05);
        let attrs = Conv2dAttrs {
            strides: (stride, stride),
            padding: (pad, pad, pad, pad),
            ..Default::default()
        };
        self.cur = conv2d_bias(self.cur.clone(), w, b, attrs);
        if with_relu {
            self.cur = relu(self.cur.clone());
        }
        self.c = out_c;
        self
    }

    fn conv_bn_relu(&mut self, out_c: usize, k: usize, stride: usize) -> &mut Self {
        let pad = k / 2;
        let w = self.rng.kaiming_f32([out_c, self.c, k, k], self.c * k * k);
        let attrs = Conv2dAttrs {
            strides: (stride, stride),
            padding: (pad, pad, pad, pad),
            ..Default::default()
        };
        self.cur = conv2d(self.cur.clone(), w, attrs);
        self.cur = batch_norm(
            self.cur.clone(),
            self.rng.uniform_f32([out_c], 0.9, 1.1),
            self.rng.uniform_f32([out_c], -0.1, 0.1),
            self.rng.uniform_f32([out_c], -0.1, 0.1),
            self.rng.uniform_f32([out_c], 0.9, 1.1),
            1e-5,
        );
        self.cur = relu(self.cur.clone());
        self.c = out_c;
        self
    }

    fn depthwise(&mut self, k: usize, stride: usize) -> &mut Self {
        let pad = k / 2;
        let w = self.rng.kaiming_f32([self.c, 1, k, k], k * k);
        let attrs = Conv2dAttrs {
            strides: (stride, stride),
            padding: (pad, pad, pad, pad),
            dilation: (1, 1),
            groups: self.c,
        };
        self.cur = conv2d(self.cur.clone(), w, attrs);
        self
    }

    fn relu6(&mut self) -> &mut Self {
        self.cur = call(
            OpKind::Clip(ClipAttrs { min: 0.0, max: 6.0 }),
            vec![self.cur.clone()],
        );
        self
    }

    fn head(&mut self, classes: usize) -> Module {
        self.cur = global_avg_pool2d(self.cur.clone());
        self.cur = batch_flatten(self.cur.clone());
        let w = self.rng.kaiming_f32([classes, self.c], self.c);
        self.cur = softmax(dense(self.cur.clone(), w));
        let input = find_input(&self.cur);
        Module::from_main(Function::new(vec![input], self.cur.clone()))
    }
}

fn find_input(e: &Expr) -> Expr {
    let mut input = None;
    tvmnp_relay::visit::post_order(e, |n| {
        if matches!(n.kind, tvmnp_relay::ExprKind::Var(_)) {
            input = Some(n.clone());
        }
    });
    input.expect("net has an input var")
}

/// MobileNet v1: conv stem + depthwise-separable blocks + GAP head.
pub fn mobilenet_v1(seed: u64) -> Model {
    let mut n = Net::new(seed);
    n.conv(32, 3, 2, false).relu6();
    for &(c, s) in &[(64usize, 1usize), (64, 2), (128, 1), (128, 2)] {
        n.depthwise(3, s).relu6();
        n.conv(c, 1, 1, false).relu6();
    }
    float_model("mobilenet v1", n.head(10))
}

/// MobileNet v2: inverted residual bottlenecks (expand → depthwise →
/// linear project, with skip adds on stride-1 blocks).
pub fn mobilenet_v2(seed: u64) -> Model {
    let mut n = Net::new(seed);
    n.conv(32, 3, 2, false).relu6();
    for &(c, s) in &[(32usize, 1usize), (64, 2), (64, 1)] {
        let block_in = n.cur.clone();
        let in_c = n.c;
        n.conv(in_c * 4, 1, 1, false).relu6(); // expand
        n.depthwise(3, s).relu6();
        n.conv(c, 1, 1, false); // linear projection
        if s == 1 && in_c == c {
            n.cur = add(n.cur.clone(), block_in);
        }
    }
    float_model("mobilenet v2", n.head(10))
}

/// One inception-A-style module: four branches joined by channel concat.
fn inception_module(n: &mut Net, b1: usize, b3: usize, b5: usize, pool_proj: usize) {
    let input = n.cur.clone();
    let in_c = n.c;
    // 1x1 branch
    n.cur = input.clone();
    n.c = in_c;
    n.conv(b1, 1, 1, true);
    let br1 = n.cur.clone();
    // 3x3 branch
    n.cur = input.clone();
    n.c = in_c;
    n.conv(b3, 1, 1, true).conv(b3, 3, 1, true);
    let br3 = n.cur.clone();
    // double 3x3 ("5x5 factorized") branch
    n.cur = input.clone();
    n.c = in_c;
    n.conv(b5, 1, 1, true)
        .conv(b5, 3, 1, true)
        .conv(b5, 3, 1, true);
    let br5 = n.cur.clone();
    // pool projection branch
    let pooled = avg_pool2d(
        input,
        Pool2dAttrs {
            kernel: (3, 3),
            strides: (1, 1),
            padding: (1, 1, 1, 1),
            count_include_pad: false,
        },
    );
    n.cur = pooled;
    n.c = in_c;
    n.conv(pool_proj, 1, 1, true);
    let brp = n.cur.clone();

    n.cur = concatenate(vec![br1, br3, br5, brp], 1);
    n.c = b1 + b3 + b5 + pool_proj;
}

/// Inception v3 (BN folded at export): stem + two inception modules.
pub fn inception_v3(seed: u64) -> Model {
    let mut n = Net::new(seed);
    n.conv(32, 3, 2, true).conv(64, 3, 1, true);
    inception_module(&mut n, 32, 32, 32, 32);
    inception_module(&mut n, 32, 48, 32, 32);
    float_model("inception v3", n.head(10))
}

/// Inception v4: deeper stem and three modules.
pub fn inception_v4(seed: u64) -> Model {
    let mut n = Net::new(seed);
    n.conv(32, 3, 2, true)
        .conv(32, 3, 1, true)
        .conv(64, 3, 1, true);
    inception_module(&mut n, 32, 32, 32, 32);
    inception_module(&mut n, 32, 48, 32, 32);
    inception_module(&mut n, 48, 48, 32, 32);
    float_model("inception v4", n.head(10))
}

/// Inception-ResNet v2: BN stem + residual inception blocks with scaled
/// (`multiply`) residuals. Keeps unfused BN → NP-only bars missing.
pub fn inception_resnet_v2(seed: u64) -> Model {
    let mut n = Net::new(seed);
    n.conv_bn_relu(64, 3, 2);
    for _ in 0..2 {
        let block_in = n.cur.clone();
        let in_c = n.c;
        // two-branch residual function
        n.conv(32, 1, 1, true);
        let br1 = n.cur.clone();
        n.cur = block_in.clone();
        n.c = in_c;
        n.conv(32, 1, 1, true).conv(32, 3, 1, true);
        let br2 = n.cur.clone();
        n.cur = concatenate(vec![br1, br2], 1);
        n.c = 64;
        n.conv(in_c, 1, 1, false);
        // residual scaling by 0.17 as in the paper's reference net
        let scale = constant(tvmnp_tensor::Tensor::scalar_f32(0.17));
        n.cur = relu(add(multiply(n.cur.clone(), scale), block_in));
        n.c = in_c;
    }
    float_model("inception resnet v2", n.head(10))
}

/// DenseNet: BN-ReLU-conv dense blocks with concatenative connectivity.
pub fn densenet(seed: u64) -> Model {
    let mut n = Net::new(seed);
    n.conv(32, 3, 2, true);
    let growth = 32;
    for _ in 0..4 {
        let features = n.cur.clone();
        let in_c = n.c;
        n.conv_bn_relu(growth, 3, 1);
        let new = n.cur.clone();
        n.cur = concatenate(vec![features, new], 1);
        n.c = in_c + growth;
    }
    float_model("densenet", n.head(10))
}

/// NASNet: separable-conv cells, branch adds, and a `mean` reduction
/// (NP-unsupported) instead of global average pooling.
pub fn nasnet(seed: u64) -> Model {
    let mut n = Net::new(seed);
    n.conv(48, 3, 2, true);
    for _ in 0..2 {
        let cell_in = n.cur.clone();
        let in_c = n.c;
        // branch A: separable 5x5 (approximated 3x3 dw + pw)
        n.depthwise(3, 1);
        n.conv(in_c, 1, 1, true);
        let a = n.cur.clone();
        // branch B: avg pool
        let b = avg_pool2d(
            cell_in.clone(),
            Pool2dAttrs {
                kernel: (3, 3),
                strides: (1, 1),
                padding: (1, 1, 1, 1),
                count_include_pad: false,
            },
        );
        n.cur = add(a, b);
        n.c = in_c;
    }
    // mean over spatial dims (TF-slim style reduction)
    let reduced = mean(n.cur.clone(), vec![2, 3]);
    let w = n.rng.kaiming_f32([10, n.c], n.c);
    let out = softmax(dense(reduced, w));
    let input = find_input(&out);
    float_model("nasnet", Module::from_main(Function::new(vec![input], out)))
}

// ---------------------------------------------------------------------
// Quantized variants (Table 1's int8 rows)
// ---------------------------------------------------------------------

/// Builder state for int8 `qnn.*` chains.
struct QNet {
    rng: TensorRng,
    cur: Expr,
    c: usize,
    q: QuantParams,
}

impl QNet {
    fn new(seed: u64) -> Self {
        let q = QuantParams::new(0.05, 128);
        let input = var("input", TensorType::new(INPUT, DType::U8));
        QNet {
            rng: TensorRng::new(seed),
            cur: input,
            c: 3,
            q,
        }
    }

    fn qconv(
        &mut self,
        out_c: usize,
        k: usize,
        stride: usize,
        groups: usize,
        relu6: bool,
    ) -> &mut Self {
        let pad = k / 2;
        let qw = QuantParams::new(0.02, 128);
        let w = self
            .rng
            .uniform_quantized([out_c, self.c / groups, k, k], DType::U8, qw);
        let attrs = QnnConv2dAttrs {
            conv: Conv2dAttrs {
                strides: (stride, stride),
                padding: (pad, pad, pad, pad),
                dilation: (1, 1),
                groups,
            },
            input_q: self.q,
            weight_q: qw,
            output_q: self.q,
            out_dtype: DType::U8,
        };
        self.cur = call(
            OpKind::QnnConv2d(attrs),
            vec![self.cur.clone(), constant(w)],
        );
        if relu6 {
            self.cur = call(
                OpKind::Clip(ClipAttrs { min: 0.0, max: 6.0 }),
                vec![self.cur.clone()],
            );
        }
        self.c = out_c;
        self
    }

    fn qadd_residual(&mut self, other: Expr) -> &mut Self {
        let attrs = QnnAddAttrs {
            lhs_q: self.q,
            rhs_q: self.q,
            output_q: self.q,
            out_dtype: DType::U8,
        };
        self.cur = call(OpKind::QnnAdd(attrs), vec![self.cur.clone(), other]);
        self
    }

    fn head(&mut self, classes: usize) -> Module {
        self.cur = global_avg_pool2d(self.cur.clone());
        self.cur = batch_flatten(self.cur.clone());
        let qw = QuantParams::new(0.02, 128);
        let w = self.rng.uniform_quantized([classes, self.c], DType::U8, qw);
        let attrs = QnnDenseAttrs {
            input_q: self.q,
            weight_q: qw,
            output_q: self.q,
            out_dtype: DType::U8,
        };
        self.cur = call(OpKind::QnnDense(attrs), vec![self.cur.clone(), constant(w)]);
        self.cur = call(
            OpKind::QnnDequantize(DequantizeAttrs { input: self.q }),
            vec![self.cur.clone()],
        );
        self.cur = softmax(self.cur.clone());
        let input = find_input(&self.cur);
        Module::from_main(Function::new(vec![input], self.cur.clone()))
    }
}

fn quant_model(name: &str, module: Module, q: QuantParams) -> Model {
    Model {
        name: name.into(),
        dtype: DType::U8,
        framework: Framework::Relay,
        module,
        input_name: "input".into(),
        input_shape: INPUT.to_vec(),
        input_quant: Some(q),
    }
}

/// Quantized MobileNet v1.
pub fn mobilenet_v1_quant(seed: u64) -> Model {
    let mut n = QNet::new(seed);
    let q = n.q;
    n.qconv(32, 3, 2, 1, true);
    for &(c, s) in &[(64usize, 1usize), (64, 2), (128, 1), (128, 2)] {
        let dw_c = n.c;
        n.qconv(dw_c, 3, s, dw_c, true); // depthwise
        n.qconv(c, 1, 1, 1, true); // pointwise
    }
    quant_model("mobilenet v1 quant", n.head(10), q)
}

/// Quantized MobileNet v2 (with quantized residual adds).
pub fn mobilenet_v2_quant(seed: u64) -> Model {
    let mut n = QNet::new(seed);
    let q = n.q;
    n.qconv(32, 3, 2, 1, true);
    for &(c, s) in &[(32usize, 1usize), (64, 2), (64, 1)] {
        let block_in = n.cur.clone();
        let in_c = n.c;
        n.qconv(in_c * 4, 1, 1, 1, true);
        let dw_c = n.c;
        n.qconv(dw_c, 3, s, dw_c, true);
        n.qconv(c, 1, 1, 1, false);
        if s == 1 && in_c == c {
            n.qadd_residual(block_in);
        }
    }
    quant_model("mobilenet v2 quant", n.head(10), q)
}

/// Quantized Inception v3 (branches concat at equal scales).
pub fn inception_v3_quant(seed: u64) -> Model {
    let mut n = QNet::new(seed);
    let q = n.q;
    n.qconv(32, 3, 2, 1, true).qconv(64, 3, 1, 1, true);
    // one quantized inception module
    let input = n.cur.clone();
    let in_c = n.c;
    n.qconv(32, 1, 1, 1, true);
    let br1 = n.cur.clone();
    n.cur = input.clone();
    n.c = in_c;
    n.qconv(32, 1, 1, 1, true).qconv(32, 3, 1, 1, true);
    let br3 = n.cur.clone();
    let attrs = tvmnp_relay::QnnConcatAttrs {
        axis: 1,
        input_qs: vec![q, q],
        output_q: q,
    };
    n.cur = call(OpKind::QnnConcatenate(attrs), vec![br1, br3]);
    n.c = 64;
    n.qconv(64, 3, 1, 1, true);
    quant_model("inception v3 quant", n.head(10), q)
}

/// The full Fig. 6 / Table 1 model list, in the paper's order, plus the
/// quantized variants §6 adds.
pub fn zoo(seed: u64) -> Vec<Model> {
    vec![
        densenet(seed),
        inception_resnet_v2(seed.wrapping_add(1)),
        inception_v3(seed.wrapping_add(2)),
        inception_v4(seed.wrapping_add(3)),
        mobilenet_v1(seed.wrapping_add(4)),
        mobilenet_v2(seed.wrapping_add(5)),
        nasnet(seed.wrapping_add(6)),
        inception_v3_quant(seed.wrapping_add(7)),
        mobilenet_v1_quant(seed.wrapping_add(8)),
        mobilenet_v2_quant(seed.wrapping_add(9)),
    ]
}

/// Table 1 rows: `(model, data type)`.
pub fn table1(seed: u64) -> Vec<(String, &'static str)> {
    zoo(seed)
        .into_iter()
        .map(|m| {
            let dt = if m.dtype == DType::F32 {
                "float32"
            } else {
                "int8"
            };
            (m.name, dt)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_neuropilot::support::first_unsupported;
    use tvmnp_relay::interp::run_module;
    use tvmnp_relay::passes::simplify;

    #[test]
    fn all_zoo_models_type_check_and_run() {
        for m in zoo(100) {
            let out = run_module(&m.module, &m.sample_inputs(1)).unwrap();
            assert_eq!(out.shape().dims(), &[1, 10], "{} head", m.name);
            let s: f32 = out.as_f32().unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "{} softmax sums to {s}", m.name);
        }
    }

    #[test]
    fn np_support_split_matches_figure6() {
        // Missing NP-only bars: densenet, inception-resnet-v2, nasnet.
        for m in zoo(100) {
            let simplified = simplify(&m.module);
            let gap = first_unsupported(simplified.main());
            let expect_missing = matches!(
                m.name.as_str(),
                "densenet" | "inception resnet v2" | "nasnet"
            );
            assert_eq!(gap.is_some(), expect_missing, "{}: gap = {gap:?}", m.name);
        }
    }

    #[test]
    fn table1_lists_ten_models_with_dtypes() {
        let t = table1(100);
        assert_eq!(t.len(), 10);
        assert_eq!(t.iter().filter(|(_, d)| *d == "float32").count(), 7);
        assert_eq!(t.iter().filter(|(_, d)| *d == "int8").count(), 3);
        assert_eq!(t[0].0, "densenet");
    }

    #[test]
    fn quant_models_are_integer_dominant() {
        for m in [
            mobilenet_v1_quant(1),
            mobilenet_v2_quant(2),
            inception_v3_quant(3),
        ] {
            let qnn = tvmnp_relay::visit::topo_order(&m.module.main().body)
                .iter()
                .filter(|e| e.op().is_some_and(|o| o.name().starts_with("qnn.")))
                .count();
            assert!(qnn >= 5, "{} has only {qnn} qnn ops", m.name);
        }
    }

    #[test]
    fn v4_heavier_than_v3() {
        let v3 = inception_v3(5);
        let v4 = inception_v4(5);
        assert!(v4.module.main().num_calls() > v3.module.main().num_calls());
    }

    #[test]
    fn mobilenet_v2_has_residual_add() {
        let m = mobilenet_v2(5);
        assert!(tvmnp_relay::visit::topo_order(&m.module.main().body)
            .iter()
            .any(|e| e.op().map(|o| o.name() == "add").unwrap_or(false)));
    }
}
