//! Seeded random Relay graph generation.
//!
//! A case is described by a [`GraphSpec`] — a tiny serializable DSL, not a
//! Relay module — so that failing cases can be written to `.repro` files,
//! shrunk structurally, and rebuilt bit-identically in another process.
//! Node 0 is the input variable; op `j` produces node `j + 1`; operands
//! reference earlier node indices, so reusing an index yields shared
//! subexpressions and branching DAGs. The generated output expression is
//! the last node, so trailing ops are always live.
//!
//! Two vocabularies are drawn from:
//! - float mode mixes NeuroPilot-supported ops with `nn.batch_norm` /
//!   `exp` (deliberately unsupported, the paper's "missing bars"), so
//!   BYOC partitions are non-trivial and NP-only builds exercise the
//!   `Unsupported` path;
//! - quantized mode restricts to ops the post-training quantizer maps,
//!   builds the float graph, and rewrites it through
//!   `quantize_with_calibration` into the QNN dialect (§3.3).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use tvmnp_relay::builder;
use tvmnp_relay::expr::{var, Expr, Function, Module};
use tvmnp_relay::passes::quantize_with_calibration;
use tvmnp_relay::{Conv2dAttrs, Pool2dAttrs, TensorType};
use tvmnp_tensor::rng::TensorRng;
use tvmnp_tensor::Tensor;

/// One generated operator. Operand fields are node indices (0 = the input
/// variable, `j + 1` = the result of `ops[j]`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpecOp {
    /// `nn.conv2d`, stride 1, same padding, square `kernel` ∈ {1, 3}.
    Conv2d {
        /// Operand node.
        input: usize,
        /// Output channel count.
        out_channels: usize,
        /// Square kernel extent (1 or 3).
        kernel: usize,
        /// Whether a constant bias rides along.
        bias: bool,
    },
    /// `nn.relu`.
    Relu {
        /// Operand node.
        input: usize,
    },
    /// `sigmoid` (float vocabulary only).
    Sigmoid {
        /// Operand node.
        input: usize,
    },
    /// `nn.max_pool2d` 2×2/2 (halves spatial dims).
    MaxPool {
        /// Operand node.
        input: usize,
    },
    /// `nn.avg_pool2d` 2×2/2.
    AvgPool {
        /// Operand node.
        input: usize,
    },
    /// `nn.global_avg_pool2d` (spatial dims collapse to 1×1).
    GlobalAvgPool {
        /// Operand node.
        input: usize,
    },
    /// Elementwise `add` of two same-shape nodes.
    Add {
        /// Left operand node.
        lhs: usize,
        /// Right operand node.
        rhs: usize,
    },
    /// Elementwise `multiply` (float vocabulary only).
    Multiply {
        /// Left operand node.
        lhs: usize,
        /// Right operand node.
        rhs: usize,
    },
    /// Elementwise `maximum` (float vocabulary only).
    Maximum {
        /// Left operand node.
        lhs: usize,
        /// Right operand node.
        rhs: usize,
    },
    /// `concatenate` along the channel axis (operands share H×W).
    Concat {
        /// Left operand node.
        lhs: usize,
        /// Right operand node.
        rhs: usize,
    },
    /// `reshape` swapping H and W (pure data movement, rank preserved).
    Reshape {
        /// Operand node.
        input: usize,
    },
    /// `nn.batch_norm` — NeuroPilot-unsupported, forces partition splits.
    BatchNorm {
        /// Operand node.
        input: usize,
    },
    /// `exp` — NeuroPilot-unsupported.
    Exp {
        /// Operand node.
        input: usize,
    },
}

impl SpecOp {
    /// Operand node indices.
    pub fn operands(&self) -> Vec<usize> {
        match *self {
            SpecOp::Conv2d { input, .. }
            | SpecOp::Relu { input }
            | SpecOp::Sigmoid { input }
            | SpecOp::MaxPool { input }
            | SpecOp::AvgPool { input }
            | SpecOp::GlobalAvgPool { input }
            | SpecOp::Reshape { input }
            | SpecOp::BatchNorm { input }
            | SpecOp::Exp { input } => vec![input],
            SpecOp::Add { lhs, rhs }
            | SpecOp::Multiply { lhs, rhs }
            | SpecOp::Maximum { lhs, rhs }
            | SpecOp::Concat { lhs, rhs } => vec![lhs, rhs],
        }
    }

    /// The operand consumers fall back to when this op is deleted.
    pub fn primary_operand(&self) -> usize {
        self.operands()[0]
    }

    /// Rewrite operand indices through `f`.
    pub fn map_operands(&mut self, f: impl Fn(usize) -> usize) {
        match self {
            SpecOp::Conv2d { input, .. }
            | SpecOp::Relu { input }
            | SpecOp::Sigmoid { input }
            | SpecOp::MaxPool { input }
            | SpecOp::AvgPool { input }
            | SpecOp::GlobalAvgPool { input }
            | SpecOp::Reshape { input }
            | SpecOp::BatchNorm { input }
            | SpecOp::Exp { input } => *input = f(*input),
            SpecOp::Add { lhs, rhs }
            | SpecOp::Multiply { lhs, rhs }
            | SpecOp::Maximum { lhs, rhs }
            | SpecOp::Concat { lhs, rhs } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
        }
    }
}

/// A self-contained conformance case: everything needed to rebuild the
/// module, its weights, and its input tensor deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphSpec {
    /// Seeds the weight/input/calibration tensors.
    pub seed: u64,
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Whether the float graph is rewritten into the QNN dialect.
    pub quantize: bool,
    /// The operator list; op `j` produces node `j + 1`.
    pub ops: Vec<SpecOp>,
}

impl GraphSpec {
    /// Total node count (input + one per op).
    pub fn num_nodes(&self) -> usize {
        self.ops.len() + 1
    }
}

impl fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} input=1x{}x{}x{} quantize={} ops={}",
            self.seed,
            self.in_channels,
            self.height,
            self.width,
            self.quantize,
            self.ops.len()
        )
    }
}

/// A spec that cannot be realized as a well-typed module (shape rules
/// violated after shrinking, or the quantizer rejected the graph).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// A realized case: the module plus a deterministic input binding.
pub struct BuiltCase {
    /// The Relay module (QNN dialect when the spec asks for it).
    pub module: Module,
    /// Named input tensors for `main`.
    pub inputs: HashMap<String, Tensor>,
}

/// (channels, height, width) of each node during building/generation.
type NodeShape = (usize, usize, usize);

fn shape_after(op: &SpecOp, shapes: &[NodeShape]) -> Result<NodeShape, SpecError> {
    let get = |i: usize| -> Result<NodeShape, SpecError> {
        shapes
            .get(i)
            .copied()
            .ok_or_else(|| SpecError(format!("operand {i} out of range")))
    };
    match *op {
        SpecOp::Conv2d {
            input,
            out_channels,
            kernel,
            ..
        } => {
            let (_, h, w) = get(input)?;
            if kernel != 1 && kernel != 3 {
                return Err(SpecError(format!("conv kernel {kernel} not in {{1,3}}")));
            }
            if out_channels == 0 {
                return Err(SpecError("conv with zero output channels".into()));
            }
            Ok((out_channels, h, w))
        }
        SpecOp::Relu { input }
        | SpecOp::Sigmoid { input }
        | SpecOp::BatchNorm { input }
        | SpecOp::Exp { input } => get(input),
        SpecOp::MaxPool { input } | SpecOp::AvgPool { input } => {
            let (c, h, w) = get(input)?;
            if h < 2 || w < 2 || h % 2 != 0 || w % 2 != 0 {
                return Err(SpecError(format!("pool needs even dims >= 2, got {h}x{w}")));
            }
            Ok((c, h / 2, w / 2))
        }
        SpecOp::GlobalAvgPool { input } => {
            let (c, _, _) = get(input)?;
            Ok((c, 1, 1))
        }
        SpecOp::Add { lhs, rhs } | SpecOp::Multiply { lhs, rhs } | SpecOp::Maximum { lhs, rhs } => {
            let a = get(lhs)?;
            let b = get(rhs)?;
            if a != b {
                return Err(SpecError(format!("binary op on {a:?} vs {b:?}")));
            }
            Ok(a)
        }
        SpecOp::Concat { lhs, rhs } => {
            let (ca, ha, wa) = get(lhs)?;
            let (cb, hb, wb) = get(rhs)?;
            if (ha, wa) != (hb, wb) {
                return Err(SpecError(format!(
                    "concat on {ha}x{wa} vs {hb}x{wb} spatial dims"
                )));
            }
            Ok((ca + cb, ha, wa))
        }
        SpecOp::Reshape { input } => {
            let (c, h, w) = get(input)?;
            Ok((c, w, h))
        }
    }
}

/// Node shapes implied by a spec, or the first shape-rule violation.
pub fn node_shapes(spec: &GraphSpec) -> Result<Vec<NodeShape>, SpecError> {
    if spec.in_channels == 0 || spec.height == 0 || spec.width == 0 {
        return Err(SpecError("degenerate input shape".into()));
    }
    let mut shapes: Vec<NodeShape> = vec![(spec.in_channels, spec.height, spec.width)];
    for (j, op) in spec.ops.iter().enumerate() {
        for &o in &op.operands() {
            if o > j {
                return Err(SpecError(format!("op {j} references future node {o}")));
            }
        }
        let s = shape_after(op, &shapes)?;
        shapes.push(s);
    }
    Ok(shapes)
}

/// Mix a per-op weight seed out of the case seed (splitmix64 step — the
/// spec stays stable even if ops are removed around this one).
fn op_seed(case_seed: u64, j: usize) -> u64 {
    let mut z = case_seed
        .wrapping_add(0x9e3779b97f4a7c15)
        .wrapping_add((j as u64).wrapping_mul(0xbf58476d1ce4e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Realize a spec as a Relay module plus deterministic inputs. Quantized
/// specs are built float-first and rewritten through the post-training
/// quantizer with seeded calibration inputs.
pub fn build_case(spec: &GraphSpec) -> Result<BuiltCase, SpecError> {
    let shapes = node_shapes(spec)?;
    let x = var(
        "x",
        TensorType::f32([1, spec.in_channels, spec.height, spec.width]),
    );
    let mut nodes: Vec<Expr> = vec![x.clone()];
    for (j, op) in spec.ops.iter().enumerate() {
        let mut rng = TensorRng::new(op_seed(spec.seed, j));
        let e = match *op {
            SpecOp::Conv2d {
                input,
                out_channels,
                kernel,
                bias,
            } => {
                let (c_in, _, _) = shapes[input];
                let w = rng.uniform_f32([out_channels, c_in, kernel, kernel], -0.5, 0.5);
                let attrs = Conv2dAttrs::same(kernel / 2);
                if bias {
                    let b = rng.uniform_f32([out_channels], -0.2, 0.2);
                    builder::conv2d_bias(nodes[input].clone(), w, b, attrs)
                } else {
                    builder::conv2d(nodes[input].clone(), w, attrs)
                }
            }
            SpecOp::Relu { input } => builder::relu(nodes[input].clone()),
            SpecOp::Sigmoid { input } => builder::sigmoid(nodes[input].clone()),
            SpecOp::MaxPool { input } => {
                builder::max_pool2d(nodes[input].clone(), Pool2dAttrs::square(2))
            }
            SpecOp::AvgPool { input } => {
                builder::avg_pool2d(nodes[input].clone(), Pool2dAttrs::square(2))
            }
            SpecOp::GlobalAvgPool { input } => builder::global_avg_pool2d(nodes[input].clone()),
            SpecOp::Add { lhs, rhs } => builder::add(nodes[lhs].clone(), nodes[rhs].clone()),
            SpecOp::Multiply { lhs, rhs } => {
                builder::multiply(nodes[lhs].clone(), nodes[rhs].clone())
            }
            SpecOp::Maximum { lhs, rhs } => tvmnp_relay::expr::call(
                tvmnp_relay::OpKind::Maximum,
                vec![nodes[lhs].clone(), nodes[rhs].clone()],
            ),
            SpecOp::Concat { lhs, rhs } => {
                builder::concatenate(vec![nodes[lhs].clone(), nodes[rhs].clone()], 1)
            }
            SpecOp::Reshape { input } => {
                let (c, h, w) = shapes[input];
                builder::reshape(nodes[input].clone(), vec![1, c, w, h])
            }
            SpecOp::BatchNorm { input } => {
                let (c, _, _) = shapes[input];
                builder::batch_norm(
                    nodes[input].clone(),
                    rng.uniform_f32([c], 0.9, 1.1),
                    rng.uniform_f32([c], -0.1, 0.1),
                    rng.uniform_f32([c], -0.1, 0.1),
                    rng.uniform_f32([c], 0.9, 1.1),
                    1e-5,
                )
            }
            SpecOp::Exp { input } => {
                tvmnp_relay::expr::call(tvmnp_relay::OpKind::Exp, vec![nodes[input].clone()])
            }
        };
        nodes.push(e);
    }
    let body = nodes.last().expect("at least the input node").clone();
    let module = Module::from_main(Function::new(vec![x], body));

    let input_shape = [1, spec.in_channels, spec.height, spec.width];
    let mut inputs = HashMap::new();
    inputs.insert(
        "x".to_string(),
        TensorRng::new(spec.seed).uniform_f32(input_shape, -1.0, 1.0),
    );

    let module = if spec.quantize {
        let calibration: Vec<HashMap<String, Tensor>> = (1..=2u64)
            .map(|k| {
                let mut m = HashMap::new();
                m.insert(
                    "x".to_string(),
                    TensorRng::new(spec.seed.wrapping_add(k)).uniform_f32(input_shape, -1.0, 1.0),
                );
                m
            })
            .collect();
        quantize_with_calibration(&module, &calibration)
            .map_err(|e| SpecError(format!("quantizer rejected spec: {e}")))?
    } else {
        module
    };

    Ok(BuiltCase { module, inputs })
}

/// Draw a random, always-buildable spec for `case_seed`.
///
/// Quantized specs restrict the vocabulary to quantizer-supported ops;
/// float specs sprinkle in NeuroPilot-unsupported ops (~1 in 5 draws) so
/// the BYOC partitioner has real work and NP-only builds hit the
/// `Unsupported` path.
pub fn random_spec(case_seed: u64, quantize: bool) -> GraphSpec {
    let mut rng = SmallRng::seed_from_u64(case_seed ^ 0xc0f0_95ce_d15c_0de5);
    let in_channels = rng.gen_range(1..=3usize);
    let height = 2 * rng.gen_range(2..=4usize); // 4, 6, 8 — even for pooling
    let width = 2 * rng.gen_range(2..=4usize);
    let num_ops = rng.gen_range(3..=10usize);

    let mut spec = GraphSpec {
        seed: case_seed,
        in_channels,
        height,
        width,
        quantize,
        ops: Vec::new(),
    };
    let mut shapes: Vec<NodeShape> = vec![(in_channels, height, width)];

    for _ in 0..num_ops {
        // Bias operand choice toward recent nodes so most ops stay live on
        // the path to the output; older picks create sharing/branching.
        let pick = |rng: &mut SmallRng, candidates: &[usize]| -> usize {
            let back = rng.gen_range(0..candidates.len().min(3));
            candidates[candidates.len() - 1 - back]
        };
        let all: Vec<usize> = (0..shapes.len()).collect();
        let poolable: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| {
                let (_, h, w) = shapes[i];
                h >= 2 && w >= 2 && h % 2 == 0 && w % 2 == 0
            })
            .collect();
        // Same-shape pairs for binary ops: group nodes by shape.
        let mut by_shape: HashMap<NodeShape, Vec<usize>> = HashMap::new();
        for (i, &s) in shapes.iter().enumerate() {
            by_shape.entry(s).or_default().push(i);
        }
        let latest = shapes.len() - 1;
        let binary_partner: Vec<usize> = by_shape[&shapes[latest]].clone();
        // Concat partners only need matching spatial dims.
        let concat_partner: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| (shapes[i].1, shapes[i].2) == (shapes[latest].1, shapes[latest].2))
            .collect();

        let op = loop {
            let roll = rng.gen_range(0..100u32);
            let candidate = if !quantize && roll < 18 {
                // NP-unsupported draw (float vocabulary only).
                if rng.gen_bool(0.5) {
                    SpecOp::BatchNorm {
                        input: pick(&mut rng, &all),
                    }
                } else {
                    SpecOp::Exp {
                        input: pick(&mut rng, &all),
                    }
                }
            } else if roll < 40 {
                SpecOp::Conv2d {
                    input: pick(&mut rng, &all),
                    out_channels: rng.gen_range(1..=4usize),
                    kernel: if rng.gen_bool(0.5) { 1 } else { 3 },
                    bias: rng.gen_bool(0.5),
                }
            } else if roll < 50 {
                SpecOp::Relu {
                    input: pick(&mut rng, &all),
                }
            } else if roll < 56 && !quantize {
                SpecOp::Sigmoid {
                    input: pick(&mut rng, &all),
                }
            } else if roll < 62 && !poolable.is_empty() {
                if rng.gen_bool(0.5) {
                    SpecOp::MaxPool {
                        input: pick(&mut rng, &poolable),
                    }
                } else {
                    SpecOp::AvgPool {
                        input: pick(&mut rng, &poolable),
                    }
                }
            } else if roll < 66 {
                SpecOp::GlobalAvgPool {
                    input: pick(&mut rng, &all),
                }
            } else if roll < 78 {
                let partner = pick(&mut rng, &binary_partner);
                if quantize {
                    SpecOp::Add {
                        lhs: latest,
                        rhs: partner,
                    }
                } else {
                    match rng.gen_range(0..3u32) {
                        0 => SpecOp::Add {
                            lhs: latest,
                            rhs: partner,
                        },
                        1 => SpecOp::Multiply {
                            lhs: latest,
                            rhs: partner,
                        },
                        _ => SpecOp::Maximum {
                            lhs: latest,
                            rhs: partner,
                        },
                    }
                }
            } else if roll < 90 {
                SpecOp::Concat {
                    lhs: latest,
                    rhs: pick(&mut rng, &concat_partner),
                }
            } else {
                SpecOp::Reshape {
                    input: pick(&mut rng, &all),
                }
            };
            if shape_after(&candidate, &shapes).is_ok() {
                break candidate;
            }
        };
        let s = shape_after(&op, &shapes).expect("validated above");
        shapes.push(s);
        spec.ops.push(op);
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_relay::module_fingerprint;

    #[test]
    fn random_specs_always_build() {
        for seed in 0..60u64 {
            let spec = random_spec(seed, seed % 3 == 2);
            let built = build_case(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(built.inputs.contains_key("x"));
            assert!(!spec.ops.is_empty());
        }
    }

    #[test]
    fn build_is_deterministic_across_calls() {
        let spec = random_spec(11, false);
        let a = build_case(&spec).unwrap();
        let b = build_case(&spec).unwrap();
        assert_eq!(module_fingerprint(&a.module), module_fingerprint(&b.module));
        assert!(a.inputs["x"].bit_eq(&b.inputs["x"]));
    }

    #[test]
    fn invalid_operand_reference_is_rejected() {
        let spec = GraphSpec {
            seed: 1,
            in_channels: 2,
            height: 4,
            width: 4,
            quantize: false,
            ops: vec![SpecOp::Relu { input: 5 }],
        };
        assert!(build_case(&spec).is_err());
    }

    #[test]
    fn float_specs_eventually_draw_unsupported_ops() {
        let mut saw_unsupported = false;
        for seed in 0..40u64 {
            let spec = random_spec(seed, false);
            saw_unsupported |= (spec.ops.iter())
                .any(|o| matches!(o, SpecOp::BatchNorm { .. } | SpecOp::Exp { .. }));
        }
        assert!(saw_unsupported, "generator never mixed in unsupported ops");
    }
}
