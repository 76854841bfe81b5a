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
//! Generation is building. Each op is built with `relay::builder` and typed
//! by Relay's checker (`builder::expr_type`) as it is drawn or replayed,
//! and the checker is the one judge of whether it applies: this module
//! states no shape rule of its own. The generator reads each node's
//! `(c, h, w)` off its type to choose operands (even planes for the pools,
//! the latest node's shape for the binary ops, its plane for concat), so
//! every draw builds; a spec the checker refuses — from the shrinker or a
//! `.repro` file — fails [`build_case`] with the checker's message.
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
use tvmnp_relay::expr::{call, var, Expr, Function, Module};
use tvmnp_relay::passes::quantize_with_calibration;
use tvmnp_relay::{Conv2dAttrs, OpKind, Pool2dAttrs, TensorType};
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
    /// `nn.max_pool2d` 2×2/2 (halves spatial dims, an odd one rounding
    /// down).
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
    /// Broadcasting `add` (the generator draws same-shape pairs).
    Add {
        /// Left operand node.
        lhs: usize,
        /// Right operand node.
        rhs: usize,
    },
    /// Broadcasting `multiply` (float vocabulary only).
    Multiply {
        /// Left operand node.
        lhs: usize,
        /// Right operand node.
        rhs: usize,
    },
    /// Broadcasting `maximum` (float vocabulary only).
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
    pub(crate) fn primary_operand(&self) -> usize {
        self.operands()[0]
    }

    /// Rewrite operand indices through `f`.
    pub(crate) fn map_operands(&mut self, f: impl Fn(usize) -> usize) {
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

/// A spec that cannot be realized as a well-typed module: Relay's type
/// checker refused an op (an operand index out of range included), or the
/// quantizer rejected the graph.
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

/// A built node: its expression and its `(c, h, w)`, read off the type
/// Relay's checker gave it.
struct Node {
    expr: Expr,
    chw: (usize, usize, usize),
}

/// The input variable `x` of a spec.
fn input_node(spec: &GraphSpec) -> Node {
    let shape = [1, spec.in_channels, spec.height, spec.width];
    Node {
        expr: var("x", TensorType::f32(shape)),
        chw: (spec.in_channels, spec.height, spec.width),
    }
}

/// Build op `j` over the earlier `nodes` — its weights drawn from
/// `op_seed(seed, j)` — and type it. Relay's type checker is the one
/// judge of whether the op applies; an operand index past the nodes built
/// so far is refused too.
fn push_op(nodes: &[Node], op: &SpecOp, seed: u64, j: usize) -> Result<Node, SpecError> {
    let node = |i: usize| {
        (nodes.get(i)).ok_or_else(|| SpecError(format!("op {j}: operand {i} out of range")))
    };
    let x = |i: usize| node(i).map(|n| n.expr.clone());
    let mut rng = TensorRng::new(op_seed(seed, j));
    let expr = match *op {
        SpecOp::Conv2d {
            input,
            out_channels,
            kernel,
            bias,
        } => {
            let (c_in, _, _) = node(input)?.chw;
            let w = rng.uniform_f32([out_channels, c_in, kernel, kernel], -0.5, 0.5);
            let attrs = Conv2dAttrs::same(kernel / 2);
            if bias {
                let b = rng.uniform_f32([out_channels], -0.2, 0.2);
                builder::conv2d_bias(x(input)?, w, b, attrs)
            } else {
                builder::conv2d(x(input)?, w, attrs)
            }
        }
        SpecOp::Relu { input } => builder::relu(x(input)?),
        SpecOp::Sigmoid { input } => builder::sigmoid(x(input)?),
        SpecOp::MaxPool { input } => builder::max_pool2d(x(input)?, Pool2dAttrs::square(2)),
        SpecOp::AvgPool { input } => builder::avg_pool2d(x(input)?, Pool2dAttrs::square(2)),
        SpecOp::GlobalAvgPool { input } => builder::global_avg_pool2d(x(input)?),
        SpecOp::Add { lhs, rhs } => builder::add(x(lhs)?, x(rhs)?),
        SpecOp::Multiply { lhs, rhs } => builder::multiply(x(lhs)?, x(rhs)?),
        SpecOp::Maximum { lhs, rhs } => call(OpKind::Maximum, vec![x(lhs)?, x(rhs)?]),
        SpecOp::Concat { lhs, rhs } => builder::concatenate(vec![x(lhs)?, x(rhs)?], 1),
        SpecOp::Reshape { input } => {
            let (c, h, w) = node(input)?.chw;
            builder::reshape(x(input)?, vec![1, c, w, h])
        }
        SpecOp::BatchNorm { input } => {
            let (c, _, _) = node(input)?.chw;
            builder::batch_norm(
                x(input)?,
                rng.uniform_f32([c], 0.9, 1.1),
                rng.uniform_f32([c], -0.1, 0.1),
                rng.uniform_f32([c], -0.1, 0.1),
                rng.uniform_f32([c], 0.9, 1.1),
                1e-5,
            )
        }
        SpecOp::Exp { input } => call(OpKind::Exp, vec![x(input)?]),
    };
    let ty = builder::expr_type(&expr).map_err(|e| SpecError(format!("op {j}: {e}")))?;
    match ty.tensor().map(|t| t.shape.dims()) {
        Some(&[_, c, h, w]) => Ok(Node {
            expr,
            chw: (c, h, w),
        }),
        _ => Err(SpecError(format!("op {j}: {ty} is not an NCHW tensor"))),
    }
}

/// Realize a spec as a Relay module plus deterministic inputs. Quantized
/// specs are built float-first and rewritten through the post-training
/// quantizer with seeded calibration inputs.
pub fn build_case(spec: &GraphSpec) -> Result<BuiltCase, SpecError> {
    let mut nodes = vec![input_node(spec)];
    for (j, op) in spec.ops.iter().enumerate() {
        let node = push_op(&nodes, op, spec.seed, j)?;
        nodes.push(node);
    }
    let x = nodes[0].expr.clone();
    let body = nodes.last().expect("at least the input node").expr.clone();
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

/// Draw a random, always-buildable spec for `case_seed`, building each
/// drawn op as it goes: operands are chosen by the `(c, h, w)` of the
/// nodes built so far.
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
    let mut nodes = vec![input_node(&spec)];

    for j in 0..num_ops {
        // Bias operand choice toward recent nodes so most ops stay live on
        // the path to the output; older picks create sharing/branching.
        let pick = |rng: &mut SmallRng, candidates: &[usize]| -> usize {
            let back = rng.gen_range(0..candidates.len().min(3));
            candidates[candidates.len() - 1 - back]
        };
        let all: Vec<usize> = (0..nodes.len()).collect();
        let latest = nodes.len() - 1;
        let (_, h, w) = nodes[latest].chw;
        let drawn = |keep: &dyn Fn((usize, usize, usize)) -> bool| -> Vec<usize> {
            all.iter()
                .copied()
                .filter(|&i| keep(nodes[i].chw))
                .collect()
        };
        // Pools on even planes; binary partners of the latest node's
        // shape; concat partners of its plane.
        let poolable = drawn(&|(_, h, w)| h >= 2 && w >= 2 && h % 2 == 0 && w % 2 == 0);
        let binary_partner = drawn(&|chw| chw == nodes[latest].chw);
        let concat_partner = drawn(&|(_, ph, pw)| (ph, pw) == (h, w));

        let roll = rng.gen_range(0..100u32);
        let op = if !quantize && roll < 18 {
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
        let node = push_op(&nodes, &op, case_seed, j)
            .unwrap_or_else(|e| panic!("seed {case_seed}: a drawn op must type-check: {e}"));
        nodes.push(node);
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

    /// Relay types a 2×2 pool on a 3×3 plane (the window count floors)
    /// and an add of a one-channel node to a three-channel one (it
    /// broadcasts), so both build, float and quantized, and conform on
    /// every permutation.
    #[test]
    fn what_relay_types_builds_and_conforms() {
        let spec = |in_channels, height, ops, quantize| GraphSpec {
            seed: 7,
            in_channels,
            height,
            width: height,
            quantize,
            ops,
        };
        let odd_plane = vec![SpecOp::MaxPool { input: 0 }, SpecOp::AvgPool { input: 0 }];
        let one_channel = SpecOp::Conv2d {
            input: 0,
            out_channels: 1,
            kernel: 3,
            bias: true,
        };
        let broadcast = vec![one_channel, SpecOp::Add { lhs: 1, rhs: 0 }];
        for quantize in [false, true] {
            for spec in [
                spec(2, 3, odd_plane.clone(), quantize),
                spec(3, 4, broadcast.clone(), quantize),
            ] {
                build_case(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
                let out = crate::check_case(&spec, &crate::CheckOptions::default())
                    .unwrap_or_else(|e| panic!("{spec}: {e}"));
                assert_eq!(out.permutations_compared + out.permutations_skipped, 7);
            }
        }
    }

    /// What Relay refuses, the spec refuses, naming the op.
    #[test]
    fn what_relay_refuses_is_a_spec_error() {
        let spec = |ops| GraphSpec {
            seed: 1,
            in_channels: 2,
            height: 4,
            width: 4,
            quantize: false,
            ops,
        };
        let pooled_concat = vec![
            SpecOp::MaxPool { input: 0 },
            SpecOp::Concat { lhs: 1, rhs: 0 },
        ];
        let conv = SpecOp::Conv2d {
            input: 0,
            out_channels: 3,
            kernel: 1,
            bias: false,
        };
        let mismatched_add = vec![conv, SpecOp::Add { lhs: 1, rhs: 0 }];
        for (ops, op) in [(pooled_concat, "concatenate"), (mismatched_add, "add")] {
            let err = build_case(&spec(ops)).err().expect("refused").to_string();
            assert!(err.contains("op 1") && err.contains(op), "{err}");
        }
    }

    /// An operand names an earlier node: one built by a later op is out of
    /// range when this op is built, even though the spec holds it.
    #[test]
    fn a_forward_operand_reference_is_out_of_range() {
        let spec = GraphSpec {
            seed: 1,
            in_channels: 2,
            height: 4,
            width: 4,
            quantize: false,
            ops: vec![SpecOp::Relu { input: 2 }, SpecOp::Relu { input: 0 }],
        };
        let err = build_case(&spec).err().expect("refused").to_string();
        assert!(err.contains("op 0: operand 2 out of range"), "{err}");
    }

    /// The dims of a node, as Relay's checker types the spec's float graph
    /// up to it.
    fn dims_of(spec: &GraphSpec, node: usize) -> Vec<usize> {
        let prefix = GraphSpec {
            ops: spec.ops[..node].to_vec(),
            quantize: false,
            ..spec.clone()
        };
        let built = build_case(&prefix).unwrap_or_else(|e| panic!("{prefix}: {e}"));
        let ty = builder::expr_type(&built.module.main().body).unwrap();
        ty.tensor().expect("a tensor").shape.dims().to_vec()
    }

    /// A conv's channels, a pool's floored plane, concat's channel sum
    /// and reshape's swapped plane are all read off the node types, so
    /// later ops size their weights from them.
    #[test]
    fn node_dims_come_from_relay_types() {
        let spec = GraphSpec {
            seed: 5,
            in_channels: 2,
            height: 5,
            width: 7,
            quantize: false,
            ops: vec![
                SpecOp::Conv2d {
                    input: 0,
                    out_channels: 3,
                    kernel: 3,
                    bias: true,
                },
                SpecOp::MaxPool { input: 1 },
                SpecOp::Concat { lhs: 2, rhs: 2 },
                SpecOp::Reshape { input: 3 },
                SpecOp::BatchNorm { input: 4 },
                SpecOp::Conv2d {
                    input: 5,
                    out_channels: 1,
                    kernel: 1,
                    bias: false,
                },
            ],
        };
        let want: [&[usize]; 7] = [
            &[1, 2, 5, 7],
            &[1, 3, 5, 7],
            &[1, 3, 2, 3],
            &[1, 6, 2, 3],
            &[1, 6, 3, 2],
            &[1, 6, 3, 2],
            &[1, 1, 3, 2],
        ];
        for (node, want) in want.into_iter().enumerate() {
            assert_eq!(dims_of(&spec, node), want, "node {node}");
        }
    }

    /// The generator draws pools on even planes, binary ops of the latest
    /// node with a partner of its shape, and concats of the latest node
    /// with a partner of its plane, as Relay types the nodes.
    #[test]
    fn drawn_operands_follow_the_partner_rules() {
        for seed in 0..40u64 {
            let spec = random_spec(seed, seed % 3 == 2);
            for (j, op) in spec.ops.iter().enumerate() {
                let dims = |node| dims_of(&spec, node);
                match *op {
                    SpecOp::MaxPool { input } | SpecOp::AvgPool { input } => {
                        let d = dims(input);
                        assert!(d[2] % 2 == 0 && d[3] % 2 == 0, "seed {seed} op {j}: {d:?}");
                    }
                    SpecOp::Add { lhs, rhs }
                    | SpecOp::Multiply { lhs, rhs }
                    | SpecOp::Maximum { lhs, rhs } => {
                        assert_eq!(lhs, j, "seed {seed} op {j}");
                        assert_eq!(dims(lhs), dims(rhs), "seed {seed} op {j}");
                    }
                    SpecOp::Concat { lhs, rhs } => {
                        assert_eq!(lhs, j, "seed {seed} op {j}");
                        assert_eq!(dims(lhs)[2..], dims(rhs)[2..], "seed {seed} op {j}");
                    }
                    _ => {}
                }
            }
        }
    }

    /// A quantized spec is typed float-first: what the checker refuses is
    /// named by op before the quantizer sees the graph.
    #[test]
    fn a_quantized_spec_the_checker_refuses_never_reaches_the_quantizer() {
        let spec = GraphSpec {
            seed: 2,
            in_channels: 2,
            height: 4,
            width: 4,
            quantize: true,
            ops: vec![
                SpecOp::Conv2d {
                    input: 0,
                    out_channels: 3,
                    kernel: 1,
                    bias: false,
                },
                SpecOp::Add { lhs: 1, rhs: 0 },
            ],
        };
        let err = build_case(&spec).err().expect("refused").to_string();
        assert!(
            err.contains("op 1: type error: add") && !err.contains("quantizer"),
            "{err}"
        );
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
