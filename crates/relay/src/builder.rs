//! Ergonomic graph-construction helpers used by the frontends and the
//! model zoo.

use crate::attrs::*;
use crate::expr::{call, constant, Expr};
use crate::infer::{type_body, TypeError, TypeMap};
use crate::op::OpKind;
use crate::ty::Type;
use tvmnp_tensor::Tensor;

/// Infer the type of a standalone expression: [`crate::infer::infer_types`]'
/// walk with no module context, so a `Global` call is an error. Vars use
/// their declared types.
pub fn expr_type(root: &Expr) -> Result<Type, TypeError> {
    type_body(root, &mut TypeMap::new(), None)
}

/// `nn.conv2d(x, w)`, weight given as a constant tensor.
pub fn conv2d(x: Expr, weight: Tensor, attrs: Conv2dAttrs) -> Expr {
    call(OpKind::Conv2d(attrs), vec![x, constant(weight)])
}

/// `nn.conv2d(x, w) + bias`.
pub fn conv2d_bias(x: Expr, weight: Tensor, bias: Tensor, attrs: Conv2dAttrs) -> Expr {
    call(
        OpKind::Conv2d(attrs),
        vec![x, constant(weight), constant(bias)],
    )
}

/// `nn.dense(x, w)`.
pub fn dense(x: Expr, weight: Tensor) -> Expr {
    call(OpKind::Dense, vec![x, constant(weight)])
}

/// `nn.dense(x, w) + bias`.
pub fn dense_bias(x: Expr, weight: Tensor, bias: Tensor) -> Expr {
    call(OpKind::Dense, vec![x, constant(weight), constant(bias)])
}

/// `nn.bias_add(x, b)`.
pub fn bias_add(x: Expr, bias: Tensor) -> Expr {
    call(OpKind::BiasAdd, vec![x, constant(bias)])
}

/// `nn.relu(x)`.
pub fn relu(x: Expr) -> Expr {
    call(OpKind::Relu, vec![x])
}

/// `clip(x, 0, 6)` — ReLU6 as TVM spells it.
pub fn relu6(x: Expr) -> Expr {
    call(OpKind::Clip(ClipAttrs { min: 0.0, max: 6.0 }), vec![x])
}

/// `nn.leaky_relu(x, alpha)`.
pub fn leaky_relu(x: Expr, alpha: f32) -> Expr {
    call(OpKind::LeakyRelu(LeakyReluAttrs { alpha }), vec![x])
}

/// `sigmoid(x)`.
pub fn sigmoid(x: Expr) -> Expr {
    call(OpKind::Sigmoid, vec![x])
}

/// `nn.batch_norm` with constant parameters.
pub fn batch_norm(
    x: Expr,
    gamma: Tensor,
    beta: Tensor,
    mean: Tensor,
    var: Tensor,
    epsilon: f32,
) -> Expr {
    call(
        OpKind::BatchNorm(BatchNormAttrs { epsilon }),
        vec![
            x,
            constant(gamma),
            constant(beta),
            constant(mean),
            constant(var),
        ],
    )
}

/// `nn.max_pool2d`.
pub fn max_pool2d(x: Expr, attrs: Pool2dAttrs) -> Expr {
    call(OpKind::MaxPool2d(attrs), vec![x])
}

/// `nn.avg_pool2d`.
pub fn avg_pool2d(x: Expr, attrs: Pool2dAttrs) -> Expr {
    call(OpKind::AvgPool2d(attrs), vec![x])
}

/// `nn.global_avg_pool2d`.
pub fn global_avg_pool2d(x: Expr) -> Expr {
    call(OpKind::GlobalAvgPool2d, vec![x])
}

/// `nn.softmax`.
pub fn softmax(x: Expr) -> Expr {
    call(OpKind::Softmax, vec![x])
}

/// `add(a, b)`.
pub fn add(a: Expr, b: Expr) -> Expr {
    call(OpKind::Add, vec![a, b])
}

/// `multiply(a, b)`.
pub fn multiply(a: Expr, b: Expr) -> Expr {
    call(OpKind::Multiply, vec![a, b])
}

/// `concatenate(...)` along `axis`.
pub fn concatenate(parts: Vec<Expr>, axis: usize) -> Expr {
    call(OpKind::Concatenate(ConcatAttrs { axis }), parts)
}

/// `reshape(x, shape)`.
pub fn reshape(x: Expr, new_shape: Vec<usize>) -> Expr {
    call(OpKind::Reshape(ReshapeAttrs { new_shape }), vec![x])
}

/// `nn.batch_flatten(x)`.
pub fn batch_flatten(x: Expr) -> Expr {
    call(OpKind::BatchFlatten, vec![x])
}

/// `nn.dropout(x)` (inference identity).
pub fn dropout(x: Expr) -> Expr {
    call(OpKind::Dropout, vec![x])
}

/// `transpose(x, axes)`.
pub fn transpose(x: Expr, axes: Vec<usize>) -> Expr {
    call(OpKind::Transpose(TransposeAttrs { axes }), vec![x])
}

/// `mean(x, axes)`.
pub fn mean(x: Expr, axes: Vec<usize>) -> Expr {
    call(OpKind::Mean(MeanAttrs { axes }), vec![x])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::var;
    use crate::ty::TensorType;
    use tvmnp_tensor::rng::TensorRng;

    #[test]
    fn chained_builder_types() {
        let mut rng = TensorRng::new(1);
        let x = var("x", TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([8, 3, 3, 3], -1.0, 1.0);
        let y = relu(conv2d(x, w, Conv2dAttrs::same(1)));
        let t = expr_type(&y).unwrap();
        assert_eq!(t.as_tensor().shape.dims(), &[1, 8, 8, 8]);
    }

    #[test]
    fn expr_type_rejects_global() {
        let x = var("x", TensorType::f32([1]));
        let g = crate::expr::call_global("f", vec![x]);
        assert!(expr_type(&g).is_err());
    }
}
