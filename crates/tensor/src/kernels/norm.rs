//! Normalization-family kernels (inference mode).

use super::{kerr, KernelError};
use crate::tensor::Tensor;

/// Inference-mode batch norm parameters (per channel, axis 1 of NCHW).
#[derive(Debug, Clone, Copy)]
pub struct BatchNormParams<'a> {
    /// Learned scale γ, shape `[c]`.
    pub gamma: &'a Tensor,
    /// Learned shift β, shape `[c]`.
    pub beta: &'a Tensor,
    /// Running mean, shape `[c]`.
    pub mean: &'a Tensor,
    /// Running variance, shape `[c]`.
    pub var: &'a Tensor,
    /// Stabilizer added to the variance.
    pub epsilon: f32,
}

/// The shape rule of `nn.batch_norm`: `NCHW` input, each of γ, β, μ and
/// σ² of dims `[c]`; the output has the input's dims.
pub fn batch_norm_dims<'a>(
    input: &'a [usize],
    params: [&[usize]; 4],
) -> Result<&'a [usize], KernelError> {
    let &[_, c, _, _] = input else {
        return Err(kerr(format!(
            "batch_norm expects rank-4 NCHW input, got {input:?}"
        )));
    };
    match params.iter().position(|p| *p != [c]) {
        Some(i) => Err(kerr(format!(
            "batch_norm parameter {} has dims {:?}, not [{c}]",
            i + 1,
            params[i]
        ))),
        None => Ok(input),
    }
}

/// `y = γ (x - μ) / sqrt(σ² + ε) + β`, per channel on `NCHW` input.
pub fn batch_norm_f32(input: &Tensor, p: &BatchNormParams<'_>) -> Result<Tensor, KernelError> {
    let ps = [p.gamma, p.beta, p.mean, p.var].map(|t| t.shape().dims());
    let dims = batch_norm_dims(input.shape().dims(), ps)?;
    let c = dims[1];
    let gamma = p.gamma.as_f32().map_err(|e| kerr(e.to_string()))?;
    let beta = p.beta.as_f32().map_err(|e| kerr(e.to_string()))?;
    let mean = p.mean.as_f32().map_err(|e| kerr(e.to_string()))?;
    let var = p.var.as_f32().map_err(|e| kerr(e.to_string()))?;
    let x = input.as_f32().map_err(|e| kerr(e.to_string()))?;
    let hw = dims[2] * dims[3];
    let mut out = vec![0.0f32; x.len()];
    for ni in 0..dims[0] {
        for ci in 0..c {
            let scale = gamma[ci] / (var[ci] + p.epsilon).sqrt();
            let shift = beta[ci] - mean[ci] * scale;
            let base = (ni * c + ci) * hw;
            for i in 0..hw {
                out[base + i] = x[base + i] * scale + shift;
            }
        }
    }
    Tensor::from_f32(input.shape().clone(), out).map_err(|e| kerr(e.to_string()))
}

/// The shape rule of `nn.bias_add`: input of rank >= 2 and a bias of dims
/// `[c]`, `c` the input's axis 1; the output has the input's dims.
pub fn bias_add_dims<'a>(input: &'a [usize], bias: &[usize]) -> Result<&'a [usize], KernelError> {
    match input {
        [_, c, ..] if bias == [*c] => Ok(input),
        _ => Err(kerr(format!(
            "bias {bias:?} does not match axis 1 of input {input:?}"
        ))),
    }
}

/// Per-channel bias add on `NCHW` (axis 1) or `[n, units]` (axis 1) input.
pub fn bias_add(input: &Tensor, bias: &Tensor) -> Result<Tensor, KernelError> {
    let dims = bias_add_dims(input.shape().dims(), bias.shape().dims())?;
    let b = bias.as_f32().map_err(|e| kerr(e.to_string()))?;
    let x = input.as_f32().map_err(|e| kerr(e.to_string()))?;
    // One run of `inner` elements per (batch item, channel), channels
    // cycling; an empty tensor has no runs.
    let inner: usize = dims[2..].iter().product::<usize>().max(1);
    let mut out = vec![0.0f32; x.len()];
    let runs = out.chunks_exact_mut(inner).zip(x.chunks_exact(inner));
    for ((out, x), &bias) in runs.zip(b.iter().cycle()) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = v + bias;
        }
    }
    Tensor::from_f32(input.shape().clone(), out).map_err(|e| kerr(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(n: usize) -> Tensor {
        Tensor::from_f32([n], vec![1.0; n]).unwrap()
    }

    fn zeros(n: usize) -> Tensor {
        Tensor::from_f32([n], vec![0.0; n]).unwrap()
    }

    #[test]
    fn identity_batch_norm() {
        let x = Tensor::from_f32([1, 2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let p = BatchNormParams {
            gamma: &ones(2),
            beta: &zeros(2),
            mean: &zeros(2),
            var: &ones(2),
            epsilon: 0.0,
        };
        let y = batch_norm_f32(&x, &p).unwrap();
        assert!(y.max_abs_diff(&x) <= 1e-6);
    }

    #[test]
    fn normalizes_mean_and_var() {
        let x = Tensor::from_f32([1, 1, 1, 2], vec![8.0, 12.0]).unwrap();
        let p = BatchNormParams {
            gamma: &ones(1),
            beta: &zeros(1),
            mean: &Tensor::from_f32([1], vec![10.0]).unwrap(),
            var: &Tensor::from_f32([1], vec![4.0]).unwrap(),
            epsilon: 0.0,
        };
        let y = batch_norm_f32(&x, &p).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[-1.0, 1.0]);
    }

    #[test]
    fn gamma_beta_applied() {
        let x = Tensor::from_f32([1, 1, 1, 1], vec![1.0]).unwrap();
        let p = BatchNormParams {
            gamma: &Tensor::from_f32([1], vec![2.0]).unwrap(),
            beta: &Tensor::from_f32([1], vec![3.0]).unwrap(),
            mean: &zeros(1),
            var: &ones(1),
            epsilon: 0.0,
        };
        let y = batch_norm_f32(&x, &p).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[5.0]);
    }

    #[test]
    fn bias_add_4d() {
        let x = Tensor::from_f32([1, 2, 1, 2], vec![0.0; 4]).unwrap();
        let b = Tensor::from_f32([2], vec![1.0, -1.0]).unwrap();
        let y = bias_add(&x, &b).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[1.0, 1.0, -1.0, -1.0]);
    }

    #[test]
    fn bias_add_2d() {
        let x = Tensor::from_f32([2, 2], vec![0.0; 4]).unwrap();
        let b = Tensor::from_f32([2], vec![5.0, 6.0]).unwrap();
        let y = bias_add(&x, &b).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[5.0, 6.0, 5.0, 6.0]);
    }

    #[test]
    fn rejects_wrong_bias_len() {
        let x = Tensor::zeros_f32([1, 3, 2, 2]);
        let b = Tensor::from_f32([2], vec![0.0, 0.0]).unwrap();
        assert!(bias_add(&x, &b).is_err());
    }
}
