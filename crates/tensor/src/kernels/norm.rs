//! Normalization-family kernels (inference mode).

use super::{kerr, KernelError};
use crate::tensor::Tensor;

/// Inference-mode batch norm parameters (per channel, axis 1 of NCHW).
#[derive(Debug, Clone)]
pub struct BatchNormParams {
    /// Learned scale γ, shape `[c]`.
    pub gamma: Tensor,
    /// Learned shift β, shape `[c]`.
    pub beta: Tensor,
    /// Running mean, shape `[c]`.
    pub mean: Tensor,
    /// Running variance, shape `[c]`.
    pub var: Tensor,
    /// Stabilizer added to the variance.
    pub epsilon: f32,
}

/// `y = γ (x - μ) / sqrt(σ² + ε) + β`, per channel on `NCHW` input.
pub fn batch_norm_f32(input: &Tensor, p: &BatchNormParams) -> Result<Tensor, KernelError> {
    let dims = input.shape().dims();
    if dims.len() != 4 {
        return Err(kerr("batch_norm expects rank-4 NCHW input".to_string()));
    }
    let c = dims[1];
    let gamma = p.gamma.as_f32().map_err(|e| kerr(e.to_string()))?;
    let beta = p.beta.as_f32().map_err(|e| kerr(e.to_string()))?;
    let mean = p.mean.as_f32().map_err(|e| kerr(e.to_string()))?;
    let var = p.var.as_f32().map_err(|e| kerr(e.to_string()))?;
    if gamma.len() != c || beta.len() != c || mean.len() != c || var.len() != c {
        return Err(kerr(format!("batch_norm parameter length != channels {c}")));
    }
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

/// Per-channel bias add on `NCHW` (axis 1) or `[n, units]` (axis 1) input.
pub fn bias_add(input: &Tensor, bias: &Tensor) -> Result<Tensor, KernelError> {
    let dims = input.shape().dims();
    if dims.len() < 2 {
        return Err(kerr("bias_add expects rank >= 2".to_string()));
    }
    let c = dims[1];
    let b = bias.as_f32().map_err(|e| kerr(e.to_string()))?;
    if b.len() != c {
        return Err(kerr(format!("bias length {} != channel dim {c}", b.len())));
    }
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
            gamma: ones(2),
            beta: zeros(2),
            mean: zeros(2),
            var: ones(2),
            epsilon: 0.0,
        };
        let y = batch_norm_f32(&x, &p).unwrap();
        assert!(y.max_abs_diff(&x) <= 1e-6);
    }

    #[test]
    fn normalizes_mean_and_var() {
        let x = Tensor::from_f32([1, 1, 1, 2], vec![8.0, 12.0]).unwrap();
        let p = BatchNormParams {
            gamma: ones(1),
            beta: zeros(1),
            mean: Tensor::from_f32([1], vec![10.0]).unwrap(),
            var: Tensor::from_f32([1], vec![4.0]).unwrap(),
            epsilon: 0.0,
        };
        let y = batch_norm_f32(&x, &p).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[-1.0, 1.0]);
    }

    #[test]
    fn gamma_beta_applied() {
        let x = Tensor::from_f32([1, 1, 1, 1], vec![1.0]).unwrap();
        let p = BatchNormParams {
            gamma: Tensor::from_f32([1], vec![2.0]).unwrap(),
            beta: Tensor::from_f32([1], vec![3.0]).unwrap(),
            mean: zeros(1),
            var: ones(1),
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
