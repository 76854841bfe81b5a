//! Softmax-family kernels (classification heads of every showcase model).

use super::{kerr, KernelError};
use crate::tensor::Tensor;

/// The shape rule of `nn.softmax` and `nn.log_softmax`: an input of rank
/// >= 1, normalized along its last axis; the output has the input's dims.
pub fn softmax_dims(input: &[usize]) -> Result<&[usize], KernelError> {
    match input {
        [] => Err(kerr("softmax needs rank >= 1")),
        _ => Ok(input),
    }
}

/// Numerically-stable softmax along the last axis.
pub fn softmax_f32(input: &Tensor) -> Result<Tensor, KernelError> {
    let dims = softmax_dims(input.shape().dims())?;
    let x = input.as_f32().map_err(|e| kerr(e.to_string()))?;
    let mut out = vec![0.0f32; x.len()];
    // An empty last axis leaves `x` empty: no rows, whatever the width.
    let row = dims.last().map_or(1, |&len| len.max(1));
    for (row_in, row_out) in x.chunks_exact(row).zip(out.chunks_exact_mut(row)) {
        let max = row_in.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0f32;
        for (o, &v) in row_out.iter_mut().zip(row_in) {
            *o = (v - max).exp();
            sum += *o;
        }
        for o in row_out.iter_mut() {
            *o /= sum;
        }
    }
    Tensor::from_f32(input.shape().clone(), out).map_err(|e| kerr(e.to_string()))
}

/// `log(softmax(x))` along the last axis.
pub fn log_softmax_f32(input: &Tensor) -> Result<Tensor, KernelError> {
    let s = softmax_f32(input)?;
    let v: Vec<f32> = s
        .as_f32()
        .map_err(|e| kerr(e.to_string()))?
        .iter()
        .map(|&p| p.max(f32::MIN_POSITIVE).ln())
        .collect();
    Tensor::from_f32(input.shape().clone(), v).map_err(|e| kerr(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let x = Tensor::from_f32([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let y = softmax_f32(&x).unwrap();
        for row in y.as_f32().unwrap().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn preserves_argmax() {
        let x = Tensor::from_f32([1, 4], vec![0.1, 5.0, -2.0, 1.0]).unwrap();
        assert_eq!(softmax_f32(&x).unwrap().argmax(), 1);
    }

    #[test]
    fn stable_for_large_logits() {
        let x = Tensor::from_f32([1, 2], vec![1000.0, 1001.0]).unwrap();
        let y = softmax_f32(&x).unwrap();
        let v = y.as_f32().unwrap();
        assert!(v.iter().all(|p| p.is_finite()));
        assert!((v[0] + v[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn an_empty_last_axis_gives_the_empty_tensor() {
        let x = Tensor::from_f32([1, 0], vec![]).unwrap();
        for y in [softmax_f32(&x).unwrap(), log_softmax_f32(&x).unwrap()] {
            assert_eq!(y.shape(), x.shape());
            assert!(y.as_f32().unwrap().is_empty());
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Tensor::from_f32([1, 3], vec![0.5, 1.5, -0.5]).unwrap();
        let a = log_softmax_f32(&x).unwrap();
        let b = softmax_f32(&x).unwrap();
        for (la, p) in a.as_f32().unwrap().iter().zip(b.as_f32().unwrap()) {
            assert!((la - p.ln()).abs() < 1e-5);
        }
    }
}
