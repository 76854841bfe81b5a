//! # tvmnp-tensor
//!
//! N-dimensional tensor substrate for the TVM+NeuroPilot reproduction.
//!
//! This crate plays the role of TVM's TOPI/NDArray layer and of the kernel
//! libraries NeuroPilot ships for the mobile CPU/GPU/APU: it owns the data
//! representation (dense row-major tensors over `f32`/`i8`/`u8`/`i32`) and
//! the numeric kernels (convolution, dense, pooling, activations, softmax,
//! tensor transforms) in both floating-point and affine-quantized integer
//! arithmetic.
//!
//! Everything above this crate — the Relay-like IR, the Neuron IR, the
//! graph executors — manipulates [`Tensor`] values and calls into
//! [`kernels`]. Numeric results are therefore identical no matter which
//! compiler path or simulated device produced them; only the *simulated
//! time* differs (see the `tvmnp-hwsim` crate).
//!
//! Layout conventions:
//! * activations: `NCHW`
//! * convolution weights: `OIHW` (depthwise: groups = C, weights `[C*m, 1, kh, kw]`)
//! * dense weights: `[units, in_features]`

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod dtype;
pub mod kernels;
pub mod quant;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use dtype::DType;
pub use quant::QuantParams;
pub use shape::Shape;
pub use tensor::{Tensor, TensorError};
