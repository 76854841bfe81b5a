//! Numeric kernels in float32 and affine-quantized int8/uint8 arithmetic.
//!
//! These are the compute bodies every backend of the reproduction shares:
//! the "TVM codegen" path, the "NeuroPilot CPU" path and the "APU" path all
//! execute the same host kernels, so partitioning can never change results —
//! matching the paper's correctness methodology of comparing the BYOC output
//! against the origin framework's output. What differs per backend is the
//! *simulated cost* charged by `tvmnp-hwsim`.
//!
//! Each kernel family also owns its op's shape rule, one function over
//! operand dims and attributes ([`ConvGeom::new`], [`dense_geom`],
//! [`pool2d_dims`], [`concat_dims`], ...): the kernel sizes its output
//! through it, and Relay's type checker calls the same function, so what
//! type-checks is what runs.

pub mod conv;
pub mod dense;
pub(crate) mod elementwise;
pub mod norm;
pub mod pool;
pub mod qconv;
pub mod softmax;
pub(crate) mod transform;

pub use conv::{conv2d_f32, Conv2dParams, ConvGeom};
pub use dense::{dense_f32, dense_geom, qdense};
pub use elementwise::*;
pub use norm::*;
pub use pool::*;
pub use qconv::{qconv2d, QConvQuant};
pub use softmax::*;
pub use transform::*;

/// Error type shared by kernels for invalid shapes/attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError(pub String);

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kernel error: {}", self.0)
    }
}

impl std::error::Error for KernelError {}

/// Shortcut for building a [`KernelError`].
pub fn kerr(msg: impl Into<String>) -> KernelError {
    KernelError(msg.into())
}
