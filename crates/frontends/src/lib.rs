//! # tvmnp-frontends
//!
//! Framework frontends, mirroring `tvm.relay.frontend`.
//!
//! The paper's showcase exists to prove one point: models authored in
//! *different* frameworks (PyTorch, Keras, TFLite, Darknet, ONNX, MXNet…)
//! meet at Relay and from there reach NeuroPilot through one BYOC flow.
//! This crate reproduces that heterogeneity: each sub-module defines a
//! framework-shaped model description — a traced graph for PyTorch, a
//! sequential layer list for Keras, a flat quantized tensor/op buffer for
//! TFLite, a cfg-section list + flat weight blob for Darknet, a node-list
//! proto for ONNX — and an importer that lowers it to a Relay [`Module`].
//!
//! Framework idioms are preserved where they matter to the compiler:
//! * Keras stores conv kernels `HWIO` and activations channels-last; the
//!   importer transposes to Relay's `OIHW`/`NCHW`.
//! * TFLite is *tensor-oriented* quantized (`(scale, zero_point)` per
//!   tensor) and `NHWC`/`OHWI`; the importer synthesizes Relay's
//!   *operator-oriented* QNN attributes — the exact representation gap
//!   §3.3 of the paper later bridges in the other direction.
//! * Darknet weights are one flat float blob consumed in layer order
//!   (bias, then BN stats, then kernel), as the real `.weights` format.
//! * MXNet ships a `symbol.json` node list with string-typed attrs
//!   (`kernel="(3, 3)"`) plus a separate params dict; the importer parses
//!   both, as `relay.frontend.from_mxnet` does.
//!
//! [`Module`]: tvmnp_relay::Module
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod darknet;
pub mod keras;
pub mod mxnet;
pub mod onnx;
pub mod pytorch;
pub mod tflite;

use std::fmt;

/// An import failure: the model description is malformed or uses an
/// operator the frontend does not map.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportError(pub String);

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frontend import error: {}", self.0)
    }
}

impl std::error::Error for ImportError {}

pub(crate) fn ierr(msg: impl Into<String>) -> ImportError {
    ImportError(msg.into())
}
