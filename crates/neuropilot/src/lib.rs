//! # tvmnp-neuropilot
//!
//! The vendor-side stack of the reproduction: a NeuroPilot-style compiler
//! and runtime for the simulated MediaTek SoC.
//!
//! NeuroPilot's two core concepts (paper §2.1) are reproduced:
//!
//! * **Compiler** — a high-level, *tensor-oriented* IR ([`nir`]) plus the
//!   Relay→Neuron converter ([`convert`]): a post-order DFS over the Relay
//!   AST with `NodeEntry` bookkeeping and an `op_handler_dict` mapping each
//!   Relay op name to conversion logic (paper Listing 1), including the
//!   §3.3 QNN flow that turns Relay's operator-oriented quantization
//!   parameters into per-tensor parameters and propagates them through
//!   non-QNN ops. The **Execution Planner** ([`planner`]) then assigns
//!   each Neuron op to a back-end target (mobile CPU / GPU / APU).
//! * **Runtime** — [`runtime`] executes the planned network: each op is
//!   lifted back to its Relay operator ([`convert::relay_op`]) and
//!   evaluated by the Relay interpreter's op table (bit-identical to it by
//!   construction), while simulated time is charged on the `tvmnp-hwsim`
//!   cost model.
//!
//! [`support`] holds the op-coverage matrices. NeuroPilot supporting
//! *fewer* ops than TVM is what produces the missing NeuroPilot-only bars
//! in the paper's Figs. 4 and 6, and what makes the BYOC flow valuable.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod convert;
pub mod error;
pub mod nir;
pub mod oplevel;
pub mod planner;
pub mod runtime;
pub mod support;

pub use convert::{convert_function, NodeEntry};
pub use error::NeuronError;
pub use nir::{NeuronGraph, NeuronOp, NeuronOpKind, NeuronTensor, TensorId};
pub use oplevel::plan_op_level;
pub use planner::{ExecutionPlan, Planner, TargetPolicy};
pub use runtime::CompiledNetwork;
pub use support::{device_supports, neuron_supported, NeuronSupport};
