//! Error type shared across the NeuroPilot stack.

use std::fmt;

/// Failures of Neuron conversion, planning or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum NeuronError {
    /// A Relay op has no entry in the op-handler dictionary — NeuroPilot
    /// does not support it. This is the error behind the paper's missing
    /// NeuroPilot-only bars.
    UnsupportedOp(String),
    /// An op is supported by NeuroPilot but by none of the devices the
    /// caller allowed.
    NoCapableDevice { op: String, policy: String },
    /// Structural problem in the incoming Relay function.
    Conversion(String),
    /// Numeric execution failure.
    Execution(String),
}

impl fmt::Display for NeuronError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeuronError::UnsupportedOp(op) => {
                write!(f, "NeuroPilot does not support operator '{op}'")
            }
            NeuronError::NoCapableDevice { op, policy } => {
                write!(f, "no device in policy {policy} can run '{op}'")
            }
            NeuronError::Conversion(m) => write!(f, "Neuron conversion error: {m}"),
            NeuronError::Execution(m) => write!(f, "Neuron execution error: {m}"),
        }
    }
}

impl std::error::Error for NeuronError {}
