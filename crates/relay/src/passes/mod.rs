//! Graph-level passes over Relay modules.
//!
//! The pass set mirrors what the paper's flow touches on the TVM side:
//!
//! * [`fold_constants()`] — evaluate constant subgraphs at compile time;
//! * [`simplify()`] — structural clean-ups (tuple projection, dropout
//!   removal, unused-function sweep);
//! * [`fuse_analysis`] — operator-fusion *analysis*: groups an anchor op with its
//!   trailing element-wise ops. TVM materializes fused groups as primitive
//!   functions; here the grouping feeds the runtime's dispatch-overhead
//!   model, which is the observable effect the paper's Fig. 4 discussion
//!   (anti-spoofing's "large number of subgraphs") depends on;
//! * [`fold_batch_norm()`] — inference-time BN folding (TVM's
//!   `SimplifyInference`): the counterfactual for the paper's
//!   anti-spoofing fragmentation story;
//! * [`partition_graph`] — the BYOC annotate → merge-regions → partition
//!   pipeline producing `Compiler="neuropilot"` external functions.

pub mod fold_batch_norm;
pub mod fold_constants;
pub(crate) mod fuse;
pub(crate) mod partition;
pub mod quantize;
pub mod simplify;

pub use fold_batch_norm::{count_batch_norms, fold_batch_norm};
pub use fold_constants::fold_constants;
pub use fuse::{fuse_analysis, FusionGroup};
pub use partition::{partition_graph, CompilerSupport, PartitionError, PartitionReport};
pub use quantize::{quantize_with_calibration, QuantizeError};
pub use simplify::simplify;
