//! # tvm-neuropilot
//!
//! A from-scratch Rust reproduction of **"Application Showcases for TVM
//! with NeuroPilot on Mobile Devices"** (ICPP Workshops '22): the TVM BYOC
//! flow bridging a multi-frontend deep-learning compiler to a
//! NeuroPilot-style vendor stack, evaluated on a simulated
//! Dimensity-800-class SoC.
//!
//! The umbrella crate re-exports the full stack and provides the
//! user-facing API spelled the way the paper's listings spell it:
//!
//! ```
//! use tvm_neuropilot::prelude::*;
//!
//! // Listing 4: build a Keras model and import it.
//! let keras = tvm_neuropilot::models::emotion::keras_emotion_model(7);
//! let module = tvm_neuropilot::frontends::keras::from_keras(&keras).unwrap();
//!
//! // Listing 2/6: partition for NeuroPilot and build.
//! let (partitioned, report) = nir::partition_for_nir(&module).unwrap();
//! assert!(report.num_subgraphs >= 1);
//!
//! let mut m = relay_build(&module, TargetMode::Byoc(TargetPolicy::ApuPrefer),
//!                         CostModel::default()).unwrap();
//!
//! // GraphModule-style inference.
//! let model = tvm_neuropilot::models::emotion::emotion_model(7);
//! let (outputs, time_us) = m.run(&model.sample_inputs(1)).unwrap();
//! assert_eq!(outputs[0].shape().dims(), &[1, 7]);
//! assert!(time_us > 0.0);
//! # let _ = partitioned;
//! ```
//!
//! Layer map (one crate per subsystem):
//!
//! | crate | role |
//! |---|---|
//! | [`tensor`] | dense tensors + float/int8 kernels |
//! | [`relay`] | graph IR, passes, BYOC partitioner, QNN dialect |
//! | [`frontends`] | PyTorch / Keras / TFLite / Darknet / ONNX importers |
//! | [`runtime`] | graph executor, storage planner, artifacts, Android deploy |
//! | [`neuropilot`] | Neuron IR, Relay→Neuron converter, planner, runtime |
//! | [`hwsim`] | Dimensity 800 cost model, cost ledger, simulated-time schedule engine |
//! | [`byoc`] | build pipeline + the seven target permutations |
//! | [`scheduler`] | §5.1 computation + §5.2 pipeline scheduling |
//! | [`models`] | showcase models + the Table 1 zoo |
//! | [`vision`] | synthetic video, detectors, the Fig. 1 application |
//! | [`serving`] | concurrent multi-frame session pool + its simulated-time throughput |
//! | [`telemetry`] | the one event model: typed record, labelled registry + quantile sketch, profile/Chrome-trace exporters |
//! | [`observe`] | live observability over it: plane, flight recorder, trace trees, tail attribution |
//! | [`profile`] | measured-profile store, differential attribution |
//! | [`report`] | device utilization of a snapshot or schedule, bench baselines + regression gate, resilience report |

pub use tvmnp_byoc as byoc;
pub use tvmnp_frontends as frontends;
pub use tvmnp_hwsim as hwsim;
pub use tvmnp_models as models;
pub use tvmnp_neuropilot as neuropilot;
pub use tvmnp_observe as observe;
pub use tvmnp_profile as profile;
pub use tvmnp_relay as relay;
pub use tvmnp_report as report;
pub use tvmnp_runtime as runtime;
pub use tvmnp_scheduler as scheduler;
pub use tvmnp_serving as serving;
pub use tvmnp_telemetry as telemetry;
pub use tvmnp_tensor as tensor;
pub use tvmnp_vision as vision;

/// The paper's `nir` module: `mod = nir.partition_for_nir(mod, params)`.
pub mod nir {
    pub use tvmnp_byoc::build::partition_for_nir;
    pub use tvmnp_neuropilot::support::{neuron_supported, NeuronSupport};
}

/// Everything needed for the common flows.
pub mod prelude {
    pub use crate::nir;
    pub use tvmnp_byoc::{
        measure_all, measure_one, relay_build, ArtifactCache, Measurement, Permutation,
        ResilienceError, ResiliencePolicy, ResilientSession, RunOutcome, TargetMode,
    };
    pub use tvmnp_hwsim::{
        CostModel, DeviceKind, FaultInjector, FaultPlan, RetryPolicy, Schedule, SocSpec, Task,
    };
    pub use tvmnp_neuropilot::TargetPolicy;
    pub use tvmnp_observe::{ObserveConfig, ObservePlane, StatsSnapshot};
    pub use tvmnp_profile::{diff_profiles, Profile, ProfileDiff, ProfileKey, ProfileStore};
    pub use tvmnp_relay::expr::Module;
    pub use tvmnp_relay::interp::run_module;
    pub use tvmnp_scheduler::{simulate_pipelined, simulate_sequential};
    pub use tvmnp_serving::{frame_segments, serving_rotation, simulate_serve, SessionPool};
    pub use tvmnp_tensor::{DType, QuantParams, Shape, Tensor};
    pub use tvmnp_vision::{Showcase, ShowcaseAssignment, SyntheticVideo};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn prelude_flows_compose() {
        let model = crate::models::zoo::mobilenet_v1(5);
        let (partitioned, report) = crate::nir::partition_for_nir(&model.module).unwrap();
        assert!(report.num_subgraphs >= 1);
        assert!(partitioned.num_subgraphs() >= 1);
        let mut compiled = relay_build(
            &model.module,
            TargetMode::Byoc(TargetPolicy::CpuApu),
            CostModel::default(),
        )
        .unwrap();
        let (outs, t) = compiled.run(&model.sample_inputs(1)).unwrap();
        assert_eq!(outs[0].shape().dims(), &[1, 10]);
        assert!(t > 0.0);
    }
}
