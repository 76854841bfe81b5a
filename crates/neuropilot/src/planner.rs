//! The Execution Planner (paper §2.1): assigns each Neuron op to a
//! back-end target under a target policy. A plan is its placements; the
//! device runs each costing a driver dispatch, and the tensors crossing
//! devices, follow from them and are derived where they are priced — the
//! network's cost ledger.

use crate::error::NeuronError;
use crate::nir::NeuronGraph;
use crate::support::device_supports;
use serde::{Deserialize, Serialize};
use std::fmt;
use tvmnp_hwsim::{DeviceKind, WorkKind};

/// Back-end target selection policy — the `nir_targets=[...]` argument of
/// the paper's Listing 6, and the axis of its seven permutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TargetPolicy {
    /// Everything on the mobile CPU (vendor kernels).
    CpuOnly,
    /// Prefer the GPU; ops it cannot run fall back to the slow reference
    /// CPU path.
    GpuPrefer,
    /// Prefer the APU; ops it cannot run fall back to the slow reference
    /// CPU path (NNAPI-style reference fallback).
    ApuPrefer,
    /// Use CPU and APU together: MAC-heavy ops *large enough to amortize
    /// the APU driver round-trip* go to the APU; everything else runs on
    /// the tuned vendor CPU kernels. This is the paper's "CPU+APU"
    /// permutation — a simple op-size heuristic, not an optimum
    /// (operation-level optimal scheduling is the paper's future work).
    /// The size awareness is what lets CPU+APU beat APU-prefer on
    /// fragmented models (Fig. 4's anti-spoofing / object detection) while
    /// losing to APU-prefer on fully-APU-capable ones (emotion).
    CpuApu,
}

impl TargetPolicy {
    /// All policies the experiments sweep.
    pub const ALL: [TargetPolicy; 4] = [
        TargetPolicy::CpuOnly,
        TargetPolicy::GpuPrefer,
        TargetPolicy::ApuPrefer,
        TargetPolicy::CpuApu,
    ];

    /// Short label used in tables/figures.
    pub fn label(self) -> &'static str {
        match self {
            TargetPolicy::CpuOnly => "cpu",
            TargetPolicy::GpuPrefer => "gpu",
            TargetPolicy::ApuPrefer => "apu",
            TargetPolicy::CpuApu => "cpu+apu",
        }
    }

    /// Devices a network planned under this policy dispatches to — what
    /// its device locks hold and what its faults strike.
    pub fn devices(self) -> &'static [DeviceKind] {
        match self {
            TargetPolicy::CpuOnly => &[DeviceKind::Cpu],
            TargetPolicy::GpuPrefer => &[DeviceKind::Gpu],
            TargetPolicy::ApuPrefer => &[DeviceKind::Apu],
            TargetPolicy::CpuApu => &[DeviceKind::Cpu, DeviceKind::Apu],
        }
    }
}

impl fmt::Display for TargetPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Minimum MAC count for which the CPU+APU planner considers a *float* op
/// worth the APU dispatch + transfer round trip (the Execution Planner's
/// op-size heuristic; see [`TargetPolicy::CpuApu`]).
pub const APU_OFFLOAD_MIN_MACS_F32: u64 = 2_000_000;

/// The int8 threshold is higher: the vendor CPU's int8 kernels are already
/// ~2x its float throughput, so the APU round trip amortizes later.
pub const APU_OFFLOAD_MIN_MACS_INT8: u64 = 6_000_000;

/// One op's placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Chosen device.
    pub device: DeviceKind,
    /// Whether this placement is a reference-implementation fallback (the
    /// preferred device could not run the op). Fallback kernels are far
    /// slower than the vendor-tuned ones.
    pub fallback: bool,
}

/// The planner's output: one decision per op. The driver dispatches and
/// the cross-device transfers that follow from it are priced, from the
/// placements, by the network's cost ledger
/// ([`crate::CompiledNetwork::ledger`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Per-op placement, parallel to `NeuronGraph::ops`.
    pub placements: Vec<Placement>,
}

impl ExecutionPlan {
    /// Number of fallback-placed ops.
    pub fn fallback_ops(&self) -> usize {
        self.placements.iter().filter(|p| p.fallback).count()
    }

    /// Check a plan read from bytes against its graph before it is priced:
    /// the graph is well formed ([`NeuronGraph::validate`]) and every op has
    /// exactly one placement.
    pub fn validate(&self, graph: &NeuronGraph) -> Result<(), String> {
        graph.validate()?;
        let (placed, ops) = (self.placements.len(), graph.ops.len());
        if placed != ops {
            return Err(format!("{placed} placements for {ops} ops"));
        }
        Ok(())
    }
}

/// The Execution Planner.
pub struct Planner;

impl Planner {
    /// Plan `graph` under `policy`.
    pub fn plan(graph: &NeuronGraph, policy: TargetPolicy) -> Result<ExecutionPlan, NeuronError> {
        let mut placements = Vec::with_capacity(graph.ops.len());
        for op in &graph.ops {
            let (device, fallback) = match policy {
                TargetPolicy::CpuOnly => (DeviceKind::Cpu, false),
                TargetPolicy::GpuPrefer | TargetPolicy::ApuPrefer => {
                    let preferred = policy.devices()[0];
                    if device_supports(preferred, &op.kind) {
                        (preferred, false)
                    } else {
                        (DeviceKind::Cpu, true)
                    }
                }
                TargetPolicy::CpuApu => {
                    let w = graph.work(op);
                    let threshold = if w.int8 {
                        APU_OFFLOAD_MIN_MACS_INT8
                    } else {
                        APU_OFFLOAD_MIN_MACS_F32
                    };
                    let big_enough = w.kind == WorkKind::MacHeavy && w.macs >= threshold;
                    if big_enough && device_supports(DeviceKind::Apu, &op.kind) {
                        (DeviceKind::Apu, false)
                    } else {
                        (DeviceKind::Cpu, false)
                    }
                }
            };
            if !device_supports(device, &op.kind) {
                return Err(NeuronError::NoCapableDevice {
                    op: op.kind.name().to_string(),
                    policy: policy.label().to_string(),
                });
            }
            placements.push(Placement { device, fallback });
        }
        Ok(ExecutionPlan { placements })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nir::{NeuronOp, NeuronOpKind, NeuronTensor};
    use crate::CompiledNetwork;
    use tvmnp_hwsim::{CostEntry, CostModel, CostRole};
    use tvmnp_tensor::DType;

    /// The `dispatch` and `transfer` entries of `g` compiled under `policy`:
    /// one per device run and one per device crossing of its plan.
    fn dispatches_and_transfers(
        g: &NeuronGraph,
        policy: TargetPolicy,
    ) -> (Vec<CostEntry>, Vec<CostEntry>) {
        let net = CompiledNetwork::compile(g.clone(), policy, CostModel::default()).unwrap();
        let entries = |role| net.ledger().iter().filter(move |e| e.role == role).copied();
        let dispatches = entries(CostRole::Dispatch).collect();
        (dispatches, entries(CostRole::Transfer).collect())
    }

    fn act(name: &str) -> NeuronTensor {
        NeuronTensor {
            name: name.into(),
            shape: [1, 8, 4, 4].into(),
            dtype: DType::F32,
            quant: None,
            data: None,
        }
    }

    /// conv -> sigmoid -> conv graph.
    fn conv_sigmoid_conv() -> NeuronGraph {
        let mut g = NeuronGraph::default();
        let x = g.add_tensor(act("x"));
        let w1 = g.add_tensor(NeuronTensor {
            data: Some(tvmnp_tensor::Tensor::zeros_f32([8, 8, 1, 1]).into()),
            ..act("w1")
        });
        let t1 = g.add_tensor(act("t1"));
        let t2 = g.add_tensor(act("t2"));
        let w2 = g.add_tensor(NeuronTensor {
            data: Some(tvmnp_tensor::Tensor::zeros_f32([8, 8, 1, 1]).into()),
            ..act("w2")
        });
        let y = g.add_tensor(act("y"));
        g.inputs = vec![x];
        g.outputs = vec![y];
        let conv = NeuronOpKind::Conv2d {
            strides: (1, 1),
            padding: (0, 0, 0, 0),
            dilation: (1, 1),
            groups: 1,
        };
        g.add_op(NeuronOp {
            kind: conv.clone(),
            inputs: vec![x, w1],
            outputs: vec![t1],
        });
        g.add_op(NeuronOp {
            kind: NeuronOpKind::Sigmoid,
            inputs: vec![t1],
            outputs: vec![t2],
        });
        g.add_op(NeuronOp {
            kind: conv,
            inputs: vec![t2, w2],
            outputs: vec![y],
        });
        g
    }

    #[test]
    fn cpu_only_single_segment() {
        let g = conv_sigmoid_conv();
        let p = Planner::plan(&g, TargetPolicy::CpuOnly).unwrap();
        let (dispatches, transfers) = dispatches_and_transfers(&g, TargetPolicy::CpuOnly);
        assert_eq!(dispatches.len(), 1);
        assert!(transfers.is_empty());
        assert_eq!(p.fallback_ops(), 0);
    }

    #[test]
    fn apu_prefer_falls_back_on_sigmoid() {
        let g = conv_sigmoid_conv();
        let p = Planner::plan(&g, TargetPolicy::ApuPrefer).unwrap();
        assert_eq!(p.placements[0].device, DeviceKind::Apu);
        assert_eq!(p.placements[1].device, DeviceKind::Cpu);
        assert!(p.placements[1].fallback);
        assert_eq!(p.placements[2].device, DeviceKind::Apu);
        let (dispatches, transfers) = dispatches_and_transfers(&g, TargetPolicy::ApuPrefer);
        assert_eq!(dispatches.len(), 3);
        // t1 crosses APU->CPU, t2 crosses CPU->APU, x host->APU, y APU->host.
        assert_eq!(transfers.len(), 4);
    }

    #[test]
    fn cpu_apu_keeps_small_convs_on_cpu() {
        // The test graph's convs are tiny (8 ch over 4x4): below the
        // APU_OFFLOAD_MIN_MACS threshold, everything stays on the CPU.
        let g = conv_sigmoid_conv();
        let p = Planner::plan(&g, TargetPolicy::CpuApu).unwrap();
        assert!(p.placements.iter().all(|pl| pl.device == DeviceKind::Cpu));
        assert_eq!(p.fallback_ops(), 0);
        assert_eq!(
            dispatches_and_transfers(&g, TargetPolicy::CpuApu).0.len(),
            1
        );
    }

    #[test]
    fn cpu_apu_sends_large_convs_to_apu() {
        let mut g = NeuronGraph::default();
        let big = |name: &str| NeuronTensor {
            name: name.into(),
            shape: [1, 64, 64, 64].into(),
            dtype: DType::F32,
            quant: None,
            data: None,
        };
        let x = g.add_tensor(big("x"));
        let w = g.add_tensor(NeuronTensor {
            data: Some(tvmnp_tensor::Tensor::zeros_f32([64, 64, 3, 3]).into()),
            shape: [64, 64, 3, 3].into(),
            ..big("w")
        });
        let y = g.add_tensor(big("y"));
        let z = g.add_tensor(big("z"));
        g.inputs = vec![x];
        g.outputs = vec![z];
        g.add_op(NeuronOp {
            kind: NeuronOpKind::Conv2d {
                strides: (1, 1),
                padding: (1, 1, 1, 1),
                dilation: (1, 1),
                groups: 1,
            },
            inputs: vec![x, w],
            outputs: vec![y],
        });
        g.add_op(NeuronOp {
            kind: NeuronOpKind::Relu,
            inputs: vec![y],
            outputs: vec![z],
        });
        let p = Planner::plan(&g, TargetPolicy::CpuApu).unwrap();
        assert_eq!(
            p.placements[0].device,
            DeviceKind::Apu,
            "150 MMACs amortize the APU"
        );
        assert_eq!(p.placements[1].device, DeviceKind::Cpu);
        assert_eq!(p.fallback_ops(), 0);
    }

    #[test]
    fn fully_apu_capable_graph_is_one_apu_segment() {
        let mut g = NeuronGraph::default();
        let x = g.add_tensor(act("x"));
        let t = g.add_tensor(act("t"));
        let y = g.add_tensor(act("y"));
        g.inputs = vec![x];
        g.outputs = vec![y];
        g.add_op(NeuronOp {
            kind: NeuronOpKind::Relu,
            inputs: vec![x],
            outputs: vec![t],
        });
        g.add_op(NeuronOp {
            kind: NeuronOpKind::Softmax,
            inputs: vec![t],
            outputs: vec![y],
        });
        let (dispatches, transfers) = dispatches_and_transfers(&g, TargetPolicy::ApuPrefer);
        assert_eq!(dispatches.len(), 1);
        assert_eq!(dispatches[0].device, DeviceKind::Apu);
        // Only host-boundary crossings.
        assert_eq!(transfers.len(), 2);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(TargetPolicy::CpuApu.label(), "cpu+apu");
        assert_eq!(TargetPolicy::ALL.len(), 4);
    }
}
