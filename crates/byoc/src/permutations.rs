//! The seven target permutations of the paper's experiments (§5, §6).

use crate::build::{relay_build, BuildError, TargetMode};
use serde::{Deserialize, Serialize};

use std::fmt;
use tvmnp_hwsim::CostModel;
use tvmnp_neuropilot::TargetPolicy;
use tvmnp_relay::expr::Module;

/// The seven permutations, in the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Permutation {
    /// TVM-only.
    TvmOnly,
    /// TVM BYOC with mobile CPU.
    ByocCpu,
    /// TVM BYOC with mobile APU.
    ByocApu,
    /// TVM BYOC with mobile CPU and APU.
    ByocCpuApu,
    /// NeuroPilot-only with mobile CPU.
    NpCpu,
    /// NeuroPilot-only with mobile APU.
    NpApu,
    /// NeuroPilot-only with mobile CPU and APU.
    NpCpuApu,
}

impl Permutation {
    /// All seven, in figure order.
    pub const ALL: [Permutation; 7] = [
        Permutation::TvmOnly,
        Permutation::ByocCpu,
        Permutation::ByocApu,
        Permutation::ByocCpuApu,
        Permutation::NpCpu,
        Permutation::NpApu,
        Permutation::NpCpuApu,
    ];

    /// Axis label as in Figs. 4 and 6.
    pub fn label(self) -> &'static str {
        match self {
            Permutation::TvmOnly => "TVM-only",
            Permutation::ByocCpu => "BYOC CPU",
            Permutation::ByocApu => "BYOC APU",
            Permutation::ByocCpuApu => "BYOC CPU+APU",
            Permutation::NpCpu => "NP-only CPU",
            Permutation::NpApu => "NP-only APU",
            Permutation::NpCpuApu => "NP-only CPU+APU",
        }
    }

    /// The paper-ordered degradation chain a resilient session walks when
    /// devices fail: NeuroPilot-APU → NeuroPilot-CPU+APU → BYOC-CPU →
    /// TVM-only. Each step needs strictly less accelerator trust than the
    /// one before; TVM-only is the last resort (pure host codegen).
    pub const FALLBACK_CHAIN: [Permutation; 4] = [
        Permutation::NpApu,
        Permutation::NpCpuApu,
        Permutation::ByocCpu,
        Permutation::TvmOnly,
    ];

    /// The degradation chain starting at `start`: the suffix of
    /// [`Permutation::FALLBACK_CHAIN`] from `start` when it is on the
    /// chain, otherwise `start` followed by the whole chain (any
    /// permutation can degrade into it).
    pub(crate) fn fallback_chain(start: Permutation) -> Vec<Permutation> {
        match Permutation::FALLBACK_CHAIN.iter().position(|&p| p == start) {
            Some(i) => Permutation::FALLBACK_CHAIN[i..].to_vec(),
            None => {
                let mut chain = vec![start];
                chain.extend(Permutation::FALLBACK_CHAIN);
                chain
            }
        }
    }

    /// The build mode realizing this permutation.
    pub fn mode(self) -> TargetMode {
        match self {
            Permutation::TvmOnly => TargetMode::TvmOnly,
            Permutation::ByocCpu => TargetMode::Byoc(TargetPolicy::CpuOnly),
            Permutation::ByocApu => TargetMode::Byoc(TargetPolicy::ApuPrefer),
            Permutation::ByocCpuApu => TargetMode::Byoc(TargetPolicy::CpuApu),
            Permutation::NpCpu => TargetMode::NeuroPilotOnly(TargetPolicy::CpuOnly),
            Permutation::NpApu => TargetMode::NeuroPilotOnly(TargetPolicy::ApuPrefer),
            Permutation::NpCpuApu => TargetMode::NeuroPilotOnly(TargetPolicy::CpuApu),
        }
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One measured bar of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Which permutation.
    pub permutation: Permutation,
    /// Simulated inference time in milliseconds; `None` where the paper
    /// has a missing bar (NeuroPilot cannot compile the model).
    pub time_ms: Option<f64>,
    /// Number of BYOC subgraphs (0 outside BYOC modes).
    pub subgraphs: usize,
}

/// Measure one permutation analytically. `None` time = missing bar.
///
/// Inference time is input-independent (static shapes, static plans), so
/// measurement compiles the model and reads the cost model — the numeric
/// path is exercised separately by the correctness tests.
pub fn measure_one(
    module: &Module,
    permutation: Permutation,
    cost: &CostModel,
) -> Result<Measurement, BuildError> {
    match relay_build(module, permutation.mode(), cost.clone()) {
        Ok(compiled) => {
            let subgraphs = compiled.num_subgraphs();
            let us = compiled.estimate_us();
            Ok(Measurement {
                permutation,
                time_ms: Some(us / 1000.0),
                subgraphs,
            })
        }
        Err(BuildError::Unsupported(_)) => Ok(Measurement {
            permutation,
            time_ms: None,
            subgraphs: 0,
        }),
        Err(e) => Err(e),
    }
}

/// Measure all seven permutations (one figure group).
pub fn measure_all(module: &Module, cost: &CostModel) -> Result<Vec<Measurement>, BuildError> {
    Permutation::ALL
        .iter()
        .map(|&p| measure_one(module, p, cost))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{var, Function};
    use tvmnp_relay::{Conv2dAttrs, TensorType};
    use tvmnp_tensor::rng::TensorRng;
    use tvmnp_tensor::Tensor;

    #[allow(clippy::type_complexity)]
    fn model(with_bn: bool) -> (Module, HashMap<String, Tensor>) {
        let mut rng = TensorRng::new(37);
        let x = var("x", TensorType::f32([1, 16, 28, 28]));
        let w = rng.uniform_f32([32, 16, 3, 3], -0.4, 0.4);
        let mut e = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        if with_bn {
            e = builder::batch_norm(
                e,
                rng.uniform_f32([32], 0.9, 1.1),
                rng.uniform_f32([32], -0.1, 0.1),
                rng.uniform_f32([32], -0.1, 0.1),
                rng.uniform_f32([32], 0.9, 1.1),
                1e-5,
            );
        }
        let w2 = rng.uniform_f32([32, 32, 3, 3], -0.4, 0.4);
        let e = builder::conv2d(e, w2, Conv2dAttrs::same(1));
        let y = builder::softmax(builder::batch_flatten(e));
        let m = Module::from_main(Function::new(vec![x], y));
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), rng.uniform_f32([1, 16, 28, 28], -1.0, 1.0));
        (m, inputs)
    }

    #[test]
    fn supported_model_has_all_seven_bars() {
        let (m, _inputs) = model(false);
        let ms = measure_all(&m, &CostModel::default()).unwrap();
        assert_eq!(ms.len(), 7);
        assert!(ms.iter().all(|r| r.time_ms.is_some()));
    }

    #[test]
    fn unsupported_model_misses_np_bars_only() {
        let (m, _inputs) = model(true);
        let ms = measure_all(&m, &CostModel::default()).unwrap();
        for r in &ms {
            match r.permutation {
                Permutation::NpCpu | Permutation::NpApu | Permutation::NpCpuApu => {
                    assert!(r.time_ms.is_none(), "{} should be missing", r.permutation)
                }
                _ => assert!(r.time_ms.is_some(), "{} should be present", r.permutation),
            }
        }
    }

    #[test]
    fn tvm_only_is_slowest_bar() {
        let (m, _inputs) = model(false);
        let ms = measure_all(&m, &CostModel::default()).unwrap();
        let tvm = ms[0].time_ms.unwrap();
        for r in &ms[1..] {
            if let Some(t) = r.time_ms {
                assert!(
                    tvm > t,
                    "TVM-only ({tvm}) must exceed {} ({t})",
                    r.permutation
                );
            }
        }
    }

    #[test]
    fn labels_in_paper_order() {
        assert_eq!(Permutation::ALL[0].label(), "TVM-only");
        assert_eq!(Permutation::ALL[6].label(), "NP-only CPU+APU");
    }

    #[test]
    fn fallback_chain_degrades_to_tvm_only() {
        let full = Permutation::fallback_chain(Permutation::NpApu);
        assert_eq!(full, Permutation::FALLBACK_CHAIN.to_vec());
        let mid = Permutation::fallback_chain(Permutation::ByocCpu);
        assert_eq!(mid, vec![Permutation::ByocCpu, Permutation::TvmOnly]);
        // Off-chain starts prepend themselves, then walk the whole chain.
        let off = Permutation::fallback_chain(Permutation::ByocApu);
        assert_eq!(off[0], Permutation::ByocApu);
        assert_eq!(off.last(), Some(&Permutation::TvmOnly));
        assert_eq!(off.len(), 5);
    }
}
