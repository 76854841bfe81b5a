//! Device kinds and performance specifications.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An execution unit of the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// The CPU cluster (4×Cortex-A76 + 4×Cortex-A55 on the Dimensity 800).
    Cpu,
    /// The Mali-G57 MC4 GPU.
    Gpu,
    /// The MediaTek APU 3.0 AI accelerator.
    Apu,
}

impl DeviceKind {
    /// All devices, in a stable order.
    pub const ALL: [DeviceKind; 3] = [DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Apu];

    /// Position in [`DeviceKind::ALL`]: the device's slot in per-device
    /// tables and its rank in the global lock order.
    pub fn index(self) -> usize {
        match self {
            DeviceKind::Cpu => 0,
            DeviceKind::Gpu => 1,
            DeviceKind::Apu => 2,
        }
    }

    /// A device set as one `cpu+apu`-style span attribute / table cell.
    pub fn set_label(devices: &[DeviceKind]) -> String {
        let names: Vec<&str> = devices.iter().map(|d| d.name()).collect();
        names.join("+")
    }

    /// Short display name (also accepted by [`DeviceKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Cpu => "cpu",
            DeviceKind::Gpu => "gpu",
            DeviceKind::Apu => "apu",
        }
    }

    /// Parse a device from its [`DeviceKind::name`].
    pub fn parse(s: &str) -> Option<DeviceKind> {
        DeviceKind::ALL.iter().copied().find(|d| d.name() == s)
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Who generated the kernel being executed.
///
/// The paper's central empirical claim — TVM-only is slower than anything
/// using NeuroPilot back-ends (Figs. 4 and 6) — is a *codegen* property:
/// TVM's untuned portable kernels vs the vendor's hand-tuned libraries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelClass {
    /// TVM's own codegen without autotuning (the paper runs `opt_level`
    /// compiles, not tuned schedules).
    TvmUntuned,
    /// NeuroPilot's vendor-tuned kernels / compiled Neuron networks.
    VendorTuned,
}

impl KernelClass {
    /// Stable snake-case name: the `class` field of executor spans and
    /// the third component of a profile cell key.
    pub fn name(self) -> &'static str {
        match self {
            KernelClass::TvmUntuned => "tvm_untuned",
            KernelClass::VendorTuned => "vendor_tuned",
        }
    }

    /// Parse a class from its [`KernelClass::name`].
    pub fn parse(s: &str) -> Option<KernelClass> {
        [KernelClass::TvmUntuned, KernelClass::VendorTuned]
            .into_iter()
            .find(|c| c.name() == s)
    }
}

/// Performance specification of one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Which device this describes.
    pub kind: DeviceKind,
    /// Marketing/board name (for Table 2).
    pub model_name: String,
    /// Peak float32 throughput, GFLOP/s (multiply+add counted separately).
    pub f32_gflops: f64,
    /// Peak int8 throughput, GOP/s.
    pub int8_gops: f64,
    /// Sustained memory bandwidth, GB/s.
    pub mem_bw_gbps: f64,
    /// Fixed cost to launch one kernel, microseconds.
    pub kernel_launch_us: f64,
    /// Fixed cost to dispatch one compiled subgraph to the device
    /// (driver/runtime entry), microseconds.
    pub subgraph_dispatch_us: f64,
    /// Fraction of peak reached by TVM's untuned kernels (only meaningful
    /// for devices TVM can target, i.e. the CPU).
    pub tvm_efficiency: f64,
    /// Fraction of peak reached by vendor-tuned kernels.
    pub vendor_efficiency: f64,
    /// Energy per useful float op at full efficiency, picojoules.
    pub pj_per_op_f32: f64,
    /// Energy per useful int8 op at full efficiency, picojoules.
    pub pj_per_op_int8: f64,
}

impl DeviceSpec {
    /// Effective compute throughput in GOP/s for the dtype width and
    /// kernel class, after the efficiency derating.
    pub fn effective_gops(&self, int8: bool, class: KernelClass) -> f64 {
        let peak = if int8 {
            self.int8_gops
        } else {
            self.f32_gflops
        };
        let eff = match class {
            KernelClass::TvmUntuned => self.tvm_efficiency,
            KernelClass::VendorTuned => self.vendor_efficiency,
        };
        peak * eff
    }

    /// Energy for `ops` operations under a kernel class, microjoules.
    ///
    /// Inefficient code spends the same silicon energy over more cycles
    /// per useful op, so energy scales inversely with the efficiency
    /// derating — the physics behind NeuroPilot's power pitch (paper §2.1).
    pub fn energy_uj(&self, ops: f64, int8: bool, class: KernelClass) -> f64 {
        let pj = if int8 {
            self.pj_per_op_int8
        } else {
            self.pj_per_op_f32
        };
        let eff = match class {
            KernelClass::TvmUntuned => self.tvm_efficiency,
            KernelClass::VendorTuned => self.vendor_efficiency,
        }
        .max(1e-9);
        ops * pj / eff * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec {
            kind: DeviceKind::Cpu,
            model_name: "test".into(),
            f32_gflops: 10.0,
            int8_gops: 40.0,
            mem_bw_gbps: 8.0,
            kernel_launch_us: 5.0,
            subgraph_dispatch_us: 50.0,
            tvm_efficiency: 0.1,
            vendor_efficiency: 0.5,
            pj_per_op_f32: 100.0,
            pj_per_op_int8: 25.0,
        }
    }

    #[test]
    fn set_label_joins_names_in_the_given_order() {
        assert_eq!(
            DeviceKind::set_label(&[DeviceKind::Cpu, DeviceKind::Apu]),
            "cpu+apu"
        );
        assert_eq!(DeviceKind::set_label(&[]), "");
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, d) in DeviceKind::ALL.into_iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn effective_throughput() {
        let s = spec();
        assert!((s.effective_gops(false, KernelClass::TvmUntuned) - 1.0).abs() < 1e-9);
        assert!((s.effective_gops(false, KernelClass::VendorTuned) - 5.0).abs() < 1e-9);
        assert!((s.effective_gops(true, KernelClass::VendorTuned) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn vendor_beats_tvm_by_construction() {
        let s = spec();
        assert!(
            s.effective_gops(false, KernelClass::VendorTuned)
                > s.effective_gops(false, KernelClass::TvmUntuned)
        );
    }

    #[test]
    fn energy_scales_with_inefficiency() {
        let s = spec();
        let tuned = s.energy_uj(1e9, false, KernelClass::VendorTuned);
        let untuned = s.energy_uj(1e9, false, KernelClass::TvmUntuned);
        assert!(untuned > 4.0 * tuned, "0.1 vs 0.5 efficiency = 5x energy");
        let int8 = s.energy_uj(1e9, true, KernelClass::VendorTuned);
        assert!(int8 < tuned, "int8 ops cost less energy");
    }

    #[test]
    fn names() {
        assert_eq!(DeviceKind::Apu.to_string(), "apu");
        assert_eq!(DeviceKind::ALL.len(), 3);
        for d in DeviceKind::ALL {
            assert_eq!(DeviceKind::parse(d.name()), Some(d));
        }
        assert_eq!(DeviceKind::parse("npu"), None);
    }
}
