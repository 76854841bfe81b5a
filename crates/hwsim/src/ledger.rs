//! The cost ledger: every simulated microsecond and microjoule a compiled
//! model charges, as one flat list built once at compile time.
//!
//! Static shapes make simulated cost input-independent, so the two
//! compiled objects (`neuropilot::CompiledNetwork`, `runtime::GraphExecutor`)
//! derive it exactly once, into a `Vec<CostEntry>`, and everything else —
//! run-time accounting, `estimate_*`, per-device attribution, measured
//! profiles — reads that vector. Total time is the sum of the entries
//! **in ledger order** ([`charge`]); no consumer adds them any other way,
//! so a fault-free run returns bit-exactly the estimate.

use crate::cost::{CostModel, WorkItem, WorkKind};
use crate::device::{DeviceKind, KernelClass};

/// What a ledger entry pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostRole {
    /// A kernel's execution (host kernels: body only; Neuron kernels:
    /// body plus their own launch).
    Kernel,
    /// The one launch a host fusion group pays, ahead of its first kernel.
    Launch,
    /// Driver entry of one planned Neuron segment.
    Dispatch,
    /// Weights an off-CPU segment stages through the driver per dispatch.
    Staging,
    /// A tensor crossing a device or runtime boundary.
    Transfer,
    /// The NNAPI HAL/binder round trip.
    Hal,
}

/// One charged item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEntry {
    /// Owner index: the graph node in an executor ledger; the op
    /// (kernels), segment (dispatch/staging) or crossing (transfers) in a
    /// Neuron network's own ledger.
    pub node: usize,
    /// Op name, or the overhead's name (`dispatch`, `boundary-in`, ...).
    pub label: &'static str,
    /// What the entry pays for.
    pub role: CostRole,
    /// Work category (overheads are data movement).
    pub kind: WorkKind,
    /// Device the time is charged to.
    pub device: DeviceKind,
    /// Kernel provenance (fallback ops run untuned TVM-style kernels).
    pub class: KernelClass,
    /// Charged simulated time, µs (includes injected scaling/throttles).
    pub us: f64,
    /// Analytic prediction with every injected multiplier removed, µs —
    /// what a measured profile compares `us` against.
    pub analytic_us: f64,
    /// Estimated energy, µJ.
    pub energy_uj: f64,
    /// Whether this is a reference-implementation fallback kernel.
    pub fallback: bool,
}

impl CostEntry {
    /// A fixed overhead (launch, dispatch, HAL): the scale tables never
    /// touch it, so analytic == charged, and it burns no modelled energy.
    pub fn fixed(
        node: usize,
        label: &'static str,
        role: CostRole,
        device: DeviceKind,
        us: f64,
    ) -> CostEntry {
        CostEntry {
            node,
            label,
            role,
            kind: WorkKind::DataMovement,
            device,
            class: KernelClass::VendorTuned,
            us,
            analytic_us: us,
            energy_uj: 0.0,
            fallback: false,
        }
    }

    /// Moving `bytes` across a boundary. Only [`CostRole::Transfer`]
    /// carries energy: the model does not cover staging traffic.
    pub fn transfer(
        cost: &CostModel,
        node: usize,
        label: &'static str,
        role: CostRole,
        device: DeviceKind,
        bytes: usize,
    ) -> CostEntry {
        let mut entry = CostEntry::fixed(node, label, role, device, cost.transfer_us(bytes));
        if role == CostRole::Transfer {
            entry.energy_uj = cost.transfer_energy_uj(bytes);
        }
        entry
    }

    /// One kernel including its own launch overhead (Neuron ops).
    pub fn kernel(
        cost: &CostModel,
        node: usize,
        label: &'static str,
        w: &WorkItem,
        device: DeviceKind,
        class: KernelClass,
        fallback: bool,
    ) -> CostEntry {
        // Agrees bit for bit with `CostModel::kernel_us` (launch + body).
        let launch_us = cost.soc().device(device).kernel_launch_us;
        let mut entry = CostEntry::kernel_body(cost, node, label, w, device, class);
        entry.us += launch_us;
        entry.analytic_us += launch_us;
        entry.fallback = fallback;
        entry
    }

    /// One kernel's roofline body, launch charged separately (host ops,
    /// whose launch is per fusion group).
    pub fn kernel_body(
        cost: &CostModel,
        node: usize,
        label: &'static str,
        w: &WorkItem,
        device: DeviceKind,
        class: KernelClass,
    ) -> CostEntry {
        CostEntry {
            node,
            label,
            role: CostRole::Kernel,
            kind: w.kind,
            device,
            class,
            us: cost.kernel_body_us(w, device, class),
            analytic_us: cost.analytic_body_us(w, device, class),
            energy_uj: cost.kernel_energy_uj(w, device, class),
            fallback: false,
        }
    }
}

/// Advance a simulated clock over `entries` — the one accumulation order.
pub fn charge(time_us: &mut f64, entries: &[CostEntry]) {
    for e in entries {
        *time_us += e.us;
    }
}

/// Simulated time of one inference, µs.
pub fn total_us(ledger: &[CostEntry]) -> f64 {
    let mut t = 0.0;
    charge(&mut t, ledger);
    t
}

/// Simulated energy of one inference, µJ.
pub fn total_energy_uj(ledger: &[CostEntry]) -> f64 {
    ledger.iter().fold(0.0, |e, entry| e + entry.energy_uj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> WorkItem {
        WorkItem {
            macs: 5_000_000,
            bytes_in: 1 << 16,
            bytes_out: 1 << 14,
            int8: false,
            kind: WorkKind::MacHeavy,
        }
    }

    #[test]
    fn kernel_entries_pair_charged_with_unscaled_time() {
        let scaled = CostModel::default().with_kind_scale(WorkKind::MacHeavy, 2.0);
        let plain = scaled.unscaled();
        let (d, c) = (DeviceKind::Apu, KernelClass::VendorTuned);
        let e = CostEntry::kernel(&scaled, 3, "CONV_2D", &conv(), d, c, false);
        assert_eq!(e.us, scaled.kernel_us(&conv(), d, c));
        assert_eq!(e.analytic_us, plain.kernel_us(&conv(), d, c));
        assert!(e.us > e.analytic_us);
        let b = CostEntry::kernel_body(&scaled, 3, "nn.conv2d", &conv(), d, c);
        assert_eq!(b.analytic_us, plain.kernel_body_us(&conv(), d, c));
        assert_eq!(b.energy_uj, e.energy_uj);
    }

    #[test]
    fn only_transfers_carry_energy_among_overheads() {
        let cost = CostModel::default();
        let t = CostEntry::transfer(
            &cost,
            0,
            "transfer",
            CostRole::Transfer,
            DeviceKind::Cpu,
            4096,
        );
        let s = CostEntry::transfer(
            &cost,
            0,
            "staging",
            CostRole::Staging,
            DeviceKind::Apu,
            4096,
        );
        assert_eq!(t.us, s.us);
        assert_eq!((t.analytic_us, s.analytic_us), (t.us, s.us));
        assert!(t.energy_uj > 0.0);
        assert_eq!(s.energy_uj, 0.0);
    }

    #[test]
    fn totals_follow_ledger_order() {
        let l: Vec<CostEntry> = [0.1, 0.2, 0.3]
            .iter()
            .map(|&us| CostEntry::fixed(0, "dispatch", CostRole::Dispatch, DeviceKind::Cpu, us))
            .collect();
        assert_eq!(total_us(&l), (0.1 + 0.2) + 0.3);
        assert_eq!(total_us(&[]), 0.0);
        assert_eq!(total_energy_uj(&l), 0.0);
    }
}
