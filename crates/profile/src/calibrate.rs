//! Calibration: fit the analytic cost model to a measured profile.
//!
//! For every (device, work kind) pair observed in a profile, the fitted
//! scale is `Σ measured µs / Σ analytic µs` — the maximum-likelihood
//! multiplier under the model's multiplicative error. Feeding the scales
//! back through [`tvmnp_hwsim::CostModel::with_device_kind_scales`]
//! yields a cost model whose predictions track the measurements; the
//! per-cell residual report quantifies the fit, and the drift detector
//! names cells whose divergence exceeds a threshold — the feedback
//! signal ROADMAP item 2's placement search consumes.

use crate::store::{parse_cell_key, Profile};
use std::collections::BTreeMap;
use tvmnp_hwsim::{CostModel, DeviceKind, KernelClass, WorkKind};

/// Default drift threshold: a fitted scale more than 25% away from 1.0
/// means the analytic model misses that cell badly enough to matter.
pub const DRIFT_THRESHOLD: f64 = 0.25;

/// Measured-vs-analytic fit for one `kind/device/class` cell.
#[derive(Debug, Clone)]
pub struct CellResidual {
    /// `kind/device/class` cell key.
    pub cell: String,
    /// Typed cell coordinates.
    pub kind: WorkKind,
    /// Device of the cell.
    pub device: DeviceKind,
    /// Kernel class of the cell.
    pub class: KernelClass,
    /// Scale fitted for this cell's (device, kind) pair.
    pub scale: f64,
    /// Measured total, µs.
    pub measured_us: f64,
    /// Unscaled analytic total, µs.
    pub analytic_us: f64,
    /// |measured − analytic| before calibration, µs.
    pub uncalibrated_err_us: f64,
    /// |measured − scale·analytic| after calibration, µs.
    pub calibrated_err_us: f64,
}

impl CellResidual {
    /// Whether this cell's fitted scale exceeds `threshold` drift.
    pub fn drifted(&self, threshold: f64) -> bool {
        (self.scale - 1.0).abs() > threshold
    }
}

/// Per-(device, kind) scale factors fitted from a measured profile, with
/// the residual report of the fit.
#[derive(Debug, Clone)]
pub struct CalibratedCostModel {
    base: CostModel,
    scales: BTreeMap<String, (DeviceKind, WorkKind, f64)>,
    /// Per-cell fit report, in deterministic cell-key order.
    pub residuals: Vec<CellResidual>,
}

impl CalibratedCostModel {
    /// Fit scales from `profile` onto `base`'s SoC. Cells whose analytic
    /// total is zero (nothing to scale) keep scale 1.0.
    pub fn fit(profile: &Profile, base: &CostModel) -> CalibratedCostModel {
        // Aggregate measured/analytic totals per (device, kind): the
        // scale tables of CostModel have that granularity, so classes
        // sharing a pair share a scale (residuals expose the spread).
        let mut totals: BTreeMap<String, (DeviceKind, WorkKind, f64, f64)> = BTreeMap::new();
        for (cell_key, cell) in &profile.cells {
            let Some((kind, device, _class)) = parse_cell_key(cell_key) else {
                continue;
            };
            let slot = totals
                .entry(format!("{}/{}", kind.name(), device.name()))
                .or_insert((device, kind, 0.0, 0.0));
            slot.2 += cell.total_us;
            slot.3 += cell.total_analytic_us;
        }
        let scales: BTreeMap<String, (DeviceKind, WorkKind, f64)> = totals
            .into_iter()
            .map(|(pair, (device, kind, measured, analytic))| {
                let scale = if analytic > 0.0 {
                    measured / analytic
                } else {
                    1.0
                };
                (pair, (device, kind, scale))
            })
            .collect();
        let mut residuals = Vec::new();
        for (cell_key, cell) in &profile.cells {
            let Some((kind, device, class)) = parse_cell_key(cell_key) else {
                continue;
            };
            let scale = scales
                .get(&format!("{}/{}", kind.name(), device.name()))
                .map(|&(_, _, s)| s)
                .unwrap_or(1.0);
            residuals.push(CellResidual {
                cell: cell_key.clone(),
                kind,
                device,
                class,
                scale,
                measured_us: cell.total_us,
                analytic_us: cell.total_analytic_us,
                uncalibrated_err_us: (cell.total_us - cell.total_analytic_us).abs(),
                calibrated_err_us: (cell.total_us - scale * cell.total_analytic_us).abs(),
            });
        }
        CalibratedCostModel {
            base: base.unscaled(),
            scales,
            residuals,
        }
    }

    /// Fitted scale for a (device, kind) pair (1.0 when unobserved).
    pub fn scale(&self, device: DeviceKind, kind: WorkKind) -> f64 {
        self.scales
            .get(&format!("{}/{}", kind.name(), device.name()))
            .map(|&(_, _, s)| s)
            .unwrap_or(1.0)
    }

    /// Total absolute residual (µs) before and after calibration. The
    /// calibrated figure is never worse per (device, kind) pair — the
    /// fitted scale is exact on the pair's aggregate — so it shrinks
    /// whenever the analytic model missed anywhere.
    pub fn residual_us(&self) -> (f64, f64) {
        let uncal = self.residuals.iter().map(|r| r.uncalibrated_err_us).sum();
        let cal = self.residuals.iter().map(|r| r.calibrated_err_us).sum();
        (uncal, cal)
    }

    /// Cells whose fitted scale drifts beyond `threshold` from 1.0 —
    /// where the analytic model can no longer be trusted unscaled.
    pub fn drifted(&self, threshold: f64) -> Vec<&CellResidual> {
        self.residuals
            .iter()
            .filter(|r| r.drifted(threshold))
            .collect()
    }

    /// The calibrated cost model: the base SoC with every fitted scale
    /// applied as a (device, kind) multiplier.
    pub fn to_cost_model(&self) -> CostModel {
        self.base.clone().with_device_kind_scales(
            self.scales
                .values()
                .map(|&(device, kind, scale)| (device, kind, scale)),
        )
    }

    /// Render the residual/drift report (aligned fixed-width text).
    pub fn render(&self, drift_threshold: f64) -> String {
        let (uncal, cal) = self.residual_us();
        let mut out = String::new();
        out.push_str(&format!(
            "calibration residuals: {uncal:.1} us uncalibrated -> {cal:.1} us calibrated\n"
        ));
        out.push_str(&format!(
            "  {:<34} {:>8} {:>12} {:>12} {:>10} {:>10}\n",
            "cell", "scale", "measured us", "analytic us", "err before", "err after"
        ));
        for r in &self.residuals {
            out.push_str(&format!(
                "  {:<34} {:>7.3}x {:>12.1} {:>12.1} {:>10.2} {:>10.2}{}\n",
                r.cell,
                r.scale,
                r.measured_us,
                r.analytic_us,
                r.uncalibrated_err_us,
                r.calibrated_err_us,
                if r.drifted(drift_threshold) {
                    "  DRIFT"
                } else {
                    ""
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ProfileKey;
    use tvmnp_hwsim::WorkItem;

    fn cell(key: &str) -> (WorkKind, DeviceKind, KernelClass) {
        crate::store::parse_cell_key(key).unwrap()
    }

    fn key() -> ProfileKey {
        ProfileKey {
            workload: "t".to_string(),
            permutation: "byoc-cpu-apu".to_string(),
            quant: "f32".to_string(),
            soc: "dimensity-800".to_string(),
        }
    }

    /// A profile where mac-on-apu measured 2x its analytic prediction and
    /// everything else matched.
    fn skewed_profile() -> Profile {
        let mut p = Profile::new(key());
        for _ in 0..10 {
            p.record(cell("mac/apu/vendor_tuned"), 200.0, 100.0, 9.0);
            p.record(cell("elementwise/cpu/tvm_untuned"), 4.0, 4.0, 0.3);
        }
        p
    }

    #[test]
    fn fit_recovers_injected_scale_and_shrinks_residuals() {
        let cal = CalibratedCostModel::fit(&skewed_profile(), &CostModel::default());
        assert!((cal.scale(DeviceKind::Apu, WorkKind::MacHeavy) - 2.0).abs() < 1e-9);
        assert_eq!(cal.scale(DeviceKind::Cpu, WorkKind::Elementwise), 1.0);
        assert_eq!(cal.scale(DeviceKind::Gpu, WorkKind::Reduction), 1.0);
        let (uncal, calres) = cal.residual_us();
        assert!(uncal > 0.0);
        assert!(calres < uncal, "calibration must shrink residuals");
        let drifted = cal.drifted(DRIFT_THRESHOLD);
        assert_eq!(drifted.len(), 1);
        assert_eq!(drifted[0].cell, "mac/apu/vendor_tuned");
        assert!(cal.render(DRIFT_THRESHOLD).contains("DRIFT"));
    }

    #[test]
    fn calibrated_model_predicts_measured_time() {
        let cal = CalibratedCostModel::fit(&skewed_profile(), &CostModel::default());
        let model = cal.to_cost_model();
        let w = WorkItem {
            macs: 50_000_000,
            bytes_in: 1 << 20,
            bytes_out: 1 << 18,
            int8: true,
            kind: WorkKind::MacHeavy,
        };
        let analytic =
            CostModel::default().kernel_body_us(&w, DeviceKind::Apu, KernelClass::VendorTuned);
        let calibrated = model.kernel_body_us(&w, DeviceKind::Apu, KernelClass::VendorTuned);
        assert!((calibrated - 2.0 * analytic).abs() < 1e-9);
        // Unobserved pairs stay at the analytic prediction.
        let cpu = model.kernel_body_us(&w, DeviceKind::Cpu, KernelClass::VendorTuned);
        let cpu_ref =
            CostModel::default().kernel_body_us(&w, DeviceKind::Cpu, KernelClass::VendorTuned);
        assert_eq!(cpu, cpu_ref);
    }

    #[test]
    fn perfect_profile_fits_identity() {
        let mut p = Profile::new(key());
        for _ in 0..5 {
            p.record(cell("reduction/gpu/vendor_tuned"), 7.0, 7.0, 0.5);
        }
        let cal = CalibratedCostModel::fit(&p, &CostModel::default());
        assert_eq!(cal.scale(DeviceKind::Gpu, WorkKind::Reduction), 1.0);
        let (uncal, calres) = cal.residual_us();
        assert_eq!(uncal, 0.0);
        assert_eq!(calres, 0.0);
        assert!(cal.drifted(DRIFT_THRESHOLD).is_empty());
    }
}
