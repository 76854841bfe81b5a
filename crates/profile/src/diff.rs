//! Differential profiling: attribute latency/energy movement between two
//! measured profiles to specific (work kind, device, kernel class) cells.
//!
//! This is what turns "the fig4 median moved 6%" into "mac kernels on
//! the APU regressed 2.0×, costing 15.8 ms of the 16.1 ms delta": the
//! bench regression gate renders the ranked table next to a failing
//! comparison so the failure names the responsible ops.

use crate::store::{Profile, ProfileCell};

/// Significance knobs for [`diff_profiles`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Cells with fewer samples than this on either side are reported
    /// but never ranked as significant (too noisy to attribute).
    pub min_count: u64,
    /// Minimum relative per-sample movement (|ratio − 1|) for a cell to
    /// count as significant.
    pub threshold: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            min_count: 3,
            threshold: 0.05,
        }
    }
}

/// One cell's movement between baseline and current profile.
#[derive(Debug, Clone)]
pub struct CellDelta {
    /// `kind/device/class` cell key.
    pub cell: String,
    /// Baseline / current sample counts.
    pub base_count: u64,
    /// Current sample count.
    pub cur_count: u64,
    /// Baseline / current median latency, µs (from the cell sketches).
    pub base_p50_us: f64,
    /// Current median latency, µs.
    pub cur_p50_us: f64,
    /// Per-sample mean ratio current/baseline (1.0 = unchanged).
    pub ratio: f64,
    /// Total measured-time movement, µs (current − baseline).
    pub delta_total_us: f64,
    /// Total energy movement, µJ (current − baseline).
    pub delta_energy_uj: f64,
    /// Whether the movement clears [`DiffOptions`] significance.
    pub significant: bool,
}

/// Ranked attribution of the movement between two profiles.
#[derive(Debug, Clone)]
pub struct ProfileDiff {
    /// Per-cell deltas: significant cells first, then by |Δtotal µs|.
    pub deltas: Vec<CellDelta>,
    /// Cells present in the baseline but absent now.
    pub missing: Vec<String>,
    /// Cells absent from the baseline but present now.
    pub added: Vec<String>,
    /// Baseline total measured time, µs.
    pub base_total_us: f64,
    /// Current total measured time, µs.
    pub cur_total_us: f64,
}

impl ProfileDiff {
    /// The top-ranked *significant* cell — the regression gate's "likely
    /// cause" — or `None` when nothing moved significantly.
    pub fn top(&self) -> Option<&CellDelta> {
        self.deltas.iter().find(|d| d.significant)
    }

    /// Render the ranked attribution table (aligned fixed-width text).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "measured-profile attribution (current {:.1} us vs baseline {:.1} us, {:+.1} us):\n",
            self.cur_total_us,
            self.base_total_us,
            self.cur_total_us - self.base_total_us
        ));
        out.push_str(&format!(
            "  {:<34} {:>6} {:>11} {:>11} {:>7} {:>13} {:>13}\n",
            "cell", "n", "p50 base", "p50 cur", "ratio", "d-total us", "d-energy uJ"
        ));
        for d in &self.deltas {
            out.push_str(&format!(
                "  {:<34} {:>6} {:>11.2} {:>11.2} {:>6.2}x {:>+13.1} {:>+13.1}{}\n",
                d.cell,
                d.cur_count,
                d.base_p50_us,
                d.cur_p50_us,
                d.ratio,
                d.delta_total_us,
                d.delta_energy_uj,
                if d.significant { "  *" } else { "" }
            ));
        }
        for cell in &self.missing {
            out.push_str(&format!("  {cell:<34} MISSING from current profile\n"));
        }
        for cell in &self.added {
            out.push_str(&format!("  {cell:<34} NEW in current profile\n"));
        }
        out
    }
}

fn p50(cell: &ProfileCell) -> f64 {
    // Sketches answer quantiles through &mut self (they flush buffered
    // inserts); the diff works on borrowed profiles, so query a clone.
    cell.sketch.clone().query(0.5)
}

/// Compare `current` against `baseline`, attributing movement per cell.
pub fn diff_profiles(baseline: &Profile, current: &Profile, opts: &DiffOptions) -> ProfileDiff {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    let mut added = Vec::new();
    for (cell_key, base) in &baseline.cells {
        let Some(cur) = current.cells.get(cell_key) else {
            missing.push(cell_key.clone());
            continue;
        };
        let ratio = if base.mean_us() > 0.0 {
            cur.mean_us() / base.mean_us()
        } else {
            1.0
        };
        let significant = base.count >= opts.min_count
            && cur.count >= opts.min_count
            && (ratio - 1.0).abs() > opts.threshold;
        deltas.push(CellDelta {
            cell: cell_key.clone(),
            base_count: base.count,
            cur_count: cur.count,
            base_p50_us: p50(base),
            cur_p50_us: p50(cur),
            ratio,
            delta_total_us: cur.total_us - base.total_us,
            delta_energy_uj: cur.total_energy_uj - base.total_energy_uj,
            significant,
        });
    }
    for cell_key in current.cells.keys() {
        if !baseline.cells.contains_key(cell_key) {
            added.push(cell_key.clone());
        }
    }
    // Significant first, then by absolute time impact; cell name breaks
    // ties so the ordering is deterministic.
    deltas.sort_by(|a, b| {
        b.significant
            .cmp(&a.significant)
            .then(
                b.delta_total_us
                    .abs()
                    .partial_cmp(&a.delta_total_us.abs())
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then_with(|| a.cell.cmp(&b.cell))
    });
    ProfileDiff {
        deltas,
        missing,
        added,
        base_total_us: baseline.total_us(),
        cur_total_us: current.total_us(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ProfileKey;
    use tvmnp_hwsim::{DeviceKind, KernelClass, WorkKind};

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

    fn profile(mac_us: f64) -> Profile {
        let mut p = Profile::new(key());
        for i in 0..20 {
            p.record(cell("mac/apu/vendor_tuned"), mac_us + i as f64, 100.0, 9.0);
            p.record(cell("elementwise/cpu/tvm_untuned"), 4.0, 4.0, 0.3);
            p.record(cell("data-movement/cpu/vendor_tuned"), 1.5, 1.5, 0.1);
        }
        p
    }

    #[test]
    fn doubled_mac_cell_ranks_first() {
        let base = profile(100.0);
        let cur = profile(200.0);
        let d = diff_profiles(&base, &cur, &DiffOptions::default());
        let top = d.top().expect("a significant cell");
        assert_eq!(top.cell, "mac/apu/vendor_tuned");
        assert!(top.ratio > 1.8 && top.ratio < 2.2, "ratio {}", top.ratio);
        assert!(top.delta_total_us > 0.0);
        // Unmoved cells are present but not significant.
        assert!(d
            .deltas
            .iter()
            .filter(|c| c.cell != "mac/apu/vendor_tuned")
            .all(|c| !c.significant));
        let table = d.render();
        assert!(table.contains("mac/apu/vendor_tuned"));
        assert!(table.lines().nth(2).unwrap().contains("mac/apu"), "{table}");
    }

    #[test]
    fn identical_profiles_have_no_significant_cells() {
        let base = profile(100.0);
        let d = diff_profiles(&base, &base.clone(), &DiffOptions::default());
        assert!(d.top().is_none());
        assert!(d.missing.is_empty() && d.added.is_empty());
        assert_eq!(d.base_total_us, d.cur_total_us);
    }

    #[test]
    fn missing_and_added_cells_are_listed() {
        let base = profile(100.0);
        let mut cur = profile(100.0);
        cur.cells.remove("elementwise/cpu/tvm_untuned");
        cur.record(cell("reduction/gpu/vendor_tuned"), 2.0, 2.0, 0.1);
        let d = diff_profiles(&base, &cur, &DiffOptions::default());
        assert_eq!(d.missing, vec!["elementwise/cpu/tvm_untuned".to_string()]);
        assert_eq!(d.added, vec!["reduction/gpu/vendor_tuned".to_string()]);
        let table = d.render();
        assert!(table.contains("MISSING") && table.contains("NEW"));
    }

    #[test]
    fn low_count_cells_never_rank_significant() {
        let mut base = profile(100.0);
        let mut cur = profile(100.0);
        base.record(cell("reduction/gpu/vendor_tuned"), 1.0, 1.0, 0.0);
        cur.record(cell("reduction/gpu/vendor_tuned"), 50.0, 1.0, 0.0);
        let d = diff_profiles(&base, &cur, &DiffOptions::default());
        let noisy = d
            .deltas
            .iter()
            .find(|c| c.cell == "reduction/gpu/vendor_tuned")
            .unwrap();
        assert!(!noisy.significant, "1-sample cell must not be significant");
    }
}
