//! Differential profiling: attribute latency/energy movement between two
//! measured profiles to specific (work kind, device, kernel class) cells.
//!
//! This is what turns "the fig4 median moved 6%" into "mac kernels on
//! the APU regressed 2.0×, costing 15.8 ms of the 16.1 ms delta": the
//! bench regression gate renders the ranked table next to a failing
//! comparison so the failure names the responsible ops.

use crate::store::Profile;

/// Cells with fewer samples than this on either side are reported but
/// never ranked as significant (too noisy to attribute).
const MIN_COUNT: u64 = 3;

/// Minimum relative per-sample movement (|ratio − 1|) for a cell to count
/// as significant.
const THRESHOLD: f64 = 0.05;

/// One cell's movement between baseline and current profile.
#[derive(Debug, Clone)]
pub struct CellDelta {
    /// `kind/device/class` cell key.
    pub cell: String,
    /// Baseline sample count.
    pub base_count: u64,
    /// Current sample count.
    pub cur_count: u64,
    /// Baseline per-sample mean latency, µs.
    pub base_mean_us: f64,
    /// Current per-sample mean latency, µs.
    pub cur_mean_us: f64,
    /// `cur_mean_us / base_mean_us` (1.0 = unchanged, or no baseline time).
    pub ratio: f64,
    /// Total measured-time movement, µs (current − baseline).
    pub delta_total_us: f64,
    /// Total energy movement, µJ (current − baseline).
    pub delta_energy_uj: f64,
    /// Whether the movement is significant: at least 3 samples on each
    /// side and a per-sample mean moved by more than 5 %.
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
            "cell", "n", "mean base", "mean cur", "ratio", "d-total us", "d-energy uJ"
        ));
        for d in &self.deltas {
            out.push_str(&format!(
                "  {:<34} {:>6} {:>11.2} {:>11.2} {:>6.2}x {:>+13.1} {:>+13.1}{}\n",
                d.cell,
                d.cur_count,
                d.base_mean_us,
                d.cur_mean_us,
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

/// Compare `current` against `baseline`, attributing movement per cell.
pub fn diff_profiles(baseline: &Profile, current: &Profile) -> ProfileDiff {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    let mut added = Vec::new();
    for (cell_key, base) in &baseline.cells {
        let Some(cur) = current.cells.get(cell_key) else {
            missing.push(cell_key.clone());
            continue;
        };
        let (base_mean_us, cur_mean_us) = (base.mean_us(), cur.mean_us());
        let ratio = if base_mean_us > 0.0 {
            cur_mean_us / base_mean_us
        } else {
            1.0
        };
        let significant =
            base.count >= MIN_COUNT && cur.count >= MIN_COUNT && (ratio - 1.0).abs() > THRESHOLD;
        deltas.push(CellDelta {
            cell: cell_key.clone(),
            base_count: base.count,
            cur_count: cur.count,
            base_mean_us,
            cur_mean_us,
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
    use tvmnp_hwsim::{DeviceKind, KernelClass, WorkKind};

    fn cell(key: &str) -> (WorkKind, DeviceKind, KernelClass) {
        crate::store::parse_cell_key(key).unwrap()
    }

    fn profile(mac_us: f64) -> Profile {
        let mut p = Profile::new("t");
        for i in 0..20 {
            p.record(cell("mac/apu/vendor_tuned"), mac_us + i as f64, 9.0);
            p.record(cell("elementwise/cpu/tvm_untuned"), 4.0, 0.3);
            p.record(cell("data-movement/cpu/vendor_tuned"), 1.5, 0.1);
        }
        p
    }

    #[test]
    fn doubled_mac_cell_ranks_first() {
        let base = profile(100.0);
        let cur = profile(200.0);
        let d = diff_profiles(&base, &cur);
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
    fn each_rows_mean_columns_divide_to_its_ratio() {
        let d = diff_profiles(&profile(100.0), &profile(200.0));
        let top = d.top().expect("a significant cell");
        assert_eq!(top.cur_mean_us, 209.5);
        assert_eq!(top.base_mean_us, 109.5);
        assert_eq!(top.ratio, top.cur_mean_us / top.base_mean_us);
        let table = d.render();
        assert!(
            table.lines().nth(1).unwrap().contains("mean base"),
            "{table}"
        );
        for row in d.deltas.iter() {
            assert_eq!(
                row.ratio,
                row.cur_mean_us / row.base_mean_us,
                "{}",
                row.cell
            );
            let line = table
                .lines()
                .find(|l| l.split_whitespace().next() == Some(row.cell.as_str()))
                .expect("a row per delta");
            let cols: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| cols[i].trim_end_matches('x').parse::<f64>().unwrap();
            let printed_ratio = format!("{:.2}", num(3) / num(2));
            assert_eq!(cols[4], format!("{printed_ratio}x"), "{line}");
        }
    }

    #[test]
    fn identical_profiles_have_no_significant_cells() {
        let base = profile(100.0);
        let d = diff_profiles(&base, &base.clone());
        assert!(d.top().is_none());
        assert!(d.missing.is_empty() && d.added.is_empty());
        assert_eq!(d.base_total_us, d.cur_total_us);
    }

    #[test]
    fn missing_and_added_cells_are_listed() {
        let base = profile(100.0);
        let mut cur = profile(100.0);
        cur.cells.remove("elementwise/cpu/tvm_untuned");
        cur.record(cell("reduction/gpu/vendor_tuned"), 2.0, 0.1);
        let d = diff_profiles(&base, &cur);
        assert_eq!(d.missing, vec!["elementwise/cpu/tvm_untuned".to_string()]);
        assert_eq!(d.added, vec!["reduction/gpu/vendor_tuned".to_string()]);
        let table = d.render();
        assert!(table.contains("MISSING") && table.contains("NEW"));
    }

    #[test]
    fn a_cell_with_no_baseline_time_reads_unchanged() {
        let mut base = profile(100.0);
        let mut cur = profile(100.0);
        for _ in 0..MIN_COUNT {
            base.record(cell("reduction/gpu/vendor_tuned"), 0.0, 0.0);
            cur.record(cell("reduction/gpu/vendor_tuned"), 2.0, 0.0);
        }
        let d = diff_profiles(&base, &cur);
        let row = d
            .deltas
            .iter()
            .find(|c| c.cell == "reduction/gpu/vendor_tuned")
            .unwrap();
        assert_eq!(
            (row.base_mean_us, row.cur_mean_us, row.ratio),
            (0.0, 2.0, 1.0)
        );
        assert!(!row.significant);
        assert_eq!(row.delta_total_us, 2.0 * MIN_COUNT as f64);
    }

    #[test]
    fn low_count_cells_never_rank_significant() {
        let mut base = profile(100.0);
        let mut cur = profile(100.0);
        base.record(cell("reduction/gpu/vendor_tuned"), 1.0, 0.0);
        cur.record(cell("reduction/gpu/vendor_tuned"), 50.0, 0.0);
        let d = diff_profiles(&base, &cur);
        let noisy = d
            .deltas
            .iter()
            .find(|c| c.cell == "reduction/gpu/vendor_tuned")
            .unwrap();
        assert!(!noisy.significant, "1-sample cell must not be significant");
    }
}
