//! Top-K op cost attribution: where the simulated microseconds go.
//!
//! Two sources, one shape: `executor.node` sim spans from a traced run, or
//! the [`CostEntry`] ledger of a compiled model (no execution needed).
//! Grouping is by `(op, device)` so `conv2d@apu` and
//! `conv2d@cpu` rank separately — exactly the split the paper's Figs. 4/6
//! argue about.

use std::collections::BTreeMap;
use tvmnp_hwsim::CostEntry;
use tvmnp_telemetry::Snapshot;

/// Aggregate cost of one `(op, device)` group.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCost {
    /// Op or kernel name (`nn.conv2d`, `nir_0`, `transfer`, ...).
    pub op: String,
    /// Device the group ran on.
    pub device: String,
    /// Number of contributing nodes/spans.
    pub calls: u64,
    /// Summed simulated time, microseconds.
    pub total_us: f64,
    /// Fraction of the whole run's time, in `[0, 1]`.
    pub share: f64,
}

fn rank(groups: BTreeMap<(String, String), (u64, f64)>, k: usize) -> Vec<OpCost> {
    let total: f64 = groups.values().map(|(_, us)| us).sum();
    let mut out: Vec<OpCost> = groups
        .into_iter()
        .map(|((op, device), (calls, total_us))| OpCost {
            op,
            device,
            calls,
            total_us,
            share: if total > 0.0 { total_us / total } else { 0.0 },
        })
        .collect();
    // Sort by cost descending; the BTreeMap key (op, device) breaks ties
    // deterministically.
    out.sort_by(|a, b| {
        b.total_us
            .partial_cmp(&a.total_us)
            .unwrap()
            .then_with(|| (&a.op, &a.device).cmp(&(&b.op, &b.device)))
    });
    if k > 0 {
        out.truncate(k);
    }
    out
}

/// Top-`k` cost groups from the `span_name` sim spans of a snapshot
/// (`k = 0` keeps every group). Spans are grouped by their `op` and
/// `device` fields.
pub fn attribute_spans(snap: &Snapshot, span_name: &str, k: usize) -> Vec<OpCost> {
    let mut groups: BTreeMap<(String, String), (u64, f64)> = BTreeMap::new();
    for e in snap.spans_named(span_name) {
        let get = |key: &str| e.str(key).unwrap_or("?").to_string();
        let entry = groups.entry((get("op"), get("device"))).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += e.dur_us();
    }
    rank(groups, k)
}

/// Top-`k` cost groups from a model's cost ledger (`k = 0` keeps every
/// group).
pub fn attribute_breakdown(costs: &[CostEntry], k: usize) -> Vec<OpCost> {
    let mut groups: BTreeMap<(String, String), (u64, f64)> = BTreeMap::new();
    for c in costs {
        let entry = groups
            .entry((c.label.to_string(), c.device.name().to_string()))
            .or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += c.us;
    }
    rank(groups, k)
}

/// Render attribution rows as an aligned text table.
pub fn render_text(rows: &[OpCost]) -> String {
    let mut out = format!(
        "{:<24} {:<8} {:>7} {:>12} {:>7}\n",
        "op", "device", "calls", "total us", "%"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:<8} {:>7} {:>12.1} {:>7.1}\n",
            r.op,
            r.device,
            r.calls,
            r.total_us,
            r.share * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(op: &'static str, device: &str, us: f64) -> CostEntry {
        let device = tvmnp_hwsim::DeviceKind::parse(device).unwrap();
        CostEntry::fixed(0, op, tvmnp_hwsim::CostRole::Kernel, device, us)
    }

    #[test]
    fn breakdown_groups_rank_by_cost() {
        let rows = attribute_breakdown(
            &[
                cost("nn.conv2d", "apu", 50.0),
                cost("nn.conv2d", "apu", 30.0),
                cost("nn.relu", "cpu", 5.0),
                cost("nn.conv2d", "cpu", 60.0),
            ],
            0,
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(
            (rows[0].op.as_str(), rows[0].device.as_str()),
            ("nn.conv2d", "apu")
        );
        assert_eq!(rows[0].calls, 2);
        assert!((rows[0].total_us - 80.0).abs() < 1e-9);
        assert!((rows[0].share - 80.0 / 145.0).abs() < 1e-9);
        assert_eq!(rows[1].device, "cpu");
        let share_sum: f64 = rows.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_k_truncates_after_ranking() {
        let rows = attribute_breakdown(
            &[
                cost("a", "cpu", 1.0),
                cost("b", "cpu", 3.0),
                cost("c", "cpu", 2.0),
            ],
            2,
        );
        let names: Vec<&str> = rows.iter().map(|r| r.op.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn equal_costs_tie_break_deterministically() {
        let rows = attribute_breakdown(
            &[
                cost("b", "cpu", 2.0),
                cost("a", "cpu", 2.0),
                cost("a", "apu", 2.0),
            ],
            0,
        );
        let keys: Vec<(&str, &str)> = rows
            .iter()
            .map(|r| (r.op.as_str(), r.device.as_str()))
            .collect();
        assert_eq!(keys, vec![("a", "apu"), ("a", "cpu"), ("b", "cpu")]);
    }

    #[test]
    fn span_attribution_reads_op_and_device_args() {
        let _l = crate::testutil::lock();
        tvmnp_telemetry::enable();
        tvmnp_telemetry::reset();
        for (op, device, ts, us) in [
            ("nn.conv2d", "apu", 0.0, 40.0),
            ("nn.relu", "cpu", 40.0, 10.0),
            ("nn.conv2d", "apu", 50.0, 20.0),
        ] {
            tvmnp_telemetry::record_sim_span(
                "executor.node",
                ts,
                us,
                vec![("op", op.into()), ("device", device.into())],
            );
        }
        tvmnp_telemetry::disable();
        let rows = attribute_spans(&tvmnp_telemetry::snapshot(), "executor.node", 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].op, "nn.conv2d");
        assert_eq!(rows[0].calls, 2);
        assert!((rows[0].total_us - 60.0).abs() < 1e-9);
    }
}
