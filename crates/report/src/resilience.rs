//! Resilience report: aggregate the `resilience.*` telemetry emitted by
//! fault-injected runs (retries, fallbacks, breaker trips, dropped
//! frames) into a table the bench binaries print next to the figures.
//!
//! Retries and fallbacks are read once, off the simulated-time
//! `resilience.retry` / `resilience.fallback` spans; everything else comes
//! straight from the collector's registry. A run with fault injection
//! disabled yields an all-zero report.

#![deny(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use tvmnp_telemetry::Snapshot;

/// One observed degradation step, `from → to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FallbackEdge {
    /// Permutation that failed.
    pub from: String,
    /// Permutation tried next (`"<exhausted>"` on the last chain step).
    pub to: String,
    /// How many times this edge was taken.
    pub count: u64,
}

/// One structured fallback transition, reconstructed from a
/// `resilience.fallback` span's fields — the event-level view (which model,
/// which cause stage, full detail) that the counter-level
/// [`FallbackEdge`]s aggregate away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FallbackTransition {
    /// Model the session was running.
    pub model: String,
    /// Permutation that failed.
    pub from: String,
    /// Permutation tried next (`"<exhausted>"` on the last chain step).
    pub to: String,
    /// Cause stage: `breaker`, `compile`, `build`, or `run`.
    pub cause: String,
    /// Human-readable fault detail.
    pub detail: String,
}

/// Aggregated resilience telemetry for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceReport {
    /// Retries per device (`resilience.retry` spans by `device`).
    pub retries: BTreeMap<String, u64>,
    /// Degradation edges taken, ordered by `(from, to)`: the
    /// [`transitions`](Self::transitions) counted per edge.
    pub fallbacks: Vec<FallbackEdge>,
    /// Circuit-breaker trips per device (`resilience.breaker_trips{device=}`).
    pub breaker_trips: BTreeMap<String, u64>,
    /// Runs that completed after at least one fault (`resilience.recovered`).
    pub recovered: u64,
    /// Runs that exhausted the whole fallback chain (`resilience.failed`).
    pub failed: u64,
    /// Vision frames with dropped stages, per stage
    /// (`vision.frames_dropped{stage=}`).
    pub frames_dropped: BTreeMap<String, u64>,
    /// Final simulated latency per `model @ permutation`
    /// (`resilience.final_us{model=,permutation=}`).
    pub final_us: BTreeMap<String, f64>,
    /// Structured fallback transitions in trace order, each carrying the
    /// model, the edge, and the cause stage/detail.
    pub transitions: Vec<FallbackTransition>,
}

impl ResilienceReport {
    /// Aggregate a traced run's snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> ResilienceReport {
        let mut report = ResilienceReport::default();
        for (key, c) in &snap.metrics.counters {
            // One label off the counter's key (empty string when absent).
            let label = |name| key.label(name).unwrap_or_default().to_string();
            match key.name.as_str() {
                "resilience.breaker_trips" => {
                    *report.breaker_trips.entry(label("device")).or_insert(0) += c;
                }
                "resilience.recovered" => report.recovered += c,
                "resilience.failed" => report.failed += c,
                "vision.frames_dropped" => {
                    *report.frames_dropped.entry(label("stage")).or_insert(0) += c;
                }
                _ => {}
            }
        }
        for (key, v) in &snap.metrics.gauges {
            if key.name == "resilience.final_us" {
                let label = |name| key.label(name).unwrap_or_default();
                let key = format!("{} @ {}", label("model"), label("permutation"));
                report.final_us.insert(key, *v);
            }
        }
        for e in &snap.events {
            // One field off the span (empty string when absent).
            let field = |name| e.str(name).unwrap_or_default().to_string();
            match e.name {
                "resilience.retry" => *report.retries.entry(field("device")).or_insert(0) += 1,
                "resilience.fallback" => report.transitions.push(FallbackTransition {
                    model: field("model"),
                    from: field("from"),
                    to: field("to"),
                    cause: field("cause"),
                    detail: field("detail"),
                }),
                _ => {}
            }
        }
        let mut edges: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for t in &report.transitions {
            *edges.entry((&t.from, &t.to)).or_insert(0) += 1;
        }
        report.fallbacks = edges
            .into_iter()
            .map(|((from, to), count)| FallbackEdge {
                from: from.to_string(),
                to: to.to_string(),
                count,
            })
            .collect();
        report
    }

    /// Total retries across devices.
    pub(crate) fn total_retries(&self) -> u64 {
        self.retries.values().sum()
    }

    /// Total degradation edges taken.
    pub(crate) fn total_fallbacks(&self) -> u64 {
        self.fallbacks.iter().map(|f| f.count).sum()
    }

    /// Whether any resilience machinery fired at all.
    pub(crate) fn is_quiet(&self) -> bool {
        self == &ResilienceReport::default()
    }

    /// Render the report as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::from("== resilience report ==\n");
        if self.is_quiet() {
            out.push_str("no faults injected, no retries, no fallbacks\n");
            return out;
        }
        let _ = writeln!(
            out,
            "recovered runs: {}    exhausted runs: {}",
            self.recovered, self.failed
        );
        if !self.retries.is_empty() {
            let _ = writeln!(out, "retries ({} total):", self.total_retries());
            for (device, n) in &self.retries {
                let _ = writeln!(out, "  {device:<8} {n}");
            }
        }
        if !self.fallbacks.is_empty() {
            let _ = writeln!(out, "fallbacks ({} total):", self.total_fallbacks());
            for f in &self.fallbacks {
                let _ = writeln!(out, "  {} -> {}  x{}", f.from, f.to, f.count);
            }
        }
        if !self.transitions.is_empty() {
            out.push_str("fallback transitions (trace order):\n");
            for t in &self.transitions {
                let _ = writeln!(
                    out,
                    "  [{}] {} -> {}  cause={}  {}",
                    t.model, t.from, t.to, t.cause, t.detail
                );
            }
        }
        if !self.breaker_trips.is_empty() {
            out.push_str("breaker trips:\n");
            for (device, n) in &self.breaker_trips {
                let _ = writeln!(out, "  {device:<8} {n}");
            }
        }
        if !self.frames_dropped.is_empty() {
            out.push_str("vision stages dropped:\n");
            for (stage, n) in &self.frames_dropped {
                let _ = writeln!(out, "  {stage:<12} {n}");
            }
        }
        if !self.final_us.is_empty() {
            out.push_str("final latency after degradation:\n");
            for (key, us) in &self.final_us {
                let _ = writeln!(out, "  {key:<40} {:.1} us", us);
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_resilience_metrics_and_spans() {
        let _l = crate::testutil::lock();
        tvmnp_telemetry::enable();
        tvmnp_telemetry::reset();
        tvmnp_telemetry::counter_add("resilience.breaker_trips", &[("device", "apu")], 1);
        tvmnp_telemetry::counter_add("resilience.recovered", &[], 1);
        tvmnp_telemetry::counter_add("vision.frames_dropped", &[("stage", "emotion")], 3);
        tvmnp_telemetry::gauge_set(
            "resilience.final_us",
            &[("model", "anti-spoofing"), ("permutation", "BYOC CPU")],
            123.5,
        );
        for device in ["apu", "cpu", "apu"] {
            tvmnp_telemetry::record_sim_span(
                "resilience.retry",
                0.0,
                40.0,
                vec![("device", device.into())],
            );
        }
        let fallback = |ts_us, model: &str, from: &str, to: &str| {
            tvmnp_telemetry::record_sim_span(
                "resilience.fallback",
                ts_us,
                0.0,
                vec![
                    ("model", model.to_string().into()),
                    ("from", from.to_string().into()),
                    ("to", to.to_string().into()),
                    ("cause", "run".into()),
                    ("detail", "transient dispatch fault on apu".into()),
                ],
            );
        };
        fallback(1.0, "anti-spoofing", "NP-only APU", "BYOC CPU");
        fallback(2.0, "emotion", "NP-only CPU+APU", "BYOC CPU");
        fallback(3.0, "emotion", "NP-only APU", "BYOC CPU");
        tvmnp_telemetry::disable();

        let report = ResilienceReport::from_snapshot(&tvmnp_telemetry::snapshot());
        assert_eq!(report.total_retries(), 3);
        assert_eq!(report.retries["apu"], 2);
        assert_eq!(report.retries["cpu"], 1);
        // One edge per `(from, to)`, in that order, counted over the spans.
        assert_eq!(report.total_fallbacks(), 3);
        let edges: Vec<(&str, &str, u64)> = report
            .fallbacks
            .iter()
            .map(|f| (f.from.as_str(), f.to.as_str(), f.count))
            .collect();
        assert_eq!(
            edges,
            [
                ("NP-only APU", "BYOC CPU", 2),
                ("NP-only CPU+APU", "BYOC CPU", 1)
            ]
        );
        assert_eq!(report.breaker_trips["apu"], 1);
        assert_eq!(report.recovered, 1);
        assert_eq!(report.failed, 0);
        assert_eq!(report.frames_dropped["emotion"], 3);
        assert_eq!(report.transitions.len(), 3);
        assert_eq!(report.transitions[0].model, "anti-spoofing");
        assert_eq!(report.transitions[0].cause, "run");
        assert!(report.transitions[0].detail.contains("apu"));
        assert!(!report.is_quiet());

        let text = report.render_text();
        assert!(text.contains("resilience report"));
        assert!(text.contains("NP-only APU -> BYOC CPU"));
        assert!(text.contains("cause=run"));
        assert!(text.contains("anti-spoofing @ BYOC CPU"));
        assert!(text.contains("recovered runs: 1"));
    }

    /// Retries and fallbacks are read off their spans only: a counter
    /// under either name is not a second source of the same fact.
    #[test]
    fn retry_and_fallback_counters_are_not_read_twice() {
        let _l = crate::testutil::lock();
        tvmnp_telemetry::enable();
        tvmnp_telemetry::reset();
        tvmnp_telemetry::counter_add("resilience.retries", &[("device", "apu")], 2);
        tvmnp_telemetry::counter_add(
            "resilience.fallback",
            &[("from", "NP-only APU"), ("to", "BYOC CPU")],
            1,
        );
        tvmnp_telemetry::disable();
        let report = ResilienceReport::from_snapshot(&tvmnp_telemetry::snapshot());
        assert!(report.is_quiet(), "{report:?}");
    }

    #[test]
    fn empty_snapshot_is_quiet() {
        let _l = crate::testutil::lock();
        tvmnp_telemetry::enable();
        tvmnp_telemetry::reset();
        tvmnp_telemetry::disable();
        let report = ResilienceReport::from_snapshot(&tvmnp_telemetry::snapshot());
        assert!(report.is_quiet());
        assert!(report.render_text().contains("no faults injected"));
    }
}
