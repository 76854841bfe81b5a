//! Tail attribution: name the top contributors to p99 per pipeline.
//!
//! Combines the two live data sources: the stats registry supplies the
//! p99 frame-latency threshold, and the reassembled span trees supply
//! per-frame causality. Frames at or above the threshold are the *tail
//! set*; their stage, queue-wait, and retry spans are aggregated by
//! (kind, name, device) and ranked, extending `tvmnp-report`'s offline
//! critical-path analysis to live serving.

use crate::trace_tree::TraceTree;
use std::collections::BTreeMap;
use tvmnp_telemetry::StatsSnapshot;

/// One ranked contributor to tail latency.
#[derive(Debug, Clone, PartialEq)]
pub struct TailContributor {
    /// What kind of time this is: `stage` (compute), `wait` (queueing),
    /// or `retry` (fault recovery).
    pub kind: String,
    /// Stage name or wait reason, e.g. `obj-det` or `admission`.
    pub name: String,
    /// Device label (`-` when not device-bound, e.g. admission waits).
    pub device: String,
    /// Total µs this contributor spent inside tail frames.
    pub total_us: f64,
    /// Number of tail frames it appeared in.
    pub frames: usize,
}

/// Attribution of a pipeline's p99 tail to its contributors.
#[derive(Debug, Clone)]
pub struct TailAttribution {
    /// Pipeline label the attribution covers.
    pub pipeline: String,
    /// p99 frame latency (µs) from the live sketch.
    pub p99_us: f64,
    /// Frames at or above the threshold.
    pub tail_frames: usize,
    /// Contributors, largest total first.
    pub contributors: Vec<TailContributor>,
}

/// Frame-latency series name the serving layer records per pipeline.
pub(crate) const FRAME_SERIES: &str = "frame_us";

/// Compute the tail attribution for `pipeline` from the live snapshot
/// and the reassembled span trees. Returns `None` when the pipeline has
/// no frame-latency series yet.
pub fn attribute(
    snapshot: &StatsSnapshot,
    trees: &[TraceTree],
    pipeline: &str,
) -> Option<TailAttribution> {
    let series = snapshot.series_named(FRAME_SERIES, &[("pipeline", pipeline)])?;
    let p99_us = series.p99_us;

    // (kind, name, device) -> (total_us, frames)
    let mut agg: BTreeMap<(String, String, String), (f64, usize)> = BTreeMap::new();
    let mut tail_frames = 0usize;
    for tree in trees {
        let Some(root) = tree.root() else { continue };
        if root.event.name != "serve.frame"
            || root.event.str("pipeline") != Some(pipeline)
            || root.event.dur_us() + 1e-9 < p99_us
        {
            continue;
        }
        tail_frames += 1;
        let mut seen: std::collections::BTreeSet<(String, String, String)> =
            std::collections::BTreeSet::new();
        for node in &tree.nodes {
            // (contributor kind, field naming it, name when the field is absent)
            let (kind, name_key, unnamed) = match node.event.name {
                "serve.stage" => ("stage", "stage", "?"),
                "serve.wait" => ("wait", "reason", "?"),
                "resilience.retry" => ("retry", "cause", "retry"),
                _ => continue,
            };
            let field = |key, default: &str| node.event.str(key).unwrap_or(default).to_string();
            let key = (
                kind.to_string(),
                field(name_key, unnamed),
                field("device", "-"),
            );
            let entry = agg.entry(key.clone()).or_insert((0.0, 0));
            entry.0 += node.event.dur_us();
            if seen.insert(key) {
                entry.1 += 1;
            }
        }
    }

    let mut contributors: Vec<TailContributor> = agg
        .into_iter()
        .map(
            |((kind, name, device), (total_us, frames))| TailContributor {
                kind,
                name,
                device,
                total_us,
                frames,
            },
        )
        .collect();
    contributors.sort_by(|a, b| {
        b.total_us
            .partial_cmp(&a.total_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (&a.kind, &a.name, &a.device).cmp(&(&b.kind, &b.name, &b.device)))
    });

    Some(TailAttribution {
        pipeline: pipeline.to_string(),
        p99_us,
        tail_frames,
        contributors,
    })
}

impl TailAttribution {
    /// Render the attribution as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "tail attribution: pipeline={} p99={:.2}us tail-frames={}\n",
            self.pipeline, self.p99_us, self.tail_frames
        );
        out.push_str(&format!(
            "{:<6}  {:<16}  {:<10}  {:>12}  {:>6}  {:>7}\n",
            "kind", "name", "device", "total_us", "frames", "% tail"
        ));
        let total: f64 = self.contributors.iter().map(|c| c.total_us).sum();
        let denom = total.max(f64::MIN_POSITIVE);
        for c in &self.contributors {
            out.push_str(&format!(
                "{:<6}  {:<16}  {:<10}  {:>12.2}  {:>6}  {:>6.1}%\n",
                c.kind,
                c.name,
                c.device,
                c.total_us,
                c.frames,
                100.0 * c.total_us / denom
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_tree::assemble;
    use tvmnp_telemetry::{Fields, Interval, Record, Snapshot, StatsRegistry, TimeDomain};

    fn span(
        name: &'static str,
        trace: u64,
        id: u64,
        parent: u64,
        dur: f64,
        extra: &[(&'static str, &'static str)],
    ) -> Record {
        let mut fields: Fields = vec![
            ("trace", trace.into()),
            ("span", id.into()),
            ("parent", parent.into()),
        ];
        fields.extend(extra.iter().map(|&(k, v)| (k, v.into())));
        Record {
            name,
            interval: Some(Interval {
                ts_us: 0.0,
                dur_us: dur,
                clock: TimeDomain::Sim,
                tid: 0,
            }),
            fields,
        }
    }

    #[test]
    fn tail_set_ranks_stage_and_wait_contributors() {
        let reg = StatsRegistry::default();
        // 99 fast frames + 1 slow: p99 lands at/near the slow frame.
        for _ in 0..99 {
            reg.observe_us(FRAME_SERIES, &[("pipeline", "showcase")], 100.0);
        }
        reg.observe_us(FRAME_SERIES, &[("pipeline", "showcase")], 1000.0);

        let events = vec![
            // Fast frame (trace 1) — below threshold, must not contribute.
            span("serve.frame", 1, 10, 0, 100.0, &[("pipeline", "showcase")]),
            span(
                "serve.stage",
                1,
                11,
                10,
                90.0,
                &[("stage", "obj-det"), ("device", "gpu")],
            ),
            // Slow frame (trace 2) — in the tail.
            span("serve.frame", 2, 20, 0, 1000.0, &[("pipeline", "showcase")]),
            span(
                "serve.stage",
                2,
                21,
                20,
                600.0,
                &[("stage", "obj-det"), ("device", "gpu")],
            ),
            span("serve.wait", 2, 22, 20, 300.0, &[("reason", "admission")]),
            span(
                "resilience.retry",
                2,
                23,
                21,
                100.0,
                &[("device", "apu"), ("cause", "transient dispatch fault")],
            ),
        ];
        let trees = assemble(&Snapshot {
            events,
            metrics: Default::default(),
        });

        let tail = attribute(&reg.snapshot(), &trees, "showcase").expect("attribution");
        assert_eq!(tail.tail_frames, 1);
        assert_eq!(tail.contributors.len(), 3);
        assert_eq!(tail.contributors[0].kind, "stage");
        assert_eq!(tail.contributors[0].name, "obj-det");
        assert_eq!(tail.contributors[0].total_us, 600.0);
        assert_eq!(tail.contributors[1].kind, "wait");
        assert_eq!(tail.contributors[1].name, "admission");

        let table = tail.render_text();
        assert!(
            table.contains("obj-det") && table.contains("admission"),
            "{table}"
        );
    }

    #[test]
    fn missing_series_yields_none() {
        let reg = StatsRegistry::default();
        assert!(attribute(&reg.snapshot(), &[], "showcase").is_none());
    }
}
