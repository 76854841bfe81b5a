//! Exporters: per-op profile table and Chrome trace-event JSON. This is
//! where a [`crate::Field`] becomes text (`Display`).

use crate::{Interval, Record, Snapshot, TimeDomain};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

/// Render the per-op profile table of the spans named `span_name`: op
/// name (the span's `op` field, falling back to `stage`, then the span
/// name), `device` field, call count, total microseconds, and share of
/// `total_us` (`None` = the sum of all rows).
pub fn profile_table(snapshot: &Snapshot, span_name: &str, total_us: Option<f64>) -> String {
    // (op, device) -> (calls, total_us)
    let mut rows: BTreeMap<(String, String), (u64, f64)> = BTreeMap::new();
    for event in snapshot.spans_named(span_name) {
        let op = event
            .str("op")
            .or_else(|| event.str("stage"))
            .unwrap_or(event.name)
            .to_string();
        let device = event.str("device").unwrap_or("-").to_string();
        let entry = rows.entry((op, device)).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += event.dur_us();
    }
    let sum_us: f64 = rows.values().map(|(_, us)| us).sum();
    let total_us = total_us.unwrap_or(sum_us).max(f64::MIN_POSITIVE);

    let mut sorted: Vec<((String, String), (u64, f64))> = rows.into_iter().collect();
    // Heaviest ops first; key order breaks exact ties deterministically.
    sorted.sort_by(|a, b| {
        b.1 .1
            .partial_cmp(&a.1 .1)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let op_width = sorted
        .iter()
        .map(|((op, _), _)| op.len())
        .chain(["op".len(), "total".len()])
        .max()
        .unwrap_or(2)
        .max(2);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<op_width$}  {:<8}  {:>7}  {:>12}  {:>8}\n",
        "op", "device", "calls", "total_us", "% of run"
    ));
    for ((op, device), (calls, us)) in &sorted {
        out.push_str(&format!(
            "{:<op_width$}  {:<8}  {:>7}  {:>12.2}  {:>7.1}%\n",
            op,
            device,
            calls,
            us,
            100.0 * us / total_us
        ));
    }
    out.push_str(&format!(
        "{:<op_width$}  {:<8}  {:>7}  {:>12.2}  {:>7.1}%\n",
        "total",
        "",
        sorted.iter().map(|(_, (c, _))| c).sum::<u64>(),
        sum_us,
        100.0 * sum_us / total_us
    ));
    out
}

fn pid(interval: &Interval) -> u64 {
    match interval.clock {
        TimeDomain::Wall => 1,
        TimeDomain::Sim => 2,
    }
}

/// Render the snapshot as a Chrome trace-event JSON document, loadable in
/// Perfetto or `chrome://tracing`.
///
/// Wall-clock spans appear under the `wall-clock` process (pid 1) and
/// simulated-time spans under `simulated-time` (pid 2), so both timelines
/// coexist in one trace without mixing clocks. Threads pinned to an
/// explicit serving-pool lane (tid ≥ [`crate::WORKER_LANE_BASE`]) get
/// `thread_name` metadata (`worker-0`, `worker-1`, …) so a
/// `--concurrency N` serve renders as N stable, non-interleaved lanes.
/// Output is deterministic: events are sorted by (pid, tid, ts, name)
/// and all objects use sorted keys.
pub fn chrome_trace(snapshot: &Snapshot) -> Value {
    let mut spans: Vec<(&Record, Interval)> = snapshot
        .events
        .iter()
        .filter_map(|e| Some((e, e.interval?)))
        .collect();
    let meta = |name: &str, label: String, pid: u64, tid: u64| {
        json!({
            "args": json!({ "name": label }),
            "cat": "__metadata",
            "name": name,
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "ts": 0.0
        })
    };
    let mut events: Vec<Value> = Vec::new();
    let mut pids: Vec<u64> = spans.iter().map(|(_, i)| pid(i)).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        let process = if pid == 1 {
            "wall-clock"
        } else {
            "simulated-time"
        };
        events.push(meta("process_name", process.to_string(), pid, 0));
    }
    let mut lanes: Vec<(u64, u64)> = spans
        .iter()
        .filter(|(_, i)| i.tid >= crate::WORKER_LANE_BASE)
        .map(|(_, i)| (pid(i), i.tid))
        .collect();
    lanes.sort_unstable();
    lanes.dedup();
    for (pid, tid) in lanes {
        let lane = format!("worker-{}", tid - crate::WORKER_LANE_BASE);
        events.push(meta("thread_name", lane, pid, tid));
    }

    spans.sort_by(|(a, ai), (b, bi)| {
        (pid(ai), ai.tid)
            .cmp(&(pid(bi), bi.tid))
            .then(
                ai.ts_us
                    .partial_cmp(&bi.ts_us)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then_with(|| a.name.cmp(b.name))
    });
    for (span, interval) in spans {
        let mut args = Map::new();
        for (k, v) in &span.fields {
            args.insert(k.to_string(), Value::String(v.to_string()));
        }
        // Category = dotted-name prefix, so Perfetto can filter per layer.
        let cat = span.name.split('.').next().unwrap_or("span");
        events.push(json!({
            "args": Value::Object(args),
            "cat": cat,
            "dur": interval.dur_us,
            "name": span.name,
            "ph": "X",
            "pid": pid(&interval),
            "tid": interval.tid,
            "ts": interval.ts_us
        }));
    }
    json!({ "displayTimeUnit": "ms", "traceEvents": Value::Array(events) })
}

/// Serialize the snapshot's Chrome trace to `path`.
pub fn write_chrome_trace(snapshot: &Snapshot, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(snapshot).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Field, StatsSnapshot};

    fn sim_event(
        name: &'static str,
        ts: f64,
        dur: f64,
        fields: &[(&'static str, &'static str)],
    ) -> Record {
        Record {
            name,
            interval: Some(Interval {
                ts_us: ts,
                dur_us: dur,
                clock: TimeDomain::Sim,
                tid: 0,
            }),
            fields: fields.iter().map(|&(k, v)| (k, Field::from(v))).collect(),
        }
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            events: vec![
                sim_event(
                    "executor.node",
                    0.0,
                    30.0,
                    &[("op", "conv2d"), ("device", "apu")],
                ),
                sim_event(
                    "executor.node",
                    30.0,
                    30.0,
                    &[("op", "conv2d"), ("device", "apu")],
                ),
                sim_event(
                    "executor.node",
                    60.0,
                    40.0,
                    &[("op", "softmax"), ("device", "cpu")],
                ),
                sim_event("executor.run", 0.0, 100.0, &[]),
            ],
            metrics: StatsSnapshot::default(),
        }
    }

    #[test]
    fn profile_table_aggregates_and_ranks() {
        let table = profile_table(&sample_snapshot(), "executor.node", Some(100.0));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 rows + total:\n{table}");
        assert!(lines[0].contains("op") && lines[0].contains("% of run"));
        // conv2d (60 µs) outranks softmax (40 µs); executor.run filtered out.
        assert!(lines[1].starts_with("conv2d"), "{table}");
        assert!(lines[1].contains("apu") && lines[1].contains('2') && lines[1].contains("60.0"));
        assert!(lines[2].starts_with("softmax"), "{table}");
        assert!(
            lines[3].starts_with("total") && lines[3].contains("100.0"),
            "{table}"
        );
    }

    #[test]
    fn chrome_trace_names_worker_lanes() {
        let mut snap = sample_snapshot();
        for event in snap.events.iter_mut().take(2) {
            event.interval.as_mut().unwrap().tid = crate::WORKER_LANE_BASE + 3;
        }
        let doc = chrome_trace(&snap);
        let events = doc["traceEvents"].as_array().unwrap();
        let lane = events
            .iter()
            .find(|e| e["name"].as_str() == Some("thread_name"))
            .expect("lane metadata");
        assert_eq!(lane["args"]["name"].as_str(), Some("worker-3"));
        assert_eq!(lane["tid"].as_u64(), Some(crate::WORKER_LANE_BASE + 3));
    }

    #[test]
    fn chrome_trace_shape() {
        let doc = chrome_trace(&sample_snapshot());
        let events = doc["traceEvents"].as_array().unwrap();
        // 1 process_name metadata (sim only) + 4 spans.
        assert_eq!(events.len(), 5);
        assert_eq!(events[0]["ph"].as_str(), Some("M"));
        for e in &events[1..] {
            assert_eq!(e["ph"].as_str(), Some("X"));
            assert_eq!(e["pid"].as_u64(), Some(2));
            assert!(e["ts"].as_f64().is_some() && e["dur"].as_f64().is_some());
            assert!(e["tid"].as_u64().is_some());
        }
    }
}
