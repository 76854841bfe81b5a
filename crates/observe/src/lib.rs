//! `tvmnp-observe` — live request-level observability plane.
//!
//! Three pieces over `tvmnp-telemetry`'s record and registry, built for
//! the serving path of the TVM + NeuroPilot
//! reproduction (the paper's showcases are judged on end-to-end pipeline
//! latency, so this is where "what is p99 right now, and why" must be
//! answerable *while* the `SessionPool` is serving):
//!
//! * **Causal traces** — [`trace_tree`] reassembles per-frame span trees
//!   from the trace-stamped spans `tvmnp_telemetry::trace` records
//!   through workers, resilient re-dispatch, and executor nodes.
//! * **Flight recorder** — [`flight`]: a fixed ring of recent records
//!   dumped as self-contained `flight-<seq>.json` on fault exhaustion,
//!   SLO breach, or worker panic.
//! * **Tail attribution** — [`tail`]: names the top contributors
//!   (stage, device, wait-reason) to each pipeline's p99.
//!
//! [`ObservePlane`] bundles them with its own [`StatsRegistry`] — live
//! per-{model, device, stage} p50/p95/p99 ([`QuantileSketch`] series),
//! queue-wait vs compute split, cache/retry/fallback rates, via
//! [`StatsRegistry::snapshot`] and a periodic JSONL stats stream — and
//! plugs into telemetry as the process-global
//! [`tvmnp_telemetry::EventSink`]; everything stays on the
//! one-atomic-load fast path until a plane is installed.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod flight;
pub mod tail;
pub(crate) mod trace_tree;

pub use flight::{validate_dump, FlightRecorder};
pub use tail::{attribute, TailAttribution, TailContributor};
pub use trace_tree::{assemble, SpanNode, TraceTree};
pub use tvmnp_telemetry::registry::{SeriesKey, SeriesStats, StatsRegistry, StatsSnapshot};
pub use tvmnp_telemetry::sketch::QuantileSketch;

use parking_lot::Mutex;
use serde_json::json;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tvmnp_telemetry::{Field, Record};

/// Configuration for an [`ObservePlane`]. The flight-recorder ring holds
/// the last [`flight::DEFAULT_CAPACITY`] events.
#[derive(Debug, Clone, Default)]
pub struct ObserveConfig {
    /// Per-frame latency SLO in µs; a frame exceeding it triggers a
    /// flight dump. `None` disables the SLO trigger.
    pub slo_us: Option<f64>,
    /// Directory flight dumps are written into (`None` = keep the ring
    /// in memory only).
    pub flight_dir: Option<PathBuf>,
    /// Path of the JSONL stats stream (`None` = no stream file).
    pub stats_path: Option<PathBuf>,
}

/// A periodic stats line goes out every this many observed frames (plus
/// one final line from [`ObservePlane::finish`]).
const STATS_EVERY: u64 = 32;

/// Event kinds that trigger an immediate flight dump when they reach the
/// plane through the event sink.
const DUMP_TRIGGERS: &[&str] = &["resilience.exhausted", "worker.panic"];

/// Label keys mirrored from events into registry counters. A whitelist
/// keeps per-frame fields (trace ids, frame indices) from exploding
/// counter cardinality.
const COUNTER_LABELS: &[&str] = &["device", "from", "to", "stage", "reason", "cause"];

/// The live observability plane: stats registry + flight recorder +
/// stream writer. Install with [`ObservePlane::install`] to start
/// receiving structured events from the instrumented crates.
pub struct ObservePlane {
    /// Live quantile series, counters, and gauges.
    pub registry: StatsRegistry,
    /// Ring buffer of recent structured events.
    pub flight: FlightRecorder,
    config: ObserveConfig,
    stream: Mutex<Option<std::io::BufWriter<std::fs::File>>>,
    stream_seq: AtomicU64,
    frames: AtomicU64,
    dump_paths: Mutex<Vec<PathBuf>>,
}

impl ObservePlane {
    /// Build a plane from `config`, creating the stats-stream file (and
    /// parent directory) when one is configured.
    pub fn new(config: ObserveConfig) -> std::io::Result<ObservePlane> {
        let stream = match &config.stats_path {
            Some(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                Some(std::io::BufWriter::new(std::fs::File::create(path)?))
            }
            None => None,
        };
        Ok(ObservePlane {
            registry: StatsRegistry::new(),
            flight: FlightRecorder::new(flight::DEFAULT_CAPACITY, config.flight_dir.clone()),
            config,
            stream: Mutex::new(stream),
            stream_seq: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            dump_paths: Mutex::new(Vec::new()),
        })
    }

    /// Install this plane as the process-global telemetry event sink.
    pub fn install(self: &Arc<Self>) {
        tvmnp_telemetry::set_event_sink(self.clone() as Arc<dyn tvmnp_telemetry::EventSink>);
    }

    /// Remove the process-global event sink (whichever plane owns it).
    pub fn uninstall() {
        tvmnp_telemetry::clear_event_sink();
    }

    /// Frames observed so far via [`ObservePlane::frame_done`].
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Paths of every flight dump written so far.
    pub fn dump_paths(&self) -> Vec<PathBuf> {
        self.dump_paths.lock().clone()
    }

    /// Live registry snapshot (convenience).
    pub fn snapshot(&self) -> StatsSnapshot {
        self.registry.snapshot()
    }

    /// Note a completed frame: records its latency, checks the SLO, and
    /// emits a periodic stats line every 32nd frame.
    pub fn frame_done(&self, pipeline: &str, frame_index: usize, latency_us: f64) {
        self.registry
            .observe_us(tail::FRAME_SERIES, &[("pipeline", pipeline)], latency_us);
        if let Some(slo) = self.config.slo_us {
            if latency_us > slo {
                self.registry
                    .counter_add("slo.breach", &[("pipeline", pipeline)], 1);
                self.flight.record(Record::event(
                    "slo.breach",
                    vec![
                        ("pipeline", pipeline.to_string().into()),
                        ("frame", frame_index.into()),
                        ("latency_us", Field::F64(latency_us, 3)),
                        ("slo_us", Field::F64(slo, 3)),
                    ],
                ));
                self.trigger_dump("slo-breach");
            }
        }
        let n = self.frames.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(STATS_EVERY) {
            self.emit_stats("periodic");
        }
    }

    /// Note a worker panic: records it and dumps the flight window.
    pub fn worker_panic(&self, frame_index: usize, detail: &str) {
        self.flight.record(Record::event(
            "worker.panic",
            vec![
                ("frame", frame_index.into()),
                ("detail", detail.to_string().into()),
            ],
        ));
        self.registry.counter_add("worker.panic", &[], 1);
        self.trigger_dump("worker-panic");
    }

    /// Append one stats line to the JSONL stream (no-op without a
    /// configured stream file).
    pub(crate) fn emit_stats(&self, reason: &str) {
        let mut guard = self.stream.lock();
        let Some(writer) = guard.as_mut() else { return };
        let seq = self.stream_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let line = json!({
            "frames": self.frames.load(Ordering::Relaxed),
            "reason": reason,
            "seq": seq,
            "stats": self.registry.snapshot().to_json(),
            "type": "stats",
        });
        // Stream writes are best-effort: serving must not fail on a full
        // disk, and the final `finish()` flush surfaces persistent errors.
        let _ = writeln!(writer, "{line}");
    }

    /// Emit the final stats line and flush the stream.
    pub fn finish(&self) -> std::io::Result<()> {
        self.emit_stats("final");
        if let Some(writer) = self.stream.lock().as_mut() {
            writer.flush()?;
        }
        Ok(())
    }

    fn trigger_dump(&self, reason: &str) {
        let context = json!({
            "frames": self.frames.load(Ordering::Relaxed),
            "stats": self.registry.snapshot().to_json(),
        });
        if let Ok(Some(path)) = self.flight.dump(reason, context) {
            self.dump_paths.lock().push(path);
        }
    }
}

impl tvmnp_telemetry::EventSink for ObservePlane {
    fn record(&self, record: &Record) {
        self.flight.record(record.clone());
        // Mirror discrete events (not chatty span ends) into counters so
        // retry/fallback/eviction *rates* show up in snapshots.
        if record.interval.is_none() {
            let labels: Vec<(&str, &str)> = COUNTER_LABELS
                .iter()
                .filter_map(|k| Some((*k, record.str(k)?)))
                .collect();
            self.registry.counter_add(record.name, &labels, 1);
        }
        if DUMP_TRIGGERS.contains(&record.name) {
            self.trigger_dump(record.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, fields: &[(&'static str, Field)]) -> Record {
        Record::event(name, fields.to_vec())
    }

    #[test]
    fn slo_breach_counts_and_dumps() {
        let dir = std::env::temp_dir().join("tvmnp-observe-slo-test");
        let _ = std::fs::remove_dir_all(&dir);
        let plane = ObservePlane::new(ObserveConfig {
            slo_us: Some(500.0),
            flight_dir: Some(dir.clone()),
            ..Default::default()
        })
        .unwrap();

        plane.frame_done("showcase", 0, 200.0);
        assert!(plane.dump_paths().is_empty());
        plane.frame_done("showcase", 1, 900.0);
        let dumps = plane.dump_paths();
        assert_eq!(dumps.len(), 1, "breach triggers exactly one dump");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&dumps[0]).unwrap()).unwrap();
        assert_eq!(validate_dump(&doc), None);
        assert_eq!(doc["reason"].as_str(), Some("slo-breach"));

        let snap = plane.snapshot();
        let breaches = SeriesKey::new("slo.breach", &[("pipeline", "showcase")]);
        assert_eq!(snap.counters[&breaches], 1);
        assert_eq!(
            snap.series_named(tail::FRAME_SERIES, &[("pipeline", "showcase")])
                .unwrap()
                .count,
            2
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_events_mirror_to_counters_and_trigger_dumps() {
        use tvmnp_telemetry::EventSink;
        let dir = std::env::temp_dir().join("tvmnp-observe-sink-test");
        let _ = std::fs::remove_dir_all(&dir);
        let plane = ObservePlane::new(ObserveConfig {
            flight_dir: Some(dir.clone()),
            ..Default::default()
        })
        .unwrap();

        plane.record(&event(
            "resilience.fallback",
            &[
                ("from", "np-apu".into()),
                ("to", "np-cpu-apu".into()),
                ("trace", 7u64.into()),
            ],
        ));
        plane.record(&Record {
            interval: Some(tvmnp_telemetry::Interval {
                ts_us: 0.0,
                dur_us: 1.0,
                clock: tvmnp_telemetry::TimeDomain::Sim,
                tid: 0,
            }),
            ..event("serve.frame", &[("device", "apu".into())])
        });
        plane.record(&event(
            "resilience.exhausted",
            &[("model", "emotion".into())],
        ));

        let snap = plane.snapshot();
        let fallback = SeriesKey::new(
            "resilience.fallback",
            &[("from", "np-apu"), ("to", "np-cpu-apu")],
        );
        assert_eq!(
            snap.counters.get(&fallback),
            Some(&1),
            "trace label must not leak into counters"
        );
        assert!(
            !snap.counters.keys().any(|k| k.name == "serve.frame"),
            "span ends not counted"
        );
        assert_eq!(plane.dump_paths().len(), 1, "exhaustion dumped");
        let window = plane.flight.window();
        assert_eq!(window.len(), 3, "span ends still land in the ring");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_flight_ring_keeps_the_last_default_capacity_events() {
        use tvmnp_telemetry::EventSink;
        let plane = ObservePlane::new(ObserveConfig::default()).unwrap();
        for _ in 0..flight::DEFAULT_CAPACITY + 5 {
            plane.record(&event("fault.injected", &[("device", "apu".into())]));
        }
        let window = plane.flight.window();
        assert_eq!(window.len(), flight::DEFAULT_CAPACITY);
        assert_eq!(window[0].0, 6, "the five oldest events evicted");
    }

    #[test]
    fn stats_stream_is_valid_jsonl() {
        let dir = std::env::temp_dir().join("tvmnp-observe-stream-test");
        let _ = std::fs::remove_dir_all(&dir);
        let stats_path = dir.join("stats.jsonl");
        let plane = ObservePlane::new(ObserveConfig {
            stats_path: Some(stats_path.clone()),
            ..Default::default()
        })
        .unwrap();
        let frames = 2 * STATS_EVERY + 1;
        for i in 0..frames as usize {
            plane.frame_done("showcase", i, 100.0 + i as f64);
        }
        plane.finish().unwrap();

        let text = std::fs::read_to_string(&stats_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "two periodic lines + final:\n{text}");
        for (i, line) in lines.iter().enumerate() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["type"].as_str(), Some("stats"));
            assert_eq!(v["seq"].as_u64(), Some(i as u64 + 1));
            assert!(v["stats"]["series"].as_array().is_some());
        }
        let last: serde_json::Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(last["reason"].as_str(), Some("final"));
        assert_eq!(last["frames"].as_u64(), Some(frames));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
