//! Fault-triggered flight recorder: a fixed-size ring of recent
//! [`Record`]s, dumped as a self-contained JSON document when
//! something goes wrong.
//!
//! The ring continuously absorbs records (span ends, faults, retries,
//! fallback transitions, cache evictions, frame drops) at O(1) per
//! event; nothing is written anywhere until a *trigger* fires — fault
//! exhaustion, an SLO breach, or a worker panic — at which point the
//! current window is serialized to `flight-<seq>.json` (`seq` = logical
//! event sequence at dump time; the recorder is deliberately wall-clock
//! free so runs are reproducible). That gives post-mortem causality
//! around the failure without the cost of always-on full tracing.

use parking_lot::Mutex;
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::path::PathBuf;
use tvmnp_telemetry::{Record, TimeDomain};

/// Dump `kind` of a record: a span end is `span.end`, an event is its
/// own name.
pub fn kind(record: &Record) -> &'static str {
    match record.interval {
        Some(_) => "span.end",
        None => record.name,
    }
}

/// Dump fields of a record as `(key, text)`: a span end leads with its
/// `name`, simulated `ts_us` (a wall-clock start is not reproducible and
/// is left out) and `dur_us`; the record's own fields follow.
pub fn fields(record: &Record) -> Vec<(&'static str, String)> {
    let mut out = Vec::with_capacity(record.fields.len() + 3);
    if let Some(interval) = record.interval {
        out.push(("name", record.name.to_string()));
        if interval.clock == TimeDomain::Sim {
            out.push(("ts_us", format!("{:.3}", interval.ts_us)));
        }
        out.push(("dur_us", format!("{:.3}", interval.dur_us)));
    }
    out.extend(record.fields.iter().map(|(k, v)| (*k, v.to_string())));
    out
}

struct Ring {
    /// `(seq, record)`: `seq` is a process-monotonic sequence number,
    /// the record's logical timestamp (1-based, per recorder).
    events: VecDeque<(u64, Record)>,
    next_seq: u64,
    /// Events evicted from the ring since the start of the run.
    dropped: u64,
    /// Logical timestamp of the last dump (dedupes trigger storms: a
    /// second trigger with no new events writes nothing).
    last_dump_seq: u64,
}

/// Fixed-capacity recorder of recent events. See the module docs.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
    out_dir: Option<PathBuf>,
}

/// Default ring capacity: enough for the spans/faults of the last few
/// dozen served frames.
pub(crate) const DEFAULT_CAPACITY: usize = 1024;

impl FlightRecorder {
    /// A recorder holding at most `capacity` events, dumping into
    /// `out_dir` (no files are ever written when `out_dir` is `None`).
    pub fn new(capacity: usize, out_dir: Option<PathBuf>) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(8),
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                next_seq: 1,
                dropped: 0,
                last_dump_seq: 0,
            }),
            out_dir,
        }
    }

    /// Store one record, evicting the oldest when full.
    pub fn record(&self, record: Record) {
        let mut ring = self.ring.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back((seq, record));
    }

    /// Copy of the current window as `(seq, record)`, oldest first.
    pub fn window(&self) -> Vec<(u64, Record)> {
        self.ring.lock().events.iter().cloned().collect()
    }

    /// Serialize the current window as a self-contained dump document.
    /// `reason` names the trigger; `context` is extra caller-provided
    /// state (e.g. the live stats snapshot) embedded alongside.
    pub(crate) fn dump_value(&self, reason: &str, context: Value) -> Value {
        let ring = self.ring.lock();
        let events: Vec<Value> = ring
            .events
            .iter()
            .map(|(seq, record)| {
                let fields: Vec<Value> = fields(record)
                    .iter()
                    .map(|(k, v)| json!({ "key": k, "value": v }))
                    .collect();
                json!({ "fields": fields, "kind": kind(record), "seq": *seq })
            })
            .collect();
        json!({
            "capacity": self.capacity,
            "context": context,
            "events": events,
            "reason": reason,
            "schema": "tvmnp.flight.v1",
            "window": json!({
                "dropped_before_window": ring.dropped,
                "first_seq": ring.events.front().map(|e| e.0).unwrap_or(0),
                "last_seq": ring.events.back().map(|e| e.0).unwrap_or(0),
            })
        })
    }

    /// Trigger a dump: write `flight-<seq>.json` into the recorder's
    /// output directory and return its path. Returns `Ok(None)` when
    /// there is no output directory, the ring is empty, or nothing new
    /// happened since the last dump (trigger-storm dedupe).
    pub(crate) fn dump(&self, reason: &str, context: Value) -> std::io::Result<Option<PathBuf>> {
        let Some(dir) = &self.out_dir else {
            return Ok(None);
        };
        let last_seq = {
            let mut ring = self.ring.lock();
            let last = ring.events.back().map(|e| e.0).unwrap_or(0);
            if last == 0 || last == ring.last_dump_seq {
                return Ok(None);
            }
            ring.last_dump_seq = last;
            last
        };
        let doc = self.dump_value(reason, context);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("flight-{last_seq}.json"));
        std::fs::write(&path, doc.to_string())?;
        Ok(Some(path))
    }
}

/// Validate a flight-dump document against the `tvmnp.flight.v1` schema.
/// Returns a description of the first violation, `None` when well-formed.
pub fn validate_dump(doc: &Value) -> Option<String> {
    if doc["schema"].as_str() != Some("tvmnp.flight.v1") {
        return Some(format!("bad schema field: {}", doc["schema"]));
    }
    if doc["reason"].as_str().is_none_or(str::is_empty) {
        return Some("missing reason".to_string());
    }
    if doc["capacity"].as_u64().is_none() {
        return Some("missing capacity".to_string());
    }
    let Some(events) = doc["events"].as_array() else {
        return Some("events is not an array".to_string());
    };
    if events.is_empty() {
        return Some("empty event window".to_string());
    }
    let mut prev_seq = 0u64;
    for (i, e) in events.iter().enumerate() {
        let Some(seq) = e["seq"].as_u64() else {
            return Some(format!("event {i}: missing seq"));
        };
        if seq <= prev_seq {
            return Some(format!("event {i}: seq {seq} not increasing"));
        }
        prev_seq = seq;
        if e["kind"].as_str().is_none_or(str::is_empty) {
            return Some(format!("event {i}: missing kind"));
        }
        if e["fields"].as_array().is_none() {
            return Some(format!("event {i}: fields is not an array"));
        }
    }
    let window = &doc["window"];
    let first = window["first_seq"].as_u64();
    let last = window["last_seq"].as_u64();
    if first.is_none() || last.is_none() {
        return Some("window bounds missing".to_string());
    }
    if first != events.first().and_then(|e| e["seq"].as_u64())
        || last != events.last().and_then(|e| e["seq"].as_u64())
    {
        return Some("window bounds do not match events".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, fields: &[(&'static str, &'static str)]) -> Record {
        Record::event(name, fields.iter().map(|&(k, v)| (k, v.into())).collect())
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let rec = FlightRecorder::new(8, None);
        for i in 0..20 {
            rec.record(Record::event("tick", vec![("i", (i as u64).into())]));
        }
        let window = rec.window();
        assert_eq!(window.len(), 8);
        assert_eq!(window[0].0, 13, "oldest events evicted");
        assert_eq!(window[7].0, 20);
        for pair in window.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }

    #[test]
    fn dump_document_is_valid_and_self_contained() {
        let rec = FlightRecorder::new(16, None);
        rec.record(event("fault.injected", &[("device", "apu")]));
        rec.record(event(
            "resilience.fallback",
            &[
                ("from", "np-apu"),
                ("to", "np-cpu-apu"),
                ("cause", "device lost"),
            ],
        ));
        let doc = rec.dump_value("fault-exhaustion", json!({ "frames": 4 }));
        assert_eq!(validate_dump(&doc), None, "{doc}");
        assert_eq!(doc["reason"].as_str(), Some("fault-exhaustion"));
        assert_eq!(doc["context"]["frames"].as_u64(), Some(4));
        let kinds: Vec<&str> = doc["events"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|e| e["kind"].as_str())
            .collect();
        assert_eq!(kinds, ["fault.injected", "resilience.fallback"]);
    }

    #[test]
    fn span_ends_dump_as_span_end_with_interval_fields_first() {
        use tvmnp_telemetry::{Field, Interval};
        let span = |clock| Record {
            name: "resilience.retry",
            interval: Some(Interval {
                ts_us: 257.5321,
                dur_us: 80.0,
                clock,
                tid: 0,
            }),
            fields: vec![("attempt", Field::U64(1)), ("slo_us", Field::F64(0.5, 3))],
        };
        let sim = span(TimeDomain::Sim);
        assert_eq!(kind(&sim), "span.end");
        let text: Vec<String> = fields(&sim)
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        assert_eq!(
            text.join(","),
            "name=resilience.retry,ts_us=257.532,dur_us=80.000,attempt=1,slo_us=0.500"
        );
        let wall = fields(&span(TimeDomain::Wall));
        assert_eq!(wall[1].0, "dur_us", "wall-clock start is left out");
        assert_eq!(kind(&event("cache.evict", &[])), "cache.evict");
    }

    #[test]
    fn dump_writes_file_and_dedupes_triggers() {
        let dir = std::env::temp_dir().join("tvmnp-flight-test");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(16, Some(dir.clone()));
        assert_eq!(
            rec.dump("slo-breach", json!({})).unwrap(),
            None,
            "empty ring"
        );

        rec.record(event("slo.breach", &[("frame", "7")]));
        let path = rec
            .dump("slo-breach", json!({}))
            .unwrap()
            .expect("dump path");
        assert!(path.ends_with("flight-1.json"), "{path:?}");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(validate_dump(&doc), None);

        // Same window, second trigger: no new file.
        assert_eq!(rec.dump("slo-breach", json!({})).unwrap(), None);
        rec.record(event("slo.breach", &[("frame", "8")]));
        let second = rec
            .dump("slo-breach", json!({}))
            .unwrap()
            .expect("new events dump again");
        assert!(second.ends_with("flight-2.json"), "{second:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_dump(&json!({})).is_some());
        assert!(validate_dump(&json!({
            "schema": "tvmnp.flight.v1",
            "reason": "x",
            "capacity": 8,
            "events": json!([]),
            "window": json!({ "first_seq": 0, "last_seq": 0 })
        }))
        .is_some());
        assert!(validate_dump(&json!({
            "schema": "tvmnp.flight.v1",
            "reason": "x",
            "capacity": 8,
            "events": json!([
                json!({ "seq": 2, "kind": "a", "fields": json!([]) }),
                json!({ "seq": 1, "kind": "b", "fields": json!([]) })
            ]),
            "window": json!({ "first_seq": 2, "last_seq": 1 })
        }))
        .is_some());
    }
}
