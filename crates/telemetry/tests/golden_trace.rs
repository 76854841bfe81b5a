//! Golden test: the Chrome trace exporter emits byte-identical,
//! schema-valid JSON for a fixed snapshot.

use serde_json::Value;
use tvmnp_telemetry::{chrome_trace, record_sim_span, snapshot, Interval, Record, TimeDomain};

/// The exact document expected for one sim-domain span: a process_name
/// metadata record plus one complete ("X") event, keys sorted.
const GOLDEN: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
{\"args\":{\"name\":\"simulated-time\"},\"cat\":\"__metadata\",\"name\":\"process_name\",\
\"ph\":\"M\",\"pid\":2,\"tid\":0,\"ts\":0.0},\
{\"args\":{\"device\":\"apu\",\"op\":\"conv2d\"},\"cat\":\"executor\",\"dur\":5.5,\
\"name\":\"executor.node\",\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":10.0}]}";

fn fixed_snapshot() -> tvmnp_telemetry::Snapshot {
    tvmnp_telemetry::Snapshot {
        events: vec![Record {
            name: "executor.node",
            interval: Some(Interval {
                ts_us: 10.0,
                dur_us: 5.5,
                clock: TimeDomain::Sim,
                tid: 0,
            }),
            fields: vec![("device", "apu".into()), ("op", "conv2d".into())],
        }],
        metrics: Default::default(),
    }
}

#[test]
fn chrome_trace_matches_golden_and_is_deterministic() {
    let once = chrome_trace(&fixed_snapshot()).to_string();
    let twice = chrome_trace(&fixed_snapshot()).to_string();
    assert_eq!(once, twice, "export must be deterministic");
    assert_eq!(once, GOLDEN);

    // The same bytes must come out of the full global-collector path.
    tvmnp_telemetry::enable();
    tvmnp_telemetry::reset();
    record_sim_span(
        "executor.node",
        10.0,
        5.5,
        vec![("device", "apu".into()), ("op", "conv2d".into())],
    );
    tvmnp_telemetry::disable();
    let via_collector = chrome_trace(&snapshot()).to_string();
    assert_eq!(via_collector, GOLDEN);
}

#[test]
fn trace_events_are_schema_valid() {
    let doc = chrome_trace(&fixed_snapshot());
    let parsed: Value = serde_json::from_str(&doc.to_string()).expect("valid JSON");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for event in events {
        let ph = event["ph"].as_str().expect("ph present");
        assert!(ph == "X" || ph == "M", "known phase, got {ph}");
        assert!(event["ts"].as_f64().is_some(), "ts numeric");
        assert!(event["pid"].as_u64().is_some(), "pid numeric");
        assert!(event["tid"].as_u64().is_some(), "tid numeric");
        assert!(event["name"].as_str().is_some(), "name string");
        if ph == "X" {
            assert!(event["dur"].as_f64().is_some(), "complete events carry dur");
        }
    }
}
