//! End-to-end live observability: the serve path under traces must stay
//! bit-identical to the unobserved path, reassemble into one complete
//! causal span tree per frame at full concurrency, feed an internally
//! consistent stats snapshot, and dump a flight window carrying the
//! injected faults and fallback transitions that explain it.
//!
//! The telemetry collector and event sink are process-global, so every
//! test that touches them serializes through `TESTS`.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use tvm_neuropilot::models::{anti_spoofing, emotion};
use tvm_neuropilot::observe::{
    assemble, attribute, flight, validate_dump, ObserveConfig, ObservePlane, QuantileSketch,
    SeriesKey,
};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::serving::{trace_id_for, PIPELINE};
use tvm_neuropilot::telemetry::{self, trace::SpanIds, Field, Record, TimeDomain};
use tvm_neuropilot::vision::{FrameResult, ShowcaseFaults};

static TESTS: Mutex<()> = Mutex::new(());

fn clip(frames: usize) -> Vec<tvm_neuropilot::vision::Frame> {
    SyntheticVideo::new(7, 64, 64).frames(frames)
}

fn assert_same_numerics(a: &[FrameResult], b: &[FrameResult]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.frame_index, y.frame_index);
        assert_eq!(x.objects, y.objects, "frame {}", x.frame_index);
        assert_eq!(x.faces, y.faces, "frame {}", x.frame_index);
        assert_eq!(x.dropped, y.dropped, "frame {}", x.frame_index);
    }
}

/// The GK sketch must agree with the exact nearest-rank order statistics
/// within the sketch's rank tolerance: its answer must fall inside the
/// ±(⌈εn⌉+1)-rank bracket of the sorted samples around the nearest rank.
#[test]
fn sketch_quantiles_agree_with_exact_nearest_rank() {
    let epsilon = 0.005;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut samples = Vec::with_capacity(5000);
    for _ in 0..5000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        samples.push(((state >> 20) % 1_000_000) as f64 / 100.0);
    }
    let mut sketch = QuantileSketch::new(epsilon);
    for &s in &samples {
        sketch.insert(s);
    }
    let mut sorted = samples;
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    let allowed = (epsilon * n as f64).ceil() as usize + 1;
    for q in [0.50, 0.95] {
        let target = ((q * n as f64).ceil() as usize).clamp(1, n);
        let lo = sorted[target.saturating_sub(allowed + 1).max(1) - 1];
        let hi = sorted[(target + allowed).min(n) - 1];
        let got = sketch.query(q);
        assert!(
            (lo..=hi).contains(&got),
            "sketch q{q}: {got} outside rank bracket [{lo}, {hi}]"
        );
    }
}

/// Deterministic splitmix64 sample stream for the merge tests.
fn sketch_stream(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.push((z % 1_000_000) as f64 / 100.0);
    }
    out
}

fn sketch_of(samples: &[f64], epsilon: f64) -> QuantileSketch {
    let mut s = QuantileSketch::new(epsilon);
    for &v in samples {
        s.insert(v);
    }
    s
}

/// Merge must be associative in the summary it reports: (a ⊕ b) ⊕ c and
/// a ⊕ (b ⊕ c) agree exactly on count/sum/min/max, and their quantile
/// answers land in the same rank bracket of the pooled sorted data. (The
/// internal entry lists may differ — the guarantee is the ε-rank bound,
/// not bitwise state.)
#[test]
fn sketch_merge_is_associative_on_summaries() {
    let epsilon = 0.01;
    let parts = [
        sketch_stream(1, 3000),
        sketch_stream(2, 2000),
        sketch_stream(3, 1000),
    ];
    let [a, b, c] = parts.clone().map(|p| sketch_of(&p, epsilon));

    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);

    assert_eq!(left.count(), right.count());
    assert_eq!(left.sum(), right.sum());
    assert_eq!(left.min(), right.min());
    assert_eq!(left.max(), right.max());

    let mut pooled: Vec<f64> = parts.concat();
    pooled.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let n = pooled.len();
    // Merging k ε-sketches costs at most kε rank error.
    let allowed = (3.0 * epsilon * n as f64).ceil() as usize + 1;
    for q in [0.1, 0.5, 0.9, 0.99] {
        let target = ((q * n as f64).ceil() as usize).clamp(1, n);
        let lo = pooled[target.saturating_sub(allowed + 1).max(1) - 1];
        let hi = pooled[(target + allowed).min(n) - 1];
        for (label, s) in [("left", &mut left), ("right", &mut right)] {
            let got = s.query(q);
            assert!(
                (lo..=hi).contains(&got),
                "{label} q{q}: {got} outside rank bracket [{lo}, {hi}]"
            );
        }
    }
}

/// Eight shards merged into one sketch must answer like a single sketch
/// fed the whole stream: identical count/sum/min/max, and quantiles
/// inside the pooled data's rank bracket — the property the profile
/// store leans on when it merges per-run cells.
#[test]
fn sketch_shard_merge_matches_single_stream() {
    let epsilon = 0.01;
    let full = sketch_stream(42, 8000);
    let mut single = sketch_of(&full, epsilon);

    let mut merged = QuantileSketch::new(epsilon);
    for shard in full.chunks(1000) {
        merged.merge(&sketch_of(shard, epsilon));
    }

    assert_eq!(merged.count(), single.count());
    assert_eq!(merged.min(), single.min());
    assert_eq!(merged.max(), single.max());
    assert!((merged.sum() - single.sum()).abs() < 1e-6 * single.sum().abs());

    let mut sorted = full.clone();
    sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let n = sorted.len();
    let allowed = (8.0 * epsilon * n as f64).ceil() as usize + 1;
    for q in [0.05, 0.5, 0.95] {
        let target = ((q * n as f64).ceil() as usize).clamp(1, n);
        let lo = sorted[target.saturating_sub(allowed + 1).max(1) - 1];
        let hi = sorted[(target + allowed).min(n) - 1];
        for (label, s) in [("merged", &mut merged), ("single", &mut single)] {
            let got = s.query(q);
            assert!(
                (lo..=hi).contains(&got),
                "{label} q{q}: {got} outside rank bracket [{lo}, {hi}]"
            );
        }
    }
}

/// With the collector disabled, serving records nothing at all — the
/// pre-observability hot path — and stays bit-identical across
/// concurrency levels.
#[test]
fn untraced_serving_records_no_spans_and_stays_identical() {
    let _guard = TESTS.lock().unwrap();
    telemetry::enable();
    telemetry::reset();
    telemetry::disable();
    let pool = SessionPool::new(
        900,
        &serving_rotation(),
        &CostModel::default(),
        Arc::new(ArtifactCache::new(usize::MAX)),
    );
    let frames = clip(8);
    let sequential = pool.serve(&frames, 1);
    let concurrent = pool.serve(&frames, 4);
    assert_eq!(sequential, concurrent);
    let snap = telemetry::snapshot();
    assert!(
        snap.events.is_empty(),
        "disabled collector must record nothing, got {} span(s)",
        snap.events.len()
    );
}

/// The tentpole scenario: 256 frames at concurrency 8 with injected
/// transient dispatch faults, fully observed. Outputs stay bit-identical
/// to a fault-free unobserved run; the spans reassemble into exactly one
/// complete causal tree per frame; worker lanes are distinct; the stats
/// snapshot is internally consistent and reconciles with the span sums;
/// and the flight dump written on fallback-chain exhaustion carries the
/// injected faults and the fallback transitions.
#[test]
fn observed_256_frame_serve_reassembles_and_dumps() {
    let _guard = TESTS.lock().unwrap();
    let tmp = std::env::temp_dir().join(format!("tvmnp-observe-flow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let flight_dir = tmp.join("flight");
    let stats_path = tmp.join("stats.jsonl");
    let frames = clip(256);

    // Fault-free, unobserved reference. Concurrency 8 here too: serving
    // is deterministic by frame index, so this is the same output as a
    // sequential pass at an eighth of the wall-clock.
    telemetry::disable();
    let clean = SessionPool::new(
        900,
        &serving_rotation(),
        &CostModel::default(),
        Arc::new(ArtifactCache::new(usize::MAX)),
    )
    .serve(&frames, 8);

    // Observed run with transient dispatch faults on the APU.
    let plane = Arc::new(
        ObservePlane::new(ObserveConfig {
            flight_capacity: 1 << 15,
            flight_dir: Some(flight_dir.clone()),
            stats_path: Some(stats_path.clone()),
            stats_every: 64,
            ..Default::default()
        })
        .unwrap(),
    );
    telemetry::enable();
    telemetry::reset();
    plane.install();
    let faults = ShowcaseFaults {
        injector: Arc::new(FaultInjector::new(
            FaultPlan::seeded(11)
                .with_spec("apu:dispatch:transient=1")
                .unwrap(),
        )),
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
    };
    let pool = SessionPool::new_with_faults(
        900,
        &serving_rotation(),
        &CostModel::default(),
        Arc::new(ArtifactCache::new(usize::MAX)),
        faults,
    );
    let served = pool.serve_observed(&frames, 8, &plane);
    assert_same_numerics(&served, &clean);

    // Exhaust a fallback chain so the flight recorder dumps: APU and CPU
    // both lost leaves no permutation standing.
    let model = anti_spoofing::anti_spoofing_model(80);
    let mut session = ResilientSession::new(
        model.module.clone(),
        CostModel::default(),
        FaultPlan::seeded(3)
            .with_spec("apu:dispatch:device-lost")
            .unwrap()
            .with_spec("cpu:dispatch:device-lost")
            .unwrap(),
        ResiliencePolicy::default(),
    );
    let err = session.run(&model.name, Permutation::NpApu, &model.sample_inputs(7));
    assert!(err.is_err(), "both devices lost must exhaust the chain");

    plane.finish().unwrap();
    ObservePlane::uninstall();
    telemetry::disable();
    let snap = telemetry::snapshot();

    // One complete causal tree per frame, rooted at serve.frame, under
    // the frame's deterministic trace id.
    let trees = assemble(&snap);
    let mut frame_traces = BTreeSet::new();
    for tree in &trees {
        let Some(root) = tree.root() else { continue };
        if root.event.name != "serve.frame" {
            continue;
        }
        assert!(
            tree.complete,
            "trace {} has an incomplete tree ({} node(s), {} root(s))",
            tree.trace_id,
            tree.nodes.len(),
            tree.roots.len()
        );
        frame_traces.insert(tree.trace_id);
    }
    assert_eq!(frame_traces.len(), 256, "expected one tree per frame");
    for f in &frames {
        assert!(
            frame_traces.contains(&trace_id_for(f.index)),
            "frame {} has no complete trace tree",
            f.index
        );
    }

    // Concurrent workers pin their spans to distinct stable lanes.
    let lanes: BTreeSet<u64> = snap
        .events
        .iter()
        .filter_map(|e| Some(e.interval?.tid))
        .filter(|&tid| tid >= telemetry::WORKER_LANE_BASE)
        .collect();
    assert!(
        (2..=8).contains(&lanes.len()),
        "expected 2..=8 worker lanes, got {lanes:?}"
    );

    // Stats snapshot: quantiles monotone, and the frame series
    // reconciles with the wait + compute split.
    let stats = plane.snapshot();
    for s in &stats.series {
        let q = [s.min_us, s.p50_us, s.p95_us, s.p99_us, s.max_us];
        assert!(
            q.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "{}",
            s.key.render()
        );
    }
    let frame_series = stats
        .series_named("frame_us", &[("pipeline", PIPELINE)])
        .expect("frame series recorded");
    assert_eq!(frame_series.count, 256);
    let sum = |name: &str, labels: &[(&str, &str)]| {
        stats.series_named(name, labels).map_or(0.0, |s| s.sum_us)
    };
    let split = sum(
        "wait_us",
        &[("pipeline", PIPELINE), ("reason", "admission")],
    ) + sum("wait_us", &[("pipeline", PIPELINE), ("reason", "device")])
        + sum("compute_us", &[("pipeline", PIPELINE)]);
    let rel = (frame_series.sum_us - split).abs() / frame_series.sum_us.max(1.0);
    assert!(
        rel < 1e-9,
        "frame_us sum {} must equal wait+compute split {split}",
        frame_series.sum_us
    );

    // Flight dumps: schema-valid, and between them they carry the
    // injected dispatch faults, the fallback transitions, and the
    // exhaustion that triggered the dump.
    let dumps = plane.dump_paths();
    assert!(!dumps.is_empty(), "exhaustion must trigger a flight dump");
    let mut kinds = BTreeSet::new();
    for path in &dumps {
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(validate_dump(&doc), None, "{}", path.display());
        for e in doc["events"].as_array().unwrap() {
            kinds.insert(e["kind"].as_str().unwrap().to_string());
        }
    }
    for want in [
        "fault.injected",
        "resilience.fallback",
        "resilience.exhausted",
    ] {
        assert!(kinds.contains(want), "no dump carries '{want}': {kinds:?}");
    }

    // The stats stream is valid JSONL ending in the final flush.
    let text = std::fs::read_to_string(&stats_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "periodic + final lines expected");
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(v["type"].as_str(), Some("stats"));
    }
    let last: serde_json::Value = serde_json::from_str(lines[lines.len() - 1]).unwrap();
    assert_eq!(last["reason"].as_str(), Some("final"));

    // Tail attribution names contributors for the pipeline's p99 frames.
    let tail = attribute(&stats, &trees, PIPELINE).expect("tail attribution");
    assert!(tail.tail_frames >= 1);
    assert!(
        !tail.contributors.is_empty(),
        "tail frames must have named contributors"
    );

    let _ = std::fs::remove_dir_all(&tmp);
}

/// A fallback re-dispatch recorded while a frame trace is active must
/// land as a child span of that frame's trace — the causal link between
/// "this frame was slow" and "because it degraded off the APU".
#[test]
fn fallback_redispatch_is_a_child_span_of_the_frame_trace() {
    let _guard = TESTS.lock().unwrap();
    telemetry::enable();
    telemetry::reset();
    let trace_id = 424_242u64;
    let root = telemetry::alloc_span_id();
    let model = emotion::emotion_model(7);
    {
        let _trace = telemetry::begin_trace(trace_id, root, vec![("pipeline", "test".into())]);
        let mut session = ResilientSession::new(
            model.module.clone(),
            CostModel::default(),
            FaultPlan::seeded(7)
                .with_spec("apu:dispatch:device-lost")
                .unwrap(),
            ResiliencePolicy {
                breaker_threshold: 1,
                ..ResiliencePolicy::default()
            },
        );
        let out = session
            .run(&model.name, Permutation::NpApu, &model.sample_inputs(7))
            .expect("chain must recover on the CPU");
        assert!(out.degraded(), "APU loss must force a fallback");
    }
    tvm_neuropilot::telemetry::record_sim_span_traced(
        SpanIds {
            trace: trace_id,
            span: root,
            parent: 0,
        },
        "serve.frame",
        0.0,
        1000.0,
        vec![("pipeline", "test".into())],
    );
    telemetry::disable();

    let trees = assemble(&telemetry::snapshot());
    let tree = trees
        .iter()
        .find(|t| t.trace_id == trace_id)
        .expect("frame trace assembled");
    assert!(tree.complete, "fallback spans must not orphan the tree");
    assert_eq!(tree.root().unwrap().event.name, "serve.frame");
    let fallbacks: Vec<_> = tree.named("resilience.fallback").collect();
    assert!(
        !fallbacks.is_empty(),
        "fallback transition missing from the frame trace"
    );
    for f in &fallbacks {
        assert_ne!(f.parent_id, 0, "fallback must be a child, not a root");
        assert!(
            f.event.str("cause").is_some(),
            "fallback span must carry its cause"
        );
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `k=v,…` of a record's rendered fields, with its `span` / `parent` ids
/// rebased to `base` (the span-id counter is process-global, so absolute
/// ids depend on what ran before).
fn pinned_fields(record: &Record, rendered: &[(&'static str, String)], base: u64) -> String {
    let text: Vec<String> = rendered
        .iter()
        .map(
            |(k, v)| match record.u64(k).filter(|_| matches!(*k, "span" | "parent")) {
                Some(id) => format!("{k}={}", id.saturating_sub(base)),
                None => format!("{k}={v}"),
            },
        )
        .collect();
    text.join(",")
}

/// Byte-level pin of what one observed run records: every simulated-clock
/// span, the plane's stats snapshot, and the flight window must render to
/// exactly the same text. The stats digest was pinned when the NP-only
/// emotion stage began announcing its dispatch faults (window 188 → 190).
/// The sim-span count and digest and the flight digest were captured on
/// the commit before the executor lost its per-kernel spans, running this
/// test with profile detail mode left off: 488 spans, one per executor
/// node, and the flight window's span ids as they are numbered when no
/// per-kernel span takes one.
#[test]
fn observed_artifacts_are_pinned() {
    let _guard = TESTS.lock().unwrap();
    let frames = clip(32);
    let plane = Arc::new(
        ObservePlane::new(ObserveConfig {
            slo_us: Some(40_000.0),
            flight_capacity: 1 << 15,
            ..Default::default()
        })
        .unwrap(),
    );
    telemetry::enable();
    telemetry::reset();
    plane.install();
    let faults = ShowcaseFaults {
        injector: Arc::new(FaultInjector::new(
            FaultPlan::seeded(7)
                .with_spec("apu:dispatch:transient=1")
                .unwrap(),
        )),
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
    };
    let pool = SessionPool::new_with_faults(
        900,
        &serving_rotation(),
        &CostModel::default(),
        Arc::new(ArtifactCache::new(usize::MAX)),
        faults,
    );
    let base = telemetry::alloc_span_id();
    pool.serve_observed(&frames, 1, &plane);
    ObservePlane::uninstall();
    telemetry::disable();

    let snap = telemetry::snapshot();
    let spans: Vec<String> = snap
        .sim_spans()
        .map(|(e, interval)| {
            let rendered: Vec<_> = e.fields.iter().map(|(k, v)| (*k, v.to_string())).collect();
            format!(
                "{}|{}|{}|{}",
                e.name,
                interval.ts_us.to_bits(),
                interval.dur_us.to_bits(),
                pinned_fields(e, &rendered, base)
            )
        })
        .collect();
    let stats = plane.snapshot();
    let flight_window = plane.flight.window();
    let window: Vec<String> = flight_window
        .iter()
        // Wall-clock span ends carry a host-time duration.
        .filter(|(_, e)| e.interval.is_none_or(|i| i.clock == TimeDomain::Sim))
        .map(|(seq, e)| {
            let fields = pinned_fields(e, &flight::fields(e), base);
            format!("{seq}|{}|{fields}", flight::kind(e))
        })
        .collect();

    // Every consumed dispatch fault is announced exactly once, whichever
    // runtime dispatched it (the emotion stage is NP-only, the others run
    // under the graph executor): per device, `fault.injected` events =
    // retries + faults that ended a run.
    for device in ["cpu", "gpu", "apu"] {
        let at_device = |e: &&Record| e.str("device") == Some(device);
        let injected: Vec<&Record> = (flight_window.iter().map(|(_, e)| e))
            .filter(|e| e.name == "fault.injected" && e.str("stage") == Some("dispatch"))
            .filter(at_device)
            .collect();
        let fatal = injected
            .iter()
            .filter(|e| e.get("fatal") == Some(&Field::Bool(true)));
        let retries = snap.spans_named("resilience.retry").filter(at_device);
        assert_eq!(injected.len(), retries.count() + fatal.count(), "{device}");
    }

    let breaches = SeriesKey::new("slo.breach", &[("pipeline", PIPELINE)]);
    assert_eq!(stats.counters[&breaches], 5);
    assert!((stats.counters.iter()).any(|(k, &n)| k.name == "fault.injected" && n >= 1));
    assert_eq!((spans.len(), window.len()), (488, 190));
    assert_eq!(fnv1a(&spans.join("\n")), 0xda70_8fc2_ff83_da60, "sim spans");
    assert_eq!(
        fnv1a(&stats.to_json().to_string()),
        0xd298_dc43_782d_bf5d,
        "stats snapshot"
    );
    assert_eq!(fnv1a(&window.join("\n")), 0x0592_a846_873c_e28e, "flight");
}
