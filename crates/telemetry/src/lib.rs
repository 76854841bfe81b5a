//! Lightweight observability for the TVM + NeuroPilot reproduction.
//!
//! One event model, reachable through a process-global collector:
//!
//! * **Records** — [`Record`]: a literal name, an optional interval and
//!   typed [`Field`]s. [`span!`] opens an RAII guard that records a
//!   wall-clock span when dropped; *simulated-time* spans are recorded
//!   explicitly via [`record_sim_span`] with timestamps taken from the
//!   hwsim cost model, so a trace of a simulated run lines up on the
//!   simulated timeline rather than host wall time; [`emit_event`] hands
//!   an interval-less record to the installed [`EventSink`].
//! * **Registry** — [`StatsRegistry`]: counters, gauges and
//!   [`QuantileSketch`] series keyed by name plus sorted labels, e.g.
//!   `latency_us{pipeline=showcase,stage=obj-det}`. The collector owns
//!   one (written by [`counter_add`] / [`gauge_set`]); `tvmnp-observe`'s
//!   live plane owns the other.
//! * **Exporters** — a per-op profile table and Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`), see [`export`].
//!
//! Collection is disabled by default: every instrumentation point first
//! checks an atomic flag, so the instrumented hot paths cost one relaxed
//! load when telemetry is off. Bench binaries flip it on for `--profile`
//! / `--trace-out`.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod events;
pub mod export;
pub mod record;
pub mod registry;
pub mod sketch;
pub mod trace;

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::ThreadId;
use std::time::Instant;

pub use events::{clear_event_sink, emit_event, set_event_sink, sink_active, EventSink};
pub use export::{chrome_trace, profile_table, write_chrome_trace};
pub use record::{Field, Fields, Interval, Record, TimeDomain};
pub use registry::{SeriesKey, SeriesStats, StatsRegistry, StatsSnapshot};
pub use sketch::QuantileSketch;
pub use trace::{alloc_span_id, begin_trace, set_worker_lane, TraceGuard, WORKER_LANE_BASE};

struct Collector {
    events: Vec<Record>,
    /// Dense thread ids, assigned in order of each thread's first event.
    thread_ids: HashMap<ThreadId, u64>,
    epoch: Instant,
}

impl Collector {
    fn tid(&mut self) -> u64 {
        // An explicit worker lane (set by the serving pool) beats the
        // dense first-event id: concurrent workers then render as stable,
        // non-interleaved lanes in the Chrome trace.
        if let Some(lane) = trace::worker_lane() {
            return trace::WORKER_LANE_BASE + lane;
        }
        let next = self.thread_ids.len() as u64;
        *self
            .thread_ids
            .entry(std::thread::current().id())
            .or_insert(next)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The collector's labelled store.
static REGISTRY: StatsRegistry = StatsRegistry::new();

fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: std::sync::OnceLock<Mutex<Collector>> = std::sync::OnceLock::new();
    COLLECTOR.get_or_init(|| {
        Mutex::new(Collector {
            events: Vec::new(),
            thread_ids: HashMap::new(),
            epoch: Instant::now(),
        })
    })
}

/// Turn collection on. Spans and metrics recorded while disabled are
/// dropped at the instrumentation site.
pub fn enable() {
    ENABLED.store(true, Ordering::Release);
}

/// Turn collection off.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether collection is currently on (one relaxed atomic load).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear all recorded spans and metrics and re-anchor the wall-clock
/// epoch at "now". Does not change the enabled flag.
pub fn reset() {
    let mut c = collector().lock();
    c.events.clear();
    c.thread_ids.clear();
    c.epoch = Instant::now();
    REGISTRY.clear();
}

/// Add `delta` to a counter of the collector's registry (created at 0
/// on first use). No-op while collection is disabled.
pub fn counter_add(name: &str, labels: &[(&str, &str)], delta: u64) {
    if is_enabled() {
        REGISTRY.counter_add(name, labels, delta);
    }
}

/// Set a gauge of the collector's registry. No-op while collection is
/// disabled.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
    if is_enabled() {
        REGISTRY.gauge_set(name, labels, value);
    }
}

/// Everything recorded so far, for handing to the exporters.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Recorded spans, in completion order.
    pub events: Vec<Record>,
    /// The collector's counters, gauges and series, sorted by key.
    pub metrics: StatsSnapshot,
}

impl Snapshot {
    /// Spans with the given name, in recorded order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Record> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Spans on the simulated timeline only.
    pub fn sim_spans(&self) -> impl Iterator<Item = (&Record, Interval)> {
        self.events
            .iter()
            .filter_map(|e| Some((e, e.interval.filter(|i| i.clock == TimeDomain::Sim)?)))
    }
}

/// Copy out the recorded spans and metrics.
pub fn snapshot() -> Snapshot {
    let events = collector().lock().events.clone();
    Snapshot {
        events,
        metrics: REGISTRY.snapshot(),
    }
}

/// Record a span on the simulated timeline with explicit timestamps
/// (microseconds of simulated time). No-op while disabled. Under an
/// active trace context the span is stamped with `trace`/`span`/`parent`
/// ids as a leaf of the innermost open span.
pub fn record_sim_span(name: &'static str, ts_us: f64, dur_us: f64, fields: Fields) {
    if is_enabled() {
        let ids = trace::leaf_ids();
        store(
            Record::event(name, fields),
            ids,
            TimeDomain::Sim,
            |_| ts_us,
            dur_us,
        );
    }
}

/// Record a simulated-time span with an *explicit* trace identity,
/// bypassing the thread-local context. This is how the serving pool
/// stitches post-hoc schedule spans (frame roots, stage summaries,
/// queue-wait intervals) onto traces whose worker-side spans were
/// already recorded: allocate ids with [`trace::alloc_span_id`] up
/// front, hand them to the workers as trace roots, and attach the
/// summary spans here once the simulated schedule is known.
pub fn record_sim_span_traced(
    ids: trace::SpanIds,
    name: &'static str,
    ts_us: f64,
    dur_us: f64,
    fields: Fields,
) {
    if is_enabled() {
        store(
            Record::event(name, fields),
            Some(ids),
            TimeDomain::Sim,
            |_| ts_us,
            dur_us,
        );
    }
}

/// Finish a span: stamp its trace identity, give it its interval (`ts_us`
/// sees the collector epoch) and lane, store it, and — outside the
/// collector lock — hand the sink a copy when the flight recorder follows
/// its name.
fn store(
    mut record: Record,
    ids: Option<trace::SpanIds>,
    clock: TimeDomain,
    ts_us: impl FnOnce(Instant) -> f64,
    dur_us: f64,
) {
    if let Some(ids) = ids {
        trace::stamp(&mut record, ids);
    }
    let followed = events::sink_active() && events::forward_span_end(record.name);
    let copy = {
        let mut c = collector().lock();
        record.interval = Some(Interval {
            ts_us: ts_us(c.epoch),
            dur_us,
            clock,
            tid: c.tid(),
        });
        let copy = followed.then(|| record.clone());
        c.events.push(record);
        copy
    };
    if let Some(record) = copy {
        events::deliver(&record);
    }
}

/// RAII wall-clock span; records a [`Record`] when dropped. Construct
/// through the [`span!`] macro, which builds nothing while disabled.
pub struct SpanGuard {
    name: &'static str,
    fields: Fields,
    start: Instant,
    /// Trace identity when opened under an active trace context; spans
    /// recorded while this guard lives become its children.
    ids: Option<trace::SpanIds>,
}

impl SpanGuard {
    /// Open a live span (collection was enabled at entry).
    pub fn enter(name: &'static str, fields: Fields) -> SpanGuard {
        SpanGuard {
            name,
            fields,
            start: Instant::now(),
            ids: trace::open_span(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Still record if telemetry was disabled mid-span: the guard was
        // opened under an enabled collector, so the interval is wanted.
        let dur_us = self.start.elapsed().as_secs_f64() * 1e6;
        if let Some(ids) = self.ids {
            trace::close_span(ids);
        }
        let record = Record::event(self.name, std::mem::take(&mut self.fields));
        let since = |epoch| self.start.duration_since(epoch).as_secs_f64() * 1e6;
        store(record, self.ids, TimeDomain::Wall, since, dur_us);
    }
}

/// Open a wall-clock span guard for the enclosing scope.
///
/// ```
/// let _g = tvmnp_telemetry::span!("byoc.partition");
/// let _g = tvmnp_telemetry::span!("executor.node", "op" => "conv2d", "device" => "apu");
/// ```
///
/// Evaluates to `Option<SpanGuard>`: field values are converted with
/// `Field::from` only when collection is enabled; otherwise the macro
/// costs one atomic load and yields `None`.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        $crate::is_enabled().then(|| {
            $crate::SpanGuard::enter($name, ::std::vec![$(($k, $crate::Field::from($v))),*])
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share the process-global collector, so serialize them.
    pub(crate) fn lock_global() -> parking_lot::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock()
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = lock_global();
        disable();
        reset();
        {
            let _g = span!("unseen", "k" => 1u64);
        }
        record_sim_span("unseen.sim", 0.0, 1.0, vec![]);
        assert!(snapshot().events.is_empty());
    }

    #[test]
    fn span_nesting_orders_by_completion() {
        let _l = lock_global();
        enable();
        reset();
        {
            let _outer = span!("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("inner", "depth" => 2u64);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        disable();
        let snap = snapshot();
        assert_eq!(snap.events.len(), 2);
        // Inner drops first; outer must fully contain it on the timeline.
        let inner = &snap.events[0];
        let outer = &snap.events[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        let (o, i) = (outer.interval.unwrap(), inner.interval.unwrap());
        assert!(o.ts_us <= i.ts_us);
        assert!(o.ts_us + o.dur_us >= i.ts_us + i.dur_us);
        assert_eq!(inner.fields, vec![("depth", Field::U64(2))]);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // a test may start threads to race
    fn spans_are_thread_safe_and_tids_dense() {
        let _l = lock_global();
        enable();
        reset();
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..8 {
                        let _g = span!("worker", "t" => t as u64, "i" => i as u64);
                    }
                });
            }
        });
        disable();
        let snap = snapshot();
        assert_eq!(snap.events.len(), 32);
        let mut tids: Vec<u64> = snap
            .events
            .iter()
            .map(|e| e.interval.unwrap().tid)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4, "one dense tid per thread");
        assert!(*tids.iter().max().unwrap() < 4);
    }

    #[test]
    fn sim_spans_keep_explicit_timestamps() {
        let _l = lock_global();
        enable();
        reset();
        record_sim_span("executor.node", 10.0, 5.5, vec![("op", "conv2d".into())]);
        disable();
        let snap = snapshot();
        assert_eq!(snap.events.len(), 1);
        let interval = snap.events[0].interval.unwrap();
        assert_eq!(interval.clock, TimeDomain::Sim);
        assert_eq!(interval.ts_us, 10.0);
        assert_eq!(interval.dur_us, 5.5);
        assert_eq!(snap.sim_spans().count(), 1);
    }

    #[test]
    fn fields_render_the_text_their_artifacts_print() {
        assert_eq!(Field::from("apu").to_string(), "apu");
        assert_eq!(Field::from(7usize).to_string(), "7");
        assert_eq!(Field::F64(9483.4745541, 6).to_string(), "9483.474554");
        assert_eq!(Field::F64(80.0, 3).to_string(), "80.000");
        assert_eq!(Field::Bool(false).to_string(), "false");
    }

    #[test]
    fn collector_registry_is_gated_and_reset() {
        let _l = lock_global();
        enable();
        reset();
        counter_add("runs", &[], 1);
        counter_add("runs", &[], 2);
        gauge_set("util", &[("device", "apu")], 0.75);
        disable();
        // Disabled: must not record.
        counter_add("runs", &[], 100);
        let metrics = snapshot().metrics;
        assert_eq!(metrics.counters[&SeriesKey::new("runs", &[])], 3);
        let (key, util) = metrics.gauges.iter().next().unwrap();
        assert_eq!((key.render().as_str(), *util), ("util{device=apu}", 0.75));
        reset();
        assert!(snapshot().metrics.counters.is_empty());
    }
}
