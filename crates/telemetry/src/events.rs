//! Structured event fan-out to an installed sink (the flight recorder).
//!
//! Spans and metrics answer "how long / how many"; events answer "what
//! happened, in order": a fault was injected, a retry fired, a fallback
//! switched permutations, a cache entry was evicted, a stage was
//! dropped. `tvmnp-observe` installs an [`EventSink`] backed by its ring
//! buffer; instrumentation sites call [`emit_event`] which costs one
//! relaxed atomic load when no sink is installed.
//!
//! Interesting span ends reach the sink too — the same record the
//! collector stores, which the flight dump renders as `span.end` (see
//! [`forward_span_end`]) — so the flight recorder's window shows causality
//! — which frame / stage / retry surrounded a fault — without drowning
//! in per-node executor spans (those stay in the stats registry).

use crate::record::{Field, Fields, Record};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Receiver for records. A trait because the receiver (`tvmnp-observe`'s
/// plane) lives one crate above this one. Implementations must be cheap
/// and non-blocking: sites emit while serving.
pub trait EventSink: Send + Sync {
    /// One record: an event (no interval, e.g. `resilience.fallback`) or
    /// a followed span end. Events carry a `trace` field when emitted
    /// under an active trace context.
    fn record(&self, record: &Record);
}

static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Arc<dyn EventSink>>> = Mutex::new(None);

/// Install the process-global event sink (replacing any previous one).
pub fn set_event_sink(sink: Arc<dyn EventSink>) {
    *SINK.lock() = Some(sink);
    SINK_ACTIVE.store(true, Ordering::Release);
}

/// Remove the event sink; subsequent [`emit_event`] calls cost one load.
pub fn clear_event_sink() {
    SINK_ACTIVE.store(false, Ordering::Release);
    *SINK.lock() = None;
}

/// Whether a sink is installed (one relaxed atomic load).
#[inline]
pub fn sink_active() -> bool {
    SINK_ACTIVE.load(Ordering::Relaxed)
}

/// Hand `record` to the installed sink, if any.
pub(crate) fn deliver(record: &Record) {
    let sink = SINK.lock().clone();
    if let Some(sink) = sink {
        sink.record(record);
    }
}

/// Emit a structured event to the installed sink, if any. Tags the event
/// with the current trace id when a trace context is active, so flight
/// events tie back to the causal span tree of the frame that produced
/// them.
pub fn emit_event(name: &'static str, fields: Fields) {
    if !sink_active() {
        return;
    }
    let mut record = Record::event(name, fields);
    if let Some(trace) = crate::trace::current_trace_id() {
        if record.get("trace").is_none() {
            record.fields.push(("trace", Field::U64(trace)));
        }
    }
    deliver(&record);
}

/// Span names worth forwarding to the sink as `span.end` events. Frame,
/// stage, scheduler, and resilience spans carry post-mortem causality;
/// per-node executor spans are far too chatty for a small ring and are
/// aggregated in the stats registry instead.
pub(crate) fn forward_span_end(name: &str) -> bool {
    ["serve.", "resilience.", "scheduler.", "vision.", "cache."]
        .iter()
        .any(|layer| name.starts_with(layer))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Capture(Mutex<Vec<Record>>);
    impl EventSink for Capture {
        fn record(&self, record: &Record) {
            self.0.lock().push(record.clone());
        }
    }

    #[test]
    fn emit_reaches_sink_and_tags_trace() {
        let _l = crate::tests::lock_global();
        let cap = Arc::new(Capture(Mutex::new(Vec::new())));
        set_event_sink(cap.clone());

        emit_event("fault.injected", vec![("device", "apu".into())]);
        {
            let root = crate::trace::alloc_span_id();
            let _g = crate::trace::begin_trace(9, root, vec![]);
            emit_event("resilience.fallback", vec![("from", "np-apu".into())]);
        }
        clear_event_sink();
        emit_event("fault.injected", vec![]); // dropped: no sink

        let got = cap.0.lock();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name, "fault.injected");
        assert_eq!(got[0].get("trace"), None);
        assert_eq!(got[1].u64("trace"), Some(9));
    }

    #[test]
    fn span_forwarding_filter_keeps_chatty_spans_out() {
        assert!(forward_span_end("serve.frame"));
        assert!(forward_span_end("resilience.retry"));
        assert!(forward_span_end("scheduler.stage"));
        assert!(!forward_span_end("executor.node"));
        assert!(!forward_span_end("byoc.codegen"));
    }
}
