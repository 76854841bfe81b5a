//! Causal request tracing: per-request trace contexts propagated through
//! worker threads, resilient re-dispatch, and executor node dispatch.
//!
//! A *trace* groups every span recorded on behalf of one request (one
//! served frame): the serving pool opens a [`TraceGuard`] on the worker
//! thread before processing a frame, and every span recorded while the
//! guard is alive — executor nodes, retries, fallback transitions —
//! carries three extra `u64` fields:
//!
//! * `trace`  — the trace id (stable per request, chosen by the caller);
//! * `span`   — a process-unique id for this span;
//! * `parent` — the `span` id of the innermost enclosing span (`0` for
//!   trace roots).
//!
//! Together they let `tvmnp-observe` reassemble a complete causal span
//! tree per request even when spans from many concurrent requests
//! interleave in the collector. Propagation is thread-local (requests
//! never migrate threads mid-frame in this codebase); cross-thread
//! hand-off is explicit via [`begin_trace`] with a pre-allocated root id.
//!
//! Everything here is off unless a guard is alive on the current thread:
//! the instrumented span paths ask for ids (one thread-local read)
//! only after the global enabled flag already passed, so untraced runs
//! stay on the pre-existing fast path and produce byte-identical output.

use crate::record::{Field, Fields, Record};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Span ids are process-unique and never zero (zero = "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh process-unique span id. Exposed so callers can
/// pre-allocate root ids before fanning frames out to worker threads and
/// stitch summary spans onto the finished trace afterwards (see
/// [`crate::record_sim_span_traced`]).
pub fn alloc_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

struct TraceState {
    trace_id: u64,
    /// Open span ids, innermost last. The last entry is the parent of
    /// the next span opened on this thread.
    stack: Vec<u64>,
    /// Ambient labels stamped on every span recorded in this trace.
    labels: Fields,
}

thread_local! {
    static CURRENT: RefCell<Option<TraceState>> = const { RefCell::new(None) };
    static LANE: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// RAII guard for one trace on the current thread; restores the previous
/// trace (if any) when dropped.
pub struct TraceGuard {
    prev: Option<TraceState>,
}

/// Open a trace on this thread. `trace_id` is caller-chosen (the serving
/// pool derives it from the frame index so re-runs produce the same
/// ids); `root_span` is the parent every top-level span attaches to —
/// allocate it with [`alloc_span_id`] and record the root itself later
/// via [`crate::record_sim_span_traced`]. `labels` are stamped on every
/// span recorded while the guard lives (tenant / model / permutation).
pub fn begin_trace(trace_id: u64, root_span: u64, labels: Fields) -> TraceGuard {
    let prev = CURRENT.with(|c| {
        c.borrow_mut().replace(TraceState {
            trace_id,
            stack: vec![root_span],
            labels,
        })
    });
    TraceGuard { prev }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

/// Identity a span records under: `(trace, span, parent)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanIds {
    /// Trace the span belongs to.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Enclosing span's id (`0` = trace root).
    pub parent: u64,
}

/// Open a nested span: allocate an id with the current innermost span as
/// parent and push it as the new innermost. Returns `None` (and pushes
/// nothing) when no trace is active. Callers must pass the ids back to
/// [`close_span`] exactly once.
pub(crate) fn open_span() -> Option<SpanIds> {
    let ids = leaf_ids()?;
    CURRENT.with(|c| {
        if let Some(state) = c.borrow_mut().as_mut() {
            state.stack.push(ids.span);
        }
    });
    Some(ids)
}

/// Pop a span opened with [`open_span`]. Tolerates the trace having
/// ended early (guard dropped before an escaped span guard).
pub(crate) fn close_span(ids: SpanIds) {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        if let Some(state) = cur.as_mut() {
            if state.stack.last() == Some(&ids.span) {
                state.stack.pop();
            } else if let Some(pos) = state.stack.iter().rposition(|&s| s == ids.span) {
                // A child guard outlived its parent guard (should not
                // happen with lexical scoping, but stay consistent).
                state.stack.truncate(pos);
            }
        }
    })
}

/// Ids for an instantaneous (leaf) span: fresh id, current innermost
/// span as parent, nothing pushed. `None` when no trace is active.
pub(crate) fn leaf_ids() -> Option<SpanIds> {
    CURRENT.with(|c| {
        let cur = c.borrow();
        let state = cur.as_ref()?;
        Some(SpanIds {
            trace: state.trace_id,
            span: alloc_span_id(),
            parent: state.stack.last().copied().unwrap_or(0),
        })
    })
}

/// Append the trace identity and the ambient labels of the trace active
/// on this thread to a span's fields.
pub(crate) fn stamp(record: &mut Record, ids: SpanIds) {
    record.fields.push(("trace", Field::U64(ids.trace)));
    record.fields.push(("span", Field::U64(ids.span)));
    record.fields.push(("parent", Field::U64(ids.parent)));
    CURRENT.with(|c| {
        if let Some(state) = c.borrow().as_ref() {
            for (k, v) in &state.labels {
                if record.get(k).is_none() {
                    record.fields.push((k, v.clone()));
                }
            }
        }
    });
}

/// The current trace id, if a trace is active on this thread.
pub fn current_trace_id() -> Option<u64> {
    CURRENT.with(|c| c.borrow().as_ref().map(|s| s.trace_id))
}

/// Base of the thread-id namespace used for explicit worker lanes (see
/// [`set_worker_lane`]): lane `n` records as tid `WORKER_LANE_BASE + n`,
/// far above any dense per-thread id the collector assigns.
pub const WORKER_LANE_BASE: u64 = 1000;

/// Pin this thread's spans to an explicit worker lane: spans record with
/// `tid = WORKER_LANE_BASE + lane` instead of the dense first-event
/// thread id, so concurrent serving workers render as stable,
/// non-interleaved lanes in the Chrome trace (lane = worker index, not
/// whichever thread happened to record first). `None` restores the
/// default dense ids.
pub fn set_worker_lane(lane: Option<u64>) {
    LANE.with(|l| l.set(lane));
}

/// The lane pinned on this thread, if any.
pub(crate) fn worker_lane() -> Option<u64> {
    LANE.with(|l| l.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trace_means_inactive_and_no_ids() {
        assert!(current_trace_id().is_none());
        assert!(leaf_ids().is_none());
        assert!(open_span().is_none());
    }

    #[test]
    fn spans_nest_under_the_root() {
        let root = alloc_span_id();
        let _g = begin_trace(42, root, vec![("tenant", "t0".into())]);
        assert_eq!(current_trace_id(), Some(42));

        let leaf = leaf_ids().unwrap();
        assert_eq!(leaf.trace, 42);
        assert_eq!(leaf.parent, root);

        let inner = open_span().unwrap();
        assert_eq!(inner.parent, root);
        let deeper = leaf_ids().unwrap();
        assert_eq!(deeper.parent, inner.span);
        close_span(inner);
        assert_eq!(leaf_ids().unwrap().parent, root);

        let mut record = Record::event("executor.node", vec![("op", "conv2d".into())]);
        stamp(&mut record, leaf);
        assert_eq!(record.u64("trace"), Some(42));
        assert_eq!(record.str("tenant"), Some("t0"));
    }

    #[test]
    fn guard_restores_previous_trace() {
        let r1 = alloc_span_id();
        let g1 = begin_trace(1, r1, vec![]);
        {
            let r2 = alloc_span_id();
            let _g2 = begin_trace(2, r2, vec![]);
            assert_eq!(current_trace_id(), Some(2));
        }
        assert_eq!(current_trace_id(), Some(1));
        drop(g1);
        assert!(current_trace_id().is_none());
    }

    #[test]
    fn span_ids_are_unique() {
        let a = alloc_span_id();
        let b = alloc_span_id();
        assert_ne!(a, b);
        assert!(a > 0 && b > 0);
    }

    #[test]
    fn worker_lane_round_trips() {
        assert_eq!(worker_lane(), None);
        set_worker_lane(Some(3));
        assert_eq!(worker_lane(), Some(3));
        set_worker_lane(None);
        assert_eq!(worker_lane(), None);
    }
}
