//! Reassemble causal span trees from a telemetry snapshot.
//!
//! Spans recorded under a trace context carry `trace`/`span`/`parent`
//! id fields (see `tvmnp_telemetry::trace`); this module groups a
//! snapshot's spans by trace id and rebuilds each request's tree —
//! frame root, stage summaries, executor nodes, retries, and fallback
//! re-dispatches — no matter how the spans of concurrent requests
//! interleaved in the collector.

use tvmnp_telemetry::{Record, Snapshot};

/// One span in a reassembled tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The recorded span (name, interval, fields).
    pub event: Record,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (`0` = root of the trace).
    pub parent_id: u64,
    /// Indices of child nodes within [`TraceTree::nodes`].
    pub children: Vec<usize>,
}

/// All spans of one trace, wired parent→child.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// Trace id the spans were recorded under.
    pub trace_id: u64,
    /// Every span of the trace, in recorded order.
    pub nodes: Vec<SpanNode>,
    /// Indices of nodes whose parent is `0` (trace roots).
    pub roots: Vec<usize>,
    /// `true` when the tree is closed: exactly one root, and every
    /// non-root span's parent resolves to another span of this trace.
    pub complete: bool,
}

impl TraceTree {
    /// The single root node, when the tree is complete.
    pub fn root(&self) -> Option<&SpanNode> {
        match self.roots.as_slice() {
            [only] => self.nodes.get(*only),
            _ => None,
        }
    }
}

/// Group every trace-stamped span in the snapshot into trees, sorted by
/// trace id. Spans without trace ids are ignored.
pub fn assemble(snapshot: &Snapshot) -> Vec<TraceTree> {
    use std::collections::BTreeMap;
    let mut by_trace: BTreeMap<u64, Vec<SpanNode>> = BTreeMap::new();
    for event in &snapshot.events {
        let (Some(trace), Some(span_id)) = (event.u64("trace"), event.u64("span")) else {
            continue;
        };
        let parent_id = event.u64("parent").unwrap_or(0);
        by_trace.entry(trace).or_default().push(SpanNode {
            event: event.clone(),
            span_id,
            parent_id,
            children: Vec::new(),
        });
    }

    by_trace
        .into_iter()
        .map(|(trace_id, mut nodes)| {
            let index: std::collections::HashMap<u64, usize> = nodes
                .iter()
                .enumerate()
                .map(|(i, n)| (n.span_id, i))
                .collect();
            let mut roots = Vec::new();
            let mut orphans = 0usize;
            for child in 0..nodes.len() {
                let parent_id = nodes[child].parent_id;
                match index.get(&parent_id) {
                    _ if parent_id == 0 => roots.push(child),
                    Some(&parent) if parent != child => nodes[parent].children.push(child),
                    // Parent span missing from the trace, or self-parent.
                    _ => orphans += 1,
                }
            }
            let complete = roots.len() == 1 && orphans == 0 && !nodes.is_empty();
            TraceTree {
                trace_id,
                nodes,
                roots,
                complete,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_telemetry::{Interval, TimeDomain};

    fn span(name: &'static str, trace: u64, id: u64, parent: u64, dur: f64) -> Record {
        Record {
            name,
            interval: Some(Interval {
                ts_us: 0.0,
                dur_us: dur,
                clock: TimeDomain::Sim,
                tid: 0,
            }),
            fields: vec![
                ("trace", trace.into()),
                ("span", id.into()),
                ("parent", parent.into()),
            ],
        }
    }

    fn snapshot(events: Vec<Record>) -> Snapshot {
        Snapshot {
            events,
            metrics: Default::default(),
        }
    }

    #[test]
    fn interleaved_traces_reassemble_into_separate_trees() {
        // Two traces, spans deliberately interleaved as if recorded by
        // concurrent workers.
        let snap = snapshot(vec![
            span("executor.node", 2, 21, 20, 5.0),
            span("serve.frame", 1, 10, 0, 100.0),
            span("executor.node", 1, 11, 10, 40.0),
            span("serve.frame", 2, 20, 0, 90.0),
            span("resilience.retry", 2, 22, 21, 3.0),
            span("executor.node", 1, 12, 10, 60.0),
        ]);
        let trees = assemble(&snap);
        assert_eq!(trees.len(), 2);
        assert!(trees.iter().all(|t| t.complete), "{trees:?}");
        let t1 = &trees[0];
        assert_eq!(t1.trace_id, 1);
        assert_eq!(t1.root().unwrap().event.name, "serve.frame");
        let node_us: f64 = (t1.nodes.iter())
            .filter(|n| n.event.name == "executor.node")
            .map(|n| n.event.dur_us())
            .sum();
        assert_eq!(node_us, 100.0);
        let t2 = &trees[1];
        let retry = (t2.nodes.iter())
            .find(|n| n.event.name == "resilience.retry")
            .unwrap();
        assert_eq!(retry.parent_id, 21, "retry nests under the node span");
    }

    #[test]
    fn missing_parent_marks_tree_incomplete() {
        let snap = snapshot(vec![
            span("serve.frame", 1, 10, 0, 10.0),
            span("executor.node", 1, 11, 99, 5.0), // parent 99 never recorded
        ]);
        let trees = assemble(&snap);
        assert_eq!(trees.len(), 1);
        assert!(!trees[0].complete);
    }

    #[test]
    fn multiple_roots_mark_tree_incomplete() {
        let snap = snapshot(vec![
            span("serve.frame", 1, 10, 0, 10.0),
            span("serve.frame", 1, 11, 0, 10.0),
        ]);
        assert!(!assemble(&snap)[0].complete);
    }

    #[test]
    fn untraced_spans_are_ignored() {
        let mut plain = span("byoc.build", 1, 1, 0, 1.0);
        plain.fields.clear();
        let snap = snapshot(vec![plain]);
        assert!(assemble(&snap).is_empty());
    }
}
