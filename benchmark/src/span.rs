//! Spans recorded by the benchmark's own code around its calls into each
//! layer: `{id, parent, op, name, start_ns, end_ns}` in a buffer allocated
//! before the window opens and written as JSON after it closes.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `id` is the index into the buffer plus one, so
/// `parent == 0` marks an op's root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Shared by all spans of one op.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Fixed-capacity span recorder. A span that does not fit is counted in
/// `dropped` (as is every span nested in it) and never grows the buffer.
pub struct SpanBuf {
    spans: Vec<Span>,
    open: Vec<u32>,
    epoch: Instant,
    op: u32,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn with_capacity(capacity: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            epoch: Instant::now(),
            op: 0,
            dropped: 0,
        }
    }

    /// Start the next op; the spans recorded until the next call share
    /// its id.
    pub fn begin_op(&mut self) -> u32 {
        // A panic caught by the harness unwinds past `span` without
        // closing it; the next op must not nest under the wreck.
        self.open.clear();
        self.op += 1;
        self.op
    }

    /// Record `f` as a span named `name`, nested in whichever span is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanBuf) -> R) -> R {
        if self.spans.len() == self.spans.capacity() {
            // The buffer never shrinks, so everything nested in a dropped
            // span is dropped by this same test.
            self.dropped += 1;
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let r = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let s = &mut self.spans[id as usize - 1];
        s.start_ns = start;
        s.end_ns = end;
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the trace file.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{},\"spans\":[",
            self.dropped
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(
                w,
                "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once, and
/// a child is clipped to its parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut upto = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(upto);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name, the smallest per-round total of self time. `round_of`
/// maps an op id to its round; rounds with dropped spans are excluded by
/// the caller passing only fully recorded spans.
pub fn layer_self_floor_ns(
    spans: &[Span],
    round_of: impl Fn(u32) -> u32,
) -> BTreeMap<&'static str, u64> {
    let selfs = self_times_ns(spans);
    let mut per_round: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *per_round.entry((s.name, round_of(s.op))).or_default() += t;
    }
    let mut floor: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ((name, _), t) in per_round {
        floor
            .entry(name)
            .and_modify(|m| *m = (*m).min(t))
            .or_insert(t);
    }
    floor
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children_nested_and_adjacent() {
        let spans = [
            sp(1, 0, "op", 0, 100),
            sp(2, 1, "call", 0, 40),
            sp(3, 1, "replay", 40, 95), // adjacent to `call`
            sp(4, 3, "a", 40, 60),
            sp(5, 3, "b", 60, 90),       // adjacent to `a`
            sp(6, 5, "b.inner", 70, 80), // nested two deep
        ];
        assert_eq!(self_times_ns(&spans), vec![5, 40, 5, 20, 20, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            sp(1, 0, "p", 10, 110),
            sp(2, 1, "x", 20, 60),
            sp(3, 1, "y", 50, 80),   // overlaps x by 10
            sp(4, 1, "z", 100, 130), // overhangs the parent by 20
        ];
        // covered = [20,80) + [100,110) = 70
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_shares_the_op_id() {
        let mut buf = SpanBuf::with_capacity(8);
        let op = buf.begin_op();
        buf.span("op", |b| {
            b.span("call", |_| std::hint::black_box(1 + 1));
            b.span("replay", |b| b.span("relay.simplify", |_| ()));
        });
        let s = buf.spans();
        assert_eq!(
            s.iter()
                .map(|s| (s.id, s.parent, s.name))
                .collect::<Vec<_>>(),
            vec![
                (1, 0, "op"),
                (2, 1, "call"),
                (3, 1, "replay"),
                (4, 3, "relay.simplify")
            ]
        );
        assert!(s.iter().all(|x| x.op == op && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_full_buffer_drops_whole_subtrees_without_growing() {
        let mut buf = SpanBuf::with_capacity(1);
        buf.begin_op();
        buf.span("kept", |_| ());
        buf.span("dropped", |b| b.span("dropped.child", |_| ()));
        assert_eq!(buf.spans().len(), 1);
        assert_eq!(buf.dropped, 2);
    }

    #[test]
    fn layer_floor_takes_the_quietest_round() {
        let mut spans = vec![sp(1, 0, "a", 0, 30), sp(2, 0, "a", 30, 50)];
        spans[1].op = 2;
        let floor = layer_self_floor_ns(&spans, |op| op - 1);
        assert_eq!(floor["a"], 20);
    }
}
