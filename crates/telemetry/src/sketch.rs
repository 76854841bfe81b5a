//! Streaming quantile sketch (Greenwald–Khanna style).
//!
//! Holds an ε-approximate summary of a stream of latency samples in
//! `O(1/ε · log(εn))` memory, ε being [`EPSILON`]:
//! [`QuantileSketch::query`] returns a value
//! whose *rank* in the observed stream is within `ε·n` of the requested
//! quantile's nearest rank (the `⌈q·n⌉`-th smallest sample), which is
//! what lets the tests check it against the sorted samples within rank
//! tolerance.
//!
//! Inserts are buffered and folded in batches, so the hot path is a
//! `Vec::push` plus an occasional compress. Everything is deterministic:
//! same samples in the same order → bit-identical summaries.

/// One GK tuple: `v` covers `g` samples beyond the previous entry, and
/// its rank is known up to `delta`.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    v: f64,
    g: u64,
    delta: u64,
}

/// Streaming ε-approximate quantile summary. See the module docs.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// Summary tuples, sorted by value.
    entries: Vec<Entry>,
    /// Pending inserts, folded in on flush.
    buffer: Vec<f64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Rank error: 0.5% of the stream (p99 of 10k samples is off by at most
/// ~50 ranks).
pub const EPSILON: f64 = 0.005;

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch {
            entries: Vec::new(),
            buffer: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl QuantileSketch {
    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed samples (exact).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observed sample (exact), `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observed sample (exact), `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Observe one sample. Non-finite values are ignored.
    pub fn insert(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buffer.push(v);
        if self.buffer.len() >= (0.5 / EPSILON).ceil() as usize {
            self.flush();
        }
    }

    /// Fold buffered inserts into the summary and compress it.
    pub fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.buffer);
        batch.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        // New interior tuples may sit anywhere within the allowed rank
        // slack; extremes are exact.
        let slack = self.rank_slack();
        let singles = batch.into_iter().map(|v| {
            let delta = if v <= self.min || v >= self.max {
                0
            } else {
                slack.saturating_sub(1)
            };
            Entry { v, g: 1, delta }
        });
        merge_sorted(&mut self.entries, singles);
        self.compress();
    }

    /// Maximum allowed `g + delta` per tuple: `2·ε·n`, the GK invariant.
    fn rank_slack(&self) -> u64 {
        (2.0 * EPSILON * self.count as f64).floor() as u64
    }

    fn compress(&mut self) {
        let slack = self.rank_slack();
        let mut out: Vec<Entry> = Vec::with_capacity(self.entries.len());
        for entry in self.entries.drain(..) {
            match out.last() {
                // Never merge away the first tuple: it anchors the exact
                // minimum. The maximum survives because a merge removes
                // the *smaller* of the pair.
                Some(last) if out.len() >= 2 && last.g + entry.g + entry.delta <= slack => {
                    let absorbed = out.pop().map(|e| e.g).unwrap_or(0);
                    out.push(Entry {
                        v: entry.v,
                        g: entry.g + absorbed,
                        delta: entry.delta,
                    });
                }
                _ => out.push(entry),
            }
        }
        self.entries = out;
    }

    /// Value at quantile `q` in `[0, 1]`: a real observed sample whose
    /// rank is within `ε·n` of the nearest rank `⌈q·n⌉`. Returns `0.0`
    /// on an empty sketch.
    pub fn query(&mut self, q: f64) -> f64 {
        self.flush();
        if self.count == 0 || self.entries.is_empty() {
            return 0.0;
        }
        let n = self.count as f64;
        let target = (q.clamp(0.0, 1.0) * n).ceil().max(1.0) as u64;
        let allowed = (EPSILON * n).ceil() as u64;
        let mut rmin = 0u64;
        let mut prev_v = self.entries[0].v;
        for entry in &self.entries {
            // Saturating: a sketch loaded from disk may carry any `u64`
            // that passed `from_json`'s checks.
            rmin = rmin.saturating_add(entry.g);
            let rmax = rmin.saturating_add(entry.delta);
            if rmax > target.saturating_add(allowed) {
                return prev_v;
            }
            prev_v = entry.v;
        }
        prev_v
    }

    /// Serialize the summary as a JSON value. Flushes first so the
    /// output depends only on the observed stream, not on buffering
    /// state — same samples, same order → byte-identical JSON (the
    /// profile store's determinism contract rests on this).
    pub fn to_json(&mut self) -> serde_json::Value {
        self.flush();
        let entries: Vec<serde_json::Value> = self
            .entries
            .iter()
            .map(|e| serde_json::json!([e.v, e.g, e.delta]))
            .collect();
        serde_json::json!({
            "count": self.count,
            "entries": entries,
            "epsilon": EPSILON,
            "max": self.max(),
            "min": self.min(),
            "sum": self.sum
        })
    }

    /// Rebuild a sketch from [`QuantileSketch::to_json`] output,
    /// validating the GK invariants (entries value-sorted, every tuple
    /// covering at least one sample with rank slack at most `count`,
    /// tuple counts summing to `count` without overflow, `epsilon` equal
    /// to [`EPSILON`], `min ≤ max`) so a corrupted profile file is rejected
    /// instead of panicking or silently answering wrong quantiles.
    pub fn from_json(value: &serde_json::Value) -> Result<QuantileSketch, String> {
        let num = |key: &str| {
            value
                .get(key)
                .and_then(serde_json::Value::as_f64)
                .ok_or_else(|| format!("sketch: missing numeric field `{key}`"))
        };
        let count = value
            .get("count")
            .and_then(serde_json::Value::as_u64)
            .ok_or("sketch: missing `count`")?;
        let epsilon = num("epsilon")?;
        if epsilon != EPSILON {
            return Err(format!("sketch: epsilon {epsilon} is not {EPSILON}"));
        }
        let sum = num("sum")?;
        let raw_entries = value
            .get("entries")
            .and_then(serde_json::Value::as_array)
            .ok_or("sketch: missing `entries` array")?;
        let mut entries = Vec::with_capacity(raw_entries.len());
        let mut covered = 0u64;
        for (i, triple) in raw_entries.iter().enumerate() {
            let t = triple
                .as_array()
                .filter(|t| t.len() == 3)
                .ok_or_else(|| format!("sketch: entry {i} is not a [v, g, delta] triple"))?;
            let v = t[0]
                .as_f64()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("sketch: entry {i} has a non-finite value"))?;
            let g = t[1]
                .as_u64()
                .filter(|&g| g > 0)
                .ok_or_else(|| format!("sketch: entry {i} bad g"))?;
            let delta = t[2]
                .as_u64()
                .filter(|&delta| delta <= count)
                .ok_or_else(|| format!("sketch: entry {i} bad delta"))?;
            if let Some(prev) = entries.last() {
                let prev: &Entry = prev;
                if v < prev.v {
                    return Err(format!("sketch: entries not value-sorted at index {i}"));
                }
            }
            covered = covered
                .checked_add(g)
                .ok_or_else(|| format!("sketch: tuple counts overflow at entry {i}"))?;
            entries.push(Entry { v, g, delta });
        }
        if covered != count {
            return Err(format!(
                "sketch: tuple counts sum to {covered}, expected {count}"
            ));
        }
        let mut sketch = QuantileSketch::default();
        if count > 0 {
            sketch.min = num("min")?;
            sketch.max = num("max")?;
            if sketch.min > sketch.max {
                return Err("sketch: min exceeds max".to_string());
            }
        }
        sketch.count = count;
        sketch.sum = sum;
        sketch.entries = entries;
        Ok(sketch)
    }
}

/// Merge value-sorted `more` into value-sorted `entries`. The sort is
/// stable, so on ties the tuples already held stay first — deterministic.
fn merge_sorted(entries: &mut Vec<Entry>, more: impl IntoIterator<Item = Entry>) {
    entries.extend(more);
    entries.sort_by(|a, b| a.v.partial_cmp(&b.v).unwrap_or(std::cmp::Ordering::Equal));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank of `v` in `sorted` as a closed interval [lo, hi] (1-based),
    /// spanning duplicates.
    fn rank_bounds(sorted: &[f64], v: f64) -> (usize, usize) {
        let lo = sorted.partition_point(|&x| x < v) + 1;
        let hi = sorted.partition_point(|&x| x <= v);
        (lo, hi.max(lo))
    }

    fn assert_rank_close(sorted: &[f64], q: f64, got: f64, eps: f64) {
        let n = sorted.len() as f64;
        let target = (q * n).ceil().max(1.0);
        let allowed = (eps * n).ceil() + 1.0;
        let (lo, hi) = rank_bounds(sorted, got);
        assert!(
            (lo as f64) - allowed <= target && target <= (hi as f64) + allowed,
            "q={q}: value {got} has rank [{lo},{hi}], target {target} ± {allowed}"
        );
    }

    /// Deterministic pseudo-random stream (splitmix64-style).
    /// Summary tuples currently held (memory footprint proxy).
    fn tuples(s: &QuantileSketch) -> usize {
        s.entries.len() + s.buffer.len()
    }

    fn stream(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                // Long-tailed latencies in (0, ~20000] us.
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                50.0 + 20000.0 * u * u * u
            })
            .collect()
    }

    #[test]
    fn empty_sketch_is_zeroed() {
        let mut s = QuantileSketch::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.query(0.5), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn quantiles_track_nearest_rank_within_epsilon() {
        let samples = stream(3, 20_000);
        let mut s = QuantileSketch::default();
        for &v in &samples {
            s.insert(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let got = s.query(q);
            assert_rank_close(&sorted, q, got, EPSILON);
        }
        assert_eq!(s.count(), 20_000);
        assert_eq!(s.min(), sorted[0]);
        assert_eq!(s.max(), sorted[sorted.len() - 1]);
    }

    #[test]
    fn memory_stays_sublinear() {
        let mut s = QuantileSketch::default();
        for &v in &stream(9, 50_000) {
            s.insert(v);
        }
        s.flush();
        assert!(
            tuples(&s) < 2_000,
            "sketch grew to {} tuples for 50k samples",
            tuples(&s)
        );
    }

    #[test]
    fn determinism_same_stream_same_summary() {
        let samples = stream(11, 8_000);
        let run = || {
            let mut s = QuantileSketch::default();
            for &v in &samples {
                s.insert(v);
            }
            (s.query(0.5), s.query(0.95), s.query(0.99), tuples(&s))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn json_roundtrip_preserves_summary_exactly() {
        let mut s = QuantileSketch::default();
        for &v in &stream(13, 9_000) {
            s.insert(v);
        }
        let dumped = s.to_json();
        let mut back = QuantileSketch::from_json(&dumped).expect("roundtrip parses");
        assert_eq!(back.count(), s.count());
        assert_eq!(back.sum(), s.sum());
        assert_eq!(back.min(), s.min());
        assert_eq!(back.max(), s.max());
        for q in [0.01, 0.5, 0.95, 0.99] {
            assert_eq!(back.query(q), s.query(q), "q={q} diverged after roundtrip");
        }
        // Serialization is stable: dumping the rebuilt sketch is byte-identical.
        assert_eq!(
            serde_json::to_string(&back.to_json()).unwrap(),
            serde_json::to_string(&dumped).unwrap()
        );
        // Corruption is rejected, not silently accepted.
        let mut broken = dumped.clone();
        if let serde_json::Value::Object(m) = &mut broken {
            m.insert("count".into(), serde_json::json!(1));
        }
        assert!(QuantileSketch::from_json(&broken).is_err());
        // Empty sketches roundtrip too.
        let mut empty = QuantileSketch::default();
        let back = QuantileSketch::from_json(&empty.to_json()).unwrap();
        assert_eq!(back.count(), 0);
    }

    /// A two-sample sketch document with the given tuples, `rest` being
    /// the other fields as JSON text.
    fn doc_with(entries: &str, rest: &str) -> serde_json::Value {
        serde_json::from_str(&format!("{{\"entries\":{entries},{rest}}}")).expect("test JSON")
    }

    fn doc(entries: &str) -> serde_json::Value {
        let rest = r#""count":2,"epsilon":0.005,"max":2.0,"min":1.0,"sum":3.0"#;
        doc_with(entries, rest)
    }

    fn rejection(doc: &serde_json::Value) -> String {
        QuantileSketch::from_json(doc).expect_err("must be rejected")
    }

    #[test]
    fn from_json_accepts_the_well_formed_baseline() {
        let mut s = QuantileSketch::from_json(&doc("[[1.0,1,0],[2.0,1,0]]")).expect("well-formed");
        assert_eq!(s.query(1.0), 2.0);
    }

    #[test]
    fn from_json_rejects_delta_above_count() {
        // Used to be accepted; the next `query` then overflowed `rmin + delta`.
        let err = rejection(&doc("[[1.0,1,0],[2.0,1,18446744073709551615]]"));
        assert!(err.contains("entry 1 bad delta"), "{err}");
    }

    #[test]
    fn from_json_rejects_overflowing_tuple_counts() {
        // Used to panic inside `from_json` at `covered += g`.
        let err = rejection(&doc("[[1.0,18446744073709551615,0],[2.0,3,0]]"));
        assert!(err.contains("overflow at entry 1"), "{err}");
    }

    #[test]
    fn from_json_rejects_empty_tuples() {
        let err = rejection(&doc("[[1.0,2,0],[2.0,0,0]]"));
        assert!(err.contains("entry 1 bad g"), "{err}");
    }

    #[test]
    fn from_json_rejects_any_other_epsilon() {
        for bad in ["0.0", "-1.0", "0.01", "0.75", "1e300"] {
            let rest = format!(r#""count":2,"epsilon":{bad},"max":2.0,"min":1.0,"sum":3.0"#);
            let err = rejection(&doc_with("[[1.0,1,0],[2.0,1,0]]", &rest));
            assert!(err.contains("epsilon"), "{err}");
        }
    }

    #[test]
    fn from_json_rejects_min_above_max() {
        let rest = r#""count":2,"epsilon":0.005,"max":2.0,"min":5.0,"sum":3.0"#;
        let err = rejection(&doc_with("[[1.0,1,0],[2.0,1,0]]", rest));
        assert!(err.contains("min exceeds max"), "{err}");
    }

    #[test]
    fn query_survives_the_largest_accepted_counts() {
        let rest = r#""count":18446744073709551615,"epsilon":0.005,"max":1.0,"min":1.0,"sum":1.0"#;
        let huge = doc_with("[[1.0,18446744073709551615,18446744073709551615]]", rest);
        let mut s = QuantileSketch::from_json(&huge).expect("passes every check");
        assert_eq!(s.query(0.99), 1.0);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut s = QuantileSketch::default();
        for &v in &stream(5, 10_000) {
            s.insert(v);
        }
        let qs: Vec<f64> = [0.1, 0.5, 0.9, 0.95, 0.99]
            .iter()
            .map(|&q| s.query(q))
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles regressed: {qs:?}");
        }
    }
}
