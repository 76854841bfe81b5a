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
    fn flush(&mut self) {
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
            rmin += entry.g;
            if rmin + entry.delta > target + allowed {
                return prev_v;
            }
            prev_v = entry.v;
        }
        prev_v
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
    fn a_two_sample_sketch_answers_its_extremes() {
        let mut s = QuantileSketch::default();
        s.insert(2.0);
        s.insert(1.0);
        assert_eq!(s.query(1.0), 2.0);
        assert_eq!((s.min(), s.max(), s.sum()), (1.0, 2.0, 3.0));
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
