//! The labelled store: quantile series, counters and gauges under one
//! mutex, with a consistent [`StatsRegistry::snapshot`].
//!
//! One lock is enough for the traffic there is: the per-frame series are
//! written serially after a serve, and the concurrent writers (fault and
//! eviction) hold it for one map update. Latency series
//! are [`QuantileSketch`]es (p50/p95/p99 per {pipeline, stage, device,
//! kind}); counters and gauges cover rates (cache hits, retries,
//! fallbacks, SLO breaches). Instantiated twice: the process collector's
//! (see [`crate::counter_add`]) and the live plane's in `tvmnp-observe`.

use crate::sketch::QuantileSketch;
use parking_lot::Mutex;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// A series identity: metric name plus sorted labels. Ordered, so
/// snapshots iterate deterministically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name, e.g. `latency_us` or `wait_us`.
    pub name: String,
    /// Sorted label pairs, e.g. `[(pipeline, showcase), (stage, obj-det)]`.
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// Build a key; labels are sorted for identity.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut labels: Vec<_> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }

    /// The label's value, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `name{k=v,...}` rendering.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

#[derive(Default)]
struct Tables {
    series: BTreeMap<SeriesKey, QuantileSketch>,
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, f64>,
}

/// Live metrics store. Cheap to write from many threads; cheap enough
/// to snapshot every few frames.
#[derive(Default)]
pub struct StatsRegistry {
    tables: Mutex<Tables>,
}

impl StatsRegistry {
    /// An empty registry.
    pub const fn new() -> StatsRegistry {
        StatsRegistry {
            tables: Mutex::new(Tables {
                series: BTreeMap::new(),
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
            }),
        }
    }

    /// Record one latency/duration sample into a labeled series.
    pub fn observe_us(&self, name: &str, labels: &[(&str, &str)], us: f64) {
        let key = SeriesKey::new(name, labels);
        self.tables.lock().series.entry(key).or_default().insert(us);
    }

    /// Add to a labeled counter.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let key = SeriesKey::new(name, labels);
        *self.tables.lock().counters.entry(key).or_insert(0) += delta;
    }

    /// Set a labeled gauge to its latest value.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let key = SeriesKey::new(name, labels);
        self.tables.lock().gauges.insert(key, value);
    }

    /// Drop every series, counter and gauge.
    pub(crate) fn clear(&self) {
        *self.tables.lock() = Tables::default();
    }
}

/// One series in a snapshot: exact count/sum/min/max plus sketch
/// quantiles.
#[derive(Debug, Clone)]
pub struct SeriesStats {
    /// Identity of the series.
    pub key: SeriesKey,
    /// Samples observed.
    pub count: u64,
    /// Exact sum of samples (µs).
    pub sum_us: f64,
    /// Exact minimum (µs).
    pub min_us: f64,
    /// Exact maximum (µs).
    pub max_us: f64,
    /// Approximate median (µs).
    pub p50_us: f64,
    /// Approximate 95th percentile (µs).
    pub p95_us: f64,
    /// Approximate 99th percentile (µs).
    pub p99_us: f64,
}

/// A consistent, key-sorted view of every series, counter, and gauge.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Quantile series, sorted by key.
    pub series: Vec<SeriesStats>,
    /// Counters by key.
    pub counters: BTreeMap<SeriesKey, u64>,
    /// Gauges by key.
    pub gauges: BTreeMap<SeriesKey, f64>,
}

impl StatsRegistry {
    /// One deterministic, key-sorted view. Quantiles are asked of a copy
    /// of each sketch: a query folds the insert buffer, and when a live
    /// sketch folds must depend on its samples alone, not on who looked.
    pub fn snapshot(&self) -> StatsSnapshot {
        let tables = self.tables.lock();
        StatsSnapshot {
            series: tables
                .series
                .iter()
                .map(|(key, sketch)| {
                    let mut sketch = sketch.clone();
                    SeriesStats {
                        key: key.clone(),
                        count: sketch.count(),
                        sum_us: sketch.sum(),
                        min_us: sketch.min(),
                        max_us: sketch.max(),
                        p50_us: sketch.query(0.50),
                        p95_us: sketch.query(0.95),
                        p99_us: sketch.query(0.99),
                    }
                })
                .collect(),
            counters: tables.counters.clone(),
            gauges: tables.gauges.clone(),
        }
    }
}

impl StatsSnapshot {
    /// The series with this exact key, if present.
    pub fn series_named(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesStats> {
        let key = SeriesKey::new(name, labels);
        self.series.iter().find(|s| s.key == key)
    }

    /// JSON rendering for the periodic stats stream: one self-contained
    /// object, sorted keys throughout.
    pub fn to_json(&self) -> Value {
        let series: Vec<Value> = self
            .series
            .iter()
            .map(|s| {
                json!({
                    "count": s.count,
                    "key": s.key.render(),
                    "max_us": s.max_us,
                    "min_us": s.min_us,
                    "p50_us": s.p50_us,
                    "p95_us": s.p95_us,
                    "p99_us": s.p99_us,
                    "sum_us": s.sum_us,
                })
            })
            .collect();
        fn pairs<V: Copy + serde::Serialize>(values: &BTreeMap<SeriesKey, V>) -> Vec<Value> {
            let pair = |(k, v): (&SeriesKey, &V)| json!({ "key": k.render(), "value": *v });
            values.iter().map(pair).collect()
        }
        let (counters, gauges) = (pairs(&self.counters), pairs(&self.gauges));
        json!({ "counters": counters, "gauges": gauges, "series": series })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every series satisfies `min ≤ p50 ≤ p95 ≤ p99 ≤ max`.
    fn assert_quantiles_ordered(snap: &StatsSnapshot) {
        for s in &snap.series {
            let q = [s.min_us, s.p50_us, s.p95_us, s.p99_us, s.max_us];
            assert!(
                q.windows(2).all(|w| w[0] <= w[1] + 1e-9),
                "{}",
                s.key.render()
            );
        }
    }

    #[test]
    fn series_accumulate_and_snapshot_sorts() {
        let reg = StatsRegistry::default();
        for i in 0..100 {
            reg.observe_us(
                "latency_us",
                &[("stage", "obj-det"), ("device", "gpu")],
                100.0 + i as f64,
            );
            reg.observe_us(
                "latency_us",
                &[("stage", "emotion"), ("device", "apu")],
                50.0,
            );
        }
        reg.counter_add("cache.hits", &[], 3);
        reg.counter_add("cache.misses", &[], 1);
        reg.gauge_set("slo_us", &[], 2500.0);

        let snap = reg.snapshot();
        assert_eq!(snap.series.len(), 2);
        assert!(snap.series[0].key < snap.series[1].key, "sorted by key");
        let obj = snap
            .series_named("latency_us", &[("device", "gpu"), ("stage", "obj-det")])
            .expect("obj-det series");
        assert_eq!(obj.count, 100);
        assert_eq!(obj.min_us, 100.0);
        assert_eq!(obj.max_us, 199.0);
        assert_eq!(snap.counters[&SeriesKey::new("cache.hits", &[])], 3);
        assert_eq!(snap.counters[&SeriesKey::new("cache.misses", &[])], 1);
        assert_quantiles_ordered(&snap);
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let reg = StatsRegistry::default();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let reg = &reg;
                scope.spawn(move || {
                    let stage = if t % 2 == 0 { "obj-det" } else { "emotion" };
                    for i in 0..1000 {
                        reg.observe_us("latency_us", &[("stage", stage)], (t * 1000 + i) as f64);
                        reg.counter_add("frames", &[("stage", stage)], 1);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        let total: u64 = snap.series.iter().map(|s| s.count).sum();
        assert_eq!(total, 8000);
        assert_eq!(snap.counters.values().sum::<u64>(), 8000);
        assert_quantiles_ordered(&snap);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let build = || {
            let reg = StatsRegistry::default();
            for i in 0..500 {
                reg.observe_us("latency_us", &[("stage", "obj-det")], (i % 37) as f64);
            }
            reg.counter_add("frames", &[], 500);
            reg.snapshot().to_json().to_string()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"key\":\"latency_us{stage=obj-det}\""), "{a}");
    }

    #[test]
    fn key_rendering_sorts_labels() {
        let key = SeriesKey::new("x", &[("z", "1"), ("a", "2")]);
        assert_eq!(key.render(), "x{a=2,z=1}");
        assert_eq!(key.label("z"), Some("1"));
    }
}
