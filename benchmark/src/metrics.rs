//! Metric names and units, in print order. `BENCHMARK.json` lists the same
//! names; a unit test keeps the two in step.

/// The six end-to-end metrics, measured by the untraced run (`--trace 0`)
/// on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("alloc_kb_per_op", "kB"),
    ("allocs_per_op", "count"),
    ("sim_us_per_op", "sim_us"),
];

/// The per-layer metrics, measured by the traced run (`--trace 1`) on
/// every workload. Layers are the crate names. Every `ms`/`us`/`ns` value
/// is a floor over the traced run; every `count`/`kB` value is exact.
pub const PER_LAYER: [(&str, &str); 91] = [
    ("frontends.pytorch_ms", "ms"),
    ("frontends.keras_ms", "ms"),
    ("frontends.tflite_ms", "ms"),
    ("frontends.darknet_ms", "ms"),
    ("frontends.onnx_ms", "ms"),
    ("frontends.mxnet_ms", "ms"),
    ("relay.simplify_ms", "ms"),
    ("relay.fold_constants_ms", "ms"),
    ("relay.partition_ms", "ms"),
    ("relay.fingerprint_ms", "ms"),
    ("relay.interp_ms", "ms"),
    ("relay.calls_after_fold", "count"),
    ("relay.subgraphs", "count"),
    ("neuropilot.convert_ms", "ms"),
    ("neuropilot.plan_ms", "ms"),
    ("neuropilot.compile_ms", "ms"),
    ("neuropilot.execute_ms", "ms"),
    ("neuropilot.fallback_ops", "count"),
    ("runtime.graph_build_ms", "ms"),
    ("runtime.plan_memory_ms", "ms"),
    ("runtime.executor_new_ms", "ms"),
    ("runtime.run_ms", "ms"),
    ("runtime.tiny_run_us", "us"),
    ("runtime.artifact_export_ms", "ms"),
    ("runtime.artifact_load_ms", "ms"),
    ("runtime.device_load_ms", "ms"),
    ("runtime.artifact_kb", "kB"),
    ("runtime.param_kb", "kB"),
    ("tensor.conv2d_f32_ms", "ms"),
    ("tensor.conv2d_dw_f32_ms", "ms"),
    ("tensor.qconv2d_ms", "ms"),
    ("tensor.dense_f32_ms", "ms"),
    ("tensor.qdense_ms", "ms"),
    ("tensor.pool_ms", "ms"),
    ("tensor.elementwise_ms", "ms"),
    ("tensor.concat_ms", "ms"),
    ("tensor.clone_mb_us", "us"),
    ("tensor.conv2d_f32_par_ms", "ms"),
    ("tensor.qconv2d_par_ms", "ms"),
    ("tensor.macs_per_op", "count"),
    ("byoc.build_tvm_ms", "ms"),
    ("byoc.build_byoc_ms", "ms"),
    ("byoc.build_np_ms", "ms"),
    ("byoc.codegen_ms", "ms"),
    ("byoc.build_unattributed_ms", "ms"),
    ("byoc.run_byoc_ms", "ms"),
    ("byoc.cache_cold_ms", "ms"),
    ("byoc.cache_warm_ms", "ms"),
    ("byoc.cache_disk_ms", "ms"),
    ("byoc.cache_thrash_ms", "ms"),
    ("byoc.cache_hits", "count"),
    ("byoc.cache_misses", "count"),
    ("byoc.cache_evictions", "count"),
    ("byoc.cache_resident_kb", "kB"),
    ("hwsim.estimate_us", "us"),
    ("models.zoo_build_ms", "ms"),
    ("models.showcase_build_ms", "ms"),
    ("vision.video_frame_ms", "ms"),
    ("vision.match_faces_ms", "ms"),
    ("vision.saliency_ms", "ms"),
    ("vision.crop_resize_ms", "ms"),
    ("vision.process_frame_ms", "ms"),
    ("vision.faces_per_frame", "count"),
    ("scheduler.locks_ns", "ns"),
    ("scheduler.simulate_pipelined_ms", "ms"),
    ("serving.pool_new_cold_ms", "ms"),
    ("serving.pool_new_warm_ms", "ms"),
    ("serving.serve_c1_ms", "ms"),
    ("serving.serve_c2_ms", "ms"),
    ("serving.pool_overhead_frac", "frac"),
    ("serving.simulate_serve_ms", "ms"),
    ("telemetry.enabled_frame_ms", "ms"),
    ("telemetry.overhead_frac", "frac"),
    ("observe.observed_frame_ms", "ms"),
    ("observe.overhead_frac", "frac"),
    ("harness.ops_per_s_plain", "1/s"),
    ("harness.ops_per_s_traced", "1/s"),
    ("harness.trace_overhead_frac", "frac"),
    ("harness.replay_unattributed_ms", "ms"),
    ("harness.replay_unattributed_frac", "frac"),
    ("harness.round_ms_p50", "ms"),
    ("harness.round_ms_p90", "ms"),
    ("harness.rounds", "count"),
    ("harness.spans", "count"),
    ("harness.setup_first_s", "s"),
    ("harness.setup_median_s", "s"),
    ("harness.probe_cpu_ms", "ms"),
    ("harness.probe_mem_ms", "ms"),
    ("harness.pinned", "count"),
    ("harness.ops_per_s_wall", "1/s"),
    ("harness.steady_speed_frac", "frac"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Pair `values` with the names and units of `list`, in `list`'s order.
    /// Panics when a listed metric has no value or a value is not listed:
    /// both are bugs in this program.
    pub fn new(
        list: &[(&'static str, &'static str)],
        values: &[(&'static str, f64)],
        attempted: u64,
        failed: u64,
        correct: bool,
    ) -> Report {
        for (name, _) in values {
            assert!(
                list.iter().any(|(n, _)| n == name),
                "metric '{name}' is not listed"
            );
        }
        let metrics = list
            .iter()
            .map(|&(name, unit)| {
                let mut found = values.iter().filter(|(n, _)| *n == name);
                let value = found
                    .next()
                    .unwrap_or_else(|| panic!("metric '{name}' has no value"))
                    .1;
                assert!(found.next().is_none(), "metric '{name}' has two values");
                Metric { name, unit, value }
            })
            .collect();
        Report {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    /// The one-line JSON object the run ends with. Values print with all
    /// their digits (`{}` of an `f64` is the shortest exact round-trip);
    /// a non-finite value prints as `null` and makes the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            s.push_str(&format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        s.push_str("}}");
        s
    }

    /// The human-readable table printed before the JSON line.
    pub fn to_table(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("  {:<36} {:>16.6} {}\n", m.name, m.value, m.unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn names_in(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no list '{key}'"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = serde_json::parse_value(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(names_in(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_in(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn output_parses_and_holds_every_listed_metric_exactly_once() {
        for list in [&END_TO_END[..], &PER_LAYER[..]] {
            let values: Vec<(&'static str, f64)> = list
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (*n, 0.1 + i as f64 / 3.0))
                .collect();
            let json = Report::new(list, &values, 1000, 0, true).to_json();
            assert!(!json.contains('\n'));
            let doc = serde_json::parse_value(&json).unwrap();
            let mut keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
            keys.sort();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(1000));
            let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
            assert_eq!(metrics.len(), list.len());
            for (i, (name, unit)) in list.iter().enumerate() {
                // One occurrence in the text, so no duplicate key was
                // swallowed by the parser's map.
                assert_eq!(json.matches(&format!("\"{name}\":")).count(), 1, "{name}");
                let m = &metrics[*name];
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                assert_eq!(
                    m.get("value").and_then(Value::as_f64),
                    Some(0.1 + i as f64 / 3.0)
                );
            }
        }
    }

    #[test]
    fn a_non_finite_value_makes_the_run_incorrect() {
        let mut values: Vec<(&'static str, f64)> =
            END_TO_END.iter().map(|(n, _)| (*n, 1.0)).collect();
        values[1].1 = f64::INFINITY;
        let json = Report::new(&END_TO_END, &values, 1, 0, true).to_json();
        let doc = serde_json::parse_value(&json).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(false));
        assert!(doc
            .get("metrics")
            .unwrap()
            .get("ops_per_s")
            .unwrap()
            .get("value")
            .unwrap()
            .is_null());
    }

    #[test]
    #[should_panic(expected = "has no value")]
    fn a_listed_metric_without_a_value_is_a_bug() {
        Report::new(&END_TO_END, &[("setup_s", 1.0)], 1, 0, true);
    }
}
