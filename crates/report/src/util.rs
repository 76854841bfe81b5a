//! Per-device utilization and occupancy on the simulated timeline.
//!
//! Two sources feed the same report shape: telemetry [`Snapshot`]s (sim
//! spans carry a `device` attribute, `cpu+apu` for joint reservations) and
//! hwsim [`Schedule`]s (each placement occupies every device it holds).

use std::collections::BTreeMap;
use tvmnp_hwsim::Schedule;
use tvmnp_telemetry::Snapshot;

/// Busy/idle accounting for one device over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceUtil {
    /// Device name (`cpu`, `gpu`, `apu`).
    pub device: String,
    /// Total occupied time, microseconds (overlapping intervals merged).
    pub busy_us: f64,
    /// `span - busy`, microseconds.
    pub idle_us: f64,
    /// Number of merged busy intervals.
    pub intervals: usize,
}

impl DeviceUtil {
    /// Busy fraction of the run span, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let span = self.busy_us + self.idle_us;
        if span <= 0.0 {
            0.0
        } else {
            self.busy_us / span
        }
    }
}

/// Utilization of every device that appears in a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UtilizationReport {
    /// Run span: latest busy-interval end, microseconds from t = 0.
    pub span_us: f64,
    /// Time during which two or more devices are busy simultaneously —
    /// the overlap that pipelining and CPU+APU co-runs buy.
    pub overlap_us: f64,
    /// Per-device accounting, sorted by device name.
    pub devices: Vec<DeviceUtil>,
}

impl UtilizationReport {
    /// The entry for `device`, if it appeared in the run.
    pub fn device(&self, device: &str) -> Option<&DeviceUtil> {
        self.devices.iter().find(|d| d.device == device)
    }
}

const EPS: f64 = 1e-9;

/// Merge sorted-by-start intervals; touching intervals coalesce.
fn merge(mut intervals: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for (s, e) in intervals {
        if e <= s + EPS {
            continue; // zero-width
        }
        match merged.last_mut() {
            Some(last) if s <= last.1 + EPS => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Core: build the report from per-device raw busy intervals.
fn utilization_from_intervals(per_device: BTreeMap<String, Vec<(f64, f64)>>) -> UtilizationReport {
    let merged: BTreeMap<String, Vec<(f64, f64)>> = per_device
        .into_iter()
        .map(|(d, iv)| (d, merge(iv)))
        .collect();
    let span_us = merged
        .values()
        .flatten()
        .map(|&(_, e)| e)
        .fold(0.0, f64::max);
    let devices = merged
        .iter()
        .map(|(name, iv)| {
            let busy_us: f64 = iv.iter().map(|(s, e)| e - s).sum();
            DeviceUtil {
                device: name.clone(),
                busy_us,
                idle_us: (span_us - busy_us).max(0.0),
                intervals: iv.len(),
            }
        })
        .collect();
    // Sweep all merged intervals: overlap is the time >= 2 devices busy.
    let mut events: Vec<(f64, i32)> = Vec::new();
    for iv in merged.values() {
        for &(s, e) in iv {
            events.push((s, 1));
            events.push((e, -1));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut overlap_us = 0.0;
    let mut active = 0;
    let mut prev = 0.0;
    for (t, d) in events {
        if active >= 2 {
            overlap_us += t - prev;
        }
        active += d;
        prev = t;
    }
    UtilizationReport {
        span_us,
        overlap_us,
        devices,
    }
}

/// Utilization from a telemetry snapshot: every sim-domain span carrying a
/// `device` field contributes a busy interval; `cpu+apu`-style joint
/// values occupy each named device.
pub fn utilization_from_snapshot(snap: &Snapshot) -> UtilizationReport {
    let mut per_device: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for (e, interval) in snap.sim_spans() {
        let Some(devices) = e.str("device") else {
            continue;
        };
        for d in devices.split('+').filter(|d| !d.is_empty()) {
            per_device
                .entry(d.to_string())
                .or_default()
                .push((interval.ts_us, interval.ts_us + interval.dur_us));
        }
    }
    utilization_from_intervals(per_device)
}

/// Utilization straight from an hwsim schedule's placements.
pub fn utilization_from_schedule(schedule: &Schedule) -> UtilizationReport {
    let mut per_device: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for p in &schedule.placements {
        for d in p.devices {
            per_device
                .entry(d.name().to_string())
                .or_default()
                .push((p.start_us, p.end_us));
        }
    }
    utilization_from_intervals(per_device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_hwsim::{DeviceKind, Task};

    /// The paper's Fig. 5 prototype: object detection on the CPU,
    /// anti-spoofing on CPU+APU, emotion on the APU.
    fn prototype_stages() -> Vec<Task> {
        vec![
            Task::new("obj-det", &[DeviceKind::Cpu], 3000.0),
            Task::new("anti-spoof", &[DeviceKind::Cpu, DeviceKind::Apu], 6000.0),
            Task::new("emotion", &[DeviceKind::Apu], 2000.0),
        ]
    }

    fn intervals(v: &[(&str, &[(f64, f64)])]) -> BTreeMap<String, Vec<(f64, f64)>> {
        v.iter()
            .map(|(d, iv)| (d.to_string(), iv.to_vec()))
            .collect()
    }

    #[test]
    fn busy_plus_idle_equals_span_per_device() {
        let r = utilization_from_intervals(intervals(&[
            ("cpu", &[(0.0, 50.0), (80.0, 100.0)]),
            ("apu", &[(0.0, 200.0)]),
        ]));
        assert!((r.span_us - 200.0).abs() < 1e-9);
        for d in &r.devices {
            assert!(
                (d.busy_us + d.idle_us - r.span_us).abs() < 1e-9,
                "{}",
                d.device
            );
        }
        let cpu = r.device("cpu").unwrap();
        assert!((cpu.busy_us - 70.0).abs() < 1e-9);
        assert_eq!(cpu.intervals, 2);
        assert!((r.device("apu").unwrap().utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_intervals_merge_before_summing() {
        // Per-op spans can nest/touch (e.g. a dispatch span inside a
        // segment span); busy time must not double-count.
        let r = utilization_from_intervals(intervals(&[(
            "cpu",
            &[(0.0, 10.0), (5.0, 20.0), (20.0, 30.0)],
        )]));
        let cpu = r.device("cpu").unwrap();
        assert!((cpu.busy_us - 30.0).abs() < 1e-9);
        assert_eq!(cpu.intervals, 1, "touching intervals coalesce");
    }

    #[test]
    fn overlap_counts_multi_device_time_once() {
        let r = utilization_from_intervals(intervals(&[
            ("cpu", &[(0.0, 100.0)]),
            ("apu", &[(50.0, 150.0)]),
            ("gpu", &[(60.0, 90.0)]),
        ]));
        // [50,100] has >= 2 devices active (gpu's [60,90] lies inside it).
        assert!((r.overlap_us - 50.0).abs() < 1e-9);
    }

    /// A NaN bound (a cost model scaled by NaN produced one) sorts last
    /// under `total_cmp`; it used to abort in `partial_cmp(..).unwrap()`.
    #[test]
    fn a_nan_interval_is_an_ordering_not_an_abort() {
        let r = utilization_from_intervals(intervals(&[
            ("cpu", &[(0.0, 10.0), (f64::NAN, f64::NAN)]),
            ("apu", &[(5.0, f64::NAN), (0.0, 4.0)]),
        ]));
        assert_eq!(r.devices.len(), 2);
    }

    #[test]
    fn snapshot_joint_device_spans_split() {
        let _l = crate::testutil::lock();
        tvmnp_telemetry::enable();
        tvmnp_telemetry::reset();
        tvmnp_telemetry::record_sim_span(
            "scheduler.stage",
            0.0,
            40.0,
            vec![("device", "cpu+apu".into())],
        );
        tvmnp_telemetry::record_sim_span(
            "scheduler.stage",
            40.0,
            10.0,
            vec![("device", "apu".into())],
        );
        tvmnp_telemetry::disable();
        let r = utilization_from_snapshot(&tvmnp_telemetry::snapshot());
        assert!((r.span_us - 50.0).abs() < 1e-9);
        assert!((r.device("cpu").unwrap().busy_us - 40.0).abs() < 1e-9);
        assert!((r.device("apu").unwrap().busy_us - 50.0).abs() < 1e-9);
        assert!((r.overlap_us - 40.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_report_partitions_the_makespan() {
        use tvmnp_hwsim::schedule;
        let jobs = [
            vec![Task::new("a", &[DeviceKind::Cpu], 50.0)],
            vec![Task::new("b", &[DeviceKind::Apu], 200.0)],
            vec![
                Task::new("w", &[DeviceKind::Gpu], 80.0),
                Task::new("c", &[DeviceKind::Cpu], 20.0),
            ],
        ];
        let s = schedule(&jobs, 3);
        let r = utilization_from_schedule(&s);
        assert!((r.span_us - s.makespan_us).abs() < 1e-9);
        // CPU runs (0, 50) and (80, 100): two busy intervals, idle between
        // and after them.
        let cpu = r.device("cpu").unwrap();
        assert!((cpu.busy_us - 70.0).abs() < 1e-9);
        assert!((cpu.idle_us - 130.0).abs() < 1e-9);
        assert_eq!(cpu.intervals, 2);
        // The APU is saturated: one interval, zero idle.
        let apu = r.device("apu").unwrap();
        assert_eq!(apu.intervals, 1);
        assert!(apu.idle_us < 1e-9);
        let gpu = r.device("gpu").unwrap();
        assert!((gpu.busy_us - 80.0).abs() < 1e-9 && (gpu.idle_us - 120.0).abs() < 1e-9);
    }

    #[test]
    fn pipelining_overlaps_devices_and_shrinks_idle_time() {
        // The simulators record `scheduler.stage` spans whenever another
        // test has telemetry enabled.
        let _l = crate::testutil::lock();
        let stages = prototype_stages();
        let seq = utilization_from_schedule(&tvmnp_scheduler::simulate_sequential(&stages, 8));
        let pipe = utilization_from_schedule(&tvmnp_scheduler::simulate_pipelined(&stages, 8));
        let idle = |r: &UtilizationReport| -> f64 { r.devices.iter().map(|d| d.idle_us).sum() };
        assert!(pipe.overlap_us > 0.0, "stages overlap");
        assert!(idle(&pipe) < idle(&seq), "pipelining fills idle time");
    }

    #[test]
    fn schedule_utilization_covers_only_used_devices() {
        let _l = crate::testutil::lock();
        let stages = prototype_stages();
        let s = tvmnp_scheduler::simulate_pipelined(&stages, 4);
        let r = utilization_from_schedule(&s);
        // gpu is unused and has no entry.
        let devices: Vec<&str> = r.devices.iter().map(|d| d.device.as_str()).collect();
        assert_eq!(devices, ["apu", "cpu"]);
        for d in &r.devices {
            // A device never runs two placements at once, so its busy time
            // is the summed duration of the placements holding it.
            let held: f64 = s
                .placements
                .iter()
                .filter(|p| p.devices.iter().any(|k| k.name() == d.device))
                .map(|p| p.us)
                .sum();
            assert!((d.busy_us - held).abs() < 1e-6, "{}", d.device);
            assert!((d.busy_us + d.idle_us - r.span_us).abs() < 1e-6);
        }
    }

    #[test]
    fn pipelining_shrinks_the_span_not_the_work() {
        let _l = crate::testutil::lock();
        let stages = prototype_stages();
        let seq = utilization_from_schedule(&tvmnp_scheduler::simulate_sequential(&stages, 8));
        let pipe = utilization_from_schedule(&tvmnp_scheduler::simulate_pipelined(&stages, 8));
        assert!(pipe.span_us < seq.span_us);
        let busy = |r: &UtilizationReport| -> f64 { r.devices.iter().map(|d| d.busy_us).sum() };
        assert!((busy(&pipe) - busy(&seq)).abs() < 1e-6);
        for d in &pipe.devices {
            let before = seq.device(&d.device).unwrap().utilization();
            assert!(d.utilization() > before, "{} busier", d.device);
        }
    }
}
