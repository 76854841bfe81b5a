//! The simulated-time engine (`hwsim::schedule`) against the three schedule
//! simulators it replaced, bit for bit, plus the properties every schedule
//! it produces must have.
//!
//! `mod reference` holds the pre-engine bodies of `simulate_sequential`,
//! `simulate_pipelined` (over the old `Timeline::reserve_joint`) and
//! `simulate_serve_timeline`, copied verbatim; only the telemetry calls are
//! dropped. Every start, end, wait and makespan is compared with `to_bits`.

use tvm_neuropilot::hwsim::DeviceKind::{Apu, Cpu, Gpu};
use tvm_neuropilot::hwsim::{Bound, DeviceKind};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::serving::simulate_serve_timeline;

mod reference {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    use tvm_neuropilot::hwsim::DeviceKind;

    #[derive(Debug, Clone, Default)]
    pub struct Timeline {
        busy_until: HashMap<DeviceKind, f64>,
        segment_ends: Vec<f64>,
    }

    impl Timeline {
        pub fn free_at(&self, device: DeviceKind) -> f64 {
            self.busy_until.get(&device).copied().unwrap_or(0.0)
        }

        pub fn reserve_joint(
            &mut self,
            devices: &[DeviceKind],
            earliest_us: f64,
            duration_us: f64,
        ) -> (f64, f64) {
            let start = devices
                .iter()
                .map(|&d| self.free_at(d))
                .fold(earliest_us, f64::max);
            let end = start + duration_us;
            for &d in devices {
                self.busy_until.insert(d, end);
                self.segment_ends.push(end);
            }
            (start, end)
        }

        pub fn makespan_us(&self) -> f64 {
            self.segment_ends.iter().copied().fold(0.0, f64::max)
        }
    }

    pub struct PipelineStage {
        pub resources: Vec<DeviceKind>,
        pub duration_us: f64,
    }

    pub struct StageRun {
        pub stage_index: usize,
        pub frame: usize,
        pub start_us: f64,
        pub end_us: f64,
    }

    pub struct ScheduleResult {
        pub makespan_us: f64,
        pub stage_runs: Vec<StageRun>,
    }

    pub fn simulate_sequential(stages: &[PipelineStage], frames: usize) -> ScheduleResult {
        let mut tl = Timeline::default();
        let mut runs = Vec::with_capacity(stages.len() * frames);
        let mut t = 0.0f64;
        for f in 0..frames {
            for (si, s) in stages.iter().enumerate() {
                let (start, end) = tl.reserve_joint(&s.resources, t, s.duration_us);
                runs.push(StageRun {
                    stage_index: si,
                    frame: f,
                    start_us: start,
                    end_us: end,
                });
                t = end;
            }
        }
        ScheduleResult {
            makespan_us: tl.makespan_us(),
            stage_runs: runs,
        }
    }

    pub fn simulate_pipelined(stages: &[PipelineStage], frames: usize) -> ScheduleResult {
        let mut tl = Timeline::default();
        let mut runs = Vec::with_capacity(stages.len() * frames);
        // finish[s] = completion time of stage s for the previous frame.
        let mut prev_frame_finish = vec![0.0f64; stages.len()];
        for f in 0..frames {
            let mut dep_ready = 0.0f64;
            for (si, s) in stages.iter().enumerate() {
                // Ready when the predecessor stage of this frame is done AND
                // this stage finished the previous frame (stages are
                // single-instance — one compiled network each).
                let earliest = dep_ready.max(prev_frame_finish[si]);
                let (start, end) = tl.reserve_joint(&s.resources, earliest, s.duration_us);
                runs.push(StageRun {
                    stage_index: si,
                    frame: f,
                    start_us: start,
                    end_us: end,
                });
                prev_frame_finish[si] = end;
                dep_ready = end;
            }
        }
        ScheduleResult {
            makespan_us: tl.makespan_us(),
            stage_runs: runs,
        }
    }

    pub struct SimSegment {
        pub devices: Vec<DeviceKind>,
        pub us: f64,
    }

    pub struct ServeSim {
        pub frames: usize,
        pub concurrency: usize,
        pub sequential_us: f64,
        pub concurrent_us: f64,
    }

    pub struct SegmentTiming {
        pub start_us: f64,
        pub wait_us: f64,
        pub us: f64,
    }

    pub struct FrameTimeline {
        pub admit_us: f64,
        pub end_us: f64,
        pub segments: Vec<SegmentTiming>,
    }

    pub fn simulate_serve_timeline(
        per_frame: &[Vec<SimSegment>],
        concurrency: usize,
    ) -> (ServeSim, Vec<FrameTimeline>) {
        let concurrency = concurrency.max(1);
        let device_index = |d: DeviceKind| DeviceKind::ALL.iter().position(|&x| x == d).unwrap();
        let mut device_free = [0.0f64; DeviceKind::ALL.len()];
        // Completion times of in-flight frames, earliest first. Simulated
        // times are non-negative finite f64s, so their IEEE-754 bit patterns
        // order exactly like the values — BinaryHeap over bits avoids a
        // float-ordering wrapper.
        let mut in_flight: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut admit_at = 0.0f64;
        let mut sequential_us = 0.0f64;
        let mut makespan = 0.0f64;
        let mut timelines = Vec::with_capacity(per_frame.len());
        for segments in per_frame {
            if in_flight.len() >= concurrency {
                let Reverse(bits) = in_flight.pop().unwrap();
                admit_at = admit_at.max(f64::from_bits(bits));
            }
            let mut t = admit_at;
            let mut timed_segments = Vec::with_capacity(segments.len());
            for seg in segments {
                let start = seg
                    .devices
                    .iter()
                    .fold(t, |acc, &d| acc.max(device_free[device_index(d)]));
                let end = start + seg.us;
                for &d in &seg.devices {
                    device_free[device_index(d)] = end;
                }
                sequential_us += seg.us;
                timed_segments.push(SegmentTiming {
                    start_us: start,
                    wait_us: start - t,
                    us: seg.us,
                });
                t = end;
            }
            in_flight.push(Reverse(t.to_bits()));
            makespan = makespan.max(t);
            timelines.push(FrameTimeline {
                admit_us: admit_at,
                end_us: t,
                segments: timed_segments,
            });
        }
        (
            ServeSim {
                frames: per_frame.len(),
                concurrency,
                sequential_us,
                concurrent_us: makespan.max(f64::MIN_POSITIVE),
            },
            timelines,
        )
    }
}

/// The empty set (serving path only) and the seven device subsets.
const DEVICE_SETS: [&[DeviceKind]; 8] = [
    &[],
    &[Cpu],
    &[Apu],
    &[Cpu, Apu],
    &[Gpu],
    &[Cpu, Gpu],
    &[Apu, Gpu],
    &[Cpu, Apu, Gpu],
];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// A duration in `[1, 10 000)` µs; one in sixteen is exactly zero.
    fn duration(&mut self, allow_zero: bool) -> f64 {
        let us = 1.0 + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 9_999.0;
        if allow_zero && self.next().is_multiple_of(16) {
            0.0
        } else {
            us
        }
    }
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// Engine vs the two pipeline references on one uniform stage list.
fn check_uniform(stages: &[Task], frames: usize) {
    let old: Vec<reference::PipelineStage> = stages
        .iter()
        .map(|s| reference::PipelineStage {
            resources: s.devices.to_vec(),
            duration_us: s.us,
        })
        .collect();
    for (want, got, window) in [
        (
            reference::simulate_sequential(&old, frames),
            simulate_sequential(stages, frames),
            1,
        ),
        (
            reference::simulate_pipelined(&old, frames),
            simulate_pipelined(stages, frames),
            frames,
        ),
    ] {
        assert_eq!(bits(want.makespan_us), bits(got.makespan_us));
        assert_eq!(want.stage_runs.len(), got.placements.len());
        for (run, p) in want.stage_runs.iter().zip(&got.placements) {
            assert_eq!((run.frame, run.stage_index), (p.job, p.task));
            assert_eq!(bits(run.start_us), bits(p.start_us));
            assert_eq!(bits(run.end_us), bits(p.end_us));
        }
        check_properties(&got, window);
    }
}

/// Engine vs the serving reference on one heterogeneous job list.
fn check_serving(jobs: &[Vec<Task>], window: usize) {
    let old: Vec<Vec<reference::SimSegment>> = jobs
        .iter()
        .map(|tasks| {
            tasks
                .iter()
                .map(|t| reference::SimSegment {
                    devices: t.devices.to_vec(),
                    us: t.us,
                })
                .collect()
        })
        .collect();
    let (want_sim, want) = reference::simulate_serve_timeline(&old, window);
    let (got_sim, got) = simulate_serve_timeline(jobs, window);
    assert_eq!(want_sim.frames, got_sim.frames);
    assert_eq!(want_sim.concurrency, got_sim.concurrency);
    assert_eq!(bits(want_sim.sequential_us), bits(got_sim.sequential_us));
    assert_eq!(bits(want_sim.concurrent_us), bits(got_sim.concurrent_us));
    assert_eq!(want.len(), got.jobs().len());
    for (w, g) in want.iter().zip(got.jobs()) {
        assert_eq!(bits(w.admit_us), bits(g.admit_us));
        assert_eq!(bits(w.end_us), bits(g.end_us));
        assert_eq!(w.segments.len(), g.segments.len());
        for (ws, gs) in w.segments.iter().zip(g.segments) {
            assert_eq!(bits(ws.start_us), bits(gs.start_us));
            assert_eq!(bits(ws.wait_us), bits(gs.wait_us()));
            assert_eq!(bits(ws.us), bits(gs.us));
        }
    }
    check_properties(&got, window.max(1));
}

/// What must hold for any schedule the engine returns.
fn check_properties(s: &Schedule, window: usize) {
    // No two placements overlap on a device.
    for d in DeviceKind::ALL {
        let mut held: Vec<_> = s
            .placements
            .iter()
            .filter(|p| p.devices.contains(&d))
            .collect();
        held.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        for w in held.windows(2) {
            assert!(w[0].end_us <= w[1].start_us, "{d}: {:?} / {:?}", w[0], w[1]);
        }
    }
    assert!(s.check_exclusive().is_none());
    let jobs: Vec<_> = s.jobs().collect();
    for (j, job) in jobs.iter().enumerate() {
        // Tasks of a job run in order, after admission.
        let mut t = job.admit_us;
        for (k, p) in job.segments.iter().enumerate() {
            assert_eq!((p.job, p.task), (j, k));
            assert_eq!(bits(p.ready_us), bits(t));
            assert!(p.start_us >= t);
            t = p.end_us;
        }
        assert_eq!(bits(job.end_us), bits(t));
        // Never more than `window` jobs admitted and unfinished.
        let in_flight = jobs[..j]
            .iter()
            .filter(|earlier| earlier.end_us > job.admit_us)
            .count();
        assert!(in_flight < window, "job {j}: {in_flight} in flight");
        // Latency decomposes into the two waits plus compute.
        let parts = job.admit_us + job.device_wait_us() + job.compute_us();
        assert!((job.end_us - parts).abs() <= 1e-9 * job.end_us.max(1.0));
    }
    // Every recorded bound ends exactly where its placement starts.
    for (i, p) in s.placements.iter().enumerate() {
        match p.bound {
            Bound::Origin => assert_eq!((p.task, bits(p.start_us)), (0, bits(0.0))),
            Bound::PrevTask => {
                let prev = &s.placements[i - 1];
                assert_eq!((prev.job, prev.task + 1), (p.job, p.task));
                assert_eq!(bits(prev.end_us), bits(p.start_us));
            }
            Bound::Admission(behind) => {
                assert!(behind < p.job && p.task == 0);
                assert_eq!(bits(jobs[behind].end_us), bits(p.start_us));
            }
            Bound::Device(holder) => {
                let q = &s.placements[holder];
                assert!(holder < i && q.devices.iter().any(|d| p.devices.contains(d)));
                assert_eq!(bits(q.end_us), bits(p.start_us));
            }
        }
    }
    // The critical path runs gap-free from t = 0 to the makespan.
    let path = s.critical_path();
    assert_eq!(path.is_empty(), s.placements.is_empty());
    let mut t = 0.0f64;
    for &i in &path {
        assert_eq!(bits(s.placements[i].start_us), bits(t), "gap before {i}");
        t = s.placements[i].end_us;
    }
    assert_eq!(bits(t), bits(s.makespan_us));
}

#[test]
fn uniform_stage_lists_match_the_pipeline_references() {
    let mut rng = SplitMix64(0x5EED_F165);
    for _ in 0..20_000 {
        let stages: Vec<Task> = (0..rng.range(1, 5))
            .map(|_| Task::new("s", DEVICE_SETS[rng.range(1, 7)], rng.duration(false)))
            .collect();
        check_uniform(&stages, rng.range(1, 12));
    }
}

#[test]
fn heterogeneous_job_lists_match_the_serving_reference() {
    let mut rng = SplitMix64(0x5EED_5E17);
    for _ in 0..5_000 {
        let jobs: Vec<Vec<Task>> = (0..rng.range(0, 12))
            .map(|_| {
                (0..rng.range(0, 4))
                    .map(|_| Task::new("s", DEVICE_SETS[rng.range(0, 7)], rng.duration(true)))
                    .collect()
            })
            .collect();
        check_serving(&jobs, rng.range(0, jobs.len() + 1));
    }
}

#[test]
fn fig5_stage_profiles_match_the_references() {
    let cost = CostModel::default();
    for assignment in [
        ShowcaseAssignment::paper_prototype(),
        ShowcaseAssignment::greedy(),
    ] {
        let stages = Showcase::new(900, assignment, &cost).stage_profile(901);
        for frames in [1, 3, 8, 64] {
            check_uniform(&stages, frames);
            for window in [1, 2, 4, frames] {
                check_serving(&vec![stages.clone(); frames], window);
            }
        }
    }
}
