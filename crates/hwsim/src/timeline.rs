//! Simulated time: the one schedule engine and the queries read off it.
//!
//! The paper's §5.2 / Fig. 5 has a single mechanism: the models of a frame
//! run in order and "could not utilize the same resources at the same
//! time". [`schedule`] is that mechanism; the sequential baseline, the
//! pipelined schedule and the serving pool differ only in how many jobs
//! the admission window lets in at once (1, all of them, `concurrency`).
//! Everything else — makespan, Gantt, exclusivity, per-job wait/compute
//! split, critical path — is a query over the returned [`Schedule`].

use crate::device::DeviceKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// One unit of work of a job (one model of a frame): `devices` are held
/// exclusively for `us` microseconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Stage/model name; its first character is the Gantt glyph.
    pub label: &'static str,
    /// Devices occupied while the task runs (Fig. 5: yellow = CPU+APU,
    /// green = APU only, blue = CPU only).
    pub devices: &'static [DeviceKind],
    /// Duration under that assignment, microseconds.
    pub us: f64,
}

impl Task {
    /// Convenience constructor.
    pub fn new(label: &'static str, devices: &'static [DeviceKind], us: f64) -> Self {
        Task { label, devices, us }
    }
}

/// Which constraint a placement's start time is equal to — recorded when
/// the task is placed, so the critical path is a walk over these links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Nothing: the job was admitted at t = 0 and the devices were free.
    Origin,
    /// The previous task of the same job (data dependency).
    PrevTask,
    /// The admission window: the job was let in when this job finished.
    Admission(usize),
    /// A device last held by the placement at this index.
    Device(usize),
}

/// One task placed on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Index of the job (frame).
    pub job: usize,
    /// Index of the task within its job (stage).
    pub task: usize,
    /// The task's label.
    pub label: &'static str,
    /// Devices held for the whole interval.
    pub devices: &'static [DeviceKind],
    /// Compute duration, microseconds.
    pub us: f64,
    /// When the task could have started had its devices been free: the
    /// end of the job's previous task, or the job's admission time.
    pub ready_us: f64,
    /// Start time, microseconds.
    pub start_us: f64,
    /// End time, microseconds.
    pub end_us: f64,
    /// The constraint `start_us` is equal to.
    pub bound: Bound,
}

impl Placement {
    /// Time spent waiting for busy devices after becoming ready.
    pub fn wait_us(&self) -> f64 {
        self.start_us - self.ready_us
    }
}

/// Admission record of one job; all jobs arrive at t = 0.
#[derive(Debug, Clone, PartialEq)]
struct JobSpan {
    admit_us: f64,
    end_us: f64,
    placements: Range<usize>,
    /// The placement that ends at `end_us`: the job's last one, or for a
    /// job without tasks whatever its admission waited on.
    finish: Option<usize>,
}

/// One job's slice of a [`Schedule`]: where its time went. Every job
/// arrives at t = 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTimeline<'a> {
    /// When the admission window let the job in: its admission wait.
    pub admit_us: f64,
    /// When the job finished its last task: its end-to-end latency.
    pub end_us: f64,
    /// The job's placements, in task order.
    pub segments: &'a [Placement],
}

impl JobTimeline<'_> {
    /// Time blocked on busy devices after admission.
    pub fn device_wait_us(&self) -> f64 {
        self.segments.iter().map(Placement::wait_us).sum()
    }

    /// Total compute time across tasks.
    pub fn compute_us(&self) -> f64 {
        self.segments.iter().map(|s| s.us).sum()
    }
}

/// Every task of every job placed on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The admission window in force (at least 1).
    pub window: usize,
    /// Completion time of the last task, microseconds.
    pub makespan_us: f64,
    /// All placements: jobs in admission order, tasks in job order.
    pub placements: Vec<Placement>,
    jobs: Vec<JobSpan>,
}

/// Place `jobs` on the simulated clock with at most `window` of them
/// admitted and unfinished at any instant.
///
/// Jobs are admitted in order; when the window is full the next job waits
/// for the earliest in-flight completion. Within a job, tasks run in
/// order; each waits for every device in its set (acquired together,
/// mirroring `ResourceLocks::with_resources`) and then holds them for its
/// duration, so devices serve tasks in admission order — per-device FIFO
/// queues. Pure arithmetic (`max` and one `+` per task): byte-deterministic
/// across runs and hosts.
pub fn schedule<J: AsRef<[Task]>>(jobs: &[J], window: usize) -> Schedule {
    let window = window.max(1);
    let mut placements: Vec<Placement> =
        Vec::with_capacity(jobs.iter().map(|j| j.as_ref().len()).sum());
    let mut spans: Vec<JobSpan> = Vec::with_capacity(jobs.len());
    // Placement that last held each device; its end is when the device frees.
    let mut holder = [None::<usize>; DeviceKind::ALL.len()];
    // (completion time, job) of in-flight jobs, earliest first. Simulated
    // times are non-negative finite f64s, so their IEEE-754 bit patterns
    // order exactly like the values.
    let mut in_flight: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut admit_us = 0.0f64;
    let mut behind = None;
    let mut makespan_us = 0.0f64;
    for (job, tasks) in jobs.iter().enumerate() {
        if in_flight.len() >= window {
            let Reverse((bits, done)) = in_flight.pop().expect("window is full");
            admit_us = admit_us.max(f64::from_bits(bits));
            behind = Some(done);
        }
        let first = placements.len();
        let mut ready_us = admit_us;
        for (task, t) in tasks.as_ref().iter().enumerate() {
            let mut start_us = ready_us;
            let mut bound = match (task, behind) {
                (0, None) => Bound::Origin,
                (0, Some(done)) => Bound::Admission(done),
                _ => Bound::PrevTask,
            };
            for d in t.devices {
                if let Some(i) = holder[d.index()] {
                    if placements[i].end_us > start_us {
                        start_us = placements[i].end_us;
                        bound = Bound::Device(i);
                    }
                }
            }
            let end_us = start_us + t.us;
            for d in t.devices {
                holder[d.index()] = Some(placements.len());
            }
            placements.push(Placement {
                job,
                task,
                label: t.label,
                devices: t.devices,
                us: t.us,
                ready_us,
                start_us,
                end_us,
                bound,
            });
            makespan_us = makespan_us.max(end_us);
            ready_us = end_us;
        }
        in_flight.push(Reverse((ready_us.to_bits(), job)));
        let finish = match placements.len() {
            n if n > first => Some(n - 1),
            _ => behind.and_then(|done: usize| spans[done].finish),
        };
        spans.push(JobSpan {
            admit_us,
            end_us: ready_us,
            placements: first..placements.len(),
            finish,
        });
    }
    Schedule {
        window,
        makespan_us,
        placements,
        jobs: spans,
    }
}

impl Schedule {
    /// Average per-job throughput period, microseconds.
    pub fn period_us(&self) -> f64 {
        self.makespan_us / self.jobs.len().max(1) as f64
    }

    /// Summed task durations: the time a window of 1 would take. Added in
    /// placement order from +0.0 (an empty `sum()` would be -0.0).
    pub fn compute_us(&self) -> f64 {
        self.placements.iter().fold(0.0, |acc, p| acc + p.us)
    }

    /// Every job's timeline, in admission order.
    pub fn jobs(&self) -> impl ExactSizeIterator<Item = JobTimeline<'_>> {
        (0..self.jobs.len()).map(|j| self.job(j))
    }

    /// The timeline of job `job`.
    pub fn job(&self, job: usize) -> JobTimeline<'_> {
        let span = &self.jobs[job];
        JobTimeline {
            admit_us: span.admit_us,
            end_us: span.end_us,
            segments: &self.placements[span.placements.clone()],
        }
    }

    /// Placements holding `device`, in placement order.
    fn on(&self, device: DeviceKind) -> impl Iterator<Item = &Placement> {
        self.placements
            .iter()
            .filter(move |p| p.devices.contains(&device))
    }

    /// Verify the exclusivity invariant: no two placements on the same
    /// device overlap. Returns the first violating pair if any.
    pub fn check_exclusive(&self) -> Option<(Placement, Placement)> {
        for d in DeviceKind::ALL {
            let mut held: Vec<&Placement> = self.on(d).collect();
            held.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
            if let Some(w) = held.windows(2).find(|w| w[0].end_us > w[1].start_us + 1e-9) {
                return Some((*w[0], *w[1]));
            }
        }
        None
    }

    /// The chain of placements that fixes the makespan, as indices into
    /// `placements` in time order: from the placement that finishes last
    /// (the earliest-placed one on ties), follow each recorded [`Bound`]
    /// back to t = 0. Each link ends exactly where the next starts.
    pub fn critical_path(&self) -> Vec<usize> {
        let mut path = Vec::new();
        let mut next = self
            .placements
            .iter()
            .position(|p| p.end_us == self.makespan_us);
        while let Some(i) = next {
            path.push(i);
            next = match self.placements[i].bound {
                Bound::Origin => None,
                Bound::PrevTask => Some(i - 1),
                Bound::Device(holder) => Some(holder),
                Bound::Admission(job) => self.jobs[job].finish,
            };
        }
        path.reverse();
        path
    }

    /// Render a coarse ASCII Gantt chart (for the Fig. 5 harness).
    pub fn ascii_gantt(&self, cols: usize) -> String {
        let span = self.makespan_us.max(1e-9);
        let mut out = String::new();
        for d in DeviceKind::ALL {
            let mut row = vec!['.'; cols];
            for p in self.on(d) {
                let a = ((p.start_us / span) * cols as f64) as usize;
                let b = (((p.end_us / span) * cols as f64).ceil() as usize).min(cols);
                let ch = p.label.chars().next().unwrap_or('#');
                for c in row.iter_mut().take(b).skip(a.min(cols)) {
                    *c = ch;
                }
            }
            out.push_str(&format!(
                "{:>4} |{}|\n",
                d.name(),
                row.iter().collect::<String>()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DeviceKind::{Apu, Cpu, Gpu};

    fn one(devices: &'static [DeviceKind], us: f64) -> Vec<Task> {
        vec![Task::new("t", devices, us)]
    }

    #[test]
    fn tasks_serialize_on_one_device() {
        let s = schedule(&[one(&[Cpu], 100.0), one(&[Cpu], 50.0)], 2);
        assert_eq!(s.placements[0].start_us, 0.0);
        assert_eq!(s.placements[0].bound, Bound::Origin);
        assert_eq!(s.placements[1].start_us, 100.0, "second task must wait");
        assert_eq!(s.placements[1].bound, Bound::Device(0));
        assert_eq!(s.placements[1].wait_us(), 100.0);
        assert!(s.check_exclusive().is_none());
    }

    #[test]
    fn different_devices_overlap_freely() {
        let s = schedule(&[one(&[Cpu], 100.0), one(&[Apu], 100.0)], 2);
        assert_eq!(s.placements[1].start_us, 0.0);
        assert_eq!(s.makespan_us, 100.0);
    }

    #[test]
    fn joint_task_waits_for_all_its_devices() {
        let jobs = [
            one(&[Cpu], 100.0),
            one(&[Apu], 40.0),
            one(&[Cpu, Apu], 10.0),
        ];
        let s = schedule(&jobs, 3);
        let joint = s.placements[2];
        assert_eq!(
            joint.start_us, 100.0,
            "starts when the busiest device frees"
        );
        assert_eq!(joint.end_us, 110.0);
        assert_eq!(joint.bound, Bound::Device(0));
        assert_eq!(s.critical_path(), vec![0, 2]);
    }

    #[test]
    fn full_window_admits_behind_the_earliest_completion() {
        let jobs = [one(&[Cpu], 30.0), one(&[Gpu], 10.0), one(&[Apu], 5.0)];
        let s = schedule(&jobs, 2);
        // The APU is idle, but both window slots are taken until job 1 ends.
        assert_eq!(s.placements[2].bound, Bound::Admission(1));
        assert_eq!((s.job(2).admit_us, s.job(2).end_us), (10.0, 15.0));
        assert_eq!(s.compute_us(), 45.0);
    }

    #[test]
    fn a_job_without_tasks_finishes_when_admitted() {
        let jobs = [one(&[Cpu], 30.0), vec![], one(&[Gpu], 5.0)];
        let s = schedule(&jobs, 1);
        assert_eq!(s.job(1).end_us, 30.0);
        assert!(s.job(1).segments.is_empty());
        assert_eq!(s.placements[1].bound, Bound::Admission(1));
        assert_eq!(s.critical_path(), vec![0, 1], "seen through to job 0");
    }

    #[test]
    fn ascii_gantt_renders() {
        let jobs = [
            vec![Task::new("obj", &[Cpu], 50.0)],
            vec![Task::new("emo", &[Apu], 100.0)],
        ];
        let g = schedule(&jobs, 2).ascii_gantt(20);
        assert!(g.contains("cpu"));
        assert!(g.contains('o'));
        assert!(g.contains('e'));
    }
}
