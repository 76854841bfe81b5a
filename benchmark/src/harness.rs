//! The measuring loop: op kinds, rounds, the window, and the counts.
//!
//! Closed loop, one client: the generator is this thread, and the next op
//! starts when the previous one returns. A *round* runs every kind once
//! and times each call separately; rounds repeat until the window closes,
//! always finishing the round.

use crate::alloc::AllocCount;
use crate::floor;
use crate::span::SpanBuf;
use crate::speed::{self, Timed};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What a kind reports after its call and its (untimed) output check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Simulated Dimensity-800 microseconds the call returned.
    pub sim_us: f64,
    /// Ops of this call whose check failed (0..=`Kind::ops`).
    pub failed: u32,
}

/// Times the one real call of a kind, and nothing around it.
pub struct Meter<'a> {
    trace: Option<&'a mut SpanBuf>,
    timed: Option<Timed>,
    alloc: AllocCount,
}

impl Meter<'_> {
    /// Run the real call. Everything outside `f` — input clones, output
    /// checks, cleaning up — is neither timed nor counted.
    pub fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let counted = || {
            let a0 = AllocCount::now();
            let r = f();
            (r, AllocCount::now().since(a0))
        };
        let ((r, alloc), timed) = match &mut self.trace {
            // The span is the call; the spins stay outside it.
            Some(buf) => speed::timed(|| buf.span("call", |_| counted())),
            None => speed::timed(counted),
        };
        self.timed = Some(timed);
        self.alloc = alloc;
        r
    }
}

/// One call of one kind, as measured.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub timed: Timed,
    pub alloc: AllocCount,
    pub sim_us: f64,
}

/// Re-executes a kind's call step by step, one span per step.
type Replay = Box<dyn FnMut(&mut SpanBuf)>;

/// One op kind: a fixed call on fixed inputs.
pub struct Kind {
    pub name: &'static str,
    /// Ops one call stands for (2 for a 2-frame batch).
    pub ops: u32,
    /// Makes the call through [`Meter::call`], then checks its output.
    pub run: Box<dyn FnMut(&mut Meter<'_>) -> Outcome>,
    /// Traced rounds only: re-execute the call's pipeline step by step
    /// through the layers' public functions, one span per step.
    pub replay: Option<Replay>,
}

impl Kind {
    pub fn new(
        name: String,
        ops: u32,
        run: impl FnMut(&mut Meter<'_>) -> Outcome + 'static,
    ) -> Kind {
        Kind {
            // A run creates ~100 kinds once; their names live as long as it.
            name: Box::leak(name.into_boxed_str()),
            ops,
            run: Box::new(run),
            replay: None,
        }
    }

    pub fn with_replay(mut self, replay: impl FnMut(&mut SpanBuf) + 'static) -> Kind {
        self.replay = Some(Box::new(replay));
        self
    }
}

/// Everything one window measured.
#[derive(Debug, Default)]
pub struct WindowStats {
    pub names: Vec<&'static str>,
    /// Per kind, the call in each round.
    pub samples: Vec<Vec<Sample>>,
    /// Per kind, the replay's wall time in each traced round, ns.
    pub replay_samples: Vec<Vec<u64>>,
    /// Per round, the sum of its calls' wall times, ms.
    pub round_ms: Vec<f64>,
    pub ops_per_round: u64,
    pub ops_total: u64,
    pub ops_failed: u64,
}

impl WindowStats {
    pub fn rounds(&self) -> usize {
        self.round_ms.len()
    }

    /// Σ over kinds of the kind's floor at the reference speed, seconds.
    pub fn round_floor_s(&self) -> f64 {
        let ns: f64 = self
            .samples
            .iter()
            .filter_map(|k| speed::ref_floor_ns(k.iter().map(|s| s.timed)))
            .sum();
        ns / 1e9
    }

    /// The counts of one round: per kind the least allocator calls, bytes
    /// and simulated µs over its rounds, summed over kinds. The floor, like
    /// the times: a table that grows once, in whichever round, is not
    /// smeared over however many rounds happened to fit the window, so the
    /// counts repeat to the last digit.
    pub fn round_counts(&self) -> (AllocCount, f64) {
        let mut alloc = AllocCount::default();
        let mut sim_us = 0.0;
        for kind in self.samples.iter().filter(|k| !k.is_empty()) {
            alloc.calls += kind.iter().map(|s| s.alloc.calls).min().unwrap_or(0);
            alloc.bytes += kind.iter().map(|s| s.alloc.bytes).min().unwrap_or(0);
            sim_us += kind.iter().map(|s| s.sim_us).fold(f64::INFINITY, f64::min);
        }
        (alloc, sim_us)
    }

    /// Σ over kinds of the kind's floor on the wall clock, seconds.
    pub fn wall_round_floor_s(&self) -> f64 {
        floor::round_floor_s(&self.wall_samples())
    }

    /// Ops per round over the sum of the kinds' floors, at the reference
    /// speed.
    pub fn ops_per_s(&self) -> f64 {
        self.ops_per_round as f64 / self.round_floor_s()
    }

    /// Share of the samples taken while the core speed held still.
    pub fn steady_frac(&self) -> f64 {
        let all: usize = self.samples.iter().map(Vec::len).sum();
        let steady = self
            .samples
            .iter()
            .flatten()
            .filter(|s| s.timed.steady())
            .count();
        steady as f64 / all.max(1) as f64
    }

    fn wall_samples(&self) -> Vec<Vec<u64>> {
        self.samples
            .iter()
            .map(|k| k.iter().map(|s| s.timed.ns).collect())
            .collect()
    }

    /// Σ floor(call) − Σ floor(replay) over the kinds that have a replay,
    /// both on the wall clock: the part of the real calls no replayed step
    /// accounts for, seconds.
    pub fn unattributed_s(&self) -> f64 {
        let ns: i64 = self
            .wall_samples()
            .iter()
            .zip(&self.replay_samples)
            .filter_map(|(call, replay)| {
                Some(floor::floor_ns(call)? as i64 - floor::floor_ns(replay)? as i64)
            })
            .sum();
        ns as f64 / 1e9
    }
}

/// Run one round; `stats` is `None` for warm-up.
fn round(kinds: &mut [Kind], mut trace: Option<&mut SpanBuf>, mut stats: Option<&mut WindowStats>) {
    let mut round_ns = 0u64;
    for (k, kind) in kinds.iter_mut().enumerate() {
        let mut metered = (None, AllocCount::default());
        let mut replay_ns = None;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut body = |buf: Option<&mut SpanBuf>| {
                let mut meter = Meter {
                    trace: buf,
                    timed: None,
                    alloc: AllocCount::default(),
                };
                let outcome = (kind.run)(&mut meter);
                metered = (meter.timed, meter.alloc);
                outcome
            };
            match trace.as_deref_mut() {
                None => body(None),
                Some(buf) => {
                    buf.begin_op();
                    buf.span(kind.name, |buf| {
                        let outcome = body(Some(&mut *buf));
                        if let Some(replay) = kind.replay.as_mut() {
                            let t0 = Instant::now();
                            buf.span("replay", |buf| replay(buf));
                            replay_ns = Some(t0.elapsed().as_nanos() as u64);
                        }
                        outcome
                    })
                }
            }
        }));
        let Some(stats) = stats.as_deref_mut() else {
            continue;
        };
        stats.ops_total += u64::from(kind.ops);
        match (outcome, metered) {
            (Ok(outcome), (Some(timed), alloc)) => {
                stats.ops_failed += u64::from(outcome.failed);
                stats.samples[k].push(Sample {
                    timed,
                    alloc,
                    sim_us: outcome.sim_us,
                });
                round_ns += timed.ns;
                if let Some(ns) = replay_ns {
                    stats.replay_samples[k].push(ns);
                }
            }
            // A panic, or a kind that never made its call, fails every op
            // of the call and leaves no sample.
            _ => stats.ops_failed += u64::from(kind.ops),
        }
    }
    if let Some(stats) = stats {
        stats.round_ms.push(round_ns as f64 / 1e6);
    }
}

/// Untimed rounds, so caches fill and lazy statics finish first.
pub fn warm_up(kinds: &mut [Kind], rounds: usize) {
    for _ in 0..rounds {
        round(kinds, None, None);
    }
}

/// Repeat rounds until `window` has passed, finishing the last round.
/// After each round `between` is told which fraction of the window has
/// passed (>= 1 after the last); what it does is inside the window but
/// outside every timed call.
pub fn run_window(
    kinds: &mut [Kind],
    window: Duration,
    mut trace: Option<&mut SpanBuf>,
    mut between: impl FnMut(f64),
) -> WindowStats {
    let mut stats = WindowStats {
        names: kinds.iter().map(|k| k.name).collect(),
        samples: kinds.iter().map(|_| Vec::with_capacity(4096)).collect(),
        replay_samples: kinds.iter().map(|_| Vec::with_capacity(4096)).collect(),
        round_ms: Vec::with_capacity(4096),
        ops_per_round: kinds.iter().map(|k| u64::from(k.ops)).sum(),
        ..WindowStats::default()
    };
    let start = Instant::now();
    loop {
        round(kinds, trace.as_deref_mut(), Some(&mut stats));
        let elapsed = start.elapsed();
        between(if window.is_zero() {
            1.0
        } else {
            elapsed.as_secs_f64() / window.as_secs_f64()
        });
        if elapsed >= window {
            return stats;
        }
    }
}

/// Floor, at the reference speed, of repeated calls of `f`: at least
/// `min_reps`, then until `budget` is spent or `max_reps` is reached.
/// Each call consumes a value `prepare` makes outside the timed part.
/// For the layer probes.
pub fn probe_floor_ns_prepared<T>(
    budget: Duration,
    min_reps: usize,
    max_reps: usize,
    mut prepare: impl FnMut() -> T,
    mut f: impl FnMut(T),
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::with_capacity(min_reps);
    for rep in 0..max_reps {
        if rep >= min_reps && start.elapsed() >= budget {
            break;
        }
        let input = prepare();
        samples.push(speed::timed(|| f(input)).1);
    }
    speed::ref_floor_ns(samples.into_iter()).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_kind(name: &str, ops: u32, fail_every: u32) -> Kind {
        let mut calls = 0u32;
        Kind::new(name.to_string(), ops, move |m| {
            calls += 1;
            let v = m.call(|| std::hint::black_box(vec![0u8; 1000]));
            assert_eq!(v.len(), 1000);
            Outcome {
                sim_us: 2.0,
                failed: u32::from(fail_every != 0 && calls.is_multiple_of(fail_every)),
            }
        })
    }

    #[test]
    fn window_counts_ops_failures_sim_time_and_allocations_per_round() {
        let mut kinds = vec![counting_kind("a", 1, 0), counting_kind("b", 2, 2)];
        warm_up(&mut kinds, 1); // b's call #1
        let stats = run_window(&mut kinds, Duration::ZERO, None, |_| ()); // one round: b's call #2 fails
        assert_eq!(stats.rounds(), 1);
        assert_eq!(
            (stats.ops_per_round, stats.ops_total, stats.ops_failed),
            (3, 3, 1)
        );
        // Only the metered call is counted: one 1000-byte Vec per kind.
        // (Other test threads may allocate meanwhile, hence >=.)
        let (alloc, sim_us) = stats.round_counts();
        assert_eq!(sim_us, 4.0);
        assert!(alloc.calls >= 2 && alloc.bytes >= 2000);
        assert!(stats.ops_per_s() > 0.0 && stats.wall_round_floor_s() > 0.0);
        assert!((0.0..=1.0).contains(&stats.steady_frac()));
    }

    #[test]
    fn a_panicking_kind_fails_all_its_ops_and_the_round_goes_on() {
        let mut kinds = vec![
            Kind::new("boom".to_string(), 2, |_| panic!("injected")),
            counting_kind("after", 1, 0),
        ];
        let stats = run_window(&mut kinds, Duration::ZERO, None, |_| ());
        assert_eq!((stats.ops_total, stats.ops_failed), (3, 2));
        assert_eq!(stats.samples[0].len(), 0);
        assert_eq!(stats.samples[1].len(), 1);
    }

    #[test]
    fn traced_rounds_record_root_call_and_replay_spans() {
        let mut kinds =
            vec![counting_kind("k", 1, 0).with_replay(|buf| buf.span("layer.step", |_| ()))];
        let mut buf = SpanBuf::with_capacity(64);
        let mut told = Vec::new();
        let stats = run_window(&mut kinds, Duration::ZERO, Some(&mut buf), |f| told.push(f));
        assert_eq!(told, vec![1.0]);
        let names: Vec<_> = buf.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("k", 0), ("call", 1), ("replay", 1), ("layer.step", 3)]
        );
        assert_eq!(stats.replay_samples[0].len(), 1);
        assert!(stats.unattributed_s().is_finite());
    }

    #[test]
    fn probe_floor_respects_min_and_max_reps_and_prepares_untimed() {
        let mut n = 0;
        probe_floor_ns_prepared(Duration::ZERO, 3, 10, || (), |()| n += 1);
        assert_eq!(n, 3);
        n = 0;
        probe_floor_ns_prepared(Duration::from_secs(3600), 1, 5, || (), |()| n += 1);
        assert_eq!(n, 5);
        // The prepared value reaches the timed call; preparing is untimed.
        let mut made = 0;
        let floor = probe_floor_ns_prepared(
            Duration::ZERO,
            2,
            2,
            || {
                std::thread::sleep(Duration::from_millis(20));
                made += 1;
                made
            },
            |v| assert!(v >= 1),
        );
        assert!(made == 2 && floor < 20e6);
    }
}
