//! Property tests for the pipeline scheduler: resource exclusivity,
//! dependency ordering, and dominance relations hold for arbitrary stage
//! configurations.

use proptest::prelude::*;
use tvmnp_hwsim::DeviceKind::{Apu, Cpu, Gpu};
use tvmnp_hwsim::{DeviceKind, Task};
use tvmnp_scheduler::pipeline::{auto_schedule, simulate_pipelined, simulate_sequential};

/// Device sets by bit mask (1 = CPU, 2 = APU, 4 = GPU); the empty mask
/// falls back to the CPU.
const DEVICE_SETS: [&[DeviceKind]; 7] = [
    &[Cpu],
    &[Cpu],
    &[Apu],
    &[Cpu, Apu],
    &[Gpu],
    &[Cpu, Gpu],
    &[Apu, Gpu],
];

fn stage_strategy() -> impl Strategy<Value = Task> {
    (0usize..7, 1.0f64..10_000.0).prop_map(|(mask, dur)| Task::new("s", DEVICE_SETS[mask], dur))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The pipelined schedule never violates resource exclusivity and is
    /// never slower than the sequential baseline.
    #[test]
    fn pipelined_sound_and_dominant(
        stages in prop::collection::vec(stage_strategy(), 1..5),
        frames in 1usize..12,
    ) {
        let seq = simulate_sequential(&stages, frames);
        let pipe = simulate_pipelined(&stages, frames);
        prop_assert!(pipe.check_exclusive().is_none());
        prop_assert!(seq.check_exclusive().is_none());
        prop_assert!(pipe.makespan_us <= seq.makespan_us + 1e-6);
        // Makespan is at least one frame's critical path.
        let frame_time: f64 = stages.iter().map(|s| s.us).sum();
        prop_assert!(pipe.makespan_us + 1e-6 >= frame_time);
        prop_assert!(seq.makespan_us + 1e-6 >= frame_time * frames as f64);
    }

    /// Dependencies: within every frame, stage k+1 starts only after
    /// stage k ends.
    #[test]
    fn dependencies_hold(
        stages in prop::collection::vec(stage_strategy(), 2..5),
        frames in 1usize..8,
    ) {
        let pipe = simulate_pipelined(&stages, frames);
        for f in 0..frames {
            for k in 1..stages.len() {
                let run = pipe.job(f).segments;
                prop_assert_eq!((run[k].job, run[k].task), (f, k));
                prop_assert!(run[k].start_us + 1e-9 >= run[k - 1].end_us, "frame {f} stage {k}");
            }
        }
    }

    /// The auto-scheduler returns the minimum over the option product.
    #[test]
    fn auto_schedule_is_exhaustive_min(
        a in prop::collection::vec(stage_strategy(), 1..3),
        b in prop::collection::vec(stage_strategy(), 1..3),
        frames in 1usize..6,
    ) {
        let options = vec![a.clone(), b.clone()];
        let Some((_, best)) = auto_schedule(&options, frames) else {
            return Err(TestCaseError::fail("auto_schedule returned none"));
        };
        for x in &a {
            for y in &b {
                let manual = simulate_pipelined(&[*x, *y], frames);
                prop_assert!(best.makespan_us <= manual.makespan_us + 1e-6);
            }
        }
    }
}
