//! Wall-clock benchmark of the TVM + NeuroPilot reproduction (README.md).
//!
//! One binary, one workload per process:
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! benchmark --smoke        # every workload, 1 s windows, all checks on
//! benchmark --selfcheck    # two interleaved sets of runs must agree
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod alloc;
mod expected;
mod fixtures;
mod floor;
mod harness;
mod metrics;
mod pin;
mod probes;
mod replay;
mod selfcheck;
mod span;
mod speed;
mod workloads;

use crate::harness::{run_window, warm_up, WindowStats};
use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::pin::Pin;
use crate::span::SpanBuf;
use crate::speed::Timed;
use crate::workloads::{Input, Workload};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Untimed rounds before every window.
const WARM_UP_ROUNDS: usize = 2;
/// Fresh set-ups per untraced run; `setup_s` is their minimum.
const SETUPS: usize = 25;
/// Fresh set-ups per traced run, which reports set-up only for context.
const SETUPS_TRACED: usize = 3;
/// Spans the trace buffer holds (48 bytes each).
const SPAN_CAPACITY: usize = 1 << 18;

const USAGE: &str = "usage: benchmark --workload <compile_zoo|infer_zoo|serve_showcase|deploy_cache> \
[--seed <u64>] [--seconds <s>] [--trace <0|1>] [--setups <n>] | --smoke | --selfcheck [--seconds <s>]";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setups: Option<usize>,
    pub smoke: bool,
    pub selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 40.0,
        trace: false,
        setups: None,
        smoke: false,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--setups" => {
                let n: usize = value()?.parse().map_err(|e| format!("--setups: {e}"))?;
                if !(1..=1000).contains(&n) {
                    return Err("--setups must be in 1..=1000".to_string());
                }
                args.setups = Some(n);
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// The directory runs write into: `out/` beside this package's manifest,
/// which the build places inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host fingerprint on the wall clock: a fixed hash loop and a fixed 8 MB
/// copy, floor of five, in ms. Taken before and after the window, so a
/// run that fell inside a slow phase of the host is recognisable from its
/// own output.
fn host_probe() -> (f64, f64) {
    fn floor_of_five_ms(mut ns: impl FnMut() -> u64) -> f64 {
        (0..5).map(|_| ns()).min().unwrap_or(0) as f64 / 1e6
    }
    let cpu = floor_of_five_ms(|| speed::spin(2_000_000));
    let src = vec![1u8; 8 << 20];
    let mut dst = vec![0u8; 8 << 20];
    let mem = floor_of_five_ms(|| {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        t0.elapsed().as_nanos() as u64
    });
    (cpu, mem)
}

/// One fresh set-up, timed. The caller drops the previous state first, so
/// every set-up runs into fresh state.
fn set_up<W: Workload>(input: &mut Input, index: usize, times: &mut Vec<Timed>) -> W::State {
    input.setup_index = index;
    let (state, timed) = speed::timed(|| W::setup(input));
    times.push(timed);
    state
}

/// Drop a set-up's state and whatever it wrote.
fn tear_down<S>(input: &Input, index: usize, state: S) {
    drop(state);
    let _ = std::fs::remove_dir_all(input.work.join(format!("setup-{index}")));
}

/// `setup_s`: the floor of the set-ups at the reference speed.
fn setup_floor_s(times: &[Timed]) -> f64 {
    speed::ref_floor_ns(times.iter().copied()).unwrap_or(f64::NAN) / 1e9
}

fn setup_median_s(times: &[Timed]) -> f64 {
    let wall: Vec<f64> = times.iter().map(|t| t.ns as f64 / 1e9).collect();
    floor::median(&wall).unwrap_or(f64::NAN)
}

fn print_setups(times: &[Timed]) {
    println!(
        "set-up x{}: first {:.4} s, wall floor {:.4} s, wall median {:.4} s; at reference speed: floor {:.4} s",
        times.len(),
        times[0].ns as f64 / 1e9,
        times.iter().map(|t| t.ns).min().unwrap_or(0) as f64 / 1e9,
        setup_median_s(times),
        setup_floor_s(times),
    );
}

fn print_window(label: &str, stats: &WindowStats) {
    println!(
        "{label}: {} rounds, {} ops ({} failed), round floor {:.3} ms at reference speed \
         ({:.3} ms on the wall clock, {:.0} % of samples at steady speed), wall p50 {:.3} ms{}",
        stats.rounds(),
        stats.ops_total,
        stats.ops_failed,
        stats.round_floor_s() * 1e3,
        stats.wall_round_floor_s() * 1e3,
        stats.steady_frac() * 100.0,
        floor::quantile(&stats.round_ms, 0.5).unwrap_or(f64::NAN),
        floor::p90_if_supported(&stats.round_ms)
            .map(|p| format!(", p90 {p:.3} ms"))
            .unwrap_or_default(),
    );
    // Where the round floor comes from: the five largest kind floors.
    let mut floors: Vec<(f64, &str)> = stats
        .samples
        .iter()
        .zip(&stats.names)
        .filter_map(|(k, n)| Some((speed::ref_floor_ns(k.iter().map(|s| s.timed))?, *n)))
        .collect();
    floors.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
    for (ns, name) in floors.iter().take(5) {
        println!("  {:>10.3} ms  {name}", ns / 1e6);
    }
}

/// One run of one workload. Returns the report, or why the state
/// contradicts `expected.rs`.
fn run<W: Workload>(name: &str, args: &Args, pin: Pin) -> Result<Report, String> {
    let work = out_dir().join(format!("work-{name}-{}", u8::from(args.trace)));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut input = Input {
        seed: args.seed,
        work: work.clone(),
        setup_index: 0,
    };
    let window = Duration::from_secs_f64(args.seconds);
    println!(
        "workload={name} seed={} seconds={} trace={} pinned={} available_parallelism={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        u8::from(pin.pinned()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let probe_before = host_probe();
    let setups = args
        .setups
        .unwrap_or(if args.trace { SETUPS_TRACED } else { SETUPS });
    let mut setup_times = Vec::with_capacity(setups);
    // The untraced run sets up once here and spreads the other set-ups
    // over the window: a burst of 25 lasts under a second and falls
    // wholly inside one speed phase of the host (README.md).
    let upfront = if args.trace { setups } else { 1 };
    let mut state = set_up::<W>(&mut input, 0, &mut setup_times);
    for i in 1..upfront {
        tear_down(&input, i - 1, state);
        state = set_up::<W>(&mut input, i, &mut setup_times);
    }
    let setup_first_s = setup_times[0].ns as f64 / 1e9;
    let mut kinds = W::kinds(state, &input)?;
    warm_up(&mut kinds, WARM_UP_ROUNDS);

    let report = if !args.trace {
        let stats = run_window(&mut kinds, window, None, |fraction| {
            let due = 1 + (fraction.min(1.0) * (setups - 1) as f64) as usize;
            while setup_times.len() < due {
                let index = setup_times.len();
                let fresh = set_up::<W>(&mut input, index, &mut setup_times);
                tear_down(&input, index, fresh);
            }
        });
        // Read at the end of the window, before the probe's own buffers.
        let peak_rss_mb = peak_rss_mb();
        let probe_after = host_probe();
        print_window("window", &stats);
        print_setups(&setup_times);
        println!(
            "host probe before/after: cpu {:.3}/{:.3} ms, mem {:.3}/{:.3} ms",
            probe_before.0, probe_after.0, probe_before.1, probe_after.1
        );
        let (alloc, sim_us) = stats.round_counts();
        let ops = stats.ops_per_round as f64;
        let values = [
            ("setup_s", setup_floor_s(&setup_times)),
            ("ops_per_s", stats.ops_per_s()),
            ("peak_rss_mb", peak_rss_mb),
            ("alloc_kb_per_op", alloc.bytes as f64 / 1e3 / ops),
            ("allocs_per_op", alloc.calls as f64 / ops),
            ("sim_us_per_op", sim_us / ops),
        ];
        Report::new(
            &END_TO_END,
            &values,
            stats.ops_total,
            stats.ops_failed,
            stats.ops_failed == 0,
        )
    } else {
        // A quarter of the window plain, half traced (each traced op also
        // runs its replay), a quarter for the layer probes.
        print_setups(&setup_times);
        let plain = run_window(&mut kinds, window / 4, None, |_| ());
        print_window("plain window", &plain);
        let mut buf = SpanBuf::with_capacity(SPAN_CAPACITY);
        let traced = run_window(&mut kinds, window / 2, Some(&mut buf), |_| ());
        print_window("traced window", &traced);
        drop(kinds);
        let trace_path = out_dir().join(format!("trace-{name}.json"));
        buf.write_json(&trace_path, name, args.seed)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        println!(
            "trace: {} spans ({} dropped) -> {}",
            buf.spans().len(),
            buf.dropped,
            trace_path.display()
        );
        let kinds_per_round = traced.samples.len() as u32;
        println!("layer self time per round (floor over fully recorded rounds):");
        // The last recorded round may be cut short by a full buffer.
        let recorded_rounds = buf
            .spans()
            .last()
            .map_or(0, |s| (s.op - 1) / kinds_per_round);
        let whole: Vec<_> = buf
            .spans()
            .iter()
            .copied()
            .filter(|s| buf.dropped == 0 || (s.op - 1) / kinds_per_round < recorded_rounds)
            .collect();
        // Root spans are named after their kind; the layers are the rest.
        let kind_names: BTreeSet<&str> = traced.names.iter().copied().collect();
        for (layer, ns) in span::layer_self_floor_ns(&whole, |op| (op - 1) / kinds_per_round) {
            if !kind_names.contains(layer) {
                println!("  {layer:<28} {:>12.4} ms", ns as f64 / 1e6);
            }
        }

        let mut values = probes::run_all(args.seed, &work, &pin, window / 4);
        let probe_after = host_probe();
        let unattributed_s = traced.unattributed_s();
        let replayed_s = traced.wall_round_floor_s();
        values.extend([
            ("harness.ops_per_s_plain", plain.ops_per_s()),
            ("harness.ops_per_s_traced", traced.ops_per_s()),
            (
                "harness.trace_overhead_frac",
                plain.ops_per_s() / traced.ops_per_s() - 1.0,
            ),
            ("harness.replay_unattributed_ms", unattributed_s * 1e3),
            (
                "harness.replay_unattributed_frac",
                unattributed_s / replayed_s,
            ),
            (
                "harness.round_ms_p50",
                floor::quantile(&plain.round_ms, 0.5).unwrap_or(f64::NAN),
            ),
            (
                "harness.round_ms_p90",
                // Below 100 rounds there are not ten samples beyond the
                // p90; the largest round stands in and the line above
                // prints without a p90.
                floor::p90_if_supported(&plain.round_ms)
                    .or_else(|| floor::quantile(&plain.round_ms, 1.0))
                    .unwrap_or(f64::NAN),
            ),
            ("harness.rounds", (plain.rounds() + traced.rounds()) as f64),
            ("harness.spans", buf.spans().len() as f64),
            ("harness.setup_first_s", setup_first_s),
            ("harness.setup_median_s", setup_median_s(&setup_times)),
            ("harness.probe_cpu_ms", probe_before.0.max(probe_after.0)),
            ("harness.probe_mem_ms", probe_before.1.max(probe_after.1)),
            ("harness.pinned", f64::from(u8::from(pin.pinned()))),
            (
                "harness.ops_per_s_wall",
                plain.ops_per_round as f64 / plain.wall_round_floor_s(),
            ),
            ("harness.steady_speed_frac", plain.steady_frac()),
        ]);
        let failed = plain.ops_failed + traced.ops_failed;
        Report::new(
            &PER_LAYER,
            &values,
            plain.ops_total + traced.ops_total,
            failed,
            failed == 0,
        )
    };
    let _ = std::fs::remove_dir_all(&work);
    Ok(report)
}

fn run_named(name: &str, args: &Args, pin: Pin) -> Result<Report, String> {
    use workloads::{compile_zoo, deploy_cache, infer_zoo, serve_showcase};
    match name {
        "compile_zoo" => run::<compile_zoo::CompileZoo>(name, args, pin),
        "infer_zoo" => run::<infer_zoo::InferZoo>(name, args, pin),
        "serve_showcase" => run::<serve_showcase::ServeShowcase>(name, args, pin),
        "deploy_cache" => run::<deploy_cache::DeployCache>(name, args, pin),
        other => Err(format!(
            "unknown workload '{other}'; known: {:?}",
            workloads::NAMES
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck::selfcheck(&args);
    }
    if args.smoke {
        return selfcheck::smoke(&args);
    }
    let Some(name) = args.workload.clone() else {
        eprintln!("error: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    // Before set-up: threads the program spawns later inherit the pin.
    let pin = Pin::to_highest_cpu();
    match run_named(&name, &args, pin) {
        Ok(report) => {
            print!("{}", report.to_table());
            println!(
                "ops_total={} ops_failed={}",
                report.attempted, report.failed
            );
            println!("{}", report.to_json());
            if report.correct && report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&argv(
            "--workload infer_zoo --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("infer_zoo"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, true));
        assert_eq!(parse_args(&[]).unwrap().seed, 42);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--setups 0",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
