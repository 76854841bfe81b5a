//! `--selfcheck` and `--smoke`: this binary running itself, one process
//! per run, because a run's counts and lazy statics are per process.

use crate::floor::median;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::NAMES;
use crate::Args;
use serde_json::Value;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Runs per set. Few and long: what the reference speed leaves of the
/// host's phases (README.md) differs between runs, not inside one; the
/// median of three steadies it.
const RUNS_PER_SET: usize = 3;

/// One finished child run.
struct Run {
    metrics: Vec<(String, f64)>,
    probe_line: String,
    ok: bool,
}

/// Run this binary once and parse its last line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: Option<usize>,
) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if let Some(n) = setups {
        cmd.args(["--setups", &n.to_string()]);
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = serde_json::parse_value(last).map_err(|e| {
        format!(
            "{workload} (seed {seed}) printed no result: {e}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result has no metrics")?
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    Ok(Run {
        metrics,
        probe_line: stdout
            .lines()
            .find(|l| l.starts_with("host probe"))
            .unwrap_or("host probe: see harness.probe_* above")
            .to_string(),
        ok: out.status.success()
            && doc.get("correct").and_then(Value::as_bool) == Some(true)
            && doc.get("failed").and_then(Value::as_u64) == Some(0),
    })
}

fn value_of(run: &Run, name: &str) -> f64 {
    run.metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// `name -> bound` of the end-to-end metrics in `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let doc = serde_json::parse_value(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists end_to_end")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("bound").and_then(Value::as_f64).expect("bound"),
            )
        })
        .collect()
}

/// Metrics that must repeat to the last digit between the sets.
const EXACT: [&str; 3] = ["alloc_kb_per_op", "allocs_per_op", "sim_us_per_op"];

/// The two-set agreement test: every workload as two interleaved sets of
/// runs (A,B,A,B,A,B) of this same binary; per metric, the sets' medians
/// must agree within the metric's bound, and every count must be equal.
/// Run `i` of either set uses seed `--seed + i`.
pub fn selfcheck(args: &Args) -> ExitCode {
    println!(
        "selfcheck: {} workloads x 2 sets x {RUNS_PER_SET} runs of {} s (+ one traced run per set)",
        NAMES.len(),
        args.seconds
    );
    match selfcheck_failures(args) {
        Ok(0) => {
            println!("\nselfcheck: PASS");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            println!("\nselfcheck: FAIL ({failures} failures)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run and compare every workload; the number of FAIL verdicts, or why a
/// run printed no result.
fn selfcheck_failures(args: &Args) -> Result<u32, String> {
    let bounds = bounds();
    let mut failures = 0u32;
    for workload in NAMES {
        let mut sets: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for i in 0..RUNS_PER_SET {
            for set in &mut sets {
                let seed = args.seed + i as u64;
                set.push(child(workload, seed, args.seconds, false, args.setups)?);
            }
        }
        let traced = [
            child(workload, args.seed, args.seconds, true, args.setups)?,
            child(workload, args.seed, args.seconds, true, args.setups)?,
        ];

        println!("\n== {workload} ==");
        for (s, set) in sets.iter().enumerate() {
            for (i, run) in set.iter().enumerate() {
                let values: Vec<String> = END_TO_END
                    .iter()
                    .map(|(n, _)| format!("{n}={}", value_of(run, n)))
                    .collect();
                println!(
                    "  run {}{i} ok={} {} | {}",
                    ["A", "B"][s],
                    run.ok,
                    values.join(" "),
                    run.probe_line
                );
                failures += u32::from(!run.ok);
            }
        }
        println!(
            "  {:<18} {:>16} {:>16} {:>10} {:>7}  verdict",
            "metric", "set A median", "set B median", "rel diff", "bound"
        );
        for (name, _) in END_TO_END {
            let med = |set: &[Run]| {
                let values: Vec<f64> = set.iter().map(|r| value_of(r, name)).collect();
                median(&values).unwrap_or(f64::NAN)
            };
            let (a, b) = (med(&sets[0]), med(&sets[1]));
            let diff = (b - a) / a;
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, b)| *b);
            let exact = EXACT.contains(&name);
            // NaN fails both tests.
            let pass = if exact { a == b } else { diff.abs() <= bound };
            failures += u32::from(!pass);
            println!(
                "  {name:<18} {a:>16.6} {b:>16.6} {:>+9.3}% {:>6.1}%  {}{}",
                diff * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" },
                if exact { " (must be identical)" } else { "" },
            );
        }
        for (name, unit) in PER_LAYER {
            // Not the `kB` sizes: serialized artifacts print expression ids
            // from a process-global counter, and how far it has run by
            // then depends on how many repetitions the earlier probes fit.
            let is_count = unit == "count" && !name.starts_with("harness.");
            let (a, b) = (value_of(&traced[0], name), value_of(&traced[1], name));
            if is_count && a != b {
                failures += 1;
                println!("  per-layer count {name}: {a} vs {b}  FAIL (must be identical)");
            }
        }
        for (i, run) in traced.iter().enumerate() {
            failures += u32::from(!run.ok);
            println!(
                "  traced run {i} ok={} harness.probe_cpu_ms={} harness.probe_mem_ms={} harness.trace_overhead_frac={}",
                run.ok,
                value_of(run, "harness.probe_cpu_ms"),
                value_of(run, "harness.probe_mem_ms"),
                value_of(run, "harness.trace_overhead_frac"),
            );
        }
        println!("  per-layer counts identical between the traced runs: checked");
    }
    Ok(failures)
}

/// Every workload with 1 s windows and 3 set-ups, all checks on, plus one
/// traced run so the probes and the span file are exercised too.
pub fn smoke(args: &Args) -> ExitCode {
    let start = Instant::now();
    let mut failed = false;
    let runs = NAMES
        .iter()
        .map(|w| (*w, false))
        .chain([("compile_zoo", true)]);
    for (workload, trace) in runs {
        match child(workload, args.seed, 1.0, trace, Some(3)) {
            Ok(run) => {
                println!("smoke: {workload} trace={} ok={}", u8::from(trace), run.ok);
                failed |= !run.ok;
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    println!(
        "smoke: {} in {:.1} s",
        if failed { "FAIL" } else { "PASS" },
        start.elapsed().as_secs_f64()
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
