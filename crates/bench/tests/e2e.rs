//! End-to-end checks of the `tvmnp` binary: every experiment's stdout
//! against goldens captured from the thirteen pre-fold binaries, the five
//! checked-in baselines, and the flag tables as the process sees them.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXPERIMENTS: [(&str, &str); 10] = [
    ("fig4", include_str!("golden/fig4.txt")),
    ("fig5", include_str!("golden/fig5.txt")),
    ("fig6", include_str!("golden/fig6.txt")),
    ("table1", include_str!("golden/table1.txt")),
    ("table2", include_str!("golden/table2.txt")),
    ("sched", include_str!("golden/sched.txt")),
    ("ablation", include_str!("golden/ablation.txt")),
    ("nnapi", include_str!("golden/nnapi.txt")),
    ("gpu_ext", include_str!("golden/gpu_ext.txt")),
    ("energy", include_str!("golden/energy.txt")),
];
const TOOLS: [&str; 3] = ["bench", "conformance", "obs_check"];

fn tvmnp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tvmnp"))
        .args(args)
        .output()
        .expect("spawn tvmnp")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory under the target dir, one per test.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 scratch path")
}

/// A usage error: exit 2, the offending flag named on stderr, nothing on
/// stdout.
fn assert_usage_error(args: &[&str], names: &str) {
    let out = tvmnp(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(
        stderr(&out).contains(names),
        "{args:?}: stderr must name '{names}', got: {}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("usage: tvmnp"), "{args:?}: no usage");
    assert_eq!(stdout(&out), "", "{args:?}: a usage error prints no stdout");
}

/// The `[--flag <value>]` entries of a subcommand's usage line, read off
/// the error an unknown flag produces.
fn listed_flags(subcommand: &str) -> Vec<(String, Option<String>)> {
    let out = tvmnp(&[subcommand, "--no-such-flag"]);
    let err = stderr(&out);
    let usage = err
        .lines()
        .find(|l| l.starts_with("usage: tvmnp"))
        .unwrap_or_else(|| panic!("{subcommand}: no usage line in: {err}"));
    usage
        .split('[')
        .skip(1)
        .map(|entry| {
            let entry = entry.split(']').next().unwrap();
            match entry.split_once(' ') {
                Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
                None => (entry.to_string(), None),
            }
        })
        .collect()
}

#[test]
fn experiment_stdout_matches_the_pre_fold_binaries() {
    for (name, golden) in EXPERIMENTS {
        let out = tvmnp(&[name]);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        assert_eq!(stdout(&out), golden, "{name}: stdout moved");
    }
}

fn bench_reproduces(workloads: &[&str]) {
    let dir = scratch(workloads[0]);
    for w in workloads {
        let written = dir.join(format!("BENCH_{w}.json"));
        let out = tvmnp(&[
            "bench",
            "--workload",
            w,
            "--runs",
            "5",
            "--bench-out",
            path_arg(&written),
        ]);
        assert!(out.status.success(), "{w}: {}", stderr(&out));
        let checked_in =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{w}.json"));
        assert_eq!(
            std::fs::read(&written).unwrap(),
            std::fs::read(&checked_in).unwrap(),
            "BENCH_{w}.json moved"
        );
    }
}

#[test]
fn bench_reproduces_the_analytic_baselines() {
    bench_reproduces(&["fig4", "fig5", "fig6", "sched"]);
}

/// Apart from the four above because it executes 2 x 64 frames per run
/// and takes most of this file's time.
#[test]
fn bench_reproduces_the_serve_baseline() {
    bench_reproduces(&["serve"]);
}

/// A value every listed flag accepts, by flag name. `--profile` is a
/// switch on the experiments and a file on `obs_check`, which
/// `every_listed_flag_is_accepted` feeds from an `energy` run.
fn sample_value(flag: &str, dir: &Path) -> String {
    let file = |name: &str| path_arg(&dir.join(name)).to_string();
    match flag {
        "--trace-out" => file("trace.json"),
        "--inject-fault" => "apu:dispatch:transient".into(),
        "--fault-seed" | "--seed" => "7".into(),
        "--concurrency" | "--cases" | "--quant-every" => "2".into(),
        "--cache-dir" => file("cache"),
        "--stats-out" | "--stats" => file("stats.jsonl"),
        "--flight-out" | "--flight-dir" => file("flight"),
        "--flight-buffer" => "64".into(),
        // Below every simulated frame time, so each traced frame dumps.
        "--slo-ms" => "0.001".into(),
        "--profile-store" | "--profile-diff" => file("store"),
        "--workload" => "fig5".into(),
        "--runs" => "1".into(),
        "--bench-out" => file("bench.json"),
        "--check-against" => {
            path_arg(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fig5.json")).into()
        }
        "--threshold" => "0.05".into(),
        "--inject-slowdown" => "mac=1".into(),
        "--out-dir" => file("repro"),
        "--expect-kind" => "slo.breach".into(),
        other => panic!("no sample value for {other}: a flag was added"),
    }
}

#[test]
fn every_listed_flag_is_accepted() {
    let obs_flags = [
        "--profile",
        "--trace-out",
        "--inject-fault",
        "--fault-seed",
        "--concurrency",
        "--cache-dir",
        "--stats-out",
        "--flight-out",
        "--flight-buffer",
        "--slo-ms",
        "--profile-store",
        "--profile-diff",
    ];
    let dir = scratch("flags");
    // All flags of a subcommand in one run: each must parse, and the run
    // they describe must succeed.
    let run_with_all = |subcommand: &str, skip: &[&str]| {
        let mut args = vec![subcommand.to_string()];
        for (flag, value) in listed_flags(subcommand) {
            if skip.contains(&flag.as_str()) {
                continue;
            }
            match value {
                None => args.push(flag),
                Some(_) if subcommand == "obs_check" && flag == "--profile" => {
                    let stored = std::fs::read_dir(dir.join("store")).unwrap();
                    let profile = stored.flatten().next().expect("a stored profile").path();
                    args.extend([flag, path_arg(&profile).to_string()]);
                }
                Some(_) => {
                    let value = sample_value(&flag, &dir);
                    args.extend([flag, value]);
                }
            }
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = tvmnp(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    };

    for (name, _) in EXPERIMENTS {
        let listed: Vec<String> = listed_flags(name).into_iter().map(|(f, _)| f).collect();
        assert_eq!(listed, obs_flags, "{name}: the twelve observability flags");
        run_with_all(name, &[]);
    }

    let bench: Vec<String> = listed_flags("bench").into_iter().map(|(f, _)| f).collect();
    assert_eq!(bench.len(), 8 + obs_flags.len() - 2);
    assert!(bench.iter().all(|f| f != "--profile" && f != "--trace-out"));
    run_with_all("bench", &[]);

    // `--replay` answers for a file rather than a run; its exit codes
    // are checked in `conformance_exit_codes`.
    run_with_all("conformance", &["--replay"]);

    // The experiments above left a stats stream, flight dumps carrying
    // SLO breaches and a stored profile behind: exactly obs_check's input.
    run_with_all("obs_check", &[]);
}

#[test]
fn bad_command_lines_exit_2_naming_the_flag() {
    for (name, _) in EXPERIMENTS {
        assert_usage_error(&[name, "--nope"], "--nope");
        assert_usage_error(&[name, "--trace-out"], "--trace-out");
        assert_usage_error(&[name, "--concurrency", "0"], "--concurrency");
        assert_usage_error(&[name, "--flight-buffer", "0"], "--flight-buffer");
        assert_usage_error(&[name, "--slo-ms", "-1"], "--slo-ms");
        assert_usage_error(&[name, "--inject-fault", "apu:nowhere"], "--inject-fault");
    }
    for name in TOOLS {
        assert_usage_error(&[name, "--nope"], "--nope");
    }
    let bench = |rest: &[&str], names: &str| {
        let mut args = vec![
            "bench",
            "--workload",
            "fig6",
            "--bench-out",
            "unwritten.json",
        ];
        args.extend(rest);
        assert_usage_error(&args, names);
    };
    bench(&["--runs", "0"], "--runs");
    bench(&["--runs"], "--runs");
    bench(&["--concurrency", "0"], "--concurrency");
    bench(&["--flight-buffer", "0"], "--flight-buffer");
    bench(&["--slo-ms", "-1"], "--slo-ms");
    bench(&["--workload", "nope"], "--workload");
    // `bench` never honoured these two, so it does not accept them.
    bench(&["--profile"], "--profile");
    bench(&["--trace-out", "t.json"], "--trace-out");
    // The three defects the hand-written parser let through: a NaN
    // threshold disabled the regression gate, a non-positive factor wrote
    // negative latencies into a bench record, a NaN factor panicked.
    bench(&["--threshold", "nan"], "--threshold");
    bench(&["--threshold", "-0.5"], "--threshold");
    bench(&["--inject-slowdown", "mac=0"], "--inject-slowdown");
    bench(&["--inject-slowdown", "mac=-1"], "--inject-slowdown");
    bench(&["--inject-slowdown", "mac=nan"], "--inject-slowdown");
    bench(&["--inject-slowdown", "sqrt=2"], "--inject-slowdown");
    assert!(!Path::new("unwritten.json").exists());
    assert_usage_error(&["bench", "--bench-out", "unwritten.json"], "--workload");
    assert_usage_error(&["bench", "--workload", "fig6"], "nothing to do");
    assert_usage_error(&["obs_check"], "nothing to do");
}

#[test]
fn a_missing_or_unknown_subcommand_lists_all_thirteen() {
    for args in [&[][..], &["fig7"][..]] {
        let out = tvmnp(args);
        assert_eq!(out.status.code(), Some(2));
        assert_eq!(stdout(&out), "");
        let err = stderr(&out);
        for name in EXPERIMENTS.iter().map(|(n, _)| n).chain(&TOOLS) {
            assert!(
                err.lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "{args:?}: '{name}' not listed in: {err}"
            );
        }
    }
}

#[test]
fn conformance_exit_codes() {
    let out = tvmnp(&["conformance", "--cases", "5", "--seed", "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("conformance: 5 cases"));
    let out = tvmnp(&["conformance", "--replay", "/nonexistent"]);
    assert_eq!(out.status.code(), Some(2), "an unreadable .repro exits 2");
    assert!(stderr(&out).contains("cannot load /nonexistent"));
}

#[test]
fn sched_recovers_under_seeded_faults() {
    let out = tvmnp(&[
        "sched",
        "--inject-fault",
        "apu:dispatch:transient",
        "--fault-seed",
        "7",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let recovered: usize = text
        .split("recovered runs:")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no 'recovered runs: <n>' in: {text}"));
    assert!(recovered >= 1);
}

/// The measured profile's workload key is the subcommand, not the file
/// stem of `argv[0]` (which is `tvmnp` for every subcommand).
#[test]
fn the_profile_key_is_the_subcommand_name() {
    let dir = scratch("profile-key");
    let out = tvmnp(&["energy", "--profile-store", path_arg(&dir)]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stored: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(stored.len(), 1, "{stored:?}");
    assert!(stored[0].starts_with("profile-energy-"), "{stored:?}");
}

/// A measured profile is read off the cost ledgers, so asking for one
/// adds nothing to the simulated-time half (pid 2) of a trace.
#[test]
fn a_profile_flag_leaves_the_simulated_trace_alone() {
    let dir = scratch("profile-trace");
    let sim_events = |extra: &[&str]| {
        let trace = dir.join("trace.json");
        let mut args = vec!["energy", "--trace-out", path_arg(&trace)];
        args.extend(extra);
        let out = tvmnp(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = doc["traceEvents"].as_array().expect("trace events");
        let sim = events.iter().filter(|e| e["pid"].as_u64() == Some(2));
        sim.cloned().collect::<Vec<_>>()
    };
    let plain = sim_events(&[]);
    let profiled = sim_events(&["--profile-store", path_arg(&dir.join("store"))]);
    assert!(plain.len() > 1, "the run must leave simulated spans");
    assert_eq!(plain.len(), profiled.len(), "simulated-time event count");
    assert_eq!(plain, profiled);
}
