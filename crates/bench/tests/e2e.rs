//! End-to-end checks of the `tvmnp` binary: every experiment's stdout
//! against goldens captured from the thirteen pre-fold binaries, the five
//! checked-in baselines, and the flag tables as the process sees them.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The two report flags every experiment lists, in usage order.
const SHARED_FLAGS: [&str; 2] = ["--profile", "--trace-out"];

/// The fault and pool flags: only the subcommands that serve frames
/// (`sched`, `bench`) take them.
const SERVING_FLAGS: [&str; 4] = [
    "--inject-fault",
    "--fault-seed",
    "--concurrency",
    "--cache-dir",
];

/// The flags that observe served frames (the live plane) or write a
/// measured profile: an experiment that serves no frame takes none, and
/// only `bench` writes a profile.
const MEASURING_FLAGS: [&str; 5] = [
    "--stats-out",
    "--flight-out",
    "--slo-ms",
    "--profile-store",
    "--profile-diff",
];

/// `sched` lists the serving flags, then the live-plane flags, after the
/// two report flags.
const SCHED_FLAGS: [&str; 9] = [
    "--profile",
    "--trace-out",
    "--inject-fault",
    "--fault-seed",
    "--concurrency",
    "--cache-dir",
    "--stats-out",
    "--flight-out",
    "--slo-ms",
];

/// Each experiment: its name, its stdout golden and its flag list.
const EXPERIMENTS: [(&str, &str, &[&str]); 10] = [
    ("fig4", include_str!("golden/fig4.txt"), &SHARED_FLAGS),
    ("fig5", include_str!("golden/fig5.txt"), &SHARED_FLAGS),
    ("fig6", include_str!("golden/fig6.txt"), &SHARED_FLAGS),
    ("table1", include_str!("golden/table1.txt"), &SHARED_FLAGS),
    ("table2", include_str!("golden/table2.txt"), &SHARED_FLAGS),
    ("sched", include_str!("golden/sched.txt"), &SCHED_FLAGS),
    (
        "ablation",
        include_str!("golden/ablation.txt"),
        &SHARED_FLAGS,
    ),
    ("nnapi", include_str!("golden/nnapi.txt"), &SHARED_FLAGS),
    ("gpu_ext", include_str!("golden/gpu_ext.txt"), &SHARED_FLAGS),
    ("energy", include_str!("golden/energy.txt"), &SHARED_FLAGS),
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
    for (name, golden, _) in EXPERIMENTS {
        let out = tvmnp(&[name]);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        assert_eq!(stdout(&out), golden, "{name}: stdout moved");
    }
}

/// The checked-in `BENCH_<workload>.json`.
fn baseline(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{workload}.json"))
}

fn bench_reproduces(workloads: &[&str]) {
    let dir = scratch(workloads[0]);
    for w in workloads {
        let written = dir.join(format!("BENCH_{w}.json"));
        let out = tvmnp(&["bench", "--workload", w, "--bench-out", path_arg(&written)]);
        assert!(out.status.success(), "{w}: {}", stderr(&out));
        assert_eq!(
            std::fs::read(&written).unwrap(),
            std::fs::read(baseline(w)).unwrap(),
            "BENCH_{w}.json moved"
        );
    }
}

#[test]
fn bench_reproduces_the_analytic_baselines() {
    bench_reproduces(&["fig4", "fig5", "fig6", "sched"]);
}

/// Apart from the four above because it executes 2 x 64 frames and takes
/// most of this file's time.
#[test]
fn bench_reproduces_the_serve_baseline() {
    bench_reproduces(&["serve"]);
}

/// `--check-against` is exact: the unchanged baseline passes, and a
/// slower clock or one changed non-latency metric fails, naming the key.
#[test]
fn the_check_against_gate_is_exact() {
    let check = |against: &Path, extra: &[&str]| {
        let mut args = vec!["bench", "--workload", "fig4", "--check-against"];
        args.push(path_arg(against));
        args.extend(extra);
        tvmnp(&args)
    };
    let fig4 = baseline("fig4");
    let out = check(&fig4, &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("OK: 24 metrics bit-equal"),
        "{}",
        stdout(&out)
    );

    let out = check(&fig4, &["--inject-slowdown", "mac=2"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let named = stdout(&out);
    assert!(
        named
            .lines()
            .any(|l| l.starts_with("MISMATCH fig4.") && l.contains(".ms: ")),
        "no .ms key named: {named}"
    );

    // Only a subgraph count moves: a gate on latency keys alone would let
    // this through.
    let dir = scratch("exact-gate");
    let tampered = dir.join("BENCH_fig4.json");
    let text = std::fs::read_to_string(&fig4).unwrap();
    let edited = text.replace(
        "\"fig4.anti-spoofing.subgraphs\":9.0",
        "\"fig4.anti-spoofing.subgraphs\":10.0",
    );
    assert_ne!(edited, text, "the subgraph count moved in BENCH_fig4.json");
    std::fs::write(&tampered, edited).unwrap();
    let out = check(&tampered, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("MISMATCH fig4.anti-spoofing.subgraphs: 10 -> 9"),
        "{}",
        stdout(&out)
    );
}

/// A value every listed flag accepts, by flag name. `--profile` is a
/// switch on the experiments and a file on `obs_check`, which
/// `every_listed_flag_is_accepted` feeds from a `bench` run.
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
        // Below every simulated frame time, so each traced frame dumps.
        "--slo-ms" => "0.001".into(),
        "--profile-store" | "--profile-diff" => file("store"),
        "--workload" => "fig5".into(),
        "--bench-out" => file("bench.json"),
        // The record the same run writes: with `--inject-fault` it holds
        // resilience keys the checked-in fig5 baseline lacks, and the gate
        // is exact.
        "--check-against" => file("bench.json"),
        "--inject-slowdown" => "mac=1".into(),
        "--out-dir" => file("repro"),
        "--expect-kind" => "slo.breach".into(),
        other => panic!("no sample value for {other}: a flag was added"),
    }
}

#[test]
fn every_listed_flag_is_accepted() {
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

    for (name, _, flags) in EXPERIMENTS {
        let listed: Vec<String> = listed_flags(name).into_iter().map(|(f, _)| f).collect();
        assert_eq!(listed, flags, "{name}: its flag list");
        run_with_all(name, &[]);
    }

    let bench: Vec<String> = listed_flags("bench").into_iter().map(|(f, _)| f).collect();
    assert_eq!(bench.len(), 13, "{bench:?}");
    assert!(bench.iter().all(|f| f != "--profile" && f != "--trace-out"));
    let served = SERVING_FLAGS.iter().chain(&MEASURING_FLAGS);
    assert!(served.into_iter().all(|f| bench.contains(&f.to_string())));
    // Only `--workload serve` reads the pool and live-plane flags (see
    // `pool_flags_are_refused_off_the_serve_workload`).
    let serve_only = [
        "--concurrency",
        "--cache-dir",
        "--stats-out",
        "--flight-out",
        "--slo-ms",
    ];
    run_with_all("bench", &serve_only);

    // `--replay` answers for a file rather than a run; its exit codes
    // are checked in `conformance_exit_codes`.
    run_with_all("conformance", &["--replay"]);

    // `sched` above left a stats stream and flight dumps carrying SLO
    // breaches behind, `bench` a stored profile: exactly obs_check's input.
    run_with_all("obs_check", &[]);
}

#[test]
fn bad_command_lines_exit_2_naming_the_flag() {
    for (name, _, _) in EXPERIMENTS {
        assert_usage_error(&[name, "--nope"], "--nope");
        assert_usage_error(&[name, "--trace-out"], "--trace-out");
        // The flight ring is a fixed 1024 events, not a knob.
        let gone = "unknown argument '--flight-buffer'";
        assert_usage_error(&[name, "--flight-buffer", "64"], gone);
    }
    assert_usage_error(
        &["sched", "--slo-ms", "-1"],
        "invalid value '-1' for --slo-ms",
    );
    assert_usage_error(&["sched", "--concurrency", "0"], "--concurrency");
    assert_usage_error(
        &["sched", "--inject-fault", "apu:nowhere"],
        "--inject-fault",
    );
    // A spec part its fault kind does not read is refused, naming it.
    assert_usage_error(
        &["sched", "--inject-fault", "apu:dispatch:transient@mac"],
        "'@mac'",
    );
    assert_usage_error(&["sched", "--inject-fault", "apu:compile:reject=5"], "'=5'");
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
    // No repetition count and no noise-gate knobs: one run is the
    // measurement and the gate is exact.
    for flag in ["--runs", "--threshold", "--warn-only", "--fail-on-missing"] {
        bench(&[flag], &format!("unknown argument '{flag}'"));
    }
    bench(&["--concurrency", "0"], "--concurrency");
    bench(&["--inject-fault", "apu:dispatch:transient@mac"], "'@mac'");
    bench(&["--inject-fault", "apu:compile:reject=5"], "'=5'");
    bench(&["--slo-ms", "-1"], "--slo-ms");
    bench(&["--workload", "nope"], "--workload");
    // `bench` never honoured these two, so it does not accept them.
    bench(&["--profile"], "--profile");
    bench(&["--trace-out", "t.json"], "--trace-out");
    // Defects the hand-written parser let through: a non-positive factor
    // wrote negative latencies into a bench record, a NaN factor panicked.
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
        for name in EXPERIMENTS.iter().map(|(n, ..)| n).chain(&TOOLS) {
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

/// An experiment that runs no fault and serves no frame refuses the
/// serving flags instead of printing its clean figure under them.
#[test]
fn fault_flags_are_refused_where_no_fault_runs() {
    let values = ["apu:dispatch:device-lost", "7", "2", "cache"];
    for (name, _, flags) in EXPERIMENTS {
        for (flag, value) in SERVING_FLAGS.into_iter().zip(values) {
            if flags.contains(&flag) {
                continue;
            }
            let refused = format!("unknown argument '{flag}'");
            assert_usage_error(&[name, flag, value], &refused);
        }
    }
}

/// `--concurrency` and `--cache-dir` size and back the serving pool, and
/// `--stats-out`, `--flight-out` and `--slo-ms` watch the frames it
/// serves, so only `bench --workload serve` reads them: on any other
/// workload they are a usage error and nothing is written.
#[test]
fn pool_flags_are_refused_off_the_serve_workload() {
    let dir = scratch("pool-flags");
    let (written, cache) = (dir.join("bench.json"), dir.join("cache"));
    let (stats, flight) = (dir.join("stats.jsonl"), dir.join("flight"));
    let out = ["--bench-out", path_arg(&written)];
    let serve_only = [
        ("--concurrency", "2"),
        ("--cache-dir", path_arg(&cache)),
        ("--stats-out", path_arg(&stats)),
        ("--flight-out", path_arg(&flight)),
        ("--slo-ms", "50"),
    ];
    for workload in ["fig4", "fig5", "fig6", "sched"] {
        for (flag, value) in serve_only {
            let args = [&["bench", "--workload", workload, flag, value][..], &out].concat();
            assert_usage_error(&args, &format!("{flag} is read only by --workload serve"));
        }
    }
    let wrote = [&written, &cache, &stats, &flight].map(|p| p.exists());
    assert_eq!(wrote, [false; 4], "a refused run wrote");
    let all = serve_only.iter().flat_map(|&(flag, value)| [flag, value]);
    let all: Vec<&str> = all.collect();
    let served = tvmnp(&[&["bench", "--workload", "serve"][..], &all, &out].concat());
    assert!(served.status.success(), "{}", stderr(&served));
    assert!(written.exists() && stats.exists());
    let spilled = std::fs::read_dir(&cache).expect("the cache dir").count();
    assert!(spilled > 0, "the serving pool spilled no artifact");
}

/// A plan's thermal throttles slow the served clip, not just the
/// resilient sessions: fewer simulated frames per second than the clean
/// baseline.
#[test]
fn a_throttled_plan_lowers_the_served_frame_rate() {
    let dir = scratch("throttled-serve");
    let written = dir.join("BENCH_serve.json");
    let out = tvmnp(&[
        "bench",
        "--workload",
        "serve",
        "--inject-fault",
        "apu:kernel:throttle=3",
        "--bench-out",
        path_arg(&written),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let fps = |path: &Path| {
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        doc["metrics"]["serve.fps"].as_f64().expect("serve.fps")
    };
    let (throttled, clean) = (fps(&written), fps(&baseline("serve")));
    assert!(throttled < clean, "serve.fps {throttled} not below {clean}");
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

/// The live-plane flags observe served frames and a measured profile has
/// one producer, `bench`: an experiment that serves no frame refuses all
/// five flags, `sched` refuses the profile flags, and nothing is written.
#[test]
fn observability_flags_are_refused_where_nothing_is_measured() {
    let dir = scratch("measuring-flags");
    let value = |flag: &str| match flag {
        "--slo-ms" => "50".to_string(),
        _ => path_arg(&dir.join(&flag[2..])).to_string(),
    };
    let mut refusals: Vec<(&str, &str)> = Vec::new();
    for (name, _, flags) in EXPERIMENTS {
        for flag in MEASURING_FLAGS {
            if !flags.contains(&flag) {
                refusals.push((name, flag));
            }
        }
    }
    assert_eq!(refusals.len(), 9 * 5 + 2, "{refusals:?}");
    for (name, flag) in refusals {
        let refused = format!("unknown argument '{flag}'");
        assert_usage_error(&[name, flag, &value(flag)], &refused);
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert!(written.is_empty(), "{name} {flag} wrote {written:?}");
    }

    // The plane counts the frames `sched` serves, its 64-frame clip, and
    // nothing else.
    let stats = dir.join("stats.jsonl");
    let out = tvmnp(&["sched", "--stats-out", path_arg(&stats)]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("(64 frame(s) observed)"),
        "{}",
        stdout(&out)
    );
}

/// The measured profile is keyed by the workload alone: one file, named
/// after it.
#[test]
fn the_profile_key_is_the_subcommand_name() {
    let dir = scratch("profile-key");
    let store = ["--profile-store", path_arg(&dir)];
    let out = tvmnp(&[&["bench", "--workload", "sched"][..], &store].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let stored: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(stored, ["profile-sched.json"]);
}

/// `--profile-diff` takes the store directory, read as the workload's
/// file in it, or that one file; both give the same attribution, and a
/// store without the workload's file is a named failure.
#[test]
fn the_profile_diff_baseline_is_a_store_or_its_workload_file() {
    let dir = scratch("profile-diff-baseline");
    let store = dir.join("store");
    let bench = ["bench", "--workload", "sched"];
    let out = tvmnp(&[&bench[..], &["--profile-store", path_arg(&store)]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let file = store.join("profile-sched.json");
    let diff = |baseline: &Path| {
        let out = tvmnp(&[&bench[..], &["--profile-diff", path_arg(baseline)]].concat());
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    let by_dir = diff(&store);
    assert!(
        by_dir.contains("no significant cell movement vs baseline"),
        "{by_dir}"
    );
    assert_eq!(by_dir, diff(&file));

    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = tvmnp(&[&bench[..], &["--profile-diff", path_arg(&empty)]].concat());
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--profile-diff baseline") && err.contains("profile-sched.json"),
        "{err}"
    );
}

/// `bench --workload fig6` profiles the models fig6 measures: one sample
/// per non-launch ledger entry of every zoo model under BYOC CPU+APU.
#[test]
fn the_fig6_profile_covers_the_zoo_fig6_measures() {
    use tvm_neuropilot::hwsim::ledger::CostRole;
    use tvm_neuropilot::models::zoo;
    use tvm_neuropilot::prelude::*;
    let dir = scratch("fig6-profile");
    let store = ["--profile-store", path_arg(&dir)];
    let out = tvmnp(&[&["bench", "--workload", "fig6"][..], &store].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let profile = Profile::read(&dir.join("profile-fig6.json")).expect("the fig6 profile");
    let samples: usize = zoo::zoo(600)
        .iter()
        .map(|model| {
            let mode = TargetMode::Byoc(TargetPolicy::CpuApu);
            let compiled = relay_build(&model.module, mode, CostModel::default()).expect("build");
            let ledger = compiled.estimate_breakdown();
            ledger.iter().filter(|e| e.role != CostRole::Launch).count()
        })
        .sum();
    assert_eq!(profile.total_count() as usize, samples);
}
