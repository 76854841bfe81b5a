//! The `obs_check` subcommand.

use crate::cli::{parse_or_exit, usage_error, Flag};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tvm_neuropilot::observe::validate_dump;
use tvm_neuropilot::profile::{validate_profile, Profile};

/// The parsed `obs_check` flags.
#[derive(Default)]
pub struct ObsCheckCli {
    stats: Option<PathBuf>,
    flight_dir: Option<PathBuf>,
    expect_kinds: Vec<String>,
    profiles: Vec<PathBuf>,
}

impl ObsCheckCli {
    /// The four flags.
    pub fn flags(&mut self) -> Vec<Flag<'_>> {
        vec![
            Flag::path("--stats", "stats.jsonl", &mut self.stats),
            Flag::path("--flight-dir", "dir", &mut self.flight_dir),
            Flag::repeatable("--expect-kind", "kind", &mut self.expect_kinds),
            Flag::repeatable("--profile", "profile.json", &mut self.profiles),
        ]
    }
}

/// Read one JSON artifact and run its schema validator over it.
fn load_validated(
    path: &Path,
    validate: fn(&serde_json::Value) -> Option<String>,
) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: unreadable: {e}", path.display()))?;
    let doc = serde_json::from_str(&text)
        .map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    match validate(&doc) {
        Some(problem) => Err(format!("{}: schema violation: {problem}", path.display())),
        None => Ok(doc),
    }
}

/// Validate the JSONL stats stream: every line parses, carries the
/// stats-line envelope, has monotonically increasing `seq`, and the last
/// line is the `final` flush.
fn check_stats(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: unreadable: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err(format!("{}: stats stream is empty", path.display()));
    }
    let mut last_seq = 0u64;
    let mut last_reason = String::new();
    for (i, line) in lines.iter().enumerate() {
        let at = |problem: String| format!("{}: line {}: {problem}", path.display(), i + 1);
        let v: serde_json::Value =
            serde_json::from_str(line).map_err(|e| at(format!("invalid JSON: {e}")))?;
        if v["type"].as_str() != Some("stats") {
            return Err(at("type != \"stats\"".into()));
        }
        let seq = v["seq"].as_u64().ok_or_else(|| at("missing seq".into()))?;
        if seq <= last_seq {
            return Err(at(format!("seq {seq} not increasing (prev {last_seq})")));
        }
        last_seq = seq;
        if v["stats"]["series"].as_array().is_none() {
            return Err(at("stats.series is not an array".into()));
        }
        // Internal consistency: every series must satisfy
        // min <= p50 <= p95 <= p99 <= max.
        if let Some(series) = v["stats"]["series"].as_array() {
            for s in series {
                let q = |k: &str| s[k].as_f64().unwrap_or(0.0);
                let key = s["key"].as_str().unwrap_or("<unkeyed>");
                let slack = 1e-9;
                if !(q("min_us") <= q("p50_us") + slack
                    && q("p50_us") <= q("p95_us") + slack
                    && q("p95_us") <= q("p99_us") + slack
                    && q("p99_us") <= q("max_us") + slack)
                {
                    return Err(at(format!("series '{key}' quantiles not monotone")));
                }
            }
        }
        last_reason = v["reason"].as_str().unwrap_or_default().to_string();
    }
    if last_reason != "final" {
        return Err(format!(
            "{}: last line's reason is '{last_reason}', expected 'final'",
            path.display()
        ));
    }
    println!(
        "stats OK: {} ({} line(s), final seq {})",
        path.display(),
        lines.len(),
        last_seq
    );
    Ok(())
}

/// Schema-check every `flight-*.json` in `dir` and assert each
/// `--expect-kind` appears in at least one dump's event window.
fn check_flight(dir: &Path, expect_kinds: &[String]) -> Result<(), String> {
    let mut dumps = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: unreadable: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("flight-") && name.ends_with(".json") {
            dumps.push(entry.path());
        }
    }
    if dumps.is_empty() {
        return Err(format!("{}: no flight-*.json dumps found", dir.display()));
    }
    dumps.sort();
    let mut seen_kinds: Vec<String> = Vec::new();
    for path in &dumps {
        let doc = load_validated(path, validate_dump)?;
        if let Some(events) = doc["events"].as_array() {
            for e in events {
                if let Some(kind) = e["kind"].as_str() {
                    if !seen_kinds.iter().any(|k| k == kind) {
                        seen_kinds.push(kind.to_string());
                    }
                }
            }
        }
        println!("flight OK: {}", path.display());
    }
    for want in expect_kinds {
        if !seen_kinds.iter().any(|k| k == want) {
            return Err(format!(
                "{}: no dump contains an event of kind '{want}' (saw: {})",
                dir.display(),
                seen_kinds.join(", ")
            ));
        }
    }
    if !expect_kinds.is_empty() {
        println!("flight kinds OK: {}", expect_kinds.join(", "));
    }
    Ok(())
}

/// Schema-check one measured-profile file: valid JSON, the
/// `tvmnp-profile` schema validator passes, and the file round-trips
/// through the typed loader.
fn check_profile(path: &Path) -> Result<(), String> {
    load_validated(path, validate_profile)?;
    let profile = Profile::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "profile OK: {} ({} cell(s), {} sample(s))",
        path.display(),
        profile.cells.len(),
        profile.total_count()
    );
    Ok(())
}

/// Observability artifact checker for CI.
///
/// Three modes, composable in one invocation:
///
/// ```text
/// tvmnp obs_check --stats <stats.jsonl>      # schema-check the JSONL stats stream
/// tvmnp obs_check --flight-dir <dir> [--expect-kind <kind>]...
///                                            # schema-check every flight-*.json,
///                                            # assert the expected event kinds appear
/// tvmnp obs_check --profile <profile.json>   # schema-check a measured-profile file
///                                            # (repeatable)
/// ```
///
/// Exit code 0 means every requested check passed.
pub fn obs_check(argv: &[String]) -> ExitCode {
    let mut args = ObsCheckCli::default();
    let usage = parse_or_exit("obs_check", args.flags(), argv);
    if args.stats.is_none() && args.flight_dir.is_none() && args.profiles.is_empty() {
        usage_error(
            "nothing to do — pass --stats, --flight-dir, and/or --profile",
            &usage,
        );
    }
    let mut checks: Vec<Result<(), String>> = Vec::new();
    if let Some(path) = &args.stats {
        checks.push(check_stats(path));
    }
    if let Some(dir) = &args.flight_dir {
        checks.push(check_flight(dir, &args.expect_kinds));
    }
    for path in &args.profiles {
        checks.push(check_profile(path));
    }
    let mut ok = true;
    for check in checks {
        if let Err(e) = check {
            eprintln!("error: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
