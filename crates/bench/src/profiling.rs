//! `--profile` / `--trace-out <path>` / fault-injection support for the
//! bench binaries.
//!
//! Every figure/table binary accepts:
//!
//! * `--profile` — print a per-op profile table (op, device, calls, total
//!   µs, % of run) after the figure output;
//! * `--trace-out <path>` — write a Chrome trace-event JSON file
//!   (loadable in Perfetto / `chrome://tracing`) covering the compile,
//!   partition, and execute phases of the run;
//! * `--inject-fault <spec>` (repeatable) — add one deterministic fault
//!   rule, `<device>:<site>:<kind>[=<value>][@<work>]`, e.g.
//!   `apu:dispatch:transient` or `apu:kernel:throttle=2.5@mac`;
//! * `--fault-seed <n>` — seed for the fault plan's deterministic draws
//!   (default 0).
//!
//! The live-observability flags stand up an
//! [`ObservePlane`](tvm_neuropilot::observe::ObservePlane) for the run:
//!
//! * `--stats-out <path>` — stream periodic quantile-sketch snapshots as
//!   JSONL;
//! * `--flight-out <dir>` — write flight-recorder dumps into `dir` on
//!   fault exhaustion, SLO breach, or worker panic;
//! * `--flight-buffer <n>` — flight-recorder ring capacity (default 1024);
//! * `--slo-ms <f>` — per-frame latency SLO; a breach triggers a dump.
//!
//! The measured-profile flags collect a `tvmnp-profile` cost database
//! from the run (telemetry detail mode):
//!
//! * `--profile-store <dir>` — save the measured profile into the
//!   content-addressed store at `dir`;
//! * `--profile-diff <path>` — diff the measured profile against a
//!   baseline (a store directory or a single profile file) and print the
//!   ranked attribution table.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tvm_neuropilot::models::Model;
use tvm_neuropilot::observe::{ObserveConfig, ObservePlane};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::profile::{diff_profiles, DiffOptions, ProfileDiff};
use tvmnp_telemetry::{profile_table, write_chrome_trace};

/// Parsed live-observability flags, shared by the bench binaries.
#[derive(Debug, Clone, Default)]
pub struct ObserveCli {
    /// JSONL stats-stream path (`--stats-out`).
    pub stats_out: Option<PathBuf>,
    /// Flight-dump directory (`--flight-out`).
    pub flight_out: Option<PathBuf>,
    /// Flight-recorder ring capacity (`--flight-buffer`, default 1024).
    pub flight_buffer: Option<usize>,
    /// Per-frame SLO in milliseconds (`--slo-ms`).
    pub slo_ms: Option<f64>,
}

impl ObserveCli {
    /// Whether any observability output was requested.
    pub fn active(&self) -> bool {
        self.stats_out.is_some()
            || self.flight_out.is_some()
            || self.flight_buffer.is_some()
            || self.slo_ms.is_some()
    }

    /// Try to consume one observability flag at `arg`, pulling values
    /// from `args`. Returns whether the flag was recognized; exits with
    /// a usage error on a malformed value.
    pub fn consume(&mut self, arg: &str, args: &mut dyn Iterator<Item = String>) -> bool {
        let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        match arg {
            "--stats-out" => {
                self.stats_out = Some(PathBuf::from(value(args, "--stats-out")));
            }
            "--flight-out" => {
                self.flight_out = Some(PathBuf::from(value(args, "--flight-out")));
            }
            "--flight-buffer" => {
                let v = value(args, "--flight-buffer");
                let n: usize = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --flight-buffer expects a positive integer, got '{v}'");
                    std::process::exit(2);
                });
                if n == 0 {
                    eprintln!("error: --flight-buffer must be at least 1");
                    std::process::exit(2);
                }
                self.flight_buffer = Some(n);
            }
            "--slo-ms" => {
                let v = value(args, "--slo-ms");
                let ms: f64 = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --slo-ms expects a float, got '{v}'");
                    std::process::exit(2);
                });
                if !ms.is_finite() || ms <= 0.0 {
                    eprintln!("error: --slo-ms must be positive");
                    std::process::exit(2);
                }
                self.slo_ms = Some(ms);
            }
            _ => return false,
        }
        true
    }

    /// Stand up (and install) the observability plane these flags
    /// describe; `None` when no flag was given. Also enables the
    /// telemetry collector — traced spans are the plane's raw material.
    pub fn build_plane(&self) -> Option<Arc<ObservePlane>> {
        if !self.active() {
            return None;
        }
        let config = ObserveConfig {
            slo_us: self.slo_ms.map(|ms| ms * 1e3),
            flight_capacity: self.flight_buffer.unwrap_or(1024),
            flight_dir: self.flight_out.clone(),
            stats_path: self.stats_out.clone(),
            ..ObserveConfig::default()
        };
        let plane = match ObservePlane::new(config) {
            Ok(p) => Arc::new(p),
            Err(e) => {
                eprintln!("error: failed to stand up observability plane: {e}");
                std::process::exit(1);
            }
        };
        tvmnp_telemetry::enable();
        tvmnp_telemetry::reset();
        plane.install();
        Some(plane)
    }

    /// Finish the plane: final stats line, stream flush, sink removal,
    /// and a one-line summary of what was written where.
    pub fn finish_plane(&self, plane: &Arc<ObservePlane>) {
        if let Err(e) = plane.finish() {
            eprintln!("error: failed to flush stats stream: {e}");
            std::process::exit(1);
        }
        ObservePlane::uninstall();
        if let Some(path) = &self.stats_out {
            println!(
                "stats stream written to {} ({} frame(s) observed)",
                path.display(),
                plane.frames()
            );
        }
        let dumps = plane.dump_paths();
        if !dumps.is_empty() {
            for p in &dumps {
                println!("flight dump written to {}", p.display());
            }
        } else if self.flight_out.is_some() {
            println!("no flight dump triggered (no fault exhaustion, SLO breach, or panic)");
        }
    }
}

/// Parsed measured-profile flags (`--profile-store` / `--profile-diff`),
/// shared by the bench binaries and the `bench` regression harness.
#[derive(Debug, Clone, Default)]
pub struct ProfileCli {
    /// Store directory to save the measured profile into.
    pub store_dir: Option<PathBuf>,
    /// Baseline to diff against: a store directory or a profile file.
    pub diff_base: Option<PathBuf>,
}

impl ProfileCli {
    /// Whether measured-profile collection was requested.
    pub fn active(&self) -> bool {
        self.store_dir.is_some() || self.diff_base.is_some()
    }

    /// Try to consume one profile flag at `arg`, pulling values from
    /// `args`. Returns whether the flag was recognized.
    pub fn consume(&mut self, arg: &str, args: &mut dyn Iterator<Item = String>) -> bool {
        let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a path");
                std::process::exit(2);
            })
        };
        match arg {
            "--profile-store" => {
                self.store_dir = Some(PathBuf::from(value(args, "--profile-store")));
            }
            "--profile-diff" => {
                self.diff_base = Some(PathBuf::from(value(args, "--profile-diff")));
            }
            _ => return false,
        }
        true
    }

    /// Resolve the baseline profile for `key`: a directory is treated as
    /// a profile store (looked up by key), a file as one profile.
    fn load_baseline(path: &Path, key: &ProfileKey) -> Result<Profile, String> {
        if path.is_dir() {
            let store = ProfileStore::open(path).map_err(|e| e.to_string())?;
            store.load(key).map_err(|e| e.to_string())
        } else {
            Profile::read(path).map_err(|e| e.to_string())
        }
    }

    /// Save and/or diff the collected profile per the flags, printing the
    /// store path, the ranked attribution table, and the greppable
    /// `top regression cell:` line. Returns the diff when one was made.
    pub fn report(&self, profile: &mut Profile) -> Option<ProfileDiff> {
        if profile.total_count() == 0 {
            eprintln!("warning: measured profile is empty (no detail-mode executor spans)");
        }
        if let Some(dir) = &self.store_dir {
            let store = tvm_neuropilot::profile::ProfileStore::open(dir).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            match store.save(profile) {
                Ok(path) => println!(
                    "measured profile written to {} ({} cells, {} samples)",
                    path.display(),
                    profile.cells.len(),
                    profile.total_count()
                ),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        let base_path = self.diff_base.as_ref()?;
        let baseline = match Self::load_baseline(base_path, &profile.key) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: --profile-diff: {e}");
                std::process::exit(1);
            }
        };
        let diff = diff_profiles(&baseline, profile, &DiffOptions::default());
        println!();
        print!("{}", diff.render());
        match diff.top() {
            Some(top) => println!(
                "top regression cell: {} (ratio {:.2}x, {:+.1} us total)",
                top.cell, top.ratio, top.delta_total_us
            ),
            None => println!("no significant cell movement vs baseline"),
        }
        Some(diff)
    }
}

/// Parsed telemetry flags plus the state accumulated while profiling.
pub struct TelemetryCli {
    /// Print the per-op profile table at the end.
    pub profile: bool,
    /// Write a Chrome trace to this path at the end.
    pub trace_out: Option<PathBuf>,
    /// Seeded fault plan from `--inject-fault`/`--fault-seed`; `None`
    /// when no fault was requested.
    pub fault_plan: Option<FaultPlan>,
    /// Span name the profile table aggregates (bins that execute no graph
    /// override this, e.g. `scheduler.stage` for fig5).
    pub profile_span: &'static str,
    /// Frames in flight for the serving pool (`--concurrency N`).
    pub concurrency: usize,
    /// Compiled-artifact cache directory (`--cache-dir <path>`); `None`
    /// keeps the cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Parsed live-observability flags.
    pub observe: ObserveCli,
    /// The installed observability plane, when any observe flag was
    /// given. Finished and uninstalled by [`TelemetryCli::finish`].
    pub plane: Option<Arc<ObservePlane>>,
    /// Parsed measured-profile flags (`--profile-store`/`--profile-diff`).
    pub profile_cli: ProfileCli,
    /// Workload name stamped into the measured profile's key (the
    /// binary's file stem, e.g. `fig4`).
    workload: String,
    /// Frames run so far via [`TelemetryCli::trace_model`]; feeds
    /// [`ObservePlane::frame_done`].
    frames: usize,
    total_run_us: f64,
}

impl TelemetryCli {
    /// Parse `--profile` / `--trace-out <path>` / `--inject-fault <spec>`
    /// / `--fault-seed <n>` from the process args and enable the
    /// telemetry collector if any is present (fault-injected runs are
    /// always traced so the resilience report has data).
    pub fn from_env() -> TelemetryCli {
        let mut profile = false;
        let mut trace_out = None;
        let mut fault_specs: Vec<String> = Vec::new();
        let mut fault_seed = 0u64;
        let mut concurrency = 4usize;
        let mut cache_dir = None;
        let mut observe = ObserveCli::default();
        let mut profile_cli = ProfileCli::default();
        let workload = std::env::args()
            .next()
            .and_then(|p| {
                Path::new(&p)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "bench".to_string());
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if observe.consume(a.as_str(), &mut args) {
                continue;
            }
            if profile_cli.consume(a.as_str(), &mut args) {
                continue;
            }
            match a.as_str() {
                "--profile" => profile = true,
                "--concurrency" => {
                    let Some(v) = args.next() else {
                        eprintln!("error: --concurrency requires an integer argument");
                        std::process::exit(2);
                    };
                    concurrency = v.parse().unwrap_or_else(|_| {
                        eprintln!("error: --concurrency expects a positive integer, got '{v}'");
                        std::process::exit(2);
                    });
                    if concurrency == 0 {
                        eprintln!("error: --concurrency must be at least 1");
                        std::process::exit(2);
                    }
                }
                "--cache-dir" => {
                    let Some(path) = args.next() else {
                        eprintln!("error: --cache-dir requires a path argument");
                        std::process::exit(2);
                    };
                    cache_dir = Some(PathBuf::from(path));
                }
                "--trace-out" => {
                    let Some(path) = args.next() else {
                        eprintln!("error: --trace-out requires a path argument");
                        std::process::exit(2);
                    };
                    trace_out = Some(PathBuf::from(path));
                }
                "--inject-fault" => {
                    let Some(spec) = args.next() else {
                        eprintln!("error: --inject-fault requires a spec argument");
                        std::process::exit(2);
                    };
                    fault_specs.push(spec);
                }
                "--fault-seed" => {
                    let Some(v) = args.next() else {
                        eprintln!("error: --fault-seed requires an integer argument");
                        std::process::exit(2);
                    };
                    fault_seed = v.parse().unwrap_or_else(|_| {
                        eprintln!("error: --fault-seed expects an integer, got '{v}'");
                        std::process::exit(2);
                    });
                }
                other => {
                    eprintln!(
                        "error: unknown argument '{other}' \
                         (supported: --profile, --trace-out <path>, \
                         --inject-fault <spec>, --fault-seed <n>, \
                         --concurrency <n>, --cache-dir <path>, \
                         --stats-out <path>, --flight-out <dir>, \
                         --flight-buffer <n>, --slo-ms <f>, \
                         --profile-store <dir>, --profile-diff <path>)"
                    );
                    std::process::exit(2);
                }
            }
        }
        let fault_plan = build_fault_plan(&fault_specs, fault_seed);
        let mut cli = TelemetryCli {
            profile,
            trace_out,
            fault_plan,
            profile_span: "executor.node",
            concurrency,
            cache_dir,
            observe,
            plane: None,
            profile_cli,
            workload,
            frames: 0,
            total_run_us: 0.0,
        };
        if cli.active() || cli.fault_plan.is_some() || cli.profile_cli.active() {
            tvmnp_telemetry::enable();
            tvmnp_telemetry::reset();
        }
        // Last: the plane's build enables + resets the collector itself,
        // so any prior enable above is subsumed, not double-counted.
        cli.plane = cli.observe.build_plane();
        if cli.profile_cli.active() {
            // Detail mode stamps kind/energy/analytic args onto executor
            // spans so the profile store can bin them. Confined to this
            // run: finish() clears it before any report is rendered.
            tvmnp_telemetry::set_detail(true);
        }
        cli
    }

    /// Whether any telemetry output was requested.
    pub fn active(&self) -> bool {
        self.profile || self.trace_out.is_some()
    }

    /// Compile `model` through the BYOC flow and execute one inference so
    /// the trace gains an execute phase with per-node timings, the
    /// observability plane sees a frame, and the measured profile gains
    /// samples. No-op when no telemetry, observe, or profile output was
    /// requested (the figure harnesses measure analytically and never
    /// execute).
    pub fn trace_model(&mut self, model: &Model, cost: &CostModel) {
        if !(self.active() || self.profile_cli.active() || self.plane.is_some()) {
            return;
        }
        let mut compiled = relay_build(
            &model.module,
            TargetMode::Byoc(TargetPolicy::CpuApu),
            cost.clone(),
        )
        .expect("profiling build");
        let (_, us) = compiled
            .run(&model.sample_inputs(7))
            .expect("profiling run");
        if let Some(plane) = &self.plane {
            plane.frame_done(&model.name, self.frames, us);
        }
        self.frames += 1;
        self.total_run_us += us;
    }

    /// Emit the requested outputs and disable collection.
    pub fn finish(mut self) {
        if let Some(plane) = &self.plane {
            self.observe.finish_plane(plane);
        }
        if self.profile_cli.active() {
            tvmnp_telemetry::set_detail(false);
            tvmnp_telemetry::disable();
            let snap = tvmnp_telemetry::snapshot();
            let mut profile = Profile::new(ProfileKey {
                workload: std::mem::take(&mut self.workload),
                permutation: "byoc-cpu-apu".to_string(),
                quant: "f32".to_string(),
                soc: "dimensity-800".to_string(),
            });
            profile.ingest_snapshot(&snap);
            self.profile_cli.report(&mut profile);
        }
        if !self.active() {
            if self.fault_plan.is_some() || self.plane.is_some() || self.profile_cli.active() {
                tvmnp_telemetry::disable();
            }
            return;
        }
        tvmnp_telemetry::disable();
        let snap = tvmnp_telemetry::snapshot();
        if self.profile {
            let total_us = (self.total_run_us > 0.0).then_some(self.total_run_us);
            println!("\n== per-op profile (simulated time) ==\n");
            print!("{}", profile_table(&snap, self.profile_span, total_us));
        }
        if let Some(path) = &self.trace_out {
            if let Err(e) = write_chrome_trace(&snap, path) {
                eprintln!(
                    "error: {}: failed to write chrome trace: {e}",
                    path.display()
                );
                std::process::exit(1);
            }
            println!(
                "\nchrome trace written to {} (open in Perfetto)",
                path.display()
            );
        }
    }
}

/// Fold `--inject-fault` specs into a seeded [`FaultPlan`]; `None` when
/// no spec was given. Exits with a usage error on a malformed spec (same
/// contract as the binaries' other flag errors).
pub fn build_fault_plan(specs: &[String], seed: u64) -> Option<FaultPlan> {
    if specs.is_empty() {
        return None;
    }
    let mut plan = FaultPlan::seeded(seed);
    for spec in specs {
        plan = plan.with_spec(spec).unwrap_or_else(|e| {
            eprintln!("error: --inject-fault: {e}");
            std::process::exit(2);
        });
    }
    Some(plan)
}
