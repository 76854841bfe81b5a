//! The observability flags every subcommand shares, the serving flags of
//! the two that serve frames, and the lifecycle of one observed run.
//!
//! Every experiment subcommand accepts:
//!
//! * `--profile` — print a per-op profile table (op, device, calls, total
//!   µs, % of run) after the figure output;
//! * `--trace-out <path>` — write a Chrome trace-event JSON file
//!   (loadable in Perfetto / `chrome://tracing`) covering the compile,
//!   partition, and execute phases of the run.
//!
//! The live-observability flags stand up an
//! [`ObservePlane`](tvm_neuropilot::observe::ObservePlane) for the run:
//!
//! * `--stats-out <path>` — stream periodic quantile-sketch snapshots as
//!   JSONL;
//! * `--flight-out <dir>` — write flight-recorder dumps (the last 1024
//!   events) into `dir` on fault exhaustion, SLO breach, or worker panic;
//! * `--slo-ms <f>` — per-frame latency SLO; a breach triggers a dump.
//!
//! The measured-profile flags collect a `tvmnp-profile` cost database
//! from the cost ledgers of the models the run executes:
//!
//! * `--profile-store <dir>` — save the measured profile into the
//!   content-addressed store at `dir`;
//! * `--profile-diff <path>` — diff the measured profile against a
//!   baseline (a store directory or a single profile file) and print the
//!   ranked attribution table.
//!
//! `bench` takes the same flags minus `--profile` / `--trace-out`.
//!
//! Only `sched` and `bench` serve frames through the session pool and the
//! resilient sessions, so only they accept the serving flags
//! ([`ServeCli`]):
//!
//! * `--inject-fault <spec>` (repeatable) — add one deterministic fault
//!   rule, `<device>:<site>:<kind>[=<value>][@<work>]`, e.g.
//!   `apu:dispatch:transient` or `apu:kernel:throttle=2.5@mac`;
//! * `--fault-seed <n>` — seed for the fault plan's deterministic draws
//!   (default 0);
//! * `--concurrency <n>` — frames in flight for the serving pool
//!   (default 4);
//! * `--cache-dir <path>` — spill the compiled-artifact cache to disk.

use crate::cli::{fail, usage_error, Flag};
use crate::workloads::run_traced;
use std::path::PathBuf;
use std::sync::Arc;
use tvm_neuropilot::models::Model;
use tvm_neuropilot::observe::{ObserveConfig, ObservePlane};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::profile::{diff_profiles, ProfileDiff};
use tvmnp_telemetry::{profile_table, write_chrome_trace};

/// The parsed observability flags, one field per shared flag above.
#[derive(Debug, Clone, Default)]
pub struct ObsCli {
    profile: bool,
    trace_out: Option<PathBuf>,
    stats_out: Option<PathBuf>,
    flight_out: Option<PathBuf>,
    slo_ms: Option<f64>,
    profile_store: Option<PathBuf>,
    profile_diff: Option<PathBuf>,
}

impl ObsCli {
    /// The seven shared flags, the two report flags first.
    pub fn flags(&mut self) -> Vec<Flag<'_>> {
        vec![
            Flag::switch("--profile", &mut self.profile),
            Flag::path("--trace-out", "path", &mut self.trace_out),
            Flag::path("--stats-out", "path", &mut self.stats_out),
            Flag::path("--flight-out", "dir", &mut self.flight_out),
            Flag::value("--slo-ms", "f", &mut self.slo_ms, |&ms| {
                ms.is_finite() && ms > 0.0
            }),
            Flag::path("--profile-store", "dir", &mut self.profile_store),
            Flag::path("--profile-diff", "path", &mut self.profile_diff),
        ]
    }

    /// The flags `bench` shares: it renders no per-op table and writes no
    /// Chrome trace, so its table omits the two report flags rather than
    /// accepting and ignoring them.
    pub fn flags_without_report(&mut self) -> Vec<Flag<'_>> {
        self.flags().split_off(2)
    }

    /// Whether a report of the run itself (`--profile` / `--trace-out`)
    /// was requested.
    pub fn reporting(&self) -> bool {
        self.profile || self.trace_out.is_some()
    }

    /// Whether measured-profile collection was requested.
    pub fn measuring(&self) -> bool {
        self.profile_store.is_some() || self.profile_diff.is_some()
    }

    /// Stand up (and install) the observability plane the three live
    /// flags describe; `None` when none was given. Also enables the telemetry
    /// collector — traced spans are the plane's raw material.
    pub fn build_plane(&self) -> Option<Arc<ObservePlane>> {
        if self.stats_out.is_none() && self.flight_out.is_none() && self.slo_ms.is_none() {
            return None;
        }
        let config = ObserveConfig {
            slo_us: self.slo_ms.map(|ms| ms * 1e3),
            flight_dir: self.flight_out.clone(),
            stats_path: self.stats_out.clone(),
        };
        let plane = ObservePlane::new(config)
            .unwrap_or_else(|e| fail(&format!("failed to stand up observability plane: {e}")));
        let plane = Arc::new(plane);
        tvmnp_telemetry::enable();
        tvmnp_telemetry::reset();
        plane.install();
        Some(plane)
    }

    /// Finish the plane: final stats line, stream flush, sink removal,
    /// and a one-line summary of what was written where.
    pub fn finish_plane(&self, plane: &ObservePlane) {
        if let Err(e) = plane.finish() {
            fail(&format!("failed to flush stats stream: {e}"));
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
        for p in &dumps {
            println!("flight dump written to {}", p.display());
        }
        if dumps.is_empty() && self.flight_out.is_some() {
            println!("no flight dump triggered (no fault exhaustion, SLO breach, or panic)");
        }
    }

    /// Save and/or diff a measured profile per the flags, printing the
    /// store path, the ranked attribution table, and the greppable
    /// `top regression cell:` line. Returns the diff when one was made.
    pub fn measured_profile(&self, profile: Profile) -> Option<ProfileDiff> {
        if profile.total_count() == 0 {
            eprintln!("warning: measured profile is empty (no model ran)");
        }
        if let Some(dir) = &self.profile_store {
            let path = ProfileStore::open(dir)
                .and_then(|store| store.save(&profile))
                .unwrap_or_else(|e| fail(&e.to_string()));
            println!(
                "measured profile written to {} ({} cells, {} samples)",
                path.display(),
                profile.cells.len(),
                profile.total_count()
            );
        }
        // A directory is a profile store (looked up by key), a file one
        // profile.
        let base = self.profile_diff.as_ref()?;
        let baseline = if base.is_dir() {
            ProfileStore::open(base).and_then(|store| store.load(&profile.key))
        } else {
            Profile::read(base)
        }
        .unwrap_or_else(|e| fail(&format!("cannot load the --profile-diff baseline: {e}")));
        let diff = diff_profiles(&baseline, &profile);
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

/// The parsed serving flags of `sched` and `bench`, one field per flag
/// above; the other experiments accept none of them, so for them this is
/// the default: no fault plan, concurrency 4, an in-memory cache.
#[derive(Debug, Clone, Default)]
pub struct ServeCli {
    fault_specs: Vec<String>,
    fault_seed: Option<u64>,
    concurrency: Option<usize>,
    cache_dir: Option<PathBuf>,
}

impl ServeCli {
    /// The four serving flags.
    pub fn flags(&mut self) -> Vec<Flag<'_>> {
        vec![
            Flag::repeatable("--inject-fault", "spec", &mut self.fault_specs),
            Flag::value("--fault-seed", "n", &mut self.fault_seed, |_| true),
            Flag::value("--concurrency", "n", &mut self.concurrency, |&n| n > 0),
            Flag::path("--cache-dir", "path", &mut self.cache_dir),
        ]
    }

    /// The first given flag that only sizes or backs the serving pool
    /// (`--concurrency`, `--cache-dir`): a run that serves no frame
    /// refuses it rather than ignore it.
    pub fn pool_flag(&self) -> Option<&'static str> {
        if self.concurrency.is_some() {
            Some("--concurrency")
        } else if self.cache_dir.is_some() {
            Some("--cache-dir")
        } else {
            None
        }
    }

    /// Frames in flight for the serving pool (`--concurrency`, default 4).
    pub fn concurrency(&self) -> usize {
        self.concurrency.unwrap_or(4)
    }

    /// Fold the `--inject-fault` specs into a seeded [`FaultPlan`]; `None`
    /// when no spec was given. A malformed spec is a usage error.
    pub fn fault_plan(&self, usage: &str) -> Option<FaultPlan> {
        if self.fault_specs.is_empty() {
            return None;
        }
        let mut plan = FaultPlan::seeded(self.fault_seed.unwrap_or(0));
        for spec in &self.fault_specs {
            plan = plan
                .with_spec(spec)
                .unwrap_or_else(|e| usage_error(&format!("bad --inject-fault spec: {e}"), usage));
        }
        Some(plan)
    }

    /// A fresh artifact cache, spilling to `--cache-dir` when given.
    pub fn cache(&self) -> Arc<ArtifactCache> {
        let mut cache = ArtifactCache::new(16 << 20);
        if let Some(dir) = &self.cache_dir {
            cache = cache.with_disk_dir(dir);
        }
        Arc::new(cache)
    }
}

/// The empty measured profile of subcommand or workload `workload`, which
/// the ledgers of the models it runs fill.
pub fn measured_profile_of(workload: &str) -> Profile {
    Profile::new(ProfileKey {
        workload: workload.to_string(),
        permutation: "byoc-cpu-apu".to_string(),
        quant: "f32".to_string(),
        soc: "dimensity-800".to_string(),
    })
}

/// One experiment subcommand's observed run: the parsed flags plus the
/// state accumulated while tracing.
pub struct Session {
    /// The parsed shared flags.
    pub obs: ObsCli,
    /// The parsed serving flags (the defaults unless the subcommand
    /// serves frames).
    pub serve: ServeCli,
    /// Seeded fault plan from `--inject-fault` / `--fault-seed`; `None`
    /// when no fault was requested.
    pub fault_plan: Option<FaultPlan>,
    /// The installed observability plane, when any live flag was given.
    /// Finished and uninstalled by [`Session::finish`].
    pub plane: Option<Arc<ObservePlane>>,
    /// Span name the profile table aggregates (subcommands that execute
    /// no graph override this, e.g. `scheduler.stage` for fig5).
    pub profile_span: &'static str,
    /// The measured profile (keyed by the subcommand name) the models run
    /// via [`Session::trace_model`] record their ledgers into; `None`
    /// unless `--profile-store` / `--profile-diff` was given.
    profile: Option<Profile>,
    /// Frames run so far via [`Session::trace_model`]; feeds
    /// [`ObservePlane::frame_done`].
    frames: usize,
    total_run_us: f64,
}

impl Session {
    /// Parse `args` as the flags of subcommand `workload` — the shared
    /// ones, plus the serving flags when it `serves` frames — and enable
    /// the telemetry collector if any output needs it (fault-injected runs
    /// are always traced so the resilience report has data).
    pub fn start(workload: &'static str, serves: bool, args: &[String]) -> Session {
        let mut obs = ObsCli::default();
        let mut serve = ServeCli::default();
        let mut flags = obs.flags();
        if serves {
            // After the two report flags, as `bench` lists them.
            flags.splice(2..2, serve.flags());
        }
        let usage = crate::cli::parse_or_exit(workload, flags, args);
        let fault_plan = serve.fault_plan(&usage);
        if obs.reporting() || fault_plan.is_some() {
            tvmnp_telemetry::enable();
            tvmnp_telemetry::reset();
        }
        // Last: the plane's build enables + resets the collector itself,
        // so any prior enable above is subsumed, not double-counted.
        let plane = obs.build_plane();
        Session {
            profile: obs.measuring().then(|| measured_profile_of(workload)),
            obs,
            serve,
            fault_plan,
            plane,
            profile_span: "executor.node",
            frames: 0,
            total_run_us: 0.0,
        }
    }

    /// Compile `model` through the BYOC flow and execute one inference so
    /// the trace gains an execute phase with per-node timings, the
    /// observability plane sees a frame, and the measured profile gains
    /// samples. No-op when no telemetry, observe, or profile output was
    /// requested (the figure harnesses measure analytically and never
    /// execute).
    pub fn trace_model(&mut self, model: &Model, cost: &CostModel) {
        if !(self.obs.reporting() || self.profile.is_some() || self.plane.is_some()) {
            return;
        }
        let (compiled, us) = run_traced(model, cost);
        if let Some(profile) = &mut self.profile {
            profile.record_ledger(compiled.estimate_breakdown());
        }
        if let Some(plane) = &self.plane {
            plane.frame_done(&model.name, self.frames, us);
        }
        self.frames += 1;
        self.total_run_us += us;
    }

    /// Emit the requested outputs and disable collection.
    pub fn finish(self) {
        if let Some(plane) = &self.plane {
            self.obs.finish_plane(plane);
        }
        if let Some(profile) = self.profile {
            self.obs.measured_profile(profile);
        }
        tvmnp_telemetry::disable();
        if !self.obs.reporting() {
            return;
        }
        let snap = tvmnp_telemetry::snapshot();
        if self.obs.profile {
            let total_us = (self.total_run_us > 0.0).then_some(self.total_run_us);
            println!("\n== per-op profile (simulated time) ==\n");
            print!("{}", profile_table(&snap, self.profile_span, total_us));
        }
        if let Some(path) = &self.obs.trace_out {
            if let Err(e) = write_chrome_trace(&snap, path) {
                fail(&format!(
                    "{}: failed to write chrome trace: {e}",
                    path.display()
                ));
            }
            println!(
                "\nchrome trace written to {} (open in Perfetto)",
                path.display()
            );
        }
    }
}
