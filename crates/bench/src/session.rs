//! The report flags every experiment subcommand takes, the serving flags
//! of the two that serve frames, and the lifecycle of one observed run.
//!
//! Every experiment subcommand accepts the report flags ([`ObsCli`]):
//!
//! * `--profile` — print a per-op profile table (op, device, calls, total
//!   µs, % of run) after the figure output;
//! * `--trace-out <path>` — write a Chrome trace-event JSON file
//!   (loadable in Perfetto / `chrome://tracing`) covering the compile,
//!   partition, and execute phases of the run.
//!
//! `bench` takes neither: it renders no per-op table and writes no trace.
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
//! * `--cache-dir <path>` — spill the compiled-artifact cache to disk;
//!
//! and the live-plane flags, which stand up an
//! [`ObservePlane`](tvm_neuropilot::observe::ObservePlane) over the
//! served frames:
//!
//! * `--stats-out <path>` — stream periodic quantile-sketch snapshots as
//!   JSONL;
//! * `--flight-out <dir>` — write flight-recorder dumps (the last 1024
//!   events) into `dir` on fault exhaustion, SLO breach, or worker panic;
//! * `--slo-ms <f>` — per-frame latency SLO; a breach triggers a dump.
//!
//! A measured profile has one producer, `bench --profile-store` (see
//! [`crate::bench`]).

use crate::cli::{fail, usage_error, Flag};
use crate::workloads::run_traced;
use std::path::PathBuf;
use std::sync::Arc;
use tvm_neuropilot::models::Model;
use tvm_neuropilot::observe::{ObserveConfig, ObservePlane};
use tvm_neuropilot::prelude::*;
use tvmnp_telemetry::{profile_table, write_chrome_trace};

/// The parsed report flags, one field per flag above.
#[derive(Debug, Clone, Default)]
pub(crate) struct ObsCli {
    profile: bool,
    trace_out: Option<PathBuf>,
}

impl ObsCli {
    /// The two report flags.
    pub(crate) fn flags(&mut self) -> Vec<Flag<'_>> {
        vec![
            Flag::switch("--profile", &mut self.profile),
            Flag::path("--trace-out", "path", &mut self.trace_out),
        ]
    }

    /// Whether a report of the run itself (`--profile` / `--trace-out`)
    /// was requested.
    fn reporting(&self) -> bool {
        self.profile || self.trace_out.is_some()
    }
}

/// The parsed serving flags of `sched` and `bench`, one field per flag
/// above; the other experiments accept none of them, so for them this is
/// the default: no fault plan, concurrency 4, an in-memory cache, no
/// observability plane.
#[derive(Debug, Clone, Default)]
pub(crate) struct ServeCli {
    fault_specs: Vec<String>,
    fault_seed: Option<u64>,
    concurrency: Option<usize>,
    cache_dir: Option<PathBuf>,
    stats_out: Option<PathBuf>,
    flight_out: Option<PathBuf>,
    slo_ms: Option<f64>,
}

impl ServeCli {
    /// The seven serving flags, the three live-plane flags last.
    pub(crate) fn flags(&mut self) -> Vec<Flag<'_>> {
        vec![
            Flag::repeatable("--inject-fault", "spec", &mut self.fault_specs),
            Flag::value("--fault-seed", "n", &mut self.fault_seed, |_| true),
            Flag::value("--concurrency", "n", &mut self.concurrency, |&n| n > 0),
            Flag::path("--cache-dir", "path", &mut self.cache_dir),
            Flag::path("--stats-out", "path", &mut self.stats_out),
            Flag::path("--flight-out", "dir", &mut self.flight_out),
            Flag::value("--slo-ms", "f", &mut self.slo_ms, |&ms| {
                ms.is_finite() && ms > 0.0
            }),
        ]
    }

    /// Stand up (and install) the observability plane the three live
    /// flags describe; `None` when none was given. Also enables the telemetry
    /// collector — traced spans are the plane's raw material.
    pub(crate) fn build_plane(&self) -> Option<Arc<ObservePlane>> {
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
    pub(crate) fn finish_plane(&self, plane: &ObservePlane) {
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

    /// The first given flag that only the serving pool reads (its size and
    /// cache, `--concurrency` / `--cache-dir`, or the live plane it feeds,
    /// `--stats-out` / `--flight-out` / `--slo-ms`): a run that serves no
    /// frame refuses it rather than ignore it.
    pub(crate) fn pool_flag(&self) -> Option<&'static str> {
        [
            (self.concurrency.is_some(), "--concurrency"),
            (self.cache_dir.is_some(), "--cache-dir"),
            (self.stats_out.is_some(), "--stats-out"),
            (self.flight_out.is_some(), "--flight-out"),
            (self.slo_ms.is_some(), "--slo-ms"),
        ]
        .into_iter()
        .find_map(|(given, flag)| given.then_some(flag))
    }

    /// Frames in flight for the serving pool (`--concurrency`, default 4).
    pub(crate) fn concurrency(&self) -> usize {
        self.concurrency.unwrap_or(4)
    }

    /// Fold the `--inject-fault` specs into a seeded [`FaultPlan`]; `None`
    /// when no spec was given. A malformed spec is a usage error.
    pub(crate) fn fault_plan(&self, usage: &str) -> Option<FaultPlan> {
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
    pub(crate) fn cache(&self) -> Arc<ArtifactCache> {
        let mut cache = ArtifactCache::new(16 << 20);
        if let Some(dir) = &self.cache_dir {
            cache = cache.with_disk_dir(dir);
        }
        Arc::new(cache)
    }
}

/// One experiment subcommand's observed run: the parsed flags plus the
/// state accumulated while tracing.
pub(crate) struct Session {
    /// The parsed report flags.
    obs: ObsCli,
    /// The parsed serving flags (the defaults unless the subcommand
    /// serves frames).
    pub serve: ServeCli,
    /// Seeded fault plan from `--inject-fault` / `--fault-seed`; `None`
    /// when no fault was requested.
    pub fault_plan: Option<FaultPlan>,
    /// The installed observability plane, when any live-plane flag was
    /// given. Finished and uninstalled by [`Session::finish`].
    pub plane: Option<Arc<ObservePlane>>,
    /// Span name the profile table aggregates (subcommands that execute
    /// no graph override this, e.g. `scheduler.stage` for fig5).
    pub profile_span: &'static str,
    total_run_us: f64,
}

impl Session {
    /// Parse `args` as the flags of subcommand `workload` — the report
    /// flags, plus the serving flags when it `serves` frames — and enable
    /// the telemetry collector if any output needs it (fault-injected runs
    /// are always traced so the resilience report has data).
    pub(crate) fn start(workload: &'static str, serves: bool, args: &[String]) -> Session {
        let mut obs = ObsCli::default();
        let mut serve = ServeCli::default();
        let mut flags = obs.flags();
        if serves {
            flags.extend(serve.flags());
        }
        let usage = crate::cli::parse_or_exit(workload, flags, args);
        let fault_plan = serve.fault_plan(&usage);
        if obs.reporting() || fault_plan.is_some() {
            tvmnp_telemetry::enable();
            tvmnp_telemetry::reset();
        }
        // Last: the plane's build enables + resets the collector itself,
        // so any prior enable above is subsumed, not double-counted.
        let plane = serve.build_plane();
        Session {
            obs,
            serve,
            fault_plan,
            plane,
            profile_span: "executor.node",
            total_run_us: 0.0,
        }
    }

    /// Compile `model` through the BYOC flow and execute one inference so
    /// the trace gains an execute phase with per-node timings. No-op unless
    /// `--profile` or `--trace-out` was given (the figure harnesses measure
    /// analytically and never execute). The run is no served frame: an
    /// observability plane does not see it.
    pub(crate) fn trace_model(&mut self, model: &Model, cost: &CostModel) {
        if !self.obs.reporting() {
            return;
        }
        self.total_run_us += run_traced(model, cost).1;
    }

    /// Emit the requested outputs and disable collection.
    pub(crate) fn finish(self) {
        if let Some(plane) = &self.plane {
            self.serve.finish_plane(plane);
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
