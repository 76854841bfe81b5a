//! # tvmnp-bench
//!
//! The experiment harness: one binary, `tvmnp`, with one subcommand per
//! paper table/figure, extension experiment and tool (`cargo run --release
//! -p tvmnp-bench -- <subcommand> [flags]`; `tvmnp` alone lists them).
//! This file holds the subcommand table and alone reads the process
//! arguments; [`cli`] is the one flag parser, [`session`] the flags and
//! run lifecycle every subcommand shares, [`workloads`] the set-ups more
//! than one of them runs.
//!
//! Mapping (see DESIGN.md §4 for the full index):
//! * `fig4`   — inference time of the three showcase models × 7 permutations
//! * `fig5`   — the pipeline schedule prototype
//! * `fig6`   — inference time of the model zoo × 7 permutations
//! * `table1` — zoo models and data types
//! * `table2` — testbed specification
//! * `sched`  — §5.1 computation-scheduling assignment

mod ablation;
mod bench;
mod cli;
mod conformance;
mod extensions;
mod figures;
mod obs_check;
mod sched;
mod session;
mod workloads;

use crate::ablation::ablation;
use crate::bench::bench;
use crate::conformance::conformance;
use crate::extensions::{energy, gpu_ext, nnapi};
use crate::figures::{fig4, fig5, fig6, table1, table2};
use crate::obs_check::obs_check;
use crate::sched::sched;
use crate::session::Session;
use std::process::ExitCode;
use Run::{Experiment, Serving, Tool};

enum Run {
    /// A figure, table or extension experiment: takes the shared
    /// observability flags, asserts its expected shape, exits 0 or panics.
    Experiment(fn(&mut Session)),
    /// An experiment that serves frames: takes the serving flags too.
    Serving(fn(&mut Session)),
    /// A tool with its own flag table and exit code.
    Tool(fn(&[String]) -> ExitCode),
}

const SUBCOMMANDS: [(&str, Run, &str); 13] = [
    ("fig4", Experiment(fig4), "showcase models x 7 permutations"),
    ("fig5", Experiment(fig5), "pipeline-scheduling prototype"),
    ("fig6", Experiment(fig6), "model zoo x 7 permutations"),
    ("table1", Experiment(table1), "zoo models and data types"),
    ("table2", Experiment(table2), "testbed spec and calibration"),
    ("sched", Serving(sched), "fastest-target assignment"),
    ("ablation", Experiment(ablation), "design-choice ablations"),
    ("nnapi", Experiment(nnapi), "NNAPI vs NeuroPilot-direct"),
    ("gpu_ext", Experiment(gpu_ext), "mobile-GPU back-end"),
    ("energy", Experiment(energy), "inference energy"),
    ("bench", Tool(bench), "record or gate a BENCH_*.json"),
    ("conformance", Tool(conformance), "differential run, replay"),
    ("obs_check", Tool(obs_check), "check observability files"),
];

// The one reader of the process arguments (crates/clippy.toml).
#[allow(clippy::disallowed_methods)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = args.first().map(String::as_str);
    let Some((name, run, _)) = SUBCOMMANDS.iter().find(|(n, ..)| Some(*n) == subcommand) else {
        eprintln!(
            "error: expected a subcommand, got '{}'",
            subcommand.unwrap_or("")
        );
        eprintln!("usage: tvmnp <subcommand> [flags]");
        for (name, _, about) in &SUBCOMMANDS {
            eprintln!("  {name:<12} {about}");
        }
        return ExitCode::from(2);
    };
    match run {
        Experiment(body) | Serving(body) => {
            let serves = matches!(run, Serving(_));
            let mut session = Session::start(name, serves, &args[1..]);
            body(&mut session);
            session.finish();
            ExitCode::SUCCESS
        }
        Tool(tool) => tool(&args[1..]),
    }
}
