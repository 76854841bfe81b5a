//! `tvmnp <subcommand> [flags]`: the subcommand table and its dispatch.

use std::process::ExitCode;
use tvmnp_bench::ablation::ablation;
use tvmnp_bench::bench::bench;
use tvmnp_bench::conformance::conformance;
use tvmnp_bench::extensions::{energy, gpu_ext, nnapi};
use tvmnp_bench::figures::{fig4, fig5, fig6, table1, table2};
use tvmnp_bench::obs_check::obs_check;
use tvmnp_bench::sched::sched;
use tvmnp_bench::session::Session;
use Run::{Experiment, Tool};

enum Run {
    /// A figure, table or extension experiment: takes the shared
    /// observability flags, asserts its expected shape, exits 0 or panics.
    Experiment(fn(&mut Session)),
    /// A tool with its own flag table and exit code.
    Tool(fn(&[String]) -> ExitCode),
}

const SUBCOMMANDS: [(&str, Run, &str); 13] = [
    ("fig4", Experiment(fig4), "showcase models x 7 permutations"),
    ("fig5", Experiment(fig5), "pipeline-scheduling prototype"),
    ("fig6", Experiment(fig6), "model zoo x 7 permutations"),
    ("table1", Experiment(table1), "zoo models and data types"),
    ("table2", Experiment(table2), "testbed spec and calibration"),
    ("sched", Experiment(sched), "fastest-target assignment"),
    ("ablation", Experiment(ablation), "design-choice ablations"),
    ("nnapi", Experiment(nnapi), "NNAPI vs NeuroPilot-direct"),
    ("gpu_ext", Experiment(gpu_ext), "mobile-GPU back-end"),
    ("energy", Experiment(energy), "inference energy"),
    ("bench", Tool(bench), "record or gate a BENCH_*.json"),
    ("conformance", Tool(conformance), "differential run, replay"),
    ("obs_check", Tool(obs_check), "check observability files"),
];

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
        Experiment(body) => {
            let mut session = Session::start(name, &args[1..]);
            body(&mut session);
            session.finish();
            ExitCode::SUCCESS
        }
        Tool(tool) => tool(&args[1..]),
    }
}
