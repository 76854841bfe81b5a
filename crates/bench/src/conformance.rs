//! The `conformance` subcommand.

use crate::cli::{parse_or_exit, Flag};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tvmnp_conformance::{read_repro, run_suite, write_repro, CheckOptions, SuiteConfig};

/// The parsed `conformance` flags.
#[derive(Default)]
pub struct ConformanceCli {
    cases: Option<usize>,
    seed: Option<u64>,
    quant_every: Option<usize>,
    out_dir: Option<PathBuf>,
    replay: Option<PathBuf>,
}

impl ConformanceCli {
    /// The five flags.
    pub fn flags(&mut self) -> Vec<Flag<'_>> {
        vec![
            Flag::value("--cases", "n", &mut self.cases, |_| true),
            Flag::value("--seed", "s", &mut self.seed, |_| true),
            Flag::value("--quant-every", "k", &mut self.quant_every, |_| true),
            Flag::path("--out-dir", "dir", &mut self.out_dir),
            Flag::path("--replay", "file.repro", &mut self.replay),
        ]
    }
}

fn replay(path: &Path) -> ExitCode {
    let repro = match read_repro(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("conformance: cannot load {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {} (captured kind: {}, spec: {})",
        path.display(),
        repro.kind,
        repro.spec
    );
    match repro.replay() {
        Ok(outcome) => {
            println!(
                "PASS: case no longer fails ({} compared, {} skipped)",
                outcome.permutations_compared, outcome.permutations_skipped
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            println!("FAIL: {failure}");
            ExitCode::FAILURE
        }
    }
}

/// Differential conformance CLI: seeded generative runs across the seven
/// target permutations, plus `.repro` replay.
///
/// ```text
/// # Fixed-seed smoke (CI): 200 cases, fail on any divergence/invariant.
/// tvmnp conformance --cases 200 --seed 1
///
/// # Longer hunt, writing shrunk .repro files for every failure.
/// tvmnp conformance --cases 5000 --seed 7 --out-dir target/conformance
///
/// # Replay a captured case. Exit 0 = no longer fails (fixed),
/// # exit 1 = still fails, exit 2 = the file cannot be read.
/// tvmnp conformance --replay target/conformance/divergence-BYOC-APU-seed42.repro
/// ```
pub fn conformance(argv: &[String]) -> ExitCode {
    let mut args = ConformanceCli::default();
    parse_or_exit("conformance", args.flags(), argv);
    if let Some(path) = &args.replay {
        return replay(path);
    }

    let cfg = SuiteConfig {
        cases: args.cases.unwrap_or(200),
        base_seed: args.seed.unwrap_or(1),
        quant_every: args.quant_every.unwrap_or(3),
        options: CheckOptions::default(),
    };
    let report = run_suite(&cfg);
    println!(
        "conformance: {} cases ({} quantized), {} permutations compared, {} skipped, {} subgraphs",
        report.cases_run,
        report.quant_cases,
        report.permutations_compared,
        report.permutations_skipped,
        report.total_subgraphs
    );
    if report.passed() {
        println!("conformance: all cases bit-identical across the seven permutations");
        return ExitCode::SUCCESS;
    }
    eprintln!("conformance: {} FAILING case(s)", report.failures.len());
    for f in &report.failures {
        eprintln!(
            "  seed {}: {} (shrunk to {} nodes)",
            f.case_seed,
            f.failure,
            f.repro.spec.num_nodes()
        );
        if let Some(dir) = &args.out_dir {
            let path = dir.join(format!("{}.repro", f.repro.file_stem()));
            match write_repro(&path, &f.repro) {
                Ok(()) => eprintln!("    wrote {}", path.display()),
                Err(e) => eprintln!("    failed to write {}: {e}", path.display()),
            }
        }
    }
    ExitCode::FAILURE
}
