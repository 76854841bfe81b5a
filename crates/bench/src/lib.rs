//! # tvmnp-bench
//!
//! The experiment harness: one binary, `tvmnp`, with one subcommand per
//! paper table/figure, extension experiment and tool (`cargo run --release
//! -p tvmnp-bench -- <subcommand> [flags]`; `tvmnp` alone lists them).
//! `main.rs` holds the subcommand table and alone reads the process
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

use tvm_neuropilot::prelude::*;

pub mod ablation;
pub mod bench;
pub mod cli;
pub mod conformance;
pub mod extensions;
pub mod figures;
pub mod obs_check;
pub mod sched;
pub mod session;
pub mod workloads;

/// Render one figure group (a model's seven bars) as an aligned text row
/// set, using `--` for missing bars as the paper's figures do.
pub fn render_permutation_rows(model: &str, measurements: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{model}\n"));
    for m in measurements {
        let bar = match m.time_ms {
            Some(t) => format!("{t:10.3} ms"),
            None => format!("{:>10}   ", "--"),
        };
        let sub = if m.subgraphs > 0 {
            format!("  [{} subgraph(s)]", m.subgraphs)
        } else {
            String::new()
        };
        out.push_str(&format!("  {:<16} {bar}{sub}\n", m.permutation.label()));
    }
    out
}

/// Measure one model across the seven permutations and render it.
pub fn figure_group(
    model: &tvm_neuropilot::models::Model,
    cost: &CostModel,
) -> (Vec<Measurement>, String) {
    let ms = measure_all(&model.module, cost).expect("measure");
    let rendered = render_permutation_rows(&model.name, &ms);
    (ms, rendered)
}

/// Shape checks shared by the figure harnesses: TVM-only slowest among
/// compiling bars; missing bars only in NP-only modes.
pub fn check_figure_shape(model: &str, ms: &[Measurement]) {
    let tvm = ms[0].time_ms.expect("TVM-only always compiles");
    for r in &ms[1..] {
        if let Some(t) = r.time_ms {
            assert!(
                tvm > t,
                "{model}: TVM-only ({tvm:.3}) must exceed {} ({t:.3})",
                r.permutation
            );
        }
    }
    for r in ms {
        if r.time_ms.is_none() {
            assert!(
                matches!(
                    r.permutation,
                    Permutation::NpCpu | Permutation::NpApu | Permutation::NpCpuApu
                ),
                "{model}: only NP-only bars may be missing"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm_neuropilot::models::zoo;

    #[test]
    fn figure_group_renders_and_checks() {
        let cost = CostModel::default();
        let model = zoo::mobilenet_v1(1);
        let (ms, text) = figure_group(&model, &cost);
        check_figure_shape(&model.name, &ms);
        assert!(text.contains("TVM-only"));
        assert!(text.contains("mobilenet v1"));
    }

    #[test]
    fn missing_bars_render_as_dashes() {
        let cost = CostModel::default();
        let model = zoo::nasnet(1);
        let (ms, text) = figure_group(&model, &cost);
        check_figure_shape(&model.name, &ms);
        assert!(text.contains("--"));
    }
}
