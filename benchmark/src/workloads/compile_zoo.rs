//! `compile_zoo`: the cold compile path with no inference.
//!
//! 14 models × 7 permutations of `byoc::measure_one` (= `relay_build` +
//! `estimate_us`, one bar of Fig. 4/6) plus one import per frontend: 104
//! kinds, one op each. Kernel work is ~0 here, so a kernel or
//! executor-run optimisation must show no change.

use super::{Input, Workload};
use crate::expected;
use crate::fixtures::{showcase_models, FrontendInputs, FRONTENDS};
use crate::harness::{Kind, Outcome};
use crate::replay;
use std::rc::Rc;
use tvm_neuropilot::byoc::{measure_one, Measurement, Permutation};
use tvm_neuropilot::hwsim::CostModel;
use tvm_neuropilot::models::{zoo, Model};

pub struct CompileZoo;

pub struct State {
    models: Vec<Model>,
    frontends: FrontendInputs,
}

/// The measurement `expected.rs` predicts for (model, permutation):
/// whether it compiles, and into how many subgraphs.
fn matches_expected(model: &str, perm: Permutation, got: &Measurement) -> bool {
    let facts = expected::facts(model);
    let (compiles, subgraphs) = match perm {
        Permutation::TvmOnly => (true, 0),
        Permutation::ByocCpu | Permutation::ByocApu | Permutation::ByocCpuApu => {
            (true, facts.byoc_subgraphs)
        }
        Permutation::NpCpu | Permutation::NpApu | Permutation::NpCpuApu => {
            (facts.np_only_compiles, 0)
        }
    };
    got.permutation == perm
        && got.time_ms.is_some() == compiles
        && got.subgraphs == subgraphs
        && got.time_ms.is_none_or(|ms| ms > 0.0)
}

impl Workload for CompileZoo {
    type State = State;

    fn setup(input: &Input) -> State {
        let mut models = zoo::zoo(input.seed);
        models.extend(showcase_models(input.seed.wrapping_add(100)));
        State {
            models,
            frontends: FrontendInputs::new(input.seed.wrapping_add(200)),
        }
    }

    fn kinds(state: State, _input: &Input) -> Result<Vec<Kind>, String> {
        let names: Vec<&str> = state.models.iter().map(|m| m.name.as_str()).collect();
        let listed: Vec<&str> = expected::MODELS.iter().map(|f| f.name).collect();
        if names != listed {
            return Err(format!(
                "model list {names:?} is not expected.rs's {listed:?}"
            ));
        }
        let cost = CostModel::default();
        let models = Rc::new(state.models);
        let mut kinds = Vec::new();
        for mi in 0..models.len() {
            for perm in Permutation::ALL {
                let (run_models, run_cost) = (models.clone(), cost.clone());
                let (replay_models, replay_cost) = (models.clone(), cost.clone());
                let name = format!("measure_one {} / {}", models[mi].name, perm.label());
                kinds.push(
                    Kind::new(name, 1, move |meter| {
                        let model = &run_models[mi];
                        let got = meter.call(|| measure_one(&model.module, perm, &run_cost));
                        match got {
                            Ok(got) => Outcome {
                                sim_us: got.time_ms.unwrap_or(0.0) * 1e3,
                                failed: u32::from(!matches_expected(&model.name, perm, &got)),
                            },
                            Err(_) => Outcome {
                                sim_us: 0.0,
                                failed: 1,
                            },
                        }
                    })
                    .with_replay(move |buf| {
                        replay::build(buf, &replay_models[mi].module, perm.mode(), &replay_cost);
                    }),
                );
            }
        }
        let frontends = Rc::new(state.frontends);
        for (which, frontend) in FRONTENDS.iter().enumerate() {
            let frontends = frontends.clone();
            kinds.push(Kind::new(format!("import {frontend}"), 1, move |meter| {
                let module = meter.call(|| frontends.import(which));
                let ok =
                    module.is_ok_and(|m| m.main().num_calls() == expected::IMPORT_CALLS[which]);
                Outcome {
                    sim_us: 0.0,
                    failed: u32::from(!ok),
                }
            }));
        }
        Ok(kinds)
    }
}
