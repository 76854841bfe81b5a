//! `infer_zoo`: the steady-state run path.
//!
//! `CompiledModel::run` on pre-built zoo models — four float32, two int8 —
//! under TVM-only, BYOC CPU+APU and, where NeuroPilot compiles the model,
//! NP-only CPU+APU: 15 kinds, one op each. Compiling is set-up, so
//! compile-path work moved into build time shows as `setup_s` up and
//! `ops_per_s` flat.

use super::{Input, Workload};
use crate::expected;
use crate::harness::{Kind, Outcome};
use crate::replay;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use tvm_neuropilot::byoc::{relay_build, BuildError, CompiledModel, Permutation};
use tvm_neuropilot::hwsim::CostModel;
use tvm_neuropilot::models::{zoo, Model};
use tvm_neuropilot::relay::interp::run_module;
use tvm_neuropilot::tensor::Tensor;

pub struct InferZoo;

/// The permutations each model is built under.
pub const PERMUTATIONS: [Permutation; 3] = [
    Permutation::TvmOnly,
    Permutation::ByocCpuApu,
    Permutation::NpCpuApu,
];

/// Kinds `expected.rs` implies: 6 models × 3 permutations minus the three
/// NP-only refusals (nasnet, densenet, inception-resnet-v2).
pub const KINDS: usize = 15;

pub struct State {
    models: Vec<Model>,
    inputs: Vec<HashMap<String, Tensor>>,
    /// (model index, permutation, build result).
    built: Vec<(usize, Permutation, Result<CompiledModel, BuildError>)>,
}

/// The six models, seeded.
pub fn models(seed: u64) -> Vec<Model> {
    vec![
        zoo::mobilenet_v1(seed),
        zoo::nasnet(seed.wrapping_add(1)),
        zoo::densenet(seed.wrapping_add(2)),
        zoo::inception_resnet_v2(seed.wrapping_add(3)),
        zoo::mobilenet_v1_quant(seed.wrapping_add(4)),
        zoo::mobilenet_v2_quant(seed.wrapping_add(5)),
    ]
}

impl Workload for InferZoo {
    type State = State;

    fn setup(input: &Input) -> State {
        let cost = CostModel::default();
        let models = models(input.seed);
        let inputs = models
            .iter()
            .map(|m| m.sample_inputs(input.seed.wrapping_add(50)))
            .collect();
        let built = models
            .iter()
            .enumerate()
            .flat_map(|(mi, m)| {
                let cost = &cost;
                PERMUTATIONS
                    .iter()
                    .map(move |&p| (mi, p, relay_build(&m.module, p.mode(), cost.clone())))
            })
            .collect();
        State {
            models,
            inputs,
            built,
        }
    }

    fn kinds(state: State, _input: &Input) -> Result<Vec<Kind>, String> {
        // The reference: the Relay interpreter, never a compiled path.
        let references: Vec<Tensor> = state
            .models
            .iter()
            .zip(&state.inputs)
            .map(|(m, i)| run_module(&m.module, i).map_err(|e| format!("{}: {e}", m.name)))
            .collect::<Result<_, _>>()?;
        let inputs: Vec<Rc<HashMap<String, Tensor>>> =
            state.inputs.into_iter().map(Rc::new).collect();

        let mut kinds = Vec::new();
        for (mi, perm, built) in state.built {
            let name = &state.models[mi].name;
            let np_only = perm == Permutation::NpCpuApu;
            let compiled = match built {
                Ok(compiled) => compiled,
                Err(BuildError::Unsupported(_))
                    if np_only && !expected::facts(name).np_only_compiles =>
                {
                    continue; // an expected refusal is not a kind
                }
                Err(e) => return Err(format!("{name} / {}: {e}", perm.label())),
            };
            if np_only && !expected::facts(name).np_only_compiles {
                return Err(format!(
                    "{name}: NP-only compiled, expected.rs says refused"
                ));
            }
            let compiled = Rc::new(RefCell::new(compiled));
            let (run_model, run_inputs) = (compiled.clone(), inputs[mi].clone());
            let (replay_model, replay_inputs) = (compiled, inputs[mi].clone());
            let reference = references[mi].clone();
            kinds.push(
                Kind::new(
                    format!("run {name} / {}", perm.label()),
                    1,
                    move |meter| match meter.call(|| run_model.borrow_mut().run(&run_inputs)) {
                        Ok((outs, sim_us)) => Outcome {
                            sim_us,
                            failed: u32::from(
                                !(outs.len() == 1 && outs[0].bit_eq(&reference) && sim_us > 0.0),
                            ),
                        },
                        Err(_) => Outcome {
                            sim_us: 0.0,
                            failed: 1,
                        },
                    },
                )
                .with_replay(move |buf| {
                    replay::run(buf, &mut replay_model.borrow_mut(), &replay_inputs);
                }),
            );
        }
        if kinds.len() != KINDS {
            return Err(format!("{} kinds built, expected {KINDS}", kinds.len()));
        }
        Ok(kinds)
    }
}
