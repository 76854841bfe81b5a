//! `deploy_cache`: the compile layer used differently — writes beside
//! reads.
//!
//! Over the 4 showcase models × {BYOC CPU+APU, NP-only CPU+APU, TVM-only}:
//! 12 **cold** `get_or_build` (fresh cache over an empty directory: build,
//! insert, disk write), 12 **warm** (memory hit → instantiate) and 12
//! **disk** (fresh memory tier over the directory set-up seeded); plus
//! Listing 6's flow for the 4 BYOC artifacts: `export_library` (4) and
//! `load_library` + `AndroidDevice::load` (4). 44 kinds, one op each. An
//! NP-only build NeuroPilot refuses is an expected refusal, still an op.

use super::{Input, Workload};
use crate::expected;
use crate::fixtures::showcase_models;
use crate::harness::{Kind, Outcome};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use tvm_neuropilot::byoc::build::relay_build_with_artifact;
use tvm_neuropilot::byoc::{
    relay_build, ArtifactCache, BuildError, CacheStats, CompiledModel, NeuronModule, Permutation,
};
use tvm_neuropilot::hwsim::CostModel;
use tvm_neuropilot::models::Model;
use tvm_neuropilot::runtime::{AndroidDevice, Artifact, LoaderRegistry};
use tvm_neuropilot::tensor::Tensor;

pub struct DeployCache;

pub const PERMUTATIONS: [Permutation; 3] = [
    Permutation::ByocCpuApu,
    Permutation::NpCpuApu,
    Permutation::TvmOnly,
];

pub struct State {
    models: Vec<Model>,
    /// Memory tier holding every compilable pair, over `seeded_dir`.
    warm: ArtifactCache,
    seeded_dir: PathBuf,
    /// The BYOC CPU+APU artifact of each model and where set-up exported it.
    artifacts: Vec<(Artifact, PathBuf)>,
}

fn quant(model: &Model) -> String {
    ArtifactCache::quant_label(model.input_quant)
}

fn stats_moved(before: CacheStats, after: CacheStats) -> (u64, u64, u64) {
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.evictions - before.evictions,
    )
}

/// What a fresh `relay_build` of one (model, permutation) gives, or
/// `None` for a refusal.
struct FreshBuild {
    /// Outputs on the run's inputs and the simulated µs `run` returned.
    outputs: Vec<Tensor>,
    run_us: f64,
    /// What `estimate_us` and `num_subgraphs` say without running.
    estimate_us: f64,
    subgraphs: usize,
}
type Fresh = Option<FreshBuild>;

/// Every call checks the cheap facts; running the model costs as much as
/// the op itself, so each kind runs it on its first call and every
/// `FULL_CHECK_EVERY`th after, staggered by kind.
const FULL_CHECK_EVERY: usize = 4;

/// Whether `got` is the model `fresh` describes: refused where it is
/// refused, else the same simulated time and subgraph count and — when
/// `run_it` — bit-equal outputs. Returns the verdict and the simulated µs.
fn same_as_fresh(
    got: Result<CompiledModel, BuildError>,
    fresh: &Fresh,
    inputs: &HashMap<String, Tensor>,
    run_it: bool,
) -> (bool, f64) {
    match (got, fresh) {
        (Err(BuildError::Unsupported(_)), None) => (true, 0.0),
        (Ok(mut model), Some(want)) => {
            let cheap =
                model.estimate_us() == want.estimate_us && model.num_subgraphs() == want.subgraphs;
            let full = !run_it
                || model.run(inputs).is_ok_and(|(outs, t)| {
                    t == want.run_us
                        && outs.len() == want.outputs.len()
                        && outs.iter().zip(&want.outputs).all(|(a, b)| a.bit_eq(b))
                });
            (cheap && full, want.run_us)
        }
        _ => (false, 0.0),
    }
}

fn remove_files(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

impl Workload for DeployCache {
    type State = State;

    fn setup(input: &Input) -> State {
        let cost = CostModel::default();
        let root = input.work.join(format!("setup-{}", input.setup_index));
        let seeded_dir = root.join("cache");
        let lib_dir = root.join("lib");
        std::fs::create_dir_all(&lib_dir).expect("work directory is writable");
        let models = showcase_models(input.seed);
        let warm = ArtifactCache::new(usize::MAX).with_disk_dir(&seeded_dir);
        for m in &models {
            for p in PERMUTATIONS {
                // An expected refusal seeds nothing; `kinds` audits them.
                let _ = warm.get_or_build(&m.module, p.mode(), &cost, &quant(m));
            }
        }
        let artifacts = models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let (_, artifact) =
                    relay_build_with_artifact(&m.module, PERMUTATIONS[0].mode(), cost.clone())
                        .expect("BYOC builds every showcase model");
                let artifact = artifact.expect("TVM-side builds export artifacts");
                let path = lib_dir.join(format!("model-{i}.so.json"));
                artifact.export_library(&path).expect("library exports");
                (artifact, path)
            })
            .collect();
        State {
            models,
            warm,
            seeded_dir,
            artifacts,
        }
    }

    fn kinds(state: State, input: &Input) -> Result<Vec<Kind>, String> {
        let cost = CostModel::default();
        let models = Rc::new(state.models);
        let inputs: Vec<Rc<HashMap<String, Tensor>>> = models
            .iter()
            .map(|m| Rc::new(m.sample_inputs(input.seed.wrapping_add(50))))
            .collect();

        // References: a fresh build of every pair, audited against
        // expected.rs's refusals.
        let mut fresh: Vec<Rc<Fresh>> = Vec::new();
        for (mi, m) in models.iter().enumerate() {
            for p in PERMUTATIONS {
                let np_refused =
                    p == Permutation::NpCpuApu && !expected::facts(&m.name).np_only_compiles;
                let built = match relay_build(&m.module, p.mode(), cost.clone()) {
                    Ok(mut c) if !np_refused => {
                        let (outputs, run_us) = c.run(&inputs[mi]).map_err(|e| e.to_string())?;
                        Some(FreshBuild {
                            outputs,
                            run_us,
                            estimate_us: c.estimate_us(),
                            subgraphs: c.num_subgraphs(),
                        })
                    }
                    Err(BuildError::Unsupported(_)) if np_refused => None,
                    Ok(_) => {
                        return Err(format!(
                            "{}: NP-only compiled, expected.rs says refused",
                            m.name
                        ))
                    }
                    Err(e) => return Err(format!("{} / {}: {e}", m.name, p.label())),
                };
                fresh.push(Rc::new(built));
            }
        }

        let cold_dir = input.work.join("cold");
        let export_dir = input.work.join("export");
        for d in [&cold_dir, &export_dir] {
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        let warm = Rc::new(state.warm);
        let seeded_dir = Rc::new(state.seeded_dir);

        /// Which tier serves the request.
        #[derive(Clone, Copy, PartialEq)]
        enum Tier {
            Cold,
            Warm,
            Disk,
        }
        let mut kinds = Vec::new();
        for (tier, label) in [
            (Tier::Cold, "cold"),
            (Tier::Warm, "warm"),
            (Tier::Disk, "disk"),
        ] {
            for mi in 0..models.len() {
                for (pi, p) in PERMUTATIONS.into_iter().enumerate() {
                    let (models, inputs, cost) = (models.clone(), inputs[mi].clone(), cost.clone());
                    let fresh = fresh[mi * PERMUTATIONS.len() + pi].clone();
                    let (warm, seeded_dir, cold_dir) =
                        (warm.clone(), seeded_dir.clone(), cold_dir.clone());
                    let name = format!("{label} get_or_build {} / {}", models[mi].name, p.label());
                    // Counting from the kind's index staggers the full checks.
                    let first_call = kinds.len();
                    let mut calls = first_call;
                    kinds.push(Kind::new(name, 1, move |meter| {
                        let m = &models[mi];
                        let q = quant(m);
                        let before = warm.stats();
                        let (got, moved) = meter.call(|| match tier {
                            Tier::Warm => (warm.get_or_build(&m.module, p.mode(), &cost, &q), None),
                            Tier::Cold | Tier::Disk => {
                                let dir = if tier == Tier::Cold {
                                    &*cold_dir
                                } else {
                                    &**seeded_dir
                                };
                                let cache = ArtifactCache::new(usize::MAX).with_disk_dir(dir);
                                let got = cache.get_or_build(&m.module, p.mode(), &cost, &q);
                                (got, Some(cache.stats()))
                            }
                        });
                        let moved = match moved {
                            Some(stats) => stats_moved(CacheStats::default(), stats),
                            None => stats_moved(before, warm.stats()),
                        };
                        // A refused build is a miss on every tier; a cold
                        // build is a miss; warm and disk requests are hits.
                        let want = if fresh.is_none() || tier == Tier::Cold {
                            (0, 1, 0)
                        } else {
                            (1, 0, 0)
                        };
                        if tier == Tier::Cold {
                            remove_files(&cold_dir);
                        }
                        let run_it = calls == first_call || calls % FULL_CHECK_EVERY == 0;
                        calls += 1;
                        let (same, sim_us) = same_as_fresh(got, &fresh, &inputs, run_it);
                        Outcome {
                            sim_us,
                            failed: u32::from(!(same && moved == want)),
                        }
                    }));
                }
            }
        }

        let artifacts = Rc::new(state.artifacts);
        for mi in 0..models.len() {
            let (models, artifacts) = (models.clone(), artifacts.clone());
            let path = export_dir.join(format!("model-{mi}.so.json"));
            kinds.push(Kind::new(
                format!("export_library {}", models[mi].name),
                1,
                move |meter| {
                    let (artifact, seeded) = &artifacts[mi];
                    let exported = meter.call(|| artifact.export_library(&path));
                    // The same artifact must serialize to the same bytes.
                    let same = exported.is_ok()
                        && std::fs::read(&path)
                            .ok()
                            .is_some_and(|b| Some(b) == std::fs::read(seeded).ok());
                    Outcome {
                        sim_us: 0.0,
                        failed: u32::from(!same),
                    }
                },
            ));
        }
        let phone = Rc::new({
            let mut loaders = LoaderRegistry::new();
            loaders.register("neuropilot", NeuronModule::loader(cost.clone()));
            AndroidDevice::new("OPPO Reno4 Z 5G", loaders, cost)
        });
        for mi in 0..models.len() {
            let (models, artifacts, phone) = (models.clone(), artifacts.clone(), phone.clone());
            let inputs = inputs[mi].clone();
            let fresh = fresh[mi * PERMUTATIONS.len()].clone();
            kinds.push(Kind::new(
                format!("load_library {}", models[mi].name),
                1,
                move |meter| {
                    let loaded = meter.call(|| {
                        Artifact::load_library(&artifacts[mi].1)
                            .map_err(|e| e.to_string())
                            .and_then(|a| phone.load(&a).map_err(|e| e.to_string()))
                    });
                    let Some(want) = &*fresh else {
                        unreachable!("BYOC builds every showcase model")
                    };
                    let same = loaded.is_ok_and(|mut ex| {
                        let name = &models[mi].input_name;
                        ex.set_input(name, inputs[name].clone()).is_ok()
                            && ex.run().is_ok_and(|t| t == want.run_us)
                            && ex.num_outputs() == want.outputs.len()
                            && (0..want.outputs.len())
                                .all(|i| ex.get_output(i).is_ok_and(|o| o.bit_eq(&want.outputs[i])))
                    });
                    Outcome {
                        sim_us: want.run_us,
                        failed: u32::from(!same),
                    }
                },
            ));
        }
        Ok(kinds)
    }
}
