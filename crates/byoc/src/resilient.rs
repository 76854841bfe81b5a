//! Resilient execution across the seven target permutations.
//!
//! A production deployment on millions of phones cannot treat an APU
//! driver hiccup as fatal: real mobile runtimes (NNAPI, TVM's
//! multi-backend runtime) fall back to the next-best target. This module
//! is that story for the reproduction: a [`ResilientSession`] runs a model
//! starting at its preferred permutation and, when a device faults past
//! the retry budget or its circuit breaker opens, **re-plans for the next
//! permutation down the paper-ordered chain**
//! ([`Permutation::FALLBACK_CHAIN`]): NeuroPilot-APU → NeuroPilot-CPU+APU
//! → BYOC-CPU → TVM-only.
//!
//! Every retry, fallback, and breaker trip emits telemetry
//! (`resilience.*` counters and spans) so `tvmnp-report` can render a
//! resilience report; numerics are bit-identical no matter how far the
//! session degrades, because every backend computes on the same host
//! kernels (the property the fallback-correctness tests pin down).
#![deny(clippy::unwrap_used)]

use crate::build::{relay_build, BuildError, CompiledModel, TargetMode};
use crate::permutations::Permutation;
use std::collections::HashMap;
use std::sync::Arc;
use tvmnp_hwsim::{CircuitBreaker, CostModel, DeviceKind, FaultInjector, RetryPolicy};
use tvmnp_relay::expr::Module;
use tvmnp_runtime::{ExecErrorKind, RunOptions};
use tvmnp_tensor::Tensor;

/// Why one permutation was abandoned on the way down the chain.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCause {
    /// Permutation that was given up on.
    pub permutation: Permutation,
    /// Stage it failed at: `breaker`, `compile`, `build`, or `run`.
    pub stage: &'static str,
    /// Human-readable cause.
    pub detail: String,
}

impl std::fmt::Display for FaultCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.permutation, self.stage, self.detail)
    }
}

/// A resilient run's failure: either every permutation in the chain was
/// exhausted (carrying the full fault cause chain) or a non-fault build
/// error that no fallback can route around.
#[derive(Debug, Clone, PartialEq)]
pub enum ResilienceError {
    /// The whole fallback chain failed; `causes` records why each step
    /// was abandoned, in chain order.
    Exhausted {
        /// Model label the session was running.
        model: String,
        /// One entry per abandoned permutation, in order.
        causes: Vec<FaultCause>,
    },
    /// A permutation failed for a reason that is neither a device fault
    /// nor a coverage gap — falling back would hide a real bug.
    Build {
        /// Permutation that failed.
        permutation: Permutation,
        /// The underlying build/run error.
        error: BuildError,
    },
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilienceError::Exhausted { model, causes } => {
                write!(f, "fallback chain exhausted for '{model}': ")?;
                for (i, c) in causes.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            ResilienceError::Build { permutation, error } => {
                write!(f, "{permutation} failed: {error}")
            }
        }
    }
}

impl std::error::Error for ResilienceError {}

/// A successful resilient run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Model outputs — bit-identical to a fault-free run of any
    /// permutation (host kernels everywhere).
    pub outputs: Vec<Tensor>,
    /// Simulated time of the successful attempt, including retry
    /// overhead, microseconds.
    pub time_us: f64,
    /// Permutation that finally served the run.
    pub permutation: Permutation,
    /// Permutations abandoned on the way, with why (empty = no
    /// degradation).
    pub fallbacks: Vec<FaultCause>,
}

impl RunOutcome {
    /// Whether the run degraded off its preferred permutation.
    pub fn degraded(&self) -> bool {
        !self.fallbacks.is_empty()
    }
}

/// Physical devices a permutation dispatches through — what its faults
/// strike and what its breaker check consults.
fn permutation_devices(p: Permutation) -> Vec<DeviceKind> {
    match p.mode() {
        TargetMode::TvmOnly => vec![DeviceKind::Cpu],
        TargetMode::NeuroPilotOnly(policy) => policy.devices().to_vec(),
        TargetMode::Byoc(policy) => {
            // BYOC always keeps a host side: the graph executor dispatches
            // the non-offloaded remainder on the CPU.
            let mut d = policy.devices().to_vec();
            if !d.contains(&DeviceKind::Cpu) {
                d.push(DeviceKind::Cpu);
            }
            d
        }
    }
}

/// A permutation abandoned gracefully: the stage it failed at (`breaker`,
/// `compile`, `build` or `run`) and why.
type Abandoned = (&'static str, String);

/// Sort an error into a fault/coverage condition the chain may degrade
/// past (`Ok(Err(..))`) or a real failure that no fallback may hide.
fn graceful<T>(err: BuildError) -> Result<Result<T, Abandoned>, BuildError> {
    match &err {
        BuildError::Unsupported(op) => Ok(Err(("build", format!("unsupported op '{op}'")))),
        BuildError::Exec(e) if e.kind() == ExecErrorKind::DeviceFault => {
            Ok(Err(("run", e.to_string())))
        }
        _ => Err(err),
    }
}

/// Runs one Relay model with retries, a per-device circuit breaker, and
/// graceful fallback down the permutation chain.
///
/// Sessions can share one [`FaultInjector`]: a showcase pipeline running
/// three models shares fault history, so a device that died during model
/// 1 trips its breaker and models 2 and 3 skip it outright instead of
/// rediscovering the fault.
pub struct ResilientSession {
    module: Module,
    cost: CostModel,
    injector: Arc<FaultInjector>,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    /// Ordinal of the next resilience event, used as the sim-span
    /// timestamp so fallback events order deterministically in traces.
    event_seq: u64,
    /// Shared artifact cache: fallback re-dispatch reuses the cached
    /// compilation of each permutation instead of recompiling. The string
    /// is the quant-config label of the cache key.
    cache: Option<(Arc<crate::cache::ArtifactCache>, String)>,
}

impl ResilientSession {
    /// Session over `module` whose runs dispatch through `injector`,
    /// retrying transient faults per `retry`. The plan's thermal throttles
    /// are the caller's to price into `cost`
    /// ([`tvmnp_hwsim::FaultPlan::throttled_cost`]).
    pub fn with_injector(
        module: Module,
        cost: CostModel,
        injector: Arc<FaultInjector>,
        retry: RetryPolicy,
    ) -> ResilientSession {
        ResilientSession {
            module,
            cost,
            injector,
            retry,
            breaker: CircuitBreaker::default(),
            event_seq: 0,
            cache: None,
        }
    }

    /// Reuse compiled artifacts through `cache`: every (module,
    /// permutation) build inside this session — including fallback
    /// re-dispatch after a fault — is served from the cache when present.
    /// `quant` labels the module's quantization config in the cache key.
    pub fn with_cache(
        mut self,
        cache: Arc<crate::cache::ArtifactCache>,
        quant: impl Into<String>,
    ) -> Self {
        self.cache = Some((cache, quant.into()));
        self
    }

    /// Build (or load from the cache) the module for one target mode.
    fn build_model(&self, mode: TargetMode) -> Result<CompiledModel, BuildError> {
        match &self.cache {
            Some((cache, quant)) => cache.get_or_build(&self.module, mode, &self.cost, quant),
            None => relay_build(&self.module, mode, self.cost.clone()),
        }
    }

    /// Feed current per-device fault counts into the breaker, emitting a
    /// `resilience.breaker_trips` counter per newly opened device.
    fn update_breaker(&mut self) {
        for d in DeviceKind::ALL {
            if self.breaker.note(d, self.injector.faults_on(d)) {
                tvmnp_telemetry::counter_add(
                    "resilience.breaker_trips",
                    &[("device", d.name())],
                    1,
                );
            }
        }
    }

    /// Record one fallback transition as telemetry: a zero-width sim span
    /// carrying the structured cause (model, from-permutation,
    /// to-permutation, cause stage/detail), and — when an event sink
    /// (flight recorder) is installed — a `resilience.fallback` event with
    /// the same fields.
    fn record_fallback(
        &mut self,
        model: &str,
        from: Permutation,
        to: Option<Permutation>,
        cause: &FaultCause,
    ) {
        let to_label = to.map(|p| p.label()).unwrap_or("<exhausted>");
        let fields: tvmnp_telemetry::Fields = vec![
            ("model", model.to_string().into()),
            ("from", from.label().into()),
            ("to", to_label.into()),
            ("cause", cause.stage.into()),
            ("detail", cause.detail.clone().into()),
        ];
        let ts_us = self.event_seq as f64;
        tvmnp_telemetry::record_sim_span("resilience.fallback", ts_us, 0.0, fields.clone());
        tvmnp_telemetry::emit_event("resilience.fallback", fields);
        self.event_seq += 1;
    }

    /// Try one permutation: breaker check, compile-time faults, build, run.
    /// `Ok(Err(..))` when it was abandoned gracefully and the chain should
    /// move on; `Err` for a failure falling back would hide.
    fn attempt(
        &mut self,
        perm: Permutation,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<Result<(Vec<Tensor>, f64), Abandoned>, BuildError> {
        // Circuit breakers: skip permutations that need a device the
        // session has already given up on.
        let devices = permutation_devices(perm);
        if let Some(&dead) = devices.iter().find(|&&d| self.breaker.is_open(d)) {
            return Ok(Err(("breaker", format!("circuit breaker open for {dead}"))));
        }
        // Compile-time faults (driver rejecting the network).
        if let Some(fault) = devices.iter().find_map(|&d| self.injector.on_compile(d)) {
            self.update_breaker();
            if tvmnp_telemetry::sink_active() {
                tvmnp_telemetry::emit_event(
                    "fault.injected",
                    vec![
                        ("stage", "compile".into()),
                        ("device", fault.device.name().into()),
                        // `detail` (unindexed), not `cause`: the
                        // description is free text and must not mint
                        // a counter key per distinct fault.
                        ("detail", fault.description.clone().into()),
                    ],
                );
            }
            return Ok(Err(("compile", fault.description)));
        }
        // Build; coverage gaps (NP-only unsupported ops) degrade
        // gracefully, real build bugs do not.
        let mut compiled = match self.build_model(perm.mode()) {
            Ok(compiled) => compiled,
            Err(err) => return graceful(err),
        };
        let opts = RunOptions {
            injector: Some(&self.injector),
            retry: self.retry,
        };
        let ran = compiled.run_with(inputs, &opts);
        self.update_breaker();
        ran.map(Ok).or_else(graceful)
    }

    /// Run the model on named `inputs`, starting at permutation `start`
    /// and degrading down [`Permutation::fallback_chain`] as faults
    /// demand. `model` labels telemetry and errors.
    pub fn run(
        &mut self,
        model: &str,
        start: Permutation,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<RunOutcome, ResilienceError> {
        let chain = Permutation::fallback_chain(start);
        let mut causes: Vec<FaultCause> = Vec::new();
        for (step, &perm) in chain.iter().enumerate() {
            let faults_before = self.injector.faults_injected();
            let (stage, detail) = match self.attempt(perm, inputs) {
                Ok(Ok((outputs, time_us))) => {
                    let recovered =
                        !causes.is_empty() || self.injector.faults_injected() > faults_before;
                    if recovered {
                        tvmnp_telemetry::counter_add("resilience.recovered", &[], 1);
                    }
                    tvmnp_telemetry::gauge_set(
                        "resilience.final_us",
                        &[("model", model), ("permutation", perm.label())],
                        time_us,
                    );
                    return Ok(RunOutcome {
                        outputs,
                        time_us,
                        permutation: perm,
                        fallbacks: causes,
                    });
                }
                Ok(Err(abandoned)) => abandoned,
                Err(error) => {
                    return Err(ResilienceError::Build {
                        permutation: perm,
                        error,
                    })
                }
            };
            let cause = FaultCause {
                permutation: perm,
                stage,
                detail,
            };
            self.record_fallback(model, perm, chain.get(step + 1).copied(), &cause);
            causes.push(cause);
        }
        tvmnp_telemetry::counter_add("resilience.failed", &[], 1);
        if tvmnp_telemetry::sink_active() {
            // Flight-recorder dump trigger: the whole chain is gone.
            tvmnp_telemetry::emit_event(
                "resilience.exhausted",
                vec![
                    ("model", model.to_string().into()),
                    ("cause", causes.last().map_or("unknown", |c| c.stage).into()),
                ],
            );
        }
        Err(ResilienceError::Exhausted {
            model: model.to_string(),
            causes,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tvmnp_hwsim::FaultPlan;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{var, Function};
    use tvmnp_relay::{Conv2dAttrs, TensorType};
    use tvmnp_tensor::rng::TensorRng;

    fn model() -> (Module, HashMap<String, Tensor>) {
        let mut rng = TensorRng::new(53);
        let x = var("x", TensorType::f32([1, 8, 14, 14]));
        let w = rng.uniform_f32([16, 8, 3, 3], -0.4, 0.4);
        let c = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        let y = builder::softmax(builder::batch_flatten(c));
        let m = Module::from_main(Function::new(vec![x], y));
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), rng.uniform_f32([1, 8, 14, 14], -1.0, 1.0));
        (m, inputs)
    }

    /// A session over `m` under `plan`, and the injector it consults.
    fn session(m: Module, plan: FaultPlan) -> (ResilientSession, Arc<FaultInjector>) {
        let injector = Arc::new(FaultInjector::new(plan));
        let session = ResilientSession::with_injector(
            m,
            CostModel::default(),
            injector.clone(),
            RetryPolicy::default(),
        );
        (session, injector)
    }

    /// The seed-7 plan of one spec.
    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::seeded(7).with_spec(spec).unwrap()
    }

    #[test]
    fn no_faults_no_degradation() {
        let (m, inputs) = model();
        let (mut s, injector) = session(m, FaultPlan::seeded(0));
        let out = s.run("m", Permutation::NpApu, &inputs).unwrap();
        assert_eq!(out.permutation, Permutation::NpApu);
        assert!(!out.degraded());
        assert_eq!(injector.faults_injected(), 0);
    }

    #[test]
    fn apu_loss_falls_back_with_identical_numerics() {
        let (m, inputs) = model();
        // NP-only APU needs the lost device; NP-only CPU+APU plans this
        // small model on the CPU alone and serves it.
        let (mut s, _) = session(m.clone(), plan("apu:dispatch:device-lost"));
        let out = s.run("m", Permutation::NpApu, &inputs).unwrap();
        assert!(out.degraded(), "APU loss must force a fallback");
        assert_eq!(out.permutation, Permutation::NpCpuApu);
        // Fault-free reference on the permutation the chain lands on.
        let mut reference =
            relay_build(&m, Permutation::NpCpuApu.mode(), CostModel::default()).unwrap();
        let (ref_outs, _) = reference.run(&inputs).unwrap();
        assert!(
            out.outputs[0].bit_eq(&ref_outs[0]),
            "degraded run must be bit-identical to the fault-free run"
        );
        assert!(out.fallbacks.iter().any(|c| c.detail.contains("apu")));
    }

    #[test]
    fn exhausted_chain_carries_full_cause_chain() {
        let (m, inputs) = model();
        let both_lost = plan("apu:dispatch:device-lost")
            .with_spec("cpu:dispatch:device-lost")
            .unwrap();
        let (mut s, _) = session(m, both_lost);
        let err = s.run("m", Permutation::NpApu, &inputs).unwrap_err();
        let ResilienceError::Exhausted { model, causes } = err else {
            panic!("expected Exhausted, got {err}");
        };
        assert_eq!(model, "m");
        // Every chain step is accounted for.
        assert_eq!(causes.len(), Permutation::FALLBACK_CHAIN.len());
        for (cause, perm) in causes.iter().zip(Permutation::FALLBACK_CHAIN) {
            assert_eq!(cause.permutation, perm);
            assert!(!cause.detail.is_empty());
        }
        assert!(causes.iter().any(|c| c.detail.contains("apu")));
        assert!(causes.iter().any(|c| c.detail.contains("cpu")));
    }

    /// Each rejected compile is one APU fault; the third opens the APU's
    /// breaker, after which the chain skips the APU permutations without
    /// asking the driver again.
    #[test]
    fn compile_rejects_trip_the_breaker_at_its_threshold() {
        let (m, inputs) = model();
        let (mut s, injector) = session(m, plan("apu:compile:reject"));
        let mut stages = Vec::new();
        for _ in 0..3 {
            let out = s.run("m", Permutation::NpApu, &inputs).unwrap();
            assert_eq!(out.permutation, Permutation::ByocCpu);
            let run: Vec<&str> = out.fallbacks.iter().map(|c| c.stage).collect();
            stages.push((run, injector.faults_injected()));
        }
        assert_eq!(CircuitBreaker::THRESHOLD, 3);
        assert_eq!(
            stages,
            [
                (vec!["compile", "compile"], 2),
                (vec!["compile", "breaker"], 3),
                (vec!["breaker", "breaker"], 3),
            ]
        );
    }

    #[test]
    fn same_seed_same_outcome() {
        let (m, inputs) = model();
        let run = || {
            let (mut s, injector) = session(m.clone(), plan("apu:dispatch:transient=3"));
            let out = s.run("m", Permutation::NpApu, &inputs).unwrap();
            (
                out.permutation,
                out.time_us,
                out.fallbacks.len(),
                injector.faults_injected(),
            )
        };
        assert_eq!(run(), run(), "seeded runs must be reproducible");
    }
}
