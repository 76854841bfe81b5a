//! Invariant checkers run on every conformance case, independent of the
//! numeric comparison:
//!
//! - **partition well-formedness** — every external function produced by
//!   `partition_for_nir` carries its `Compiler`/`global_symbol`
//!   annotations, is actually called from `main` (no dangling external
//!   nodes), contains only NeuroPilot-supported ops, and the partitioned
//!   module still evaluates to the golden output;
//! - **quant-params** (§3.3) — after conversion to Neuron IR and
//!   parameter propagation, every quantized tensor carries quantization
//!   parameters (the tensor-oriented contract);
//! - **memory-plan safety** — the storage planner never aliases two
//!   simultaneously-live values, and peak accounting is consistent
//!   (`0 < peak <= pool`);
//! - **fingerprint stability** — rebuilding the same spec yields the same
//!   module fingerprint (the artifact-cache key contract);
//! - **ledger reconciliation** ([`check_ledger`], per compiled
//!   permutation) — a fault-free run's simulated time, the estimates, and
//!   the per-device attribution are all the same cost ledger.

use crate::differential::CaseFailure;
use crate::generator::{build_case, BuiltCase, GraphSpec};
use tvmnp_byoc::build::{partition_for_nir, CompiledModel};
use tvmnp_hwsim::DeviceKind;
use tvmnp_neuropilot::convert::quant_transparent;
use tvmnp_neuropilot::{convert_function, neuron_supported, NeuronGraph};
use tvmnp_relay::expr::{CallTarget, ExprKind, Module};
use tvmnp_relay::interp::run_module;
use tvmnp_relay::module_fingerprint;
use tvmnp_relay::passes::{fold_constants, simplify};
use tvmnp_relay::visit::post_order;
use tvmnp_runtime::{plan_memory, ExecutorGraph};
use tvmnp_tensor::Tensor;

/// Harness knobs. `inject_quant_bug` is a test-only hook that simulates a
/// quant-propagation defect (strips the propagated parameters off
/// quantization-transparent ops' outputs after conversion) so the suite
/// can prove the `quant-params` invariant actually fires and shrinks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckOptions {
    /// Simulate a §3.3 propagation bug (test-only).
    pub inject_quant_bug: bool,
}

/// Statistics the invariant pass feeds back into the case outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantStats {
    /// External subgraphs in the BYOC partition.
    pub subgraphs: usize,
}

fn inv(name: &str, detail: impl Into<String>) -> CaseFailure {
    CaseFailure::Invariant {
        name: name.to_string(),
        detail: detail.into(),
    }
}

/// The test-only quant-propagation bug: forget the parameters that
/// propagation stamped onto the outputs of the converter's
/// quantization-transparent ops.
fn inject_quant_bug(graph: &mut NeuronGraph) {
    for i in 0..graph.ops.len() {
        if !quant_transparent(&graph.ops[i].kind) {
            continue;
        }
        for &o in &graph.ops[i].outputs.clone() {
            graph.tensors[o].quant = None;
        }
    }
}

/// Every global symbol called anywhere under `main`.
fn called_globals(module: &Module) -> Vec<String> {
    let mut names = Vec::new();
    post_order(&module.main().body, |e| {
        if let ExprKind::Call(c) = &e.kind {
            if let CallTarget::Global(g) = &c.target {
                names.push(g.clone());
            }
        }
    });
    names
}

fn check_partition(built: &BuiltCase, reference: &Tensor) -> Result<(Module, usize), CaseFailure> {
    let (partitioned, report) = partition_for_nir(&built.module)
        .map_err(|e| inv("partition", format!("partition_for_nir failed: {e}")))?;
    let externals: Vec<String> = partitioned
        .external_functions()
        .into_iter()
        .map(String::from)
        .collect();
    if report.num_subgraphs != externals.len() {
        return Err(inv(
            "partition",
            format!(
                "report claims {} subgraphs, module has {}",
                report.num_subgraphs,
                externals.len()
            ),
        ));
    }
    let called = called_globals(&partitioned);
    let mut offloaded = 0usize;
    for name in &externals {
        let func = &partitioned.functions[name.as_str()];
        if func.attrs.get("Compiler").map(String::as_str) != Some("neuropilot") {
            return Err(inv("partition", format!("{name}: missing Compiler attr")));
        }
        if func.attrs.get("global_symbol").map(String::as_str) != Some(name.as_str()) {
            return Err(inv(
                "partition",
                format!("{name}: global_symbol attr does not match function name"),
            ));
        }
        if !called.iter().any(|g| g == name) {
            return Err(inv(
                "partition",
                format!("{name}: dangling external function, never called from main"),
            ));
        }
        let mut bad_op = None;
        post_order(&func.body, |e| {
            if let ExprKind::Call(c) = &e.kind {
                match &c.target {
                    CallTarget::Op(op) if !neuron_supported(op) => {
                        bad_op = Some(op.name().to_string());
                    }
                    CallTarget::Global(g) => bad_op = Some(format!("nested global @{g}")),
                    _ => {}
                }
            }
        });
        if let Some(op) = bad_op {
            return Err(inv(
                "partition",
                format!("{name}: offloaded region contains '{op}'"),
            ));
        }
        offloaded += func.num_calls();
    }
    if report.offloaded_calls != offloaded {
        return Err(inv(
            "partition",
            format!(
                "report claims {} offloaded calls, external bodies hold {offloaded}",
                report.offloaded_calls
            ),
        ));
    }
    // Partitioning must be semantics-preserving: the partitioned module
    // interprets to the same bits as the original.
    let out = run_module(&partitioned, &built.inputs).map_err(|e| {
        inv(
            "partition",
            format!("partitioned module failed to run: {e}"),
        )
    })?;
    if !out.bit_eq(reference) {
        return Err(inv(
            "partition",
            "partitioned module output differs from the original module",
        ));
    }
    Ok((partitioned, externals.len()))
}

fn check_quant_params(partitioned: &Module, opts: &CheckOptions) -> Result<(), CaseFailure> {
    for name in partitioned.external_functions() {
        let func = &partitioned.functions[name];
        let mut graph = convert_function(func)
            .map_err(|e| inv("nir-convert", format!("{name}: conversion failed: {e}")))?;
        if opts.inject_quant_bug {
            inject_quant_bug(&mut graph);
        }
        for t in &graph.tensors {
            if t.dtype.is_quantized() && t.quant.is_none() {
                return Err(inv(
                    "quant-params",
                    format!(
                        "{name}: quantized tensor '{}' carries no quantization parameters",
                        t.name
                    ),
                ));
            }
        }
        if let Err(e) = graph.validate() {
            return Err(inv("nir-validate", format!("{name}: {e}")));
        }
    }
    Ok(())
}

fn check_memory_plan(module: &Module, label: &str) -> Result<(), CaseFailure> {
    let graph = ExecutorGraph::build(module)
        .map_err(|e| inv("memory-plan", format!("{label}: lowering failed: {e}")))?;
    let plan = plan_memory(&graph);
    if let Some((a, b)) = plan.check_no_alias(&graph) {
        return Err(inv(
            "memory-plan",
            format!("{label}: values {a:?} and {b:?} share a slot while both live"),
        ));
    }
    if plan.peak_bytes == 0 {
        return Err(inv("memory-plan", format!("{label}: zero peak bytes")));
    }
    if plan.peak_bytes > plan.pool_bytes {
        return Err(inv(
            "memory-plan",
            format!(
                "{label}: peak {} exceeds pool {}",
                plan.peak_bytes, plan.pool_bytes
            ),
        ));
    }
    Ok(())
}

/// Ledger reconciliation for one compiled permutation (built under the
/// default, unscaled cost model) whose fault-free run took `run_us`: run
/// time, time estimate and energy estimate are bit-exactly the ledger's
/// sums; per-device shares add back up to the total; every entry is
/// finite, non-negative, and — no multiplier being injected — charged at
/// its analytic prediction.
pub fn check_ledger(compiled: &CompiledModel, run_us: f64) -> Result<(), CaseFailure> {
    let ledger = compiled.estimate_breakdown();
    let estimate_us = compiled.estimate_us();
    if run_us != estimate_us {
        return Err(inv(
            "ledger",
            format!("fault-free run took {run_us} us, estimate_us() says {estimate_us}"),
        ));
    }
    let energy_uj = ledger.iter().fold(0.0, |e, entry| e + entry.energy_uj);
    if energy_uj != compiled.estimate_energy_uj() {
        return Err(inv(
            "ledger",
            format!(
                "entries carry {energy_uj} uJ, estimate_energy_uj() says {}",
                compiled.estimate_energy_uj()
            ),
        ));
    }
    let by_device: f64 = DeviceKind::ALL
        .iter()
        .map(|&d| {
            ledger
                .iter()
                .filter(|e| e.device == d)
                .map(|e| e.us)
                .sum::<f64>()
        })
        .sum();
    if (by_device - estimate_us).abs() > 1e-9 * estimate_us.max(1.0) {
        return Err(inv(
            "ledger",
            format!("per-device shares sum to {by_device} us, total is {estimate_us}"),
        ));
    }
    for (i, e) in ledger.iter().enumerate() {
        let sane = |v: f64| v.is_finite() && v >= 0.0;
        if !(sane(e.us) && sane(e.analytic_us) && sane(e.energy_uj)) {
            return Err(inv(
                "ledger",
                format!("entry {i} ({}) is not finite and >= 0: {e:?}", e.label),
            ));
        }
        if e.analytic_us != e.us {
            return Err(inv(
                "ledger",
                format!(
                    "entry {i} ({}, {:?}) charges {} us against {} analytic with nothing injected",
                    e.label, e.role, e.us, e.analytic_us
                ),
            ));
        }
    }
    Ok(())
}

/// Run every invariant checker on a realized case.
pub fn run_invariants(
    spec: &GraphSpec,
    built: &BuiltCase,
    reference: &Tensor,
    opts: &CheckOptions,
) -> Result<InvariantStats, CaseFailure> {
    let (partitioned, subgraphs) = check_partition(built, reference)?;
    check_quant_params(&partitioned, opts)?;
    if !spec.ops.is_empty() {
        // The host-side lowering of both the plain and partitioned forms
        // must plan safely.
        let prepared = fold_constants(&simplify(&built.module));
        check_memory_plan(&prepared, "unpartitioned")?;
        check_memory_plan(&partitioned, "partitioned")?;
    }
    // Fingerprint stability: an independently rebuilt spec (fresh node
    // ids throughout) must hash identically — the cache-key contract.
    let rebuilt = build_case(spec).map_err(|e| CaseFailure::Spec(e.to_string()))?;
    let (fp1, fp2) = (
        module_fingerprint(&built.module),
        module_fingerprint(&rebuilt.module),
    );
    if fp1 != fp2 {
        return Err(inv(
            "fingerprint",
            format!("rebuild changed the fingerprint: {fp1} vs {fp2}"),
        ));
    }
    Ok(InvariantStats { subgraphs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::check_case;
    use crate::generator::random_spec;

    /// A quantized spec whose offloaded region holds at least one
    /// quantization-transparent op (so the injected bug has a target).
    fn quant_spec_with_transparent_op() -> GraphSpec {
        for seed in 0..128u64 {
            let spec = random_spec(seed, true);
            if check_case(
                &spec,
                &CheckOptions {
                    inject_quant_bug: true,
                },
            )
            .is_err()
            {
                return spec;
            }
        }
        panic!("no quantized spec exercises the propagation path");
    }

    #[test]
    fn injected_quant_bug_is_caught() {
        let spec = quant_spec_with_transparent_op();
        // Clean harness: passes.
        check_case(&spec, &CheckOptions::default()).unwrap();
        // Bugged harness: the quant-params invariant fires.
        let failure = check_case(
            &spec,
            &CheckOptions {
                inject_quant_bug: true,
            },
        )
        .unwrap_err();
        assert_eq!(failure.kind(), "invariant:quant-params", "{failure}");
    }

    #[test]
    fn float_cases_satisfy_all_invariants() {
        for seed in [2u64, 9, 17] {
            let spec = random_spec(seed, false);
            check_case(&spec, &CheckOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
