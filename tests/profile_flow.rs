//! End-to-end measured-profile flow: the cost ledgers of the models a run
//! executed feed a profile, a differential diff pins an injected
//! slowdown on the responsible (op kind, device) cells, and the on-disk
//! artifact is byte-deterministic.

use std::collections::BTreeMap;
use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection, Model};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::telemetry;
use tvmnp_hwsim::ledger::CostRole;
use tvmnp_hwsim::WorkKind;

fn showcase_trio() -> [Model; 3] {
    [
        anti_spoofing::anti_spoofing_model(101),
        object_detection::mobilenet_ssd_model(102),
        emotion::emotion_model(103),
    ]
}

/// Run the showcase trio through the BYOC CPU+APU flow and record each
/// model's ledger into a fresh profile.
fn collect(cost: &CostModel) -> Profile {
    let mut profile = Profile::new("profile-flow");
    for model in &showcase_trio() {
        let mut compiled = relay_build(
            &model.module,
            TargetMode::Byoc(TargetPolicy::CpuApu),
            cost.clone(),
        )
        .expect("build");
        compiled.run(&model.sample_inputs(7)).expect("run");
        profile.record_ledger(compiled.estimate_breakdown());
    }
    assert!(
        profile.total_count() > 0,
        "a run must yield profile samples"
    );
    profile
}

/// The acceptance scenario: a 2x slowdown injected into mac-heavy work
/// must surface as the diff's top attribution cell, naming the injected
/// kind, with the measured ratio near the injected factor.
#[test]
fn injected_mac_slowdown_is_attributed_to_mac_cells() {
    let baseline = collect(&CostModel::default());
    let slowed = collect(&CostModel::default().with_kind_scale(WorkKind::MacHeavy, 2.0));

    let diff = diff_profiles(&baseline, &slowed);
    assert!(diff.cur_total_us > diff.base_total_us);
    let top = diff.top().expect("a significant cell must surface");
    assert!(
        top.cell.starts_with("mac/"),
        "top attribution cell must name the injected kind, got '{}'",
        top.cell
    );
    assert!(
        top.ratio > 1.5,
        "injected 2x slowdown measured at only {:.2}x",
        top.ratio
    );
    // Every significant mover is a mac cell: nothing else was touched.
    for d in diff.deltas.iter().filter(|d| d.significant) {
        assert!(d.cell.starts_with("mac/"), "spurious mover: {}", d.cell);
    }
    assert!(diff.missing.is_empty());
    assert!(diff.added.is_empty());
    let rendered = diff.render();
    assert!(rendered.contains("mac/"));
}

/// Fixed seeds in, identical bytes out: the profile JSON and the saved
/// file must be byte-identical across collections.
#[test]
fn profile_artifacts_are_byte_deterministic() {
    let a = collect(&CostModel::default());
    let b = collect(&CostModel::default());
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());

    let dir = std::env::temp_dir().join(format!("tvmnp-profile-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p1 = a.write(&dir.join("s1")).unwrap();
    let p2 = b.write(&dir.join("s2")).unwrap();
    assert_eq!(p1.file_name(), p2.file_name());
    assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
    // Round-trip through the file preserves the profile exactly.
    let loaded = Profile::read(&p1).unwrap();
    assert_eq!(loaded.cells, a.cells);
    assert_eq!(loaded.to_json().to_string(), a.to_json().to_string());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The profile is the ledger of what ran, not a reading of telemetry:
/// collecting with the span collector off gives exactly the profile
/// collected with it on.
#[test]
fn the_collector_does_not_change_the_profile() {
    telemetry::disable();
    let off = collect(&CostModel::default());
    telemetry::enable();
    telemetry::reset();
    let on = collect(&CostModel::default());
    telemetry::disable();
    assert_eq!(off.to_json().to_string(), on.to_json().to_string());
}

/// Every ledger entry reaches the profile exactly once, as the number
/// the ledger holds: one sample per kernel and per other entry, a host
/// fusion group's launch folded into the kernel after it. Per cell, the
/// count is the ledger's sample count and the time / energy totals are
/// those samples summed in ledger order, to the bit; across cells only
/// float reassociation separates them from the model's totals.
#[test]
fn profile_totals_reconcile_with_the_cost_ledger() {
    let model = anti_spoofing::anti_spoofing_model(101);
    let compiled = relay_build(
        &model.module,
        TargetMode::Byoc(TargetPolicy::CpuApu),
        CostModel::default(),
    )
    .expect("build");
    let ledger = compiled.estimate_breakdown();
    let mut profile = Profile::new("ledger");
    profile.record_ledger(ledger);

    let mut want: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    let mut launch = None;
    for e in ledger {
        if e.role == CostRole::Launch {
            launch = Some(e);
            continue;
        }
        let (us, energy_uj) = match launch.take() {
            Some(l) => (l.us + e.us, l.energy_uj + e.energy_uj),
            None => (e.us, e.energy_uj),
        };
        let cell = format!("{}/{}/{}", e.kind.name(), e.device.name(), e.class.name());
        let (count, total_us, energy) = want.entry(cell).or_default();
        *count += 1;
        *total_us += us;
        *energy += energy_uj;
    }
    let launches = ledger.iter().filter(|e| e.role == CostRole::Launch).count();
    assert!(launches > 0, "the model must have host fusion groups");
    assert_eq!(profile.total_count() as usize, ledger.len() - launches);
    assert_eq!(
        profile.cells.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>()
    );
    for (cell, (count, us, energy_uj)) in &want {
        let got = &profile.cells[cell];
        assert_eq!(got.count, *count, "{cell}: count");
        assert_eq!(got.total_us.to_bits(), us.to_bits(), "{cell}");
        assert_eq!(got.total_energy_uj.to_bits(), energy_uj.to_bits(), "{cell}");
    }

    let close = |got: f64, want: f64, what: &str| {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs(),
            "{what}: profile {got} vs ledger {want}"
        );
    };
    let energy_uj: f64 = profile.cells.values().map(|c| c.total_energy_uj).sum();
    close(energy_uj, compiled.estimate_energy_uj(), "energy_uj");
    let us: f64 = profile.cells.values().map(|c| c.total_us).sum();
    close(us, compiled.estimate_us(), "us");
}

/// Files of older schemas are refused, by their version: v1, whose cells
/// also carried a quantile sketch and an analytic-µs total, and v2, keyed
/// by (workload, permutation, quant, SoC).
#[test]
fn a_schema_v1_profile_is_rejected_naming_schema_version() {
    let v1 = r#"{"cells":{"mac/apu/vendor_tuned":{"count":2,
            "sketch":{"count":2,"entries":[[1.0,1,0],[2.0,1,0]],
                      "epsilon":0.005,"max":2.0,"min":1.0,"sum":3.0},
            "total_analytic_us":3.0,"total_energy_uj":1.0,"total_us":3.0}},
           "key":{"permutation":"byoc-cpu-apu","quant":"f32","soc":"dimensity-800",
                  "workload":"fig4"},
           "schema_version":1}"#;
    let v2 = r#"{"cells":{"mac/apu/vendor_tuned":{"count":2,
            "total_energy_uj":1.0,"total_us":3.0}},
           "key":{"permutation":"byoc-cpu-apu","quant":"f32","soc":"dimensity-800",
                  "workload":"fig4"},
           "schema_version":2}"#;
    for old in [v1, v2] {
        let doc: serde_json::Value = serde_json::from_str(old).unwrap();
        let problem = Profile::from_json(&doc).expect_err("an older document must be rejected");
        assert!(problem.0.contains("schema_version"), "{problem}");
    }
}
