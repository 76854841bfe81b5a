//! End-to-end measured-profile flow: the cost ledgers of the models a run
//! executed feed the profile store, a differential diff pins an injected
//! slowdown on the responsible (op kind, device) cells, and the on-disk
//! artifact is byte-deterministic.

use std::collections::BTreeMap;
use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection, Model};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::profile::DiffOptions;
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

fn key(workload: &str) -> ProfileKey {
    ProfileKey {
        workload: workload.to_string(),
        permutation: "byoc-cpu-apu".to_string(),
        quant: "f32".to_string(),
        soc: "dimensity-800".to_string(),
    }
}

/// Run the showcase trio through the BYOC CPU+APU flow and record each
/// model's ledger into a fresh profile.
fn collect(cost: &CostModel) -> Profile {
    let mut profile = Profile::new(key("profile-flow"));
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

    let diff = diff_profiles(&baseline, &slowed, &DiffOptions::default());
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

/// Fixed seeds in, identical bytes out: the profile JSON and the store
/// artifact must be byte-identical across collections.
#[test]
fn profile_artifacts_are_byte_deterministic() {
    let mut a = collect(&CostModel::default());
    let mut b = collect(&CostModel::default());
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());

    let dir = std::env::temp_dir().join(format!("tvmnp-profile-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ProfileStore::open(dir.join("s1")).unwrap();
    let p1 = store.save(&mut a).unwrap();
    let store2 = ProfileStore::open(dir.join("s2")).unwrap();
    let p2 = store2.save(&mut b).unwrap();
    assert_eq!(p1.file_name(), p2.file_name());
    assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
    // Round-trip through the store preserves the profile exactly.
    let mut loaded = store.load(&a.key).unwrap();
    assert_eq!(loaded.to_json().to_string(), a.to_json().to_string());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The profile is the ledger of what ran, not a reading of telemetry:
/// collecting with the span collector off gives exactly the profile
/// collected with it on.
#[test]
fn the_collector_does_not_change_the_profile() {
    telemetry::disable();
    let mut off = collect(&CostModel::default());
    telemetry::enable();
    telemetry::reset();
    let mut on = collect(&CostModel::default());
    telemetry::disable();
    assert_eq!(off.to_json().to_string(), on.to_json().to_string());
}

/// Every ledger entry reaches the profile exactly once, as the number
/// the ledger holds: one sample per kernel and per other entry, a host
/// fusion group's launch folded into the kernel after it. Per cell, the
/// count is the ledger's sample count and the analytic / energy totals
/// are those samples summed in ledger order, to the bit; across cells
/// only float reassociation separates them from the model's totals.
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
    let mut profile = Profile::new(key("ledger"));
    profile.record_ledger(ledger);

    let mut want: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    let mut launch = None;
    for e in ledger {
        if e.role == CostRole::Launch {
            launch = Some(e);
            continue;
        }
        let (analytic_us, energy_uj) = match launch.take() {
            Some(l) => (l.analytic_us + e.analytic_us, l.energy_uj + e.energy_uj),
            None => (e.analytic_us, e.energy_uj),
        };
        let cell = format!("{}/{}/{}", e.kind.name(), e.device.name(), e.class.name());
        let (count, analytic, energy) = want.entry(cell).or_default();
        *count += 1;
        *analytic += analytic_us;
        *energy += energy_uj;
    }
    let launches = ledger.iter().filter(|e| e.role == CostRole::Launch).count();
    assert!(launches > 0, "the model must have host fusion groups");
    assert_eq!(profile.total_count() as usize, ledger.len() - launches);
    assert_eq!(
        profile.cells.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>()
    );
    for (cell, (count, analytic_us, energy_uj)) in &want {
        let got = &profile.cells[cell];
        assert_eq!(got.count, *count, "{cell}: count");
        assert_eq!(
            got.total_analytic_us.to_bits(),
            analytic_us.to_bits(),
            "{cell}"
        );
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
