//! End-to-end integration: every frontend → Relay → all seven target
//! permutations → identical numerics, paper-shaped timings.

use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection, zoo};
use tvm_neuropilot::prelude::*;

/// All three showcase models agree bit-exactly between the Relay
/// interpreter and every permutation that compiles.
#[test]
fn showcase_models_agree_across_permutations() {
    let cost = CostModel::default();
    let models = [
        anti_spoofing::anti_spoofing_model(1),
        emotion::emotion_model(2),
        object_detection::mobilenet_ssd_model(3),
    ];
    for model in models {
        for p in Permutation::ALL {
            let m = measure_one(&model.module, p, &cost).unwrap();
            if let Some(t) = m.time_ms {
                assert!(t > 0.0, "{} {p}", model.name);
            }
        }
    }
}

/// TVM-only is the slowest compiling permutation for every model in the
/// suite — the paper's headline observation.
#[test]
fn tvm_only_always_slowest() {
    let cost = CostModel::default();
    let mut checked = 0;
    for model in zoo::zoo(500) {
        let ms = measure_all(&model.module, &cost).unwrap();
        let tvm = ms[0].time_ms.expect("TVM-only always compiles");
        for r in &ms[1..] {
            if let Some(t) = r.time_ms {
                assert!(
                    tvm > t,
                    "{}: TVM-only ({tvm:.3} ms) vs {} ({t:.3} ms)",
                    model.name,
                    r.permutation
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 20, "enough comparisons actually happened");
}

/// Single-output models produce bit-identical outputs under every
/// compiling permutation (vs the Relay interpreter).
#[test]
fn numerics_identical_across_backends() {
    let cost = CostModel::default();
    for model in [
        zoo::mobilenet_v1(7),
        zoo::inception_v3(8),
        zoo::mobilenet_v2_quant(9),
    ] {
        let inputs = model.sample_inputs(12);
        let reference = run_module(&model.module, &inputs).unwrap();
        for p in Permutation::ALL {
            match relay_build(&model.module, p.mode(), cost.clone()) {
                Ok(mut compiled) => {
                    let (outs, _) = compiled.run(&inputs).unwrap();
                    assert!(
                        outs[0].bit_eq(&reference),
                        "{} under {p} diverged from the interpreter",
                        model.name
                    );
                }
                Err(tvm_neuropilot::byoc::build::BuildError::Unsupported(_)) => {}
                Err(e) => panic!("{} under {p}: {e}", model.name),
            }
        }
    }
}

/// The QNN-flow payoff of §3.3 / §4.2: for the same architecture, the
/// quantized variant is at least as fast as the float one on every
/// NeuroPilot-backed target ("the performance was similar to the original
/// flow"), and strictly faster on the int8-specialized APU.
#[test]
fn quantized_variant_wins_on_the_apu() {
    let cost = CostModel::default();
    let t = |model: &tvm_neuropilot::models::Model, p: Permutation| {
        measure_one(&model.module, p, &cost)
            .unwrap()
            .time_ms
            .unwrap()
    };
    let float_net = zoo::mobilenet_v1(20);
    let quant_net = zoo::mobilenet_v1_quant(20);
    for p in [
        Permutation::ByocCpu,
        Permutation::ByocApu,
        Permutation::ByocCpuApu,
    ] {
        assert!(t(&quant_net, p) <= t(&float_net, p) * 1.05, "{p}");
    }
    assert!(
        t(&quant_net, Permutation::ByocApu) < t(&float_net, Permutation::ByocApu),
        "int8 must be strictly faster on the APU"
    );
}

/// The full application runs over video and the pipeline changes no
/// result (Listing 5 + §5.2).
#[test]
fn application_video_roundtrip() {
    let cost = CostModel::default();
    let showcase = Showcase::new(1234, ShowcaseAssignment::paper_prototype(), &cost);
    let mut video = SyntheticVideo::new(4321, 64, 64);
    let frames = video.frames(8);
    let seq = showcase.process_video(&frames);
    // Two real-face frames and two spoof-face frames in 8.
    let real_faces: usize = seq.iter().flat_map(|r| &r.faces).filter(|f| f.real).count();
    let spoof_faces: usize = seq
        .iter()
        .flat_map(|r| &r.faces)
        .filter(|f| !f.real)
        .count();
    assert_eq!(real_faces, 2);
    assert_eq!(spoof_faces, 2);
    assert_eq!(seq, showcase.process_video_pipelined(frames));
}

/// FNV-1a over a tensor list: dtype name, dims and payload bits of each.
fn output_digest(outs: &[Tensor]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in outs {
        eat(t.dtype().name().as_bytes());
        for &d in t.shape().dims() {
            eat(&(d as u64).to_le_bytes());
        }
        match t.as_f32() {
            Ok(v) => v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes())),
            Err(_) => t.iter_int().for_each(|q| eat(&q.to_le_bytes())),
        }
    }
    h
}

/// Model-level numerics anchor that shares no code with the kernels it
/// pins: the digests were captured at the commit before the tensor kernels
/// were restructured for vectorisation, and a kernel rewrite must not move
/// them — the kernel contract is "same per-element operation order, same
/// bits". A digest moves only with a fix to the numbers themselves: two
/// int8 models, in which some negative accumulator sat on a rounding
/// boundary, moved once when the doubling high multiply began truncating
/// as gemmlowp's does (`crates/tensor/tests/requant_reference.rs`).
#[test]
fn model_output_digests_are_pinned() {
    const PINNED: [(&str, u64); 14] = [
        ("densenet", 0x209e43fec34e00a1),
        ("inception resnet v2", 0xf0a05da0c03d3d59),
        ("inception v3", 0x94aca25445a954d6),
        ("inception v4", 0xe1ab70710f2c9ddd),
        ("mobilenet v1", 0x4fd82dd5dfbb8e04),
        ("mobilenet v2", 0x1bdb4802e0bc9e39),
        ("nasnet", 0x19526c87e0fbc276),
        ("inception v3 quant", 0xcd0035a290a2fba2),
        ("mobilenet v1 quant", 0x7d8253432ee7f68e),
        ("mobilenet v2 quant", 0x52c804087301dcfa),
        ("anti-spoofing", 0x7697c70981109698),
        ("emotion-detection", 0x2a5b64baf56eb6f0),
        ("mobilenet-ssd-quant", 0x3593e63ec3ba0a3b),
        ("yolov3-tiny", 0x30a63429b298d523),
    ];
    let mut models = zoo::zoo(42);
    models.extend([
        anti_spoofing::anti_spoofing_model(42),
        emotion::emotion_model(43),
        object_detection::mobilenet_ssd_model(44),
        object_detection::yolo_model(45),
    ]);
    let got: Vec<(String, u64)> = models
        .iter()
        .map(|m| {
            let mut compiled =
                relay_build(&m.module, Permutation::TvmOnly.mode(), CostModel::default()).unwrap();
            let (outs, _) = compiled.run(&m.sample_inputs(7)).unwrap();
            (m.name.clone(), output_digest(&outs))
        })
        .collect();
    let want: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, want, "got digests: {got:#x?}");
}
