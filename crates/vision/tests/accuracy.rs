//! Detection-quality evaluation over a long synthetic video: the classical
//! detectors and the liveness feature must be *correct*, not just present,
//! and the full application must gate exactly as Listing 5 prescribes.

use tvmnp_hwsim::CostModel;
use tvmnp_vision::detect::{iou, luminance_saliency, match_faces, texture_energy, BBox};
use tvmnp_vision::frame::{FaceKind, SyntheticVideo, FACE_SIZE};
use tvmnp_vision::{Showcase, ShowcaseAssignment};

const FRAMES: usize = 40;

#[test]
fn face_detector_perfect_on_synthetic_video() {
    let mut video = SyntheticVideo::new(7777, 64, 64);
    let frames = video.frames(FRAMES);
    let (mut tp, mut fp, mut fnn) = (0usize, 0usize, 0usize);
    for f in &frames {
        let found = match_faces(f, 0.6);
        let gt: Vec<BBox> = f
            .objects
            .iter()
            .filter_map(|o| o.face.map(|((x, y, w, h), _)| BBox::new(x, y, w, h)))
            .collect();
        for g in &gt {
            if found.iter().any(|b| iou(b, g) > 0.4) {
                tp += 1;
            } else {
                fnn += 1;
            }
        }
        for b in &found {
            if !gt.iter().any(|g| iou(b, g) > 0.4) {
                fp += 1;
            }
        }
    }
    assert_eq!(fnn, 0, "missed faces");
    assert_eq!(fp, 0, "false positives");
    assert_eq!(tp, FRAMES / 2, "two faces per 4-frame scene cycle");
}

#[test]
fn saliency_localizer_high_recall() {
    let mut video = SyntheticVideo::new(8888, 64, 64);
    let frames = video.frames(FRAMES);
    let mut found_persons = 0usize;
    let mut total_persons = 0usize;
    let mut empty_frame_fps = 0usize;
    for f in &frames {
        let boxes = luminance_saliency(f, 4, 1.8);
        if f.objects.is_empty() {
            empty_frame_fps += boxes.len();
        }
        for o in &f.objects {
            total_persons += 1;
            let (x, y, w, h) = o.bbox;
            let gt = BBox::new(x, y, w, h);
            if boxes.iter().any(|b| iou(b, &gt) > 0.4) {
                found_persons += 1;
            }
        }
    }
    assert_eq!(found_persons, total_persons, "recall must be 1.0");
    assert_eq!(empty_frame_fps, 0, "no saliency boxes on empty frames");
}

#[test]
fn liveness_feature_separates_perfectly() {
    let mut video = SyntheticVideo::new(9999, 64, 64);
    let frames = video.frames(FRAMES);
    let mut real_energies = Vec::new();
    let mut spoof_energies = Vec::new();
    for f in &frames {
        for o in &f.objects {
            if let Some((bbox, kind)) = o.face {
                let e = texture_energy(&f.gray_crop_resized(bbox, FACE_SIZE));
                match kind {
                    FaceKind::Real => real_energies.push(e),
                    FaceKind::Spoof => spoof_energies.push(e),
                }
            }
        }
    }
    let min_real = real_energies.iter().cloned().fold(f32::INFINITY, f32::min);
    let max_spoof = spoof_energies.iter().cloned().fold(0.0f32, f32::max);
    assert!(
        min_real > max_spoof,
        "feature must linearly separate: min real {min_real} vs max spoof {max_spoof}"
    );
}

#[test]
fn application_decisions_match_ground_truth_over_long_video() {
    let cost = CostModel::default();
    let showcase = Showcase::new(4242, ShowcaseAssignment::paper_prototype(), &cost);
    let mut video = SyntheticVideo::new(2468, 64, 64);
    let frames = video.frames(24);
    let results = showcase.process_video(&frames);
    for (f, r) in frames.iter().zip(&results) {
        let gt_face = f.objects.iter().find_map(|o| o.face);
        match gt_face {
            None => assert!(r.faces.is_empty(), "frame {}: phantom face", f.index),
            Some((_, kind)) => {
                assert_eq!(r.faces.len(), 1, "frame {}: exactly one face", f.index);
                let face = &r.faces[0];
                match kind {
                    FaceKind::Real => {
                        assert!(face.real, "frame {}: real face marked spoof", f.index);
                        assert!(face.emotion.is_some(), "frame {}: no emotion", f.index);
                    }
                    FaceKind::Spoof => {
                        assert!(!face.real, "frame {}: spoof passed", f.index);
                        assert!(
                            face.emotion.is_none(),
                            "frame {}: emotion on spoof",
                            f.index
                        );
                    }
                }
            }
        }
    }
    // Deterministic emotion: the same (untrained) model must assign the
    // same label to every identical real-face crop pattern class.
    let labels: Vec<&str> = results
        .iter()
        .flat_map(|r| &r.faces)
        .filter_map(|f| f.emotion)
        .collect();
    assert!(!labels.is_empty());
}
