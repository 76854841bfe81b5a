//! The face matcher against its definition: `match_faces` scores windows
//! side by side, and must return exactly the boxes of the one-window-at-a-
//! time loop below — same scores to the bit, same order into the sort and
//! the non-max suppression.

use tvmnp_tensor::kernels::slice;
use tvmnp_vision::detect::{iou, match_faces, BBox};
use tvmnp_vision::frame::{face_template, Frame, SyntheticVideo, FACE_SIZE};

/// The scalar matcher, one window at a time: the definition.
fn reference(frame: &Frame, threshold: f32) -> Vec<BBox> {
    let g = frame.gray();
    let (h, w) = (frame.height(), frame.width());
    let t = face_template();
    let n = (FACE_SIZE * FACE_SIZE) as f32;
    let t_mean = t.iter().sum::<f32>() / n;
    let t_dev: Vec<f32> = t.iter().map(|&v| v - t_mean).collect();
    let t_norm = t_dev.iter().map(|v| v * v).sum::<f32>().sqrt();

    let mut scores: Vec<(f32, BBox)> = Vec::new();
    for y in 0..h.saturating_sub(FACE_SIZE) {
        for x in 0..w.saturating_sub(FACE_SIZE) {
            let mut mean = 0.0f32;
            for dy in 0..FACE_SIZE {
                for dx in 0..FACE_SIZE {
                    mean += g[(y + dy) * w + x + dx];
                }
            }
            mean /= n;
            let mut dot = 0.0f32;
            let mut norm = 0.0f32;
            for dy in 0..FACE_SIZE {
                for dx in 0..FACE_SIZE {
                    let v = g[(y + dy) * w + x + dx] - mean;
                    dot += v * t_dev[dy * FACE_SIZE + dx];
                    norm += v * v;
                }
            }
            let ncc = if norm > 1e-9 {
                dot / (norm.sqrt() * t_norm)
            } else {
                0.0
            };
            if ncc >= threshold {
                scores.push((ncc, BBox::new(x, y, FACE_SIZE, FACE_SIZE)));
            }
        }
    }
    scores.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut kept: Vec<BBox> = Vec::new();
    for (_, b) in scores {
        if kept.iter().all(|k| iou(k, &b) < 0.2) {
            kept.push(b);
        }
    }
    kept
}

/// Rows `0..h` and columns `x0..x0 + width` of `f`, ground truth dropped.
fn crop(f: &Frame, h: usize, x0: usize, width: usize) -> Frame {
    Frame {
        index: f.index,
        pixels: slice(&f.pixels, &[0, 0, 0, x0], &[1, 3, h, x0 + width]).unwrap(),
        objects: Vec::new(),
    }
}

/// A row of `width − 16` windows: fewer than the 16 lanes (20, 31),
/// exactly 16 (32), not a multiple of 16 (40, 100) and the showcase's 48
/// (64), on frames of three seeds, at the serving threshold and at one
/// that keeps every window. The top 28 rows hold the faces of frames 2
/// and 3 (the scene cycle puts them at rows 4..20 and 9..25) and keep the
/// unoptimised build's run short.
#[test]
fn match_faces_is_the_one_window_loop() {
    let mut faces = 0;
    for seed in [3, 23, 41] {
        let frames = SyntheticVideo::new(seed, 100, 48).frames(4);
        for f in &frames {
            for width in [20, 31, 32, 40, 64, 100] {
                // Both ends of the frame, so a face sits in some crops.
                for x0 in [0, 100 - width]
                    .into_iter()
                    .take(1 + usize::from(width < 100))
                {
                    let crop = crop(f, 28, x0, width);
                    for threshold in [0.6, -1.0] {
                        let found = match_faces(&crop, threshold);
                        faces += usize::from(threshold > 0.0) * found.len();
                        assert_eq!(
                            found,
                            reference(&crop, threshold),
                            "seed {seed}, frame {}, columns {x0}..{}, threshold {threshold}",
                            f.index,
                            x0 + width
                        );
                    }
                }
            }
        }
    }
    assert!(faces > 0, "no crop held a face");
}

/// Every face the full frames carry is found by both, so the comparison
/// above covers real detections, not only empty lists.
#[test]
fn the_compared_frames_hold_faces() {
    let frames = SyntheticVideo::new(23, 64, 64).frames(8);
    let found: usize = frames.iter().map(|f| match_faces(f, 0.6).len()).sum();
    let expected: usize = frames
        .iter()
        .map(|f| f.objects.iter().filter(|o| o.face.is_some()).count())
        .sum();
    assert!(expected > 0);
    assert_eq!(found, expected);
    for f in &frames {
        assert_eq!(match_faces(f, 0.6), reference(f, 0.6), "frame {}", f.index);
    }
}

/// A frame no wider than the template has no window.
#[test]
fn a_frame_no_wider_than_the_template_has_no_face() {
    let f = &SyntheticVideo::new(7, 64, 64).frames(3)[2];
    for width in [1, FACE_SIZE - 1, FACE_SIZE] {
        let crop = crop(f, f.height(), 0, width);
        assert!(match_faces(&crop, -1.0).is_empty(), "width {width}");
        assert!(reference(&crop, -1.0).is_empty(), "width {width}");
    }
}
