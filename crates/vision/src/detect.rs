//! Classical detectors: bounding boxes, IoU, template-correlation face
//! detection, and luminance-saliency object localization.
//!
//! The paper pairs the DNN object detector with a separate face detector
//! and gates on box overlap (Listing 5: "if the object detection model box
//! overlapped the face detector box, we would consider it as a possible
//! candidate for a human face").

use crate::frame::{face_template, Frame, FACE_SIZE};
use serde::{Deserialize, Serialize};

/// An axis-aligned box in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BBox {
    /// Left.
    pub x: usize,
    /// Top.
    pub y: usize,
    /// Width.
    pub w: usize,
    /// Height.
    pub h: usize,
}

impl BBox {
    /// Construct.
    pub fn new(x: usize, y: usize, w: usize, h: usize) -> Self {
        BBox { x, y, w, h }
    }

    /// As a tuple.
    pub fn tuple(&self) -> (usize, usize, usize, usize) {
        (self.x, self.y, self.w, self.h)
    }

    /// Area in pixels.
    pub fn area(&self) -> usize {
        self.w * self.h
    }

    /// Intersection area with another box.
    pub fn intersection(&self, o: &BBox) -> usize {
        let x0 = self.x.max(o.x);
        let y0 = self.y.max(o.y);
        let x1 = (self.x + self.w).min(o.x + o.w);
        let y1 = (self.y + self.h).min(o.y + o.h);
        if x1 > x0 && y1 > y0 {
            (x1 - x0) * (y1 - y0)
        } else {
            0
        }
    }

    /// Whether the boxes overlap at all.
    pub fn overlaps(&self, o: &BBox) -> bool {
        self.intersection(o) > 0
    }
}

/// Intersection-over-union of two boxes.
pub fn iou(a: &BBox, b: &BBox) -> f64 {
    let i = a.intersection(b) as f64;
    let u = (a.area() + b.area()) as f64 - i;
    if u <= 0.0 {
        0.0
    } else {
        i / u
    }
}

/// Normalized cross-correlation face detector: slide the canonical face
/// template over the grayscale frame; peaks above `threshold` (with local
/// non-max suppression) are face boxes.
pub fn match_faces(frame: &Frame, threshold: f32) -> Vec<BBox> {
    let g = frame.gray();
    let (h, w) = (frame.height(), frame.width());
    let tpl = face_template();
    let t = tpl.as_f32().unwrap();
    let n = (FACE_SIZE * FACE_SIZE) as f32;
    let t_mean = t.iter().sum::<f32>() / n;
    let t_dev: Vec<f32> = t.iter().map(|&v| v - t_mean).collect();
    let t_norm = t_dev.iter().map(|v| v * v).sum::<f32>().sqrt();

    let mut scores: Vec<(f32, BBox)> = Vec::new();
    let stride = 1usize;
    for y in (0..h.saturating_sub(FACE_SIZE)).step_by(stride) {
        for x in (0..w.saturating_sub(FACE_SIZE)).step_by(stride) {
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
    // Non-max suppression: keep the best box, drop overlaps, repeat.
    scores.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut kept: Vec<BBox> = Vec::new();
    for (_, b) in scores {
        if kept.iter().all(|k| iou(k, &b) < 0.2) {
            kept.push(b);
        }
    }
    kept
}

/// Luminance-saliency object localization: grid cells markedly brighter
/// than the frame mean merge into object boxes (connected components of
/// bright cells).
pub fn luminance_saliency(frame: &Frame, cell: usize, factor: f32) -> Vec<BBox> {
    let g = frame.gray();
    let (h, w) = (frame.height(), frame.width());
    let global_mean = g.iter().sum::<f32>() / (h * w) as f32;
    let gh = h / cell;
    let gw = w / cell;
    let mut bright = vec![false; gh * gw];
    for cy in 0..gh {
        for cx in 0..gw {
            let mut m = 0.0f32;
            for dy in 0..cell {
                for dx in 0..cell {
                    m += g[(cy * cell + dy) * w + cx * cell + dx];
                }
            }
            m /= (cell * cell) as f32;
            bright[cy * gw + cx] = m > global_mean * factor;
        }
    }
    // Connected components (4-neighbour) over the bright grid.
    let mut seen = vec![false; gh * gw];
    let mut boxes = Vec::new();
    for start in 0..gh * gw {
        if !bright[start] || seen[start] {
            continue;
        }
        let mut stack = vec![start];
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (usize::MAX, usize::MAX, 0usize, 0usize);
        while let Some(i) = stack.pop() {
            if seen[i] || !bright[i] {
                continue;
            }
            seen[i] = true;
            let (cy, cx) = (i / gw, i % gw);
            min_x = min_x.min(cx);
            min_y = min_y.min(cy);
            max_x = max_x.max(cx);
            max_y = max_y.max(cy);
            if cx > 0 {
                stack.push(i - 1);
            }
            if cx + 1 < gw {
                stack.push(i + 1);
            }
            if cy > 0 {
                stack.push(i - gw);
            }
            if cy + 1 < gh {
                stack.push(i + gw);
            }
        }
        boxes.push(BBox::new(
            min_x * cell,
            min_y * cell,
            (max_x - min_x + 1) * cell,
            (max_y - min_y + 1) * cell,
        ));
    }
    boxes
}

/// Texture-liveness feature: high-frequency energy of a grayscale crop.
/// Real (textured) faces score high; printed spoofs score low.
pub fn texture_energy(gray_crop: &tvmnp_tensor::Tensor) -> f32 {
    let d = gray_crop.shape().dims();
    let (h, w) = (d[d.len() - 2], d[d.len() - 1]);
    let g = gray_crop.to_f32();
    let v = g.as_f32().unwrap();
    let mut hf = 0.0f32;
    for y in 0..h {
        for x in 1..w {
            let diff = v[y * w + x] - v[y * w + x - 1];
            hf += diff * diff;
        }
    }
    for y in 1..h {
        for x in 0..w {
            let diff = v[y * w + x] - v[(y - 1) * w + x];
            hf += diff * diff;
        }
    }
    hf / (h * w) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FaceKind, SyntheticVideo};

    #[test]
    fn iou_identities() {
        let a = BBox::new(0, 0, 10, 10);
        assert!((iou(&a, &a) - 1.0).abs() < 1e-12);
        let b = BBox::new(20, 20, 5, 5);
        assert_eq!(iou(&a, &b), 0.0);
        let c = BBox::new(5, 0, 10, 10);
        // intersection 50, union 150.
        assert!((iou(&a, &c) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn detects_embedded_faces() {
        let mut v = SyntheticVideo::new(13, 64, 64);
        let frames = v.frames(8);
        for f in &frames {
            let found = match_faces(f, 0.6);
            let gt_faces: Vec<BBox> = f
                .objects
                .iter()
                .filter_map(|o| o.face.map(|((x, y, w, h), _)| BBox::new(x, y, w, h)))
                .collect();
            assert_eq!(found.len(), gt_faces.len(), "frame {}", f.index);
            for gt in &gt_faces {
                assert!(
                    found.iter().any(|b| iou(b, gt) > 0.4),
                    "frame {}: face at {:?} not localized (found {:?})",
                    f.index,
                    gt,
                    found
                );
            }
        }
    }

    #[test]
    fn saliency_finds_person() {
        let mut v = SyntheticVideo::new(13, 64, 64);
        let frames = v.frames(4);
        // Frame 1 has a person, frame 0 does not.
        assert!(luminance_saliency(&frames[0], 4, 1.8).is_empty());
        let boxes = luminance_saliency(&frames[1], 4, 1.8);
        assert!(!boxes.is_empty());
        let (x, y, w, h) = frames[1].objects[0].bbox;
        let gt = BBox::new(x, y, w, h);
        assert!(
            boxes.iter().any(|b| iou(b, &gt) > 0.4),
            "boxes {boxes:?} vs gt {gt:?}"
        );
    }

    #[test]
    fn texture_energy_separates_real_from_spoof() {
        let mut v = SyntheticVideo::new(13, 64, 64);
        let frames = v.frames(8);
        let energy = |f: &crate::frame::Frame| {
            let (b, _) = f.objects[0].face.unwrap();
            texture_energy(&f.gray_crop_resized(b, crate::frame::FACE_SIZE))
        };
        for k in (0..8).step_by(4) {
            let real = energy(&frames[k + 2]);
            let spoof = energy(&frames[k + 3]);
            assert!(real > 1.5 * spoof, "real {real} vs spoof {spoof}");
        }
        let _ = FaceKind::Real;
    }

    #[test]
    fn overlap_gating_logic() {
        let person = BBox::new(10, 10, 30, 40);
        let face_inside = BBox::new(18, 12, 16, 16);
        let face_outside = BBox::new(50, 50, 16, 16);
        assert!(person.overlaps(&face_inside));
        assert!(!person.overlaps(&face_outside));
    }
}
