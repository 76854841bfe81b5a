//! Synthetic video with ground truth.
//!
//! Each frame embeds zero or more bright "person" regions; a person may
//! carry a face, and a face is either *real* (textured concentric-ring
//! pattern) or a *presentation attack* (the same pattern prin­ted flat —
//! low texture variance), so liveness is genuinely decidable from pixels.

use serde::{Deserialize, Serialize};
use tvmnp_tensor::rng::TensorRng;
use tvmnp_tensor::Tensor;

/// Face ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaceKind {
    /// A live face (textured).
    Real,
    /// A spoofed/printed face (flat texture).
    Spoof,
}

/// One ground-truth object in a frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GtObject {
    /// Object bounding box (x, y, w, h) in pixels.
    pub bbox: (usize, usize, usize, usize),
    /// Face region inside the object, if any.
    pub face: Option<((usize, usize, usize, usize), FaceKind)>,
}

/// One RGB frame with ground truth.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame index within the video.
    pub index: usize,
    /// Pixels, `[1, 3, h, w]` float32 in `[0, 1]`.
    pub pixels: Tensor,
    /// Ground-truth objects.
    pub objects: Vec<GtObject>,
}

impl Frame {
    /// Frame height.
    pub fn height(&self) -> usize {
        self.pixels.shape().dims()[2]
    }

    /// Frame width.
    pub fn width(&self) -> usize {
        self.pixels.shape().dims()[3]
    }

    /// Grayscale view, `[h, w]` row-major.
    pub fn gray(&self) -> Vec<f32> {
        let d = self.pixels.shape().dims();
        let (h, w) = (d[2], d[3]);
        let px = self.pixels.as_f32().unwrap();
        let mut g = vec![0.0f32; h * w];
        for y in 0..h {
            for x in 0..w {
                let r = px[y * w + x];
                let gch = px[h * w + y * w + x];
                let b = px[2 * h * w + y * w + x];
                g[y * w + x] = 0.299 * r + 0.587 * gch + 0.114 * b;
            }
        }
        g
    }

    /// Crop `(x, y, w, h)` and bilinear-resize to `(out_h, out_w)` RGB.
    pub fn crop_resized(
        &self,
        bbox: (usize, usize, usize, usize),
        out_h: usize,
        out_w: usize,
    ) -> Tensor {
        let (x, y, w, h) = bbox;
        let x1 = (x + w).min(self.width());
        let y1 = (y + h).min(self.height());
        let crop = tvmnp_tensor::kernels::slice(
            &self.pixels,
            &[
                0,
                0,
                y.min(y1.saturating_sub(1)),
                x.min(x1.saturating_sub(1)),
            ],
            &[1, 3, y1.max(y + 1), x1.max(x + 1)],
        )
        .expect("crop in range");
        tvmnp_tensor::kernels::resize2d(
            &crop,
            out_h,
            out_w,
            tvmnp_tensor::kernels::ResizeMethod::Bilinear,
        )
        .expect("resize")
    }

    /// Grayscale crop resized, `[1, 1, out, out]`.
    pub fn gray_crop_resized(&self, bbox: (usize, usize, usize, usize), out: usize) -> Tensor {
        let rgb = self.crop_resized(bbox, out, out);
        let px = rgb.as_f32().unwrap();
        let hw = out * out;
        let mut g = vec![0.0f32; hw];
        for i in 0..hw {
            g[i] = 0.299 * px[i] + 0.587 * px[hw + i] + 0.114 * px[2 * hw + i];
        }
        Tensor::from_f32([1, 1, out, out], g).unwrap()
    }
}

/// The canonical face side length in synthetic frames.
pub const FACE_SIZE: usize = 16;

/// Render the canonical face pattern into `gray` (h×w) at `(fx, fy)`.
/// Real faces get per-pixel texture noise; spoofs are flat.
fn draw_face(
    gray: &mut [f32],
    w: usize,
    fx: usize,
    fy: usize,
    kind: FaceKind,
    rng: &mut TensorRng,
) {
    let noise = rng.uniform_f32([FACE_SIZE * FACE_SIZE], -0.22, 0.22);
    let nv = noise.as_f32().unwrap();
    let c = (FACE_SIZE / 2) as f32 - 0.5;
    for dy in 0..FACE_SIZE {
        for dx in 0..FACE_SIZE {
            let r = (((dx as f32 - c).powi(2) + (dy as f32 - c).powi(2)).sqrt() / c).min(1.0);
            // Concentric rings: a distinctive, correlatable pattern.
            let ring = 0.55 + 0.35 * (r * std::f32::consts::PI * 2.5).cos();
            let v = match kind {
                FaceKind::Real => (ring + nv[dy * FACE_SIZE + dx]).clamp(0.0, 1.0),
                FaceKind::Spoof => ring.clamp(0.0, 1.0),
            };
            gray[(fy + dy) * w + fx + dx] = v;
        }
    }
}

/// The noiseless face template used by the detector.
pub fn face_template() -> [f32; FACE_SIZE * FACE_SIZE] {
    let mut g = [0.0f32; FACE_SIZE * FACE_SIZE];
    let c = (FACE_SIZE / 2) as f32 - 0.5;
    for dy in 0..FACE_SIZE {
        for dx in 0..FACE_SIZE {
            let r = (((dx as f32 - c).powi(2) + (dy as f32 - c).powi(2)).sqrt() / c).min(1.0);
            g[dy * FACE_SIZE + dx] = 0.55 + 0.35 * (r * std::f32::consts::PI * 2.5).cos();
        }
    }
    g
}

/// Deterministic synthetic video generator.
pub struct SyntheticVideo {
    rng: TensorRng,
    width: usize,
    height: usize,
    next_index: usize,
}

impl SyntheticVideo {
    /// New generator for `width`×`height` frames.
    pub fn new(seed: u64, width: usize, height: usize) -> Self {
        assert!(
            width >= 48 && height >= 48,
            "frames must fit a person + face"
        );
        SyntheticVideo {
            rng: TensorRng::new(seed),
            width,
            height,
            next_index: 0,
        }
    }

    /// Generate the next frame. Cycle of scenes: empty → person without
    /// face → person with real face → person with spoof face.
    pub(crate) fn next_frame(&mut self) -> Frame {
        let idx = self.next_index;
        self.next_index += 1;
        let (w, h) = (self.width, self.height);
        // Dim background noise.
        let bg = self.rng.uniform_f32([h * w], 0.05, 0.15);
        let mut gray = bg.as_f32().unwrap().to_vec();
        let mut objects = Vec::new();

        let scene = idx % 4;
        if scene > 0 {
            // One bright person region, position varies with the frame.
            let pw = 28.min(w - 4);
            let ph = 36.min(h - 4);
            let px = 2 + (idx * 7) % (w - pw - 2);
            let py = 2 + (idx * 5) % (h - ph - 2);
            for dy in 0..ph {
                for dx in 0..pw {
                    // Bright body with a vertical gradient.
                    gray[(py + dy) * w + px + dx] = 0.55 + 0.25 * (dy as f32 / ph as f32);
                }
            }
            let face = if scene >= 2 {
                let kind = if scene == 2 {
                    FaceKind::Real
                } else {
                    FaceKind::Spoof
                };
                let fx = px + (pw - FACE_SIZE) / 2;
                let fy = py + 2;
                draw_face(&mut gray, w, fx, fy, kind, &mut self.rng);
                Some(((fx, fy, FACE_SIZE, FACE_SIZE), kind))
            } else {
                None
            };
            objects.push(GtObject {
                bbox: (px, py, pw, ph),
                face,
            });
        }

        // Grayscale → RGB with small channel offsets.
        let mut rgb = vec![0.0f32; 3 * h * w];
        for i in 0..h * w {
            rgb[i] = (gray[i] * 1.02).min(1.0);
            rgb[h * w + i] = gray[i];
            rgb[2 * h * w + i] = (gray[i] * 0.98).max(0.0);
        }
        Frame {
            index: idx,
            pixels: Tensor::from_f32([1, 3, h, w], rgb).unwrap(),
            objects,
        }
    }

    /// Generate `n` frames.
    pub fn frames(&mut self, n: usize) -> Vec<Frame> {
        (0..n).map(|_| self.next_frame()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = SyntheticVideo::new(9, 64, 64).next_frame();
        let b = SyntheticVideo::new(9, 64, 64).next_frame();
        assert!(a.pixels.bit_eq(&b.pixels));
    }

    #[test]
    fn scene_cycle() {
        let mut v = SyntheticVideo::new(9, 64, 64);
        let frames = v.frames(4);
        assert!(frames[0].objects.is_empty());
        assert!(frames[1].objects[0].face.is_none());
        assert_eq!(frames[2].objects[0].face.unwrap().1, FaceKind::Real);
        assert_eq!(frames[3].objects[0].face.unwrap().1, FaceKind::Spoof);
    }

    #[test]
    fn real_faces_have_more_texture_than_spoofs() {
        let mut v = SyntheticVideo::new(9, 64, 64);
        let frames = v.frames(8);
        let variance = |f: &Frame, bbox: (usize, usize, usize, usize)| {
            let crop = f.gray_crop_resized(bbox, FACE_SIZE);
            let g = crop.as_f32().unwrap();
            let mean = g.iter().sum::<f32>() / g.len() as f32;
            // High-frequency energy: mean squared diff of horizontal neighbours.
            let mut hf = 0.0f32;
            for y in 0..FACE_SIZE {
                for x in 1..FACE_SIZE {
                    let d = g[y * FACE_SIZE + x] - g[y * FACE_SIZE + x - 1];
                    hf += d * d;
                }
            }
            let _ = mean;
            hf
        };
        let real = &frames[2];
        let spoof = &frames[3];
        let vr = variance(real, real.objects[0].face.unwrap().0);
        let vs = variance(spoof, spoof.objects[0].face.unwrap().0);
        assert!(vr > 1.5 * vs, "real {vr} vs spoof {vs}");
    }

    #[test]
    fn crop_resize_shapes() {
        let mut v = SyntheticVideo::new(1, 64, 64);
        let f = v.next_frame();
        let c = f.crop_resized((4, 4, 20, 20), 32, 32);
        assert_eq!(c.shape().dims(), &[1, 3, 32, 32]);
        let g = f.gray_crop_resized((4, 4, 20, 20), 48);
        assert_eq!(g.shape().dims(), &[1, 1, 48, 48]);
    }

    #[test]
    fn pixels_in_unit_range() {
        let mut v = SyntheticVideo::new(5, 64, 64);
        for f in v.frames(4) {
            assert!(f
                .pixels
                .as_f32()
                .unwrap()
                .iter()
                .all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}
