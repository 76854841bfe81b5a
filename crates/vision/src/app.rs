//! The application showcase (paper §4.4, Fig. 1, Listing 5).
//!
//! Per frame: object detection + face detection → overlap gating →
//! anti-spoofing on candidate faces → emotion detection on real faces.
//! The three DNNs are compiled through the BYOC stack under a
//! per-model target assignment (§5.1). There is one frame flow,
//! [`Showcase::process_frame_with_deadline`]; sequential and §5.2
//! pipelined processing differ only in how many frames run it at once.

use crate::detect::{luminance_saliency, match_faces, texture_energy, BBox};
use crate::frame::{FaceKind, Frame, SyntheticVideo};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use tvmnp_byoc::{relay_build, ArtifactCache, CompiledModel, TargetMode};
use tvmnp_hwsim::{CostModel, DeviceKind, Task};
use tvmnp_models::anti_spoofing::anti_spoofing_model;
use tvmnp_models::emotion::{emotion_model, EMOTIONS};
use tvmnp_models::object_detection::{mobilenet_ssd_model, ssd_input_quant};
use tvmnp_models::Model;
use tvmnp_neuropilot::TargetPolicy;
use tvmnp_runtime::RunOptions;
use tvmnp_scheduler::threaded::{run_window, ResourceLocks};
use tvmnp_tensor::{DType, Tensor};

/// The Fig. 1 model chain in dependency order. Every stage name in a
/// [`DroppedStage`] or a schedule [`Task`] is an entry of it, and a stage
/// that is unavailable takes everything after it along.
const CHAIN: [&str; 3] = ["obj-det", "anti-spoof", "emotion"];
const OBJ: usize = 0;
const SPOOF: usize = 1;
const EMOTION: usize = 2;

/// Target assignment of the three showcase models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShowcaseAssignment {
    /// Object detection target.
    pub obj: TargetMode,
    /// Anti-spoofing target.
    pub spoof: TargetMode,
    /// Emotion detection target.
    pub emotion: TargetMode,
}

impl ShowcaseAssignment {
    /// The paper's §5.2 prototype: object detection forced to CPU-only,
    /// anti-spoofing on BYOC CPU+APU, emotion on the APU alone (Fig. 5's
    /// blue / yellow / green).
    pub fn paper_prototype() -> Self {
        ShowcaseAssignment {
            obj: TargetMode::Byoc(TargetPolicy::CpuOnly),
            spoof: TargetMode::Byoc(TargetPolicy::CpuApu),
            emotion: TargetMode::NeuroPilotOnly(TargetPolicy::ApuPrefer),
        }
    }

    /// The pre-pipeline greedy assignment (§5.1): every model on its
    /// fastest target, object detection sharing CPU+APU.
    pub fn greedy() -> Self {
        ShowcaseAssignment {
            obj: TargetMode::Byoc(TargetPolicy::CpuApu),
            spoof: TargetMode::Byoc(TargetPolicy::CpuApu),
            emotion: TargetMode::NeuroPilotOnly(TargetPolicy::ApuPrefer),
        }
    }

    /// One frame's model stages as schedule tasks, in chain order: each
    /// holds its target mode's devices for the time the frame spent in it.
    pub fn tasks(&self, times: &ShowcaseTiming) -> [Task; 3] {
        let modes = [self.obj, self.spoof, self.emotion];
        let us = [times.obj_us, times.spoof_us, times.emotion_us];
        std::array::from_fn(|k| Task::new(CHAIN[k], resources_of(modes[k]), us[k]))
    }
}

/// Devices a target mode occupies, for the exclusivity locks and the
/// Fig. 5 Gantt colors.
pub fn resources_of(mode: TargetMode) -> &'static [DeviceKind] {
    match mode {
        TargetMode::TvmOnly => &[DeviceKind::Cpu],
        TargetMode::Byoc(p) | TargetMode::NeuroPilotOnly(p) => p.devices(),
    }
}

/// Degraded-mode policy: per-stage simulated-time deadlines for the
/// frame flow. When a stage overruns its budget the frame is *degraded*,
/// not wedged — downstream models see an explicit
/// [`DroppedStage`] marker instead of stale tensors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedPolicy {
    /// Simulated-time budget per stage per frame, microseconds.
    /// `f64::INFINITY` disables degradation entirely.
    pub stage_deadline_us: f64,
}

impl Default for DegradedPolicy {
    fn default() -> Self {
        DegradedPolicy {
            stage_deadline_us: f64::INFINITY,
        }
    }
}

/// Explicit "stage unavailable" record for one frame: which stage was
/// dropped and why (its own overrun, or an unavailable upstream stage).
#[derive(Debug, Clone, PartialEq)]
pub struct DroppedStage {
    /// Stage name, as [`ShowcaseAssignment::tasks`] labels its tasks.
    pub stage: &'static str,
    /// Human-readable drop reason.
    pub reason: String,
}

/// Per-face outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FaceResult {
    /// Face box.
    pub bbox: BBox,
    /// Liveness decision.
    pub real: bool,
    /// Emotion label for real faces.
    pub emotion: Option<&'static str>,
}

/// Simulated time spent per stage for one frame, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShowcaseTiming {
    /// Object-detection model time.
    pub obj_us: f64,
    /// Anti-spoofing model time (summed over candidate faces).
    pub spoof_us: f64,
    /// Emotion model time (summed over real faces).
    pub emotion_us: f64,
}

impl ShowcaseTiming {
    /// Total simulated time.
    pub fn total_us(&self) -> f64 {
        self.obj_us + self.spoof_us + self.emotion_us
    }
}

/// Per-frame outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResult {
    /// Frame index.
    pub frame_index: usize,
    /// Detected object boxes.
    pub objects: Vec<BBox>,
    /// Gated face results.
    pub faces: Vec<FaceResult>,
    /// Stage timing.
    pub times: ShowcaseTiming,
    /// Stages dropped under the degraded-mode policy (empty when every
    /// stage met its deadline — always empty for [`Showcase::process_frame`]).
    pub dropped: Vec<DroppedStage>,
}

impl FrameResult {
    /// Whether any stage of this frame was dropped.
    pub fn degraded(&self) -> bool {
        !self.dropped.is_empty()
    }

    /// The result of a frame whose processing panicked: nothing
    /// delivered, every stage of the chain dropped and counted.
    pub fn lost(frame_index: usize, message: String) -> Self {
        let mut dropped = Vec::new();
        drop_from(&mut dropped, OBJ, format!("frame lost: {message}"));
        FrameResult::without_detections(frame_index, ShowcaseTiming::default(), dropped)
    }

    fn without_detections(
        frame_index: usize,
        times: ShowcaseTiming,
        dropped: Vec<DroppedStage>,
    ) -> Self {
        record_dropped_stages(&dropped);
        FrameResult {
            frame_index,
            objects: Vec::new(),
            faces: Vec::new(),
            times,
            dropped,
        }
    }
}

/// Fault wiring for a serving showcase: every model run consults the
/// injector and retries transient dispatch faults per `retry` (numerics
/// unchanged, simulated time absorbs the backoff). Default: the empty plan.
#[derive(Clone, Default)]
pub struct ShowcaseFaults {
    /// Shared fault source (shared so fault history spans all stages).
    pub injector: Arc<tvmnp_hwsim::FaultInjector>,
    /// Per-dispatch retry budget.
    pub retry: tvmnp_hwsim::RetryPolicy,
}

struct CompiledStage {
    model: Model,
    compiled: Mutex<CompiledModel>,
    mode: TargetMode,
}

impl CompiledStage {
    /// Run the stage model on `input` and charge its simulated time to
    /// `spent_us`, the stage's running total for the frame. The stage's
    /// devices are held through the showcase's lock table for the whole
    /// run — devices first, then the model mutex, so two frames never
    /// wait on each other in opposite orders — and the run dispatches
    /// through the showcase's fault plan. `Err(reason)` when the run
    /// failed or the total passed `budget_us`: a failure is an overrun
    /// with a different reason.
    fn run_model(
        &self,
        showcase: &Showcase,
        input: Tensor,
        spent_us: &mut f64,
        budget_us: f64,
    ) -> Result<Vec<Tensor>, String> {
        let inputs = self.model.inputs_from(input);
        let locks = showcase.locks.get_or_init(ResourceLocks::new);
        let opts = RunOptions {
            injector: Some(&showcase.faults.injector),
            retry: showcase.faults.retry,
            ..RunOptions::default()
        };
        let run = locks.with_resources(resources_of(self.mode), || {
            self.compiled.lock().run_with(&inputs, &opts)
        });
        let (outputs, us) = run.map_err(|e| format!("run failed: {e}"))?;
        *spent_us += us;
        if *spent_us > budget_us {
            return Err(format!(
                "deadline passed: {:.1} us of a {budget_us:.1} us budget",
                *spent_us
            ));
        }
        Ok(outputs)
    }
}

/// Mark stage `at` of the [`CHAIN`] dropped for `reason`, and every stage
/// after it unavailable: nothing downstream may run on a result that
/// never arrived.
fn drop_from(dropped: &mut Vec<DroppedStage>, at: usize, reason: String) {
    dropped.push(DroppedStage {
        stage: CHAIN[at],
        reason,
    });
    for &stage in &CHAIN[at + 1..] {
        dropped.push(DroppedStage {
            stage,
            reason: format!("upstream {} unavailable", CHAIN[at]),
        });
    }
}

/// The assembled application.
pub struct Showcase {
    obj: CompiledStage,
    spoof: CompiledStage,
    emotion: CompiledStage,
    liveness_threshold: f32,
    /// Device-lock table: every model run holds its stage's devices
    /// exclusively through it (the §5.2 constraint, across frames as well
    /// as across stages). The pool's shared table when
    /// [`Showcase::with_locks`] set one, otherwise this showcase's own,
    /// made on first use.
    locks: OnceLock<ResourceLocks>,
    /// Fault wiring: model runs dispatch through its injector with
    /// retries (numerics unchanged, simulated time absorbs backoff).
    faults: ShowcaseFaults,
}

fn compile(
    model: Model,
    mode: TargetMode,
    cost: &CostModel,
    cache: Option<&ArtifactCache>,
) -> CompiledStage {
    let built = match cache {
        Some(cache) => cache.get_or_build(&model.module, mode, cost, &quant_label(&model)),
        None => relay_build(&model.module, mode, cost.clone()),
    };
    let built = built.unwrap_or_else(|e| panic!("{} fails to build for {mode}: {e}", model.name));
    CompiledStage {
        model,
        compiled: Mutex::new(built),
        mode,
    }
}

/// Quant-config label of a model for the artifact-cache key.
fn quant_label(model: &Model) -> String {
    ArtifactCache::quant_label(model.input_quant)
}

impl Showcase {
    /// Build the three models (Listing 5's `build_model_on_TVM`) under the
    /// given assignment, and calibrate the liveness threshold on a short
    /// ground-truth calibration clip.
    pub fn new(seed: u64, assignment: ShowcaseAssignment, cost: &CostModel) -> Self {
        Self::build(seed, assignment, cost, None)
    }

    /// Like [`Showcase::new`], but compiled artifacts are served through
    /// `cache`: rebuilding the same showcase (another session, a fallback
    /// permutation, a second bench iteration) reuses each (model,
    /// permutation, quant) compilation instead of repeating it.
    pub fn new_cached(
        seed: u64,
        assignment: ShowcaseAssignment,
        cost: &CostModel,
        cache: &ArtifactCache,
    ) -> Self {
        Self::build(seed, assignment, cost, Some(cache))
    }

    fn build(
        seed: u64,
        assignment: ShowcaseAssignment,
        cost: &CostModel,
        cache: Option<&ArtifactCache>,
    ) -> Self {
        let obj = compile(mobilenet_ssd_model(seed), assignment.obj, cost, cache);
        let spoof = compile(
            anti_spoofing_model(seed.wrapping_add(1)),
            assignment.spoof,
            cost,
            cache,
        );
        let emotion = compile(
            emotion_model(seed.wrapping_add(2)),
            assignment.emotion,
            cost,
            cache,
        );
        let liveness_threshold = calibrate_liveness(seed.wrapping_add(3));
        Showcase {
            obj,
            spoof,
            emotion,
            liveness_threshold,
            locks: OnceLock::new(),
            faults: ShowcaseFaults::default(),
        }
    }

    /// Share a device-lock table with other showcases: every model run
    /// in [`Showcase::process_frame`] (and friends) will hold its stage's
    /// devices through `locks` instead of a table of this showcase's own.
    /// Required when several showcases serve frames at once (the serving
    /// pool), so that exclusivity holds across all of them.
    pub fn with_locks(mut self, locks: ResourceLocks) -> Self {
        self.locks = OnceLock::from(locks);
        self
    }

    /// Route every model dispatch through a fault injector with retries.
    /// Transient faults are absorbed (identical outputs, extra simulated
    /// time); exhausted retries drop the stage for that frame
    /// ([`DroppedStage`]), exactly as a deadline overrun does.
    pub fn with_faults(mut self, faults: ShowcaseFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Process one frame through the Fig. 1 flow.
    pub fn process_frame(&self, frame: &Frame) -> FrameResult {
        self.process_frame_with_deadline(frame, &DegradedPolicy::default())
    }

    /// Process one frame under a degraded-mode policy: any stage whose
    /// cumulative simulated time for this frame exceeds
    /// `policy.stage_deadline_us` is dropped, and every downstream stage
    /// sees an explicit [`DroppedStage`] record instead of stale results.
    pub fn process_frame_with_deadline(
        &self,
        frame: &Frame,
        policy: &DegradedPolicy,
    ) -> FrameResult {
        let budget = policy.stage_deadline_us;
        let mut times = ShowcaseTiming::default();
        let mut dropped: Vec<DroppedStage> = Vec::new();

        // Object detection: the DNN runs on the full frame (its latency is
        // the measured quantity); localization comes from the saliency
        // detector, as the untrained SSD cannot localize (DESIGN.md).
        let obj_input = prepare_ssd_input(frame);
        if let Err(reason) = self
            .obj
            .run_model(self, obj_input, &mut times.obj_us, budget)
        {
            // No detections to gate on: the whole downstream chain is
            // unavailable for this frame.
            drop_from(&mut dropped, OBJ, reason);
            return FrameResult::without_detections(frame.index, times, dropped);
        }
        let objects = luminance_saliency(frame, 4, 1.8);

        // Face detection + overlap gating (Listing 5).
        let face_boxes = match_faces(frame, 0.6);
        let candidates: Vec<BBox> = face_boxes
            .into_iter()
            .filter(|f| objects.iter().any(|o| o.overlaps(f)))
            .collect();

        let total_candidates = candidates.len();
        let mut faces = Vec::new();
        let mut emotion_dropped = false;
        for (k, bbox) in candidates.into_iter().enumerate() {
            // Anti-spoofing on the face crop.
            let crop = frame.crop_resized(bbox.tuple(), 32, 32);
            if let Err(reason) = self
                .spoof
                .run_model(self, crop, &mut times.spoof_us, budget)
            {
                // No liveness decision (or one past the stage deadline):
                // this face and the remaining candidates are reported as
                // unavailable, not as spoofs, and emotion never sees them.
                let at = format!("face {} of {total_candidates}: {reason}", k + 1);
                drop_from(&mut dropped, SPOOF, at);
                break;
            }
            // Liveness: texture feature on the same crop (the pixel map of
            // an untrained DeePixBiS is not discriminative; see DESIGN.md).
            let gray = frame.gray_crop_resized(bbox.tuple(), crate::frame::FACE_SIZE);
            let real = texture_energy(&gray) > self.liveness_threshold;

            // Emotion detection only on real faces (and only while its own
            // stage budget holds — a late label is withheld, not stale).
            let emotion = if real && !emotion_dropped {
                let e_in = frame.gray_crop_resized(bbox.tuple(), 48);
                match self
                    .emotion
                    .run_model(self, e_in, &mut times.emotion_us, budget)
                {
                    Ok(e_out) => Some(EMOTIONS[e_out[0].argmax()]),
                    Err(reason) => {
                        emotion_dropped = true;
                        drop_from(&mut dropped, EMOTION, format!("face {}: {reason}", k + 1));
                        None
                    }
                }
            } else {
                None
            };
            faces.push(FaceResult {
                bbox,
                real,
                emotion,
            });
        }
        record_dropped_stages(&dropped);

        FrameResult {
            frame_index: frame.index,
            objects,
            faces,
            times,
            dropped,
        }
    }

    /// Sequential per-frame processing (the §4.4 baseline).
    pub fn process_video(&self, frames: &[Frame]) -> Vec<FrameResult> {
        frames.iter().map(|f| self.process_frame(f)).collect()
    }

    /// Pipelined processing (§5.2, Fig. 5): the same frame flow with one
    /// frame per model stage in flight, the device locks deciding what
    /// overlaps. Results are identical to [`Showcase::process_video`];
    /// only the wall-clock schedule changes. A frame whose processing
    /// panics comes back as [`FrameResult::lost`]; every other frame
    /// completes normally.
    pub fn process_video_pipelined(&self, frames: Vec<Frame>) -> Vec<FrameResult> {
        run_window(&frames, CHAIN.len(), |_, _, f| self.process_frame(f))
            .into_iter()
            .zip(&frames)
            .map(|(r, f)| r.unwrap_or_else(|message| FrameResult::lost(f.index, message)))
            .collect()
    }

    /// Measured per-stage latencies (for the Fig. 5 simulation), taken
    /// from a representative frame containing a real face.
    pub fn stage_profile(&self, seed: u64) -> Vec<Task> {
        let mut video = SyntheticVideo::new(seed, 64, 64);
        let frames = video.frames(4);
        // Scene 2 of the cycle holds a real face → all three stages run.
        let r = self.process_frame(&frames[2]);
        let assignment = ShowcaseAssignment {
            obj: self.obj.mode,
            spoof: self.spoof.mode,
            emotion: self.emotion.mode,
        };
        assignment
            .tasks(&r.times)
            .map(|t| Task::new(t.label, t.devices, t.us.max(1.0)))
            .to_vec()
    }
}

/// Emit one `vision.frames_dropped{stage=}` counter tick per dropped
/// stage record (no-op while telemetry is disabled).
fn record_dropped_stages(dropped: &[DroppedStage]) {
    if dropped.is_empty() || !tvmnp_telemetry::is_enabled() {
        return;
    }
    for d in dropped {
        tvmnp_telemetry::counter_add("vision.frames_dropped", &[("stage", d.stage)], 1);
    }
}

/// Resize + quantize a frame for the SSD input.
fn prepare_ssd_input(frame: &Frame) -> Tensor {
    let resized = frame.crop_resized((0, 0, frame.width(), frame.height()), 64, 64);
    resized
        .quantize(ssd_input_quant(), DType::U8)
        .expect("quantize frame")
}

/// Calibrate the liveness threshold on a labelled calibration clip:
/// geometric midpoint between real-face and spoof-face texture energies.
fn calibrate_liveness(seed: u64) -> f32 {
    let mut video = SyntheticVideo::new(seed, 64, 64);
    let frames = video.frames(8);
    let mut real = Vec::new();
    let mut spoof = Vec::new();
    for f in &frames {
        for o in &f.objects {
            if let Some((bbox, kind)) = o.face {
                let e = texture_energy(&f.gray_crop_resized(bbox, crate::frame::FACE_SIZE));
                match kind {
                    FaceKind::Real => real.push(e),
                    FaceKind::Spoof => spoof.push(e),
                }
            }
        }
    }
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
    (mean(&real) * mean(&spoof)).max(1e-12).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn showcase() -> Showcase {
        Showcase::new(
            1000,
            ShowcaseAssignment::paper_prototype(),
            &CostModel::default(),
        )
    }

    #[test]
    fn frame_flow_matches_listing5() {
        let sc = showcase();
        let mut video = SyntheticVideo::new(2000, 64, 64);
        let frames = video.frames(4);

        // Frame 0: empty scene — nothing detected, only obj-det ran.
        let r0 = sc.process_frame(&frames[0]);
        assert!(r0.objects.is_empty());
        assert!(r0.faces.is_empty());
        assert!(r0.times.obj_us > 0.0);
        assert_eq!(r0.times.spoof_us, 0.0);

        // Frame 1: person, no face — no anti-spoofing.
        let r1 = sc.process_frame(&frames[1]);
        assert!(!r1.objects.is_empty());
        assert!(r1.faces.is_empty());

        // Frame 2: real face — all three stages ran, emotion assigned.
        let r2 = sc.process_frame(&frames[2]);
        assert_eq!(r2.faces.len(), 1);
        assert!(r2.faces[0].real);
        assert!(r2.faces[0].emotion.is_some());
        assert!(r2.times.spoof_us > 0.0);
        assert!(r2.times.emotion_us > 0.0);

        // Frame 3: spoof face — anti-spoofing ran, emotion did not.
        let r3 = sc.process_frame(&frames[3]);
        assert_eq!(r3.faces.len(), 1);
        assert!(!r3.faces[0].real);
        assert!(r3.faces[0].emotion.is_none());
        assert!(r3.times.spoof_us > 0.0);
        assert_eq!(r3.times.emotion_us, 0.0);
    }

    #[test]
    fn infinite_deadline_never_degrades() {
        let sc = showcase();
        let mut video = SyntheticVideo::new(2000, 64, 64);
        let frames = video.frames(4);
        let policy = DegradedPolicy::default();
        let results: Vec<FrameResult> = (frames.iter())
            .map(|f| sc.process_frame_with_deadline(f, &policy))
            .collect();
        assert!(results.iter().all(|r| !r.degraded()));
        assert_eq!(results.iter().map(|r| r.dropped.len()).sum::<usize>(), 0);
        // Identical to the plain path.
        let plain = sc.process_video(&frames);
        for (a, b) in results.iter().zip(&plain) {
            assert_eq!(a.faces, b.faces);
            assert_eq!(a.objects, b.objects);
        }
    }

    #[test]
    fn obj_det_overrun_drops_whole_frame_chain() {
        let sc = showcase();
        let mut video = SyntheticVideo::new(2000, 64, 64);
        let frames = video.frames(4);
        // Deadline below any model's latency: obj-det always overruns.
        let policy = DegradedPolicy {
            stage_deadline_us: 1.0,
        };
        let r = sc.process_frame_with_deadline(&frames[2], &policy);
        assert!(r.degraded());
        assert!(r.objects.is_empty());
        assert!(r.faces.is_empty());
        let stages: Vec<&str> = r.dropped.iter().map(|d| d.stage).collect();
        assert_eq!(stages, vec!["obj-det", "anti-spoof", "emotion"]);
        // Downstream drops carry the explicit upstream-unavailable reason.
        assert!(r.dropped[1].reason.contains("obj-det unavailable"));
        // Only obj-det actually consumed simulated time.
        assert!(r.times.obj_us > 0.0);
        assert_eq!(r.times.spoof_us, 0.0);
        assert_eq!(r.times.emotion_us, 0.0);
    }

    #[test]
    fn spoof_overrun_skips_emotion_with_explicit_marker() {
        let sc = showcase();
        let mut video = SyntheticVideo::new(2000, 64, 64);
        let frames = video.frames(4);
        // Per-stage budget between obj-det's latency and the (larger)
        // anti-spoofing latency: obj-det fits, the liveness decision on
        // the real-face frame arrives past the deadline.
        let base = sc.process_frame(&frames[2]);
        assert!(base.times.spoof_us > base.times.obj_us);
        let budget = (base.times.obj_us + base.times.spoof_us) / 2.0;
        let policy = DegradedPolicy {
            stage_deadline_us: budget,
        };
        let r = sc.process_frame_with_deadline(&frames[2], &policy);
        assert!(r.degraded());
        // Objects survived (obj-det met its budget) …
        assert_eq!(r.objects, base.objects);
        // … but the face is unavailable, not misclassified as spoof.
        assert!(r.faces.is_empty());
        let stages: Vec<&str> = r.dropped.iter().map(|d| d.stage).collect();
        assert_eq!(stages, vec!["anti-spoof", "emotion"]);
        assert!(r.dropped[0].reason.contains("deadline"));
        assert!(r.dropped[1].reason.contains("anti-spoof unavailable"));
        // Emotion never ran.
        assert_eq!(r.times.emotion_us, 0.0);
        // Deterministic: same inputs, same policy, same outcome.
        let r2 = sc.process_frame_with_deadline(&frames[2], &policy);
        assert_eq!(r.faces, r2.faces);
        assert_eq!(r.dropped, r2.dropped);
    }

    #[test]
    fn drop_stats_account_degraded_frames() {
        let sc = showcase();
        let mut video = SyntheticVideo::new(2000, 64, 64);
        let frames = video.frames(4);
        let policy = DegradedPolicy {
            stage_deadline_us: 1.0,
        };
        let results: Vec<FrameResult> = (frames.iter())
            .map(|f| sc.process_frame_with_deadline(f, &policy))
            .collect();
        // Every frame runs obj-det, and 1 us is under any model latency.
        let degraded_frames = results.iter().filter(|r| r.degraded()).count();
        let stages_dropped: usize = results.iter().map(|r| r.dropped.len()).sum();
        assert_eq!(degraded_frames, results.len());
        assert_eq!(stages_dropped, 3 * results.len());
    }

    #[test]
    fn pipelined_results_match_sequential() {
        let sc = showcase();
        let mut video = SyntheticVideo::new(2000, 64, 64);
        let frames = video.frames(8);
        let seq = sc.process_video(&frames);
        assert_eq!(seq, sc.process_video_pipelined(frames));
    }

    #[test]
    fn a_lost_apu_drops_emotion_the_same_at_every_window() {
        // The emotion model runs on the APU alone; with that device gone
        // its runs fail, on whichever thread the frame is processed.
        let plan = tvmnp_hwsim::FaultPlan::seeded(5)
            .with_spec("apu:dispatch:device-lost")
            .unwrap();
        let sc = showcase().with_faults(ShowcaseFaults {
            injector: Arc::new(tvmnp_hwsim::FaultInjector::new(plan)),
            retry: tvmnp_hwsim::RetryPolicy::default(),
        });
        let mut video = SyntheticVideo::new(2000, 64, 64);
        let frames = video.frames(8);
        let clean = showcase().process_video(&frames);
        let seq = sc.process_video(&frames);
        for (c, r) in clean.iter().zip(&seq) {
            // Object detection is CPU-only and unaffected.
            assert_eq!(c.objects, r.objects);
            let emotion_dropped = r.dropped.iter().any(|d| d.stage == "emotion");
            let real_face = c.faces.iter().any(|f| f.real);
            assert!(emotion_dropped || !real_face, "frame {}", r.frame_index);
            assert!(r.faces.iter().all(|f| f.emotion.is_none()));
        }
        assert!(seq.iter().any(|r| r.degraded()));
        assert_eq!(seq, sc.process_video_pipelined(frames));
    }

    #[test]
    fn stage_profile_has_three_stages_with_paper_resources() {
        let sc = showcase();
        let stages = sc.stage_profile(2000);
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].devices, [DeviceKind::Cpu]);
        assert_eq!(stages[1].devices, [DeviceKind::Cpu, DeviceKind::Apu]);
        assert_eq!(stages[2].devices, [DeviceKind::Apu]);
        assert!(stages.iter().all(|s| s.us > 0.0));
    }

    #[test]
    fn anti_spoof_is_slowest_model_of_the_three() {
        // Fig. 4's observation: the anti-spoofing model's inference time
        // exceeds the other two (many subgraphs).
        let sc = showcase();
        let stages = sc.stage_profile(2000);
        let spoof = stages[1].us;
        assert!(
            spoof > stages[0].us,
            "spoof {} vs obj {}",
            spoof,
            stages[0].us
        );
        assert!(
            spoof > stages[2].us,
            "spoof {} vs emo {}",
            spoof,
            stages[2].us
        );
    }
}
