//! `serve_showcase`: the paper's Fig. 1 application end to end.
//!
//! `SessionPool::serve(&frames[2i..2i+2], 1)` over 32 synthetic 64×64
//! frames; two frames are one turn of `serving_rotation()`: 16 kinds, 32
//! ops (= frames). Concurrency 1 is deliberate — two workers on two
//! shared vCPUs repeat four times worse — and the 2-worker path is the
//! per-layer `serving.serve_c2_ms`.

use super::{Input, Workload};
use crate::harness::{Kind, Outcome};
use crate::span::SpanBuf;
use std::rc::Rc;
use std::sync::Arc;
use tvm_neuropilot::byoc::{ArtifactCache, CompiledModel};
use tvm_neuropilot::hwsim::CostModel;
use tvm_neuropilot::models::object_detection::ssd_input_quant;
use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection, Model};
use tvm_neuropilot::serving::{serving_rotation, SessionPool};
use tvm_neuropilot::tensor::DType;
use tvm_neuropilot::vision::detect::texture_energy;
use tvm_neuropilot::vision::frame::FACE_SIZE;
use tvm_neuropilot::vision::{
    luminance_saliency, match_faces, Frame, FrameResult, Showcase, ShowcaseAssignment,
    SyntheticVideo,
};

pub struct ServeShowcase;

pub const FRAMES: usize = 32;
/// Frames per `serve` call: one turn of the two-session rotation.
pub const BATCH: usize = 2;

pub struct State {
    pub pool: SessionPool,
    pub cache: Arc<ArtifactCache>,
}

/// The synthetic clip of a run.
pub fn frames(seed: u64) -> Vec<Frame> {
    SyntheticVideo::new(seed.wrapping_add(7), 64, 64).frames(FRAMES)
}

/// Per-frame results from showcases built without the pool, the cache or
/// the device locks: frame `i` belongs to rotation entry `i % 2`.
pub fn reference(seed: u64, frames: &[Frame]) -> Vec<FrameResult> {
    let cost = CostModel::default();
    let sessions: Vec<Showcase> = serving_rotation()
        .iter()
        .map(|a| Showcase::new(seed, *a, &cost))
        .collect();
    frames
        .iter()
        .map(|f| sessions[f.index % sessions.len()].process_frame(f))
        .collect()
}

/// The three models of one rotation entry, instantiated from the pool's
/// cache (memory hits), for the replay to run step by step.
struct ReplayModels {
    obj: (Model, CompiledModel),
    spoof: (Model, CompiledModel),
    emotion: (Model, CompiledModel),
}

impl ReplayModels {
    fn new(seed: u64, a: ShowcaseAssignment, cache: &ArtifactCache) -> Result<Self, String> {
        let cost = CostModel::default();
        let get = |model: Model, mode| {
            let quant = ArtifactCache::quant_label(model.input_quant);
            cache
                .get_or_build(&model.module, mode, &cost, &quant)
                .map(|c| (model, c))
                .map_err(|e| e.to_string())
        };
        // Same seeds as `Showcase::new`, so the cache keys match.
        Ok(ReplayModels {
            obj: get(object_detection::mobilenet_ssd_model(seed), a.obj)?,
            spoof: get(
                anti_spoofing::anti_spoofing_model(seed.wrapping_add(1)),
                a.spoof,
            )?,
            emotion: get(emotion::emotion_model(seed.wrapping_add(2)), a.emotion)?,
        })
    }

    /// `Showcase::process_frame` step by step; the face list and the
    /// liveness verdicts come from the real call's result.
    fn frame(&mut self, buf: &mut SpanBuf, frame: &Frame, result: &FrameResult) {
        let run = |buf: &mut SpanBuf, name, m: &mut (Model, CompiledModel), input| {
            let inputs = m.0.inputs_from(input);
            buf.span(name, |_| m.1.run(&inputs))
                .expect("replayed model runs");
        };
        let obj_in = buf.span("vision.prepare_input", |_| {
            frame
                .crop_resized((0, 0, frame.width(), frame.height()), 64, 64)
                .quantize(ssd_input_quant(), DType::U8)
                .expect("quantizes")
        });
        run(buf, "byoc.run_obj", &mut self.obj, obj_in);
        buf.span("vision.saliency", |_| luminance_saliency(frame, 4, 1.8));
        buf.span("vision.match_faces", |_| match_faces(frame, 0.6));
        for face in &result.faces {
            let crop = buf.span("vision.crop_resize", |_| {
                frame.crop_resized(face.bbox.tuple(), 32, 32)
            });
            run(buf, "byoc.run_spoof", &mut self.spoof, crop);
            buf.span("vision.texture", |_| {
                texture_energy(&frame.gray_crop_resized(face.bbox.tuple(), FACE_SIZE))
            });
            if face.emotion.is_some() {
                let gray = buf.span("vision.crop_resize", |_| {
                    frame.gray_crop_resized(face.bbox.tuple(), 48)
                });
                run(buf, "byoc.run_emotion", &mut self.emotion, gray);
            }
        }
    }
}

impl Workload for ServeShowcase {
    type State = State;

    fn setup(input: &Input) -> State {
        let cache = Arc::new(ArtifactCache::new(usize::MAX));
        let pool = SessionPool::new(
            input.seed,
            &serving_rotation(),
            &CostModel::default(),
            cache.clone(),
        );
        State { pool, cache }
    }

    fn kinds(state: State, input: &Input) -> Result<Vec<Kind>, String> {
        let frames = Rc::new(frames(input.seed));
        let reference = Rc::new(reference(input.seed, &frames));
        let mut replay_models = Vec::new();
        for a in serving_rotation() {
            replay_models.push(ReplayModels::new(input.seed, a, &state.cache)?);
        }
        let replay_models = Rc::new(std::cell::RefCell::new(replay_models));
        let pool = Rc::new(state.pool);

        let mut kinds = Vec::new();
        for batch in 0..FRAMES / BATCH {
            let at = batch * BATCH;
            let (run_pool, run_frames, run_ref) = (pool.clone(), frames.clone(), reference.clone());
            let (replay_frames, replay_ref, models) =
                (frames.clone(), reference.clone(), replay_models.clone());
            kinds.push(
                Kind::new(
                    format!("serve frames {at}..{}", at + BATCH),
                    BATCH as u32,
                    move |meter| {
                        let results = meter.call(|| run_pool.serve(&run_frames[at..at + BATCH], 1));
                        // frames_in == delivered, each equal to its reference.
                        let wrong = (0..BATCH)
                            .filter(|&j| results.get(j) != Some(&run_ref[at + j]))
                            .count()
                            + results.len().saturating_sub(BATCH);
                        Outcome {
                            sim_us: results.iter().map(|r| r.times.total_us()).sum(),
                            failed: wrong.min(BATCH) as u32,
                        }
                    },
                )
                .with_replay(move |buf| {
                    let mut models = models.borrow_mut();
                    for j in at..at + BATCH {
                        let session = replay_frames[j].index % models.len();
                        models[session].frame(buf, &replay_frames[j], &replay_ref[j]);
                    }
                }),
            );
        }
        Ok(kinds)
    }
}
