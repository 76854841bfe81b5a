//! The multi-frame session pool.
//!
//! A pool owns a small set of showcase sessions — one per assignment in
//! a *rotation* — sharing one artifact cache and one device-lock table.
//! Frame `i` is always served by session `i % rotation.len()`, so the
//! mapping (and therefore every numeric output) is independent of how
//! many frames run concurrently.

use std::sync::Arc;

use tvmnp_byoc::{ArtifactCache, TargetMode};
use tvmnp_hwsim::CostModel;
use tvmnp_neuropilot::TargetPolicy;
use tvmnp_scheduler::{run_window, ResourceLocks};
use tvmnp_vision::{Frame, FrameResult, Showcase, ShowcaseAssignment, ShowcaseFaults};

/// The throughput-tuned serving rotation: object detection on the GPU
/// (idle under the paper's latency-greedy assignments), anti-spoofing
/// alternating between a CPU-only and an APU-only build, emotion on the
/// APU. Alternating the anti-spoofing target splits the heaviest model
/// across two device queues — the pool analogue of §5.1's per-model
/// target search, optimizing throughput instead of single-frame latency.
pub fn serving_rotation() -> Vec<ShowcaseAssignment> {
    vec![
        ShowcaseAssignment {
            obj: TargetMode::Byoc(TargetPolicy::GpuPrefer),
            spoof: TargetMode::Byoc(TargetPolicy::CpuOnly),
            emotion: TargetMode::NeuroPilotOnly(TargetPolicy::ApuPrefer),
        },
        ShowcaseAssignment {
            obj: TargetMode::Byoc(TargetPolicy::GpuPrefer),
            spoof: TargetMode::Byoc(TargetPolicy::ApuPrefer),
            emotion: TargetMode::NeuroPilotOnly(TargetPolicy::ApuPrefer),
        },
    ]
}

/// A pool of showcase sessions serving frames concurrently.
pub struct SessionPool {
    sessions: Vec<Arc<Showcase>>,
    assignments: Vec<ShowcaseAssignment>,
    cache: Arc<ArtifactCache>,
}

impl SessionPool {
    /// Build one session per assignment in `rotation`, all sharing
    /// `cache` and one device-lock table. Assignments that agree on a
    /// (model, permutation, quant) triple share the compiled artifact.
    pub fn new(
        seed: u64,
        rotation: &[ShowcaseAssignment],
        cost: &CostModel,
        cache: Arc<ArtifactCache>,
    ) -> Self {
        Self::new_with_faults(seed, rotation, cost, cache, ShowcaseFaults::default())
    }

    /// Like [`SessionPool::new`], with every session's model dispatches
    /// routed through `faults` (see [`Showcase::with_faults`]).
    pub fn new_with_faults(
        seed: u64,
        rotation: &[ShowcaseAssignment],
        cost: &CostModel,
        cache: Arc<ArtifactCache>,
        faults: ShowcaseFaults,
    ) -> Self {
        assert!(!rotation.is_empty(), "a pool needs at least one session");
        let locks = ResourceLocks::new();
        let sessions = rotation
            .iter()
            .map(|a| {
                let session = Showcase::new_cached(seed, *a, cost, &cache);
                Arc::new(
                    session
                        .with_locks(locks.clone())
                        .with_faults(faults.clone()),
                )
            })
            .collect();
        SessionPool {
            sessions,
            assignments: rotation.to_vec(),
            cache,
        }
    }

    /// The assignment serving frame `frame_index`.
    pub fn assignment_for(&self, frame_index: usize) -> ShowcaseAssignment {
        self.assignments[frame_index % self.assignments.len()]
    }

    /// The session serving frame `frame_index`.
    pub fn session_for(&self, frame_index: usize) -> &Showcase {
        &self.sessions[frame_index % self.sessions.len()]
    }

    /// All sessions, in rotation order.
    pub fn sessions(&self) -> &[Arc<Showcase>] {
        &self.sessions
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Serve `frames` with up to `concurrency` frames in flight,
    /// returning per-frame results in input order:
    /// [`run_window`] at window `concurrency`, so `concurrency <= 1`
    /// processes sequentially on the caller's thread and otherwise the
    /// §5.2 locks serialize device access between the workers. Outputs
    /// are bit-identical across concurrency levels: the frame → session
    /// mapping is by frame index, and device exclusivity makes every
    /// model run independent of schedule. A frame whose processing
    /// panics is returned as [`FrameResult::lost`]; the rest are served.
    pub fn serve(&self, frames: &[Frame], concurrency: usize) -> Vec<FrameResult> {
        self.serve_inner(frames, concurrency, None)
    }

    /// Shared serve loop. With a [`crate::observe::TraceRuntime`], each
    /// frame runs under a per-frame trace context on its worker's
    /// Chrome-trace lane, and a lost frame dumps the flight recorder.
    /// With `None` this is exactly the pre-observability hot path — no
    /// trace guards, no extra atomics.
    pub(crate) fn serve_inner(
        &self,
        frames: &[Frame],
        concurrency: usize,
        tracing: Option<&crate::observe::TraceRuntime<'_>>,
    ) -> Vec<FrameResult> {
        let served = run_window(frames, concurrency, |worker, slot, f| match tracing {
            None => self.session_for(f.index).process_frame(f),
            Some(rt) => rt.run_frame(self, worker, slot, f),
        });
        served
            .into_iter()
            .enumerate()
            .map(|(slot, result)| {
                result.unwrap_or_else(|message| {
                    let index = frames[slot].index;
                    if let Some(rt) = tracing {
                        rt.plane.worker_panic(index, &message);
                    }
                    FrameResult::lost(index, message)
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_vision::SyntheticVideo;

    fn clip(n: usize) -> Vec<Frame> {
        SyntheticVideo::new(42, 64, 64).frames(n)
    }

    fn pool() -> SessionPool {
        SessionPool::new(
            1000,
            &serving_rotation(),
            &CostModel::default(),
            Arc::new(ArtifactCache::new(usize::MAX)),
        )
    }

    fn assert_identical(a: &[FrameResult], b: &[FrameResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.frame_index, y.frame_index);
            assert_eq!(x.objects, y.objects);
            assert_eq!(x.faces, y.faces);
            assert_eq!(x.times, y.times);
            assert_eq!(x.dropped, y.dropped);
        }
    }

    #[test]
    fn concurrent_serving_matches_sequential_bitwise() {
        let pool = pool();
        let frames = clip(32);
        let seq = pool.serve(&frames, 1);
        let conc = pool.serve(&frames, 4);
        assert_identical(&seq, &conc);
        // Order preserved: results come back in input order even though
        // workers finish out of order.
        for (i, r) in conc.iter().enumerate() {
            assert_eq!(r.frame_index, frames[i].index);
        }
    }

    #[test]
    fn sessions_share_compiled_artifacts_through_the_cache() {
        let cache = Arc::new(ArtifactCache::new(usize::MAX));
        let _pool = SessionPool::new(
            1000,
            &serving_rotation(),
            &CostModel::default(),
            cache.clone(),
        );
        let stats = cache.stats();
        // Two sessions × three models = six builds, but obj-det and
        // emotion configs agree across the rotation: four compilations,
        // two cache hits.
        assert_eq!(stats.misses, 4, "{stats:?}");
        assert_eq!(stats.hits, 2, "{stats:?}");
    }

    #[test]
    fn concurrency_higher_than_frame_count_is_fine() {
        let pool = pool();
        let frames = clip(3);
        let seq = pool.serve(&frames, 1);
        let conc = pool.serve(&frames, 16);
        assert_identical(&seq, &conc);
    }
}
