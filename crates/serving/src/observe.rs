//! Observed serving: the session pool wired into the live observability
//! plane (`tvmnp-observe`).
//!
//! [`SessionPool::serve_observed`] serves exactly like
//! [`SessionPool::serve`] — same frame → session mapping, same locks,
//! bit-identical results — while additionally:
//!
//! * running every frame under a per-frame trace context (trace id =
//!   frame index + 1), so executor nodes, retries, and fallback
//!   re-dispatches recorded during the frame reassemble into one causal
//!   span tree per frame;
//! * pinning concurrent workers to stable Chrome-trace lanes;
//! * replaying the frame results through the deterministic schedule
//!   simulator and stitching the resulting timeline — frame root,
//!   queue-wait intervals, stage summaries — onto each frame's trace;
//! * feeding the stats registry: per-{stage, device} latency sketches,
//!   the queue-wait vs compute split, cache hit rates, and the SLO
//!   check that triggers flight-recorder dumps;
//! * dumping the flight window for every frame lost to a panic.

use crate::pool::SessionPool;
use crate::simulate::{frame_segments, simulate_serve_timeline};
use tvmnp_hwsim::{DeviceKind, JobTimeline, Task};
use tvmnp_observe::ObservePlane;
use tvmnp_telemetry::trace::SpanIds;
use tvmnp_vision::{Frame, FrameResult};

/// Pipeline label stamped on every span and series the showcase pool
/// records.
pub const PIPELINE: &str = "showcase";

/// Per-serve trace state handed into the pool's serve loop: the plane
/// plus one pre-allocated root span id per frame slot, so worker-side
/// spans and the post-hoc schedule spans agree on each frame's root.
pub(crate) struct TraceRuntime<'a> {
    pub(crate) plane: &'a ObservePlane,
    pub(crate) roots: &'a [u64],
}

impl TraceRuntime<'_> {
    /// Run one frame under its trace context, on the Chrome-trace lane
    /// of the worker it was handed to (`None`: the caller's own thread).
    pub(crate) fn run_frame(
        &self,
        pool: &SessionPool,
        worker: Option<usize>,
        slot: usize,
        frame: &Frame,
    ) -> FrameResult {
        tvmnp_telemetry::set_worker_lane(worker.map(|w| w as u64));
        let session_idx = frame.index % pool.sessions().len();
        let _trace = tvmnp_telemetry::begin_trace(
            trace_id_for(frame.index),
            self.roots[slot],
            vec![
                ("pipeline", PIPELINE.into()),
                ("session", session_idx.into()),
            ],
        );
        pool.session_for(frame.index).process_frame(frame)
    }
}

/// Trace id a frame's spans are recorded under (stable across runs:
/// derived from the frame index, never from a clock).
pub fn trace_id_for(frame_index: usize) -> u64 {
    frame_index as u64 + 1
}

impl SessionPool {
    /// Serve with full observability. Returns results bit-identical to
    /// [`SessionPool::serve`] on the same frames — observation never
    /// touches the numeric path. See the module docs for what is
    /// recorded where.
    pub fn serve_observed(
        &self,
        frames: &[Frame],
        concurrency: usize,
        plane: &ObservePlane,
    ) -> Vec<FrameResult> {
        let roots: Vec<u64> = frames
            .iter()
            .map(|_| tvmnp_telemetry::alloc_span_id())
            .collect();
        let runtime = TraceRuntime {
            plane,
            roots: &roots,
        };
        let results = self.serve_inner(frames, concurrency, Some(&runtime));

        // Replay the measured per-frame timings through the schedule
        // simulator to decompose each frame into admission wait, device
        // wait, and compute — then stitch that timeline onto the traces
        // and into the registry, in frame order (deterministic).
        let per_frame: Vec<Vec<Task>> = results
            .iter()
            .map(|r| frame_segments(self.assignment_for(r.frame_index), r))
            .collect();
        let (_, timelines) = simulate_serve_timeline(&per_frame, concurrency);
        for ((result, timeline), root) in results.iter().zip(timelines.jobs()).zip(&roots) {
            self.record_frame_observation(plane, result, &timeline, *root);
        }

        let stats = self.cache().stats();
        if stats.hits + stats.misses > 0 {
            plane.registry.gauge_set(
                "cache.hit_rate",
                &[],
                stats.hits as f64 / (stats.hits + stats.misses) as f64,
            );
        }
        plane.registry.counter_add("cache.hits", &[], stats.hits);
        plane
            .registry
            .counter_add("cache.misses", &[], stats.misses);
        results
    }

    fn record_frame_observation(
        &self,
        plane: &ObservePlane,
        result: &FrameResult,
        timeline: &JobTimeline,
        root: u64,
    ) {
        let trace = trace_id_for(result.frame_index);
        let root_ids = SpanIds {
            trace,
            span: root,
            parent: 0,
        };
        let child = |ids: &SpanIds| SpanIds {
            trace,
            span: tvmnp_telemetry::alloc_span_id(),
            parent: ids.span,
        };

        // Frame root covers arrival (t = 0) to completion on the
        // simulated schedule; its children decompose the interval.
        tvmnp_telemetry::record_sim_span_traced(
            root_ids,
            "serve.frame",
            0.0,
            timeline.end_us,
            vec![
                ("pipeline", PIPELINE.into()),
                ("frame", result.frame_index.into()),
            ],
        );
        if timeline.admit_us > 0.0 {
            tvmnp_telemetry::record_sim_span_traced(
                child(&root_ids),
                "serve.wait",
                0.0,
                timeline.admit_us,
                vec![("reason", "admission".into())],
            );
        }
        for seg in timeline.segments {
            let device = DeviceKind::set_label(seg.devices);
            if seg.wait_us() > 0.0 {
                tvmnp_telemetry::record_sim_span_traced(
                    child(&root_ids),
                    "serve.wait",
                    // `ready_us` up to rounding; kept so the span's bits
                    // match what the traces have always carried.
                    seg.start_us - seg.wait_us(),
                    seg.wait_us(),
                    vec![
                        ("reason", "device".into()),
                        ("device", device.clone().into()),
                    ],
                );
            }
            tvmnp_telemetry::record_sim_span_traced(
                child(&root_ids),
                "serve.stage",
                seg.start_us,
                seg.us,
                vec![
                    ("stage", seg.label.into()),
                    ("device", device.clone().into()),
                ],
            );
            plane.registry.observe_us(
                "stage_us",
                &[
                    ("pipeline", PIPELINE),
                    ("stage", seg.label),
                    ("device", &device),
                ],
                seg.us,
            );
        }
        plane.registry.observe_us(
            "wait_us",
            &[("pipeline", PIPELINE), ("reason", "admission")],
            timeline.admit_us,
        );
        plane.registry.observe_us(
            "wait_us",
            &[("pipeline", PIPELINE), ("reason", "device")],
            timeline.device_wait_us(),
        );
        plane.registry.observe_us(
            "compute_us",
            &[("pipeline", PIPELINE)],
            timeline.compute_us(),
        );
        // Last: frame_done runs the SLO check, so a breach dump's window
        // already contains this frame's spans.
        plane.frame_done(PIPELINE, result.frame_index, timeline.end_us);
    }
}
