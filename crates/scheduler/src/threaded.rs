//! A real multi-threaded pipeline executor.
//!
//! The simulators in [`crate::pipeline`] predict the schedule; this module
//! *runs* one: each stage gets its own worker thread, frames flow through
//! crossbeam channels, and per-device locks enforce the §5.2 exclusivity
//! constraint ("models could not utilize the same resources at the same
//! time"). The application showcase drives its three compiled models
//! through this executor.
//!
//! Failure handling is per-frame, not per-process: a stage body that
//! returns an [`ExecError`] or panics marks *that frame* failed (a typed
//! [`FrameFailure`] naming the stage and frame) and every other in-flight
//! frame completes normally. Channels are bounded by a small constant, so
//! memory stays O(pipeline depth), not O(stream length).

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use tvmnp_hwsim::DeviceKind;
use tvmnp_runtime::ExecError;

/// Per-stage channel capacity: enough for one frame in flight plus one
/// queued, independent of how many frames the stream carries.
const STAGE_DEPTH: usize = 2;

/// One pipeline stage: a work function plus the devices it occupies.
pub struct StageSpec<T> {
    /// Stage name (for diagnostics).
    pub name: String,
    /// Devices held exclusively while the stage body runs.
    pub resources: Vec<DeviceKind>,
    /// The stage body. An `Err` fails the current frame only.
    pub work: Box<dyn Fn(T) -> Result<T, ExecError> + Send>,
}

impl<T> StageSpec<T> {
    /// Convenience constructor for infallible stage bodies.
    pub fn new(
        name: &str,
        resources: &[DeviceKind],
        work: impl Fn(T) -> T + Send + 'static,
    ) -> Self {
        StageSpec {
            name: name.into(),
            resources: resources.to_vec(),
            work: Box::new(move |t| Ok(work(t))),
        }
    }

    /// A stage whose body may fail a frame with a typed [`ExecError`];
    /// the failure becomes a [`FrameFailure`] instead of a panic.
    pub fn fallible(
        name: &str,
        resources: &[DeviceKind],
        work: impl Fn(T) -> Result<T, ExecError> + Send + 'static,
    ) -> Self {
        StageSpec {
            name: name.into(),
            resources: resources.to_vec(),
            work: Box::new(work),
        }
    }
}

/// Why one frame did not make it through the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameFailure {
    /// Input sequence number of the frame.
    pub frame: usize,
    /// Stage the frame died at.
    pub stage: String,
    /// The stage's error ([`ExecErrorKind::General`] with a panic message
    /// when the stage body panicked).
    ///
    /// [`ExecErrorKind::General`]: tvmnp_runtime::ExecErrorKind::General
    pub error: ExecError,
    /// Whether the stage body panicked (vs returning an error).
    pub panicked: bool,
}

impl fmt::Display for FrameFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let how = if self.panicked { "panicked" } else { "failed" };
        write!(
            f,
            "frame {} {how} at stage '{}': {}",
            self.frame, self.stage, self.error
        )
    }
}

/// A frame's pipeline outcome: the transformed item, or a typed record of
/// where and why it was lost.
pub type FrameOutput<T> = Result<T, FrameFailure>;

/// Pipeline-level failure (as opposed to a single lost frame).
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A stage body panicked while processing a frame. The panic was
    /// caught, every other in-flight frame completed, and all workers
    /// were joined before this was returned.
    StagePanic {
        /// Stage whose body panicked.
        stage: String,
        /// Frame being processed when it panicked.
        frame: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// A stage body returned an error for a frame (strict mode only —
    /// [`PipelineExecutor::run_with_failures`] reports this per frame
    /// instead).
    FrameFailed {
        /// Stage that rejected the frame.
        stage: String,
        /// Frame that failed.
        frame: usize,
        /// The stage's error.
        error: ExecError,
    },
    /// A channel disconnected before every frame was accounted for —
    /// infrastructure failure, should not happen.
    Disconnected {
        /// Description of the broken link.
        detail: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::StagePanic {
                stage,
                frame,
                message,
            } => write!(f, "stage '{stage}' panicked on frame {frame}: {message}"),
            PipelineError::FrameFailed {
                stage,
                frame,
                error,
            } => write!(f, "stage '{stage}' failed frame {frame}: {error}"),
            PipelineError::Disconnected { detail } => {
                write!(f, "pipeline disconnected: {detail}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

thread_local! {
    /// Devices currently held by this thread, for lock-order auditing.
    static HELD: std::cell::RefCell<Vec<DeviceKind>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Device-lock table shared by all stages (and, through
/// [`ResourceLocks::clone`], by any concurrent serving layer on top).
/// Acquisition always follows the global `DeviceKind::ALL` order; taking a
/// device while already holding a later-ordered one is a lock-order
/// inversion and panics immediately rather than deadlocking eventually.
#[derive(Clone, Default)]
pub struct ResourceLocks {
    locks: Arc<HashMap<DeviceKind, Mutex<()>>>,
}

impl ResourceLocks {
    /// Fresh lock table covering every device.
    pub fn new() -> Self {
        let mut m = HashMap::new();
        for d in DeviceKind::ALL {
            m.insert(d, Mutex::new(()));
        }
        ResourceLocks { locks: Arc::new(m) }
    }

    /// Acquire all requested devices in the global `DeviceKind::ALL` order
    /// (total order ⇒ no deadlock), run `f`, release. Release is
    /// panic-safe: an unwinding `f` still drops the locks and the
    /// held-device audit trail for this thread.
    pub fn with_resources<R>(&self, devices: &[DeviceKind], f: impl FnOnce() -> R) -> R {
        /// Removes this call's devices from the audit trail even when the
        /// stage body unwinds (drop runs during the unwind).
        struct HeldGuard<'a>(&'a [DeviceKind]);
        impl Drop for HeldGuard<'_> {
            fn drop(&mut self) {
                HELD.with(|held| held.borrow_mut().retain(|h| !self.0.contains(h)));
            }
        }
        let _held = HeldGuard(devices);
        let mut guards = Vec::with_capacity(devices.len());
        for d in DeviceKind::ALL {
            if devices.contains(&d) {
                HELD.with(|held| {
                    let mut held = held.borrow_mut();
                    if let Some(&worst) = held.iter().max_by_key(|h| h.index()) {
                        assert!(
                            worst.index() < d.index(),
                            "lock-order inversion: acquiring {d} while holding {worst}"
                        );
                    }
                    held.push(d);
                });
                guards.push(self.locks[&d].lock());
            }
        }
        f()
    }
}

/// A running pipeline over items of type `T`.
pub struct PipelineExecutor;

impl PipelineExecutor {
    /// Push `items` through the staged pipeline, returning the outputs in
    /// input order. Stages run on their own threads; device locks enforce
    /// exclusivity. Strict mode: the first lost frame surfaces as a
    /// [`PipelineError`] naming the stage and frame (after every worker
    /// is joined), so callers that expect total success need no per-frame
    /// bookkeeping.
    pub fn run<T: Send + 'static>(
        stages: Vec<StageSpec<T>>,
        items: Vec<T>,
    ) -> Result<Vec<T>, PipelineError> {
        let outputs = Self::run_with_failures(stages, items)?;
        outputs
            .into_iter()
            .map(|o| {
                o.map_err(|fail| {
                    if fail.panicked {
                        PipelineError::StagePanic {
                            stage: fail.stage,
                            frame: fail.frame,
                            message: fail.error.message().to_string(),
                        }
                    } else {
                        PipelineError::FrameFailed {
                            stage: fail.stage,
                            frame: fail.frame,
                            error: fail.error,
                        }
                    }
                })
            })
            .collect()
    }

    /// Like [`PipelineExecutor::run`] but with per-frame failure
    /// granularity: a stage error or panic fails *that frame only*
    /// (downstream stages skip it) and every other frame completes.
    /// Output order matches input order.
    pub fn run_with_failures<T: Send + 'static>(
        stages: Vec<StageSpec<T>>,
        items: Vec<T>,
    ) -> Result<Vec<FrameOutput<T>>, PipelineError> {
        let n = items.len();
        let mut out: Vec<Option<FrameOutput<T>>> = (0..n).map(|_| None).collect();
        Self::run_stream(stages, items, |seq, item| out[seq] = Some(item))?;
        out.into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.ok_or_else(|| PipelineError::Disconnected {
                    detail: format!("frame {i} was never delivered"),
                })
            })
            .collect()
    }

    /// Streaming core: feed `items` through the pipeline with
    /// constant-depth channels and hand each `(seq, outcome)` to `sink` as
    /// it arrives (in input order — the channel chain is FIFO). Memory
    /// stays O(stage count), independent of the stream length, so this is
    /// the entry point for long-running serving loops.
    pub fn run_stream<T: Send + 'static>(
        stages: Vec<StageSpec<T>>,
        items: impl IntoIterator<Item = T> + Send + 'static,
        mut sink: impl FnMut(usize, FrameOutput<T>),
    ) -> Result<(), PipelineError> {
        if stages.is_empty() {
            for (i, item) in items.into_iter().enumerate() {
                sink(i, Ok(item));
            }
            return Ok(());
        }
        let locks = ResourceLocks::new();

        type Link<T> = (
            Sender<(usize, FrameOutput<T>)>,
            Receiver<(usize, FrameOutput<T>)>,
        );
        let (src_tx, mut prev_rx): Link<T> = bounded(STAGE_DEPTH);
        let mut handles = Vec::new();
        for stage in stages {
            let (tx, rx) = bounded::<(usize, FrameOutput<T>)>(STAGE_DEPTH);
            let locks = locks.clone();
            let handle = thread::Builder::new()
                .name(format!("pipeline-{}", stage.name))
                .spawn(move || {
                    while let Ok((seq, item)) = prev_rx.recv() {
                        let out = match item {
                            // A frame already lost upstream flows through
                            // untouched so ordering and accounting hold.
                            Err(fail) => Err(fail),
                            Ok(item) => {
                                let _span = tvmnp_telemetry::span!(
                                    "scheduler.stage",
                                    "stage" => stage.name.clone(),
                                    "frame" => seq,
                                );
                                run_stage_body(&stage, &locks, seq, item)
                            }
                        };
                        if tx.send((seq, out)).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn pipeline worker");
            handles.push(handle);
            prev_rx = rx;
        }

        // Feed from a dedicated thread: with constant-depth channels the
        // source blocks once the pipeline fills, so it cannot share the
        // draining thread (unlike the old cap-equals-stream-length design).
        let feeder = thread::Builder::new()
            .name("pipeline-source".into())
            .spawn(move || {
                let mut fed = 0usize;
                for (i, item) in items.into_iter().enumerate() {
                    if src_tx.send((i, Ok(item))).is_err() {
                        return fed;
                    }
                    fed += 1;
                }
                fed
            })
            .expect("spawn pipeline source");

        let mut delivered = 0usize;
        while let Ok((seq, item)) = prev_rx.recv() {
            delivered += 1;
            sink(seq, item);
        }
        let fed = feeder.join().map_err(|_| PipelineError::Disconnected {
            detail: "pipeline source thread panicked".into(),
        })?;
        for h in handles {
            h.join().map_err(|_| PipelineError::Disconnected {
                detail: "pipeline worker thread panicked outside a stage body".into(),
            })?;
        }
        if delivered != fed {
            return Err(PipelineError::Disconnected {
                detail: format!("fed {fed} frames but only {delivered} arrived at the sink"),
            });
        }
        Ok(())
    }
}

/// Run one stage body under its device locks, converting an `Err` return
/// or a panic into a [`FrameFailure`] for this frame.
fn run_stage_body<T>(
    stage: &StageSpec<T>,
    locks: &ResourceLocks,
    seq: usize,
    item: T,
) -> FrameOutput<T> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        locks.with_resources(&stage.resources, || (stage.work)(item))
    }));
    match result {
        Ok(Ok(item)) => Ok(item),
        Ok(Err(error)) => {
            tvmnp_telemetry::counter_add(
                "scheduler.frame_failures",
                &[("stage", &stage.name), ("kind", "error")],
                1,
            );
            Err(FrameFailure {
                frame: seq,
                stage: stage.name.clone(),
                error,
                panicked: false,
            })
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            tvmnp_telemetry::counter_add(
                "scheduler.frame_failures",
                &[("stage", &stage.name), ("kind", "panic")],
                1,
            );
            Err(FrameFailure {
                frame: seq,
                stage: stage.name.clone(),
                error: ExecError::new(format!("stage body panicked: {message}")),
                panicked: true,
            })
        }
    }
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order_and_applies_stages() {
        let stages = vec![
            StageSpec::new("double", &[DeviceKind::Cpu], |x: i64| x * 2),
            StageSpec::new("inc", &[DeviceKind::Apu], |x: i64| x + 1),
        ];
        let out = PipelineExecutor::run(stages, (0..64).collect()).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as i64 * 2 + 1);
        }
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let out = PipelineExecutor::run(Vec::<StageSpec<u8>>::new(), vec![1, 2, 3]).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn long_stream_runs_in_constant_depth_channels() {
        // 4096 frames through depth-2 channels: the old cap-equals-length
        // design would have allocated channel space for every frame.
        let stages = vec![
            StageSpec::new("a", &[DeviceKind::Cpu], |x: u32| x + 1),
            StageSpec::new("b", &[DeviceKind::Apu], |x: u32| x * 3),
        ];
        let mut seen = Vec::new();
        PipelineExecutor::run_stream(stages, 0..4096u32, |seq, out| {
            seen.push((seq, out.unwrap()));
        })
        .unwrap();
        assert_eq!(seen.len(), 4096);
        for (i, (seq, v)) in seen.iter().enumerate() {
            assert_eq!(*seq, i, "FIFO chain must deliver in order");
            assert_eq!(*v, (i as u32 + 1) * 3);
        }
    }

    #[test]
    fn stage_panic_fails_that_frame_only() {
        let stages = vec![
            StageSpec::new("pre", &[DeviceKind::Cpu], |x: u64| x + 100),
            StageSpec::new("explode-on-7", &[DeviceKind::Apu], |x: u64| {
                assert!(x != 107, "frame seven is cursed");
                x
            }),
        ];
        let out = PipelineExecutor::run_with_failures(stages, (0..16).collect()).unwrap();
        assert_eq!(out.len(), 16, "every frame accounted for");
        for (i, o) in out.iter().enumerate() {
            if i == 7 {
                let fail = o.as_ref().unwrap_err();
                assert_eq!(fail.frame, 7);
                assert_eq!(fail.stage, "explode-on-7");
                assert!(fail.panicked);
                assert!(fail.error.to_string().contains("cursed"));
            } else {
                assert_eq!(*o.as_ref().unwrap(), i as u64 + 100);
            }
        }
    }

    #[test]
    fn strict_run_surfaces_typed_panic_error() {
        let stages = vec![StageSpec::new("boom", &[DeviceKind::Cpu], |x: u64| {
            if x == 3 {
                panic!("boom on {x}");
            }
            x
        })];
        let err = PipelineExecutor::run(stages, (0..8).collect()).unwrap_err();
        match err {
            PipelineError::StagePanic {
                stage,
                frame,
                message,
            } => {
                assert_eq!(stage, "boom");
                assert_eq!(frame, 3);
                assert!(message.contains("boom on 3"));
            }
            other => panic!("expected StagePanic, got {other}"),
        }
    }

    #[test]
    fn fallible_stage_error_becomes_frame_failure() {
        let stages = vec![StageSpec::fallible(
            "checked",
            &[DeviceKind::Cpu],
            |x: u64| {
                if x.is_multiple_of(5) {
                    Err(ExecError::new(format!("rejecting {x}"))
                        .with_op("checked")
                        .with_device("cpu"))
                } else {
                    Ok(x * 2)
                }
            },
        )];
        let out = PipelineExecutor::run_with_failures(stages, (0..10).collect()).unwrap();
        for (i, o) in out.iter().enumerate() {
            if i % 5 == 0 {
                let fail = o.as_ref().unwrap_err();
                assert!(!fail.panicked);
                assert_eq!(fail.stage, "checked");
                assert_eq!(fail.frame, i);
                assert!(fail.error.to_string().contains(&format!("rejecting {i}")));
            } else {
                assert_eq!(*o.as_ref().unwrap(), i as u64 * 2);
            }
        }
    }

    #[test]
    fn failed_frames_skip_downstream_stages() {
        static DOWNSTREAM_RAN: AtomicUsize = AtomicUsize::new(0);
        let stages = vec![
            StageSpec::fallible("gate", &[DeviceKind::Cpu], |x: u64| {
                if x < 4 {
                    Err(ExecError::new("gated"))
                } else {
                    Ok(x)
                }
            }),
            StageSpec::new("count", &[DeviceKind::Apu], |x: u64| {
                DOWNSTREAM_RAN.fetch_add(1, Ordering::SeqCst);
                x
            }),
        ];
        let out = PipelineExecutor::run_with_failures(stages, (0..10).collect()).unwrap();
        assert_eq!(DOWNSTREAM_RAN.load(Ordering::SeqCst), 6);
        assert_eq!(out.iter().filter(|o| o.is_err()).count(), 4);
        // Lost frames still report the *originating* stage.
        assert!(out[0].as_ref().unwrap_err().stage == "gate");
    }

    #[test]
    fn exclusive_resource_never_concurrent() {
        // Two stages share the CPU: the lock must serialize their bodies.
        static IN_CPU: AtomicUsize = AtomicUsize::new(0);
        let body = |x: u64| {
            let now = IN_CPU.fetch_add(1, Ordering::SeqCst);
            assert_eq!(now, 0, "two stages inside the CPU section at once");
            std::thread::sleep(std::time::Duration::from_micros(200));
            IN_CPU.fetch_sub(1, Ordering::SeqCst);
            x + 1
        };
        let stages = vec![
            StageSpec::new("a", &[DeviceKind::Cpu], body),
            StageSpec::new("b", &[DeviceKind::Cpu], body),
        ];
        let out = PipelineExecutor::run(stages, (0..16).collect()).unwrap();
        assert_eq!(out.len(), 16);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 2));
    }

    #[test]
    fn disjoint_resources_do_overlap() {
        // Stage A (CPU) and stage B (APU) on a 2-deep pipeline should
        // overlap: total wall time well under the sequential sum.
        let d = std::time::Duration::from_millis(4);
        let stages = vec![
            StageSpec::new("a", &[DeviceKind::Cpu], move |x: u64| {
                std::thread::sleep(d);
                x
            }),
            StageSpec::new("b", &[DeviceKind::Apu], move |x: u64| {
                std::thread::sleep(d);
                x
            }),
        ];
        let n = 10u64;
        let t0 = std::time::Instant::now();
        let out = PipelineExecutor::run(stages, (0..n).collect()).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(out.len(), n as usize);
        // Sequential would be 2*n*d = 80 ms; pipelined ≈ (n+1)*d = 44 ms.
        assert!(
            elapsed < std::time::Duration::from_millis(70),
            "pipeline did not overlap: {elapsed:?}"
        );
    }

    #[test]
    fn lock_order_inversion_is_detected() {
        let locks = ResourceLocks::new();
        // Correct order (ALL order) is fine, including nesting a later
        // device inside an earlier one.
        locks.with_resources(&[DeviceKind::Cpu], || {
            locks.with_resources(&[DeviceKind::Apu], || {});
        });
        // Acquiring an earlier-ordered device while holding a later one
        // must trip the auditor instead of risking a deadlock.
        let inverted = catch_unwind(AssertUnwindSafe(|| {
            locks.with_resources(&[DeviceKind::Apu], || {
                locks.with_resources(&[DeviceKind::Cpu], || {});
            });
        }));
        assert!(inverted.is_err(), "inversion must be detected");
        // The audit trail must be clean after the unwind: a fresh valid
        // acquisition on this thread succeeds.
        locks.with_resources(&[DeviceKind::Cpu, DeviceKind::Apu], || {});
    }
}
