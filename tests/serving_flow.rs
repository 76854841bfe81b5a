//! End-to-end concurrent serving: the session pool must produce
//! bit-identical outputs at any concurrency level — with and without
//! injected transient faults — a lost device must degrade frames rather
//! than panic the serve, and a second pool stood up on the same artifact
//! cache must reuse every compiled artifact without a single
//! recompilation span.
//!
//! The telemetry collector is process-global, so the tests in this
//! binary are serialized through `TESTS`: a pool build in one test
//! would otherwise leak codegen spans into another test's snapshot.

use std::sync::{Arc, Mutex};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::telemetry;
use tvm_neuropilot::vision::ShowcaseFaults;

static TESTS: Mutex<()> = Mutex::new(());

fn clip(frames: usize) -> Vec<tvm_neuropilot::vision::Frame> {
    SyntheticVideo::new(7, 64, 64).frames(frames)
}

fn pool(cache: &Arc<ArtifactCache>) -> SessionPool {
    SessionPool::new(
        900,
        &serving_rotation(),
        &CostModel::default(),
        cache.clone(),
    )
}

/// 256 frames at concurrency 8 against the same pool that served them
/// sequentially: every field of every result must match, in input
/// order. The pool's sessions share one `ResourceLocks` table, which
/// asserts on lock-order inversions — eight workers hammering the
/// cpu/gpu/apu locks exercise that invariant on every frame.
#[test]
fn serves_256_frames_concurrently_bit_identical_to_sequential() {
    let _guard = TESTS.lock().unwrap();
    let cache = Arc::new(ArtifactCache::new(usize::MAX));
    let pool = pool(&cache);
    let frames = clip(256);
    let sequential = pool.serve(&frames, 1);
    let concurrent = pool.serve(&frames, 8);
    assert_eq!(sequential.len(), 256);
    assert_eq!(sequential, concurrent, "concurrency changed the outputs");
    for (i, result) in concurrent.iter().enumerate() {
        assert_eq!(result.frame_index, frames[i].index, "order not preserved");
    }
}

/// The same identity under a transient-dispatch fault plan: faults are
/// retried inside the dispatch, so the *numeric* outputs still match a
/// fault-free sequential run frame for frame. Timing is excluded — the
/// retry backoff lands on whichever dispatches consumed a fault, and
/// that depends on schedule order.
#[test]
fn transient_dispatch_faults_do_not_change_served_outputs() {
    let _guard = TESTS.lock().unwrap();
    let frames = clip(32);
    let clean = pool(&Arc::new(ArtifactCache::new(usize::MAX))).serve(&frames, 1);

    let plan = FaultPlan::seeded(11)
        .with_spec("apu:dispatch:transient=1")
        .unwrap();
    let faults = ShowcaseFaults {
        injector: Arc::new(FaultInjector::new(plan)),
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
    };
    let faulty = SessionPool::new_with_faults(
        900,
        &serving_rotation(),
        &CostModel::default(),
        Arc::new(ArtifactCache::new(usize::MAX)),
        faults,
    );
    let served = faulty.serve(&frames, 8);

    assert_eq!(served.len(), clean.len());
    for (a, b) in served.iter().zip(&clean) {
        assert_eq!(a.frame_index, b.frame_index);
        assert_eq!(a.objects, b.objects, "frame {}", a.frame_index);
        assert_eq!(a.faces, b.faces, "frame {}", a.frame_index);
        assert_eq!(a.dropped, b.dropped, "frame {}", a.frame_index);
    }
}

/// A permanently lost APU (`--inject-fault apu:dispatch:lost`) fails
/// every model run that dispatches to it. Those runs must degrade their
/// frames — a dropped anti-spoofing or emotion stage — not panic the
/// serve, at any window; what is still delivered must be what a
/// fault-free run delivers.
#[test]
fn a_lost_device_degrades_frames_instead_of_panicking() {
    let _guard = TESTS.lock().unwrap();
    let frames = clip(32);
    let clean = pool(&Arc::new(ArtifactCache::new(usize::MAX))).serve(&frames, 1);

    let plan = FaultPlan::seeded(11)
        .with_spec("apu:dispatch:lost")
        .expect("documented fault spec");
    let faulty = SessionPool::new_with_faults(
        900,
        &serving_rotation(),
        &CostModel::default(),
        Arc::new(ArtifactCache::new(usize::MAX)),
        ShowcaseFaults {
            injector: Arc::new(FaultInjector::new(plan)),
            retry: RetryPolicy::default(),
        },
    );
    for window in [1, 4] {
        let served = faulty.serve(&frames, window);
        assert_eq!(served.len(), frames.len(), "every frame delivered");
        for (a, b) in served.iter().zip(&clean) {
            assert_eq!(a.frame_index, b.frame_index);
            // Object detection is on the GPU in `serving_rotation`.
            assert_eq!(a.objects, b.objects, "frame {}", a.frame_index);
            for d in &a.dropped {
                assert!(
                    d.stage == "anti-spoof" || d.stage == "emotion",
                    "frame {} dropped {}: {}",
                    a.frame_index,
                    d.stage,
                    d.reason
                );
            }
            // A delivered face is a prefix entry of the fault-free list:
            // the same verdict, and the same label or none — never a
            // different one.
            assert!(a.faces.len() <= b.faces.len());
            for (fa, fb) in a.faces.iter().zip(&b.faces) {
                assert_eq!((fa.bbox, fa.real), (fb.bbox, fb.real));
                assert!(fa.emotion.is_none() || fa.emotion == fb.emotion);
            }
        }
        assert!(
            served.iter().any(|r| r.degraded()),
            "a lost APU must drop at least one stage (window {window})"
        );
    }
}

/// Standing up a second pool on a warm cache is pure reuse: zero
/// codegen/compile spans, every build a cache hit.
#[test]
fn second_pool_build_is_all_cache_hits_with_zero_codegen_spans() {
    let _guard = TESTS.lock().unwrap();
    let cache = Arc::new(ArtifactCache::new(usize::MAX));
    let first = pool(&cache);
    let misses_after_first = cache.stats().misses;
    assert!(misses_after_first > 0, "first pool must compile something");

    telemetry::enable();
    telemetry::reset();
    let second = pool(&cache);
    telemetry::disable();
    let snap = telemetry::snapshot();

    for span in [
        "byoc.build",
        "byoc.partition",
        "byoc.codegen",
        "neuropilot.compile",
        "neuropilot.convert",
    ] {
        assert_eq!(
            snap.spans_named(span).count(),
            0,
            "second pool re-ran {span}"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, misses_after_first, "second pool recompiled");
    assert!(
        stats.hits >= 6,
        "expected 2 sessions x 3 models of hits, got {stats:?}"
    );

    // The warm pool serves exactly like the cold one.
    let frames = clip(4);
    assert_eq!(first.serve(&frames, 1), second.serve(&frames, 4));
}
