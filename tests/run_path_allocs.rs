//! Pins what the flat execution plan bought: a steady-state
//! `CompiledModel::run` allocates its activations and the copies its
//! signature forces, and nothing the size of a weight. It pins the count
//! too, on a float and two int8 models: the packed convolutions reuse a
//! per-thread scratch, so a per-call buffer cannot come back unnoticed.
//!
//! And what "bytes only at a file boundary" bought: a build, a cache
//! insert and a memory hit allocate typed metadata, not a serialization
//! of every weight.
//!
//! The counting allocator is process-wide, so nothing else may run beside
//! a measured call: the tests take `WINDOW` in turn.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use tvm_neuropilot::byoc::{relay_build, ArtifactCache, CompiledModel, Permutation, TargetMode};
use tvm_neuropilot::hwsim::CostModel;
use tvm_neuropilot::models::{anti_spoofing, object_detection, zoo};
use tvm_neuropilot::prelude::{TargetPolicy, Tensor};
use tvm_neuropilot::runtime::NodeKind;

/// Sizes kept per measured window; a run makes a few hundred allocations.
const CAP: usize = 1 << 14;
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicUsize = AtomicUsize::new(0);
static SIZES: [AtomicUsize; CAP] = [const { AtomicUsize::new(0) }; CAP];

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only atomics and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            let i = COUNT.fetch_add(1, Relaxed);
            if let Some(slot) = SIZES.get(i) {
                slot.store(layout.size(), Relaxed);
            }
        }
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One measured window at a time.
static WINDOW: Mutex<()> = Mutex::new(());

/// The sizes of every allocation `f` makes (a `realloc` counts as the
/// allocation of its new size).
fn allocations_of(f: impl FnOnce()) -> Vec<usize> {
    COUNT.store(0, Relaxed);
    ON.store(true, Relaxed);
    f();
    ON.store(false, Relaxed);
    let n = COUNT.load(Relaxed);
    assert!(n <= CAP, "{n} allocations overflow the size log");
    SIZES[..n].iter().map(|s| s.load(Relaxed)).collect()
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `f` with the calling thread on one CPU: the kernels' `par_chunks_mut`
/// then runs inline, so an allocation count does not depend on the number
/// of cores (the benchmark pins the same way).
fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let (mut all, mut one) = ([0u64; 16], [0u64; 16]);
    let bytes = std::mem::size_of_val(&all);
    // SAFETY: `all` is a live, writable buffer of `bytes` bytes; pid 0 is
    // the calling thread.
    assert_eq!(unsafe { sched_getaffinity(0, bytes, all.as_mut_ptr()) }, 0);
    let word = all
        .iter()
        .position(|&w| w != 0)
        .expect("some CPU is allowed");
    one[word] = all[word] & all[word].wrapping_neg();
    // SAFETY: `one` and `all` are live buffers of `bytes` bytes, only read.
    assert_eq!(unsafe { sched_setaffinity(0, bytes, one.as_ptr()) }, 0);
    let out = f();
    // SAFETY: as above.
    assert_eq!(unsafe { sched_setaffinity(0, bytes, all.as_ptr()) }, 0);
    out
}

#[test]
fn second_run_allocates_activations_and_forced_copies_only() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let cost = CostModel::default();
    let (tvm, byoc, np) = (
        Permutation::TvmOnly.mode(),
        Permutation::ByocCpuApu.mode(),
        Permutation::NpCpuApu.mode(),
    );
    let gpu = TargetMode::Byoc(TargetPolicy::GpuPrefer);
    // Per model, the modes it is built under and the second run's
    // allocation count as measured with the packed paths. (On the walk,
    // each of MobileNet v1's five dense convolutions also allocates its
    // column spans: 83, 85 and 80.)
    let cases = [
        (zoo::mobilenet_v1(1), vec![(tvm, 78), (byoc, 80), (np, 75)]),
        (
            zoo::mobilenet_v2_quant(2),
            vec![(tvm, 87), (byoc, 89), (np, 84)],
        ),
        // The showcase's int8 model, also under the BYOC GPU mode it is
        // served in on every frame.
        (
            object_detection::mobilenet_ssd_model(3),
            vec![(tvm, 68), (gpu, 70)],
        ),
    ];
    for (model, modes) in cases {
        // What one inference has to produce, read off the TVM-only graph:
        // every op output once. Partitioning moves ops into Neuron
        // networks (which may fuse some away) but adds no activation.
        let tvm = relay_build(&model.module, Permutation::TvmOnly.mode(), cost.clone()).unwrap();
        let CompiledModel::Tvm { executor, .. } = &tvm else {
            unreachable!("TVM-only builds an executor");
        };
        let graph = executor.graph();
        let produced = |n: &&tvm_neuropilot::runtime::GraphNode| {
            matches!(n.kind, NodeKind::Op { .. } | NodeKind::External { .. })
        };
        let activation_sizes: Vec<usize> = graph
            .nodes
            .iter()
            .filter(produced)
            .flat_map(|n| n.out_types.iter().map(|t| t.size_bytes()))
            .collect();
        let activations: usize = activation_sizes.iter().sum();
        let inputs = model.sample_inputs(3);
        let input_bytes: usize = inputs.values().map(|t| t.size_bytes()).sum();
        // A weight the size of some activation (or input), or of the
        // executor's `Vec<Tensor>` of a few outputs, proves nothing.
        let outputs = (1..=8).map(|n| n * std::mem::size_of::<Tensor>());
        let ambiguous: HashSet<usize> = activation_sizes
            .iter()
            .copied()
            .chain(inputs.values().map(|t| t.size_bytes()))
            .chain(outputs)
            .collect();
        let weight_sizes: HashSet<usize> = graph
            .params
            .iter()
            .map(|p| p.size_bytes())
            .filter(|s| *s >= 256 && !ambiguous.contains(s))
            .collect();
        assert!(
            weight_sizes.len() >= 4,
            "{}: too few telling weight sizes",
            model.name
        );

        for (p, max_allocations) in modes {
            let mut compiled = relay_build(&model.module, p, cost.clone())
                .unwrap_or_else(|e| panic!("{} / {p}: {e}", model.name));
            let (first, _) = compiled.run(&inputs).unwrap();
            let output_bytes: usize = first.iter().map(|t| t.size_bytes()).sum();
            drop(first);
            let sizes = on_one_cpu(|| {
                allocations_of(|| {
                    std::hint::black_box(compiled.run(&inputs).unwrap());
                })
            });
            let allocated: usize = sizes.iter().sum();
            // `run(&HashMap)` forces an owned copy of each input into the
            // executor and an owned copy of each output out of it.
            let budget = activations + activations / 10 + input_bytes + output_bytes;
            println!(
                "{} / {p}: {allocated} B in {} allocations ({activations} B of activations)",
                model.name,
                sizes.len()
            );
            assert!(
                allocated <= budget,
                "{} / {p}: second run allocated {allocated} B in {} allocations; \
                 {activations} B of activations + {input_bytes} B in + {output_bytes} B out \
                 allow {budget} B",
                model.name,
                sizes.len()
            );
            assert!(
                sizes.len() <= max_allocations,
                "{} / {p}: second run made {} allocations, more than {max_allocations}",
                model.name,
                sizes.len()
            );
            let copied: Vec<usize> = sizes
                .iter()
                .copied()
                .filter(|s| weight_sizes.contains(s))
                .collect();
            assert!(
                copied.is_empty(),
                "{} / {p}: allocations the size of a weight: {copied:?}",
                model.name
            );
        }
    }
}

/// On anti-spoofing (203 104 B of f32 weights): building must not print
/// the weights into a discarded artifact, inserting must not print them
/// to take a length, and a memory hit must not copy or decode them.
#[test]
fn build_insert_and_hit_allocate_no_serialization_of_the_weights() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let cost = CostModel::default();
    let model = anti_spoofing::anti_spoofing_model(1);
    let tvm = relay_build(&model.module, Permutation::TvmOnly.mode(), cost.clone()).unwrap();
    let CompiledModel::Tvm { executor, .. } = &tvm else {
        unreachable!("TVM-only builds an executor");
    };
    let weights = executor.graph().param_bytes();
    let params = executor.graph().params.iter();
    let largest_param = params.map(|p| p.size_bytes()).max().unwrap();
    assert_eq!(weights, 203_104);

    for p in [Permutation::ByocCpuApu, Permutation::TvmOnly] {
        let build = || relay_build(&model.module, p.mode(), cost.clone()).unwrap();
        drop(build()); // one-time initialisation is not the build's
        let fresh: usize = allocations_of(|| drop(std::hint::black_box(build())))
            .iter()
            .sum();
        assert!(
            fresh <= 4 * weights,
            "{p:?}: a fresh build allocated {fresh} B, more than 4 x {weights} B of weights"
        );

        let cache = ArtifactCache::new(usize::MAX);
        let get = || {
            let got = cache.get_or_build(&model.module, p.mode(), &cost, "fp32");
            drop(std::hint::black_box(got.unwrap()));
        };
        let miss = allocations_of(get);
        let hit = allocations_of(get);
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
        let (miss_bytes, hit_bytes) = (miss.iter().sum::<usize>(), hit.iter().sum::<usize>());
        println!(
            "{p:?}: fresh build {fresh} B; miss {miss_bytes} B in {} allocations, largest {}; \
             hit {hit_bytes} B in {} allocations, largest {}",
            miss.len(),
            miss.iter().max().unwrap(),
            hit.len(),
            hit.iter().max().unwrap()
        );
        assert!(
            miss_bytes <= fresh + weights,
            "{p:?}: a memory-only miss allocated {miss_bytes} B; the build is {fresh} B and \
             an insert may add {weights} B"
        );
        assert!(
            miss.iter().all(|&s| s < 1 << 20),
            "{p:?}: a memory-only miss made an allocation of {} B",
            miss.iter().max().unwrap()
        );
        assert!(
            hit_bytes < weights,
            "{p:?}: a memory hit allocated {hit_bytes} B in {} allocations; the weights are \
             {weights} B and are shared",
            hit.len()
        );
        assert!(
            hit.iter().all(|&s| s < largest_param),
            "{p:?}: a memory hit made an allocation of {} B; the largest parameter is \
             {largest_param} B",
            hit.iter().max().unwrap()
        );
    }
}
