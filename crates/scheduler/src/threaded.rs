//! The one threaded runtime: device locks and an admission window.
//!
//! The simulators in [`crate::pipeline`] predict a schedule; this module
//! *runs* one, and is the only code in the workspace that starts a thread
//! or catches a panic. [`ResourceLocks`] enforces the §5.2 exclusivity
//! constraint ("models could not utilize the same resources at the same
//! time"); [`run_window`] is the wall-clock statement of
//! `tvmnp_hwsim::schedule`'s admission rule. Sequential, pipelined and
//! pooled serving are windows 1, 3 and `concurrency` of it: the window
//! says how many frames are in flight, the locks decide what overlaps.

use crossbeam::channel::bounded;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use tvmnp_hwsim::DeviceKind;

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

/// Run `body` over `items` with at most `window` of them in flight and
/// return one outcome per item, in input order.
///
/// Items are admitted in input order from a shared cursor; each runs its
/// whole body on one of `min(window, items.len())` workers, and results
/// come back over a channel bounded by the window, so memory beyond the
/// output stays O(window). `body` is handed the worker it runs on, the
/// item's index and the item. With a window of at most one, or a single
/// item, nothing is spawned: the bodies run on the caller's thread and
/// the worker is `None`.
///
/// A body that panics loses *that item only*: the panic is caught where
/// it happened, the item's outcome is `Err` with the panic message, and
/// every other item completes.
// The one place that starts a thread or catches a panic (crates/clippy.toml).
#[allow(clippy::disallowed_methods)]
pub fn run_window<T: Sync, R: Send>(
    items: &[T],
    window: usize,
    body: impl Fn(Option<usize>, usize, &T) -> R + Sync,
) -> Vec<Result<R, String>> {
    let run = |worker, i: usize| {
        catch_unwind(AssertUnwindSafe(|| body(worker, i, &items[i])))
            .map_err(|payload| panic_message(payload.as_ref()))
    };
    let workers = window.min(items.len());
    if workers <= 1 {
        return (0..items.len()).map(|i| run(None, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, String>>> = items.iter().map(|_| None).collect();
    let (tx, rx) = bounded(workers);
    thread::scope(|scope| {
        for worker in 0..workers {
            let (tx, next, run) = (tx.clone(), &next, &run);
            // A worker sends each result before it takes the next index,
            // so no more than `workers` bodies are ever in flight. The
            // cursor only hands out indices (the items were shared before
            // the spawn), so `Relaxed` is enough.
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() || tx.send((i, run(Some(worker), i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx.iter() {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every admitted item sends one result"))
        .collect()
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
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    #[test]
    fn preserves_input_order_at_every_window() {
        let items: Vec<i64> = (0..64).collect();
        for window in [0, 1, 2, 3, 8, 1000] {
            let out = run_window(&items, window, |_, i, x| (i, x * 2 + 1));
            assert_eq!(out.len(), items.len(), "window {window}");
            for (i, v) in out.into_iter().enumerate() {
                assert_eq!(v, Ok((i, i as i64 * 2 + 1)), "window {window}");
            }
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        for window in [0, 1, 4] {
            assert!(run_window(&[] as &[u8], window, |_, _, x| *x).is_empty());
        }
    }

    #[test]
    fn window_bounds_bodies_in_flight() {
        // A long stream through a window of 3: never more than 3 bodies
        // running, never a fourth worker, whatever the stream length.
        let in_flight = AtomicUsize::new(0);
        let most = AtomicUsize::new(0);
        let items: Vec<u32> = (0..2000).collect();
        let out = run_window(&items, 3, |worker, _, x| {
            assert!(worker.expect("a window of 3 runs on workers") < 3);
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            most.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            in_flight.fetch_sub(1, Ordering::SeqCst);
            (x + 1) * 3
        });
        assert!(most.load(Ordering::SeqCst) <= 3);
        for (i, v) in out.into_iter().enumerate() {
            assert_eq!(v, Ok((i as u32 + 1) * 3));
        }
    }

    #[test]
    fn panicking_body_loses_that_item_only() {
        let items: Vec<u64> = (0..16).collect();
        for window in [1, 4] {
            let out = run_window(&items, window, |_, _, x| {
                assert!(*x != 7, "frame seven is cursed");
                if *x == 3 {
                    panic!("boom on {x}");
                }
                x + 100
            });
            assert_eq!(out.len(), 16, "every item accounted for");
            for (i, o) in out.iter().enumerate() {
                match i {
                    3 => assert!(o.as_ref().unwrap_err().contains("boom on 3")),
                    7 => assert!(o.as_ref().unwrap_err().contains("cursed")),
                    _ => assert_eq!(*o, Ok(i as u64 + 100), "window {window}"),
                }
            }
        }
    }

    #[test]
    fn shared_device_is_never_held_twice() {
        // Two stages per item share the CPU: the lock must serialize
        // them across workers.
        let locks = ResourceLocks::new();
        let in_cpu = AtomicUsize::new(0);
        let stage = |x: u64| {
            locks.with_resources(&[DeviceKind::Cpu], || {
                let now = in_cpu.fetch_add(1, Ordering::SeqCst);
                assert_eq!(now, 0, "two stages inside the CPU section at once");
                std::thread::sleep(Duration::from_micros(200));
                in_cpu.fetch_sub(1, Ordering::SeqCst);
                x + 1
            })
        };
        let items: Vec<u64> = (0..16).collect();
        let out = run_window(&items, 4, |_, _, x| stage(stage(*x)));
        for (i, v) in out.into_iter().enumerate() {
            assert_eq!(v, Ok(i as u64 + 2));
        }
    }

    #[test]
    fn disjoint_devices_overlap_across_workers() {
        // Stage A (CPU) then stage B (APU) with two items in flight: one
        // item's B overlaps the next item's A, so the total wall time is
        // well under the sequential sum.
        let locks = ResourceLocks::new();
        let d = Duration::from_millis(4);
        let items: Vec<u64> = (0..10).collect();
        let t0 = Instant::now();
        let out = run_window(&items, 2, |_, _, x| {
            locks.with_resources(&[DeviceKind::Cpu], || std::thread::sleep(d));
            locks.with_resources(&[DeviceKind::Apu], || std::thread::sleep(d));
            *x
        });
        let elapsed = t0.elapsed();
        assert_eq!(out.len(), items.len());
        // Sequential would be 2*n*d = 80 ms; overlapped ≈ (n+1)*d = 44 ms.
        assert!(
            elapsed < Duration::from_millis(70),
            "stages did not overlap: {elapsed:?}"
        );
    }

    proptest! {
        /// Whatever the window and whichever bodies panic: one outcome
        /// per item, `Ok` values in input order, `Err` at exactly the
        /// panicking indices.
        #[test]
        fn one_outcome_per_item_in_order(
            n in 0usize..=64,
            window in 0usize..=8,
            panicking in prop::collection::vec(0usize..64, 0..8),
        ) {
            let items: Vec<usize> = (0..n).collect();
            let out = run_window(&items, window, |_, i, x| {
                assert!(!panicking.contains(&i), "item {i} panics");
                *x
            });
            prop_assert_eq!(out.len(), n);
            for (i, o) in out.into_iter().enumerate() {
                if panicking.contains(&i) {
                    prop_assert_eq!(o, Err(format!("item {i} panics")));
                } else {
                    prop_assert_eq!(o, Ok(i));
                }
            }
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // a test may catch the panic it expects
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
