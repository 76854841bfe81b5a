//! Counting global allocator: two relaxed atomics, always on.
//!
//! The counters are statistics that publish no other data, so `Relaxed`
//! is enough. They count *requests* (calls and requested bytes), which
//! repeat exactly from run to run, unlike any wall-clock figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System` plus the two counters.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is two atomic adds
// that neither allocate nor touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls (alloc + alloc_zeroed + realloc) and bytes requested
/// since process start, over all threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn now() -> AllocCount {
        AllocCount {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test binary installs the allocator too (see `main.rs`), and the
    /// counters are process-wide while `cargo test` runs tests on parallel
    /// threads: repeat until one attempt sees no foreign allocation.
    #[test]
    fn counts_a_known_vec_pattern_exactly() {
        for _ in 0..200 {
            let before = AllocCount::now();
            let mut v: Vec<u64> = Vec::with_capacity(4); // alloc 32 bytes
            v.extend_from_slice(&[1, 2, 3, 4]);
            v.reserve_exact(4); // realloc to 64 bytes
            let boxed = Box::new([0u8; 100]); // alloc 100 bytes
            let delta = AllocCount::now().since(before);
            std::hint::black_box((&v, &boxed));
            if delta
                == (AllocCount {
                    calls: 3,
                    bytes: 32 + 64 + 100,
                })
            {
                return;
            }
        }
        panic!("never observed exactly 3 calls / 196 bytes for the known pattern");
    }
}
