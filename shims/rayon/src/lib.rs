//! Minimal rayon shim (see `shims/README.md`).
//!
//! Implements the one pattern the kernel crates use —
//! `slice.par_chunks_mut(n).enumerate().for_each(|(i, chunk)| ...)` —
//! with real parallelism: chunks are distributed round-robin over
//! `std::thread::scope` workers sized to the host's parallelism. Slices
//! shorter than `INLINE_BELOW` elements run inline on the caller.

/// Slices with fewer elements than this run inline. A scoped-thread spawn
/// and join costs 0.1–0.3 ms on the CI runner, and the vectorised kernels
/// emit this many outputs in about that time, so a shorter slice finishes
/// sooner on the caller's thread.
const INLINE_BELOW: usize = 1 << 17;

/// Prelude mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::ParallelSliceMut;
}

/// Chunked parallel iteration over mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Split into mutable chunks of `chunk_size` (last may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel mutable-chunk iterator.
pub struct ParChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its index.
    pub fn enumerate(self) -> ParEnumerate<'a, T> {
        ParEnumerate(self)
    }

    /// Apply `f` to every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Enumerated parallel mutable-chunk iterator.
pub struct ParEnumerate<'a, T: Send>(ParChunksMut<'a, T>);

impl<'a, T: Send> ParEnumerate<'a, T> {
    /// Apply `f` to every `(index, chunk)` pair, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &'a mut [T])) + Sync,
    {
        let ParChunksMut { slice, chunk_size } = self.0;
        // Ask the OS for the core count (a syscall and a cgroup read) only
        // when the slice is long enough for the answer to matter.
        let workers = if slice.len() < INLINE_BELOW {
            1
        } else {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            cores.min(slice.len().div_ceil(chunk_size))
        };
        let items = slice.chunks_mut(chunk_size).enumerate();
        if workers <= 1 {
            items.for_each(f);
            return;
        }
        // Round-robin buckets: consecutive chunks land on different
        // workers, which balances the typical uniform-cost kernels.
        let mut buckets: Vec<Vec<(usize, &'a mut [T])>> =
            (0..workers).map(|_| Vec::new()).collect();
        for item in items {
            buckets[item.0 % workers].push(item);
        }
        let f = &f;
        std::thread::scope(|scope| {
            for bucket in buckets {
                scope.spawn(move || bucket.into_iter().for_each(f));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn parallel_matches_sequential() {
        // Long enough to take the threaded path on a multi-core host.
        let mut data = vec![0u64; 4 * crate::INLINE_BELOW + 5];
        data.par_chunks_mut(1000)
            .enumerate()
            .for_each(|(i, chunk)| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = (i * 1000 + j) as u64;
                }
            });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn small_slices_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut data = vec![0u8; crate::INLINE_BELOW - 1];
        data.par_chunks_mut(64).enumerate().for_each(|(_, chunk)| {
            assert_eq!(std::thread::current().id(), caller);
            chunk.fill(1);
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn uneven_tail_chunk() {
        let mut data = vec![1u8; 10];
        data.par_chunks_mut(4).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i as u8;
            }
        });
        assert_eq!(data, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
    }
}
