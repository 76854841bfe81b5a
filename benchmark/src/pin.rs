//! CPU affinity through the two libc calls `std` already links.
//!
//! Pinned to one CPU, `available_parallelism()` is 1, so the kernels'
//! `par_chunks_mut` shim runs inline: an op then needs one quiet vCPU, not
//! every vCPU quiet at once (README.md, "Noise study").

/// Bits of the kernel's `cpu_set_t` (1024) as 64-bit words.
const WORDS: usize = 16;

/// An affinity mask, as `sched_getaffinity` fills it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; WORDS]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The calling thread's current mask; `None` when the kernel refuses.
    pub fn current() -> Option<CpuSet> {
        let mut set = CpuSet([0; WORDS]);
        // SAFETY: `set.0` is a live, writable buffer of exactly the byte
        // size passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// The mask holding only this set's highest-numbered CPU.
    pub fn highest_only(&self) -> Option<CpuSet> {
        let (word, bits) = self.0.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let mut only = [0u64; WORDS];
        only[word] = 1 << (63 - bits.leading_zeros());
        Some(CpuSet(only))
    }

    /// Apply to the calling thread (threads spawned later inherit it).
    pub fn apply(&self) -> bool {
        // SAFETY: `self.0` is a live buffer of exactly the byte size
        // passed and is only read; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }
}

/// The process's pin: the original mask (for the unpinned `*_par_ms`
/// probes) and the single-CPU mask, or neither when pinning was refused.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    masks: Option<(CpuSet, CpuSet)>,
}

impl Pin {
    /// Pin the calling thread to the highest-numbered CPU of its mask.
    pub fn to_highest_cpu() -> Pin {
        let masks = CpuSet::current().and_then(|all| {
            let one = all.highest_only()?;
            one.apply().then_some((all, one))
        });
        Pin { masks }
    }

    pub fn pinned(&self) -> bool {
        self.masks.is_some()
    }

    /// Run `f` under the original mask, then pin again.
    pub fn unpinned<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.masks {
            Some((all, one)) => {
                all.apply();
                let r = f();
                one.apply();
                r
            }
            None => f(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_only_picks_the_top_bit() {
        let mut words = [0u64; WORDS];
        words[0] = 0b1011;
        assert_eq!(CpuSet(words).highest_only().unwrap().0[0], 0b1000);
        words[2] = 1 << 5;
        let top = CpuSet(words).highest_only().unwrap();
        assert_eq!((top.0[0], top.0[2]), (0, 1 << 5));
        assert_eq!(CpuSet([0; WORDS]).highest_only(), None);
    }
}
