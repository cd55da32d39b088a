//! Rotating the client thread over the CPUs it may run on.
//!
//! On small shared machines the CPUs are not equally fast (one may share
//! a core with a busy neighbour), and the scheduler moves a single busy
//! thread between them every few seconds, so a run's figures depend on
//! where it happened to land. The client therefore visits every allowed
//! CPU in turn, one round of requests on each, which gives every run the
//! same mix.

/// The CPUs this thread may run on when the benchmark starts.
pub struct CpuRotation {
    cpus: Vec<usize>,
    #[cfg(target_os = "linux")]
    original: [u64; MASK_WORDS],
}

#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
impl CpuRotation {
    /// Read the calling thread's CPU mask.
    pub fn new() -> CpuRotation {
        let mut original = [0u64; MASK_WORDS];
        // SAFETY: `original` is a writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let ok = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&original), original.as_mut_ptr())
        } == 0;
        let cpus = if ok {
            (0..MASK_WORDS * 64)
                .filter(|&c| original[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        CpuRotation { cpus, original }
    }

    /// Move the calling thread to the `round`-th allowed CPU, cyclically.
    pub fn enter(&self, round: usize) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[round % self.cpus.len()];
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        self.set(&mask);
    }

    fn set(&self, mask: &[u64; MASK_WORDS]) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread. A failure leaves the mask
        // as it was, which only forgoes the rotation.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    }
}

#[cfg(target_os = "linux")]
impl Drop for CpuRotation {
    fn drop(&mut self) {
        if self.cpus.len() >= 2 {
            self.set(&self.original);
        }
    }
}

#[cfg(not(target_os = "linux"))]
impl CpuRotation {
    /// Rotation is a no-op off Linux.
    pub fn new() -> CpuRotation {
        CpuRotation { cpus: Vec::new() }
    }

    /// Rotation is a no-op off Linux.
    pub fn enter(&self, _round: usize) {}
}

impl CpuRotation {
    /// How many CPUs the rotation visits (1 when it never moves).
    pub fn cpus(&self) -> usize {
        self.cpus.len().max(1)
    }

    /// A rotation that never moves the thread.
    pub fn disabled() -> CpuRotation {
        let mut r = CpuRotation::new();
        r.cpus.clear();
        r
    }
}

impl Default for CpuRotation {
    fn default() -> Self {
        CpuRotation::new()
    }
}
