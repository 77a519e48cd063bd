//! The host's speed, measured with a fixed kernel that is not the
//! simulator's code, so that the end-to-end times can be given at one
//! reference speed.
//!
//! On a host shared with other machines the same serial run of the
//! simulator, in CPU time, takes up to twice as long in one minute as in
//! the next: other tenants' work on the sibling hyperthread and in the
//! shared caches slows every instruction, which no clock leaves out. A
//! kernel timed right before and right after each run slows with it.
//! Its code lives here, outside the simulator, so a change to the
//! simulator leaves it as it is.

use crate::harness::thread_cpu_s;
use crate::workloads::Rng;

/// Keys the probe sorts: 512 KiB, so they fit the core's own L2
/// cache, like the simulator's branchy inner loops, and unlike its
/// node state, which lives in the shared caches and memory.
const KEYS: usize = 1 << 16;

/// CPU seconds one probe takes on the reference host: the fastest
/// probes measured on the 2-vCPU Xeon VM the benchmark was written on
/// took 1.2 ms.
pub const REFERENCE_S: f64 = 0.0012;

/// Sorts a fixed array of seeded keys and times it.
#[derive(Debug)]
pub struct Probe {
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Probe {
        let mut rng = Rng::new(0x5EED);
        let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
        Probe {
            scratch: keys.clone(),
            keys,
        }
    }
}

impl Probe {
    /// CPU seconds of one sort of the keys (the copy that restores
    /// their order is not timed).
    pub fn sample_s(&mut self) -> f64 {
        self.scratch.copy_from_slice(&self.keys);
        let t0 = thread_cpu_s();
        self.scratch.sort_unstable();
        let s = thread_cpu_s() - t0;
        std::hint::black_box(&self.scratch);
        s
    }
}
