//! Host-speed calibration.
//!
//! On a shared host the same binary runs up to 1.7× slower for seconds
//! at a time (a busy hyperthread sibling, frequency changes). A fixed
//! bench-local loop — integer arithmetic, branches and loads from a
//! 32 KiB table, the mix the driver paths execute — is timed between
//! the measurements, and each timing sample is scaled by
//! `NOMINAL_NS / median(loop ns)` over the loop samples taken next to
//! it: it is expressed at the speed of a host that runs the loop in
//! [`NOMINAL_NS`]. Timings not sampled in a series (span totals) take
//! the run's median factor.
//!
//! The loop runs no program code and rebuilds its table on every pass,
//! so neither a program change nor the cache and heap state a workload
//! leaves behind can change its time. (A loop over memory the workload
//! also uses would let a program's cache savings slow the loop down and
//! hide them.) It therefore tracks core speed, not contention for the
//! shared cache and memory, which stays in the figures as noise.

use std::hint::black_box;

/// The speed every reported timing is expressed at: about the loop's
/// median time on a shared 2-vCPU Xeon host, so that reported figures
/// read close to raw ones there.
pub const NOMINAL_NS: f64 = 100_000.0;

const TABLE: usize = 4096;
const STEPS: usize = 16_384;

/// Times one pass of the calibration loop, in CPU ns of this thread
/// (see [`crate::cpu`]).
pub fn sample() -> f64 {
    let mut table = [0u64; TABLE];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for t in table.iter_mut() {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *t = x;
    }
    let table = black_box(table);
    let t = crate::cpu::thread_ns();
    let mut table = table;
    let mut acc = black_box(1u64);
    for _ in 0..STEPS {
        let j = (acc >> 52) as usize % TABLE;
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(table[j]);
        if acc & 1 == 0 {
            table[j] ^= acc.rotate_left(17);
        } else {
            acc = acc.rotate_right(9);
        }
    }
    black_box(acc);
    (crate::cpu::thread_ns() - t) as f64
}

/// Calibration samples taken between a run's measurements.
pub struct Calib {
    samples: Vec<f64>,
}

impl Default for Calib {
    /// Room for every sample a run takes, touched up front so the
    /// resident set does not depend on how many are taken.
    fn default() -> Self {
        let mut samples = Vec::with_capacity(1 << 17);
        samples.resize(1 << 17, 1.0);
        samples.clear();
        Calib { samples }
    }
}

impl Calib {
    /// Takes `n` samples.
    pub fn take(&mut self, n: usize) {
        for _ in 0..n {
            self.samples.push(sample());
        }
    }

    /// The run's samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The factor that scales this run's timings to the nominal host.
    pub fn scale(&self) -> f64 {
        factor(&self.samples)
    }

    /// The factor over the last `n` samples only: the host's speed
    /// around the measurement just taken.
    pub fn recent(&self, n: usize) -> f64 {
        factor(&self.samples[self.samples.len().saturating_sub(n)..])
    }
}

fn factor(samples: &[f64]) -> f64 {
    let m = crate::stats::median(samples);
    if m > 0.0 {
        NOMINAL_NS / m
    } else {
        1.0
    }
}
