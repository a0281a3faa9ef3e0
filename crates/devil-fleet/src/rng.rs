//! A tiny deterministic RNG for fleet workloads.
//!
//! SplitMix64: one `u64` of state, a fixed increment, and a finalizer
//! with full avalanche. The fleet needs (a) determinism across shard
//! counts — every instance draws only from its own stream, seeded by
//! `(fleet seed, instance id)` — and (b) streams for nearby ids that do
//! not correlate, which the multiply-by-golden-ratio seeding gives.

/// The SplitMix64 additive constant (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// A deterministic per-instance random stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded directly.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The stream of instance `id` in a fleet seeded with `seed`.
    ///
    /// Identical regardless of how instances are partitioned into
    /// shards — the foundation of the replay-determinism gate.
    pub fn for_instance(seed: u64, id: u64) -> Self {
        let mut r = Rng(seed ^ id.wrapping_mul(GOLDEN));
        // Burn one output so consecutive ids decorrelate immediately.
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` must be nonzero; modulo bias is
    /// irrelevant at workload scales).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// True with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// An exponentially distributed interarrival gap with the given
    /// mean, in integer nanoseconds (at least 1).
    ///
    /// Arrivals only order units on a shard's simulated clock; the gate
    /// quantities (ledgers, snapshots) never depend on arrival times,
    /// so the `f64` log here cannot perturb the determinism check.
    pub fn exp_ns(&mut self, mean_ns: u64) -> u64 {
        let u = ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        let x = -(1.0 - u).ln() * mean_ns as f64;
        (x as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = {
            let mut r = Rng::for_instance(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::for_instance(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same (seed, id) must replay the same stream");
        let mut c = Rng::for_instance(7, 4);
        assert_ne!(a[0], c.next_u64(), "adjacent ids must diverge");
    }

    #[test]
    fn exp_gaps_average_near_the_mean() {
        let mut r = Rng::new(42);
        let n = 10_000u64;
        let sum: u64 = (0..n).map(|_| r.exp_ns(20_000)).sum();
        let mean = sum / n;
        assert!((15_000..25_000).contains(&mean), "mean gap {mean} off");
    }
}
