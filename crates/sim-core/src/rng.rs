//! Deterministic random-number generation with named sub-streams.
//!
//! Every stochastic component in the workspace takes a seed, and every
//! experiment is reproducible bit-for-bit across runs and platforms. The
//! generator is a self-contained xoshiro256++ seeded via SplitMix64 (the
//! reference initialization), so results do not depend on the stability of
//! any external crate's default RNG.
//!
//! Sub-streams: [`RngStream::derive`] hashes a label into a fresh,
//! statistically independent stream, so e.g. the arrival process and the
//! runtime sampler of a workload generator cannot perturb each other when
//! one of them draws an extra variate.

use crate::hash::fnv1a;
use rand::RngCore;

/// SplitMix64 step, used for seeding and label hashing.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ stream.
#[derive(Debug, Clone)]
pub struct RngStream {
    s: [u64; 4],
}

impl RngStream {
    /// Creates a stream from a 64-bit seed (SplitMix64 state expansion).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is the one invalid xoshiro state; seed 0 cannot
        // produce it through SplitMix64, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        RngStream { s }
    }

    /// Derives an independent child stream from a label. The same
    /// `(seed, label)` pair always yields the same stream.
    pub fn derive(&self, label: &str) -> RngStream {
        // Mix the parent's seed-equivalent with the label hash.
        let mut probe = self.clone();
        let base = probe.next_u64();
        RngStream::new(base ^ fnv1a(label.as_bytes()))
    }

    /// Derives an independent child stream from an index (e.g. a replicate
    /// number or a region id).
    pub fn derive_idx(&self, index: u64) -> RngStream {
        let mut probe = self.clone();
        let base = probe.next_u64();
        RngStream::new(base ^ splitmix64(&mut index.wrapping_add(1)))
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift (unbiased
    /// enough for simulation purposes with rejection).
    pub fn uniform_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform_u64 requires n > 0");
        // Rejection sampling on the top bits to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal variate (Marsaglia polar method).
    pub(crate) fn normal_std(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal_std()
    }

    /// Lognormal variate: `exp(N(mu, sigma))`.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential variate with the given rate (mean `1/rate`).
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        // 1 - U avoids ln(0).
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Poisson variate (Knuth's algorithm; fine for the small means used in
    /// arrival thinning).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        debug_assert!(mean >= 0.0);
        if mean == 0.0 {
            return 0;
        }
        if mean > 30.0 {
            // Normal approximation for large means.
            let v = self.normal(mean, mean.sqrt()).round();
            return if v < 0.0 { 0 } else { v as u64 };
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
}

impl RngCore for RngStream {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;

    #[test]
    fn deterministic_across_instances() {
        let mut a = RngStream::new(42);
        let mut b = RngStream::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RngStream::new(1);
        let mut b = RngStream::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_independent_and_stable() {
        let root = RngStream::new(7);
        let mut x1 = root.derive("arrivals");
        let mut x2 = root.derive("arrivals");
        let mut y = root.derive("runtimes");
        assert_eq!(x1.next_u64(), x2.next_u64());
        assert_ne!(x1.next_u64(), y.next_u64());
        let mut i0 = root.derive_idx(0);
        let mut i1 = root.derive_idx(1);
        assert_ne!(i0.next_u64(), i1.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = RngStream::new(3);
        let mut stats = RunningStats::new();
        for _ in 0..20_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            stats.push(u);
        }
        assert!((stats.mean() - 0.5).abs() < 0.01);
        // Var of U(0,1) = 1/12 ≈ 0.0833.
        assert!((stats.variance() - 1.0 / 12.0).abs() < 0.005);
    }

    #[test]
    fn uniform_u64_unbiased_small_n() {
        let mut r = RngStream::new(9);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.uniform_u64(5) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "counts: {counts:?}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = RngStream::new(11);
        let mut stats = RunningStats::new();
        for _ in 0..50_000 {
            stats.push(r.normal(5.0, 2.0));
        }
        assert!((stats.mean() - 5.0).abs() < 0.05);
        assert!((stats.std_dev() - 2.0).abs() < 0.05);
    }

    #[test]
    fn exponential_mean() {
        let mut r = RngStream::new(13);
        let mut stats = RunningStats::new();
        for _ in 0..50_000 {
            let v = r.exponential(0.25);
            assert!(v >= 0.0);
            stats.push(v);
        }
        assert!((stats.mean() - 4.0).abs() < 0.1);
    }

    #[test]
    fn lognormal_median() {
        let mut r = RngStream::new(17);
        let mut v: Vec<f64> = (0..10_001).map(|_| r.lognormal(2.0, 1.0)).collect();
        v.sort_by(f64::total_cmp);
        let median = v[v.len() / 2];
        // Median of lognormal is exp(mu).
        assert!((median - 2.0f64.exp()).abs() / 2.0f64.exp() < 0.1);
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut r = RngStream::new(23);
        let mut s_small = RunningStats::new();
        let mut s_large = RunningStats::new();
        for _ in 0..20_000 {
            s_small.push(r.poisson(3.0) as f64);
            s_large.push(r.poisson(100.0) as f64);
        }
        assert!((s_small.mean() - 3.0).abs() < 0.1);
        assert!((s_large.mean() - 100.0).abs() < 1.0);
    }

    #[test]
    fn fill_bytes_handles_remainders() {
        let mut r = RngStream::new(37);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    #[should_panic(expected = "requires n > 0")]
    fn uniform_u64_zero_panics() {
        RngStream::new(1).uniform_u64(0);
    }
}
