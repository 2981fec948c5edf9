//! Deterministic pseudo-random number generation.
//!
//! Every stochastic element of the testbed (noise, payload bits, traffic
//! arrival jitter) draws from this generator so that experiments are exactly
//! reproducible from a seed. The core is xoshiro256**, seeded through
//! SplitMix64; Gaussian variates come from the Box-Muller transform.
//!
//! ## Libm-free Box-Muller
//!
//! [`normal_pair`] is the one Gaussian definition: every scalar, pair and
//! block draw goes through it. It calls no libm function, so its bits
//! depend only on IEEE-754 `+ − × ÷ √`, not on which `log`/`sin`/`cos` the
//! host C library picks (glibc, for one, selects FMA or non-FMA variants
//! per CPU, and their last bits differ):
//!
//! * `ln u1` is fdlibm's `__ieee754_log` reduction without its branches:
//!   `u1 = 2^k·(1+f)` with `1+f ∈ [√2/2, √2)`, then `s = f/(2+f)` and the
//!   `Lg1..Lg7` polynomial.
//! * `(sin, cos)(2π·u2)` is reduced **in turns**: `t = 8·u2` splits
//!   exactly into an octant `o` and a fraction `f`, so `2π·u2` is never
//!   rounded. The fdlibm `__kernel_sin`/`__kernel_cos` polynomials (in
//!   FreeBSD msun's branch-free arrangement) run on
//!   `x = a·π/4 ∈ [0, π/4]` (`a = f` or `1 − f`, both exact), and the
//!   octant swaps and signs the pair by bit selects, not branches: a
//!   random angle mispredicts any branch on it.
//!
//! The results agree with glibc's Box-Muller to a few ulp (≤ 4·10⁻¹⁵ on
//! unit-variance normals); quantized noise and campaign outputs are the
//! same bits. [`Rng::fill_gaussian_pairs`] draws 64 pairs' uniforms
//! serially, then transforms the independent pairs in a second pass,
//! where the divisions and square roots of neighbouring pairs overlap.

/// A small, fast, deterministic PRNG (xoshiro256**).
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller pair.
    spare: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Rng { s, spare: None }
    }

    /// Derives an independent child generator; used to give each experiment
    /// arm its own stream without correlation.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift bounded rejection (Lemire); bias is negligible for
        // the ranges used here but we reject to be exact.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= (u64::MAX - n + 1) % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal variate (mean 0, variance 1) via Box-Muller.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        let (first, second) = self.box_muller();
        self.spare = Some(second);
        first
    }

    /// Two standard normal variates, exactly `(self.gaussian(),
    /// self.gaussian())`. With no cached spare it returns a fresh
    /// Box-Muller pair directly, skipping the spare round trip.
    #[inline]
    pub fn gaussian_pair(&mut self) -> (f64, f64) {
        if self.spare.is_some() {
            return (self.gaussian(), self.gaussian());
        }
        self.box_muller()
    }

    /// Fills `out` with standard normal pairs, exactly as `out.len()`
    /// calls of [`Rng::gaussian_pair`] would.
    pub fn fill_gaussian_pairs(&mut self, out: &mut [(f64, f64)]) {
        if self.spare.is_some() {
            // Every pair straddles two Box-Muller draws; stay scalar.
            for p in out {
                *p = self.gaussian_pair();
            }
            return;
        }
        for chunk in out.chunks_mut(BLOCK_PAIRS) {
            let mut u = [(0.0, 0.0); BLOCK_PAIRS];
            for slot in &mut u[..chunk.len()] {
                *slot = self.box_muller_uniforms();
            }
            for (p, &(u1, u2)) in chunk.iter_mut().zip(&u) {
                *p = normal_pair(u1, u2);
            }
        }
    }

    /// The two uniforms of one Box-Muller pair, in draw order.
    #[inline]
    fn box_muller_uniforms(&mut self) -> (f64, f64) {
        // u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        (u1, self.uniform())
    }

    /// One Box-Muller pair `(r cos theta, r sin theta)`.
    #[inline]
    fn box_muller(&mut self) -> (f64, f64) {
        let (u1, u2) = self.box_muller_uniforms();
        normal_pair(u1, u2)
    }

    /// Exponential variate with the given rate parameter (mean `1/rate`).
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Fills a byte buffer with pseudo-random data (packet payloads).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

/// Pairs per chunk of [`Rng::fill_gaussian_pairs`]'s two-pass loop.
const BLOCK_PAIRS: usize = 64;

/// The Box-Muller transform of `u1 ∈ (0, 1]`, `u2 ∈ [0, 1)`:
/// `(r·cos θ, r·sin θ)` with `r = √(−2 ln u1)` and `θ = 2π·u2`, computed
/// without libm (see the module docs).
#[inline]
pub fn normal_pair(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * ln_unit(u1)).sqrt();
    let (sin, cos) = sincos_turns(u2);
    (r * cos, r * sin)
}

/// Natural log of a positive normal `x`: fdlibm's `__ieee754_log`
/// reduction and polynomial, as one branch-free formula.
#[inline]
fn ln_unit(x: f64) -> f64 {
    // fdlibm e_log.c's constants, as shortest round-trip decimals.
    const LG1: f64 = 0.6666666666666735;
    const LG2: f64 = 0.3999999999940942;
    const LG3: f64 = 0.2857142874366239;
    const LG4: f64 = 0.22222198432149784;
    const LG5: f64 = 0.1818357216161805;
    const LG6: f64 = 0.15313837699209373;
    const LG7: f64 = 0.14798198605116586;
    const LN2_HI: f64 = 0.6931471803691238;
    const LN2_LO: f64 = 1.9082149292705877e-10;
    /// Mantissa bits of √2.
    const SQRT2_MANT: u64 = 0x6_a09e_667f_3bcd;
    const MANT: u64 = (1 << 52) - 1;

    let bits = x.to_bits();
    let mant = bits & MANT;
    // Halve mantissas at or above √2 so that 1+f ∈ [√2/2, √2).
    let high = (mant >= SQRT2_MANT) as u64;
    // Via i64: x86-64 converts signed integers in one instruction.
    let k = ((bits >> 52) + high) as i64 as f64 - 1023.0;
    let f = f64::from_bits(mant | ((1023 - high) << 52)) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// `(sin, cos)(2π·u)` for `u ∈ [0, 1)`, reduced in turns: octant and
/// in-octant fraction come exactly from `8·u`, and the fdlibm kernels run
/// on `[0, π/4]`.
#[inline]
fn sincos_turns(u: f64) -> (f64, f64) {
    // fdlibm k_sin.c/k_cos.c's coefficients, as shortest round-trip
    // decimals.
    const S1: f64 = -0.16666666666666632;
    const S2: f64 = 0.00833333333332249;
    const S3: f64 = -0.0001984126982985795;
    const S4: f64 = 2.7557313707070068e-6;
    const S5: f64 = -2.5050760253406863e-8;
    const S6: f64 = 1.58969099521155e-10;
    const C1: f64 = 0.0416666666666666;
    const C2: f64 = -0.001388888888887411;
    const C3: f64 = 2.480158728947673e-5;
    const C4: f64 = -2.7557314351390663e-7;
    const C5: f64 = 2.087572321298175e-9;
    const C6: f64 = -1.1359647557788195e-11;
    const SIGN: u64 = 1 << 63;

    let t = 8.0 * u;
    // Signed conversions, as in `ln_unit`; t < 8 so both are exact.
    let o = t as i64;
    let f = t - o as f64;
    let o = o as u64;
    // Odd octants count down from the next multiple of π/4.
    let odd = o & 1;
    let a = f64::from_bits(f.to_bits() ^ (odd * (f.to_bits() ^ (1.0 - f).to_bits())));
    let x = a * std::f64::consts::FRAC_PI_4;

    let z = x * x;
    let w = z * z;
    let rs = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = x + z * x * (S1 + z * rs);
    let rc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let v = 1.0 - hz;
    let cos = v + (((1.0 - v) - hz) + z * rc);

    // Octants 1, 2, 5, 6 swap; 4–7 negate sin; 2–5 negate cos.
    let swap = (o ^ (o >> 1)) & 1;
    let q = o >> 1;
    let (sb, cb) = (sin.to_bits(), cos.to_bits());
    let d = swap * (sb ^ cb);
    let sin = f64::from_bits((sb ^ d) ^ ((q >> 1) * SIGN));
    let cos = f64::from_bits((cb ^ d) ^ (((q ^ (q >> 1)) & 1) * SIGN));
    (sin, cos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Rng::seed_from(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng::seed_from(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::seed_from(3);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut rng = Rng::seed_from(5);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::seed_from(17);
        let rate = 4.0;
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn fork_streams_are_independent_of_parent_continuation() {
        let mut parent = Rng::seed_from(77);
        let mut child = parent.fork();
        // Child must be reproducible given the same parent state.
        let mut parent2 = Rng::seed_from(77);
        let mut child2 = parent2.fork();
        assert_eq!(child.next_u64(), child2.next_u64());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Rng::seed_from(7);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(21);
        assert!(!(0..1000).any(|_| rng.chance(0.0)));
        assert!((0..1000).all(|_| rng.chance(1.0)));
    }
}
