//! Radix-2 decimation-in-time FFT.
//!
//! Both OFDM PHYs in this workspace are built on power-of-two transforms
//! (64-point for 802.11a/g, 1024-point for 802.16e OFDMA), so a plain
//! iterative radix-2 implementation with precomputed twiddles covers every
//! use without external dependencies.

use crate::complex::Cf64;

/// A reusable FFT plan for a fixed power-of-two size.
///
/// The plan precomputes the bit-reversal permutation and twiddle factors, so
/// repeated transforms (one per OFDM symbol) avoid recomputing trigonometry.
/// Twiddles are stored per butterfly stage in the order the stage reads
/// them, once as `e^{-j 2 pi k / n}` for the forward transform and once
/// conjugated for the inverse; conjugation is exact, so both directions
/// multiply by the same values a per-butterfly `conj()` would produce.
#[derive(Clone, Debug)]
pub struct Fft {
    n: usize,
    rev: Vec<u32>,
    /// Forward twiddles, stage by stage: the stage of span `len` holds
    /// `e^{-j 2 pi k / len}` for `k < len/2` (`n - 1` entries in total).
    tw: Vec<Cf64>,
    /// `tw` conjugated, for the inverse transform.
    tw_inv: Vec<Cf64>,
}

impl Fft {
    /// Creates a plan for an `n`-point transform.
    ///
    /// # Panics
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits().checked_shr(32 - bits).unwrap_or(0))
            .collect();
        let base: Vec<Cf64> = (0..n / 2)
            .map(|k| Cf64::from_angle(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let mut tw: Vec<Cf64> = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            tw.extend(base.iter().step_by(n / len).take(len / 2));
            len <<= 1;
        }
        let tw_inv = tw.iter().map(|w| w.conj()).collect();
        Fft { n, rev, tw, tw_inv }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true for the degenerate 1-point plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT (no normalization).
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan size.
    pub fn forward(&self, buf: &mut [Cf64]) {
        self.transform(buf, &self.tw);
    }

    /// In-place inverse FFT with `1/n` normalization, so
    /// `inverse(forward(x)) == x`.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan size.
    pub fn inverse(&self, buf: &mut [Cf64]) {
        self.transform(buf, &self.tw_inv);
        let k = 1.0 / self.n as f64;
        for s in buf.iter_mut() {
            *s = s.scale(k);
        }
    }

    fn transform(&self, buf: &mut [Cf64], twiddles: &[Cf64]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal FFT size");
        // Bit-reversal permutation.
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        // Iterative Cooley-Tukey butterflies; every butterfly is exactly
        // `a + b*w`, `a - b*w`.
        let mut len = 2;
        let mut stage = twiddles;
        while len <= self.n {
            let half = len / 2;
            let (tw, rest) = stage.split_at(half);
            for block in buf.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let bw = *b * w;
                    let av = *a;
                    *a = av + bw;
                    *b = av - bw;
                }
            }
            stage = rest;
            len <<= 1;
        }
    }
}

/// Convenience one-shot forward FFT returning a new buffer.
pub fn fft(input: &[Cf64]) -> Vec<Cf64> {
    let mut buf = input.to_vec();
    Fft::new(input.len()).forward(&mut buf);
    buf
}

/// Convenience one-shot inverse FFT (normalized) returning a new buffer.
pub fn ifft(input: &[Cf64]) -> Vec<Cf64> {
    let mut buf = input.to_vec();
    Fft::new(input.len()).inverse(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive_dft(x: &[Cf64]) -> Vec<Cf64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| {
                        x[t] * Cf64::from_angle(
                            -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64,
                        )
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn impulse_transforms_to_flat() {
        let mut x = vec![Cf64::ZERO; 8];
        x[0] = Cf64::ONE;
        let y = fft(&x);
        for s in y {
            assert!((s - Cf64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_on_one_bin() {
        let n = 64;
        let k0 = 7;
        let x: Vec<Cf64> = (0..n)
            .map(|t| Cf64::from_angle(2.0 * std::f64::consts::PI * (k0 * t) as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (k, s) in y.iter().enumerate() {
            if k == k0 {
                assert!((s.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(s.abs() < 1e-9, "leakage at bin {k}: {}", s.abs());
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let mut rng = Rng::seed_from(42);
        for n in [2usize, 4, 16, 64, 128] {
            let x: Vec<Cf64> = (0..n)
                .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
                .collect();
            let fast = fft(&x);
            let slow = naive_dft(&x);
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!((*a - *b).abs() < 1e-8 * n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_inverse() {
        let mut rng = Rng::seed_from(1);
        for n in [4usize, 64, 1024] {
            let x: Vec<Cf64> = (0..n)
                .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
                .collect();
            let y = ifft(&fft(&x));
            for (a, b) in x.iter().zip(y.iter()) {
                assert!((*a - *b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut rng = Rng::seed_from(9);
        let n = 256;
        let x: Vec<Cf64> = (0..n)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect();
        let time_e: f64 = x.iter().map(|s| s.norm_sq()).sum();
        let freq_e: f64 = fft(&x).iter().map(|s| s.norm_sq()).sum::<f64>() / n as f64;
        assert!((time_e - freq_e).abs() < 1e-8 * time_e);
    }

    #[test]
    fn one_point_plan_is_identity() {
        let plan = Fft::new(1);
        let x = [Cf64::new(0.25, -3.0)];
        let mut y = x;
        plan.forward(&mut y);
        assert_eq!(y, x);
        plan.inverse(&mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn inverse_twiddles_are_exact_conjugates() {
        let plan = Fft::new(64);
        assert_eq!(plan.tw.len(), 63);
        for (w, v) in plan.tw.iter().zip(&plan.tw_inv) {
            assert_eq!(
                (w.re.to_bits(), (-w.im).to_bits()),
                (v.re.to_bits(), v.im.to_bits())
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Fft::new(48);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn rejects_wrong_buffer_length() {
        let plan = Fft::new(8);
        let mut buf = vec![Cf64::ZERO; 4];
        plan.forward(&mut buf);
    }

    #[test]
    fn linearity() {
        let mut rng = Rng::seed_from(5);
        let n = 32;
        let a: Vec<Cf64> = (0..n)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect();
        let b: Vec<Cf64> = (0..n)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect();
        let sum: Vec<Cf64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fs = fft(&sum);
        for i in 0..n {
            assert!((fs[i] - (fa[i] + fb[i])).abs() < 1e-9);
        }
    }
}
