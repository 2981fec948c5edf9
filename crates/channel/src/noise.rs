//! Additive white Gaussian noise sources.
//!
//! The conducted testbed's only stochastic impairment is thermal noise at
//! each receiver. Noise power is expressed relative to digital full scale
//! (dBFS), matching how the paper reports SNR "at RX" after the fixed-gain
//! front end.
//!
//! A [`NoiseSource`] reads ahead: it draws Gaussian pairs 64 at a time
//! through [`Rng::fill_gaussian_pairs`] into a private buffer and serves
//! [`NoiseSource::next_sample`] from it. The generator is private and the
//! buffer is always drained before the generator is drawn again, so the
//! sample stream is the same however `next_sample`, `fill`, `corrupt` and
//! `block` calls interleave; reading ahead cannot be observed.

use rjam_sdr::complex::Cf64;
use rjam_sdr::power::db_to_lin;
use rjam_sdr::rng::Rng;

/// Gaussian pairs a [`NoiseSource`] draws per read-ahead refill.
const READ_AHEAD: usize = 64;

/// A complex AWGN generator with configurable mean power.
#[derive(Clone, Debug)]
pub struct NoiseSource {
    rng: Rng,
    /// Per-component standard deviation such that E[|n|^2] = power.
    sigma: f64,
    power: f64,
    /// Unit-variance pairs drawn ahead; `ahead[next..]` are still unserved.
    ahead: [(f64, f64); READ_AHEAD],
    next: usize,
}

impl NoiseSource {
    /// Creates a source with the given total complex noise power (linear,
    /// relative to full scale 1.0).
    ///
    /// # Panics
    /// Panics if `power` is negative.
    pub fn new(power: f64, rng: Rng) -> Self {
        assert!(power >= 0.0, "noise power cannot be negative");
        NoiseSource {
            rng,
            sigma: (power / 2.0).sqrt(),
            power,
            ahead: [(0.0, 0.0); READ_AHEAD],
            next: READ_AHEAD,
        }
    }

    /// Creates a source from a noise floor in dBFS.
    pub fn from_dbfs(dbfs: f64, rng: Rng) -> Self {
        NoiseSource::new(db_to_lin(dbfs), rng)
    }

    /// Configured mean noise power.
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Draws one noise sample.
    ///
    /// Named `next_sample` (not `next`) deliberately: `NoiseSource` is an
    /// infinite generator, so an `Iterator::next` returning `Option` would
    /// never be `None` and the inherent-method name would shadow the trait
    /// (`clippy::should_implement_trait`).
    #[inline]
    pub fn next_sample(&mut self) -> Cf64 {
        if self.next == READ_AHEAD {
            self.rng.fill_gaussian_pairs(&mut self.ahead);
            self.next = 0;
        }
        let pair = self.ahead[self.next];
        self.next += 1;
        self.scaled(pair)
    }

    #[inline]
    fn scaled(&self, (re, im): (f64, f64)) -> Cf64 {
        Cf64::new(re * self.sigma, im * self.sigma)
    }

    /// Overwrites `out` with noise, exactly as `out.len()` calls of
    /// [`NoiseSource::next_sample`] would: the read-ahead first, then
    /// fresh blocks straight from the generator.
    pub fn fill(&mut self, out: &mut [Cf64]) {
        let buffered = (READ_AHEAD - self.next).min(out.len());
        let (head, rest) = out.split_at_mut(buffered);
        for (s, &pair) in head.iter_mut().zip(&self.ahead[self.next..]) {
            *s = self.scaled(pair);
        }
        self.next += buffered;
        let mut pairs = [(0.0, 0.0); READ_AHEAD];
        for chunk in rest.chunks_mut(READ_AHEAD) {
            let pairs = &mut pairs[..chunk.len()];
            self.rng.fill_gaussian_pairs(pairs);
            for (s, &pair) in chunk.iter_mut().zip(pairs.iter()) {
                *s = self.scaled(pair);
            }
        }
    }

    /// Generates a block of noise.
    pub fn block(&mut self, n: usize) -> Vec<Cf64> {
        let mut out = vec![Cf64::ZERO; n];
        self.fill(&mut out);
        out
    }

    /// Adds noise to a waveform in place.
    pub fn corrupt(&mut self, buf: &mut [Cf64]) {
        let mut noise = [Cf64::ZERO; READ_AHEAD];
        for chunk in buf.chunks_mut(READ_AHEAD) {
            let noise = &mut noise[..chunk.len()];
            self.fill(noise);
            for (s, &n) in chunk.iter_mut().zip(noise.iter()) {
                *s += n;
            }
        }
    }
}

/// Returns a copy of `signal` with AWGN at the SNR (dB) implied by the
/// signal's own mean power. Convenience for detector characterization runs.
pub fn add_awgn_at_snr(signal: &[Cf64], snr_db: f64, rng: Rng) -> Vec<Cf64> {
    let sig_p = rjam_sdr::power::mean_power(signal);
    let noise_p = sig_p / db_to_lin(snr_db);
    let mut src = NoiseSource::new(noise_p, rng);
    signal.iter().map(|&s| s + src.next_sample()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::power::{lin_to_db, mean_power};

    #[test]
    fn noise_power_matches_request() {
        let mut src = NoiseSource::new(0.01, Rng::seed_from(1));
        let blk = src.block(200_000);
        let p = mean_power(&blk);
        assert!((p / 0.01 - 1.0).abs() < 0.02, "p={p}");
    }

    #[test]
    fn from_dbfs() {
        let src = NoiseSource::from_dbfs(-40.0, Rng::seed_from(2));
        assert!((lin_to_db(src.power()) + 40.0).abs() < 1e-9);
    }

    #[test]
    fn zero_power_source_is_silent() {
        let mut src = NoiseSource::new(0.0, Rng::seed_from(3));
        for _ in 0..100 {
            assert_eq!(src.next_sample(), Cf64::ZERO);
        }
    }

    #[test]
    fn components_are_uncorrelated_and_zero_mean() {
        let mut src = NoiseSource::new(1.0, Rng::seed_from(4));
        let blk = src.block(100_000);
        let n = blk.len() as f64;
        let mean_re: f64 = blk.iter().map(|s| s.re).sum::<f64>() / n;
        let mean_im: f64 = blk.iter().map(|s| s.im).sum::<f64>() / n;
        let cross: f64 = blk.iter().map(|s| s.re * s.im).sum::<f64>() / n;
        assert!(mean_re.abs() < 0.01);
        assert!(mean_im.abs() < 0.01);
        assert!(cross.abs() < 0.01);
    }

    #[test]
    fn corrupt_adds_expected_power() {
        let sig = vec![Cf64::new(0.1, 0.0); 100_000];
        let mut noisy = sig.clone();
        NoiseSource::new(0.04, Rng::seed_from(5)).corrupt(&mut noisy);
        let p = mean_power(&noisy);
        // Signal power 0.01 + noise 0.04.
        assert!((p - 0.05).abs() < 0.002, "p={p}");
    }

    #[test]
    fn awgn_at_snr_yields_requested_snr() {
        let sig: Vec<Cf64> = (0..100_000)
            .map(|t| Cf64::from_angle(0.01 * t as f64).scale(0.2))
            .collect();
        let noisy = add_awgn_at_snr(&sig, 10.0, Rng::seed_from(6));
        let sig_p = mean_power(&sig);
        let tot_p = mean_power(&noisy);
        let noise_p = tot_p - sig_p;
        let snr = lin_to_db(sig_p / noise_p);
        assert!((snr - 10.0).abs() < 0.3, "snr={snr}");
    }
}
