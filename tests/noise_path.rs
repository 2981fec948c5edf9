//! Tier-1 checks for the libm-free noise path.
//!
//! * `Rng::fill_gaussian_pairs` equals repeated `gaussian_pair` at either
//!   Box-Muller spare alignment and across its 64-pair chunk edges.
//! * A `NoiseSource` serves one stream however `next_sample`, `fill`,
//!   `corrupt` and `block` interleave, and a mid-stream clone continues it.
//! * `normal_pair` stays within a few ulp of a libm Box-Muller oracle and
//!   quantizes to the same `IqI16` samples at campaign noise levels.
//! * Exact values at octant boundaries and at `u1 = 1`, and the Gaussian
//!   moments.

use rjam::channel::noise::NoiseSource;
use rjam::sdr::complex::{Cf64, IqI16};
use rjam::sdr::power::db_to_lin;
use rjam::sdr::rng::{normal_pair, Rng};
use rjam_testkit::{self as tk, prop_assert, prop_assert_eq, props};

/// Box-Muller through the platform libm: the transform as the generator
/// computed it before it became libm-free.
fn libm_pair(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// The uniforms one Box-Muller pair draws, in the generator's order.
fn uniforms(rng: &mut Rng) -> (f64, f64) {
    let u1 = 1.0 - rng.uniform();
    (u1, rng.uniform())
}

fn bits(s: Cf64) -> (u64, u64) {
    (s.re.to_bits(), s.im.to_bits())
}

#[test]
fn fill_gaussian_pairs_equals_gaussian_pair() {
    for len in [0, 1, 63, 64, 65, 255, 256, 257, 1000] {
        for skew in [false, true] {
            let mut block = Rng::seed_from(1400 + len as u64);
            let mut scalar = block.clone();
            if skew {
                assert_eq!(block.gaussian().to_bits(), scalar.gaussian().to_bits());
            }
            let mut got = vec![(9.0, 9.0); len];
            block.fill_gaussian_pairs(&mut got);
            for (k, &(a, b)) in got.iter().enumerate() {
                let (x, y) = scalar.gaussian_pair();
                assert_eq!(
                    (a.to_bits(), b.to_bits()),
                    (x.to_bits(), y.to_bits()),
                    "len {len} skew {skew} pair {k}"
                );
            }
            // Same generator state afterwards, spare included.
            assert_eq!(block.gaussian().to_bits(), scalar.gaussian().to_bits());
            assert_eq!(block.next_u64(), scalar.next_u64());
        }
    }
}

props! {
    cases = 24;

    /// Any interleaving of the four draw paths, and a clone taken between
    /// two of them, reproduce one `fill` of the whole length.
    fn noise_interleavings_equal_one_fill(
        seed in tk::any::<u64>(),
        ops in tk::vec((0u64..4, 0usize..200), 1..24),
        clone_at in 0usize..24
    ) {
        let power = 0.03;
        let total: usize = ops.iter().map(|&(_, n)| n).sum();
        let mut want = vec![Cf64::ZERO; total];
        NoiseSource::new(power, Rng::seed_from(seed)).fill(&mut want);

        let mut src = NoiseSource::new(power, Rng::seed_from(seed));
        let mut twin: Option<(NoiseSource, usize)> = None;
        let mut got = Vec::with_capacity(total);
        for (i, &(kind, n)) in ops.iter().enumerate() {
            if i == clone_at {
                twin = Some((src.clone(), got.len()));
            }
            match kind {
                0 => got.extend((0..n).map(|_| src.next_sample())),
                1 => {
                    let mut buf = vec![Cf64::new(7.0, 7.0); n];
                    src.fill(&mut buf);
                    got.extend(buf);
                }
                2 => {
                    // Adding to zeros yields the noise itself.
                    let mut buf = vec![Cf64::ZERO; n];
                    src.corrupt(&mut buf);
                    got.extend(buf);
                }
                _ => got.extend(src.block(n)),
            }
        }
        prop_assert_eq!(got.len(), total);
        for (k, (&g, &w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!((k, bits(g)), (k, bits(w)));
        }
        if let Some((mut twin, from)) = twin {
            for (k, &w) in want.iter().enumerate().skip(from) {
                prop_assert_eq!((k, bits(twin.next_sample())), (k, bits(w)));
            }
        }
    }

    /// `corrupt` adds exactly the samples `fill` would have produced.
    fn corrupt_adds_the_fill_stream(seed in tk::any::<u64>(), n in 0usize..400) {
        let mut sig = Rng::seed_from(!seed);
        let wave: Vec<Cf64> = (0..n).map(|_| Cf64::new(sig.uniform() - 0.5, sig.uniform() - 0.5)).collect();
        let mut noisy = wave.clone();
        NoiseSource::new(0.01, Rng::seed_from(seed)).corrupt(&mut noisy);
        let mut noise = vec![Cf64::ZERO; n];
        NoiseSource::new(0.01, Rng::seed_from(seed)).fill(&mut noise);
        for ((&y, &s), &v) in noisy.iter().zip(&wave).zip(&noise) {
            prop_assert!(bits(y) == bits(s + v));
        }
    }
}

#[test]
fn gaussian_pairs_track_the_libm_oracle() {
    let mut rng = Rng::seed_from(1401);
    let mut draws = rng.clone();
    let mut worst = 0.0f64;
    for _ in 0..1 << 20 {
        let (u1, u2) = uniforms(&mut draws);
        let (x, y) = libm_pair(u1, u2);
        let (a, b) = rng.gaussian_pair();
        worst = worst.max((a - x).abs()).max((b - y).abs());
    }
    assert!(worst <= 4e-15, "max |Δ| = {worst:e}");
}

#[test]
fn quantized_noise_matches_the_libm_oracle() {
    // The false-alarm floor (20 dB below the 0.02 receive level) and the
    // loudest detection-sweep noise (SNR −9 dB).
    for (seed, power) in [
        (1402, 0.02 / db_to_lin(20.0)),
        (1403, 0.02 / db_to_lin(-9.0)),
    ] {
        let sigma = (power / 2.0f64).sqrt();
        let mut src = NoiseSource::new(power, Rng::seed_from(seed));
        let mut draws = Rng::seed_from(seed);
        let mut got = vec![Cf64::ZERO; 1 << 20];
        src.fill(&mut got);
        for (k, &s) in got.iter().enumerate() {
            let (u1, u2) = uniforms(&mut draws);
            let (re, im) = libm_pair(u1, u2);
            let want = IqI16::from_cf64(Cf64::new(re * sigma, im * sigma));
            assert_eq!(IqI16::from_cf64(s), want, "power {power} sample {k}");
        }
    }
}

#[test]
fn octant_boundaries_and_unit_radius_are_exact() {
    let half = std::f64::consts::FRAC_1_SQRT_2;
    // (cos, sin) of k·π/4; u1 = e^(−1/2) puts the pair near the unit
    // circle, and at u2 = 0 the radius itself comes out as `(r, 0)`.
    let axes = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)];
    let u1 = (-0.5f64).exp();
    let r = normal_pair(u1, 0.0).0;
    assert!((r - 1.0).abs() <= 4.0 * f64::EPSILON, "r = {r}");
    for k in 0..8 {
        let (c, s) = normal_pair(u1, k as f64 / 8.0);
        if k % 2 == 0 {
            let (ac, as_) = axes[k / 2];
            assert_eq!((c, s), (r * ac, r * as_), "k = {k}");
        } else {
            let sign = |v: f64| if v < 0.0 { -1.0 } else { 1.0 };
            let want = (sign(c) * r * half, sign(s) * r * half);
            assert!(
                (c - want.0).abs() <= 2e-16 && (s - want.1).abs() <= 2e-16,
                "k = {k}"
            );
            // Quadrant signs of π/4, 3π/4, 5π/4, 7π/4.
            let quadrant = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)][k / 2];
            assert_eq!((sign(c), sign(s)), quadrant, "k = {k}");
        }
    }
    // ln 1 = 0 exactly, so u1 = 1 is the origin at every angle.
    for u2 in [0.0, 0.1, 0.375, 0.5, 0.9, 1.0 - f64::EPSILON / 2.0] {
        let (c, s) = normal_pair(1.0, u2);
        assert_eq!((c, s), (0.0, 0.0), "u2 = {u2}");
    }
}

#[test]
fn gaussian_moments() {
    let n = 200_000;
    let mut pairs = vec![(0.0, 0.0); n / 2];
    Rng::seed_from(3).fill_gaussian_pairs(&mut pairs);
    let xs: Vec<f64> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let cross = pairs.iter().map(|&(a, b)| a * b).sum::<f64>() / pairs.len() as f64;
    assert!(mean.abs() < 0.02, "mean={mean}");
    assert!((var - 1.0).abs() < 0.03, "var={var}");
    assert!(cross.abs() < 0.02, "cross={cross}");
}
