//! Constellation mapping and hard demapping (clause 18.3.5.8).
//!
//! Gray-coded BPSK, QPSK, 16-QAM and 64-QAM with the standard normalization
//! factors so every constellation carries unit average power.

use rjam_sdr::complex::Cf64;

/// Modulation scheme of a subcarrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 1 bit/subcarrier.
    Bpsk,
    /// 2 bits/subcarrier.
    Qpsk,
    /// 4 bits/subcarrier.
    Qam16,
    /// 6 bits/subcarrier.
    Qam64,
}

impl Modulation {
    /// Coded bits per subcarrier (N_BPSC).
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Normalization factor K_mod.
    pub fn k_mod(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        }
    }
}

/// Gray-coded PAM levels of a 1-, 2- and 3-bit axis, indexed by the axis
/// code `b0 | b1 << 1 | b2 << 2` (Table 18-10 for 64-QAM; for 16-QAM `b0`
/// selects the sign half and `b1` inner/outer).
const AXIS_1: [f64; 2] = [-1.0, 1.0];
const AXIS_2: [f64; 4] = [-3.0, 3.0, -1.0, 1.0];
const AXIS_3: [f64; 8] = [-7.0, 7.0, -1.0, 1.0, -5.0, 5.0, -3.0, 3.0];

/// The axis code of `bits` (first bit least significant).
#[inline(always)]
fn axis_code(bits: &[u8]) -> usize {
    bits.iter()
        .rev()
        .fold(0, |code, &b| code << 1 | usize::from(b != 0))
}

/// Gray map for one PAM axis: `bits` (LSB-first slice) to odd-integer level.
fn pam_level(bits: &[u8]) -> f64 {
    let code = axis_code(bits);
    match bits.len() {
        1 => AXIS_1[code],
        2 => AXIS_2[code],
        3 => AXIS_3[code],
        _ => unreachable!("axis width is 1..=3 bits"),
    }
}

/// Inverse of [`pam_level`] by nearest level, returning the axis bits.
fn pam_bits(level: f64, width: usize) -> Vec<u8> {
    let candidates: &[f64] = match width {
        1 => &[-1.0, 1.0],
        2 => &[-3.0, -1.0, 1.0, 3.0],
        3 => &[-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0],
        _ => unreachable!(),
    };
    let nearest = candidates
        .iter()
        .cloned()
        .min_by(|a, b| (a - level).abs().partial_cmp(&(b - level).abs()).unwrap())
        .unwrap();
    // Invert through the forward map.
    for code in 0..(1usize << width) {
        let bits: Vec<u8> = (0..width).map(|k| ((code >> k) & 1) as u8).collect();
        if pam_level(&bits) == nearest {
            return bits;
        }
    }
    unreachable!()
}

/// Maps `bits_per_symbol` coded bits (LSB-equivalent order: first bit is b0)
/// onto one constellation point.
pub fn map_bits(bits: &[u8], m: Modulation) -> Cf64 {
    assert_eq!(bits.len(), m.bits_per_symbol(), "wrong bit count for {m:?}");
    let mut point = Cf64::ZERO;
    map_into(bits, m, std::slice::from_mut(&mut point));
    point
}

/// Maps a coded-bit stream onto `out`, one constellation point per
/// `bits_per_symbol` bits, exactly as [`map_bits`] would point by point.
///
/// # Panics
/// Panics unless `bits.len() == out.len() * m.bits_per_symbol()`.
pub fn map_into(bits: &[u8], m: Modulation, out: &mut [Cf64]) {
    assert_eq!(
        bits.len(),
        out.len() * m.bits_per_symbol(),
        "one point per {} bits",
        m.bits_per_symbol()
    );
    let k = m.k_mod();
    match m {
        Modulation::Bpsk => {
            for (o, &b) in out.iter_mut().zip(bits) {
                *o = Cf64::new(AXIS_1[usize::from(b != 0)], 0.0).scale(k);
            }
        }
        Modulation::Qpsk => map_square::<1>(bits, &AXIS_1, k, out),
        Modulation::Qam16 => map_square::<2>(bits, &AXIS_2, k, out),
        Modulation::Qam64 => map_square::<3>(bits, &AXIS_3, k, out),
    }
}

/// Square QAM with `W` bits per axis: the first `W` bits of each point pick
/// the I level, the next `W` the Q level.
#[inline(always)]
fn map_square<const W: usize>(bits: &[u8], levels: &[f64], k: f64, out: &mut [Cf64]) {
    for (o, c) in out.iter_mut().zip(bits.chunks_exact(2 * W)) {
        let (i, q) = c.split_at(W);
        *o = Cf64::new(levels[axis_code(i)], levels[axis_code(q)]).scale(k);
    }
}

/// Hard-demaps one received point back to coded bits.
pub fn demap_point(point: Cf64, m: Modulation) -> Vec<u8> {
    let unscaled = point.scale(1.0 / m.k_mod());
    match m {
        Modulation::Bpsk => pam_bits(unscaled.re, 1),
        Modulation::Qpsk => {
            let mut bits = pam_bits(unscaled.re, 1);
            bits.extend(pam_bits(unscaled.im, 1));
            bits
        }
        Modulation::Qam16 => {
            let mut bits = pam_bits(unscaled.re, 2);
            bits.extend(pam_bits(unscaled.im, 2));
            bits
        }
        Modulation::Qam64 => {
            let mut bits = pam_bits(unscaled.re, 3);
            bits.extend(pam_bits(unscaled.im, 3));
            bits
        }
    }
}

/// Soft-demaps one received point into per-bit LLRs (max-log
/// approximation): `LLR_k = min_{s: bit_k=0} |y-s|^2 - min_{s: bit_k=1}
/// |y-s|^2`, scaled to integers. Positive means "bit 1 likely"; the common
/// noise-variance factor is omitted since the soft Viterbi decoder's
/// decisions are scale-invariant.
pub fn demap_soft(point: Cf64, m: Modulation) -> Vec<i32> {
    let n = m.bits_per_symbol();
    let mut min0 = vec![f64::INFINITY; n];
    let mut min1 = vec![f64::INFINITY; n];
    for code in 0..(1usize << n) {
        let bits: Vec<u8> = (0..n).map(|k| ((code >> k) & 1) as u8).collect();
        let s = map_bits(&bits, m);
        let d = (point - s).norm_sq();
        for k in 0..n {
            if bits[k] == 0 {
                if d < min0[k] {
                    min0[k] = d;
                }
            } else if d < min1[k] {
                min1[k] = d;
            }
        }
    }
    (0..n)
        .map(|k| (((min0[k] - min1[k]) * 256.0).round() as i64).clamp(-(1 << 20), 1 << 20) as i32)
        .collect()
}

/// Soft-demaps a point stream into an LLR stream.
pub fn demap_soft_stream(points: &[Cf64], m: Modulation) -> Vec<i32> {
    points.iter().flat_map(|&p| demap_soft(p, m)).collect()
}

/// Maps a whole coded-bit stream to constellation points.
pub fn map_stream(bits: &[u8], m: Modulation) -> Vec<Cf64> {
    let n = m.bits_per_symbol();
    assert_eq!(bits.len() % n, 0, "bit stream must be a multiple of {n}");
    let mut out = vec![Cf64::ZERO; bits.len() / n];
    map_into(bits, m, &mut out);
    out
}

/// Demaps a point stream back to coded bits.
pub fn demap_stream(points: &[Cf64], m: Modulation) -> Vec<u8> {
    points.iter().flat_map(|&p| demap_point(p, m)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::rng::Rng;

    const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    #[test]
    fn roundtrip_every_codeword() {
        for m in ALL {
            let n = m.bits_per_symbol();
            for code in 0..(1usize << n) {
                let bits: Vec<u8> = (0..n).map(|k| ((code >> k) & 1) as u8).collect();
                let point = map_bits(&bits, m);
                assert_eq!(demap_point(point, m), bits, "{m:?} code {code:b}");
            }
        }
    }

    #[test]
    fn unit_average_power() {
        for m in ALL {
            let n = m.bits_per_symbol();
            let total: f64 = (0..(1usize << n))
                .map(|code| {
                    let bits: Vec<u8> = (0..n).map(|k| ((code >> k) & 1) as u8).collect();
                    map_bits(&bits, m).norm_sq()
                })
                .sum();
            let avg = total / (1 << n) as f64;
            assert!((avg - 1.0).abs() < 1e-12, "{m:?} avg power {avg}");
        }
    }

    #[test]
    fn bpsk_points() {
        assert_eq!(map_bits(&[0], Modulation::Bpsk), Cf64::new(-1.0, 0.0));
        assert_eq!(map_bits(&[1], Modulation::Bpsk), Cf64::new(1.0, 0.0));
    }

    #[test]
    fn qam16_known_point() {
        // Bits (b0..b3) = (1,1,0,0): I from (1,1) -> +1, Q from (0,0) -> -3.
        let p = map_bits(&[1, 1, 0, 0], Modulation::Qam16);
        let k = Modulation::Qam16.k_mod();
        assert!((p.re - k).abs() < 1e-12);
        assert!((p.im + 3.0 * k).abs() < 1e-12);
    }

    #[test]
    fn gray_property_adjacent_levels_differ_one_bit() {
        // On each axis, neighbouring levels must differ in exactly one bit.
        for width in [2usize, 3] {
            let levels: Vec<f64> = (0..(1 << width))
                .map(|code| {
                    let bits: Vec<u8> = (0..width).map(|k| ((code >> k) & 1) as u8).collect();
                    pam_level(&bits)
                })
                .collect();
            let mut pairs: Vec<(f64, usize)> =
                levels.iter().cloned().zip(0..(1 << width)).collect();
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in pairs.windows(2) {
                let diff = (w[0].1 ^ w[1].1).count_ones();
                assert_eq!(diff, 1, "width {width}: levels {} vs {}", w[0].0, w[1].0);
            }
        }
    }

    #[test]
    fn demap_with_noise_small() {
        let mut rng = Rng::seed_from(50);
        for m in ALL {
            let n = m.bits_per_symbol();
            for _ in 0..200 {
                let bits: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
                let p = map_bits(&bits, m);
                // Noise well inside half the minimum distance.
                let noisy = p + Cf64::new(rng.gaussian() * 0.02, rng.gaussian() * 0.02);
                assert_eq!(demap_point(noisy, m), bits, "{m:?}");
            }
        }
    }

    #[test]
    fn soft_demap_signs_agree_with_hard() {
        let mut rng = Rng::seed_from(52);
        for m in ALL {
            let n = m.bits_per_symbol();
            for _ in 0..100 {
                let bits: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
                let p = map_bits(&bits, m);
                let noisy = p + Cf64::new(rng.gaussian() * 0.03, rng.gaussian() * 0.03);
                let llrs = demap_soft(noisy, m);
                let hard = demap_point(noisy, m);
                for (k, &l) in llrs.iter().enumerate() {
                    assert_eq!(u8::from(l > 0), hard[k], "{m:?} bit {k}");
                }
            }
        }
    }

    #[test]
    fn soft_demap_magnitude_tracks_confidence() {
        // A point near a decision boundary must carry a smaller |LLR| than
        // one deep inside a region.
        let deep = demap_soft(Cf64::new(1.0, 0.0), Modulation::Bpsk)[0];
        let edge = demap_soft(Cf64::new(0.05, 0.0), Modulation::Bpsk)[0];
        assert!(deep > 0 && edge > 0);
        assert!(deep > 5 * edge, "deep {deep} vs edge {edge}");
    }

    #[test]
    fn stream_roundtrip() {
        let mut rng = Rng::seed_from(51);
        let bits: Vec<u8> = (0..288).map(|_| (rng.next_u64() & 1) as u8).collect();
        for m in ALL {
            let pts = map_stream(&bits[..288 - (288 % m.bits_per_symbol())], m);
            let back = demap_stream(&pts, m);
            assert_eq!(back.len() % m.bits_per_symbol(), 0);
            assert_eq!(&back[..], &bits[..back.len()]);
        }
    }
}
