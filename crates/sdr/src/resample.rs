//! Sample-rate conversion.
//!
//! The paper's detector runs at a fixed 25 MSPS while the signals it hunts
//! are generated at their native standard rates (802.11g at 20 MSPS, the
//! Air4G WiMAX downlink at 11.4 MHz). The resulting template/stream rate
//! mismatch is the single largest factor in the paper's measured detection
//! performance, so this module reproduces the conversion explicitly instead
//! of pretending everything shares a clock.
//!
//! Two converters are provided:
//!
//! * [`Rational`] — a polyphase L/M resampler with a windowed-sinc prototype
//!   filter, used for the exact 20->25 MSPS (L/M = 5/4) WiFi path;
//! * [`resample_linear`] — a light-weight linear interpolator for arbitrary
//!   irrational-looking ratios such as 11.4->25 MHz, adequate because the
//!   detector only consumes sign bits and coarse energy.
//!
//! A [`Rational`] is a *plan*: the prototype design and the polyphase split
//! happen once in [`Rational::new`], and [`Rational::process`] only runs the
//! tap loop. [`to_usrp_rate`] keeps one process-wide 5/4 plan, so the WiFi
//! emission path never redesigns its filter per frame. Inside `process`,
//! outputs whose whole window lies inside the input take a branch-free
//! interior kernel over compile-time-length tap groups; the few head
//! outputs whose window reaches before the first input sample take the
//! bounds-checked edge loop. Both sum `input[base - k] * tap[k]` for
//! `k = 0, 1, ...` from a zero accumulator, so the split changes speed, not
//! output bits.

use crate::complex::Cf64;
use crate::fir::lowpass;
use std::sync::OnceLock;

/// Polyphase rational resampler by a factor `up/down`.
///
/// The plan holds one flat, phase-major tap table (`taps_per_phase` taps
/// per phase, phase `p` holding every `up`-th prototype tap from `p`).
/// [`Rational::process`] steps the polyphase phase and the newest input
/// index incrementally (no per-output `%` or `/`); every output whose
/// window lies wholly inside the input runs the interior kernel, which
/// walks the window in tap groups of compile-time length, and only the
/// head outputs whose window starts before the input take the checked edge
/// loop.
#[derive(Clone, Debug)]
pub struct Rational {
    up: usize,
    down: usize,
    /// Phase-major polyphase bank: tap `k` of phase `p` is
    /// `taps[p * taps_per_phase + k]`.
    taps: Vec<f64>,
    taps_per_phase: usize,
}

impl Rational {
    /// Creates a resampler with interpolation factor `up` and decimation
    /// factor `down`. `taps_per_phase` controls prototype quality (8-16 is
    /// plenty for detector-grade fidelity).
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(up: usize, down: usize, taps_per_phase: usize) -> Self {
        assert!(up > 0 && down > 0 && taps_per_phase > 0);
        let g = gcd(up, down);
        let (up, down) = (up / g, down / g);
        let proto_len = up * taps_per_phase;
        // Cut off at the narrower of the input/output Nyquist bands.
        let cutoff = 0.5 / up.max(down) as f64 * 0.9;
        // Design at the upsampled rate: normalized cutoff = cutoff (cycles per
        // upsampled sample), then scale gain by `up` to preserve amplitude.
        let proto = lowpass(proto_len, cutoff.min(0.499));
        let taps = (0..up)
            .flat_map(|p| proto.iter().skip(p).step_by(up))
            .map(|&t| t * up as f64)
            .collect();
        Rational {
            up,
            down,
            taps,
            taps_per_phase,
        }
    }

    /// The reduced interpolation factor.
    pub fn up(&self) -> usize {
        self.up
    }

    /// The reduced decimation factor.
    pub fn down(&self) -> usize {
        self.down
    }

    /// Resamples a whole buffer. Output length is approximately
    /// `input.len() * up / down`.
    pub fn process(&self, input: &[Cf64]) -> Vec<Cf64> {
        // The largest group length that tiles a phase: a 12-tap plan runs
        // its whole window as one unrolled group.
        match self.taps_per_phase {
            l if l % 16 == 0 => self.process_grouped::<16>(input),
            l if l % 12 == 0 => self.process_grouped::<12>(input),
            l if l % 8 == 0 => self.process_grouped::<8>(input),
            l if l % 4 == 0 => self.process_grouped::<4>(input),
            l if l % 2 == 0 => self.process_grouped::<2>(input),
            _ => self.process_grouped::<1>(input),
        }
    }

    /// [`Rational::process`] with the interior window walked in groups of
    /// `G` taps (`G` divides `taps_per_phase`).
    fn process_grouped<const G: usize>(&self, input: &[Cf64]) -> Vec<Cf64> {
        let l = self.taps_per_phase;
        let out_len = input.len() * self.up / self.down;
        let mut out = vec![Cf64::ZERO; out_len];
        // Output n's newest input sample is n*down/up, which is below
        // input.len() for every output, so only the head outputs (newest
        // sample before l - 1) have a window reaching outside the input.
        let head = ((l - 1) * self.up).div_ceil(self.down).min(out_len);
        let (head_out, body_out) = out.split_at_mut(head);
        let mut positions = self.positions();
        for (o, (phase, base)) in head_out.iter_mut().zip(positions.by_ref()) {
            *o = edge_dot(input, self.phase_taps(phase), base);
        }
        for (o, (phase, base)) in body_out.iter_mut().zip(positions) {
            *o = window_dot::<G>(&input[base + 1 - l..=base], self.phase_taps(phase));
        }
        out
    }

    /// The taps of polyphase branch `phase`.
    #[inline(always)]
    fn phase_taps(&self, phase: usize) -> &[f64] {
        let l = self.taps_per_phase;
        &self.taps[phase * l..(phase + 1) * l]
    }

    /// `(phase, newest input index)` of outputs 0, 1, 2, ...: output n sits
    /// at upsampled index t = n*down, i.e. phase t % up and input t / up,
    /// and both advance by a constant per output.
    fn positions(&self) -> impl Iterator<Item = (usize, usize)> {
        let (up, base_step, phase_step) = (self.up, self.down / self.up, self.down % self.up);
        std::iter::successors(Some((0, 0)), move |&(phase, base)| {
            let (phase, base) = (phase + phase_step, base + base_step);
            Some(if phase >= up {
                (phase - up, base + 1)
            } else {
                (phase, base)
            })
        })
    }

    /// The plain per-output `%`/`/` polyphase loop the fast path must
    /// reproduce bit for bit.
    #[cfg(test)]
    fn process_reference(&self, input: &[Cf64]) -> Vec<Cf64> {
        let out_len = input.len() * self.up / self.down;
        let mut out = Vec::with_capacity(out_len);
        for n in 0..out_len {
            let t = n * self.down;
            let phase = t % self.up;
            let base = t / self.up;
            out.push(edge_dot(input, self.phase_taps(phase), base));
        }
        out
    }
}

/// `sum_k window[len-1-k] * taps[k]` for k = 0, 1, ... in order, from a
/// zero accumulator, over tap groups of compile-time length `G`. `window`
/// ends at the newest input sample, so `window[len-1-k]` is `input[base-k]`.
#[inline(always)]
fn window_dot<const G: usize>(window: &[Cf64], taps: &[f64]) -> Cf64 {
    let mut acc = Cf64::ZERO;
    for (w, t) in window.rchunks_exact(G).zip(taps.chunks_exact(G)) {
        let w: &[Cf64; G] = w.try_into().expect("group length");
        let t: &[f64; G] = t.try_into().expect("group length");
        for k in 0..G {
            acc += w[G - 1 - k].scale(t[k]);
        }
    }
    acc
}

/// The checked tap loop for outputs whose window reaches outside `input`:
/// tap `k` weighs `input[base - k]` when that sample exists.
fn edge_dot(input: &[Cf64], taps: &[f64], base: usize) -> Cf64 {
    let mut acc = Cf64::ZERO;
    for (k, &tap) in taps.iter().enumerate() {
        if let Some(idx) = base.checked_sub(k) {
            if idx < input.len() {
                acc += input[idx].scale(tap);
            }
        }
    }
    acc
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Resamples by linear interpolation from `from_rate` to `to_rate`.
///
/// # Panics
/// Panics if either rate is not strictly positive.
pub fn resample_linear(input: &[Cf64], from_rate: f64, to_rate: f64) -> Vec<Cf64> {
    assert!(from_rate > 0.0 && to_rate > 0.0, "rates must be positive");
    if input.is_empty() {
        return Vec::new();
    }
    let ratio = from_rate / to_rate;
    let out_len = ((input.len() as f64) / ratio).floor() as usize;
    let mut out = Vec::with_capacity(out_len);
    for n in 0..out_len {
        let x = n as f64 * ratio;
        let i = x.floor() as usize;
        let frac = x - i as f64;
        let a = input[i.min(input.len() - 1)];
        let b = input[(i + 1).min(input.len() - 1)];
        out.push(a.scale(1.0 - frac) + b.scale(frac));
    }
    out
}

/// Applies a fractional-sample delay `frac` in `[0, 1)` by linear
/// interpolation (output is one sample shorter).
///
/// Transmitter and receiver sample clocks are unsynchronized, so each
/// arriving frame lands on a different sampling phase; detection
/// experiments draw this per frame to avoid the unrealistically perfect
/// alignment a shared-clock simulation would otherwise have.
///
/// # Panics
/// Panics if `frac` is outside `[0, 1)`.
pub fn fractional_delay(input: &[Cf64], frac: f64) -> Vec<Cf64> {
    assert!(
        (0.0..1.0).contains(&frac),
        "frac must be in [0,1), got {frac}"
    );
    if input.len() < 2 {
        return input.to_vec();
    }
    (0..input.len() - 1)
        .map(|k| input[k].scale(1.0 - frac) + input[k + 1].scale(frac))
        .collect()
}

/// Convenience: converts a waveform at `from_rate` to the receiver's fixed
/// 25 MSPS using the best available method for the ratio.
pub fn to_usrp_rate(input: &[Cf64], from_rate: f64) -> Vec<Cf64> {
    let to_rate = crate::USRP_SAMPLE_RATE;
    // Detect small rational ratios (e.g. 20 MHz -> 25 MHz is 5/4).
    for denom in 1..=32usize {
        let num = to_rate / from_rate * denom as f64;
        if (num - num.round()).abs() < 1e-9 && num.round() >= 1.0 {
            let up = num.round() as usize;
            if (up, denom) == (5, 4) {
                // The 802.11 20 -> 25 MSPS plan, designed once per process.
                static WIFI_PLAN: OnceLock<Rational> = OnceLock::new();
                return WIFI_PLAN
                    .get_or_init(|| Rational::new(5, 4, 12))
                    .process(input);
            }
            return Rational::new(up, denom, 12).process(input);
        }
    }
    resample_linear(input, from_rate, to_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft;
    use crate::power::mean_power;

    fn tone(freq: f64, rate: f64, n: usize) -> Vec<Cf64> {
        (0..n)
            .map(|t| Cf64::from_angle(2.0 * std::f64::consts::PI * freq * t as f64 / rate))
            .collect()
    }

    fn dominant_freq(buf: &[Cf64], rate: f64) -> f64 {
        let n = buf.len().next_power_of_two() / 2;
        let spec = fft(&buf[..n]);
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap()
            .0;
        let k = if peak > n / 2 {
            peak as f64 - n as f64
        } else {
            peak as f64
        };
        k * rate / n as f64
    }

    fn bits(buf: &[Cf64]) -> Vec<(u64, u64)> {
        buf.iter()
            .map(|s| (s.re.to_bits(), s.im.to_bits()))
            .collect()
    }

    #[test]
    fn process_matches_reference_loop_bitwise() {
        let mut rng = crate::rng::Rng::seed_from(77);
        let mut input: Vec<Cf64> = (0..300)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect();
        // Exact zeros of both signs exercise signed-zero accumulation.
        input[5] = Cf64::new(-0.0, 0.0);
        input[6] = Cf64::new(0.0, -0.0);
        for (up, down) in [(5, 4), (4, 5), (3, 2), (25, 11), (1, 1), (1, 3), (7, 1)] {
            for taps in [1, 2, 3, 4, 5, 7, 8, 10, 12, 16, 20, 24, 32] {
                let r = Rational::new(up, down, taps);
                for len in (0..=40).chain([299, 300]) {
                    assert_eq!(
                        bits(&r.process(&input[..len])),
                        bits(&r.process_reference(&input[..len])),
                        "{up}/{down} taps {taps} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn to_usrp_rate_reuses_the_wifi_plan_bitwise() {
        let input = tone(1.0e6, 20.0e6, 700);
        assert_eq!(
            bits(&to_usrp_rate(&input, 20.0e6)),
            bits(&Rational::new(5, 4, 12).process_reference(&input))
        );
    }

    #[test]
    fn rational_5_4_length() {
        let input = tone(1.0e6, 20.0e6, 2000);
        let r = Rational::new(5, 4, 12);
        let out = r.process(&input);
        assert_eq!(out.len(), 2500);
    }

    #[test]
    fn rational_preserves_tone_frequency() {
        let f0 = 2.0e6;
        let input = tone(f0, 20.0e6, 4096);
        let out = Rational::new(5, 4, 12).process(&input);
        let got = dominant_freq(&out, 25.0e6);
        assert!((got - f0).abs() < 25.0e6 / 1024.0, "got {got}");
    }

    #[test]
    fn rational_preserves_power_approximately() {
        let input = tone(1.0e6, 20.0e6, 8192);
        let out = Rational::new(5, 4, 16).process(&input);
        // Skip the filter transient at the head.
        let p_in = mean_power(&input[100..]);
        let p_out = mean_power(&out[200..]);
        assert!((p_out / p_in - 1.0).abs() < 0.05, "ratio {}", p_out / p_in);
    }

    #[test]
    fn rational_reduces_factors() {
        let r = Rational::new(10, 8, 8);
        assert_eq!(r.up(), 5);
        assert_eq!(r.down(), 4);
    }

    #[test]
    fn linear_preserves_tone_frequency() {
        let f0 = 1.0e6;
        let input = tone(f0, 11.4e6, 8192);
        let out = resample_linear(&input, 11.4e6, 25.0e6);
        let got = dominant_freq(&out, 25.0e6);
        assert!((got - f0).abs() < 25.0e6 / 2048.0, "got {got}");
    }

    #[test]
    fn linear_identity_ratio() {
        let input = tone(1.0e6, 25.0e6, 100);
        let out = resample_linear(&input, 25.0e6, 25.0e6);
        assert_eq!(out.len(), input.len());
        for (a, b) in input.iter().zip(out.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_empty_input() {
        assert!(resample_linear(&[], 20.0e6, 25.0e6).is_empty());
    }

    #[test]
    fn to_usrp_rate_picks_rational_for_wifi() {
        let input = tone(1.0e6, 20.0e6, 2000);
        let out = to_usrp_rate(&input, 20.0e6);
        assert_eq!(out.len(), 2500);
    }

    #[test]
    fn to_usrp_rate_handles_wimax_rate() {
        let input = tone(1.0e6, 11.4e6, 1140);
        let out = to_usrp_rate(&input, 11.4e6);
        // 1140 samples at 11.4 MHz = 100 us -> 2500 samples at 25 MHz.
        assert!((out.len() as i64 - 2500).abs() <= 1, "len {}", out.len());
    }

    #[test]
    fn fractional_delay_zero_is_identity() {
        let input = tone(1.0e6, 25.0e6, 64);
        let out = fractional_delay(&input, 0.0);
        for (a, b) in input.iter().zip(out.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn fractional_delay_shifts_phase() {
        // A half-sample delay of a tone advances its phase by pi*f/fs.
        let f0 = 1.0e6;
        let fs = 25.0e6;
        let input = tone(f0, fs, 256);
        let out = fractional_delay(&input, 0.5);
        let expected_shift = std::f64::consts::PI * f0 / fs;
        let measured = (out[100].conj() * input[100]).arg().abs();
        assert!((measured - expected_shift).abs() < 0.01, "shift {measured}");
    }

    #[test]
    #[should_panic(expected = "frac")]
    fn fractional_delay_rejects_out_of_range() {
        let _ = fractional_delay(&[Cf64::ONE, Cf64::ONE], 1.0);
    }

    #[test]
    fn upsampled_duration_preserved() {
        // 3.2 us of WiFi (64 samples @20 MSPS) must become 80 samples @25 MSPS:
        // the mechanism behind the paper's "64-sample window sees only the
        // first 2.56 us of the 3.2 us code".
        let input = tone(0.5e6, 20.0e6, 64);
        let out = to_usrp_rate(&input, 20.0e6);
        assert_eq!(out.len(), 80);
    }
}
