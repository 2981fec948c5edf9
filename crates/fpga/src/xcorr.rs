//! The 64-sample weighted-phase cross-correlator (paper Fig. 3).
//!
//! Derived from the Rice WARP OFDM reference design's correlation core:
//! incoming 16-bit I/Q samples are sliced to their sign bits (1-bit signed,
//! +-1) and correlated against a 64-tap template of 3-bit signed
//! coefficients, one coefficient rail for I and one for Q. The complex
//! correlation magnitude-squared
//!
//! ```text
//!   z  = sum_k (sI[k] + j sQ[k]) (cI[k] - j cQ[k])
//!   out = Re(z)^2 + Im(z)^2
//! ```
//!
//! is compared against a host-programmed threshold ("confidence-weighted
//! phase correlator output ... compared against a user-selected threshold").
//!
//! Two bit-exact implementations are provided:
//!
//! * [`CrossCorrelator::push_reference`] — the straightforward 64-tap loop,
//!   matching the block diagram one multiply-accumulate at a time;
//! * [`CrossCorrelator::push`] — a table-driven form that keeps the sign
//!   history in two `u64` shift registers and evaluates both rails from a
//!   per-template set of eight 256-entry byte tables (`Template`): sixteen
//!   L1 loads per sample, no popcounts. This is the software analogue of
//!   the FPGA evaluating all 64 taps in one clock, and is what makes
//!   workspace-scale Monte Carlo sweeps tractable.
//!
//! Property tests assert the two agree on random streams.

use rjam_sdr::complex::IqI16;

/// A 3-bit signed correlation coefficient in `-4..=3`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Coeff3(i8);

impl Coeff3 {
    /// Creates a coefficient, clamping to the representable range — the same
    /// saturation the host-side quantizer applies before loading templates.
    pub fn saturating(v: i32) -> Self {
        Coeff3(v.clamp(-4, 3) as i8)
    }

    /// Creates a coefficient that must already be in range.
    ///
    /// # Panics
    /// Panics if `v` is outside `-4..=3`.
    pub fn new(v: i8) -> Self {
        assert!((-4..=3).contains(&v), "coefficient {v} out of 3-bit range");
        Coeff3(v)
    }

    /// Raw value.
    pub fn get(self) -> i8 {
        self.0
    }
}

/// One 64-tap complex template as byte-indexed lookup tables — the
/// correlator kernel shared by [`CrossCorrelator`] and
/// [`crate::DspLaneBank`].
///
/// For sign inputs `s in {+1,-1}` encoded as a "negative" bitmask `b`
/// (bit set when the sample is negative), a rail sum is
///
/// ```text
///   sum_k s_k c_k = C_total - 2 * sum_{k: b_k} c_k
/// ```
///
/// The masked coefficient sum splits over the mask's eight bytes: table
/// `b` holds, for every byte value `v`, the sum of the coefficients whose
/// taps sit at the set bits of `v`. Both rails share one entry, packed as
/// `sum_i + (sum_q << 16)`; each masked sum is at most `64 * 4 = 256` in
/// magnitude, so the halves never interfere and eight loads yield both
/// rails' sums for one mask.
#[derive(Clone, Debug)]
pub(crate) struct Template {
    /// Coefficients as loaded, taps oldest-first.
    coeff_i: [i8; 64],
    coeff_q: [i8; 64],
    /// `table[b][v]`: packed masked sums of byte `b` of the mask equal to
    /// `v`. Boxed (8 KiB) and refilled in place on reload.
    table: Box<[[i32; 256]; 8]>,
    total_i: i32,
    total_q: i32,
}

impl Template {
    /// Builds the tables for coefficients `(ci, cq)`, taps oldest-first.
    ///
    /// # Panics
    /// Panics if any coefficient is outside `-4..=3`.
    pub(crate) fn new(ci: &[i8; 64], cq: &[i8; 64]) -> Self {
        let mut template = Template {
            coeff_i: [0; 64],
            coeff_q: [0; 64],
            table: Box::new([[0; 256]; 8]),
            total_i: 0,
            total_q: 0,
        };
        template.load(ci, cq);
        template
    }

    /// Loads coefficients (taps oldest-first), refilling the tables in
    /// place.
    ///
    /// # Panics
    /// Panics if any coefficient is outside `-4..=3`.
    pub(crate) fn load(&mut self, ci: &[i8; 64], cq: &[i8; 64]) {
        for &c in ci.iter().chain(cq) {
            Coeff3::new(c);
        }
        self.coeff_i = *ci;
        self.coeff_q = *cq;
        self.total_i = ci.iter().map(|&c| c as i32).sum();
        self.total_q = cq.iter().map(|&c| c as i32).sum();
        for (b, table) in self.table.iter_mut().enumerate() {
            table[0] = 0;
            for v in 1..256usize {
                // Mask bit k holds the sample k pushes ago, which lines up
                // with tap 63-k; extend the entry without v's lowest bit.
                let k = 8 * b + v.trailing_zeros() as usize;
                let tap = (ci[63 - k] as i32) + ((cq[63 - k] as i32) << 16);
                table[v] = table[v & (v - 1)] + tap;
            }
        }
    }

    /// True when the loaded coefficients equal `(ci, cq)`.
    pub(crate) fn matches(&self, ci: &[i8; 64], cq: &[i8; 64]) -> bool {
        self.coeff_i == *ci && self.coeff_q == *cq
    }

    /// `(sum_i, sum_q)` of the coefficients under the set bits of `mask`.
    #[inline(always)]
    fn masked(&self, mask: u64) -> (i32, i32) {
        let mut packed = 0i32;
        for (b, table) in self.table.iter().enumerate() {
            packed += table[((mask >> (8 * b)) & 0xFF) as usize];
        }
        let sum_i = packed as i16 as i32;
        (sum_i, (packed - sum_i) >> 16)
    }

    /// Squared correlation magnitude against the sign histories.
    ///
    /// Complex correlation with the template conjugate:
    /// `re = sI.cI + sQ.cQ`, `im = sQ.cI - sI.cQ`.
    #[inline(always)]
    pub(crate) fn metric(&self, neg_i: u64, neg_q: u64) -> u64 {
        let (i_of_i, q_of_i) = self.masked(neg_i);
        let (i_of_q, q_of_q) = self.masked(neg_q);
        let re = (self.total_i - 2 * i_of_i) + (self.total_q - 2 * q_of_q);
        let im = (self.total_i - 2 * i_of_q) - (self.total_q - 2 * q_of_i);
        (re as i64 * re as i64 + im as i64 * im as i64) as u64
    }

    /// `(sum |cI| + sum |cQ|)^2`, the largest metric the template can
    /// produce. The bound is exactly attained: a matched sign stream drives
    /// `re` to the absolute-coefficient sum with `im = 0`, and a
    /// 90-degree-rotated copy drives `im` there with `re = 0` (see
    /// `matched_template_peaks_at_alignment` and
    /// `rotated_input_appears_in_imaginary_rail`).
    pub(crate) fn max_metric(&self) -> u64 {
        let max: i64 = self
            .coeff_i
            .iter()
            .chain(self.coeff_q.iter())
            .map(|&c| (c as i64).abs())
            .sum();
        (max * max) as u64
    }
}

/// The streaming cross-correlator block.
#[derive(Clone, Debug)]
pub struct CrossCorrelator {
    template: Template,
    /// Sign histories: bit k set when the sample `k` taps ago was negative.
    /// Bit 0 is the newest sample.
    neg_i: u64,
    neg_q: u64,
    threshold: u64,
    /// Samples consumed; the window is valid once >= 64.
    fed: u64,
    /// Refractory period: samples remaining before re-arm.
    lockout_left: u64,
    lockout: u64,
    /// Previous above-threshold state for edge detection.
    was_above: bool,
}

/// Per-sample correlator output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XcorrOutput {
    /// Squared correlation magnitude.
    pub metric: u64,
    /// True while the metric is at or above the threshold (raw comparator).
    pub above: bool,
    /// True exactly on armed rising edges (the detection trigger pulse).
    pub trigger: bool,
}

impl CrossCorrelator {
    /// Creates a correlator with all-zero coefficients and an effectively
    /// disabled threshold.
    pub fn new() -> Self {
        CrossCorrelator {
            template: Template::new(&[0; 64], &[0; 64]),
            neg_i: 0,
            neg_q: 0,
            threshold: u64::MAX,
            fed: 0,
            lockout_left: 0,
            lockout: 0,
            was_above: false,
        }
    }

    /// Loads a new coefficient template (both rails).
    ///
    /// # Panics
    /// Panics unless both rails have exactly 64 taps.
    pub fn load_coeffs(&mut self, ci: &[Coeff3], cq: &[Coeff3]) {
        assert_eq!(ci.len(), 64, "I rail must have 64 taps");
        assert_eq!(cq.len(), 64, "Q rail must have 64 taps");
        let raw = |c: &[Coeff3]| -> [i8; 64] { std::array::from_fn(|k| c[k].0) };
        self.template.load(&raw(ci), &raw(cq));
    }

    /// Loads coefficients from raw `i8` values (register-bus unpacked form).
    ///
    /// Refills the template tables in place with no heap allocation — this
    /// is the "on-the-fly personality change" path and must stay
    /// allocation-free.
    ///
    /// # Panics
    /// Panics if any coefficient is outside `-4..=3`.
    pub fn load_coeffs_raw(&mut self, ci: &[i8; 64], cq: &[i8; 64]) {
        self.template.load(ci, cq);
    }

    /// Sets the detection threshold on the squared-magnitude metric.
    pub fn set_threshold(&mut self, threshold: u64) {
        self.threshold = threshold;
    }

    /// Current threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Sets the post-trigger lockout (refractory) period in samples.
    pub fn set_lockout(&mut self, samples: u64) {
        self.lockout = samples;
    }

    /// Maximum possible metric for the loaded template (used by hosts to
    /// place thresholds as a fraction of the peak).
    ///
    /// Each accumulator can reach at most the sum of absolute coefficient
    /// magnitudes across both rails, and that bound is exactly attained, so
    /// the metric `re^2 + im^2` peaks at exactly its square.
    pub fn max_metric(&self) -> u64 {
        self.template.max_metric()
    }

    /// Feeds one sample through the template-table datapath.
    #[inline(always)]
    pub fn push(&mut self, s: IqI16) -> XcorrOutput {
        self.neg_i = (self.neg_i << 1) | u64::from(s.i < 0);
        self.neg_q = (self.neg_q << 1) | u64::from(s.q < 0);
        self.fed += 1;
        let metric = self.template.metric(self.neg_i, self.neg_q);
        self.classify(metric)
    }

    /// Feeds one sample through the literal 64-tap loop (reference model).
    pub fn push_reference(&mut self, s: IqI16) -> XcorrOutput {
        self.neg_i = (self.neg_i << 1) | u64::from(s.i < 0);
        self.neg_q = (self.neg_q << 1) | u64::from(s.q < 0);
        self.fed += 1;
        let mut re = 0i32;
        let mut im = 0i32;
        for k in 0..64 {
            // Bit k of the mask is the sample k pushes ago; it lines up with
            // coefficient tap 63-k (taps stored oldest-first).
            let si: i32 = if (self.neg_i >> k) & 1 == 1 { -1 } else { 1 };
            let sq: i32 = if (self.neg_q >> k) & 1 == 1 { -1 } else { 1 };
            let ci = self.template.coeff_i[63 - k] as i32;
            let cq = self.template.coeff_q[63 - k] as i32;
            re += si * ci + sq * cq;
            im += sq * ci - si * cq;
        }
        let metric = (re as i64 * re as i64 + im as i64 * im as i64) as u64;
        self.classify(metric)
    }

    #[inline]
    fn classify(&mut self, metric: u64) -> XcorrOutput {
        let window_valid = self.fed >= 64;
        let above = window_valid && metric >= self.threshold;
        let mut trigger = false;
        if self.lockout_left > 0 {
            self.lockout_left -= 1;
        } else if above && !self.was_above {
            trigger = true;
            self.lockout_left = self.lockout;
        }
        self.was_above = above;
        XcorrOutput {
            metric: if window_valid { metric } else { 0 },
            above,
            trigger,
        }
    }

    /// Resets the streaming state, keeping coefficients and thresholds.
    pub fn reset(&mut self) {
        self.neg_i = 0;
        self.neg_q = 0;
        self.fed = 0;
        self.lockout_left = 0;
        self.was_above = false;
    }
}

impl Default for CrossCorrelator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::rng::Rng;

    fn template_from_signs(signs_i: &[i8], signs_q: &[i8]) -> (Vec<Coeff3>, Vec<Coeff3>) {
        let ci = signs_i.iter().map(|&s| Coeff3::new(3 * s)).collect();
        let cq = signs_q.iter().map(|&s| Coeff3::new(3 * s)).collect();
        (ci, cq)
    }

    fn random_signs(rng: &mut Rng, n: usize) -> Vec<i8> {
        (0..n)
            .map(|_| if rng.chance(0.5) { 1 } else { -1 })
            .collect()
    }

    #[test]
    fn matched_template_peaks_at_alignment() {
        let mut rng = Rng::seed_from(10);
        let si = random_signs(&mut rng, 64);
        let sq = random_signs(&mut rng, 64);
        let (ci, cq) = template_from_signs(&si, &sq);
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&ci, &cq);
        xc.set_threshold(u64::MAX); // observe metric only
        let mut peak = 0u64;
        let mut peak_at = 0usize;
        for (n, (&i, &q)) in si.iter().zip(sq.iter()).enumerate() {
            let out = xc.push(IqI16::new(i as i16 * 1000, q as i16 * 1000));
            if out.metric > peak {
                peak = out.metric;
                peak_at = n;
            }
        }
        assert_eq!(peak_at, 63, "peak must occur when window filled");
        // Perfectly matched: re = sum |c| over both rails = 64*3*2 = 384,
        // im = 0 -> metric = 384^2.
        assert_eq!(peak, 384 * 384);
    }

    #[test]
    fn mismatched_stream_stays_low() {
        let mut rng = Rng::seed_from(11);
        let (ci, cq) =
            template_from_signs(&random_signs(&mut rng, 64), &random_signs(&mut rng, 64));
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&ci, &cq);
        // Feed independent random signs; expected metric ~ 2 * 64 * 9 * 2.
        let mut max_metric = 0u64;
        for _ in 0..2000 {
            let i = if rng.chance(0.5) { 1000 } else { -1000 };
            let q = if rng.chance(0.5) { 1000 } else { -1000 };
            max_metric = max_metric.max(xc.push(IqI16::new(i, q)).metric);
        }
        assert!(max_metric < (384 * 384) / 4, "max={max_metric}");
    }

    #[test]
    fn reference_and_table_datapaths_agree() {
        let mut rng = Rng::seed_from(12);
        let ci: Vec<Coeff3> = (0..64)
            .map(|_| Coeff3::saturating(rng.below(8) as i32 - 4))
            .collect();
        let cq: Vec<Coeff3> = (0..64)
            .map(|_| Coeff3::saturating(rng.below(8) as i32 - 4))
            .collect();
        let mut fast = CrossCorrelator::new();
        let mut slow = CrossCorrelator::new();
        fast.load_coeffs(&ci, &cq);
        slow.load_coeffs(&ci, &cq);
        fast.set_threshold(5000);
        slow.set_threshold(5000);
        for _ in 0..1000 {
            let s = IqI16::new(
                (rng.below(65536) as i32 - 32768) as i16,
                (rng.below(65536) as i32 - 32768) as i16,
            );
            let a = fast.push(s);
            let b = slow.push_reference(s);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rotated_input_appears_in_imaginary_rail() {
        // A 90-degree rotated copy of the template must land in Im(z),
        // keeping |z|^2 at the peak: the "weighted phase" property that makes
        // the detector robust to carrier phase.
        let mut rng = Rng::seed_from(13);
        let si = random_signs(&mut rng, 64);
        let sq = random_signs(&mut rng, 64);
        let (ci, cq) = template_from_signs(&si, &sq);
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&ci, &cq);
        let mut last = XcorrOutput {
            metric: 0,
            above: false,
            trigger: false,
        };
        for (&i, &q) in si.iter().zip(sq.iter()) {
            // Multiply (i + jq) by j: (-q + ji).
            last = xc.push(IqI16::new(-(q as i16) * 1000, i as i16 * 1000));
        }
        assert_eq!(last.metric, 384 * 384);
    }

    #[test]
    fn trigger_fires_on_rising_edge_with_lockout() {
        let mut rng = Rng::seed_from(14);
        let si = random_signs(&mut rng, 64);
        let sq = random_signs(&mut rng, 64);
        let (ci, cq) = template_from_signs(&si, &sq);
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&ci, &cq);
        xc.set_threshold(300 * 300);
        xc.set_lockout(100);
        let mut triggers = Vec::new();
        let mut n = 0usize;
        for _round in 0..3 {
            for (&i, &q) in si.iter().zip(sq.iter()) {
                let out = xc.push(IqI16::new(i as i16 * 1000, q as i16 * 1000));
                if out.trigger {
                    triggers.push(n);
                }
                n += 1;
            }
        }
        // Alignment recurs every 64 samples but lockout is 100, so the second
        // alignment (n=127) is suppressed and the third (n=191) fires.
        assert_eq!(triggers, vec![63, 191]);
    }

    #[test]
    fn warmup_window_does_not_trigger() {
        let mut xc = CrossCorrelator::new();
        let ci = vec![Coeff3::new(3); 64];
        let cq = vec![Coeff3::new(0); 64];
        xc.load_coeffs(&ci, &cq);
        xc.set_threshold(1); // hair trigger
        for n in 0..63 {
            let out = xc.push(IqI16::new(1000, 1000));
            assert!(!out.trigger, "premature trigger at sample {n}");
        }
        let out = xc.push(IqI16::new(1000, 1000));
        assert!(out.trigger, "must trigger once the window is valid");
    }

    #[test]
    fn reset_clears_history() {
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&[Coeff3::new(3); 64], &[Coeff3::new(0); 64]);
        xc.set_threshold(1);
        for _ in 0..64 {
            xc.push(IqI16::new(1000, 0));
        }
        xc.reset();
        for n in 0..63 {
            assert!(!xc.push(IqI16::new(1000, 0)).trigger, "at {n}");
        }
    }

    #[test]
    fn coeff3_saturates() {
        assert_eq!(Coeff3::saturating(100).get(), 3);
        assert_eq!(Coeff3::saturating(-100).get(), -4);
        assert_eq!(Coeff3::saturating(2).get(), 2);
    }

    #[test]
    fn load_coeffs_raw_matches_load_coeffs() {
        let mut rng = Rng::seed_from(15);
        let raw_i: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
        let raw_q: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
        let ci: Vec<Coeff3> = raw_i.iter().map(|&c| Coeff3::new(c)).collect();
        let cq: Vec<Coeff3> = raw_q.iter().map(|&c| Coeff3::new(c)).collect();
        let mut a = CrossCorrelator::new();
        let mut b = CrossCorrelator::new();
        a.load_coeffs_raw(&raw_i, &raw_q);
        b.load_coeffs(&ci, &cq);
        a.set_threshold(5000);
        b.set_threshold(5000);
        for _ in 0..256 {
            let s = IqI16::new(
                (rng.below(65536) as i32 - 32768) as i16,
                (rng.below(65536) as i32 - 32768) as i16,
            );
            assert_eq!(a.push(s), b.push(s));
        }
    }

    #[test]
    fn max_metric_bound() {
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&[Coeff3::new(3); 64], &[Coeff3::new(-4); 64]);
        assert_eq!(xc.max_metric(), (64 * 3 + 64 * 4) * (64 * 3 + 64 * 4));
    }
}
