//! Frame transmission: PSDU to 20 MSPS baseband waveform (clause 18.3.5).

use crate::bits::{bytes_to_bits, Scrambler};
use crate::convcode::{encode, CodeRate};
use crate::interleave::interleave_position;
use crate::modmap::{map_into, Modulation};
use crate::ofdm::build_symbol_into;
use crate::preamble::plcp_preamble;
use crate::signal::{signal_bits, Rate};
use crate::{FFT_LEN, N_SD};
use rjam_sdr::complex::Cf64;
use rjam_sdr::fft::Fft;
use std::sync::OnceLock;

/// Coded bits per OFDM symbol at the densest rate (64-QAM, 48 carriers).
const MAX_CBPS: usize = 6 * N_SD;

/// A PHY frame to transmit.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Payload rate.
    pub rate: Rate,
    /// PSDU bytes (MAC frame incl. FCS).
    pub psdu: Vec<u8>,
    /// Scrambler seed for the DATA field (7-bit nonzero).
    pub scrambler_seed: u8,
}

impl Frame {
    /// Creates a frame with the default scrambler seed.
    pub fn new(rate: Rate, psdu: Vec<u8>) -> Self {
        Frame {
            rate,
            psdu,
            scrambler_seed: 0x5D,
        }
    }

    /// Airtime in microseconds.
    pub fn airtime_us(&self) -> f64 {
        self.rate.frame_airtime_us(self.psdu.len())
    }

    /// Total length in 20 MSPS samples.
    pub fn n_samples(&self) -> usize {
        (self.airtime_us() * 20.0) as usize
    }
}

/// Assembles the DATA-field bit stream: SERVICE + PSDU + tail + pad,
/// scrambled, with the tail bits re-zeroed after scrambling.
fn data_bits(frame: &Frame) -> Vec<u8> {
    let rate = frame.rate;
    let n_sym = rate.n_data_symbols(frame.psdu.len());
    let n_bits = n_sym * rate.n_dbps();
    let mut bits = Vec::with_capacity(n_bits);
    bits.extend_from_slice(&[0u8; 16]); // SERVICE (all zeros pre-scrambling)
    bits.extend(bytes_to_bits(&frame.psdu));
    let tail_pos = bits.len();
    bits.extend_from_slice(&[0u8; 6]); // tail
    bits.resize(n_bits, 0); // pad bits
    let mut scr = Scrambler::new(frame.scrambler_seed);
    scr.process(&mut bits);
    // Tail bits are transmitted as zeros so the decoder terminates.
    for b in &mut bits[tail_pos..tail_pos + 6] {
        *b = 0;
    }
    bits
}

/// Modulates a complete PHY frame into its 20 MSPS baseband waveform:
/// preamble, SIGNAL symbol and DATA symbols.
///
/// Constant work is done once per process (the 64-point FFT plan and the
/// PLCP preamble) or once per frame (the interleaver permutations); each
/// symbol is interleaved, mapped and IFFT'd on the stack and appended in
/// place to a waveform sized up front.
pub fn modulate_frame(frame: &Frame) -> Vec<Cf64> {
    static FFT: OnceLock<Fft> = OnceLock::new();
    static PREAMBLE: OnceLock<Vec<Cf64>> = OnceLock::new();
    let fft = FFT.get_or_init(|| Fft::new(FFT_LEN));
    let rate = frame.rate;
    let mut wave = Vec::with_capacity(frame.n_samples());
    wave.extend_from_slice(PREAMBLE.get_or_init(plcp_preamble));

    // SIGNAL: BPSK rate-1/2, pilot index 0.
    let sig_coded = encode(&signal_bits(rate, frame.psdu.len()), CodeRate::Half);
    let sig_perm = permutation(N_SD, 1);
    append_symbol(&sig_coded, &sig_perm, Modulation::Bpsk, 0, fft, &mut wave);

    // DATA symbols: the convolutional encoder runs continuously over the
    // whole DATA field (clause 18.3.5.6); interleaving is per symbol.
    let bits = data_bits(frame);
    let n_cbps = rate.n_cbps();
    let modulation = rate.modulation();
    let perm = permutation(n_cbps, modulation.bits_per_symbol());
    let coded = encode(&bits, rate.code_rate());
    debug_assert_eq!(coded.len() % n_cbps, 0);
    for (sym_idx, chunk) in coded.chunks(n_cbps).enumerate() {
        append_symbol(chunk, &perm, modulation, sym_idx + 1, fft, &mut wave);
    }
    wave
}

/// The interleaver permutation of one symbol: coded bit `k` goes to
/// position `perm[k]`.
fn permutation(n_cbps: usize, n_bpsc: usize) -> Vec<usize> {
    (0..n_cbps)
        .map(|k| interleave_position(k, n_cbps, n_bpsc))
        .collect()
}

/// Interleaves one symbol's coded bits through `perm`, maps them onto the
/// 48 data carriers and appends the OFDM symbol to `wave`.
fn append_symbol(
    coded: &[u8],
    perm: &[usize],
    modulation: Modulation,
    symbol_index: usize,
    fft: &Fft,
    wave: &mut Vec<Cf64>,
) {
    let mut inter = [0u8; MAX_CBPS];
    let inter = &mut inter[..coded.len()];
    for (&b, &pos) in coded.iter().zip(perm) {
        inter[pos] = b;
    }
    let mut points = [Cf64::ZERO; N_SD];
    map_into(inter, modulation, &mut points);
    build_symbol_into(&points, symbol_index, fft, wave);
}

/// Builds a "pseudo-frame" containing only a single short training symbol
/// repetition (16 samples) — the paper's single-short-preamble test input.
pub fn single_short_preamble() -> Vec<Cf64> {
    crate::preamble::short_symbol()
}

/// Builds a pseudo-frame containing a single long training symbol (64
/// samples, no GI) — the paper's single-long-preamble test input.
pub fn single_long_preamble() -> Vec<Cf64> {
    crate::preamble::long_symbol()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::power::mean_power;
    use rjam_sdr::rng::Rng;

    fn test_frame(rate: Rate, len: usize) -> Frame {
        let mut rng = Rng::seed_from(70);
        let mut psdu = vec![0u8; len];
        rng.fill_bytes(&mut psdu);
        Frame::new(rate, psdu)
    }

    #[test]
    fn waveform_length_matches_airtime() {
        for rate in [Rate::R6, Rate::R24, Rate::R54] {
            let frame = test_frame(rate, 100);
            let wave = modulate_frame(&frame);
            assert_eq!(wave.len(), frame.n_samples(), "{rate:?}");
            // Preamble + SIGNAL + n_sym * 80.
            let expect = 320 + 80 + rate.n_data_symbols(100) * 80;
            assert_eq!(wave.len(), expect);
        }
    }

    #[test]
    fn preamble_prefix_is_standard() {
        let frame = test_frame(Rate::R6, 10);
        let wave = modulate_frame(&frame);
        let pre = plcp_preamble();
        for k in 0..320 {
            assert!((wave[k] - pre[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn distinct_payloads_give_distinct_data_sections() {
        let a = modulate_frame(&test_frame(Rate::R12, 50));
        let mut fb = test_frame(Rate::R12, 50);
        fb.psdu[0] ^= 0xFF;
        let b = modulate_frame(&fb);
        assert_eq!(a.len(), b.len());
        // Preamble+SIGNAL identical...
        for k in 0..400 {
            assert!((a[k] - b[k]).abs() < 1e-12);
        }
        // ...data differs.
        let diff: f64 = a[400..]
            .iter()
            .zip(&b[400..])
            .map(|(x, y)| (*x - *y).norm_sq())
            .sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn data_power_is_bounded() {
        let wave = modulate_frame(&test_frame(Rate::R54, 500));
        let p = mean_power(&wave[400..]);
        // 52 loaded carriers of unit average power over a 64-IFFT: E|x|^2 =
        // 52/64^2 * 64 = 52/64 ... with our unnormalized-forward convention
        // the mean power is 52/4096*... just assert it is sane and finite.
        assert!(p > 1e-4 && p < 1.0, "p={p}");
    }

    #[test]
    fn scrambler_seed_changes_waveform_not_length() {
        let mut fa = test_frame(Rate::R12, 80);
        fa.scrambler_seed = 0x01;
        let mut fb = fa.clone();
        fb.scrambler_seed = 0x7F;
        let a = modulate_frame(&fa);
        let b = modulate_frame(&fb);
        assert_eq!(a.len(), b.len());
        let diff: f64 = a[400..]
            .iter()
            .zip(&b[400..])
            .map(|(x, y)| (*x - *y).norm_sq())
            .sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn pseudo_frames() {
        assert_eq!(single_short_preamble().len(), 16);
        assert_eq!(single_long_preamble().len(), 64);
    }

    #[test]
    fn zero_length_psdu_allowed() {
        let frame = Frame::new(Rate::R6, Vec::new());
        let wave = modulate_frame(&frame);
        // 16+0+6 bits -> 1 symbol at 24 DBPS.
        assert_eq!(wave.len(), 320 + 80 + 80);
    }
}
