//! Tier-1 pins for the WiFi emission path.
//!
//! Every digest below was recorded from the straightforward implementation
//! (per-frame prototype design and FFT planning, a `%`/`/` polyphase loop,
//! per-bit interleaving and a branching FFT butterfly), so any faster
//! datapath has to reproduce the same output bits rather than merely agree
//! with itself:
//!
//! * `modulate_frame` over all eight rates, PSDU lengths {0, 1, 60, 333,
//!   1500} and scrambler seeds {0x01, 0x5D, 0x7F};
//! * `to_usrp_rate` at 20 MHz (5/4 polyphase), 11 MHz (25/11 polyphase)
//!   and 11.4 MHz (linear);
//! * `Rational::process` for four `(up, down, taps)` plans over every input
//!   length 0..=40 plus 1280, so both window edges and inputs shorter than
//!   one window are covered;
//! * `Fft` forward and inverse at n = 1, 2, 8, 64 and 1024;
//! * a WiFi detection sweep and a correlator ROC sweep, compared bitwise.
//!
//! The `Rational` and `Fft` inputs come from `Rng::gaussian`. When the
//! Gaussian sampler became libm-free, their digests were re-recorded by
//! the unchanged resampler and FFT on the new inputs, so they still pin
//! the same kernels.

use rjam::core::campaign::CampaignSpec;
use rjam::core::{CampaignEngine, DetectionPreset};
use rjam::phy80211::tx::{modulate_frame, Frame};
use rjam::phy80211::Rate;
use rjam::sdr::complex::Cf64;
use rjam::sdr::fft::Fft;
use rjam::sdr::resample::{to_usrp_rate, Rational};
use rjam::sdr::rng::Rng;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
    }
}

/// FNV-1a over a buffer's length and the raw bits of every sample.
fn eat(h: &mut u64, buf: &[Cf64]) {
    fnv(h, buf.len() as u64);
    for s in buf {
        fnv(h, s.re.to_bits());
        fnv(h, s.im.to_bits());
    }
}

fn random_iq(rng: &mut Rng, n: usize) -> Vec<Cf64> {
    (0..n)
        .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
        .collect()
}

fn psdu(len: usize, seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; len];
    Rng::seed_from(seed).fill_bytes(&mut out);
    out
}

#[test]
fn modulate_frame_matches_recorded_digests() {
    let got: Vec<u64> = Rate::ALL
        .iter()
        .map(|&rate| {
            let mut h = FNV_OFFSET;
            for len in [0usize, 1, 60, 333, 1500] {
                for seed in [0x01u8, 0x5D, 0x7F] {
                    let frame = Frame {
                        rate,
                        psdu: psdu(len, len as u64),
                        scrambler_seed: seed,
                    };
                    let wave = modulate_frame(&frame);
                    assert_eq!(wave.len(), frame.n_samples(), "{rate:?} len {len}");
                    eat(&mut h, &wave);
                }
            }
            h
        })
        .collect();
    assert_eq!(got, MODULATE_DIGESTS);
}

const MODULATE_DIGESTS: [u64; 8] = [
    207082349648927652,
    6757230773056859865,
    1158827438312748172,
    16175670706174569751,
    4141698910657952844,
    3223142061924543521,
    4699840705312301632,
    9501843782165899133,
];

#[test]
fn to_usrp_rate_matches_recorded_digests() {
    let native = modulate_frame(&Frame::new(Rate::R12, psdu(60, 12)));
    let got: Vec<u64> = [20.0e6, 11.0e6, 11.4e6]
        .iter()
        .map(|&rate| {
            let mut h = FNV_OFFSET;
            eat(&mut h, &to_usrp_rate(&native, rate));
            eat(&mut h, &to_usrp_rate(&native[..7], rate));
            h
        })
        .collect();
    assert_eq!(got, USRP_DIGESTS);
}

const USRP_DIGESTS: [u64; 3] = [
    9101008652987135782,
    10272456303420463139,
    17848126802368270129,
];

#[test]
fn rational_matches_recorded_digests() {
    let mut rng = Rng::seed_from(1301);
    let input = random_iq(&mut rng, 1280);
    let got: Vec<u64> = [(5, 4, 12), (5, 4, 8), (3, 2, 16), (25, 11, 12)]
        .iter()
        .map(|&(up, down, taps)| {
            let r = Rational::new(up, down, taps);
            let mut h = FNV_OFFSET;
            for len in (0..=40).chain([1280]) {
                eat(&mut h, &r.process(&input[..len]));
            }
            h
        })
        .collect();
    assert_eq!(got, RATIONAL_DIGESTS);
}

const RATIONAL_DIGESTS: [u64; 4] = [
    1938443691025279922,
    3531877754583672648,
    13488751933331163416,
    497543634023613629,
];

#[test]
fn fft_matches_recorded_digests() {
    let mut rng = Rng::seed_from(1302);
    let got: Vec<(u64, u64)> = [1usize, 2, 8, 64, 1024]
        .iter()
        .map(|&n| {
            let plan = Fft::new(n);
            let x = random_iq(&mut rng, n);
            let mut fwd = x.clone();
            plan.forward(&mut fwd);
            let mut inv = x;
            plan.inverse(&mut inv);
            let (mut hf, mut hi) = (FNV_OFFSET, FNV_OFFSET);
            eat(&mut hf, &fwd);
            eat(&mut hi, &inv);
            (hf, hi)
        })
        .collect();
    assert_eq!(got, FFT_DIGESTS);
}

const FFT_DIGESTS: [(u64, u64); 5] = [
    (2014279057416944257, 2014279057416944257),
    (2133666721697514783, 17143329088685791422),
    (1706562930096170499, 175499827474556068),
    (17370834478734531672, 9906964234090907717),
    (13536815290197345457, 13428286994098417288),
];

#[test]
fn detection_sweep_matches_recorded_points() {
    let points =
        CampaignSpec::wifi_detection(&DetectionPreset::WifiShortPreamble { threshold: 0.35 })
            .snrs(&[-8.0, -4.0, 0.0])
            .trials(12)
            .seed(1303)
            .run(&CampaignEngine::with_threads(2));
    let got: Vec<(u64, u64, u64)> = points
        .iter()
        .map(|p| {
            (
                p.snr_db.to_bits(),
                p.p_detect.to_bits(),
                p.triggers_per_frame.to_bits(),
            )
        })
        .collect();
    assert_eq!(got, DETECTION_POINTS);
}

const DETECTION_POINTS: [(u64, u64, u64); 3] = [
    (
        13844065254536904704,
        4598175219545276416,
        4599676419421066581,
    ),
    (
        13839561654909534208,
        4607182418800017408,
        4607182418800017408,
    ),
    (0, 4607182418800017408, 4607182418800017408),
];

#[test]
fn roc_sweep_matches_recorded_points() {
    let make = |t: f64| DetectionPreset::WifiShortPreamble { threshold: t };
    let points = CampaignSpec::roc(&make)
        .snr_db(0.0)
        .thresholds(&[0.3, 0.4, 0.5])
        .trials(12)
        .fa_samples(1 << 14)
        .seed(1304)
        .run(&CampaignEngine::with_threads(2));
    let got: Vec<(u64, u64, u64)> = points
        .iter()
        .map(|p| {
            (
                p.threshold.to_bits(),
                p.fa_per_s.to_bits(),
                p.p_detect.to_bits(),
            )
        })
        .collect();
    assert_eq!(got, ROC_POINTS);
}

const ROC_POINTS: [(u64, u64, u64); 3] = [
    (
        4599075939470750515,
        4663432901101092864,
        4605681218924227243,
    ),
    (4600877379321698714, 0, 4607182418800017408),
    (4602678819172646912, 0, 4607182418800017408),
];
