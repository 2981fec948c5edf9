//! Tier-1 pins for the DSP hot path.
//!
//! * `DspCore::process_block_into` over random chunkings equals the
//!   per-sample `DspCore::process`: transmit stream, activity mask, event
//!   logs, host-feedback register and statistics readback.
//! * `Rng::gaussian_pair` equals two `gaussian()` calls at either spare
//!   alignment, and `NoiseSource::fill` equals repeated `next_sample`.
//! * Output digests and a false-alarm `(triggers, samples)` pair recorded
//!   from the bit-serial/popcount implementation, so a faster datapath has
//!   to reproduce the same bits rather than merely agree with itself.
//! * A digest of the `NoiseSource` stream, recorded from the libm-free
//!   Box-Muller kernels (glibc's `log`/`sin`/`cos` gave host-dependent
//!   last bits).

use rjam::channel::noise::NoiseSource;
use rjam::core::campaign::CampaignSpec;
use rjam::core::{CampaignEngine, DetectionPreset};
use rjam::fpga::regs::{RegisterMap, StatReg};
use rjam::fpga::{CoreConfig, DspCore, JamWaveform, TriggerMode, TriggerSource};
use rjam::sdr::complex::{Cf64, IqI16};
use rjam::sdr::rng::Rng;
use rjam_testkit::{self as tk, prop_assert_eq, props};

/// A template whose matched sign pattern appears in the stimulus.
fn template(rng: &mut Rng) -> ([i8; 64], [i8; 64]) {
    let sign = |rng: &mut Rng| if rng.chance(0.5) { 3 } else { -3 };
    (
        std::array::from_fn(|_| sign(rng)),
        std::array::from_fn(|_| sign(rng)),
    )
}

/// Quiet noise, loud bursts, silence and matched-template segments, so
/// every detector fires, every lockout engages and sequence windows both
/// complete and expire.
fn stimulus(seed: u64, n: usize, coeff: &([i8; 64], [i8; 64])) -> Vec<IqI16> {
    let mut rng = Rng::seed_from(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let len = 20 + rng.below(380) as usize;
        let kind = rng.below(4);
        for k in 0..len {
            let s = match kind {
                0 => IqI16::new(rng.below(201) as i16 - 100, rng.below(201) as i16 - 100),
                1 => IqI16::new(
                    rng.below(16001) as i16 - 8000,
                    rng.below(16001) as i16 - 8000,
                ),
                2 => IqI16::ZERO,
                _ => {
                    let tap = k % 64;
                    IqI16::new(
                        coeff.0[tap] as i16 * 2000 + rng.below(41) as i16 - 20,
                        coeff.1[tap] as i16 * 2000 + rng.below(41) as i16 - 20,
                    )
                }
            };
            out.push(s);
        }
    }
    out.truncate(n);
    out
}

/// Personalities covering both trigger modes, every source, lockouts and
/// every jam waveform, plus continuous mode.
fn personalities(coeff: &([i8; 64], [i8; 64])) -> Vec<(&'static str, CoreConfig, bool)> {
    let base = CoreConfig {
        coeff_i: coeff.0,
        coeff_q: coeff.1,
        xcorr_threshold: 250 * 250,
        energy_high_db: 10.0,
        energy_low_db: 10.0,
        enabled: true,
        ..CoreConfig::default()
    };
    vec![
        (
            "any_xcorr_energy_wgn",
            CoreConfig {
                trigger_mode: TriggerMode::Any(vec![
                    TriggerSource::Xcorr,
                    TriggerSource::EnergyHigh,
                    TriggerSource::EnergyLow,
                ]),
                lockout: 50,
                waveform: JamWaveform::Wgn,
                uptime_samples: 37,
                ..base.clone()
            },
            false,
        ),
        (
            "any_energy_low_replay_delay",
            CoreConfig {
                trigger_mode: TriggerMode::Any(vec![TriggerSource::EnergyLow]),
                lockout: 0,
                waveform: JamWaveform::Replay,
                uptime_samples: 90,
                delay_samples: 13,
                ..base.clone()
            },
            true,
        ),
        (
            "sequence_energy_then_xcorr",
            CoreConfig {
                trigger_mode: TriggerMode::Sequence {
                    stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
                    window: 120,
                },
                lockout: 10,
                waveform: JamWaveform::Wgn,
                uptime_samples: 20,
                delay_samples: 3,
                ..base.clone()
            },
            false,
        ),
        (
            "sequence_three_stage_short_window",
            CoreConfig {
                trigger_mode: TriggerMode::Sequence {
                    stages: vec![
                        TriggerSource::Xcorr,
                        TriggerSource::EnergyLow,
                        TriggerSource::EnergyHigh,
                    ],
                    window: 40,
                },
                lockout: 200,
                waveform: JamWaveform::HostStream(vec![
                    IqI16::new(1000, -1000),
                    IqI16::new(-3000, 2000),
                    IqI16::new(500, 500),
                ]),
                uptime_samples: 9,
                ..base.clone()
            },
            false,
        ),
        (
            "continuous_wgn",
            CoreConfig {
                enabled: false,
                continuous: true,
                amplitude: 0.7,
                ..base
            },
            false,
        ),
    ]
}

fn build(cfg: &CoreConfig, capture: bool) -> DspCore {
    let mut core = DspCore::new();
    core.configure(cfg);
    if capture {
        core.enable_capture(16, 48, 96);
    }
    core
}

fn stat_regs(core: &DspCore) -> Vec<u32> {
    StatReg::ALL.iter().map(|&r| core.read_stat(r)).collect()
}

props! {
    cases = 10;

    /// The block datapath is the per-sample datapath at any chunking.
    fn block_path_equals_per_sample_process(seed in tk::any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let coeff = template(&mut rng);
        let stream = stimulus(seed ^ 0x5EED, 4000, &coeff);
        for (name, cfg, capture) in personalities(&coeff) {
            let mut reference = build(&cfg, capture);
            let mut blocked = build(&cfg, capture);
            let (mut tx, mut active) = (Vec::new(), Vec::new());
            let mut lo = 0;
            while lo < stream.len() {
                let hi = (lo + 1 + rng.below(300) as usize).min(stream.len());
                blocked.process_block_into(&stream[lo..hi], &mut tx, &mut active);
                prop_assert_eq!(tx.len(), hi - lo);
                for (k, &s) in stream[lo..hi].iter().enumerate() {
                    let out = reference.process(s);
                    prop_assert_eq!((name, lo + k, tx[k]), (name, lo + k, out.tx.unwrap_or(IqI16::ZERO)));
                    prop_assert_eq!((name, lo + k, active[k]), (name, lo + k, out.tx.is_some()));
                }
                prop_assert_eq!(
                    (name, blocked.read_reg(RegisterMap::HostFeedback)),
                    (name, reference.read_reg(RegisterMap::HostFeedback))
                );
                prop_assert_eq!((name, stat_regs(&blocked)), (name, stat_regs(&reference)));
                lo = hi;
            }
            prop_assert_eq!((name, blocked.events()), (name, reference.events()));
            prop_assert_eq!((name, blocked.jam_events()), (name, reference.jam_events()));
            prop_assert_eq!(blocked.samples_processed(), stream.len() as u64);
            prop_assert_eq!(blocked.take_feedback(), reference.take_feedback());
            prop_assert_eq!(
                blocked.drain_capture(usize::MAX),
                reference.drain_capture(usize::MAX)
            );
        }
    }
}

props! {
    cases = 16;

    /// `gaussian_pair` is two scalar draws whether or not a Box-Muller
    /// spare is cached, and leaves the generator in the same state.
    fn gaussian_pair_equals_two_gaussians(seed in tk::any::<u64>(), skew in tk::any::<bool>()) {
        let mut pairs = Rng::seed_from(seed);
        let mut scalar = Rng::seed_from(seed);
        if skew {
            prop_assert_eq!(pairs.gaussian().to_bits(), scalar.gaussian().to_bits());
        }
        for _ in 0..257 {
            let (a, b) = pairs.gaussian_pair();
            prop_assert_eq!(a.to_bits(), scalar.gaussian().to_bits());
            prop_assert_eq!(b.to_bits(), scalar.gaussian().to_bits());
        }
        prop_assert_eq!(pairs.gaussian().to_bits(), scalar.gaussian().to_bits());
        prop_assert_eq!(pairs.next_u64(), scalar.next_u64());
    }

    /// `fill` is repeated `next_sample`, including across fills whose
    /// lengths split the stream at arbitrary points.
    fn noise_fill_equals_next_sample(seed in tk::any::<u64>(), lens in tk::vec(0usize..300, 1..8)) {
        let mut filled = NoiseSource::new(0.02, Rng::seed_from(seed));
        let mut scalar = NoiseSource::new(0.02, Rng::seed_from(seed));
        for len in lens {
            let mut buf = vec![Cf64::new(9.0, 9.0); len];
            filled.fill(&mut buf);
            for s in buf {
                let want = scalar.next_sample();
                prop_assert_eq!((s.re.to_bits(), s.im.to_bits()), (want.re.to_bits(), want.im.to_bits()));
            }
        }
    }
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
    }
}

#[test]
fn noise_stream_matches_recorded_digest() {
    let mut src = NoiseSource::new(0.01, Rng::seed_from(501));
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut buf = vec![Cf64::ZERO; 10_001];
    src.fill(&mut buf);
    for s in buf {
        fnv(&mut h, s.re.to_bits());
        fnv(&mut h, s.im.to_bits());
    }
    assert_eq!(h, 11_979_954_686_512_895_711);
}

/// FNV-1a over a core's transmit stream, activity mask and event log.
fn digest(core: &DspCore, tx: &[IqI16], active: &[bool], h: &mut u64) {
    let mut eat = |v: u64| fnv(h, v);
    for (s, &a) in tx.iter().zip(active) {
        eat(((s.i as u16 as u64) << 16) | s.q as u16 as u64 | (a as u64) << 32);
    }
    for e in core.events() {
        eat(e.sample());
        eat(e.cycle());
    }
    for j in core.jam_events() {
        eat(j.start_cycle);
        eat(j.end_cycle.unwrap_or(u64::MAX));
    }
}

#[test]
fn core_outputs_match_recorded_digests() {
    let mut rng = Rng::seed_from(2014);
    let coeff = template(&mut rng);
    let stream = stimulus(77, 20_000, &coeff);
    let mut got = Vec::new();
    for (name, cfg, capture) in personalities(&coeff) {
        let mut core = build(&cfg, capture);
        let (mut tx, mut active) = (Vec::new(), Vec::new());
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for block in stream.chunks(4096) {
            core.process_block_into(block, &mut tx, &mut active);
            digest(&core, &tx, &active, &mut h);
        }
        got.push((name, core.events().len(), core.jam_events().len(), h));
    }
    let want = vec![
        ("any_xcorr_energy_wgn", 298, 147, 15_599_998_245_926_942_215),
        (
            "any_energy_low_replay_delay",
            174,
            25,
            2_396_255_392_996_066_236,
        ),
        (
            "sequence_energy_then_xcorr",
            165,
            16,
            1_692_872_884_881_361_966,
        ),
        (
            "sequence_three_stage_short_window",
            87,
            0,
            16_828_014_558_965_846_525,
        ),
        ("continuous_wgn", 177, 0, 16_458_559_545_535_549_446),
    ];
    assert_eq!(got, want);
}

#[test]
fn false_alarm_counts_match_recorded_pair() {
    let counts = CampaignSpec::false_alarm(&DetectionPreset::WifiShortPreamble { threshold: 0.4 })
        .samples(1 << 19)
        .seed(99)
        .run_counts(&CampaignEngine::with_threads(2));
    assert_eq!(counts, (10, 1 << 19));
}
