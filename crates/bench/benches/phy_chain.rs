//! PHY-layer micro-benchmarks: frame modulation, the reference receiver,
//! the Viterbi decoder, the 64-point FFT and the 20->25 MSPS resampler —
//! the hot paths of every detection sweep. `modulate_60B/R12` and
//! `to_usrp_rate/60B_R12` are the exact per-frame emission shapes of the
//! WiFi detection sweep (60-byte PSDU at 12 Mb/s). `noise_fill/64k` and
//! `noise_next_sample/64k` are receiver noise at the false-alarm floor,
//! through the block path and through the per-sample read-ahead pop.

use rjam_bench::harness::Harness;
use rjam_channel::noise::NoiseSource;
use rjam_phy80211::convcode::{decode, encode, CodeRate};
use rjam_phy80211::{decode_frame, modulate_frame, Frame, Rate};
use rjam_sdr::complex::Cf64;
use rjam_sdr::fft::Fft;
use rjam_sdr::resample::{to_usrp_rate, Rational};
use rjam_sdr::rng::Rng;
use std::hint::black_box;

fn main() {
    let mut h = Harness::new("phy_chain");
    let mut rng = Rng::seed_from(11);

    for rate in [Rate::R6, Rate::R54] {
        let params = format!("{rate:?}");
        let mut psdu = vec![0u8; 500];
        rng.fill_bytes(&mut psdu);
        let frame = Frame::new(rate, psdu);
        h.bench("modulate_500B", &params, || {
            black_box(modulate_frame(black_box(&frame)))
        });
        let wave = modulate_frame(&frame);
        h.bench("decode_500B_hard", &params, || {
            black_box(decode_frame(black_box(&wave), 0).unwrap())
        });
        h.bench("decode_500B_soft", &params, || {
            black_box(rjam_phy80211::decode_frame_soft(black_box(&wave), 0).unwrap())
        });
    }

    // Viterbi decoder on a 1200-info-bit block.
    let mut rng = Rng::seed_from(12);
    let mut bits: Vec<u8> = (0..1200).map(|_| (rng.next_u64() & 1) as u8).collect();
    bits.extend_from_slice(&[0; 6]);
    let coded = encode(&bits, CodeRate::Half);
    h.bench_throughput(
        "viterbi_decode_1200_info_bits",
        "",
        bits.len() as u64,
        || black_box(decode(black_box(&coded), CodeRate::Half, bits.len())),
    );

    // Forward FFT at the OFDM symbol size and a larger sweep size.
    let mut rng = Rng::seed_from(13);
    for n in [64usize, 1024] {
        let plan = Fft::new(n);
        let buf: Vec<Cf64> = (0..n)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect();
        h.bench_throughput("fft_forward", &format!("n={n}"), n as u64, || {
            let mut y = buf.clone();
            plan.forward(&mut y);
            black_box(y)
        });
    }

    // 20 -> 25 MSPS rational resampler over 1 ms of Wi-Fi bandwidth.
    let mut rng = Rng::seed_from(14);
    let input: Vec<Cf64> = (0..20_000)
        .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
        .collect();
    let r = Rational::new(5, 4, 12);
    h.bench_throughput(
        "resample_rational_5_4",
        "1ms_wifi",
        input.len() as u64,
        || black_box(r.process(black_box(&input))),
    );

    // The detection sweep's per-frame emission: modulate a 60-byte R12
    // frame, then convert it to the detector's 25 MSPS.
    let mut rng = Rng::seed_from(15);
    let mut psdu = vec![0u8; 60];
    rng.fill_bytes(&mut psdu);
    let frame = Frame::new(Rate::R12, psdu);
    h.bench("modulate_60B", "R12", || {
        black_box(modulate_frame(black_box(&frame)))
    });
    let native = modulate_frame(&frame);
    h.bench("to_usrp_rate", "60B_R12", || {
        black_box(to_usrp_rate(black_box(&native), rjam_sdr::WIFI_SAMPLE_RATE))
    });

    // Receiver noise at the false-alarm floor (20 dB below the 0.02
    // receive level), 64 k samples per call.
    let mut noise = NoiseSource::new(2e-4, Rng::seed_from(16));
    let mut block = vec![Cf64::ZERO; 1 << 16];
    h.bench_throughput("noise_fill", "64k", block.len() as u64, || {
        noise.fill(&mut block);
        black_box(block[0])
    });
    h.bench_throughput("noise_next_sample", "64k", block.len() as u64, || {
        for s in block.iter_mut() {
            *s = noise.next_sample();
        }
        black_box(block[0])
    });

    h.finish();
}
