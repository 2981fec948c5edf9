//! Traced replicas of the campaign unit loops.
//!
//! Each replica drives the same unit loop as its `rjam_core::campaign`
//! runner through [`CampaignEngine::run_units`]: same unit boundaries,
//! same per-unit seeds (`ShardCtx::seed`), same calls into the public
//! functions of every crate, in the same order. Only the timers around
//! those calls are new. The engine's determinism contract then makes a
//! replica's export byte-identical to the campaign's, and the traced run
//! fails if it is not — so the ledger describes the code a user runs.
//!
//! The constants below mirror the campaign module's private unit sizes and
//! levels. A change to them changes the campaign's numerics, which the
//! equivalence check reports.

use crate::ledger::{EngineCounters, Layer, Ledger};
use rjam_channel::monitor::ScopeTrace;
use rjam_channel::noise::NoiseSource;
use rjam_core::campaign::{
    scenario_for, ChannelModel, DetectionPoint, JammerUnderTest, JammingPoint, WifiEmission,
    WimaxResult,
};
use rjam_core::export;
use rjam_core::jammer::DEFAULT_LOCKOUT;
use rjam_core::presets::{DetectionPreset, JammerPreset};
use rjam_core::spec::CampaignRequest;
use rjam_core::{BlockScratch, CampaignEngine, ReactiveJammer};
use rjam_fpga::CoreEvent;
use rjam_mac::{MacObsDelta, ScenarioRun};
use rjam_sdr::complex::Cf64;
use rjam_sdr::power::{db_to_lin, mean_power, scale_to_power};
use rjam_sdr::resample::{fractional_delay, to_usrp_rate};
use rjam_sdr::rng::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Mean RX signal power the sweeps calibrate to.
pub const RX_LEVEL: f64 = 0.02;
/// Noise lead-in before each detection frame, samples.
pub const LEAD_IN: usize = 256;
/// Noise tail after each detection frame, samples.
pub const TAIL: usize = 128;
/// Frames per detection work unit.
pub const DETECTION_FRAMES_PER_UNIT: usize = 8;
/// Noise samples per false-alarm work unit.
pub const FA_UNIT_SAMPLES: usize = 1 << 18;
/// Block size the false-alarm unit streams noise in.
pub const FA_CHUNK: usize = 65_536;
/// Downlink frames per WiMAX work unit.
pub const WIMAX_FRAMES_PER_UNIT: usize = 4;
/// PSDU length of the detection sweeps' full frames, bytes.
pub const PSDU_LEN: usize = 60;

/// Runs `f` as one timed unit: charges its wall time to the unit list.
fn unit<R>(f: impl FnOnce(&mut Ledger) -> R) -> (R, Ledger) {
    let mut led = Ledger::default();
    let t0 = Instant::now();
    let r = f(&mut led);
    led.unit_ns.push(t0.elapsed().as_nanos() as u64);
    (r, led)
}

/// Builds a pool, charging the time to `pool_ns`.
fn timed_pool<P>(pool_ns: &AtomicU64, make: impl FnOnce() -> P) -> P {
    let t0 = Instant::now();
    let p = make();
    // Statistic only: read after the engine's scope has joined.
    pool_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    p
}

/// Sums per-unit ledgers and engine-level accounting into one ledger.
fn merge(
    units: impl IntoIterator<Item = Ledger>,
    pool_ns: AtomicU64,
    since: EngineCounters,
) -> Ledger {
    let mut total = Ledger::default();
    for l in units {
        total.absorb(l);
    }
    total.pool_ns += pool_ns.into_inner();
    since.charge_since(&mut total);
    total
}

struct CorePool {
    jammer: ReactiveJammer,
    scratch: BlockScratch,
    block: Vec<Cf64>,
}

impl CorePool {
    fn new(detection: &DetectionPreset, reaction: &JammerPreset, lockout: u64) -> Self {
        CorePool {
            jammer: ReactiveJammer::from_presets(detection, reaction, lockout),
            scratch: BlockScratch::new(),
            block: Vec::new(),
        }
    }
}

/// Whether `e` is a detection of the preset's kind (energy or correlator).
fn is_detection(e: &CoreEvent, energy: bool) -> bool {
    if energy {
        matches!(e, CoreEvent::EnergyHigh { .. })
    } else {
        matches!(e, CoreEvent::XcorrDetection { .. })
    }
}

/// Replica of `FalseAlarmSpec::run_counts`: `(triggers, samples)`.
pub fn false_alarm(
    engine: &CampaignEngine,
    preset: &DetectionPreset,
    samples: usize,
    seed: u64,
) -> ((u64, u64), Ledger) {
    let energy = matches!(preset, DetectionPreset::EnergyRise { .. });
    let pool_ns = AtomicU64::new(0);
    let since = EngineCounters::read();
    let cells = engine.run_units(
        samples.div_ceil(FA_UNIT_SAMPLES),
        seed,
        || {
            timed_pool(&pool_ns, || {
                CorePool::new(preset, &JammerPreset::Monitor, DEFAULT_LOCKOUT)
            })
        },
        |pool, ctx| {
            unit(|led| {
                let n = FA_UNIT_SAMPLES.min(samples - ctx.index * FA_UNIT_SAMPLES);
                led.time(Layer::Core, || pool.jammer.reset());
                let mut noise =
                    NoiseSource::new(RX_LEVEL / db_to_lin(20.0), Rng::seed_from(ctx.seed));
                let mut done = 0usize;
                while done < n {
                    let m = FA_CHUNK.min(n - done);
                    led.time(Layer::Noise, || {
                        pool.block.clear();
                        for _ in 0..m {
                            pool.block.push(noise.next_sample());
                        }
                    });
                    led.time(Layer::Core, || {
                        pool.jammer
                            .process_block_into(&pool.block, &mut pool.scratch)
                    });
                    done += m;
                }
                let triggers = led.time(Layer::Core, || {
                    pool.jammer
                        .events()
                        .iter()
                        .filter(|e| is_detection(e, energy))
                        .count() as u64
                });
                led.core_samples += n as u64;
                led.noise_samples += n as u64;
                led.triggers += triggers;
                (triggers, n as u64)
            })
        },
    );
    let counts = cells
        .iter()
        .fold((0u64, 0u64), |(t, s), ((ct, cs), _)| (t + ct, s + cs));
    (
        counts,
        merge(cells.into_iter().map(|(_, l)| l), pool_ns, since),
    )
}

/// Replica of `WifiDetectionSpec::run` for full frames over AWGN.
pub fn wifi_detection(
    engine: &CampaignEngine,
    preset: &DetectionPreset,
    snrs_db: &[f64],
    frames_per_point: usize,
    seed: u64,
) -> (Vec<DetectionPoint>, Ledger) {
    let energy = matches!(preset, DetectionPreset::EnergyRise { .. });
    let blocks = frames_per_point.div_ceil(DETECTION_FRAMES_PER_UNIT).max(1);
    let lockout = if energy { 0 } else { DEFAULT_LOCKOUT };
    let pool_ns = AtomicU64::new(0);
    let since = EngineCounters::read();
    let cells = engine.run_units(
        snrs_db.len() * blocks,
        seed,
        || {
            timed_pool(&pool_ns, || {
                CorePool::new(preset, &JammerPreset::Monitor, lockout)
            })
        },
        |pool, ctx| {
            unit(|led| {
                let snr_db = snrs_db[ctx.index / blocks];
                let lo = (ctx.index % blocks) * DETECTION_FRAMES_PER_UNIT;
                let frames = DETECTION_FRAMES_PER_UNIT.min(frames_per_point - lo);
                let mut rng = Rng::seed_from(ctx.seed);
                led.time(Layer::Core, || pool.jammer.reset());
                let mut noise = NoiseSource::new(RX_LEVEL / db_to_lin(snr_db), rng.fork());
                let (mut detected, mut triggers) = (0usize, 0usize);
                for _ in 0..frames {
                    let native = led.time(Layer::PhyTx, || {
                        let mut psdu = vec![0u8; PSDU_LEN];
                        rng.fill_bytes(&mut psdu);
                        rjam_phy80211::tx::modulate_frame(&rjam_phy80211::tx::Frame::new(
                            rjam_phy80211::Rate::R12,
                            psdu,
                        ))
                    });
                    let up = led.time(Layer::Resample, || {
                        to_usrp_rate(&native, rjam_sdr::WIFI_SAMPLE_RATE)
                    });
                    let frac = rng.uniform() * 0.999;
                    let mut wave = led.time(Layer::FracDelay, || fractional_delay(&up, frac));
                    led.time(Layer::Scale, || scale_to_power(&mut wave, RX_LEVEL));
                    let (frame_lo, frame_hi) = led.time(Layer::Noise, || {
                        pool.block.clear();
                        for _ in 0..LEAD_IN {
                            pool.block.push(noise.next_sample());
                        }
                        let frame_lo = pool.block.len() as u64;
                        pool.block
                            .extend(wave.iter().map(|&s| s + noise.next_sample()));
                        let frame_hi = pool.block.len() as u64 + 64;
                        for _ in 0..TAIL {
                            pool.block.push(noise.next_sample());
                        }
                        (frame_lo, frame_hi)
                    });
                    let n = led.time(Layer::Core, || {
                        let base = pool.jammer.core_mut().samples_processed();
                        pool.jammer
                            .process_block_into(&pool.block, &mut pool.scratch);
                        let (lo, hi) = (base + frame_lo, base + frame_hi);
                        pool.jammer
                            .events()
                            .iter()
                            .filter(|e| is_detection(e, energy) && (lo..hi).contains(&e.sample()))
                            .count()
                    });
                    led.core_samples += pool.block.len() as u64;
                    led.noise_samples += pool.block.len() as u64;
                    led.frames += 1;
                    led.triggers += n as u64;
                    if n > 0 {
                        detected += 1;
                        led.detected += 1;
                    }
                    triggers += n;
                }
                (detected, triggers)
            })
        },
    );
    let points = snrs_db
        .iter()
        .enumerate()
        .map(|(p, &snr_db)| {
            let (d, t) = cells[p * blocks..(p + 1) * blocks]
                .iter()
                .fold((0usize, 0usize), |(d, t), ((cd, ct), _)| (d + cd, t + ct));
            DetectionPoint {
                snr_db,
                p_detect: d as f64 / frames_per_point as f64,
                triggers_per_frame: t as f64 / frames_per_point as f64,
            }
        })
        .collect();
    (
        points,
        merge(cells.into_iter().map(|(_, l)| l), pool_ns, since),
    )
}

/// Replica of `WimaxDetectionSpec::run` (Fig. 12): downlink frames against
/// a reactive WGN jammer.
pub fn wimax(
    engine: &CampaignEngine,
    fused: bool,
    frames: usize,
    snr_db: f64,
    threshold: f64,
    seed: u64,
) -> (WimaxResult, Ledger) {
    struct Cell {
        scope: ScopeTrace,
        detected: usize,
        latency_acc: f64,
    }
    let detection = if fused {
        DetectionPreset::WimaxFused {
            id_cell: 1,
            segment: 0,
            threshold,
            energy_db: 10.0,
        }
    } else {
        DetectionPreset::WimaxPreamble {
            id_cell: 1,
            segment: 0,
            threshold,
        }
    };
    let reaction = JammerPreset::Reactive {
        uptime_s: 100e-6,
        waveform: rjam_fpga::JamWaveform::Wgn,
    };
    let frame_samples_25 = (rjam_phy80216::FRAME_SAMPLES as f64 * 25.0 / 11.4).round() as usize;
    let pool_ns = AtomicU64::new(0);
    let since = EngineCounters::read();
    let cells = engine.run_units(
        frames.div_ceil(WIMAX_FRAMES_PER_UNIT),
        seed,
        || timed_pool(&pool_ns, || CorePool::new(&detection, &reaction, 100_000)),
        |pool, ctx| {
            unit(|led| {
                let n = WIMAX_FRAMES_PER_UNIT.min(frames - ctx.index * WIMAX_FRAMES_PER_UNIT);
                led.time(Layer::Core, || pool.jammer.reset());
                let mut gen = led.time(Layer::WimaxGen, || {
                    rjam_phy80216::DownlinkGenerator::new(rjam_phy80216::DownlinkConfig {
                        seed: ctx.seed,
                        ..rjam_phy80216::DownlinkConfig::default()
                    })
                });
                let mut rng = Rng::seed_from(ctx.seed ^ 0x16e);
                let mut noise = NoiseSource::new(RX_LEVEL / db_to_lin(snr_db), rng.fork());
                let mut scope = ScopeTrace::new(rjam_sdr::USRP_SAMPLE_RATE);
                let (mut detected, mut latency_acc) = (0usize, 0.0f64);
                for _ in 0..n {
                    let native = led.time(Layer::WimaxGen, || gen.next_frame());
                    let up = led.time(Layer::Resample, || {
                        to_usrp_rate(&native, rjam_sdr::WIMAX_SAMPLE_RATE)
                    });
                    let frac = rng.uniform() * 0.999;
                    let mut wave = led.time(Layer::FracDelay, || fractional_delay(&up, frac));
                    led.time(Layer::Scale, || {
                        let active = (gen.dl_subframe_samples() as f64 * 25.0 / 11.4) as usize;
                        let k = (RX_LEVEL / mean_power(&wave[..active.min(wave.len())])).sqrt();
                        for s in wave.iter_mut() {
                            *s = s.scale(k);
                        }
                    });
                    led.time(Layer::Noise, || {
                        for s in wave.iter_mut() {
                            *s += noise.next_sample();
                        }
                    });
                    let base = led.time(Layer::Core, || {
                        let base = pool.jammer.core_mut().samples_processed();
                        pool.jammer.process_block_into(&wave, &mut pool.scratch);
                        base
                    });
                    let first_jam = led.time(Layer::Scope, || {
                        scope.capture(&wave);
                        scope.mark(base as usize, "frame");
                        let first = pool.scratch.active().iter().position(|&a| a);
                        if let Some(j) = first {
                            scope.mark((base + j as u64) as usize, "jam");
                        }
                        first
                    });
                    if let Some(j) = first_jam {
                        detected += 1;
                        latency_acc += j as f64 / 25.0;
                    }
                    led.core_samples += wave.len() as u64;
                    led.noise_samples += wave.len() as u64;
                }
                Cell {
                    scope,
                    detected,
                    latency_acc,
                }
            })
        },
    );
    let mut scope = ScopeTrace::new(rjam_sdr::USRP_SAMPLE_RATE);
    let (mut detected, mut latency_acc) = (0usize, 0.0f64);
    for (c, _) in &cells {
        let offset = scope.len();
        scope.append_shifted(&c.scope, offset);
        detected += c.detected;
        latency_acc += c.latency_acc;
    }
    let one_to_one = scope
        .correspondence("frame", "jam", frame_samples_25 / 4)
        .is_ok();
    let result = WimaxResult {
        detect_fraction: detected as f64 / frames as f64,
        mean_latency_us: if detected > 0 {
            latency_acc / detected as f64
        } else {
            f64::NAN
        },
        scope,
        one_to_one,
    };
    (
        result,
        merge(cells.into_iter().map(|(_, l)| l), pool_ns, since),
    )
}

/// Replica of `JammingSweepSpec::run` (Figs 10-11): one MAC scenario per
/// SIR point.
pub fn jamming(
    engine: &CampaignEngine,
    jammer: JammerUnderTest,
    sirs_db: &[f64],
    duration_s: f64,
    seed: u64,
) -> (Vec<JammingPoint>, Ledger) {
    let pool_ns = AtomicU64::new(0);
    let since = EngineCounters::read();
    let cells = engine.run_units(
        sirs_db.len(),
        seed,
        || timed_pool(&pool_ns, || ()),
        |_, ctx| {
            unit(|led| {
                let sir = sirs_db[ctx.index];
                let sc = led.time(Layer::Spec, || {
                    scenario_for(jammer, sir, duration_s, ctx.seed)
                });
                let mut delta = MacObsDelta::new();
                let report = led.time(Layer::Mac, || {
                    ScenarioRun::new(&sc).obs_into(&mut delta).run()
                });
                led.sim_s += duration_s;
                led.datagrams += report.sent;
                led.jam_bursts += report.jam_bursts;
                JammingPoint {
                    sir_ap_db: sir,
                    report,
                }
            })
        },
    );
    let points = cells.iter().map(|(p, _)| p.clone()).collect();
    (
        points,
        merge(cells.into_iter().map(|(_, l)| l), pool_ns, since),
    )
}

/// The export bytes `CampaignRequest::run_to_export` produces for `req`,
/// computed by the traced replicas, with their ledger.
pub fn export(engine: &CampaignEngine, req: &CampaignRequest) -> (String, Ledger) {
    match req {
        CampaignRequest::FalseAlarm {
            preset,
            samples,
            seed,
        } => {
            let ((triggers, streamed), led) = false_alarm(engine, preset, *samples, *seed);
            let rate = if streamed == 0 {
                0.0
            } else {
                triggers as f64 / (streamed as f64 / rjam_sdr::USRP_SAMPLE_RATE)
            };
            (export::false_alarm_json(rate), led)
        }
        CampaignRequest::WifiDetection {
            preset,
            emission,
            channel,
            snrs_db,
            frames_per_point,
            seed,
        } => {
            assert!(
                *emission == WifiEmission::FullFrames { psdu_len: PSDU_LEN }
                    && *channel == ChannelModel::Awgn,
                "the detection replica covers {PSDU_LEN}-byte frames over AWGN only"
            );
            let (points, led) = wifi_detection(engine, preset, snrs_db, *frames_per_point, *seed);
            (export::detection_csv(&points), led)
        }
        CampaignRequest::Wimax {
            fused,
            frames,
            snr_db,
            threshold,
            seed,
        } => {
            let (result, led) = wimax(engine, *fused, *frames, *snr_db, *threshold, *seed);
            (export::wimax_json(&result), led)
        }
        CampaignRequest::Jamming {
            jammer,
            sirs_db,
            duration_s,
            seed,
        } => {
            let (points, led) = jamming(engine, *jammer, sirs_db, *duration_s, *seed);
            (export::jamming_csv(&points), led)
        }
    }
}

/// Busy time of the DSP core and of its stage primitives over one noise
/// stream: the split of the core's cost the ROADMAP's ledger asks for.
pub struct StageSplit {
    /// Samples streamed through each stage.
    pub samples: u64,
    /// `DspCore::process_block_into`, monitor personality.
    pub core_s: f64,
    /// `CrossCorrelator::push` with the preset's template and threshold.
    pub xcorr_s: f64,
    /// `EnergyDifferentiator::push` with the preset's thresholds.
    pub energy_s: f64,
    /// `JamController::tick` generating continuous WGN.
    pub wgn_s: f64,
}

/// Streams `samples` of the false-alarm noise (unit seeds of `seed`,
/// quantized once up front) through the full core and through each stage
/// primitive on its own.
pub fn stage_split(preset: &DetectionPreset, samples: usize, seed: u64) -> StageSplit {
    use rjam_fpga::{CrossCorrelator, DspCore, EnergyDifferentiator, JamController, JamWaveform};
    use rjam_sdr::complex::IqI16;
    use std::hint::black_box;
    let mut quant = Vec::with_capacity(samples);
    for (u, lo) in (0..samples).step_by(FA_UNIT_SAMPLES).enumerate() {
        let unit_seed = rjam_core::engine::shard_seed(seed, u as u64);
        let mut noise = NoiseSource::new(RX_LEVEL / db_to_lin(20.0), Rng::seed_from(unit_seed));
        for _ in lo..(lo + FA_UNIT_SAMPLES).min(samples) {
            quant.push(IqI16::from_cf64(noise.next_sample()));
        }
    }
    let cfg = rjam_core::presets::build_config(preset, &JammerPreset::Monitor, DEFAULT_LOCKOUT);
    let timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };

    let mut core = DspCore::new();
    core.configure(&cfg);
    let (mut tx, mut active) = (Vec::new(), Vec::new());
    let core_s = timed(&mut || {
        for block in quant.chunks(FA_CHUNK) {
            core.process_block_into(block, &mut tx, &mut active);
        }
    });

    let mut xc = CrossCorrelator::new();
    xc.load_coeffs_raw(&cfg.coeff_i, &cfg.coeff_q);
    xc.set_threshold(cfg.xcorr_threshold);
    xc.set_lockout(cfg.lockout);
    let xcorr_s = timed(&mut || {
        for &s in &quant {
            black_box(xc.push(s));
        }
    });

    let mut ed = EnergyDifferentiator::new();
    ed.set_threshold_high_db(cfg.energy_high_db);
    ed.set_threshold_low_db(cfg.energy_low_db);
    ed.set_lockout(cfg.lockout);
    let energy_s = timed(&mut || {
        for &s in &quant {
            black_box(ed.push(s));
        }
    });

    let mut jam = JamController::new();
    jam.set_waveform(JamWaveform::Wgn);
    jam.set_enabled(true);
    jam.set_continuous(true);
    let wgn_s = timed(&mut || {
        for &s in &quant {
            black_box(jam.tick(false, s));
        }
    });

    StageSplit {
        samples: samples as u64,
        core_s,
        xcorr_s,
        energy_s,
        wgn_s,
    }
}
