//! The in-process campaign workloads, `fa_noise` and `detect_sweep`: a
//! closed loop of back-to-back campaigns through the public
//! `CampaignSpec` API on one `CampaignEngine` with one worker per core.

use crate::ledger::{Layer, Ledger};
use crate::reference::{Counts, Reference};
use crate::replica::{self, FA_UNIT_SAMPLES, LEAD_IN, PSDU_LEN, TAIL};
use crate::stats::{median, quantile, within_band};
use crate::Report;
use rjam_core::campaign::{CampaignSpec, DetectionPoint, WifiEmission};
use rjam_core::engine::shard_seed;
use rjam_core::presets::DetectionPreset;
use rjam_core::CampaignEngine;
use std::time::{Duration, Instant};

/// Seed the committed reference outputs were produced with.
pub const DEFAULT_SEED: u64 = 1;
/// Samples per `fa_noise` campaign: eight 2^18-sample engine units.
pub const FA_SAMPLES: usize = 8 * FA_UNIT_SAMPLES;
/// SNR grid of `detect_sweep`, dB (Figs 6-8).
pub const DET_SNRS_DB: [f64; 6] = [-6.0, -3.0, 0.0, 3.0, 6.0, 9.0];
/// Frames per SNR point of one `detect_sweep` campaign.
pub const DET_FRAMES: usize = 64;
/// Untimed (but checked) campaigns before the measured window.
pub const WARMUP_S: f64 = 1.0;
/// The traced run must attribute at least this share of unit time to
/// named layers.
pub const MIN_COVERAGE: f64 = 0.95;

/// The false-alarm detector: WiFi short-preamble correlator at 0.4.
pub fn fa_preset() -> DetectionPreset {
    DetectionPreset::WifiShortPreamble { threshold: 0.4 }
}

/// The detection-sweep detector: WiFi short-preamble correlator at 0.35.
pub fn det_preset() -> DetectionPreset {
    DetectionPreset::WifiShortPreamble { threshold: 0.35 }
}

/// Seed of the `k`-th campaign of a run. Kept below 2^53 so the same
/// seeds survive the JSON job protocol.
pub fn campaign_seed(seed: u64, k: u64) -> u64 {
    shard_seed(seed, k) & ((1 << 53) - 1)
}

/// Which campaign a workload loops over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `CampaignSpec::false_alarm(..).run_counts` over `FA_SAMPLES`.
    FaNoise,
    /// `CampaignSpec::wifi_detection(..).run` over `DET_SNRS_DB`.
    DetectSweep,
}

/// One campaign's output in the forms the checks need.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// `(successes, trials)` per point: FA `(triggers, samples)`, or
    /// `(detected frames, frames)` per SNR.
    pub counts: Vec<Counts>,
    /// Debug rendering of the raw results: equal exactly when every
    /// count and `f64` bit is equal.
    pub exact: String,
}

impl Kind {
    /// The campaign workload called `name`, if it is one.
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "fa_noise" => Some(Kind::FaNoise),
            "detect_sweep" => Some(Kind::DetectSweep),
            _ => None,
        }
    }

    /// Samples one campaign pushes through the DSP core.
    pub fn air_samples(self, frame_stream_len: u64) -> u64 {
        match self {
            Kind::FaNoise => FA_SAMPLES as u64,
            Kind::DetectSweep => (DET_SNRS_DB.len() * DET_FRAMES) as u64 * frame_stream_len,
        }
    }

    /// Trials per point one campaign must report: every requested sample
    /// or frame, no more and no fewer.
    pub fn trials(self) -> Vec<u64> {
        match self {
            Kind::FaNoise => vec![FA_SAMPLES as u64],
            Kind::DetectSweep => vec![DET_FRAMES as u64; DET_SNRS_DB.len()],
        }
    }

    /// Runs one untraced campaign.
    pub fn campaign(self, engine: &CampaignEngine, seed: u64) -> Outcome {
        match self {
            Kind::FaNoise => fa_outcome(
                CampaignSpec::false_alarm(&fa_preset())
                    .samples(FA_SAMPLES)
                    .seed(seed)
                    .run_counts(engine),
            ),
            Kind::DetectSweep => det_outcome(
                &CampaignSpec::wifi_detection(&det_preset())
                    .emission(WifiEmission::FullFrames { psdu_len: PSDU_LEN })
                    .snrs(&DET_SNRS_DB)
                    .trials(DET_FRAMES)
                    .seed(seed)
                    .run(engine),
                DET_FRAMES,
            ),
        }
    }

    /// Runs the traced replica of the same campaign.
    pub fn replica(self, engine: &CampaignEngine, seed: u64) -> (Outcome, Ledger) {
        match self {
            Kind::FaNoise => {
                let (counts, led) = replica::false_alarm(engine, &fa_preset(), FA_SAMPLES, seed);
                (fa_outcome(counts), led)
            }
            Kind::DetectSweep => {
                let (points, led) =
                    replica::wifi_detection(engine, &det_preset(), &DET_SNRS_DB, DET_FRAMES, seed);
                (det_outcome(&points, DET_FRAMES), led)
            }
        }
    }
}

fn fa_outcome((triggers, samples): (u64, u64)) -> Outcome {
    Outcome {
        counts: vec![(triggers, samples)],
        exact: format!("{triggers}/{samples}"),
    }
}

fn det_outcome(points: &[DetectionPoint], frames: usize) -> Outcome {
    Outcome {
        counts: points
            .iter()
            .map(|p| ((p.p_detect * frames as f64).round() as u64, frames as u64))
            .collect(),
        exact: format!("{points:?}"),
    }
}

/// Samples one detection frame occupies in the core's input: lead-in,
/// the 20→25 MSPS resampled and fractionally delayed frame, and tail.
/// The length depends only on the PSDU length and rate.
pub fn frame_stream_len() -> u64 {
    let frame = rjam_phy80211::tx::Frame::new(rjam_phy80211::Rate::R12, vec![0; PSDU_LEN]);
    let native = rjam_phy80211::tx::modulate_frame(&frame);
    let up = rjam_sdr::resample::to_usrp_rate(&native, rjam_sdr::WIFI_SAMPLE_RATE);
    let wave = rjam_sdr::resample::fractional_delay(&up, 0.5);
    (LEAD_IN + wave.len() + TAIL) as u64
}

/// Whether every point of `counts` lies in the binomial band around the
/// reference (same point count, matching trials dimension).
pub fn in_band(counts: &[Counts], reference: &[Counts]) -> bool {
    counts.len() == reference.len()
        && counts
            .iter()
            .zip(reference)
            .all(|(&(k, n), &(k_ref, n_ref))| within_band(k, n, k_ref, n_ref))
}

/// Runs a campaign workload for `seconds` and reports it.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, reference: &Reference) -> Report {
    let engine = CampaignEngine::with_threads(crate::host::nproc());
    let frame_len = frame_stream_len();
    let band = reference.band(kind);
    let air = kind.air_samples(frame_len) as f64 / rjam_sdr::USRP_SAMPLE_RATE;

    let mut report = Report::default();
    // The default-seed identity campaign doubles as warm-up: threads,
    // lazily built tables and the allocator settle before timing starts.
    let identity = kind.campaign(&engine, DEFAULT_SEED).exact == reference.identity(kind);
    report.note(format!(
        "default-seed output byte-identical to committed reference: {identity}"
    ));

    let mut walls = Vec::new();
    let mut pooled: Vec<Counts> = vec![(0, 0); band.len()];
    let mut ledger = Ledger::default();
    let (mut traced_walls, mut mismatches) = (Vec::new(), 0u64);
    let t_start = Instant::now();
    let (warmup, window) = (
        Duration::from_secs_f64(WARMUP_S),
        Duration::from_secs_f64(seconds),
    );
    let mut k = 0u64;
    while t_start.elapsed() < warmup + window {
        let timed = t_start.elapsed() >= warmup;
        let s = campaign_seed(seed, k);
        let t0 = Instant::now();
        let out = kind.campaign(&engine, s);
        let wall = t0.elapsed().as_secs_f64();
        report.attempted += 1;
        let trials: Vec<u64> = out.counts.iter().map(|c| c.1).collect();
        if trials != kind.trials() || !in_band(&out.counts, &band) {
            report.failed += 1;
            report.note(format!(
                "campaign {k} (seed {s}) failed its check: {:?}",
                out.counts
            ));
        }
        for (p, c) in pooled.iter_mut().zip(&out.counts) {
            p.0 += c.0;
            p.1 += c.1;
        }
        if trace {
            let t1 = Instant::now();
            let (rep, led) = kind.replica(&engine, s);
            traced_walls.push((t1.elapsed().as_secs_f64(), wall));
            if rep != out {
                mismatches += 1;
                report.note(format!(
                    "traced replica of campaign {k} differs from the campaign"
                ));
            }
            ledger.absorb(led);
        }
        if timed {
            walls.push(wall);
        }
        k += 1;
    }

    let pooled_ok = in_band(&pooled, &band);
    report.note(format!(
        "pooled check over {k} campaigns: {} (run {:?} vs reference {:?})",
        if pooled_ok { "in band" } else { "OUT OF BAND" },
        pooled,
        band
    ));
    report.correct = report.failed == 0 && pooled_ok;

    let n = walls.len();
    report.note(format!(
        "{n} timed campaigns of {air:.4} air-s each after {WARMUP_S} s of warm-up; \
         job_p90 rests on {} samples beyond it",
        crate::stats::beyond(n, 0.9)
    ));
    report.set("realtime_x", air / median(&walls));
    report.set("job_p50_ms", quantile(&walls, 0.5) * 1e3);
    report.set("job_p90_ms", quantile(&walls, 0.9) * 1e3);
    report.set("jobs_per_s", n as f64 / walls.iter().sum::<f64>());

    if trace {
        let iterations = traced_walls.len() as f64;
        let coverage = ledger_metrics(&mut report, &ledger, iterations);
        let traced: Vec<f64> = traced_walls.iter().map(|t| t.0).collect();
        let untraced: Vec<f64> = traced_walls.iter().map(|t| t.1).collect();
        report.set("trace.overhead_x", median(&traced) / median(&untraced));
        if mismatches > 0 || coverage < MIN_COVERAGE {
            report.correct = false;
            report.note(format!(
                "traced run rejected: {mismatches} replica mismatches, coverage {coverage:.4}"
            ));
        }
    }
    report
}

/// Fills the ledger-derived per-layer metrics (busy times per iteration)
/// and returns `trace.coverage`: the share of unit time the named layers
/// account for.
pub fn ledger_metrics(report: &mut Report, led: &Ledger, iterations: f64) -> f64 {
    let per = |s: f64| s / iterations.max(1.0);
    let busy = |l: Layer| led.busy_s(l);
    let rate = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    report.set("channel.noise_busy_s", per(busy(Layer::Noise)));
    report.set(
        "channel.noise_msps",
        rate(led.noise_samples as f64 * 1e-6, busy(Layer::Noise)),
    );
    report.set("fpga.core_busy_s", per(busy(Layer::Core)));
    report.set(
        "fpga.core_realtime_x",
        rate(
            led.core_samples as f64 / rjam_sdr::USRP_SAMPLE_RATE,
            busy(Layer::Core),
        ),
    );
    report.set(
        "fpga.triggers_per_msample",
        rate(led.triggers as f64 * 1e6, led.core_samples as f64),
    );
    report.set(
        "fpga.detect_ratio",
        rate(led.detected as f64, led.frames as f64),
    );
    report.set(
        "phy80211.tx_us_per_frame",
        rate(busy(Layer::PhyTx) * 1e6, led.frames as f64),
    );
    report.set("sdr.resample_busy_s", per(busy(Layer::Resample)));
    report.set("sdr.frac_delay_busy_s", per(busy(Layer::FracDelay)));
    report.set("sdr.scale_busy_s", per(busy(Layer::Scale)));
    report.set("phy80216.gen_busy_s", per(busy(Layer::WimaxGen)));
    report.set("mac.sim_busy_s", per(busy(Layer::Mac)));
    report.set("mac.sim_x", rate(led.sim_s, busy(Layer::Mac)));
    report.set(
        "mac.jam_bursts_per_datagram",
        rate(led.jam_bursts as f64, led.datagrams as f64),
    );
    let (b, i, m) = (
        led.engine_busy_ns as f64 * 1e-9,
        led.engine_idle_ns as f64 * 1e-9,
        led.engine_merge_ns as f64 * 1e-9,
    );
    report.set("core.engine_busy_s", per(b));
    report.set("core.engine_idle_s", per(i));
    report.set("core.engine_merge_wait_s", per(m));
    report.set("core.engine_utilization", rate(b, b + i + m));
    let units: Vec<f64> = led.unit_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
    report.set("core.unit_p50_ms", quantile(&units, 0.5));
    report.set("core.unit_p99_ms", quantile(&units, 0.99));
    report.set("core.pool_setup_s", per(led.pool_ns as f64 * 1e-9));
    let unit_s: f64 = units.iter().sum::<f64>() * 1e-3;
    let coverage = rate(led.attributed_ns() as f64 * 1e-9, unit_s);
    report.set("trace.coverage", coverage);
    report.note(format!(
        "ledger over {iterations} traced iterations ({} units, {unit_s:.3} unit-s): {}",
        units.len(),
        crate::ledger::LAYERS
            .iter()
            .map(|&l| format!("{:?} {:.1}%", l, 100.0 * rate(busy(l), unit_s)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    coverage
}
