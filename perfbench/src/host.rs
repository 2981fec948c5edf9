//! Host description and the runner-drift guard.
//!
//! Absolute times move when the runner changes. Every run therefore
//! records the worker count, the CPU model and the time of a fixed
//! in-process calibration kernel (`host.calib_ms`), so a slower runner
//! shows up as the calibration moving rather than as a phantom
//! regression of the code.

use rjam_fpga::xcorr::{Coeff3, CrossCorrelator};
use rjam_sdr::complex::IqI16;
use rjam_sdr::rng::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Worker threads the engine runs with: the machine's available
/// parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far in MiB (`VmHWM`), or
/// 0 where `/proc` is unavailable.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Samples each thread streams per calibration sample.
const CALIB_SAMPLES: usize = 1 << 14;

/// The runner-speed probe: the reference (scalar) 64-tap correlator,
/// `CrossCorrelator::push_reference`, over a fixed block on every worker
/// thread at once. No campaign path uses that kernel, so code changes
/// leave it alone and only the runner moves it. It is sampled before
/// and after the measured window, never inside it.
pub struct Calibrator {
    coeffs: Vec<Coeff3>,
    input: Vec<IqI16>,
    samples_ms: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// A calibrator with a fixed template and input block.
    pub fn new() -> Self {
        let mut rng = Rng::seed_from(0xCA11_B8A7);
        let coeffs = (0..64)
            .map(|_| Coeff3::new(rng.below(7) as i8 - 3))
            .collect();
        let input = (0..CALIB_SAMPLES)
            .map(|_| IqI16::new(rng.below(4096) as i16 - 2048, rng.below(4096) as i16 - 2048))
            .collect();
        Calibrator {
            coeffs,
            input,
            samples_ms: Vec::new(),
        }
    }

    /// Takes `n` samples; each is the milliseconds `nproc()` threads take
    /// to each stream the block through the reference correlator.
    pub fn sample(&mut self, n: usize) {
        let (coeffs, input) = (&self.coeffs, &self.input);
        for _ in 0..n {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..nproc() {
                    s.spawn(|| {
                        let mut xc = CrossCorrelator::new();
                        xc.load_coeffs(coeffs, coeffs);
                        for &x in input {
                            black_box(xc.push_reference(black_box(x)));
                        }
                    });
                }
            });
            self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Median of the samples taken so far (`host.calib_ms`).
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }
}
