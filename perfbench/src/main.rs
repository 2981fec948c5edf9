//! `rjam-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fa_noise|detect_sweep|rjamd_jobs|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` holding every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). See `perfbench/README.md` for the workloads, the
//! metrics and how to read them.

mod campaigns;
mod host;
mod jobs;
mod ledger;
mod reference;
mod replica;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0` on every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("realtime_x", "x"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A layer
/// that does no work on a workload reports 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("channel.noise_busy_s", "s"),
    ("channel.noise_msps", "MS/s"),
    ("fpga.core_busy_s", "s"),
    ("fpga.core_realtime_x", "x"),
    ("fpga.triggers_per_msample", "1/MS"),
    ("fpga.detect_ratio", "ratio"),
    ("fpga.xcorr_busy_s", "s"),
    ("fpga.energy_busy_s", "s"),
    ("fpga.jam_wgn_realtime_x", "x"),
    ("fpga.unattributed_share", "share"),
    ("phy80211.tx_us_per_frame", "us"),
    ("sdr.resample_busy_s", "s"),
    ("sdr.frac_delay_busy_s", "s"),
    ("sdr.scale_busy_s", "s"),
    ("phy80216.gen_busy_s", "s"),
    ("mac.sim_busy_s", "s"),
    ("mac.sim_x", "x"),
    ("mac.jam_bursts_per_datagram", "ratio"),
    ("core.engine_busy_s", "s"),
    ("core.engine_idle_s", "s"),
    ("core.engine_merge_wait_s", "s"),
    ("core.engine_utilization", "share"),
    ("core.unit_p50_ms", "ms"),
    ("core.unit_p99_ms", "ms"),
    ("core.pool_setup_s", "s"),
    ("core.spec_parse_us_p50", "us"),
    ("daemon.submit_us_p50", "us"),
    ("daemon.queue_wait_ms_p50", "ms"),
    ("daemon.queue_wait_ms_p90", "ms"),
    ("daemon.run_ms_p50", "ms"),
    ("daemon.finish_ms_p50", "ms"),
    ("daemon.queue_depth_max", "count"),
    ("daemon.rejected_ratio", "ratio"),
    ("trace.coverage", "share"),
    ("trace.overhead_x", "x"),
    ("host.calib_ms", "ms"),
    ("host.nproc", "count"),
    ("gen.lag_ms_p99", "ms"),
    ("fail_ratio", "ratio"),
];

/// The workloads, in report order.
const WORKLOADS: [&str; 3] = ["fa_noise", "detect_sweep", "rjamd_jobs"];

/// Calibration samples taken before and again after the workload.
const CALIB_SAMPLES: usize = 15;

/// Cold starts `setup_s` takes the median of.
const SETUP_PROBES: usize = 21;

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output passed its check (and, traced, the ledger checks).
    pub correct: bool,
    /// Operations attempted (campaigns or job submissions).
    pub attempted: u64,
    /// Operations whose output failed its check, refused or lost.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Records metric `name`, which must be one of the declared metrics.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(k, _)| *k)
            .find(|k| *k == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics.insert(key, value);
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

enum Mode {
    Run,
    SetupProbe,
    MemoryProbe,
    WriteReference,
    SelfTest,
}

const USAGE: &str = "usage: rjam-perfbench --workload <fa_noise|detect_sweep|rjamd_jobs|all> \
[--seed N] [--seconds S] [--trace 0|1] | --write-reference | --self-test [--seed N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: campaigns::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--setup-probe" => args.mode = Mode::SetupProbe,
            "--memory-probe" => args.mode = Mode::MemoryProbe,
            "--write-reference" => args.mode = Mode::WriteReference,
            "--self-test" => args.mode = Mode::SelfTest,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let known = args.workload == "all" || WORKLOADS.contains(&args.workload.as_str());
    if matches!(args.mode, Mode::Run | Mode::SetupProbe | Mode::MemoryProbe) && !known {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// Samples the setup probe's one unit of work streams: enough to touch
/// every lazily built table, little enough that process start, engine
/// and pool construction dominate.
const PROBE_SAMPLES: usize = 4096;

/// One cold start of `workload`, run in a child process: engine (or
/// service) construction through the first completed unit of work.
fn setup_probe(workload: &str) {
    let engine = rjam_core::CampaignEngine::with_threads(host::nproc());
    match workload {
        "fa_noise" => {
            rjam_core::campaign::CampaignSpec::false_alarm(&campaigns::fa_preset())
                .samples(PROBE_SAMPLES)
                .run_counts(&engine);
        }
        "detect_sweep" => {
            rjam_core::campaign::CampaignSpec::wifi_detection(&campaigns::det_preset())
                .snrs(&[0.0])
                .trials(1)
                .run(&engine);
        }
        _ => {
            let daemon = rjam_daemon::Daemon::start(engine, rjam_daemon::DEFAULT_QUEUE_CAP);
            let spec = rjam_core::spec::CampaignRequest::FalseAlarm {
                preset: campaigns::fa_preset(),
                samples: PROBE_SAMPLES,
                seed: campaigns::DEFAULT_SEED,
            };
            let records = jobs::open_loop(&daemon, &[spec], 1.0);
            daemon.shutdown();
            assert!(
                records[0].export.is_some(),
                "setup probe job did not finish"
            );
        }
    }
}

/// Median wall time of `SETUP_PROBES` cold starts of `workload`, each its
/// own process, from spawn to exit.
fn setup_s(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let t0 = Instant::now();
        let status = Command::new(&exe)
            .args(["--setup-probe", "--workload", workload])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawning setup probe: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("setup probe exited with {status}"));
        }
    }
    Ok(stats::median(&times))
}

/// Allocator setting of the memory probe: one malloc arena, so the peak
/// follows the workload's live memory, not which arena each short-lived
/// engine worker thread happened to draw (that alone moves the default
/// allocator's peak by ±25 % between identical runs).
const PROBE_ARENAS: (&str, &str) = ("MALLOC_ARENA_MAX", "1");

/// Campaigns (or one schedule cycle of jobs) the memory probe runs.
const PROBE_CAMPAIGNS: u64 = 4;

/// A fixed slice of `workload` at `seed`, run in a child process: four
/// campaigns, or the first sixteen arrivals of the job schedule (one of
/// every kind × size) through a fresh daemon. Prints the peak RSS.
fn memory_probe(workload: &str, seed: u64) {
    let engine = rjam_core::CampaignEngine::with_threads(host::nproc());
    match campaigns::Kind::from_name(workload) {
        Some(kind) => {
            for k in 0..PROBE_CAMPAIGNS {
                kind.campaign(&engine, campaigns::campaign_seed(seed, k));
            }
        }
        None => {
            let daemon = rjam_daemon::Daemon::start(engine, rjam_daemon::DEFAULT_QUEUE_CAP);
            let records = jobs::open_loop(&daemon, &jobs::schedule(seed, 16), jobs::OFFERED_RATE);
            daemon.shutdown();
            assert!(
                records.iter().all(|r| r.export.is_some()),
                "memory probe job did not finish"
            );
        }
    }
    println!("{}", host::rss_peak_mb());
}

/// Peak RSS of the memory probe of `workload`, MiB.
fn rss_peak_mb(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--memory-probe",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .env(PROBE_ARENAS.0, PROBE_ARENAS.1)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning memory probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("memory probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("memory probe output: {e}"))
}

/// Runs one workload in this process and returns its report.
fn run_workload(args: &Args) -> Result<Report, String> {
    let reference = reference::Reference::committed()?;
    let setup = setup_s(&args.workload)?;
    let rss = rss_peak_mb(&args.workload, args.seed)?;
    let mut report = match campaigns::Kind::from_name(&args.workload) {
        Some(kind) => campaigns::run(kind, args.seed, args.seconds, args.trace, &reference),
        None => jobs::run(args.seed, args.seconds, args.trace, &reference),
    };
    report.set("setup_s", setup);
    report.set("rss_peak_mb", rss);
    report.set(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("host.nproc", host::nproc() as f64);
    if args.trace {
        let split = replica::stage_split(
            &campaigns::fa_preset(),
            campaigns::FA_SAMPLES,
            campaigns::campaign_seed(args.seed, 0),
        );
        report.set("fpga.xcorr_busy_s", split.xcorr_s);
        report.set("fpga.energy_busy_s", split.energy_s);
        report.set(
            "fpga.jam_wgn_realtime_x",
            split.samples as f64 / rjam_sdr::USRP_SAMPLE_RATE / split.wgn_s,
        );
        report.set(
            "fpga.unattributed_share",
            ((split.core_s - split.xcorr_s - split.energy_s) / split.core_s).max(0.0),
        );
        report.note(format!(
            "stage split over {} fa_noise samples: core {:.4} s, xcorr {:.4} s, energy {:.4} s, WGN {:.4} s",
            split.samples, split.core_s, split.xcorr_s, split.energy_s, split.wgn_s
        ));
    }
    Ok(report)
}

/// Renders the result line and the metric table for `report`.
fn render(report: &mut Report, trace: bool) -> (Vec<String>, String) {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut table = Vec::with_capacity(declared.len());
    let mut fields = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let mut value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            report.correct = false;
            table.push(format!(
                "metric {name} was not finite ({value}); reported as 0"
            ));
            value = 0.0;
        }
        table.push(format!("{name:<30} {value:>16.6} {unit}"));
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    (table, line)
}

/// Runs every workload in a child process of its own and prints one
/// combined report; metric names are prefixed with the workload.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut correct, mut attempted, mut failed, mut fields) = (true, 0u64, 0u64, Vec::new());
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning {w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("{w} exited with {}", out.status));
        }
        let last = text.lines().last().unwrap_or_default();
        for l in text.lines().filter(|l| *l != last) {
            println!("[{w}] {l}");
        }
        let doc = rjam_obs::json::parse(last).map_err(|e| format!("{w} result line: {e}"))?;
        let obj = doc.as_object().ok_or("result line is not an object")?;
        correct &= matches!(obj.get("correct"), Some(rjam_obs::json::Value::Bool(true)));
        attempted += obj.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += obj.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        for (name, m) in obj
            .get("metrics")
            .and_then(|m| m.as_object())
            .into_iter()
            .flatten()
        {
            let value = m
                .as_object()
                .and_then(|o| o.get("value"))
                .and_then(|v| v.as_f64());
            let unit = m
                .as_object()
                .and_then(|o| o.get("unit"))
                .and_then(|v| v.as_str());
            fields.push(format!(
                "\"{w}.{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                value.unwrap_or(0.0),
                unit.unwrap_or("")
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rjam-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode {
        Mode::SetupProbe => {
            setup_probe(&args.workload);
            Ok(())
        }
        Mode::MemoryProbe => {
            memory_probe(&args.workload, args.seed);
            Ok(())
        }
        Mode::WriteReference => {
            let engine = rjam_core::CampaignEngine::with_threads(host::nproc());
            println!("{}", reference::write(&engine));
            Ok(())
        }
        Mode::SelfTest => jobs::self_test(args.seed).map(|lines| {
            for l in lines {
                println!("{l}");
            }
            println!("self-test passed");
        }),
        Mode::Run if args.workload == "all" => run_all(&args),
        Mode::Run => {
            println!(
                "host: nproc={} cpu=\"{}\"",
                host::nproc(),
                host::cpu_model()
            );
            let mut calib = host::Calibrator::new();
            calib.sample(CALIB_SAMPLES);
            run_workload(&args).map(|mut report| {
                calib.sample(CALIB_SAMPLES);
                report.set("host.calib_ms", calib.median_ms());
                report.note(format!(
                    "runner calibration (reference correlator, {} threads): {:.4} ms",
                    host::nproc(),
                    calib.median_ms()
                ));
                println!(
                    "workload={} seed={} seconds={} trace={}",
                    args.workload, args.seed, args.seconds, args.trace as u8
                );
                let (table, line) = render(&mut report, args.trace);
                for l in report.notes.iter().chain(&table) {
                    println!("{l}");
                }
                println!("{line}");
            })
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rjam-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
