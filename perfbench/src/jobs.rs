//! The `rjamd_jobs` workload: an open loop of independent users
//! submitting small campaign jobs to one in-process `rjamd` service
//! (`rjam_daemon::Daemon`) at a fixed offered rate, through the same
//! `serve_line` / `watch` calls the socket front-end makes.
//!
//! Every job is timed from its *due* time, so a generator or service
//! stall charges every job it delays; refused submits and jobs that never
//! reach `job_done` count as failures. `Daemon::start` installs the
//! process-wide progress sink, so this workload owns its process.

use crate::campaigns::{self, campaign_seed, frame_stream_len, DEFAULT_SEED, DET_SNRS_DB};
use crate::ledger::Ledger;
use crate::reference::Reference;
use crate::replica::{FA_UNIT_SAMPLES, PSDU_LEN};
use crate::stats::{median, quantile};
use crate::Report;
use rjam_core::campaign::{ChannelModel, JammerUnderTest, WifiEmission};
use rjam_core::spec::{CampaignRequest, JobCheckpoint};
use rjam_core::CampaignEngine;
use rjam_daemon::{Daemon, JobRequest, JobResponse, Serve, DEFAULT_QUEUE_CAP};
use rjam_obs::stream::ProgressEvent;
use rjam_sdr::rng::Rng;
use std::time::{Duration, Instant};

/// Offered load, jobs per second. The mix below averages ~50 ms of
/// service at 2 workers (capacity ~20 jobs/s on a 2-core Xeon), so this
/// rate loads the service to ~30 %. At ~50 % the shared runner's slow
/// spells (service times up by a third) tipped the longest jobs into
/// queueing and doubled p90 from one run to the next; at ~30 % the
/// percentiles follow service time and queue wait stays visible but
/// small.
pub const OFFERED_RATE: f64 = 6.0;
/// How long after the last due time unfinished jobs may still complete
/// before they are cancelled and counted as failed.
const DRAIN_S: f64 = 60.0;
/// Job kinds of the mix.
pub const KINDS: usize = 4;
/// Sizes per kind; one cycle of the schedule holds every kind × size.
const SIZES: usize = 4;

/// The job of `kind` at size step `size` (1..=`SIZES`) with campaign
/// seed `seed`: a `size`×2^18-sample false-alarm run, a 6-SNR sweep of
/// 16·`size` frames per point, `size` WiMAX frames against the fused
/// detector with a reactive WGN jam, or a 2-point reactive-short iperf
/// jamming sweep of 0.1·`size` s. Each step adds ~15–20 ms of service
/// on a 2-core Xeon, so the sixteen jobs of a cycle spread evenly over
/// ~20–90 ms and the turnaround percentiles sit on a smooth distribution
/// instead of jumping between per-kind modes.
pub fn job(kind: usize, size: usize, seed: u64) -> CampaignRequest {
    match kind % KINDS {
        0 => CampaignRequest::FalseAlarm {
            preset: campaigns::fa_preset(),
            samples: size * FA_UNIT_SAMPLES,
            seed,
        },
        1 => CampaignRequest::WifiDetection {
            preset: campaigns::det_preset(),
            emission: WifiEmission::FullFrames { psdu_len: PSDU_LEN },
            channel: ChannelModel::Awgn,
            snrs_db: DET_SNRS_DB.to_vec(),
            frames_per_point: 16 * size,
            seed,
        },
        2 => CampaignRequest::Wimax {
            fused: true,
            frames: size,
            snr_db: 20.0,
            threshold: 0.45,
            seed,
        },
        _ => CampaignRequest::Jamming {
            jammer: JammerUnderTest::ReactiveShort,
            sirs_db: vec![14.0, 25.0],
            duration_s: 0.1 * size as f64,
            seed,
        },
    }
}

/// One default-seed job per kind at the middle size: the byte-identity
/// reference set.
pub fn identity_jobs() -> Vec<CampaignRequest> {
    (0..KINDS).map(|k| job(k, 2, DEFAULT_SEED)).collect()
}

/// The first `n` arrivals for workload seed `seed`: cycles of all
/// kind × size jobs in a seed-shuffled order, each job with its own
/// campaign seed. Every cycle holds the same sixteen job sizes, so the
/// offered work does not depend on the seed.
pub fn schedule(seed: u64, n: usize) -> Vec<CampaignRequest> {
    let mut out = Vec::with_capacity(n);
    let mut cycle = 0u64;
    while out.len() < n {
        let mut order: Vec<usize> = (0..KINDS * SIZES).collect();
        let mut rng = Rng::seed_from(campaign_seed(seed ^ 0x0b5e_55ed, cycle));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for slot in order {
            let i = out.len() as u64;
            out.push(job(slot % KINDS, 1 + slot / KINDS, campaign_seed(seed, i)));
        }
        cycle += 1;
    }
    out.truncate(n);
    out
}

/// Samples a job pushes through the DSP core (MAC jobs push none).
fn air_samples(req: &CampaignRequest, det_frame_len: u64, wimax_frame_len: u64) -> u64 {
    match req {
        CampaignRequest::FalseAlarm { samples, .. } => *samples as u64,
        CampaignRequest::WifiDetection {
            snrs_db,
            frames_per_point,
            ..
        } => (snrs_db.len() * frames_per_point) as u64 * det_frame_len,
        CampaignRequest::Wimax { frames, .. } => *frames as u64 * wimax_frame_len,
        CampaignRequest::Jamming { .. } => 0,
    }
}

/// Samples one WiMAX frame occupies at 25 MSPS after resampling and the
/// fractional delay (depends only on the frame length).
fn wimax_frame_stream_len() -> u64 {
    let frame = vec![rjam_sdr::complex::Cf64::ZERO; rjam_phy80216::FRAME_SAMPLES];
    let up = rjam_sdr::resample::to_usrp_rate(&frame, rjam_sdr::WIMAX_SAMPLE_RATE);
    rjam_sdr::resample::fractional_delay(&up, 0.5).len() as u64
}

/// What happened to one arrival.
#[derive(Debug, Default)]
pub struct JobRecord {
    /// Due time, seconds after the loop's start.
    pub due_s: f64,
    /// Generator lateness: submit call start minus due time, seconds.
    pub lag_s: f64,
    /// `serve_line` time of the submit, seconds.
    pub submit_s: f64,
    /// Submit return (accepted), seconds after start.
    pub accepted_s: Option<f64>,
    /// Queue depth the daemon reported at acceptance.
    pub queue_depth: u64,
    /// Refusal line, if the submit was refused.
    pub refused: Option<String>,
    /// First progress line (`campaign_started`), seconds after start.
    pub started_s: Option<f64>,
    /// Campaign wall time the engine reports on its `campaign_done`
    /// line, seconds. Watchers wake late enough that `campaign_done` and
    /// `job_done` often arrive in one batch, so the program's own figure
    /// times the run and the remainder of started → `job_done` is the
    /// finish (export, metrics snapshot, delivery).
    pub run_s: Option<f64>,
    /// `job_done` line, seconds after start.
    pub done_s: Option<f64>,
    /// The export carried by `job_done`.
    pub export: Option<String>,
}

impl JobRecord {
    /// Turnaround from due time to `job_done`, seconds.
    pub fn turnaround_s(&self) -> Option<f64> {
        self.done_s.map(|d| d - self.due_s)
    }
}

/// Watch stream timestamps of one job.
#[derive(Default)]
struct Watched {
    started_s: Option<f64>,
    run_s: Option<f64>,
    done_s: Option<f64>,
    export: Option<String>,
}

fn watch(daemon: &Daemon, id: &str, t0: Instant) -> Watched {
    let mut w = Watched::default();
    let line = JobRequest::Watch {
        job: id.to_string(),
    }
    .to_line();
    let Serve::Watch(id) = daemon.serve_line(&line) else {
        return w;
    };
    let _ = daemon.watch(&id, &mut |line: &str| {
        let at = t0.elapsed().as_secs_f64();
        if line.contains("\"campaign_started\"") {
            w.started_s.get_or_insert(at);
        } else if line.contains("\"campaign_done\"") {
            if let Ok(ProgressEvent::Done { elapsed_ns, .. }) = ProgressEvent::from_line(line) {
                w.run_s = Some(elapsed_ns as f64 * 1e-9);
            }
        } else if line.contains("\"job_done\"") {
            if let Ok(JobResponse::Done { export, .. }) = JobResponse::from_line(line) {
                w.done_s = Some(at);
                w.export = Some(export);
            }
        }
        Ok(())
    });
    w
}

/// Runs `jobs` through `daemon` as an open loop at `rate` jobs/s. Returns
/// one record per arrival. Jobs unfinished `DRAIN_S` after the last due
/// time are cancelled.
pub fn open_loop(daemon: &Daemon, jobs: &[CampaignRequest], rate: f64) -> Vec<JobRecord> {
    let lines: Vec<String> = jobs
        .iter()
        .map(|spec| JobRequest::Submit { spec: spec.clone() }.to_line())
        .collect();
    let t0 = Instant::now();
    let mut records: Vec<JobRecord> = Vec::with_capacity(jobs.len());
    std::thread::scope(|s| {
        let mut watchers = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let due_s = i as f64 / rate;
            let now = t0.elapsed().as_secs_f64();
            if due_s > now {
                std::thread::sleep(Duration::from_secs_f64(due_s - now));
            }
            let mut rec = JobRecord {
                due_s,
                lag_s: t0.elapsed().as_secs_f64() - due_s,
                ..JobRecord::default()
            };
            let ts = Instant::now();
            let reply = daemon.serve_line(line);
            rec.submit_s = ts.elapsed().as_secs_f64();
            let reply = match reply {
                Serve::Lines(lines) => lines.into_iter().next().unwrap_or_default(),
                Serve::Watch(_) => String::from("unexpected watch reply to a submit"),
            };
            match JobResponse::from_line(&reply) {
                Ok(JobResponse::Accepted { job, queue_depth }) => {
                    rec.accepted_s = Some(t0.elapsed().as_secs_f64());
                    rec.queue_depth = queue_depth;
                    watchers.push((i, job.clone(), s.spawn(move || watch(daemon, &job, t0))));
                }
                _ => rec.refused = Some(reply),
            }
            records.push(rec);
        }
        let deadline = lines.len() as f64 / rate + DRAIN_S;
        while watchers.iter().any(|w| !w.2.is_finished()) && t0.elapsed().as_secs_f64() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        for (_, id, h) in &watchers {
            if !h.is_finished() {
                // Unit-granular: returns once the job has parked, which
                // ends its watch with `job_cancelled`.
                let _ = daemon.cancel(id);
            }
        }
        for (i, _, h) in watchers {
            let w = h.join().expect("watcher thread panicked");
            let rec = &mut records[i];
            rec.started_s = w.started_s;
            rec.run_s = w.run_s;
            rec.done_s = w.done_s;
            rec.export = w.export;
        }
    });
    records
}

/// Summary of an open-loop run.
pub struct LoopStats {
    /// Turnarounds from due time, ms; a failed job counts as the drain
    /// deadline (it missed any latency limit).
    pub turnaround_ms: Vec<f64>,
    /// Jobs completed per second: completions over the span between the
    /// first and last completion.
    pub jobs_per_s: f64,
    /// Jobs that reached `job_done`.
    pub done: usize,
    /// Refused submits.
    pub refused: usize,
}

/// Summarises `records`.
pub fn loop_stats(records: &[JobRecord]) -> LoopStats {
    let deadline_s = records.last().map_or(0.0, |r| r.due_s) + DRAIN_S;
    let turnaround_ms = records
        .iter()
        .map(|r| r.turnaround_s().unwrap_or(deadline_s - r.due_s) * 1e3)
        .collect();
    let dones: Vec<f64> = records.iter().filter_map(|r| r.done_s).collect();
    let first = dones.iter().copied().fold(f64::INFINITY, f64::min);
    let last = dones.iter().copied().fold(0.0, f64::max);
    LoopStats {
        turnaround_ms,
        jobs_per_s: if dones.len() > 1 {
            (dones.len() - 1) as f64 / (last - first)
        } else {
            0.0
        },
        done: dones.len(),
        refused: records.iter().filter(|r| r.refused.is_some()).count(),
    }
}

/// Runs the `rjamd_jobs` workload for `seconds` of arrivals.
pub fn run(seed: u64, seconds: f64, trace: bool, reference: &Reference) -> Report {
    let threads = crate::host::nproc();
    let n = ((seconds * OFFERED_RATE).round() as usize).max(2);
    let jobs = schedule(seed, n);
    let (det_len, wimax_len) = (frame_stream_len(), wimax_frame_stream_len());

    // The default-seed identity jobs double as warm-up: threads, lazily
    // built tables and the allocator settle before the first arrival.
    let engine = CampaignEngine::with_threads(threads);
    let identical = reference.job_identity().len() == KINDS
        && identity_jobs()
            .iter()
            .zip(reference.job_identity())
            .all(|(req, bytes)| {
                req.run_to_export(&engine, &mut JobCheckpoint::new(), None)
                    .as_deref()
                    == Some(bytes)
            });

    let daemon = Daemon::start(CampaignEngine::with_threads(threads), DEFAULT_QUEUE_CAP);
    let records = open_loop(&daemon, &jobs, OFFERED_RATE);
    daemon.shutdown();

    let mut report = Report::default();
    report.note(format!(
        "default-seed job exports byte-identical to committed reference: {identical}"
    ));
    let stats = loop_stats(&records);
    report.attempted = records.len() as u64;

    // Output check: every export must equal a direct run of its spec.
    let mut ledger = Ledger::default();
    let (mut direct_s, mut traced_s, mut parse_us) = (0.0, 0.0, Vec::new());
    let mut mismatches = 0u64;
    for (i, (rec, req)) in records.iter().zip(&jobs).enumerate() {
        let Some(export) = &rec.export else {
            report.failed += 1;
            report.note(format!(
                "job {i} ({}) failed: {}",
                req.kind(),
                rec.refused.as_deref().unwrap_or("no job_done line")
            ));
            continue;
        };
        let t = Instant::now();
        let direct = req
            .run_to_export(&engine, &mut JobCheckpoint::new(), None)
            .expect("uncancelled job completes");
        direct_s += t.elapsed().as_secs_f64();
        if &direct != export {
            report.failed += 1;
            report.note(format!(
                "job {i} ({}) export differs from a direct run",
                req.kind()
            ));
        }
        if trace {
            let text = req.to_json();
            let t = Instant::now();
            let parsed = CampaignRequest::from_json(&text);
            parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            if parsed.as_ref() != Ok(req) {
                mismatches += 1;
                report.note(format!(
                    "job {i} spec does not round-trip through from_json"
                ));
            }
            let t = Instant::now();
            let (replica, led) = crate::replica::export(&engine, req);
            traced_s += t.elapsed().as_secs_f64();
            ledger.absorb(led);
            if &replica != export {
                mismatches += 1;
                report.note(format!(
                    "traced replica of job {i} ({}) differs",
                    req.kind()
                ));
            }
        }
    }
    report.correct = report.failed == 0 && mismatches == 0;

    let (first_due, last_done) = (
        records.first().map_or(0.0, |r| r.due_s),
        records.iter().filter_map(|r| r.done_s).fold(0.0, f64::max),
    );
    let air: u64 = records
        .iter()
        .zip(&jobs)
        .filter(|(r, _)| r.export.is_some())
        .map(|(_, j)| air_samples(j, det_len, wimax_len))
        .sum();
    report.note(format!(
        "{} arrivals at {OFFERED_RATE} jobs/s (open loop), {} done, {} refused; \
         job_p90 rests on {} samples beyond it",
        records.len(),
        stats.done,
        stats.refused,
        crate::stats::beyond(records.len(), 0.9)
    ));
    for kind in identity_jobs().iter().map(CampaignRequest::kind) {
        let of_kind = |f: &dyn Fn(&JobRecord) -> Option<f64>| -> Vec<f64> {
            records
                .iter()
                .zip(&jobs)
                .filter(|(_, j)| j.kind() == kind)
                .filter_map(|(r, _)| f(r))
                .map(|s| s * 1e3)
                .collect()
        };
        report.note(format!(
            "{kind}: turnaround p50 {:.1} ms, run p50 {:.1} ms, queue wait p50 {:.2} ms",
            median(&of_kind(&|r| r.turnaround_s())),
            median(&of_kind(&|r| r.run_s)),
            median(&of_kind(&|r| Some(r.started_s? - r.accepted_s?))),
        ));
    }
    report.set(
        "realtime_x",
        air as f64 / rjam_sdr::USRP_SAMPLE_RATE / (last_done - first_due).max(1e-9),
    );
    report.set("job_p50_ms", quantile(&stats.turnaround_ms, 0.5));
    report.set("job_p90_ms", quantile(&stats.turnaround_ms, 0.9));
    report.set("jobs_per_s", stats.jobs_per_s);

    let accepted: Vec<&JobRecord> = records.iter().filter(|r| r.accepted_s.is_some()).collect();
    let span = |f: &dyn Fn(&JobRecord) -> Option<f64>| -> Vec<f64> {
        accepted
            .iter()
            .filter_map(|r| f(r))
            .map(|s| s * 1e3)
            .collect()
    };
    let waits = span(&|r| Some(r.started_s? - r.accepted_s?));
    report.set(
        "daemon.submit_us_p50",
        median(&records.iter().map(|r| r.submit_s * 1e6).collect::<Vec<_>>()),
    );
    report.set("daemon.queue_wait_ms_p50", quantile(&waits, 0.5));
    report.set("daemon.queue_wait_ms_p90", quantile(&waits, 0.9));
    report.set("daemon.run_ms_p50", median(&span(&|r| r.run_s)));
    report.set(
        "daemon.finish_ms_p50",
        median(&span(&|r| Some(r.done_s? - r.started_s? - r.run_s?))),
    );
    report.set(
        "daemon.queue_depth_max",
        records.iter().map(|r| r.queue_depth).max().unwrap_or(0) as f64,
    );
    report.set(
        "daemon.rejected_ratio",
        stats.refused as f64 / records.len() as f64,
    );
    report.set(
        "gen.lag_ms_p99",
        quantile(
            &records.iter().map(|r| r.lag_s * 1e3).collect::<Vec<_>>(),
            0.99,
        ),
    );

    if trace {
        let coverage = crate::campaigns::ledger_metrics(&mut report, &ledger, stats.done as f64);
        report.set("core.spec_parse_us_p50", median(&parse_us));
        report.set("trace.overhead_x", traced_s / direct_s.max(1e-9));
        if mismatches > 0 {
            report.correct = false;
            report.note(format!(
                "traced run rejected: {mismatches} mismatches (coverage {coverage:.4})"
            ));
        }
    }
    report
}

/// Open-loop honesty self-test: offers four times the measured capacity
/// for a few seconds and checks that the benchmark sees it — turnaround
/// grows over the run, completions fall below the offered rate and
/// refusals are counted. Returns the verdict lines; `Err` on a failed
/// expectation.
pub fn self_test(seed: u64) -> Result<Vec<String>, String> {
    let threads = crate::host::nproc();
    let engine = CampaignEngine::with_threads(threads);
    let t = Instant::now();
    for req in identity_jobs() {
        req.run_to_export(&engine, &mut JobCheckpoint::new(), None);
    }
    let capacity = KINDS as f64 / t.elapsed().as_secs_f64();
    let rate = 4.0 * capacity;
    let jobs = schedule(seed, (rate * 3.0).round() as usize);
    let daemon = Daemon::start(CampaignEngine::with_threads(threads), DEFAULT_QUEUE_CAP);
    let records = open_loop(&daemon, &jobs, rate);
    daemon.shutdown();
    let stats = loop_stats(&records);
    // The bounded queue fills within the first second, so compare the
    // first few completions (before a backlog exists) with the last third.
    let done: Vec<f64> = records.iter().filter_map(JobRecord::turnaround_s).collect();
    let third = (done.len() / 3).max(1);
    let (early, late) = (
        median(&done[..KINDS.min(done.len())]),
        median(&done[done.len() - third..]),
    );
    let lines = vec![
        format!("measured capacity {capacity:.2} jobs/s; offered {rate:.2} jobs/s"),
        format!(
            "completed {:.2} jobs/s; {} of {} refused",
            stats.jobs_per_s,
            stats.refused,
            records.len()
        ),
        format!(
            "median turnaround: first {KINDS} jobs {:.1} ms, last third {:.1} ms",
            early * 1e3,
            late * 1e3
        ),
    ];
    let mut failures = Vec::new();
    if stats.jobs_per_s >= rate {
        failures.push("completions kept up with an offered rate above capacity");
    }
    if late <= 2.0 * early {
        failures.push("turnaround did not grow under overload");
    }
    if stats.refused == 0 {
        failures.push("a bounded queue under overload refused nothing");
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(format!(
            "{}\nself-test FAILED: {}",
            lines.join("\n"),
            failures.join("; ")
        ))
    }
}
