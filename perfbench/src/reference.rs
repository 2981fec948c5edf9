//! Reference outputs committed for the default seed (`reference.json`).
//!
//! Two kinds of reference, produced by `--write-reference`:
//!
//! * **bands** — `(successes, trials)` per point from one large
//!   default-seed campaign (FA triggers over 2^26 samples; detected
//!   frames over 4096 frames per SNR). Every run's outputs must fall in
//!   the binomial band around them (`stats::within_band`).
//! * **identity** — the exact output of one workload-sized default-seed
//!   campaign, and the export bytes of one default-seed job per `rjamd`
//!   kind. Each run recomputes these and reports whether the bytes are
//!   unchanged: a diagnostic, not a failure, so a numerics-changing
//!   speed-up is judged by the bands (and the paper), a same-bytes
//!   refactor shows as identical.

use crate::campaigns::{self, Kind, DEFAULT_SEED, DET_SNRS_DB};
use rjam_core::campaign::{CampaignSpec, WifiEmission};
use rjam_core::spec::JobCheckpoint;
use rjam_core::CampaignEngine;
use rjam_obs::json::{self, Value};
use std::collections::BTreeMap;

/// `(successes, trials)` of one binomial point.
pub type Counts = (u64, u64);

/// FA samples of the band reference: 256 engine units.
const BAND_FA_SAMPLES: usize = 256 * crate::replica::FA_UNIT_SAMPLES;
/// Frames per SNR point of the band reference.
const BAND_DET_FRAMES: usize = 4096;

/// The committed reference document.
pub struct Reference {
    fa_band: Vec<Counts>,
    det_band: Vec<Counts>,
    fa_identity: String,
    det_identity: String,
    job_identity: Vec<String>,
}

impl Reference {
    /// The reference compiled into this binary.
    pub fn committed() -> Result<Reference, String> {
        Reference::parse(include_str!("../reference.json"))
    }

    fn parse(text: &str) -> Result<Reference, String> {
        let doc = json::parse(text).map_err(|e| format!("reference.json: {e}"))?;
        let field = |k: &str| {
            doc.as_object().and_then(|o| o.get(k)).ok_or(format!(
                "reference.json: missing '{k}' (run --write-reference)"
            ))
        };
        let counts = |k: &str| -> Result<Vec<Counts>, String> {
            field(k)?
                .as_array()
                .ok_or(format!("reference.json: '{k}' is not an array"))?
                .iter()
                .map(|pair| match pair.as_array() {
                    Some([a, b]) => a.as_u64().zip(b.as_u64()),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()
                .ok_or(format!(
                    "reference.json: '{k}' must hold [successes, trials] pairs"
                ))
        };
        let text = |v: &Value| v.as_str().map(str::to_string);
        Ok(Reference {
            fa_band: counts("fa_noise_band")?,
            det_band: counts("detect_sweep_band")?,
            fa_identity: text(field("fa_noise_identity")?).ok_or("fa_noise_identity")?,
            det_identity: text(field("detect_sweep_identity")?).ok_or("detect_sweep_identity")?,
            job_identity: field("rjamd_jobs_identity")?
                .as_array()
                .and_then(|a| a.iter().map(text).collect())
                .ok_or("rjamd_jobs_identity must be an array of strings")?,
        })
    }

    /// Band reference points of a campaign workload.
    pub fn band(&self, kind: Kind) -> Vec<Counts> {
        match kind {
            Kind::FaNoise => self.fa_band.clone(),
            Kind::DetectSweep => self.det_band.clone(),
        }
    }

    /// Exact output of the workload-sized default-seed campaign.
    pub fn identity(&self, kind: Kind) -> &str {
        match kind {
            Kind::FaNoise => &self.fa_identity,
            Kind::DetectSweep => &self.det_identity,
        }
    }

    /// Export bytes of the default-seed job of each `rjamd` kind.
    pub fn job_identity(&self) -> &[String] {
        &self.job_identity
    }
}

/// Computes the reference document on `engine` (results do not depend on
/// the worker count) and renders it as JSON.
pub fn write(engine: &CampaignEngine) -> String {
    let pairs = |c: &[Counts]| {
        Value::Array(
            c.iter()
                .map(|&(k, n)| Value::Array(vec![Value::Number(k as f64), Value::Number(n as f64)]))
                .collect(),
        )
    };
    let fa = CampaignSpec::false_alarm(&campaigns::fa_preset())
        .samples(BAND_FA_SAMPLES)
        .seed(DEFAULT_SEED)
        .run_counts(engine);
    let det: Vec<Counts> = CampaignSpec::wifi_detection(&campaigns::det_preset())
        .emission(WifiEmission::FullFrames {
            psdu_len: crate::replica::PSDU_LEN,
        })
        .snrs(&DET_SNRS_DB)
        .trials(BAND_DET_FRAMES)
        .seed(DEFAULT_SEED)
        .run(engine)
        .iter()
        .map(|p| {
            let n = BAND_DET_FRAMES as u64;
            ((p.p_detect * n as f64).round() as u64, n)
        })
        .collect();
    let jobs = crate::jobs::identity_jobs()
        .iter()
        .map(|req| {
            Value::String(
                req.run_to_export(engine, &mut JobCheckpoint::new(), None)
                    .expect("uncancelled job completes"),
            )
        })
        .collect();
    let mut o = BTreeMap::new();
    o.insert("default_seed".into(), Value::Number(DEFAULT_SEED as f64));
    o.insert("fa_noise_band".into(), pairs(&[fa]));
    o.insert("detect_sweep_band".into(), pairs(&det));
    o.insert(
        "fa_noise_identity".into(),
        Value::String(Kind::FaNoise.campaign(engine, DEFAULT_SEED).exact),
    );
    o.insert(
        "detect_sweep_identity".into(),
        Value::String(Kind::DetectSweep.campaign(engine, DEFAULT_SEED).exact),
    );
    o.insert("rjamd_jobs_identity".into(), Value::Array(jobs));
    json::write_value(&Value::Object(o))
}
