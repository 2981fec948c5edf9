//! Tier-1 limits of the JSON protocol boundary.
//!
//! * Hostile nesting (`[[[[...`) must come back as a parse error, not
//!   recurse the parser off the stack and abort `rjamd` with every queued
//!   job.
//! * Integers must be exact: a number above 2^53 (where `f64` stops
//!   holding every integer) or a cell id above 255 is rejected with its
//!   real value, never saturated into something that validates.

use rjam::core::spec::CampaignRequest;
use rjam::core::{DetectionPreset, SpecError};
use rjam_obs::json;
use rjam_obs::proto::ParseError;

/// A false-alarm request with the raw JSON number texts `samples` and
/// `seed` spliced in.
fn false_alarm_json(samples: &str, seed: &str) -> String {
    format!(
        r#"{{"campaign":"false_alarm","preset":{{"kind":"wifi_short","threshold":0.4}},"samples":{samples},"seed":{seed}}}"#
    )
}

/// A false-alarm request on a WiMAX preset with the raw `id_cell` text.
fn wimax_preset_json(id_cell: &str) -> String {
    format!(
        r#"{{"campaign":"false_alarm","preset":{{"kind":"wimax","id_cell":{id_cell},"segment":0,"threshold":0.4}},"samples":1000,"seed":1}}"#
    )
}

#[test]
fn deep_nesting_is_a_parse_error() {
    let deep = "[".repeat(400_000);
    let err = json::parse(&deep).unwrap_err();
    assert!(err.contains("nesting deeper"), "{err}");
    let deep_obj = r#"{"a":"#.repeat(400_000);
    assert!(json::parse(&deep_obj).is_err());

    let request = format!(r#"{{"campaign":"false_alarm","preset":{deep}"#);
    match CampaignRequest::from_json(&request) {
        Err(SpecError::Parse(ParseError::Json(msg))) => assert!(msg.contains("nesting"), "{msg}"),
        other => panic!("expected a JSON parse error, got {other:?}"),
    }
}

#[test]
fn ordinary_nesting_still_parses() {
    let nested = format!("{}1{}", "[".repeat(64), "]".repeat(64));
    assert!(json::parse(&nested).is_ok());
    assert!(CampaignRequest::from_json(&false_alarm_json("1000", "1")).is_ok());
}

#[test]
fn integers_above_two_to_the_53_are_rejected() {
    for samples in ["1e300", "9007199254740994"] {
        match CampaignRequest::from_json(&false_alarm_json(samples, "1")) {
            Err(SpecError::Parse(ParseError::Field { field, .. })) => assert_eq!(field, "samples"),
            other => panic!("samples {samples}: expected a field error, got {other:?}"),
        }
    }
    // 2^53 - 1 is still exact and accepted.
    let req = CampaignRequest::from_json(&false_alarm_json("1000", "9007199254740991"))
        .expect("2^53 - 1 is a valid seed");
    match req {
        CampaignRequest::FalseAlarm { seed, .. } => assert_eq!(seed, (1 << 53) - 1),
        other => panic!("unexpected request {other:?}"),
    }
}

#[test]
fn out_of_range_cell_id_reports_its_real_value() {
    let err = CampaignRequest::from_json(&wimax_preset_json("300")).unwrap_err();
    match &err {
        SpecError::Parse(ParseError::Field { field, .. }) => {
            assert!(field.contains("300"), "{field}")
        }
        other => panic!("expected a field error, got {other:?}"),
    }
    assert!(err.to_string().contains("300"), "{err}");
    assert!(!err.to_string().contains("255 exceeds"), "{err}");
    // In range for u8 but not for the hardware: validation names it.
    let err = CampaignRequest::from_json(&wimax_preset_json("40")).unwrap_err();
    assert!(err.to_string().contains("40 exceeds 31"), "{err}");
    match CampaignRequest::from_json(&wimax_preset_json("7")) {
        Ok(CampaignRequest::FalseAlarm {
            preset: DetectionPreset::WimaxPreamble { id_cell, .. },
            ..
        }) => assert_eq!(id_cell, 7),
        other => panic!("unexpected {other:?}"),
    }
}
