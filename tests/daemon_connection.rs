//! Tier-1 checks for the `rjamd` connection loop, driven in memory.
//!
//! A request line that is not UTF-8, or longer than `MAX_LINE` bytes, is
//! answered with a `bad_request` error line and the loop keeps serving the
//! lines after it; malformed JSON is refused exactly as before.

use rjam::core::CampaignEngine;
use rjam_daemon::{serve_connection, Daemon, JobErrorKind, JobResponse, MAX_LINE};
use std::io::Cursor;

const STATUS: &[u8] = br#"{"v":"rjam-job-v1","req":"status"}"#;

/// Runs the connection loop over `input` and parses every reply line.
fn serve(input: Vec<u8>) -> Vec<JobResponse> {
    let daemon = Daemon::start(CampaignEngine::with_threads(1), 4);
    let mut out = Vec::new();
    serve_connection(&daemon, Cursor::new(input), &mut out);
    daemon.shutdown();
    String::from_utf8(out)
        .expect("replies are UTF-8")
        .lines()
        .map(|l| JobResponse::from_line(l).expect("reply parses"))
        .collect()
}

/// `line`, a newline, then a `status` request.
fn then_status(line: &[u8]) -> Vec<u8> {
    [line, b"\n", STATUS, b"\n"].concat()
}

/// Asserts a `bad_request` whose message contains `why`, then a status
/// reply.
fn assert_refused_then_status(replies: &[JobResponse], why: &str) {
    assert_eq!(replies.len(), 2, "{replies:?}");
    match &replies[0] {
        JobResponse::Error(e) => {
            assert_eq!(e.kind, JobErrorKind::BadRequest);
            assert!(e.message.contains(why), "{}", e.message);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    assert!(matches!(&replies[1], JobResponse::Status { jobs } if jobs.is_empty()));
}

#[test]
fn non_utf8_line_is_refused_and_serving_continues() {
    let replies = serve(then_status(b"\xff\xfe bad"));
    assert_refused_then_status(&replies, "UTF-8");
}

#[test]
fn over_long_line_is_refused_and_serving_continues() {
    let replies = serve(then_status(&vec![b'x'; MAX_LINE + 1]));
    assert_refused_then_status(&replies, "longer than");
    // A line of exactly MAX_LINE bytes is read and parsed as usual.
    let replies = serve(then_status(&vec![b'x'; MAX_LINE]));
    assert_eq!(replies.len(), 2);
    assert!(matches!(&replies[0], JobResponse::Error(e) if !e.message.contains("longer than")));
}

#[test]
fn malformed_json_is_a_bad_request() {
    let replies = serve(then_status(br#"{"v":"rjam-job-v1","req":"#));
    assert_refused_then_status(&replies, "");
    // CRLF endings and blank lines are accepted as before.
    let replies = serve([b"\r\n\n", STATUS, b"\r\n"].concat());
    assert!(matches!(&replies[..], [JobResponse::Status { .. }]));
}
