//! One client connection: read request lines, write response lines.
//!
//! The same loop serves `rjamd --stdio` and each Unix-socket client. A
//! line that is not UTF-8, or longer than [`MAX_LINE`] bytes, is answered
//! with a `bad_request` error line and the connection keeps serving; an
//! over-long line is discarded up to its newline without being buffered,
//! so a newline-free stream cannot grow memory without bound.

use crate::proto::{JobError, JobErrorKind, JobResponse};
use crate::service::{Daemon, Serve};
use std::io::{self, BufRead, Read, Write};

/// Longest request line accepted, in bytes, excluding its newline. Far
/// above any campaign spec.
pub const MAX_LINE: usize = 1 << 20;

/// Serves request lines from `reader` until end of input, a read error or
/// a failed write, writing each response line to `writer` and flushing.
pub fn serve_connection(daemon: &Daemon, mut reader: impl BufRead, mut writer: impl Write) {
    let mut buf = Vec::new();
    loop {
        let served = match read_line(&mut reader, &mut buf) {
            Ok(None) | Err(_) => return,
            Ok(Some(Ok(line))) => serve_one(daemon, line, &mut writer),
            Ok(Some(Err(why))) => emit(
                &mut writer,
                &JobResponse::Error(JobError::new(JobErrorKind::BadRequest, why)).to_line(),
            ),
        };
        if served.is_err() {
            return;
        }
    }
}

fn serve_one(daemon: &Daemon, line: &str, writer: &mut impl Write) -> io::Result<()> {
    if line.trim().is_empty() {
        return Ok(());
    }
    match daemon.serve_line(line) {
        Serve::Lines(lines) => lines.iter().try_for_each(|l| emit(writer, l)),
        Serve::Watch(job) => match daemon.watch(&job, &mut |l| emit(writer, l)) {
            Ok(()) => Ok(()),
            Err(e) => emit(writer, &JobResponse::Error(e).to_line()),
        },
    }
}

fn emit(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writeln!(writer, "{line}")?;
    writer.flush()
}

/// Reads the next line into `buf` without its `\n` or `\r\n`. `None` at
/// end of input; an inner `Err` names why the line was refused.
fn read_line<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<Result<&'a str, String>>> {
    buf.clear();
    let limit = MAX_LINE as u64 + 1;
    if Read::take(&mut *reader, limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() as u64 == limit {
        reader.skip_until(b'\n')?;
        return Ok(Some(Err(format!(
            "request line longer than {MAX_LINE} bytes"
        ))));
    }
    Ok(Some(
        std::str::from_utf8(buf).map_err(|e| format!("request line is not UTF-8: {e}")),
    ))
}
