//! Streaming line input for the netlist parsers.
//!
//! Every text front end (`blif`, `bench_format`, `verilog`) reads its
//! input through `LineSource`: a buffered line reader that fuses the
//! old whole-file [`ParseLimits`] pre-scan (line length, control
//! characters) with tokenization, so a parser sees one checked line at
//! a time and no format ever materializes the whole file. Over-long
//! lines are rejected after buffering at most `max_line_len + 2` bytes
//! — the rest of the line is *counted*, not stored, so the exact
//! offending length is still reported — which bounds a parser's
//! transient memory by the configured limit, not by the file size.
//!
//! The module also keeps a process-wide high-water mark of the bytes
//! the streaming front ends buffer ([`parser_peak_bytes`]), mirroring
//! the `ser` crate's `signature_allocs` counter: tests bracket a parse
//! with [`reset_parser_peak_bytes`] and assert the peak stays
//! independent of the input length.
//!
//! Line splitting replicates [`str::lines`] exactly: lines end at
//! `\n`, a trailing `\r` is stripped only when the line was
//! `\n`-terminated, and a final unterminated line is yielded as-is.
//! The in-memory `parse_with_limits` entry points run the same
//! streaming core over a [`std::io::Cursor`], so the streaming and
//! in-memory paths are byte-identical by construction.

use std::io::BufRead;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::NetlistError;
use crate::limits::ParseLimits;

/// High-water mark of transient parser buffer bytes (process-wide).
static PEAK_BUFFER_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The high-water mark, in bytes, of the transient buffers the
/// streaming parsers have held since the last
/// [`reset_parser_peak_bytes`]: the current line, a joined BLIF
/// logical line, or an accumulating Verilog statement. It deliberately
/// excludes the [`crate::Circuit`] being built — the claim it proves
/// is that *text buffering* is bounded by [`ParseLimits`], not by the
/// input length.
pub fn parser_peak_bytes() -> usize {
    PEAK_BUFFER_BYTES.load(Ordering::Relaxed)
}

/// Resets [`parser_peak_bytes`] to zero. Tests bracket a parse with
/// this to measure one run's peak; concurrent parses share the
/// counter, so treat the value as an upper bound in parallel code.
pub fn reset_parser_peak_bytes() {
    PEAK_BUFFER_BYTES.store(0, Ordering::Relaxed);
}

/// Folds `bytes` into the high-water mark.
pub(crate) fn note_buffer_bytes(bytes: usize) {
    PEAK_BUFFER_BYTES.fetch_max(bytes, Ordering::Relaxed);
}

/// A line reader with the [`ParseLimits`] raw checks fused in.
///
/// [`LineSource::next_line`] yields `(line_number, line)` pairs with
/// the terminator stripped, erroring on over-long lines (with the
/// exact length, even though only a bounded prefix was buffered),
/// control characters other than `\t` (with a 1-based column), and
/// invalid UTF-8 (as the same `InvalidData` I/O error
/// `read_to_string` used to produce).
pub(crate) struct LineSource<R> {
    reader: R,
    buf: Vec<u8>,
    line_no: usize,
    max_line_len: usize,
    eof: bool,
}

impl<R: BufRead> LineSource<R> {
    pub(crate) fn new(reader: R, limits: &ParseLimits) -> Self {
        Self {
            reader,
            buf: Vec::new(),
            line_no: 0,
            max_line_len: limits.max_line_len,
            eof: false,
        }
    }

    /// Reads the next line; `Ok(None)` at end of input.
    pub(crate) fn next_line(&mut self) -> Result<Option<(usize, &str)>, NetlistError> {
        if self.eof {
            return Ok(None);
        }
        self.buf.clear();
        // A line that could still be legal holds at most
        // `max_line_len + 1` bytes before its `\n` (the `+ 1` is a
        // trailing `\r` that str::lines-style splitting strips). Once
        // the buffer passes that, the line is over-long for sure:
        // stop storing and just count the remainder.
        let cap = self.max_line_len.saturating_add(2);
        let mut terminated = false;
        let mut overflow = 0usize;
        let mut last_overflow_byte = 0u8;
        loop {
            let chunk = self.reader.fill_buf().map_err(NetlistError::Io)?;
            if chunk.is_empty() {
                self.eof = true;
                if self.buf.is_empty() && overflow == 0 {
                    return Ok(None);
                }
                break;
            }
            let nl = chunk.iter().position(|&b| b == b'\n');
            let end = nl.unwrap_or(chunk.len());
            let room = cap.saturating_sub(self.buf.len());
            let stored = end.min(room);
            self.buf.extend_from_slice(&chunk[..stored]);
            if stored < end {
                overflow += end - stored;
                last_overflow_byte = chunk[end - 1];
            }
            let consumed = if nl.is_some() { end + 1 } else { end };
            self.reader.consume(consumed);
            if nl.is_some() {
                terminated = true;
                break;
            }
        }
        self.line_no += 1;
        let line_no = self.line_no;

        let mut raw_len = self.buf.len() + overflow;
        let ends_with_cr = if overflow > 0 {
            last_overflow_byte == b'\r'
        } else {
            self.buf.last() == Some(&b'\r')
        };
        if terminated && ends_with_cr {
            raw_len -= 1;
            if overflow == 0 {
                self.buf.pop();
            }
        }
        if raw_len > self.max_line_len {
            return Err(NetlistError::LimitExceeded {
                line: line_no,
                what: "line length",
                value: raw_len,
                limit: self.max_line_len,
            });
        }
        debug_assert_eq!(overflow, 0, "an overflowed line is always over the limit");
        note_buffer_bytes(self.buf.capacity());

        let line = std::str::from_utf8(&self.buf).map_err(|_| invalid_utf8())?;
        if let Some((pos, c)) = line
            .char_indices()
            .find(|&(_, c)| c.is_control() && c != '\t')
        {
            return Err(NetlistError::Parse {
                line: line_no,
                col: pos + 1,
                message: format!("control character {c:?} in input"),
            });
        }
        Ok(Some((line_no, line)))
    }
}

/// The error `std::fs::read_to_string` reports for non-UTF-8 input;
/// the streaming path validates per line but keeps the message.
fn invalid_utf8() -> NetlistError {
    NetlistError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn collect(text: &str, limits: &ParseLimits) -> Result<Vec<(usize, String)>, NetlistError> {
        let mut src = LineSource::new(Cursor::new(text.as_bytes()), limits);
        let mut out = Vec::new();
        while let Some((no, line)) = src.next_line()? {
            out.push((no, line.to_string()));
        }
        Ok(out)
    }

    #[test]
    fn splits_like_str_lines() {
        let limits = ParseLimits::default();
        for text in [
            "a\nb\nc",
            "a\nb\nc\n",
            "a\r\nb\r\n",
            "\n\n",
            "",
            "one",
            "mixed\r\nunix\nfinal",
        ] {
            let want: Vec<(usize, String)> = text
                .lines()
                .enumerate()
                .map(|(i, l)| (i + 1, l.to_string()))
                .collect();
            assert_eq!(collect(text, &limits).unwrap(), want, "{text:?}");
        }
    }

    #[test]
    fn over_long_line_reports_exact_length_and_line() {
        let limits = ParseLimits::default().with_max_line_len(8);
        let text = format!("ok line\n{}\n", "x".repeat(1000));
        match collect(&text, &limits) {
            Err(NetlistError::LimitExceeded {
                line,
                what: "line length",
                value,
                limit,
            }) => {
                assert_eq!(line, 2);
                assert_eq!(value, 1000);
                assert_eq!(limit, 8);
            }
            other => panic!("expected line-length error, got {other:?}"),
        }
    }

    #[test]
    fn exactly_at_limit_is_accepted_even_with_crlf() {
        let limits = ParseLimits::default().with_max_line_len(4);
        // 4 bytes + "\r\n": str::lines strips the \r, so this passes.
        assert_eq!(
            collect("abcd\r\nef\n", &limits).unwrap(),
            vec![(1, "abcd".to_string()), (2, "ef".to_string())]
        );
        assert!(collect("abcde\nef\n", &limits).is_err());
    }

    #[test]
    fn over_long_line_buffers_a_bounded_prefix() {
        let limits = ParseLimits::default().with_max_line_len(64);
        reset_parser_peak_bytes();
        let text = format!("{}\n", "y".repeat(1 << 20));
        assert!(collect(&text, &limits).is_err());
        assert!(
            parser_peak_bytes() <= 1024,
            "peak {} must stay near the 64-byte limit, not the 1 MiB line",
            parser_peak_bytes()
        );
    }

    #[test]
    fn control_characters_get_line_and_column() {
        let limits = ParseLimits::default();
        match collect("fine\nbad\u{0}here\n", &limits) {
            Err(NetlistError::Parse { line, col, .. }) => {
                assert_eq!(line, 2);
                assert_eq!(col, 4);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Tabs are fine.
        assert!(collect("a\tb\n", &limits).is_ok());
    }

    #[test]
    fn invalid_utf8_maps_to_invalid_data_io_error() {
        let limits = ParseLimits::default();
        let mut src = LineSource::new(Cursor::new(&b"ok\n\xff\xfe\n"[..]), &limits);
        assert!(src.next_line().is_ok());
        match src.next_line() {
            Err(NetlistError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            }
            other => panic!("expected io error, got {other:?}"),
        }
    }

    #[test]
    fn final_line_keeps_lone_carriage_return() {
        // str::lines only strips \r when it precedes \n.
        let limits = ParseLimits::default();
        let got = collect("abc\r", &limits);
        // \r is a control character, so the fused scan rejects it —
        // exactly like the old pre-scan did on "abc\r" via lines().
        assert!(got.is_err());
    }
}
