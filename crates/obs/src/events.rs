//! The append-only lifecycle log: `events.jsonl`, one flat JSON
//! object per line, written beside a campaign store's manifest.
//!
//! Design constraints, in order:
//!
//! 1. **Never perturb the campaign.** Every write is best-effort; an
//!    unopenable or unwritable log degrades to silence. Nothing in the
//!    store or plan layers branches on the log's contents.
//! 2. **Crash-tolerant.** Writers append whole lines through
//!    `O_APPEND`; a crash mid-write leaves a torn fragment. On the
//!    next open the writer terminates any unterminated tail with a
//!    newline so later events stay line-aligned, and readers skip
//!    lines that fail to parse instead of erroring.
//! 3. **Self-ordering.** Each event carries a `seq` drawn from a
//!    process-global counter that is advanced past the file's largest
//!    persisted `seq` on open, so an interrupt → resume cycle yields a
//!    monotone sequence within one file.
//!
//! The format is a deliberately tiny JSON subset — flat objects whose
//! values are strings, integers, or booleans — hand-rolled here
//! because the workspace builds without serde.

use crate::Field::{Bool, Int, Str};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Event log file name inside a campaign directory.
pub const EVENTS_FILE: &str = "events.jsonl";

/// A typed value in an event's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Field {
    /// A JSON string.
    Str(String),
    /// A JSON integer.
    Int(i64),
    /// A JSON boolean.
    Bool(bool),
}

/// One parsed line of an event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone-within-file ordering hint.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// Monotonic milliseconds since the writing process started.
    pub mono_ms: u64,
    /// Event kind (`"campaign_start"`, `"checkpoint"`, …).
    pub kind: String,
    /// Remaining payload fields, in emission order.
    pub fields: Vec<(String, Field)>,
}

impl Event {
    /// The payload string under `key`, if present with that type.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.fields.iter().find_map(|(k, v)| match v {
            Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }

    /// The payload integer under `key`, if present with that type.
    pub fn int_field(&self, key: &str) -> Option<i64> {
        self.fields.iter().find_map(|(k, v)| match v {
            Int(n) if k == key => Some(*n),
            _ => None,
        })
    }

    /// The payload boolean under `key`, if present with that type.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.fields.iter().find_map(|(k, v)| match v {
            Bool(b) if k == key => Some(*b),
            _ => None,
        })
    }
}

// Process-global sequence source, advanced past persisted history on
// every log open so resumed campaigns keep a monotone `seq`.
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn emit_line(seq: u64, kind: &str, fields: &[(&str, Field)]) -> String {
    let mut line = String::with_capacity(96);
    line.push_str("{\"seq\":");
    line.push_str(&seq.to_string());
    line.push_str(",\"ts_ms\":");
    line.push_str(&crate::wall_ms().to_string());
    line.push_str(",\"mono_ms\":");
    line.push_str(&crate::mono_ms().to_string());
    line.push_str(",\"kind\":\"");
    escape_into(&mut line, kind);
    line.push('"');
    for (key, value) in fields {
        debug_assert!(
            !matches!(*key, "seq" | "ts_ms" | "mono_ms" | "kind"),
            "event field `{key}` collides with an envelope key — the line would carry \
             duplicate JSON keys"
        );
        line.push_str(",\"");
        escape_into(&mut line, key);
        line.push_str("\":");
        match value {
            Str(s) => {
                line.push('"');
                escape_into(&mut line, s);
                line.push('"');
            }
            Int(n) => line.push_str(&n.to_string()),
            Bool(b) => line.push_str(if *b { "true" } else { "false" }),
        }
    }
    line.push_str("}\n");
    line
}

/// An open handle on a campaign directory's event log.
///
/// Inert (every emit a no-op) when observability is disabled or the
/// file cannot be opened.
#[derive(Debug)]
pub struct EventLog {
    file: Option<File>,
}

impl EventLog {
    /// Opens (creating if needed) `dir/events.jsonl` for appending.
    ///
    /// Terminates any torn tail left by a crashed writer, and advances
    /// the process sequence counter past the file's history. Never
    /// fails: an unusable log yields an inert handle.
    pub fn open(dir: &Path) -> EventLog {
        if !crate::enabled() {
            return EventLog { file: None };
        }
        let path = dir.join(EVENTS_FILE);
        let Ok(mut file) = OpenOptions::new().create(true).append(true).read(true).open(&path)
        else {
            return EventLog { file: None };
        };
        // Scan existing history once: continue `seq` after it, and
        // newline-terminate a torn final fragment so our own events
        // start on a fresh line.
        let mut existing = Vec::new();
        if file.seek(SeekFrom::Start(0)).is_ok() && file.read_to_end(&mut existing).is_ok() {
            let max_seq = text_lines(&existing)
                .filter_map(|line| parse_line(line).ok())
                .map(|event| event.seq)
                .max()
                .unwrap_or(0);
            NEXT_SEQ.fetch_max(max_seq + 1, Ordering::Relaxed);
            if existing.last().is_some_and(|&b| b != b'\n') {
                let _ = file.write_all(b"\n");
            }
        }
        EventLog { file: Some(file) }
    }

    /// An inert log that drops every event.
    pub fn disabled() -> EventLog {
        EventLog { file: None }
    }

    /// Whether emits on this handle reach a file.
    pub fn is_active(&self) -> bool {
        self.file.is_some()
    }

    /// Appends one event. Best-effort: write errors are swallowed.
    pub fn emit(&mut self, kind: &str, fields: &[(&str, Field)]) {
        let Some(file) = self.file.as_mut() else { return };
        let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
        let line = emit_line(seq, kind, fields);
        let _ = file.write_all(line.as_bytes());
    }
}

/// Opens `dir`'s log, appends one event, and closes it.
///
/// The right shape for low-frequency lifecycle emission sites (lease
/// takeover, compaction) that don't hold a long-lived handle.
pub fn emit_event(dir: &Path, kind: &str, fields: &[(&str, Field)]) {
    if crate::enabled() {
        EventLog::open(dir).emit(kind, fields);
    }
}

fn parse_error(line: &str, what: &str) -> std::io::Error {
    // At most 80 bytes of the line, cut at a character boundary.
    let mut end = line.len().min(80);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    let shown = &line[..end];
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{what} in event `{shown}`"))
}

/// The lines of a log's bytes that are valid UTF-8. A torn write can
/// cut a multi-byte character; only that line is lost, not the file.
fn text_lines(bytes: &[u8]) -> impl Iterator<Item = &str> {
    bytes
        .split(|&b| b == b'\n')
        .filter_map(|line| std::str::from_utf8(line.strip_suffix(b"\r").unwrap_or(line)).ok())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                // Multi-byte UTF-8 continuation: copy bytes verbatim.
                b => {
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self.bytes.get(start..start + len)?;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn value(&mut self) -> Option<Field> {
        match self.peek()? {
            b'"' => self.string().map(Str),
            b't' => {
                self.expect_word("true")?;
                Some(Bool(true))
            }
            b'f' => {
                self.expect_word("false")?;
                Some(Bool(false))
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                if self.bytes[self.pos] == b'-' {
                    self.pos += 1;
                }
                while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos]).ok()?.parse::<i64>().ok().map(Int)
            }
            _ => None,
        }
    }

    fn expect_word(&mut self, word: &str) -> Option<()> {
        self.skip_ws();
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Some(())
        } else {
            None
        }
    }
}

/// Parses one `events.jsonl` line.
///
/// # Errors
///
/// Returns an `InvalidData` error when the line is not a flat JSON
/// object with the mandatory `seq`/`ts_ms`/`mono_ms`/`kind` envelope —
/// including the torn fragments a crashed writer leaves behind.
pub fn parse_line(line: &str) -> std::io::Result<Event> {
    let mut cur = Cursor { bytes: line.as_bytes(), pos: 0 };
    if !cur.eat(b'{') {
        return Err(parse_error(line, "expected `{`"));
    }
    let mut pairs: Vec<(String, Field)> = Vec::new();
    if !cur.eat(b'}') {
        loop {
            let key = cur.string().ok_or_else(|| parse_error(line, "expected key"))?;
            if !cur.eat(b':') {
                return Err(parse_error(line, "expected `:`"));
            }
            let value = cur.value().ok_or_else(|| parse_error(line, "expected value"))?;
            pairs.push((key, value));
            if cur.eat(b',') {
                continue;
            }
            if cur.eat(b'}') {
                break;
            }
            return Err(parse_error(line, "expected `,` or `}`"));
        }
    }
    cur.skip_ws();
    if cur.pos != cur.bytes.len() {
        return Err(parse_error(line, "trailing bytes"));
    }
    let take_u64 = |pairs: &mut Vec<(String, Field)>, key: &str| -> std::io::Result<u64> {
        let at = pairs
            .iter()
            .position(|(k, v)| k == key && matches!(v, Int(n) if *n >= 0))
            .ok_or_else(|| parse_error(line, "missing envelope field"))?;
        match pairs.remove(at).1 {
            Int(n) => Ok(n as u64),
            _ => unreachable!(),
        }
    };
    let seq = take_u64(&mut pairs, "seq")?;
    let ts_ms = take_u64(&mut pairs, "ts_ms")?;
    let mono_ms = take_u64(&mut pairs, "mono_ms")?;
    let kind_at = pairs
        .iter()
        .position(|(k, v)| k == "kind" && matches!(v, Str(_)))
        .ok_or_else(|| parse_error(line, "missing `kind`"))?;
    let kind = match pairs.remove(kind_at).1 {
        Str(s) => s,
        _ => unreachable!(),
    };
    Ok(Event { seq, ts_ms, mono_ms, kind, fields: pairs })
}

/// Reads every parseable event from `dir/events.jsonl`, in file order.
///
/// Unparsable lines — torn tails and fragments from crashed writers,
/// lines that are not UTF-8 — are skipped, not errors. A missing file
/// reads as no events.
///
/// # Errors
///
/// Returns an error only for I/O failures other than the file being
/// absent.
pub fn read_events(dir: &Path) -> std::io::Result<Vec<Event>> {
    read_events_file(&dir.join(EVENTS_FILE))
}

/// [`read_events`], addressed by file path rather than directory.
///
/// # Errors
///
/// Returns an error only for I/O failures other than the file being
/// absent.
pub fn read_events_file(path: &Path) -> std::io::Result<Vec<Event>> {
    let src = match std::fs::read(path) {
        Ok(src) => src,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    Ok(text_lines(&src).filter_map(|line| parse_line(line).ok()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drivefi-obs-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn events_round_trip_with_escapes() {
        let fields = [
            ("name", Str("quote\" slash\\ tab\t nl\n unicode\u{1}µ".into())),
            ("count", Int(-42)),
            ("ok", Bool(true)),
        ];
        let line = emit_line(7, "campaign_start", &fields);
        let event = parse_line(line.trim_end()).unwrap();
        assert_eq!(event.seq, 7);
        assert_eq!(event.kind, "campaign_start");
        assert_eq!(event.str_field("name"), Some("quote\" slash\\ tab\t nl\n unicode\u{1}µ"));
        assert_eq!(event.int_field("count"), Some(-42));
        assert_eq!(event.bool_field("ok"), Some(true));
    }

    #[test]
    fn malformed_lines_are_errors() {
        for bad in [
            "",
            "{",
            "{\"seq\":1",
            "{\"seq\":1,\"ts_ms\":2,\"mono_ms\":3}",
            "{\"kind\":\"x\"}",
            "not json at all",
            "{\"seq\":1,\"ts_ms\":2,\"mono_ms\":3,\"kind\":\"x\"} trailing",
        ] {
            assert!(parse_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// An unparsable line whose 80th byte falls inside a multi-byte
    /// character: the error message cuts it at a character boundary.
    fn straddling_line() -> String {
        format!("{{\"seq\":99,\"kind\":\"{}é\"", "x".repeat(61))
    }

    #[test]
    fn error_excerpts_cut_at_a_character_boundary() {
        let line = straddling_line();
        assert!(!line.is_char_boundary(80));
        let err = parse_line(&line).unwrap_err();
        assert!(err.to_string().contains(&"x".repeat(61)), "{err}");
        assert!(!err.to_string().contains('é'), "{err}");
    }

    #[test]
    fn straddling_and_non_utf8_lines_are_skipped() {
        let _guard = crate::test_lock();
        crate::force_enabled(true);
        let dir = temp_dir("straddle");
        let mut log = EventLog::open(&dir);
        log.emit("campaign_start", &[]);
        drop(log);

        // The straddling line, then a write torn inside a character.
        let path = dir.join(EVENTS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(straddling_line().as_bytes());
        bytes.push(b'\n');
        let torn = "{\"seq\":100,\"ts_ms\":1,\"mono_ms\":1,\"kind\":\"é\"}";
        bytes.extend_from_slice(&torn.as_bytes()[..torn.find('é').unwrap() + 1]);
        assert!(std::str::from_utf8(&bytes).is_err());
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_events(&dir).unwrap().len(), 1);

        // A new writer still ends the torn tail and continues `seq`.
        let mut log = EventLog::open(&dir);
        log.emit("resume", &[]);
        drop(log);
        let events = read_events(&dir).unwrap();
        assert_eq!(
            events.iter().map(|e| e.kind.as_str()).collect::<Vec<_>>(),
            ["campaign_start", "resume"]
        );
        assert!(events[1].seq > events[0].seq);

        crate::clear_force();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_survives_torn_tail_and_continues_seq() {
        let _guard = crate::test_lock();
        crate::force_enabled(true);
        let dir = temp_dir("torn");

        let mut log = EventLog::open(&dir);
        assert!(log.is_active());
        log.emit("campaign_start", &[("name", Str("x".into()))]);
        log.emit("checkpoint", &[("records", Int(5))]);
        drop(log);

        // Simulate a crash mid-write: truncate the file mid-line.
        let path = dir.join(EVENTS_FILE);
        let bytes = std::fs::read(&path).unwrap();
        let before = read_events(&dir).unwrap();
        assert_eq!(before.len(), 2);
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        // A new writer appends cleanly after the torn fragment.
        let mut log = EventLog::open(&dir);
        log.emit("resume", &[]);
        drop(log);

        let events = read_events(&dir).unwrap();
        assert_eq!(
            events.iter().map(|e| e.kind.as_str()).collect::<Vec<_>>(),
            ["campaign_start", "resume"],
        );
        // seq stays monotone across the interruption.
        assert!(events[1].seq > before[1].seq);

        crate::clear_force();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_log_writes_nothing() {
        let _guard = crate::test_lock();
        crate::force_enabled(false);
        let dir = temp_dir("off");
        let mut log = EventLog::open(&dir);
        assert!(!log.is_active());
        log.emit("campaign_start", &[]);
        emit_event(&dir, "compact", &[]);
        assert!(!dir.join(EVENTS_FILE).exists());
        assert!(read_events(&dir).unwrap().is_empty());
        crate::clear_force();
        std::fs::remove_dir_all(&dir).ok();
    }
}
