//! The append-only record log: CRC-framed records in self-describing
//! shard files.
//!
//! A shard file is a 16-byte header (magic + format version + shard
//! index) followed by frames of `[len: u32][crc32: u32][payload]`. The
//! only write operation is appending a frame, so the only corruption an
//! interrupted writer can leave behind is a *torn tail*: a partial
//! frame, or a frame whose CRC does not match. [`scan_shard`] reads a
//! shard up to the last valid frame and reports where the valid prefix
//! ends, so recovery can truncate the tear and append from there.
//!
//! Two record kinds share this framing, distinguished by the header
//! magic: the fixed-layout [`CampaignRecord`] (outcome logs,
//! [`SHARD_MAGIC`]) and the variable-length
//! [`TraceRecord`](crate::TraceRecord) (golden-trace logs,
//! [`TRACE_MAGIC`]).

use crate::record::CampaignRecord;
use crate::StoreError;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// Outcome-shard-file magic.
pub const SHARD_MAGIC: [u8; 8] = *b"DFISHARD";
/// Trace-shard-file magic.
pub const TRACE_MAGIC: [u8; 8] = *b"DFITRACE";
/// Record-layout version the magic is followed by.
pub const FORMAT_VERSION: u32 = 1;
/// Header bytes before the first frame.
pub const HEADER_LEN: u64 = 16;
/// Upper bound on a frame payload (sanity check while scanning; real
/// payloads are [`crate::PAYLOAD_LEN`] bytes).
const MAX_FRAME: u32 = 1 << 20;

/// CRC-32 (IEEE 802.3, reflected), the checksum framing every record.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Writes a shard header carrying `magic` for `shard_index`.
///
/// # Errors
///
/// Returns a [`StoreError`] on I/O failure.
pub fn write_header_with(
    w: &mut impl Write,
    magic: &[u8; 8],
    shard_index: u32,
) -> Result<(), StoreError> {
    let mut header = [0u8; HEADER_LEN as usize];
    header[..8].copy_from_slice(magic);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&shard_index.to_le_bytes());
    w.write_all(&header).map_err(|e| StoreError::new(format!("writing shard header: {e}")))
}

/// Writes the outcome-shard header for `shard_index`.
///
/// # Errors
///
/// Returns a [`StoreError`] on I/O failure.
pub fn write_header(w: &mut impl Write, shard_index: u32) -> Result<(), StoreError> {
    write_header_with(w, &SHARD_MAGIC, shard_index)
}

/// Appends one CRC-framed payload.
///
/// # Errors
///
/// Returns a [`StoreError`] on I/O failure.
pub fn append_payload(w: &mut impl Write, payload: &[u8]) -> Result<(), StoreError> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame).map_err(|e| StoreError::new(format!("appending record: {e}")))
}

/// Appends one CRC-framed campaign record.
///
/// # Errors
///
/// Returns a [`StoreError`] on I/O failure.
pub fn append_frame(w: &mut impl Write, record: &CampaignRecord) -> Result<(), StoreError> {
    let mut payload = Vec::with_capacity(crate::PAYLOAD_LEN);
    record.encode(&mut payload);
    append_payload(w, &payload)
}

/// What [`scan_shard`] found in one shard file.
#[derive(Debug, Clone)]
pub struct ShardScan {
    /// The records of the valid prefix, in append order.
    pub records: Vec<CampaignRecord>,
    /// Byte offset where the valid prefix ends (`HEADER_LEN` for an
    /// intact empty shard, `0` when even the header is torn). Recovery
    /// truncates the file to this offset.
    pub valid_len: u64,
    /// True when bytes past `valid_len` had to be discarded (a torn
    /// trailing record or partial header).
    pub torn: bool,
}

/// The generic shard scan underneath [`scan_shard`] and
/// [`scan_trace_shard`](crate::scan_trace_shard): streams a shard file
/// whose header carries `magic` through a small buffer, handing each
/// CRC-valid payload of the valid prefix to `visit` in append order,
/// and tolerating a torn tail. Returns the byte offset where the valid
/// prefix ends (see [`ShardScan::valid_len`]) and whether bytes past it
/// were discarded. Only one payload is held at a time, so the caller
/// decides what a shard costs in memory.
///
/// # Errors
///
/// Returns a [`StoreError`] when the file cannot be read, is not a
/// `magic`-kind shard file for `shard_index` (wrong magic, version, or
/// index), or `visit` rejects a CRC-valid payload (format drift, not
/// crash damage — truncating would destroy good data); the error names
/// the file and the frame's offset.
pub fn visit_shard(
    path: &Path,
    magic: &[u8; 8],
    shard_index: u32,
    mut visit: impl FnMut(&[u8]) -> Result<(), StoreError>,
) -> Result<(u64, bool), StoreError> {
    let read_err = |e: std::io::Error| StoreError::new(format!("reading {}: {e}", path.display()));
    let file = match File::open(path) {
        Ok(file) => file,
        // A shard file that was never created: a crash between writing
        // the manifest and creating the shards. Same contract as
        // whole-shard loss — those jobs just aren't persisted.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, false)),
        Err(e) => return Err(read_err(e)),
    };
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut header = [0u8; HEADER_LEN as usize];
    let got = read_full(&mut reader, &mut header).map_err(read_err)?;
    if got < header.len() {
        // A crash while creating the shard: nothing usable, rewrite from
        // scratch.
        return Ok((0, got > 0));
    }
    if &header[..8] != magic {
        return Err(StoreError::new(format!(
            "{} is not a drivefi {} shard file",
            path.display(),
            String::from_utf8_lossy(magic)
        )));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("header length checked"));
    if version != FORMAT_VERSION {
        return Err(StoreError::new(format!(
            "{}: unsupported shard format version {version} (expected {FORMAT_VERSION})",
            path.display()
        )));
    }
    let index = u32::from_le_bytes(header[12..16].try_into().expect("header length checked"));
    if index != shard_index {
        return Err(StoreError::new(format!(
            "{}: shard header claims index {index}, expected {shard_index}",
            path.display()
        )));
    }

    let mut at = HEADER_LEN;
    let mut payload = Vec::new();
    loop {
        let mut head = [0u8; 8];
        match read_full(&mut reader, &mut head).map_err(read_err)? {
            // Exactly the end of the file.
            0 => return Ok((at, false)),
            // Partial frame head.
            n if n < head.len() => return Ok((at, true)),
            _ => {}
        }
        let len = u32::from_le_bytes(head[..4].try_into().expect("head length checked"));
        let crc = u32::from_le_bytes(head[4..].try_into().expect("head length checked"));
        if len > MAX_FRAME {
            // Garbage length: treat as a torn tail.
            return Ok((at, true));
        }
        payload.resize(len as usize, 0);
        if read_full(&mut reader, &mut payload).map_err(read_err)? < payload.len()
            || crc32(&payload) != crc
        {
            return Ok((at, true));
        }
        // A CRC-valid frame that fails to decode is a format problem and
        // must not be silently truncated away.
        visit(&payload)
            .map_err(|e| StoreError::new(format!("{} at offset {at}: {e}", path.display())))?;
        at += 8 + u64::from(len);
    }
}

/// Reads into `buf` until it is full or the reader is exhausted;
/// returns the bytes read.
fn read_full(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads an outcome shard file, tolerating a torn tail: the scan stops
/// at the first incomplete or CRC-mismatched frame and reports
/// everything before it.
///
/// # Errors
///
/// See [`visit_shard`].
pub fn scan_shard(path: &Path, shard_index: u32) -> Result<ShardScan, StoreError> {
    let mut records = Vec::new();
    let (valid_len, torn) = visit_shard(path, &SHARD_MAGIC, shard_index, |payload| {
        records.push(CampaignRecord::decode(payload)?);
        Ok(())
    })?;
    Ok(ShardScan { records, valid_len, torn })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_sim::Outcome;

    fn record(job: u64) -> CampaignRecord {
        CampaignRecord {
            job,
            scenario_id: 1,
            scenario_seed: 2,
            fault: None,
            outcome: Outcome::Safe,
            injections: 0,
            scenes: 100,
            min_delta_lon: 3.5,
            min_delta_lat: 1.0,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scan_tolerates_every_truncation_point() {
        let dir = std::env::temp_dir().join(format!("drivefi-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-000.log");

        let mut full = Vec::new();
        write_header(&mut full, 0).unwrap();
        for job in 0..4 {
            append_frame(&mut full, &record(job)).unwrap();
        }
        let frame = (full.len() - HEADER_LEN as usize) / 4;

        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_shard(&path, 0).unwrap();
            let whole_frames = cut.saturating_sub(HEADER_LEN as usize) / frame;
            assert_eq!(scan.records.len(), whole_frames, "cut at {cut}");
            let expected_valid = if cut < HEADER_LEN as usize {
                0
            } else {
                HEADER_LEN + (whole_frames * frame) as u64
            };
            assert_eq!(scan.valid_len, expected_valid, "cut at {cut}");
            assert_eq!(scan.torn, scan.valid_len != cut as u64, "cut at {cut}");
        }

        // Untruncated: clean scan.
        std::fs::write(&path, &full).unwrap();
        let scan = scan_shard(&path, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_tail_crc_is_torn_not_fatal() {
        let mut buf = Vec::new();
        write_header(&mut buf, 3).unwrap();
        append_frame(&mut buf, &record(0)).unwrap();
        append_frame(&mut buf, &record(1)).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;

        let dir = std::env::temp_dir().join(format!("drivefi-log-crc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-003.log");
        std::fs::write(&path, &buf).unwrap();
        let scan = scan_shard(&path, 3).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records, vec![record(0)]);

        // Wrong shard index in the header is a hard error.
        assert!(scan_shard(&path, 1).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
