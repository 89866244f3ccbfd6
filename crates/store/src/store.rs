//! The sharded store directory: checkpoint manifest + shard files +
//! crash recovery.
//!
//! A store directory holds one campaign's persisted results:
//!
//! ```text
//! out/run1/
//!   manifest.toml   # identity + progress checkpoint (atomic rewrite)
//!   shard-000.log   # CRC-framed records with job % shards == 0
//!   shard-001.log   # ...
//! ```
//!
//! Records fan out over shards by `job % shards` — a pure function of
//! the plan-level job index, so the on-disk layout never depends on
//! worker scheduling. The manifest pins the store's identity (a
//! fingerprint of the plan that created it, the total job count, the
//! shard count) and is atomically rewritten at every checkpoint; the
//! shard files are the source of truth for *which* jobs are persisted —
//! recovery rescans them rather than trusting the checkpoint counter,
//! so a crash between an append and the next checkpoint loses nothing.

use crate::lease::{default_owner, Lease};
use crate::log::{
    append_frame, append_payload, scan_shard, visit_shard, write_header_with, FORMAT_VERSION,
    HEADER_LEN, SHARD_MAGIC, TRACE_MAGIC,
};
use crate::record::{CampaignRecord, PAYLOAD_LEN};
use crate::trace::{scan_trace_shard, visit_trace_shard, TraceRecord, TRACE_BASE_LEN};
use crate::StoreError;
use drivefi_obs::{EventLog, Field};
use drivefi_sim::FrameRecord;
use std::collections::{BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.toml";

/// The most shards a store has. Readers visit every shard a manifest
/// names, so a doctored count must fail at once, not stat billions of
/// missing files.
pub const MAX_SHARDS: u32 = 4096;

/// FNV-1a 64-bit hash — the store's plan fingerprint. Stable across
/// processes and platforms (unlike `DefaultHasher`), cheap, and good
/// enough for its job: refusing to resume a campaign under a plan that
/// is not the one that created the store.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The store's self-describing manifest: identity plus the progress
/// checkpoint. Serialized as a flat `key = value` file (the store crate
/// sits below `drivefi-plan`, so it carries its own tiny parser instead
/// of depending on the plan crate's TOML implementation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMeta {
    /// Record-layout version (see [`crate::log::FORMAT_VERSION`]).
    pub format: u32,
    /// Fingerprint of the campaign that owns this store.
    pub fingerprint: u64,
    /// Total jobs the campaign will produce.
    pub total_jobs: u64,
    /// Number of shard files records fan out over.
    pub shards: u32,
    /// Records persisted as of the last checkpoint (informational — the
    /// shard scans are authoritative on recovery).
    pub checkpoint_records: u64,
    /// True once every job's record is persisted and the store was
    /// cleanly finished.
    pub complete: bool,
    /// True when the store carries per-scene golden-trace shards
    /// (`trace-NNN.log`) alongside the outcome shards.
    pub traces: bool,
}

impl StoreMeta {
    fn emit(&self) -> String {
        format!(
            "format = {}\nfingerprint = 0x{:016x}\ntotal_jobs = {}\nshards = {}\n\
             checkpoint_records = {}\ncomplete = {}\ntraces = {}\n",
            self.format,
            self.fingerprint,
            self.total_jobs,
            self.shards,
            self.checkpoint_records,
            self.complete,
            self.traces
        )
    }

    fn parse(src: &str) -> Result<StoreMeta, StoreError> {
        let mut format = None;
        let mut fingerprint = None;
        let mut total_jobs = None;
        let mut shards = None;
        let mut checkpoint_records = None;
        let mut complete = None;
        let mut traces = None;
        for line in src.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                StoreError::new(format!("manifest line `{line}` is not key = value"))
            })?;
            let (key, value) = (key.trim(), value.trim());
            let uint = || -> Result<u64, StoreError> {
                let parsed = if let Some(hex) = value.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    value.parse()
                };
                parsed.map_err(|_| {
                    StoreError::new(format!("manifest `{key}` = `{value}` is not an integer"))
                })
            };
            let boolean = |name: &str| -> Result<bool, StoreError> {
                match value {
                    "true" => Ok(true),
                    "false" => Ok(false),
                    other => Err(StoreError::new(format!(
                        "manifest `{name}` must be true/false, got `{other}`"
                    ))),
                }
            };
            let uint32 = || -> Result<u32, StoreError> {
                u32::try_from(uint()?).map_err(|_| {
                    StoreError::new(format!(
                        "manifest `{key}` = `{value}` is out of range (at most {})",
                        u32::MAX
                    ))
                })
            };
            match key {
                "format" => format = Some(uint32()?),
                "fingerprint" => fingerprint = Some(uint()?),
                "total_jobs" => total_jobs = Some(uint()?),
                "shards" => shards = Some(uint32()?),
                "checkpoint_records" => checkpoint_records = Some(uint()?),
                "complete" => complete = Some(boolean("complete")?),
                "traces" => traces = Some(boolean("traces")?),
                other => return Err(StoreError::new(format!("unknown manifest key `{other}`"))),
            }
        }
        fn require<T>(name: &str, value: Option<T>) -> Result<T, StoreError> {
            value.ok_or_else(|| StoreError::new(format!("manifest is missing `{name}`")))
        }
        let shards = require("shards", shards)?;
        if !(1..=MAX_SHARDS).contains(&shards) {
            return Err(StoreError::new(format!(
                "manifest `shards` = `{shards}`: a store has 1 to {MAX_SHARDS} shards"
            )));
        }
        Ok(StoreMeta {
            format: require("format", format)?,
            fingerprint: require("fingerprint", fingerprint)?,
            total_jobs: require("total_jobs", total_jobs)?,
            shards,
            checkpoint_records: require("checkpoint_records", checkpoint_records)?,
            complete: require("complete", complete)?,
            // Stores predating the trace log carry no `traces` key.
            traces: traces.unwrap_or(false),
        })
    }
}

/// What recovery found in an interrupted store: which jobs already have
/// a persisted record, and whether any shard had a torn tail.
#[derive(Debug, Clone)]
pub struct StoreState {
    done: Vec<u64>,
    records: u64,
    /// True when at least one shard ended in a torn (partial or
    /// CRC-mismatched) record that recovery truncated away.
    pub torn: bool,
}

impl StoreState {
    /// An empty state for a fresh store over `total_jobs` jobs.
    fn empty(total_jobs: u64) -> Self {
        StoreState { done: vec![0; (total_jobs as usize).div_ceil(64)], records: 0, torn: false }
    }

    fn mark(&mut self, job: u64) -> bool {
        let (word, bit) = ((job / 64) as usize, job % 64);
        let fresh = self.done[word] & (1 << bit) == 0;
        self.done[word] |= 1 << bit;
        if fresh {
            self.records += 1;
        }
        fresh
    }

    /// Demotes a marked job back to pending (recovery found its outcome
    /// record but an incomplete trace).
    fn unmark(&mut self, job: u64) {
        let (word, bit) = ((job / 64) as usize, job % 64);
        if self.done[word] & (1 << bit) != 0 {
            self.done[word] &= !(1 << bit);
            self.records -= 1;
        }
    }

    /// True when `job`'s record is already persisted.
    pub fn is_done(&self, job: u64) -> bool {
        self.done.get((job / 64) as usize).is_some_and(|word| word & (1 << (job % 64)) != 0)
    }

    /// Number of distinct jobs with a persisted record.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// Append handle over a store directory. Obtain one with [`open_store`];
/// stream records in with [`StoreWriter::append`] (or the
/// [`StoreSink`](crate::StoreSink) campaign adapter) and finish the
/// store with [`StoreWriter::finish`].
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    meta: StoreMeta,
    /// `shards[i]` writes shard file `i`.
    shards: Vec<BufWriter<File>>,
    /// Trace shard writers, present iff `meta.traces`.
    trace_shards: Option<Vec<BufWriter<File>>>,
    lease: Lease,
    persisted: u64,
    since_checkpoint: u64,
    checkpoint_every: u64,
    /// Lifecycle event sink beside the manifest. Strictly best-effort
    /// telemetry: inert unless `DRIVEFI_OBS` is set, and never consulted
    /// by recovery or reads — the store's behavior is byte-identical
    /// with observability on or off.
    events: EventLog,
}

fn shard_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("shard-{index:03}.log"))
}

fn trace_shard_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("trace-{index:03}.log"))
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::new(format!("{what} {}: {e}", path.display()))
}

/// True when `dir` holds any `shard-*.log` / `trace-*.log` file — the
/// signature of a store whose manifest was lost. Scans the directory
/// rather than probing `0..shards` paths: the resuming plan's shard
/// count may be *smaller* than the orphaned store's, and a probe bounded
/// by the new count would miss leftover high-index shard files.
fn has_orphaned_shards(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false; // No directory yet — nothing to orphan.
    };
    entries.flatten().any(|entry| {
        entry.file_name().to_str().is_some_and(|name| {
            name.ends_with(".log") && (name.starts_with("shard-") || name.starts_with("trace-"))
        })
    })
}

/// Opens a store directory for appending: creates a fresh store when no
/// manifest exists, otherwise **recovers** the interrupted store —
/// validates that `fingerprint`, `total_jobs`, and `shards` match the
/// manifest, rescans every shard, truncates torn trailing records, and
/// reports which jobs are already persisted.
///
/// `checkpoint_every` is the append-count period of checkpoint flushes
/// (buffered writes flushed + synced, manifest atomically rewritten).
///
/// A store has one writer. The open claims the store's lease first: a
/// live writer's lease refuses it, while that of a writer that died, or
/// whose heartbeat is older than [`crate::DEFAULT_LEASE_TIMEOUT`], is
/// taken over.
///
/// # Errors
///
/// Returns a [`StoreError`] on I/O failure, for a shard count outside
/// `1..=`[`MAX_SHARDS`], when a live writer holds the store, on a
/// manifest that does not match the resuming campaign,
/// or on CRC-valid records that no longer decode (format drift —
/// truncating them would destroy good data).
pub fn open_store(
    dir: impl AsRef<Path>,
    fingerprint: u64,
    total_jobs: u64,
    shards: u32,
    checkpoint_every: u64,
) -> Result<(StoreWriter, StoreState), StoreError> {
    open(dir.as_ref(), fingerprint, total_jobs, shards, checkpoint_every, false)
}

/// [`open_store`] for a store that also persists per-scene golden
/// traces: every outcome record appended through
/// [`StoreSink`](crate::StoreSink) must be preceded by its run's
/// [`TraceRecord`]s, and recovery treats a job as
/// done only when its outcome record **and** its full trace survive —
/// so a crash that outran the trace buffer demotes the job instead of
/// leaving the miner a silently truncated training set.
///
/// # Errors
///
/// See [`open_store`].
pub fn open_store_with_traces(
    dir: impl AsRef<Path>,
    fingerprint: u64,
    total_jobs: u64,
    shards: u32,
    checkpoint_every: u64,
) -> Result<(StoreWriter, StoreState), StoreError> {
    open(dir.as_ref(), fingerprint, total_jobs, shards, checkpoint_every, true)
}

fn open(
    dir: &Path,
    fingerprint: u64,
    total_jobs: u64,
    shards: u32,
    checkpoint_every: u64,
    traces: bool,
) -> Result<(StoreWriter, StoreState), StoreError> {
    if !(1..=MAX_SHARDS).contains(&shards) {
        return Err(StoreError::new(format!(
            "{}: a store has 1 to {MAX_SHARDS} shards, not {shards}",
            dir.display()
        )));
    }
    assert!(checkpoint_every > 0, "checkpoint period must be at least 1");
    let meta = StoreMeta {
        format: FORMAT_VERSION,
        fingerprint,
        total_jobs,
        shards,
        checkpoint_records: 0,
        complete: false,
        traces,
    };
    std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
    // The lease first: everything after this — manifest probe, shard
    // scans, truncation — happens with the store exclusively owned.
    let lease = Lease::acquire(dir, &default_owner())?;
    if dir.join(MANIFEST_FILE).is_file() {
        return StoreWriter::recover(dir, meta, lease, checkpoint_every);
    }
    // Shard files without a manifest mean a store whose manifest was
    // lost, not a fresh directory — creating here would truncate every
    // persisted record. Refuse; the fix (restore or delete the
    // directory) is a human decision.
    if has_orphaned_shards(dir) {
        return Err(StoreError::new(format!(
            "{}: shard files exist but {MANIFEST_FILE} is missing — refusing to \
             overwrite what looks like a store that lost its manifest (delete the \
             directory to start over)",
            dir.display()
        )));
    }
    let writer = StoreWriter::create(dir, meta, lease, checkpoint_every)?;
    Ok((writer, StoreState::empty(total_jobs)))
}

impl StoreWriter {
    fn create(
        dir: &Path,
        meta: StoreMeta,
        lease: Lease,
        checkpoint_every: u64,
    ) -> Result<StoreWriter, StoreError> {
        // Manifest before any shard file: a crash here must never leave
        // shards that look like an orphaned store. A manifest with zero
        // shard files recovers cleanly — missing shards scan as empty.
        write_manifest(dir, &meta)?;
        let create_shards = |path_of: fn(&Path, u32) -> PathBuf,
                             magic: &[u8; 8]|
         -> Result<Vec<BufWriter<File>>, StoreError> {
            let mut shards = Vec::with_capacity(meta.shards as usize);
            for index in 0..meta.shards {
                let path = path_of(dir, index);
                let file = File::create(&path).map_err(|e| io_err("creating", &path, e))?;
                let mut writer = BufWriter::new(file);
                write_header_with(&mut writer, magic, index)?;
                shards.push(writer);
            }
            Ok(shards)
        };
        let shards = create_shards(shard_path, &SHARD_MAGIC)?;
        let trace_shards =
            if meta.traces { Some(create_shards(trace_shard_path, &TRACE_MAGIC)?) } else { None };
        let mut writer = StoreWriter {
            dir: dir.to_path_buf(),
            meta,
            shards,
            trace_shards,
            lease,
            persisted: 0,
            since_checkpoint: 0,
            checkpoint_every,
            events: EventLog::open(dir),
        };
        writer.checkpoint()?;
        Ok(writer)
    }

    /// Truncates a scanned shard to its valid prefix and reopens it for
    /// append, rewriting the header when even that was torn away. A
    /// missing shard file (a crash between manifest and shard creation)
    /// is created fresh.
    fn reopen_truncated(
        path: &Path,
        magic: &[u8; 8],
        index: u32,
        valid_len: u64,
    ) -> Result<BufWriter<File>, StoreError> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("opening", path, e))?;
        file.set_len(valid_len).map_err(|e| io_err("truncating", path, e))?;
        drop(file);
        let file =
            OpenOptions::new().append(true).open(path).map_err(|e| io_err("opening", path, e))?;
        let mut writer = BufWriter::new(file);
        if valid_len < HEADER_LEN {
            write_header_with(&mut writer, magic, index)?;
        }
        Ok(writer)
    }

    fn recover(
        dir: &Path,
        expected: StoreMeta,
        lease: Lease,
        checkpoint_every: u64,
    ) -> Result<(StoreWriter, StoreState), StoreError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let src = std::fs::read_to_string(&manifest_path)
            .map_err(|e| io_err("reading", &manifest_path, e))?;
        let found = StoreMeta::parse(&src)
            .map_err(|e| StoreError::new(format!("{}: {e}", manifest_path.display())))?;
        for (what, want, got) in [
            ("format version", u64::from(expected.format), u64::from(found.format)),
            ("plan fingerprint", expected.fingerprint, found.fingerprint),
            ("total job count", expected.total_jobs, found.total_jobs),
            ("shard count", u64::from(expected.shards), u64::from(found.shards)),
        ] {
            if want != got {
                return Err(StoreError::new(format!(
                    "{}: store {what} is {got:#x}, resuming campaign expects {want:#x} — \
                     this store was created by a different plan",
                    dir.display()
                )));
            }
        }
        if expected.traces != found.traces {
            return Err(StoreError::new(format!(
                "{}: this store was created {} trace logs but the resuming campaign needs \
                 a store {} them — likely a store from before the trace-log format; delete \
                 the directory to re-run it under the current format",
                dir.display(),
                if found.traces { "with" } else { "without" },
                if expected.traces { "with" } else { "without" },
            )));
        }

        let mut state = StoreState::empty(expected.total_jobs);
        // (job, scenes simulated) of every surviving outcome record —
        // what a complete persisted trace must cover.
        let mut scenes_of: Vec<(u64, u64)> = Vec::new();
        let mut shards = Vec::with_capacity(expected.shards as usize);
        for index in 0..expected.shards {
            let path = shard_path(dir, index);
            let scan = scan_shard(&path, index)?;
            for record in &scan.records {
                check_placement(&path, index, record.job, &expected)?;
                state.mark(record.job);
                scenes_of.push((record.job, record.scenes));
            }
            state.torn |= scan.torn;
            shards.push(Self::reopen_truncated(&path, &SHARD_MAGIC, index, scan.valid_len)?);
        }

        let trace_shards = if expected.traces {
            // Distinct persisted scenes per job: a job counts as done
            // only when its trace covers every scene its outcome record
            // claims — otherwise the outcome shard's buffer outran the
            // trace shard's before the crash, and fitting from the store
            // would silently train on a truncated trace. Demote such
            // jobs so the resume re-runs them.
            let mut scenes_seen: HashMap<u64, BTreeSet<u64>> = HashMap::new();
            let mut reopened = Vec::with_capacity(expected.shards as usize);
            for index in 0..expected.shards {
                let path = trace_shard_path(dir, index);
                let (valid_len, torn) = visit_trace_shard(&path, index, |record| {
                    if record.job >= expected.total_jobs {
                        return Err(StoreError::new(format!(
                            "trace record for job {} but the campaign has only {} jobs",
                            record.job, expected.total_jobs
                        )));
                    }
                    scenes_seen.entry(record.job).or_default().insert(record.frame.scene);
                    Ok(())
                })?;
                state.torn |= torn;
                reopened.push(Self::reopen_truncated(&path, &TRACE_MAGIC, index, valid_len)?);
            }
            for &(job, scenes) in &scenes_of {
                let covered = scenes_seen.get(&job).map_or(0, BTreeSet::len) as u64;
                if covered < scenes {
                    state.unmark(job);
                }
            }
            Some(reopened)
        } else {
            None
        };

        let mut writer = StoreWriter {
            dir: dir.to_path_buf(),
            meta: StoreMeta { checkpoint_records: state.records, complete: false, ..expected },
            shards,
            trace_shards,
            lease,
            persisted: state.records,
            since_checkpoint: 0,
            checkpoint_every,
            events: EventLog::open(dir),
        };
        writer.events.emit(
            "resume",
            &[
                ("records", Field::Int(state.records as i64)),
                ("total_jobs", Field::Int(expected.total_jobs as i64)),
                ("torn", Field::Bool(state.torn)),
            ],
        );
        writer.checkpoint()?;
        Ok((writer, state))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index into `self.shards` for `job`.
    fn shard_of(&self, job: u64) -> usize {
        (job % u64::from(self.meta.shards)) as usize
    }

    /// Distinct records persisted so far (surviving + newly appended).
    pub fn records_persisted(&self) -> u64 {
        self.persisted
    }

    /// Appends one record to its shard (`job % shards`), checkpointing
    /// every `checkpoint_every` appends.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on I/O failure.
    ///
    /// # Panics
    ///
    /// Panics when `record.job` is outside the campaign's job range — a
    /// caller bug, not a recoverable condition.
    pub fn append(&mut self, record: &CampaignRecord) -> Result<(), StoreError> {
        assert!(
            record.job < self.meta.total_jobs,
            "job {} out of range (campaign has {} jobs)",
            record.job,
            self.meta.total_jobs
        );
        let shard = self.shard_of(record.job);
        append_frame(&mut self.shards[shard], record)?;
        self.persisted += 1;
        self.since_checkpoint += 1;
        if self.since_checkpoint >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// True when the store persists golden traces alongside outcomes.
    pub fn traces_enabled(&self) -> bool {
        self.trace_shards.is_some()
    }

    /// Appends one golden-trace record to its trace shard
    /// (`job % shards`). Trace appends do not advance the checkpoint
    /// counter — the job's outcome record (appended after its frames)
    /// does, and every checkpoint flushes the trace shards first.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on I/O failure.
    ///
    /// # Panics
    ///
    /// Panics when the store was opened without trace logs (use
    /// [`open_store_with_traces`]) or `record.job` is out of range —
    /// both caller bugs.
    pub fn append_trace(&mut self, record: &TraceRecord) -> Result<(), StoreError> {
        assert!(
            record.job < self.meta.total_jobs,
            "job {} out of range (campaign has {} jobs)",
            record.job,
            self.meta.total_jobs
        );
        let shard = self.shard_of(record.job);
        let shards = self.trace_shards.as_mut().expect("store opened with trace logs");
        let mut payload = Vec::with_capacity(record.encoded_len());
        record.encode(&mut payload);
        append_payload(&mut shards[shard], &payload)
    }

    /// Flushes and syncs every shard, then atomically rewrites the
    /// manifest with the current progress.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on I/O failure.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        // Trace shards flush before outcome shards: a crash between the
        // two leaves traces without their outcome record (the job just
        // reruns), never a record claiming a trace that isn't there.
        if let Some(trace_shards) = &mut self.trace_shards {
            for (index, shard) in (0..).zip(trace_shards.iter_mut()) {
                let path = trace_shard_path(&self.dir, index);
                shard.flush().map_err(|e| io_err("flushing", &path, e))?;
                shard.get_ref().sync_all().map_err(|e| io_err("syncing", &path, e))?;
            }
        }
        for (index, shard) in (0..).zip(self.shards.iter_mut()) {
            let path = shard_path(&self.dir, index);
            shard.flush().map_err(|e| io_err("flushing", &path, e))?;
            shard.get_ref().sync_all().map_err(|e| io_err("syncing", &path, e))?;
        }
        self.meta.checkpoint_records = self.persisted;
        write_manifest(&self.dir, &self.meta)?;
        // The checkpoint doubles as the lease heartbeat: a writer that
        // keeps persisting keeps its store.
        self.lease.heartbeat()?;
        self.since_checkpoint = 0;
        self.events.emit("checkpoint", &[("records", Field::Int(self.persisted as i64))]);
        Ok(())
    }

    /// Final checkpoint; marks the store `complete` when every job's
    /// record is persisted, releases the store's lease, and returns the
    /// final manifest.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on I/O failure.
    pub fn finish(mut self) -> Result<StoreMeta, StoreError> {
        self.meta.complete = self.persisted >= self.meta.total_jobs;
        self.checkpoint()?;
        self.lease.release()?;
        Ok(self.meta)
    }
}

/// Reads a whole store directory: the manifest plus every shard's
/// surviving records, merged deterministically by job index (torn tails
/// tolerated, duplicate job records collapsed to the first persisted).
/// A resumed campaign therefore reads back exactly the record sequence
/// an uninterrupted run would have produced.
///
/// # Errors
///
/// Returns a [`StoreError`] when the directory is not a store, a shard
/// file is missing, a CRC-valid record fails to decode, or a record
/// contradicts the manifest (a job past `total_jobs`, or one in a shard
/// other than `job % shards`) — the checks a resume applies too. The
/// store is also corrupt, not interrupted, when its shards hold fewer
/// distinct records than the manifest vouches for: fewer than its
/// `checkpoint_records`, or fewer than `total_jobs` under `complete`.
/// No crash leaves that behind, because a checkpoint syncs the shards
/// before it writes the manifest. The error names each short shard and,
/// under `complete`, the jobs it is missing.
pub fn read_store(dir: impl AsRef<Path>) -> Result<(StoreMeta, Vec<CampaignRecord>), StoreError> {
    let dir = dir.as_ref();
    let meta = read_manifest(dir)?;
    // Sized once, at the most records the shard files can hold. That is
    // only a hint: a size the allocator refuses leaves the vector to
    // grow as it reads.
    let room: u64 = (0..meta.shards)
        .map(|index| {
            std::fs::metadata(shard_path(dir, index))
                .map_or(0, |m| m.len().saturating_sub(HEADER_LEN) / (8 + PAYLOAD_LEN as u64))
        })
        .sum();
    let mut records = Vec::new();
    records.try_reserve_exact(usize::try_from(room).unwrap_or(usize::MAX)).ok();
    for index in 0..meta.shards {
        let path = shard_path(dir, index);
        let start = records.len();
        visit_shard(&path, &SHARD_MAGIC, index, |payload| {
            records.push(CampaignRecord::decode(payload)?);
            Ok(())
        })?;
        for record in &records[start..] {
            check_placement(&path, index, record.job, &meta)?;
        }
    }
    records.sort_by_key(|r| r.job);
    records.dedup_by_key(|r| r.job);
    let held = records.len() as u64;
    if held < meta.checkpoint_records || (meta.complete && held < meta.total_jobs) {
        return Err(lost_records(dir, &meta, &records));
    }
    Ok((meta, records))
}

/// The [`read_store`] error for a store whose shards hold fewer records
/// (`records`, sorted and distinct) than its manifest vouches for: one
/// line per short shard and, when the manifest says `complete`, the
/// first jobs it is missing.
#[cold]
fn lost_records(dir: &Path, meta: &StoreMeta, records: &[CampaignRecord]) -> StoreError {
    use std::fmt::Write;
    let vouched = if meta.complete { meta.total_jobs } else { meta.checkpoint_records };
    let mut message = format!(
        "its manifest vouches for {vouched} records but the shards hold {} — damaged, not \
         interrupted, since a checkpoint syncs the shards before it writes the manifest",
        records.len()
    );
    for ShardProgress { shard, records: held, expected } in progress_of(meta, records) {
        if held >= expected {
            continue;
        }
        let _ = write!(message, "\n  shard {shard:03}: {held} of {expected} records");
        if meta.complete {
            let listed: Vec<String> = (u64::from(shard)..meta.total_jobs)
                .step_by(meta.shards as usize)
                .filter(|&job| records.binary_search_by_key(&job, |r| r.job).is_err())
                .take(8)
                .map(|job| job.to_string())
                .collect();
            let _ = write!(message, "; missing jobs {}", listed.join(", "));
            let more = expected - held - listed.len() as u64;
            if more > 0 {
                let _ = write!(message, " and {more} more");
            }
        }
    }
    StoreError::corrupt(dir, message)
}

/// Checks that the record for `job`, read from shard `index` at `path`,
/// fits the store's manifest: the job is one of its `total_jobs`, and
/// its shard is `job % shards`. A record that does not is corruption
/// (or a manifest edited after the fact), never an interruption.
fn check_placement(path: &Path, index: u32, job: u64, meta: &StoreMeta) -> Result<(), StoreError> {
    if job >= meta.total_jobs {
        return Err(StoreError::corrupt(
            path,
            format_args!("record for job {job} but the campaign has only {} jobs", meta.total_jobs),
        ));
    }
    if job % u64::from(meta.shards) != u64::from(index) {
        return Err(StoreError::corrupt(
            path,
            format_args!(
                "record for job {job} does not belong in shard {index} of {}",
                meta.shards
            ),
        ));
    }
    Ok(())
}

/// Per-shard completion picture of a store, for diagnostics: how many
/// distinct jobs each shard holds versus how many it should.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardProgress {
    /// Shard index.
    pub shard: u32,
    /// Distinct jobs persisted in the shard.
    pub records: u64,
    /// Jobs the shard holds when the campaign is complete.
    pub expected: u64,
}

impl ShardProgress {
    /// Whether every job of the shard is persisted.
    pub fn complete(&self) -> bool {
        self.records >= self.expected
    }
}

/// Surveys every shard of the store at `dir`, as [`read_store`] reads
/// it: distinct persisted jobs and expected jobs. Read-only — no lease
/// is claimed, no torn tails truncated — so it is safe to run against a
/// store with live writers (counts are then a snapshot, not a barrier).
///
/// # Errors
///
/// Returns the [`StoreError`] of [`read_store`].
pub fn shard_progress(dir: impl AsRef<Path>) -> Result<Vec<ShardProgress>, StoreError> {
    let (meta, records) = read_store(dir)?;
    Ok(progress_of(&meta, &records))
}

/// [`shard_progress`] over a store's records.
fn progress_of(meta: &StoreMeta, records: &[CampaignRecord]) -> Vec<ShardProgress> {
    let shards = u64::from(meta.shards);
    (0..meta.shards)
        .map(|shard| ShardProgress {
            shard,
            records: records.iter().filter(|r| r.job % shards == u64::from(shard)).count() as u64,
            // Jobs fan out by `job % shards`, so shard `i` owns
            // ceil((total - i) / shards) jobs.
            expected: meta.total_jobs.saturating_sub(u64::from(shard)).div_ceil(shards),
        })
        .collect()
}

/// Reads and parses a store directory's manifest.
///
/// # Errors
///
/// Returns a [`StoreError`] when the manifest is missing or malformed.
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<StoreMeta, StoreError> {
    let manifest_path = dir.as_ref().join(MANIFEST_FILE);
    let src = std::fs::read_to_string(&manifest_path)
        .map_err(|e| io_err("reading", &manifest_path, e))?;
    StoreMeta::parse(&src).map_err(|e| StoreError::new(format!("{}: {e}", manifest_path.display())))
}

fn write_manifest(dir: &Path, meta: &StoreMeta) -> Result<(), StoreError> {
    let path = dir.join(MANIFEST_FILE);
    // Per-pid temp name: a writer that is wedged but alive, whose lease
    // was taken over, can still checkpoint beside its successor, and a
    // shared temp file would tear under the two writes. The final rename
    // is atomic either way.
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, meta.emit()).map_err(|e| io_err("writing", &tmp, e))?;
    std::fs::rename(&tmp, &path).map_err(|e| io_err("renaming", &tmp, e))
}

/// One job's golden trace with every frame reduced by a projection (see
/// [`read_projected_traces`]): [`read_traces`] keeps whole
/// [`FrameRecord`]s, a candidate scan two flags a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedTrace<T> {
    /// Scenario id of the golden run.
    pub scenario_id: u32,
    /// The projection of each scene's frame, in scene order.
    pub frames: Vec<T>,
}

/// Reads the golden traces persisted in a trace-logging store, one
/// [`Trace`](drivefi_sim::Trace) per surviving outcome record, in job
/// order: [`read_projected_traces`] with the identity projection.
///
/// # Errors
///
/// See [`read_projected_traces`].
pub fn read_traces(
    dir: impl AsRef<Path>,
) -> Result<(StoreMeta, Vec<drivefi_sim::Trace>), StoreError> {
    let (meta, traces) = read_projected_traces(dir, |frame| *frame)?;
    let traces = traces
        .into_iter()
        .map(|t| drivefi_sim::Trace { scenario_id: t.scenario_id, frames: t.frames })
        .collect();
    Ok((meta, traces))
}

/// Reads the golden traces persisted in a trace-logging store, one
/// [`ProjectedTrace`] per surviving outcome record, in job order, keeping
/// only `project(frame)` of each frame. Each trace's frame vector is
/// allocated once, at the scene count its record claims, and the trace
/// shards are decoded straight into these vectors: frame `s` of a job
/// lands in slot `s`, and a bitmap per job marks the filled slots. A
/// frame whose slot is already filled is a demoted-and-rerun job's
/// second copy (bitwise identical, because golden runs are
/// deterministic), so the first persisted copy wins; frames of a job
/// without an outcome record (a crash before the record flushed) are
/// skipped unread. Every slot must be filled — an interrupted store
/// whose trace log lags its outcome log must be reopened (recovered)
/// before fitting from it.
///
/// # Errors
///
/// Returns a [`StoreError`] when the directory is not a trace-logging
/// store, a shard is missing, a CRC-valid record fails to decode, or a
/// job's persisted frames do not cover exactly the scenes its record
/// claims.
pub fn read_projected_traces<T: Clone>(
    dir: impl AsRef<Path>,
    mut project: impl FnMut(&FrameRecord) -> T,
) -> Result<(StoreMeta, Vec<ProjectedTrace<T>>), StoreError> {
    let dir = dir.as_ref();
    let (meta, records) = read_store(dir)?;
    if !meta.traces {
        return Err(StoreError::new(format!(
            "{}: store has no trace log (traces = false) — only golden stores persist traces",
            dir.display()
        )));
    }
    let recover_hint = "recover the store (reopen it for append) before fitting from it";
    let mut traces: Vec<ProjectedTrace<T>> = records
        .iter()
        .map(|r| ProjectedTrace { scenario_id: r.scenario_id, frames: Vec::new() })
        .collect();
    // Bit `s` of a job's bitmap is set once slot `s` holds its frame.
    let mut filled: Vec<Vec<u64>> = vec![Vec::new(); records.len()];
    for index in 0..meta.shards {
        let path = trace_shard_path(dir, index);
        // The most frames the shard can hold bounds any allocation a
        // record's claimed scene count asks for.
        let room = std::fs::metadata(&path)
            .map_or(0, |m| m.len().saturating_sub(HEADER_LEN) / (8 + TRACE_BASE_LEN as u64));
        visit_trace_shard(&path, index, |record| {
            let Ok(at) = records.binary_search_by_key(&record.job, |r| r.job) else {
                return Ok(());
            };
            let (scenes, scene) = (records[at].scenes, record.frame.scene);
            if scene >= scenes {
                return Err(StoreError::new(format!(
                    "job {} persisted a trace frame for scene {scene} but its record claims \
                     {scenes} scenes",
                    record.job
                )));
            }
            let (frames, bits) = (&mut traces[at].frames, &mut filled[at]);
            if frames.is_empty() {
                if scenes > room {
                    return Err(StoreError::new(format!(
                        "job {} claims {scenes} scenes but its trace shard holds at most {room} \
                         frames — {recover_hint}",
                        record.job
                    )));
                }
                // Every slot starts as a copy of the first frame; the
                // bitmap tells the filled slots from the copies.
                frames.resize(scenes as usize, project(&record.frame));
                bits.resize((scenes as usize).div_ceil(64), 0);
            }
            let (word, bit) = (scene as usize / 64, 1u64 << (scene % 64));
            if bits[word] & bit == 0 {
                bits[word] |= bit;
                frames[scene as usize] = project(&record.frame);
            }
            Ok(())
        })?;
    }
    for ((record, trace), bits) in records.iter().zip(&traces).zip(&filled) {
        if trace.frames.is_empty() {
            return Err(StoreError::new(format!(
                "{}: job {} has an outcome record but no persisted trace — {recover_hint}",
                dir.display(),
                record.job
            )));
        }
        let persisted: u64 = bits.iter().map(|w| u64::from(w.count_ones())).sum();
        if persisted != record.scenes {
            return Err(StoreError::new(format!(
                "{}: job {} persisted {persisted} trace frames but its record claims {} scenes — \
                 {recover_hint}",
                dir.display(),
                record.job,
                record.scenes
            )));
        }
    }
    Ok((meta, traces))
}

/// Rewrites a store's shards in **pure job order**: records land in the
/// same shard (`job % shards`) but their within-shard order becomes the
/// ascending job index, duplicates from demote-and-rerun cycles are
/// dropped, and torn tails disappear. [`read_store`] /
/// [`read_traces`] return exactly the same merged sequences before and
/// after — compaction changes bytes on disk, never results. Each shard
/// is rewritten to a temporary file, synced, and atomically renamed
/// into place; the manifest's checkpoint counter is refreshed last.
///
/// Compaction claims the store's lease for its duration: a store with a
/// **live** writer (fresh lease — held pid alive, heartbeat current)
/// refuses to compact rather than silently racing its appends, while
/// a lease left behind by a dead or timed-out writer is reclaimed and
/// the compaction proceeds.
///
/// # Errors
///
/// Returns a [`StoreError`] when the store is leased by a live writer,
/// on I/O failure, or on an unreadable store.
pub fn compact_store(dir: impl AsRef<Path>) -> Result<StoreMeta, StoreError> {
    let dir = dir.as_ref();
    // Only a store gets a lease: a directory without a manifest fails
    // here, before a lock is written into it.
    read_manifest(dir)?;
    let owner = format!("compact-{}", default_owner());
    let mut lease = Lease::acquire(dir, &owner)
        .map_err(|e| StoreError::new(format!("refusing to compact under a live writer: {e}")))?;
    let result = compact_locked(dir);
    lease.release()?;
    if let Ok(compacted) = &result {
        drivefi_obs::emit_event(
            dir,
            "compact",
            &[("records", Field::Int(compacted.checkpoint_records as i64))],
        );
    }
    result
}

fn compact_locked(dir: &Path) -> Result<StoreMeta, StoreError> {
    let (meta, records) = read_store(dir)?;

    let rewrite =
        |path: PathBuf,
         magic: &[u8; 8],
         index: u32,
         write_records: &mut dyn FnMut(&mut BufWriter<File>) -> Result<(), StoreError>|
         -> Result<(), StoreError> {
            let tmp = path.with_extension("log.tmp");
            let file = File::create(&tmp).map_err(|e| io_err("creating", &tmp, e))?;
            let mut w = BufWriter::new(file);
            write_header_with(&mut w, magic, index)?;
            write_records(&mut w)?;
            w.flush().map_err(|e| io_err("flushing", &tmp, e))?;
            w.get_ref().sync_all().map_err(|e| io_err("syncing", &tmp, e))?;
            drop(w);
            std::fs::rename(&tmp, &path).map_err(|e| io_err("renaming", &tmp, e))
        };

    for index in 0..meta.shards {
        let mine: Vec<&CampaignRecord> =
            records.iter().filter(|r| r.job % u64::from(meta.shards) == u64::from(index)).collect();
        rewrite(shard_path(dir, index), &SHARD_MAGIC, index, &mut |w| {
            for record in &mine {
                append_frame(w, record)?;
            }
            Ok(())
        })?;
    }

    if meta.traces {
        let mut trace_records = Vec::new();
        for index in 0..meta.shards {
            trace_records.extend(scan_trace_shard(&trace_shard_path(dir, index), index)?.records);
        }
        trace_records.sort_by_key(|r| (r.job, r.frame.scene));
        trace_records.dedup_by_key(|r| (r.job, r.frame.scene));
        for index in 0..meta.shards {
            let mine: Vec<&TraceRecord> = trace_records
                .iter()
                .filter(|r| r.job % u64::from(meta.shards) == u64::from(index))
                .collect();
            rewrite(trace_shard_path(dir, index), &TRACE_MAGIC, index, &mut |w| {
                let mut payload = Vec::new();
                for record in &mine {
                    payload.clear();
                    record.encode(&mut payload);
                    append_payload(w, &payload)?;
                }
                Ok(())
            })?;
        }
    }

    let compacted = StoreMeta { checkpoint_records: records.len() as u64, ..meta };
    write_manifest(dir, &compacted)?;
    Ok(compacted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_sim::Outcome;

    fn record(job: u64) -> CampaignRecord {
        CampaignRecord {
            job,
            scenario_id: (job % 5) as u32,
            scenario_seed: job * 31,
            fault: None,
            outcome: if job.is_multiple_of(3) {
                Outcome::Hazard { scene: job }
            } else {
                Outcome::Safe
            },
            injections: job % 2,
            scenes: 300,
            min_delta_lon: job as f64 - 4.0,
            min_delta_lat: 1.5,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drivefi-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        // FNV-1a reference vector plus basic discrimination.
        assert_eq!(fingerprint64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fingerprint64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_ne!(fingerprint64(b"plan-a"), fingerprint64(b"plan-b"));
    }

    #[test]
    fn manifest_round_trips() {
        for traces in [false, true] {
            let meta = StoreMeta {
                format: FORMAT_VERSION,
                fingerprint: 0xDEAD_BEEF_0123_4567,
                total_jobs: 1_000_000,
                shards: 16,
                checkpoint_records: 37,
                complete: false,
                traces,
            };
            assert_eq!(StoreMeta::parse(&meta.emit()), Ok(meta));
        }
        assert!(StoreMeta::parse("format = 1\nvelocity = 9\n").is_err());
        assert!(StoreMeta::parse("format = banana\n").is_err());
        // Manifests predating the trace log parse with traces = false.
        let legacy = "format = 1\nfingerprint = 0x1\ntotal_jobs = 2\nshards = 1\n\
                      checkpoint_records = 0\ncomplete = false\n";
        assert!(!StoreMeta::parse(legacy).unwrap().traces);
        // Values that would wrap or leave the store without a shard are
        // errors naming the key, not a different store.
        for (from, to, key) in [
            ("shards = 1\n", "shards = 0\n", "`shards`"),
            ("shards = 1\n", "shards = 4294967300\n", "`shards`"),
            ("shards = 1\n", "shards = 4294967295\n", "`shards`"),
            ("format = 1\n", "format = 4294967297\n", "`format`"),
        ] {
            let err = StoreMeta::parse(&legacy.replace(from, to)).expect_err(to);
            assert!(err.to_string().contains(key), "{to}: {err}");
        }
        // Opening refuses such a store before it creates anything.
        let dir = temp_dir("too-many-shards");
        assert!(open_store(&dir, 1, 1, MAX_SHARDS + 1, 1).is_err());
        assert!(!dir.exists());
    }

    proptest::proptest! {
        #[test]
        fn manifest_and_lease_parsers_return_on_arbitrary_bytes(
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let raw: Vec<u8> = (0..rng.random_range(0..96)).map(|_| rng.random()).collect();
            // Near-miss files reach the value checks: real keys with
            // empty, signed, hex, boolean, huge and garbage values.
            let keys = [
                "format",
                "fingerprint",
                "total_jobs",
                "shards",
                "checkpoint_records",
                "complete",
                "traces",
                "owner",
                "pid",
                "x",
            ];
            let values = [
                "",
                "0",
                "1",
                "-1",
                "0x",
                "0xffffffffff",
                "true",
                "4294967296",
                "18446744073709551616",
                "=",
                "\u{fffd}",
            ];
            let mut lines = String::new();
            for _ in 0..rng.random_range(0..10) {
                let key = keys[rng.random_range(0..keys.len())];
                let value = values[rng.random_range(0..values.len())];
                lines.push_str(&format!("{key} = {value}\n"));
            }
            for src in [String::from_utf8_lossy(&raw).into_owned(), lines] {
                let _ = StoreMeta::parse(&src);
                let _ = crate::lease::LeaseInfo::parse(&src);
            }
        }
    }

    #[test]
    fn fresh_store_appends_and_reads_back_sharded() {
        let dir = temp_dir("fresh");
        let (mut writer, state) = open_store(&dir, 42, 20, 3, 4).unwrap();
        assert_eq!(state.records(), 0);
        // Append out of order — completion order never matches job order.
        for job in [5u64, 0, 19, 7, 2, 11, 3, 1] {
            writer.append(&record(job)).unwrap();
        }
        let meta = writer.finish().unwrap();
        assert!(!meta.complete, "only 8 of 20 jobs persisted");
        assert_eq!(meta.checkpoint_records, 8);

        let (read_meta, records) = read_store(&dir).unwrap();
        assert_eq!(read_meta, meta);
        let jobs: Vec<u64> = records.iter().map(|r| r.job).collect();
        assert_eq!(jobs, vec![0, 1, 2, 3, 5, 7, 11, 19], "merged by job index");
        assert_eq!(records[4], record(5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_truncates_torn_tail_and_resumes() {
        let dir = temp_dir("recover");
        let (mut writer, _) = open_store(&dir, 7, 10, 2, 100).unwrap();
        for job in 0..6u64 {
            writer.append(&record(job)).unwrap();
        }
        writer.finish().unwrap();

        // Tear the tail of shard 0 (jobs 0, 2, 4): chop 5 bytes off.
        let path = shard_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 5).unwrap();

        let (mut writer, state) = open_store(&dir, 7, 10, 2, 100).unwrap();
        assert!(state.torn);
        assert_eq!(state.records(), 5, "job 4's record was torn away");
        assert!(state.is_done(3) && state.is_done(2) && !state.is_done(4));
        // Re-run the lost job and the remaining ones.
        for job in [4u64, 6, 7, 8, 9] {
            assert!(!state.is_done(job));
            writer.append(&record(job)).unwrap();
        }
        let meta = writer.finish().unwrap();
        assert!(meta.complete);

        let (_, records) = read_store(&dir).unwrap();
        assert_eq!(records.len(), 10);
        for (job, r) in records.iter().enumerate() {
            assert_eq!(*r, record(job as u64), "job {job} round-trips after recovery");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_loss_is_refused_not_truncated() {
        // Shards full of fsynced records whose manifest vanished must
        // never be silently recreated-over (File::create would truncate
        // every record).
        let dir = temp_dir("manifestloss");
        let (mut writer, _) = open_store(&dir, 5, 8, 2, 16).unwrap();
        for job in 0..8u64 {
            writer.append(&record(job)).unwrap();
        }
        writer.finish().unwrap();
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let err = open_store(&dir, 5, 8, 2, 16).expect_err("manifest lost");
        assert!(err.to_string().contains("refusing"), "got: {err}");
        // The shards survived the refusal intact.
        let scan = scan_shard(&shard_path(&dir, 0), 0).unwrap();
        assert_eq!(scan.records.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_fingerprint_refuses_to_resume() {
        let dir = temp_dir("mismatch");
        let (writer, _) = open_store(&dir, 1, 4, 2, 8).unwrap();
        writer.finish().unwrap();
        let err = open_store(&dir, 2, 4, 2, 8).expect_err("wrong fingerprint");
        assert!(err.to_string().contains("fingerprint"), "got: {err}");
        let err = open_store(&dir, 1, 5, 2, 8).expect_err("wrong job count");
        assert!(err.to_string().contains("job count"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoints_rewrite_the_manifest_periodically() {
        let dir = temp_dir("checkpoint");
        let (mut writer, _) = open_store(&dir, 9, 100, 4, 5).unwrap();
        for job in 0..12u64 {
            writer.append(&record(job)).unwrap();
        }
        // 12 appends at a period of 5 → last checkpoint at 10 records.
        let src = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let meta = StoreMeta::parse(&src).unwrap();
        assert_eq!(meta.checkpoint_records, 10);
        assert!(!meta.complete);
        drop(writer);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sustained_append_beats_100k_records_per_second() {
        // The acceptance floor of the persistence layer. Real hardware
        // sustains millions/s through the buffered sharded path; the
        // 100k bar leaves ~100x headroom for loaded CI machines.
        let dir = temp_dir("throughput");
        const N: u64 = 200_000;
        let (mut writer, _) = open_store(&dir, 1, N, 8, 16_384).unwrap();
        let start = std::time::Instant::now();
        for job in 0..N {
            writer.append(&record(job)).unwrap();
        }
        writer.finish().unwrap();
        let rate = N as f64 / start.elapsed().as_secs_f64();
        std::fs::remove_dir_all(&dir).ok();
        assert!(rate >= 100_000.0, "sustained append rate {rate:.0} records/s < 100k/s");
    }

    /// A deterministic golden-shaped trace for `job`: `scenes` frames
    /// with a lead object.
    fn trace_records(job: u64, scenes: u64) -> Vec<TraceRecord> {
        (0..scenes)
            .map(|scene| TraceRecord {
                job,
                scenario_id: (job % 5) as u32,
                scenario_seed: job * 31,
                frame: drivefi_sim::FrameRecord {
                    scene,
                    time: scene as f64 / 7.5,
                    ego: drivefi_kinematics::VehicleState::new(
                        3.0 * scene as f64,
                        0.0,
                        28.0,
                        0.0,
                        0.0,
                    ),
                    pose: drivefi_kinematics::VehicleState::new(
                        3.0 * scene as f64,
                        0.1,
                        28.0,
                        0.0,
                        0.0,
                    ),
                    imu_speed: 28.0,
                    imu_accel: 0.0,
                    lead_distance: Some(40.0 + scene as f64),
                    lead_speed: Some(26.0),
                    raw_cmd: drivefi_kinematics::Actuation::new(0.3, 0.0, 0.0),
                    final_cmd: drivefi_kinematics::Actuation::new(0.3, 0.0, 0.0),
                    delta_perceived: drivefi_kinematics::SafetyPotential {
                        longitudinal: 10.0,
                        lateral: 0.5,
                    },
                    delta_true: drivefi_kinematics::SafetyPotential {
                        longitudinal: 9.5,
                        lateral: 0.5,
                    },
                },
            })
            .collect()
    }

    fn golden_record(job: u64, scenes: u64) -> CampaignRecord {
        CampaignRecord { fault: None, injections: 0, scenes, ..record(job) }
    }

    fn append_golden_job(writer: &mut StoreWriter, job: u64, scenes: u64) {
        for trace in trace_records(job, scenes) {
            writer.append_trace(&trace).unwrap();
        }
        writer.append(&golden_record(job, scenes)).unwrap();
    }

    #[test]
    fn trace_store_round_trips_traces_per_job() {
        let dir = temp_dir("traces");
        let (mut writer, state) = open_store_with_traces(&dir, 21, 4, 2, 64).unwrap();
        assert_eq!(state.records(), 0);
        for job in [2u64, 0, 3, 1] {
            append_golden_job(&mut writer, job, 5 + job);
        }
        assert!(writer.finish().unwrap().complete);

        let (meta, traces) = read_traces(&dir).unwrap();
        assert!(meta.traces);
        assert_eq!(traces.len(), 4);
        for (job, trace) in traces.iter().enumerate() {
            let job = job as u64;
            assert_eq!(trace.scenario_id, (job % 5) as u32);
            assert_eq!(trace.frames.len() as u64, 5 + job);
            let expected: Vec<_> = trace_records(job, 5 + job).iter().map(|r| r.frame).collect();
            assert_eq!(trace.frames, expected, "job {job} trace round-trips");
        }
        // A plain outcome store refuses trace reads.
        let plain = temp_dir("traces-plain");
        let (writer, _) = open_store(&plain, 1, 1, 1, 8).unwrap();
        writer.finish().unwrap();
        assert!(read_traces(&plain).unwrap_err().to_string().contains("no trace log"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&plain).ok();
    }

    #[test]
    fn incomplete_trace_demotes_the_job_on_recovery() {
        // The auto-flush hazard: an outcome record hits disk while part
        // of its trace is still buffered. Recovery must not trust the
        // record alone — the job reruns.
        let dir = temp_dir("demote");
        let (mut writer, _) = open_store_with_traces(&dir, 9, 2, 1, 64).unwrap();
        append_golden_job(&mut writer, 0, 6);
        append_golden_job(&mut writer, 1, 6);
        writer.finish().unwrap();

        // Chop two whole frames off the trace shard's tail (job 1 loses
        // coverage) while the outcome shard keeps both records.
        let path = trace_shard_path(&dir, 0);
        let full = std::fs::metadata(&path).unwrap().len();
        let scan = scan_trace_shard(&path, 0).unwrap();
        assert_eq!(scan.records.len(), 12);
        let frame_bytes = (full - HEADER_LEN) / 12;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full - 2 * frame_bytes)
            .unwrap();

        let (mut writer, state) = open_store_with_traces(&dir, 9, 2, 1, 64).unwrap();
        assert!(state.is_done(0), "job 0's trace is intact");
        assert!(!state.is_done(1), "job 1's record without its full trace is not done");
        assert_eq!(state.records(), 1);
        // Rerun job 1; the duplicate frames/record collapse on read.
        append_golden_job(&mut writer, 1, 6);
        assert!(writer.finish().unwrap().complete);
        let (_, traces) = read_traces(&dir).unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[1].frames.len(), 6);
        let (_, records) = read_store(&dir).unwrap();
        assert_eq!(records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lost_manifest_is_detected_for_any_shard_index() {
        // The orphaned store used MORE shards than the resuming plan: a
        // probe over 0..new_shards would miss shard-007 entirely and
        // truncate it via File::create.
        let dir = temp_dir("orphan-high");
        let (mut writer, _) = open_store(&dir, 5, 8, 8, 16).unwrap();
        writer.append(&record(7)).unwrap(); // lands in shard-007 only
        writer.finish().unwrap();
        for index in 0..7 {
            std::fs::remove_file(shard_path(&dir, index)).unwrap();
        }
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let err = open_store(&dir, 5, 8, 2, 16).expect_err("high-index orphan shard");
        assert!(err.to_string().contains("refusing"), "got: {err}");
        // Orphaned *trace* shards are refused the same way.
        let dir2 = temp_dir("orphan-trace");
        let (mut writer, _) = open_store_with_traces(&dir2, 5, 8, 4, 16).unwrap();
        append_golden_job(&mut writer, 3, 2);
        writer.finish().unwrap();
        for index in 0..4 {
            std::fs::remove_file(shard_path(&dir2, index)).unwrap();
        }
        std::fs::remove_file(dir2.join(MANIFEST_FILE)).unwrap();
        let err = open_store(&dir2, 5, 8, 4, 16).expect_err("orphan trace shard");
        assert!(err.to_string().contains("refusing"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn compaction_rewrites_shards_in_job_order_without_changing_reads() {
        let dir = temp_dir("compact");
        let (mut writer, _) = open_store_with_traces(&dir, 13, 9, 3, 4).unwrap();
        // Completion order scrambled relative to job order, job 7 absent.
        for job in [5u64, 0, 8, 2, 6, 3, 1, 4] {
            append_golden_job(&mut writer, job, 4);
        }
        writer.finish().unwrap();
        let before = read_store(&dir).unwrap();
        let before_traces = read_traces(&dir).unwrap();

        let meta = compact_store(&dir).unwrap();
        assert_eq!(meta.checkpoint_records, 8);
        assert_eq!(read_store(&dir).unwrap(), before, "reads changed by compaction");
        assert_eq!(read_traces(&dir).unwrap(), before_traces);

        // Within every shard the raw append order is now the job order.
        for index in 0..3 {
            let scan = scan_shard(&shard_path(&dir, index), index).unwrap();
            assert!(!scan.torn);
            let jobs: Vec<u64> = scan.records.iter().map(|r| r.job).collect();
            let mut sorted = jobs.clone();
            sorted.sort_unstable();
            assert_eq!(jobs, sorted, "shard {index} not in job order");
            let trace_scan = scan_trace_shard(&trace_shard_path(&dir, index), index).unwrap();
            let keys: Vec<(u64, u64)> =
                trace_scan.records.iter().map(|r| (r.job, r.frame.scene)).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "trace shard {index} not in (job, scene) order");
        }

        // Compaction drops the duplicates a demote-and-rerun left behind.
        let (mut writer, _) = open_store_with_traces(&dir, 13, 9, 3, 4).unwrap();
        append_golden_job(&mut writer, 7, 4);
        writer.finish().unwrap();
        let complete = read_store(&dir).unwrap();
        compact_store(&dir).unwrap();
        assert_eq!(read_store(&dir).unwrap(), complete);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sustained_trace_append_beats_100k_frames_per_second() {
        // The trace log's acceptance floor, mirroring the outcome log's:
        // a golden run emits a few hundred frames per job, so 100k
        // frames/s keeps trace persistence far off the critical path.
        let dir = temp_dir("trace-throughput");
        const JOBS: u64 = 400;
        const SCENES: u64 = 300;
        let (mut writer, _) = open_store_with_traces(&dir, 1, JOBS, 8, 64).unwrap();
        let start = std::time::Instant::now();
        for job in 0..JOBS {
            append_golden_job(&mut writer, job, SCENES);
        }
        writer.finish().unwrap();
        let rate = (JOBS * SCENES) as f64 / start.elapsed().as_secs_f64();
        std::fs::remove_dir_all(&dir).ok();
        assert!(rate >= 100_000.0, "sustained trace append rate {rate:.0} frames/s < 100k/s");
    }

    #[test]
    fn live_writer_blocks_compaction_and_second_opens() {
        let dir = temp_dir("livelock");
        let (mut writer, _) = open_store(&dir, 3, 8, 2, 4).unwrap();
        writer.append(&record(0)).unwrap();
        writer.checkpoint().unwrap();
        // A live writer blocks everything that would race it.
        let err = compact_store(&dir).expect_err("compacting under a live writer");
        assert!(err.to_string().contains("refusing to compact"), "got: {err}");
        let err = open_store(&dir, 3, 8, 2, 4).expect_err("a second writer");
        assert!(err.to_string().contains("leased"), "got: {err}");
        // Finishing releases the lease; compaction proceeds.
        writer.finish().unwrap();
        compact_store(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_progress_counts_each_shards_jobs() {
        let dir = temp_dir("progress");
        let (mut writer, _) = open_store(&dir, 4, 10, 4, 100).unwrap();
        for job in [0u64, 1, 4, 5, 9] {
            writer.append(&record(job)).unwrap();
        }
        writer.checkpoint().unwrap();
        let progress = shard_progress(&dir).unwrap();
        let counts: Vec<(u64, u64)> = progress.iter().map(|p| (p.records, p.expected)).collect();
        assert_eq!(counts, [(2, 3), (3, 3), (0, 2), (0, 2)]);
        writer.finish().unwrap();
        // A manifest's job count comes from disk: the survey must not
        // overflow on the largest one.
        let path = dir.join(MANIFEST_FILE);
        let huge = format!("total_jobs = {}", u64::MAX);
        let src = std::fs::read_to_string(&path).unwrap().replace("total_jobs = 10", &huge);
        std::fs::write(&path, src).unwrap();
        assert_eq!(shard_progress(&dir).unwrap()[3].expected, (u64::MAX - 3).div_ceil(4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lease_is_reclaimed_by_compaction() {
        let dir = temp_dir("stale-compact");
        let (mut writer, _) = open_store(&dir, 3, 6, 3, 100).unwrap();
        for job in 0..6u64 {
            writer.append(&record(job)).unwrap();
        }
        writer.finish().unwrap();
        // A kill -9'd writer left its lock behind: the pid is dead, so
        // compaction reclaims the lease instead of failing.
        let lock = dir.join(crate::LEASE_FILE);
        std::fs::write(&lock, "owner = crashed-writer\npid = 4294967295\n").unwrap();
        compact_store(&dir).unwrap();
        assert!(!lock.exists(), "stale lease reclaimed");
        let (_, records) = read_store(&dir).unwrap();
        assert_eq!(records.len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_the_manifest_vouches_for_must_be_in_the_shards() {
        // Drops shard `index`'s last record, as a flipped byte in its
        // final frame would.
        let drop_last = |dir: &Path, index: u32| {
            let path = shard_path(dir, index);
            let len = std::fs::metadata(&path).unwrap().len();
            let frame = 8 + PAYLOAD_LEN as u64;
            OpenOptions::new().write(true).open(&path).unwrap().set_len(len - frame).unwrap();
        };

        // Interrupted after 8 of 12 jobs, all checkpointed.
        let dir = temp_dir("vouched");
        let (mut writer, _) = open_store(&dir, 3, 12, 3, 2).unwrap();
        for job in 0..8u64 {
            writer.append(&record(job)).unwrap();
        }
        assert!(!writer.finish().unwrap().complete);
        assert_eq!(read_store(&dir).unwrap().1.len(), 8);
        drop_last(&dir, 0);
        let err = read_store(&dir).unwrap_err().to_string();
        assert!(err.contains("corrupt store") && err.contains("vouches for 8 records"), "{err}");
        assert!(err.contains("shard 000: 2 of 4 records") && !err.contains("missing"), "{err}");

        // Complete, then job 10 is lost from shard 1.
        let dir = temp_dir("vouched-complete");
        let (mut writer, _) = open_store(&dir, 3, 12, 3, 100).unwrap();
        for job in 0..12u64 {
            writer.append(&record(job)).unwrap();
        }
        assert!(writer.finish().unwrap().complete);
        drop_last(&dir, 1);
        let err = read_store(&dir).unwrap_err().to_string();
        assert!(err.contains("vouches for 12 records"), "{err}");
        assert!(err.contains("shard 001: 3 of 4 records; missing jobs 10"), "{err}");
        assert!(!err.contains("shard 000") && !err.contains("shard 002"), "{err}");
        // Resuming re-runs the lost job.
        let (mut writer, state) = open_store(&dir, 3, 12, 3, 100).unwrap();
        assert!(!state.is_done(10));
        writer.append(&record(10)).unwrap();
        assert!(writer.finish().unwrap().complete);
        assert_eq!(read_store(&dir).unwrap().1.len(), 12);
        std::fs::remove_dir_all(temp_dir("vouched")).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn whole_shard_loss_is_rerun_not_fatal() {
        let dir = temp_dir("shardloss");
        let (mut writer, _) = open_store(&dir, 3, 6, 3, 100).unwrap();
        for job in 0..6u64 {
            writer.append(&record(job)).unwrap();
        }
        writer.finish().unwrap();
        // Truncate shard 1 to zero bytes (even the header gone).
        OpenOptions::new().write(true).open(shard_path(&dir, 1)).unwrap().set_len(0).unwrap();
        let (mut writer, state) = open_store(&dir, 3, 6, 3, 100).unwrap();
        assert_eq!(state.records(), 4);
        for job in [1u64, 4] {
            assert!(!state.is_done(job));
            writer.append(&record(job)).unwrap();
        }
        assert!(writer.finish().unwrap().complete);
        let (_, records) = read_store(&dir).unwrap();
        assert_eq!(records.len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }
}
