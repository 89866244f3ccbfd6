//! Persistent campaign store: every injection outcome survives the
//! process that produced it.
//!
//! DriveFI-style campaigns only pay off at scale — millions of
//! (scenario × fault) jobs — and at that scale the run *will* be
//! interrupted: preemption, crashes, budget caps. The paper's Bayesian
//! miner and AVFI both learn from persisted per-injection outcomes, so
//! the store is the layer everything above the engine writes into:
//!
//! * [`CampaignRecord`] — one fixed-layout binary record per campaign
//!   job: job index, scenario identity, the armed
//!   [`FaultSpec`](drivefi_fault::FaultSpec), the
//!   [`Outcome`](drivefi_sim::Outcome), injection count, and the hazard
//!   metrics (min ground-truth δ).
//! * [`log`] — the append-only record log: CRC-framed records in
//!   self-describing shard files. A torn trailing record (the classic
//!   crash artifact) is tolerated on read and truncated away on
//!   recovery; everything before it survives.
//! * [`StoreWriter`] / [`open_store`] — the sharded store directory:
//!   records fan out over `shards` files by `job % shards` (a pure
//!   function of the job index, so layout never depends on worker
//!   scheduling), periodic checkpoint [`manifests`](StoreMeta) mark
//!   progress, and `StoreWriter::recover` reopens an interrupted
//!   store for append after validating that the resuming plan is the
//!   one that created it.
//! * [`StoreSink`] — the [`CampaignSink`](drivefi_sim::CampaignSink)
//!   adapter: streams engine results straight to disk.
//! * [`lease`] — the store lease (one lock file with a heartbeat mtime
//!   and stale-lease takeover) that keeps a store to one writer: a
//!   second live writer is refused, and a restarted one takes over the
//!   lease of a writer that died. [`compact_store`] claims the lease
//!   first, so it never races a live writer.
//!
//! Reads merge the shards deterministically by job index, so a resumed
//! campaign reconstructs exactly the record sequence an uninterrupted
//! run would have produced — `drivefi-plan` builds its byte-identical
//! round-trip reports on that guarantee.

pub mod lease;
pub mod log;
pub mod record;
pub mod sink;
pub mod store;
pub mod trace;

pub use lease::{probe_lease, Lease, LeaseInfo, LeaseState, DEFAULT_LEASE_TIMEOUT, LEASE_FILE};
pub use record::{CampaignRecord, PAYLOAD_LEN};
pub use sink::{RecordMeta, StoreSink};
pub use store::{
    compact_store, fingerprint64, open_store, open_store_with_traces, read_manifest,
    read_projected_traces, read_store, read_traces, shard_progress, ProjectedTrace, ShardProgress,
    StoreMeta, StoreState, StoreWriter, MANIFEST_FILE, MAX_SHARDS,
};
pub use trace::{scan_trace_shard, TraceRecord, TRACE_BASE_LEN};

/// An error from encoding, decoding, or store I/O.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreError {
    message: String,
    corrupt: bool,
}

impl StoreError {
    /// An error carrying `message`.
    pub fn new(message: String) -> Self {
        StoreError { message, corrupt: false }
    }

    /// The error for the store at `path` whose bytes contradict its
    /// manifest: "`path`: corrupt store: `detail`".
    pub(crate) fn corrupt(path: &std::path::Path, detail: impl std::fmt::Display) -> Self {
        let message = format!("{}: corrupt store: {detail}", path.display());
        StoreError { message, corrupt: true }
    }

    /// True when the store is damaged, not interrupted or busy: no
    /// retry or resume can complete it.
    pub fn is_corrupt(&self) -> bool {
        self.corrupt
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for StoreError {}
