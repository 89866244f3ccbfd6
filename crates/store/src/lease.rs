//! Shard leases: per-shard lock files that keep a store to one writer.
//!
//! A writer claims one `lease-NNN.lock` file for every shard of the
//! store, beside the manifest, carrying the owner id and pid:
//!
//! ```text
//! out/run1/
//!   manifest.toml
//!   shard-000.log
//!   lease-000.lock   # owner = pid-4242 / pid = 4242
//! ```
//!
//! A lock is published whole: its content is written to a private
//! temporary file first, which a hard link then makes the lock —
//! failing, like `O_CREAT | O_EXCL`, when a lock exists, so exactly one
//! claimant wins. A writer killed at any point leaves either no lock or
//! a complete one.
//!
//! Every claimant takes `0..shards`, so two openers of one store always
//! contend for shard 0 and at most one of them proceeds.
//!
//! The file's mtime is the lease heartbeat: the holder refreshes it at
//! every checkpoint. A lease is **stale** — and may be taken over — when
//! its holder's pid is dead, or when the heartbeat is older than
//! [`DEFAULT_LEASE_TIMEOUT`] (the fallback for platforms without
//! `/proc`, and the bound on how long a wedged-but-alive writer can
//! squat on a store). Takeover is race-free without fcntl locks: the
//! claimant atomically renames the stale lock to a private name (exactly
//! one renamer succeeds), deletes it, and claims fresh. A heartbeat
//! renames a complete new lock over the old one.
//!
//! A kill -9'd writer leaves its locks behind with a dead pid, so a
//! restarting daemon reclaims them instantly; a cleanly dropped
//! [`LeaseSet`] removes its locks on the way out.

use crate::StoreError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Heartbeat age past which a lease may be taken over even when the
/// holder pid cannot be proven dead. Writers heartbeat at every
/// checkpoint, so this only bites a writer that has gone a long time
/// without persisting anything.
pub const DEFAULT_LEASE_TIMEOUT: Duration = Duration::from_secs(120);

/// The lock-file path guarding shard `index` of the store at `dir`.
pub fn lease_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("lease-{index:03}.lock"))
}

/// The lease owner id of this process's store writers.
pub(crate) fn default_owner() -> String {
    format!("pid-{}", std::process::id())
}

/// What a lease lock file says about its holder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Shard index the lease guards.
    pub shard: u32,
    /// Holder's self-declared owner id.
    pub owner: String,
    /// Holder's pid at claim time.
    pub pid: u32,
}

impl LeaseInfo {
    fn emit(&self) -> String {
        format!("owner = {}\npid = {}\n", self.owner, self.pid)
    }

    pub(crate) fn parse(shard: u32, src: &str) -> Option<LeaseInfo> {
        let mut owner = None;
        let mut pid = None;
        for line in src.lines() {
            let (key, value) = line.split_once('=')?;
            match key.trim() {
                "owner" => owner = Some(value.trim().to_string()),
                "pid" => pid = value.trim().parse().ok(),
                _ => return None,
            }
        }
        Some(LeaseInfo { shard, owner: owner?, pid: pid? })
    }
}

/// Whether the pid is a live process: `Some(alive)` when `/proc` can
/// answer, `None` on platforms without it (staleness then falls back to
/// the heartbeat timeout alone).
fn pid_alive(pid: u32) -> Option<bool> {
    if !Path::new("/proc").is_dir() {
        return None;
    }
    Some(Path::new(&format!("/proc/{pid}")).exists())
}

/// Externally observable state of one shard's lease lock, for status
/// displays and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseState {
    /// No lock file — no writer holds the shard.
    Unheld,
    /// Held by a live writer (pid alive, heartbeat current).
    Live {
        /// Holder description, e.g. `` `pid-4242` (pid 4242) ``.
        holder: String,
    },
    /// A lock left behind by a dead or timed-out writer.
    Stale {
        /// Holder description of the departed writer.
        holder: String,
    },
}

/// Reads the lock at `path`: its state under the takeover rules (dead
/// holder pid, or heartbeat older than [`DEFAULT_LEASE_TIMEOUT`]) and
/// the heartbeat's age, when the file has one.
fn examine(path: &Path, shard: u32) -> (LeaseState, Option<Duration>) {
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return (LeaseState::Unheld, None),
        // Unreadable lock: treat as held and let the mtime decide below.
        Err(_) => String::new(),
    };
    let age = std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|mtime| mtime.elapsed().ok());
    let info = LeaseInfo::parse(shard, &src);
    // A holder whose pid is provably dead is stale immediately — this is
    // what makes kill -9 + restart reclaim the store without waiting out
    // the timeout. Otherwise the heartbeat decides.
    let dead = info.as_ref().is_some_and(|info| pid_alive(info.pid) == Some(false));
    let holder = info.map_or_else(
        || "an unreadable holder".to_string(),
        |info| format!("`{}` (pid {})", info.owner, info.pid),
    );
    let state = if dead || age.is_some_and(|age| age > DEFAULT_LEASE_TIMEOUT) {
        LeaseState::Stale { holder }
    } else {
        LeaseState::Live { holder }
    };
    (state, age)
}

/// Reports the lease state of shard `index` of the store at `dir`,
/// using the same staleness rules as acquisition. A read-only probe:
/// unlike [`LeaseSet::acquire`] it never claims, steals, or touches the
/// lock.
pub fn probe_lease(dir: &Path, index: u32) -> LeaseState {
    examine(&lease_path(dir, index), index).0
}

/// The shard leases one writer holds over a store directory. Acquired
/// by [`LeaseSet::acquire`]; heartbeated at every checkpoint; released
/// (lock files removed) by [`LeaseSet::release`] or on drop.
#[derive(Debug)]
pub struct LeaseSet {
    dir: PathBuf,
    owner: String,
    /// Shards `0..held` are claimed.
    held: u32,
}

impl LeaseSet {
    /// Claims the lease for every shard in `0..shards`, taking over
    /// stale locks and refusing live ones. On failure nothing stays
    /// claimed.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] naming the live holder when a shard is
    /// already leased, or on I/O failure.
    pub fn acquire(dir: &Path, shards: u32, owner: &str) -> Result<LeaseSet, StoreError> {
        let mut set = LeaseSet { dir: dir.to_path_buf(), owner: owner.to_string(), held: 0 };
        for shard in 0..shards {
            set.claim_one(shard)?;
            set.held += 1;
        }
        Ok(set)
    }

    /// Writes this writer's lock content for `shard` to a fresh
    /// temporary file beside the lock, from which the lock is published
    /// whole.
    fn stage(&self, shard: u32) -> Result<PathBuf, StoreError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let pid = std::process::id();
        let info = LeaseInfo { shard, owner: self.owner.clone(), pid };
        let serial = NEXT.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".lease-{shard:03}.lock.tmp.{pid}.{serial}"));
        std::fs::write(&tmp, info.emit()).map_err(|e| io_err("writing", &tmp, e))?;
        Ok(tmp)
    }

    fn claim_one(&self, shard: u32) -> Result<(), StoreError> {
        let tmp = self.stage(shard)?;
        let claimed = self.publish_claim(shard, &tmp);
        std::fs::remove_file(&tmp).ok();
        claimed
    }

    /// Makes the staged lock `tmp` shard `shard`'s lock, unless a live
    /// writer holds it.
    fn publish_claim(&self, shard: u32, tmp: &Path) -> Result<(), StoreError> {
        let path = lease_path(&self.dir, shard);
        // Bounded retries: each loop either claims, steals a stale lock,
        // or observes a live holder and fails. Two claimants racing the
        // same stale lock need one extra pass, never more.
        for _ in 0..8 {
            match std::fs::hard_link(tmp, &path) {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    match examine(&path, shard) {
                        (LeaseState::Live { holder }, age) => {
                            let age = age.map_or_else(String::new, |age| {
                                format!(", heartbeat {}s ago", age.as_secs())
                            });
                            return Err(StoreError::new(format!(
                                "shard {shard} of {} is leased by {holder}{age} — another \
                                 writer is active",
                                self.dir.display()
                            )));
                        }
                        // The holder released while we looked: claim again.
                        (LeaseState::Unheld, _) => {}
                        (LeaseState::Stale { .. }, _) => {
                            // Atomic steal: exactly one claimant wins the
                            // rename; the losers loop and re-examine.
                            let grave = self
                                .dir
                                .join(format!("lease-{shard:03}.stale.{}", std::process::id()));
                            if std::fs::rename(&path, &grave).is_ok() {
                                let prev = std::fs::read_to_string(&grave)
                                    .ok()
                                    .and_then(|src| LeaseInfo::parse(shard, &src));
                                std::fs::remove_file(&grave)
                                    .map_err(|e| io_err("removing", &grave, e))?;
                                drivefi_obs::emit_event(
                                    &self.dir,
                                    "lease_takeover",
                                    &[
                                        ("shard", drivefi_obs::Field::Int(i64::from(shard))),
                                        (
                                            "from",
                                            drivefi_obs::Field::Str(prev.map_or_else(
                                                || "unreadable".to_string(),
                                                |p| p.owner,
                                            )),
                                        ),
                                        ("to", drivefi_obs::Field::Str(self.owner.clone())),
                                    ],
                                );
                            }
                        }
                    }
                }
                Err(e) => return Err(io_err("claiming", &path, e)),
            }
        }
        Err(StoreError::new(format!(
            "shard {shard} of {}: lease claim kept losing takeover races",
            self.dir.display()
        )))
    }

    /// Refreshes every held lease's heartbeat mtime by renaming a
    /// complete new lock over the old one, so an examiner never sees a
    /// lock half-written.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on I/O failure.
    pub fn heartbeat(&self) -> Result<(), StoreError> {
        for shard in 0..self.held {
            let path = lease_path(&self.dir, shard);
            let tmp = self.stage(shard)?;
            std::fs::rename(&tmp, &path).map_err(|e| {
                std::fs::remove_file(&tmp).ok();
                io_err("heartbeating", &path, e)
            })?;
        }
        Ok(())
    }

    /// Removes every held lock file. Idempotent; also runs on drop
    /// (best-effort there).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on I/O failure.
    pub fn release(&mut self) -> Result<(), StoreError> {
        for shard in 0..std::mem::take(&mut self.held) {
            let path = lease_path(&self.dir, shard);
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err("releasing", &path, e)),
            }
        }
        Ok(())
    }
}

impl Drop for LeaseSet {
    fn drop(&mut self) {
        self.release().ok();
    }
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::new(format!("{what} lease {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drivefi-lease-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_live_lease_refuses_the_whole_claim() {
        let dir = temp_dir("live");
        let a = LeaseSet::acquire(&dir, 2, "writer-a").unwrap();
        let err = LeaseSet::acquire(&dir, 4, "writer-c").expect_err("shard 0 is held");
        assert!(err.to_string().contains("writer-a"), "got: {err}");
        drop(a);
        // A live holder of shard 2 alone: the claim fails there and
        // releases the shards it had already taken.
        let holder = LeaseInfo { shard: 2, owner: "writer-b".into(), pid: std::process::id() };
        std::fs::write(lease_path(&dir, 2), holder.emit()).unwrap();
        let err = LeaseSet::acquire(&dir, 4, "writer-c").expect_err("shard 2 is held");
        assert!(err.to_string().contains("writer-b"), "got: {err}");
        assert!(!lease_path(&dir, 0).exists() && !lease_path(&dir, 1).exists());
        std::fs::remove_file(lease_path(&dir, 2)).unwrap();
        // Every lock is gone: the whole store is claimable.
        LeaseSet::acquire(&dir, 4, "writer-c").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_pid_lease_is_taken_over_immediately() {
        let dir = temp_dir("deadpid");
        // No real pid can reach u32::MAX (Linux pid_max caps at 2^22),
        // so this holder is provably dead.
        let corpse = LeaseInfo { shard: 0, owner: "crashed".into(), pid: u32::MAX };
        std::fs::write(lease_path(&dir, 0), corpse.emit()).unwrap();
        let set = LeaseSet::acquire(&dir, 1, "heir").unwrap();
        let src = std::fs::read_to_string(lease_path(&dir, 0)).unwrap();
        assert!(src.contains("heir"), "takeover rewrote the lock: {src}");
        drop(set);
        assert!(!lease_path(&dir, 0).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_heartbeat_is_taken_over_and_fresh_one_is_not() {
        let dir = temp_dir("heartbeat");
        let holder = LeaseInfo { shard: 0, owner: "slow".into(), pid: std::process::id() };
        std::fs::write(lease_path(&dir, 0), holder.emit()).unwrap();
        // Live pid + fresh mtime: refused.
        let err = LeaseSet::acquire(&dir, 1, "eager").expect_err("fresh lease");
        assert!(err.to_string().contains("slow"), "got: {err}");
        // Live pid but expired heartbeat: the timeout bounds how long a
        // wedged writer can squat.
        let file = std::fs::OpenOptions::new().write(true).open(lease_path(&dir, 0)).unwrap();
        let past = std::time::SystemTime::now() - Duration::from_secs(3600);
        file.set_times(std::fs::FileTimes::new().set_modified(past)).unwrap();
        drop(file);
        LeaseSet::acquire(&dir, 1, "eager").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeat_refreshes_the_lock() {
        let dir = temp_dir("refresh");
        let set = LeaseSet::acquire(&dir, 2, "steady").unwrap();
        for shard in 0..2 {
            let file =
                std::fs::OpenOptions::new().write(true).open(lease_path(&dir, shard)).unwrap();
            let past = std::time::SystemTime::now() - Duration::from_secs(3600);
            file.set_times(std::fs::FileTimes::new().set_modified(past)).unwrap();
        }
        set.heartbeat().unwrap();
        for shard in 0..2 {
            let age = std::fs::metadata(lease_path(&dir, shard))
                .unwrap()
                .modified()
                .unwrap()
                .elapsed()
                .unwrap();
            assert!(age < Duration::from_secs(60), "shard {shard} heartbeat did not refresh");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_lock_is_never_seen_half_written() {
        // A reader polls the lock while a writer claims, heartbeats and
        // releases it over and over: every lock it finds must parse, so
        // a writer killed at any instant cannot leave a lock that reads
        // as held by an unknown live writer.
        let dir = temp_dir("whole");
        let path = lease_path(&dir, 0);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (reads, torn) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let (mut reads, mut torn) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(src) = std::fs::read_to_string(&path) {
                        reads += 1;
                        torn += u64::from(LeaseInfo::parse(0, &src).is_none());
                    }
                }
                (reads, torn)
            });
            for _ in 0..400 {
                let set = LeaseSet::acquire(&dir, 1, "steady").unwrap();
                for _ in 0..8 {
                    set.heartbeat().unwrap();
                }
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().unwrap()
        });
        assert!(reads > 0, "the reader never saw the lock");
        assert_eq!(torn, 0, "{torn} of {reads} reads saw a half-written lock");
        let litter: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(litter.is_empty(), "claims and heartbeats left files behind: {litter:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unparsable_lock_is_governed_by_its_mtime() {
        let dir = temp_dir("garbage");
        std::fs::write(lease_path(&dir, 0), "???").unwrap();
        // Recent garbage: held (conservative — might be a mid-write
        // heartbeat).
        let err = LeaseSet::acquire(&dir, 1, "x").expect_err("recent unreadable lock");
        assert!(err.to_string().contains("unreadable"), "got: {err}");
        // Old garbage: stale.
        let file = std::fs::OpenOptions::new().write(true).open(lease_path(&dir, 0)).unwrap();
        let past = std::time::SystemTime::now() - Duration::from_secs(3600);
        file.set_times(std::fs::FileTimes::new().set_modified(past)).unwrap();
        drop(file);
        LeaseSet::acquire(&dir, 1, "x").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
