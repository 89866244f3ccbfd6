//! The store lease: one lock file that keeps a store to one writer.
//!
//! A writer claims `lease.lock` beside the manifest, carrying the owner
//! id and pid:
//!
//! ```text
//! out/run1/
//!   manifest.toml
//!   shard-000.log
//!   lease.lock   # owner = pid-4242 / pid = 4242
//! ```
//!
//! A lock is published whole: its content is written to a private
//! temporary file first, which a hard link then makes the lock —
//! failing, like `O_CREAT | O_EXCL`, when a lock exists, so exactly one
//! claimant wins. A writer killed at any point leaves either no lock or
//! a complete one.
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
//! A kill -9'd writer leaves its lock behind with a dead pid, so a
//! restarting daemon reclaims it instantly; a cleanly dropped
//! [`Lease`] removes its lock on the way out.

use crate::StoreError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Heartbeat age past which a lease may be taken over even when the
/// holder pid cannot be proven dead. Writers heartbeat at every
/// checkpoint, so this only bites a writer that has gone a long time
/// without persisting anything.
pub const DEFAULT_LEASE_TIMEOUT: Duration = Duration::from_secs(120);

/// The lease lock file's name inside a store directory.
pub const LEASE_FILE: &str = "lease.lock";

/// The lease owner id of this process's store writers.
pub(crate) fn default_owner() -> String {
    format!("pid-{}", std::process::id())
}

/// What a lease lock file says about its holder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Holder's self-declared owner id.
    pub owner: String,
    /// Holder's pid at claim time.
    pub pid: u32,
}

impl LeaseInfo {
    fn emit(&self) -> String {
        format!("owner = {}\npid = {}\n", self.owner, self.pid)
    }

    pub(crate) fn parse(src: &str) -> Option<LeaseInfo> {
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
        Some(LeaseInfo { owner: owner?, pid: pid? })
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

/// Externally observable state of a store's lease lock, for status
/// displays and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseState {
    /// No lock file — no writer holds the store.
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
fn examine(path: &Path) -> (LeaseState, Option<Duration>) {
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
    let info = LeaseInfo::parse(&src);
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

/// Reports the lease state of the store at `dir`, using the same
/// staleness rules as acquisition. A read-only probe: unlike
/// [`Lease::acquire`] it never claims, steals, or touches the lock.
pub fn probe_lease(dir: &Path) -> LeaseState {
    examine(&dir.join(LEASE_FILE)).0
}

/// The lease one writer holds over a store directory. Acquired by
/// [`Lease::acquire`]; heartbeated at every checkpoint; released (lock
/// file removed) by [`Lease::release`] or on drop.
#[derive(Debug)]
pub struct Lease {
    dir: PathBuf,
    owner: String,
    /// Set from a successful claim until the release.
    held: bool,
}

impl Lease {
    /// Claims the store's lease, taking over a stale lock and refusing a
    /// live one.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] naming the live holder when the store is
    /// already leased, or on I/O failure.
    pub fn acquire(dir: &Path, owner: &str) -> Result<Lease, StoreError> {
        let mut lease = Lease { dir: dir.to_path_buf(), owner: owner.to_string(), held: false };
        let tmp = lease.stage()?;
        let claimed = lease.publish_claim(&tmp);
        std::fs::remove_file(&tmp).ok();
        claimed?;
        lease.held = true;
        Ok(lease)
    }

    fn path(&self) -> PathBuf {
        self.dir.join(LEASE_FILE)
    }

    /// Writes this writer's lock content to a fresh temporary file
    /// beside the lock, from which the lock is published whole.
    fn stage(&self) -> Result<PathBuf, StoreError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let pid = std::process::id();
        let info = LeaseInfo { owner: self.owner.clone(), pid };
        let serial = NEXT.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".{LEASE_FILE}.tmp.{pid}.{serial}"));
        std::fs::write(&tmp, info.emit()).map_err(|e| io_err("writing", &tmp, e))?;
        Ok(tmp)
    }

    /// Makes the staged lock `tmp` the store's lock, unless a live
    /// writer holds it.
    fn publish_claim(&self, tmp: &Path) -> Result<(), StoreError> {
        let path = self.path();
        // Bounded retries: each loop either claims, steals a stale lock,
        // or observes a live holder and fails. Two claimants racing the
        // same stale lock need one extra pass, never more.
        for _ in 0..8 {
            match std::fs::hard_link(tmp, &path) {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    match examine(&path) {
                        (LeaseState::Live { holder }, age) => {
                            let age = age.map_or_else(String::new, |age| {
                                format!(", heartbeat {}s ago", age.as_secs())
                            });
                            return Err(StoreError::new(format!(
                                "{} is leased by {holder}{age} — another writer is active",
                                self.dir.display()
                            )));
                        }
                        // The holder released while we looked: claim again.
                        (LeaseState::Unheld, _) => {}
                        (LeaseState::Stale { .. }, _) => {
                            // Atomic steal: exactly one claimant wins the
                            // rename; the losers loop and re-examine.
                            let grave =
                                self.dir.join(format!("lease.stale.{}", std::process::id()));
                            if std::fs::rename(&path, &grave).is_ok() {
                                let prev = std::fs::read_to_string(&grave)
                                    .ok()
                                    .and_then(|src| LeaseInfo::parse(&src));
                                std::fs::remove_file(&grave)
                                    .map_err(|e| io_err("removing", &grave, e))?;
                                drivefi_obs::emit_event(
                                    &self.dir,
                                    "lease_takeover",
                                    &[
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
            "{}: lease claim kept losing takeover races",
            self.dir.display()
        )))
    }

    /// Refreshes the lease's heartbeat mtime by renaming a complete new
    /// lock over the old one, so an examiner never sees a lock
    /// half-written.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on I/O failure.
    pub fn heartbeat(&self) -> Result<(), StoreError> {
        if !self.held {
            return Ok(());
        }
        let path = self.path();
        let tmp = self.stage()?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            io_err("heartbeating", &path, e)
        })
    }

    /// Removes the lock file. Idempotent; also runs on drop (best-effort
    /// there).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on I/O failure.
    pub fn release(&mut self) -> Result<(), StoreError> {
        if !std::mem::take(&mut self.held) {
            return Ok(());
        }
        let path = self.path();
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("releasing", &path, e)),
        }
    }
}

impl Drop for Lease {
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

    fn backdate(path: &Path) {
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        let past = std::time::SystemTime::now() - Duration::from_secs(3600);
        file.set_times(std::fs::FileTimes::new().set_modified(past)).unwrap();
    }

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_live_lease_refuses_the_whole_claim() {
        let dir = temp_dir("live");
        let a = Lease::acquire(&dir, "writer-a").unwrap();
        assert_eq!(entries(&dir), [LEASE_FILE], "one lock per store");
        assert!(matches!(probe_lease(&dir), LeaseState::Live { .. }));
        let err = Lease::acquire(&dir, "writer-c").expect_err("the store is held");
        assert!(err.to_string().contains("leased by `writer-a`"), "got: {err}");
        drop(a);
        assert!(entries(&dir).is_empty(), "release removes the lock");
        assert_eq!(probe_lease(&dir), LeaseState::Unheld);
        Lease::acquire(&dir, "writer-c").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_pid_lease_is_taken_over_immediately() {
        let dir = temp_dir("deadpid");
        let path = dir.join(LEASE_FILE);
        // No real pid can reach u32::MAX (Linux pid_max caps at 2^22),
        // so this holder is provably dead.
        let corpse = LeaseInfo { owner: "crashed".into(), pid: u32::MAX };
        std::fs::write(&path, corpse.emit()).unwrap();
        assert!(matches!(probe_lease(&dir), LeaseState::Stale { .. }));
        let lease = Lease::acquire(&dir, "heir").unwrap();
        let src = std::fs::read_to_string(&path).unwrap();
        assert!(src.contains("heir"), "takeover rewrote the lock: {src}");
        drop(lease);
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_heartbeat_is_taken_over_and_fresh_one_is_not() {
        let dir = temp_dir("heartbeat");
        let path = dir.join(LEASE_FILE);
        let holder = LeaseInfo { owner: "slow".into(), pid: std::process::id() };
        std::fs::write(&path, holder.emit()).unwrap();
        // Live pid + fresh mtime: refused.
        let err = Lease::acquire(&dir, "eager").expect_err("fresh lease");
        assert!(err.to_string().contains("slow"), "got: {err}");
        // Live pid but expired heartbeat: the timeout bounds how long a
        // wedged writer can squat.
        backdate(&path);
        Lease::acquire(&dir, "eager").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeat_refreshes_the_lock() {
        let dir = temp_dir("refresh");
        let path = dir.join(LEASE_FILE);
        let mut lease = Lease::acquire(&dir, "steady").unwrap();
        backdate(&path);
        lease.heartbeat().unwrap();
        let age = std::fs::metadata(&path).unwrap().modified().unwrap().elapsed().unwrap();
        assert!(age < Duration::from_secs(60), "the heartbeat did not refresh");
        assert_eq!(entries(&dir), [LEASE_FILE]);
        // A released lease stays released: a late heartbeat is a no-op.
        lease.release().unwrap();
        lease.heartbeat().unwrap();
        assert!(entries(&dir).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_lock_is_never_seen_half_written() {
        // A reader polls the lock while a writer claims, heartbeats and
        // releases it over and over: every lock it finds must parse, so
        // a writer killed at any instant cannot leave a lock that reads
        // as held by an unknown live writer.
        let dir = temp_dir("whole");
        let path = dir.join(LEASE_FILE);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (reads, torn) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let (mut reads, mut torn) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(src) = std::fs::read_to_string(&path) {
                        reads += 1;
                        torn += u64::from(LeaseInfo::parse(&src).is_none());
                    }
                }
                (reads, torn)
            });
            for _ in 0..400 {
                let lease = Lease::acquire(&dir, "steady").unwrap();
                for _ in 0..8 {
                    lease.heartbeat().unwrap();
                }
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().unwrap()
        });
        assert!(reads > 0, "the reader never saw the lock");
        assert_eq!(torn, 0, "{torn} of {reads} reads saw a half-written lock");
        assert!(entries(&dir).is_empty(), "claims and heartbeats left files behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unparsable_lock_is_governed_by_its_mtime() {
        let dir = temp_dir("garbage");
        let path = dir.join(LEASE_FILE);
        std::fs::write(&path, "???").unwrap();
        // Recent garbage: held (conservative — might be a mid-write
        // heartbeat).
        let err = Lease::acquire(&dir, "x").expect_err("recent unreadable lock");
        assert!(err.to_string().contains("unreadable"), "got: {err}");
        // Old garbage: stale.
        backdate(&path);
        Lease::acquire(&dir, "x").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
