//! One writer per store, across real processes: while a writer in
//! another process lives, a second open of its store is refused; once
//! that writer dies without finishing, the next open takes over its
//! lease, keeps every record it checkpointed, and completes the store
//! to exactly what a serial writer produces. The lease protocol is pure
//! filesystem (a lock file, atomic renames), so the processes hand off
//! through files alone.

use drivefi_sim::Outcome;
use drivefi_store::{open_store, read_store, CampaignRecord, LEASE_FILE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Env var carrying a child writer's work order. The `writer_child`
/// test is inert unless re-executed with this set.
const CHILD_ENV: &str = "DRIVEFI_WRITER_CHILD_SPEC";

/// Longest any handshake waits, so a hung process fails the test
/// instead of hanging it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(60);

/// Files the child and parent hand off through, beside the store.
const READY_FILE: &str = "child.ready";
const ABORT_FILE: &str = "child.abort";

const FINGERPRINT: u64 = 0xFEED_FACE_CAFE_0001;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drivefi-concurrent-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic record every writer produces for `job` — a pure
/// function of the job index, so the serial reference and any
/// interrupted-then-resumed store must persist identical bytes.
fn record(job: u64) -> CampaignRecord {
    CampaignRecord {
        job,
        scenario_id: (job % 7) as u32,
        scenario_seed: job.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        fault: None,
        outcome: match job % 3 {
            0 => Outcome::Safe,
            1 => Outcome::Hazard { scene: job % 50 + 1 },
            _ => Outcome::Collision { scene: job % 50 + 2, actor: 1 },
        },
        injections: job % 5,
        scenes: 100,
        min_delta_lon: job as f64 * 0.25,
        min_delta_lat: 1.0 / (job + 1) as f64,
    }
}

/// Serial single-writer reference store over `total` jobs.
fn write_reference(dir: &Path, total: u64, shards: u32) {
    let (mut writer, _) = open_store(dir, FINGERPRINT, total, shards, 8).unwrap();
    for job in 0..total {
        writer.append(&record(job)).unwrap();
    }
    let meta = writer.finish().unwrap();
    assert!(meta.complete);
}

/// Polls `done` until it holds, failing after [`HANDSHAKE_TIMEOUT`].
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let began = Instant::now();
    while !done() {
        assert!(began.elapsed() < HANDSHAKE_TIMEOUT, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Lease files left in `dir`.
fn lease_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("lease"))
        .collect()
}

/// Re-executed child: opens the store under `root/store`, appends jobs
/// `0..k`, checkpoints, signals `READY_FILE`, waits for `ABORT_FILE`,
/// and aborts without finishing. Spec is `root;total;shards;k`.
#[test]
fn writer_child() {
    let Ok(spec) = std::env::var(CHILD_ENV) else { return };
    let parts: Vec<&str> = spec.split(';').collect();
    let root = Path::new(parts[0]);
    let [total, shards, k]: [u64; 3] = std::array::from_fn(|i| parts[i + 1].parse().unwrap());
    let (mut writer, _) =
        open_store(root.join("store"), FINGERPRINT, total, shards as u32, 8).unwrap();
    for job in 0..k {
        writer.append(&record(job)).unwrap();
    }
    writer.checkpoint().unwrap();
    std::fs::write(root.join(READY_FILE), "").unwrap();
    wait_until("the parent's abort signal", || root.join(ABORT_FILE).exists());
    std::process::abort();
}

#[test]
fn a_live_writer_process_refuses_opens_and_a_dead_one_is_taken_over() {
    let (total, shards, k) = (57u64, 4u32, 23u64);
    let reference = temp_dir("serial-ref");
    write_reference(&reference, total, shards);

    let root = temp_dir("takeover");
    let store = root.join("store");
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["writer_child", "--exact", "--nocapture"])
        .env(CHILD_ENV, format!("{};{total};{shards};{k}", root.display()))
        // Any core file the abort leaves lands in the test's temporary directory.
        .current_dir(&root)
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();
    wait_until("the child's checkpoint", || {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("the writer child exited early: {status}");
        }
        root.join(READY_FILE).exists()
    });

    // The child lives and holds the store: a second writer is refused,
    // and the refusal names the child.
    let err = open_store(&store, FINGERPRINT, total, shards, 8).expect_err("a live writer");
    assert!(err.to_string().contains(&format!("(pid {})", child.id())), "got: {err}");

    // The child dies without finishing; its lock stays behind.
    std::fs::write(root.join(ABORT_FILE), "").unwrap();
    let mut status = None;
    wait_until("the child to abort", || {
        status = child.try_wait().unwrap();
        status.is_some()
    });
    assert!(!status.unwrap().success(), "the child aborted");
    assert_eq!(lease_files(&store), [LEASE_FILE], "one lock for {shards} shards");

    // The next open takes the dead child's lease over and keeps every
    // record it checkpointed.
    let (mut writer, state) = open_store(&store, FINGERPRINT, total, shards, 8).unwrap();
    assert_eq!(state.records(), k);
    assert!((0..total).all(|job| state.is_done(job) == (job < k)));
    for job in (0..total).filter(|&job| !state.is_done(job)) {
        writer.append(&record(job)).unwrap();
    }
    assert!(writer.finish().unwrap().complete);
    assert!(lease_files(&store).is_empty(), "finishing releases the lease");
    assert_eq!(read_store(&store).unwrap(), read_store(&reference).unwrap());

    std::fs::remove_dir_all(&reference).ok();
    std::fs::remove_dir_all(&root).ok();
}

/// Randomized lease takeover: stale locks (dead pid, or an expired
/// heartbeat) never block a new writer, while a live writer always
/// refuses a second open.
#[test]
fn stale_leases_are_taken_over_and_live_ones_refuse() {
    let mut rng = StdRng::seed_from_u64(0x1EA5E);
    for case in 0..8u32 {
        let dir = temp_dir(&format!("lease-{case}"));
        let shards = rng.random_range(1..=4u32);
        let total = 10 * u64::from(shards);
        write_reference(&dir, total, shards);

        // Plant a stale lock: a dead-pid lock (pid u32::MAX is unused on
        // any real system) or an expired-heartbeat lock from a fake live
        // pid.
        let path = dir.join(LEASE_FILE);
        if rng.random::<bool>() {
            std::fs::write(&path, "owner = crashed\npid = 4294967295\n").unwrap();
        } else {
            std::fs::write(&path, format!("owner = wedged\npid = {}\n", std::process::id()))
                .unwrap();
            let old = std::time::SystemTime::now() - Duration::from_secs(3600);
            let file = std::fs::File::options().write(true).open(&path).unwrap();
            file.set_times(std::fs::FileTimes::new().set_modified(old)).unwrap();
        }

        // Takeover: a writer opens despite the lock.
        let (writer, state) = open_store(&dir, FINGERPRINT, total, shards, 8).unwrap();
        assert_eq!(state.records(), total);

        // While that writer lives, a second open is refused.
        let owner = format!("leased by `pid-{}`", std::process::id());
        let err = open_store(&dir, FINGERPRINT, total, shards, 8).unwrap_err();
        assert!(err.to_string().contains(&owner), "case {case}: {err}");
        drop(writer);

        // Drop released the lease: the second open now succeeds.
        assert!(open_store(&dir, FINGERPRINT, total, shards, 8).is_ok(), "case {case}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
