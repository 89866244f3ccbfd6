//! `read_traces` against the sort-and-dedup reconstruction it replaced,
//! the projected reader against `read_traces`, and the trace readers
//! against arbitrary shard bytes.
//!
//! The reference merges every trace shard into one vector, sorts it by
//! `(job, scene)`, keeps the first copy of each key, and pairs the
//! per-job traces with the outcome records in one merge walk. The
//! streaming reader decodes each frame straight into its job's slot
//! instead; on every store the writer can leave behind — shuffled job
//! interleavings, re-run duplicates, torn tails, frames of jobs without
//! an outcome record — both must return the same traces or both fail.
//! A projection that drops the scene number must not change the verdict
//! either: `read_projected_traces` gives `read_traces`'s traces, projected,
//! or fails where it fails.

use drivefi_kinematics::{Actuation, SafetyPotential, VehicleState};
use drivefi_sim::{FrameRecord, Outcome, Trace};
use drivefi_store::log::{
    append_frame, append_payload, write_header_with, SHARD_MAGIC, TRACE_MAGIC,
};
use drivefi_store::{
    open_store_with_traces, read_projected_traces, read_store, read_traces, scan_trace_shard,
    CampaignRecord, StoreError, TraceRecord,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// The reconstruction `read_traces` performed before it streamed.
fn reference_traces(dir: &Path) -> Result<Vec<Trace>, StoreError> {
    let (meta, records) = read_store(dir)?;
    let mut trace_records = Vec::new();
    for index in 0..meta.shards {
        let path = dir.join(format!("trace-{index:03}.log"));
        trace_records.extend(scan_trace_shard(&path, index)?.records);
    }
    trace_records.sort_by_key(|r| (r.job, r.frame.scene));
    trace_records.dedup_by_key(|r| (r.job, r.frame.scene));
    let mut by_job: Vec<(u64, Trace)> = Vec::new();
    for record in trace_records {
        match by_job.last_mut() {
            Some((job, trace)) if *job == record.job => trace.frames.push(record.frame),
            _ => by_job.push((
                record.job,
                Trace { scenario_id: record.scenario_id, frames: vec![record.frame] },
            )),
        }
    }
    let mut by_job = by_job.into_iter().peekable();
    let mut traces = Vec::with_capacity(records.len());
    for record in &records {
        while by_job.peek().is_some_and(|(job, _)| *job < record.job) {
            by_job.next();
        }
        let Some((_, trace)) = by_job.next_if(|(job, _)| *job == record.job) else {
            return Err(StoreError::new(format!("job {} has no trace", record.job)));
        };
        if trace.frames.len() as u64 != record.scenes {
            return Err(StoreError::new(format!("job {} trace is incomplete", record.job)));
        }
        traces.push(trace);
    }
    Ok(traces)
}

/// A projection that keeps no scene number: the reader's filled-slot
/// bitmap alone must tell a filled slot from an unfilled one.
fn project(frame: &FrameRecord) -> (bool, u64) {
    (frame.lead_distance.is_some(), frame.delta_true.longitudinal.to_bits())
}

/// `read_projected_traces` gives `read_traces`'s verdict on the store at
/// `dir`: the same traces, projected, or an error.
fn projection_agrees(dir: &Path) -> Result<(), String> {
    let projected = read_projected_traces(dir, project).map(|(_, traces)| {
        traces.into_iter().map(|t| (t.scenario_id, t.frames)).collect::<Vec<_>>()
    });
    let decoded = read_traces(dir).map(|(_, traces)| {
        traces
            .iter()
            .map(|t| (t.scenario_id, t.frames.iter().map(project).collect()))
            .collect::<Vec<_>>()
    });
    match (&projected, &decoded) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        _ => Err(format!("projected {projected:?} but read_traces gave {decoded:?}")),
    }
}

fn frame(job: u64, scene: u64) -> FrameRecord {
    let x = (job * 1000 + scene) as f64;
    FrameRecord {
        scene,
        time: scene as f64 / 7.5,
        ego: VehicleState::new(x, -1.5, 28.0, 0.01, -0.002),
        pose: VehicleState::new(x + 0.2, -1.4, 28.1, 0.011, -0.002),
        imu_speed: 28.0 + x / 1e4,
        imu_accel: 0.4,
        lead_distance: scene.is_multiple_of(3).then_some(40.0 + x),
        lead_speed: scene.is_multiple_of(3).then_some(26.5),
        raw_cmd: Actuation::new(0.31, 0.0, 0.004),
        final_cmd: Actuation::new(0.30, 0.0, 0.004),
        delta_perceived: SafetyPotential { longitudinal: 11.0, lateral: 0.5 },
        delta_true: SafetyPotential { longitudinal: x, lateral: 0.45 },
    }
}

fn trace_record(job: u64, scene: u64) -> TraceRecord {
    TraceRecord {
        job,
        scenario_id: (job % 5) as u32,
        scenario_seed: job * 7,
        frame: frame(job, scene),
    }
}

fn outcome_record(job: u64, scenes: u64) -> CampaignRecord {
    CampaignRecord {
        job,
        scenario_id: (job % 5) as u32,
        scenario_seed: job * 7,
        fault: None,
        outcome: Outcome::Safe,
        injections: 0,
        scenes,
        min_delta_lon: 1.0,
        min_delta_lat: 0.5,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("drivefi-trace-reads-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A trace-logging store at `dir` with a manifest for `jobs` jobs over
/// `shards` shards and empty shard files, ready to be overwritten.
fn empty_store(dir: &Path, jobs: u64, shards: u32) {
    let (writer, _) = open_store_with_traces(dir, 1, jobs, shards, 1 << 20).unwrap();
    writer.finish().unwrap();
}

fn shard_bytes(magic: &[u8; 8], index: u32, payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_header_with(&mut bytes, magic, index).unwrap();
    for payload in payloads {
        append_payload(&mut bytes, payload).unwrap();
    }
    bytes
}

fn encoded(record: &TraceRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    record.encode(&mut payload);
    payload
}

/// Writes a random writer-shaped store into `dir` and says whether every
/// job with an outcome record has its whole trace on disk.
fn random_store(rng: &mut StdRng, dir: &Path) -> bool {
    let shards = rng.random_range(1..4u32);
    let jobs = rng.random_range(1..8u64);
    empty_store(dir, jobs, shards);
    let mut complete = true;
    for index in 0..shards {
        let mine: Vec<u64> =
            (0..jobs).filter(|j| j % u64::from(shards) == u64::from(index)).collect();
        let mut outcomes = Vec::new();
        // Each job's frames in append order: an optional first run cut
        // short by a crash (the job is then demoted and re-run), then
        // a whole run — or only the cut run when the crash came last.
        let mut runs: Vec<Vec<u64>> = Vec::new();
        let mut owners = Vec::new();
        for &job in &mine {
            let scenes = rng.random_range(1..6u64);
            let mut frames: Vec<u64> = Vec::new();
            if rng.random_bool(0.3) {
                frames.extend(0..rng.random_range(0..=scenes));
            }
            let lagging = rng.random_bool(0.1);
            let last = if lagging { rng.random_range(0..scenes) } else { scenes };
            frames.extend(0..last);
            if rng.random_bool(0.85) {
                outcomes.push(outcome_record(job, scenes));
                complete &= !lagging;
            }
            runs.push(frames);
            owners.push(job);
        }
        // Shuffle the jobs' interleaving, keeping each job's own order.
        let mut payloads = Vec::new();
        let mut next = vec![0usize; runs.len()];
        loop {
            let open: Vec<usize> = (0..runs.len()).filter(|&i| next[i] < runs[i].len()).collect();
            if open.is_empty() {
                break;
            }
            let i = open[rng.random_range(0..open.len())];
            payloads.push(encoded(&trace_record(owners[i], runs[i][next[i]])));
            next[i] += 1;
        }
        let mut trace = shard_bytes(&TRACE_MAGIC, index, &payloads);
        if rng.random_bool(0.2) {
            trace.truncate(rng.random_range(0..=trace.len()));
            complete = false;
        }
        std::fs::write(dir.join(format!("trace-{index:03}.log")), trace).unwrap();
        // Outcome records in a shuffled completion order.
        for i in (1..outcomes.len()).rev() {
            outcomes.swap(i, rng.random_range(0..=i));
        }
        let mut shard = Vec::new();
        write_header_with(&mut shard, &SHARD_MAGIC, index).unwrap();
        for record in &outcomes {
            append_frame(&mut shard, record).unwrap();
        }
        std::fs::write(dir.join(format!("shard-{index:03}.log")), shard).unwrap();
    }
    complete
}

proptest! {
    #[test]
    fn streaming_assembly_matches_the_sort_and_dedup_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = temp_dir("reference");
        let complete = random_store(&mut rng, &dir);
        let streamed = read_traces(&dir).map(|(_, traces)| traces);
        let reference = reference_traces(&dir);
        match (&streamed, &reference) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "streamed {streamed:?} but the reference gave {reference:?}"),
        }
        if complete {
            prop_assert!(streamed.is_ok(), "a complete store failed to read: {streamed:?}");
        }
        let agrees = projection_agrees(&dir);
        prop_assert!(agrees.is_ok(), "{agrees:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arbitrary_trace_shard_bytes_never_panic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = temp_dir("fuzz");
        empty_store(&dir, 3, 1);
        // Sometimes a record claims more scenes than its trace shard can
        // hold: the reader must refuse it, not try to allocate them.
        let claimed = if rng.random_bool(0.2) { 1 << 40 } else { 4 };
        let mut shard = Vec::new();
        write_header_with(&mut shard, &SHARD_MAGIC, 0).unwrap();
        for job in 0..3 {
            append_frame(&mut shard, &outcome_record(job, claimed)).unwrap();
        }
        std::fs::write(dir.join("shard-000.log"), shard).unwrap();

        // Start from a valid shard, then damage it one way.
        let valid: Vec<Vec<u8>> =
            (0..3).flat_map(|job| (0..4).map(move |scene| encoded(&trace_record(job, scene)))).collect();
        let mut bytes = shard_bytes(&TRACE_MAGIC, 0, &valid);
        match rng.random_range(0..5u32) {
            // Random bytes, behind a valid header half the time.
            0 => {
                let len = rng.random_range(0..2048usize);
                let noise: Vec<u8> = (0..len).map(|_| rng.random()).collect();
                if rng.random_bool(0.5) {
                    bytes.truncate(16);
                    bytes.extend(noise);
                } else {
                    bytes = noise;
                }
            }
            // A truncation.
            1 => bytes.truncate(rng.random_range(0..=bytes.len())),
            // Byte flips.
            2 => {
                for _ in 0..rng.random_range(1..8usize) {
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] ^= rng.random_range(1..=255u8);
                }
            }
            // CRC-valid frames whose payloads are noise.
            3 => {
                let noise: Vec<Vec<u8>> = (0..rng.random_range(1..6usize))
                    .map(|_| (0..rng.random_range(0..300usize)).map(|_| rng.random()).collect())
                    .collect();
                bytes = shard_bytes(&TRACE_MAGIC, 0, &noise);
            }
            // CRC-valid records with arbitrary jobs, scenes and lengths.
            _ => {
                let records: Vec<Vec<u8>> = (0..rng.random_range(1..16usize))
                    .map(|_| {
                        let job = rng.random_range(0..5u64);
                        let scene = if rng.random_bool(0.8) {
                            rng.random_range(0..6u64)
                        } else {
                            rng.next_u64()
                        };
                        encoded(&trace_record(job, scene))
                    })
                    .collect();
                bytes = shard_bytes(&TRACE_MAGIC, 0, &records);
            }
        }
        let path = dir.join("trace-000.log");
        std::fs::write(&path, &bytes).unwrap();
        // Either answer is fine, but for the oversized claim; a panic
        // fails the case.
        let _ = scan_trace_shard(&path, 0);
        let read = read_traces(&dir);
        prop_assert!(claimed == 4 || read.is_err(), "read {read:?}");
        let agrees = projection_agrees(&dir);
        prop_assert!(agrees.is_ok(), "{agrees:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
