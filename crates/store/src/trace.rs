//! The persisted golden-trace record and its variable-length layout.
//!
//! The miner trains on per-scene traces (`W_t`, `M_t`, `U_A,t`, `A_t`
//! plus ground truth), not on outcome records — so a resumable mining
//! pipeline has to persist the traces themselves. A [`TraceRecord`] is
//! one [`FrameRecord`] slice keyed by `(job, scenario_id, scenario_seed,
//! scene)`, CRC-framed into `trace-NNN.log` shard files alongside the
//! fixed-layout outcome shards (same framing, different header magic).
//! Frames are variable-length: the lead-object fields are optional, so
//! a no-lead scene is 16 bytes shorter than a car-following one.

use crate::log::{visit_shard, TRACE_MAGIC};
use crate::record::Reader;
use crate::StoreError;
use drivefi_kinematics::{Actuation, SafetyPotential, VehicleState};
use drivefi_sim::FrameRecord;
use std::path::Path;

/// One persisted golden-trace slice: a single scene's [`FrameRecord`]
/// plus the identity of the job that recorded it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Plan-level job index of the golden run.
    pub job: u64,
    /// Scenario id within the plan's suite.
    pub scenario_id: u32,
    /// Scenario RNG seed.
    pub scenario_seed: u64,
    /// The recorded scene slice.
    pub frame: FrameRecord,
}

/// Encoded payload size without the optional lead fields; each present
/// lead field adds 8 bytes.
pub const TRACE_BASE_LEN: usize = 213;

const LEAD_DISTANCE: u8 = 1;
const LEAD_SPEED: u8 = 2;

fn push_state(out: &mut Vec<u8>, s: &VehicleState) {
    for v in [s.x, s.y, s.v, s.theta, s.phi] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn read_state(r: &mut Reader<'_>) -> Result<VehicleState, StoreError> {
    Ok(VehicleState::new(r.f64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?))
}

impl TraceRecord {
    /// Exact encoded payload size of this record.
    pub fn encoded_len(&self) -> usize {
        TRACE_BASE_LEN
            + 8 * usize::from(self.frame.lead_distance.is_some())
            + 8 * usize::from(self.frame.lead_speed.is_some())
    }

    /// Appends the variable-length little-endian encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let f = &self.frame;
        out.extend_from_slice(&self.job.to_le_bytes());
        out.extend_from_slice(&self.scenario_id.to_le_bytes());
        out.extend_from_slice(&self.scenario_seed.to_le_bytes());
        out.extend_from_slice(&f.scene.to_le_bytes());
        out.extend_from_slice(&f.time.to_bits().to_le_bytes());
        push_state(out, &f.ego);
        push_state(out, &f.pose);
        out.extend_from_slice(&f.imu_speed.to_bits().to_le_bytes());
        out.extend_from_slice(&f.imu_accel.to_bits().to_le_bytes());
        let flags =
            f.lead_distance.map_or(0, |_| LEAD_DISTANCE) | f.lead_speed.map_or(0, |_| LEAD_SPEED);
        out.push(flags);
        for lead in [f.lead_distance, f.lead_speed].into_iter().flatten() {
            out.extend_from_slice(&lead.to_bits().to_le_bytes());
        }
        for cmd in [&f.raw_cmd, &f.final_cmd] {
            for v in [cmd.throttle, cmd.brake, cmd.steering] {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        for delta in [&f.delta_perceived, &f.delta_true] {
            for v in [delta.longitudinal, delta.lateral] {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        debug_assert_eq!(out.len() - start, self.encoded_len());
    }

    /// Decodes a payload produced by [`TraceRecord::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the payload is truncated, carries
    /// unknown flag bits, or has trailing bytes (a CRC-valid frame that
    /// fails here indicates a format-version mismatch, not bit rot).
    pub fn decode(payload: &[u8]) -> Result<TraceRecord, StoreError> {
        let mut r = Reader { bytes: payload, at: 0 };
        let job = r.u64()?;
        let scenario_id = r.u32()?;
        let scenario_seed = r.u64()?;
        let scene = r.u64()?;
        let time = r.f64()?;
        let ego = read_state(&mut r)?;
        let pose = read_state(&mut r)?;
        let imu_speed = r.f64()?;
        let imu_accel = r.f64()?;
        let flags = r.u8()?;
        if flags & !(LEAD_DISTANCE | LEAD_SPEED) != 0 {
            return Err(StoreError::new(format!("unknown trace-record flags {flags:#04x}")));
        }
        let lead_distance = (flags & LEAD_DISTANCE != 0).then(|| r.f64()).transpose()?;
        let lead_speed = (flags & LEAD_SPEED != 0).then(|| r.f64()).transpose()?;
        let raw_cmd = Actuation::new(r.f64()?, r.f64()?, r.f64()?);
        let final_cmd = Actuation::new(r.f64()?, r.f64()?, r.f64()?);
        let delta_perceived = SafetyPotential { longitudinal: r.f64()?, lateral: r.f64()? };
        let delta_true = SafetyPotential { longitudinal: r.f64()?, lateral: r.f64()? };
        if r.at != payload.len() {
            return Err(StoreError::new(format!(
                "trace-record payload has {} trailing bytes",
                payload.len() - r.at
            )));
        }
        Ok(TraceRecord {
            job,
            scenario_id,
            scenario_seed,
            frame: FrameRecord {
                scene,
                time,
                ego,
                pose,
                imu_speed,
                imu_accel,
                lead_distance,
                lead_speed,
                raw_cmd,
                final_cmd,
                delta_perceived,
                delta_true,
            },
        })
    }
}

/// What [`scan_trace_shard`] found in one trace shard file.
#[derive(Debug, Clone)]
pub struct TraceShardScan {
    /// The records of the valid prefix, in append order.
    pub records: Vec<TraceRecord>,
    /// Byte offset where the valid prefix ends (see
    /// [`ShardScan::valid_len`](crate::log::ShardScan)).
    pub valid_len: u64,
    /// True when bytes past `valid_len` had to be discarded.
    pub torn: bool,
}

/// Reads a trace shard file, tolerating a torn tail.
///
/// # Errors
///
/// See [`visit_shard`].
pub fn scan_trace_shard(path: &Path, shard_index: u32) -> Result<TraceShardScan, StoreError> {
    let mut records = Vec::new();
    let (valid_len, torn) = visit_trace_shard(path, shard_index, |record| {
        records.push(record);
        Ok(())
    })?;
    Ok(TraceShardScan { records, valid_len, torn })
}

/// Streams a trace shard file record by record, in append order, without
/// collecting it: `visit` sees each decoded record of the valid prefix.
/// Returns the valid prefix's length and whether a torn tail was
/// discarded, as [`scan_trace_shard`] reports them.
///
/// # Errors
///
/// See [`visit_shard`]; an error `visit` returns is reported the same
/// way as a payload that fails to decode.
pub(crate) fn visit_trace_shard(
    path: &Path,
    shard_index: u32,
    mut visit: impl FnMut(TraceRecord) -> Result<(), StoreError>,
) -> Result<(u64, bool), StoreError> {
    visit_shard(path, &TRACE_MAGIC, shard_index, |payload| visit(TraceRecord::decode(payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{append_payload, write_header_with};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn sample_frame(scene: u64, lead: bool) -> FrameRecord {
        FrameRecord {
            scene,
            time: scene as f64 / 7.5,
            ego: VehicleState::new(3.0 * scene as f64, -1.5, 28.0, 0.01, -0.002),
            pose: VehicleState::new(3.0 * scene as f64 + 0.2, -1.4, 28.1, 0.011, -0.002),
            imu_speed: 28.05,
            imu_accel: 0.4,
            lead_distance: lead.then_some(42.0 + scene as f64),
            lead_speed: lead.then_some(26.5),
            raw_cmd: Actuation::new(0.31, 0.0, 0.004),
            final_cmd: Actuation::new(0.30, 0.0, 0.004),
            delta_perceived: SafetyPotential { longitudinal: 11.0, lateral: 0.5 },
            delta_true: SafetyPotential { longitudinal: 10.5, lateral: 0.45 },
        }
    }

    pub(crate) fn sample_trace_record(job: u64, scene: u64, lead: bool) -> TraceRecord {
        TraceRecord {
            job,
            scenario_id: job as u32,
            scenario_seed: job * 17 + 3,
            frame: sample_frame(scene, lead),
        }
    }

    /// Full-bit-range arbitrary values (floats include non-finite
    /// patterns, like upstream `any::<f64>()`).
    fn arb_record(rng: &mut StdRng) -> TraceRecord {
        fn f(rng: &mut StdRng) -> f64 {
            f64::from_bits(rng.next_u64())
        }
        let with_distance = rng.random::<bool>();
        let with_speed = rng.random::<bool>();
        let frame = FrameRecord {
            scene: rng.next_u64(),
            time: f(rng),
            ego: VehicleState::new(f(rng), f(rng), f(rng), f(rng), f(rng)),
            pose: VehicleState::new(f(rng), f(rng), f(rng), f(rng), f(rng)),
            imu_speed: f(rng),
            imu_accel: f(rng),
            lead_distance: with_distance.then(|| f(rng)),
            lead_speed: with_speed.then(|| f(rng)),
            raw_cmd: Actuation::new(f(rng), f(rng), f(rng)),
            final_cmd: Actuation::new(f(rng), f(rng), f(rng)),
            delta_perceived: SafetyPotential { longitudinal: f(rng), lateral: f(rng) },
            delta_true: SafetyPotential { longitudinal: f(rng), lateral: f(rng) },
        };
        TraceRecord {
            job: rng.next_u64(),
            scenario_id: rng.random(),
            scenario_seed: rng.next_u64(),
            frame,
        }
    }

    /// Bitwise record equality: `PartialEq` on f64 treats NaN ≠ NaN, but
    /// the log must round-trip any bit pattern the simulator could emit.
    fn bits_equal(a: &TraceRecord, b: &TraceRecord) -> bool {
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        a.encode(&mut ba);
        b.encode(&mut bb);
        ba == bb
    }

    proptest! {
        #[test]
        fn fuzzed_records_round_trip(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let record = arb_record(&mut rng);
            let mut payload = Vec::new();
            record.encode(&mut payload);
            prop_assert_eq!(payload.len(), record.encoded_len());
            let decoded = TraceRecord::decode(&payload).unwrap();
            prop_assert!(bits_equal(&record, &decoded));
        }

        #[test]
        fn fuzzed_shards_scan_back_and_tolerate_torn_tails(
            seed in any::<u64>(),
            count in 1usize..20,
            cut_pick in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let records: Vec<TraceRecord> =
                (0..count).map(|_| arb_record(&mut rng)).collect();
            let dir = std::env::temp_dir()
                .join(format!("drivefi-trace-prop-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("trace-005.log");

            let mut full = Vec::new();
            write_header_with(&mut full, &TRACE_MAGIC, 5).unwrap();
            let mut offsets = vec![full.len()];
            for record in &records {
                let mut payload = Vec::new();
                record.encode(&mut payload);
                append_payload(&mut full, &payload).unwrap();
                offsets.push(full.len());
            }

            // Emit → scan == input.
            std::fs::write(&path, &full).unwrap();
            let scan = scan_trace_shard(&path, 5).unwrap();
            prop_assert!(!scan.torn);
            prop_assert_eq!(scan.valid_len, full.len() as u64);
            prop_assert_eq!(scan.records.len(), records.len());
            for (a, b) in records.iter().zip(&scan.records) {
                prop_assert!(bits_equal(a, b));
            }

            // Torn tail at a fuzzed byte offset: every whole frame before
            // the cut survives, everything after is reported torn.
            let cut = (cut_pick % full.len() as u64) as usize;
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_trace_shard(&path, 5).unwrap();
            let whole = offsets.iter().filter(|&&end| end > 16 && end <= cut).count();
            prop_assert_eq!(scan.records.len(), whole);
            let expected_valid = if cut < 16 { 0 } else { offsets[whole] as u64 };
            prop_assert_eq!(scan.valid_len, expected_valid);
            prop_assert_eq!(scan.torn, scan.valid_len != cut as u64);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn lead_fields_change_the_encoded_length() {
        let with_lead = sample_trace_record(1, 10, true);
        let without = sample_trace_record(1, 10, false);
        assert_eq!(with_lead.encoded_len(), TRACE_BASE_LEN + 16);
        assert_eq!(without.encoded_len(), TRACE_BASE_LEN);
        for record in [with_lead, without] {
            let mut payload = Vec::new();
            record.encode(&mut payload);
            assert_eq!(TraceRecord::decode(&payload), Ok(record));
        }
    }

    #[test]
    fn corrupt_payloads_are_rejected_not_misread() {
        let mut payload = Vec::new();
        sample_trace_record(0, 3, true).encode(&mut payload);
        // Unknown flag bits.
        let mut bad_flags = payload.clone();
        bad_flags[TRACE_BASE_LEN - 80 - 1] = 0xF0;
        assert!(TraceRecord::decode(&bad_flags).is_err());
        // Truncated and padded payloads.
        assert!(TraceRecord::decode(&payload[..payload.len() - 1]).is_err());
        let mut padded = payload.clone();
        padded.push(0);
        assert!(TraceRecord::decode(&padded).is_err());
    }

    #[test]
    fn rebuild_merges_sorts_and_dedups() {
        // Appends interleaved across jobs, job 1 persisting scene 1
        // before scene 0 and then its frames a second time (the
        // demote-and-rerun shape): every frame lands in its scene's
        // slot, the first copy wins, and traces come back in job order.
        let dir = std::env::temp_dir().join(format!("drivefi-trace-merge-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (mut writer, _) = crate::open_store_with_traces(&dir, 1, 2, 1, 64).unwrap();
        for (job, scene) in [(1, 1), (0, 0), (1, 0), (0, 1), (1, 0), (1, 1)] {
            writer.append_trace(&sample_trace_record(job, scene, true)).unwrap();
        }
        for job in [1, 0] {
            writer
                .append(&crate::CampaignRecord {
                    job,
                    scenario_id: job as u32,
                    scenario_seed: job * 17 + 3,
                    fault: None,
                    outcome: drivefi_sim::Outcome::Safe,
                    injections: 0,
                    scenes: 2,
                    min_delta_lon: 1.0,
                    min_delta_lat: 1.0,
                })
                .unwrap();
        }
        writer.finish().unwrap();
        let (_, traces) = crate::read_traces(&dir).unwrap();
        assert_eq!(traces.len(), 2);
        for (job, trace) in traces.iter().enumerate() {
            assert_eq!(trace.scenario_id, job as u32);
            let expected: Vec<FrameRecord> =
                (0..2).map(|scene| sample_frame(scene, true)).collect();
            assert_eq!(trace.frames, expected, "job {job}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
