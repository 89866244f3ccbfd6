//! The [`CampaignSink`] adapter: stream engine results straight to disk.

use crate::record::CampaignRecord;
use crate::store::StoreWriter;
use crate::StoreError;
use drivefi_fault::FaultSpec;
use drivefi_sim::{CampaignResult, CampaignSink};

/// The per-job identity a [`CampaignRecord`] needs beyond what the
/// engine result carries: which scenario the job drove and which fault
/// it armed. Built once per campaign, indexed by plan-level job index
/// (see `drivefi_core::pick_record_metas` / `golden_record_metas`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordMeta {
    /// Scenario id within the plan's suite.
    pub scenario_id: u32,
    /// Scenario RNG seed.
    pub scenario_seed: u64,
    /// The armed fault, `None` for golden jobs.
    pub fault: Option<FaultSpec>,
}

/// Streams campaign results into a [`StoreWriter`] as they complete.
///
/// Jobs must carry their **plan-level job index** as `CampaignJob::id` —
/// that is the record's merge key and what resume skips by, and it stays
/// stable when a resumed run's submission indices renumber over the
/// pending jobs only. `metas` is indexed by the same job index.
///
/// [`CampaignSink::accept`] cannot return an error, so the first I/O
/// failure is latched and later results are dropped; [`StoreSink::finish`]
/// surfaces it. Everything appended before the failure is on disk.
#[derive(Debug)]
pub struct StoreSink<'a> {
    writer: &'a mut StoreWriter,
    metas: &'a [RecordMeta],
    error: Option<StoreError>,
}

impl<'a> StoreSink<'a> {
    /// A sink appending to `writer`, resolving job identity through
    /// `metas[job index]`.
    pub fn new(writer: &'a mut StoreWriter, metas: &'a [RecordMeta]) -> Self {
        StoreSink { writer, metas, error: None }
    }

    /// Seals the streaming pass: checkpoints the writer and reports the
    /// first append error, if any.
    ///
    /// # Errors
    ///
    /// Returns the first [`StoreError`] hit while streaming, or a
    /// checkpoint I/O failure.
    pub fn finish(self) -> Result<(), StoreError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        self.writer.checkpoint()
    }
}

impl CampaignSink for StoreSink<'_> {
    fn accept(&mut self, _index: u64, result: CampaignResult) {
        if self.error.is_some() {
            return;
        }
        let job = result.id;
        let meta = &self.metas[job as usize];
        // Trace-logging stores persist the run's per-scene trace first,
        // then the outcome record — recovery treats the record as the
        // job's completion marker and demotes it when frames are missing.
        if self.writer.traces_enabled() {
            let Some(trace) = &result.report.trace else {
                self.error = Some(StoreError::new(format!(
                    "job {job} recorded no trace but the store persists traces — run the \
                     campaign with SimConfig::record_trace"
                )));
                return;
            };
            for frame in &trace.frames {
                let record = crate::TraceRecord {
                    job,
                    scenario_id: meta.scenario_id,
                    scenario_seed: meta.scenario_seed,
                    frame: *frame,
                };
                if let Err(e) = self.writer.append_trace(&record) {
                    self.error = Some(e);
                    return;
                }
            }
        }
        let record = CampaignRecord::from_report(job, meta, &result.report);
        if let Err(e) = self.writer.append(&record) {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{open_store, read_store};
    use drivefi_sim::{CampaignEngine, CampaignJob, Outcome, SimConfig};
    use drivefi_world::ScenarioConfig;
    use std::sync::Arc;

    #[test]
    fn engine_results_stream_to_disk() {
        let dir = std::env::temp_dir().join(format!("drivefi-sink-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let scenario = Arc::new(ScenarioConfig::lead_vehicle_cruise(7));
        let jobs: Vec<CampaignJob> = (0..4u64)
            .map(|id| CampaignJob { id, scenario: Arc::clone(&scenario), faults: vec![] })
            .collect();
        let metas: Vec<RecordMeta> = (0..4)
            .map(|_| RecordMeta {
                scenario_id: scenario.id,
                scenario_seed: scenario.seed,
                fault: None,
            })
            .collect();

        let (mut writer, _) = open_store(&dir, 11, 4, 2, 64).unwrap();
        let mut sink = StoreSink::new(&mut writer, &metas);
        CampaignEngine::new(SimConfig::default()).with_workers(2).run(jobs, &mut sink);
        sink.finish().unwrap();
        assert!(writer.finish().unwrap().complete);

        let (_, records) = read_store(&dir).unwrap();
        assert_eq!(records.len(), 4);
        for (job, record) in records.iter().enumerate() {
            assert_eq!(record.job, job as u64);
            assert_eq!(record.scenario_id, scenario.id);
            assert_eq!(record.outcome, Outcome::Safe);
            assert_eq!(record.fault, None);
            assert!(record.scenes > 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
