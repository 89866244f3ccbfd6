//! The round-trip campaign report: plan in → report out, as files.
//!
//! A [`PlanReport`] is the queryable artifact a persisted campaign
//! leaves behind — the ROADMAP's "whole experiments round-trip as
//! files" item. It aggregates a store directory's merged
//! [`CampaignRecord`]s and serializes to two files next to the shards:
//!
//! * `report.toml` — the summary: plan name/kind, campaign fingerprint,
//!   job counts, and the outcome tallies;
//! * `jobs.csv` — one row per persisted job, in job order, with the
//!   scenario identity, armed fault, outcome, and hazard metrics.
//!
//! Both files are deterministic functions of the report value, so two
//! equal reports are byte-identical on disk — the property the
//! crash-resume tests pin ([`PlanReport::save`] after an interrupted +
//! resumed campaign produces the same bytes as an uninterrupted run).
//! [`PlanReport::load`] parses both files back and cross-checks the
//! summary tallies against the rows, so a hand-edited report fails
//! loudly instead of mis-aggregating.

use crate::scenario::{as_bool, as_str, as_uint, expect_keys, get};
use crate::toml::{emit_document, parse_document, Map, Toml};
use crate::PlanError;
use drivefi_ads::{Signal, Stage};
use drivefi_fault::{FaultKind, FaultSpace, FaultSpec, ScalarFaultModel, WindowSpec};
use drivefi_sim::Outcome;
use drivefi_store::CampaignRecord;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Summary file name inside a store/report directory.
pub const REPORT_FILE: &str = "report.toml";
/// Per-job CSV file name inside a store/report directory.
pub const JOBS_FILE: &str = "jobs.csv";

const CSV_HEADER: &str = "job,scenario,seed,fault,scene,scenes,outcome,event_scene,actor,\
                          injections,sim_scenes,min_delta_lon,min_delta_lat";

/// The aggregated, serializable result of a persisted campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Plan name the campaign ran under.
    pub name: String,
    /// Campaign kind name (`"random"` / `"golden"`).
    pub kind: String,
    /// The campaign identity fingerprint the store is locked to.
    pub fingerprint: u64,
    /// Total jobs the campaign comprises (rows may be fewer while the
    /// campaign is still interruptible-in-progress).
    pub total_jobs: u64,
    /// One record per persisted job, sorted by job index.
    pub jobs: Vec<CampaignRecord>,
}

impl PlanReport {
    /// Builds the report over a store's merged records (must already be
    /// sorted by job index, as [`drivefi_store::read_store`] returns
    /// them).
    pub fn new(
        name: String,
        kind: &str,
        fingerprint: u64,
        total_jobs: u64,
        jobs: Vec<CampaignRecord>,
    ) -> Self {
        debug_assert!(jobs.windows(2).all(|w| w[0].job < w[1].job), "records sorted by job");
        PlanReport { name, kind: kind.to_owned(), fingerprint, total_jobs, jobs }
    }

    /// Persisted jobs ending safe.
    pub fn safe(&self) -> u64 {
        self.jobs.iter().filter(|r| r.outcome.is_safe()).count() as u64
    }

    /// Persisted jobs with δ ≤ 0 but no collision.
    pub fn hazards(&self) -> u64 {
        self.jobs.iter().filter(|r| r.outcome.is_hazardous() && !r.outcome.is_collision()).count()
            as u64
    }

    /// Persisted jobs ending in a collision.
    pub fn collisions(&self) -> u64 {
        self.jobs.iter().filter(|r| r.outcome.is_collision()).count() as u64
    }

    /// Persisted jobs in which the injector corrupted at least one live
    /// value.
    pub fn effective_injections(&self) -> u64 {
        self.jobs.iter().filter(|r| r.injections > 0).count() as u64
    }

    /// Fraction of persisted jobs that violated safety.
    pub fn hazard_rate(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            (self.hazards() + self.collisions()) as f64 / self.jobs.len() as f64
        }
    }

    /// True once every job has a persisted record.
    pub fn complete(&self) -> bool {
        self.jobs.len() as u64 == self.total_jobs
    }

    /// Renders the summary TOML document. `complete` records whether
    /// every job had a persisted record when the report was built — the
    /// one bit that distinguishes a report rebuilt from an interrupted
    /// store from a finished run's.
    pub fn summary_toml(&self) -> String {
        emit_document(&Map::from([
            ("name".into(), Toml::Str(self.name.clone())),
            ("kind".into(), Toml::Str(self.kind.clone())),
            ("fingerprint".into(), Toml::Str(format!("0x{:016x}", self.fingerprint))),
            ("total_jobs".into(), Toml::Int(self.total_jobs as i64)),
            ("persisted".into(), Toml::Int(self.jobs.len() as i64)),
            ("complete".into(), Toml::Bool(self.complete())),
            ("safe".into(), Toml::Int(self.safe() as i64)),
            ("hazards".into(), Toml::Int(self.hazards() as i64)),
            ("collisions".into(), Toml::Int(self.collisions() as i64)),
            ("effective_injections".into(), Toml::Int(self.effective_injections() as i64)),
        ]))
    }

    /// Saves `report.toml` + `jobs.csv` into `dir` (typically the store
    /// directory itself). `jobs.csv` (header + one row per record) is
    /// written row by row, so a sweep's rows never sit in memory as one
    /// string.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] on I/O failure.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), PlanError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| PlanError::new(format!("creating {}: {e}", dir.display())))?;
        let path = dir.join(REPORT_FILE);
        let write_err = |path: &Path, e: std::io::Error| {
            PlanError::new(format!("writing {}: {e}", path.display()))
        };
        std::fs::write(&path, self.summary_toml()).map_err(|e| write_err(&path, e))?;
        let path = dir.join(JOBS_FILE);
        let write_csv = || -> std::io::Result<()> {
            let mut out = BufWriter::new(File::create(&path)?);
            writeln!(out, "{CSV_HEADER}")?;
            let mut row = String::new();
            for record in &self.jobs {
                row.clear();
                csv_row(record, &mut row);
                out.write_all(row.as_bytes())?;
            }
            out.into_inner().map_err(|e| e.into_error())?;
            Ok(())
        };
        write_csv().map_err(|e| write_err(&path, e))
    }

    /// Loads a report saved by [`PlanReport::save`], cross-checking the
    /// summary tallies against the re-aggregated rows.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] on I/O or parse failure, or when the
    /// summary disagrees with the rows (a tampered or half-updated
    /// report).
    pub fn load(dir: impl AsRef<Path>) -> Result<PlanReport, PlanError> {
        let dir = dir.as_ref();
        let read = |file: &str| {
            let path = dir.join(file);
            std::fs::read_to_string(&path)
                .map_err(|e| PlanError::new(format!("reading {}: {e}", path.display())))
        };
        let doc = parse_document(&read(REPORT_FILE)?)?;
        expect_keys(
            &doc,
            "report summary",
            &[
                "name",
                "kind",
                "fingerprint",
                "total_jobs",
                "persisted",
                "complete",
                "safe",
                "hazards",
                "collisions",
                "effective_injections",
            ],
        )?;
        let fingerprint_text =
            as_str(get(&doc, "report summary", "fingerprint")?, "`fingerprint`")?;
        let fingerprint = fingerprint_text
            .strip_prefix("0x")
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| {
                PlanError::new(format!("`fingerprint` must be 0x-hex, got `{fingerprint_text}`"))
            })?;

        let csv = read(JOBS_FILE)?;
        let mut lines = csv.lines();
        match lines.next() {
            Some(header) if header == CSV_HEADER => {}
            other => {
                return Err(PlanError::new(format!(
                    "{JOBS_FILE}: unexpected header {other:?} (expected `{CSV_HEADER}`)"
                )))
            }
        }
        let jobs: Vec<CampaignRecord> = lines
            .enumerate()
            .map(|(i, line)| {
                parse_csv_row(line)
                    .map_err(|e| PlanError::new(format!("{JOBS_FILE} line {}: {e}", i + 2)))
            })
            .collect::<Result<_, _>>()?;

        let report = PlanReport {
            name: as_str(get(&doc, "report summary", "name")?, "`name`")?.to_owned(),
            kind: as_str(get(&doc, "report summary", "kind")?, "`kind`")?.to_owned(),
            fingerprint,
            total_jobs: as_uint(get(&doc, "report summary", "total_jobs")?, "`total_jobs`")?,
            jobs,
        };
        for (what, claimed, actual) in [
            (
                "persisted",
                as_uint(get(&doc, "report summary", "persisted")?, "`persisted`")?,
                report.jobs.len() as u64,
            ),
            ("safe", as_uint(get(&doc, "report summary", "safe")?, "`safe`")?, report.safe()),
            (
                "hazards",
                as_uint(get(&doc, "report summary", "hazards")?, "`hazards`")?,
                report.hazards(),
            ),
            (
                "collisions",
                as_uint(get(&doc, "report summary", "collisions")?, "`collisions`")?,
                report.collisions(),
            ),
            (
                "effective_injections",
                as_uint(
                    get(&doc, "report summary", "effective_injections")?,
                    "`effective_injections`",
                )?,
                report.effective_injections(),
            ),
        ] {
            if claimed != actual {
                return Err(PlanError::new(format!(
                    "report summary claims {what} = {claimed} but the rows aggregate to {actual}"
                )));
            }
        }
        // Reports written before the `complete` key load without this
        // cross-check (the rows still pin every tally above).
        if let Some(value) = doc.get("complete") {
            let claimed_complete = as_bool(value, "`complete`")?;
            if claimed_complete != report.complete() {
                return Err(PlanError::new(format!(
                    "report summary claims complete = {claimed_complete} but {} of {} jobs \
                     have rows",
                    report.jobs.len(),
                    report.total_jobs
                )));
            }
        }
        Ok(report)
    }
}

/// The CSV header row, shared with the `drivefi query` CLI output.
pub fn csv_header() -> &'static str {
    CSV_HEADER
}

/// Appends one record's CSV row (with trailing newline) to `out`.
/// Shared with the `drivefi query` CLI output.
pub fn csv_row(record: &CampaignRecord, out: &mut String) {
    use std::fmt::Write;
    let fault_name = record.fault.map(|spec| spec.kind.name()).unwrap_or_default();
    debug_assert!(!fault_name.contains(','), "fault names stay comma-free");
    write!(out, "{},{},{},{fault_name},", record.job, record.scenario_id, record.scenario_seed)
        .expect("writing to String");
    match record.fault {
        Some(spec) => write!(out, "{},{},", spec.window.scene, spec.window.scenes),
        None => write!(out, ",,"),
    }
    .expect("writing to String");
    match record.outcome {
        Outcome::Safe => write!(out, "safe,,,"),
        Outcome::Hazard { scene } => write!(out, "hazard,{scene},,"),
        Outcome::Collision { scene, actor } => write!(out, "collision,{scene},{actor},"),
    }
    .expect("writing to String");
    writeln!(
        out,
        "{},{},{},{}",
        record.injections, record.scenes, record.min_delta_lon, record.min_delta_lat
    )
    .expect("writing to String");
}

/// True when `needle` could match at least one well-formed fault name as
/// a substring — the validation behind `drivefi query --fault`. The
/// vocabulary is everything [`FaultKind::name`] can emit:
/// `"signal:model"` for scalar faults (where parameterized models carry
/// a free-form numeric tail after `(`) and the module-fault names. A
/// typo like `"hazrd"` or `"throtle"` matches nothing and is rejected
/// up front instead of silently filtering every record away.
pub fn known_fault_filter(needle: &str) -> bool {
    if needle.is_empty() {
        return false;
    }
    // A fully spelled-out fault name (e.g. "plan.throttle:offset(-2.5)").
    if parse_fault_kind(needle).is_some() {
        return true;
    }
    // A needle made purely of parameter characters could fall entirely
    // inside a parameterized model's numeric tail ("62)", "(-2.5)") —
    // only the record filter can tell, so let it through.
    if needle.chars().all(|c| c.is_ascii_digit() || "().-".contains(c)) {
        return true;
    }
    // Otherwise the needle must occur in some name with the numeric tail
    // of parameterized models left open: validate only the part up to
    // (and including) the first `(` — anything after it is a number.
    let head = match needle.find('(') {
        Some(at) => &needle[..=at],
        None => needle,
    };
    let model_stems = ["min", "max", "stuck(", "bitflip(", "offset(", "scale("];
    let scalar_names = Signal::ALL
        .iter()
        .flat_map(|signal| model_stems.iter().map(move |stem| format!("{}:{stem}", signal.name())));
    let module_names = [FaultKind::ClearWorldModel, FaultKind::FreezeWorldModel]
        .into_iter()
        .chain(Stage::ALL.map(|stage| FaultKind::ModuleHang { stage }))
        .map(|kind| kind.name());
    scalar_names.chain(module_names).any(|name| name.contains(head))
}

/// Parses the fault-name vocabulary [`FaultKind::name`] emits:
/// `"signal:model"` for scalar faults, the module names otherwise.
fn parse_fault_kind(name: &str) -> Option<FaultKind> {
    if let Some(kind) = FaultSpace::parse_module(name) {
        return Some(kind);
    }
    let (signal, model) = name.split_once(':')?;
    Some(FaultKind::Scalar {
        signal: Signal::from_name(signal)?,
        model: ScalarFaultModel::parse(model)?,
    })
}

fn parse_csv_row(line: &str) -> Result<CampaignRecord, PlanError> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 13 {
        return Err(PlanError::new(format!("expected 13 fields, got {}", fields.len())));
    }
    let uint = |what: &str, s: &str| -> Result<u64, PlanError> {
        s.parse().map_err(|_| PlanError::new(format!("{what} `{s}` is not an integer")))
    };
    let float = |what: &str, s: &str| -> Result<f64, PlanError> {
        s.parse().map_err(|_| PlanError::new(format!("{what} `{s}` is not a number")))
    };

    let fault = if fields[3].is_empty() {
        if !fields[4].is_empty() || !fields[5].is_empty() {
            return Err(PlanError::new("golden row must leave the fault window empty".into()));
        }
        None
    } else {
        let kind = parse_fault_kind(fields[3])
            .ok_or_else(|| PlanError::new(format!("unknown fault `{}`", fields[3])))?;
        let window = WindowSpec {
            scene: uint("fault scene", fields[4])?,
            scenes: uint("fault window length", fields[5])?,
        };
        Some(FaultSpec { kind, window })
    };

    // Event fields that don't apply to the outcome must be empty —
    // anything else is a hand-edited row that save() would re-emit
    // differently, breaking the byte-identity contract.
    let must_be_empty = |what: &str, s: &str| -> Result<(), PlanError> {
        if s.is_empty() {
            Ok(())
        } else {
            Err(PlanError::new(format!("{what} must be empty for this outcome, got `{s}`")))
        }
    };
    let outcome = match fields[6] {
        "safe" => {
            must_be_empty("event_scene", fields[7])?;
            must_be_empty("actor", fields[8])?;
            Outcome::Safe
        }
        "hazard" => {
            must_be_empty("actor", fields[8])?;
            Outcome::Hazard { scene: uint("event scene", fields[7])? }
        }
        "collision" => Outcome::Collision {
            scene: uint("event scene", fields[7])?,
            actor: uint("actor", fields[8])? as u32,
        },
        other => return Err(PlanError::new(format!("unknown outcome `{other}`"))),
    };

    Ok(CampaignRecord {
        job: uint("job", fields[0])?,
        scenario_id: uint("scenario", fields[1])? as u32,
        scenario_seed: uint("seed", fields[2])?,
        fault,
        outcome,
        injections: uint("injections", fields[9])?,
        scenes: uint("sim_scenes", fields[10])?,
        min_delta_lon: float("min_delta_lon", fields[11])?,
        min_delta_lat: float("min_delta_lat", fields[12])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_ads::Stage;

    fn sample_report() -> PlanReport {
        let jobs = vec![
            CampaignRecord {
                job: 0,
                scenario_id: 3,
                scenario_seed: 0xFEED,
                fault: Some(FaultSpec {
                    kind: FaultKind::Scalar {
                        signal: Signal::RawThrottle,
                        model: ScalarFaultModel::StuckMax,
                    },
                    window: WindowSpec::scene(40),
                }),
                outcome: Outcome::Safe,
                injections: 4,
                scenes: 300,
                min_delta_lon: 3.25,
                min_delta_lat: 1.0625,
            },
            CampaignRecord {
                job: 1,
                scenario_id: 4,
                scenario_seed: 7,
                fault: Some(FaultSpec {
                    kind: FaultKind::ModuleHang { stage: Stage::Planning },
                    window: WindowSpec::burst(10, 6),
                }),
                outcome: Outcome::Hazard { scene: 15 },
                injections: 24,
                scenes: 300,
                min_delta_lon: -0.5,
                min_delta_lat: 0.75,
            },
            CampaignRecord {
                job: 3,
                scenario_id: 5,
                scenario_seed: 9,
                fault: None,
                outcome: Outcome::Collision { scene: 80, actor: 2 },
                injections: 0,
                scenes: 81,
                min_delta_lon: -1.5,
                min_delta_lat: 0.0,
            },
        ];
        PlanReport::new("unit".into(), "random", 0xABCD_EF01_2345_6789, 5, jobs)
    }

    #[test]
    fn summary_tallies_aggregate_the_rows() {
        let report = sample_report();
        assert_eq!(report.safe(), 1);
        assert_eq!(report.hazards(), 1);
        assert_eq!(report.collisions(), 1);
        assert_eq!(report.effective_injections(), 2);
        assert!(!report.complete(), "job 2 and 4 missing");
        assert!((report.hazard_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_through_files() {
        let dir = std::env::temp_dir().join(format!("drivefi-report-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let report = sample_report();
        report.save(&dir).unwrap();
        assert_eq!(PlanReport::load(&dir).unwrap(), report);
        // Equal reports serialize byte-identically.
        let bytes = std::fs::read(dir.join(JOBS_FILE)).unwrap();
        report.save(&dir).unwrap();
        assert_eq!(std::fs::read(dir.join(JOBS_FILE)).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_summary_is_rejected() {
        let dir =
            std::env::temp_dir().join(format!("drivefi-report-tamper-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        sample_report().save(&dir).unwrap();
        let path = dir.join(REPORT_FILE);
        let summary = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, summary.replace("hazards = 1", "hazards = 2")).unwrap();
        let err = PlanReport::load(&dir).expect_err("tampered tally");
        assert!(err.to_string().contains("hazards"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn known_fault_filter_accepts_vocabulary_and_rejects_typos() {
        for valid in [
            "throttle",
            "plan.throttle",
            "plan.throttle:max",
            ":min",
            "max",
            "hang",
            "world.",
            "world.clear",
            "planning.hang",
            "offset(",
            "offset(-2",
            "bitflip(62)",
            "plan.throttle:offset(-2.5)",
            "(-2.5)",
            "62)",
            "lead",
        ] {
            assert!(known_fault_filter(valid), "`{valid}` should be a known fault substring");
        }
        for invalid in ["", "hazrd", "throtle", "plan.warp", "warp(2)", "world.melt", "::"] {
            assert!(!known_fault_filter(invalid), "`{invalid}` should be rejected");
        }
    }

    #[test]
    fn every_fault_name_in_csv_parses_back() {
        for kind in [
            FaultKind::Scalar {
                signal: Signal::LeadDistance,
                model: ScalarFaultModel::BitFlip(62),
            },
            FaultKind::Scalar { signal: Signal::FinalBrake, model: ScalarFaultModel::Offset(-2.5) },
            FaultKind::Scalar { signal: Signal::RawThrottle, model: ScalarFaultModel::Scale(1.25) },
            FaultKind::ClearWorldModel,
            FaultKind::FreezeWorldModel,
            FaultKind::ModuleHang { stage: Stage::Perception },
        ] {
            assert_eq!(parse_fault_kind(&kind.name()), Some(kind), "{}", kind.name());
        }
        assert_eq!(parse_fault_kind("nonsense"), None);
        assert_eq!(parse_fault_kind("raw_throttle:warp(2)"), None);
    }

    #[test]
    fn malformed_csv_rows_are_rejected() {
        for (row, needle) in [
            ("1,2,3", "13 fields"),
            ("x,2,3,,,,safe,,,0,1,0,0", "integer"),
            ("1,2,3,,9,,safe,,,0,1,0,0", "fault window"),
            ("1,2,3,,,,exploded,,,0,1,0,0", "unknown outcome"),
            ("1,2,3,plan.warp:max,4,1,safe,,,0,1,0,0", "unknown fault"),
            // Event fields that don't apply must stay empty.
            ("1,2,3,,,,safe,55,,0,1,0,0", "event_scene"),
            ("1,2,3,,,,safe,,9,0,1,0,0", "actor"),
            ("1,2,3,,,,hazard,55,9,0,1,0,0", "actor"),
        ] {
            let err = parse_csv_row(row).expect_err(row);
            assert!(err.to_string().contains(needle), "`{row}` → {err}");
        }
    }
}
