//! Human-readable campaign report rendering (`drivefi report --format`).
//!
//! [`PlanReport`] already round-trips as machine artifacts
//! (`report.toml` + `jobs.csv`); this module renders the same numbers —
//! plus whatever observability left behind — as a document:
//!
//! * outcome totals and rates;
//! * per-fault and per-scenario-family breakdown tables;
//! * the control-point verdict (`control.toml`) when one was recorded;
//! * stage timings and lifecycle counts replayed from `events.jsonl`
//!   when `DRIVEFI_OBS` was on during the run;
//! * the `DRIVEFI_PROFILE` ADS tick-stage table when this process has
//!   recorded profiler samples.
//!
//! Rendering is read-only over the store's artifacts: a report rendered
//! with observability off simply omits the lifecycle sections, and the
//! TOML/CSV artifacts are byte-identical either way.
//!
//! The renderer builds one format-neutral [`Document`] and emits it as
//! GitHub-flavoured Markdown or a dependency-free standalone HTML page,
//! so the two formats cannot drift apart structurally.

use crate::campaign::{AdaptiveProgress, ControlVerdict};
use crate::report::PlanReport;
use drivefi_obs::Event;
use drivefi_store::CampaignRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A rendered table: a header row plus data rows, all pre-stringified.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows; each row has `header.len()` cells.
    pub rows: Vec<Vec<String>>,
}

/// One titled section: leading paragraphs, then an optional table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Section {
    /// Section heading.
    pub title: String,
    /// Paragraphs before the table.
    pub paragraphs: Vec<String>,
    /// The section's table, if it has one.
    pub table: Option<Table>,
}

/// The format-neutral report document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Document {
    /// Document title.
    pub title: String,
    /// Sections in render order.
    pub sections: Vec<Section>,
}

/// Everything the renderer can fold into the document beyond the
/// [`PlanReport`] itself. All of it is optional: a store run with
/// observability off renders a report with only the outcome tables.
#[derive(Debug, Clone, Default)]
pub struct RenderContext {
    /// `scenario_id → family name`, from the plan's suite.
    pub family_names: BTreeMap<u32, String>,
    /// The control-point verdict, when `control.toml` exists.
    pub control: Option<ControlVerdict>,
    /// The adaptive acquisition summary, when `rounds.toml` exists
    /// (adaptive campaigns only).
    pub adaptive: Option<AdaptiveProgress>,
    /// Replayed lifecycle events (`events.jsonl`), oldest first.
    pub events: Vec<Event>,
    /// ADS tick-profiler rows as `(phase, samples, total_ns)`, for when
    /// `DRIVEFI_PROFILE` recorded samples in this process.
    pub profile: Vec<(String, u64, u64)>,
}

fn count_outcomes(records: &[&CampaignRecord]) -> (u64, u64, u64) {
    use drivefi_sim::Outcome;
    let mut safe = 0;
    let mut hazards = 0;
    let mut collisions = 0;
    for record in records {
        match record.outcome {
            Outcome::Safe => safe += 1,
            Outcome::Hazard { .. } => hazards += 1,
            Outcome::Collision { .. } => collisions += 1,
        }
    }
    (safe, hazards, collisions)
}

fn outcome_row(label: String, records: &[&CampaignRecord]) -> Vec<String> {
    let (safe, hazards, collisions) = count_outcomes(records);
    let jobs = records.len() as u64;
    let rate = if jobs == 0 { 0.0 } else { (hazards + collisions) as f64 / jobs as f64 };
    vec![
        label,
        jobs.to_string(),
        safe.to_string(),
        hazards.to_string(),
        collisions.to_string(),
        format!("{rate:.4}"),
    ]
}

const BREAKDOWN_HEADER: [&str; 6] = ["", "jobs", "safe", "hazards", "collisions", "hazard rate"];

fn breakdown_header(key: &str) -> Vec<String> {
    let mut header: Vec<String> = BREAKDOWN_HEADER.iter().map(|s| s.to_string()).collect();
    header[0] = key.to_string();
    header
}

fn summary_section(report: &PlanReport) -> Section {
    Section {
        title: "Summary".into(),
        paragraphs: vec![
            format!(
                "Campaign kind `{}`, fingerprint `0x{:016x}`.",
                report.kind, report.fingerprint
            ),
            format!(
                "{} of {} jobs persisted{}.",
                report.jobs.len(),
                report.total_jobs,
                if report.complete() { " (complete)" } else { " — **interrupted campaign**" }
            ),
        ],
        table: Some(Table {
            header: vec![
                "jobs".into(),
                "safe".into(),
                "hazards".into(),
                "collisions".into(),
                "hazard rate".into(),
                "effective injections".into(),
            ],
            rows: vec![vec![
                report.jobs.len().to_string(),
                report.safe().to_string(),
                report.hazards().to_string(),
                report.collisions().to_string(),
                format!("{:.4}", report.hazard_rate()),
                report.effective_injections().to_string(),
            ]],
        }),
    }
}

fn fault_section(report: &PlanReport) -> Section {
    let mut by_fault: BTreeMap<String, Vec<&CampaignRecord>> = BTreeMap::new();
    for record in &report.jobs {
        by_fault.entry(record.fault_name()).or_default().push(record);
    }
    Section {
        title: "Outcomes by fault".into(),
        paragraphs: vec!["Golden (unfaulted) jobs appear as `none`.".into()],
        table: Some(Table {
            header: breakdown_header("fault"),
            rows: by_fault
                .iter()
                .map(|(name, records)| outcome_row(format!("`{name}`"), records))
                .collect(),
        }),
    }
}

fn family_section(report: &PlanReport, names: &BTreeMap<u32, String>) -> Section {
    let mut by_family: BTreeMap<String, Vec<&CampaignRecord>> = BTreeMap::new();
    for record in &report.jobs {
        let family = names
            .get(&record.scenario_id)
            .cloned()
            .unwrap_or_else(|| format!("scenario#{}", record.scenario_id));
        by_family.entry(family).or_default().push(record);
    }
    Section {
        title: "Outcomes by scenario family".into(),
        paragraphs: Vec::new(),
        table: Some(Table {
            header: breakdown_header("family"),
            rows: by_family
                .iter()
                .map(|(name, records)| outcome_row(format!("`{name}`"), records))
                .collect(),
        }),
    }
}

/// The adaptive campaign's acquisition story: the per-round table plus
/// the jobs-to-first-`F_crit` headline against the random and
/// exhaustive baselines.
fn adaptive_section(progress: &AdaptiveProgress) -> Section {
    let mut paragraphs = vec![format!(
        "Acquisition over {} candidate(s): {} round(s) run{}{}.",
        progress.candidates,
        progress.rounds.len(),
        if progress.converged { ", posterior converged" } else { "" },
        if progress.exhausted { ", candidate space exhausted" } else { "" },
    )];
    paragraphs.push(match progress.jobs_to_first_hazard {
        Some(jobs) => {
            let exhaustive = match progress.exhaustive_upper_bound {
                Some(bound) => format!("an exhaustive sweep would have paid at most {bound}"),
                None => "no exhaustive bound available".to_string(),
            };
            format!(
                "Jobs to first `F_crit`: **{jobs}** — uniform random sampling would expect \
                 ~{:.1}, {exhaustive}.",
                progress.random_estimate
            )
        }
        None => "No hazardous injection found yet.".to_string(),
    });
    Section {
        title: "Adaptive acquisition".into(),
        paragraphs,
        table: Some(Table {
            header: vec![
                "round".into(),
                "jobs".into(),
                "hazards".into(),
                "cumulative".into(),
                "top score".into(),
                "max shift".into(),
            ],
            rows: progress
                .rounds
                .iter()
                .map(|round| {
                    vec![
                        format!("`round-{:03}`", round.round),
                        round.jobs.to_string(),
                        round.hazards.to_string(),
                        round.cumulative_hazards.to_string(),
                        format!("{:.3}", round.top_score),
                        format!("{:.3}", round.max_shift),
                    ]
                })
                .collect(),
        }),
    }
}

fn control_section(verdict: &ControlVerdict) -> Section {
    Section {
        title: "Control point".into(),
        paragraphs: vec![format!(
            "Unfaulted control job on scenario {} (`{}`) finished `{}` — {}.",
            verdict.scenario_id,
            verdict.scenario_name,
            verdict.outcome,
            if verdict.survivable {
                "survivable, as asserted"
            } else {
                "**not survivable**: faulted outcomes on this workload are not attributable \
                 to injected faults"
            }
        )],
        table: None,
    }
}

/// Stage timing and lifecycle counts replayed from `events.jsonl`.
///
/// Per-stage active time sums every `stage_start → stage_finish`
/// interval, closing still-open stages at a `campaign_pause` — so a
/// run → kill → resume → finish campaign reports the stage's *worked*
/// time, not the wall-clock span including the gap.
fn lifecycle_section(events: &[Event]) -> Option<Section> {
    if events.is_empty() {
        return None;
    }
    #[derive(Default)]
    struct StageClock {
        active_ms: u64,
        starts: u64,
        finished: bool,
    }
    let mut stages: BTreeMap<String, StageClock> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut open: Option<(String, u64)> = None;
    let mut resumes = 0u64;
    let mut checkpoints = 0u64;
    let mut takeovers = 0u64;
    let mut compactions = 0u64;
    let close_open =
        |open: &mut Option<(String, u64)>, stages: &mut BTreeMap<String, StageClock>, ts: u64| {
            if let Some((stage, began)) = open.take() {
                stages.entry(stage).or_default().active_ms += ts.saturating_sub(began);
            }
        };
    for event in events {
        match event.kind.as_str() {
            "stage_start" => {
                let stage = event.str_field("stage").unwrap_or("?").to_string();
                close_open(&mut open, &mut stages, event.ts_ms);
                if !order.contains(&stage) {
                    order.push(stage.clone());
                }
                stages.entry(stage.clone()).or_default().starts += 1;
                open = Some((stage, event.ts_ms));
            }
            "stage_finish" => {
                let stage = event.str_field("stage").unwrap_or("?").to_string();
                close_open(&mut open, &mut stages, event.ts_ms);
                stages.entry(stage).or_default().finished = true;
            }
            "campaign_pause" | "campaign_finish" => {
                close_open(&mut open, &mut stages, event.ts_ms);
            }
            "resume" => resumes += 1,
            "checkpoint" => checkpoints += 1,
            "lease_takeover" => takeovers += 1,
            "compact" => compactions += 1,
            _ => {}
        }
    }
    let mut counts = vec![format!("{} event(s) replayed", events.len())];
    if resumes > 0 {
        counts.push(format!("{resumes} resume(s)"));
    }
    if checkpoints > 0 {
        counts.push(format!("{checkpoints} checkpoint(s)"));
    }
    if takeovers > 0 {
        counts.push(format!("{takeovers} lease takeover(s)"));
    }
    if compactions > 0 {
        counts.push(format!("{compactions} compaction(s)"));
    }
    Some(Section {
        title: "Lifecycle".into(),
        paragraphs: vec![format!("From `events.jsonl`: {}.", counts.join(", "))],
        table: if order.is_empty() {
            None
        } else {
            Some(Table {
                header: vec!["stage".into(), "starts".into(), "active".into(), "finished".into()],
                rows: order
                    .iter()
                    .map(|stage| {
                        let clock = &stages[stage];
                        vec![
                            format!("`{stage}`"),
                            clock.starts.to_string(),
                            format!("{:.1}s", clock.active_ms as f64 / 1000.0),
                            if clock.finished { "yes" } else { "no" }.into(),
                        ]
                    })
                    .collect(),
            })
        },
    })
}

fn profile_section(profile: &[(String, u64, u64)]) -> Option<Section> {
    if profile.iter().all(|(_, samples, _)| *samples == 0) {
        return None;
    }
    Some(Section {
        title: "ADS tick profile".into(),
        paragraphs: vec![
            "Per-stage pipeline timings recorded by `DRIVEFI_PROFILE=1` in this process.".into(),
        ],
        table: Some(Table {
            header: vec!["phase".into(), "samples".into(), "total".into(), "mean".into()],
            rows: profile
                .iter()
                .filter(|(_, samples, _)| *samples > 0)
                .map(|(phase, samples, total_ns)| {
                    vec![
                        format!("`{phase}`"),
                        samples.to_string(),
                        format!("{:.2}ms", *total_ns as f64 / 1e6),
                        format!("{}ns", total_ns.checked_div(*samples).unwrap_or(0)),
                    ]
                })
                .collect(),
        }),
    })
}

/// Builds the format-neutral document for `report` under `context`.
pub fn report_document(report: &PlanReport, context: &RenderContext) -> Document {
    let mut sections = vec![
        summary_section(report),
        fault_section(report),
        family_section(report, &context.family_names),
    ];
    if let Some(progress) = &context.adaptive {
        sections.push(adaptive_section(progress));
    }
    if let Some(verdict) = &context.control {
        sections.push(control_section(verdict));
    }
    if let Some(section) = lifecycle_section(&context.events) {
        sections.push(section);
    }
    if let Some(section) = profile_section(&context.profile) {
        sections.push(section);
    }
    Document { title: format!("Campaign report: {}", report.name), sections }
}

fn markdown_table(table: &Table, out: &mut String) {
    let row = |cells: &[String], out: &mut String| {
        out.push('|');
        for cell in cells {
            out.push(' ');
            out.push_str(cell);
            out.push_str(" |");
        }
        out.push('\n');
    };
    row(&table.header, out);
    out.push('|');
    for _ in &table.header {
        out.push_str(" --- |");
    }
    out.push('\n');
    for cells in &table.rows {
        row(cells, out);
    }
}

/// Emits `document` as GitHub-flavoured Markdown.
pub fn to_markdown(document: &Document) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}\n", document.title);
    for section in &document.sections {
        let _ = writeln!(out, "## {}\n", section.title);
        for paragraph in &section.paragraphs {
            let _ = writeln!(out, "{paragraph}\n");
        }
        if let Some(table) = &section.table {
            markdown_table(table, &mut out);
            out.push('\n');
        }
    }
    out
}

fn html_escape(text: &str, out: &mut String) {
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(ch),
        }
    }
}

/// Markdown-ish inline text to HTML: `` `code` `` and `**strong**`
/// spans (the only inline markup the renderer itself emits).
fn html_inline(text: &str, out: &mut String) {
    let mut rest = text;
    loop {
        let tick = rest.find('`');
        let star = rest.find("**");
        match (tick, star) {
            (Some(t), s) if s.is_none_or(|s| t < s) => {
                if let Some(end) = rest[t + 1..].find('`') {
                    html_escape(&rest[..t], out);
                    out.push_str("<code>");
                    html_escape(&rest[t + 1..t + 1 + end], out);
                    out.push_str("</code>");
                    rest = &rest[t + end + 2..];
                } else {
                    break;
                }
            }
            (_, Some(s)) => {
                if let Some(end) = rest[s + 2..].find("**") {
                    html_escape(&rest[..s], out);
                    out.push_str("<strong>");
                    html_escape(&rest[s + 2..s + 2 + end], out);
                    out.push_str("</strong>");
                    rest = &rest[s + end + 4..];
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    html_escape(rest, out);
}

/// Emits `document` as a self-contained HTML page (no external assets).
pub fn to_html(document: &Document) -> String {
    let mut out =
        String::from("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>");
    html_escape(&document.title, &mut out);
    out.push_str(
        "</title>\n<style>\nbody { font-family: sans-serif; margin: 2em auto; max-width: 60em; }\n\
         table { border-collapse: collapse; margin: 1em 0; }\n\
         th, td { border: 1px solid #999; padding: 0.3em 0.7em; text-align: left; }\n\
         th { background: #eee; }\ncode { background: #f4f4f4; padding: 0 0.2em; }\n\
         </style>\n</head>\n<body>\n<h1>",
    );
    html_escape(&document.title, &mut out);
    out.push_str("</h1>\n");
    for section in &document.sections {
        out.push_str("<h2>");
        html_escape(&section.title, &mut out);
        out.push_str("</h2>\n");
        for paragraph in &section.paragraphs {
            out.push_str("<p>");
            html_inline(paragraph, &mut out);
            out.push_str("</p>\n");
        }
        if let Some(table) = &section.table {
            out.push_str("<table>\n<tr>");
            for cell in &table.header {
                out.push_str("<th>");
                html_inline(cell, &mut out);
                out.push_str("</th>");
            }
            out.push_str("</tr>\n");
            for cells in &table.rows {
                out.push_str("<tr>");
                for cell in cells {
                    out.push_str("<td>");
                    html_inline(cell, &mut out);
                    out.push_str("</td>");
                }
                out.push_str("</tr>\n");
            }
            out.push_str("</table>\n");
        }
    }
    out.push_str("</body>\n</html>\n");
    out
}

/// The current process's ADS tick-profiler rows in [`RenderContext`]
/// shape, empty when `DRIVEFI_PROFILE` is off or nothing was recorded.
pub fn ads_profile_rows() -> Vec<(String, u64, u64)> {
    drivefi_ads::profiler::report()
        .into_iter()
        .filter(|row| row.samples > 0)
        .map(|row| (row.phase.name().to_string(), row.samples, row.total_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_fault::{FaultKind, FaultSpec};
    use drivefi_sim::Outcome;

    fn record(
        job: u64,
        scenario_id: u32,
        fault: Option<FaultSpec>,
        outcome: Outcome,
    ) -> CampaignRecord {
        CampaignRecord {
            job,
            scenario_id,
            scenario_seed: 7,
            fault,
            outcome,
            injections: u64::from(fault.is_some()),
            scenes: 300,
            min_delta_lon: 1.5,
            min_delta_lat: 0.4,
        }
    }

    fn sample_report() -> PlanReport {
        let fault = FaultSpec {
            kind: FaultKind::ModuleHang { stage: drivefi_ads::Stage::Planning },
            window: drivefi_fault::WindowSpec::burst(10, 4),
        };
        PlanReport::new(
            "render-test".into(),
            "random",
            0xabcd,
            3,
            vec![
                record(0, 0, None, Outcome::Safe),
                record(1, 0, Some(fault), Outcome::Hazard { scene: 40 }),
                record(2, 1, Some(fault), Outcome::Safe),
            ],
        )
    }

    #[test]
    fn markdown_report_has_breakdown_tables() {
        let report = sample_report();
        let mut context = RenderContext::default();
        context.family_names.insert(0, "cut_in".into());
        let md = to_markdown(&report_document(&report, &context));
        assert!(md.contains("# Campaign report: render-test"));
        assert!(md.contains("## Outcomes by fault"));
        assert!(md.contains("`planning.hang`"));
        assert!(md.contains("`cut_in`"));
        // Scenario 1 has no suite name — labelled by id.
        assert!(md.contains("`scenario#1`"));
        // Obs-off: no lifecycle or profile sections.
        assert!(!md.contains("## Lifecycle"));
        assert!(!md.contains("## ADS tick profile"));
    }

    #[test]
    fn adaptive_section_renders_rounds_and_baselines() {
        let context = RenderContext {
            adaptive: Some(AdaptiveProgress {
                rounds: vec![crate::campaign::RoundSummary {
                    round: 0,
                    jobs: 4,
                    hazards: 2,
                    cumulative_hazards: 2,
                    top_score: 0.8125,
                    max_shift: 0.25,
                }],
                candidates: 96,
                converged: true,
                exhausted: false,
                jobs_to_first_hazard: Some(2),
                exhaustive_upper_bound: Some(17),
                random_estimate: 32.333,
            }),
            ..RenderContext::default()
        };
        let md = to_markdown(&report_document(&sample_report(), &context));
        assert!(md.contains("## Adaptive acquisition"), "{md}");
        assert!(md.contains("`round-000`"), "{md}");
        assert!(md.contains("posterior converged"), "{md}");
        assert!(md.contains("Jobs to first `F_crit`: **2**"), "{md}");
        assert!(md.contains("~32.3"), "{md}");
        assert!(md.contains("at most 17"), "{md}");
        // Without progress the section is absent, not empty.
        let bare = to_markdown(&report_document(&sample_report(), &RenderContext::default()));
        assert!(!bare.contains("Adaptive acquisition"));
    }

    #[test]
    fn html_report_escapes_and_structures() {
        let report = sample_report();
        let html = to_html(&report_document(&report, &RenderContext::default()));
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<h2>Outcomes by fault</h2>"));
        assert!(html.contains("<code>planning.hang</code>"));
        assert!(!html.contains("**"));
    }

    #[test]
    fn lifecycle_sums_interrupted_stage_time() {
        let make = |seq: u64, ts_ms: u64, kind: &str, fields: &[(&str, &str)]| Event {
            seq,
            ts_ms,
            mono_ms: ts_ms,
            kind: kind.into(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), drivefi_obs::Field::Str(v.to_string())))
                .collect(),
        };
        let events = vec![
            make(1, 1000, "campaign_start", &[]),
            make(2, 1000, "stage_start", &[("stage", "main")]),
            make(3, 4000, "campaign_pause", &[]),
            // 60 s gap while the campaign sat interrupted…
            make(4, 64_000, "resume", &[]),
            make(5, 64_000, "stage_start", &[("stage", "main")]),
            make(6, 66_000, "stage_finish", &[("stage", "main")]),
            make(7, 66_000, "campaign_finish", &[]),
        ];
        let section = lifecycle_section(&events).unwrap();
        let table = section.table.unwrap();
        // …which must not count toward active time: 3 s + 2 s, not 65 s.
        assert_eq!(
            table.rows,
            vec![vec!["`main`", "2", "5.0s", "yes"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()]
        );
        assert!(section.paragraphs[0].contains("1 resume(s)"));
    }
}
