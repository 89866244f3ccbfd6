//! The `drivefi` campaign CLI: run, resume, mine, report on, compact,
//! query, and *serve* plan-file campaigns with a persistent store.
//!
//! ```text
//! drivefi run     <plan.toml> [--max-jobs N] [--output-dir DIR] [--no-assert-control]
//! drivefi resume  <plan.toml> [--output-dir DIR] [--no-assert-control]
//! drivefi mine    <plan.toml> [--max-jobs N] [--output-dir DIR] [--no-assert-control]
//! drivefi report  <plan.toml> [--partial] [--output-dir DIR] [--format toml|md|html]
//! drivefi compact <plan.toml|store-dir> [--output-dir DIR]
//! drivefi query   <plan.toml|store-dir> [--outcome safe|hazard|collision]
//!                 [--scenario ID] [--fault SUBSTR] [--limit N] [--output-dir DIR]
//!                 [--format csv|jsonl]
//! drivefi diff    <baseline-store> <candidate-store> [--plan plan.toml]
//! drivefi serve   <root> [--slice N] [--poll-ms N] [--drain] [--max-rounds N]
//! drivefi submit  <root> <plan.toml>
//! drivefi status  <root>
//! ```
//!
//! * `run` executes the plan: results stream to the plan's `[output]`
//!   store, and the run resumes automatically if the store already
//!   holds records. A plan without `[output]` (or `--output-dir`) runs
//!   on a throwaway store and saves nothing. `--max-jobs` caps how many
//!   *pending* jobs this invocation executes (the budget-cap interrupt
//!   CI exercises), so it needs a store to resume from.
//! * `resume` is `run` that insists a store already exists — a typo'd
//!   directory fails instead of silently starting over.
//! * `mine` is `run` that insists the plan is a Bayesian-pipeline kind
//!   (`kind = "mine"`: golden → fit → mine → validate, or
//!   `kind = "adaptive"`: the posterior-guided acquisition loop over
//!   per-round sub-stores `round-000/`, `round-001/`, …).
//! * `report` rebuilds `report.toml` + `jobs.csv` from the store
//!   without running any jobs. An interrupted store needs `--partial` —
//!   a partial report is otherwise indistinguishable from a finished
//!   run's at a glance; the refusal surveys the shards and says *which*
//!   of them (and whose leases) are incomplete. `--format md|html`
//!   additionally renders `report.md`/`report.html` with per-fault and
//!   per-family breakdowns plus whatever `DRIVEFI_OBS` lifecycle events
//!   and `DRIVEFI_PROFILE` tick timings the run left behind.
//! * `diff` compares two stores cell-by-cell (scenario × fault): exit 0
//!   when the candidate holds no new or worsened hazards, exit 3 when
//!   it regressed — the CI safety gate. `--plan` maps scenario ids to
//!   family names in the listing.
//! * `run`/`resume`/`mine` on random and mine plans first execute an
//!   unfaulted *control job* and assert it survivable (a hazardous
//!   baseline means faulted outcomes prove nothing); opt out with
//!   `--no-assert-control` or `[control] assert = false`.
//! * `compact` rewrites a store's shards in pure job order (torn tails
//!   and duplicate records dropped); `read_store` results are unchanged.
//! * `query` prints matching per-job records as CSV on stdout. Filter
//!   values are validated up front: a typo'd `--outcome hazrd` or
//!   `--fault throtle` is a usage error, not an empty result.
//! * `--output-dir` overrides the plan's `[output] dir` (handy for
//!   running one plan into several stores); the campaign fingerprint
//!   deliberately excludes the output section, so overriding it never
//!   invalidates a resume.
//! * `serve` runs the campaign daemon over a serve root: plans
//!   `submit`ted into `<root>/spool/` are claimed, scheduled
//!   fair-share (one `--slice`-sized job budget per `[submit] weight`
//!   unit per round), and report into `<root>/campaigns/<id>/`;
//!   `status` prints every campaign's live progress. `--drain` exits
//!   once everything submitted has finished.
//!
//! Relative `[output] dir` paths are resolved against the plan file's
//! directory, so `drivefi run plans/foo.toml` works from anywhere. For
//! the two-stage pipeline kinds (`mine`, `exhaustive`) `report` and
//! `query` read the sweep-stage sub-store (`validate/` / `sweep/`).

use drivefi::plan::{
    ads_profile_rows, campaign_fingerprint, diff_stores, known_fault_filter, report_document,
    round_dirs, run_plan_budget, to_html, to_markdown, AdaptiveProgress, CampaignKind,
    CampaignPlan, ControlVerdict, OutputSpec, PlanReport, PlanResult, RenderContext, GOLDEN_SUBDIR,
    SWEEP_SUBDIR, VALIDATE_SUBDIR,
};
use drivefi::serve::{serve, submit_plan, CampaignStatus, ServeConfig, CAMPAIGNS_DIR, SPOOL_DIR};
use drivefi::store::{compact_store, read_store, shard_progress, LeaseState, MANIFEST_FILE};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: drivefi <run|resume|mine|report|compact|query> <plan.toml|store-dir> \
                     [--max-jobs N] [--output-dir DIR] [--partial] [--no-assert-control] \
                     [--outcome safe|hazard|collision] [--scenario ID] [--fault SUBSTR] \
                     [--limit N] [--format toml|md|html|csv|jsonl]\n       \
                     drivefi diff <baseline-store> <candidate-store> [--plan plan.toml]\n       \
                     drivefi serve <root> [--slice N] [--poll-ms N] [--drain] [--max-rounds N]\n       \
                     drivefi submit <root> <plan.toml>\n       \
                     drivefi status <root>";

struct Args {
    command: String,
    target: String,
    /// Second positional operand (`submit`'s plan path).
    extra: Option<String>,
    max_jobs: Option<u64>,
    output_dir: Option<String>,
    partial: bool,
    outcome: Option<String>,
    scenario: Option<u32>,
    fault: Option<String>,
    limit: Option<usize>,
    slice: Option<u64>,
    poll_ms: Option<u64>,
    drain: bool,
    max_rounds: Option<u64>,
    format: Option<String>,
    no_assert_control: bool,
    /// `diff --plan`: the plan whose suite names scenario families.
    plan: Option<String>,
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("drivefi: {message}");
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| fail(USAGE));
    let target = args.next().unwrap_or_else(|| fail(USAGE));
    let mut parsed = Args {
        command,
        target,
        extra: None,
        max_jobs: None,
        output_dir: None,
        partial: false,
        outcome: None,
        scenario: None,
        fault: None,
        limit: None,
        slice: None,
        poll_ms: None,
        drain: false,
        max_rounds: None,
        format: None,
        no_assert_control: false,
        plan: None,
    };
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| fail(format!("{flag} needs a value\n{USAGE}")))
        };
        match flag.as_str() {
            "--max-jobs" => {
                parsed.max_jobs = Some(
                    value("--max-jobs")
                        .parse()
                        .unwrap_or_else(|_| fail("--max-jobs needs an integer")),
                )
            }
            "--output-dir" => parsed.output_dir = Some(value("--output-dir")),
            "--partial" => parsed.partial = true,
            "--outcome" => {
                let outcome = value("--outcome");
                if !matches!(outcome.as_str(), "safe" | "hazard" | "collision") {
                    fail(format!("--outcome must be safe, hazard, or collision (got `{outcome}`)"));
                }
                parsed.outcome = Some(outcome)
            }
            "--scenario" => {
                parsed.scenario = Some(
                    value("--scenario")
                        .parse()
                        .unwrap_or_else(|_| fail("--scenario needs an integer id")),
                )
            }
            "--fault" => {
                let fault = value("--fault");
                if !known_fault_filter(&fault) {
                    fail(format!(
                        "--fault `{fault}` matches no known fault-kind name (names look like \
                         `plan.throttle:max`, `world.lead_distance:min`, `world.clear`, \
                         `planning.hang`)"
                    ));
                }
                parsed.fault = Some(fault)
            }
            "--limit" => {
                parsed.limit = Some(
                    value("--limit").parse().unwrap_or_else(|_| fail("--limit needs an integer")),
                )
            }
            "--slice" => {
                let slice: u64 =
                    value("--slice").parse().unwrap_or_else(|_| fail("--slice needs an integer"));
                if slice == 0 {
                    fail("--slice must be at least 1");
                }
                parsed.slice = Some(slice)
            }
            "--poll-ms" => {
                parsed.poll_ms = Some(
                    value("--poll-ms")
                        .parse()
                        .unwrap_or_else(|_| fail("--poll-ms needs an integer")),
                )
            }
            "--drain" => parsed.drain = true,
            "--format" => {
                let format = value("--format");
                if !matches!(format.as_str(), "toml" | "md" | "html" | "csv" | "jsonl") {
                    fail(format!(
                        "--format must be toml, md, or html (report) or csv or jsonl (query), \
                         got `{format}`"
                    ));
                }
                parsed.format = Some(format)
            }
            "--no-assert-control" => parsed.no_assert_control = true,
            "--plan" => parsed.plan = Some(value("--plan")),
            "--max-rounds" => {
                parsed.max_rounds = Some(
                    value("--max-rounds")
                        .parse()
                        .unwrap_or_else(|_| fail("--max-rounds needs an integer")),
                )
            }
            other if !other.starts_with('-') && parsed.extra.is_none() => {
                parsed.extra = Some(other.to_string())
            }
            other => fail(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    parsed
}

/// Loads the plan and resolves its `[output] dir` (or the `--output-dir`
/// override) against the plan file's directory.
fn load_plan(path: &str, output_dir: Option<&str>) -> CampaignPlan {
    let path = Path::new(path);
    let mut plan = CampaignPlan::load(path).unwrap_or_else(|e| fail(e));
    // A plan-embedded dir resolves against the plan file's directory...
    let base = path.parent().unwrap_or_else(|| Path::new("."));
    if let Some(output) = &mut plan.output {
        let dir = Path::new(&output.dir);
        if dir.is_relative() {
            output.dir = base.join(dir).to_string_lossy().into_owned();
        }
    }
    // ...while a --output-dir override resolves like any CLI path:
    // against the working directory, untouched.
    if let Some(dir) = output_dir {
        let spec = plan.output.take().unwrap_or_else(|| OutputSpec::new(dir));
        plan.output = Some(OutputSpec { dir: dir.into(), ..spec });
    }
    plan
}

/// For a `<store-dir>` target with no manifest: a hint listing the
/// pipeline stage sub-stores available at or near the target, so a
/// mistyped stage name (`store/valdate`) or a bare pipeline root names
/// what the user probably meant instead of "no such store".
fn sub_store_hint(target: &Path) -> Option<String> {
    let list = |dir: &Path| -> Vec<String> {
        [GOLDEN_SUBDIR, VALIDATE_SUBDIR, SWEEP_SUBDIR]
            .iter()
            .map(|stage| dir.join(stage))
            .chain(round_dirs(dir))
            .filter(|stage| stage.join(MANIFEST_FILE).is_file())
            .map(|stage| format!("{}/", stage.display()))
            .collect()
    };
    let here = list(target);
    if !here.is_empty() {
        return Some(format!(
            "{} is a pipeline root, not a store — pick a stage sub-store: {}",
            target.display(),
            here.join(", ")
        ));
    }
    if !target.exists() {
        let near = list(target.parent()?);
        if !near.is_empty() {
            return Some(format!(
                "{} does not exist — available stage sub-stores: {}",
                target.display(),
                near.join(", ")
            ));
        }
    }
    None
}

fn store_dir(plan: &CampaignPlan) -> &str {
    match &plan.output {
        Some(output) => &output.dir,
        None => fail("this command needs the plan to have an [output] section (or --output-dir)"),
    }
}

/// The directory holding the plan's final per-job records: the store
/// itself for single-stage kinds, the sweep-stage sub-store
/// (`validate/` / `sweep/`) for two-stage pipeline kinds. Adaptive
/// campaigns have no single records dir — their report concatenates
/// every `round-*/` sub-store ([`adaptive_records`]).
fn records_dir(plan: &CampaignPlan) -> PathBuf {
    let root = Path::new(store_dir(plan));
    match plan.kind.store_subdir() {
        Some(subdir) => root.join(subdir),
        None => root.to_path_buf(),
    }
}

/// One line per run: the report's tallies, and where it was saved —
/// nowhere for a plan without `[output]`, whose store was throwaway.
fn print_summary(report: &PlanReport, saved: bool) {
    println!(
        "{}: {}/{} jobs {}{}, {} safe, {} hazards, {} collisions{}",
        report.kind,
        report.jobs.len(),
        report.total_jobs,
        if saved { "persisted" } else { "run" },
        if report.complete() { " (complete)" } else { "" },
        report.safe(),
        report.hazards(),
        report.collisions(),
        if saved { " → report.toml + jobs.csv" } else { " (no [output]: nothing saved)" },
    );
}

fn cmd_run(args: &Args, require_store: bool, require_mine: bool) {
    let mut plan = load_plan(&args.target, args.output_dir.as_deref());
    if args.no_assert_control {
        plan.control.assert_survivable = false;
    }
    if require_mine
        && !matches!(plan.kind, CampaignKind::Mine { .. } | CampaignKind::Adaptive { .. })
    {
        fail(format!(
            "`drivefi mine` needs a `kind = \"mine\"` or `kind = \"adaptive\"` plan, got \
             `kind = \"{}\"` (use `drivefi run` for other kinds)",
            plan.kind.name()
        ));
    }
    if require_store {
        // Pipeline kinds create their golden sub-store first, so that is
        // what an interrupted run is guaranteed to have left behind.
        let dir = store_dir(&plan);
        let first_store = if plan.kind.is_staged() {
            Path::new(dir).join(GOLDEN_SUBDIR)
        } else {
            PathBuf::from(dir)
        };
        if !first_store.join(MANIFEST_FILE).is_file() {
            fail(format!("nothing to resume: no store manifest under {}", first_store.display()));
        }
    }
    let PlanResult::Persisted(report) =
        run_plan_budget(&plan, args.max_jobs).unwrap_or_else(|e| fail(e));
    print_summary(&report, plan.output.is_some());
    // `run --format md|html` renders right here, in the process that
    // just simulated — the one place the `DRIVEFI_PROFILE` tick table
    // has samples to show.
    if let (Some("md" | "html"), Some(output)) = (args.format.as_deref(), &plan.output) {
        render_report(args, &plan, &report, Path::new(&output.dir));
    }
}

fn cmd_report(args: &Args) {
    let plan = load_plan(&args.target, args.output_dir.as_deref());
    if matches!(plan.kind, CampaignKind::Adaptive { .. }) {
        return cmd_report_adaptive(args, &plan);
    }
    let mut dir = records_dir(&plan);
    // Pipeline reports live at the output root, next to the sub-stores.
    let mut report_dir = PathBuf::from(store_dir(&plan));
    if plan.kind.store_subdir().is_some() && !dir.join(MANIFEST_FILE).is_file() {
        // The pipeline was interrupted before its sweep stage existed —
        // the golden sub-store is all there is to report on.
        let golden = report_dir.join(GOLDEN_SUBDIR);
        if golden.join(MANIFEST_FILE).is_file() {
            eprintln!(
                "drivefi: note: pipeline interrupted before its sweep stage — reporting on \
                 the golden stage under {}",
                golden.display()
            );
            dir = golden.clone();
            report_dir = golden;
        }
    }
    if !dir.join(MANIFEST_FILE).is_file() {
        if let Some(hint) = sub_store_hint(&dir) {
            fail(hint);
        }
    }
    let (meta, records) = read_store(&dir).unwrap_or_else(|e| fail(e));
    let expected = campaign_fingerprint(&plan);
    check_fingerprint(&dir, meta.fingerprint, expected);
    let report = PlanReport::new(
        plan.name.clone(),
        plan.kind.name(),
        meta.fingerprint,
        meta.total_jobs,
        records,
    );
    if !report.complete() && !args.partial {
        fail(incomplete_store_message(&dir, &report));
    }
    report.save(&report_dir).unwrap_or_else(|e| fail(e));
    match args.format.as_deref() {
        None | Some("toml") => {}
        Some("md" | "html") => render_report(args, &plan, &report, &report_dir),
        Some(other) => fail(format!("report --format must be toml, md, or html, got `{other}`")),
    }
    print_summary(&report, true);
}

/// Fails unless the store under `dir` was written by this plan.
fn check_fingerprint(dir: &Path, found: u64, expected: u64) {
    if found != expected {
        fail(format!(
            "store under {} was created by a different plan \
             (fingerprint 0x{found:016x}, plan is 0x{expected:016x})",
            dir.display()
        ));
    }
}

/// Reads and concatenates every `round-*/` sub-store under an adaptive
/// campaign's output root, renumbering each round's store-local job ids
/// by the planned jobs before it — the exact record stream the
/// acquisition loop itself reports. Returns the records, the campaign's
/// planned job total so far, and the first incomplete round, if any.
fn adaptive_records(
    root: &Path,
    expected: u64,
) -> (Vec<drivefi::store::CampaignRecord>, u64, Option<PathBuf>) {
    let mut base = 0u64;
    let mut partial = None;
    let mut all = Vec::new();
    for dir in round_dirs(root) {
        if !dir.join(MANIFEST_FILE).is_file() {
            continue; // swept but never started — nothing persisted yet
        }
        let (meta, records) = read_store(&dir).unwrap_or_else(|e| fail(e));
        check_fingerprint(&dir, meta.fingerprint, expected);
        if !meta.complete && partial.is_none() {
            partial = Some(dir.clone());
        }
        for mut record in records {
            record.job += base;
            all.push(record);
        }
        base += meta.total_jobs;
    }
    (all, base, partial)
}

/// `report` for an adaptive plan: the report concatenates every
/// `round-*/` sub-store at the output root (where the acquisition loop
/// saves its own), falling back to the golden stage when the campaign
/// was interrupted before its first round.
fn cmd_report_adaptive(args: &Args, plan: &CampaignPlan) {
    let root = PathBuf::from(store_dir(plan));
    let expected = campaign_fingerprint(plan);
    let (records, total, partial) = adaptive_records(&root, expected);
    if total == 0 {
        let golden = root.join(GOLDEN_SUBDIR);
        if !golden.join(MANIFEST_FILE).is_file() {
            fail(format!(
                "nothing to report: no round sub-store or golden stage under {}",
                root.display()
            ));
        }
        eprintln!(
            "drivefi: note: acquisition loop interrupted before its first round — reporting on \
             the golden stage under {}",
            golden.display()
        );
        let (meta, records) = read_store(&golden).unwrap_or_else(|e| fail(e));
        check_fingerprint(&golden, meta.fingerprint, expected);
        let report = PlanReport::new(
            plan.name.clone(),
            plan.kind.name(),
            expected,
            meta.total_jobs,
            records,
        );
        if !report.complete() && !args.partial {
            fail(incomplete_store_message(&golden, &report));
        }
        report.save(&golden).unwrap_or_else(|e| fail(e));
        if matches!(args.format.as_deref(), Some("md" | "html")) {
            render_report(args, plan, &report, &golden);
        }
        return print_summary(&report, true);
    }
    let report = PlanReport::new(plan.name.clone(), plan.kind.name(), expected, total, records);
    if !report.complete() && !args.partial {
        let dir = partial.unwrap_or_else(|| root.clone());
        fail(format!(
            "adaptive round under {} is incomplete ({} of {} campaign job records persisted) — \
             resume it with `drivefi resume`, or pass --partial to report on it as-is",
            dir.display(),
            report.jobs.len(),
            report.total_jobs
        ));
    }
    report.save(&root).unwrap_or_else(|e| fail(e));
    match args.format.as_deref() {
        None | Some("toml") => {}
        Some("md" | "html") => render_report(args, plan, &report, &root),
        Some(other) => fail(format!("report --format must be toml, md, or html, got `{other}`")),
    }
    print_summary(&report, true);
}

/// Renders `report.md` / `report.html` next to the store artifacts.
fn render_report(args: &Args, plan: &CampaignPlan, report: &PlanReport, report_dir: &Path) {
    let context = render_context(plan, report_dir);
    let document = report_document(report, &context);
    let (rendered, file) = match args.format.as_deref() {
        Some("md") => (to_markdown(&document), "report.md"),
        _ => (to_html(&document), "report.html"),
    };
    let path = report_dir.join(file);
    std::fs::write(&path, rendered).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
    println!("rendered {}", path.display());
}

/// Everything the renderer can use beyond the report itself: the plan
/// suite's family names, the control verdict, and — when `DRIVEFI_OBS`
/// was on during the run — the campaign's lifecycle events. All
/// best-effort: a store with none of it still renders.
fn render_context(plan: &CampaignPlan, report_dir: &Path) -> RenderContext {
    let mut context = RenderContext {
        control: ControlVerdict::load(report_dir).unwrap_or(None),
        adaptive: AdaptiveProgress::load(report_dir).unwrap_or(None),
        profile: ads_profile_rows(),
        ..RenderContext::default()
    };
    for scenario in plan.scenarios.build_suite().scenarios {
        context.family_names.insert(scenario.id, scenario.name);
    }
    // Single-stage campaigns log everything into one root events.jsonl;
    // pipeline stages also log into their sub-stores. Merge in seq
    // order (the sequence counter is process-global).
    let mut events = drivefi::obs::read_events(report_dir).unwrap_or_default();
    for stage in [GOLDEN_SUBDIR, VALIDATE_SUBDIR, SWEEP_SUBDIR] {
        events.extend(drivefi::obs::read_events(&report_dir.join(stage)).unwrap_or_default());
    }
    for round in round_dirs(report_dir) {
        events.extend(drivefi::obs::read_events(&round).unwrap_or_default());
    }
    events.sort_by_key(|event| event.seq);
    events.dedup_by_key(|event| event.seq);
    context.events = events;
    context
}

/// The `report` refusal for an interrupted store: survey the shards so
/// the message says *which* of them are short and whether a writer
/// still holds (or abandoned) them — an actively-running campaign, a
/// crashed one, and a scoped serve writer that finished its range but
/// never sealed all read differently.
fn incomplete_store_message(dir: &Path, report: &PlanReport) -> String {
    use std::fmt::Write;
    let mut message = format!(
        "store under {} holds {} of {} job records — an interrupted campaign; resume it \
         with `drivefi resume`, or pass --partial to report on it as-is",
        dir.display(),
        report.jobs.len(),
        report.total_jobs
    );
    let Ok(progress) = shard_progress(dir) else { return message };
    let all_shards_full = progress.iter().all(|shard| shard.complete());
    message.push_str("\n  incomplete shards:");
    if all_shards_full {
        // Every shard has all its records but the manifest never went
        // complete: a scoped writer (serve slice / --max-jobs range)
        // finished its range without sealing the store.
        message.push_str(
            "\n    none — every shard is fully persisted, but no writer sealed the store \
             (a scoped writer finished its range); `drivefi resume` will seal it",
        );
        return message;
    }
    for shard in progress.iter().filter(|shard| !shard.complete()) {
        let lease = match &shard.lease {
            LeaseState::Unheld => "no writer holds it — interrupted".to_string(),
            LeaseState::Live { holder } => format!("held live by {holder} — still running"),
            LeaseState::Stale { holder } => format!("stale lease from {holder} — crashed"),
        };
        let _ = write!(
            message,
            "\n    shard {:03}: {} of {} records; {lease}",
            shard.shard, shard.records, shard.expected
        );
    }
    message
}

fn cmd_compact(args: &Args) {
    // Accept either a store directory directly or a plan file, whose
    // every stage store is compacted.
    let target = Path::new(&args.target);
    let dirs: Vec<PathBuf> = if target.join(MANIFEST_FILE).is_file() {
        vec![target.to_path_buf()]
    } else {
        if let Some(hint) = sub_store_hint(target) {
            fail(hint);
        }
        let plan = load_plan(&args.target, args.output_dir.as_deref());
        let root = PathBuf::from(store_dir(&plan));
        match plan.kind.store_subdir() {
            Some(subdir) => vec![root.join(GOLDEN_SUBDIR), root.join(subdir)],
            // Adaptive: golden plus every round that has run so far.
            None if plan.kind.is_staged() => {
                std::iter::once(root.join(GOLDEN_SUBDIR)).chain(round_dirs(&root)).collect()
            }
            None => vec![root],
        }
    };
    for dir in dirs {
        if !dir.join(MANIFEST_FILE).is_file() {
            eprintln!("drivefi: skipping {} (no store manifest yet)", dir.display());
            continue;
        }
        let meta = compact_store(&dir).unwrap_or_else(|e| fail(e));
        println!(
            "compacted {}: {} records across {} shard(s){} now in pure job order",
            dir.display(),
            meta.checkpoint_records,
            meta.shards,
            if meta.traces { " (+ trace shards)" } else { "" },
        );
    }
}

fn cmd_query(args: &Args) {
    // Accept either a plan file (query its [output] store) or a store
    // directory directly.
    let target = Path::new(&args.target);
    let records: Vec<drivefi::store::CampaignRecord> = if target.join(MANIFEST_FILE).is_file() {
        read_store(target).unwrap_or_else(|e| fail(e)).1
    } else {
        if let Some(hint) = sub_store_hint(target) {
            fail(hint);
        }
        let plan = load_plan(&args.target, args.output_dir.as_deref());
        if matches!(plan.kind, CampaignKind::Adaptive { .. }) {
            let root = PathBuf::from(store_dir(&plan));
            adaptive_records(&root, campaign_fingerprint(&plan)).0
        } else {
            read_store(records_dir(&plan)).unwrap_or_else(|e| fail(e)).1
        }
    };

    let jsonl = match args.format.as_deref() {
        None | Some("csv") => false,
        Some("jsonl") => true,
        Some(other) => fail(format!("query --format must be csv or jsonl, got `{other}`")),
    };
    let mut out = String::new();
    if !jsonl {
        out.push_str(drivefi::plan::csv_header());
        out.push('\n');
    }
    let mut matched = 0usize;
    for record in &records {
        if args.limit.is_some_and(|limit| matched >= limit) {
            break;
        }
        let outcome_name = match record.outcome {
            drivefi::sim::Outcome::Safe => "safe",
            drivefi::sim::Outcome::Hazard { .. } => "hazard",
            drivefi::sim::Outcome::Collision { .. } => "collision",
        };
        if args.outcome.as_deref().is_some_and(|want| want != outcome_name) {
            continue;
        }
        if args.scenario.is_some_and(|want| want != record.scenario_id) {
            continue;
        }
        if let Some(want) = &args.fault {
            let name = record.fault.map(|spec| spec.kind.name()).unwrap_or_default();
            if !name.contains(want.as_str()) {
                continue;
            }
        }
        if jsonl {
            jsonl_row(record, outcome_name, &mut out);
        } else {
            drivefi::plan::csv_row(record, &mut out);
        }
        matched += 1;
    }
    print!("{out}");
    eprintln!("{matched} of {} records matched", records.len());
}

/// One record as a flat JSON object line — the same fields as the CSV,
/// with nulls where the CSV leaves cells empty. Fault names and outcome
/// names come from closed vocabularies (no quoting needed beyond `"`).
fn jsonl_row(record: &drivefi::store::CampaignRecord, outcome_name: &str, out: &mut String) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"job\":{},\"scenario_id\":{},\"scenario_seed\":{},",
        record.job, record.scenario_id, record.scenario_seed
    );
    match record.fault {
        Some(spec) => {
            let _ = write!(
                out,
                "\"fault\":\"{}\",\"fault_scene\":{},\"fault_scenes\":{},",
                spec.kind.name(),
                spec.window.scene,
                spec.window.scenes
            );
        }
        None => out.push_str("\"fault\":null,\"fault_scene\":null,\"fault_scenes\":null,"),
    }
    let _ = write!(out, "\"outcome\":\"{outcome_name}\",");
    match record.outcome {
        drivefi::sim::Outcome::Safe => out.push_str("\"scene\":null,\"actor\":null,"),
        drivefi::sim::Outcome::Hazard { scene } => {
            let _ = write!(out, "\"scene\":{scene},\"actor\":null,");
        }
        drivefi::sim::Outcome::Collision { scene, actor } => {
            let _ = write!(out, "\"scene\":{scene},\"actor\":{actor},");
        }
    }
    let _ = writeln!(
        out,
        "\"injections\":{},\"scenes\":{},\"min_delta_lon\":{},\"min_delta_lat\":{}}}",
        record.injections, record.scenes, record.min_delta_lon, record.min_delta_lat
    );
}

/// `drivefi diff <baseline> <candidate>`: exit 0 when the candidate
/// holds no new or worsened hazard cells, 3 when it regressed.
fn cmd_diff(args: &Args) {
    let candidate = args
        .extra
        .as_deref()
        .unwrap_or_else(|| fail(format!("diff needs two store directories\n{USAGE}")));
    let names: BTreeMap<u32, String> = match &args.plan {
        Some(path) => load_plan(path, None)
            .scenarios
            .build_suite()
            .scenarios
            .into_iter()
            .map(|scenario| (scenario.id, scenario.name))
            .collect(),
        None => BTreeMap::new(),
    };
    let diff = diff_stores(&args.target, candidate).unwrap_or_else(|e| fail(e));
    println!(
        "diff: {} baseline cell(s) vs {} candidate cell(s): {} regressed, {} improved",
        diff.baseline_cells,
        diff.candidate_cells,
        diff.regressed.len(),
        diff.improved.len()
    );
    for delta in &diff.regressed {
        println!("  REGRESSED {}", delta.describe(&names));
    }
    for delta in &diff.improved {
        println!("  improved  {}", delta.describe(&names));
    }
    let jobs_to_find = |jobs: Option<u64>| match jobs {
        Some(jobs) => format!("{jobs} job(s)"),
        None => "never".to_string(),
    };
    println!(
        "jobs to first hazard: baseline {}, candidate {}",
        jobs_to_find(diff.baseline_jobs_to_hazard),
        jobs_to_find(diff.candidate_jobs_to_hazard)
    );
    // When exactly one side ever found a hazard, say so outright — the
    // summary line above leaves the reader to infer it from `never`.
    match (diff.baseline_jobs_to_hazard, diff.candidate_jobs_to_hazard) {
        (None, Some(jobs)) => {
            println!("  baseline hazard-free → candidate's first hazard at job {jobs}");
        }
        (Some(jobs), None) => {
            println!("  candidate hazard-free → baseline's first hazard at job {jobs}");
        }
        _ => {}
    }
    if diff.has_regression() {
        eprintln!(
            "drivefi: candidate regressed in {} cell(s) relative to the baseline",
            diff.regressed.len()
        );
        std::process::exit(3);
    }
}

fn cmd_serve(args: &Args) {
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        slice: args.slice.unwrap_or(defaults.slice),
        poll_ms: args.poll_ms.unwrap_or(defaults.poll_ms),
        drain: args.drain,
        max_rounds: args.max_rounds,
    };
    let summary = serve(Path::new(&args.target), &config).unwrap_or_else(|e| fail(e));
    println!(
        "serve: {} campaign(s) over {} round(s): {} done, {} failed",
        summary.admitted, summary.rounds, summary.done, summary.failed
    );
    if summary.failed > 0 {
        std::process::exit(1);
    }
}

fn cmd_submit(args: &Args) {
    let plan =
        args.extra.as_deref().unwrap_or_else(|| fail(format!("submit needs a plan file\n{USAGE}")));
    let id = submit_plan(Path::new(&args.target), Path::new(plan)).unwrap_or_else(|e| fail(e));
    println!(
        "submitted as {id} (spooled under {})",
        Path::new(&args.target).join(SPOOL_DIR).display()
    );
}

fn cmd_status(args: &Args) {
    let root = Path::new(&args.target);
    let campaigns = root.join(CAMPAIGNS_DIR);
    let mut dirs: Vec<PathBuf> = match std::fs::read_dir(&campaigns) {
        Ok(entries) => entries.filter_map(|e| e.ok()).map(|e| e.path()).collect(),
        Err(_) => Vec::new(),
    };
    dirs.sort();
    let mut shown = 0;
    for dir in dirs {
        let id = dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        match CampaignStatus::load(&dir) {
            Ok(status) => {
                let eta = status.eta_seconds.map(|s| format!("  eta {s}s")).unwrap_or_default();
                // How long since the daemon last touched this campaign —
                // the difference between "running" and "daemon died".
                let age = status
                    .updated_ms
                    .map(|updated| {
                        let now = std::time::SystemTime::now()
                            .duration_since(std::time::UNIX_EPOCH)
                            .map(|d| d.as_millis() as u64)
                            .unwrap_or(0);
                        format!("  updated {}s ago", now.saturating_sub(updated) / 1000)
                    })
                    .unwrap_or_default();
                let error =
                    status.error.as_deref().map(|e| format!("  error: {e}")).unwrap_or_default();
                println!(
                    "{id}: {} [{}] {}/{} jobs  safe={} hazards={} collisions={} slices={}{eta}{age}{error}",
                    status.state.name(),
                    status.stage,
                    status.done,
                    status.total,
                    status.safe,
                    status.hazards,
                    status.collisions,
                    status.slices,
                );
                shown += 1;
            }
            Err(_) => {
                println!("{id}: claimed, no status yet");
                shown += 1;
            }
        }
    }
    let spooled = std::fs::read_dir(root.join(SPOOL_DIR))
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    !name.starts_with('.') && name.ends_with(".toml")
                })
                .count()
        })
        .unwrap_or(0);
    if shown == 0 && spooled == 0 {
        println!("no campaigns under {}", root.display());
    } else if spooled > 0 {
        println!("{spooled} submission(s) waiting in the spool");
    }
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "run" => cmd_run(&args, false, false),
        "resume" => cmd_run(&args, true, false),
        "mine" => cmd_run(&args, false, true),
        "report" => cmd_report(&args),
        "compact" => cmd_compact(&args),
        "query" => cmd_query(&args),
        "diff" => cmd_diff(&args),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "status" => cmd_status(&args),
        other => fail(format!("unknown command `{other}`\n{USAGE}")),
    }
}
