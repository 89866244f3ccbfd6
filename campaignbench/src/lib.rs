//! The campaign benchmark of DriveFI-rs.
//!
//! One invocation measures one workload for a fixed time:
//!
//! ```text
//! campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates the workload's plan files (scenario suite and
//! campaign seed); the program only receives those plans. The smoke
//! test runs the same plans at [`Scale::Tiny`].
//!
//! * `--trace 0` repeats the campaign through the public entry points —
//!   `run_plan`, or `submit_plan` then `serve` — until the time is up,
//!   and reports the end-to-end metrics: `setup_s` (the fastest of its
//!   samples), `wall_s`, `hazards_per_s`, `candidates_per_s` and
//!   `jobs_per_s` (of the fastest repetition), and `peak_rss_mb` (of
//!   the first repetition). It prints the median, mean and tail of the
//!   timings beside them.
//! * `--trace 1` runs the campaign once untraced as a reference, then
//!   replays the same stages as timed calls into each layer's public
//!   functions (spans kept in memory, written to `out/` at exit) and
//!   reports the per-layer metrics. Every replayed repetition must
//!   produce the reference's report digest. It also prints the
//!   per-layer time accounting of `wall_s`, the tracing overhead, and
//!   the paper-fidelity table.
//!
//! Every repetition passes the output check (`PlanReport::load` accepts
//! each final report, every stage store is sealed) and must reproduce
//! the digest of `report.toml` + `jobs.csv` (+ `rounds.toml`) and the
//! exact counts of earlier repetitions and earlier runs of the same
//! seed; anything else counts as a failed operation. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod fidelity;
mod plans;
mod probes;
mod replay;
mod stats;
mod tracer;
mod untraced;

pub use plans::{Scale, Workload};

use drivefi_plan::{AdaptiveProgress, CampaignKind, GOLDEN_SUBDIR};
use stats::{median, tail};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tracer::Tracer;

/// Set-up samples an untraced run takes per repetition (one is the
/// repetition's own).
const SETUPS_PER_REP: usize = 20;

/// A parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Args {
    /// Parses `--workload --seed --seconds --trace`, at full scale.
    ///
    /// # Errors
    ///
    /// Returns the usage problem.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad {flag} `{value}`");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        Ok(Args {
            workload: workload
                .ok_or_else(|| format!("--workload is required: {}", names.join(", ")))?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale: Scale::Full,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The report digest every repetition reproduced.
    pub digest: String,
    /// Counts that must repeat exactly across runs of one seed.
    pub exact: Vec<(&'static str, String)>,
}

/// The per-layer counts that must repeat exactly across runs of a seed.
const EXACT: [&str; 9] = [
    "core.candidates",
    "core.mined",
    "bayes.queries",
    "core.memo_hit_ratio",
    "sim.inject_jobs",
    "sim.hazard_ratio",
    "store.checkpoints",
    "store.bytes_per_record",
    "serve.slices",
];

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A per-invocation scratch directory under `out/`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(out_dir: &Path, args: &Args) -> Result<WorkDir, String> {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir.join(format!(
            "work-{}-{}-{}-{n}",
            args.workload.name(),
            std::process::id(),
            u8::from(args.trace)
        ));
        untraced::fresh_dir(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Runs one invocation, with its scratch and state files under `out_dir`.
///
/// # Errors
///
/// Returns an error when no repetition succeeded or the benchmark's own
/// I/O failed; failed repetitions are counted in the outcome instead.
pub fn run(args: &Args, out_dir: &Path) -> Result<Outcome, String> {
    // Both modes measure with the program's observability off.
    drivefi_obs::force_enabled(false);
    let work = WorkDir::create(out_dir, args)?;
    let mut outcome = if args.trace { traced(args, &work.0)? } else { untraced(args, &work.0)? };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} has no value on this workload", bad.name));
    }
    let entries: Vec<(&str, String)> =
        std::iter::once(("digest", outcome.digest.clone())).chain(outcome.exact.clone()).collect();
    outcome.failed += compare_with_earlier_runs(out_dir, args, &entries)?;
    Ok(outcome)
}

fn untraced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let run_dir = work.join("run");
    let plans =
        plans::Plans::write(args.workload, args.seed, args.scale, &work.join("plans"), &run_dir)?;
    let mut setup_s = Vec::new();
    let start = Instant::now();
    let (mut reps, mut failed) = (Vec::<untraced::Rep>::new(), 0u64);
    let mut candidates = 0;
    while reps.is_empty() && failed < 3 || start.elapsed().as_secs_f64() < args.seconds {
        // Set-up is microseconds: sample it several times per
        // repetition, spread over the run.
        for _ in 1..SETUPS_PER_REP {
            let root = work.join("setup");
            setup_s.push(untraced::setup(&plans, &root)?.0);
            std::fs::remove_dir_all(&root).ok();
        }
        match untraced::rep(&plans, &run_dir) {
            Ok(rep) if reps.first().is_some_and(|r| r.checked.digest != rep.checked.digest) => {
                eprintln!(
                    "repetition {}: report digest {} differs",
                    reps.len(),
                    rep.checked.digest
                );
                failed += 1;
            }
            Ok(rep) => {
                if reps.is_empty() {
                    candidates = probes::candidate_count(&plans, &run_dir)?;
                }
                reps.push(rep);
            }
            Err(e) => {
                eprintln!("repetition failed: {e}");
                failed += 1;
            }
        }
    }
    let Some(first) = reps.first() else { return Err("every repetition failed".into()) };
    let digest = first.checked.digest.clone();
    setup_s.extend(reps.iter().map(|r| r.setup_s));
    // The fastest sample, not the median or the mean: every repetition
    // does the same work (the digest check), so noise only adds time,
    // and on a shared host it comes in periods. Each core's speed flips
    // between two levels ~1.5x apart for seconds at a time, and for
    // minutes at a time the host runs every workload 1.2-1.5x slower, so
    // a run's median and mean follow the period it fell in. The fastest
    // repetition is the least disturbed of them (Chen & Revels, "Robust
    // benchmarking in noisy environments", 2016). The rates are the
    // counts over it.
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall_s = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            unit: "s",
        },
        Metric { name: "wall_s", value: wall_s, unit: "s" },
        Metric { name: "hazards_per_s", value: first.checked.hazards as f64 / wall_s, unit: "1/s" },
        Metric { name: "candidates_per_s", value: candidates as f64 / wall_s, unit: "1/s" },
        Metric { name: "jobs_per_s", value: first.checked.jobs as f64 / wall_s, unit: "1/s" },
        // The first repetition's peak is a fresh process's, as one CLI
        // invocation pays it; later ones grow with the heap the earlier
        // repetitions left to the allocator.
        Metric { name: "peak_rss_mb", value: first.peak_rss_mb, unit: "MB" },
    ];
    let list = |f: &dyn Fn(&untraced::Rep) -> f64| {
        reps.iter().map(|r| format!("{:.3}", f(r))).collect::<Vec<_>>().join(" ")
    };
    println!(
        "{} seed {}: {} repetitions, wall_s {}, peak_rss_mb {} | |F| = {candidates}, jobs = {}, \
         hazards = {}, slices = {}, digest {digest}",
        args.workload.name(),
        args.seed,
        reps.len(),
        list(&|r| r.wall_s),
        list(&|r| r.peak_rss_mb),
        first.checked.jobs,
        first.checked.hazards,
        first.checked.slices,
    );
    for (name, samples) in [("wall_s", &walls), ("setup_s", &setup_s)] {
        println!(
            "  {name} over {} samples: median {:.6}, mean {:.6}, {} {:.6} s",
            samples.len(),
            median(samples),
            samples.iter().sum::<f64>() / samples.len() as f64,
            tail(samples),
            tail(samples).value
        );
    }
    for m in &metrics {
        println!("  {:<18} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let mut exact = vec![
        ("core.candidates", candidates.to_string()),
        ("jobs", first.checked.jobs.to_string()),
        ("hazards", first.checked.hazards.to_string()),
    ];
    if args.workload == Workload::ServedMixed {
        exact.push(("serve.slices", first.checked.slices.to_string()));
    }
    Ok(Outcome { attempted: reps.len() as u64 + failed, failed, metrics, digest, exact })
}

fn traced(args: &Args, work: &Path) -> Result<Outcome, String> {
    // The reference, probes and companion count against the run's time.
    let start = Instant::now();
    let run_dir = work.join("run");
    let plans =
        plans::Plans::write(args.workload, args.seed, args.scale, &work.join("plans"), &run_dir)?;

    // The untraced reference: the digest every replay must reproduce,
    // and the stores the off-path probes read.
    let reference = untraced::rep(&plans, &run_dir)?;
    let probe = probes::run(&plans, &run_dir)?;
    let (inference_plan, inference_root) = plans.inference(&run_dir);
    let stride = plans::scene_stride(inference_plan);
    let (_, golden) =
        drivefi_store::read_store(inference_root.join(GOLDEN_SUBDIR)).map_err(|e| e.to_string())?;
    let scenes: u64 = golden.iter().map(|r| r.scenes).sum();
    let rounds = if matches!(inference_plan.kind, CampaignKind::Adaptive { .. }) {
        AdaptiveProgress::load(&inference_root).map_err(|e| e.to_string())?
    } else {
        None
    };
    let companion = match args.workload.companion() {
        Some(workload) => {
            let dir = work.join("companion");
            let plans = plans::Plans::write(
                workload,
                args.seed,
                args.scale,
                &work.join("companion-plans"),
                &dir,
            )?;
            Some((workload, untraced::rep(&plans, &dir)?))
        }
        None => None,
    };

    let mut tracer = Tracer::new();
    let mut ok: Vec<(usize, f64)> = Vec::new();
    let mut failed = 0u64;
    while ok.is_empty() && failed < 3 || start.elapsed().as_secs_f64() < args.seconds {
        if !ok.is_empty() || failed > 0 {
            tracer.next_rep();
        }
        let rep = tracer.reps() - 1;
        let replayed = replay::rep(&plans, &run_dir, &mut tracer)
            .and_then(|wall| untraced::check(&plans, &run_dir).map(|checked| (wall, checked)));
        match replayed {
            Ok((wall, checked)) if checked.digest == reference.checked.digest => {
                let counts_differ = ok
                    .first()
                    .is_some_and(|&(first, _)| tracer.counts(first) != tracer.counts(rep));
                if counts_differ {
                    eprintln!("traced repetition {rep}: exact counts differ from the first");
                    failed += 1;
                } else {
                    ok.push((rep, wall));
                }
            }
            Ok((_, checked)) => {
                eprintln!(
                    "traced repetition {rep}: digest {} differs from the untraced {}",
                    checked.digest, reference.checked.digest
                );
                failed += 1;
            }
            Err(e) => {
                eprintln!("traced repetition {rep} failed: {e}");
                failed += 1;
            }
        }
    }
    let Some(&(first, _)) = ok.first() else { return Err("every traced repetition failed".into()) };
    let counts = tracer.counts(first).clone();
    let count = |name: &str| counts.get(name).copied().unwrap_or(0);
    if args.workload == Workload::ServedMixed && count("serve.slices") != reference.checked.slices {
        eprintln!(
            "replay granted {} slices, serve granted {}",
            count("serve.slices"),
            reference.checked.slices
        );
        failed += 1;
    }
    let root = wall_root(args.workload);
    let selfs: Vec<BTreeMap<&str, f64>> =
        ok.iter().map(|&(rep, _)| tracer.self_times(rep, root)).collect();
    let self_median = |name: &str| {
        median(&selfs.iter().map(|s| s.get(name).copied().unwrap_or(0.0)).collect::<Vec<_>>())
    };
    let p50 = |values: &[f64]| stats::nearest_rank(values, 50.0);
    let sampled = |name: &str| tracer.sampled(name);
    let on_path_mine = matches!(args.workload, Workload::PaperMine | Workload::ServedMixed);
    let adaptive = args.workload == Workload::AdaptiveRounds;
    let inject_jobs = count("sim.inject_jobs");
    let select_us: Vec<f64> =
        if adaptive { sampled("core.select_round") } else { probe.select_s.clone() }
            .iter()
            .map(|s| s * 1e6)
            .collect();
    let query_us: Vec<f64> = probe.query_s.iter().map(|s| s * 1e6).collect();
    let accept_us: Vec<f64> = sampled("store.accept").iter().map(|s| s * 1e6).collect();
    let read_ms: Vec<f64> = sampled("store.read").iter().map(|s| s * 1e3).collect();
    let slice_ms: Vec<f64> = sampled("serve.slice").iter().map(|s| s * 1e3).collect();
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("world.suite_build_ms", p50(&sampled("world.build_suite")) * 1e3, "ms"),
        m("sim.golden_ms", self_median("sim.golden") * 1e3, "ms"),
        m("sim.inject_s", self_median("sim.inject"), "s"),
        m("sim.inject_jobs", inject_jobs as f64, "count"),
        m(
            "sim.inject_us_per_job",
            self_median("sim.inject") / inject_jobs.max(1) as f64 * 1e6,
            "us",
        ),
        m(
            "sim.inject_us_per_job.w1",
            probe.inject_w1_s / probe.inject_jobs.max(1) as f64 * 1e6,
            "us",
        ),
        m(
            "sim.worker_efficiency",
            probe.inject_w1_s / (probe.workers as f64 * probe.inject_wn_s),
            "ratio",
        ),
        m(
            "sim.hazard_ratio",
            reference.checked.hazards as f64 / reference.checked.records.max(1) as f64,
            "ratio",
        ),
        m("core.fit_ms", self_median("core.fit") * 1e3, "ms"),
        m(
            "core.mine_s",
            if on_path_mine { self_median("core.mine") } else { probe.mine_s.unwrap_or(f64::NAN) },
            "s",
        ),
        m(
            "core.predict_s",
            if adaptive {
                self_median("core.predict")
            } else {
                probe.predict_s.unwrap_or(f64::NAN)
            },
            "s",
        ),
        m(
            "core.score_ms",
            1e3 * if adaptive {
                self_median("core.score")
            } else {
                probe.score_s.unwrap_or(f64::NAN)
            },
            "ms",
        ),
        m("core.select_us.p50", p50(&select_us), "us"),
        m("core.select_us.tail", tail(&select_us).value, "us"),
        m("core.candidates", probe.candidates as f64, "count"),
        m(
            "core.mined",
            if on_path_mine {
                count("core.mined") as f64
            } else {
                probe.mined.map_or(f64::NAN, |n| n as f64)
            },
            "count",
        ),
        m("core.memo_hit_ratio", 1.0 - probe.distinct as f64 / probe.asked.max(1) as f64, "ratio"),
        m("bayes.queries", (probe.distinct * count("core.inference_calls")) as f64, "count"),
        m("bayes.query_us.p50", p50(&query_us), "us"),
        m("bayes.query_us.tail", tail(&query_us).value, "us"),
        m("store.accept_us.p50", p50(&accept_us), "us"),
        m("store.accept_us.tail", tail(&accept_us).value, "us"),
        m("store.checkpoints", count("store.checkpoints") as f64, "count"),
        m("store.checkpoint_ms.p50", p50(&sampled("store.checkpoint")) * 1e3, "ms"),
        m("store.read_ms.p50", p50(&read_ms), "ms"),
        m("store.read_ms.tail", tail(&read_ms).value, "ms"),
        m("store.read_traces_ms", self_median("store.read_traces") * 1e3, "ms"),
        m("store.bytes_per_record", reference.checked.bytes_per_record, "B"),
        m("plan.report_ms.p50", p50(&sampled("plan.report")) * 1e3, "ms"),
        m("serve.slices", count("serve.slices") as f64, "count"),
        m("serve.slice_ms.p50", p50(&slice_ms), "ms"),
        m("serve.slice_ms.tail", tail(&slice_ms).value, "ms"),
        m("trace.wall_s", median(&ok.iter().map(|&(_, w)| w).collect::<Vec<_>>()), "s"),
    ];

    // What a reader needs to interpret the numbers.
    let traced_wall = metrics.last().expect("trace.wall_s").value;
    println!(
        "{} seed {}: {} traced repetitions reproduced the untraced digest {}, {failed} failed",
        args.workload.name(),
        args.seed,
        ok.len(),
        reference.checked.digest
    );
    println!(
        "tracing overhead: traced wall_s {traced_wall:.3} − untraced wall_s {:.3} = {:+.3} s",
        reference.wall_s,
        traced_wall - reference.wall_s
    );
    print_accounting(&tracer, &ok, args.workload);
    println!("per-layer metrics (off path = timed on this workload's data, outside its campaign):");
    let off_path = |name: &str| match name {
        "core.mine_s" => !on_path_mine,
        "core.predict_s" | "core.score_ms" | "core.select_us.p50" | "core.select_us.tail" => {
            !adaptive
        }
        "sim.inject_us_per_job.w1" | "sim.worker_efficiency" => true,
        n => n.starts_with("bayes.query_us"),
    };
    let tails = [
        ("core.select_us.tail", tail(&select_us)),
        ("bayes.query_us.tail", tail(&query_us)),
        ("store.accept_us.tail", tail(&accept_us)),
        ("store.read_ms.tail", tail(&read_ms)),
        ("serve.slice_ms.tail", tail(&slice_ms)),
    ];
    for metric in &metrics {
        let note = tails
            .iter()
            .find(|(n, _)| *n == metric.name)
            .map_or(String::new(), |(_, t)| format!("  ({t})"));
        let path = if off_path(metric.name) { "  [off path]" } else { "" };
        println!("  {:<26} {:>14.4} {:<6}{note}{path}", metric.name, metric.value, metric.unit);
    }
    // The final report of the workload's (or its companion's) mine and
    // exhaustive campaigns, with the wall time that produced it.
    fn report_of(
        want: Workload,
        w: Workload,
        rep: &untraced::Rep,
    ) -> Option<(&drivefi_plan::PlanReport, f64)> {
        (w == want).then(|| (&rep.checked.reports[0], rep.wall_s))
    }
    let companion = companion.as_ref();
    let of = |want| {
        report_of(want, args.workload, &reference)
            .or_else(|| companion.and_then(|(w, rep)| report_of(want, *w, rep)))
    };
    fidelity::print(&fidelity::Inputs {
        stride,
        scenes,
        candidates: probe.candidates,
        scenes_evaluated: probe.scenes_evaluated,
        mine: of(Workload::PaperMine).or_else(|| {
            // served_mixed: its mine campaign's validated set.
            (args.workload == Workload::ServedMixed)
                .then(|| (&reference.checked.reports[1], reference.wall_s))
        }),
        exhaustive: of(Workload::ExhaustiveSweep),
        mined_set: Some(&probe.mined_set).filter(|s| !s.is_empty()),
        rounds,
    });

    let spans = work.parent().expect("work dirs live under out/").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer.write(&spans).map_err(|e| format!("writing {}: {e}", spans.display()))?;
    println!("spans: {}", spans.display());
    let exact = metrics
        .iter()
        .filter(|m| EXACT.contains(&m.name))
        .map(|m| (m.name, m.value.to_string()))
        .collect();
    Ok(Outcome {
        attempted: 1 + ok.len() as u64 + failed,
        failed,
        metrics,
        digest: reference.checked.digest,
        exact,
    })
}

/// The span a replayed repetition's `wall_s` is the duration of.
fn wall_root(workload: Workload) -> &'static str {
    if workload == Workload::ServedMixed {
        "serve.run"
    } else {
        "serve.slice"
    }
}

/// Prints where the median repetition's wall time went: each span
/// name's self time, and what no span covers.
fn print_accounting(tracer: &Tracer, ok: &[(usize, f64)], workload: Workload) {
    let mut by_wall = ok.to_vec();
    by_wall.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (rep, wall) = by_wall[by_wall.len() / 2];
    let root = wall_root(workload);
    let mut rows: Vec<(&str, f64)> = tracer.self_times(rep, root).into_iter().collect();
    for row in &mut rows {
        if row.0 == root {
            row.0 = "(unaccounted)";
        }
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "where wall_s went (repetition with the median traced wall, {wall:.3} s), by self time:"
    );
    for (name, secs) in &rows {
        println!("  {name:<22} {secs:>9.4} s {:>6.1}%", 100.0 * secs / wall);
    }
    let share = |name: &str| rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1) / wall;
    match workload {
        Workload::PaperMine => println!(
            "check: largest share is {} (expected core.mine)",
            rows.iter().find(|r| !r.0.starts_with('(')).map_or("none", |r| r.0)
        ),
        Workload::ExhaustiveSweep => {
            println!("check: sim.inject share {:.1}% (expected ≥ 90%)", 100.0 * share("sim.inject"))
        }
        Workload::ServedMixed => {
            let spans = |name: &str| tracer.sampled(name).len() / ok.len().max(1);
            println!(
                "check: per repetition, {} slices, {} fits and {} mines — the mine campaign re-fits \
                 and re-mines on every slice after its golden stage",
                tracer.counts(rep).get("serve.slices").copied().unwrap_or(0),
                spans("core.fit"),
                spans("core.mine")
            );
        }
        Workload::AdaptiveRounds => println!(
            "check: core.predict {:.1}%, rounds (inject + store + select) {:.1}%",
            100.0 * share("core.predict"),
            100.0
                * (share("sim.inject")
                    + share("store.accept")
                    + share("store.open")
                    + share("store.finish")
                    + share("store.read")
                    + share("core.select"))
        ),
    }
}

/// Compares this run's digest and exact counts with earlier runs of the
/// same workload, seed and build; returns the number of mismatches.
fn compare_with_earlier_runs(
    out_dir: &Path,
    args: &Args,
    entries: &[(&str, String)],
) -> Result<u64, String> {
    let exe = std::env::current_exe().and_then(std::fs::metadata).map_err(|e| e.to_string())?;
    let built = exe.modified().ok().and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok());
    let mut build = stats::Digest::new();
    build.update(&exe.len().to_le_bytes());
    build.update(&built.map_or(0, |d| d.as_nanos()).to_le_bytes());
    let path = out_dir.join(format!(
        "state-{}-seed{}-{:?}-{}.txt",
        args.workload.name(),
        args.seed,
        args.scale,
        build.hex()
    ));
    let mut known: BTreeMap<String, String> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once('=').map(|(k, v)| (k.to_string(), v.to_string())))
        .collect();
    let mut mismatches = 0;
    for (key, value) in entries {
        match known.get(*key) {
            Some(earlier) if earlier != value => {
                eprintln!("{key} = {value}, but an earlier run of this seed measured {earlier}");
                mismatches += 1;
            }
            Some(_) => {}
            None => {
                known.insert(key.to_string(), value.clone());
            }
        }
    }
    let text: String = known.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(mismatches)
}
