//! Every file parser answers `Ok` or `Err` and never panics, whatever
//! the bytes: random bytes, truncations, byte flips, token insertions
//! and spliced copies of valid files — shipped plans and scenario
//! specs, `status.toml`, `control.toml`, `rounds.toml`, expressions,
//! `events.jsonl`, `report.toml` + `jobs.csv`, and shard logs. The
//! manifest, lease and trace-log parsers have their own no-panic tests
//! in `drivefi-store`.

use drivefi::obs::events::parse_line;
use drivefi::obs::{clear_force, force_enabled, read_events, EVENTS_FILE};
use drivefi::plan::{
    parse_campaign_plan, parse_expr, parse_scenario_spec, run_plan, AdaptiveProgress, CampaignPlan,
    ControlVerdict, OutputSpec, PlanReport, RoundSummary, JOBS_FILE, REPORT_FILE,
};
use drivefi::serve::{CampaignState, CampaignStatus};
use drivefi::store::log::scan_shard;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Tokens a mutant may gain: the punctuation and literals the parsers
/// branch on, and values at the edges of what they accept.
const TOKENS: &[&str] = &[
    "\"",
    "'",
    "\\",
    "\"\"\"",
    "[",
    "]",
    "[[",
    "]]",
    "{",
    "}",
    "=",
    ",",
    ":",
    "#",
    "\n",
    "\r\n",
    "\t",
    " ",
    ".",
    "-",
    "+",
    "(",
    ")",
    "*",
    "/",
    "min(",
    "0x",
    "1e309",
    "-0",
    "nan",
    "inf",
    "true",
    "false",
    "18446744073709551616",
    "-9223372036854775809",
    "é",
    "\u{0}",
    "\u{fffd}",
];

/// One damaged copy of `valid`.
fn mutant(valid: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    match rng.random_range(0..5u32) {
        // Random bytes.
        0 => bytes = (0..rng.random_range(0..512usize)).map(|_| rng.random()).collect(),
        // A truncation.
        1 => bytes.truncate(rng.random_range(0..=bytes.len())),
        // Byte flips.
        2 if !bytes.is_empty() => {
            for _ in 0..rng.random_range(1..8usize) {
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= rng.random_range(1..=255u8);
            }
        }
        // Token insertions.
        3 => {
            for _ in 0..rng.random_range(1..4usize) {
                let token = TOKENS[rng.random_range(0..TOKENS.len())];
                let at = rng.random_range(0..=bytes.len());
                bytes.splice(at..at, token.bytes());
            }
        }
        // A slice of the file copied elsewhere: duplicated keys,
        // sections, rows and frames.
        _ => {
            let from = rng.random_range(0..=bytes.len());
            let to = rng.random_range(from..=bytes.len());
            let at = rng.random_range(0..=bytes.len());
            let piece = bytes[from..to].to_vec();
            bytes.splice(at..at, piece);
        }
    }
    bytes
}

/// A damaged copy of a random one of `valid`, as text.
fn text_mutant(valid: &[String], rng: &mut StdRng) -> String {
    let seed = &valid[rng.random_range(0..valid.len())];
    String::from_utf8_lossy(&mutant(seed.as_bytes(), rng)).into_owned()
}

/// Every `.toml` directly under `dir`.
fn toml_files(dir: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .toml files under {}", dir.display());
    paths.iter().map(|path| std::fs::read_to_string(path).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn plans_and_scenario_specs_never_panic(seed in any::<u64>()) {
        let mut plans = toml_files("plans");
        plans.extend(toml_files("plans/paper"));
        let specs = toml_files("plans/scenarios");
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = parse_campaign_plan(&text_mutant(&plans, &mut rng));
        let _ = parse_scenario_spec(&text_mutant(&specs, &mut rng));
    }

    #[test]
    fn status_control_and_rounds_files_never_panic(seed in any::<u64>()) {
        let running = CampaignStatus {
            state: CampaignState::Running,
            stage: "validate".into(),
            done: 24,
            total: 1200,
            eta_seconds: Some(9),
            error: Some("a \"quoted\" error".into()),
            ..CampaignStatus::queued("served-sweep", "exhaustive")
        };
        let statuses = [CampaignStatus::queued("q", "random").to_toml(), running.to_toml()];
        let verdict = ControlVerdict {
            scenario_id: 3,
            scenario_name: "cut_in".into(),
            outcome: "safe".into(),
            survivable: true,
        };
        let round = |round: u32| RoundSummary {
            round,
            jobs: 4,
            hazards: 1,
            cumulative_hazards: u64::from(round) + 1,
            top_score: 0.75,
            max_shift: 0.125,
        };
        let progress = AdaptiveProgress {
            rounds: vec![round(0), round(1)],
            candidates: 320,
            converged: true,
            exhausted: false,
            jobs_to_first_hazard: Some(1),
            exhaustive_upper_bound: Some(7),
            random_estimate: 26.75,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = CampaignStatus::parse(&text_mutant(&statuses, &mut rng));
        let _ = ControlVerdict::parse(&text_mutant(&[verdict.to_toml()], &mut rng));
        let _ = AdaptiveProgress::parse(&text_mutant(&[progress.to_toml()], &mut rng));
    }

    #[test]
    fn expressions_never_panic(seed in any::<u64>()) {
        let exprs = [
            "ego.v",
            "min(ego.v + 4.0, 33.500000001)",
            "ego.set_speed - lead_dv",
            "-(gap_ahead * 2.5) / max(lead_v, -1e-3)",
        ]
        .map(String::from);
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = parse_expr(&text_mutant(&exprs, &mut rng));
    }
}

/// Deep nesting and long expression chains are parse errors, not stack
/// overflows, on a thread with a 2 MiB stack.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let check = || {
        for depth in [65, 10_000, 100_000] {
            let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let tables = format!("{}1{}", "{a = ".repeat(depth), "}".repeat(depth));
            for value in [arrays, tables] {
                for err in [
                    parse_campaign_plan(&format!("name = {value}\n")).unwrap_err(),
                    parse_scenario_spec(&format!("name = {value}\n")).unwrap_err(),
                ] {
                    assert!(err.to_string().contains("levels deep"), "depth {depth}: {err}");
                }
            }
        }
        for depth in [300, 10_000, 100_000] {
            for expr in [
                format!("{}1{}", "(".repeat(depth), ")".repeat(depth)),
                format!("{}x", "-".repeat(depth)),
                format!("{}1{}", "min(".repeat(depth), ", 1)".repeat(depth)),
            ] {
                let err = parse_expr(&expr).unwrap_err();
                assert!(err.to_string().contains("tokens"), "depth {depth}: {err}");
            }
        }
        let chain = format!("1{}", "+1".repeat(1_000_000));
        assert!(parse_expr(&chain).unwrap_err().to_string().contains("tokens"));
        // Nesting up to the bound still parses.
        let deepest = format!("{}{}", "[".repeat(64), "]".repeat(64));
        let err = parse_campaign_plan(&format!("name = {deepest}\n")).unwrap_err();
        assert!(!err.to_string().contains("levels deep"), "{err}");
        assert!(parse_expr(&format!("{}1{}", "(".repeat(127), ")".repeat(127))).is_ok());
    };
    std::thread::Builder::new().stack_size(2 << 20).spawn(check).unwrap().join().unwrap();
}

/// Damaged copies of a small persisted campaign's files — its
/// `events.jsonl`, `report.toml` + `jobs.csv` and first shard log —
/// through their readers.
#[test]
fn store_files_never_panic() {
    let root = std::env::temp_dir().join(format!("drivefi-parsers-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let store = root.join("store");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("plans/persistent_random.toml");
    let plan = CampaignPlan::load(path).unwrap();
    let output = OutputSpec::new(store.to_string_lossy().into_owned());
    // The event log is written only with observability on; nothing else
    // in this test binary reads the switch.
    force_enabled(true);
    run_plan(&CampaignPlan { output: Some(output), ..plan }).unwrap();
    clear_force();
    let events = std::fs::read(store.join(EVENTS_FILE)).unwrap();
    let report = std::fs::read(store.join(REPORT_FILE)).unwrap();
    let jobs = std::fs::read(store.join(JOBS_FILE)).unwrap();
    let shard = std::fs::read(store.join("shard-000.log")).unwrap();
    assert!(!events.is_empty(), "the campaign wrote no events");

    let case = root.join("case");
    std::fs::create_dir_all(&case).unwrap();
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);

        let bytes = mutant(&events, &mut rng);
        for line in String::from_utf8_lossy(&bytes).lines() {
            let _ = parse_line(line);
        }
        std::fs::write(case.join(EVENTS_FILE), &bytes).unwrap();
        assert!(read_events(&case).is_ok(), "seed {seed}: unparsable lines are skipped");

        // Damage the summary, the rows, or both.
        let which = rng.random_range(0..3u32);
        let summary = if which != 1 { mutant(&report, &mut rng) } else { report.clone() };
        let rows = if which != 0 { mutant(&jobs, &mut rng) } else { jobs.clone() };
        std::fs::write(case.join(REPORT_FILE), summary).unwrap();
        std::fs::write(case.join(JOBS_FILE), rows).unwrap();
        let _ = PlanReport::load(&case);

        let path = case.join("shard-000.log");
        std::fs::write(&path, mutant(&shard, &mut rng)).unwrap();
        let _ = scan_shard(&path, 0);
    }
    std::fs::remove_dir_all(&root).ok();
}
