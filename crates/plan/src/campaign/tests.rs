use super::*;
use drivefi_ads::Signal;
use drivefi_core::{collect_golden_traces, BayesianMiner, MinerConfig};
use drivefi_fault::{CorruptionGrid, ScalarFaultModel};
use std::collections::BTreeSet;

fn tiny_random_plan() -> CampaignPlan {
    CampaignPlan {
        name: "tiny".into(),
        kind: CampaignKind::Random { runs: 6 },
        seed: 3,
        workers: Some(4),
        scenarios: ScenarioSelection::Paper { count: 2, seed: 42 },
        faults: FaultSpace::default(),
        sim: SimSection::default(),
        submit: Default::default(),
        control: Default::default(),
        output: None,
    }
}

fn tiny_adaptive_plan() -> CampaignPlan {
    CampaignPlan {
        name: "adaptive".into(),
        kind: CampaignKind::Adaptive {
            scene_stride: 30,
            adaptive: AdaptiveSection { batch: 4, max_rounds: 5, converge_eps: 0.1 },
        },
        seed: 0,
        workers: Some(2),
        scenarios: ScenarioSelection::Paper { count: 2, seed: 42 },
        faults: FaultSpace::default(),
        sim: SimSection::default(),
        submit: Default::default(),
        control: Default::default(),
        output: Some(OutputSpec::new("out/adaptive")),
    }
}

#[test]
fn plans_round_trip_through_toml() {
    let plans = vec![
        tiny_random_plan(),
        CampaignPlan {
            name: "exhaustive".into(),
            kind: CampaignKind::Exhaustive { scene_stride: 40 },
            seed: 0,
            workers: Some(8),
            scenarios: ScenarioSelection::Families {
                names: vec!["cut_in".into(), "tailgater".into()],
                count: 3,
                seed: 7,
            },
            faults: FaultSpace::default(),
            sim: SimSection::default(),
            submit: Default::default(),
            control: Default::default(),
            output: None,
        },
        CampaignPlan {
            name: "custom-space".into(),
            kind: CampaignKind::Random { runs: 40 },
            seed: 0,
            workers: None,
            scenarios: ScenarioSelection::Families {
                names: vec!["cut_in".into(), "tailgater".into()],
                count: 3,
                seed: 7,
            },
            faults: FaultSpace {
                scalars: CorruptionGrid::new(
                    vec![Signal::RawThrottle, Signal::FinalBrake],
                    vec![
                        ScalarFaultModel::StuckMax,
                        ScalarFaultModel::Offset(-0.5),
                        ScalarFaultModel::BitFlip(62),
                    ],
                ),
                modules: vec![drivefi_fault::FaultKind::ClearWorldModel],
                first_scene: 10,
                tail_margin: 20,
                window_scenes: 6,
            },
            sim: SimSection::default(),
            submit: Default::default(),
            control: Default::default(),
            output: None,
        },
        CampaignPlan {
            name: "inline".into(),
            kind: CampaignKind::Random { runs: 4 },
            seed: 9,
            workers: None,
            scenarios: ScenarioSelection::Inline {
                specs: vec![drivefi_world::FamilyRegistry::builtin()
                    .get("debris_field")
                    .unwrap()
                    .clone()],
                count: 2,
                seed: 5,
            },
            faults: FaultSpace::default(),
            sim: SimSection::default(),
            submit: Default::default(),
            control: Default::default(),
            output: None,
        },
        tiny_adaptive_plan(),
    ];
    for plan in plans {
        let text = emit_campaign_plan(&plan);
        let parsed =
            parse_campaign_plan(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", plan.name));
        assert_eq!(parsed, plan, "{} drifted through TOML", plan.name);
    }
}

#[test]
fn malformed_plans_are_rejected() {
    let base = emit_campaign_plan(&tiny_random_plan());
    assert!(parse_campaign_plan(&base).is_ok());
    // `base` with the whole [faults] section removed (sections emit
    // alphabetically, so [scenarios] follows [faults]).
    let without_faults = {
        let start = base.find("\n[faults]").expect("base has a [faults] section");
        let end = base.find("\n[scenarios]").expect("base has a [scenarios] section");
        format!("{}{}", &base[..start], &base[end..])
    };
    for (mutation, needle) in [
        (base.replace("kind = \"random\"", "kind = \"chaos\""), "unknown campaign kind"),
        (base.replace("runs = 6", "runs = 0"), "runs"),
        (base.replace("source = \"paper\"", "source = \"imaginary\""), "unknown scenario source"),
        (base.replace("signals = \"all\"", "signals = [\"plan.warp\"]"), "unknown signal"),
        (
            base.replace("models = [\"min\", \"max\"]", "models = [\"warp(2)\"]"),
            "unknown fault model",
        ),
        (base.replace("window_scenes = 1", "window_scenes = 0"), "window_scenes"),
        (base.replace("seed = 3", "velocity = 3"), "unknown key"),
        (base.replace("count = 2", "count = 0"), "count"),
        (base.replace("sink = \"stats\"", "sink = \"outcomes\""), "jobs.csv"),
        (base.replace("sink = \"stats\"", "sink = \"tally\""), "unknown sink"),
        // An exhaustive campaign cannot carry a [faults] section or
        // a sink — rejected rather than silently ignored.
        (
            base.replace("kind = \"random\"\nruns = 6", "kind = \"exhaustive\"")
                .replace("sink = \"stats\"\n", ""),
            "`[faults]` section is not valid for exhaustive",
        ),
        (
            without_faults.replace("kind = \"random\"\nruns = 6", "kind = \"exhaustive\""),
            "`sink` is not valid for exhaustive",
        ),
    ] {
        let err =
            parse_campaign_plan(&mutation).expect_err(&format!("mutation should fail: {needle}"));
        assert!(err.to_string().contains(needle), "wanted `{needle}`, got: {err}");
    }
}

#[test]
fn adaptive_plans_round_trip_and_enforce_their_schema() {
    let plan = tiny_adaptive_plan();
    let text = emit_campaign_plan(&plan);
    assert!(text.contains("[adaptive]"), "non-default [adaptive] must emit:\n{text}");
    assert!(!text.contains("sink"), "adaptive plans carry no sink:\n{text}");
    assert_eq!(parse_campaign_plan(&text).unwrap(), plan);
    assert_eq!(plan.kind.store_subdir(), None, "rounds aggregate, no single sub-store");
    assert!(plan.kind.is_staged());

    // A default [adaptive] section is omitted, not emitted as noise —
    // and parses back to the default.
    let mut defaulted = plan.clone();
    defaulted.kind =
        CampaignKind::Adaptive { scene_stride: 30, adaptive: AdaptiveSection::default() };
    let default_text = emit_campaign_plan(&defaulted);
    assert!(!default_text.contains("[adaptive]"), "{default_text}");
    assert_eq!(parse_campaign_plan(&default_text).unwrap(), defaulted);

    // Invalid knobs and misplaced sections are rejected, not ignored.
    for (mutation, needle) in [
        (text.replace("batch = 4", "batch = 0"), "`batch` must be at least 1"),
        (text.replace("max_rounds = 5", "max_rounds = 0"), "max_rounds"),
        (
            text.replace("converge_eps = 0.1", "converge_eps = -0.5"),
            "`converge_eps` must be a finite value >= 0",
        ),
        (text.replace("batch = 4", "exploration_bonus = 2"), "unknown key"),
        (
            text.replace("kind = \"adaptive\"", "kind = \"adaptive\"\nruns = 4"),
            "`runs` is not valid for adaptive",
        ),
        (
            text.replace("kind = \"adaptive\"", "kind = \"adaptive\"\nsink = \"stats\""),
            "`sink` is not valid for adaptive",
        ),
        (
            format!("{text}\n[faults]\nmodules = [\"world.clear\"]\n"),
            "not valid for adaptive campaigns",
        ),
    ] {
        let err = parse_campaign_plan(&mutation).expect_err(needle);
        assert!(err.to_string().contains(needle), "wanted `{needle}`, got: {err}");
    }

    // An [adaptive] section on a non-adaptive kind is a parse error.
    let misplaced = format!("{}\n[adaptive]\nbatch = 4\n", emit_campaign_plan(&tiny_random_plan()));
    let err = parse_campaign_plan(&misplaced).expect_err("[adaptive] on random");
    assert!(err.to_string().contains("only valid for adaptive campaigns"), "got: {err}");
}

#[test]
fn adaptive_progress_round_trips_and_round_dirs_sort() {
    let progress = AdaptiveProgress {
        rounds: vec![
            RoundSummary {
                round: 0,
                jobs: 4,
                hazards: 1,
                cumulative_hazards: 1,
                top_score: 0.75,
                max_shift: 0.2,
            },
            RoundSummary {
                round: 1,
                jobs: 4,
                hazards: 0,
                cumulative_hazards: 1,
                top_score: 0.5,
                max_shift: 0.01,
            },
        ],
        candidates: 96,
        converged: true,
        exhausted: false,
        jobs_to_first_hazard: Some(3),
        exhaustive_upper_bound: Some(17),
        random_estimate: 48.5,
    };
    assert_eq!(AdaptiveProgress::parse(&progress.to_toml()).unwrap(), progress);
    // The optional baselines stay optional through the round trip.
    let mut hazardless = progress.clone();
    hazardless.jobs_to_first_hazard = None;
    hazardless.exhaustive_upper_bound = None;
    let text = hazardless.to_toml();
    assert!(!text.contains("jobs_to_first_hazard"), "{text}");
    assert_eq!(AdaptiveProgress::parse(&text).unwrap(), hazardless);
    // Unknown keys are rejected, like every other schema here.
    let err = AdaptiveProgress::parse(&format!("{}\nvibes = 1\n", progress.to_toml()))
        .expect_err("unknown key");
    assert!(err.to_string().contains("unknown key"), "got: {err}");

    assert_eq!(round_subdir(0), "round-000");
    assert_eq!(round_subdir(12), "round-012");
    assert!(round_subdir(12).starts_with(ROUND_PREFIX));
    // round_dirs picks up exactly the round stores, in round order.
    let dir = std::env::temp_dir().join(format!("drivefi-round-dirs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    for name in ["round-001", "round-000", "round-x", "golden", "rounds"] {
        std::fs::create_dir_all(dir.join(name)).unwrap();
    }
    assert_eq!(round_dirs(&dir), vec![dir.join("round-000"), dir.join("round-001")]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn files_selection_survives_load_then_save() {
    // source = "files" keeps its file references: loading a plan and
    // re-saving it must emit the paths, not an inline copy of the
    // specs.
    let dir = std::env::temp_dir().join(format!("drivefi-plan-test-{}", std::process::id()));
    let scenario_dir = dir.join("scenarios");
    std::fs::create_dir_all(&scenario_dir).unwrap();
    let spec = drivefi_world::FamilyRegistry::builtin().get("tailgater").unwrap();
    crate::scenario::save_scenario_spec(scenario_dir.join("tailgater.toml"), spec).unwrap();

    let text = "name = \"files-test\"\n\n[campaign]\nkind = \"random\"\nruns = 2\nseed = 1\n\n\
                [scenarios]\nsource = \"files\"\nfiles = [\"scenarios/tailgater.toml\"]\n\
                count = 2\nseed = 5\n";
    let plan_path = dir.join("plan.toml");
    std::fs::write(&plan_path, text).unwrap();

    let loaded = CampaignPlan::load(&plan_path).unwrap();
    let ScenarioSelection::Files { files, specs, .. } = &loaded.scenarios else {
        panic!("files selection degraded to {:?}", loaded.scenarios);
    };
    assert_eq!(files, &vec![String::from("scenarios/tailgater.toml")]);
    assert_eq!(&specs[0], spec);

    let resaved = plan_path.with_file_name("resaved.toml");
    loaded.save(&resaved).unwrap();
    let emitted = std::fs::read_to_string(&resaved).unwrap();
    assert!(emitted.contains("source = \"files\""), "degraded to inline:\n{emitted}");
    assert!(emitted.contains("scenarios/tailgater.toml"));
    assert_eq!(CampaignPlan::load(&resaved).unwrap(), loaded);

    // Without a base directory the source is rejected, not guessed.
    assert!(parse_campaign_plan(text).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sim_section_defaults_mirror_ads_config() {
    let section = SimSection::default();
    let ads = drivefi_ads::AdsConfig::default();
    assert_eq!(section.planner_divisor, ads.planner_divisor);
    assert_eq!(section.kalman_fusion, ads.kalman_fusion);
    assert_eq!(section.pid_smoothing, ads.pid_smoothing);
    assert_eq!(section.watchdog, ads.watchdog);
    // apply() round-trips the switches into a SimConfig.
    let mut config = SimConfig::default();
    SimSection { planner_divisor: 4, kalman_fusion: false, pid_smoothing: false, watchdog: false }
        .apply(&mut config);
    assert_eq!(config.ads.planner_divisor, 4);
    assert!(!config.ads.kalman_fusion && !config.ads.pid_smoothing && !config.ads.watchdog);
}

#[test]
fn sim_and_output_sections_round_trip() {
    let mut plan = tiny_random_plan();
    plan.sim = SimSection {
        planner_divisor: 3,
        kalman_fusion: false,
        pid_smoothing: true,
        watchdog: false,
    };
    plan.output = Some(OutputSpec { dir: "out/tiny".into(), shards: 7, checkpoint_every: 99 });
    let text = emit_campaign_plan(&plan);
    assert!(text.contains("[sim]") && text.contains("[output]"), "{text}");
    assert_eq!(parse_campaign_plan(&text).unwrap(), plan);

    // The default [sim] is omitted, not emitted as noise.
    let default_text = emit_campaign_plan(&tiny_random_plan());
    assert!(!default_text.contains("[sim]"), "{default_text}");
}

#[test]
fn sim_section_rejects_unknown_keys_and_bad_values() {
    let base = {
        let mut plan = tiny_random_plan();
        plan.sim = SimSection { kalman_fusion: false, ..SimSection::default() };
        emit_campaign_plan(&plan)
    };
    assert!(parse_campaign_plan(&base).is_ok());
    for (mutation, needle) in [
        // Unknown keys in [sim] are rejected, not ignored.
        (base.replace("kalman_fusion = false", "kalman_fuzion = false"), "unknown key"),
        (
            base.replace("kalman_fusion = false", "kalman_fusion = false\nturbo_mode = true"),
            "unknown key `turbo_mode`",
        ),
        // Type and range violations.
        (base.replace("kalman_fusion = false", "kalman_fusion = 1"), "must be a boolean"),
        (
            base.replace("kalman_fusion = false", "kalman_fusion = false\nplanner_divisor = 0"),
            "planner_divisor",
        ),
    ] {
        let err =
            parse_campaign_plan(&mutation).expect_err(&format!("mutation should fail: {needle}"));
        assert!(err.to_string().contains(needle), "wanted `{needle}`, got: {err}");
    }
}

#[test]
fn output_sections_are_validated() {
    // Store-backed exhaustive plans are legal (the sweep persists
    // under dir/sweep/) — only the bad [output] values are rejected.
    let text = "name = \"x\"\n\n[campaign]\nkind = \"exhaustive\"\n\n[scenarios]\n\
                source = \"paper\"\ncount = 1\nseed = 0\n\n[output]\ndir = \"out/x\"\n";
    let plan = parse_campaign_plan(text).expect("[output] on exhaustive is store-backed");
    assert_eq!(plan.kind, CampaignKind::Exhaustive { scene_stride: 1 });
    assert_eq!(plan.kind.store_subdir(), Some(SWEEP_SUBDIR));
    let base = {
        let mut plan = tiny_random_plan();
        plan.output = Some(OutputSpec::new("out/tiny"));
        emit_campaign_plan(&plan)
    };
    for (mutation, needle) in [
        (base.replace("dir = \"out/tiny\"", "dir = \"\""), "dir"),
        (base.replace("shards = 4", "shards = 0"), "shards"),
        (base.replace("checkpoint_every = 256", "checkpoint_every = 0"), "checkpoint_every"),
    ] {
        let err = parse_campaign_plan(&mutation).expect_err(needle);
        assert!(err.to_string().contains(needle), "wanted `{needle}`, got: {err}");
    }
}

#[test]
fn mine_plans_round_trip_and_enforce_their_schema() {
    let plan = CampaignPlan {
        name: "mine".into(),
        kind: CampaignKind::Mine { scene_stride: 25 },
        seed: 0,
        workers: Some(4),
        scenarios: ScenarioSelection::Paper { count: 2, seed: 42 },
        faults: FaultSpace::default(),
        sim: SimSection::default(),
        submit: Default::default(),
        control: Default::default(),
        output: Some(OutputSpec::new("out/mine")),
    };
    let text = emit_campaign_plan(&plan);
    assert!(!text.contains("sink"), "mine plans carry no sink:\n{text}");
    assert_eq!(parse_campaign_plan(&text).unwrap(), plan);
    assert_eq!(plan.kind.store_subdir(), Some(VALIDATE_SUBDIR));

    // runs / sink / [faults] are rejected rather than ignored.
    for (mutation, needle) in [
        (
            text.replace("kind = \"mine\"", "kind = \"mine\"\nruns = 4"),
            "`runs` is not valid for mine",
        ),
        (
            text.replace("kind = \"mine\"", "kind = \"mine\"\nsink = \"stats\""),
            "`sink` is not valid for mine",
        ),
        (
            text.replace("scene_stride = 25", "scene_stride = 0"),
            "`scene_stride` must be at least 1",
        ),
        (format!("{text}\n[faults]\nmodules = [\"world.clear\"]\n"), "mine"),
    ] {
        let err = parse_campaign_plan(&mutation).expect_err(needle);
        assert!(err.to_string().contains(needle), "wanted `{needle}`, got: {err}");
    }
}

#[test]
fn mine_plans_are_byte_identical_at_any_worker_count() {
    // `[campaign] workers` is outside the fingerprint because results are
    // bit-identical at any worker count; the golden and validate stages of
    // a mine pipeline fan out over those workers, so they must keep that
    // promise.
    let dir =
        std::env::temp_dir().join(format!("drivefi-plan-mine-workers-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let run_dir = |workers: usize| {
        let out = dir.join(format!("w{workers}"));
        let plan = CampaignPlan {
            name: "mine-workers".into(),
            kind: CampaignKind::Mine { scene_stride: 25 },
            seed: 0,
            workers: Some(workers),
            scenarios: ScenarioSelection::Paper { count: 4, seed: 42 },
            faults: FaultSpace::default(),
            sim: SimSection::default(),
            submit: Default::default(),
            control: Default::default(),
            output: Some(OutputSpec::new(out.to_string_lossy().into_owned())),
        };
        let PlanResult::Persisted(report) = run_plan(&plan).unwrap();
        assert!(report.complete() && !report.jobs.is_empty(), "nothing mined");
        out
    };
    let (serial, parallel) = (run_dir(1), run_dir(2));
    // Shards append records as jobs complete; compaction puts both
    // stores in pure job order, so the bytes compare what was computed.
    for out in [&serial, &parallel] {
        drivefi_store::compact_store(out.join(VALIDATE_SUBDIR)).unwrap();
    }
    let shards: Vec<String> = std::fs::read_dir(serial.join(VALIDATE_SUBDIR))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("shard-"))
        .collect();
    assert!(!shards.is_empty(), "the validate store has no shards");
    let files = [crate::report::REPORT_FILE.to_owned(), crate::report::JOBS_FILE.to_owned()]
        .into_iter()
        .chain(shards.iter().map(|shard| format!("{VALIDATE_SUBDIR}/{shard}")));
    for file in files {
        let a = std::fs::read(serial.join(&file)).unwrap();
        let b = std::fs::read(parallel.join(&file)).unwrap();
        assert!(a == b, "{file} differs between 1 and 2 workers");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fingerprint_ignores_scheduling_knobs_but_not_computation() {
    let base = tiny_random_plan();
    let fp = campaign_fingerprint(&base);
    // Pure scheduling/destination knobs: same identity.
    let mut rescheduled = base.clone();
    rescheduled.workers = Some(64);
    rescheduled.output = Some(OutputSpec::new("somewhere/else"));
    assert_eq!(campaign_fingerprint(&rescheduled), fp);
    let mut no_workers = base.clone();
    no_workers.workers = None;
    assert_eq!(campaign_fingerprint(&no_workers), fp);
    // Daemon scheduling metadata: reweighting a submission never
    // invalidates a store resume either.
    let mut reweighted = base.clone();
    reweighted.submit = SubmitSection { weight: 8 };
    assert_eq!(campaign_fingerprint(&reweighted), fp);
    // Anything the campaign computes: different identity.
    for mutate in [
        |p: &mut CampaignPlan| p.seed += 1,
        |p: &mut CampaignPlan| p.kind = CampaignKind::Random { runs: 7 },
        |p: &mut CampaignPlan| p.scenarios = ScenarioSelection::Paper { count: 3, seed: 42 },
        |p: &mut CampaignPlan| p.sim.watchdog = false,
    ] {
        let mut changed = base.clone();
        mutate(&mut changed);
        assert_ne!(campaign_fingerprint(&changed), fp);
    }
}

#[test]
fn fingerprint_exclusion_table_is_exhaustive() {
    // One mutation per FINGERPRINT_EXCLUDED row, same order as the
    // table: each must leave the fingerprint unchanged, and the list
    // length must equal the table's — so adding an exclusion to
    // `strip_fingerprint_excluded` without documenting it here (or vice
    // versa) fails this test.
    let registry = drivefi_world::FamilyRegistry::builtin();
    let spec = registry.get("tailgater").unwrap().clone();
    let base = CampaignPlan {
        scenarios: ScenarioSelection::Files {
            files: vec!["x/tailgater.toml".into()],
            specs: vec![spec],
            count: 2,
            seed: 5,
        },
        ..tiny_adaptive_plan()
    };
    let fp = campaign_fingerprint(&base);
    type Mutation = fn(&mut CampaignPlan);
    let excluded_mutations: Vec<(&str, Mutation)> = vec![
        ("[campaign] workers", |p| p.workers = Some(64)),
        ("[output]", |p| {
            p.output = Some(OutputSpec { dir: "elsewhere".into(), shards: 9, checkpoint_every: 7 })
        }),
        ("[submit] weight", |p| p.submit = SubmitSection { weight: 8 }),
        ("[control] assert", |p| p.control = ControlSection { assert_survivable: false }),
        ("[scenarios] files", |p| {
            let ScenarioSelection::Files { files, .. } = &mut p.scenarios else { unreachable!() };
            files[0] = "y/renamed.toml".into();
        }),
        ("[adaptive] max_rounds", |p| {
            let CampaignKind::Adaptive { adaptive, .. } = &mut p.kind else { unreachable!() };
            adaptive.max_rounds += 10;
        }),
        ("[adaptive] converge_eps", |p| {
            let CampaignKind::Adaptive { adaptive, .. } = &mut p.kind else { unreachable!() };
            adaptive.converge_eps = 0.5;
        }),
    ];
    assert_eq!(
        excluded_mutations.len(),
        FINGERPRINT_EXCLUDED.len(),
        "the mutation list must cover the documented table exactly"
    );
    for ((key, why), (mutated_key, mutate)) in FINGERPRINT_EXCLUDED.iter().zip(&excluded_mutations)
    {
        assert_eq!(key, mutated_key, "table and mutation list must stay in the same order");
        assert!(!why.is_empty(), "every exclusion documents its why");
        let mut changed = base.clone();
        mutate(&mut changed);
        assert_eq!(campaign_fingerprint(&changed), fp, "`{key}` must not change the fingerprint");
    }
    // The batch size is identity, not scheduling: each round's
    // selection depends on how many outcomes the previous one saw.
    let mut rebatched = base.clone();
    let CampaignKind::Adaptive { adaptive, .. } = &mut rebatched.kind else { unreachable!() };
    adaptive.batch += 1;
    assert_ne!(campaign_fingerprint(&rebatched), fp, "[adaptive] batch is identity");
}

#[test]
fn files_selections_fingerprint_spec_contents_not_paths() {
    let registry = drivefi_world::FamilyRegistry::builtin();
    let spec_a = registry.get("tailgater").unwrap().clone();
    let spec_b = registry.get("debris_field").unwrap().clone();
    let files_plan = |files: Vec<String>, specs: Vec<ScenarioSpec>| CampaignPlan {
        scenarios: ScenarioSelection::Files { files, specs, count: 2, seed: 5 },
        ..tiny_random_plan()
    };
    // Same contents under a different path: same identity (a moved
    // store keeps resuming).
    let a = files_plan(vec!["x/tailgater.toml".into()], vec![spec_a.clone()]);
    let moved = files_plan(vec!["y/renamed.toml".into()], vec![spec_a.clone()]);
    assert_eq!(campaign_fingerprint(&a), campaign_fingerprint(&moved));
    // Same path, edited contents: different identity (an edited spec
    // refuses to append to the old shards).
    let edited = files_plan(vec!["x/tailgater.toml".into()], vec![spec_b]);
    assert_ne!(campaign_fingerprint(&a), campaign_fingerprint(&edited));
}

#[test]
fn submit_section_parses_validates_and_round_trips() {
    let text = "name = \"weighted\"\n\n[campaign]\nkind = \"random\"\nruns = 2\n\n\
                [scenarios]\nsource = \"paper\"\ncount = 1\nseed = 0\n\n[submit]\nweight = 3\n";
    let plan = parse_campaign_plan(text).unwrap();
    assert_eq!(plan.submit, SubmitSection { weight: 3 });
    // Emit → parse round-trips, and a default weight emits no
    // [submit] section at all.
    let reparsed = parse_campaign_plan(&emit_campaign_plan(&plan)).unwrap();
    assert_eq!(reparsed.submit, plan.submit);
    let mut unweighted = plan;
    unweighted.submit = SubmitSection::default();
    assert!(!emit_campaign_plan(&unweighted).contains("submit"));
    // Out-of-range and unknown keys are parse errors.
    let err = parse_campaign_plan(&text.replace("weight = 3", "weight = 0")).expect_err("weight 0");
    assert!(err.to_string().contains("weight"), "got: {err}");
    let err =
        parse_campaign_plan(&text.replace("weight = 3", "weight = 65")).expect_err("weight 65");
    assert!(err.to_string().contains("weight"), "got: {err}");
    let err = parse_campaign_plan(&text.replace("weight = 3", "velocity = 3"))
        .expect_err("unknown submit key");
    assert!(err.to_string().contains("velocity"), "got: {err}");
}

#[test]
fn outcome_sink_cannot_combine_with_an_output_store() {
    // Every plan runs on a store, whose jobs.csv lists each run's
    // outcome: `sink = "outcomes"` is a parse error pointing there.
    let plan = CampaignPlan { output: Some(OutputSpec::new("out/x")), ..tiny_random_plan() };
    let text = emit_campaign_plan(&plan).replace("sink = \"stats\"", "sink = \"outcomes\"");
    let err = parse_campaign_plan(&text).expect_err("outcomes + output parses");
    assert!(err.to_string().contains("jobs.csv"), "got: {err}");
}

#[test]
fn golden_plans_round_trip_and_reject_fault_config() {
    let plan =
        CampaignPlan { name: "golden".into(), kind: CampaignKind::Golden, ..tiny_random_plan() };
    let text = emit_campaign_plan(&plan);
    assert!(!text.contains("sink"), "golden plans carry no sink:\n{text}");
    assert_eq!(parse_campaign_plan(&text).unwrap(), plan);
    for (extra, needle) in
        [("runs = 4", "`runs` is not valid"), ("sink = \"stats\"", "`sink` is not valid")]
    {
        let mutated = text.replace("kind = \"golden\"", &format!("kind = \"golden\"\n{extra}"));
        let err = parse_campaign_plan(&mutated).expect_err(needle);
        assert!(err.to_string().contains(needle), "wanted `{needle}`, got: {err}");
    }
    let with_faults = format!("{text}\n[faults]\nmodules = [\"world.clear\"]\n");
    let err = parse_campaign_plan(&with_faults).expect_err("[faults] on golden");
    assert!(err.to_string().contains("golden"), "got: {err}");
}

#[test]
fn golden_plans_collect_the_suite_traces() {
    let dir = std::env::temp_dir().join(format!("drivefi-plan-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = CampaignPlan {
        name: "golden".into(),
        kind: CampaignKind::Golden,
        output: Some(OutputSpec::new(dir.to_string_lossy().into_owned())),
        ..tiny_random_plan()
    };
    let PlanResult::Persisted(report) = run_plan(&plan).unwrap();
    assert!(report.complete());
    let (_, traces) = drivefi_store::read_traces(&dir).unwrap();
    let typed = collect_golden_traces(&SimConfig::default(), &ScenarioSuite::generate(2, 42), 2);
    assert_eq!(traces.len(), 2);
    for ((record, plan_trace), typed_trace) in report.jobs.iter().zip(&traces).zip(&typed) {
        assert_eq!(record.fault, None, "golden runs inject nothing");
        assert_eq!(plan_trace.scenario_id, typed_trace.scenario_id);
        assert_eq!(plan_trace.frames.len(), typed_trace.frames.len());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Serializes the tests that run plans without `[output]`, so the
/// leftover checks see no other test's live throwaway store.
static NO_OUTPUT: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn no_output_lock() -> std::sync::MutexGuard<'static, ()> {
    NO_OUTPUT.lock().unwrap_or_else(|e| e.into_inner())
}

/// This process's throwaway stores currently under the temp dir.
fn throwaway_stores() -> Vec<PathBuf> {
    let prefix = format!("drivefi-plan-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_name().to_string_lossy().starts_with(&prefix))
        .map(|entry| entry.path())
        .collect()
}

#[test]
fn plans_without_output_return_the_report_their_store_saves() {
    let _lock = no_output_lock();
    let dir = std::env::temp_dir().join(format!("drivefi-plan-saved-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let tiny = |name: &str, kind| CampaignPlan { name: name.into(), kind, ..tiny_random_plan() };
    let plans = [
        tiny_random_plan(),
        tiny("golden", CampaignKind::Golden),
        tiny("exhaustive", CampaignKind::Exhaustive { scene_stride: 40 }),
        tiny("mine", CampaignKind::Mine { scene_stride: 25 }),
        tiny("adaptive", tiny_adaptive_plan().kind),
    ];
    for plan in plans {
        // Every kind parses without [output] and runs on a throwaway store.
        assert_eq!(parse_campaign_plan(&emit_campaign_plan(&plan)).unwrap(), plan);
        let PlanResult::Persisted(throwaway) = run_plan(&plan).unwrap();
        assert!(throwaway.complete() && !throwaway.jobs.is_empty(), "{}", plan.name);
        let out = dir.join(&plan.name);
        let stored = CampaignPlan {
            output: Some(OutputSpec::new(out.to_string_lossy().into_owned())),
            ..plan.clone()
        };
        let PlanResult::Persisted(returned) = run_plan(&stored).unwrap();
        let saved = crate::report::PlanReport::load(&out).unwrap();
        assert_eq!(returned, saved, "{}: returned report differs from the saved one", plan.name);
        assert_eq!(throwaway, saved, "{}: the throwaway run differs from the store", plan.name);
    }
    assert!(throwaway_stores().is_empty(), "left behind: {:?}", throwaway_stores());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn throwaway_stores_leave_nothing_behind() {
    let _lock = no_output_lock();
    assert!(throwaway_stores().is_empty(), "left behind: {:?}", throwaway_stores());
    let PlanResult::Persisted(report) = run_plan(&tiny_random_plan()).unwrap();
    assert!(report.complete());
    assert!(throwaway_stores().is_empty(), "left behind: {:?}", throwaway_stores());

    // A failed control point errors out of the run, and still removes
    // the throwaway store it ran in. A planner that never replans drives
    // straight into the stalled vehicle.
    let mut doomed = tiny_random_plan();
    doomed.scenarios =
        ScenarioSelection::Families { names: vec!["stalled_vehicle".into()], count: 1, seed: 1 };
    doomed.sim.planner_divisor = u32::MAX;
    let err = run_plan(&doomed).expect_err("the control job is not survivable");
    assert!(err.to_string().contains("control job failed"), "got: {err}");
    assert!(throwaway_stores().is_empty(), "left behind: {:?}", throwaway_stores());

    // A budget without [output] is an error, and creates nothing.
    let err = run_plan_budget(&tiny_random_plan(), Some(1)).expect_err("budget without a store");
    assert!(err.to_string().contains("[output]"), "got: {err}");
    assert!(throwaway_stores().is_empty(), "left behind: {:?}", throwaway_stores());
}

#[test]
fn parallel_runs_without_output_do_not_collide() {
    let _lock = no_output_lock();
    // Different seeds: two runs sharing one store would refuse each
    // other's fingerprint or mix their records.
    let plans = [tiny_random_plan(), CampaignPlan { seed: 4, ..tiny_random_plan() }];
    let start = std::sync::Barrier::new(plans.len());
    let parallel: Vec<PlanResult> = std::thread::scope(|scope| {
        let run = |plan| {
            start.wait();
            run_plan(plan)
        };
        let handles: Vec<_> = plans.iter().map(|plan| scope.spawn(move || run(plan))).collect();
        handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect()
    });
    for (plan, PlanResult::Persisted(report)) in plans.iter().zip(parallel) {
        let PlanResult::Persisted(serial) = run_plan(plan).unwrap();
        assert_eq!(report, serial);
    }
    assert!(throwaway_stores().is_empty(), "left behind: {:?}", throwaway_stores());
}

#[test]
fn run_plan_matches_typed_random_campaign() {
    // Job i of a random plan injects pick i of the typed sampling stream:
    // the plan adds scheduling and persistence, never a different draw.
    let _lock = no_output_lock();
    let plan = tiny_random_plan();
    let PlanResult::Persisted(report) = run_plan(&plan).unwrap();
    let suite = ScenarioSuite::generate(2, 42);
    let config = drivefi_core::RandomCampaignConfig { runs: 6, seed: 3, workers: 4 };
    let picks = drivefi_core::random_fault_picks(&suite, &FaultSpace::default(), &config);
    let typed = drivefi_core::pick_record_metas(&suite, &picks);
    assert_eq!(report.jobs.len(), typed.len());
    for (job, (record, meta)) in report.jobs.iter().zip(&typed).enumerate() {
        assert_eq!(record.job, job as u64);
        assert_eq!(
            (record.scenario_id, record.scenario_seed, record.fault),
            (meta.scenario_id, meta.scenario_seed, meta.fault)
        );
    }
}

#[test]
fn budget_capped_run_resumes_to_the_same_report() {
    let dir = std::env::temp_dir().join(format!("drivefi-plan-resume-{}", std::process::id()));
    let full_dir = dir.join("full");
    let part_dir = dir.join("part");
    std::fs::remove_dir_all(&dir).ok();

    let mut plan = tiny_random_plan();
    plan.output = Some(OutputSpec::new(full_dir.to_string_lossy().into_owned()));
    let PlanResult::Persisted(full) = run_plan(&plan).unwrap();

    plan.output = Some(OutputSpec::new(part_dir.to_string_lossy().into_owned()));
    let PlanResult::Persisted(partial) = run_plan_budget(&plan, Some(2)).unwrap();
    assert_eq!(partial.jobs.len(), 2);
    assert!(!partial.complete());
    let PlanResult::Persisted(resumed) = run_plan(&plan).unwrap();
    assert!(resumed.complete());
    assert_eq!(resumed.jobs, full.jobs);
    for file in [crate::report::REPORT_FILE, crate::report::JOBS_FILE] {
        let a = std::fs::read(full_dir.join(file)).unwrap();
        let b = std::fs::read(part_dir.join(file)).unwrap();
        assert_eq!(a, b, "{file} differs between full and resumed runs");
    }

    // A different plan refuses to adopt the store.
    plan.seed += 1;
    let err = run_plan(&plan).expect_err("fingerprint mismatch");
    assert!(err.to_string().contains("fingerprint"), "got: {err}");
    // A budget without a store is an error, not a silent no-op.
    plan.output = None;
    assert!(run_plan_budget(&plan, Some(1)).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn small_random_campaign_mostly_safe() {
    let _lock = no_output_lock();
    let plan = CampaignPlan {
        kind: CampaignKind::Random { runs: 60 },
        seed: 1,
        workers: Some(8),
        scenarios: ScenarioSelection::Paper { count: 8, seed: 42 },
        ..tiny_random_plan()
    };
    let PlanResult::Persisted(report) = run_plan(&plan).unwrap();
    assert_eq!(report.jobs.len(), 60);
    assert_eq!(report.safe() + report.hazards() + report.collisions(), 60);
    // The paper's headline: random injections essentially never
    // produce hazards.
    assert!(report.hazard_rate() < 0.1, "hazard rate {}", report.hazard_rate());
    assert!(report.effective_injections() > 30);
}

#[test]
fn campaign_is_reproducible() {
    let _lock = no_output_lock();
    let plan = CampaignPlan {
        kind: CampaignKind::Random { runs: 20 },
        seed: 9,
        scenarios: ScenarioSelection::Paper { count: 4, seed: 42 },
        ..tiny_random_plan()
    };
    let PlanResult::Persisted(a) = run_plan(&plan).unwrap();
    let PlanResult::Persisted(b) = run_plan(&plan).unwrap();
    assert_eq!(a.jobs, b.jobs);
}

#[test]
fn module_fault_spaces_sample_and_run() {
    let _lock = no_output_lock();
    // A space of only module-level faults (hang / freeze / clear)
    // exercises the non-scalar half of the FaultSpace API end to end.
    let plan = CampaignPlan {
        kind: CampaignKind::Random { runs: 12 },
        seed: 5,
        scenarios: ScenarioSelection::Paper { count: 4, seed: 42 },
        faults: FaultSpace {
            scalars: CorruptionGrid::new(Vec::new(), Vec::new()),
            modules: vec![
                drivefi_fault::FaultKind::ClearWorldModel,
                drivefi_fault::FaultKind::FreezeWorldModel,
                drivefi_fault::FaultKind::ModuleHang { stage: drivefi_ads::Stage::Planning },
            ],
            first_scene: 20,
            tail_margin: 40,
            window_scenes: 4,
        },
        ..tiny_random_plan()
    };
    let PlanResult::Persisted(report) = run_plan(&plan).unwrap();
    assert_eq!(report.jobs.len(), 12);
    assert!(report.effective_injections() > 0, "module faults never landed");
    for record in &report.jobs {
        let fault = record.fault.expect("every random job injects");
        assert!(fault.window.scene >= 20);
        assert!(fault.kind.target_name().contains('.'));
    }
}

#[test]
fn small_exhaustive_sweep_is_coherent() {
    // A deliberately tiny corpus (2 scenarios, aggressive stride) so the
    // exhaustive sweep stays test-sized.
    let dir = std::env::temp_dir().join(format!("drivefi-plan-exhaustive-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = CampaignPlan {
        kind: CampaignKind::Exhaustive { scene_stride: 40 },
        workers: Some(8),
        output: Some(OutputSpec::new(dir.to_string_lossy().into_owned())),
        ..tiny_random_plan()
    };
    let PlanResult::Persisted(report) = run_plan(&plan).unwrap();
    assert!(report.complete() && !report.jobs.is_empty());
    let keys = |hazardous_only: bool| -> BTreeSet<_> {
        let jobs = report.jobs.iter().filter(|r| !hazardous_only || r.outcome.is_hazardous());
        jobs.map(|r| (r.scenario_id, r.fault.unwrap().key())).collect()
    };
    let (swept, truth) = (keys(false), keys(true));
    assert_eq!(swept.len(), report.jobs.len(), "every candidate is swept once");
    assert_eq!(truth.len() as u64, report.hazards() + report.collisions());

    // The miner, refitted from the golden sub-store, flags only faults
    // the sweep injected — so precision and recall are well defined.
    let config = MinerConfig { scene_stride: 40, ..MinerConfig::default() };
    let (miner, corpus) = BayesianMiner::fit_from_store(dir.join(GOLDEN_SUBDIR), config).unwrap();
    let mined: BTreeSet<_> =
        miner.mine_corpus(&corpus).iter().map(|c| (c.scenario_id, c.fault_spec().key())).collect();
    assert!(mined.is_subset(&swept), "the miner flagged a fault the sweep never injected");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corpus_without_a_lead_sweeps_but_cannot_be_fitted() {
    // Free driving never meets a lead object, so the 3-TBN has no data
    // for `w_dist`. The exhaustive sweep fits nothing and completes;
    // mining reports the variable instead of panicking.
    let root = std::env::temp_dir().join(format!("drivefi-plan-no-lead-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let plan = |kind: CampaignKind, name: &str| CampaignPlan {
        name: name.into(),
        kind,
        scenarios: ScenarioSelection::Families {
            names: vec!["free_drive".into()],
            count: 2,
            seed: 1,
        },
        output: Some(OutputSpec::new(root.join(name).to_string_lossy().into_owned())),
        ..tiny_random_plan()
    };
    let exhaustive = plan(CampaignKind::Exhaustive { scene_stride: 64 }, "exhaustive");
    let PlanResult::Persisted(report) = run_plan(&exhaustive).unwrap();
    assert!(report.complete());
    assert_eq!(report.jobs.len(), 120, "6 lead-free signals x 2 models x 10 scenes");
    let err = run_plan(&plan(CampaignKind::Mine { scene_stride: 64 }, "mine"))
        .expect_err("a corpus without a lead cannot be fitted");
    assert!(err.to_string().contains("no training data for w_dist"), "{err}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn shipped_plan_fingerprints_are_pinned() {
    // Every existing store of a shipped plan is locked to its
    // fingerprint, so a schema edit that moves one strands those stores.
    let pinned: &[(&str, u64)] = &[
        ("adaptive_random_baseline.toml", 0x68a6bc00ee28b9eb),
        ("adaptive_small.toml", 0xd2012095ca6dbe6c),
        ("dsl_from_file.toml", 0x9ba583efe06efa65),
        ("exhaustive_small.toml", 0x87acc7904523ada0),
        ("golden_baseline.toml", 0x9c73f18d5ae0751f),
        ("mine_small.toml", 0xf20b98469dd3b8e9),
        ("module_faults.toml", 0x521bd4d6637805e0),
        ("paper/e11_exhaustive.toml", 0xe77b54c617fe3e81),
        ("paper/e2_random.toml", 0xa8e4de3c48c48133),
        ("paper/e3_mine.toml", 0x02ff8dd0db4481be),
        ("persistent_random.toml", 0x18f63591c0c31fa1),
        ("random_baseline.toml", 0x26a0495c0c3c0e29),
        ("served_sweep.toml", 0x973c4f0d8ed82bfd),
    ];
    let plans = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../plans");
    let mut shipped: Vec<String> = ["", "paper/"]
        .iter()
        .flat_map(|sub| {
            std::fs::read_dir(plans.join(sub)).unwrap().filter_map(move |entry| {
                let name = entry.unwrap().file_name().to_string_lossy().into_owned();
                name.ends_with(".toml").then(|| format!("{sub}{name}"))
            })
        })
        .collect();
    shipped.sort();
    let names: Vec<&str> = pinned.iter().map(|(name, _)| *name).collect();
    assert_eq!(shipped, names, "every shipped plan needs a pinned fingerprint");
    for (name, fingerprint) in pinned {
        let plan = CampaignPlan::load(plans.join(name)).unwrap();
        assert_eq!(
            format!("{:016x}", campaign_fingerprint(&plan)),
            format!("{fingerprint:016x}"),
            "{name}: fingerprint moved"
        );
    }
}
