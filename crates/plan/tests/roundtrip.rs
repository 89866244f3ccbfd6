//! Round-trip property tests: `parse(emit(x)) == x` for campaign plans
//! and scenario specs — randomly generated ones *and* every family in
//! the builtin registry — plus parser rejection coverage.

use drivefi_ads::Signal;
use drivefi_fault::{CorruptionGrid, FaultKind, FaultSpace, ScalarFaultModel};
use drivefi_plan::{
    emit_campaign_plan, emit_expr, emit_scenario_spec, parse_campaign_plan, parse_expr,
    parse_scenario_spec, AdaptiveSection, CampaignKind, CampaignPlan, ControlSection, OutputSpec,
    ScenarioSelection, SimSection, SinkChoice, SubmitSection,
};
use drivefi_world::spec::{
    ActorTemplate, EgoSpec, Expr, KeyframeProgram, LaneChangeTemplate, ManeuverTemplate, RoadSpec,
    ScenarioSpec, Stmt,
};
use drivefi_world::{ActorKind, FamilyRegistry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VARS: [&str; 8] = ["gap", "dv", "lead_v", "ego.v", "ego.set_speed", "x", "t1", "wave_t"];

fn arb_f64(rng: &mut StdRng) -> f64 {
    // Finite, mixed-scale constants (integral values exercise the
    // `4.0` ↔ `4` formatting edge).
    match rng.random_range(0..4u32) {
        0 => f64::from(rng.random_range(-100i32..100)),
        1 => rng.random_range(-50.0..50.0),
        2 => rng.random_range(-1.0..1.0) * 1e-6,
        _ => rng.random_range(-1.0..1.0) * 1e9,
    }
}

fn arb_expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.random_range(0..3u32) == 0 {
        return if rng.random::<bool>() {
            Expr::Const(arb_f64(rng))
        } else {
            Expr::Var(VARS[rng.random_range(0..VARS.len())])
        };
    }
    let a = arb_expr(rng, depth - 1);
    let b = arb_expr(rng, depth - 1);
    match rng.random_range(0..7u32) {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        3 => a / b,
        4 => -a,
        5 => a.min(b),
        _ => a.max(b),
    }
}

fn arb_lane_change(rng: &mut StdRng) -> LaneChangeTemplate {
    LaneChangeTemplate {
        start_time: arb_expr(rng, 1),
        duration: arb_expr(rng, 1),
        from_y: arb_expr(rng, 1),
        to_y: arb_expr(rng, 1),
    }
}

fn arb_maneuver(rng: &mut StdRng) -> ManeuverTemplate {
    match rng.random_range(0..4u32) {
        0 => ManeuverTemplate::Static,
        1 => ManeuverTemplate::Idm {
            desired: arb_expr(rng, 2),
            headway: rng.random::<bool>().then(|| arb_expr(rng, 1)),
            lane_change: rng.random::<bool>().then(|| arb_lane_change(rng)),
        },
        2 => ManeuverTemplate::Scripted {
            keyframes: if rng.random::<bool>() {
                KeyframeProgram::List(
                    (0..rng.random_range(1..4usize))
                        .map(|_| (arb_expr(rng, 1), arb_expr(rng, 1)))
                        .collect(),
                )
            } else {
                KeyframeProgram::Wave {
                    start: arb_expr(rng, 1),
                    period: arb_expr(rng, 1),
                    brake: arb_expr(rng, 1),
                    recover: arb_expr(rng, 1),
                    brake_frac: rng.random_range(0.1..0.5),
                    coast_frac: rng.random_range(0.5..0.9),
                }
            },
            lane_change: rng.random::<bool>().then(|| arb_lane_change(rng)),
        },
        _ => ManeuverTemplate::Pedestrian {
            trigger_time: arb_expr(rng, 1),
            walk_speed: arb_expr(rng, 1),
        },
    }
}

fn arb_stmt(rng: &mut StdRng, depth: u32) -> Stmt {
    let top = if depth > 0 { 8 } else { 6 };
    match rng.random_range(0..top) {
        0 => Stmt::Draw {
            var: VARS[rng.random_range(0..VARS.len())],
            lo: arb_expr(rng, 1),
            hi: arb_expr(rng, 1),
        },
        1 => {
            let lo = rng.random_range(0..10u32);
            Stmt::DrawInt {
                var: VARS[rng.random_range(0..VARS.len())],
                lo,
                hi: lo + rng.random_range(1..5u32),
            }
        }
        2 => Stmt::Let { var: VARS[rng.random_range(0..VARS.len())], expr: arb_expr(rng, 2) },
        3 => Stmt::SetEgoSpeed(arb_expr(rng, 1)),
        4 => Stmt::SetEgoSetSpeed(arb_expr(rng, 1)),
        5 => Stmt::spawn(ActorTemplate {
            kind: [
                ActorKind::Car,
                ActorKind::Truck,
                ActorKind::Pedestrian,
                ActorKind::StaticObstacle,
            ][rng.random_range(0..4usize)],
            x: arb_expr(rng, 2),
            y: arb_expr(rng, 1),
            v: arb_expr(rng, 1),
            heading: arb_expr(rng, 1),
            maneuver: arb_maneuver(rng),
        }),
        6 => Stmt::Repeat {
            count: arb_expr(rng, 1),
            body: (0..rng.random_range(0..3usize)).map(|_| arb_stmt(rng, depth - 1)).collect(),
        },
        _ => Stmt::If {
            cond: arb_expr(rng, 1),
            then: (0..rng.random_range(0..3usize)).map(|_| arb_stmt(rng, depth - 1)).collect(),
            otherwise: (0..rng.random_range(0..2usize)).map(|_| arb_stmt(rng, depth - 1)).collect(),
        },
    }
}

fn arb_spec(rng: &mut StdRng) -> ScenarioSpec {
    let v0_lo = rng.random_range(5.0..30.0);
    ScenarioSpec {
        name: ["fuzz_a", "fuzz_b", "fuzz_c"][rng.random_range(0..3usize)],
        family_key: rng.random_range(0..1u64 << 40),
        duration: rng.random_range(5.0..120.0),
        road: RoadSpec {
            lanes: rng.random_range(1..6u32) as u8,
            lane_width: rng.random_range(2.5..5.0),
            length: rng.random_range(500.0..8000.0),
        },
        ego: EgoSpec {
            v0_lo,
            v0_hi: v0_lo + rng.random_range(0.5..10.0),
            set_lo: arb_expr(rng, 1),
            set_hi: arb_expr(rng, 1),
        },
        program: (0..rng.random_range(0..6usize)).map(|_| arb_stmt(rng, 2)).collect(),
    }
}

fn arb_fault_space(rng: &mut StdRng) -> FaultSpace {
    let mut signals: Vec<Signal> =
        Signal::ALL.into_iter().filter(|_| rng.random::<bool>()).collect();
    let model_pool = [
        ScalarFaultModel::StuckMin,
        ScalarFaultModel::StuckMax,
        ScalarFaultModel::StuckAt(arb_f64(rng)),
        ScalarFaultModel::BitFlip(rng.random_range(0..64u32) as u8),
        ScalarFaultModel::Offset(arb_f64(rng)),
        ScalarFaultModel::Scale(arb_f64(rng)),
    ];
    let mut models: Vec<ScalarFaultModel> =
        model_pool.into_iter().filter(|_| rng.random::<bool>()).collect();
    let module_pool = [
        FaultKind::ClearWorldModel,
        FaultKind::FreezeWorldModel,
        FaultKind::ModuleHang { stage: drivefi_ads::Stage::Planning },
        FaultKind::ModuleHang { stage: drivefi_ads::Stage::Control },
    ];
    let modules: Vec<FaultKind> =
        module_pool.into_iter().filter(|_| rng.random::<bool>()).collect();
    if (signals.is_empty() || models.is_empty()) && modules.is_empty() {
        // Keep the space non-empty, as the schema requires.
        signals = vec![Signal::RawThrottle];
        models = vec![ScalarFaultModel::StuckMax];
    }
    FaultSpace {
        scalars: CorruptionGrid::new(signals, models),
        modules,
        first_scene: rng.random_range(0..20u64),
        tail_margin: rng.random_range(0..20u64),
        window_scenes: rng.random_range(1..30u64),
    }
}

fn arb_plan(rng: &mut StdRng) -> CampaignPlan {
    let registry_names: Vec<&'static str> = FamilyRegistry::builtin().names().collect();
    let scenarios = match rng.random_range(0..4u32) {
        0 => ScenarioSelection::Paper {
            count: rng.random_range(1..30u32),
            seed: rng.random::<u64>() >> 1,
        },
        1 => ScenarioSelection::Extended {
            count: rng.random_range(1..30u32),
            seed: rng.random::<u64>() >> 1,
        },
        2 => ScenarioSelection::Families {
            names: (0..rng.random_range(1..4usize))
                .map(|_| registry_names[rng.random_range(0..registry_names.len())].to_owned())
                .collect(),
            count: rng.random_range(1..30u32),
            seed: rng.random::<u64>() >> 1,
        },
        _ => ScenarioSelection::Inline {
            specs: (0..rng.random_range(1..3usize)).map(|_| arb_spec(rng)).collect(),
            count: rng.random_range(1..10u32),
            seed: rng.random::<u64>() >> 1,
        },
    };
    let kind = match rng.random_range(0..4u32) {
        0 => CampaignKind::Random { runs: rng.random_range(1..5000usize) },
        1 => CampaignKind::Exhaustive { scene_stride: rng.random_range(1..100usize) },
        2 => CampaignKind::Adaptive {
            scene_stride: rng.random_range(1..100usize),
            // Half the time the default section (emitted as nothing at
            // all), half the time fully fuzzed knobs.
            adaptive: if rng.random::<bool>() {
                AdaptiveSection::default()
            } else {
                AdaptiveSection {
                    batch: rng.random_range(1..64usize),
                    max_rounds: rng.random_range(1..40u32),
                    converge_eps: rng.random_range(0.0..1.0),
                }
            },
        },
        _ => CampaignKind::Golden,
    };
    // Only random campaigns carry a custom fault space or sink choice:
    // the exhaustive report shape is fixed and golden runs inject
    // nothing.
    let (sink, faults) = if matches!(kind, CampaignKind::Random { .. }) {
        (
            if rng.random::<bool>() { SinkChoice::Stats } else { SinkChoice::Outcomes },
            arb_fault_space(rng),
        )
    } else {
        (SinkChoice::Stats, FaultSpace::default())
    };
    let sim = if rng.random::<bool>() {
        SimSection::default()
    } else {
        SimSection {
            planner_divisor: rng.random_range(1..8u32),
            kalman_fusion: rng.random(),
            pid_smoothing: rng.random(),
            watchdog: rng.random(),
        }
    };
    // Exhaustive campaigns reject [output], adaptive ones require it,
    // and an outcome sink cannot combine with one (the store's jobs.csv
    // subsumes it); the rest fuzz it.
    let output = (matches!(kind, CampaignKind::Adaptive { .. })
        || (!matches!(kind, CampaignKind::Exhaustive { .. })
            && sink != SinkChoice::Outcomes
            && rng.random::<bool>()))
    .then(|| OutputSpec {
        dir: format!("out/fuzz-{}", rng.random_range(0..100u32)),
        shards: rng.random_range(1..32u32),
        checkpoint_every: rng.random_range(1..10_000u64),
    });
    let submit = SubmitSection {
        weight: if rng.random::<bool>() { 1 } else { rng.random_range(1..=64u32) },
    };
    let control = ControlSection { assert_survivable: rng.random::<bool>() };
    CampaignPlan {
        name: format!("fuzz-{}", rng.random_range(0..1000u32)),
        kind,
        seed: rng.random::<u64>() >> 1,
        workers: rng.random::<bool>().then(|| rng.random_range(1..64usize)),
        sink,
        scenarios,
        faults,
        sim,
        output,
        submit,
        control,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary expressions survive the text form exactly.
    #[test]
    fn exprs_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let expr = arb_expr(&mut rng, 4);
        let text = emit_expr(&expr);
        prop_assert_eq!(parse_expr(&text).unwrap(), expr, "via `{}`", text);
    }

    /// Arbitrary scenario specs — nested statements, every maneuver
    /// template — survive TOML exactly.
    #[test]
    fn fuzzed_scenario_specs_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = arb_spec(&mut rng);
        let text = emit_scenario_spec(&spec);
        let parsed = parse_scenario_spec(&text);
        prop_assert!(parsed.is_ok(), "parse failed: {}\n{}", parsed.unwrap_err(), text);
        prop_assert_eq!(parsed.unwrap(), spec, "drift via:\n{}", text);
    }

    /// Arbitrary campaign plans — every selection source, both campaign
    /// kinds, fuzzed fault spaces — survive TOML exactly.
    #[test]
    fn fuzzed_campaign_plans_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = arb_plan(&mut rng);
        let text = emit_campaign_plan(&plan);
        let parsed = parse_campaign_plan(&text);
        prop_assert!(parsed.is_ok(), "parse failed: {}\n{}", parsed.unwrap_err(), text);
        prop_assert_eq!(parsed.unwrap(), plan, "drift via:\n{}", text);
    }
}

/// Every spec in the builtin registry — the ten paper-era families and
/// the four DSL-native ones — survives TOML exactly.
#[test]
fn every_registered_spec_round_trips() {
    for spec in FamilyRegistry::builtin().specs() {
        let text = emit_scenario_spec(spec);
        let parsed =
            parse_scenario_spec(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", spec.name));
        assert_eq!(&parsed, spec, "{} drifted through TOML", spec.name);
    }
}

/// The headline rejection cases the plan schema must catch: malformed
/// TOML, out-of-range integers, unknown keys, inverted ranges, unknown
/// signals, and bad `[adaptive]` sections.
#[test]
fn malformed_inputs_are_rejected() {
    let cases: [(&str, &str); 11] = [
        // Broken syntax.
        ("name = \"x\"\n[campaign\nkind = \"random\"\n", "unterminated"),
        // An integer literal outside i64, reported where it stands rather
        // than as a float rejected downstream.
        (
            "name = \"x\"\n[campaign]\nkind = \"random\"\nruns = 18446744073709551615\n",
            "line 4: integer out of range",
        ),
        // Bad keys.
        (
            "name = \"x\"\nturbo = true\n[campaign]\nkind = \"random\"\nruns = 1\n\
             [scenarios]\nsource = \"paper\"\ncount = 1\nseed = 0\n",
            "unknown key `turbo`",
        ),
        // The engine has no batch width to set.
        (
            "name = \"x\"\n[campaign]\nkind = \"random\"\nruns = 1\n\
             [scenarios]\nsource = \"paper\"\ncount = 1\nseed = 0\n\
             [sim]\nbatch = 32\n",
            "unknown key `batch` in [sim]",
        ),
        // Range inversions.
        (
            "name = \"x\"\n[campaign]\nkind = \"random\"\nruns = 1\n\
             [scenarios]\nsource = \"inline\"\ncount = 1\nseed = 0\n\
             [[scenarios.spec]]\nname = \"s\"\nfamily_key = 1\nduration = 10.0\n\
             [scenarios.spec.ego]\nv0 = [30.0, 20.0]\nset_speed = [\"ego.v\", \"ego.v\"]\n",
            "inverted",
        ),
        // Unknown signals.
        (
            "name = \"x\"\n[campaign]\nkind = \"random\"\nruns = 1\n\
             [scenarios]\nsource = \"paper\"\ncount = 1\nseed = 0\n\
             [faults]\nsignals = [\"warp.drive\"]\n",
            "unknown signal `warp.drive`",
        ),
        // Inverted draw_int range inside a program.
        (
            "name = \"x\"\n[campaign]\nkind = \"random\"\nruns = 1\n\
             [scenarios]\nsource = \"inline\"\ncount = 1\nseed = 0\n\
             [[scenarios.spec]]\nname = \"s\"\nfamily_key = 1\nduration = 10.0\n\
             [[scenarios.spec.program]]\nstmt = \"draw_int\"\nvar = \"n\"\nlo = 5\nhi = 2\n",
            "inverted",
        ),
        // Malformed expression text.
        (
            "name = \"x\"\n[campaign]\nkind = \"random\"\nruns = 1\n\
             [scenarios]\nsource = \"inline\"\ncount = 1\nseed = 0\n\
             [[scenarios.spec]]\nname = \"s\"\nfamily_key = 1\nduration = 10.0\n\
             [[scenarios.spec.program]]\nstmt = \"let\"\nvar = \"x\"\nexpr = \"1 +\"\n",
            "expression",
        ),
        // An empty acquisition batch could never make progress.
        (
            "name = \"x\"\n[campaign]\nkind = \"adaptive\"\nscene_stride = 10\n\
             [adaptive]\nbatch = 0\n\
             [scenarios]\nsource = \"paper\"\ncount = 1\nseed = 0\n\
             [output]\ndir = \"out/x\"\n",
            "`batch` must be at least 1",
        ),
        // A negative convergence threshold could never be met.
        (
            "name = \"x\"\n[campaign]\nkind = \"adaptive\"\nscene_stride = 10\n\
             [adaptive]\nconverge_eps = -0.5\n\
             [scenarios]\nsource = \"paper\"\ncount = 1\nseed = 0\n\
             [output]\ndir = \"out/x\"\n",
            "`converge_eps` must be a finite value >= 0",
        ),
        // `[adaptive]` knobs on a kind with no acquisition loop.
        (
            "name = \"x\"\n[campaign]\nkind = \"random\"\nruns = 1\n\
             [adaptive]\nbatch = 4\n\
             [scenarios]\nsource = \"paper\"\ncount = 1\nseed = 0\n",
            "only valid for adaptive campaigns",
        ),
    ];
    for (src, needle) in cases {
        let err = parse_campaign_plan(src).expect_err(needle);
        assert!(err.to_string().contains(needle), "wanted `{needle}`, got `{err}`");
    }
}
