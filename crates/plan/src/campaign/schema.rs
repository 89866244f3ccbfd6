//! The plan file's TOML surface: emit a [`CampaignPlan`] as a document
//! tree and parse one back with strict unknown-key rejection. Every
//! section parser enforces its schema (types, ranges, kind-conditional
//! keys) so a typo is an error, never silently ignored.

use super::{
    AdaptiveSection, CampaignKind, CampaignPlan, ControlSection, OutputSpec, ScenarioSelection,
    SimSection, SubmitSection,
};
use crate::scenario::{
    as_array, as_bool, as_float, as_str, as_table, as_uint, expect_keys, get,
    scenario_spec_from_toml, scenario_spec_to_toml,
};
use crate::toml::{emit_document, parse_document, Map, Toml};
use crate::PlanError;
use drivefi_ads::Signal;
use drivefi_fault::{CorruptionGrid, FaultSpace, ScalarFaultModel};
use drivefi_store::MAX_SHARDS;
use drivefi_world::spec::ScenarioSpec;

fn model_names(models: &[ScalarFaultModel]) -> Toml {
    Toml::Array(models.iter().map(|m| Toml::Str(m.name())).collect())
}

fn fault_space_to_toml(space: &FaultSpace) -> Map {
    let default = FaultSpace::default();
    let signals = if space.scalars.items == default.scalars.items {
        Toml::Str("all".into())
    } else {
        Toml::Array(space.scalars.items.iter().map(|s| Toml::Str(s.name().into())).collect())
    };
    Map::from([
        ("signals".into(), signals),
        ("models".into(), model_names(&space.scalars.models)),
        (
            "modules".into(),
            Toml::Array(space.modules.iter().map(|m| Toml::Str(m.name())).collect()),
        ),
        ("first_scene".into(), Toml::Int(space.first_scene as i64)),
        ("tail_margin".into(), Toml::Int(space.tail_margin as i64)),
        ("window_scenes".into(), Toml::Int(space.window_scenes as i64)),
    ])
}

fn fault_space_from_toml(table: &Map) -> Result<FaultSpace, PlanError> {
    expect_keys(
        table,
        "[faults]",
        &["signals", "models", "modules", "first_scene", "tail_margin", "window_scenes"],
    )?;
    let default = FaultSpace::default();

    let signals: Vec<Signal> = match table.get("signals") {
        None => default.scalars.items.clone(),
        Some(Toml::Str(s)) if s == "all" => Signal::ALL.to_vec(),
        Some(Toml::Array(names)) => names
            .iter()
            .map(|n| {
                let name = as_str(n, "signal name")?;
                Signal::from_name(name)
                    .ok_or_else(|| PlanError::new(format!("unknown signal `{name}`")))
            })
            .collect::<Result<_, _>>()?,
        Some(other) => {
            return Err(PlanError::new(format!(
                "`signals` must be \"all\" or a list of names, got {}",
                other.type_name()
            )))
        }
    };

    let models: Vec<ScalarFaultModel> = match table.get("models") {
        None => default.scalars.models.clone(),
        Some(value) => as_array(value, "`models`")?
            .iter()
            .map(|m| {
                let name = as_str(m, "model name")?;
                ScalarFaultModel::parse(name)
                    .ok_or_else(|| PlanError::new(format!("unknown fault model `{name}`")))
            })
            .collect::<Result<_, _>>()?,
    };

    let modules = match table.get("modules") {
        None => Vec::new(),
        Some(value) => as_array(value, "`modules`")?
            .iter()
            .map(|m| {
                let name = as_str(m, "module fault name")?;
                FaultSpace::parse_module(name)
                    .ok_or_else(|| PlanError::new(format!("unknown module fault `{name}`")))
            })
            .collect::<Result<_, _>>()?,
    };

    let uint_or = |key: &str, fallback: u64| -> Result<u64, PlanError> {
        match table.get(key) {
            None => Ok(fallback),
            Some(v) => as_uint(v, &format!("`{key}`")),
        }
    };
    let first_scene = uint_or("first_scene", default.first_scene)?;
    let tail_margin = uint_or("tail_margin", default.tail_margin)?;
    let window_scenes = uint_or("window_scenes", default.window_scenes)?;
    if window_scenes == 0 {
        return Err(PlanError::new("`window_scenes` must be at least 1".into()));
    }

    let space = FaultSpace {
        scalars: CorruptionGrid::new(signals, models),
        modules,
        first_scene,
        tail_margin,
        window_scenes,
    };
    if space.kind_count() == 0 {
        return Err(PlanError::new(
            "the fault space is empty: no (signal, model) pairs and no module faults".into(),
        ));
    }
    Ok(space)
}

/// Converts a plan to its TOML document tree.
pub fn campaign_plan_to_toml(plan: &CampaignPlan) -> Map {
    let mut campaign = Map::from([
        ("kind".into(), Toml::Str(plan.kind.name().into())),
        ("seed".into(), Toml::Int(plan.seed as i64)),
    ]);
    match plan.kind {
        CampaignKind::Random { runs } => {
            campaign.insert("runs".into(), Toml::Int(runs as i64));
            // Selects nothing (every plan reports through its store), but
            // the emitted text is what the store fingerprint hashes, and
            // existing random stores are locked to a text that has it.
            campaign.insert("sink".into(), Toml::Str("stats".into()));
        }
        CampaignKind::Exhaustive { scene_stride }
        | CampaignKind::Mine { scene_stride }
        | CampaignKind::Adaptive { scene_stride, .. } => {
            campaign.insert("scene_stride".into(), Toml::Int(scene_stride as i64));
        }
        CampaignKind::Golden => {}
    }
    if let Some(workers) = plan.workers {
        campaign.insert("workers".into(), Toml::Int(workers as i64));
    }

    let scenarios = match &plan.scenarios {
        ScenarioSelection::Paper { count, seed } => Map::from([
            ("source".into(), Toml::Str("paper".into())),
            ("count".into(), Toml::Int(*count as i64)),
            ("seed".into(), Toml::Int(*seed as i64)),
        ]),
        ScenarioSelection::Extended { count, seed } => Map::from([
            ("source".into(), Toml::Str("extended".into())),
            ("count".into(), Toml::Int(*count as i64)),
            ("seed".into(), Toml::Int(*seed as i64)),
        ]),
        ScenarioSelection::Families { names, count, seed } => Map::from([
            ("source".into(), Toml::Str("families".into())),
            ("families".into(), Toml::Array(names.iter().map(|n| Toml::Str(n.clone())).collect())),
            ("count".into(), Toml::Int(*count as i64)),
            ("seed".into(), Toml::Int(*seed as i64)),
        ]),
        ScenarioSelection::Inline { specs, count, seed } => Map::from([
            ("source".into(), Toml::Str("inline".into())),
            (
                "spec".into(),
                Toml::Array(specs.iter().map(|s| Toml::Table(scenario_spec_to_toml(s))).collect()),
            ),
            ("count".into(), Toml::Int(*count as i64)),
            ("seed".into(), Toml::Int(*seed as i64)),
        ]),
        // The resolved specs are deliberately *not* embedded: the files
        // stay the source of truth, and re-saving a loaded plan keeps
        // its link to them (validate_plans' drift gate still applies).
        ScenarioSelection::Files { files, count, seed, .. } => Map::from([
            ("source".into(), Toml::Str("files".into())),
            ("files".into(), Toml::Array(files.iter().map(|f| Toml::Str(f.clone())).collect())),
            ("count".into(), Toml::Int(*count as i64)),
            ("seed".into(), Toml::Int(*seed as i64)),
        ]),
    };

    let mut doc = Map::from([
        ("name".into(), Toml::Str(plan.name.clone())),
        ("campaign".into(), Toml::Table(campaign)),
        ("scenarios".into(), Toml::Table(scenarios)),
    ]);
    if matches!(plan.kind, CampaignKind::Random { .. }) {
        doc.insert("faults".into(), Toml::Table(fault_space_to_toml(&plan.faults)));
    }
    // Like [sim]/[submit]/[control], a default [adaptive] section is
    // omitted, not emitted as noise.
    if let CampaignKind::Adaptive { adaptive, .. } = plan.kind {
        if adaptive != AdaptiveSection::default() {
            doc.insert(
                "adaptive".into(),
                Toml::Table(Map::from([
                    ("batch".into(), Toml::Int(adaptive.batch as i64)),
                    ("max_rounds".into(), Toml::Int(i64::from(adaptive.max_rounds))),
                    ("converge_eps".into(), Toml::Float(adaptive.converge_eps)),
                ])),
            );
        }
    }
    if plan.sim != SimSection::default() {
        let sim = Map::from([
            ("planner_divisor".into(), Toml::Int(i64::from(plan.sim.planner_divisor))),
            ("kalman_fusion".into(), Toml::Bool(plan.sim.kalman_fusion)),
            ("pid_smoothing".into(), Toml::Bool(plan.sim.pid_smoothing)),
            ("watchdog".into(), Toml::Bool(plan.sim.watchdog)),
        ]);
        doc.insert("sim".into(), Toml::Table(sim));
    }
    if let Some(output) = &plan.output {
        doc.insert(
            "output".into(),
            Toml::Table(Map::from([
                ("dir".into(), Toml::Str(output.dir.clone())),
                ("shards".into(), Toml::Int(i64::from(output.shards))),
                ("checkpoint_every".into(), Toml::Int(output.checkpoint_every as i64)),
            ])),
        );
    }
    if plan.submit != SubmitSection::default() {
        doc.insert(
            "submit".into(),
            Toml::Table(Map::from([("weight".into(), Toml::Int(i64::from(plan.submit.weight)))])),
        );
    }
    if plan.control != ControlSection::default() {
        doc.insert(
            "control".into(),
            Toml::Table(Map::from([("assert".into(), Toml::Bool(plan.control.assert_survivable))])),
        );
    }
    doc
}

/// Renders a plan as a TOML document string.
pub fn emit_campaign_plan(plan: &CampaignPlan) -> String {
    emit_document(&campaign_plan_to_toml(plan))
}

fn scenarios_from_toml(
    table: &Map,
    base_dir: Option<&std::path::Path>,
) -> Result<ScenarioSelection, PlanError> {
    expect_keys(table, "[scenarios]", &["source", "count", "seed", "families", "spec", "files"])?;
    let source = as_str(get(table, "[scenarios]", "source")?, "`source`")?;
    let count64 = as_uint(get(table, "[scenarios]", "count")?, "`count`")?;
    let count = u32::try_from(count64)
        .ok()
        .filter(|c| *c > 0)
        .ok_or_else(|| PlanError::new(format!("`count` must be in 1..=2^32-1, got {count64}")))?;
    let seed = as_uint(get(table, "[scenarios]", "seed")?, "`seed`")?;
    let forbid = |key: &str| -> Result<(), PlanError> {
        if table.contains_key(key) {
            return Err(PlanError::new(format!(
                "`{key}` is only valid with the matching `source`"
            )));
        }
        Ok(())
    };
    match source {
        "paper" => {
            forbid("families")?;
            forbid("spec")?;
            forbid("files")?;
            Ok(ScenarioSelection::Paper { count, seed })
        }
        "extended" => {
            forbid("families")?;
            forbid("spec")?;
            forbid("files")?;
            Ok(ScenarioSelection::Extended { count, seed })
        }
        "families" => {
            forbid("spec")?;
            forbid("files")?;
            let names: Vec<String> =
                as_array(get(table, "[scenarios]", "families")?, "`families`")?
                    .iter()
                    .map(|n| as_str(n, "family name").map(str::to_owned))
                    .collect::<Result<_, _>>()?;
            if names.is_empty() {
                return Err(PlanError::new("`families` must not be empty".into()));
            }
            let registry = drivefi_world::FamilyRegistry::builtin();
            for name in &names {
                if registry.get(name).is_none() {
                    return Err(PlanError::new(format!(
                        "unknown scenario family `{name}` (registered: {})",
                        registry.names().collect::<Vec<_>>().join(", ")
                    )));
                }
            }
            Ok(ScenarioSelection::Families { names, count, seed })
        }
        "inline" => {
            forbid("families")?;
            forbid("files")?;
            let specs: Vec<ScenarioSpec> = as_array(get(table, "[scenarios]", "spec")?, "`spec`")?
                .iter()
                .map(|s| scenario_spec_from_toml(as_table(s, "scenario spec")?))
                .collect::<Result<_, _>>()?;
            if specs.is_empty() {
                return Err(PlanError::new("`spec` must not be empty".into()));
            }
            Ok(ScenarioSelection::Inline { specs, count, seed })
        }
        "files" => {
            forbid("families")?;
            forbid("spec")?;
            let Some(base) = base_dir else {
                return Err(PlanError::new(
                    "`source = \"files\"` needs a plan file on disk (use CampaignPlan::load)"
                        .into(),
                ));
            };
            let files: Vec<String> = as_array(get(table, "[scenarios]", "files")?, "`files`")?
                .iter()
                .map(|f| as_str(f, "spec path").map(str::to_owned))
                .collect::<Result<_, _>>()?;
            if files.is_empty() {
                return Err(PlanError::new("`files` must not be empty".into()));
            }
            let specs: Vec<ScenarioSpec> = files
                .iter()
                .map(|f| crate::scenario::load_scenario_spec(base.join(f)))
                .collect::<Result<_, _>>()?;
            Ok(ScenarioSelection::Files { files, specs, count, seed })
        }
        other => Err(PlanError::new(format!(
            "unknown scenario source `{other}` (paper, extended, families, inline, files)"
        ))),
    }
}

pub(super) fn campaign_plan_from_toml(
    doc: &Map,
    base_dir: Option<&std::path::Path>,
) -> Result<CampaignPlan, PlanError> {
    expect_keys(
        doc,
        "campaign plan",
        &[
            "name",
            "campaign",
            "scenarios",
            "adaptive",
            "faults",
            "sim",
            "output",
            "submit",
            "control",
        ],
    )?;
    let name = as_str(get(doc, "campaign plan", "name")?, "`name`")?.to_owned();

    let campaign = as_table(get(doc, "campaign plan", "campaign")?, "[campaign]")?;
    expect_keys(
        campaign,
        "[campaign]",
        &["kind", "runs", "scene_stride", "seed", "workers", "sink"],
    )?;
    let kind_name = as_str(get(campaign, "[campaign]", "kind")?, "`kind`")?;
    let stride_or_1 = || -> Result<usize, PlanError> {
        let stride = match campaign.get("scene_stride") {
            None => 1,
            Some(v) => as_uint(v, "`scene_stride`")?,
        };
        if stride == 0 {
            return Err(PlanError::new("`scene_stride` must be at least 1".into()));
        }
        Ok(stride as usize)
    };
    let mut kind = match kind_name {
        "random" => {
            if campaign.contains_key("scene_stride") {
                return Err(PlanError::new(
                    "`scene_stride` is not valid for random campaigns".into(),
                ));
            }
            let runs = as_uint(get(campaign, "[campaign]", "runs")?, "`runs`")?;
            if runs == 0 {
                return Err(PlanError::new("`runs` must be at least 1".into()));
            }
            match campaign.get("sink").map(|v| as_str(v, "`sink`")).transpose()? {
                None | Some("stats") => {}
                Some("outcomes") => {
                    return Err(PlanError::new(
                        "`sink = \"outcomes\"` is not supported: every plan runs on a store, \
                         and its report's jobs.csv lists each run's outcome (use \
                         `sink = \"stats\"` or drop the key)"
                            .into(),
                    ))
                }
                Some(other) => {
                    return Err(PlanError::new(format!("unknown sink `{other}` (stats)")))
                }
            }
            CampaignKind::Random { runs: runs as usize }
        }
        "exhaustive" => CampaignKind::Exhaustive { scene_stride: stride_or_1()? },
        "golden" => CampaignKind::Golden,
        "mine" => CampaignKind::Mine { scene_stride: stride_or_1()? },
        "adaptive" => CampaignKind::Adaptive {
            scene_stride: stride_or_1()?,
            adaptive: AdaptiveSection::default(),
        },
        other => {
            return Err(PlanError::new(format!(
                "unknown campaign kind `{other}` (random, exhaustive, golden, mine, adaptive)"
            )))
        }
    };
    // The other kinds run the suite's golden runs and the miner's
    // candidates: a budget, a sink or a fault space is rejected rather
    // than silently ignored.
    if kind_name != "random" {
        let not_valid = |what: &str| {
            PlanError::new(format!(
                "{what} is not valid for {kind_name} campaigns (only random campaigns draw \
                 their jobs from a budget and a fault space)"
            ))
        };
        let golden_only: &[&str] = if kind_name == "golden" { &["scene_stride"] } else { &[] };
        for key in ["runs", "sink"].iter().chain(golden_only) {
            if campaign.contains_key(*key) {
                return Err(not_valid(&format!("`{key}`")));
            }
        }
        if doc.contains_key("faults") {
            return Err(not_valid("a `[faults]` section"));
        }
    }
    let seed = match campaign.get("seed") {
        None => 0,
        Some(v) => as_uint(v, "`seed`")?,
    };
    let workers = match campaign.get("workers") {
        None => None,
        Some(v) => {
            let w = as_uint(v, "`workers`")?;
            if w == 0 {
                return Err(PlanError::new("`workers` must be at least 1".into()));
            }
            Some(w as usize)
        }
    };

    let scenarios = scenarios_from_toml(
        as_table(get(doc, "campaign plan", "scenarios")?, "[scenarios]")?,
        base_dir,
    )?;

    let faults = match doc.get("faults") {
        None => FaultSpace::default(),
        Some(value) => fault_space_from_toml(as_table(value, "[faults]")?)?,
    };

    match doc.get("adaptive") {
        None => {}
        Some(value) => {
            let CampaignKind::Adaptive { adaptive, .. } = &mut kind else {
                return Err(PlanError::new(
                    "an `[adaptive]` section is only valid for adaptive campaigns".into(),
                ));
            };
            *adaptive = adaptive_section_from_toml(as_table(value, "[adaptive]")?)?;
        }
    }

    let sim = match doc.get("sim") {
        None => SimSection::default(),
        Some(value) => sim_section_from_toml(as_table(value, "[sim]")?)?,
    };

    let output = match doc.get("output") {
        None => None,
        Some(value) => Some(output_spec_from_toml(as_table(value, "[output]")?)?),
    };

    let submit = match doc.get("submit") {
        None => SubmitSection::default(),
        Some(value) => submit_section_from_toml(as_table(value, "[submit]")?)?,
    };

    let control = match doc.get("control") {
        None => ControlSection::default(),
        Some(value) => control_section_from_toml(as_table(value, "[control]")?)?,
    };

    Ok(CampaignPlan { name, kind, seed, workers, scenarios, faults, sim, output, submit, control })
}

fn adaptive_section_from_toml(table: &Map) -> Result<AdaptiveSection, PlanError> {
    expect_keys(table, "[adaptive]", &["batch", "max_rounds", "converge_eps"])?;
    let default = AdaptiveSection::default();
    let batch = match table.get("batch") {
        None => default.batch,
        Some(v) => {
            let b = as_uint(v, "`batch`")?;
            if b == 0 {
                return Err(PlanError::new("`batch` must be at least 1".into()));
            }
            usize::try_from(b).map_err(|_| {
                PlanError::new(format!("`batch` does not fit this platform's usize: {b}"))
            })?
        }
    };
    let max_rounds = match table.get("max_rounds") {
        None => default.max_rounds,
        Some(v) => {
            let r = as_uint(v, "`max_rounds`")?;
            u32::try_from(r).ok().filter(|r| *r >= 1).ok_or_else(|| {
                PlanError::new(format!("`max_rounds` must be in 1..=2^32-1, got {r}"))
            })?
        }
    };
    let converge_eps = match table.get("converge_eps") {
        None => default.converge_eps,
        Some(v) => {
            let e = as_float(v, "`converge_eps`")?;
            if !e.is_finite() || e < 0.0 {
                return Err(PlanError::new(format!(
                    "`converge_eps` must be a finite value >= 0, got {e}"
                )));
            }
            e
        }
    };
    Ok(AdaptiveSection { batch, max_rounds, converge_eps })
}

fn control_section_from_toml(table: &Map) -> Result<ControlSection, PlanError> {
    expect_keys(table, "[control]", &["assert"])?;
    let assert_survivable = match table.get("assert") {
        None => ControlSection::default().assert_survivable,
        Some(v) => as_bool(v, "`assert`")?,
    };
    Ok(ControlSection { assert_survivable })
}

fn submit_section_from_toml(table: &Map) -> Result<SubmitSection, PlanError> {
    expect_keys(table, "[submit]", &["weight"])?;
    let weight = match table.get("weight") {
        None => SubmitSection::default().weight,
        Some(v) => {
            let w = as_uint(v, "`weight`")?;
            u32::try_from(w)
                .ok()
                .filter(|w| (1..=SubmitSection::MAX_WEIGHT).contains(w))
                .ok_or_else(|| {
                    PlanError::new(format!(
                        "`weight` must be in 1..={}, got {w}",
                        SubmitSection::MAX_WEIGHT
                    ))
                })?
        }
    };
    Ok(SubmitSection { weight })
}

fn sim_section_from_toml(table: &Map) -> Result<SimSection, PlanError> {
    expect_keys(
        table,
        "[sim]",
        &["planner_divisor", "kalman_fusion", "pid_smoothing", "watchdog"],
    )?;
    let default = SimSection::default();
    let planner_divisor = match table.get("planner_divisor") {
        None => default.planner_divisor,
        Some(v) => {
            let d = as_uint(v, "`planner_divisor`")?;
            u32::try_from(d).ok().filter(|d| *d >= 1).ok_or_else(|| {
                PlanError::new(format!("`planner_divisor` must be in 1..=2^32-1, got {d}"))
            })?
        }
    };
    let bool_or = |key: &str, fallback: bool| -> Result<bool, PlanError> {
        match table.get(key) {
            None => Ok(fallback),
            Some(v) => as_bool(v, &format!("`{key}`")),
        }
    };
    Ok(SimSection {
        planner_divisor,
        kalman_fusion: bool_or("kalman_fusion", default.kalman_fusion)?,
        pid_smoothing: bool_or("pid_smoothing", default.pid_smoothing)?,
        watchdog: bool_or("watchdog", default.watchdog)?,
    })
}

fn output_spec_from_toml(table: &Map) -> Result<OutputSpec, PlanError> {
    expect_keys(table, "[output]", &["dir", "shards", "checkpoint_every"])?;
    let dir = as_str(get(table, "[output]", "dir")?, "`dir`")?.to_owned();
    if dir.is_empty() {
        return Err(PlanError::new("`dir` must not be empty".into()));
    }
    let shards = match table.get("shards") {
        None => OutputSpec::DEFAULT_SHARDS,
        Some(v) => {
            let s = as_uint(v, "`shards`")?;
            u32::try_from(s).ok().filter(|s| (1..=MAX_SHARDS).contains(s)).ok_or_else(|| {
                PlanError::new(format!("`shards` must be in 1..={MAX_SHARDS}, got {s}"))
            })?
        }
    };
    let checkpoint_every = match table.get("checkpoint_every") {
        None => OutputSpec::DEFAULT_CHECKPOINT_EVERY,
        Some(v) => {
            let c = as_uint(v, "`checkpoint_every`")?;
            if c == 0 {
                return Err(PlanError::new("`checkpoint_every` must be at least 1".into()));
            }
            c
        }
    };
    Ok(OutputSpec { dir, shards, checkpoint_every })
}

/// Parses a plan from TOML text. File-based scenario sources
/// (`source = "files"`) are rejected here — use [`CampaignPlan::load`]
/// so relative spec paths have a base directory.
///
/// # Errors
///
/// Returns a [`PlanError`] on syntax errors or schema violations.
pub fn parse_campaign_plan(src: &str) -> Result<CampaignPlan, PlanError> {
    campaign_plan_from_toml(&parse_document(src)?, None)
}
