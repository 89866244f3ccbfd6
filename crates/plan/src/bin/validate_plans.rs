//! CI gate: every shipped `.toml` under `plans/` must parse, and every
//! scenario-spec file whose name matches a builtin family must parse to
//! *exactly* the registered spec (so the shipped files never drift from
//! the compiled-in families).
//!
//! ```text
//! cargo run --release -p drivefi-plan --bin validate_plans [plans_dir]
//! ```
//!
//! Exits non-zero on the first invalid file. Files directly under the
//! root and under `paper/` are campaign plans; files under `scenarios/`
//! are scenario specs.

use drivefi_plan::{emit_scenario_spec, load_scenario_spec, CampaignPlan};
use drivefi_world::FamilyRegistry;
use std::path::Path;

fn toml_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("directory entry").path();
            (path.extension().is_some_and(|e| e == "toml")).then_some(path)
        })
        .collect();
    files.sort();
    files
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "plans".into());
    let dir = Path::new(&dir);
    let mut checked = 0;

    let paper_dir = dir.join("paper");
    let paper = if paper_dir.is_dir() { toml_files(&paper_dir) } else { Vec::new() };
    for path in toml_files(dir).into_iter().chain(paper) {
        let plan = match CampaignPlan::load(&path) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("INVALID plan {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let suite = plan.scenarios.build_suite();
        println!(
            "ok plan     {} ({:?}, {} scenarios, {} fault kinds)",
            path.display(),
            plan.kind,
            suite.scenarios.len(),
            plan.faults.kind_count()
        );
        checked += 1;
    }

    let scenario_dir = dir.join("scenarios");
    if scenario_dir.is_dir() {
        let registry = FamilyRegistry::builtin();
        for path in toml_files(&scenario_dir) {
            let spec = match load_scenario_spec(&path) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("INVALID scenario spec {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            // A file named after a builtin family must match it exactly.
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
            if let Some(builtin) = registry.get(stem) {
                if &spec != builtin {
                    eprintln!(
                        "DRIFT: {} no longer matches the registered `{stem}` family.\n\
                         Regenerate it with emit_scenario_spec; expected:\n{}",
                        path.display(),
                        emit_scenario_spec(builtin)
                    );
                    std::process::exit(1);
                }
            }
            let sampled = spec.sample(0, 2026);
            println!(
                "ok scenario {} (`{}`, {} actors at seed 2026)",
                path.display(),
                spec.name,
                sampled.actors.len()
            );
            checked += 1;
        }
    }

    if checked == 0 {
        eprintln!("no .toml files found under {}", dir.display());
        std::process::exit(1);
    }
    println!("{checked} plan files valid");
}
