//! **E7 — Natural-resilience ablation** (paper §II-C): the paper credits
//! the ADS's masking of random transients to (a) high-frequency
//! recomputation, (b) Kalman-filter sensor fusion, and (c) PID output
//! smoothing. Ablating each mechanism should raise the hazard rate of
//! the *same* random transient campaign — one random plan per `[sim]`
//! ablation, run through [`run_plan`].
//!
//! ```text
//! cargo run --release -p drivefi-bench --bin exp_e7 [runs]
//! ```

use drivefi_plan::{
    run_plan, CampaignKind, CampaignPlan, PlanResult, ScenarioSelection, SimSection,
};

fn main() {
    let runs: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(600);
    let full = SimSection::default();
    let configs: [(&str, SimSection); 4] = [
        ("full stack (paper baseline)", full),
        ("no Kalman fusion", SimSection { kalman_fusion: false, ..full }),
        ("no PID smoothing", SimSection { pid_smoothing: false, ..full }),
        ("planner at 1/8 rate", SimSection { planner_divisor: 8, ..full }),
    ];

    println!("E7: hazard rate of {runs} random single-scene corruptions per configuration");
    println!();
    println!("| configuration                | hazards | collisions | rate    |");
    println!("|------------------------------|---------|------------|---------|");
    let mut rates = Vec::new();
    for (name, sim) in configs {
        let plan = CampaignPlan {
            name: "exp-e7".into(),
            kind: CampaignKind::Random { runs },
            seed: 0xE7,
            workers: None,
            scenarios: ScenarioSelection::Paper { count: 24, seed: 2026 },
            faults: Default::default(),
            sim,
            output: None,
            submit: Default::default(),
            control: Default::default(),
        };
        let PlanResult::Persisted(report) = run_plan(&plan).unwrap_or_else(|e| panic!("{e}"));
        println!(
            "| {name:28} | {:7} | {:10} | {:6.2}% |",
            report.hazards(),
            report.collisions(),
            100.0 * report.hazard_rate()
        );
        rates.push((name, report.hazard_rate()));
    }
    println!();
    let baseline = rates[0].1;
    let raised = rates[1..].iter().filter(|(_, r)| *r >= baseline).count();
    println!(
        "ablations with hazard rate >= full stack: {raised}/3 \
         (paper shape: every masking mechanism removed should weaken resilience)"
    );
}
