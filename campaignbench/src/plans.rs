//! The workloads, and the campaign plans each one generates from its
//! seed. The seed picks the scenario suite and the campaign seed; the
//! program only ever sees the plan files written here.

use drivefi_plan::{round_dirs, CampaignKind, CampaignPlan, GOLDEN_SUBDIR};
use std::path::{Path, PathBuf};

/// One benchmark workload. Each is a closed loop: one caller waits on
/// one campaign, or one daemon drains two submissions.
///
/// `BENCHMARK.json` gates only paper_mine and exhaustive_sweep, the
/// paper's inference mechanism and its bypass: on a 2-CPU shared host
/// its time budget buys 50-second runs for two workloads, while four got
/// 25 seconds each and spread too widely. The other two run by hand,
/// traced or not, like any workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `kind = "mine"` over the paper suite: golden → fit → mine →
    /// validate, dominated by counterfactual inference.
    PaperMine,
    /// `kind = "exhaustive"` on the same suite and stride: injects every
    /// candidate paper_mine screens; the BN does nothing beyond the fit.
    ExhaustiveSweep,
    /// `kind = "adaptive"` with many small rounds and no convergence
    /// stop: acquisition scoring plus the fixed cost of a stage.
    AdaptiveRounds,
    /// A random sweep and a small mine pipeline drained by one serve
    /// daemon in small slices: resume-heavy, read-heavy store use.
    ServedMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperMine,
        Workload::ExhaustiveSweep,
        Workload::AdaptiveRounds,
        Workload::ServedMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMine => "paper_mine",
            Workload::ExhaustiveSweep => "exhaustive_sweep",
            Workload::AdaptiveRounds => "adaptive_rounds",
            Workload::ServedMixed => "served_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload whose candidate set is the same as this one's, for
    /// the paper-fidelity comparison (recall and acceleration).
    pub fn companion(self) -> Option<Workload> {
        match self {
            Workload::PaperMine => Some(Workload::ExhaustiveSweep),
            Workload::ExhaustiveSweep => Some(Workload::PaperMine),
            _ => None,
        }
    }
}

/// Campaign size: `Full` is what the benchmark measures, `Tiny` a
/// seconds-long version of the same plans for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Serve campaign id of a plan name (the daemon's slug of it).
const SWEEP_NAME: &str = "served-sweep";
const SERVED_MINE_NAME: &str = "served-mine";
/// Serve root inside a run directory.
pub const SERVE_ROOT: &str = "serve";
/// Pipeline output store inside a run directory.
pub const OUTPUT: &str = "out";

/// One plan file of a workload.
#[derive(Debug, Clone)]
pub struct PlanFile {
    pub path: PathBuf,
    /// The plan as the program parses it.
    pub plan: CampaignPlan,
}

/// The generated plans of one workload and seed.
#[derive(Debug, Clone)]
pub struct Plans {
    pub workload: Workload,
    pub files: Vec<PlanFile>,
    /// Serve slice, in pending jobs per weight unit (served_mixed).
    pub slice: u64,
}

impl Plans {
    /// Writes the workload's plans into `dir`; their stores land in
    /// `run_dir` (`out/` for one campaign, `serve/` for the daemon).
    pub fn write(
        workload: Workload,
        seed: u64,
        scale: Scale,
        dir: &Path,
        run_dir: &Path,
    ) -> Result<Plans, String> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let tiny = scale == Scale::Tiny;
        let out = run_dir.join(OUTPUT);
        let texts: Vec<(&str, String)> = match workload {
            Workload::PaperMine | Workload::ExhaustiveSweep => {
                let (count, stride) = if tiny { (2, 64) } else { (24, 64) };
                let kind = match workload {
                    Workload::PaperMine => format!("kind = \"mine\"\nseed = {seed}"),
                    _ => "kind = \"exhaustive\"".to_string(),
                };
                let name = workload.name().replace('_', "-");
                vec![(
                    workload.name(),
                    format!(
                        "name = \"{name}\"\n\n[campaign]\n{kind}\nscene_stride = {stride}\n\
                         workers = {workers}\n\n{}\n{}",
                        scenarios(count, seed),
                        output(&out, 4, 64)
                    ),
                )]
            }
            Workload::AdaptiveRounds => {
                let (count, stride, batch, rounds) =
                    if tiny { (2, 64, 4, 3) } else { (24, 128, 8, 96) };
                vec![(
                    workload.name(),
                    format!(
                        "name = \"adaptive-rounds\"\n\n[campaign]\nkind = \"adaptive\"\n\
                         scene_stride = {stride}\nseed = {seed}\nworkers = {workers}\n\n\
                         [adaptive]\nbatch = {batch}\nmax_rounds = {rounds}\nconverge_eps = 0.0\n\n\
                         {}\n{}",
                        scenarios(count, seed),
                        output(&out, 2, 16)
                    ),
                )]
            }
            Workload::ServedMixed => {
                let (runs, count, stride) = if tiny { (48, 2, 100) } else { (1200, 6, 25) };
                // The [output] sections only carry shards and checkpoint
                // period: the daemon puts every store under its root.
                vec![
                    (
                        SWEEP_NAME,
                        format!(
                            "name = \"{SWEEP_NAME}\"\n\n[campaign]\nkind = \"random\"\nruns = {runs}\n\
                             seed = {seed}\nsink = \"stats\"\nworkers = {workers}\n\n{}\n\
                             [faults]\nsignals = \"all\"\nmodels = [\"min\", \"max\"]\nmodules = []\n\
                             first_scene = 1\ntail_margin = 1\nwindow_scenes = 1\n\n{}\n\
                             [submit]\nweight = 2\n",
                            scenarios(count, seed),
                            output(Path::new("served"), 4, 8)
                        ),
                    ),
                    (
                        SERVED_MINE_NAME,
                        format!(
                            "name = \"{SERVED_MINE_NAME}\"\n\n[campaign]\nkind = \"mine\"\n\
                             scene_stride = {stride}\nseed = {seed}\nworkers = {workers}\n\n{}\n{}",
                            scenarios(2, seed),
                            output(Path::new("served"), 2, 16)
                        ),
                    ),
                ]
            }
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut files = Vec::new();
        for (stem, text) in texts {
            let path = dir.join(format!("{stem}.toml"));
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
            let plan = CampaignPlan::load(&path).map_err(|e| e.to_string())?;
            files.push(PlanFile { path, plan });
        }
        Ok(Plans { workload, files, slice: 16 })
    }

    /// The store root each plan's final report lands in, for a run in
    /// `run_dir`.
    pub fn store_roots(&self, run_dir: &Path) -> Vec<PathBuf> {
        match self.workload {
            Workload::ServedMixed => self
                .files
                .iter()
                .map(|f| {
                    run_dir
                        .join(SERVE_ROOT)
                        .join(drivefi_serve::CAMPAIGNS_DIR)
                        .join(&f.plan.name)
                        .join(drivefi_serve::scheduler::STORE_DIR)
                })
                .collect(),
            _ => vec![run_dir.join(OUTPUT)],
        }
    }

    /// The plan that fits and queries the BN, with its store root: the
    /// one campaign of a pipeline workload, the mine campaign when
    /// served.
    pub fn inference(&self, run_dir: &Path) -> (&CampaignPlan, PathBuf) {
        let index = self
            .files
            .iter()
            .position(|f| f.plan.kind.is_staged())
            .expect("every workload has a staged campaign");
        (&self.files[index].plan, self.store_roots(run_dir).swap_remove(index))
    }
}

fn scenarios(count: u32, seed: u64) -> String {
    format!("[scenarios]\nsource = \"paper\"\ncount = {count}\nseed = {seed}\n")
}

fn output(dir: &Path, shards: u32, checkpoint_every: u64) -> String {
    let dir = dir.display().to_string().replace('\\', "\\\\").replace('"', "\\\"");
    format!("[output]\ndir = \"{dir}\"\nshards = {shards}\ncheckpoint_every = {checkpoint_every}\n")
}

/// The miner's scene stride of a staged plan.
pub fn scene_stride(plan: &CampaignPlan) -> usize {
    match plan.kind {
        CampaignKind::Mine { scene_stride }
        | CampaignKind::Exhaustive { scene_stride }
        | CampaignKind::Adaptive { scene_stride, .. } => scene_stride,
        CampaignKind::Random { .. } | CampaignKind::Golden => 1,
    }
}

/// Every stage store of a plan under its store root, golden first, each
/// flagged true when it is an injection stage.
pub fn stage_dirs(plan: &CampaignPlan, root: &Path) -> Vec<(PathBuf, bool)> {
    match plan.kind.store_subdir() {
        Some(subdir) => vec![(root.join(GOLDEN_SUBDIR), false), (root.join(subdir), true)],
        None if plan.kind.is_staged() => std::iter::once((root.join(GOLDEN_SUBDIR), false))
            .chain(round_dirs(root).into_iter().map(|d| (d, true)))
            .collect(),
        None => vec![(root.to_path_buf(), true)],
    }
}
