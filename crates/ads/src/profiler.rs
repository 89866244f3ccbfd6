//! A per-stage tick profiler for the simulation hot path.
//!
//! The profiler attributes wall-clock time to the pipeline stages of a
//! simulation tick (sensing, localization, perception, planning,
//! control, vehicle dynamics, world sweep, scene evaluation). It is
//! **off by default** and costs a single cached branch per probe when
//! disabled, so the instrumentation can live permanently in the hot
//! loop. Enable it with the environment variable `DRIVEFI_PROFILE=1`
//! (or programmatically with [`enable`]) and read the accumulated
//! numbers with [`report`]; [`emit_json`] appends one JSONL line per
//! stage to the file named by `DRIVEFI_BENCH_JSON`, the same channel
//! the bench harness uses.
//!
//! Counters are global atomics: campaign worker threads all accumulate
//! into the same table, so a whole campaign profiles with zero plumbing.
//! The accounting is additive nanoseconds per stage — cross-stage
//! ordering is not recorded, which is exactly enough to answer "where
//! does the tick time go".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One profiled phase of a simulation tick.
///
/// The first five mirror the ADS pipeline stages on the bus; the rest
/// cover the simulation work around the stack (ego dynamics, the world
/// actor sweep, scene-rate evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum TickPhase {
    /// Sensor sampling (`SensorSuite::sample_into`).
    Sense,
    /// Pose estimation + plausibility gate.
    Localization,
    /// Detection transform + tracker fusion.
    Perception,
    /// Planner recompute (skipped ticks still count the probe).
    Planning,
    /// Actuation smoothing, envelope clamp, watchdog.
    Control,
    /// Ego vehicle dynamics integration.
    Vehicle,
    /// World actor sweep (`World::step`).
    World,
    /// Scene-rate outcome evaluation.
    Eval,
}

impl TickPhase {
    /// Every phase, in pipeline order.
    pub const ALL: [TickPhase; 8] = [
        TickPhase::Sense,
        TickPhase::Localization,
        TickPhase::Perception,
        TickPhase::Planning,
        TickPhase::Control,
        TickPhase::Vehicle,
        TickPhase::World,
        TickPhase::Eval,
    ];

    /// Stable lowercase name (used as the JSON `id`).
    pub fn name(self) -> &'static str {
        match self {
            TickPhase::Sense => "sense",
            TickPhase::Localization => "localization",
            TickPhase::Perception => "perception",
            TickPhase::Planning => "planning",
            TickPhase::Control => "control",
            TickPhase::Vehicle => "vehicle",
            TickPhase::World => "world",
            TickPhase::Eval => "eval",
        }
    }
}

const PHASES: usize = TickPhase::ALL.len();

static TOTAL_NS: [AtomicU64; PHASES] = [const { AtomicU64::new(0) }; PHASES];
static SAMPLES: [AtomicU64; PHASES] = [const { AtomicU64::new(0) }; PHASES];
static ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether profiling is active. Resolved once, from `DRIVEFI_PROFILE`
/// (any value other than `0` enables) unless [`enable`] ran first.
#[inline]
pub fn enabled() -> bool {
    *ENABLED.get_or_init(|| std::env::var_os("DRIVEFI_PROFILE").is_some_and(|v| v != "0"))
}

/// Forces profiling on for this process, regardless of the environment.
/// Must run before the first probe resolves [`enabled`] (benches call it
/// first thing); afterwards it has no effect.
pub fn enable() {
    let _ = ENABLED.set(true);
}

/// Starts timing a phase. Returns `None` (one cached branch, no clock
/// read) when profiling is disabled.
#[inline]
pub fn start() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Accumulates the elapsed time since [`start`] under `phase`. A `None`
/// token (profiling disabled) is a no-op.
#[inline]
pub fn record(phase: TickPhase, start: Option<Instant>) {
    if let Some(t0) = start {
        let ns = t0.elapsed().as_nanos() as u64;
        TOTAL_NS[phase as usize].fetch_add(ns, Ordering::Relaxed);
        SAMPLES[phase as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Accumulated numbers for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseReport {
    /// Which phase.
    pub phase: TickPhase,
    /// Total accumulated nanoseconds.
    pub total_ns: u64,
    /// Number of recorded probes.
    pub samples: u64,
}

impl PhaseReport {
    /// Mean nanoseconds per probe (0 when nothing was recorded).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.samples).unwrap_or(0)
    }
}

/// Snapshot of all phase accumulators, in pipeline order.
pub fn report() -> [PhaseReport; PHASES] {
    std::array::from_fn(|i| PhaseReport {
        phase: TickPhase::ALL[i],
        total_ns: TOTAL_NS[i].load(Ordering::Relaxed),
        samples: SAMPLES[i].load(Ordering::Relaxed),
    })
}

/// Clears all accumulators (e.g. between bench arms).
pub fn reset() {
    for i in 0..PHASES {
        TOTAL_NS[i].store(0, Ordering::Relaxed);
        SAMPLES[i].store(0, Ordering::Relaxed);
    }
}

/// Appends one JSONL record per recorded phase to the file named by
/// `DRIVEFI_BENCH_JSON`, using the bench harness's schema
/// (`group`/`id`/`mean_ns`), with the accumulated totals under
/// `total_ns`/`samples`. No-op when profiling is disabled, nothing was
/// recorded, or the variable is unset.
pub fn emit_json(group: &str) {
    use std::io::Write;

    let Some(path) = std::env::var_os("DRIVEFI_BENCH_JSON") else { return };
    let rows: Vec<PhaseReport> = report().into_iter().filter(|r| r.samples > 0).collect();
    if rows.is_empty() {
        return;
    }
    let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(path) else {
        return;
    };
    for r in rows {
        let _ = writeln!(
            file,
            concat!(
                "{{\"group\":\"{}\",\"id\":\"{}\",\"mean_ns\":{},",
                "\"total_ns\":{},\"samples\":{}}}"
            ),
            group,
            r.phase.name(),
            r.mean_ns(),
            r.total_ns,
            r.samples,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_is_inert_and_report_consistent() {
        // `enabled()` may already be forced on by another test binary
        // sharing the process — exercise both paths without asserting
        // the environment.
        let t = start();
        record(TickPhase::Sense, t);
        let rep = report();
        let sense = rep[TickPhase::Sense as usize];
        assert_eq!(sense.phase, TickPhase::Sense);
        if t.is_none() {
            assert_eq!(sense.samples, 0);
            assert_eq!(sense.mean_ns(), 0);
        } else {
            assert!(sense.samples > 0);
        }
    }

    #[test]
    fn phase_names_are_unique() {
        let names: Vec<&str> = TickPhase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
