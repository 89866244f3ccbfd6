//! Campaign observability: an append-only `events.jsonl` lifecycle log
//! written beside each campaign store's manifest.
//!
//! Everything in this crate is strictly *derived* telemetry: enabling
//! or disabling observability never changes what a campaign computes,
//! which jobs run, or a single byte of `report.toml` / `jobs.csv`.
//! Emission is best-effort — an unwritable events file degrades to
//! silence, never to a campaign error — and readers tolerate torn
//! tails left by crashed writers.
//!
//! Observability is off by default and switched on with the
//! `DRIVEFI_OBS` environment variable (any value other than `0` or
//! empty), or programmatically via [`force_enabled`] (used by tests,
//! where environment mutation races across threads).

pub mod events;

pub use events::{emit_event, read_events, Event, EventLog, Field, EVENTS_FILE};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable that switches observability on.
pub const OBS_ENV: &str = "DRIVEFI_OBS";

// 0 = follow the environment, 1 = forced off, 2 = forced on.
static FORCE: AtomicU8 = AtomicU8::new(0);

fn env_enabled() -> bool {
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| match std::env::var(OBS_ENV) {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    })
}

/// Whether observability is currently enabled.
///
/// Cheap enough to call on every emission site: one relaxed atomic
/// load, plus a cached environment probe on the first call.
pub fn enabled() -> bool {
    match FORCE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => env_enabled(),
    }
}

/// Overrides the `DRIVEFI_OBS` environment probe for this process.
///
/// Tests use this instead of `std::env::set_var`, which races against
/// parallel test threads reading the environment.
pub fn force_enabled(on: bool) {
    FORCE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Drops any [`force_enabled`] override, reverting to the environment.
pub fn clear_force() {
    FORCE.store(0, Ordering::Relaxed);
}

/// Serializes unit tests that flip the process-global [`force_enabled`]
/// override.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Milliseconds since the Unix epoch (wall clock, for humans).
pub(crate) fn wall_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Milliseconds since this process first touched the observability
/// layer (monotonic, for intervals).
pub(crate) fn mono_ms() -> u64 {
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed().as_millis() as u64
}
