//! Module-health watchdog with a fallback controlled stop.
//!
//! The paper's random architectural-state campaign found that 7.35 % of
//! injections ended in kernel panics and hangs, and notes that "recovery
//! from such faults can be done with the backup/redundant systems that
//! are present in AVs today" (§I). This module implements that backup
//! system at the ADS level: every pipeline module publishes a heartbeat
//! (its [`crate::Bus::heartbeats`] counter); the watchdog declares a
//! module *hung* when its heartbeat goes stale past a deadline, and
//! *crashed* when it publishes non-finite outputs. Either way the
//! watchdog latches into **fallback**: it overrides the published
//! actuation with a minimal-risk controlled stop (steady braking, decay
//! steering to neutral) — the drive-by-wire safety path of a production
//! vehicle.

use crate::bus::{Bus, Stage};
use drivefi_kinematics::Actuation;

/// Why the watchdog engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogTrigger {
    /// A module's heartbeat went stale: no publication for longer than
    /// the deadline.
    Hang(Stage),
    /// A module published a non-finite value (NaN/∞) — a crash symptom.
    Crash(Stage),
}

/// Watchdog configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Deadline in base ticks: a stage with no publication for more than
    /// this many ticks is declared hung. Must exceed the slowest healthy
    /// publication interval (the planner divisor).
    pub deadline_ticks: u64,
    /// Brake command held during the fallback stop (fraction of full
    /// braking — a minimal-risk stop is firm but not a panic stop).
    pub fallback_brake: f64,
    /// Per-tick decay factor applied to the steering command during
    /// fallback, easing the vehicle straight.
    pub steer_decay: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig { deadline_ticks: 15, fallback_brake: 0.45, steer_decay: 0.85 }
    }
}

/// The watchdog: monitors heartbeats and output sanity; latches into a
/// fallback controlled stop when a module hangs or crashes.
///
/// # Example
///
/// ```
/// use drivefi_ads::{Bus, Stage, Watchdog, WatchdogConfig};
///
/// let mut dog = Watchdog::new(WatchdogConfig::default());
/// let mut bus = Bus::default();
/// for frame in 0..30 {
///     for s in Stage::ALL {
///         bus.heartbeats[s.index()] += 1; // healthy modules publish
///     }
///     dog.observe(frame, &bus);
/// }
/// assert!(!dog.is_fallback());
/// ```
#[derive(Debug, Clone)]
pub struct Watchdog {
    config: WatchdogConfig,
    last_beat: Option<[u64; 5]>,
    last_change: [u64; 5],
    trigger: Option<WatchdogTrigger>,
    engaged_at: u64,
    fallback_steer: f64,
}

impl Watchdog {
    /// Creates a watchdog.
    pub fn new(config: WatchdogConfig) -> Self {
        Watchdog {
            config,
            last_beat: None,
            last_change: [0; 5],
            trigger: None,
            engaged_at: 0,
            fallback_steer: 0.0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// True once the watchdog has latched into fallback.
    pub fn is_fallback(&self) -> bool {
        self.trigger.is_some()
    }

    /// What tripped the watchdog, if anything.
    pub fn trigger(&self) -> Option<WatchdogTrigger> {
        self.trigger
    }

    /// The frame at which fallback engaged (meaningful only when
    /// [`Watchdog::is_fallback`]).
    pub fn engaged_at(&self) -> u64 {
        self.engaged_at
    }

    fn engage(&mut self, trigger: WatchdogTrigger, frame: u64, bus: &Bus) {
        if self.trigger.is_none() {
            self.trigger = Some(trigger);
            self.engaged_at = frame;
            let steer = bus.final_cmd.steering;
            self.fallback_steer = if steer.is_finite() { steer } else { 0.0 };
        }
    }

    /// Checks crash symptoms: non-finite values in module outputs.
    fn crashed_stage(bus: &Bus) -> Option<Stage> {
        if !bus.pose.is_finite() {
            return Some(Stage::Localization);
        }
        if bus
            .world_model
            .objects
            .iter()
            .any(|o| !(o.position.x.is_finite() && o.position.y.is_finite()))
        {
            return Some(Stage::Perception);
        }
        if !bus.raw_cmd.is_finite() {
            return Some(Stage::Planning);
        }
        if !bus.final_cmd.is_finite() {
            return Some(Stage::Control);
        }
        None
    }

    /// Observes the bus at the end of a tick. Once a hang or crash is
    /// detected the watchdog latches (real safety paths require a manual
    /// reset).
    pub fn observe(&mut self, frame: u64, bus: &Bus) {
        if self.trigger.is_some() {
            return;
        }
        if let Some(stage) = Self::crashed_stage(bus) {
            self.engage(WatchdogTrigger::Crash(stage), frame, bus);
            return;
        }
        match &mut self.last_beat {
            None => {
                self.last_beat = Some(bus.heartbeats);
                self.last_change = [frame; 5];
            }
            Some(prev) => {
                for stage in Stage::ALL {
                    let i = stage.index();
                    if bus.heartbeats[i] != prev[i] {
                        self.last_change[i] = frame;
                    } else if frame - self.last_change[i] > self.config.deadline_ticks {
                        self.engage(WatchdogTrigger::Hang(stage), frame, bus);
                        return;
                    }
                }
                self.last_beat = Some(bus.heartbeats);
            }
        }
    }

    /// The minimal-risk actuation for this tick while in fallback:
    /// throttle released, firm braking, steering decayed toward neutral.
    /// Returns `published` unchanged when the watchdog is nominal.
    pub fn command(&mut self, published: Actuation) -> Actuation {
        if self.trigger.is_none() {
            return published;
        }
        self.fallback_steer *= self.config.steer_decay;
        Actuation {
            throttle: 0.0,
            brake: self.config.fallback_brake,
            steering: self.fallback_steer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy_bus(frame: u64) -> Bus {
        let mut bus = Bus::default();
        for s in Stage::ALL {
            bus.heartbeats[s.index()] = frame + 1;
        }
        bus
    }

    #[test]
    fn nominal_on_steady_heartbeats() {
        let mut dog = Watchdog::new(WatchdogConfig::default());
        for frame in 0..100 {
            dog.observe(frame, &healthy_bus(frame));
        }
        assert!(!dog.is_fallback());
        let act = Actuation { throttle: 0.3, brake: 0.0, steering: 0.01 };
        assert_eq!(dog.command(act), act);
    }

    #[test]
    fn slow_but_alive_module_is_tolerated() {
        // A planner on a divisor publishes every 10 ticks — within the
        // 15-tick deadline.
        let mut dog = Watchdog::new(WatchdogConfig::default());
        let mut bus = Bus::default();
        for frame in 0..200u64 {
            for s in Stage::ALL {
                if s == Stage::Planning {
                    if frame % 10 == 0 {
                        bus.heartbeats[s.index()] += 1;
                    }
                } else {
                    bus.heartbeats[s.index()] += 1;
                }
            }
            dog.observe(frame, &bus);
        }
        assert!(!dog.is_fallback());
    }

    #[test]
    fn hang_is_detected_after_deadline() {
        let mut dog = Watchdog::new(WatchdogConfig::default());
        let mut bus = Bus::default();
        let hang_at = 50u64;
        let mut engaged_frame = None;
        for frame in 0..120u64 {
            for s in Stage::ALL {
                if s == Stage::Planning && frame >= hang_at {
                    continue; // hung: stops publishing
                }
                bus.heartbeats[s.index()] += 1;
            }
            dog.observe(frame, &bus);
            if dog.is_fallback() && engaged_frame.is_none() {
                engaged_frame = Some(frame);
            }
        }
        assert_eq!(dog.trigger(), Some(WatchdogTrigger::Hang(Stage::Planning)));
        // Engages one past the deadline after the last publication.
        let engaged = engaged_frame.unwrap();
        assert!(
            engaged >= hang_at + 15 && engaged <= hang_at + 17,
            "engaged at {engaged}, hang at {hang_at}"
        );
    }

    #[test]
    fn nan_command_is_a_crash() {
        let mut dog = Watchdog::new(WatchdogConfig::default());
        let mut bus = healthy_bus(0);
        bus.final_cmd.throttle = f64::NAN;
        dog.observe(0, &bus);
        assert_eq!(dog.trigger(), Some(WatchdogTrigger::Crash(Stage::Control)));
    }

    #[test]
    fn nan_pose_is_a_localization_crash() {
        let mut dog = Watchdog::new(WatchdogConfig::default());
        let mut bus = healthy_bus(0);
        bus.pose.x = f64::INFINITY;
        dog.observe(0, &bus);
        assert_eq!(dog.trigger(), Some(WatchdogTrigger::Crash(Stage::Localization)));
    }

    #[test]
    fn fallback_command_is_a_controlled_stop() {
        let mut dog = Watchdog::new(WatchdogConfig::default());
        let mut bus = healthy_bus(0);
        bus.final_cmd = Actuation { throttle: 0.6, brake: 0.0, steering: 0.1 };
        bus.raw_cmd.throttle = f64::NAN;
        dog.observe(0, &bus);
        assert!(dog.is_fallback());
        let a1 = dog.command(bus.final_cmd);
        assert_eq!(a1.throttle, 0.0);
        assert!(a1.brake > 0.3);
        assert!(a1.steering.abs() < 0.1, "steering decays from the last command");
        let a2 = dog.command(bus.final_cmd);
        assert!(a2.steering.abs() < a1.steering.abs(), "steering keeps decaying");
    }

    #[test]
    fn watchdog_latches() {
        let mut dog = Watchdog::new(WatchdogConfig::default());
        let mut bus = healthy_bus(0);
        bus.raw_cmd.brake = f64::NAN;
        dog.observe(0, &bus);
        assert!(dog.is_fallback());
        // Healthy observations afterwards do not clear it.
        for frame in 1..50 {
            dog.observe(frame, &healthy_bus(frame));
        }
        assert!(dog.is_fallback());
        assert_eq!(dog.engaged_at(), 0);
    }
}
