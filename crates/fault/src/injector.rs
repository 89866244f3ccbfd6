//! The bus-level injector.

use crate::model::{Fault, FaultKind};
use drivefi_ads::{Bus, BusInterceptor, Stage};
use drivefi_perception::WorldModel;

/// Applies a set of faults to the ADS bus at the right stages and frames.
/// This is the "DriveFI Injector" box of the paper's Fig. 1.
#[derive(Debug, Clone, Default)]
pub struct Injector {
    faults: Vec<Fault>,
    frozen_model: Option<(WorldModel, u64)>,
    hung_stages: Vec<(Stage, Bus)>,
    injections: u64,
    changed_bus: bool,
}

impl Injector {
    /// Creates an injector armed with `faults`.
    pub fn new(faults: Vec<Fault>) -> Self {
        Injector {
            faults,
            frozen_model: None,
            hung_stages: Vec::new(),
            injections: 0,
            changed_bus: false,
        }
    }

    /// The armed faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of individual corruptions performed so far.
    pub fn injection_count(&self) -> u64 {
        self.injections
    }

    /// Whether any corruption so far changed a bit on the bus. While it
    /// is false the run is bit-identical to the unfaulted one, so from
    /// [`Injector::quiet_from`] on the rest of the run is the unfaulted
    /// run's. Scalar writes are compared bit for bit and clearing an
    /// empty world model changes nothing; a replayed hang or freeze
    /// counts as a change whenever it is applied.
    pub fn changed_bus(&self) -> bool {
        self.changed_bus
    }

    /// The first frame on which none of the armed faults can act any
    /// more (`u64::MAX` if one is permanent; 0 with no faults).
    pub fn quiet_from(&self) -> u64 {
        self.faults
            .iter()
            .map(|f| f.window.start_frame.saturating_add(f.window.frames))
            .max()
            .unwrap_or(0)
    }
}

impl BusInterceptor for Injector {
    fn intercept(&mut self, stage: Stage, frame: u64, bus: &mut Bus) {
        for fault in &self.faults {
            if fault.kind.stage() != stage {
                continue;
            }
            // Freeze capture: remember the model on the frame *before*
            // activation so the replayed perception is stale.
            if let FaultKind::FreezeWorldModel = fault.kind {
                if !fault.window.active(frame) && fault.window.active(frame + 1) {
                    self.frozen_model = Some((bus.world_model.clone(), frame));
                }
            }
            // Hang capture: the last outputs published before the hang.
            if let FaultKind::ModuleHang { stage } = fault.kind {
                if !fault.window.active(frame) && fault.window.active(frame + 1) {
                    self.hung_stages.retain(|(s, _)| *s != stage);
                    self.hung_stages.push((stage, bus.clone()));
                }
            }
            if !fault.window.active(frame) {
                continue;
            }
            match fault.kind {
                FaultKind::Scalar { signal, model } => {
                    if let Some(current) = signal.read(bus) {
                        let corrupted = model.apply(current, signal.range());
                        self.changed_bus |= signal.write(bus, corrupted);
                        self.injections += 1;
                    }
                }
                FaultKind::ClearWorldModel => {
                    self.changed_bus |= !bus.world_model.objects.is_empty();
                    bus.world_model.objects.clear();
                    self.injections += 1;
                }
                FaultKind::ModuleHang { stage } => {
                    if let Some((_, snapshot)) = self.hung_stages.iter().find(|(s, _)| *s == stage)
                    {
                        // Restore this stage's outputs and heartbeat to
                        // their pre-hang values: the module publishes
                        // nothing new, downstream reads the stale message.
                        match stage {
                            Stage::Sensors => {
                                bus.sensors = snapshot.sensors.clone();
                                bus.imu = snapshot.imu;
                            }
                            Stage::Localization => bus.pose = snapshot.pose,
                            Stage::Perception => {
                                bus.world_model = snapshot.world_model.clone();
                            }
                            Stage::Planning => {
                                bus.raw_cmd = snapshot.raw_cmd;
                                bus.envelope = snapshot.envelope;
                                bus.delta = snapshot.delta;
                            }
                            Stage::Control => bus.final_cmd = snapshot.final_cmd,
                        }
                        bus.heartbeats[stage.index()] = snapshot.heartbeats[stage.index()];
                        self.changed_bus = true;
                        self.injections += 1;
                    }
                }
                FaultKind::FreezeWorldModel => {
                    if let Some((frozen, captured_at)) = &self.frozen_model {
                        // Delayed perception: the stale tracks *coast* at
                        // their last estimated velocities (exactly what a
                        // tracker does when measurements stop arriving).
                        // New objects — like the revealed slow vehicle of
                        // paper Example 2 — never appear.
                        let dt = (frame - captured_at) as f64 / 30.0;
                        let mut coasted = frozen.clone();
                        for obj in &mut coasted.objects {
                            obj.position += obj.velocity * dt;
                        }
                        bus.world_model = coasted;
                        self.changed_bus = true;
                        self.injections += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FaultWindow, ScalarFaultModel};
    use drivefi_ads::Signal;
    use drivefi_kinematics::Vec2;
    use drivefi_perception::{TrackId, TrackedObject};

    fn bus() -> Bus {
        let mut b = Bus::default();
        b.pose.v = 30.0;
        b.raw_cmd.throttle = 0.2;
        b.world_model.objects.push(TrackedObject {
            id: TrackId(0),
            position: Vec2::new(50.0, 0.0),
            velocity: Vec2::new(25.0, 0.0),
            extent: Vec2::new(4.7, 1.9),
            truth_id: 1,
        });
        b
    }

    #[test]
    fn scalar_fault_fires_only_in_window_and_stage() {
        let fault = Fault {
            kind: FaultKind::Scalar {
                signal: Signal::RawThrottle,
                model: ScalarFaultModel::StuckMax,
            },
            window: FaultWindow::transient(5),
        };
        let mut inj = Injector::new(vec![fault]);
        let mut b = bus();
        // Wrong frame: no effect.
        inj.intercept(Stage::Planning, 4, &mut b);
        assert_eq!(b.raw_cmd.throttle, 0.2);
        // Wrong stage: no effect.
        inj.intercept(Stage::Control, 5, &mut b);
        assert_eq!(b.raw_cmd.throttle, 0.2);
        // Right frame + stage: corrupted (0.2 → 1.0, the paper's
        // Example-1 throttle corruption shape).
        inj.intercept(Stage::Planning, 5, &mut b);
        assert_eq!(b.raw_cmd.throttle, 1.0);
        assert_eq!(inj.injection_count(), 1);
    }

    #[test]
    fn clear_world_model_empties_tracks() {
        let fault = Fault { kind: FaultKind::ClearWorldModel, window: FaultWindow::burst(0, 2) };
        let mut inj = Injector::new(vec![fault]);
        let mut b = bus();
        inj.intercept(Stage::Perception, 0, &mut b);
        assert!(b.world_model.objects.is_empty());
    }

    #[test]
    fn freeze_replays_coasting_stale_model() {
        let fault = Fault { kind: FaultKind::FreezeWorldModel, window: FaultWindow::burst(10, 5) };
        let mut inj = Injector::new(vec![fault]);
        let mut b = bus();
        // Frame 9: capture (one before activation). The captured object
        // sits at 50 m moving 25 m/s.
        inj.intercept(Stage::Perception, 9, &mut b);
        // World moves on; perception would publish the object at 80 m.
        b.world_model.objects[0].position.x = 80.0;
        inj.intercept(Stage::Perception, 10, &mut b);
        // The stale track *coasts* at its captured velocity: 50 + 25/30.
        let expect = 50.0 + 25.0 * (1.0 / 30.0);
        assert!(
            (b.world_model.objects[0].position.x - expect).abs() < 1e-9,
            "stale coasting model expected, got {}",
            b.world_model.objects[0].position.x
        );
        // Three frames later it has coasted further — but never sees the
        // real 80 m update.
        inj.intercept(Stage::Perception, 13, &mut b);
        let expect = 50.0 + 25.0 * (4.0 / 30.0);
        assert!((b.world_model.objects[0].position.x - expect).abs() < 1e-9);
        // After the window the live model flows again.
        b.world_model.objects[0].position.x = 90.0;
        inj.intercept(Stage::Perception, 15, &mut b);
        assert_eq!(b.world_model.objects[0].position.x, 90.0);
    }

    #[test]
    fn module_hang_freezes_outputs_and_heartbeat() {
        let fault = Fault {
            kind: FaultKind::ModuleHang { stage: Stage::Planning },
            window: FaultWindow::burst(10, 5),
        };
        let mut inj = Injector::new(vec![fault]);
        let mut b = bus();
        b.raw_cmd.throttle = 0.2;
        b.heartbeats[Stage::Planning.index()] = 9;
        // Frame 9: capture (one before activation).
        inj.intercept(Stage::Planning, 9, &mut b);
        assert_eq!(b.raw_cmd.throttle, 0.2, "no effect before the window");
        // The live planner would publish new values...
        b.raw_cmd.throttle = 0.8;
        b.heartbeats[Stage::Planning.index()] = 10;
        inj.intercept(Stage::Planning, 10, &mut b);
        // ...but the hang pins them at the pre-hang snapshot.
        assert_eq!(b.raw_cmd.throttle, 0.2);
        assert_eq!(b.heartbeats[Stage::Planning.index()], 9);
        // Past the window the module publishes again.
        b.raw_cmd.throttle = 0.9;
        b.heartbeats[Stage::Planning.index()] = 15;
        inj.intercept(Stage::Planning, 15, &mut b);
        assert_eq!(b.raw_cmd.throttle, 0.9);
    }

    #[test]
    fn hang_names_its_stage() {
        let k = FaultKind::ModuleHang { stage: Stage::Perception };
        assert_eq!(k.name(), "perception.hang");
        assert_eq!(k.stage(), Stage::Perception);
    }

    #[test]
    fn missing_signal_is_not_counted() {
        let fault = Fault {
            kind: FaultKind::Scalar {
                signal: Signal::LeadDistance,
                model: ScalarFaultModel::StuckMin,
            },
            window: FaultWindow::transient(0),
        };
        let mut inj = Injector::new(vec![fault]);
        let mut b = Bus::default(); // no objects → no lead signal
        inj.intercept(Stage::Perception, 0, &mut b);
        assert_eq!(inj.injection_count(), 0);
    }

    #[test]
    fn writes_that_change_no_bit_leave_the_bus_unchanged() {
        let fault =
            |signal, model, window| Fault { kind: FaultKind::Scalar { signal, model }, window };
        // Brake min while coasting (brake already 0): counted, no change.
        let mut inj = Injector::new(vec![fault(
            Signal::FinalBrake,
            ScalarFaultModel::StuckMin,
            FaultWindow::burst(3, 2),
        )]);
        let mut b = bus();
        inj.intercept(Stage::Control, 3, &mut b);
        inj.intercept(Stage::Control, 4, &mut b);
        assert_eq!((inj.injection_count(), inj.changed_bus()), (2, false));
        assert_eq!(inj.quiet_from(), 5);
        // Clearing an empty world model changes nothing either; clearing
        // a populated one does.
        let mut inj = Injector::new(vec![Fault {
            kind: FaultKind::ClearWorldModel,
            window: FaultWindow::transient(0),
        }]);
        inj.intercept(Stage::Perception, 0, &mut Bus::default());
        assert_eq!((inj.injection_count(), inj.changed_bus()), (1, false));
        inj.intercept(Stage::Perception, 0, &mut bus());
        assert!(inj.changed_bus());
        // A real corruption changes bits; a permanent window never quiets.
        let mut inj = Injector::new(vec![fault(
            Signal::RawThrottle,
            ScalarFaultModel::StuckMax,
            FaultWindow::permanent(0),
        )]);
        inj.intercept(Stage::Planning, 0, &mut bus());
        assert!(inj.changed_bus());
        assert_eq!(inj.quiet_from(), u64::MAX);
        assert_eq!(Injector::new(vec![]).quiet_from(), 0);
    }

    #[test]
    fn multiple_faults_compose() {
        let faults = vec![
            Fault {
                kind: FaultKind::Scalar {
                    signal: Signal::RawThrottle,
                    model: ScalarFaultModel::StuckMax,
                },
                window: FaultWindow::transient(0),
            },
            Fault {
                kind: FaultKind::Scalar {
                    signal: Signal::RawBrake,
                    model: ScalarFaultModel::StuckMin,
                },
                window: FaultWindow::transient(0),
            },
        ];
        let mut inj = Injector::new(faults);
        let mut b = bus();
        b.raw_cmd.brake = 0.5;
        inj.intercept(Stage::Planning, 0, &mut b);
        assert_eq!(b.raw_cmd.throttle, 1.0);
        assert_eq!(b.raw_cmd.brake, 0.0);
    }
}
