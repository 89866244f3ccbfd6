//! The world container: actors + road + ground-truth queries.

use crate::behavior::Behavior;
use crate::{obb_overlap, Actor, ActorId, BodyDims, Obb, Road, ScenarioConfig};
use drivefi_kinematics::{SafetyEnvelope, Vec2, VehicleState};

/// Maximum distance reported by free-space queries when nothing is ahead
/// \[m\] (sensor horizon).
pub const FREE_HORIZON: f64 = 200.0;

/// Braking deceleration assumed for *other* traffic when extending the
/// safety envelope by a dynamic object's own stopping travel \[m/s²\].
///
/// Definition 2 ("the maximum distance an AV can travel without colliding
/// with any static or dynamic object") credits a receding object's
/// worst-case motion: the ego can cover the current gap *plus* the
/// distance the object still travels while braking at its maximum. This
/// reproduces the paper's Example 1 numbers exactly: at 33.5 m/s behind a
/// same-speed lead 20 m ahead, δ = 20 m; after the cut-in leaves a 2 m
/// gap, δ = 2 m.
pub const ASSUMED_BRAKE_DECEL: f64 = 8.0;

/// The simulated world: road, non-ego actors, and (a mirror of) the ego
/// vehicle pose used for actor reactions and ground-truth queries.
#[derive(Debug, Clone)]
pub struct World {
    road: Road,
    actors: Vec<Actor>,
    time: f64,
    ego: Option<(VehicleState, BodyDims)>,
    /// Scratch lane for the synchronous-update acceleration pass, reused
    /// across ticks to keep `step` allocation-free.
    accel_scratch: Vec<f64>,
    /// Actor indices sorted by rear-bumper x (ties by index). Maintained
    /// incrementally across ticks so lead-vehicle queries are an O(1)
    /// amortized prefix scan instead of an all-pairs sweep.
    lead_order: Vec<u32>,
}

/// Rounding slack for the sorted lead scan: candidates whose rear bumper
/// trails the incumbent's by more than this cannot hold a smaller
/// *computed* bumper gap (gap = rear_x − const up to ~1e-12 of rounding at
/// highway coordinates), so the scan can stop. Far below any physical
/// spacing, far above f64 rounding error.
const LEAD_SCAN_SLACK: f64 = 1e-6;

/// Ground-truth information about the ego vehicle's surroundings, used by
/// the hazard monitor (never by the ADS, which must rely on sensors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruth {
    /// True free distances around the ego vehicle.
    pub envelope: SafetyEnvelope,
    /// Id of an actor currently overlapping the ego body, if any.
    pub collision: Option<ActorId>,
    /// True when the ego body is fully on the drivable surface.
    pub on_road: bool,
}

impl World {
    /// Creates an empty world on the given road.
    pub fn new(road: Road) -> Self {
        World {
            road,
            actors: Vec::new(),
            time: 0.0,
            ego: None,
            accel_scratch: Vec::new(),
            lead_order: Vec::new(),
        }
    }

    /// Builds the world described by a scenario configuration.
    pub fn from_scenario(config: &ScenarioConfig) -> Self {
        let mut w = World::new(config.road.clone());
        for spawn in &config.actors {
            w.add_actor(spawn.clone());
        }
        w
    }

    /// The road.
    pub fn road(&self) -> &Road {
        &self.road
    }

    /// Simulation time \[s\].
    pub fn time(&self) -> f64 {
        self.time
    }

    /// All non-ego actors.
    pub fn actors(&self) -> &[Actor] {
        &self.actors
    }

    /// Looks up an actor by id.
    pub fn actor(&self, id: ActorId) -> Option<&Actor> {
        self.actors.iter().find(|a| a.id == id)
    }

    /// Adds an actor.
    pub fn add_actor(&mut self, actor: Actor) {
        self.actors.push(actor);
        self.repair_lead_order();
    }

    /// Longitudinal sort key for the lead-vehicle order: the actor's rear
    /// bumper position. Bumper gaps to any fixed querier differ from this
    /// key only by a constant, so ascending key order is ascending gap
    /// order (up to rounding, absorbed by [`LEAD_SCAN_SLACK`]).
    fn rear_key(&self, idx: u32) -> f64 {
        let a = &self.actors[idx as usize];
        a.state.x - a.dims().length / 2.0
    }

    /// Restores the `(rear_x, index)` sort invariant on `lead_order`.
    /// Actors move smoothly, so the order is nearly sorted after a tick
    /// and the insertion pass is O(n) amortized.
    fn repair_lead_order(&mut self) {
        if self.lead_order.len() != self.actors.len() {
            self.lead_order.clear();
            self.lead_order.extend(0..self.actors.len() as u32);
        }
        for i in 1..self.lead_order.len() {
            let v = self.lead_order[i];
            let kv = self.rear_key(v);
            let mut j = i;
            while j > 0 {
                let u = self.lead_order[j - 1];
                match self.rear_key(u).total_cmp(&kv) {
                    std::cmp::Ordering::Less => break,
                    std::cmp::Ordering::Equal if u < v => break,
                    _ => {
                        self.lead_order[j] = u;
                        j -= 1;
                    }
                }
            }
            self.lead_order[j] = v;
        }
    }

    /// Registers the ego vehicle pose for this frame. Target vehicles
    /// react to the ego (e.g. IDM against it) and ground-truth queries are
    /// relative to it.
    pub fn set_ego(&mut self, state: VehicleState, dims: BodyDims) {
        self.ego = Some((state, dims));
    }

    /// The currently registered ego pose.
    pub fn ego(&self) -> Option<(VehicleState, BodyDims)> {
        self.ego
    }

    /// Finds the lead "vehicle" (any actor or the ego) for the actor at
    /// `(x, y)`: the nearest body ahead in the same lane band. Returns
    /// `(bumper gap, lead speed)`.
    fn lead_for(
        &self,
        self_id: Option<ActorId>,
        x: f64,
        y: f64,
        self_len: f64,
    ) -> Option<(f64, f64)> {
        // Scan actors in ascending rear-bumper order and stop as soon as a
        // later candidate provably cannot beat the incumbent. Ties (and
        // sub-slack near-ties) are broken by storage index, which is
        // exactly the brute-force scan's "first strict minimum" winner.
        let mut best: Option<(f64, f64, u32)> = None;
        let mut best_key = f64::INFINITY;
        for &oi in &self.lead_order {
            let other = &self.actors[oi as usize];
            if Some(other.id) == self_id {
                continue;
            }
            let (ox, oy) = (other.state.x, other.state.y);
            if ox <= x || (oy - y).abs() > 2.0 {
                continue;
            }
            let key = self.rear_key(oi);
            if key > best_key + LEAD_SCAN_SLACK {
                break;
            }
            let gap = ox - x - (other.dims().length + self_len) / 2.0;
            let better = match best {
                None => true,
                Some((g, _, bi)) => gap < g || (gap == g && oi < bi),
            };
            if better {
                best = Some((gap, other.state.v, oi));
                best_key = best_key.min(key);
            }
        }
        let mut best = best.map(|(g, v, _)| (g, v));
        if let Some((es, ed)) = self.ego {
            if es.x > x && (es.y - y).abs() <= 2.0 {
                let gap = es.x - x - (ed.length + self_len) / 2.0;
                if best.is_none_or(|(g, _)| gap < g) {
                    best = Some((gap, es.v));
                }
            }
        }
        best
    }

    /// Reference all-pairs lead scan, kept only to pin the sorted scan's
    /// equivalence in tests.
    #[cfg(test)]
    fn lead_for_brute(
        &self,
        self_id: Option<ActorId>,
        x: f64,
        y: f64,
        self_len: f64,
    ) -> Option<(f64, f64)> {
        let mut best: Option<(f64, f64)> = None;
        let mut consider = |ox: f64, oy: f64, ov: f64, olen: f64| {
            if ox <= x || (oy - y).abs() > 2.0 {
                return;
            }
            let gap = ox - x - (olen + self_len) / 2.0;
            if best.is_none_or(|(g, _)| gap < g) {
                best = Some((gap, ov));
            }
        };
        for other in &self.actors {
            if Some(other.id) == self_id {
                continue;
            }
            consider(other.state.x, other.state.y, other.state.v, other.dims().length);
        }
        if let Some((es, ed)) = self.ego {
            consider(es.x, es.y, es.v, ed.length);
        }
        best
    }

    /// Advances every actor by `dt` seconds.
    pub fn step(&mut self, dt: f64) {
        let t = self.time;
        // Plan accelerations against the *previous* frame (synchronous
        // update), then integrate. The scratch lane is taken out of `self`
        // so the plan pass can borrow the world immutably.
        let mut accels = std::mem::take(&mut self.accel_scratch);
        accels.clear();
        accels.resize(self.actors.len(), 0.0);
        for (i, a) in self.actors.iter().enumerate() {
            accels[i] = match &a.behavior {
                Behavior::Static => 0.0,
                Behavior::ConstantSpeed => 0.0,
                Behavior::Idm { params, desired_speed, .. } => {
                    let lead = self
                        .lead_for(Some(a.id), a.state.x, a.state.y, a.dims().length)
                        .map(|(gap, lv)| (gap, a.state.v - lv));
                    params.accel(a.state.v, *desired_speed, lead)
                }
                Behavior::Scripted { keyframes, .. } => {
                    keyframes.iter().rev().find(|k| t >= k.time).map_or(0.0, |k| k.accel)
                }
                Behavior::Pedestrian { .. } => 0.0,
            };
        }
        let next_t = t + dt;
        for (i, a) in self.actors.iter_mut().enumerate() {
            match &a.behavior {
                Behavior::Static => {}
                Behavior::Pedestrian { trigger_time, walk_speed } => {
                    if next_t >= *trigger_time {
                        let dir = Vec2::from_heading(a.state.theta);
                        a.state.x += dir.x * walk_speed * dt;
                        a.state.y += dir.y * walk_speed * dt;
                        a.state.v = *walk_speed;
                    }
                }
                behavior => {
                    let lc = behavior.lane_change().copied();
                    a.state.v = (a.state.v + accels[i] * dt).max(0.0);
                    a.state.x += a.state.v * dt;
                    if let Some(lc) = lc {
                        a.state.y = lc.y_at(next_t);
                        let vy = lc.vy_at(next_t);
                        a.state.theta = if a.state.v > 0.1 { (vy / a.state.v).atan() } else { 0.0 };
                    }
                }
            }
        }
        self.accel_scratch = accels;
        self.time = next_t;
        self.repair_lead_order();
    }

    /// Computes ground truth around the registered ego pose.
    ///
    /// # Panics
    ///
    /// Panics if no ego pose has been registered via [`World::set_ego`].
    pub fn ground_truth(&self) -> GroundTruth {
        let (ego, dims) = self.ego.expect("ground_truth requires a registered ego pose");
        let ego_obb =
            Obb::new(Vec2::new(ego.x, ego.y), ego.theta, dims.length / 2.0, dims.width / 2.0);

        let mut lon_free = FREE_HORIZON;
        let mut lat_free;
        let mut collision = None;

        // Lateral clearance starts at the ego-lane boundaries: the paper
        // treats the ego lane's boundaries as static objects so lane
        // violations register as hazards.
        let lane = self.road.lane_at(ego.y);
        let left_gap = lane.left_boundary() - (ego.y + dims.width / 2.0);
        let right_gap = (ego.y - dims.width / 2.0) - lane.right_boundary();
        lat_free = left_gap.min(right_gap).max(0.0);

        for a in &self.actors {
            let local = ego.to_local(Vec2::new(a.state.x, a.state.y));
            let adims = a.dims();
            // Longitudinal corridor: bodies overlapping the ego's width
            // footprint (plus a small margin) ahead of the ego.
            if local.x > 0.0 && local.y.abs() < (dims.width + adims.width) / 2.0 + 0.2 {
                let gap = local.x - (dims.length + adims.length) / 2.0;
                // Credit the object's receding motion: it travels
                // v²/(2·a) further even under worst-case braking.
                let recede = a.velocity().into_frame(ego.theta).x.max(0.0);
                let credit = recede * recede / (2.0 * ASSUMED_BRAKE_DECEL);
                lon_free = lon_free.min(gap.max(0.0) + credit);
            }
            // Lateral clearance: bodies alongside the ego.
            if local.x.abs() < (dims.length + adims.length) / 2.0 {
                let gap = local.y.abs() - (dims.width + adims.width) / 2.0;
                lat_free = lat_free.min(gap.max(0.0));
            }
            if collision.is_none() && obb_overlap(&ego_obb, &a.obb()) {
                collision = Some(a.id);
            }
        }

        let on_road = self.road.on_road(ego.y + dims.width / 2.0)
            && self.road.on_road(ego.y - dims.width / 2.0);

        GroundTruth { envelope: SafetyEnvelope::new(lon_free, lat_free), collision, on_road }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActorKind, Behavior};
    use drivefi_kinematics::VehicleState;

    fn car(id: u32, x: f64, y: f64, v: f64, behavior: Behavior) -> Actor {
        Actor::new(ActorId(id), ActorKind::Car, VehicleState::new(x, y, v, 0.0, 0.0), behavior)
    }

    fn ego_dims() -> BodyDims {
        BodyDims { length: 4.7, width: 1.9 }
    }

    #[test]
    fn constant_speed_actor_advances() {
        let mut w = World::new(Road::default_highway());
        w.add_actor(car(1, 0.0, 0.0, 10.0, Behavior::ConstantSpeed));
        for _ in 0..10 {
            w.step(0.1);
        }
        assert!((w.actor(ActorId(1)).unwrap().state.x - 10.0).abs() < 1e-9);
    }

    #[test]
    fn idm_follower_does_not_rear_end_stopped_lead() {
        let mut w = World::new(Road::default_highway());
        w.add_actor(car(1, 0.0, 0.0, 30.0, Behavior::idm(30.0)));
        w.add_actor(car(2, 120.0, 0.0, 0.0, Behavior::Static));
        for _ in 0..600 {
            w.step(0.05);
        }
        let follower = w.actor(ActorId(1)).unwrap();
        let gap = 120.0 - follower.state.x - 4.7;
        assert!(gap > 0.0, "follower collided: gap = {gap}");
        assert!(follower.state.v < 0.5, "follower should have stopped, v = {}", follower.state.v);
    }

    #[test]
    fn ground_truth_longitudinal_gap() {
        let mut w = World::new(Road::default_highway());
        w.add_actor(car(1, 54.7, 0.0, 20.0, Behavior::ConstantSpeed));
        w.set_ego(VehicleState::new(0.0, 0.0, 20.0, 0.0, 0.0), ego_dims());
        let gt = w.ground_truth();
        // Bumper gap = 54.7 - (4.7 + 4.7)/2 = 50.0, plus the lead's own
        // stopping travel 20²/16 = 25.0.
        assert!((gt.envelope.free.longitudinal - 75.0).abs() < 1e-9);
        assert!(gt.collision.is_none());
        assert!(gt.on_road);
    }

    #[test]
    fn ground_truth_static_obstacle_gets_no_motion_credit() {
        let mut w = World::new(Road::default_highway());
        w.add_actor(car(1, 54.7, 0.0, 0.0, Behavior::Static));
        w.set_ego(VehicleState::new(0.0, 0.0, 20.0, 0.0, 0.0), ego_dims());
        let gt = w.ground_truth();
        assert!((gt.envelope.free.longitudinal - 50.0).abs() < 1e-9);
    }

    #[test]
    fn paper_example_1_delta_calibration() {
        // Ego at 33.5 m/s behind a same-speed lead with a 20 m bumper
        // gap: the paper quotes δ ≈ 20 m (we subtract the 2 m comfort
        // margin, giving 18).
        use drivefi_kinematics::{SafetyPotential, VehicleParams};
        let mut w = World::new(Road::default_highway());
        w.add_actor(car(1, 20.0 + 4.7, 0.0, 33.5, Behavior::ConstantSpeed));
        let ego = VehicleState::new(0.0, 0.0, 33.5, 0.0, 0.0);
        w.set_ego(ego, ego_dims());
        let gt = w.ground_truth();
        let delta = SafetyPotential::evaluate(&VehicleParams::default(), &ego, &gt.envelope);
        assert!((delta.longitudinal - 18.0).abs() < 0.01, "delta = {delta:?}");
    }

    #[test]
    fn ground_truth_ignores_vehicles_in_other_lanes() {
        let mut w = World::new(Road::default_highway());
        w.add_actor(car(1, 50.0, 3.7, 20.0, Behavior::ConstantSpeed));
        w.set_ego(VehicleState::new(0.0, 0.0, 20.0, 0.0, 0.0), ego_dims());
        let gt = w.ground_truth();
        assert_eq!(gt.envelope.free.longitudinal, FREE_HORIZON);
    }

    #[test]
    fn ground_truth_lateral_lane_boundaries() {
        let mut w = World::new(Road::default_highway());
        w.set_ego(VehicleState::new(0.0, 0.0, 20.0, 0.0, 0.0), ego_dims());
        let gt = w.ground_truth();
        // Centered in a 3.7 m lane with a 1.9 m body: 0.9 m per side.
        assert!((gt.envelope.free.lateral - 0.9).abs() < 1e-9);
    }

    #[test]
    fn collision_detected_on_overlap() {
        let mut w = World::new(Road::default_highway());
        w.add_actor(car(1, 3.0, 0.0, 0.0, Behavior::Static));
        w.set_ego(VehicleState::new(0.0, 0.0, 0.0, 0.0, 0.0), ego_dims());
        let gt = w.ground_truth();
        assert_eq!(gt.collision, Some(ActorId(1)));
        assert_eq!(gt.envelope.free.longitudinal, 0.0);
    }

    #[test]
    fn pedestrian_waits_for_trigger() {
        let mut w = World::new(Road::default_highway());
        let mut ped = Actor::new(
            ActorId(9),
            ActorKind::Pedestrian,
            VehicleState::new(50.0, -3.0, 0.0, std::f64::consts::FRAC_PI_2, 0.0),
            Behavior::Pedestrian { trigger_time: 1.0, walk_speed: 1.4 },
        );
        ped.state.v = 0.0;
        w.add_actor(ped);
        for _ in 0..5 {
            w.step(0.1);
        }
        assert!((w.actor(ActorId(9)).unwrap().state.y - (-3.0)).abs() < 1e-9);
        for _ in 0..10 {
            w.step(0.1);
        }
        assert!(w.actor(ActorId(9)).unwrap().state.y > -3.0 + 0.5);
    }

    #[test]
    fn scripted_brake_slows_actor() {
        let mut w = World::new(Road::default_highway());
        w.add_actor(Actor::new(
            ActorId(1),
            ActorKind::Car,
            VehicleState::new(0.0, 0.0, 20.0, 0.0, 0.0),
            Behavior::Scripted {
                keyframes: vec![
                    crate::behavior::SpeedKeyframe { time: 0.0, accel: 0.0 },
                    crate::behavior::SpeedKeyframe { time: 1.0, accel: -5.0 },
                ],
                lane_change: None,
            },
        ));
        for _ in 0..30 {
            w.step(0.1);
        }
        let v = w.actor(ActorId(1)).unwrap().state.v;
        assert!(v < 11.0, "v = {v}");
        assert!(v >= 0.0);
    }

    #[test]
    fn lead_order_tracks_overtakes() {
        let mut w = World::new(Road::default_highway());
        w.add_actor(car(1, 10.0, 0.0, 30.0, Behavior::ConstantSpeed));
        w.add_actor(car(2, 20.0, 0.0, 0.0, Behavior::Static));
        w.set_ego(VehicleState::new(-100.0, 0.0, 0.0, 0.0, 0.0), ego_dims());
        // Actor 1 overtakes actor 2 around t ≈ 0.33 s; the incremental
        // order must keep matching the brute-force scan throughout.
        for _ in 0..60 {
            w.step(1.0 / 30.0);
            for a in 0..w.actors.len() {
                let (id, x, y, len) = {
                    let a = &w.actors[a];
                    (a.id, a.state.x, a.state.y, a.dims().length)
                };
                assert_eq!(w.lead_for(Some(id), x, y, len), w.lead_for_brute(Some(id), x, y, len));
            }
        }
    }

    mod lead_scan_properties {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        /// Draws a small world: 0..8 actors of mixed kinds (so body
        /// lengths differ), duplicate-prone positions, and an optional
        /// ego pose.
        struct ArbScene;

        impl Strategy for ArbScene {
            type Value = (Vec<Actor>, Option<(f64, f64, f64)>);

            fn generate(&self, rng: &mut proptest::StdRng) -> Self::Value {
                let kinds = [
                    ActorKind::Car,
                    ActorKind::Truck,
                    ActorKind::Pedestrian,
                    ActorKind::StaticObstacle,
                ];
                let n = rng.random_range(0..8usize);
                let actors = (0..n)
                    .map(|i| {
                        // Snap half the positions to a coarse grid so
                        // exact rear-bumper ties actually occur.
                        let mut x = rng.random_range(-60.0..1500.0f64);
                        if rng.random() {
                            x = (x / 10.0).round() * 10.0;
                        }
                        let y = rng.random_range(-6.0..6.0f64);
                        let v = rng.random_range(0.0..40.0f64);
                        Actor::new(
                            ActorId(i as u32 + 1),
                            kinds[rng.random_range(0..kinds.len())],
                            VehicleState::new(x, y, v, 0.0, 0.0),
                            Behavior::ConstantSpeed,
                        )
                    })
                    .collect();
                let ego = if rng.random() {
                    Some((
                        rng.random_range(-60.0..1500.0f64),
                        rng.random_range(-6.0..6.0f64),
                        rng.random_range(0.0..40.0f64),
                    ))
                } else {
                    None
                };
                (actors, ego)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The incrementally-sorted lead scan returns bit-identical
            /// results to the brute-force all-pairs scan, for every
            /// querier (each actor and the ego), including duplicate
            /// positions and mixed body lengths.
            #[test]
            fn sorted_scan_equals_brute_force(scene in ArbScene) {
                let (actors, ego) = scene;
                let mut w = World::new(Road::default_highway());
                for a in actors {
                    w.add_actor(a);
                }
                if let Some((x, y, v)) = ego {
                    w.set_ego(VehicleState::new(x, y, v, 0.0, 0.0), ego_dims());
                }
                for i in 0..w.actors.len() {
                    let (id, x, y, len) = {
                        let a = &w.actors[i];
                        (a.id, a.state.x, a.state.y, a.dims().length)
                    };
                    prop_assert_eq!(
                        w.lead_for(Some(id), x, y, len),
                        w.lead_for_brute(Some(id), x, y, len)
                    );
                }
                if let Some((es, ed)) = w.ego() {
                    prop_assert_eq!(
                        w.lead_for(None, es.x, es.y, ed.length),
                        w.lead_for_brute(None, es.x, es.y, ed.length)
                    );
                }
            }
        }
    }

    #[test]
    fn idm_reacts_to_ego_as_lead() {
        let mut w = World::new(Road::default_highway());
        w.add_actor(car(1, 0.0, 0.0, 30.0, Behavior::idm(30.0)));
        w.set_ego(VehicleState::new(20.0, 0.0, 5.0, 0.0, 0.0), ego_dims());
        w.step(0.1);
        // Follower must brake toward the slow ego ahead.
        assert!(w.actor(ActorId(1)).unwrap().state.v < 30.0);
    }
}
