//! Multi-object tracking by Kalman-filtered sensor fusion.
//!
//! Each track runs a constant-velocity Kalman filter over world-frame
//! position measurements (camera/LiDAR) and position+velocity
//! measurements (RADAR). Detections are associated to tracks by gated
//! nearest-neighbor matching. Tracks are confirmed after a few hits and
//! dropped after consecutive misses — the usual M/N logic.

use crate::linalg::{inverse, mat_mul, mat_vec};
use crate::world_model::{TrackId, TrackedObject, WorldModel};
use drivefi_kinematics::{Vec2, VehicleState};
use drivefi_sensors::{Detection, SensorKind};

/// Tunables of the tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Association gate radius \[m\].
    pub gate: f64,
    /// Hits needed to confirm a track.
    pub confirm_hits: u32,
    /// Consecutive misses before a track is dropped.
    pub max_misses: u32,
    /// Process noise intensity (acceleration variance) \[m²/s⁴\].
    pub process_noise: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig { gate: 4.0, confirm_hits: 2, max_misses: 8, process_noise: 4.0 }
    }
}

/// Internal Kalman track: state `[x, y, vx, vy]` in the world frame.
#[derive(Debug, Clone)]
struct Track {
    id: TrackId,
    x: [f64; 4],
    p: [[f64; 4]; 4],
    hits: u32,
    misses: u32,
    extent: Vec2,
    truth_id: u32,
}

impl Track {
    fn new(id: TrackId, pos: Vec2, vel: Vec2, extent: Vec2, truth_id: u32) -> Self {
        let mut p = [[0.0; 4]; 4];
        p[0][0] = 4.0;
        p[1][1] = 4.0;
        p[2][2] = 25.0;
        p[3][3] = 25.0;
        Track { id, x: [pos.x, pos.y, vel.x, vel.y], p, hits: 1, misses: 0, extent, truth_id }
    }

    fn position(&self) -> Vec2 {
        Vec2::new(self.x[0], self.x[1])
    }

    fn velocity(&self) -> Vec2 {
        Vec2::new(self.x[2], self.x[3])
    }

    /// Constant-velocity prediction over `dt`.
    ///
    /// Hand-specialized `x ← Fx`, `P ← FPFᵀ + Q` for the structured
    /// `F = [I, dt·I; 0, I]`: only the terms the dense products actually
    /// contribute are computed, in the same accumulation order, so the
    /// result is bit-identical to the generic matrix chain while doing a
    /// tenth of the work.
    fn predict(&mut self, dt: f64, q_intensity: f64) {
        let [x0, x1, x2, x3] = self.x;
        self.x = [x0 + dt * x2, x1 + dt * x3, x2, x3];
        // White-acceleration process noise.
        let dt2 = dt * dt;
        let dt3 = dt2 * dt / 2.0;
        let dt4 = dt2 * dt2 / 4.0;
        let q = q_intensity;
        let p = &self.p;
        // F P: position rows pick up the dt-coupled velocity rows.
        let mut fp = [[0.0; 4]; 4];
        for j in 0..4 {
            fp[0][j] = p[0][j] + dt * p[2][j];
            fp[1][j] = p[1][j] + dt * p[3][j];
            fp[2][j] = p[2][j];
            fp[3][j] = p[3][j];
        }
        // (F P) Fᵀ, same sparsity on the right, plus Q's eight entries.
        let mut out = [[0.0; 4]; 4];
        for (i, fpi) in fp.iter().enumerate() {
            out[i][0] = fpi[0] + fpi[2] * dt;
            out[i][1] = fpi[1] + fpi[3] * dt;
            out[i][2] = fpi[2];
            out[i][3] = fpi[3];
        }
        out[0][0] += dt4 * q;
        out[0][2] += dt3 * q;
        out[1][1] += dt4 * q;
        out[1][3] += dt3 * q;
        out[2][0] += dt3 * q;
        out[2][2] += dt2 * q;
        out[3][1] += dt3 * q;
        out[3][3] += dt2 * q;
        self.p = out;
    }

    /// Position-only measurement update.
    ///
    /// Specialized for `H = [I₂ 0]`: `S` is the top-left 2×2 block of `P`
    /// plus `R`, `PHᵀ` is the first two columns of `P`, and `(I − KH)P`
    /// only couples through those columns. Term order matches the generic
    /// chain, so the arithmetic is bit-identical.
    fn update_position(&mut self, z: Vec2, r_std: f64) {
        let r = r_std * r_std;
        let p = &self.p;
        let s = [[p[0][0] + r, p[0][1]], [p[1][0], p[1][1] + r]];
        let Some(s_inv) = inverse(&s) else { return };
        let mut k = [[0.0; 2]; 4];
        for (i, pi) in p.iter().enumerate() {
            k[i][0] = pi[0] * s_inv[0][0] + pi[1] * s_inv[1][0];
            k[i][1] = pi[0] * s_inv[0][1] + pi[1] * s_inv[1][1];
        }
        let y = [z.x - self.x[0], z.y - self.x[1]];
        let dx = mat_vec(&k, &y);
        for (xi, dxi) in self.x.iter_mut().zip(&dx) {
            *xi += dxi;
        }
        // (I − KH) P: `0.0 - k` (not `-k`) matches the generic
        // `mat_sub(identity, kh)` exactly on signed zeros.
        let mut np = [[0.0; 4]; 4];
        for j in 0..4 {
            np[0][j] = (1.0 - k[0][0]) * p[0][j] + (0.0 - k[0][1]) * p[1][j];
            np[1][j] = (0.0 - k[1][0]) * p[0][j] + (1.0 - k[1][1]) * p[1][j];
            np[2][j] = (0.0 - k[2][0]) * p[0][j] + (0.0 - k[2][1]) * p[1][j] + p[2][j];
            np[3][j] = (0.0 - k[3][0]) * p[0][j] + (0.0 - k[3][1]) * p[1][j] + p[3][j];
        }
        self.p = np;
        self.hits += 1;
        self.misses = 0;
    }

    /// Position + velocity measurement update (RADAR).
    ///
    /// Specialized for `H = I`: the `HPHᵀ` and `KH` products collapse, so
    /// only `S = P + R`, the 4×4 inverse, `K = PS⁻¹`, and `(I − K)P`
    /// remain — bit-identical to the generic chain.
    fn update_full(&mut self, z_pos: Vec2, z_vel: Vec2, r_pos: f64, r_vel: f64) {
        let mut s = self.p;
        s[0][0] += r_pos * r_pos;
        s[1][1] += r_pos * r_pos;
        s[2][2] += r_vel * r_vel;
        s[3][3] += r_vel * r_vel;
        let Some(s_inv) = inverse(&s) else { return };
        let k = mat_mul(&self.p, &s_inv);
        let y =
            [z_pos.x - self.x[0], z_pos.y - self.x[1], z_vel.x - self.x[2], z_vel.y - self.x[3]];
        let dx = mat_vec(&k, &y);
        for (xi, dxi) in self.x.iter_mut().zip(&dx) {
            *xi += dxi;
        }
        let mut m = [[0.0; 4]; 4];
        for (i, (mi, ki)) in m.iter_mut().zip(&k).enumerate() {
            for (j, (mij, kij)) in mi.iter_mut().zip(ki).enumerate() {
                *mij = if i == j { 1.0 - kij } else { 0.0 - kij };
            }
        }
        self.p = mat_mul(&m, &self.p);
        self.hits += 1;
        self.misses = 0;
    }
}

/// The fusion tracker producing the world model `W_t`.
#[derive(Debug, Clone)]
pub struct MultiObjectTracker {
    config: TrackerConfig,
    tracks: Vec<Track>,
    next_id: u32,
    model: WorldModel,
    /// Per-step association scratch (`claimed[i]` ⇔ track `i` matched a
    /// detection this step), kept across steps so the hot loop never
    /// allocates.
    claimed: Vec<bool>,
}

impl Default for MultiObjectTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiObjectTracker {
    /// Creates a tracker with default configuration.
    pub fn new() -> Self {
        Self::with_config(TrackerConfig::default())
    }

    /// Creates a tracker with the given configuration.
    pub fn with_config(config: TrackerConfig) -> Self {
        MultiObjectTracker {
            config,
            tracks: Vec::new(),
            next_id: 0,
            model: WorldModel::new(),
            claimed: Vec::new(),
        }
    }

    /// The most recently published world model.
    pub fn world_model(&self) -> &WorldModel {
        &self.model
    }

    /// Replaces the published world model (fault-injection hook: DriveFI
    /// corrupts `W_t` through this seam).
    pub fn set_world_model(&mut self, model: WorldModel) {
        self.model = model;
    }

    /// Advances all tracks by `dt` and fuses one batch of detections
    /// (already converted to world frame by the caller). Returns the
    /// refreshed world model.
    ///
    /// Thin wrapper over [`MultiObjectTracker::step_into`] that also
    /// refreshes the tracker's own published copy (visible through
    /// [`MultiObjectTracker::world_model`]). The returned clone makes
    /// this the reference path for equivalence tests; hot loops use
    /// `step_into` and publish straight into the caller's buffer.
    pub fn step(
        &mut self,
        ego: &VehicleState,
        detections: &[(Detection, Vec2, Vec2)],
        dt: f64,
    ) -> WorldModel {
        let mut out = std::mem::take(&mut self.model);
        self.step_into(ego, detections, dt, &mut out);
        self.model = out;
        self.model.clone()
    }

    /// Advances all tracks by `dt`, fuses one batch of detections, and
    /// publishes the confirmed tracks into `out` in place — `out.objects`
    /// is cleared and refilled, reusing its capacity, so a warmed-up
    /// steady-state step performs no heap allocation. The result is
    /// independent of `out`'s prior contents and bit-identical to what
    /// [`MultiObjectTracker::step`] returns.
    ///
    /// This path does *not* refresh the tracker's internally published
    /// model ([`MultiObjectTracker::world_model`]): the caller owns the
    /// live `W_t` between steps, and the [`set_world_model`] corruption
    /// seam stays available for fault injection.
    ///
    /// [`set_world_model`]: MultiObjectTracker::set_world_model
    pub fn step_into(
        &mut self,
        ego: &VehicleState,
        detections: &[(Detection, Vec2, Vec2)],
        dt: f64,
        out: &mut WorldModel,
    ) {
        let _ = ego;
        for t in &mut self.tracks {
            t.predict(dt, self.config.process_noise);
        }

        self.claimed.clear();
        self.claimed.resize(self.tracks.len(), false);
        // Gate and nearest-neighbor ordering compare squared distances:
        // the metric is monotone, the distance itself is never published,
        // and skipping `hypot` is a measurable win in the hot loop.
        let gate_sq = self.config.gate * self.config.gate;
        for (det, world_pos, world_vel) in detections {
            // Gated nearest-neighbor association.
            let mut best: Option<(usize, f64)> = None;
            for (i, t) in self.tracks.iter().enumerate() {
                if self.claimed[i] {
                    continue;
                }
                let d = t.position().distance_sq(*world_pos);
                if d < gate_sq && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
            match best {
                Some((i, _)) => {
                    self.claimed[i] = true;
                    let t = &mut self.tracks[i];
                    match det.sensor {
                        SensorKind::Radar => t.update_full(*world_pos, *world_vel, 0.8, 0.3),
                        SensorKind::Lidar => t.update_position(*world_pos, 0.2),
                        _ => t.update_position(*world_pos, 0.7),
                    }
                    t.extent = det.extent;
                    t.truth_id = det.truth_id;
                }
                None => {
                    let id = TrackId(self.next_id);
                    self.next_id += 1;
                    self.tracks.push(Track::new(
                        id,
                        *world_pos,
                        *world_vel,
                        det.extent,
                        det.truth_id,
                    ));
                    self.claimed.push(true);
                }
            }
        }

        // Miss accounting and pruning.
        for (i, t) in self.tracks.iter_mut().enumerate() {
            if !self.claimed.get(i).copied().unwrap_or(true) {
                t.misses += 1;
            }
        }
        let max_misses = self.config.max_misses;
        self.tracks.retain(|t| t.misses <= max_misses);

        // Publish confirmed tracks.
        let confirm = self.config.confirm_hits;
        out.objects.clear();
        out.objects.extend(self.tracks.iter().filter(|t| t.hits >= confirm).map(|t| {
            TrackedObject {
                id: t.id,
                position: t.position(),
                velocity: t.velocity(),
                extent: t.extent,
                truth_id: t.truth_id,
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(x: f64, y: f64, vx: f64, sensor: SensorKind) -> (Detection, Vec2, Vec2) {
        let d = Detection {
            sensor,
            position: Vec2::new(x, y),
            rel_velocity: Vec2::new(vx, 0.0),
            extent: Vec2::new(4.7, 1.9),
            truth_id: 1,
        };
        (d, Vec2::new(x, y), Vec2::new(vx, 0.0))
    }

    fn ego() -> VehicleState {
        VehicleState::new(0.0, 0.0, 20.0, 0.0, 0.0)
    }

    #[test]
    fn track_confirms_after_hits() {
        let mut tr = MultiObjectTracker::new();
        let m = tr.step(&ego(), &[det(50.0, 0.0, -5.0, SensorKind::Lidar)], 0.1);
        assert_eq!(m.objects.len(), 0, "tentative after one hit");
        let m = tr.step(&ego(), &[det(49.5, 0.0, -5.0, SensorKind::Lidar)], 0.1);
        assert_eq!(m.objects.len(), 1, "confirmed after two hits");
    }

    #[test]
    fn track_estimates_velocity_from_positions() {
        let mut tr = MultiObjectTracker::new();
        // Object moving +10 m/s in x, lidar position-only measurements.
        let mut x = 50.0;
        for _ in 0..30 {
            tr.step(&ego(), &[det(x, 0.0, 0.0, SensorKind::Lidar)], 0.1);
            x += 1.0;
        }
        let m = tr.world_model();
        assert_eq!(m.objects.len(), 1);
        let v = m.objects[0].velocity;
        assert!((v.x - 10.0).abs() < 1.5, "estimated vx = {}", v.x);
    }

    #[test]
    fn track_dies_after_misses() {
        let mut tr = MultiObjectTracker::new();
        for _ in 0..3 {
            tr.step(&ego(), &[det(50.0, 0.0, 0.0, SensorKind::Lidar)], 0.1);
        }
        assert_eq!(tr.world_model().objects.len(), 1);
        for _ in 0..10 {
            tr.step(&ego(), &[], 0.1);
        }
        assert_eq!(tr.world_model().objects.len(), 0);
    }

    #[test]
    fn separate_objects_get_separate_tracks() {
        let mut tr = MultiObjectTracker::new();
        for _ in 0..3 {
            tr.step(
                &ego(),
                &[det(50.0, 0.0, 0.0, SensorKind::Lidar), det(80.0, 3.7, 0.0, SensorKind::Lidar)],
                0.1,
            );
        }
        assert_eq!(tr.world_model().objects.len(), 2);
    }

    #[test]
    fn radar_velocity_speeds_up_convergence() {
        let mut with_radar = MultiObjectTracker::new();
        let mut without = MultiObjectTracker::new();
        // Both trackers get a wrong velocity prior (0) on the first frame.
        with_radar.step(&ego(), &[det(50.0, 0.0, 0.0, SensorKind::Radar)], 0.1);
        without.step(&ego(), &[det(50.0, 0.0, 0.0, SensorKind::Camera)], 0.1);
        let mut x = 51.0;
        for _ in 0..3 {
            // RADAR measures velocity directly; camera only positions.
            with_radar.step(&ego(), &[det(x, 0.0, 10.0, SensorKind::Radar)], 0.1);
            without.step(&ego(), &[det(x, 0.0, 10.0, SensorKind::Camera)], 0.1);
            x += 1.0;
        }
        let vr = with_radar.world_model().objects[0].velocity.x;
        let vc = without.world_model().objects[0].velocity.x;
        assert!((vr - 10.0).abs() < (vc - 10.0).abs(), "radar vx = {vr}, camera vx = {vc}");
    }

    #[test]
    fn transient_outlier_is_pulled_back_by_fusion() {
        // This is the paper's natural-resilience mechanism in miniature: a
        // one-frame corrupted measurement barely moves a well-established
        // track.
        let mut tr = MultiObjectTracker::new();
        for _ in 0..20 {
            tr.step(&ego(), &[det(50.0, 0.0, 0.0, SensorKind::Lidar)], 0.1);
        }
        let before = tr.world_model().objects[0].position.x;
        // Outlier beyond the gate spawns a tentative track instead of
        // corrupting the existing one.
        tr.step(&ego(), &[det(120.0, 0.0, 0.0, SensorKind::Lidar)], 0.1);
        for _ in 0..3 {
            tr.step(&ego(), &[det(50.0, 0.0, 0.0, SensorKind::Lidar)], 0.1);
        }
        let after = tr.world_model().objects[0].position.x;
        assert!((after - before).abs() < 1.0, "track jumped {before} -> {after}");
    }

    #[test]
    fn set_world_model_overrides_publication() {
        let mut tr = MultiObjectTracker::new();
        tr.set_world_model(WorldModel {
            objects: vec![TrackedObject {
                id: TrackId(99),
                position: Vec2::new(1.0, 1.0),
                velocity: Vec2::ZERO,
                extent: Vec2::new(1.0, 1.0),
                truth_id: 7,
            }],
        });
        assert_eq!(tr.world_model().objects[0].id, TrackId(99));
    }
}
