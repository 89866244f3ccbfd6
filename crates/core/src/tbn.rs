//! The DriveFI 3-slice temporal Bayesian network over ADS variables.
//!
//! Topology (paper Fig. 6, instantiated for our stack):
//!
//! ```text
//! intra-slice:  W_dist, W_speed, M_v  →  U_throttle/U_brake
//!               M_v                  →  U_steer
//!               U_x                  →  A_x          (per channel)
//! inter-slice:  M_v, A_throttle, A_brake (t-1) → M_v (t)
//!               A_throttle, A_brake, M_v (t-1) → M_a (t)
//!               W_dist, W_speed, M_v (t-1)     → W_dist (t)
//!               W_speed (t-1)                  → W_speed (t)
//!               A_x (t-1)                      → A_x (t)
//! ```

use drivefi_bayes::{
    check_categories, fit_cpts, BayesError, BayesNet, DbnTemplate, Discretizer, VarId,
};
use drivefi_kinematics::{Actuation, SafetyPotential};
use drivefi_sim::{FrameRecord, Trace};
use drivefi_store::ProjectedTrace;

/// The ADS variables modeled per slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TbnVar {
    /// Lead-object distance (world model `W_t`), with a no-lead category.
    WDist,
    /// Lead-object speed (world model `W_t`), with a no-lead category.
    WSpeed,
    /// Measured ego speed (`M_t`).
    MV,
    /// Measured ego acceleration (`M_t`).
    MA,
    /// Raw throttle (`U_A,t`).
    UThrottle,
    /// Raw brake (`U_A,t`).
    UBrake,
    /// Raw steering (`U_A,t`).
    USteer,
    /// Final throttle (`A_t`).
    AThrottle,
    /// Final brake (`A_t`).
    ABrake,
    /// Final steering (`A_t`).
    ASteer,
}

impl TbnVar {
    /// All variables, in template order.
    pub const ALL: [TbnVar; 10] = [
        TbnVar::WDist,
        TbnVar::WSpeed,
        TbnVar::MV,
        TbnVar::MA,
        TbnVar::UThrottle,
        TbnVar::UBrake,
        TbnVar::USteer,
        TbnVar::AThrottle,
        TbnVar::ABrake,
        TbnVar::ASteer,
    ];

    /// Template index (stable).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|v| *v == self).expect("var in ALL")
    }

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            TbnVar::WDist => "w_dist",
            TbnVar::WSpeed => "w_speed",
            TbnVar::MV => "m_v",
            TbnVar::MA => "m_a",
            TbnVar::UThrottle => "u_throttle",
            TbnVar::UBrake => "u_brake",
            TbnVar::USteer => "u_steer",
            TbnVar::AThrottle => "a_throttle",
            TbnVar::ABrake => "a_brake",
            TbnVar::ASteer => "a_steer",
        }
    }

    /// True for the lead-object variables that carry a no-lead category.
    pub fn has_no_lead(self) -> bool {
        matches!(self, TbnVar::WDist | TbnVar::WSpeed)
    }

    fn extract(self, f: &TbnFrame) -> Option<f64> {
        match self {
            TbnVar::WDist => f.lead_distance,
            TbnVar::WSpeed => f.lead_speed,
            TbnVar::MV => Some(f.imu_speed),
            TbnVar::MA => Some(f.imu_accel),
            TbnVar::UThrottle => Some(f.raw_cmd.throttle),
            TbnVar::UBrake => Some(f.raw_cmd.brake),
            TbnVar::USteer => Some(f.raw_cmd.steering),
            TbnVar::AThrottle => Some(f.final_cmd.throttle),
            TbnVar::ABrake => Some(f.final_cmd.brake),
            TbnVar::ASteer => Some(f.final_cmd.steering),
        }
    }
}

/// What the 3-TBN fit and the miner read of one golden frame: the ten
/// template variables, plus the scene index, ground-truth speed and δ
/// that mining reads at an injection scene. A golden store is read
/// straight into this projection, 128 bytes against a [`FrameRecord`]'s
/// 224; the `FrameRecord` API projects each frame it is given.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TbnFrame {
    pub(crate) scene: u64,
    pub(crate) lead_distance: Option<f64>,
    pub(crate) lead_speed: Option<f64>,
    pub(crate) imu_speed: f64,
    pub(crate) imu_accel: f64,
    pub(crate) raw_cmd: Actuation,
    pub(crate) final_cmd: Actuation,
    /// Ground-truth ego speed \[m/s\].
    pub(crate) ego_v: f64,
    pub(crate) delta_true: SafetyPotential,
}

impl TbnFrame {
    /// The projection of `f`.
    pub(crate) fn of(f: &FrameRecord) -> TbnFrame {
        TbnFrame {
            scene: f.scene,
            lead_distance: f.lead_distance,
            lead_speed: f.lead_speed,
            imu_speed: f.imu_speed,
            imu_accel: f.imu_accel,
            raw_cmd: f.raw_cmd,
            final_cmd: f.final_cmd,
            ego_v: f.ego.v,
            delta_true: f.delta_true,
        }
    }
}

/// Sentinel used in [`SceneObs`] for "no lead object" (the last category
/// of the lead variables).
pub const NO_LEAD: usize = usize::MAX;

/// One scene observation: the discretized category of every template
/// variable.
pub type SceneObs = [usize; 10];

/// One scene's network categories, a byte per template variable (the
/// no-lead category standing for an absent lead object): the form the
/// training rows and the miner's forecast memo hold.
pub(crate) type SceneCategories = [u8; 10];

/// The fitted model: unrolled 3-TBN with learned CPDs plus the
/// discretizers that map between continuous traces and categories.
#[derive(Debug, Clone)]
pub struct TbnModel {
    /// The unrolled 3-slice network with fitted CPDs.
    pub net: BayesNet,
    /// `ids[slice][TbnVar::index()]` — network variable ids.
    pub ids: Vec<Vec<VarId>>,
    discretizers: Vec<Discretizer>,
    bins: usize,
}

impl TbnModel {
    /// Builds the slice template with the Fig. 6 topology.
    fn template(cards: &[usize; 10]) -> DbnTemplate {
        let mut t = DbnTemplate::new();
        for (var, &card) in TbnVar::ALL.iter().zip(cards) {
            t.add_variable(var.name(), card);
        }
        let i = TbnVar::index;
        // Intra-slice: perception/measurement drive planning; planning
        // drives control.
        for u in [TbnVar::UThrottle, TbnVar::UBrake] {
            t.add_intra_edge(i(TbnVar::WDist), i(u));
            t.add_intra_edge(i(TbnVar::WSpeed), i(u));
            t.add_intra_edge(i(TbnVar::MV), i(u));
        }
        t.add_intra_edge(i(TbnVar::MV), i(TbnVar::USteer));
        t.add_intra_edge(i(TbnVar::UThrottle), i(TbnVar::AThrottle));
        t.add_intra_edge(i(TbnVar::UBrake), i(TbnVar::ABrake));
        t.add_intra_edge(i(TbnVar::USteer), i(TbnVar::ASteer));
        // Inter-slice: actuation moves the vehicle; the world persists.
        t.add_inter_edge(i(TbnVar::MV), i(TbnVar::MV));
        t.add_inter_edge(i(TbnVar::AThrottle), i(TbnVar::MV));
        t.add_inter_edge(i(TbnVar::ABrake), i(TbnVar::MV));
        t.add_inter_edge(i(TbnVar::MV), i(TbnVar::MA));
        t.add_inter_edge(i(TbnVar::AThrottle), i(TbnVar::MA));
        t.add_inter_edge(i(TbnVar::ABrake), i(TbnVar::MA));
        t.add_inter_edge(i(TbnVar::WDist), i(TbnVar::WDist));
        t.add_inter_edge(i(TbnVar::WSpeed), i(TbnVar::WDist));
        t.add_inter_edge(i(TbnVar::MV), i(TbnVar::WDist));
        t.add_inter_edge(i(TbnVar::WSpeed), i(TbnVar::WSpeed));
        t.add_inter_edge(i(TbnVar::AThrottle), i(TbnVar::AThrottle));
        t.add_inter_edge(i(TbnVar::ABrake), i(TbnVar::ABrake));
        t.add_inter_edge(i(TbnVar::ASteer), i(TbnVar::ASteer));
        t
    }

    /// Fits discretizers and CPDs from golden traces.
    ///
    /// Golden runs never exercise off-nominal actuation (a healthy
    /// planner does not command full throttle toward a close lead), so
    /// purely data-driven CPTs would leave the very rows that
    /// interventions hit at their uniform prior. The fit therefore adds
    /// synthetic transitions computed from the one-scene vehicle
    /// kinematics — exactly the paper's "integrating domain knowledge in
    /// the form of vehicle kinematics" (§III-B) — covering the full
    /// actuation grid.
    ///
    /// The training rows are one byte matrix (see
    /// [`drivefi_bayes::fit_cpts`]), allocated once at its final size: a
    /// row per three consecutive frames, 30 bytes each, then the
    /// kinematic grid's rows.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::NoBins`] when `bins` is 0,
    /// [`BayesError::NoTrainingData`] when no frame observes a variable
    /// (`w_dist` on a corpus without a lead object) and
    /// [`BayesError::TooManyCategories`] when a
    /// variable ends up with more categories than a data byte holds;
    /// propagates CPT validation failures (which indicate a bug, since
    /// the structure is fixed and acyclic).
    pub fn fit(traces: &[Trace], bins: usize) -> Result<Self, BayesError> {
        let projected: Vec<_> = traces
            .iter()
            .map(|t| ProjectedTrace {
                scenario_id: t.scenario_id,
                frames: t.frames.iter().map(TbnFrame::of).collect(),
            })
            .collect();
        Self::fit_projected(&projected, bins)
    }

    /// [`TbnModel::fit`] over traces already reduced to [`TbnFrame`]s.
    pub(crate) fn fit_projected(
        traces: &[ProjectedTrace<TbnFrame>],
        bins: usize,
    ) -> Result<Self, BayesError> {
        if bins == 0 {
            return Err(BayesError::NoBins);
        }
        // 1. Discretizers from all observed (Some) values.
        let mut discretizers = Vec::with_capacity(10);
        for var in TbnVar::ALL {
            let data: Vec<f64> = traces
                .iter()
                .flat_map(|t| t.frames.iter())
                .filter_map(|f| var.extract(f))
                .collect();
            if data.is_empty() {
                return Err(BayesError::NoTrainingData { name: var.name().into() });
            }
            discretizers.push(Discretizer::fit(&data, bins));
        }

        // 2. Cardinalities (+1 no-lead category for W vars).
        let mut cards = [0usize; 10];
        for (k, var) in TbnVar::ALL.iter().enumerate() {
            cards[k] = discretizers[k].bins() + usize::from(var.has_no_lead());
        }

        // 3. Unroll and fit.
        let template = Self::template(&cards);
        let (mut net, ids, structure) = template.unroll(3);
        check_categories(&net)?;
        let model = TbnModel { net: BayesNet::new(), ids: ids.clone(), discretizers, bins };

        let width = net.len();
        let windows: usize = traces.iter().map(|t| t.frames.len().saturating_sub(2)).sum();
        let synthetic = model.kinematic_row_count(&cards);
        let mut data = Vec::with_capacity((windows + synthetic) * width);
        let mut scenes: Vec<SceneCategories> = Vec::new();
        for trace in traces {
            scenes.clear();
            scenes
                .extend(trace.frames.iter().map(|f| model.categories(&model.observe_projected(f))));
            for window in scenes.windows(3) {
                let start = data.len();
                data.resize(start + width, 0);
                for (slice, categories) in window.iter().enumerate() {
                    for (id, &category) in ids[slice].iter().zip(categories) {
                        data[start + id.0] = category;
                    }
                }
            }
        }
        // The synthetic transitions inform only the *kinematic* CPDs (how
        // M and W evolve given actuation) — the *behavioral* CPDs (what
        // the planner/controller command given the world, i.e. P(U|W,M)
        // and P(A|U)) must come from golden behavior alone, or the
        // synthetic grid would dilute them to uniform and the forecasts
        // of the ego's reaction would be garbage.
        let ids_ref = &ids;
        let kinematic_children: Vec<VarId> = (0..3)
            .flat_map(|slice| {
                [TbnVar::MV, TbnVar::MA, TbnVar::WDist, TbnVar::WSpeed]
                    .into_iter()
                    .map(move |v| ids_ref[slice][v.index()])
            })
            .collect();
        let (kin_structure, beh_structure): (Vec<_>, Vec<_>) =
            structure.into_iter().partition(|(child, _)| kinematic_children.contains(child));
        fit_cpts(&mut net, &beh_structure, &data, 1.0)?;
        model.kinematic_rows(&ids, &cards, &mut data);
        debug_assert_eq!(data.len(), (windows + synthetic) * width);
        fit_cpts(&mut net, &kin_structure, &data, 1.0)?;
        Ok(TbnModel { net, ..model })
    }

    /// Rows [`TbnModel::kinematic_rows`] appends: one per grid point.
    fn kinematic_row_count(&self, cards: &[usize; 10]) -> usize {
        let bins = |var: TbnVar| self.discretizers[var.index()].bins();
        let leads = (cards[TbnVar::WDist.index()] - 1) * (cards[TbnVar::WSpeed.index()] - 1) + 1;
        bins(TbnVar::MV) * bins(TbnVar::AThrottle) * bins(TbnVar::ABrake) * leads
    }

    /// Synthetic one-scene transitions over the full
    /// (speed × throttle × brake × lead) grid, computed from the vehicle
    /// kinematics: `v' = v + a·Δt`, `gap' = gap + (v_lead − v)·Δt`, with
    /// `a = ζ·a_max − b·a_dec − drag·v`. Appends one byte row per grid
    /// point to `data`.
    fn kinematic_rows(&self, ids: &[Vec<VarId>], cards: &[usize; 10], data: &mut Vec<u8>) {
        const SCENE_DT: f64 = 4.0 / 30.0;
        let params = drivefi_kinematics::VehicleParams::default();
        let n_net: usize = ids.iter().map(|s| s.len()).sum();
        let rep = |var: TbnVar, cat: usize| self.representative(var, cat);

        let v_bins = self.discretizers[TbnVar::MV.index()].bins();
        let thr_bins = self.discretizers[TbnVar::AThrottle.index()].bins();
        let brk_bins = self.discretizers[TbnVar::ABrake.index()].bins();
        let gap_cards = cards[TbnVar::WDist.index()];
        let ws_cards = cards[TbnVar::WSpeed.index()];
        let no_gap = gap_cards - 1;
        let no_ws = ws_cards - 1;
        let steer_cat = self.category_of(TbnVar::ASteer, 0.0);

        for v_cat in 0..v_bins {
            let v = rep(TbnVar::MV, v_cat).expect("speed bin");
            for thr_cat in 0..thr_bins {
                let thr = rep(TbnVar::AThrottle, thr_cat).expect("throttle bin");
                for brk_cat in 0..brk_bins {
                    let brk = rep(TbnVar::ABrake, brk_cat).expect("brake bin");
                    let accel = thr * params.max_accel - brk * params.max_decel - params.drag * v;
                    let v2 = (v + accel * SCENE_DT).clamp(0.0, params.max_speed);
                    for gap_cat in 0..gap_cards {
                        // Pair each gap with a representative lead speed
                        // sweep; no-lead pairs only with no-lead.
                        let ws_cats = if gap_cat == no_gap { no_ws..ws_cards } else { 0..no_ws };
                        for ws_cat in ws_cats {
                            let (gap2_cat, ws2_cat) = if gap_cat == no_gap {
                                (no_gap, no_ws)
                            } else {
                                let gap = rep(TbnVar::WDist, gap_cat).expect("gap bin");
                                let ws = rep(TbnVar::WSpeed, ws_cat).expect("lead speed bin");
                                let gap2 = (gap + (ws - v) * SCENE_DT).max(0.0);
                                (self.category_of(TbnVar::WDist, gap2), ws_cat)
                            };
                            let a_cat = self.category_of(TbnVar::MA, accel);
                            let v2_cat = self.category_of(TbnVar::MV, v2);
                            // U channels have their own discretizers
                            // (possibly different bin counts than the A
                            // channels) — map through continuous values.
                            let u_thr_cat = self.category_of(TbnVar::UThrottle, thr);
                            let u_brk_cat = self.category_of(TbnVar::UBrake, brk);
                            let u_steer_cat = self.category_of(TbnVar::USteer, 0.0);

                            let start = data.len();
                            data.resize(start + n_net, 0);
                            let row = &mut data[start..];
                            // Categories fit in a byte: the fit checked
                            // every cardinality.
                            let mut set = |slice: usize, var: TbnVar, cat: usize| {
                                row[ids[slice][var.index()].0] = cat as u8;
                            };
                            for slice in 0..3 {
                                set(slice, TbnVar::WDist, gap_cat);
                                set(slice, TbnVar::WSpeed, ws_cat);
                                set(slice, TbnVar::MV, v_cat);
                                set(slice, TbnVar::MA, a_cat);
                                set(slice, TbnVar::UThrottle, u_thr_cat);
                                set(slice, TbnVar::UBrake, u_brk_cat);
                                set(slice, TbnVar::USteer, u_steer_cat);
                                set(slice, TbnVar::AThrottle, thr_cat);
                                set(slice, TbnVar::ABrake, brk_cat);
                                set(slice, TbnVar::ASteer, steer_cat);
                            }
                            set(2, TbnVar::WDist, gap2_cat);
                            set(2, TbnVar::WSpeed, ws2_cat);
                            set(2, TbnVar::MV, v2_cat);
                        }
                    }
                }
            }
        }
    }

    /// Number of quantile bins per continuous variable.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Discretizes one frame record into per-variable categories
    /// ([`NO_LEAD`] marks an absent lead object).
    pub fn observe(&self, f: &FrameRecord) -> SceneObs {
        self.observe_projected(&TbnFrame::of(f))
    }

    /// [`TbnModel::observe`] of a projected frame.
    pub(crate) fn observe_projected(&self, f: &TbnFrame) -> SceneObs {
        let mut obs = [0usize; 10];
        for (k, var) in TbnVar::ALL.iter().enumerate() {
            obs[k] = match var.extract(f) {
                Some(v) => self.discretizers[k].transform(v),
                None => NO_LEAD,
            };
        }
        obs
    }

    /// The network category for a variable given a raw (continuous)
    /// value.
    pub fn category_of(&self, var: TbnVar, value: f64) -> usize {
        self.discretizers[var.index()].transform(value)
    }

    /// The no-lead network category of a lead variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable has no no-lead category.
    pub fn no_lead_category(&self, var: TbnVar) -> usize {
        assert!(var.has_no_lead(), "{} has no no-lead category", var.name());
        self.discretizers[var.index()].bins()
    }

    /// Converts a network category back to a representative continuous
    /// value; `None` for the no-lead category.
    pub fn representative(&self, var: TbnVar, category: usize) -> Option<f64> {
        let d = &self.discretizers[var.index()];
        (category < d.bins()).then(|| d.representative(category))
    }

    /// The network id of `var` in `slice`.
    pub fn id(&self, slice: usize, var: TbnVar) -> VarId {
        self.ids[slice][var.index()]
    }

    /// The network category of every variable of an observation, a
    /// byte each (see [`SceneCategories`]).
    pub(crate) fn categories(&self, obs: &SceneObs) -> SceneCategories {
        // Categories fit in a byte: the fit checked every cardinality.
        TbnVar::ALL.map(|v| self.obs_category(v, obs) as u8)
    }

    /// The network category for an observation entry (maps [`NO_LEAD`]
    /// to the last category).
    pub fn obs_category(&self, var: TbnVar, obs: &SceneObs) -> usize {
        let raw = obs[var.index()];
        if raw == NO_LEAD {
            self.no_lead_category(var)
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_golden_traces;
    use drivefi_sim::SimConfig;
    use drivefi_world::ScenarioSuite;

    fn small_model() -> (TbnModel, Vec<Trace>) {
        let suite = ScenarioSuite::generate(8, 42);
        let traces = collect_golden_traces(&SimConfig::default(), &suite, 8);
        let model = TbnModel::fit(&traces, 6).unwrap();
        (model, traces)
    }

    #[test]
    fn model_fits_and_has_30_nodes() {
        let (model, _) = small_model();
        assert_eq!(model.net.len(), 30);
        assert_eq!(model.ids.len(), 3);
    }

    #[test]
    fn observation_round_trip() {
        let (model, traces) = small_model();
        let frame = &traces[1].frames[100];
        let obs = model.observe(frame);
        // The m_v category must map back near the observed speed.
        let cat = obs[TbnVar::MV.index()];
        let rep = model.representative(TbnVar::MV, cat).unwrap();
        assert!((rep - frame.imu_speed).abs() < 6.0, "rep {rep} vs {}", frame.imu_speed);
    }

    #[test]
    fn no_lead_category_is_last() {
        let (model, traces) = small_model();
        // free_drive (scenario 0) has no lead: w_dist must be NO_LEAD.
        let obs = model.observe(&traces[0].frames[50]);
        assert_eq!(obs[TbnVar::WDist.index()], NO_LEAD);
        assert_eq!(model.obs_category(TbnVar::WDist, &obs), model.no_lead_category(TbnVar::WDist));
        assert!(model
            .representative(TbnVar::WDist, model.no_lead_category(TbnVar::WDist))
            .is_none());
    }

    /// The category of `m_v@2` in the joint MAP with `evidence` observed
    /// and `do(interventions)`.
    fn map_speed(
        model: &TbnModel,
        evidence: &[(VarId, usize)],
        interventions: &[(VarId, usize)],
    ) -> usize {
        let ids = |pairs: &[(VarId, usize)]| pairs.iter().map(|p| p.0).collect::<Vec<_>>();
        let query = model.net.compile_map(&ids(evidence), &ids(interventions)).unwrap();
        let mut assignment = vec![0; model.net.len()];
        for &(var, value) in evidence.iter().chain(interventions) {
            assignment[var.0] = value;
        }
        query.run(&mut assignment, &mut drivefi_bayes::MapScratch::default()).unwrap();
        assignment[model.id(2, TbnVar::MV).0]
    }

    #[test]
    fn learned_dynamics_predict_speed_persistence() {
        let (model, traces) = small_model();
        // Evidence: two slices of a steady cruise scene; the MAP of
        // m_v@2 should be the same category (speed persists).
        let f = &traces[1].frames;
        let mid = f.len() / 2;
        let mut ev = Vec::new();
        for (slice, frame) in [&f[mid], &f[mid + 1]].iter().enumerate() {
            let obs = model.observe(frame);
            for var in TbnVar::ALL {
                ev.push((model.id(slice, var), model.obs_category(var, &obs)));
            }
        }
        let map = map_speed(&model, &ev, &[]);
        let expected = model.obs_category(TbnVar::MV, &model.observe(&f[mid + 2]));
        assert!(
            (map as i64 - expected as i64).abs() <= 1,
            "m_v@2 MAP {map} far from observed {expected}"
        );
    }

    #[test]
    fn throttle_intervention_raises_predicted_speed() {
        let (model, traces) = small_model();
        let f = &traces[1].frames;
        let actuate = |throttle: f64, brake: f64| {
            [
                (model.id(1, TbnVar::AThrottle), model.category_of(TbnVar::AThrottle, throttle)),
                (model.id(1, TbnVar::ABrake), model.category_of(TbnVar::ABrake, brake)),
            ]
        };
        let speed = |c| model.representative(TbnVar::MV, c).unwrap();
        let mut raised = 0;
        for k in (1..f.len() - 2).step_by(7) {
            // Observe slice 0 fully and slice 1 upstream of A.
            let (obs0, obs1) = (model.observe(&f[k]), model.observe(&f[k + 1]));
            let mut ev: Vec<_> = TbnVar::ALL
                .iter()
                .map(|&v| (model.id(0, v), model.obs_category(v, &obs0)))
                .collect();
            for v in [TbnVar::WDist, TbnVar::WSpeed, TbnVar::MV, TbnVar::MA] {
                ev.push((model.id(1, v), model.obs_category(v, &obs1)));
            }
            let base = speed(map_speed(&model, &ev, &[]));
            let full_throttle = speed(map_speed(&model, &ev, &actuate(1.0, 0.0)));
            let full_brake = speed(map_speed(&model, &ev, &actuate(0.0, 1.0)));
            assert!(full_throttle >= base, "full throttle lowered the speed at {k}");
            assert!(
                full_throttle >= full_brake,
                "full throttle predicted slower than braking at {k}"
            );
            raised += usize::from(full_throttle > full_brake);
        }
        assert!(raised > 0, "do(A) never moved the predicted speed");
    }
}
