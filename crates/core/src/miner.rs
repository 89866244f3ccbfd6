//! The Bayesian fault-selection engine (paper §III-B).

use crate::tbn::{SceneCategories, SceneObs, TbnFrame, TbnModel, TbnVar};
use drivefi_ads::Signal;
use drivefi_bayes::{BayesError, Counterfactual};
use drivefi_fault::ScalarFaultModel;
use drivefi_sim::{FrameRecord, Trace};
use drivefi_store::StoreError;
use std::collections::HashMap;

/// Miner configuration.
#[derive(Debug, Clone, Copy)]
pub struct MinerConfig {
    /// Quantile bins per continuous variable.
    pub bins: usize,
    /// Evaluate every `scene_stride`-th eligible scene (1 = all).
    pub scene_stride: usize,
    /// A candidate joins `F_crit` when `δ̂_do(f) ≤ delta_threshold`.
    pub delta_threshold: f64,
    /// Longitudinal comfort margin `d_safe,min` \[m\].
    pub margin_lon: f64,
    /// Lateral comfort margin \[m\].
    pub margin_lat: f64,
    /// Assumed braking deceleration \[m/s²\] (matches the hazard monitor).
    pub brake_decel: f64,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            bins: 6,
            scene_stride: 1,
            delta_threshold: 0.0,
            margin_lon: 2.0,
            margin_lat: 0.3,
            brake_decel: 8.0,
        }
    }
}

/// The BN's forecast of the final-actuation triple at the faulted slice:
/// what reaches the vehicle interface while the corruption is live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseForecast {
    /// Final throttle `A_t` \[0, 1\].
    pub throttle: f64,
    /// Final brake `A_t` \[0, 1\].
    pub brake: f64,
    /// Final steering `A_t` \[rad\].
    pub steering: f64,
}

/// A candidate fault evaluated by the miner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateFault {
    /// Scenario the scene belongs to.
    pub scenario_id: u32,
    /// Scene (7.5 Hz frame) index at which the fault is injected.
    pub scene: u64,
    /// Target signal.
    pub signal: Signal,
    /// Corruption (min or max stuck value, paper fault model *b*).
    pub model: ScalarFaultModel,
    /// Ground-truth δ (min of both axes) at the scene in the golden run.
    pub golden_delta: f64,
    /// The counterfactual `δ̂_do(f)` inferred through the 3-TBN.
    pub predicted_delta: f64,
}

impl CandidateFault {
    /// The validation-time [`drivefi_fault::FaultSpec`]: this candidate's
    /// corruption held for the [`crate::report::VALIDATION_WINDOW_SCENES`]
    /// injection window at its mined scene. Validation and the
    /// exhaustive ground-truth comparison both compile (and key) their
    /// faults through this spec, so the two judge the exact same fault.
    pub fn fault_spec(&self) -> drivefi_fault::FaultSpec {
        drivefi_fault::FaultSpec {
            kind: drivefi_fault::FaultKind::Scalar { signal: self.signal, model: self.model },
            window: drivefi_fault::WindowSpec::burst(
                self.scene,
                crate::report::VALIDATION_WINDOW_SCENES,
            ),
        }
    }
}

/// A mined fault together with its validation outcome.
#[derive(Debug, Clone)]
pub struct MinedFault {
    /// The candidate as mined.
    pub candidate: CandidateFault,
    /// Outcome of the real injection run.
    pub outcome: drivefi_sim::Outcome,
}

/// The signals the 3-TBN models, with their template variables. Signals
/// outside this list remain available to the random campaigns but are
/// not mined:
///
/// * pose position/heading — the pose plausibility gate (production
///   localization monitoring) rejects implausible jumps, so min/max
///   corruptions there are masked by construction;
/// * `ImuSpeed`/`ImuAccel` — the same gate bounds per-tick speed jumps,
///   making gross `M_t` corruptions unreachable.
///
/// Mining only the reachable fault surface mirrors the paper, which
/// mines the variables its BN models and its injector can land.
pub const MINED_SIGNALS: [(Signal, TbnVar); 8] = [
    (Signal::LeadDistance, TbnVar::WDist),
    (Signal::LeadSpeed, TbnVar::WSpeed),
    (Signal::RawThrottle, TbnVar::UThrottle),
    (Signal::RawBrake, TbnVar::UBrake),
    (Signal::RawSteering, TbnVar::USteer),
    (Signal::FinalThrottle, TbnVar::AThrottle),
    (Signal::FinalBrake, TbnVar::ABrake),
    (Signal::FinalSteering, TbnVar::ASteer),
];

/// The slice-1 variables a [`ResponseForecast`] reads.
const FORECAST_VARS: [TbnVar; 3] = [TbnVar::AThrottle, TbnVar::ABrake, TbnVar::ASteer];

/// Variables in the unrolled 3-TBN.
const NET_VARS: usize = 3 * TbnVar::ALL.len();

/// A forecast's memo key: both scenes' network categories, the
/// intervened variable's template index and its category, in 22 bytes.
type ForecastKey = (SceneCategories, SceneCategories, u8, u8);

/// What candidate enumeration reads of a golden frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SceneEligibility {
    /// The ground-truth δ is safe on both axes (Eq. 1's pre-condition).
    pub safe: bool,
    /// A lead object exists, so the lead-object signals hold a live value.
    pub lead: bool,
}

impl SceneEligibility {
    /// The eligibility of the scene `frame` recorded.
    pub fn of(frame: &FrameRecord) -> SceneEligibility {
        Self::of_projected(&TbnFrame::of(frame))
    }

    fn of_projected(frame: &TbnFrame) -> SceneEligibility {
        SceneEligibility { safe: frame.delta_true.is_safe(), lead: frame.lead_distance.is_some() }
    }
}

/// The candidate enumeration, written once: [`BayesianMiner::candidates`]
/// over one golden trace's scenes, given each scene's eligibility in
/// scene order. [`crate::candidate_specs`] and
/// [`crate::candidate_specs_from_store`] go through it too, so every
/// campaign kind indexes the same candidate space.
pub(crate) fn scene_candidates(
    scene_stride: usize,
    scenes: impl ExactSizeIterator<Item = SceneEligibility>,
) -> impl Iterator<Item = (usize, Signal, TbnVar, ScalarFaultModel)> {
    let n = scenes.len();
    let tail = (3 * crate::report::VALIDATION_WINDOW_SCENES) as usize;
    scenes
        .enumerate()
        .skip(1)
        .step_by(scene_stride.max(1))
        .filter(move |(k, scene)| *k + tail < n && scene.safe)
        .flat_map(|(k, scene)| {
            MINED_SIGNALS
                .into_iter()
                .filter(move |(_, var)| scene.lead || !var.has_no_lead())
                .flat_map(move |(sig, var)| {
                    [
                        (k, sig, var, ScalarFaultModel::StuckMin),
                        (k, sig, var, ScalarFaultModel::StuckMax),
                    ]
                })
        })
}

/// The golden corpus as mining reads it once the 3-TBN is fitted:
/// [`BayesianMiner::fit_from_store`] returns it, and
/// [`BayesianMiner::mine_corpus`], [`BayesianMiner::predict_corpus`] and
/// [`GoldenCorpus::candidate_count`] read it. Every scene keeps its
/// [`SceneEligibility`], which is all that candidate enumeration reads.
/// Only the scenes a forecast reads keep the fields the 3-TBN observes
/// and procedure P speculates from: each stride-sampled scene k (1, 1 +
/// stride, …) and its predecessor k − 1. At stride 8 that is a quarter
/// of the frames, at stride 64 one in 32.
#[derive(Debug, Clone)]
pub struct GoldenCorpus {
    /// The miner's scene stride the corpus was thinned at (at least 1).
    scene_stride: usize,
    traces: Vec<CorpusTrace>,
}

/// One golden trace of a [`GoldenCorpus`].
#[derive(Debug, Clone)]
struct CorpusTrace {
    scenario_id: u32,
    /// Every scene's eligibility, in scene order.
    scenes: Vec<SceneEligibility>,
    /// The frames of scenes `i` with `i % stride < 2`, in scene order.
    kept: Vec<TbnFrame>,
}

impl GoldenCorpus {
    /// Thins `(scenario id, frames)` traces at `scene_stride`.
    fn new<F: ExactSizeIterator<Item = TbnFrame>>(
        scene_stride: usize,
        traces: impl Iterator<Item = (u32, F)>,
    ) -> GoldenCorpus {
        let stride = scene_stride.max(1);
        let traces = traces
            .map(|(scenario_id, frames)| {
                let n = frames.len();
                let mut scenes = Vec::with_capacity(n);
                let mut kept = Vec::with_capacity(n.div_ceil(stride) * stride.min(2));
                for (i, frame) in frames.enumerate() {
                    scenes.push(SceneEligibility::of_projected(&frame));
                    if i % stride < 2 {
                        kept.push(frame);
                    }
                }
                CorpusTrace { scenario_id, scenes, kept }
            })
            .collect();
        GoldenCorpus { scene_stride: stride, traces }
    }

    /// The kept frame of scene `i` of `trace`.
    fn frame<'c>(&self, trace: &'c CorpusTrace, i: usize) -> &'c TbnFrame {
        let stride = self.scene_stride;
        debug_assert!(i % stride < 2, "scene {i} is not kept at stride {stride}");
        &trace.kept[i / stride * stride.min(2) + i % stride]
    }

    /// The candidates of `trace`, as [`BayesianMiner::candidates`] lists
    /// them.
    fn candidates<'c>(
        &self,
        trace: &'c CorpusTrace,
    ) -> impl Iterator<Item = (usize, Signal, TbnVar, ScalarFaultModel)> + 'c {
        scene_candidates(self.scene_stride, trace.scenes.iter().copied())
    }

    /// Total number of candidate faults over the corpus: what
    /// [`BayesianMiner::candidate_count`] counts over the traces it was
    /// thinned from.
    pub fn candidate_count(&self) -> usize {
        self.traces.iter().map(|t| self.candidates(t).count()).sum()
    }
}

/// The continuous value of `signal` recorded in a trace frame, when the
/// trace captures that signal.
fn recorded_value(frame: &TbnFrame, signal: Signal) -> Option<f64> {
    match signal {
        Signal::LeadDistance => frame.lead_distance,
        Signal::LeadSpeed => frame.lead_speed,
        Signal::RawThrottle => Some(frame.raw_cmd.throttle),
        Signal::RawBrake => Some(frame.raw_cmd.brake),
        Signal::RawSteering => Some(frame.raw_cmd.steering),
        Signal::FinalThrottle => Some(frame.final_cmd.throttle),
        Signal::FinalBrake => Some(frame.final_cmd.brake),
        Signal::FinalSteering => Some(frame.final_cmd.steering),
        _ => None,
    }
}

/// The Bayesian miner: a fitted 3-TBN plus the counterfactual machinery.
#[derive(Debug, Clone)]
pub struct BayesianMiner {
    model: TbnModel,
    config: MinerConfig,
    /// The distinct values a [`ResponseForecast`] can hold, ascending:
    /// the bin representatives of `A_throttle`, `A_brake` and `A_steer`.
    forecast_values: [Vec<f64>; 3],
    /// The counterfactual query of every template variable, reading back
    /// the [`FORECAST_VARS`] of slice 1.
    counterfactual: Counterfactual,
}

impl BayesianMiner {
    /// Fits the 3-TBN from golden traces.
    ///
    /// # Errors
    ///
    /// Propagates model-fitting failures.
    pub fn fit(traces: &[Trace], config: MinerConfig) -> Result<Self, BayesError> {
        Self::compile(TbnModel::fit(traces, config.bins)?, config)
    }

    /// The miner of a fitted model: compiles its counterfactual queries.
    fn compile(model: TbnModel, config: MinerConfig) -> Result<Self, BayesError> {
        let forecast_values = FORECAST_VARS.map(|v| {
            // Every category `forecast` can read back, as its `rep1` does.
            let mut values: Vec<f64> = (0..model.net.cardinality(model.id(1, v)))
                .map(|c| model.representative(v, c).unwrap_or(0.0))
                .collect();
            values.sort_by(f64::total_cmp);
            values.dedup_by_key(|x| x.to_bits());
            values
        });
        let reads = FORECAST_VARS.map(|v| model.id(1, v));
        let counterfactual = Counterfactual::new(&model.net, &model.ids, &reads)?;
        Ok(BayesianMiner { model, config, forecast_values, counterfactual })
    }

    /// Fits the miner from the golden traces persisted in a
    /// trace-logging store — the resumable form of
    /// [`BayesianMiner::fit`]: an interrupted mining pipeline re-fits
    /// from disk instead of re-simulating its golden runs. Returns the
    /// [`GoldenCorpus`] alongside, so the caller can mine without
    /// re-reading the store.
    ///
    /// One pass over the store ([`drivefi_store::read_projected_traces`])
    /// keeps only what the fit and the miner read of each frame. The
    /// 3-TBN is fitted on that, the corpus is thinned at the config's
    /// stride, and only then are the counterfactual queries compiled, so
    /// they never share the heap with the whole projection. Persisted
    /// frames round-trip every `f64` bit-exactly, so the fitted miner,
    /// and therefore everything it mines and predicts from the corpus,
    /// is identical to one fitted from the same traces in memory.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on store I/O failure, incomplete traces,
    /// or a model-fit failure.
    pub fn fit_from_store(
        dir: impl AsRef<std::path::Path>,
        config: MinerConfig,
    ) -> Result<(Self, GoldenCorpus), StoreError> {
        let (_, traces) = drivefi_store::read_projected_traces(dir, TbnFrame::of)?;
        let fit_error =
            |e: BayesError| StoreError::new(format!("fitting 3-TBN from persisted traces: {e}"));
        let model = TbnModel::fit_projected(&traces, config.bins).map_err(fit_error)?;
        let corpus = GoldenCorpus::new(
            config.scene_stride,
            traces.into_iter().map(|t| (t.scenario_id, t.frames.into_iter())),
        );
        Ok((Self::compile(model, config).map_err(fit_error)?, corpus))
    }

    /// The [`GoldenCorpus`] of in-memory golden traces, thinned at this
    /// miner's stride.
    fn corpus(&self, traces: &[Trace]) -> GoldenCorpus {
        GoldenCorpus::new(
            self.config.scene_stride,
            traces.iter().map(|t| (t.scenario_id, t.frames.iter().map(TbnFrame::of))),
        )
    }

    /// The fitted model.
    pub fn model(&self) -> &TbnModel {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// The BN's forecast of the ADS's *within-period response* to a held
    /// fault: the final-actuation triple of the faulted slice under
    /// `do(var@1 = category)` — how the controller output reacts while
    /// the corruption is live (the generic analog of the paper's Eq. 2,
    /// with the kinematic reconstruction left to
    /// [`BayesianMiner::delta_hat_from_forecast`]).
    ///
    /// The BN is deliberately **not** asked for the post-fault world
    /// state: a corrupted perception variable changes the ADS's beliefs
    /// and hence its actuation, but not the physical obstacles.
    ///
    /// The query is [`Counterfactual::run`]: the joint MAP over all
    /// unobserved variables, compiled once per intervened variable. When
    /// the forecast variables are all observed or intervened (the
    /// interventions on a final-actuation channel), the joint MAP keeps
    /// them at their evidence, so the forecast skips inference.
    ///
    /// # Errors
    ///
    /// Propagates out-of-range categories as [`Counterfactual::run`]
    /// reports them.
    pub fn forecast(
        &self,
        obs0: &SceneObs,
        obs1: &SceneObs,
        var: TbnVar,
        category: usize,
    ) -> Result<ResponseForecast, BayesError> {
        let categories = |obs: &SceneObs| TbnVar::ALL.map(|v| self.model.obs_category(v, obs));
        let mut assignment = [0usize; NET_VARS];
        self.counterfactual.run(
            var.index(),
            category,
            [&categories(obs0), &categories(obs1)],
            &mut assignment,
        )?;
        let rep1 = |v: TbnVar| {
            self.model.representative(v, assignment[self.model.id(1, v).0]).unwrap_or(0.0)
        };
        Ok(ResponseForecast {
            throttle: rep1(TbnVar::AThrottle),
            brake: rep1(TbnVar::ABrake),
            steering: rep1(TbnVar::ASteer),
        })
    }

    /// The memo key of [`BayesianMiner::forecast`]`(obs0, obs1, var,
    /// category)`: the forecast is a function of the network categories,
    /// and these fit in bytes.
    fn forecast_key(
        &self,
        obs0: &SceneObs,
        obs1: &SceneObs,
        var: TbnVar,
        category: usize,
    ) -> ForecastKey {
        // Categories fit in a byte: the fit checked every cardinality.
        (
            self.model.categories(obs0),
            self.model.categories(obs1),
            var.index() as u8,
            category as u8,
        )
    }

    /// Computes `δ̂_do(f)` for the scene recorded in `frame`, given the
    /// BN-forecast actuation response — the paper's "speculating forward
    /// in time to after the fault has been injected, recomputing `d_stop`
    /// under the fault" (§III-B).
    ///
    /// The speculation horizon equals the validation injection window
    /// ([`crate::report::VALIDATION_WINDOW_SCENES`] scenes, the Example-1
    /// persistence): the faulted actuation is held for the window, the
    /// vehicle kinematics integrate it (procedure `P`), the lead (if
    /// any) continues at its ground-truth speed, and the emergency-stop
    /// criteria evaluated at the end of the window produce the
    /// counterfactual safety potential. Forecasting the same horizon the
    /// validator injects is what makes δ̂ commensurable with the real
    /// outcome.
    pub fn delta_hat_from_forecast(&self, frame: &FrameRecord, response: &ResponseForecast) -> f64 {
        self.delta_hat_projected(&TbnFrame::of(frame), response)
    }

    /// [`BayesianMiner::delta_hat_from_forecast`] at a projected frame.
    fn delta_hat_projected(&self, frame: &TbnFrame, response: &ResponseForecast) -> f64 {
        const SCENE_DT: f64 = 4.0 / 30.0;
        let window = crate::report::VALIDATION_WINDOW_SCENES as f64;
        let horizon = window * SCENE_DT;
        let params = drivefi_kinematics::VehicleParams::default();

        // Longitudinal: the held actuation determines acceleration.
        let v0 = frame.ego_v;
        let throttle = response.throttle.clamp(0.0, 1.0);
        let brake = response.brake.clamp(0.0, 1.0);
        let a_lon = throttle * params.max_accel - brake * params.max_decel - params.drag * v0;
        let v_end = (v0 + a_lon * horizon).clamp(0.0, params.max_speed);
        let v_avg = 0.5 * (v0 + v_end);

        let d_safe = match frame.lead_distance {
            Some(gap) => {
                let lead_v = frame.lead_speed.unwrap_or(0.0).max(0.0);
                let gap_end = (gap + (lead_v - v_avg) * horizon).max(0.0);
                gap_end + lead_v * lead_v / (2.0 * self.config.brake_decel)
            }
            None => 200.0,
        };
        let d_stop = v_end * v_end / (2.0 * self.config.brake_decel);
        let delta_lon = d_safe - self.config.margin_lon - d_stop;

        // Lateral axis: a centered vehicle has ~0.9 m of lane clearance.
        // The held steering — bounded by the vehicle interface's
        // speed-dependent envelope — accrues lateral drift over the
        // window, on top of the terminal lateral arrest distance.
        let steer_limit = drivefi_kinematics::BicycleModel::new(params).steer_limit(v_avg);
        let phi = response.steering.clamp(-steer_limit, steer_limit);
        let a_lat = (v_avg * v_avg * phi.tan() / params.wheelbase).clamp(
            -drivefi_kinematics::SafetyPotential::MAX_STEER_LATERAL_ACCEL,
            drivefi_kinematics::SafetyPotential::MAX_STEER_LATERAL_ACCEL,
        );
        let drift = 0.5 * a_lat.abs() * horizon * horizon;
        let theta_end = if v_avg > 1e-6 { a_lat * horizon / v_avg } else { 0.0 };
        let state = drivefi_kinematics::VehicleState::new(0.0, 0.0, v_end, theta_end, phi);
        let lat_stop =
            drivefi_kinematics::SafetyPotential::lateral_stop_distance(&params, &state, 0.0);
        let delta_lat = 0.9 - self.config.margin_lat - drift - lat_stop;

        delta_lon.min(delta_lat)
    }

    /// A lower bound on `δ̂` at the scene of `frame` for every fault whose
    /// signal does not override an actuation channel exactly: the least
    /// [`BayesianMiner::delta_hat_from_forecast`] over all forecasts the
    /// BN can give, i.e. every combination of bin representatives of the
    /// three final-actuation channels. Such a fault's `δ̂` is that
    /// function of one of these combinations, so it is never lower.
    pub fn delta_hat_floor(&self, frame: &FrameRecord) -> f64 {
        self.floor_projected(&TbnFrame::of(frame))
    }

    /// [`BayesianMiner::delta_hat_floor`] at a projected frame.
    fn floor_projected(&self, frame: &TbnFrame) -> f64 {
        let [throttles, brakes, steerings] = &self.forecast_values;
        let mut floor = f64::INFINITY;
        for &throttle in throttles {
            for &brake in brakes {
                for &steering in steerings {
                    let response = ResponseForecast { throttle, brake, steering };
                    floor = floor.min(self.delta_hat_projected(frame, &response));
                }
            }
        }
        floor
    }

    /// True when [`BayesianMiner::apply_exact_value`] replaces a channel
    /// for this signal.
    fn overrides_exact(signal: Signal) -> bool {
        matches!(
            signal,
            Signal::FinalThrottle
                | Signal::FinalBrake
                | Signal::FinalSteering
                | Signal::RawSteering
        )
    }

    /// The exact-value override for the forecast response: when the
    /// corrupted signal *is* (or envelope-binds) a final-actuation
    /// channel, the injected continuous value is known exactly and beats
    /// the bin representative (a median of golden values, which for
    /// steering never approaches the injected extreme — golden runs
    /// steer millirads).
    fn apply_exact_value(signal: Signal, value: f64, response: &mut ResponseForecast) {
        match signal {
            Signal::FinalThrottle => response.throttle = value,
            Signal::FinalBrake => response.brake = value,
            // The controller's envelope clamp means a held raw steering
            // command binds at the same speed-dependent limit the final
            // channel does, so the exact value is faithful for both.
            Signal::FinalSteering | Signal::RawSteering => response.steering = value,
            _ => {}
        }
    }

    /// Convenience: forecast + exact-value override + reconstruction in
    /// one call, for the fault `signal:model` at the scene of `frame`.
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn delta_hat(
        &self,
        frame: &FrameRecord,
        obs0: &SceneObs,
        obs1: &SceneObs,
        signal: Signal,
        model: ScalarFaultModel,
    ) -> Result<f64, BayesError> {
        let var = MINED_SIGNALS
            .iter()
            .find(|(s, _)| *s == signal)
            .map(|(_, v)| *v)
            .expect("signal is mined");
        let value = model.apply(0.0, signal.range());
        let category = self.model.category_of(var, value);
        let mut response = self.forecast(obs0, obs1, var, category)?;
        Self::apply_exact_value(signal, value, &mut response);
        Ok(self.delta_hat_from_forecast(frame, &response))
    }

    /// The candidate list for one trace: every `scene_stride`-th scene
    /// from scene 1 × mined signal × {min, max}, as `(frame index,
    /// signal, variable, model)`. Eligible scenes are those with positive
    /// golden δ (Eq. 1's pre-condition) and enough scenario left for the
    /// fault to play out — the injection window plus the recovery
    /// transient (a fault injected into the final seconds of a scenario
    /// is censored, not masked, and the paper's scenes all had full
    /// scenario remaining). Faults on lead-object signals are only
    /// candidates when a lead object exists — corrupting a variable that
    /// holds no live value is a no-op (the injector would write
    /// nothing). Only each frame's [`SceneEligibility`] is read.
    pub fn candidates<'t>(
        &self,
        trace: &'t Trace,
    ) -> impl Iterator<Item = (usize, Signal, TbnVar, ScalarFaultModel)> + 't {
        scene_candidates(self.config.scene_stride, trace.frames.iter().map(SceneEligibility::of))
    }

    /// Mines the critical set `F_crit` over golden traces (Eq. 1):
    /// candidates whose counterfactual δ̂ falls at or below the
    /// threshold. Results are sorted by ascending δ̂ (most critical
    /// first). [`BayesianMiner::mine_corpus`] of the traces' corpus.
    pub fn mine(&self, traces: &[Trace]) -> Vec<CandidateFault> {
        self.mine_corpus(&self.corpus(traces))
    }

    /// [`BayesianMiner::mine`] over a [`GoldenCorpus`].
    ///
    /// The cost is one [`BayesianMiner::forecast`] per candidate that is
    /// neither a no-op nor pruned: a compiled MAP query, or none at all
    /// for the final-actuation interventions. A candidate whose signal
    /// is not applied exactly is pruned, at no forecast, when its
    /// scene's [`BayesianMiner::delta_hat_floor`] (computed once per
    /// scene) exceeds the threshold: its `δ̂` cannot reach it, so the
    /// result is the same as without pruning. Forecasts are memoized on
    /// the discretized evidence, one trace at a time: sampled scenes
    /// seldom repeat their bins, and scenes of different scenarios
    /// hardly ever. On the paper suite 14 of 6,255 lookups hit within a
    /// trace at stride 8 (35 corpus-wide) and 1,049 of 48,588 at stride
    /// 1 (1,926), none at stride 64, while a corpus-wide table held
    /// every forecast: 8,192 slots of 48 bytes at stride 8.
    ///
    /// # Panics
    ///
    /// Panics if the corpus was thinned at another stride than this
    /// miner's.
    pub fn mine_corpus(&self, corpus: &GoldenCorpus) -> Vec<CandidateFault> {
        self.check_stride(corpus);
        let mut cache: HashMap<ForecastKey, ResponseForecast> = HashMap::new();
        let mut out = Vec::new();
        for trace in &corpus.traces {
            cache.clear();
            // The last scene that needed a floor, and its floor (scene 0
            // is never a candidate).
            let mut floor = (0, f64::NAN);
            for (k, signal, var, model) in corpus.candidates(trace) {
                let value = match model {
                    ScalarFaultModel::StuckMin => signal.range().min,
                    ScalarFaultModel::StuckMax => signal.range().max,
                    other => {
                        debug_assert!(false, "unexpected mining model {other:?}");
                        continue;
                    }
                };
                let category = self.model.category_of(var, value);
                let frame = corpus.frame(trace, k);
                let obs0 = self.model.observe_projected(corpus.frame(trace, k - 1));
                let obs1 = self.model.observe_projected(frame);
                // Skip true no-ops. For exact-override channels that
                // means the injected value equals the recorded one; for
                // the rest, bin identity (the forecast cannot change).
                if Self::overrides_exact(signal) {
                    if let Some(r) = recorded_value(frame, signal) {
                        if (r - value).abs() < 1e-9 {
                            continue;
                        }
                    }
                } else if self.model.obs_category(var, &obs1) == category {
                    continue;
                } else {
                    // Skip what cannot reach the threshold.
                    if floor.0 != k {
                        floor = (k, self.floor_projected(frame));
                    }
                    if floor.1 > self.config.delta_threshold {
                        continue;
                    }
                }
                let mut response = *cache
                    .entry(self.forecast_key(&obs0, &obs1, var, category))
                    .or_insert_with(|| {
                        self.forecast(&obs0, &obs1, var, category)
                            .expect("inference on fitted model")
                    });
                Self::apply_exact_value(signal, value, &mut response);
                let delta_hat = self.delta_hat_projected(frame, &response);
                if delta_hat <= self.config.delta_threshold {
                    out.push(CandidateFault {
                        scenario_id: trace.scenario_id,
                        scene: frame.scene,
                        signal,
                        model,
                        golden_delta: frame.delta_true.longitudinal.min(frame.delta_true.lateral),
                        predicted_delta: delta_hat,
                    });
                }
            }
        }
        out.sort_by(|a, b| {
            a.predicted_delta.partial_cmp(&b.predicted_delta).expect("finite deltas")
        });
        out
    }

    /// The counterfactual δ̂ for **every** candidate over the traces, in
    /// [`crate::exhaustive::candidate_specs`] order — the unfiltered
    /// sibling of [`BayesianMiner::mine`], for acquisition loops that
    /// need a prediction per candidate rather than only the critical
    /// set. `predictions[i].fault_spec()` is exactly
    /// `candidate_specs(miner, traces)[i].1`, so the two enumerations
    /// index the same job space. [`BayesianMiner::predict_corpus`] of
    /// the traces' corpus.
    pub fn predict_deltas(&self, traces: &[Trace]) -> Vec<CandidateFault> {
        self.predict_corpus(&self.corpus(traces))
    }

    /// [`BayesianMiner::predict_deltas`] over a [`GoldenCorpus`].
    ///
    /// Candidates [`BayesianMiner::mine`] skips as true no-ops (the
    /// injected value equals the recorded one, or the bin cannot change)
    /// keep their golden δ: injecting them would leave the run — and so
    /// its safety margin — unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the corpus was thinned at another stride than this
    /// miner's.
    pub fn predict_corpus(&self, corpus: &GoldenCorpus) -> Vec<CandidateFault> {
        self.check_stride(corpus);
        let mut cache: HashMap<ForecastKey, ResponseForecast> = HashMap::new();
        let mut out = Vec::new();
        for trace in &corpus.traces {
            cache.clear();
            for (k, signal, var, model) in corpus.candidates(trace) {
                let value = match model {
                    ScalarFaultModel::StuckMin => signal.range().min,
                    ScalarFaultModel::StuckMax => signal.range().max,
                    other => {
                        debug_assert!(false, "unexpected mining model {other:?}");
                        continue;
                    }
                };
                let frame = corpus.frame(trace, k);
                let golden_delta = frame.delta_true.longitudinal.min(frame.delta_true.lateral);
                let category = self.model.category_of(var, value);
                let obs0 = self.model.observe_projected(corpus.frame(trace, k - 1));
                let obs1 = self.model.observe_projected(frame);
                // Same no-op test as mine(): exact-override channels
                // compare injected to recorded values, the rest compare
                // bins. A no-op's forecast is the golden margin itself.
                let noop = if Self::overrides_exact(signal) {
                    recorded_value(frame, signal).is_some_and(|r| (r - value).abs() < 1e-9)
                } else {
                    self.model.obs_category(var, &obs1) == category
                };
                let predicted_delta = if noop {
                    golden_delta
                } else {
                    let mut response = *cache
                        .entry(self.forecast_key(&obs0, &obs1, var, category))
                        .or_insert_with(|| {
                            self.forecast(&obs0, &obs1, var, category)
                                .expect("inference on fitted model")
                        });
                    Self::apply_exact_value(signal, value, &mut response);
                    self.delta_hat_projected(frame, &response)
                };
                out.push(CandidateFault {
                    scenario_id: trace.scenario_id,
                    scene: frame.scene,
                    signal,
                    model,
                    golden_delta,
                    predicted_delta,
                });
            }
        }
        out
    }

    /// Panics unless `corpus` was thinned at this miner's stride.
    fn check_stride(&self, corpus: &GoldenCorpus) {
        assert_eq!(
            corpus.scene_stride,
            self.config.scene_stride.max(1),
            "the corpus was thinned at another scene stride than the miner's"
        );
    }

    /// Total number of candidate faults over the traces — the size of
    /// the exhaustive campaign the miner replaces (paper: 98 400).
    pub fn candidate_count(&self, traces: &[Trace]) -> usize {
        traces.iter().map(|t| self.candidates(t).count()).sum()
    }

    /// [`BayesianMiner::mine`] fanned out over `workers` threads (one
    /// trace shard per worker task, each with its own memo cache), via
    /// the workspace's central fan-out primitive
    /// ([`drivefi_sim::parallel_map`]). Results are identical to the
    /// serial version up to ordering, and are returned sorted the same
    /// way.
    pub fn mine_parallel(&self, traces: &[Trace], workers: usize) -> Vec<CandidateFault> {
        let shards =
            drivefi_sim::parallel_map(traces.iter().map(std::slice::from_ref), workers, |shard| {
                self.mine(shard)
            });
        let mut out: Vec<CandidateFault> = shards.into_iter().flatten().collect();
        out.sort_by(|a, b| {
            a.predicted_delta.partial_cmp(&b.predicted_delta).expect("finite deltas")
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_golden_traces;
    use drivefi_sim::SimConfig;
    use drivefi_world::ScenarioSuite;

    fn miner() -> (BayesianMiner, Vec<Trace>) {
        let suite = ScenarioSuite::generate(8, 42);
        let traces = collect_golden_traces(&SimConfig::default(), &suite, 8);
        let config = MinerConfig { scene_stride: 10, ..MinerConfig::default() };
        (BayesianMiner::fit(&traces, config).unwrap(), traces)
    }

    #[test]
    fn candidate_enumeration_counts() {
        let (m, traces) = miner();
        let n = m.candidate_count(&traces);
        // 8 scenarios × ~30 sampled scenes × 10 signals × 2 values,
        // minus no-lead scenes for lead signals and unsafe scenes.
        assert!(n > 200, "n = {n}");
        assert!(n < 8 * 31 * 20, "n = {n}");
    }

    #[test]
    fn brake_min_throttle_max_is_predicted_worse_than_golden() {
        let (m, traces) = miner();
        // In a car-following trace, do(A_brake = 0) + evidence should
        // never *improve* δ̂ relative to do(A_brake = max).
        let t = &traces[2];
        let mid = t.frames.len() / 2;
        let frame = &t.frames[mid];
        let obs0 = m.model.observe(&t.frames[mid - 1]);
        let obs1 = m.model.observe(frame);
        let brake_min = m
            .delta_hat(frame, &obs0, &obs1, Signal::FinalBrake, ScalarFaultModel::StuckMin)
            .unwrap();
        let brake_max = m
            .delta_hat(frame, &obs0, &obs1, Signal::FinalBrake, ScalarFaultModel::StuckMax)
            .unwrap();
        assert!(
            brake_min < brake_max,
            "no braking ({brake_min}) should forecast tighter than full braking ({brake_max})"
        );
    }

    #[test]
    fn perception_underestimate_faults_are_not_mined() {
        // A min-distance perception fault makes the ADS *brake* — the
        // ego response forecast must not call that hazardous.
        let (m, traces) = miner();
        let trace = traces
            .iter()
            .find(|t| t.frames.iter().any(|f| f.lead_distance.is_some()))
            .expect("a trace with a lead");
        let k = trace.frames.iter().position(|f| f.lead_distance.is_some()).unwrap().max(1);
        let frame = &trace.frames[k];
        let obs0 = m.model.observe(&trace.frames[k - 1]);
        let obs1 = m.model.observe(frame);
        let cat = m.model.category_of(TbnVar::WDist, 0.0);
        if m.model.obs_category(TbnVar::WDist, &obs1) == cat {
            return; // already in the lowest bin — nothing to intervene
        }
        let dh = m
            .delta_hat(frame, &obs0, &obs1, Signal::LeadDistance, ScalarFaultModel::StuckMin)
            .unwrap();
        let golden = frame.delta_true.longitudinal;
        assert!(
            dh >= golden.min(0.0) - 3.0,
            "phantom-braking fault predicted catastrophic: δ̂ = {dh}, golden = {golden}"
        );
    }

    #[test]
    fn fit_from_store_mines_the_same_critical_set() {
        // Persist golden traces through the store, re-fit from disk, and
        // compare the mined F_crit candidate-for-candidate: the trace
        // log round-trips every f64 bit-exactly, so nothing may drift.
        let suite = ScenarioSuite::generate(4, 42);
        let sim = SimConfig::default();
        let traces = collect_golden_traces(&sim, &suite, 4);
        let config = MinerConfig { scene_stride: 12, ..MinerConfig::default() };
        let in_memory = BayesianMiner::fit(&traces, config).unwrap();

        let dir = std::env::temp_dir().join(format!("drivefi-fitstore-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (mut writer, _) =
            drivefi_store::open_store_with_traces(&dir, 1, traces.len() as u64, 2, 64).unwrap();
        for (job, trace) in traces.iter().enumerate() {
            for frame in &trace.frames {
                writer
                    .append_trace(&drivefi_store::TraceRecord {
                        job: job as u64,
                        scenario_id: trace.scenario_id,
                        scenario_seed: suite.scenarios[job].seed,
                        frame: *frame,
                    })
                    .unwrap();
            }
            writer
                .append(&drivefi_store::CampaignRecord {
                    job: job as u64,
                    scenario_id: trace.scenario_id,
                    scenario_seed: suite.scenarios[job].seed,
                    fault: None,
                    outcome: drivefi_sim::Outcome::Safe,
                    injections: 0,
                    scenes: trace.frames.len() as u64,
                    min_delta_lon: 1.0,
                    min_delta_lat: 1.0,
                })
                .unwrap();
        }
        assert!(writer.finish().unwrap().complete);

        let (from_store, corpus) = BayesianMiner::fit_from_store(&dir, config).unwrap();
        let (_, loaded) = drivefi_store::read_traces(&dir).unwrap();
        assert_eq!(loaded, traces, "persisted traces round-trip bit-exactly");
        assert_eq!(
            in_memory.candidate_count(&traces),
            corpus.candidate_count(),
            "candidate enumeration drifted through the store"
        );
        assert_eq!(
            in_memory.mine(&traces),
            from_store.mine_corpus(&corpus),
            "mined F_crit drifted through the store"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bins_outside_a_byte_are_errors() {
        let suite = ScenarioSuite::generate(4, 42);
        let traces = collect_golden_traces(&SimConfig::default(), &suite, 4);
        let fit =
            |bins| BayesianMiner::fit(&traces, MinerConfig { bins, ..MinerConfig::default() });
        assert_eq!(fit(0).err(), Some(BayesError::NoBins));
        // The lead distance takes more than 256 distinct values, and its
        // no-lead category makes a 257th.
        let wdist = TbnVar::WDist;
        match fit(drivefi_bayes::MAX_CATEGORIES) {
            Err(BayesError::TooManyCategories { var, cardinality }) => {
                assert_eq!(var.0, wdist.index(), "the first variable past a byte is w_dist@0");
                assert_eq!(cardinality, drivefi_bayes::MAX_CATEGORIES + 1);
            }
            other => panic!("expected too many categories, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn mining_returns_sorted_critical_set() {
        let (m, traces) = miner();
        let crit = m.mine(&traces);
        for w in crit.windows(2) {
            assert!(w[0].predicted_delta <= w[1].predicted_delta);
        }
        for c in &crit {
            assert!(c.golden_delta > 0.0, "Eq. 1 pre-condition violated");
            assert!(c.predicted_delta <= 0.0);
        }
    }

    #[test]
    fn forecasts_reject_out_of_range_categories_with_or_without_inference() {
        let (m, traces) = miner();
        let obs0 = m.model.observe(&traces[2].frames[40]);
        let obs1 = m.model.observe(&traces[2].frames[41]);
        for var in [TbnVar::AThrottle, TbnVar::WDist] {
            let id = m.model.id(1, var);
            let value = m.model.net.cardinality(id);
            assert_eq!(
                m.forecast(&obs0, &obs1, var, value),
                Err(BayesError::BadCategory { var: id, value }),
                "do({})",
                var.name()
            );
        }
    }

    #[test]
    fn steering_faults_shrink_lateral_forecast() {
        let (m, traces) = miner();
        let t = &traces[2];
        let mid = t.frames.len() / 2;
        let frame = &t.frames[mid];
        let obs0 = m.model.observe(&t.frames[mid - 1]);
        let obs1 = m.model.observe(frame);
        // Hard-right steering pinned at the controller output: the
        // forecast δ must shrink relative to a centered command (the
        // lateral-acceleration interlock keeps the one-step effect
        // bounded, so it need not go negative).
        let hard = m
            .delta_hat(frame, &obs0, &obs1, Signal::FinalSteering, ScalarFaultModel::StuckMax)
            .unwrap();
        assert!(hard < 0.7, "hard steer fault predicted harmless: {hard}");
    }
}
