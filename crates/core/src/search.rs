//! The HGNAS search pipeline (paper Alg. 1 plus the Fig. 9 ablation modes).

use crate::clock::SearchClock;
use crate::ea::{evolve_with, EaConfig, EaSnapshot, EaState};
use crate::eval::{CandidateScorer, EvalStats, Evaluator};
use crate::objective::{CandidateMetrics, Objective};
use crate::supernet::Supernet;
use hgnas_device::{
    DeviceKind, DevicePersona, DeviceProfile, ExecutionReport, MeasureError, PersonaError, Workload,
};
use hgnas_ops::{lower_edgeconv, Architecture, DgcnnConfig, FunctionSet, OpType};
use hgnas_pointcloud::{Batch, DatasetConfig, PointCloud, SynthNet40, Task, TaskKind, NUM_CLASSES};
use hgnas_predictor::{LatencyPredictor, PredictorConfig, PredictorContext, TrainStats};
use hgnas_tensor::threads::with_kernel_threads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How candidate latency is obtained during the search (Fig. 9(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyMode {
    /// The GCN-based predictor: milliseconds per query on the search host.
    Predictor,
    /// Simulated real-time measurement on the target device: pays the
    /// deployment round-trip plus repeated inference runs per query.
    Measured,
}

/// Search-space traversal strategy (Fig. 9(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's two-stage hierarchical search: functions first, then
    /// operations on a pre-trained supernet.
    MultiStage,
    /// Joint one-stage baseline over the full fine-grained space; every
    /// candidate pays its own supernet training.
    OneStage,
}

/// Task definition: what is learned (the [`TaskKind`]), the dataset, and
/// the supernet geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskConfig {
    /// Which task family the search optimises for (classification,
    /// segmentation, robustness). Selects dataset generation, batching,
    /// the model's output head and the labels accuracy is scored against.
    pub task_kind: TaskKind,
    /// Dataset generation parameters.
    pub dataset: DatasetConfig,
    /// Supernet positions (paper: 12).
    pub positions: usize,
    /// Neighbour fanout (paper: 20).
    pub k: usize,
    /// Supernet hidden width.
    pub supernet_hidden: usize,
    /// Classifier hidden widths.
    pub head_hidden: Vec<usize>,
    /// Base RNG seed.
    pub seed: u64,
}

impl TaskConfig {
    /// Minimal task for unit tests (4 classes, 48 points).
    pub fn tiny(seed: u64) -> Self {
        TaskConfig {
            task_kind: TaskKind::Classification,
            dataset: DatasetConfig::tiny(seed),
            positions: 6,
            k: 8,
            supernet_hidden: 16,
            head_hidden: vec![16],
            seed,
        }
    }

    /// Reduced-scale default (10 classes, 128 points) used by the
    /// harnesses; runs end-to-end in tens of seconds.
    pub fn small(seed: u64) -> Self {
        TaskConfig {
            task_kind: TaskKind::Classification,
            dataset: DatasetConfig::small(seed),
            positions: 8,
            k: 10,
            supernet_hidden: 24,
            head_hidden: vec![48],
            seed,
        }
    }

    /// Paper-scale task (40 classes, 1024 points, 12 positions).
    pub fn paper(seed: u64) -> Self {
        TaskConfig {
            task_kind: TaskKind::Classification,
            dataset: DatasetConfig::paper(seed),
            positions: 12,
            k: 20,
            supernet_hidden: 64,
            head_hidden: vec![128],
            seed,
        }
    }

    /// Points per cloud.
    pub fn points(&self) -> usize {
        self.dataset.points
    }

    /// Classes in the dataset.
    pub fn classes(&self) -> usize {
        self.dataset.classes
    }

    /// The pluggable task implementation behind [`TaskConfig::task_kind`].
    pub fn task(&self) -> &'static dyn Task {
        self.task_kind.task()
    }

    /// Output width of the searched model's head under this task — the
    /// dataset's class count for per-cloud tasks, the part count for
    /// segmentation.
    pub fn out_classes(&self) -> usize {
        self.task().out_classes(&self.dataset)
    }

    /// The matching-scale DGCNN baseline configuration (the latency
    /// reference and default constraint).
    pub fn reference_dgcnn(&self) -> DgcnnConfig {
        let mut cfg = if self.points() >= 512 {
            DgcnnConfig::paper(self.classes())
        } else {
            DgcnnConfig::small(self.classes())
        };
        cfg.k = self.k;
        cfg
    }

    /// Predictor context for this task.
    pub fn predictor_context(&self) -> PredictorContext {
        PredictorContext {
            positions: self.positions,
            points: self.points(),
            k: self.k,
            classes: self.out_classes(),
            head_hidden: self.head_hidden.clone(),
        }
    }

    /// Checks the geometry and dataset counts a search would otherwise
    /// panic on deep inside lowering or dataset generation.
    ///
    /// # Errors
    ///
    /// The first [`TaskError`] found.
    pub fn validate(&self) -> Result<(), TaskError> {
        let d = &self.dataset;
        if self.k == 0 || self.k >= d.points {
            return Err(TaskError::Neighbours {
                k: self.k,
                points: d.points,
            });
        }
        if d.classes == 0 || d.classes > NUM_CLASSES {
            return Err(TaskError::Classes(d.classes));
        }
        if d.train_per_class == 0 || d.test_per_class == 0 {
            return Err(TaskError::EmptySplit {
                train_per_class: d.train_per_class,
                test_per_class: d.test_per_class,
            });
        }
        Ok(())
    }
}

/// Why a [`TaskConfig`] cannot be searched (see [`TaskConfig::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The neighbour fanout must be at least 1 and below the points per
    /// cloud.
    Neighbours {
        /// The requested fanout.
        k: usize,
        /// Points per cloud.
        points: usize,
    },
    /// The dataset must have between 1 and [`NUM_CLASSES`] classes.
    Classes(usize),
    /// Every class needs at least one training and one test cloud.
    EmptySplit {
        /// Training clouds per class.
        train_per_class: usize,
        /// Base test clouds per class.
        test_per_class: usize,
    },
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Neighbours { k, points } => {
                write!(f, "k = {k} must be in 1..{points} (points per cloud)")
            }
            TaskError::Classes(c) => write!(f, "{c} classes, need 1..={NUM_CLASSES}"),
            TaskError::EmptySplit {
                train_per_class,
                test_per_class,
            } => write!(
                f,
                "empty split: {train_per_class} train and {test_per_class} test clouds per class"
            ),
        }
    }
}

impl std::error::Error for TaskError {}

/// Search hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Target edge device.
    pub device: DeviceKind,
    /// A custom device persona overriding the builtin profile of `device`.
    /// When set, `device` must equal the persona's base kind
    /// ([`SearchConfig::with_persona`] maintains this) — kind-keyed
    /// artifacts and codecs keep working, while every latency, energy and
    /// memory number comes from the persona's profile.
    pub persona: Option<DevicePersona>,
    /// Accuracy weight α (Eq. 1/3).
    pub alpha: f64,
    /// Latency weight β (Eq. 1/3).
    pub beta: f64,
    /// Inference-energy weight γ: `0.0` (the default) prices energy out of
    /// the objective entirely — scoring then does bit-identical arithmetic
    /// to the pre-multi-metric pipeline. Non-zero weights subtract
    /// `γ·energy/reference_energy` per Eq. (3)'s latency term shape.
    pub gamma: f64,
    /// Peak-inference-memory weight δ; same contract as `gamma`.
    pub delta: f64,
    /// Hard latency constraint in ms; defaults to the DGCNN reference
    /// latency when `None` (a found model must at least beat the baseline).
    pub constraint_ms: Option<f64>,
    /// Optional hard model-size constraint in MB.
    pub max_size_mb: Option<f64>,
    /// Optional hard inference-energy constraint in mJ.
    pub max_energy_mj: Option<f64>,
    /// Optional hard peak-inference-memory constraint in MB.
    pub max_peak_mem_mb: Option<f64>,
    /// EA settings for Stage 1 (function search).
    pub ea_stage1: EaConfig,
    /// EA settings for Stage 2 (operation search).
    pub ea_stage2: EaConfig,
    /// Supernet epochs per Stage-1 candidate (paper: 50).
    pub epochs_stage1: usize,
    /// Supernet pre-training epochs before Stage 2 (paper: 500).
    pub epochs_stage2: usize,
    /// Latency source.
    pub latency_mode: LatencyMode,
    /// Traversal strategy.
    pub strategy: Strategy,
    /// Predictor training settings (used in [`LatencyMode::Predictor`]).
    pub predictor: PredictorConfig,
    /// Cap on validation clouds per accuracy evaluation.
    pub eval_clouds: usize,
    /// Total thread budget for candidate evaluation: the parallel
    /// evaluator splits it between EA-level workers and kernel-level
    /// matmul threads. Results are bit-identical for any value ≥ 1.
    pub eval_threads: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Default total thread budget: the machine's parallelism, capped so the
/// reduced-scale harnesses don't pay spawn overhead for tiny batches.
fn default_eval_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8)
}

impl SearchConfig {
    /// Fast settings for the reduced-scale harnesses (seconds, not hours).
    pub fn fast(device: DeviceKind) -> Self {
        SearchConfig {
            device,
            persona: None,
            alpha: 1.0,
            beta: 0.6,
            gamma: 0.0,
            delta: 0.0,
            constraint_ms: None,
            max_size_mb: None,
            max_energy_mj: None,
            max_peak_mem_mb: None,
            ea_stage1: EaConfig {
                population: 6,
                iterations: 2,
                elite_fraction: 0.5,
                mutation_prob: 0.7,
                seed: 11,
            },
            ea_stage2: EaConfig {
                population: 10,
                iterations: 8,
                elite_fraction: 0.4,
                mutation_prob: 0.7,
                seed: 12,
            },
            epochs_stage1: 2,
            epochs_stage2: 6,
            latency_mode: LatencyMode::Predictor,
            strategy: Strategy::MultiStage,
            predictor: PredictorConfig::small(),
            eval_clouds: 60,
            eval_threads: default_eval_threads(),
            seed: 0,
        }
    }

    /// The paper's settings (Sec. IV-A): population 20, 1000 iterations,
    /// 50/500 supernet epochs, 30K predictor samples.
    pub fn paper(device: DeviceKind) -> Self {
        SearchConfig {
            device,
            persona: None,
            alpha: 1.0,
            beta: 0.6,
            gamma: 0.0,
            delta: 0.0,
            constraint_ms: None,
            max_size_mb: None,
            max_energy_mj: None,
            max_peak_mem_mb: None,
            ea_stage1: EaConfig::paper(1000),
            ea_stage2: EaConfig::paper(1000),
            epochs_stage1: 50,
            epochs_stage2: 500,
            latency_mode: LatencyMode::Predictor,
            strategy: Strategy::MultiStage,
            predictor: PredictorConfig::paper(),
            eval_clouds: 500,
            eval_threads: default_eval_threads(),
            seed: 0,
        }
    }

    /// The prefix-relevant slice of this configuration: exactly the
    /// fields [`Hgnas::prepare_session`] reads. Two configurations with
    /// equal `prefix_params()` (and equal tasks) build bit-identical
    /// [`SessionState`]s, whatever their device or persona, α/β/γ/δ
    /// weights, constraints, Stage-2 EA settings, latency mode, predictor
    /// settings or thread budget — the single source of truth for session
    /// sharing
    /// (`SessionState::validate` and the fleet layer's prefix fingerprint
    /// both consume it).
    pub fn prefix_params(&self) -> PrefixParams {
        PrefixParams {
            strategy: self.strategy,
            ea_stage1: self.ea_stage1,
            epochs_stage1: self.epochs_stage1,
            epochs_stage2: self.epochs_stage2,
            eval_clouds: self.eval_clouds,
            seed: self.seed,
        }
    }

    /// Installs a custom device persona: the search targets the persona's
    /// profile, and `device` is pinned to the persona's base kind (what
    /// kind-keyed artifacts and codecs continue to see).
    pub fn with_persona(mut self, persona: DevicePersona) -> Self {
        self.device = persona.base_kind();
        self.persona = Some(persona);
        self
    }

    /// The device profile the search executes against: the persona's when
    /// one is set, else the builtin profile of `device`.
    pub fn device_profile(&self) -> DeviceProfile {
        match &self.persona {
            Some(p) => p.profile.clone(),
            None => self.device.profile(),
        }
    }

    /// Human-readable target label for reports: the persona's name when
    /// one is set, else the builtin device name.
    pub fn device_label(&self) -> String {
        match &self.persona {
            Some(p) => p.name.clone(),
            None => self.device.name().to_string(),
        }
    }

    /// Checks the settings a search would otherwise panic on (or score
    /// nonsense with): an empty EA population, a mutation probability
    /// outside `[0, 1]` (or NaN), an objective weight that is not finite,
    /// a latency constraint or resource cap that is not finite and
    /// positive, and a persona based on another device kind than `device`.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (stage, ea) in [(1, &self.ea_stage1), (2, &self.ea_stage2)] {
            if ea.population == 0 {
                return Err(ConfigError::EmptyPopulation { stage });
            }
            if !(0.0..=1.0).contains(&ea.mutation_prob) {
                return Err(ConfigError::MutationProb {
                    stage,
                    p: ea.mutation_prob,
                });
            }
        }
        let weights = [
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("gamma", self.gamma),
            ("delta", self.delta),
        ];
        if let Some((name, value)) = weights.into_iter().find(|(_, w)| !w.is_finite()) {
            return Err(ConfigError::Weight { name, value });
        }
        let bounds = [
            ("constraint_ms", self.constraint_ms),
            ("max_size_mb", self.max_size_mb),
            ("max_energy_mj", self.max_energy_mj),
            ("max_peak_mem_mb", self.max_peak_mem_mb),
        ];
        for (name, bound) in bounds {
            if let Some(value) = bound.filter(|b| !(b.is_finite() && *b > 0.0)) {
                return Err(ConfigError::Bound { name, value });
            }
        }
        let Some(p) = &self.persona else {
            return Ok(());
        };
        if p.base_kind() != self.device {
            return Err(ConfigError::PersonaDevice {
                persona: p.name.clone(),
                base: p.base_kind(),
                device: self.device,
            });
        }
        p.validate().map_err(|error| ConfigError::PersonaProfile {
            persona: p.name.clone(),
            error,
        })
    }
}

/// Why a [`SearchConfig`] cannot be searched (see
/// [`SearchConfig::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// An EA needs at least one genome per generation.
    EmptyPopulation {
        /// The search stage (1 or 2) whose EA is empty.
        stage: u8,
    },
    /// The probability that a child comes from mutation must lie in
    /// `[0, 1]`.
    MutationProb {
        /// The search stage (1 or 2).
        stage: u8,
        /// The configured probability.
        p: f64,
    },
    /// An objective weight (α, β, γ or δ) must be finite.
    Weight {
        /// The weight's field name.
        name: &'static str,
        /// The configured weight.
        value: f64,
    },
    /// A latency constraint or resource cap, when set, must be finite and
    /// positive.
    Bound {
        /// The bound's field name.
        name: &'static str,
        /// The configured bound.
        value: f64,
    },
    /// A persona must be based on the configured device kind
    /// ([`SearchConfig::with_persona`] keeps them aligned).
    PersonaDevice {
        /// The persona's name.
        persona: String,
        /// The device kind the persona is based on.
        base: DeviceKind,
        /// The configured device.
        device: DeviceKind,
    },
    /// A persona's profile must pass [`DevicePersona::validate`]: the
    /// objective prices energy and memory against it.
    PersonaProfile {
        /// The persona's name.
        persona: String,
        /// The field out of range.
        error: PersonaError,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyPopulation { stage } => {
                write!(f, "stage-{stage} EA population must be at least 1")
            }
            ConfigError::MutationProb { stage, p } => {
                write!(
                    f,
                    "stage-{stage} mutation probability {p} must be in [0, 1]"
                )
            }
            ConfigError::Weight { name, value } => {
                write!(f, "objective weight {name} = {value} must be finite")
            }
            ConfigError::Bound { name, value } => {
                write!(f, "{name} = {value} must be finite and positive")
            }
            ConfigError::PersonaDevice {
                persona,
                base,
                device,
            } => write!(
                f,
                "persona '{persona}' is based on {} but the device is {}",
                base.name(),
                device.name()
            ),
            ConfigError::PersonaProfile { persona, error } => {
                write!(f, "persona '{persona}': {error}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The deterministic-prefix inputs of a [`SearchConfig`] — what
/// [`SearchConfig::prefix_params`] extracts. Field inventory, and why
/// each is here:
///
/// - `strategy`: selects the prefix shape (Stage 1 + pre-training vs.
///   the one-stage trivial prefix).
/// - `ea_stage1`: drives the Stage-1 function search entirely.
/// - `epochs_stage1` / `epochs_stage2`: Stage-1 candidate training and
///   supernet pre-training depth.
/// - `eval_clouds`: the Stage-1 scorer's validation subset size.
/// - `seed`: every prefix RNG derives from it (Stage-1 seeding, the
///   Stage-1 evaluator, pre-training).
///
/// Deliberately absent: the device and persona (Stage-1 scoring never
/// reads them — simulated clock costs use a fixed reference profile), the
/// α/β/γ/δ weights, the latency/size/energy/memory constraints,
/// `ea_stage2`, the latency mode, the predictor settings and the
/// bit-transparent thread budget. The *task* (including its kind) is part
/// of [`TaskConfig`] and always compared exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixParams {
    /// Traversal strategy.
    pub strategy: Strategy,
    /// Stage-1 EA settings.
    pub ea_stage1: EaConfig,
    /// Supernet epochs per Stage-1 candidate.
    pub epochs_stage1: usize,
    /// Pre-training epochs before Stage 2.
    pub epochs_stage2: usize,
    /// Validation clouds per accuracy evaluation.
    pub eval_clouds: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// A model found by the search.
#[derive(Debug, Clone)]
pub struct SearchedModel {
    /// The finalised architecture (functions instantiated per half).
    pub architecture: Architecture,
    /// The op-type genome.
    pub genome: Vec<OpType>,
    /// The (upper, lower) function sets.
    pub functions: (FunctionSet, FunctionSet),
    /// Objective score (Eq. 3).
    pub score: f64,
    /// One-shot validation accuracy under supernet weights.
    pub supernet_accuracy: f64,
    /// Latency on the target device as seen by the search (predicted or
    /// measured, per [`LatencyMode`]).
    pub latency_ms: f64,
}

/// Everything a search run produces.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best model.
    pub best: SearchedModel,
    /// `(simulated minutes, best objective so far)` — the Fig. 9 trace
    /// (Stage-2 / joint-search evaluations).
    pub history: Vec<(f64, f64)>,
    /// Total simulated search time, hours.
    pub search_hours: f64,
    /// Predictor validation stats when the predictor mode was used.
    pub predictor_stats: Option<TrainStats>,
    /// Candidate-evaluation cache/scheduling counters of the main search
    /// loop (Stage 2, or the joint one-stage loop).
    pub eval_stats: Option<EvalStats>,
    /// Stage-1 function-search cache/scheduling counters (multi-stage runs
    /// only — Stage 1 runs its own memoising evaluator).
    pub stage1_stats: Option<EvalStats>,
    /// DGCNN reference latency on the target device, ms.
    pub reference_ms: f64,
    /// The latency constraint that was enforced, ms.
    pub constraint_ms: f64,
}

/// An external measurement service the search can route latency queries
/// through instead of invoking the device simulator directly — the hook
/// `hgnas-fleet`'s measurement oracle plugs into. The search calls it from
/// its scoring threads and blocks on each reply.
///
/// Implementations must be *transparent*: given the same workload and RNG
/// state, `measure` must return exactly what
/// [`DeviceProfile::measure`] would, and leave `rng` in the same state —
/// that is what keeps a search through a backend bit-identical to an inline
/// one. Retries of transient transport failures are fine (and encouraged);
/// retrying must not consume measurement-noise draws.
pub trait MeasureBackend: Send + Sync + fmt::Debug {
    /// Measures `workload` on the backend's device, drawing measurement
    /// noise from `rng`.
    ///
    /// # Errors
    ///
    /// [`MeasureError`] exactly as [`DeviceProfile::measure`] reports it.
    fn measure(
        &self,
        workload: &Workload,
        rng: &mut StdRng,
    ) -> Result<ExecutionReport, MeasureError>;
}

/// A predictor trained in an earlier run (e.g. loaded from an artifact
/// store), paired with the statistics observed when it was trained.
/// Supplying one to [`Hgnas::run_with`] skips predictor training entirely.
#[derive(Debug, Clone)]
pub struct PretrainedPredictor {
    /// The predictor; must target the search's device and task context.
    pub predictor: Arc<LatencyPredictor>,
    /// Training statistics to surface on [`SearchOutcome::predictor_stats`].
    pub stats: TrainStats,
}

/// Full result of scoring one Stage-2 (or one-stage) candidate. Public so
/// checkpoints can persist — and artifact codecs re-encode — the
/// evaluator's score cache. `PartialEq` is what warm-start import
/// validation compares with, so it must (and does) cover every field.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    /// The instantiated architecture (rebuildable from the genome and the
    /// run's function sets, which is how codecs avoid storing it).
    pub architecture: Architecture,
    /// Objective score (Eq. 3); hard 0 for constraint violators.
    pub score: f64,
    /// One-shot validation accuracy (0 for constraint violators).
    pub accuracy: f64,
    /// Latency seen by the search, ms.
    pub latency_ms: f64,
    /// Simulated search time this evaluation cost, ms.
    pub cost_ms: f64,
    /// Whether the candidate met the latency, size, energy and memory
    /// constraints.
    pub valid: bool,
    /// Simulated inference energy on the target, mJ. `None` unless the
    /// objective prices energy or memory (execution metrics are only
    /// computed when something consumes them).
    pub energy_mj: Option<f64>,
    /// Simulated peak inference memory on the target, MB. Present exactly
    /// when `energy_mj` is.
    pub peak_mem_mb: Option<f64>,
}

/// Genome of the one-stage joint baseline: both half function sets plus
/// the op-type sequence evolve together. Public so one-stage checkpoints
/// can persist — and artifact codecs re-encode — the joint EA state.
pub type JointGenome = (FunctionSet, FunctionSet, Vec<OpType>);

/// A genome the main search loop evolves: a Stage-2 op sequence, which
/// runs under the function-set pair Stage 1 fixed for the whole run, or a
/// one-stage [`JointGenome`], which carries its own pair. The one place
/// that knows which function sets a genome runs under: the loop, its
/// checkpoints and the artifact codecs all ask it.
pub trait Genome: Clone + Eq + Hash + Sync {
    /// What every genome of one run shares: the Stage-1 function-set pair
    /// for op genomes, nothing for joint genomes.
    type Functions: Copy + PartialEq + fmt::Debug + Sync;
    /// The strategy whose main loop evolves this genome.
    const STRATEGY: Strategy;
    /// The genome's own function-set pair, if it carries one.
    fn functions(&self) -> Option<(FunctionSet, FunctionSet)>;
    /// The pair `shared` holds, if any.
    fn shared(shared: Self::Functions) -> Option<(FunctionSet, FunctionSet)>;
    /// The op sequence.
    fn ops(&self) -> &[OpType];
    /// `model`'s genome in this form: what a best model is stored as.
    fn of(model: &SearchedModel) -> Self;
    /// A checkpoint of this genome's loop, as [`RunOptions`] carries it.
    fn checkpoint(cp: SearchCheckpoint<Self>) -> Checkpoint;
    /// `cp`'s payload, if `cp` is a checkpoint of this genome's loop.
    fn payload(cp: Checkpoint) -> Option<SearchCheckpoint<Self>>;

    /// The function sets this genome runs under in a run sharing `shared`.
    fn functions_in(&self, shared: Self::Functions) -> (FunctionSet, FunctionSet) {
        self.functions()
            .or(Self::shared(shared))
            .expect("every genome carries its function sets or shares its run's")
    }
}

impl Genome for Vec<OpType> {
    type Functions = (FunctionSet, FunctionSet);
    const STRATEGY: Strategy = Strategy::MultiStage;

    fn functions(&self) -> Option<(FunctionSet, FunctionSet)> {
        None
    }

    fn shared(shared: Self::Functions) -> Option<(FunctionSet, FunctionSet)> {
        Some(shared)
    }

    fn ops(&self) -> &[OpType] {
        self
    }

    fn of(model: &SearchedModel) -> Self {
        model.genome.clone()
    }

    fn checkpoint(cp: SearchCheckpoint<Self>) -> Checkpoint {
        Checkpoint::MultiStage(cp)
    }

    fn payload(cp: Checkpoint) -> Option<SearchCheckpoint<Self>> {
        match cp {
            Checkpoint::MultiStage(cp) => Some(cp),
            Checkpoint::OneStage(_) => None,
        }
    }
}

impl Genome for JointGenome {
    type Functions = ();
    const STRATEGY: Strategy = Strategy::OneStage;

    fn functions(&self) -> Option<(FunctionSet, FunctionSet)> {
        Some((self.0, self.1))
    }

    fn shared((): ()) -> Option<(FunctionSet, FunctionSet)> {
        None
    }

    fn ops(&self) -> &[OpType] {
        &self.2
    }

    fn of(model: &SearchedModel) -> Self {
        (model.functions.0, model.functions.1, model.genome.clone())
    }

    fn checkpoint(cp: SearchCheckpoint<Self>) -> Checkpoint {
        Checkpoint::OneStage(cp)
    }

    fn payload(cp: Checkpoint) -> Option<SearchCheckpoint<Self>> {
        match cp {
            Checkpoint::MultiStage(_) => None,
            Checkpoint::OneStage(cp) => Some(cp),
        }
    }
}

/// A consistent image of an in-flight search at a generation boundary of
/// its main loop: the EA state (including its RNG mid-stream), the
/// evaluator's memo cache and stream counters, the simulated clock, the
/// history trace and the best-so-far candidate. Restoring it via
/// [`RunOptions::resume`] continues the search bit-identically to a run
/// that was never interrupted.
#[derive(Debug, Clone)]
pub struct SearchCheckpoint<G: Genome> {
    /// The search seed (validated on resume).
    pub seed: u64,
    /// The target device (validated on resume).
    pub device: DeviceKind,
    /// The function sets every genome of the run shares: the Stage-1 pair
    /// of a multi-stage run (validated against the deterministic Stage-1
    /// re-run on resume), nothing for the one-stage baseline.
    pub functions: G::Functions,
    /// The main-loop EA hyperparameters the checkpoint was taken under
    /// (validated on resume — restoring into a different population or
    /// breeding schedule would silently break bit-identity).
    pub ea_config: EaConfig,
    /// Completed generations.
    pub generation: usize,
    /// The EA mid-run.
    pub ea: EaSnapshot<G>,
    /// Evaluator counters (anchor per-candidate RNG stream ids).
    pub eval_stats: EvalStats,
    /// The evaluator's memo cache in first-scoring order.
    pub cache: Vec<(G, ScoredCandidate)>,
    /// Warm-start imports ([`RunOptions::imported_cache`]) not yet served
    /// at the boundary; resuming re-imports them so a killed warm run
    /// keeps promoting — and counting — the exact entries the
    /// uninterrupted one would have. Empty for cold runs, and so always
    /// for the one-stage baseline. (On-disk codecs rebuild each entry's
    /// architecture from the checkpoint's own function sets, which is
    /// exact for same-fingerprint imports — the bit-identity contract;
    /// donors from a different configuration are approximate transfer to
    /// begin with.)
    pub warm_cache: Vec<(G, ScoredCandidate)>,
    /// Simulated elapsed time at the boundary, ms.
    pub clock_ms: f64,
    /// The Fig. 9 history trace so far.
    pub history: Vec<(f64, f64)>,
    /// Best candidate so far, with its constraint-validity flag.
    pub best: Option<(SearchedModel, bool)>,
}

/// A checkpoint of either search strategy — what [`RunOptions::resume`]
/// accepts, [`RunOptions::checkpoint_sink`] receives, and
/// [`RunOutput::checkpoint`] returns. Handing a checkpoint of one strategy
/// to a search configured for the other panics at resume time.
#[derive(Debug, Clone)]
pub enum Checkpoint {
    /// A Stage-2 boundary of the multi-stage hierarchical search.
    MultiStage(SearchCheckpoint<Vec<OpType>>),
    /// A generation boundary of the one-stage joint baseline.
    OneStage(SearchCheckpoint<JointGenome>),
}

impl Checkpoint {
    /// Completed generations at the boundary.
    pub fn generation(&self) -> usize {
        match self {
            Checkpoint::MultiStage(cp) => cp.generation,
            Checkpoint::OneStage(cp) => cp.generation,
        }
    }

    /// Simulated elapsed time at the boundary, ms.
    pub fn clock_ms(&self) -> f64 {
        match self {
            Checkpoint::MultiStage(cp) => cp.clock_ms,
            Checkpoint::OneStage(cp) => cp.clock_ms,
        }
    }

    /// Best objective score so far, if any candidate has been scored.
    pub fn best_score(&self) -> Option<f64> {
        let best = match self {
            Checkpoint::MultiStage(cp) => &cp.best,
            Checkpoint::OneStage(cp) => &cp.best,
        };
        best.as_ref().map(|(m, _)| m.score)
    }

    /// The strategy this checkpoint belongs to.
    pub fn strategy(&self) -> Strategy {
        match self {
            Checkpoint::MultiStage(_) => Strategy::MultiStage,
            Checkpoint::OneStage(_) => Strategy::OneStage,
        }
    }

    /// The multi-stage payload, if that is what this is.
    pub fn as_multi_stage(&self) -> Option<&SearchCheckpoint<Vec<OpType>>> {
        match self {
            Checkpoint::MultiStage(cp) => Some(cp),
            Checkpoint::OneStage(_) => None,
        }
    }

    /// The one-stage payload, if that is what this is.
    pub fn as_one_stage(&self) -> Option<&SearchCheckpoint<JointGenome>> {
        match self {
            Checkpoint::MultiStage(_) => None,
            Checkpoint::OneStage(cp) => Some(cp),
        }
    }
}

/// The deterministic prefix of a search, computed once and resumable: the
/// generated dataset plus — for multi-stage runs — the Stage-1 winning
/// function sets and the pre-trained [`Supernet`].
///
/// Every multi-stage [`Hgnas::run_with`] call used to replay this prefix
/// even when resuming a checkpoint, which made generation-granular
/// preemption cost O(slices × pre-training). Building the prefix once via
/// [`Hgnas::prepare_session`] and handing it back through
/// [`RunOptions::session`] drops that to O(pre-training) per configuration:
/// the run skips straight to the (possibly checkpointed) main search loop.
///
/// A session is `Sync` and read-only except for an append-only memo of
/// the one-shot accuracies its Stage-2 runs scored (the supernet is only
/// ever run frozen), so shards sharing a configuration fingerprint share
/// one session behind an `Arc`, and with it the Stage-2 eval batches and
/// every accuracy any of them scored. Accuracy does not depend on the
/// device, the objective or the Stage-2 seed, only on the supernet, the
/// eval split and the genome, all fixed by the prefix. Runs through a
/// session are bit-identical to full replays — the invariant
/// `cached_prefix_resume_matches_full_replay` pins down.
#[derive(Debug)]
pub struct SessionState {
    task: TaskConfig,
    config: SearchConfig,
    ds: SynthNet40,
    prefix: SessionPrefix,
}

/// Strategy-specific part of a [`SessionState`].
#[derive(Debug)]
enum SessionPrefix {
    /// Multi-stage: the Stage-1 outcome and the Stage-2 evaluation state.
    MultiStage {
        functions: (FunctionSet, FunctionSet),
        stage1_stats: EvalStats,
        /// Boxed so the one-stage variant does not carry the supernet's
        /// footprint.
        stage2: Box<Stage2Eval>,
        /// Simulated elapsed time after Stage 1 + pre-training, ms.
        clock_ms: f64,
    },
    /// One-stage: no prefix beyond the dataset (every candidate trains its
    /// own supernet inside the main loop).
    OneStage,
}

/// What every Stage-2 run through one session shares: the pre-trained
/// supernet, the eval split stacked into batches, and a memo of the
/// one-shot accuracies scored on them.
#[derive(Debug)]
struct Stage2Eval {
    supernet: Supernet,
    /// Stacked once per session, after Stage 1 (whose own batches cache one
    /// neighbour graph per Stage-1 candidate), so the frozen supernet's
    /// per-batch KNN caches pay off across every run, candidate and thread.
    eval_batches: Vec<Batch>,
    /// Genome → accuracy. The lock is held only to fetch a genome's cell:
    /// different genomes score in parallel, and a second caller of a genome
    /// in flight waits on its cell instead of scoring it again. Never
    /// persisted, so a restored session starts empty.
    memo: Mutex<HashMap<Vec<OpType>, Arc<OnceLock<f64>>>>,
    /// Accuracies this session scored.
    scored: AtomicU64,
    /// Accuracy lookups the memo served, waits on another thread included.
    reused: AtomicU64,
}

impl Stage2Eval {
    fn new(supernet: Supernet, task: &TaskConfig, eval_clouds: &[PointCloud]) -> Self {
        Stage2Eval {
            supernet,
            eval_batches: task.task().batches(eval_clouds, 16),
            memo: Mutex::default(),
            scored: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// The one-shot accuracy of `genome` on the eval split: scored on the
    /// first call, from the memo after that.
    fn accuracy(&self, genome: &[OpType]) -> f64 {
        let cell = {
            let mut memo = self
                .memo
                .lock()
                .expect("no code panics while holding the accuracy memo lock");
            match memo.get(genome) {
                Some(cell) => Arc::clone(cell),
                None => Arc::clone(memo.entry(genome.to_vec()).or_default()),
            }
        };
        let mut fresh = false;
        let acc = *cell.get_or_init(|| {
            fresh = true;
            self.supernet
                .eval_genome_batched(genome, &self.eval_batches, 0)
        });
        let counter = if fresh { &self.scored } else { &self.reused };
        counter.fetch_add(1, Ordering::Relaxed);
        acc
    }
}

/// The serialisable image of a multi-stage [`SessionState`]: everything a
/// spilled session needs that is not deterministically rebuildable from
/// the task/config pair (the dataset is, the trained weights are not).
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The Stage-1 winning (upper, lower) function sets.
    pub functions: (FunctionSet, FunctionSet),
    /// Stage-1 evaluator counters, surfaced on
    /// [`SearchOutcome::stage1_stats`].
    pub stage1_stats: EvalStats,
    /// Simulated elapsed time after the prefix, ms.
    pub clock_ms: f64,
    /// Pre-trained supernet weights ([`Supernet::export_weights`] order).
    pub weights: Vec<hgnas_tensor::Tensor>,
}

impl SessionState {
    /// The strategy the session was prepared for.
    pub fn strategy(&self) -> Strategy {
        match self.prefix {
            SessionPrefix::MultiStage { .. } => Strategy::MultiStage,
            SessionPrefix::OneStage => Strategy::OneStage,
        }
    }

    /// The Stage-1 winning function sets (multi-stage sessions only).
    pub fn functions(&self) -> Option<(FunctionSet, FunctionSet)> {
        match &self.prefix {
            SessionPrefix::MultiStage { functions, .. } => Some(*functions),
            SessionPrefix::OneStage => None,
        }
    }

    /// Approximate resident size in bytes — what a memory-budgeted session
    /// cache accounts against. Counts the supernet parameters (value +
    /// Adam moments: 12 bytes each) and the dataset floats; the small
    /// fixed-size fields ride in the constant. The Stage-2 eval batches (a
    /// re-stacked copy of the eval split, plus their cached graphs) and the
    /// accuracy memo are not counted.
    pub fn approx_bytes(&self) -> u64 {
        let dataset_floats: usize = self
            .ds
            .train
            .iter()
            .chain(&self.ds.test)
            .map(|c| c.points.len())
            .sum();
        let supernet_params = match &self.prefix {
            SessionPrefix::MultiStage { stage2, .. } => {
                hgnas_nn::Module::param_count(&stage2.supernet)
            }
            SessionPrefix::OneStage => 0,
        };
        (dataset_floats * 4 + supernet_params * 12 + 1024) as u64
    }

    /// Exports the spillable image of a multi-stage session; `None` for
    /// one-stage sessions, whose entire prefix is deterministically
    /// rebuildable from the task/config pair.
    pub fn export(&self) -> Option<SessionSnapshot> {
        match &self.prefix {
            SessionPrefix::MultiStage {
                functions,
                stage1_stats,
                stage2,
                clock_ms,
            } => Some(SessionSnapshot {
                functions: *functions,
                stage1_stats: *stage1_stats,
                clock_ms: *clock_ms,
                weights: stage2.supernet.export_weights(),
            }),
            SessionPrefix::OneStage => None,
        }
    }

    /// Rebuilds a multi-stage session from a spilled snapshot: the dataset
    /// is regenerated from the task (deterministic), the supernet is
    /// reconstructed and overwritten with the snapshot weights. The result
    /// drives searches bit-identically to the session it was exported
    /// from; its accuracy memo starts empty.
    ///
    /// # Panics
    ///
    /// Panics if `config` is not a multi-stage configuration or the
    /// weights disagree with the supernet geometry `task` describes.
    pub fn restore(task: TaskConfig, config: SearchConfig, snap: SessionSnapshot) -> SessionState {
        assert_eq!(
            config.strategy,
            Strategy::MultiStage,
            "session snapshots exist for multi-stage searches only"
        );
        let ds = task.task().generate(&task.dataset);
        // The init draw is immediately overwritten; any seed works.
        let mut rng = StdRng::seed_from_u64(0);
        let mut supernet = Supernet::for_task(
            &mut rng,
            task.task_kind,
            task.positions,
            task.supernet_hidden,
            task.k,
            task.out_classes(),
            snap.functions.0,
            snap.functions.1,
            &task.head_hidden,
        );
        supernet.import_weights(&snap.weights);
        let stage2 = Stage2Eval::new(supernet, &task, eval_split(&config, &ds));
        SessionState {
            task,
            config,
            ds,
            prefix: SessionPrefix::MultiStage {
                functions: snap.functions,
                stage1_stats: snap.stage1_stats,
                stage2: Box::new(stage2),
                clock_ms: snap.clock_ms,
            },
        }
    }

    /// One-shot accuracies this session's Stage-2 runs scored (0 for a
    /// one-stage session): one per distinct genome, however many runs,
    /// shards or threads asked for it.
    pub fn accuracy_scored(&self) -> u64 {
        match &self.prefix {
            SessionPrefix::MultiStage { stage2, .. } => stage2.scored.load(Ordering::Relaxed),
            SessionPrefix::OneStage => 0,
        }
    }

    /// Accuracy lookups this session's memo served without scoring,
    /// including waits for another thread scoring the same genome.
    pub fn accuracy_reused(&self) -> u64 {
        match &self.prefix {
            SessionPrefix::MultiStage { stage2, .. } => stage2.reused.load(Ordering::Relaxed),
            SessionPrefix::OneStage => 0,
        }
    }

    /// Asserts the session is usable for this task/config pair: the task
    /// must match exactly, but of the search configuration only the
    /// *prefix-relevant* fields ([`SearchConfig::prefix_params`]) matter —
    /// the prefix build never reads the device, α/β weights, constraints,
    /// Stage-2 EA settings, latency mode, predictor settings or thread
    /// budget, so configurations differing only there share sessions.
    fn validate(&self, task: &TaskConfig, config: &SearchConfig) {
        assert_eq!(&self.task, task, "session was prepared for another task");
        assert_eq!(
            self.config.prefix_params(),
            config.prefix_params(),
            "session was prepared under a different search configuration"
        );
    }
}

/// Optional hooks for [`Hgnas::run_with`]. [`RunOptions::default`] makes it
/// behave exactly like [`Hgnas::run`].
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Route [`LatencyMode::Measured`] queries through an external
    /// measurement service instead of the inline simulator.
    pub backend: Option<Arc<dyn MeasureBackend>>,
    /// Reuse a previously trained latency predictor
    /// ([`LatencyMode::Predictor`]), skipping predictor training.
    pub predictor: Option<PretrainedPredictor>,
    /// Resume a search from a checkpoint of the matching strategy instead
    /// of starting its main loop from scratch.
    pub resume: Option<Checkpoint>,
    /// Called with a fresh checkpoint at generation boundaries of the main
    /// search loop — Stage 2 or the one-stage baseline (persist it to
    /// survive kills).
    pub checkpoint_sink: Option<&'a mut dyn FnMut(&Checkpoint)>,
    /// Boundary stride for `checkpoint_sink`: build and deliver a
    /// checkpoint every N generations (0 is treated as 1). Snapshotting
    /// clones the whole score cache, so sparse strides keep long runs
    /// cheap; the final state is always delivered regardless.
    pub checkpoint_every: usize,
    /// Stop after this many generations of the main search loop (the
    /// kill-mid-search test hook and the fleet scheduler's preemption
    /// lever): the run returns no outcome, only its last checkpoint.
    pub abort_after_generation: Option<usize>,
    /// A prior run's score cache to warm-start the Stage-2 evaluator with
    /// (see `Evaluator::import_warm_cache`): first-touch candidates found
    /// here are served verbatim instead of re-scored, surfacing as
    /// [`EvalStats::imported`]. Entries are trusted as-is — bit-identity
    /// to a cold run holds when they come from a run with the same
    /// configuration fingerprint, or from any predictor-mode run (whose
    /// scoring never draws from candidate RNG streams). Multi-stage only;
    /// the one-stage baseline asserts this is `None`.
    pub imported_cache: Option<Vec<(Vec<OpType>, ScoredCandidate)>>,
    /// A prepared [`SessionState`] for this exact task/config pair
    /// ([`Hgnas::prepare_session`]): the run reuses its dataset, Stage-1
    /// function sets and pre-trained supernet instead of replaying the
    /// deterministic prefix. Bit-identical to running without one; the
    /// lever that makes fine-grained preemption O(pre-training) per
    /// configuration instead of per slice.
    pub session: Option<&'a SessionState>,
}

/// What [`Hgnas::run_with`] returns.
#[derive(Debug)]
pub struct RunOutput {
    /// The outcome; `None` when the run was aborted via
    /// [`RunOptions::abort_after_generation`].
    pub outcome: Option<SearchOutcome>,
    /// The final checkpoint of the main search loop (Stage 2, or the
    /// one-stage joint loop): the complete scored-candidate cache plus EA
    /// end state. This is what an artifact store persists between runs.
    pub checkpoint: Option<Checkpoint>,
}

/// Latency oracle shared by both modes. Stateless (`query` takes `&self`)
/// so candidate evaluations can share it across scoring threads; the
/// measurement-noise RNG is supplied per query from the candidate's own
/// stream.
enum LatencyOracle {
    Predictor(Arc<LatencyPredictor>),
    Measured {
        profile: DeviceProfile,
        points: usize,
        head_hidden: Vec<usize>,
        /// External measurement service; `None` measures inline. A
        /// transparent backend (see [`MeasureBackend`]) never changes
        /// query results, only who executes them.
        backend: Option<Arc<dyn MeasureBackend>>,
    },
}

impl LatencyOracle {
    /// Returns (latency_ms, simulated cost of obtaining it in ms). `rng`
    /// feeds the simulated measurement noise in [`LatencyMode::Measured`];
    /// the predictor path never draws from it.
    fn query(&self, arch: &Architecture, rng: &mut StdRng) -> (f64, f64) {
        match self {
            LatencyOracle::Predictor(p) => (p.predict_ms(arch), 2.0),
            LatencyOracle::Measured {
                profile,
                points,
                head_hidden,
                backend,
            } => {
                let w = arch.lower(*points, head_hidden);
                let result = match backend {
                    Some(b) => b.measure(&w, rng),
                    None => profile.measure(&w, rng),
                };
                match result {
                    // 10 timed runs plus the deployment round-trip.
                    Ok(r) => (
                        r.latency_ms,
                        profile.measurement_roundtrip_ms + 10.0 * r.latency_ms,
                    ),
                    Err(_) => (f64::INFINITY, profile.measurement_roundtrip_ms),
                }
            }
        }
    }
}

/// Read-only context for scoring one Stage-1 function-set pair, shared
/// across the parallel evaluator's workers.
struct Stage1Scorer<'a> {
    hgnas: &'a Hgnas,
    ds: &'a SynthNet40,
    /// Evaluation split, stacked into batches once at construction so
    /// every candidate (and every worker) reuses the same batch tensors
    /// instead of re-stacking the clouds per genome.
    eval_batches: Vec<Batch>,
    /// Simulated cost of one one-shot accuracy validation, ms.
    eval_cost_ms: f64,
}

/// Result of scoring one Stage-1 candidate.
#[derive(Debug, Clone, PartialEq)]
struct Stage1Score {
    /// Mean one-shot accuracy over a few random supernet paths.
    accuracy: f64,
    /// Simulated search time the evaluation cost, ms.
    cost_ms: f64,
}

impl CandidateScorer<(FunctionSet, FunctionSet)> for Stage1Scorer<'_> {
    type Output = Stage1Score;

    fn score(&self, fs: &(FunctionSet, FunctionSet), rng: &mut StdRng) -> Stage1Score {
        let mut clk = SearchClock::new();
        let sn = self.hgnas.train_supernet_with_rng(
            *fs,
            self.hgnas.config.epochs_stage1,
            self.ds,
            rng,
            &mut clk,
        );
        // Mean one-shot accuracy over a few random paths.
        let mut acc = 0.0;
        const PATHS: usize = 3;
        for _ in 0..PATHS {
            let genome = sn.random_genome(rng);
            acc += sn.eval_genome_batched(&genome, &self.eval_batches, 0);
            clk.add_ms(self.eval_cost_ms);
        }
        Stage1Score {
            accuracy: acc / PATHS as f64,
            cost_ms: clk.elapsed_ms(),
        }
    }
}

/// The inherently serial bookkeeping the main loop's reduce step
/// maintains and checkpoints capture.
struct Book {
    clock: SearchClock,
    history: Vec<(f64, f64)>,
    best: Option<(SearchedModel, bool)>,
}

/// What one run of the main loop (possibly aborted mid-way) produced.
struct SearchRun {
    book: Book,
    eval_stats: EvalStats,
    checkpoint: Checkpoint,
    aborted: bool,
}

/// How a constraint-satisfying candidate gets its one-shot accuracy: the
/// one step in which the two strategies' scorers differ.
enum Accuracy<'a> {
    /// Stage 2: the session's pre-trained supernet, eval batches and
    /// accuracy memo.
    Session(&'a Stage2Eval),
    /// One-stage: no shared supernet; every candidate trains its own,
    /// seeded from the candidate's private stream.
    Trained {
        hgnas: &'a Hgnas,
        ds: &'a SynthNet40,
        /// Evaluation split, stacked into batches once per run.
        eval_batches: Vec<Batch>,
    },
}

impl Accuracy<'_> {
    /// The accuracy of `ops` under `functions`, and the simulated search
    /// time it cost given one validation costs `eval_cost_ms`.
    fn score(
        &self,
        ops: &[OpType],
        functions: (FunctionSet, FunctionSet),
        eval_cost_ms: f64,
        rng: &mut StdRng,
    ) -> (f64, f64) {
        match self {
            // A memoised accuracy still costs the simulated validation: the
            // clock models a search that scores every fresh candidate.
            Accuracy::Session(eval) => (eval.accuracy(ops), eval_cost_ms),
            Accuracy::Trained {
                hgnas,
                ds,
                eval_batches,
            } => {
                let mut clk = SearchClock::new();
                let sn = hgnas.train_supernet_with_rng(
                    functions,
                    hgnas.config.epochs_stage1,
                    ds,
                    rng,
                    &mut clk,
                );
                let acc = sn.eval_genome_batched(ops, eval_batches, 0);
                clk.add_ms(eval_cost_ms);
                (acc, clk.elapsed_ms())
            }
        }
    }
}

/// Read-only context for scoring one main-loop candidate, shared across
/// the parallel evaluator's workers. `F` is the genome's
/// [`Genome::Functions`].
struct Scorer<'a, F> {
    task: &'a TaskConfig,
    /// The function sets every genome of the run shares.
    functions: F,
    accuracy: Accuracy<'a>,
    oracle: &'a LatencyOracle,
    objective: &'a Objective,
    /// Target profile for energy/peak-memory costing — `Some` exactly when
    /// the objective prices those axes ([`Objective::needs_execution_metrics`]);
    /// plain latency×accuracy configs never pay the per-candidate lowering.
    exec_profile: Option<DeviceProfile>,
    /// Simulated cost of one one-shot accuracy validation, ms.
    eval_cost_ms: f64,
}

impl<G: Genome> CandidateScorer<G> for Scorer<'_, G::Functions> {
    type Output = ScoredCandidate;

    fn score(&self, genome: &G, rng: &mut StdRng) -> ScoredCandidate {
        let functions = genome.functions_in(self.functions);
        let arch = Architecture::from_genome(
            genome.ops(),
            functions.0,
            functions.1,
            self.task.k,
            self.task.out_classes(),
        );
        let (lat, mut cost) = self.oracle.query(&arch, rng);
        let mut metrics = CandidateMetrics {
            accuracy: 0.0,
            latency_ms: lat,
            size_mb: Some(arch.size_mb(3, &self.task.head_hidden)),
            energy_mj: None,
            peak_mem_mb: None,
        };
        // Deterministic (the roofline simulator draws no RNG), so pricing
        // energy or memory never perturbs candidate RNG streams.
        if let Some(profile) = &self.exec_profile {
            let report = profile.execute(&arch.lower(self.task.points(), &self.task.head_hidden));
            metrics.energy_mj = Some(report.energy_mj(profile.power_w));
            metrics.peak_mem_mb = Some(report.peak_mem_mb);
        }
        // Constraint gates first: failing candidates skip the (expensive)
        // accuracy validation, as in the paper.
        let valid = self.objective.admits(&metrics);
        let (acc, score) = if !valid {
            (0.0, 0.0)
        } else {
            let (acc, acc_cost) =
                self.accuracy
                    .score(genome.ops(), functions, self.eval_cost_ms, rng);
            cost += acc_cost;
            metrics.accuracy = acc;
            (acc, self.objective.evaluate(&metrics))
        };
        ScoredCandidate {
            architecture: arch,
            score,
            accuracy: acc,
            latency_ms: lat,
            cost_ms: cost,
            valid,
            energy_mj: metrics.energy_mj,
            peak_mem_mb: metrics.peak_mem_mb,
        }
    }
}

/// The test clouds one-shot accuracy is scored on: the first
/// `config.eval_clouds` of the test split.
fn eval_split<'a>(config: &SearchConfig, ds: &'a SynthNet40) -> &'a [PointCloud] {
    let n = config.eval_clouds.min(ds.test.len());
    &ds.test[..n]
}

/// The HGNAS framework entry point.
#[derive(Debug, Clone)]
pub struct Hgnas {
    task: TaskConfig,
    config: SearchConfig,
}

impl Hgnas {
    /// Creates a framework instance for a task/config pair.
    pub fn new(task: TaskConfig, config: SearchConfig) -> Self {
        Hgnas { task, config }
    }

    /// The task.
    pub fn task(&self) -> &TaskConfig {
        &self.task
    }

    /// The search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Generates the task dataset (deterministic in the task seed), via
    /// the task's own generator — classification delegates straight to
    /// [`SynthNet40::generate`].
    pub fn dataset(&self) -> SynthNet40 {
        self.task.task().generate(&self.task.dataset)
    }

    /// Full execution report of the DGCNN reference on the target profile
    /// — the normalisation source for every objective axis (latency,
    /// energy, peak memory).
    fn reference_report(&self) -> ExecutionReport {
        let w = lower_edgeconv(&self.task.reference_dgcnn(), self.task.points());
        self.config.device_profile().execute(&w)
    }

    /// DGCNN reference latency on the target device (or persona).
    pub fn reference_ms(&self) -> f64 {
        self.reference_report().latency_ms
    }

    /// Simulated cost of one supernet training epoch on the V100 host:
    /// every training cloud does a forward+backward (≈3× forward work) of a
    /// mid-sized candidate.
    fn epoch_cost_ms(&self, train_clouds: usize) -> f64 {
        let proxy = lower_edgeconv(&self.task.reference_dgcnn(), self.task.points());
        let per_cloud = DeviceKind::V100.profile().execute(&proxy).latency_ms;
        train_clouds as f64 * per_cloud * 3.0
    }

    /// Simulated cost of one one-shot accuracy validation.
    fn eval_cost_ms(&self, eval_clouds: usize) -> f64 {
        let proxy = lower_edgeconv(&self.task.reference_dgcnn(), self.task.points());
        let per_cloud = DeviceKind::V100.profile().execute(&proxy).latency_ms;
        eval_clouds as f64 * per_cloud
    }

    fn make_oracle(&self, opts: &RunOptions) -> (LatencyOracle, Option<TrainStats>) {
        match self.config.latency_mode {
            LatencyMode::Predictor => {
                if let Some(pre) = &opts.predictor {
                    assert_eq!(
                        pre.predictor.device(),
                        self.config.device,
                        "pre-trained predictor targets the wrong device"
                    );
                    assert_eq!(
                        *pre.predictor.context(),
                        self.task.predictor_context(),
                        "pre-trained predictor was trained for a different task context"
                    );
                    return (
                        LatencyOracle::Predictor(Arc::clone(&pre.predictor)),
                        Some(pre.stats.clone()),
                    );
                }
                let (p, stats) = LatencyPredictor::train_with_profile(
                    &self.config.device_profile(),
                    &self.task.predictor_context(),
                    &self.config.predictor,
                );
                (LatencyOracle::Predictor(Arc::new(p)), Some(stats))
            }
            LatencyMode::Measured => (
                LatencyOracle::Measured {
                    profile: self.config.device_profile(),
                    points: self.task.points(),
                    head_hidden: self.task.head_hidden.clone(),
                    backend: opts.backend.clone(),
                },
                None,
            ),
        }
    }

    fn train_supernet(
        &self,
        functions: (FunctionSet, FunctionSet),
        epochs: usize,
        ds: &SynthNet40,
        seed: u64,
        clock: &mut SearchClock,
    ) -> Supernet {
        let mut rng = StdRng::seed_from_u64(seed);
        self.train_supernet_with_rng(functions, epochs, ds, &mut rng, clock)
    }

    /// Supernet construction + training drawing from a caller-owned stream:
    /// the Stage-1 and one-stage scorers feed each candidate's private
    /// stream through here so training stays deterministic per candidate
    /// regardless of scheduling.
    fn train_supernet_with_rng(
        &self,
        functions: (FunctionSet, FunctionSet),
        epochs: usize,
        ds: &SynthNet40,
        rng: &mut StdRng,
        clock: &mut SearchClock,
    ) -> Supernet {
        let mut sn = Supernet::for_task(
            rng,
            self.task.task_kind,
            self.task.positions,
            self.task.supernet_hidden,
            self.task.k,
            self.task.out_classes(),
            functions.0,
            functions.1,
            &self.task.head_hidden,
        );
        let batches = self.task.task().batches(&ds.train, 8);
        const BASE_LR: f32 = 3e-3;
        let mut opt = hgnas_nn::Optimizer::adam(BASE_LR);
        let schedule = hgnas_nn::LrSchedule::Cosine {
            min_lr: BASE_LR / 10.0,
            total_epochs: epochs.max(1),
        };
        for epoch in 0..epochs {
            opt.set_learning_rate(schedule.lr_at(BASE_LR, epoch));
            sn.train_epoch(&batches, &mut opt, rng);
            clock.add_ms(self.epoch_cost_ms(ds.train.len()));
        }
        sn
    }

    /// Stage 1: evolve the (upper, lower) function-set pair to maximise
    /// supernet accuracy (Alg. 1 lines 4–9).
    ///
    /// Candidates run through their own memoising parallel [`Evaluator`]
    /// (per-candidate supernet training is the expensive part and fans out
    /// exactly like Stage-2 scoring): duplicate function pairs — common
    /// under single-attribute mutation — are never re-trained, and results
    /// are bit-identical at any `SearchConfig::eval_threads`.
    fn stage1(
        &self,
        ds: &SynthNet40,
        clock: &mut SearchClock,
    ) -> ((FunctionSet, FunctionSet), EvalStats) {
        let mut seed_rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let dgcnn_like = (FunctionSet::dgcnn_like(64), FunctionSet::dgcnn_like(128));
        let init = vec![
            dgcnn_like,
            (
                FunctionSet::random(&mut seed_rng),
                FunctionSet::random(&mut seed_rng),
            ),
        ];
        let eval_subset = eval_split(&self.config, ds);
        let scorer = Stage1Scorer {
            hgnas: self,
            ds,
            eval_batches: self.task.task().batches(eval_subset, 16),
            eval_cost_ms: self.eval_cost_ms(eval_subset.len()),
        };
        let mut evaluator = Evaluator::new(
            scorer,
            self.config.eval_threads,
            self.config.seed.wrapping_add(177),
            |_fs: &(FunctionSet, FunctionSet), out: &Stage1Score, fresh| {
                // Memoised duplicates cost no simulated search time: the
                // cached accuracy is reused without retraining anything.
                if fresh {
                    clock.add_ms(out.cost_ms);
                }
                out.accuracy
            },
        );
        let result = evolve_with(
            init,
            &self.config.ea_stage1,
            &mut evaluator,
            |fs, rng| mutate_function_pair(*fs, rng),
            |a, b, rng| crossover_function_pair(*a, *b, rng),
        );
        let stats = evaluator.stats();
        drop(evaluator);
        (result.best, stats)
    }

    /// The main search loop (Alg. 1 lines 10–15), shared by Stage 2 of the
    /// hierarchical search and the one-stage joint baseline of Fig. 9(b):
    /// evolve `G` genomes under the hardware-aware objective, starting
    /// from `init` at simulated time `clock`.
    ///
    /// Candidates are scored generation-at-a-time through the parallel
    /// [`Evaluator`]: duplicate genomes are served from the memo cache
    /// (never re-lowered or re-scored), and fresh genomes fan out across
    /// `SearchConfig::eval_threads` workers with per-candidate RNG streams
    /// (latency-measurement noise and one-stage supernet training both
    /// draw from the candidate's own stream), so the outcome is
    /// bit-identical for any thread count. `warm` entries are served
    /// verbatim on first touch (see `Evaluator::import_warm_cache`).
    ///
    /// The loop is checkpointable: at every generation boundary the
    /// complete state (EA + evaluator cache + clock + best-so-far) can be
    /// handed to [`RunOptions::checkpoint_sink`], it honours
    /// [`RunOptions::abort_after_generation`], and a run restored via
    /// [`RunOptions::resume`] continues the exact RNG streams of the
    /// interrupted one.
    #[allow(clippy::too_many_arguments)]
    fn search<G: Genome>(
        &self,
        scorer: Scorer<'_, G::Functions>,
        init: Vec<G>,
        mutate: fn(&G, &mut StdRng) -> G,
        crossover: fn(&G, &G, &mut StdRng) -> G,
        clock: SearchClock,
        warm: Vec<(G, ScoredCandidate)>,
        opts: &mut RunOptions,
    ) -> SearchRun {
        let functions = scorer.functions;
        // The serial bookkeeping (clock, history, best-so-far) lives in a
        // RefCell so both the evaluator's reduce closure and the
        // checkpoint builder below can reach it; the two never run at the
        // same time.
        let book = RefCell::new(Book {
            clock,
            history: Vec::new(),
            best: None,
        });
        let mut evaluator = Evaluator::new(
            scorer,
            self.config.eval_threads,
            self.config.seed.wrapping_add(77),
            |genome: &G, out: &ScoredCandidate, fresh: bool| {
                let mut b = book.borrow_mut();
                // Simulated search time is only paid for fresh evaluations:
                // a memoised candidate costs neither a latency query nor an
                // accuracy validation.
                if fresh {
                    b.clock.add_ms(out.cost_ms);
                }
                // A constraint-satisfying candidate always outranks a
                // violator, even when heavy β pushes its Eq.(3) score
                // below the violator's hard 0. Validity (latency *and*
                // size constraints) travels with the best candidate rather
                // than being re-derived from latency alone, so a size
                // violator can never block a genuinely valid candidate.
                let better = b.best.as_ref().is_none_or(|(best, best_valid)| {
                    match (out.valid, *best_valid) {
                        (true, false) => true,
                        (false, true) => false,
                        _ => out.score > best.score,
                    }
                });
                if better {
                    b.best = Some((
                        SearchedModel {
                            architecture: out.architecture.clone(),
                            genome: genome.ops().to_vec(),
                            functions: genome.functions_in(functions),
                            score: out.score,
                            supernet_accuracy: out.accuracy,
                            latency_ms: out.latency_ms,
                        },
                        out.valid,
                    ));
                }
                let t = b.clock.elapsed_min();
                let best_score = b.best.as_ref().expect("the best is set above").0.score;
                b.history.push((t, best_score));
                out.score
            },
        );

        // Restore any checkpointed evaluator state *and* apply warm-start
        // imports before the EA scores anything (generation 0 must already
        // see the imported entries). Imports layer on top of the resume:
        // genomes the checkpoint already carries are skipped, so resuming
        // a warm run and re-supplying the same import is idempotent.
        let resume_cp = opts.resume.take().map(|cp| {
            let strategy = cp.strategy();
            G::payload(cp).unwrap_or_else(|| {
                panic!(
                    "{strategy:?} checkpoint handed to a {:?} search",
                    G::STRATEGY
                )
            })
        });
        let resumed_gen = resume_cp.as_ref().map(|cp| cp.generation);
        let mut state = if let Some(cp) = resume_cp {
            assert_eq!(cp.seed, self.config.seed, "checkpoint seed mismatch");
            assert_eq!(
                cp.device, self.config.device,
                "checkpoint targets a different device"
            );
            assert_eq!(
                cp.functions, functions,
                "checkpoint function sets disagree with the Stage-1 re-run \
                 (different task or search configuration?)"
            );
            assert_eq!(
                cp.ea_config, self.config.ea_stage2,
                "checkpoint was taken under different EA hyperparameters"
            );
            assert!(
                cp.generation <= self.config.ea_stage2.iterations,
                "checkpoint is past this configuration's iteration budget"
            );
            evaluator.import_state(cp.eval_stats, cp.cache);
            evaluator.import_warm_cache(cp.warm_cache);
            evaluator.import_warm_cache(warm);
            {
                let mut b = book.borrow_mut();
                b.clock = SearchClock::from_ms(cp.clock_ms);
                b.history = cp.history;
                b.best = cp.best;
            }
            EaState::restore(&self.config.ea_stage2, cp.ea)
        } else {
            evaluator.import_warm_cache(warm);
            EaState::init(init, &self.config.ea_stage2, &mut evaluator, mutate)
        };

        let mut last_cp: Option<Checkpoint> = None;
        let mut aborted = false;
        loop {
            let done = state.is_done();
            let abort = opts
                .abort_after_generation
                .is_some_and(|g| state.generation() >= g);
            // Checkpoints are built lazily: only at boundaries the sink's
            // stride asks for, otherwise only the final state (cloning the
            // whole score cache per generation is not free). The resumed
            // entry generation is skipped — its checkpoint was already
            // delivered by the run that produced it.
            let stride = opts.checkpoint_every.max(1);
            let sink_wants = opts.checkpoint_sink.is_some()
                && state.generation().is_multiple_of(stride)
                && resumed_gen != Some(state.generation());
            if sink_wants || done || abort {
                let (eval_stats, cache) = evaluator.export_state();
                let warm_cache = evaluator.export_warm_cache();
                let b = book.borrow();
                let cp = G::checkpoint(SearchCheckpoint {
                    seed: self.config.seed,
                    device: self.config.device,
                    functions,
                    ea_config: self.config.ea_stage2,
                    generation: state.generation(),
                    ea: state.snapshot(),
                    eval_stats,
                    cache,
                    warm_cache,
                    clock_ms: b.clock.elapsed_ms(),
                    history: b.history.clone(),
                    best: b.best.clone(),
                });
                drop(b);
                if let Some(sink) = opts.checkpoint_sink.as_mut() {
                    sink(&cp);
                }
                last_cp = Some(cp);
            }
            if abort {
                aborted = true;
                break;
            }
            if done {
                break;
            }
            state.step(&mut evaluator, mutate, crossover);
        }

        let eval_stats = evaluator.stats();
        drop(evaluator);
        SearchRun {
            // The book's `best` is the source of truth, not the EA's
            // raw-fitness argmax: the valid-over-violator ranking above
            // deliberately keeps a constraint-satisfying candidate with a
            // negative Eq.(3) score ahead of a violator's hard 0, so the
            // two can legitimately name different candidates.
            book: book.into_inner(),
            eval_stats,
            checkpoint: last_cp.expect("the main loop always builds a final checkpoint"),
            aborted,
        }
    }

    /// Runs the full search and returns the outcome.
    ///
    /// The serial sections (supernet training) hand the whole
    /// `eval_threads` budget to the matmul kernels; Stage 1, Stage 2 and
    /// the one-stage baseline split it between evaluation workers and
    /// kernels. Both kernels are bit-identical, so `eval_threads` never
    /// changes the outcome.
    pub fn run(&self) -> SearchOutcome {
        self.run_with(RunOptions::default())
            .outcome
            .expect("an un-aborted search always yields an outcome")
    }

    /// Runs the search with external hooks: a measurement backend, a
    /// pre-trained predictor, checkpoint persistence and resume. See
    /// [`RunOptions`]; `run_with(RunOptions::default())` is [`Hgnas::run`]
    /// plus the final checkpoint.
    pub fn run_with(&self, opts: RunOptions) -> RunOutput {
        with_kernel_threads(self.config.eval_threads, || self.run_inner(opts))
    }

    /// Computes the deterministic prefix of this configuration — dataset
    /// generation, and for multi-stage searches the Stage-1 function
    /// search plus supernet pre-training — as a resumable
    /// [`SessionState`]. Handing it to [`RunOptions::session`] makes
    /// `run_with` skip straight to the main search loop; results are
    /// bit-identical to a run that replayed the prefix itself.
    pub fn prepare_session(&self) -> SessionState {
        with_kernel_threads(self.config.eval_threads, || self.prepare_session_inner())
    }

    fn prepare_session_inner(&self) -> SessionState {
        let ds = self.dataset();
        let prefix = match self.config.strategy {
            Strategy::MultiStage => {
                let mut clock = SearchClock::new();
                let (functions, stage1_stats) = self.stage1(&ds, &mut clock);
                let supernet = self.train_supernet(
                    functions,
                    self.config.epochs_stage2,
                    &ds,
                    self.config.seed.wrapping_add(4),
                    &mut clock,
                );
                let stage2 = Stage2Eval::new(supernet, &self.task, eval_split(&self.config, &ds));
                SessionPrefix::MultiStage {
                    functions,
                    stage1_stats,
                    stage2: Box::new(stage2),
                    clock_ms: clock.elapsed_ms(),
                }
            }
            Strategy::OneStage => SessionPrefix::OneStage,
        };
        SessionState {
            task: self.task.clone(),
            config: self.config.clone(),
            ds,
            prefix,
        }
    }

    fn run_inner(&self, mut opts: RunOptions) -> RunOutput {
        if let Some(p) = &self.config.persona {
            assert_eq!(
                p.base_kind(),
                self.config.device,
                "persona '{}' is based on another device kind than config.device \
                 (use SearchConfig::with_persona to keep them aligned)",
                p.name
            );
        }
        // The deterministic prefix: reuse a prepared session when the
        // caller supplies one, replay it inline otherwise (the two are
        // bit-identical by the session invariant).
        let owned_session;
        let session = match opts.session.take() {
            Some(s) => {
                s.validate(&self.task, &self.config);
                s
            }
            None => {
                owned_session = self.prepare_session_inner();
                &owned_session
            }
        };
        let ds = &session.ds;
        // Every objective axis normalises against the same DGCNN reference
        // run on the target profile; a zero-weight axis never touches the
        // arithmetic (the classification bit-identity contract).
        let reference = self.reference_report();
        let reference_ms = reference.latency_ms;
        let constraint_ms = self.config.constraint_ms.unwrap_or(reference_ms);
        let mut objective = Objective::new(
            self.config.alpha,
            self.config.beta,
            constraint_ms,
            reference_ms,
        );
        if let Some(mb) = self.config.max_size_mb {
            objective = objective.with_max_size_mb(mb);
        }
        if self.config.gamma != 0.0 {
            let power_w = self.config.device_profile().power_w;
            objective = objective.with_energy(self.config.gamma, reference.energy_mj(power_w));
        }
        if let Some(mj) = self.config.max_energy_mj {
            objective = objective.with_max_energy_mj(mj);
        }
        if self.config.delta != 0.0 {
            objective = objective.with_peak_mem(self.config.delta, reference.peak_mem_mb);
        }
        if let Some(mb) = self.config.max_peak_mem_mb {
            objective = objective.with_max_peak_mem_mb(mb);
        }
        let (oracle, predictor_stats) = self.make_oracle(&opts);
        let eval_clouds = eval_split(&self.config, ds);
        let exec_profile = objective
            .needs_execution_metrics()
            .then(|| self.config.device_profile());
        let eval_cost_ms = self.eval_cost_ms(eval_clouds.len());

        // The two strategies differ only in what their main loops start
        // from: the prefix came from the session (freshly replayed or
        // cached), and the checkpoint cross-checks its function sets on
        // resume either way.
        let (run, stage1_stats) = match &session.prefix {
            SessionPrefix::MultiStage {
                functions,
                stage1_stats,
                stage2,
                clock_ms,
            } => {
                let mut init_rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(2));
                let dgcnn_ish: Vec<OpType> = (0..self.task.positions)
                    .map(|i| match i % 3 {
                        0 => OpType::Sample,
                        1 => OpType::Aggregate,
                        _ => OpType::Combine,
                    })
                    .collect();
                let init = vec![dgcnn_ish, stage2.supernet.random_genome(&mut init_rng)];
                let scorer = Scorer {
                    task: &self.task,
                    functions: *functions,
                    accuracy: Accuracy::Session(stage2),
                    oracle: &oracle,
                    objective: &objective,
                    exec_profile,
                    eval_cost_ms,
                };
                let warm = opts.imported_cache.take().unwrap_or_default();
                let clock = SearchClock::from_ms(*clock_ms);
                let run = self.search(
                    scorer,
                    init,
                    mutate_genome,
                    crossover_genome,
                    clock,
                    warm,
                    &mut opts,
                );
                (run, Some(*stage1_stats))
            }
            SessionPrefix::OneStage => {
                assert!(
                    opts.imported_cache.is_none(),
                    "imported score caches apply to the multi-stage Stage-2 loop only"
                );
                let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(3));
                let genome0: Vec<OpType> = (0..self.task.positions)
                    .map(|_| OpType::ALL[rng.gen_range(0..4)])
                    .collect();
                let init: Vec<JointGenome> = vec![(
                    FunctionSet::dgcnn_like(64),
                    FunctionSet::dgcnn_like(128),
                    genome0,
                )];
                let scorer = Scorer {
                    task: &self.task,
                    functions: (),
                    accuracy: Accuracy::Trained {
                        hgnas: self,
                        ds,
                        eval_batches: self.task.task().batches(eval_clouds, 16),
                    },
                    oracle: &oracle,
                    objective: &objective,
                    exec_profile,
                    eval_cost_ms,
                };
                let run = self.search(
                    scorer,
                    init,
                    mutate_joint,
                    crossover_joint,
                    SearchClock::new(),
                    Vec::new(),
                    &mut opts,
                );
                (run, None)
            }
        };
        if run.aborted {
            return RunOutput {
                outcome: None,
                checkpoint: Some(run.checkpoint),
            };
        }
        let (best, _valid) = run
            .book
            .best
            .expect("the main loop evaluated at least one candidate");
        RunOutput {
            outcome: Some(SearchOutcome {
                best,
                history: run.book.history,
                search_hours: run.book.clock.elapsed_hours(),
                predictor_stats,
                eval_stats: Some(run.eval_stats),
                stage1_stats,
                reference_ms,
                constraint_ms,
            }),
            checkpoint: Some(run.checkpoint),
        }
    }
}

fn mutate_function_set(mut fs: FunctionSet, rng: &mut StdRng) -> FunctionSet {
    use hgnas_ops::{Aggregator, ConnectFn, MessageType, SampleFn, COMBINE_DIMS};
    match rng.gen_range(0..5) {
        0 => fs.aggregator = Aggregator::ALL[rng.gen_range(0..Aggregator::ALL.len())],
        1 => fs.message = MessageType::ALL[rng.gen_range(0..MessageType::ALL.len())],
        2 => fs.sample = SampleFn::ALL[rng.gen_range(0..SampleFn::ALL.len())],
        3 => fs.connect = ConnectFn::ALL[rng.gen_range(0..ConnectFn::ALL.len())],
        _ => fs.combine_dim = COMBINE_DIMS[rng.gen_range(0..COMBINE_DIMS.len())],
    }
    fs
}

fn mutate_function_pair(
    fs: (FunctionSet, FunctionSet),
    rng: &mut StdRng,
) -> (FunctionSet, FunctionSet) {
    if rng.gen_bool(0.5) {
        (mutate_function_set(fs.0, rng), fs.1)
    } else {
        (fs.0, mutate_function_set(fs.1, rng))
    }
}

fn crossover_function_pair(
    a: (FunctionSet, FunctionSet),
    b: (FunctionSet, FunctionSet),
    rng: &mut StdRng,
) -> (FunctionSet, FunctionSet) {
    let upper = if rng.gen_bool(0.5) { a.0 } else { b.0 };
    let lower = if rng.gen_bool(0.5) { a.1 } else { b.1 };
    (upper, lower)
}

/// One-stage joint mutation: perturb either the function pair or the op
/// genome, never both (matches the Fig. 9(b) baseline's draw sequence).
fn mutate_joint((up, lo, genome): &JointGenome, rng: &mut StdRng) -> JointGenome {
    if rng.gen_bool(0.5) {
        let (u, l) = mutate_function_pair((*up, *lo), rng);
        (u, l, genome.clone())
    } else {
        (*up, *lo, mutate_genome(genome, rng))
    }
}

/// One-stage joint crossover: recombine function pairs and op genomes
/// independently.
fn crossover_joint(a: &JointGenome, b: &JointGenome, rng: &mut StdRng) -> JointGenome {
    let (u, l) = crossover_function_pair((a.0, a.1), (b.0, b.1), rng);
    (u, l, crossover_genome(&a.2, &b.2, rng))
}

// The `&Vec` parameters below are dictated by the EA's genome type
// `G = Vec<OpType>`: these functions are passed straight to `evolve_with`
// as `FnMut(&G, ...)`.
#[allow(clippy::ptr_arg)]
fn mutate_genome(genome: &Vec<OpType>, rng: &mut StdRng) -> Vec<OpType> {
    let mut g = genome.clone();
    let i = rng.gen_range(0..g.len());
    g[i] = OpType::ALL[rng.gen_range(0..OpType::ALL.len())];
    g
}

#[allow(clippy::ptr_arg)]
fn crossover_genome(a: &Vec<OpType>, b: &Vec<OpType>, rng: &mut StdRng) -> Vec<OpType> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_validation_catches_what_the_search_would_panic_on() {
        for task in [
            TaskConfig::tiny(1),
            TaskConfig::small(1),
            TaskConfig::paper(1),
        ] {
            assert_eq!(task.validate(), Ok(()));
        }
        let broken = |f: fn(&mut TaskConfig)| {
            let mut t = TaskConfig::tiny(1);
            f(&mut t);
            t.validate().unwrap_err()
        };
        let points = TaskConfig::tiny(1).points();
        assert_eq!(
            broken(|t| t.k = 10_000),
            TaskError::Neighbours { k: 10_000, points }
        );
        assert_eq!(
            broken(|t| t.k = t.points()),
            TaskError::Neighbours { k: points, points }
        );
        assert_eq!(broken(|t| t.k = 0), TaskError::Neighbours { k: 0, points });
        assert_eq!(broken(|t| t.dataset.classes = 0), TaskError::Classes(0));
        assert_eq!(broken(|t| t.dataset.classes = 41), TaskError::Classes(41));
        assert!(matches!(
            broken(|t| t.dataset.train_per_class = 0),
            TaskError::EmptySplit { .. }
        ));
        assert!(broken(|t| t.k = 10_000).to_string().contains("k = 10000"));
    }

    fn tiny_config(device: DeviceKind) -> SearchConfig {
        let mut cfg = SearchConfig::fast(device);
        cfg.ea_stage1.iterations = 1;
        cfg.ea_stage1.population = 3;
        cfg.ea_stage2.iterations = 3;
        cfg.ea_stage2.population = 6;
        cfg.epochs_stage1 = 1;
        cfg.epochs_stage2 = 2;
        cfg.predictor = hgnas_predictor::PredictorConfig {
            train_samples: 80,
            val_samples: 30,
            epochs: 8,
            lr: 3e-3,
            gcn_dims: vec![16, 16],
            mlp_hidden: vec![12],
            seed: 1,
            global_node: true,
            batch: 1,
        };
        cfg.eval_clouds = 20;
        cfg
    }

    fn tiny_search(device: DeviceKind) -> SearchOutcome {
        Hgnas::new(TaskConfig::tiny(5), tiny_config(device)).run()
    }

    #[test]
    fn search_finds_constraint_satisfying_model() {
        let outcome = tiny_search(DeviceKind::Rtx3080);
        // At tiny scale (one supernet epoch, 4 classes) absolute scores sit
        // near zero; the contract is that the search returns a finite,
        // constraint-satisfying candidate.
        assert!(outcome.best.score.is_finite());
        assert!(outcome.best.score > -0.5, "score {}", outcome.best.score);
        assert!(
            outcome.best.latency_ms < outcome.constraint_ms,
            "lat {} !< C {}",
            outcome.best.latency_ms,
            outcome.constraint_ms
        );
        assert!(outcome.predictor_stats.is_some());
        assert!(outcome.search_hours > 0.0);
    }

    #[test]
    fn history_is_monotone() {
        let outcome = tiny_search(DeviceKind::JetsonTx2);
        for w in outcome.history.windows(2) {
            assert!(w[1].0 >= w[0].0, "time went backwards");
            assert!(w[1].1 >= w[0].1, "best score regressed");
        }
    }

    #[test]
    fn size_constraint_is_respected() {
        let mut cfg = tiny_config(DeviceKind::Rtx3080);
        cfg.max_size_mb = Some(0.05); // ~13K params
        let task = TaskConfig::tiny(5);
        let outcome = Hgnas::new(task.clone(), cfg).run();
        if outcome.best.score > 0.0 {
            let size = outcome.best.architecture.size_mb(3, &task.head_hidden);
            assert!(size < 0.05, "found {size} MB model despite 0.05 MB budget");
        }
    }

    fn assert_outcomes_identical(a: &SearchOutcome, b: &SearchOutcome) {
        assert_eq!(a.best.genome, b.best.genome);
        assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
        assert_eq!(
            a.best.supernet_accuracy.to_bits(),
            b.best.supernet_accuracy.to_bits()
        );
        assert_eq!(a.best.latency_ms.to_bits(), b.best.latency_ms.to_bits());
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.0.to_bits(), y.0.to_bits());
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
        assert_eq!(a.search_hours.to_bits(), b.search_hours.to_bits());
        assert_eq!(a.eval_stats, b.eval_stats);
        assert_eq!(a.stage1_stats, b.stage1_stats);
    }

    /// The session invariant: a run through a prepared session — including
    /// one rebuilt from an exported snapshot — is bit-identical to a full
    /// replay, and a mid-run kill resumed through the session matches too.
    #[test]
    fn cached_prefix_resume_matches_full_replay() {
        let task = TaskConfig::tiny(5);
        let cfg = tiny_config(DeviceKind::JetsonTx2);
        let hgnas = Hgnas::new(task.clone(), cfg.clone());
        let full = hgnas.run();

        let session = hgnas.prepare_session();
        assert_eq!(session.strategy(), Strategy::MultiStage);
        assert!(session.functions().is_some());
        assert!(session.approx_bytes() > 0);
        let via_session = hgnas
            .run_with(RunOptions {
                session: Some(&session),
                ..RunOptions::default()
            })
            .outcome
            .expect("session run completes");
        assert_outcomes_identical(&via_session, &full);

        // Kill after one generation, resume through the session: the
        // prefix never replays and the outcome is unchanged.
        let killed = hgnas.run_with(RunOptions {
            session: Some(&session),
            abort_after_generation: Some(1),
            ..RunOptions::default()
        });
        assert!(killed.outcome.is_none());
        let resumed = hgnas
            .run_with(RunOptions {
                session: Some(&session),
                resume: killed.checkpoint,
                ..RunOptions::default()
            })
            .outcome
            .expect("resumed run completes");
        assert_outcomes_identical(&resumed, &full);

        // A session restored from its exported snapshot drives the search
        // bit-identically to the live one.
        let snap = session.export().expect("multi-stage sessions export");
        let restored = SessionState::restore(task, cfg, snap);
        let via_restored = hgnas
            .run_with(RunOptions {
                session: Some(&restored),
                ..RunOptions::default()
            })
            .outcome
            .expect("restored-session run completes");
        assert_outcomes_identical(&via_restored, &full);
    }

    /// Runs `cfg` through `session` to completion: the outcome plus the
    /// genomes whose accuracy it needed (the valid ones it scored).
    fn run_through(
        task: &TaskConfig,
        cfg: &SearchConfig,
        session: &SessionState,
    ) -> (SearchOutcome, Vec<Vec<OpType>>) {
        let out = Hgnas::new(task.clone(), cfg.clone()).run_with(RunOptions {
            session: Some(session),
            ..RunOptions::default()
        });
        let cp = out.checkpoint.expect("final checkpoint");
        let valid = cp
            .as_multi_stage()
            .expect("multi-stage checkpoint")
            .cache
            .iter()
            .filter(|(_, c)| c.valid)
            .map(|(g, _)| g.clone())
            .collect();
        (out.outcome.expect("run completes"), valid)
    }

    /// Shards differing only in device and objective weights share a
    /// session, and with it every one-shot accuracy: run serially or two
    /// at a time, through one session, each outcome matches the same
    /// configuration on its own session bit for bit, and the shared
    /// session scores each distinct valid genome exactly once. A session
    /// restored from its snapshot starts with an empty memo.
    #[test]
    fn shared_session_scores_each_genome_once() {
        let task = TaskConfig::tiny(5);
        let configs: Vec<SearchConfig> = [
            (DeviceKind::JetsonTx2, 1.0, 0.6),
            (DeviceKind::Rtx3080, 1.0, 0.6),
            (DeviceKind::RaspberryPi3B, 0.5, 1.2),
            (DeviceKind::JetsonTx2, 2.0, 0.1),
        ]
        .into_iter()
        .map(|(device, alpha, beta)| {
            let mut cfg = tiny_config(device);
            cfg.alpha = alpha;
            cfg.beta = beta;
            cfg
        })
        .collect();

        let mut distinct = std::collections::HashSet::new();
        let (mut unshared_scored, mut lookups) = (0, 0);
        let own: Vec<SearchOutcome> = configs
            .iter()
            .map(|cfg| {
                let session = Hgnas::new(task.clone(), cfg.clone()).prepare_session();
                let (outcome, valid) = run_through(&task, cfg, &session);
                unshared_scored += session.accuracy_scored();
                lookups += session.accuracy_scored() + session.accuracy_reused();
                distinct.extend(valid);
                outcome
            })
            .collect();
        let distinct = distinct.len() as u64;
        assert!(
            unshared_scored > distinct,
            "the configurations overlap: {unshared_scored} scored on own sessions, \
             {distinct} distinct"
        );

        let prepare = || Hgnas::new(task.clone(), configs[0].clone()).prepare_session();
        let serial = prepare();
        for (cfg, reference) in configs.iter().zip(&own) {
            assert_outcomes_identical(&run_through(&task, cfg, &serial).0, reference);
        }
        assert_eq!(serial.accuracy_scored(), distinct);
        assert_eq!(
            serial.accuracy_scored() + serial.accuracy_reused(),
            lookups,
            "sharing changes who scores, not how often a run asks"
        );

        let paired = prepare();
        for (cfgs, refs) in configs.chunks(2).zip(own.chunks(2)) {
            std::thread::scope(|s| {
                let runs: Vec<_> = cfgs
                    .iter()
                    .map(|cfg| s.spawn(|| run_through(&task, cfg, &paired).0))
                    .collect();
                for (run, reference) in runs.into_iter().zip(refs) {
                    assert_outcomes_identical(&run.join().expect("run thread"), reference);
                }
            });
        }
        assert_eq!(paired.accuracy_scored(), distinct);

        let snap = serial.export().expect("multi-stage sessions export");
        let restored = SessionState::restore(task.clone(), configs[0].clone(), snap);
        assert_eq!(
            (restored.accuracy_scored(), restored.accuracy_reused()),
            (0, 0)
        );
        for (cfg, reference) in configs.iter().zip(&own) {
            assert_outcomes_identical(&run_through(&task, cfg, &restored).0, reference);
        }
        assert_eq!(restored.accuracy_scored(), distinct);
    }

    /// One-stage sessions carry the dataset only and have nothing to
    /// spill, but still drive bit-identical runs.
    #[test]
    fn one_stage_session_matches_full_replay() {
        let task = TaskConfig::tiny(7);
        let mut cfg = tiny_config(DeviceKind::Rtx3080);
        cfg.strategy = Strategy::OneStage;
        let hgnas = Hgnas::new(task, cfg);
        let full = hgnas.run();
        let session = hgnas.prepare_session();
        assert_eq!(session.strategy(), Strategy::OneStage);
        assert!(session.functions().is_none());
        assert!(session.export().is_none());
        let via_session = hgnas
            .run_with(RunOptions {
                session: Some(&session),
                ..RunOptions::default()
            })
            .outcome
            .expect("session run completes");
        assert_outcomes_identical(&via_session, &full);
    }

    #[test]
    #[should_panic(expected = "different search configuration")]
    fn session_for_other_config_is_rejected() {
        let task = TaskConfig::tiny(5);
        let cfg = tiny_config(DeviceKind::JetsonTx2);
        let session = Hgnas::new(task.clone(), cfg.clone()).prepare_session();
        let mut other = cfg;
        other.seed ^= 1;
        Hgnas::new(task, other).run_with(RunOptions {
            session: Some(&session),
            ..RunOptions::default()
        });
    }

    #[test]
    fn segmentation_search_runs_end_to_end_and_is_deterministic() {
        let mut task = TaskConfig::tiny(5);
        task.task_kind = TaskKind::Segmentation;
        let hgnas = Hgnas::new(task, tiny_config(DeviceKind::JetsonTx2));
        let a = hgnas.run();
        assert!(a.best.score.is_finite());
        assert!(a.best.supernet_accuracy >= 0.0 && a.best.supernet_accuracy <= 1.0);
        assert!(a.best.latency_ms < a.constraint_ms);
        let b = hgnas.run();
        assert_outcomes_identical(&a, &b);
    }

    #[test]
    fn robustness_search_consumes_the_corrupted_split() {
        // The task-dispatched dataset: training stays clean (supernet
        // pre-training is unchanged) while the evaluation split carries the
        // corruption — and the search still completes on it.
        let mut task = TaskConfig::tiny(5);
        task.task_kind = TaskKind::Robustness;
        let hgnas = Hgnas::new(task.clone(), tiny_config(DeviceKind::JetsonTx2));
        let noisy = hgnas.dataset();
        task.task_kind = TaskKind::Classification;
        let clean = Hgnas::new(task, tiny_config(DeviceKind::JetsonTx2)).dataset();
        assert_eq!(noisy.train, clean.train, "train split must stay clean");
        assert_ne!(noisy.test, clean.test, "test split must be corrupted");
        let outcome = hgnas.run();
        assert!(outcome.best.score.is_finite());
        assert!(outcome.best.latency_ms < outcome.constraint_ms);
    }

    #[test]
    fn energy_and_memory_terms_flow_into_scoring() {
        let task = TaskConfig::tiny(5);
        let mut cfg = tiny_config(DeviceKind::JetsonTx2);
        cfg.gamma = 0.3;
        cfg.delta = 0.2;
        let out = Hgnas::new(task, cfg).run_with(RunOptions::default());
        let outcome = out.outcome.expect("search completes");
        assert!(outcome.best.score.is_finite());
        // Every scored candidate carries the execution metrics the
        // objective consumed.
        let cp = out.checkpoint.expect("final checkpoint");
        let cp = cp.as_multi_stage().expect("multi-stage checkpoint");
        assert!(!cp.cache.is_empty());
        for (_, c) in &cp.cache {
            let mj = c.energy_mj.expect("energy computed for every candidate");
            let mem = c.peak_mem_mb.expect("peak memory computed");
            assert!(mj > 0.0 && mem > 0.0);
        }
    }

    #[test]
    fn classification_candidates_skip_execution_metrics() {
        let out = Hgnas::new(TaskConfig::tiny(5), tiny_config(DeviceKind::JetsonTx2))
            .run_with(RunOptions::default());
        let cp = out.checkpoint.expect("final checkpoint");
        let cp = cp.as_multi_stage().expect("multi-stage checkpoint");
        assert!(cp
            .cache
            .iter()
            .all(|(_, c)| c.energy_mj.is_none() && c.peak_mem_mb.is_none()));
    }

    #[test]
    fn identity_persona_is_bit_identical_to_its_base_kind() {
        let task = TaskConfig::tiny(5);
        let base = tiny_config(DeviceKind::JetsonTx2);
        let persona = DevicePersona {
            name: "tx2-bench-rig".into(),
            profile: DeviceKind::JetsonTx2.profile(),
        };
        let cfg = base.clone().with_persona(persona);
        assert_eq!(cfg.device, DeviceKind::JetsonTx2);
        assert_eq!(cfg.device_label(), "tx2-bench-rig");
        let a = Hgnas::new(task.clone(), base).run();
        let b = Hgnas::new(task, cfg).run();
        assert_outcomes_identical(&a, &b);
    }

    #[test]
    fn slowed_persona_shifts_the_reference_latency() {
        let task = TaskConfig::tiny(5);
        let base = tiny_config(DeviceKind::JetsonTx2);
        // Tiny workloads are dispatch-overhead-dominated, so throttle both
        // the rates and the per-op overhead.
        let mut profile = DeviceKind::JetsonTx2.profile();
        for r in &mut profile.rates {
            r.gflops /= 2.0;
            r.gbps /= 2.0;
        }
        profile.overhead_us *= 2.0;
        let slow = base.clone().with_persona(DevicePersona {
            name: "tx2-throttled".into(),
            profile,
        });
        let fast_ref = Hgnas::new(task.clone(), base).reference_ms();
        let slow_ref = Hgnas::new(task, slow).reference_ms();
        assert!(
            slow_ref > 1.5 * fast_ref,
            "throttled persona reference {slow_ref} vs builtin {fast_ref}"
        );
    }

    #[test]
    #[should_panic(expected = "based on another device kind")]
    fn mismatched_persona_base_kind_is_rejected() {
        let mut cfg = tiny_config(DeviceKind::Rtx3080);
        cfg.persona = Some(DevicePersona {
            name: "pi-ish".into(),
            profile: DeviceKind::RaspberryPi3B.profile(),
        });
        Hgnas::new(TaskConfig::tiny(5), cfg).run();
    }

    #[test]
    fn genome_instantiates_to_displayed_architecture() {
        let outcome = tiny_search(DeviceKind::Rtx3080);
        let arch = &outcome.best.architecture;
        assert_eq!(arch.len(), 6);
        assert_eq!(arch.k, 8);
        // Display doesn't panic and mentions the classifier.
        assert!(arch.to_string().contains("Classifier"));
    }
}
