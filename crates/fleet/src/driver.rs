//! The fleet driver: the blocking fleet API, a fresh [`Engine`] serving
//! one request.
//!
//! [`run_fleet`] shards one search across devices or scenarios
//! ([`shard_specs`]), runs the shards through an [`Engine`] (shared
//! measurement oracle in measured mode, shared artifact store, optional
//! preemptive time slicing under a bounded thread budget) and blocks until
//! the merged [`FleetReport`] is ready. Every shard's outcome is
//! bit-identical to a serial single-device run of that configuration — the
//! fleet adds breadth, never noise. [`run_fleet_with_events`] is the same
//! call with a live [`FleetEvent`] stream for incremental reporting.

use crate::artifacts::{search_fingerprint, ArtifactKey, ArtifactStore, StoreError};
use crate::engine::{Engine, ShardSpec};
use crate::events::{FleetEvent, ShardId};
use crate::oracle::{OracleConfig, OracleStats};
use hgnas_core::{ConfigError, SearchConfig, SearchOutcome, Strategy, TaskConfig, TaskError};
use hgnas_device::{DeviceKind, DevicePersona};
use hgnas_ops::OpType;
use hgnas_pointcloud::TaskKind;
use std::fmt;
use std::fmt::Write as _;
use std::sync::mpsc::Sender;

/// One named {task × objective × persona} cell of a fleet: a complete
/// task + search configuration pair with a display label. When
/// [`FleetConfig::scenarios`] is non-empty the fleet runs one shard per
/// scenario instead of one per device.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Display label (shows up in reports and the summary table).
    pub label: String,
    /// The scenario's task (kind, dataset, geometry).
    pub task: TaskConfig,
    /// The scenario's full search configuration (device/persona,
    /// objective weights, constraints, seeds).
    pub config: SearchConfig,
}

impl ScenarioSpec {
    /// A scenario from explicit parts.
    pub fn new(label: impl Into<String>, task: TaskConfig, config: SearchConfig) -> Self {
        ScenarioSpec {
            label: label.into(),
            task,
            config,
        }
    }
}

/// A named multi-metric objective: the Eq. (3) weights plus the optional
/// hard caps, applied onto a base [`SearchConfig`] by
/// [`cross_scenarios`]. Zero `gamma`/`delta` and `None` caps leave the
/// base's legacy α·acc − β·lat scoring untouched.
#[derive(Debug, Clone)]
pub struct ObjectiveSpec {
    /// Display label.
    pub label: String,
    /// Accuracy weight α.
    pub alpha: f64,
    /// Latency weight β.
    pub beta: f64,
    /// Energy weight γ (0 disables the energy term).
    pub gamma: f64,
    /// Peak-memory weight δ (0 disables the memory term).
    pub delta: f64,
    /// Hard model-size cap, MB.
    pub max_size_mb: Option<f64>,
    /// Hard per-inference energy cap, mJ.
    pub max_energy_mj: Option<f64>,
    /// Hard peak-memory cap, MB.
    pub max_peak_mem_mb: Option<f64>,
}

impl ObjectiveSpec {
    /// The classic accuracy/latency objective with no extra axes.
    pub fn accuracy_latency(label: impl Into<String>, alpha: f64, beta: f64) -> Self {
        ObjectiveSpec {
            label: label.into(),
            alpha,
            beta,
            gamma: 0.0,
            delta: 0.0,
            max_size_mb: None,
            max_energy_mj: None,
            max_peak_mem_mb: None,
        }
    }

    /// Adds an energy term (weight γ, optional hard cap in mJ).
    pub fn with_energy(mut self, gamma: f64, max_energy_mj: Option<f64>) -> Self {
        self.gamma = gamma;
        self.max_energy_mj = max_energy_mj;
        self
    }

    /// Adds a peak-memory term (weight δ, optional hard cap in MB).
    pub fn with_peak_mem(mut self, delta: f64, max_peak_mem_mb: Option<f64>) -> Self {
        self.delta = delta;
        self.max_peak_mem_mb = max_peak_mem_mb;
        self
    }

    /// Applies this objective onto a base config, leaving everything else
    /// (EA budgets, seeds, latency mode) untouched.
    pub fn apply(&self, base: &SearchConfig) -> SearchConfig {
        let mut cfg = base.clone();
        cfg.alpha = self.alpha;
        cfg.beta = self.beta;
        cfg.gamma = self.gamma;
        cfg.delta = self.delta;
        cfg.max_size_mb = self.max_size_mb;
        cfg.max_energy_mj = self.max_energy_mj;
        cfg.max_peak_mem_mb = self.max_peak_mem_mb;
        cfg
    }
}

/// Builds the full {task × objective × persona} cross product over a base
/// task/config pair: every tuple becomes one labelled [`ScenarioSpec`]
/// (label `task/objective/persona`), in row-major order (tasks outermost,
/// personas innermost). This is the data-driven replacement for the
/// hard-coded one-shard-per-`DeviceKind` fleet shape.
pub fn cross_scenarios(
    base_task: &TaskConfig,
    base: &SearchConfig,
    tasks: &[TaskKind],
    objectives: &[ObjectiveSpec],
    personas: &[DevicePersona],
) -> Vec<ScenarioSpec> {
    let mut out = Vec::with_capacity(tasks.len() * objectives.len() * personas.len());
    for &kind in tasks {
        let mut task = base_task.clone();
        task.task_kind = kind;
        for obj in objectives {
            let cfg = obj.apply(base);
            for persona in personas {
                let label = format!("{}/{}/{}", kind.name(), obj.label, persona.name);
                out.push(ScenarioSpec::new(
                    label,
                    task.clone(),
                    cfg.clone().with_persona(persona.clone()),
                ));
            }
        }
    }
    out
}

/// Fleet-level configuration: which devices or scenarios to shard over,
/// how the shared oracle behaves, and how the [`Engine`] multiplexes the
/// shards (the daemon's engine takes the same five fields from its
/// `ServeConfig`).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Target devices, one search shard each (the legacy fleet shape;
    /// ignored when `scenarios` is non-empty).
    pub devices: Vec<DeviceKind>,
    /// Explicit {task × objective × persona} scenarios, one shard each.
    /// When non-empty this wins over `devices`, and each scenario's own
    /// task/config override the base pair passed to [`run_fleet`].
    /// Usually built with [`cross_scenarios`].
    pub scenarios: Vec<ScenarioSpec>,
    /// Oracle tuning (measured mode only).
    pub oracle: OracleConfig,
    /// Persist a checkpoint every N generations (1 = every boundary).
    /// Ignored without an artifact store (events still fire per boundary).
    pub checkpoint_every: usize,
    /// Total kernel-thread budget [`run_fleet`]'s engine call multiplexes
    /// shards over: `min(threads, shards)` workers split it between them
    /// (0 is treated as 1). [`Engine::new`] does not read it; each
    /// [`Engine::run`] names its own budget. Defaults to the host's
    /// available parallelism. Results are bit-identical at any budget.
    pub threads: usize,
    /// Generations per engine time slice; `0` (the default) runs every
    /// shard to completion unpreempted. Results are bit-identical either
    /// way — slicing only changes scheduling.
    pub preemption_stride: usize,
    /// Warm-start each shard from the score cache a prior run *with this
    /// seed* persisted (per shard device, same task and configuration
    /// otherwise). Predictor-mode multi-stage fleets consume it
    /// bit-transparently; entries are reused verbatim, surfacing as
    /// `eval_stats.imported`. Needs an artifact store; a missing source
    /// cache is simply a cold start.
    pub warm_start_seed: Option<u64>,
    /// Approximate byte budget for the engine's session cache — the LRU
    /// of prefix-keyed sessions (dataset + Stage-1 outcome + pre-trained
    /// supernet), each shared by every shard whose prefix fingerprint
    /// matches, kept resident across slices so a resumed shard never
    /// replays its deterministic prefix. `None` (the default) keeps every
    /// session a parked shard still needs; a budget evicts
    /// least-recently-used sessions — spilled to the artifact store when
    /// one is attached, dropped otherwise (the next slice then restores or
    /// replays). Results are bit-identical at any budget; `Some(0)`
    /// disables residency entirely.
    pub session_memory_budget: Option<u64>,
}

impl FleetConfig {
    /// Fleet over `devices` with default oracle settings, per-generation
    /// checkpointing, no preemption, and the host's available parallelism
    /// as the thread budget.
    pub fn new(devices: impl Into<Vec<DeviceKind>>) -> Self {
        FleetConfig {
            devices: devices.into(),
            scenarios: Vec::new(),
            oracle: OracleConfig::default(),
            checkpoint_every: 1,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            preemption_stride: 0,
            warm_start_seed: None,
            session_memory_budget: None,
        }
    }

    /// Fleet over explicit scenarios (see [`cross_scenarios`]) with the
    /// same defaults as [`FleetConfig::new`].
    pub fn over_scenarios(scenarios: impl Into<Vec<ScenarioSpec>>) -> Self {
        let mut cfg = FleetConfig::new(Vec::new());
        cfg.scenarios = scenarios.into();
        cfg
    }
}

/// One point of a shard's Pareto front. Always carries the latency and
/// accuracy axes; energy and peak memory join exactly when the shard's
/// objective priced them (then the front is the N-dimensional
/// non-dominated set over all present axes).
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// Latency as the search saw it, ms.
    pub latency_ms: f64,
    /// One-shot supernet accuracy.
    pub accuracy: f64,
    /// Modelled per-inference energy, mJ (objectives pricing energy only).
    pub energy_mj: Option<f64>,
    /// Modelled peak working-set, MB (objectives pricing memory only).
    pub peak_mem_mb: Option<f64>,
    /// The candidate's op-type genome.
    pub genome: Vec<OpType>,
}

/// Everything one device shard produced.
#[derive(Debug)]
pub struct DeviceReport {
    /// The shard's scenario label (the device name on the legacy
    /// one-shard-per-device path).
    pub scenario: String,
    /// The shard's target device (a persona's base kind when the scenario
    /// pinned a persona).
    pub device: DeviceKind,
    /// The shard's search outcome (identical to a serial run's).
    pub outcome: SearchOutcome,
    /// Latency/accuracy Pareto front over every constraint-satisfying
    /// candidate the shard scored, fastest first.
    pub pareto: Vec<ParetoPoint>,
    /// Predictor-training epochs this run actually executed (0 on a
    /// warm start from the artifact store).
    pub predictor_epochs_run: usize,
    /// Whether the predictor came from the artifact store.
    pub warm_predictor: bool,
    /// The generation this shard resumed from, when a checkpoint existed.
    pub resumed_from_generation: Option<usize>,
    /// Engine time slices the shard consumed (1 without preemption).
    pub slices: u64,
    /// How many times the shard's deterministic prefix (Stage 1 +
    /// supernet pre-training) was computed; 1 unless a session memory
    /// budget forced replays.
    pub prefix_builds: u64,
}

/// The merged fleet outcome.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-device reports, in [`FleetConfig::devices`] order.
    pub reports: Vec<DeviceReport>,
    /// Oracle counters (measured mode only).
    pub oracle_stats: Option<OracleStats>,
}

impl FleetReport {
    /// A cross-device summary in the shape of the paper's Table 1: per
    /// device, the found model against the DGCNN reference. "Hit %"
    /// counts both memo-cache hits and warm-start imports over total
    /// submissions.
    pub fn summary_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<36} {:>10} {:>10} {:>8} {:>7} {:>8} {:>8} {:>8} {:>9} {:>7}",
            "Scenario",
            "Found ms",
            "DGCNN ms",
            "Speedup",
            "Acc",
            "mJ",
            "MemMB",
            "Score",
            "Search h",
            "Hit %"
        );
        for r in &self.reports {
            let o = &r.outcome;
            let hit_pct = o.eval_stats.map_or(0.0, |e| {
                100.0 * (e.hits + e.imported) as f64 / e.submitted.max(1) as f64
            });
            // The extra axes live on the scored candidates, not the best
            // model itself: show them when the best genome sits on the
            // front (it does whenever it is constraint-valid and
            // non-dominated), dashes otherwise.
            let best_point = r.pareto.iter().find(|p| p.genome == o.best.genome);
            let fmt_axis = |v: Option<f64>| match v {
                Some(v) => format!("{v:>8.2}"),
                None => format!("{:>8}", "-"),
            };
            let _ = writeln!(
                s,
                "{:<36} {:>10.2} {:>10.2} {:>7.1}x {:>7.3} {} {} {:>8.3} {:>9.2} {:>6.1}%",
                r.scenario,
                o.best.latency_ms,
                o.reference_ms,
                o.reference_ms / o.best.latency_ms.max(1e-9),
                o.best.supernet_accuracy,
                fmt_axis(best_point.and_then(|p| p.energy_mj)),
                fmt_axis(best_point.and_then(|p| p.peak_mem_mb)),
                o.best.score,
                o.search_hours,
                hit_pct
            );
        }
        s
    }
}

/// The shards one fleet request runs, in report order: one per scenario,
/// or — the legacy device-list shape, when `scenarios` is empty — one per
/// device over `task`/`base`, labelled by device name. [`run_fleet`] and
/// the `hgnas-serve` daemon both build their shards here.
pub fn shard_specs(
    task: &TaskConfig,
    base: &SearchConfig,
    devices: &[DeviceKind],
    scenarios: &[ScenarioSpec],
) -> Vec<ShardSpec> {
    if !scenarios.is_empty() {
        return scenarios
            .iter()
            .map(|s| ShardSpec::new(s.task.clone(), s.config.clone()).with_scenario(&s.label))
            .collect();
    }
    devices
        .iter()
        .map(|&device| {
            let mut cfg = base.clone();
            cfg.device = device;
            ShardSpec::new(task.clone(), cfg).with_scenario(device.name())
        })
        .collect()
}

/// Why [`run_fleet`] returned without a report.
#[derive(Debug)]
pub enum FleetError {
    /// A shard's task cannot be searched; nothing ran.
    Task {
        /// The shard's index in report order.
        shard: ShardId,
        /// What is wrong with its task.
        error: TaskError,
    },
    /// A shard's search configuration cannot be searched; nothing ran.
    Config {
        /// The shard's index in report order.
        shard: ShardId,
        /// What is wrong with its configuration.
        error: ConfigError,
    },
    /// Artifact I/O failed or an artifact was corrupt.
    Store(StoreError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Task { shard, error } => write!(f, "shard {shard}: {error}"),
            FleetError::Config { shard, error } => write!(f, "shard {shard}: {error}"),
            FleetError::Store(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Task { error, .. } => Some(error),
            FleetError::Config { error, .. } => Some(error),
            FleetError::Store(e) => Some(e),
        }
    }
}

impl From<StoreError> for FleetError {
    fn from(e: StoreError) -> Self {
        FleetError::Store(e)
    }
}

/// Shards `base` across `fleet.devices` (or runs `fleet.scenarios`) on a
/// fresh [`Engine`] against the shared oracle (measured mode) and artifact
/// store, blocking until every shard finishes.
///
/// Every shard's `SearchOutcome` is bit-identical to what a serial
/// `Hgnas::new(task, base-with-that-device).run()` produces: the oracle is
/// bit-transparent, warm-started predictors reproduce the trained ones
/// exactly, preemption resumes checkpoints bit-identically, and imported
/// score caches only skip re-scoring work.
///
/// # Errors
///
/// Before any shard runs, the first shard whose task or search
/// configuration fails [`TaskConfig::validate`] or
/// [`SearchConfig::validate`]; after that, the first [`StoreError`] any
/// shard hit (artifact I/O or a corrupt artifact).
///
/// # Panics
///
/// Panics if `fleet` names no devices and no scenarios, or an engine
/// worker panics.
pub fn run_fleet(
    task: &TaskConfig,
    base: &SearchConfig,
    fleet: &FleetConfig,
    store: Option<&ArtifactStore>,
) -> Result<FleetReport, FleetError> {
    run_fleet_with_events(task, base, fleet, store, None)
}

/// [`run_fleet`] with a live event stream: every engine event is forwarded
/// to `events` as it happens, so a consumer thread (e.g. a
/// [`crate::StreamingReporter`] loop) can render incremental fleet
/// reports while the search is still running. Dropping the receiver
/// never blocks the fleet.
///
/// # Errors
///
/// As [`run_fleet`].
///
/// # Panics
///
/// As [`run_fleet`].
pub fn run_fleet_with_events(
    task: &TaskConfig,
    base: &SearchConfig,
    fleet: &FleetConfig,
    store: Option<&ArtifactStore>,
    events: Option<Sender<FleetEvent>>,
) -> Result<FleetReport, FleetError> {
    let mut specs = shard_specs(task, base, &fleet.devices, &fleet.scenarios);
    assert!(!specs.is_empty(), "fleet needs at least one device");
    for (shard, spec) in specs.iter().enumerate() {
        spec.task
            .validate()
            .map_err(|error| FleetError::Task { shard, error })?;
        spec.config
            .validate()
            .map_err(|error| FleetError::Config { shard, error })?;
    }
    if let (Some(seed), Some(store)) = (fleet.warm_start_seed, store) {
        for spec in specs
            .iter_mut()
            .filter(|s| s.config.strategy == Strategy::MultiStage)
        {
            let mut source = spec.config.clone();
            source.seed = seed;
            let key = ArtifactKey {
                device: spec.config.device,
                fingerprint: search_fingerprint(&spec.task, &source),
            };
            spec.imported_cache = store.load_score_cache(&key)?;
        }
    }
    let all: Vec<ShardId> = (0..specs.len()).collect();
    let report =
        Engine::new(fleet, store.cloned()).run(0, &specs, &all, None, fleet.threads, events)?;
    let reports = report
        .shards
        .into_iter()
        .map(|s| DeviceReport {
            scenario: s.scenario,
            device: s.device,
            outcome: s
                .outcome
                .expect("an ungranted engine call runs every shard to completion"),
            pareto: s.pareto,
            predictor_epochs_run: s.predictor_epochs_run,
            warm_predictor: s.warm_predictor,
            resumed_from_generation: s.resumed_from_generation,
            slices: s.slices,
            prefix_builds: s.prefix_builds,
        })
        .collect();
    Ok(FleetReport {
        reports,
        oracle_stats: report.oracle_stats,
    })
}
