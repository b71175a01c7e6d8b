//! The three workloads: who the clients are, how the daemon is configured,
//! and the request each client sends next — every request a pure function
//! of the workload seed, the client and the request's index.

use crate::stats::splitmix;
use hgnas::core::{Hgnas, LatencyMode, SearchConfig, TaskConfig};
use hgnas::device::{builtin_slug, DeviceKind, PersonaRegistry};
use hgnas::fleet::{cross_scenarios, prefix_fingerprint, FleetConfig, ObjectiveSpec, ScenarioSpec};
use hgnas::pointcloud::TaskKind;
use hgnas::predictor::PredictorConfig;
use hgnas::serve::ServeConfig;
use std::collections::BTreeSet;
use std::time::Duration;

/// Which traffic mix to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Two tenants at priorities 1 and 3; each request is 4 tiny shards
    /// sharing one prefix (classification × {acc-lat, multi} ×
    /// {jetson-tx2, raspberry-pi-3b}), predictor latency.
    Tenants,
    /// One client; each request is one `small`-geometry shard with a fresh
    /// seed, run in a single unpreempted round.
    SoloSmall,
    /// One client; each request is 3 tiny shards with distinct prefixes on
    /// rtx3080, jetson-tx2 and raspberry-pi-3b, measured latency through
    /// the oracle, under a session budget that holds one session.
    SpillMeasured,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Tenants, Kind::SoloSmall, Kind::SpillMeasured];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Tenants => "tenants",
            Kind::SoloSmall => "solo-small",
            Kind::SpillMeasured => "spill-measured",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// `(tenant, priority)` of each closed-loop client.
    pub fn clients(self) -> &'static [(&'static str, u8)] {
        match self {
            Kind::Tenants => &[("a", 1), ("b", 3)],
            Kind::SoloSmall | Kind::SpillMeasured => &[("solo", 1)],
        }
    }

    /// Nearest-rank percentile reported as `report_ms.tail`; the run sends
    /// at least enough requests for 10 samples to lie beyond it.
    pub fn tail_pct(self) -> f64 {
        match self {
            Kind::Tenants => 80.0,
            Kind::SoloSmall | Kind::SpillMeasured => 70.0,
        }
    }

    /// Requests per client whose reports the output check replays
    /// through `run_fleet` after the timed window.
    pub fn checked_per_client(self) -> u64 {
        match self {
            Kind::Tenants => 2,
            Kind::SoloSmall => 2,
            Kind::SpillMeasured => 3,
        }
    }

    /// Daemon settings. `session_budget` is the session-cache byte budget
    /// (only `spill-measured` sets one).
    pub fn serve_config(self, session_budget: Option<u64>) -> ServeConfig {
        let base = ServeConfig {
            threads: 2,
            preemption_stride: 1,
            slices_per_round: 4,
            idle_timeout: Duration::from_secs(300),
            ..ServeConfig::default()
        };
        match self {
            Kind::Tenants => base,
            Kind::SoloSmall => ServeConfig {
                preemption_stride: 0,
                ..base
            },
            Kind::SpillMeasured => ServeConfig {
                session_memory_budget: session_budget,
                ..base
            },
        }
    }

    /// The session budget of this workload's daemon: one and a half times
    /// the footprint of the warm-up request's first session, so at most one
    /// session stays resident.
    pub fn session_budget(self) -> Option<u64> {
        (self == Kind::SpillMeasured).then(|| {
            let warm = self.warmup();
            let s = &warm.scenarios[0];
            Hgnas::new(s.task.clone(), s.config.clone())
                .prepare_session()
                .approx_bytes()
                * 3
                / 2
        })
    }

    /// The set-up's warm-up request. It is the same for every seed (and
    /// never one of the measured requests), so set-up time compares across
    /// seeds.
    pub fn warmup(self) -> Request {
        self.request(0, 0, u64::MAX)
    }

    /// The request client `client` sends as its `index`-th.
    pub fn request(self, seed: u64, client: usize, index: u64) -> Request {
        let r = splitmix(seed ^ splitmix((client as u64) << 48 ^ index));
        match self {
            Kind::Tenants => {
                let task = TaskConfig::tiny(r % 1_000_003);
                let mut base = tiny_config(DeviceKind::JetsonTx2, LatencyMode::Predictor);
                base.seed = splitmix(r) % 1_000_003;
                let objectives = [
                    ObjectiveSpec::accuracy_latency("acc-lat", base.alpha, base.beta),
                    ObjectiveSpec::accuracy_latency("multi", base.alpha, base.beta)
                        .with_energy(0.2, None)
                        .with_peak_mem(0.05, None),
                ];
                let scenarios = cross_scenarios(
                    &task,
                    &base,
                    &[TaskKind::Classification],
                    &objectives,
                    &[
                        persona(DeviceKind::JetsonTx2),
                        persona(DeviceKind::RaspberryPi3B),
                    ],
                );
                Request::over_scenarios(task, base, scenarios)
            }
            Kind::SoloSmall => {
                let mut task = TaskConfig::small(r % 1_000_003);
                task.dataset.train_per_class = 3;
                task.dataset.test_per_class = 2;
                let mut base = tiny_config(DeviceKind::JetsonTx2, LatencyMode::Predictor);
                base.predictor.train_samples = 80;
                base.predictor.val_samples = 20;
                base.eval_clouds = 20;
                // A lighter prefix than the tiny workloads' (two Stage-1
                // candidates, one pre-training epoch) so a 30 s window
                // serves enough requests for the tail and a steady RSS.
                base.ea_stage1.population = 2;
                base.epochs_stage2 = 1;
                base.seed = splitmix(r) % 1_000_003;
                Request {
                    devices: vec![base.device],
                    task,
                    base,
                    scenarios: Vec::new(),
                }
            }
            Kind::SpillMeasured => {
                let devices = [
                    DeviceKind::Rtx3080,
                    DeviceKind::JetsonTx2,
                    DeviceKind::RaspberryPi3B,
                ];
                let scenarios: Vec<ScenarioSpec> = devices
                    .iter()
                    .enumerate()
                    .map(|(i, &device)| {
                        let s = splitmix(r ^ (i as u64 + 1));
                        let task = TaskConfig::tiny(s % 1_000_003);
                        let mut cfg = tiny_config(device, LatencyMode::Measured);
                        cfg.seed = splitmix(s) % 1_000_003;
                        ScenarioSpec::new(format!("spill/{}", device.name()), task, cfg)
                    })
                    .collect();
                let (task, base) = (scenarios[0].task.clone(), scenarios[0].config.clone());
                Request::over_scenarios(task, base, scenarios)
            }
        }
    }
}

/// One daemon request: a base task/config pair plus either devices (one
/// shard each) or explicit scenarios.
#[derive(Debug, Clone)]
pub struct Request {
    pub task: TaskConfig,
    pub base: SearchConfig,
    pub devices: Vec<DeviceKind>,
    pub scenarios: Vec<ScenarioSpec>,
}

impl Request {
    fn over_scenarios(task: TaskConfig, base: SearchConfig, scenarios: Vec<ScenarioSpec>) -> Self {
        Request {
            task,
            base,
            devices: Vec::new(),
            scenarios,
        }
    }

    /// Every shard's `(task, config)`, in report order.
    pub fn shards(&self) -> Vec<(TaskConfig, SearchConfig)> {
        if self.scenarios.is_empty() {
            self.devices
                .iter()
                .map(|&d| {
                    let mut cfg = self.base.clone();
                    cfg.device = d;
                    (self.task.clone(), cfg)
                })
                .collect()
        } else {
            self.scenarios
                .iter()
                .map(|s| (s.task.clone(), s.config.clone()))
                .collect()
        }
    }

    /// Distinct deterministic prefixes among the shards: the fewest prefix
    /// builds that could serve the request.
    pub fn distinct_prefixes(&self) -> usize {
        self.shards()
            .iter()
            .map(|(t, c)| prefix_fingerprint(t, c))
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// The `run_fleet` configuration equivalent to serving this request on
    /// a daemon configured with `serve`.
    pub fn fleet_config(&self, serve: &ServeConfig) -> FleetConfig {
        let mut fleet = if self.scenarios.is_empty() {
            FleetConfig::new(self.devices.clone())
        } else {
            FleetConfig::over_scenarios(self.scenarios.clone())
        };
        fleet.threads = serve.threads;
        fleet.preemption_stride = serve.preemption_stride;
        fleet.checkpoint_every = serve.checkpoint_every;
        fleet.oracle = serve.oracle.clone();
        fleet.session_memory_budget = serve.session_memory_budget;
        fleet
    }
}

fn persona(kind: DeviceKind) -> hgnas::device::DevicePersona {
    PersonaRegistry::builtin()
        .get(builtin_slug(kind))
        .expect("builtin persona")
        .clone()
}

/// The reduced search every workload starts from: one Stage-1 generation
/// of 3, three Stage-2 generations of 6, a small predictor.
fn tiny_config(device: DeviceKind, mode: LatencyMode) -> SearchConfig {
    let mut cfg = SearchConfig::fast(device);
    cfg.ea_stage1.iterations = 1;
    cfg.ea_stage1.population = 3;
    cfg.ea_stage2.iterations = 3;
    cfg.ea_stage2.population = 6;
    cfg.epochs_stage1 = 1;
    cfg.epochs_stage2 = 2;
    cfg.predictor = PredictorConfig {
        train_samples: 60,
        val_samples: 20,
        epochs: 6,
        lr: 3e-3,
        gcn_dims: vec![16, 16],
        mlp_hidden: vec![12],
        seed: 1,
        global_node: true,
        batch: 2,
    };
    cfg.eval_clouds = 20;
    cfg.eval_threads = 2;
    cfg.latency_mode = mode;
    cfg
}
