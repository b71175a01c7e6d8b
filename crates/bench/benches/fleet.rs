//! Fleet-layer benchmarks: engine shapes and the session cache.
//!
//! - `fleet/scheduler`: one tiny 3-shard fleet searched under different
//!   engine shapes — thread budgets of 1 and 2, unpreempted vs.
//!   generation-granular slicing. Results are bit-identical across
//!   shapes; this measures the scheduling overhead. With the session
//!   cache, fine strides no longer replay Stage 1 + supernet pre-training
//!   per slice.
//!
//! Besides the criterion sweep, the bench always writes a machine-readable
//! record so CI can track the perf trajectory: `BENCH_fleet.json`
//! (slice-replay vs. session-cache wall-clock on a stride-1 fleet whose
//! same-seed shards share prefix-keyed sessions across devices, plus
//! per-scenario phase rows for the {task × objective} cross on the builtin
//! Jetson TX2 persona). `HGNAS_BENCH_JSON=only` skips the sweep and emits
//! just the record, `HGNAS_BENCH_OUT` overrides its output path.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use hgnas_core::{LatencyMode, SearchConfig, TaskConfig};
use hgnas_device::{builtin_slug, DeviceKind, PersonaRegistry};
use hgnas_fleet::{cross_scenarios, Engine, EngineReport, FleetConfig, ObjectiveSpec, ShardSpec};
use hgnas_pointcloud::TaskKind;
use hgnas_predictor::PredictorConfig;

/// The tiny predictor-mode search configuration every fleet bench shard
/// uses: one Stage-1 iteration, a 40-sample predictor, 15 eval clouds.
fn tiny_config(device: DeviceKind, seed: u64) -> SearchConfig {
    let mut cfg = SearchConfig::fast(device);
    cfg.ea_stage1.iterations = 1;
    cfg.ea_stage1.population = 3;
    cfg.ea_stage2.iterations = 3;
    cfg.ea_stage2.population = 6;
    cfg.epochs_stage1 = 1;
    cfg.epochs_stage2 = 2;
    cfg.predictor = PredictorConfig {
        train_samples: 40,
        val_samples: 15,
        epochs: 4,
        lr: 3e-3,
        gcn_dims: vec![16, 16],
        mlp_hidden: vec![12],
        seed: 1,
        global_node: true,
        batch: 2,
    };
    cfg.eval_clouds = 15;
    cfg.latency_mode = LatencyMode::Predictor;
    cfg.seed = seed;
    cfg
}

/// One fresh storeless engine running `specs` to completion.
fn run_engine(
    specs: &[ShardSpec],
    threads: usize,
    stride: usize,
    session_memory_budget: Option<u64>,
) -> EngineReport {
    let mut fleet = FleetConfig::new(Vec::new());
    fleet.threads = threads;
    fleet.preemption_stride = stride;
    fleet.session_memory_budget = session_memory_budget;
    let all: Vec<usize> = (0..specs.len()).collect();
    Engine::new(&fleet, None)
        .run(0, specs, &all, None, threads, None)
        .expect("storeless run")
}

/// One tiny predictor-mode shard per (device, seed).
fn tiny_specs(shards: &[(DeviceKind, u64)]) -> Vec<ShardSpec> {
    let task = TaskConfig::tiny(3);
    shards
        .iter()
        .map(|&(device, seed)| ShardSpec::new(task.clone(), tiny_config(device, seed)))
        .collect()
}

fn bench_scheduler(c: &mut Criterion) {
    let specs = tiny_specs(&[
        (DeviceKind::Rtx3080, 0),
        (DeviceKind::JetsonTx2, 0),
        (DeviceKind::RaspberryPi3B, 0),
    ]);

    let mut group = c.benchmark_group("fleet/scheduler3");
    // (threads, stride)
    for (threads, stride) in [(2usize, 0usize), (2, 1), (1, 1)] {
        let label = format!("t{threads}-s{stride}");
        group.bench_with_input(
            BenchmarkId::new("shape", label),
            &(threads, stride),
            |b, &(threads, stride)| b.iter(|| black_box(run_engine(&specs, threads, stride, None))),
        );
    }
    group.finish();
}

/// Times one stride-1 engine run of `specs` under a session budget;
/// returns (wall-clock ms, total prefix builds across shards, the report).
fn time_fleet(specs: &[ShardSpec], session_memory_budget: Option<u64>) -> (f64, u64, EngineReport) {
    let t = std::time::Instant::now();
    let report = run_engine(specs, 2, 1, session_memory_budget);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let builds = report.shards.iter().map(|s| s.prefix_builds).sum();
    (ms, builds, report)
}

/// Per-scenario phase rows for the {task × objective} cross on the
/// builtin Jetson TX2 persona. Each scenario runs as its own stride-1
/// single-shard fleet so the phase breakdown (predictor training, prefix
/// build, search) is attributable to that scenario alone: the
/// segmentation rows carry the wider-head supernet, the multi-metric
/// rows the energy/peak-memory costing on every candidate. Keys are
/// prefixed with the scenario label so `bench_diff` tracks each row
/// independently.
fn scenario_rows() -> String {
    let task = TaskConfig::tiny(3);
    let base = tiny_config(DeviceKind::JetsonTx2, 0);
    let jetson = PersonaRegistry::builtin()
        .get(builtin_slug(DeviceKind::JetsonTx2))
        .expect("builtin persona")
        .clone();
    let scenarios = cross_scenarios(
        &task,
        &base,
        &[TaskKind::Classification, TaskKind::Segmentation],
        &[
            ObjectiveSpec::accuracy_latency("acc-lat", base.alpha, base.beta),
            ObjectiveSpec::accuracy_latency("multi", base.alpha, base.beta)
                .with_energy(0.2, None)
                .with_peak_mem(0.05, None),
        ],
        &[jetson],
    );
    let mut rows = String::new();
    for s in &scenarios {
        let spec = ShardSpec::new(s.task.clone(), s.config.clone()).with_scenario(s.label.clone());
        let t = std::time::Instant::now();
        let report = run_engine(&[spec], 1, 1, None);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let ph = &report.phase_timings;
        let front = report.shards[0].pareto.len();
        rows.push_str(&format!(
            ",\n  \"{label}\": {{\"{label} wall_ms\": {wall_ms:.3}, \
             \"{label} predictor_train_ms\": {:.3}, \"{label} session_build_ms\": {:.3}, \
             \"{label} search_ms\": {:.3}, \"front\": {front}}}",
            ph.predictor_train_ms,
            ph.session_build_ms,
            ph.search_ms,
            label = s.label,
        ));
    }
    rows
}

/// Writes the machine-readable perf record CI uploads: the same stride-1
/// 4-shard fleet timed with the prefix replayed every slice (session
/// budget 0, no store — the pre-PR-5 behaviour) vs. the prefix-keyed
/// session cache, plus one phase row per {task × objective} scenario.
/// Three of the four shards share one prefix fingerprint (same seed,
/// different devices), so the cached run performs 2 builds for 4 shards
/// — the PR-7 sharing win on top of the PR-5 residency win — and its
/// sessions score each genome's one-shot accuracy once for all the shards
/// sharing them (`accuracy_scored` against `accuracy_reused`).
fn emit_bench_json() {
    let specs = tiny_specs(&[
        (DeviceKind::Rtx3080, 0),
        (DeviceKind::JetsonTx2, 0),
        (DeviceKind::RaspberryPi3B, 0),
        (DeviceKind::Rtx3080, 1),
    ]);
    let (replay_ms, replay_builds, _) = time_fleet(&specs, Some(0));
    let (session_ms, session_builds, session) = time_fleet(&specs, None);
    // The coarse where-did-the-time-go breakdown for the session-cache run
    // (the shipping configuration): the re-profiling signal that names the
    // next optimisation target.
    let phases = session.phase_timings;
    let json = format!(
        "{{\n  \"bench\": \"fleet/session-vs-replay\",\n  \"shards\": {},\n  \
         \"preemption_stride\": 1,\n  \"threads\": 2,\n  \
         \"slice_replay_ms\": {replay_ms:.3},\n  \"session_cache_ms\": {session_ms:.3},\n  \
         \"speedup\": {:.3},\n  \"replay_prefix_builds\": {replay_builds},\n  \
         \"session_prefix_builds\": {session_builds},\n  \
         \"accuracy_scored\": {},\n  \"accuracy_reused\": {},\n  \
         \"phases\": {{\"predictor_train_ms\": {:.3}, \"session_build_ms\": {:.3}, \
         \"session_restore_ms\": {:.3}, \"search_ms\": {:.3}, \"persist_ms\": {:.3}}}{scenarios}\n}}\n",
        specs.len(),
        replay_ms / session_ms.max(1e-9),
        session.session_stats.accuracy_scored,
        session.session_stats.accuracy_reused,
        phases.predictor_train_ms,
        phases.session_build_ms,
        phases.session_restore_ms,
        phases.search_ms,
        phases.persist_ms,
        scenarios = scenario_rows(),
    );
    // Cargo runs benches with cwd = the *package* dir (crates/bench), so a
    // bare relative default would land where CI's upload step never looks;
    // anchor it to the workspace root instead.
    let path = std::env::var("HGNAS_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json").into());
    std::fs::write(&path, json).expect("write bench json");
    println!(
        "{path}: slice-replay {replay_ms:.0} ms ({replay_builds} prefix builds) vs \
         session-cache {session_ms:.0} ms ({session_builds} prefix builds)"
    );
}

criterion_group!(benches, bench_scheduler);

fn main() {
    // HGNAS_BENCH_JSON=only skips the criterion sweep (CI's quick path);
    // the JSON record is emitted either way.
    let json_only = std::env::var("HGNAS_BENCH_JSON").is_ok_and(|v| v == "only");
    if !json_only {
        benches();
    }
    emit_bench_json();
}
