//! Fleet-grade equivalence harness: the engine matrix.
//!
//! The engine's contract is absolute — any (shard count × thread budget ×
//! preemption stride) cell must produce per-shard results bit-identical to
//! serial `Hgnas::run_with` runs, through transient measurement-fault
//! storms, slice-grant kills resumed via the artifact store, calls that
//! park shards inside one long-lived engine, and warm-started score
//! caches.

use hgnas::core::{Hgnas, LatencyMode, SearchConfig, SearchOutcome, TaskConfig};
use hgnas::device::DeviceKind;
use hgnas::fleet::{
    event_channel, prefix_fingerprint, run_fleet, run_fleet_with_events, ArtifactStore, Engine,
    EngineReport, FleetConfig, FleetEvent, OracleConfig, ParetoPoint, SessionAction, ShardSpec,
    StreamingReporter,
};
use hgnas::predictor::PredictorConfig;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

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
    cfg.latency_mode = mode;
    cfg
}

/// A unique, self-cleaning store directory per test.
struct TempStore {
    path: PathBuf,
}

impl TempStore {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        let path =
            std::env::temp_dir().join(format!("hgnas-equiv-test-{tag}-{}-{n}", std::process::id()));
        TempStore { path }
    }

    fn open(&self) -> ArtifactStore {
        ArtifactStore::open(&self.path).expect("store dir")
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Engine settings: a thread budget, a preemption stride and a session
/// memory budget, everything else at the fleet defaults.
fn engine_config(threads: usize, stride: usize, session_budget: Option<u64>) -> FleetConfig {
    let mut fleet = FleetConfig::new(Vec::new());
    fleet.threads = threads;
    fleet.preemption_stride = stride;
    fleet.session_memory_budget = session_budget;
    fleet
}

/// A fresh engine running every spec as request 0, to completion or to
/// the slice grant.
fn run_fresh(
    fleet: &FleetConfig,
    store: Option<&ArtifactStore>,
    specs: &[ShardSpec],
    grant: Option<u64>,
) -> EngineReport {
    let all: Vec<usize> = (0..specs.len()).collect();
    Engine::new(fleet, store.cloned())
        .run(0, specs, &all, grant, fleet.threads, None)
        .expect("engine call")
}

fn shard(task: &TaskConfig, device: DeviceKind, seed: u64, mode: LatencyMode) -> ShardSpec {
    let mut cfg = tiny_config(device, mode);
    cfg.seed = seed;
    ShardSpec::new(task.clone(), cfg)
}

/// Serial references, computed once per distinct (device, seed, mode).
struct References {
    task: TaskConfig,
    cache: HashMap<(DeviceKind, u64, bool), SearchOutcome>,
}

impl References {
    fn new(task: TaskConfig) -> Self {
        References {
            task,
            cache: HashMap::new(),
        }
    }

    fn get(&mut self, device: DeviceKind, seed: u64, mode: LatencyMode) -> &SearchOutcome {
        let task = &self.task;
        self.cache
            .entry((device, seed, mode == LatencyMode::Measured))
            .or_insert_with(|| {
                let mut cfg = tiny_config(device, mode);
                cfg.seed = seed;
                Hgnas::new(task.clone(), cfg).run()
            })
    }
}

fn assert_outcomes_bit_identical(a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(a.best.genome, b.best.genome);
    assert_eq!(a.best.architecture, b.best.architecture);
    assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
    assert_eq!(
        a.best.supernet_accuracy.to_bits(),
        b.best.supernet_accuracy.to_bits()
    );
    assert_eq!(a.best.latency_ms.to_bits(), b.best.latency_ms.to_bits());
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "history time diverged");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "history score diverged");
    }
    assert_eq!(a.search_hours.to_bits(), b.search_hours.to_bits());
    assert_eq!(a.eval_stats, b.eval_stats);
    assert_eq!(a.stage1_stats, b.stage1_stats);
    assert_eq!(a.predictor_stats, b.predictor_stats);
}

/// Bit-level signature of one Pareto point: latency, accuracy, genome.
type FrontSignature = Vec<(u64, u64, Vec<u8>)>;

fn front_signature(front: &[ParetoPoint]) -> FrontSignature {
    front
        .iter()
        .map(|p| {
            (
                p.latency_ms.to_bits(),
                p.accuracy.to_bits(),
                p.genome.iter().map(|op| op.index() as u8).collect(),
            )
        })
        .collect()
}

/// Tentpole acceptance: every (shard count × thread budget × preemption
/// stride) cell — shards ≫ devices included — yields per-shard outcomes
/// bit-identical to serial runs, and Pareto fronts identical across
/// cells.
#[test]
fn scheduler_matrix_is_bit_identical_to_serial() {
    let task = TaskConfig::tiny(21);
    // Five shards over three devices: two devices carry multiple seeds,
    // so the fleet is wider than `DeviceKind` could ever make it.
    let shards: Vec<(DeviceKind, u64)> = vec![
        (DeviceKind::Rtx3080, 0),
        (DeviceKind::JetsonTx2, 0),
        (DeviceKind::RaspberryPi3B, 0),
        (DeviceKind::Rtx3080, 1),
        (DeviceKind::JetsonTx2, 2),
    ];
    let mut refs = References::new(task.clone());
    // (shard count, thread budget, preemption stride): a budget smaller
    // than the shard count, a fully serial worker, and an unpreempted
    // bounded pool.
    let cells = [(5usize, 2usize, 1usize), (3, 1, 2), (4, 3, 0)];
    let mut fronts: HashMap<(DeviceKind, u64), FrontSignature> = HashMap::new();

    for (nshards, threads, stride) in cells {
        let specs: Vec<ShardSpec> = shards[..nshards]
            .iter()
            .map(|&(d, s)| shard(&task, d, s, LatencyMode::Predictor))
            .collect();
        let report = run_fresh(&engine_config(threads, stride, None), None, &specs, None);
        assert_eq!(report.shards.len(), nshards);
        for (result, &(device, seed)) in report.shards.iter().zip(&shards) {
            assert_eq!(result.device, device);
            let outcome = result
                .outcome
                .as_ref()
                .expect("an ungranted call finishes every shard");
            assert_outcomes_bit_identical(outcome, refs.get(device, seed, LatencyMode::Predictor));
            if stride > 0 {
                assert!(
                    result.slices > 1,
                    "cell ({nshards},{threads},{stride}): preemption never fired"
                );
            } else {
                assert_eq!(result.slices, 1, "unpreempted shards run in one slice");
            }
            assert!(!result.pareto.is_empty());
            let sig = front_signature(&result.pareto);
            match fronts.entry((device, seed)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    assert_eq!(
                        e.get(),
                        &sig,
                        "cell ({nshards},{threads},{stride}): Pareto front diverged"
                    );
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(sig);
                }
            }
        }
    }
}

/// Tentpole acceptance (PR 5, re-keyed in PR 7): with a fine preemption
/// stride and an unbounded session memory budget, the engine computes
/// each *distinct prefix* (Stage 1 + supernet pre-training) exactly once
/// — the three seed-0 shards share one session across their different
/// devices, the seed-3 shard owns its own — every later slice is a
/// session-cache hit — and stays bit-identical to serial; with
/// `session_memory_budget: Some(0)` and no store the cache degrades to
/// the old replay-per-slice path, still bit-identical, with the same
/// Pareto fronts.
#[test]
fn session_cache_pretrains_once_per_shard_and_budget_zero_replays() {
    let task = TaskConfig::tiny(41);
    let shards = [
        (DeviceKind::Rtx3080, 0u64),
        (DeviceKind::JetsonTx2, 0),
        (DeviceKind::RaspberryPi3B, 0),
        (DeviceKind::Rtx3080, 3),
    ];
    let specs: Vec<ShardSpec> = shards
        .iter()
        .map(|&(d, s)| shard(&task, d, s, LatencyMode::Predictor))
        .collect();
    let mut refs = References::new(task.clone());
    let mut fronts: HashMap<(DeviceKind, u64), FrontSignature> = HashMap::new();

    // Unbounded budget: stride 1 over 4 shards, 2 distinct prefixes
    // (seeds 0 and 3 — the device is not prefix-relevant), so exactly 2
    // builds fleet-wide.
    let report = run_fresh(&engine_config(2, 1, None), None, &specs, None);
    assert_eq!(
        report.session_stats.builds, 2,
        "one build per distinct prefix, not per shard"
    );
    assert_eq!(report.session_stats.evictions, 0);
    assert!(report.session_stats.hits > 0, "later slices hit the cache");
    let shared = report.session_stats;
    assert!(
        shared.accuracy_reused > 0,
        "same-prefix shards share one-shot accuracies: {shared:?}"
    );
    let total_builds: u64 = report.shards.iter().map(|r| r.prefix_builds).sum();
    assert_eq!(total_builds, 2, "per-shard builds sum to distinct prefixes");
    for (result, &(device, seed)) in report.shards.iter().zip(&shards) {
        assert!(result.slices > 1, "stride 1 slices every shard");
        assert!(
            result.prefix_builds <= 1,
            "shard {}: supernet pre-training ran at most once",
            result.shard
        );
        // Hits, restores and builds are three disjoint claim outcomes;
        // every executed slice resolves to exactly one of them.
        assert_eq!(
            result.prefix_builds + result.session_hits + result.session_restores,
            result.slices,
            "shard {}: disjoint session outcomes cover every slice",
            result.shard
        );
        let outcome = result.outcome.as_ref().expect("all shards finish");
        assert_outcomes_bit_identical(outcome, refs.get(device, seed, LatencyMode::Predictor));
        fronts.insert((device, seed), front_signature(&result.pareto));
    }

    // Budget 0, no store: every slice evicts immediately and the next one
    // replays — today's degraded path, bit-identical with equal fronts.
    let report = run_fresh(&engine_config(2, 1, Some(0)), None, &specs, None);
    assert!(report.session_stats.evictions > 0, "budget 0 evicts");
    assert_eq!(report.session_stats.spills, 0, "no store, nothing spilled");
    assert_eq!(report.session_stats.hits, 0, "nothing stays resident");
    let replayed = report.session_stats;
    assert_eq!(
        replayed.accuracy_scored + replayed.accuracy_reused,
        shared.accuracy_scored + shared.accuracy_reused,
        "the counts cover every session the engine held, dropped ones too"
    );
    for (result, &(device, seed)) in report.shards.iter().zip(&shards) {
        assert_eq!(
            result.prefix_builds, result.slices,
            "budget 0 without a store replays the prefix every slice"
        );
        let outcome = result.outcome.as_ref().expect("all shards finish");
        assert_outcomes_bit_identical(outcome, refs.get(device, seed, LatencyMode::Predictor));
        assert_eq!(
            fronts[&(device, seed)],
            front_signature(&result.pareto),
            "replay cell changed a Pareto front"
        );
    }
}

/// Mid-run eviction under a budget that fits roughly one session: parked
/// shards lose their sessions while running ones proceed. With a store
/// attached the evictions spill and later slices restore from disk — the
/// prefix still runs exactly once per shard; results stay bit-identical
/// either way. The seeds differ so the three shards own three *distinct*
/// prefixes — same-seed shards would share a single session and the
/// budget would never fire.
#[test]
fn tight_session_budget_evicts_mid_run_without_changing_results() {
    let task = TaskConfig::tiny(43);
    let shards = [
        (DeviceKind::Rtx3080, 0u64),
        (DeviceKind::JetsonTx2, 1),
        (DeviceKind::RaspberryPi3B, 2),
    ];
    let specs: Vec<ShardSpec> = shards
        .iter()
        .map(|&(d, s)| shard(&task, d, s, LatencyMode::Predictor))
        .collect();
    // A budget that holds one session but never two.
    let one_session = Hgnas::new(task.clone(), specs[0].config.clone())
        .prepare_session()
        .approx_bytes();
    let budget = one_session * 3 / 2;
    let mut refs = References::new(task.clone());

    // Without a store: evictions degrade to replays.
    let report = run_fresh(&engine_config(1, 1, Some(budget)), None, &specs, None);
    assert!(
        report.session_stats.evictions > 0,
        "the budget genuinely evicted mid-run: {:?}",
        report.session_stats
    );
    for (result, &(device, seed)) in report.shards.iter().zip(&shards) {
        assert_outcomes_bit_identical(
            result.outcome.as_ref().expect("all shards finish"),
            refs.get(device, seed, LatencyMode::Predictor),
        );
    }

    // With a store: evictions spill (once per immutable session) and later
    // slices restore — pre-training still runs exactly once per shard.
    let temp = TempStore::new("tight-budget");
    let store = temp.open();
    let report = run_fresh(
        &engine_config(1, 1, Some(budget)),
        Some(&store),
        &specs,
        None,
    );
    assert!(report.session_stats.evictions > 0);
    assert!(report.session_stats.spills > 0, "evictions spilled to disk");
    assert!(report.session_stats.restores > 0, "spills were restored");
    for (result, &(device, seed)) in report.shards.iter().zip(&shards) {
        assert_eq!(
            result.prefix_builds, 1,
            "spill/restore keeps pre-training at once per shard"
        );
        assert_outcomes_bit_identical(
            result.outcome.as_ref().expect("all shards finish"),
            refs.get(device, seed, LatencyMode::Predictor),
        );
    }
}

/// Tentpole acceptance (PR 7): K shards differing only in their EA
/// stage-2 seed share one prefix fingerprint, so a stride-1 fleet
/// performs exactly ONE prefix build fleet-wide (single-flight dedup) no
/// matter the thread budget; outcomes stay bit-identical to serial
/// across a (threads × stride) matrix; and the shared session survives a
/// kill/resume through an `ArtifactKind::Session` spill with zero
/// rebuilds in the resume round.
#[test]
fn shared_prefix_fleet_builds_the_prefix_exactly_once() {
    let task = TaskConfig::tiny(53);
    let device = DeviceKind::JetsonTx2;
    let seeds = [0u64, 1, 2, 3];
    let specs: Vec<ShardSpec> = seeds
        .iter()
        .map(|&s| {
            let mut cfg = tiny_config(device, LatencyMode::Predictor);
            cfg.ea_stage2.seed = s;
            ShardSpec::new(task.clone(), cfg)
        })
        .collect();
    // Serial references, one per stage-2 seed.
    let refs: Vec<SearchOutcome> = specs
        .iter()
        .map(|sp| Hgnas::new(sp.task.clone(), sp.config.clone()).run())
        .collect();

    // Thread budgets above 1 race claimants into the single-flight path
    // (defer + re-queue); the build count must stay at one regardless.
    for (threads, stride) in [(1usize, 1usize), (2, 1), (3, 1), (2, 2)] {
        let report = run_fresh(&engine_config(threads, stride, None), None, &specs, None);
        let built: u64 = report.shards.iter().map(|r| r.prefix_builds).sum();
        assert_eq!(
            built, 1,
            "cell ({threads},{stride}): the shared prefix was built exactly once"
        );
        assert_eq!(report.session_stats.builds, 1);
        assert_eq!(report.session_stats.evictions, 0);
        assert!(
            report.session_stats.deferrals < specs.len() as u64,
            "cell ({threads},{stride}): each other shard defers at most once, got {}",
            report.session_stats.deferrals
        );
        for (result, reference) in report.shards.iter().zip(&refs) {
            assert_eq!(
                result.prefix_builds + result.session_hits + result.session_restores,
                result.slices,
                "cell ({threads},{stride}) shard {}: disjoint outcomes cover every slice",
                result.shard
            );
            assert_outcomes_bit_identical(
                result.outcome.as_ref().expect("all shards finish"),
                reference,
            );
        }
    }

    // Kill mid-fleet with the shared session force-spilled (budget 0 +
    // store); a fresh engine restores it off disk — zero prefix rebuilds
    // in round 2.
    let temp = TempStore::new("shared-prefix");
    let store = temp.open();
    let round1 = run_fresh(&engine_config(1, 1, Some(0)), Some(&store), &specs, Some(3));
    assert!(
        round1.shards.iter().any(|s| s.outcome.is_none()),
        "the slice budget interrupted the fleet"
    );
    assert!(
        round1.session_stats.spills > 0,
        "the shared session spilled"
    );
    let built: u64 = round1.shards.iter().map(|r| r.prefix_builds).sum();
    assert_eq!(built, 1, "even forced spills rebuild nothing: one build");

    let round2 = run_fresh(&engine_config(1, 1, None), Some(&store), &specs, None);
    assert_eq!(
        round2.session_stats.builds, 0,
        "round 2 restored the spilled shared session instead of rebuilding: {:?}",
        round2.session_stats
    );
    assert_eq!(
        round2.session_stats.restores, 1,
        "one restore re-seeded the cache for every shard"
    );
    for (result, reference) in round2.shards.iter().zip(&refs) {
        assert_outcomes_bit_identical(
            result
                .outcome
                .as_ref()
                .expect("round 2 finishes everything"),
            reference,
        );
    }
}

/// Kill/resume through a spilled `ArtifactKind::Session`: round 1 runs
/// out of slice budget with sessions force-spilled to the store; round 2
/// (a fresh engine, empty in-memory cache) restores them from disk
/// instead of re-running Stage 1 + pre-training, and finishes
/// bit-identically to serial.
#[test]
fn kill_and_resume_through_spilled_session_artifacts() {
    let task = TaskConfig::tiny(47);
    let shards = [
        (DeviceKind::Rtx3080, 0u64),
        (DeviceKind::JetsonTx2, 0),
        (DeviceKind::Rtx3080, 7),
    ];
    let specs: Vec<ShardSpec> = shards
        .iter()
        .map(|&(d, s)| shard(&task, d, s, LatencyMode::Predictor))
        .collect();
    let temp = TempStore::new("spilled-session");
    let store = temp.open();

    // Round 1: budget 0 forces every built session straight to disk; the
    // slice budget parks the fleet mid-run.
    let round1 = run_fresh(&engine_config(1, 1, Some(0)), Some(&store), &specs, Some(4));
    assert!(
        round1.shards.iter().any(|s| s.outcome.is_none()),
        "the slice budget interrupted the fleet"
    );
    assert!(round1.session_stats.spills > 0, "sessions spilled");
    let spilled_sessions = std::fs::read_dir(store.root())
        .expect("store dir")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("session-")
        })
        .count();
    assert!(spilled_sessions > 0, "session artifacts exist on disk");

    // Round 2: fresh engine, unbounded cache. Shards round 1 touched
    // restore their sessions from the spill — zero prefix builds.
    let round2 = run_fresh(&engine_config(1, 1, None), Some(&store), &specs, None);
    assert!(
        round2.session_stats.restores > 0,
        "round 2 restored spilled sessions: {:?}",
        round2.session_stats
    );
    assert!(
        round2.session_stats.builds < shards.len() as u64,
        "at least one shard skipped its prefix entirely"
    );
    let mut refs = References::new(task);
    for (result, &(device, seed)) in round2.shards.iter().zip(&shards) {
        assert_outcomes_bit_identical(
            result
                .outcome
                .as_ref()
                .expect("round 2 finishes everything"),
            refs.get(device, seed, LatencyMode::Predictor),
        );
    }
}

/// One long-lived engine serving a request over several granted calls,
/// the way the daemon serves admission rounds: each call runs only the
/// still-unfinished shards, so call-local positions and request indices
/// disagree. With `session_memory_budget: Some(0)` and a store, every
/// session is evicted (spilled) the moment it is built or restored, so
/// evictions fire in call after call. Each prefix is still built exactly
/// once — later claims restore the spill — results stay bit-identical to
/// serial, and every `Evicted` event names the shard (by request index and
/// device) whose slice published the evicted session.
#[test]
fn long_lived_engine_builds_each_prefix_once_across_granted_calls() {
    let task = TaskConfig::tiny(59);
    // Two prefixes (seeds 0 and 5), each shared by two shards; four
    // distinct devices, so a misnumbered event names the wrong device.
    let shards = [
        (DeviceKind::Rtx3080, 0u64),
        (DeviceKind::JetsonTx2, 5),
        (DeviceKind::RaspberryPi3B, 0),
        (DeviceKind::I78700K, 5),
    ];
    let specs: Vec<ShardSpec> = shards
        .iter()
        .map(|&(d, s)| shard(&task, d, s, LatencyMode::Predictor))
        .collect();
    let temp = TempStore::new("long-lived");
    let engine = Engine::new(&engine_config(2, 1, Some(0)), Some(temp.open()));

    let mut finished: Vec<Option<hgnas::fleet::ShardResult>> = specs.iter().map(|_| None).collect();
    let mut calls_with_evictions = 0;
    let mut calls = 0;
    while finished.iter().any(Option::is_none) {
        let pending: Vec<usize> = (0..specs.len())
            .filter(|&i| finished[i].is_none())
            .collect();
        let (tx, rx) = event_channel();
        let report = engine
            .run(7, &specs, &pending, Some(3), 2, Some(tx))
            .expect("granted call");
        calls += 1;
        assert_eq!(report.shards.len(), pending.len());
        let events: Vec<FleetEvent> = rx.try_iter().collect();
        // The last session action per shard within this call.
        let mut last: HashMap<usize, SessionAction> = HashMap::new();
        let mut evicted = 0;
        for ev in &events {
            if let FleetEvent::SessionCache {
                shard,
                device,
                action,
            } = ev
            {
                assert_eq!(
                    *device, specs[*shard].config.device,
                    "event names shard {shard}"
                );
                if let SessionAction::Evicted { spilled } = action {
                    assert!(spilled, "a store is attached, so evictions spill");
                    assert!(
                        matches!(
                            last.get(shard),
                            Some(SessionAction::Built | SessionAction::Restored)
                        ),
                        "call {calls}: shard {shard} was evicted without publishing a session"
                    );
                    evicted += 1;
                }
                last.insert(*shard, *action);
            }
        }
        calls_with_evictions += usize::from(evicted > 0);
        for r in report.shards {
            if r.outcome.is_some() {
                let i = r.shard;
                finished[i] = Some(r);
            }
        }
    }
    assert!(calls > 2, "the grant split the request into several calls");
    assert!(calls_with_evictions > 1, "evictions fired across calls");

    let mut refs = References::new(task.clone());
    let mut builds: HashMap<u64, u64> = HashMap::new();
    for (r, (&(device, seed), spec)) in finished.iter().flatten().zip(shards.iter().zip(&specs)) {
        assert_outcomes_bit_identical(
            r.outcome.as_ref().expect("finished"),
            refs.get(device, seed, LatencyMode::Predictor),
        );
        *builds
            .entry(prefix_fingerprint(&spec.task, &spec.config))
            .or_default() += r.prefix_builds;
    }
    assert_eq!(builds.len(), 2);
    assert!(
        builds.values().all(|&b| b == 1),
        "each prefix built exactly once across calls: {builds:?}"
    );
}

/// Two calls at once on one engine, for different requests, the way the
/// daemon runs two tenants' rounds: request 1 is a measured shard run in
/// granted calls of one slice each (stride 1), request 2 two predictor
/// shards sharing one prefix in one call, each call under a kernel budget
/// of 1. The two start together, and request 1's calls end while request
/// 2's longer call is in flight; that end must keep the session and the
/// oracle of the call in flight, so every prefix is built once and every
/// outcome stays bit-identical to serial. Repeated on fresh engines so the
/// calls overlap in different places.
#[test]
fn concurrent_calls_on_one_engine_match_serial() {
    let task = TaskConfig::tiny(61);
    let measured = [shard(
        &task,
        DeviceKind::JetsonTx2,
        3,
        LatencyMode::Measured,
    )];
    let predicted = [
        shard(&task, DeviceKind::Rtx3080, 4, LatencyMode::Predictor),
        shard(&task, DeviceKind::RaspberryPi3B, 4, LatencyMode::Predictor),
    ];
    let mut refs = References::new(task.clone());
    for _ in 0..3 {
        let engine = Engine::new(&engine_config(2, 1, None), None);
        let start = Barrier::new(2);
        let (alone, pair) = std::thread::scope(|s| {
            let alone = s.spawn(|| {
                start.wait();
                let mut calls = 0;
                loop {
                    let report = engine
                        .run(1, &measured, &[0], Some(1), 1, None)
                        .expect("granted call");
                    calls += 1;
                    let r = report.shards.into_iter().next().expect("one shard");
                    if r.outcome.is_some() {
                        return (r, calls);
                    }
                }
            });
            let pair = s.spawn(|| {
                start.wait();
                engine
                    .run(2, &predicted, &[0, 1], None, 1, None)
                    .expect("ungranted call")
            });
            (alone.join().unwrap(), pair.join().unwrap())
        });
        let (alone, calls) = alone;
        assert_eq!(calls, 3, "stride 1 over 3 generations, one slice a call");
        assert_outcomes_bit_identical(
            alone.outcome.as_ref().expect("finished"),
            refs.get(DeviceKind::JetsonTx2, 3, LatencyMode::Measured),
        );
        assert_eq!(alone.prefix_builds, 1, "the measured shard's prefix");
        for (r, spec) in pair.shards.iter().zip(&predicted) {
            assert_outcomes_bit_identical(
                r.outcome.as_ref().expect("an ungranted call finishes"),
                refs.get(spec.config.device, 4, LatencyMode::Predictor),
            );
        }
        let builds: u64 = pair.shards.iter().map(|r| r.prefix_builds).sum();
        assert_eq!(builds, 1, "the shared prefix, built once for both shards");
    }
}

/// Fault injection: a transient `MeasureError::Busy` storm (every request
/// fails its first attempt) through preempted measured-mode shards stays
/// bit-transparent.
#[test]
fn preempted_measured_shards_survive_busy_storms() {
    let task = TaskConfig::tiny(23);
    let shards = [
        (DeviceKind::Rtx3080, 0u64),
        (DeviceKind::JetsonTx2, 0),
        (DeviceKind::Rtx3080, 5),
    ];
    let specs: Vec<ShardSpec> = shards
        .iter()
        .map(|&(d, s)| shard(&task, d, s, LatencyMode::Measured))
        .collect();
    let mut fleet = engine_config(2, 1, None);
    fleet.oracle = OracleConfig {
        inject_busy_every: Some(1), // the storm: every request faults
    };
    let report = run_fresh(&fleet, None, &specs, None);
    let stats = report.oracle_stats.expect("measured mode has oracle stats");
    assert!(stats.requests > 0);
    assert_eq!(
        stats.injected_faults, stats.requests,
        "every request hit the storm"
    );
    assert!(stats.retries >= stats.injected_faults);

    let mut refs = References::new(task);
    for (result, &(device, seed)) in report.shards.iter().zip(&shards) {
        assert!(result.slices > 1, "preemption fired under the storm");
        assert_outcomes_bit_identical(
            result.outcome.as_ref().expect("all shards finish"),
            refs.get(device, seed, LatencyMode::Measured),
        );
    }
}

/// Mid-slice kill/resume through the store: exhausting the slice budget
/// parks every unfinished shard with a persisted checkpoint; a second,
/// fresh engine picks them all up and finishes bit-identically to serial.
#[test]
fn slice_budget_kill_and_resume_through_store() {
    let task = TaskConfig::tiny(29);
    let shards = [
        (DeviceKind::Rtx3080, 0u64),
        (DeviceKind::JetsonTx2, 0),
        (DeviceKind::RaspberryPi3B, 0),
        (DeviceKind::Rtx3080, 9),
    ];
    let specs: Vec<ShardSpec> = shards
        .iter()
        .map(|&(d, s)| shard(&task, d, s, LatencyMode::Predictor))
        .collect();
    let temp = TempStore::new("budget");
    let store = temp.open();

    // Round 1: 5 slices across 4 shards needing 3 slices each — the
    // budget dies mid-fleet.
    let round1 = run_fresh(&engine_config(2, 1, None), Some(&store), &specs, Some(5));
    let unfinished = round1.shards.iter().filter(|s| s.outcome.is_none()).count();
    assert!(unfinished > 0, "the budget genuinely interrupted the fleet");
    let sliced: u64 = round1.shards.iter().map(|s| s.slices).sum();
    assert_eq!(sliced, 5, "exactly the budget was consumed");
    assert_eq!(round1.slices, 5, "the call charges what it ran");

    // Round 2: unbudgeted, same store — every shard resumes (or cold
    // starts, if round 1 never reached it) and finishes.
    let round2 = run_fresh(&engine_config(2, 1, None), Some(&store), &specs, None);
    let mut refs = References::new(task);
    let mut resumed = 0;
    for (result, &(device, seed)) in round2.shards.iter().zip(&shards) {
        if let Some(g) = result.resumed_from_generation {
            assert!(g >= 1, "store checkpoints are generation boundaries");
            resumed += 1;
        }
        assert_outcomes_bit_identical(
            result
                .outcome
                .as_ref()
                .expect("round 2 finishes everything"),
            refs.get(device, seed, LatencyMode::Predictor),
        );
    }
    assert!(
        resumed > 0,
        "at least one shard resumed a round-1 checkpoint"
    );
}

/// Warm-start through the driver: after the checkpoints are gone (e.g.
/// GC'd), a warm-started fleet rebuilds the identical result from the
/// persisted score caches, consuming `eval_stats.imported` promotions
/// instead of re-scoring.
#[test]
fn fleet_warm_start_consumes_imported_cache_without_changing_results() {
    let task = TaskConfig::tiny(31);
    let devices = [DeviceKind::Rtx3080, DeviceKind::JetsonTx2];
    let base = tiny_config(devices[0], LatencyMode::Predictor);
    let temp = TempStore::new("warmfleet");
    let store = temp.open();
    let fleet = FleetConfig::new(devices.to_vec());

    let cold = run_fleet(&task, &base, &fleet, Some(&store)).expect("cold fleet");

    // Lose the checkpoints (keep predictors and score caches): the warm
    // start must rebuild from imports alone.
    for entry in std::fs::read_dir(store.root()).expect("store dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("checkpoint-") || name.starts_with("onestage-") {
            std::fs::remove_file(entry.path()).expect("drop checkpoint");
        }
    }

    let mut warm_fleet = fleet.clone();
    warm_fleet.warm_start_seed = Some(base.seed);
    let warm = run_fleet(&task, &base, &warm_fleet, Some(&store)).expect("warm fleet");

    for (c, w) in cold.reports.iter().zip(&warm.reports) {
        assert_eq!(
            w.resumed_from_generation, None,
            "{}: checkpoints were deleted",
            w.device
        );
        let (cs, ws) = (
            c.outcome.eval_stats.expect("stats"),
            w.outcome.eval_stats.expect("stats"),
        );
        assert!(ws.imported > 0, "{}: imports consumed", w.device);
        assert!(
            ws.validated > 0 && ws.rejected == 0,
            "{}: the import survived its validation sample: {ws:?}",
            w.device
        );
        assert_eq!(
            ws.misses + ws.imported,
            cs.misses,
            "{}: every import replaces one cold miss",
            w.device
        );
        assert_eq!(ws.hits, cs.hits);
        assert_eq!(ws.submitted, cs.submitted);
        // The searched result is bit-identical.
        assert_eq!(w.outcome.best.genome, c.outcome.best.genome);
        assert_eq!(
            w.outcome.best.score.to_bits(),
            c.outcome.best.score.to_bits()
        );
        assert_eq!(
            w.outcome.search_hours.to_bits(),
            c.outcome.search_hours.to_bits()
        );
        assert_eq!(front_signature(&w.pareto), front_signature(&c.pareto));
    }
}

/// Streaming reports: the event stream covers the whole fleet lifecycle
/// in a sane order, and the reporter's snapshot reflects it.
#[test]
fn streaming_reports_cover_the_fleet_lifecycle() {
    let task = TaskConfig::tiny(37);
    let devices = [DeviceKind::Rtx3080, DeviceKind::RaspberryPi3B];
    let base = tiny_config(devices[0], LatencyMode::Predictor);
    let mut fleet = FleetConfig::new(devices.to_vec());
    fleet.threads = 1; // deterministic single-worker interleaving
    fleet.preemption_stride = 1;

    let (tx, rx) = event_channel();
    let (report, events) = std::thread::scope(|s| {
        let consumer = s.spawn(move || rx.iter().collect::<Vec<FleetEvent>>());
        let report = run_fleet_with_events(&task, &base, &fleet, None, Some(tx));
        (report, consumer.join().expect("consumer thread"))
    });
    let report = report.expect("fleet run");
    assert_eq!(report.reports.len(), devices.len());

    // Per-shard ordering: started first, generations non-decreasing,
    // finished exactly once at the end.
    for shard in 0..devices.len() {
        let mine: Vec<&FleetEvent> = events.iter().filter(|e| e.shard() == shard).collect();
        assert!(
            matches!(mine.first(), Some(FleetEvent::ShardStarted { .. })),
            "shard {shard}: first event is ShardStarted"
        );
        assert!(
            matches!(mine.last(), Some(FleetEvent::ShardFinished { .. })),
            "shard {shard}: last event is ShardFinished"
        );
        let mut last_gen = 0;
        let mut finished = 0;
        let mut preemptions = 0;
        for ev in &mine {
            match ev {
                FleetEvent::GenerationDone { generation, .. } => {
                    assert!(*generation >= last_gen, "generations ran backwards");
                    last_gen = *generation;
                }
                FleetEvent::ShardPreempted { .. } => preemptions += 1,
                FleetEvent::ShardFinished { .. } => finished += 1,
                _ => {}
            }
        }
        assert_eq!(finished, 1);
        assert!(preemptions > 0, "stride 1 preempts every shard");
        assert_eq!(last_gen, base.ea_stage2.iterations);
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FleetEvent::ParetoUpdated { front, .. } if !front.is_empty())),
        "at least one non-empty Pareto update streamed"
    );

    // The reporter folds the same stream into a complete snapshot.
    let mut reporter = StreamingReporter::new(devices.len());
    for ev in &events {
        reporter.observe(ev);
    }
    assert!(reporter.is_complete());
    let snap = reporter.snapshot();
    for d in devices {
        assert!(
            snap.contains(d.name()),
            "snapshot lists {}: {snap}",
            d.name()
        );
    }
    assert!(
        snap.contains("done in"),
        "snapshot shows terminal rows: {snap}"
    );
}

/// Satellite acceptance (task × persona matrix): every scenario shard —
/// classification and segmentation, builtin and recalibrated personas —
/// comes out of the preempting engine bit-identical to a serial
/// `Hgnas::run` of that scenario's own (task, config) pair, scenario
/// labels survive the trip, and the classification shard on the untouched
/// builtin persona is bit-identical to the legacy device-keyed run (a
/// persona that merely names the builtin profile perturbs nothing).
#[test]
fn task_persona_shard_matrix_is_bit_identical_to_serial() {
    use hgnas::device::{builtin_slug, DevicePersona};
    use hgnas::fleet::{cross_scenarios, ObjectiveSpec};
    use hgnas::pointcloud::TaskKind;

    let base_task = TaskConfig::tiny(21);
    let base = tiny_config(DeviceKind::JetsonTx2, LatencyMode::Predictor);

    let builtin = DevicePersona {
        name: builtin_slug(DeviceKind::JetsonTx2).to_string(),
        profile: DeviceKind::JetsonTx2.profile(),
    };
    let mut throttled_profile = DeviceKind::JetsonTx2.profile();
    throttled_profile.overhead_us *= 2.0;
    for r in &mut throttled_profile.rates {
        r.gflops *= 0.6;
        r.gbps *= 0.6;
    }
    let throttled = DevicePersona {
        name: "tx2-throttled".to_string(),
        profile: throttled_profile,
    };

    let scenarios = cross_scenarios(
        &base_task,
        &base,
        &[TaskKind::Classification, TaskKind::Segmentation],
        &[ObjectiveSpec::accuracy_latency(
            "acc-lat", base.alpha, base.beta,
        )],
        &[builtin, throttled],
    );
    assert_eq!(scenarios.len(), 4, "2 tasks x 1 objective x 2 personas");
    assert_eq!(scenarios[0].label, "classification/acc-lat/jetson-tx2");
    assert_eq!(scenarios[3].label, "segmentation/acc-lat/tx2-throttled");

    let specs: Vec<ShardSpec> = scenarios
        .iter()
        .map(|s| ShardSpec::new(s.task.clone(), s.config.clone()).with_scenario(s.label.clone()))
        .collect();
    let report = run_fresh(&engine_config(2, 1, None), None, &specs, None);

    for (result, scenario) in report.shards.iter().zip(&scenarios) {
        assert_eq!(result.scenario, scenario.label);
        assert_eq!(result.device, DeviceKind::JetsonTx2);
        let outcome = result
            .outcome
            .as_ref()
            .expect("an ungranted call finishes every shard");
        let serial = Hgnas::new(scenario.task.clone(), scenario.config.clone()).run();
        assert_outcomes_bit_identical(outcome, &serial);
        assert!(!result.pareto.is_empty(), "{}", scenario.label);
    }

    // Classification on the untouched builtin persona == the legacy
    // device-keyed search: `with_persona` of the builtin profile leaves
    // the classification path bit-identical.
    let legacy = Hgnas::new(base_task, base).run();
    let first = report.shards[0].outcome.as_ref().unwrap();
    assert_outcomes_bit_identical(first, &legacy);
}
