//! Fleet acceptance tests: oracle transparency (fleet == serial per
//! device), checkpoint kill/resume bit-identity, warm-started predictors,
//! and artifact corruption rejection.

use hgnas_core::{
    Checkpoint, ConfigError, Hgnas, LatencyMode, RunOptions, SearchConfig, SearchOutcome, Strategy,
    TaskConfig, TaskError,
};
use hgnas_device::{DeviceKind, DevicePersona};
use hgnas_fleet::{
    predictor_fingerprint, run_fleet, search_fingerprint, ArtifactKey, ArtifactStore, CodecError,
    Engine, FleetConfig, FleetError, OracleConfig, ShardSpec, StoreError,
};
use hgnas_predictor::PredictorConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

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
            std::env::temp_dir().join(format!("hgnas-fleet-test-{tag}-{}-{n}", std::process::id()));
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

/// Acceptance: a fleet search over 3 devices through the async oracle
/// (with transient-fault injection enabled, so retries actually fire)
/// produces per device the identical outcome as serial single-device runs.
#[test]
fn measured_fleet_matches_serial_per_device() {
    let task = TaskConfig::tiny(7);
    let devices = [
        DeviceKind::Rtx3080,
        DeviceKind::JetsonTx2,
        DeviceKind::RaspberryPi3B,
    ];
    let base = tiny_config(devices[0], LatencyMode::Measured);
    let mut fleet = FleetConfig::new(devices.to_vec());
    fleet.oracle = OracleConfig {
        inject_busy_every: Some(3),
    };
    let report = run_fleet(&task, &base, &fleet, None).expect("fleet run");
    assert_eq!(report.reports.len(), devices.len());

    let oracle_stats = report.oracle_stats.expect("measured mode has oracle stats");
    assert!(
        oracle_stats.requests > 0,
        "searches went through the oracle"
    );
    assert!(
        oracle_stats.injected_faults > 0 && oracle_stats.retries >= oracle_stats.injected_faults,
        "fault injection exercised the retry path: {oracle_stats:?}"
    );

    for (device, shard) in devices.iter().zip(&report.reports) {
        assert_eq!(shard.device, *device);
        let serial = Hgnas::new(task.clone(), tiny_config(*device, LatencyMode::Measured)).run();
        assert_outcomes_bit_identical(&shard.outcome, &serial);
    }

    // The shards genuinely target different devices: their reference
    // latencies differ wildly (Pi vs RTX3080).
    let ref_ms: Vec<f64> = report
        .reports
        .iter()
        .map(|r| r.outcome.reference_ms)
        .collect();
    assert!(
        ref_ms[2] > 10.0 * ref_ms[0],
        "Pi vs GPU reference: {ref_ms:?}"
    );
}

/// Acceptance: killing a search mid-generation and resuming from the
/// persisted checkpoint reproduces the uninterrupted outcome bit-for-bit
/// (checkpoint round-tripped through the on-disk codec).
#[test]
fn kill_and_resume_is_bit_identical() {
    let task = TaskConfig::tiny(5);
    let cfg = tiny_config(DeviceKind::JetsonTx2, LatencyMode::Predictor);
    let full = Hgnas::new(task.clone(), cfg.clone()).run();

    // "Kill" after generation 1 of 3, persisting checkpoints as we go.
    let temp = TempStore::new("resume");
    let store = temp.open();
    let key = ArtifactKey {
        device: DeviceKind::JetsonTx2,
        fingerprint: 0x5eed,
    };
    let mut persisted = 0usize;
    let mut sink = |cp: &Checkpoint| {
        let cp = cp.as_multi_stage().expect("multi-stage run, stage-2 cp");
        store.save_checkpoint(&key, &task, cp).expect("persist");
        persisted += 1;
    };
    let killed = Hgnas::new(task.clone(), cfg.clone()).run_with(RunOptions {
        checkpoint_sink: Some(&mut sink),
        abort_after_generation: Some(1),
        ..RunOptions::default()
    });
    assert!(killed.outcome.is_none(), "aborted run yields no outcome");
    let cp = killed.checkpoint.expect("aborted run yields a checkpoint");
    assert_eq!(cp.generation(), 1);
    assert!(persisted >= 2, "gen 0 and gen 1 were checkpointed");

    // Resume from the *disk* copy, not the in-memory one.
    let loaded = store
        .load_checkpoint(&key)
        .expect("load")
        .expect("checkpoint exists");
    assert_eq!(loaded.generation(), 1);
    let resumed = Hgnas::new(task.clone(), cfg)
        .run_with(RunOptions {
            resume: Some(loaded),
            ..RunOptions::default()
        })
        .outcome
        .expect("resumed run completes");
    assert_outcomes_bit_identical(&resumed, &full);
}

/// Acceptance (ROADMAP gap closed): the one-stage baseline has the same
/// kill/resume story as Stage 2 — killing it mid-generation and resuming
/// from the persisted checkpoint reproduces the uninterrupted outcome
/// bit-for-bit, through the on-disk codec.
#[test]
fn one_stage_kill_and_resume_is_bit_identical() {
    let task = TaskConfig::tiny(6);
    let mut cfg = tiny_config(DeviceKind::I78700K, LatencyMode::Predictor);
    cfg.strategy = hgnas_core::Strategy::OneStage;
    let full = Hgnas::new(task.clone(), cfg.clone()).run();

    let temp = TempStore::new("onestage-resume");
    let store = temp.open();
    let key = ArtifactKey {
        device: DeviceKind::I78700K,
        fingerprint: 0x1057,
    };
    let mut persisted = 0usize;
    let mut sink = |cp: &Checkpoint| {
        let cp = cp.as_one_stage().expect("one-stage run, one-stage cp");
        store.save_checkpoint(&key, &task, cp).expect("persist");
        persisted += 1;
    };
    let killed = Hgnas::new(task.clone(), cfg.clone()).run_with(RunOptions {
        checkpoint_sink: Some(&mut sink),
        abort_after_generation: Some(1),
        ..RunOptions::default()
    });
    assert!(killed.outcome.is_none(), "aborted run yields no outcome");
    let cp = killed.checkpoint.expect("aborted run yields a checkpoint");
    assert_eq!(cp.generation(), 1);
    assert!(persisted >= 2, "gen 0 and gen 1 were checkpointed");

    let loaded = store
        .load_checkpoint(&key)
        .expect("load")
        .expect("checkpoint exists");
    assert_eq!(loaded.generation(), 1);
    let resumed = Hgnas::new(task.clone(), cfg)
        .run_with(RunOptions {
            resume: Some(loaded),
            ..RunOptions::default()
        })
        .outcome
        .expect("resumed run completes");
    assert_outcomes_bit_identical(&resumed, &full);
}

/// One checkpoint slot holds either strategy's checkpoint, and the search
/// fingerprint (which covers the strategy) keeps each in its own slot. A
/// checkpoint of the other strategy found there anyway — planted, or a
/// fingerprint collision — fails the request with a typed store error
/// instead of reaching the search, which would panic on it.
#[test]
fn checkpoint_of_the_other_strategy_is_a_store_error() {
    let task = TaskConfig::tiny(5);
    let cfg = tiny_config(DeviceKind::JetsonTx2, LatencyMode::Predictor);
    let mut one = cfg.clone();
    one.strategy = Strategy::OneStage;
    let out = Hgnas::new(task.clone(), one).run_with(RunOptions {
        abort_after_generation: Some(0),
        ..RunOptions::default()
    });
    let cp = out.checkpoint.expect("aborted run yields a checkpoint");
    let cp = cp.as_one_stage().expect("one-stage checkpoint");

    let temp = TempStore::new("other-strategy");
    let store = temp.open();
    let key = ArtifactKey {
        device: cfg.device,
        fingerprint: search_fingerprint(&task, &cfg),
    };
    store.save_checkpoint(&key, &task, cp).expect("plant");
    let fleet = FleetConfig::new(vec![cfg.device]);
    let err = run_fleet(&task, &cfg, &fleet, Some(&store)).unwrap_err();
    assert!(
        matches!(
            err,
            FleetError::Store(StoreError::Codec(CodecError::Invalid(_)))
        ),
        "{err:?}"
    );
}

/// Acceptance: importing a prior run's score cache (same seeds) leaves
/// the outcome and the final checkpoint's cache — hence the Pareto front
/// — bit-identical to a cold run, while `eval_stats.imported` records the
/// promotions and `misses` shrinks by exactly that amount. Also killed
/// mid-run: the warm remainder travels through the persisted checkpoint.
#[test]
fn warm_started_score_cache_is_bit_identical_to_cold() {
    let task = TaskConfig::tiny(17);
    let cfg = tiny_config(DeviceKind::JetsonTx2, LatencyMode::Predictor);

    // Donor run persists its score cache (what a prior fleet run leaves
    // in the store).
    let temp = TempStore::new("warmcache");
    let store = temp.open();
    let key = ArtifactKey {
        device: DeviceKind::JetsonTx2,
        fingerprint: 0xcafe,
    };
    let cold = Hgnas::new(task.clone(), cfg.clone()).run_with(RunOptions::default());
    let cold_cp = cold
        .checkpoint
        .as_ref()
        .and_then(Checkpoint::as_multi_stage)
        .expect("multi-stage checkpoint");
    store
        .save_score_cache(&key, &task, cold_cp.functions, &cold_cp.cache)
        .expect("persist donor cache");
    let cold_outcome = cold.outcome.as_ref().expect("cold run completes");
    let cold_stats = cold_outcome.eval_stats.expect("stats");
    assert_eq!(cold_stats.imported, 0, "cold runs import nothing");

    // Warm run: same task/config, imported cache, zero re-scoring of
    // known genomes.
    let imported = store
        .load_score_cache(&key)
        .expect("load")
        .expect("cache exists");
    let warm = Hgnas::new(task.clone(), cfg.clone()).run_with(RunOptions {
        imported_cache: Some(imported.clone()),
        ..RunOptions::default()
    });
    let warm_outcome = warm.outcome.expect("warm run completes");
    let warm_stats = warm_outcome.eval_stats.expect("stats");
    assert!(warm_stats.imported > 0, "imports were consumed");
    assert_eq!(
        warm_stats.misses + warm_stats.imported,
        cold_stats.misses,
        "every import replaces exactly one cold miss"
    );
    assert_eq!(warm_stats.hits, cold_stats.hits);
    assert_eq!(warm_stats.submitted, cold_stats.submitted);

    // Everything except the miss/imported split is bit-identical —
    // including the final cache (the Pareto front's source of truth).
    assert_eq!(warm_outcome.best.genome, cold_outcome.best.genome);
    assert_eq!(
        warm_outcome.best.score.to_bits(),
        cold_outcome.best.score.to_bits()
    );
    assert_eq!(warm_outcome.history.len(), cold_outcome.history.len());
    for (a, b) in warm_outcome.history.iter().zip(&cold_outcome.history) {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "simulated clock diverged");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "best trace diverged");
    }
    let warm_cp = warm
        .checkpoint
        .as_ref()
        .and_then(Checkpoint::as_multi_stage)
        .expect("multi-stage checkpoint");
    assert_eq!(warm_cp.cache.len(), cold_cp.cache.len());
    for ((ga, ca), (gb, cb)) in warm_cp.cache.iter().zip(&cold_cp.cache) {
        assert_eq!(ga, gb, "cache order diverged");
        assert_eq!(ca.score.to_bits(), cb.score.to_bits());
        assert_eq!(ca.latency_ms.to_bits(), cb.latency_ms.to_bits());
        assert_eq!(ca.accuracy.to_bits(), cb.accuracy.to_bits());
    }

    // Kill the warm run mid-way; the un-promoted imports ride along in
    // the checkpoint (through the codec) and the resumed run finishes
    // with the same stats split as the uninterrupted warm run.
    let cp_key = ArtifactKey {
        device: DeviceKind::JetsonTx2,
        fingerprint: 0xcafe + 1,
    };
    let mut sink = |cp: &Checkpoint| {
        let cp = cp.as_multi_stage().expect("stage-2 cp");
        store.save_checkpoint(&cp_key, &task, cp).expect("persist");
    };
    let killed = Hgnas::new(task.clone(), cfg.clone()).run_with(RunOptions {
        imported_cache: Some(imported),
        checkpoint_sink: Some(&mut sink),
        abort_after_generation: Some(1),
        ..RunOptions::default()
    });
    assert!(killed.outcome.is_none());
    let loaded = store
        .load_checkpoint(&cp_key)
        .expect("load")
        .expect("checkpoint exists");
    let resumed = Hgnas::new(task.clone(), cfg)
        .run_with(RunOptions {
            resume: Some(loaded),
            ..RunOptions::default()
        })
        .outcome
        .expect("resumed warm run completes");
    let resumed_stats = resumed.eval_stats.expect("stats");
    assert_eq!(resumed_stats, warm_stats, "kill/resume preserved the split");
    assert_eq!(resumed.best.genome, warm_outcome.best.genome);
    assert_eq!(
        resumed.search_hours.to_bits(),
        warm_outcome.search_hours.to_bits()
    );
}

/// Validating import (ROADMAP item): a tampered donor entry drifts under
/// the promotion-time re-score, condemning the whole import — the run
/// falls back cold with bit-identical results and counts the rejection in
/// `EvalStats`.
#[test]
fn poisoned_warm_import_is_rejected_and_run_stays_cold() {
    let task = TaskConfig::tiny(19);
    let cfg = tiny_config(DeviceKind::Rtx3080, LatencyMode::Predictor);
    let cold = Hgnas::new(task.clone(), cfg.clone()).run();
    let cold_stats = cold.eval_stats.expect("stats");

    // A genuine donor cache with its first entry's score poisoned — the
    // shape of an unsafe cross-seed / measured-mode transfer.
    let donor = Hgnas::new(task.clone(), cfg.clone()).run_with(RunOptions::default());
    let cp = donor.checkpoint.expect("checkpoint");
    let mut donated = cp.as_multi_stage().expect("stage-2 cp").cache.clone();
    donated[0].1.score += 0.125;

    let n_donated = donated.len() as u64;
    let warm = Hgnas::new(task.clone(), cfg)
        .run_with(RunOptions {
            imported_cache: Some(donated),
            ..RunOptions::default()
        })
        .outcome
        .expect("warm run completes");
    let warm_stats = warm.eval_stats.expect("stats");
    assert_eq!(warm_stats.imported, 0, "no poisoned entry served verbatim");
    assert_eq!(
        warm_stats.rejected, n_donated,
        "the whole import was condemned"
    );
    assert_eq!(warm_stats.misses, cold_stats.misses, "fell back fully cold");
    // And the searched result is exactly the cold one (stats aside — the
    // rejection counters legitimately differ from a cold run's zeros).
    assert_eq!(warm.best.genome, cold.best.genome);
    assert_eq!(warm.best.score.to_bits(), cold.best.score.to_bits());
    assert_eq!(warm.history.len(), cold.history.len());
    for (a, b) in warm.history.iter().zip(&cold.history) {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "simulated clock diverged");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "best trace diverged");
    }
    assert_eq!(warm.search_hours.to_bits(), cold.search_hours.to_bits());
}

/// The artifact store's GC: `prune` enforces a byte budget (oldest
/// artifacts and torn-write leftovers go first), `sweep_stale` drops every
/// fingerprint no live configuration references. Pruned slots are cold
/// starts, never errors.
#[test]
fn store_prune_and_stale_sweep_reclaim_space() {
    let task = TaskConfig::tiny(23);
    let base = tiny_config(DeviceKind::Rtx3080, LatencyMode::Predictor);
    let temp = TempStore::new("gc");
    let store = temp.open();
    let fleet = FleetConfig::new(vec![DeviceKind::Rtx3080, DeviceKind::JetsonTx2]);
    run_fleet(&task, &base, &fleet, Some(&store)).expect("seed the store");

    let total_bytes = || -> u64 {
        std::fs::read_dir(store.root())
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum()
    };
    let file_count = || std::fs::read_dir(store.root()).unwrap().count();
    let before_files = file_count();
    let before_bytes = total_bytes();
    assert!(before_files > 0);

    // A fresh temp file could be a concurrent writer mid write→rename:
    // prune must leave it alone. Aged past TMP_GC_AGE it is a torn
    // write's leftover and goes at any budget.
    let tmp = store.root().join("checkpoint-x.123.tmp");
    std::fs::write(&tmp, b"torn").unwrap();
    let report = store.prune(u64::MAX).expect("prune");
    assert_eq!(report.removed_files, 0, "young .tmp survives");
    std::fs::File::options()
        .write(true)
        .open(&tmp)
        .unwrap()
        .set_modified(std::time::SystemTime::now() - 2 * ArtifactStore::TMP_GC_AGE)
        .unwrap();
    let report = store.prune(u64::MAX).expect("prune");
    assert_eq!(report.removed_files, 1, "only the stale .tmp went");
    assert_eq!(report.retained_bytes, before_bytes);
    assert_eq!(file_count(), before_files);

    // The live-key sweep keeps every slot a current configuration owns.
    let live: Vec<ArtifactKey> = fleet
        .devices
        .iter()
        .map(|&device| {
            let mut cfg = base.clone();
            cfg.device = device;
            ArtifactKey {
                device,
                fingerprint: hgnas_fleet::search_fingerprint(&task, &cfg),
            }
        })
        .chain(fleet.devices.iter().map(|&device| {
            let mut cfg = base.clone();
            cfg.device = device;
            ArtifactKey {
                device,
                fingerprint: predictor_fingerprint(&task.predictor_context(), &cfg.predictor),
            }
        }))
        .collect();
    // Sessions are keyed by the device-free prefix fingerprint: one key
    // covers every device shard of the same task + base config.
    let live_sessions = [hgnas_fleet::PrefixKey {
        fingerprint: hgnas_fleet::prefix_fingerprint(&task, &base),
    }];
    let report = store.sweep_stale(&live, &live_sessions).expect("sweep");
    assert_eq!(report.removed_files, 0, "everything in the store is live");
    assert_eq!(report.retained_bytes, before_bytes);

    // Re-fingerprint the world (a config change): every old slot is stale.
    let mut changed = base.clone();
    changed.seed ^= 0xff;
    let stale_live = [ArtifactKey {
        device: DeviceKind::Rtx3080,
        fingerprint: hgnas_fleet::search_fingerprint(&task, &changed),
    }];
    let report = store.sweep_stale(&stale_live, &[]).expect("sweep");
    assert_eq!(report.removed_files, before_files);
    assert_eq!(report.retained_bytes, 0);
    assert_eq!(file_count(), 0);

    // Byte-budget prune: reseed, then shrink to a budget below the total —
    // the store ends under budget and a pruned slot reloads as None.
    run_fleet(&task, &base, &fleet, Some(&store)).expect("reseed the store");
    let full = total_bytes();
    let report = store.prune(full / 2).expect("prune");
    assert!(report.removed_files > 0);
    assert!(report.retained_bytes <= full / 2);
    assert_eq!(total_bytes(), report.retained_bytes);
    let report = store.prune(0).expect("prune all");
    assert_eq!(report.retained_bytes, 0);
    assert!(store
        .load_predictor(&live[2])
        .expect("a pruned slot is a cold start, not an error")
        .is_none());
}

/// Acceptance: with an artifact store, the second fleet run warm-starts —
/// zero predictor-training epochs, checkpoint resume at the final
/// generation — and still reports the identical outcome.
#[test]
fn second_fleet_run_warm_starts_with_zero_predictor_epochs() {
    let task = TaskConfig::tiny(9);
    let devices = [
        DeviceKind::Rtx3080,
        DeviceKind::I78700K,
        DeviceKind::JetsonTx2,
    ];
    let base = tiny_config(devices[0], LatencyMode::Predictor);
    let fleet = FleetConfig::new(devices.to_vec());
    let temp = TempStore::new("warm");
    let store = temp.open();

    let cold = run_fleet(&task, &base, &fleet, Some(&store)).expect("cold run");
    for shard in &cold.reports {
        assert!(!shard.warm_predictor, "first run trains from scratch");
        assert_eq!(shard.predictor_epochs_run, base.predictor.epochs);
        assert_eq!(shard.resumed_from_generation, None);
        // Cold fleet shards equal serial runs (predictor mode).
        let serial = Hgnas::new(
            task.clone(),
            tiny_config(shard.device, LatencyMode::Predictor),
        )
        .run();
        assert_outcomes_bit_identical(&shard.outcome, &serial);
        assert!(
            !shard.pareto.is_empty(),
            "{}: empty Pareto front",
            shard.device
        );
    }

    let warm = run_fleet(&task, &base, &fleet, Some(&store)).expect("warm run");
    for (c, w) in cold.reports.iter().zip(&warm.reports) {
        assert!(w.warm_predictor, "{}: predictor not warm-started", w.device);
        assert_eq!(
            w.predictor_epochs_run, 0,
            "{}: warm start must train zero epochs",
            w.device
        );
        assert_eq!(
            w.resumed_from_generation,
            Some(base.ea_stage2.iterations),
            "{}: warm run resumes at the completed generation",
            w.device
        );
        assert_outcomes_bit_identical(&c.outcome, &w.outcome);
    }

    // Pareto fronts are internally non-dominated.
    for shard in &warm.reports {
        for a in &shard.pareto {
            for b in &shard.pareto {
                let dominates = a.latency_ms <= b.latency_ms
                    && a.accuracy >= b.accuracy
                    && (a.latency_ms < b.latency_ms || a.accuracy > b.accuracy);
                assert!(!dominates, "{}: dominated point on front", shard.device);
            }
        }
    }
    println!("{}", warm.summary_table());
}

/// Codec acceptance: corrupt or truncated artifacts are rejected instead
/// of warm-starting a search from garbage.
#[test]
fn corrupt_and_truncated_artifacts_are_rejected() {
    let task = TaskConfig::tiny(3);
    let cfg = tiny_config(DeviceKind::RaspberryPi3B, LatencyMode::Predictor);
    let temp = TempStore::new("corrupt");
    let store = temp.open();

    // Produce a real predictor artifact via a (tiny) training run.
    let (p, stats) = hgnas_predictor::LatencyPredictor::train(
        DeviceKind::RaspberryPi3B,
        &task.predictor_context(),
        &cfg.predictor,
    );
    let key = ArtifactKey {
        device: DeviceKind::RaspberryPi3B,
        fingerprint: predictor_fingerprint(&task.predictor_context(), &cfg.predictor),
    };
    let path = store
        .save_predictor(&key, &p.snapshot(&stats))
        .expect("save");

    // Pristine artifact loads and reproduces predictions bit-for-bit.
    let snap = store.load_predictor(&key).expect("load").expect("exists");
    let (q, _) = hgnas_predictor::LatencyPredictor::from_snapshot(&snap);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    for _ in 0..5 {
        let arch = hgnas_ops::Architecture::random(&mut rng, 6, 10, 4);
        assert_eq!(p.predict_ms(&arch).to_bits(), q.predict_ms(&arch).to_bits());
    }

    // A single flipped byte anywhere must be caught.
    let pristine = std::fs::read(&path).expect("read artifact");
    let mut corrupt = pristine.clone();
    corrupt[pristine.len() / 2] ^= 0x10;
    std::fs::write(&path, &corrupt).expect("write corrupt");
    match store.load_predictor(&key) {
        Err(StoreError::Codec(_)) => {}
        other => panic!("corrupt artifact accepted: {other:?}"),
    }

    // Truncation (a torn write) must be caught too.
    std::fs::write(&path, &pristine[..pristine.len() - 7]).expect("truncate");
    match store.load_predictor(&key) {
        Err(StoreError::Codec(_)) => {}
        other => panic!("truncated artifact accepted: {other:?}"),
    }

    // Restoring the pristine bytes restores loadability.
    std::fs::write(&path, &pristine).expect("restore");
    assert!(store.load_predictor(&key).expect("load").is_some());

    // An artifact from an older format version (version field rewritten,
    // CRC re-sealed so it is not corruption) is a cold start for its slot
    // — `Ok(None)` — not a run-killing error. This is what keeps a store
    // carrying pre-upgrade artifacts usable after a codec bump.
    let mut old = pristine.clone();
    old[4..6].copy_from_slice(&1u16.to_le_bytes());
    let n = old.len();
    let crc = hgnas_fleet::codec::crc32(&old[..n - 4]);
    old[n - 4..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &old).expect("write old-version artifact");
    assert!(
        store
            .load_predictor(&key)
            .expect("old version is not an error")
            .is_none(),
        "old-version artifact must cold-start, not decode"
    );
}

/// A CRC-valid session artifact whose tensor dims multiply past
/// `usize::MAX` is a decode error, not an overflow panic (debug) or a
/// wrapped element count that passes the check (release); so is a zero
/// dim, which `Tensor` itself would panic on.
#[test]
fn overflowing_tensor_dims_are_rejected() {
    let temp = TempStore::new("tensor-overflow");
    let store = temp.open();
    let key = hgnas_fleet::PrefixKey { fingerprint: 0x0f };
    let functions = hgnas_ops::FunctionSet::dgcnn_like(64);
    let snap = hgnas_core::SessionSnapshot {
        functions: (functions, functions),
        stage1_stats: hgnas_core::EvalStats::default(),
        clock_ms: 1.0,
        weights: vec![hgnas_tensor::Tensor::from_vec(vec![0.5], &[1])],
    };
    let path = store.save_session(&key, &snap).expect("save");
    assert!(store.load_session(&key).expect("load").is_some());

    // Keep everything up to the one tensor (its dims length, one dim,
    // element count and one f32, then the CRC end the file), then write
    // two dims with element count 0 (the wrapped product of 2^33 · 2^33)
    // and re-seal the CRC.
    let pristine = std::fs::read(&path).expect("read artifact");
    let tensor_at = pristine.len() - 4 - (8 + 8 + 8 + 4);
    for (dims, why) in [
        ([1u64 << 33, 1 << 33], "tensor element count"),
        ([0, 4], "zero tensor dimension"),
    ] {
        let mut bad = pristine[..tensor_at].to_vec();
        for word in [2, dims[0], dims[1], 0] {
            bad.extend_from_slice(&word.to_le_bytes());
        }
        let crc = hgnas_fleet::codec::crc32(&bad);
        bad.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bad).expect("write crafted artifact");
        match store.load_session(&key) {
            Err(StoreError::Codec(hgnas_fleet::CodecError::Invalid(what))) => {
                assert_eq!(what, why);
            }
            other => panic!("tensor dims {dims:?} accepted: {other:?}"),
        }
    }
}

/// A one-stage fleet now enjoys the full artifact story: Pareto fronts
/// from the joint cache, predictor warm starts, and checkpoint resume at
/// the final generation on the second run.
#[test]
fn one_stage_fleet_with_store_completes_and_resumes() {
    let task = TaskConfig::tiny(13);
    let devices = [DeviceKind::Rtx3080, DeviceKind::JetsonTx2];
    let mut base = tiny_config(devices[0], LatencyMode::Predictor);
    base.strategy = hgnas_core::Strategy::OneStage;
    let temp = TempStore::new("onestage");
    let store = temp.open();

    let first = run_fleet(
        &task,
        &base,
        &FleetConfig::new(devices.to_vec()),
        Some(&store),
    )
    .expect("one-stage fleet runs");
    let second = run_fleet(
        &task,
        &base,
        &FleetConfig::new(devices.to_vec()),
        Some(&store),
    )
    .expect("one-stage fleet re-runs");
    for (a, b) in first.reports.iter().zip(&second.reports) {
        assert!(a.resumed_from_generation.is_none(), "first run is cold");
        assert!(
            !a.pareto.is_empty(),
            "{}: one-stage front from the joint cache",
            a.device
        );
        // Predictor warm start still works across runs, and the second
        // run resumes the persisted one-stage checkpoint at its final
        // generation.
        assert!(!a.warm_predictor);
        assert!(b.warm_predictor);
        assert_eq!(b.predictor_epochs_run, 0);
        assert_eq!(
            b.resumed_from_generation,
            Some(base.ea_stage2.iterations),
            "{}: one-stage resume at the completed generation",
            b.device
        );
        assert_outcomes_bit_identical(&a.outcome, &b.outcome);
    }
}

/// The standalone score-cache artifact round-trips bit-exactly.
#[test]
fn score_cache_round_trips() {
    let task = TaskConfig::tiny(11);
    let cfg = tiny_config(DeviceKind::I78700K, LatencyMode::Predictor);
    let out = Hgnas::new(task.clone(), cfg).run_with(RunOptions::default());
    let cp = out.checkpoint.expect("multi-stage run has a checkpoint");
    let cp = cp.as_multi_stage().expect("stage-2 checkpoint").clone();
    assert!(!cp.cache.is_empty());

    let temp = TempStore::new("cache");
    let store = temp.open();
    let key = ArtifactKey {
        device: DeviceKind::I78700K,
        fingerprint: 1,
    };
    store
        .save_score_cache(&key, &task, cp.functions, &cp.cache)
        .expect("save");
    let loaded = store.load_score_cache(&key).expect("load").expect("exists");
    assert_eq!(loaded.len(), cp.cache.len());
    for ((ga, ca), (gb, cb)) in cp.cache.iter().zip(&loaded) {
        assert_eq!(ga, gb);
        assert_eq!(ca.architecture, cb.architecture);
        assert_eq!(ca.score.to_bits(), cb.score.to_bits());
        assert_eq!(ca.accuracy.to_bits(), cb.accuracy.to_bits());
        assert_eq!(ca.latency_ms.to_bits(), cb.latency_ms.to_bits());
        assert_eq!(ca.cost_ms.to_bits(), cb.cost_ms.to_bits());
        assert_eq!(ca.valid, cb.valid);
    }

    // A missing slot is None, not an error.
    let empty_key = ArtifactKey {
        device: DeviceKind::V100,
        fingerprint: 2,
    };
    assert!(store.load_score_cache(&empty_key).expect("load").is_none());
}

/// `run_fleet` checks every shard's task and search configuration before
/// any shard runs: the two requests that used to panic inside the search
/// (a fanout `k` past the points per cloud, an empty Stage-2 population)
/// come back as typed errors naming the shard, and nothing is written to
/// the store.
#[test]
fn invalid_shards_are_rejected_before_any_shard_runs() {
    let tmp = TempStore::new("validate");
    let store = tmp.open();
    let cfg = tiny_config(DeviceKind::JetsonTx2, LatencyMode::Predictor);
    let fleet = FleetConfig::new(vec![DeviceKind::JetsonTx2, DeviceKind::Rtx3080]);

    let mut bad_task = TaskConfig::tiny(1);
    bad_task.k = 10_000;
    let err = run_fleet(&bad_task, &cfg, &fleet, Some(&store)).unwrap_err();
    assert!(
        matches!(
            err,
            FleetError::Task {
                shard: 0,
                error: TaskError::Neighbours { k: 10_000, .. }
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("k = 10000"), "{err}");

    let mut bad_cfg = cfg.clone();
    bad_cfg.ea_stage2.population = 0;
    let err = run_fleet(&TaskConfig::tiny(1), &bad_cfg, &fleet, Some(&store)).unwrap_err();
    assert!(
        matches!(
            err,
            FleetError::Config {
                shard: 0,
                error: ConfigError::EmptyPopulation { stage: 2 }
            }
        ),
        "{err:?}"
    );
    assert!(std::error::Error::source(&err).is_some());

    let mut bad_cfg = cfg.clone();
    bad_cfg.constraint_ms = Some(0.0);
    let err = run_fleet(&TaskConfig::tiny(1), &bad_cfg, &fleet, Some(&store)).unwrap_err();
    assert!(
        matches!(
            err,
            FleetError::Config {
                shard: 0,
                error: ConfigError::Bound {
                    name: "constraint_ms",
                    ..
                }
            }
        ),
        "{err:?}"
    );
    assert_eq!(
        std::fs::read_dir(&tmp.path).expect("store dir").count(),
        0,
        "a rejected request must not touch the store"
    );
}

/// A zero-power persona with an energy weight γ is stopped at the door,
/// by name. `Engine::run` itself validates nothing, so there the shard
/// panics in `Objective::with_energy`; with two workers that panic must
/// reach the caller instead of leaving the other worker blocked on the
/// ready queue.
#[test]
fn a_panicking_shard_stops_every_worker_and_reaches_the_caller() {
    let task = TaskConfig::tiny(1);
    let healthy = tiny_config(DeviceKind::JetsonTx2, LatencyMode::Predictor);
    let mut zero_power = healthy.clone();
    let mut profile = DeviceKind::JetsonTx2.profile();
    profile.power_w = 0.0;
    zero_power.persona = Some(DevicePersona {
        name: "zero-power".into(),
        profile,
    });
    zero_power.gamma = 0.2;
    let mut fleet = FleetConfig::new(vec![DeviceKind::JetsonTx2]);
    fleet.threads = 2;

    let err = run_fleet(&task, &zero_power, &fleet, None).unwrap_err();
    assert!(
        matches!(
            &err,
            FleetError::Config {
                shard: 0,
                error: ConfigError::PersonaProfile { persona, .. },
            } if persona == "zero-power"
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("power_w"), "{err}");

    let specs = [
        ShardSpec::new(task.clone(), healthy),
        ShardSpec::new(task, zero_power),
    ];
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let call = std::thread::spawn(move || {
        let _done = done_tx;
        let _ = Engine::new(&fleet, None).run(0, &specs, &[0, 1], None, fleet.threads, None);
    });
    assert_eq!(
        done_rx.recv_timeout(Duration::from_secs(120)),
        Err(RecvTimeoutError::Disconnected),
        "the engine call neither returned nor panicked within 120 s"
    );
    let payload = call.join().expect_err("the zero-power shard panics");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or_default();
    assert!(msg.contains("energy reference must be positive"), "{msg}");
}

/// Golden fingerprint values: fingerprints are a persistence format
/// (artifact file names embed them), so their values
/// for a fixed configuration are pinned here. If this test fails you
/// changed the fingerprint schema — bump [`hgnas_fleet::FINGERPRINT_SCHEMA`]
/// (or the codec version) deliberately and update the golden values, and
/// know that every existing artifact store goes cold.
#[test]
fn fingerprints_match_committed_golden_values() {
    let task = TaskConfig::tiny(42);
    let cfg = tiny_config(DeviceKind::JetsonTx2, LatencyMode::Predictor);

    let prefix = hgnas_fleet::prefix_fingerprint(&task, &cfg);
    let search = hgnas_fleet::search_fingerprint(&task, &cfg);
    let predictor = predictor_fingerprint(&task.predictor_context(), &cfg.predictor);

    assert_eq!(prefix, 0xef3d_e2f7_c361_e326, "prefix fingerprint drifted");
    assert_eq!(search, 0x0aa3_c970_12b8_2325, "search fingerprint drifted");
    assert_eq!(
        predictor, 0xcef3_d84f_4acd_9c53,
        "predictor fingerprint drifted"
    );
}

/// The prefix fingerprint covers exactly the inputs `prepare_session`
/// consumes: anything Stage 2 / objective / device-only must NOT move
/// it (those shards share a session), and every prefix-relevant field
/// must.
#[test]
fn prefix_fingerprint_ignores_exactly_the_non_prefix_fields() {
    let task = TaskConfig::tiny(42);
    let base = tiny_config(DeviceKind::JetsonTx2, LatencyMode::Predictor);
    let fp = |cfg: &SearchConfig| hgnas_fleet::prefix_fingerprint(&task, cfg);
    let baseline = fp(&base);

    // Not prefix-relevant: the session is shared across all of these.
    let mut c = base.clone();
    c.device = DeviceKind::RaspberryPi3B;
    assert_eq!(fp(&c), baseline, "device must not split sessions");
    let mut c = base.clone();
    c.alpha *= 2.0;
    c.beta *= 0.5;
    assert_eq!(fp(&c), baseline, "objective weights are stage-2 only");
    let mut c = base.clone();
    c.constraint_ms = Some(123.0);
    c.max_size_mb = Some(4.0);
    assert_eq!(fp(&c), baseline, "constraints are stage-2 only");
    let mut c = base.clone();
    c.ea_stage2.seed ^= 1;
    c.ea_stage2.population += 2;
    assert_eq!(fp(&c), baseline, "stage-2 EA params are not the prefix");
    let mut c = base.clone();
    c.latency_mode = LatencyMode::Measured;
    assert_eq!(fp(&c), baseline, "latency mode is eval-side only");
    let mut c = base.clone();
    c.predictor.epochs += 1;
    assert_eq!(fp(&c), baseline, "the latency predictor is not the prefix");
    let mut c = base.clone();
    c.eval_threads = 7;
    assert_eq!(fp(&c), baseline, "eval threads are an execution knob");

    // Prefix-relevant: any of these must produce a different session.
    let mut c = base.clone();
    c.seed ^= 1;
    assert_ne!(fp(&c), baseline, "the search seed derives the prefix RNG");
    let mut c = base.clone();
    c.ea_stage1.seed ^= 1;
    assert_ne!(fp(&c), baseline, "stage-1 EA seed");
    let mut c = base.clone();
    c.epochs_stage1 += 1;
    assert_ne!(fp(&c), baseline, "stage-1 epochs");
    let mut c = base.clone();
    c.epochs_stage2 += 1;
    assert_ne!(fp(&c), baseline, "pre-training epochs");
    let mut c = base.clone();
    c.eval_clouds += 1;
    assert_ne!(fp(&c), baseline, "eval cloud count feeds supernet eval");
    let other_task = TaskConfig::tiny(43);
    assert_ne!(
        hgnas_fleet::prefix_fingerprint(&other_task, &base),
        baseline,
        "the task is always prefix-relevant"
    );

    // The search fingerprint keeps full sensitivity where the prefix is
    // deliberately blind.
    let sfp = |cfg: &SearchConfig| hgnas_fleet::search_fingerprint(&task, cfg);
    let sbase = sfp(&base);
    let mut c = base.clone();
    c.device = DeviceKind::RaspberryPi3B;
    assert_ne!(sfp(&c), sbase, "checkpoints stay per-device");
    let mut c = base.clone();
    c.alpha *= 2.0;
    assert_ne!(sfp(&c), sbase);
    let mut c = base.clone();
    c.ea_stage2.seed ^= 1;
    assert_ne!(sfp(&c), sbase);
}

/// Every [`SearchConfig`] field except `eval_threads` moves
/// `search_fingerprint`, one field at a time. `eval_threads` must not: the
/// engine keys checkpoints under its own kernel split of the thread
/// budget while the daemon's idle GC keys live requests by each spec's
/// own value, so a thread-sensitive key would let the stale sweep delete
/// live checkpoints. Also pins domain separation and `None` vs
/// `Some(0.0)`.
#[test]
fn search_fingerprint_moves_with_every_field_but_eval_threads() {
    use hgnas_core::Strategy;
    use hgnas_device::{DevicePersona, DeviceProfile};

    type Edit = Box<dyn Fn(&mut SearchConfig)>;
    let task = TaskConfig::tiny(42);
    let base = tiny_config(DeviceKind::JetsonTx2, LatencyMode::Predictor);
    let fp = |c: &SearchConfig| hgnas_fleet::search_fingerprint(&task, c);
    let baseline = fp(&base);
    let persona = |profile: DeviceProfile| DevicePersona {
        name: "tx2-custom".into(),
        profile,
    };

    // One edit per field. The destructuring below fails to compile when a
    // field is added, until it gets an edit here.
    let SearchConfig {
        device: _,
        persona: _,
        alpha: _,
        beta: _,
        gamma: _,
        delta: _,
        constraint_ms: _,
        max_size_mb: _,
        max_energy_mj: _,
        max_peak_mem_mb: _,
        ea_stage1: _,
        ea_stage2: _,
        epochs_stage1: _,
        epochs_stage2: _,
        latency_mode: _,
        strategy: _,
        predictor: _,
        eval_clouds: _,
        eval_threads: _,
        seed: _,
    } = &base;
    let edits: Vec<(&str, Edit)> = vec![
        ("device", Box::new(|c| c.device = DeviceKind::RaspberryPi3B)),
        (
            "persona",
            Box::new(move |c| {
                c.persona = Some(persona(DeviceProfile::builtin(DeviceKind::JetsonTx2)))
            }),
        ),
        ("alpha", Box::new(|c| c.alpha += 0.5)),
        ("beta", Box::new(|c| c.beta += 0.5)),
        ("gamma", Box::new(|c| c.gamma += 0.5)),
        ("delta", Box::new(|c| c.delta += 0.5)),
        ("constraint_ms", Box::new(|c| c.constraint_ms = Some(4.0))),
        ("max_size_mb", Box::new(|c| c.max_size_mb = Some(4.0))),
        ("max_energy_mj", Box::new(|c| c.max_energy_mj = Some(4.0))),
        (
            "max_peak_mem_mb",
            Box::new(|c| c.max_peak_mem_mb = Some(4.0)),
        ),
        (
            "ea_stage1.population",
            Box::new(|c| c.ea_stage1.population += 1),
        ),
        (
            "ea_stage1.iterations",
            Box::new(|c| c.ea_stage1.iterations += 1),
        ),
        (
            "ea_stage1.elite_fraction",
            Box::new(|c| c.ea_stage1.elite_fraction += 0.1),
        ),
        (
            "ea_stage1.mutation_prob",
            Box::new(|c| c.ea_stage1.mutation_prob -= 0.1),
        ),
        ("ea_stage1.seed", Box::new(|c| c.ea_stage1.seed ^= 1)),
        (
            "ea_stage2.population",
            Box::new(|c| c.ea_stage2.population += 1),
        ),
        (
            "ea_stage2.iterations",
            Box::new(|c| c.ea_stage2.iterations += 1),
        ),
        (
            "ea_stage2.elite_fraction",
            Box::new(|c| c.ea_stage2.elite_fraction += 0.1),
        ),
        (
            "ea_stage2.mutation_prob",
            Box::new(|c| c.ea_stage2.mutation_prob -= 0.1),
        ),
        ("ea_stage2.seed", Box::new(|c| c.ea_stage2.seed ^= 1)),
        ("epochs_stage1", Box::new(|c| c.epochs_stage1 += 1)),
        ("epochs_stage2", Box::new(|c| c.epochs_stage2 += 1)),
        (
            "latency_mode",
            Box::new(|c| c.latency_mode = LatencyMode::Measured),
        ),
        ("strategy", Box::new(|c| c.strategy = Strategy::OneStage)),
        (
            "predictor.train_samples",
            Box::new(|c| c.predictor.train_samples += 1),
        ),
        (
            "predictor.val_samples",
            Box::new(|c| c.predictor.val_samples += 1),
        ),
        ("predictor.epochs", Box::new(|c| c.predictor.epochs += 1)),
        ("predictor.lr", Box::new(|c| c.predictor.lr *= 2.0)),
        (
            "predictor.gcn_dims",
            Box::new(|c| c.predictor.gcn_dims.push(8)),
        ),
        (
            "predictor.mlp_hidden",
            Box::new(|c| c.predictor.mlp_hidden.clear()),
        ),
        ("predictor.seed", Box::new(|c| c.predictor.seed ^= 1)),
        (
            "predictor.global_node",
            Box::new(|c| c.predictor.global_node ^= true),
        ),
        ("predictor.batch", Box::new(|c| c.predictor.batch += 1)),
        ("eval_clouds", Box::new(|c| c.eval_clouds += 1)),
        ("seed", Box::new(|c| c.seed ^= 1)),
    ];
    let mut seen = std::collections::BTreeMap::new();
    for (field, edit) in &edits {
        let mut c = base.clone();
        edit(&mut c);
        let moved = fp(&c);
        assert_ne!(moved, baseline, "{field} must move the search fingerprint");
        if let Some(other) = seen.insert(moved, *field) {
            panic!("{field} and {other} collide");
        }
    }

    // The thread budget is bit-transparent: it must not re-key anything.
    let mut c = base.clone();
    c.eval_threads += 7;
    assert_eq!(fp(&c), baseline, "eval_threads must not move the key");

    // Option presence is part of the encoding: None differs from Some(0.0)
    // for every optional cap.
    let caps: [fn(&mut SearchConfig) -> &mut Option<f64>; 4] = [
        |c| &mut c.constraint_ms,
        |c| &mut c.max_size_mb,
        |c| &mut c.max_energy_mj,
        |c| &mut c.max_peak_mem_mb,
    ];
    for cap in caps {
        let (mut none, mut zero) = (base.clone(), base.clone());
        *cap(&mut none) = None;
        *cap(&mut zero) = Some(0.0);
        assert_ne!(fp(&none), fp(&zero), "None must differ from Some(0.0)");
    }

    // Domains separate keys over the same inputs: the prefix key is never
    // the search key, and a calibrated persona re-keys the predictor while
    // a persona naming the builtin profile keeps the device-keyed one.
    assert_ne!(hgnas_fleet::prefix_fingerprint(&task, &base), baseline);
    let ctx = task.predictor_context();
    let plain = predictor_fingerprint(&ctx, &base.predictor);
    let builtin = persona(DeviceProfile::builtin(DeviceKind::JetsonTx2));
    let mut calibrated = builtin.clone();
    calibrated.profile.overhead_us *= 1.5;
    let with = |p: &DevicePersona| {
        hgnas_fleet::persona_predictor_fingerprint(&ctx, &base.predictor, Some(p))
    };
    assert_eq!(with(&builtin), plain);
    assert_ne!(with(&calibrated), plain);
}
