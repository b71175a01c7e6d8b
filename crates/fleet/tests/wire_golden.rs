//! Golden bytes for every wire frame and every artifact kind.
//!
//! Frames and artifacts are a persistence and network format: daemons and
//! clients of one protocol version, and stores of one codec version, must
//! agree byte for byte. This file pins the byte length and FNV-1a of one
//! fixed value of every [`ClientFrame`] and [`ServerFrame`] variant (every
//! [`FleetEvent`] variant inside an `Event` frame) and of every
//! [`ArtifactKind`] as [`ArtifactStore`] writes it from a `TaskConfig::tiny`
//! search with fixed seeds and thread budget. A codec refactor must leave
//! every line of the table unchanged; a deliberate format change bumps
//! `VERSION` or `PROTOCOL_VERSION` and updates the table.

use hgnas_core::{
    Checkpoint, EvalStats, Hgnas, LatencyMode, PretrainedPredictor, RunOptions, SearchConfig,
    SearchOutcome, SearchedModel, Strategy, TaskConfig,
};
use hgnas_device::{DeviceKind, DevicePersona, DeviceProfile};
use hgnas_fleet::codec::fnv1a;
use hgnas_fleet::wire::{encode_client, encode_server};
use hgnas_fleet::{
    ArtifactKey, ArtifactStore, ClientFrame, FleetEvent, ParetoPoint, PrefixKey, PruneReport,
    ScenarioSpec, ServerFrame, SessionAction, WireReport, WireShardReport,
};
use hgnas_ops::{Architecture, FunctionSet, OpType};
use hgnas_pointcloud::TaskKind;
use hgnas_predictor::{LatencyPredictor, PredictorConfig, TrainStats};
use std::sync::Arc;

/// `(name, byte length, FNV-1a of the bytes)` for one encoded value.
type Pin = (&'static str, usize, u64);

fn pin(name: &'static str, bytes: &[u8]) -> Pin {
    (name, bytes.len(), fnv1a(bytes))
}

/// Compares a whole table at once, printing every actual line on a
/// mismatch so a deliberate format change can be re-pinned in one pass.
fn assert_pins(actual: &[Pin], expected: &[Pin]) {
    if actual != expected {
        let lines: Vec<String> = actual
            .iter()
            .map(|(n, len, h)| format!("        (\"{n}\", {len}, 0x{h:016x}),"))
            .collect();
        panic!("golden bytes drifted; actual table:\n{}", lines.join("\n"));
    }
}

/// A search config whose every field is fixed (no host-dependent thread
/// budget).
fn fixed_config(device: DeviceKind) -> SearchConfig {
    let mut cfg = SearchConfig::fast(device);
    cfg.eval_threads = 2;
    cfg
}

fn persona() -> DevicePersona {
    let mut profile = DeviceProfile::builtin(DeviceKind::JetsonTx2);
    profile.overhead_us *= 1.5;
    profile.power_w = 7.25;
    DevicePersona {
        name: "tx2-throttled".into(),
        profile,
    }
}

fn upper() -> FunctionSet {
    FunctionSet::dgcnn_like(64)
}

fn lower() -> FunctionSet {
    FunctionSet {
        aggregator: hgnas_ops::Aggregator::ALL[2],
        message: hgnas_ops::MessageType::ALL[5],
        sample: hgnas_ops::SampleFn::ALL[1],
        connect: hgnas_ops::ConnectFn::ALL[1],
        combine_dim: 32,
    }
}

fn genome() -> Vec<OpType> {
    vec![
        OpType::ALL[0],
        OpType::ALL[1],
        OpType::ALL[2],
        OpType::ALL[3],
        OpType::ALL[1],
        OpType::ALL[2],
    ]
}

fn front() -> Vec<ParetoPoint> {
    vec![
        ParetoPoint {
            latency_ms: 1.5,
            accuracy: 0.75,
            energy_mj: Some(3.25),
            peak_mem_mb: None,
            genome: genome(),
        },
        ParetoPoint {
            latency_ms: 2.5,
            accuracy: -0.0,
            energy_mj: None,
            peak_mem_mb: Some(f64::INFINITY),
            genome: vec![OpType::ALL[3]],
        },
    ]
}

fn outcome(k: usize, classes: usize, with_stats: bool) -> SearchOutcome {
    let stats = EvalStats {
        hits: 1,
        misses: 2,
        imported: 3,
        validated: 4,
        rejected: 5,
        batches: 6,
        submitted: 7,
    };
    SearchOutcome {
        best: SearchedModel {
            architecture: Architecture::from_genome(&genome(), upper(), lower(), k, classes),
            genome: genome(),
            functions: (upper(), lower()),
            score: 0.875,
            supernet_accuracy: 0.625,
            latency_ms: 3.5,
        },
        history: vec![(0.5, 0.25), (1.0, f64::NAN)],
        search_hours: 0.125,
        predictor_stats: with_stats.then_some(TrainStats {
            train_mape: 0.1,
            val_mape: 0.2,
            val_within_10pct: 0.9,
            train_size: 60,
        }),
        eval_stats: with_stats.then_some(stats),
        stage1_stats: (!with_stats).then_some(stats),
        reference_ms: 6.0,
        constraint_ms: 6.0,
    }
}

fn client_frames() -> Vec<(&'static str, ClientFrame)> {
    let mut cfg = fixed_config(DeviceKind::JetsonTx2);
    cfg.constraint_ms = Some(4.5);
    let mut seg = TaskConfig::tiny(9);
    seg.task_kind = TaskKind::Segmentation;
    let mut scen = fixed_config(DeviceKind::JetsonTx2).with_persona(persona());
    scen.gamma = 0.25;
    scen.delta = 0.1;
    scen.max_energy_mj = Some(12.5);
    scen.max_peak_mem_mb = None;
    scen.max_size_mb = Some(-0.0);
    scen.latency_mode = LatencyMode::Measured;
    scen.strategy = Strategy::OneStage;
    vec![
        (
            "client/hello",
            ClientFrame::Hello {
                tenant: "alice".into(),
                priority: 3,
            },
        ),
        (
            "client/submit-devices",
            ClientFrame::Submit {
                task: TaskConfig::tiny(9),
                config: cfg,
                devices: vec![DeviceKind::Rtx3080, DeviceKind::RaspberryPi3B],
                scenarios: Vec::new(),
            },
        ),
        (
            "client/submit-scenario",
            ClientFrame::Submit {
                task: TaskConfig::tiny(9),
                config: fixed_config(DeviceKind::V100),
                devices: Vec::new(),
                scenarios: vec![ScenarioSpec::new("seg/energy/tx2-throttled", seg, scen)],
            },
        ),
        (
            "client/attach",
            ClientFrame::Attach {
                request_id: 7,
                tenant: "alice".into(),
                from_seq: 12,
            },
        ),
        ("client/bye", ClientFrame::Bye),
    ]
}

fn events() -> Vec<(&'static str, FleetEvent)> {
    vec![
        (
            "event/started",
            FleetEvent::ShardStarted {
                shard: 1,
                device: DeviceKind::Rtx3080,
                resumed_from: Some(3),
                warm_predictor: true,
            },
        ),
        (
            "event/generation",
            FleetEvent::GenerationDone {
                shard: 0,
                device: DeviceKind::JetsonTx2,
                generation: 2,
                iterations: 8,
                best_score: None,
                clock_hours: 0.25,
            },
        ),
        (
            "event/pareto",
            FleetEvent::ParetoUpdated {
                shard: 2,
                device: DeviceKind::V100,
                front: front(),
            },
        ),
        (
            "event/preempted",
            FleetEvent::ShardPreempted {
                shard: 0,
                device: DeviceKind::I78700K,
                generation: 5,
            },
        ),
        (
            "event/finished",
            FleetEvent::ShardFinished {
                shard: 3,
                device: DeviceKind::RaspberryPi3B,
                latency_ms: 2.0,
                accuracy: 0.8,
                score: 0.9,
                reference_ms: 6.0,
                search_hours: 1.5,
                hit_pct: 33.3,
                imported: 7,
            },
        ),
        (
            "event/failed",
            FleetEvent::ShardFailed {
                shard: 1,
                device: DeviceKind::Rtx3080,
                error: "store offline".into(),
            },
        ),
        (
            "event/session-built",
            FleetEvent::SessionCache {
                shard: 0,
                device: DeviceKind::JetsonTx2,
                action: SessionAction::Built,
            },
        ),
        (
            "event/session-hit",
            FleetEvent::SessionCache {
                shard: 1,
                device: DeviceKind::JetsonTx2,
                action: SessionAction::Hit,
            },
        ),
        (
            "event/session-restored",
            FleetEvent::SessionCache {
                shard: 2,
                device: DeviceKind::JetsonTx2,
                action: SessionAction::Restored,
            },
        ),
        (
            "event/session-deferred",
            FleetEvent::SessionCache {
                shard: 3,
                device: DeviceKind::JetsonTx2,
                action: SessionAction::Deferred,
            },
        ),
        (
            "event/session-evicted",
            FleetEvent::SessionCache {
                shard: 4,
                device: DeviceKind::JetsonTx2,
                action: SessionAction::Evicted { spilled: true },
            },
        ),
    ]
}

fn server_frames() -> Vec<(&'static str, ServerFrame)> {
    let mut frames = vec![
        ("server/hello-ack", ServerFrame::HelloAck { protocol: 1 }),
        (
            "server/accepted",
            ServerFrame::Accepted {
                request_id: 9,
                shards: 3,
            },
        ),
        (
            "server/rejected",
            ServerFrame::Rejected {
                request_id: 0,
                reason: "bad hello".into(),
            },
        ),
    ];
    for (i, (name, event)) in events().into_iter().enumerate() {
        frames.push((
            name,
            ServerFrame::Event {
                request_id: 40,
                seq: i as u64,
                event,
            },
        ));
    }
    frames.push((
        "server/report",
        ServerFrame::Report {
            request_id: 11,
            report: WireReport {
                k: 10,
                classes: 8,
                shards: vec![
                    WireShardReport {
                        scenario: "jetson-tx2".into(),
                        k: 10,
                        out_classes: 8,
                        device: DeviceKind::JetsonTx2,
                        outcome: outcome(10, 8, true),
                        pareto: front(),
                        warm_predictor: true,
                        resumed_from_generation: Some(2),
                        slices: 4,
                        prefix_builds: 1,
                    },
                    WireShardReport {
                        scenario: "seg/energy".into(),
                        k: 6,
                        out_classes: 4,
                        device: DeviceKind::RaspberryPi3B,
                        outcome: outcome(6, 4, false),
                        pareto: Vec::new(),
                        warm_predictor: false,
                        resumed_from_generation: None,
                        slices: 2,
                        prefix_builds: 0,
                    },
                ],
                rounds: 2,
                slices: 6,
            },
        },
    ));
    frames.push((
        "server/pruned",
        ServerFrame::Pruned {
            report: PruneReport {
                removed_files: 3,
                removed_bytes: 4096,
                retained_bytes: 1 << 33,
            },
        },
    ));
    frames.push(("server/drain", ServerFrame::Drain { parked: vec![3, 5] }));
    frames
}

#[test]
fn every_wire_frame_keeps_its_bytes() {
    let mut actual: Vec<Pin> = client_frames()
        .iter()
        .map(|(name, f)| pin(name, &encode_client(f)))
        .collect();
    actual.extend(
        server_frames()
            .iter()
            .map(|(name, f)| pin(name, &encode_server(f))),
    );
    assert_pins(
        &actual,
        &[
            ("client/hello", 25, 0x83d131dd1541a6e2),
            ("client/submit-devices", 375, 0x5b73b1d9e96d8501),
            ("client/submit-scenario", 893, 0xee88a16133865714),
            ("client/attach", 40, 0x970a7255b0db76f6),
            ("client/bye", 11, 0x4df549d4e3969354),
            ("server/hello-ack", 12, 0xe7605f1af2a79bb4),
            ("server/accepted", 27, 0x74f77b5f545ea129),
            ("server/rejected", 36, 0x81f53e5f0c784b92),
            ("event/started", 47, 0xfc7f01933e5e309d),
            ("event/generation", 62, 0xdea02305807d206c),
            ("event/pareto", 120, 0x24ac5d8579f6a3bf),
            ("event/preempted", 45, 0x9856ae0b6727998c),
            ("event/finished", 93, 0x88ca1fcb81579b11),
            ("event/failed", 58, 0x962c9739fed440f2),
            ("event/session-built", 38, 0xa841b104ddfb8389),
            ("event/session-hit", 38, 0x26c064d364f57013),
            ("event/session-restored", 38, 0xc27fea585b45faa1),
            ("event/session-deferred", 38, 0x359265bf0fb89c27),
            ("event/session-evicted", 39, 0xbb0e9c274470202f),
            ("server/report", 666, 0xf73696b243586e3a),
            ("server/pruned", 35, 0x4db42f5a9517033c),
            ("server/drain", 35, 0x6238ca0fb7e3e6e0),
        ],
    );
}

/// A tiny search config with every field fixed, small enough to run in a
/// test.
fn tiny_search(device: DeviceKind) -> SearchConfig {
    let mut cfg = fixed_config(device);
    cfg.ea_stage1.iterations = 1;
    cfg.ea_stage1.population = 3;
    cfg.ea_stage2.iterations = 2;
    cfg.ea_stage2.population = 4;
    cfg.epochs_stage1 = 1;
    cfg.epochs_stage2 = 1;
    cfg.predictor = PredictorConfig {
        train_samples: 30,
        val_samples: 10,
        epochs: 2,
        lr: 3e-3,
        gcn_dims: vec![8, 8],
        mlp_hidden: vec![6],
        seed: 1,
        global_node: true,
        batch: 2,
    };
    cfg.eval_clouds = 10;
    cfg
}

#[test]
fn every_artifact_kind_keeps_its_bytes() {
    let dir = std::env::temp_dir().join(format!("hgnas-wire-golden-{}", std::process::id()));
    let store = ArtifactStore::open(&dir).expect("store dir");
    let task = TaskConfig::tiny(5);
    let cfg = tiny_search(DeviceKind::JetsonTx2);
    let key = ArtifactKey {
        device: cfg.device,
        fingerprint: 0x601d,
    };
    let read = |path: std::path::PathBuf| std::fs::read(path).expect("artifact bytes");
    let mut actual = Vec::new();

    let (predictor, stats) = LatencyPredictor::train_with_profile(
        &cfg.device_profile(),
        &task.predictor_context(),
        &cfg.predictor,
    );
    let path = store
        .save_predictor(&key, &predictor.snapshot(&stats))
        .expect("save predictor");
    actual.push(pin("artifact/predictor", &read(path)));

    let hgnas = Hgnas::new(task.clone(), cfg.clone());
    let session = hgnas.prepare_session();
    let out = hgnas.run_with(RunOptions {
        predictor: Some(PretrainedPredictor {
            predictor: Arc::new(predictor),
            stats,
        }),
        session: Some(&session),
        ..RunOptions::default()
    });
    let Some(Checkpoint::MultiStage(mut cp)) = out.checkpoint else {
        panic!("multi-stage run yields a stage-2 checkpoint");
    };
    // Exercise the warm remainder too: the codec does not care that these
    // entries were already served.
    cp.warm_cache = cp.cache.iter().take(2).cloned().collect();
    let path = store
        .save_checkpoint(&key, &task, &cp)
        .expect("save checkpoint");
    actual.push(pin("artifact/checkpoint", &read(path)));
    let path = store
        .save_score_cache(&key, &task, cp.functions, &cp.cache)
        .expect("save score cache");
    actual.push(pin("artifact/score-cache", &read(path)));
    let snap = session.export().expect("multi-stage session exports");
    let path = store
        .save_session(
            &PrefixKey {
                fingerprint: 0x5e55,
            },
            &snap,
        )
        .expect("save session");
    actual.push(pin("artifact/session", &read(path)));

    let mut one = tiny_search(DeviceKind::I78700K);
    one.strategy = Strategy::OneStage;
    one.latency_mode = LatencyMode::Measured;
    let out = Hgnas::new(task.clone(), one).run_with(RunOptions::default());
    let Some(Checkpoint::OneStage(cp)) = out.checkpoint else {
        panic!("one-stage run yields a one-stage checkpoint");
    };
    let path = store
        .save_checkpoint(&key, &task, &cp)
        .expect("save one-stage checkpoint");
    actual.push(pin("artifact/one-stage-checkpoint", &read(path)));

    let _ = std::fs::remove_dir_all(&dir);
    assert_pins(
        &actual,
        &[
            ("artifact/predictor", 2186, 0xc983ef5474fd098d),
            ("artifact/checkpoint", 1109, 0x3abcecc51829c1a5),
            ("artifact/score-cache", 403, 0x80cb09905caa870f),
            ("artifact/session", 25860, 0x11cb7b427935c14a),
            ("artifact/one-stage-checkpoint", 1299, 0xc06a388cd8543ba1),
        ],
    );
}
