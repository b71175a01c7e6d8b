//! Daemon behavior tests: protocol policing, input validation, idle
//! reaping, TCP serving, idle-loop store GC, and graceful drain with
//! bit-identical resume.
//!
//! The full (threads × stride × tenants) bit-identity matrix against
//! `run_fleet` lives in the workspace-level `daemon_equivalence` test;
//! here each test exercises one daemon-specific behavior with the
//! cheapest search that triggers it.

use hgnas_core::{SearchConfig, TaskConfig};
use hgnas_device::DeviceKind;
use hgnas_fleet::wire::{self, ServerFrame};
use hgnas_fleet::{run_fleet, ArtifactStore, FleetConfig, ScenarioSpec};
use hgnas_predictor::PredictorConfig;
use hgnas_serve::{
    ClientError, SearchClient, ServeConfig, Server, TcpTransport, Transport, TransportError,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const TICK: Duration = Duration::from_secs(10);
/// Per-frame wait while a search is running: rounds for another tenant
/// can sit between two of ours.
const SEARCH: Duration = Duration::from_secs(600);

fn tiny_config(device: DeviceKind) -> SearchConfig {
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
            std::env::temp_dir().join(format!("hgnas-serve-test-{tag}-{}-{n}", std::process::id()));
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

fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        preemption_stride: 1,
        slices_per_round: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn submit_before_hello_is_rejected() {
    let temp = TempStore::new("nohello");
    let server = Server::start(temp.open(), serve_config());
    let mut client = server.connect();
    let err = client
        .submit(
            &TaskConfig::tiny(1),
            &tiny_config(DeviceKind::Rtx3080),
            &[DeviceKind::Rtx3080],
            TICK,
        )
        .unwrap_err();
    match err {
        ClientError::Rejected { request_id, reason } => {
            assert_eq!(request_id, 0, "connection-level rejection");
            assert!(reason.contains("hello"), "{reason}");
        }
        other => panic!("expected rejection, got {other}"),
    }
    drop(client);
    server.shutdown();
}

/// A task the search would panic on (k far beyond the points per cloud)
/// is rejected at submit — as the request task or as a scenario's task —
/// before it can reach the engine every tenant shares; a healthy request
/// on the same daemon still gets its report.
#[test]
fn invalid_task_is_rejected_and_the_daemon_keeps_serving() {
    let temp = TempStore::new("invalid");
    let server = Server::start(temp.open(), serve_config());
    let mut client = server.connect();
    client.hello("frank", 1, TICK).unwrap();
    let cfg = tiny_config(DeviceKind::JetsonTx2);
    let mut bad = TaskConfig::tiny(1);
    bad.k = 10_000;
    let expect_rejected = |r: Result<(u64, usize), ClientError>| match r {
        Err(ClientError::Rejected { request_id, reason }) => {
            assert_eq!(request_id, 0, "rejected before a request id exists");
            assert!(reason.contains("k = 10000"), "{reason}");
        }
        other => panic!("expected rejection, got {other:?}"),
    };
    expect_rejected(client.submit(&bad, &cfg, &[DeviceKind::JetsonTx2], TICK));
    let scenario = ScenarioSpec::new("bad-k", bad, cfg.clone());
    expect_rejected(client.submit_scenarios(&TaskConfig::tiny(1), &cfg, &[scenario], TICK));

    let (request, shards) = client
        .submit(&TaskConfig::tiny(61), &cfg, &[DeviceKind::JetsonTx2], TICK)
        .unwrap();
    assert_eq!(shards, 1);
    let report = client.wait_report(request, SEARCH, |_, _| {}).unwrap();
    assert_eq!(report.shards.len(), 1);
    assert!(!report.shards[0].outcome.best.genome.is_empty());
    drop(client);
    server.shutdown();
}

/// A search config the search would panic on — an empty EA population,
/// a mutation probability outside `[0, 1]` or NaN, a persona based on
/// another device kind — is rejected at submit, as the request config or
/// as a scenario's, before it can kill the engine thread every tenant
/// shares; a healthy request on the same daemon still gets its report.
#[test]
fn invalid_search_config_is_rejected_and_the_daemon_keeps_serving() {
    use hgnas_device::{DevicePersona, DeviceProfile};
    let temp = TempStore::new("invalid-config");
    let server = Server::start(temp.open(), serve_config());
    let mut client = server.connect();
    client.hello("grace", 1, TICK).unwrap();
    let cfg = tiny_config(DeviceKind::JetsonTx2);
    type Edit = fn(&mut SearchConfig);
    let edits: [(&str, Edit); 9] = [
        ("population", |c| c.ea_stage1.population = 0),
        ("population", |c| c.ea_stage2.population = 0),
        ("mutation probability", |c| c.ea_stage2.mutation_prob = 1.5),
        ("mutation probability", |c| {
            c.ea_stage1.mutation_prob = f64::NAN
        }),
        ("persona", |c| {
            c.persona = Some(DevicePersona {
                name: "pi".into(),
                profile: DeviceProfile::builtin(DeviceKind::RaspberryPi3B),
            })
        }),
        ("constraint_ms", |c| c.constraint_ms = Some(0.0)),
        ("max_energy_mj", |c| c.max_energy_mj = Some(f64::NAN)),
        ("weight beta", |c| c.beta = f64::INFINITY),
        ("power_w", |c| {
            let mut profile = DeviceProfile::builtin(DeviceKind::JetsonTx2);
            profile.power_w = 0.0;
            c.persona = Some(DevicePersona {
                name: "zero-power".into(),
                profile,
            });
            c.gamma = 0.2;
        }),
    ];
    for (what, edit) in edits {
        let mut bad = cfg.clone();
        edit(&mut bad);
        let expect_rejected = |r: Result<(u64, usize), ClientError>| match r {
            Err(ClientError::Rejected { request_id, reason }) => {
                assert_eq!(request_id, 0, "rejected before a request id exists");
                assert!(reason.contains(what), "{reason}");
            }
            other => panic!("expected the bad {what} rejected, got {other:?}"),
        };
        let task = TaskConfig::tiny(1);
        expect_rejected(client.submit(&task, &bad, &[DeviceKind::JetsonTx2], TICK));
        let scenario = ScenarioSpec::new("bad-config", task.clone(), bad);
        expect_rejected(client.submit_scenarios(&task, &cfg, &[scenario], TICK));
    }

    let (request, shards) = client
        .submit(&TaskConfig::tiny(62), &cfg, &[DeviceKind::JetsonTx2], TICK)
        .unwrap();
    assert_eq!(shards, 1);
    let report = client.wait_report(request, SEARCH, |_, _| {}).unwrap();
    assert_eq!(report.shards.len(), 1);
    assert!(!report.shards[0].outcome.best.genome.is_empty());
    drop(client);
    server.shutdown();
}

#[test]
fn undecodable_frame_is_rejected_and_connection_dropped() {
    let temp = TempStore::new("garbage");
    let server = Server::start(temp.open(), serve_config());
    let addr = server.listen("127.0.0.1:0".parse().unwrap()).unwrap();
    let raw = TcpTransport::connect(addr).unwrap();
    raw.send(b"not a wire frame at all").unwrap();
    let reply = raw.recv_timeout(TICK).unwrap();
    match wire::decode_server(&reply).unwrap() {
        ServerFrame::Rejected { request_id, .. } => assert_eq!(request_id, 0),
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(
        raw.recv_timeout(TICK),
        Err(TransportError::Closed),
        "the daemon drops an undecodable connection"
    );
    server.shutdown();
}

#[test]
fn idle_unauthenticated_connection_is_reaped() {
    let temp = TempStore::new("idle");
    let mut cfg = serve_config();
    cfg.idle_timeout = Duration::from_millis(50);
    let server = Server::start(temp.open(), cfg);
    let addr = server.listen("127.0.0.1:0".parse().unwrap()).unwrap();
    let raw = TcpTransport::connect(addr).unwrap();
    // Never say hello: the daemon closes us after its idle timeout.
    assert_eq!(raw.recv_timeout(TICK), Err(TransportError::Closed));
    server.shutdown();
}

#[test]
fn tcp_client_runs_a_search_end_to_end() {
    let temp = TempStore::new("tcp");
    let server = Server::start(temp.open(), serve_config());
    let addr = server.listen("127.0.0.1:0".parse().unwrap()).unwrap();
    let mut client = SearchClient::connect_tcp(addr).unwrap();
    let protocol = client.hello("carol", 1, TICK).unwrap();
    assert_eq!(protocol, hgnas_fleet::PROTOCOL_VERSION);
    let task = TaskConfig::tiny(61);
    let cfg = tiny_config(DeviceKind::JetsonTx2);
    let (request, shards) = client
        .submit(&task, &cfg, &[DeviceKind::JetsonTx2], TICK)
        .unwrap();
    assert_eq!(shards, 1);
    let mut events = 0u64;
    let report = client
        .wait_report(request, SEARCH, |_seq, _event| events += 1)
        .unwrap();
    assert!(events > 0, "events streamed before the report");
    assert_eq!(report.shards.len(), 1);
    assert_eq!(report.shards[0].device, DeviceKind::JetsonTx2);
    assert!(!report.shards[0].outcome.best.genome.is_empty());
    assert!(!report.shards[0].pareto.is_empty());
    assert!(report.rounds >= 1 && report.slices >= 1);
    client.bye().unwrap();
    drop(client);
    server.shutdown();
}

/// Once the report reaches an attached connection, the daemon drops the
/// request's buffered events: a later attach from sequence 0 on a second
/// connection of the same tenant is answered with the report alone.
#[test]
fn attach_after_the_report_is_answered_with_the_report_alone() {
    let temp = TempStore::new("late");
    let server = Server::start(temp.open(), serve_config());
    let mut client = server.connect();
    client.hello("dave", 1, TICK).unwrap();
    let task = TaskConfig::tiny(62);
    let cfg = tiny_config(DeviceKind::JetsonTx2);
    let (request, _) = client
        .submit(&task, &cfg, &[DeviceKind::JetsonTx2], TICK)
        .unwrap();
    let mut events = 0u64;
    let report = client
        .wait_report(request, SEARCH, |_seq, _event| events += 1)
        .unwrap();
    assert!(events > 0, "events streamed before the report");

    let mut late = server.connect();
    late.hello("dave", 1, TICK).unwrap();
    late.attach(request, "dave", 0).unwrap();
    match late.next_event(request, TICK).unwrap() {
        Ok((seq, event)) => panic!("event {seq} replayed after the report: {event:?}"),
        Err(replayed) => assert_eq!(format!("{replayed:?}"), format!("{report:?}")),
    }
    drop((client, late));
    server.shutdown();
}

/// Satellite: between requests, an over-budget store shrinks — the idle
/// loop sweeps + prunes and broadcasts the combined report.
#[test]
fn over_budget_store_shrinks_between_requests() {
    let temp = TempStore::new("gc");
    let mut cfg = serve_config();
    // A 1-byte budget: after each idle GC, essentially nothing survives.
    cfg.store_budget_bytes = Some(1);
    let server = Server::start(temp.open(), cfg);
    let mut client = server.connect();
    client.hello("dora", 1, TICK).unwrap();
    let task = TaskConfig::tiny(67);
    let search = tiny_config(DeviceKind::Rtx3080);

    let (first, _) = client
        .submit(&task, &search, &[DeviceKind::Rtx3080], TICK)
        .unwrap();
    let first_report = client.wait_report(first, SEARCH, |_, _| {}).unwrap();

    // The search persisted artifacts (checkpoints, predictor, score
    // cache); the idle GC must now shrink the store under the budget and
    // tell us about it.
    let pruned = client.wait_pruned(TICK).unwrap();
    assert!(
        pruned.removed_bytes > 0 && pruned.removed_files > 0,
        "the over-budget store shrank: {pruned:?}"
    );
    assert!(
        pruned.retained_bytes <= 1,
        "retained fits the budget: {pruned:?}"
    );

    // A fresh request on the emptied store cold-starts to the identical
    // result.
    let (second, _) = client
        .submit(&task, &search, &[DeviceKind::Rtx3080], TICK)
        .unwrap();
    let second_report = client.wait_report(second, SEARCH, |_, _| {}).unwrap();
    let (a, b) = (
        &first_report.shards[0].outcome,
        &second_report.shards[0].outcome,
    );
    assert_eq!(a.best.genome, b.best.genome);
    assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
    assert_eq!(a.search_hours.to_bits(), b.search_hours.to_bits());
    drop(client);
    server.shutdown();
}

/// Graceful drain parks the in-flight request at a slice boundary with
/// checkpoints persisted; a new daemon over the same store resumes it and
/// finishes bit-identical to a direct `run_fleet`.
#[test]
fn drain_parks_and_a_new_daemon_resumes_bit_identically() {
    let temp = TempStore::new("drain");
    let task = TaskConfig::tiny(71);
    let search = tiny_config(DeviceKind::RaspberryPi3B);
    let devices = [DeviceKind::RaspberryPi3B];

    // Direct reference: same configs, no daemon, no store.
    let mut fleet = FleetConfig::new(devices.to_vec());
    fleet.threads = 1;
    fleet.preemption_stride = 1;
    let reference = run_fleet(&task, &search, &fleet, None).unwrap();

    let mut cfg = serve_config();
    cfg.slices_per_round = 1; // park as early as possible
    let server = Server::start(temp.open(), cfg.clone());
    let mut client = server.connect();
    client.hello("erin", 2, TICK).unwrap();
    let (request, _) = client.submit(&task, &search, &devices, TICK).unwrap();
    // Wait for the round to genuinely start before pulling the plug.
    let first = client.next_event(request, SEARCH).unwrap();
    assert!(first.is_ok(), "an event precedes any report");
    let drain = server.shutdown();
    assert_eq!(drain.parked, vec![request], "the request parked mid-search");
    assert_eq!(drain.tenants.len(), 1);
    assert_eq!(drain.tenants[0].tenant, "erin");

    // The client hears about the drain (after any already-queued events).
    let drained = loop {
        match client.next_event(request, TICK) {
            Ok(Ok(_event)) => continue,
            Err(ClientError::Drained(parked)) => break parked,
            other => panic!("expected drain notice, got {other:?}"),
        }
    };
    assert_eq!(drained, vec![request]);
    drop(client);

    // A fresh daemon over the same store: resubmitting the same configs
    // resumes the parked shards and finishes bit-identically.
    let server = Server::start(temp.open(), cfg);
    let mut client = server.connect();
    client.hello("erin", 2, TICK).unwrap();
    let (resumed, _) = client.submit(&task, &search, &devices, TICK).unwrap();
    let report = client.wait_report(resumed, SEARCH, |_, _| {}).unwrap();
    assert!(
        report.shards[0].resumed_from_generation.is_some(),
        "round 2 resumed a parked checkpoint"
    );
    let (got, want) = (&report.shards[0].outcome, &reference.reports[0].outcome);
    assert_eq!(got.best.genome, want.best.genome);
    assert_eq!(got.best.score.to_bits(), want.best.score.to_bits());
    assert_eq!(
        got.best.latency_ms.to_bits(),
        want.best.latency_ms.to_bits()
    );
    assert_eq!(got.search_hours.to_bits(), want.search_hours.to_bits());
    assert_eq!(got.eval_stats, want.eval_stats);
    drop(client);
    server.shutdown();
}
