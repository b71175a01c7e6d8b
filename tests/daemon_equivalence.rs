//! Tentpole acceptance: daemon-served searches are bit-identical to
//! direct `run_fleet` runs.
//!
//! Two tenants with different priorities contend for the daemon's thread
//! budget across a (threads × stride) matrix. Every request's report —
//! produced through fair-share admission, budgeted rounds, parking and
//! resumption, and in one cell a client that disconnects mid-search and
//! re-attaches — must match the direct fleet run bit for bit, and must
//! have built its prefixes exactly as often as the direct run did: the
//! daemon's one long-lived engine keeps sessions warm across rounds.

use hgnas::core::{SearchConfig, SearchOutcome, TaskConfig};
use hgnas::device::DeviceKind;
use hgnas::fleet::{run_fleet, ArtifactStore, FleetConfig, FleetReport, ParetoPoint, WireReport};
use hgnas::predictor::PredictorConfig;
use hgnas::serve::{ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const TICK: Duration = Duration::from_secs(10);
/// Per-frame wait: whole rounds for the other tenant can sit between two
/// of our frames.
const SEARCH: Duration = Duration::from_secs(600);

fn tiny_config(device: DeviceKind, seed: u64) -> SearchConfig {
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
    cfg.seed = seed;
    cfg
}

struct TempStore {
    path: PathBuf,
}

impl TempStore {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        let path = std::env::temp_dir().join(format!(
            "hgnas-daemon-equiv-{tag}-{}-{n}",
            std::process::id()
        ));
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
    assert_eq!(a.reference_ms.to_bits(), b.reference_ms.to_bits());
    assert_eq!(a.eval_stats, b.eval_stats);
    assert_eq!(a.stage1_stats, b.stage1_stats);
    assert_eq!(a.predictor_stats, b.predictor_stats);
}

#[allow(clippy::type_complexity)]
fn front_signature(front: &[ParetoPoint]) -> Vec<(u64, u64, Option<u64>, Option<u64>, Vec<u8>)> {
    front
        .iter()
        .map(|p| {
            (
                p.latency_ms.to_bits(),
                p.accuracy.to_bits(),
                p.energy_mj.map(f64::to_bits),
                p.peak_mem_mb.map(f64::to_bits),
                p.genome.iter().map(|op| op.index() as u8).collect(),
            )
        })
        .collect()
}

/// Daemon report vs direct fleet report, shard by shard, bit for bit —
/// scenario labels and multi-metric Pareto axes included.
fn assert_report_matches_fleet(got: &WireReport, want: &FleetReport) {
    assert_eq!(got.shards.len(), want.reports.len());
    for (g, w) in got.shards.iter().zip(&want.reports) {
        assert_eq!(g.device, w.device);
        assert_eq!(g.scenario, w.scenario);
        assert_outcomes_bit_identical(&g.outcome, &w.outcome);
        assert_eq!(front_signature(&g.pareto), front_signature(&w.pareto));
    }
}

/// A request sliced into several rounds built its prefixes as often as
/// the direct run did — never once per round.
fn assert_builds_match_fleet(what: &str, got: &WireReport, want: &FleetReport) {
    assert!(
        got.rounds > 1,
        "{what}: contention split the request across rounds"
    );
    let served: u64 = got.shards.iter().map(|s| s.prefix_builds).sum();
    let direct: u64 = want.reports.iter().map(|r| r.prefix_builds).sum();
    assert_eq!(
        served, direct,
        "{what}: {} rounds built the prefixes {served} times, the direct run {direct}",
        got.rounds
    );
}

/// The acceptance matrix: alice (priority 3) and bob (priority 1) contend
/// on every (threads × stride) cell; each report must equal the direct
/// `run_fleet` of the same configuration. The (2, 1) cell additionally
/// drops alice's connection mid-search and re-attaches from sequence 0,
/// checking the replayed stream is gapless and the report unchanged.
#[test]
fn contended_tenants_match_run_fleet_across_matrix() {
    let task = TaskConfig::tiny(73);
    let alice_cfg = tiny_config(DeviceKind::Rtx3080, 0);
    let alice_devices = [DeviceKind::Rtx3080, DeviceKind::JetsonTx2];
    let bob_cfg = tiny_config(DeviceKind::RaspberryPi3B, 7);
    let bob_devices = [DeviceKind::RaspberryPi3B, DeviceKind::Rtx3080];

    // Direct references, once per request shape: run_fleet results are
    // scheduling-invariant (pinned by the fleet equivalence matrix), so
    // one unpreempted reference serves every daemon cell.
    let alice_ref = run_fleet(
        &task,
        &alice_cfg,
        &FleetConfig::new(alice_devices.to_vec()),
        None,
    )
    .expect("alice reference");
    let bob_ref = run_fleet(
        &task,
        &bob_cfg,
        &FleetConfig::new(bob_devices.to_vec()),
        None,
    )
    .expect("bob reference");

    for (threads, stride) in [(1usize, 1usize), (1, 2), (2, 1), (2, 2)] {
        let temp = TempStore::new(&format!("m{threads}x{stride}"));
        let server = Server::start(
            temp.open(),
            ServeConfig {
                threads,
                preemption_stride: stride,
                slices_per_round: 2,
                ..ServeConfig::default()
            },
        );
        let mut alice = server.connect();
        alice.hello("alice", 3, TICK).unwrap();
        let (alice_req, shards) = alice
            .submit(&task, &alice_cfg, &alice_devices, TICK)
            .unwrap();
        assert_eq!(shards, alice_devices.len());
        let mut bob = server.connect();
        bob.hello("bob", 1, TICK).unwrap();
        let (bob_req, _) = bob.submit(&task, &bob_cfg, &bob_devices, TICK).unwrap();

        let alice_report = if (threads, stride) == (2, 1) {
            // Disconnect mid-search: read a few live events, vanish, then
            // re-attach from scratch on a fresh connection.
            let mut seen = 0;
            while seen < 3 {
                match alice.next_event(alice_req, SEARCH).unwrap() {
                    Ok(_) => seen += 1,
                    Err(report) => panic!(
                        "search finished after {seen} events — too fast to
                         exercise the disconnect: {report:?}"
                    ),
                }
            }
            drop(alice); // the daemon sees a dead connection and detaches
            let mut alice2 = server.connect();
            alice2.hello("alice", 3, TICK).unwrap();
            alice2.attach(alice_req, "alice", 0).unwrap();
            // The replayed-then-live stream must be gapless from 0.
            let mut next_seq = 0u64;
            let report = alice2
                .wait_report(alice_req, SEARCH, |seq, _event| {
                    assert_eq!(seq, next_seq, "replayed stream has a gap");
                    next_seq += 1;
                })
                .unwrap();
            assert!(next_seq > 3, "replay covered the pre-disconnect events");
            report
        } else {
            let mut next_seq = 0u64;
            alice
                .wait_report(alice_req, SEARCH, |seq, _event| {
                    assert_eq!(seq, next_seq, "live stream has a gap");
                    next_seq += 1;
                })
                .unwrap()
        };
        let bob_report = bob.wait_report(bob_req, SEARCH, |_, _| {}).unwrap();

        // Both requests were genuinely sliced into multiple contended
        // rounds, and the fair share favored alice.
        assert!(
            alice_report.rounds > 1 && bob_report.rounds > 1,
            "cell ({threads},{stride}): contention split both requests \
             across rounds (alice {}, bob {})",
            alice_report.rounds,
            bob_report.rounds
        );
        assert_report_matches_fleet(&alice_report, &alice_ref);
        assert_report_matches_fleet(&bob_report, &bob_ref);
        let cell = format!("cell ({threads},{stride})");
        assert_builds_match_fleet(&format!("{cell} alice"), &alice_report, &alice_ref);
        assert_builds_match_fleet(&format!("{cell} bob"), &bob_report, &bob_ref);

        drop(bob);
        server.shutdown();
    }
}

/// A tenant cannot attach to another tenant's request.
#[test]
fn attach_enforces_tenant_ownership() {
    let temp = TempStore::new("ownership");
    let server = Server::start(
        temp.open(),
        ServeConfig {
            threads: 1,
            preemption_stride: 1,
            slices_per_round: 1,
            ..ServeConfig::default()
        },
    );
    let mut alice = server.connect();
    alice.hello("alice", 1, TICK).unwrap();
    let task = TaskConfig::tiny(79);
    let cfg = tiny_config(DeviceKind::JetsonTx2, 0);
    let (request, _) = alice
        .submit(&task, &cfg, &[DeviceKind::JetsonTx2], TICK)
        .unwrap();

    let mut mallory = server.connect();
    mallory.hello("mallory", 5, TICK).unwrap();
    mallory.attach(request, "mallory", 0).unwrap();
    match mallory.next_event(request, SEARCH) {
        Err(hgnas::serve::ClientError::Rejected { request_id, reason }) => {
            assert_eq!(request_id, request);
            assert!(reason.contains("tenant"), "{reason}");
        }
        other => panic!("expected tenant rejection, got {other:?}"),
    }
    // Alice's search is unharmed.
    let report = alice.wait_report(request, SEARCH, |_, _| {}).unwrap();
    assert_eq!(report.shards.len(), 1);
    drop(alice);
    drop(mallory);
    server.shutdown();
}

/// Scenario acceptance: a {2 tasks × 2 objectives × 2 personas} cross —
/// classification and segmentation, the classic accuracy/latency
/// objective and a multi-metric one pricing energy and peak memory, the
/// builtin Jetson persona and a throttled calibrated variant — submitted
/// through the daemon matches the direct `run_fleet` of the same
/// scenarios shard for shard: labels, per-shard decode geometry, search
/// outcomes, and Pareto fronts (extra axes included) bit for bit.
#[test]
fn scenario_cross_product_matches_run_fleet_through_daemon() {
    use hgnas::device::{builtin_slug, DevicePersona};
    use hgnas::fleet::{cross_scenarios, ObjectiveSpec};
    use hgnas::pointcloud::TaskKind;

    let task = TaskConfig::tiny(83);
    let base = tiny_config(DeviceKind::JetsonTx2, 0);

    let builtin = DevicePersona {
        name: builtin_slug(DeviceKind::JetsonTx2).to_string(),
        profile: DeviceKind::JetsonTx2.profile(),
    };
    let mut slow = DeviceKind::JetsonTx2.profile();
    slow.overhead_us *= 1.5;
    for r in &mut slow.rates {
        r.gflops *= 0.7;
        r.gbps *= 0.7;
    }
    let throttled = DevicePersona {
        name: "tx2-throttled".to_string(),
        profile: slow,
    };

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
        &[builtin, throttled],
    );
    assert_eq!(scenarios.len(), 8, "2 tasks x 2 objectives x 2 personas");

    let reference = run_fleet(
        &task,
        &base,
        &FleetConfig::over_scenarios(scenarios.clone()),
        None,
    )
    .expect("direct scenario fleet");
    assert_eq!(reference.reports.len(), 8);
    for (r, s) in reference.reports.iter().zip(&scenarios) {
        assert_eq!(r.scenario, s.label);
        assert!(!r.pareto.is_empty(), "{}: empty front", s.label);
        // The multi-metric objective prices energy and peak memory, so its
        // fronts carry the extra axes; the classic objective's do not.
        let priced = s.config.gamma != 0.0;
        for p in &r.pareto {
            assert_eq!(p.energy_mj.is_some(), priced, "{}", s.label);
            assert_eq!(p.peak_mem_mb.is_some(), priced, "{}", s.label);
        }
    }

    let temp = TempStore::new("scenarios");
    let server = Server::start(
        temp.open(),
        ServeConfig {
            threads: 2,
            preemption_stride: 1,
            slices_per_round: 2,
            ..ServeConfig::default()
        },
    );
    let mut client = server.connect();
    client.hello("carol", 2, TICK).unwrap();
    let (request, shards) = client
        .submit_scenarios(&task, &base, &scenarios, TICK)
        .unwrap();
    assert_eq!(shards, scenarios.len());
    let report = client.wait_report(request, SEARCH, |_, _| {}).unwrap();

    for (g, s) in report.shards.iter().zip(&scenarios) {
        assert_eq!(g.scenario, s.label);
        assert_eq!(g.k, s.task.k);
        assert_eq!(g.out_classes, s.task.out_classes());
    }
    assert_report_matches_fleet(&report, &reference);
    assert_builds_match_fleet("scenario cell", &report, &reference);

    drop(client);
    server.shutdown();
}
