//! Daemon-path benchmarks: what does serving a search through
//! `hgnas-serve` cost over calling `run_fleet` directly?
//!
//! The daemon adds admission rounds (budgeted calls into its one
//! long-lived engine), wire-frame encoding of every event, and channel
//! hops between the engine and connection threads. This bench times the
//! same two-shard cold search both ways and splits out the client-visible
//! latencies: submit→first-event (how quickly a tenant sees life) and
//! submit→report. A second cell has two tenants (priorities 1 and 3,
//! distinct seeds) submit the same request at once, so their rounds run
//! side by side on the daemon's one engine.
//!
//! Besides the criterion sweep, the bench always writes
//! `BENCH_daemon.json` (flat `*_ms` keys for `bench_diff`):
//! `direct_run_fleet_ms`, `daemon_request_to_report_ms`,
//! `daemon_request_to_first_event_ms`, `admission_overhead_ms`, and next to
//! them the work counts that explain the overhead: `direct_prefix_builds`,
//! `daemon_prefix_builds` and the daemon's admission `rounds`. The
//! two-tenant cell records `two_tenant_later_report_ms` (submit to the
//! later of the two reports) and each tenant's `two_tenant_p{1,3}_report_ms`
//! and `two_tenant_p{1,3}_rounds`. `HGNAS_BENCH_JSON=only` skips the sweep
//! and emits just the record.

use criterion::{black_box, criterion_group, Criterion};
use hgnas_core::{LatencyMode, SearchConfig, TaskConfig};
use hgnas_device::DeviceKind;
use hgnas_fleet::{run_fleet, ArtifactStore, FleetConfig};
use hgnas_predictor::PredictorConfig;
use hgnas_serve::{ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const DEVICES: [DeviceKind; 2] = [DeviceKind::Rtx3080, DeviceKind::JetsonTx2];
const TICK: Duration = Duration::from_secs(30);
const SEARCH: Duration = Duration::from_secs(600);

fn tiny_task() -> TaskConfig {
    TaskConfig::tiny(3)
}

fn tiny_config() -> SearchConfig {
    let mut cfg = SearchConfig::fast(DEVICES[0]);
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
    cfg
}

/// A unique throwaway store directory (fresh per run: every timing below
/// is a cold search, so the daemon/direct comparison is apples to apples).
struct TempStore {
    path: PathBuf,
}

impl TempStore {
    fn new() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        TempStore {
            path: std::env::temp_dir()
                .join(format!("hgnas-bench-daemon-{}-{n}", std::process::id())),
        }
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

/// The engine shape both paths share: 2 threads, stride 1.
fn fleet_config() -> FleetConfig {
    let mut fleet = FleetConfig::new(DEVICES.to_vec());
    fleet.threads = 2;
    fleet.preemption_stride = 1;
    fleet
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        preemption_stride: 1,
        slices_per_round: 4,
        ..ServeConfig::default()
    }
}

/// One cold direct run; (wall-clock ms, prefix builds).
fn time_direct() -> (f64, u64) {
    let temp = TempStore::new();
    let store = temp.open();
    let t = Instant::now();
    let report =
        black_box(run_fleet(&tiny_task(), &tiny_config(), &fleet_config(), Some(&store)).unwrap());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (ms, report.reports.iter().map(|r| r.prefix_builds).sum())
}

/// One cold daemon-served run.
struct Served {
    first_event_ms: f64,
    report_ms: f64,
    prefix_builds: u64,
    rounds: u64,
}

fn time_daemon() -> Served {
    let temp = TempStore::new();
    let server = Server::start(temp.open(), serve_config());
    let mut client = server.connect();
    client.hello("bench", 1, TICK).unwrap();
    let t = Instant::now();
    let (request, _) = client
        .submit(&tiny_task(), &tiny_config(), &DEVICES, TICK)
        .unwrap();
    let mut first_event_ms = None;
    let report = client
        .wait_report(request, SEARCH, |_, _| {
            first_event_ms.get_or_insert_with(|| t.elapsed().as_secs_f64() * 1e3);
        })
        .unwrap();
    let report_ms = t.elapsed().as_secs_f64() * 1e3;
    let report = black_box(report);
    drop(client);
    server.shutdown();
    Served {
        first_event_ms: first_event_ms.expect("events precede the report"),
        report_ms,
        prefix_builds: report.shards.iter().map(|s| s.prefix_builds).sum(),
        rounds: report.rounds,
    }
}

/// One cold two-tenant run: the later report's ms, and per tenant
/// (priority 1, then 3) its report ms and rounds.
struct Contended {
    later_report_ms: f64,
    tenants: Vec<(f64, u64)>,
}

fn time_two_tenants() -> Contended {
    let temp = TempStore::new();
    let server = Server::start(temp.open(), serve_config());
    let start = Barrier::new(2);
    let tenants: Vec<(f64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = [("p1", 1u8), ("p3", 3)]
            .into_iter()
            .enumerate()
            .map(|(i, (tenant, priority))| {
                let (server, start) = (&server, &start);
                s.spawn(move || {
                    let mut client = server.connect();
                    client.hello(tenant, priority, TICK).unwrap();
                    let mut cfg = tiny_config();
                    cfg.seed += 1 + i as u64;
                    start.wait();
                    let t = Instant::now();
                    let (request, _) = client.submit(&tiny_task(), &cfg, &DEVICES, TICK).unwrap();
                    let report = client.wait_report(request, SEARCH, |_, _| {}).unwrap();
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    (ms, black_box(report).rounds)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.shutdown();
    Contended {
        later_report_ms: tenants.iter().map(|t| t.0).fold(0.0, f64::max),
        tenants,
    }
}

fn bench_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/daemon2");
    group.sample_size(10);
    group.bench_function("direct", |b| b.iter(time_direct));
    group.bench_function("daemon", |b| b.iter(time_daemon));
    group.bench_function("two_tenants", |b| b.iter(time_two_tenants));
    group.finish();
}

/// Best of 3 runs each way: the direct run, the daemon run and the
/// two-tenant run with the lowest wall-clock, with their counts.
fn emit_bench_json() {
    let (direct_ms, direct_builds) = (0..3)
        .map(|_| time_direct())
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("three runs");
    let d = (0..3)
        .map(|_| time_daemon())
        .min_by(|a, b| a.report_ms.total_cmp(&b.report_ms))
        .expect("three runs");
    let two = (0..3)
        .map(|_| time_two_tenants())
        .min_by(|a, b| a.later_report_ms.total_cmp(&b.later_report_ms))
        .expect("three runs");
    let overhead_ms = d.report_ms - direct_ms;
    let json = format!(
        "{{\n  \"bench\": \"serve/daemon-vs-direct\",\n  \"shards\": {},\n  \
         \"preemption_stride\": 1,\n  \"threads\": 2,\n  \"slices_per_round\": 4,\n  \
         \"direct_run_fleet_ms\": {direct_ms:.3},\n  \
         \"daemon_request_to_first_event_ms\": {:.3},\n  \
         \"daemon_request_to_report_ms\": {:.3},\n  \
         \"admission_overhead_ms\": {overhead_ms:.3},\n  \
         \"direct_prefix_builds\": {direct_builds},\n  \
         \"daemon_prefix_builds\": {},\n  \"rounds\": {},\n  \
         \"two_tenant_later_report_ms\": {:.3},\n  \
         \"two_tenant_p1_report_ms\": {:.3},\n  \"two_tenant_p1_rounds\": {},\n  \
         \"two_tenant_p3_report_ms\": {:.3},\n  \"two_tenant_p3_rounds\": {}\n}}\n",
        DEVICES.len(),
        d.first_event_ms,
        d.report_ms,
        d.prefix_builds,
        d.rounds,
        two.later_report_ms,
        two.tenants[0].0,
        two.tenants[0].1,
        two.tenants[1].0,
        two.tenants[1].1,
    );
    let path = std::env::var("HGNAS_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_daemon.json").into());
    std::fs::write(&path, json).expect("write bench json");
    println!(
        "{path}: direct {direct_ms:.0} ms ({direct_builds} prefix builds), daemon {:.0} ms \
         ({} prefix builds over {} rounds; first event {:.0} ms, overhead {overhead_ms:.0} ms \
         = {:.1}% of direct); two tenants: later report {:.0} ms (priority 1: {:.0} ms, {} \
         rounds; priority 3: {:.0} ms, {} rounds)",
        d.report_ms,
        d.prefix_builds,
        d.rounds,
        d.first_event_ms,
        100.0 * overhead_ms / direct_ms,
        two.later_report_ms,
        two.tenants[0].0,
        two.tenants[0].1,
        two.tenants[1].0,
        two.tenants[1].1,
    );
}

criterion_group!(benches, bench_paths);

fn main() {
    // HGNAS_BENCH_JSON=only skips the criterion sweep (CI's quick path);
    // the JSON record is emitted either way.
    let json_only = std::env::var("HGNAS_BENCH_JSON").is_ok_and(|v| v == "only");
    if !json_only {
        benches();
    }
    emit_bench_json();
}
