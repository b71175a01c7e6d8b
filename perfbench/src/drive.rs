//! The daemon under test and the closed-loop clients that drive it over
//! loopback TCP.

use crate::stats::{cpu_seconds, dir_bytes, peak_rss_mb, reset_peak_rss};
use crate::trace::Tracer;
use crate::workload::{Kind, Request};
use hgnas::fleet::{ArtifactStore, FleetEvent, SessionAction, WireReport};
use hgnas::serve::{SearchClient, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Wait bound for handshakes.
const TICK: Duration = Duration::from_secs(30);
/// Wait bound per frame while a search runs: whole rounds of the other
/// tenant can sit between two frames of ours.
const FRAME: Duration = Duration::from_secs(60);
/// Past the measuring window plus this, clients stop even if the tail
/// percentile is still short of samples, so a run always ends in time.
const OVERRUN: Duration = Duration::from_secs(60);

/// What one request's event stream showed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventTally {
    pub frames: u64,
    pub hits: u64,
    pub restores: u64,
    pub deferrals: u64,
    pub evictions: u64,
    pub preemptions: u64,
}

impl EventTally {
    pub fn observe(&mut self, ev: &FleetEvent) {
        self.frames += 1;
        match ev {
            FleetEvent::ShardPreempted { .. } => self.preemptions += 1,
            FleetEvent::SessionCache { action, .. } => match action {
                SessionAction::Hit => self.hits += 1,
                SessionAction::Restored => self.restores += 1,
                SessionAction::Deferred => self.deferrals += 1,
                SessionAction::Evicted { .. } => self.evictions += 1,
                // Reports count prefix builds per shard; read them there.
                SessionAction::Built => {}
            },
            _ => {}
        }
    }
}

/// One served request, as its client saw it.
pub struct Record {
    pub client: usize,
    pub index: u64,
    pub request: Request,
    pub submit: Instant,
    pub accepted: Instant,
    pub first_event: Option<Instant>,
    pub done: Instant,
    pub tally: EventTally,
    pub outcome: Result<WireReport, String>,
}

impl Record {
    pub fn report_ms(&self) -> f64 {
        self.done.duration_since(self.submit).as_secs_f64() * 1e3
    }

    /// A request id unique within the run, for spans.
    pub fn span_request(&self) -> u64 {
        (self.client as u64) << 32 | self.index
    }
}

/// A started daemon with its connected, greeted clients.
pub struct Daemon {
    pub server: Server,
    pub serve: ServeConfig,
    pub store_dir: PathBuf,
    pub clients: Vec<SearchClient>,
    /// Store bytes after the warm-up: what later requests add is theirs.
    pub setup_store_bytes: u64,
}

impl Daemon {
    /// Set-up, timed by the caller: a fresh artifact store, the daemon
    /// listening on loopback, every client connected and greeted, and the
    /// warm-up request served so the workload's predictors are trained and
    /// on the store.
    pub fn start(kind: Kind, store_dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(store_dir);
        let store = ArtifactStore::open(store_dir).map_err(|e| format!("store: {e}"))?;
        let serve = kind.serve_config(kind.session_budget());
        let server = Server::start(store, serve.clone());
        let addr = server
            .listen("127.0.0.1:0".parse().expect("loopback address"))
            .map_err(|e| format!("listen: {e}"))?;
        let mut clients = Vec::new();
        for &(tenant, priority) in kind.clients() {
            let mut c = SearchClient::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
            c.hello(tenant, priority, TICK)
                .map_err(|e| format!("hello: {e}"))?;
            clients.push(c);
        }
        let warm = kind.warmup();
        let id = submit(&mut clients[0], &warm)?;
        clients[0]
            .wait_report(id, FRAME, |_, _| {})
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok(Daemon {
            server,
            serve,
            setup_store_bytes: dir_bytes(store_dir),
            store_dir: store_dir.to_path_buf(),
            clients,
        })
    }

    /// Closes the clients, drains the daemon and deletes its store.
    pub fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

fn submit(client: &mut SearchClient, req: &Request) -> Result<u64, String> {
    let r = if req.scenarios.is_empty() {
        client.submit(&req.task, &req.base, &req.devices, TICK)
    } else {
        client.submit_scenarios(&req.task, &req.base, &req.scenarios, TICK)
    };
    r.map(|(id, _)| id).map_err(|e| format!("submit: {e}"))
}

/// The measured window's outcome.
pub struct Window {
    /// Every request sent, ordered by (client, index).
    pub records: Vec<Record>,
    /// From the first submit to the last report, seconds.
    pub wall_s: f64,
    /// Process CPU over the same interval, seconds.
    pub cpu_s: f64,
    /// Peak RSS of each second of the window, MiB.
    pub rss_peaks_mb: Vec<f64>,
}

/// Samples the peak RSS of each second until `done` is set: resets the
/// high-water mark, waits a second (or until done), reads it.
fn sample_rss(done: &AtomicBool) -> Vec<f64> {
    let mut peaks = Vec::new();
    while !done.load(Ordering::SeqCst) {
        if reset_peak_rss().is_err() {
            break;
        }
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(1) && !done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
        peaks.push(peak_rss_mb());
    }
    peaks
}

/// Runs every client as a closed loop — submit, wait for the report, send
/// the next — until `seconds` have passed and at least `min_requests`
/// reports are in, then lets in-flight requests finish.
pub fn run_window(
    daemon: &mut Daemon,
    kind: Kind,
    seed: u64,
    seconds: f64,
    min_requests: usize,
    tracer: &Tracer,
) -> Window {
    let n_clients = daemon.clients.len();
    let per_client = min_requests.div_ceil(n_clients) as u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let cpu0 = cpu_seconds();
    let done = AtomicBool::new(false);
    let (mut records, mut rss_peaks_mb): (Vec<Record>, Vec<f64>) = std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_rss(&done));
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(ci, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for index in 0.. {
                        let now = Instant::now();
                        if (now >= deadline && index >= per_client) || now >= deadline + OVERRUN {
                            break;
                        }
                        let rec = serve_one(client, kind.request(seed, ci, index), ci, index);
                        trace_request(tracer, &rec);
                        let broken = matches!(&rec.outcome, Err(e) if e.starts_with("submit"));
                        out.push(rec);
                        if broken {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        let records = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        done.store(true, Ordering::SeqCst);
        (records, sampler.join().expect("RSS sampler panicked"))
    });
    if rss_peaks_mb.is_empty() {
        // No high-water-mark reset on this kernel: the run's peak so far.
        rss_peaks_mb.push(peak_rss_mb());
    }
    let cpu_s = cpu_seconds() - cpu0;
    let end = records.iter().map(|r| r.done).max().unwrap_or(start);
    records.sort_by_key(|r| (r.client, r.index));
    Window {
        records,
        wall_s: end.duration_since(start).as_secs_f64(),
        cpu_s,
        rss_peaks_mb,
    }
}

fn serve_one(client: &mut SearchClient, request: Request, ci: usize, index: u64) -> Record {
    let submit_at = Instant::now();
    let mut rec = Record {
        client: ci,
        index,
        request,
        submit: submit_at,
        accepted: submit_at,
        first_event: None,
        done: submit_at,
        tally: EventTally::default(),
        outcome: Err(String::new()),
    };
    let id = match submit(client, &rec.request) {
        Ok(id) => id,
        Err(e) => {
            rec.done = Instant::now();
            rec.outcome = Err(e);
            return rec;
        }
    };
    rec.accepted = Instant::now();
    let (mut first, mut tally) = (None, EventTally::default());
    let report = client.wait_report(id, FRAME, |_, ev| {
        first.get_or_insert_with(Instant::now);
        tally.observe(ev);
    });
    rec.done = Instant::now();
    rec.first_event = first;
    rec.tally = tally;
    rec.outcome = report.map_err(|e| format!("report: {e}"));
    rec
}

/// Spans of one served request: the whole request, and inside it the
/// submit handshake and the wait for admission (serve), then the event
/// stream while the scheduler runs the shards (fleet).
fn trace_request(tracer: &Tracer, rec: &Record) {
    if !tracer.enabled() {
        return;
    }
    let id = rec.span_request();
    let root = tracer.record("serve.request", "serve", None, id, rec.submit, rec.done);
    tracer.record("serve.accept", "serve", root, id, rec.submit, rec.accepted);
    if let Some(first) = rec.first_event {
        tracer.record("serve.queue", "serve", root, id, rec.accepted, first);
        tracer.record("fleet.stream", "fleet", root, id, first, rec.done);
    }
}
