//! The daemon: connection lifecycle, the admission-driven engine loop,
//! idle-loop store GC, and graceful drain.
//!
//! # Architecture
//!
//! One **engine thread** owns all scheduling state. Each connection gets a
//! **reader thread** that decodes client frames and forwards commands to
//! the engine over a channel; an optional **accept thread** feeds TCP
//! connections into the same path, so in-process and remote clients are
//! indistinguishable past the transport.
//!
//! The engine thread keeps one [`Engine`] for the daemon's lifetime and
//! runs one admission *round* at a time: the fair-share controller picks a
//! request, and one budgeted `Engine::run` call runs the request's
//! unfinished shards under a `slices_per_round` grant against the shared
//! artifact store. That call runs on a scoped thread of the round, which
//! is the engine's worker 0 (a one-shard round spawns nothing else),
//! while the engine thread streams the round's events. Unfinished shards
//! park inside the engine with their in-memory checkpoints and
//! predictors, and the engine's session cache keeps their deterministic
//! prefixes warm, so a request sliced into many rounds builds each prefix
//! once, exactly like a direct `run_fleet`.
//! Every slice boundary still persists a checkpoint, so a drained daemon's
//! successor resumes from the store. Every
//! [`FleetEvent`](hgnas_fleet::FleetEvent) is encoded once, buffered (for
//! re-attach after a disconnect) and streamed to the attached connection;
//! the buffer goes once the request's final frame reaches a connection.
//! The report a request eventually gets is bit-identical to `run_fleet` of
//! the same configs — however many rounds contention sliced it into.
//!
//! Submits are validated at the door: a task the search would panic on is
//! answered with `Rejected` and never reaches the shared engine.

use crate::admission::{AdmissionController, TenantUsage};
use crate::client::SearchClient;
use crate::transport::{duplex, TcpTransport, Transport, TransportError};
use hgnas_fleet::wire::{self, ClientFrame, ServerFrame, WireReport, WireShardReport};
use hgnas_fleet::{
    event_channel, persona_predictor_fingerprint, prefix_fingerprint, search_fingerprint,
    shard_specs, ArtifactKey, ArtifactStore, Engine, FleetConfig, OracleConfig, PrefixKey,
    PruneReport, ShardId, ShardResult, ShardSpec, PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Kernel-thread budget of the daemon's engine (0 is treated as 1).
    pub threads: usize,
    /// Generations per preemption slice (`0` disables preemption, which
    /// also makes every request run to completion in its first round —
    /// no fair-share interleaving).
    pub preemption_stride: usize,
    /// Checkpoint cadence within a slice.
    pub checkpoint_every: usize,
    /// Measurement-oracle tuning.
    pub oracle: OracleConfig,
    /// Engine slices granted per admission round when preemption is
    /// on. Smaller grants interleave tenants more finely; the grant is
    /// charged to the owning tenant's fair-share account.
    pub slices_per_round: u64,
    /// Byte budget of the engine's session cache (see
    /// [`FleetConfig::session_memory_budget`]).
    pub session_memory_budget: Option<u64>,
    /// Artifact-store byte budget for the idle-loop GC. When the daemon
    /// goes idle (no unfinished request) after completing work, it sweeps
    /// fingerprints no admitted request owns, prunes the store down to
    /// this budget, and broadcasts the [`PruneReport`] as a
    /// [`ServerFrame::Pruned`]. `None` disables the GC.
    pub store_budget_bytes: Option<u64>,
    /// Connection idle timeout: connections that never said hello, or
    /// have no submitted/attached request, are closed after this long
    /// without traffic.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 2,
            preemption_stride: 1,
            checkpoint_every: 1,
            oracle: OracleConfig::default(),
            slices_per_round: 4,
            session_memory_budget: None,
            store_budget_bytes: None,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

impl ServeConfig {
    /// The engine settings of this daemon as a fleet configuration: a
    /// direct `run_fleet` with the same five fields (plus the request's
    /// devices or scenarios) reproduces a served report bit for bit.
    fn fleet_config(&self) -> FleetConfig {
        let mut fleet = FleetConfig::new(Vec::new());
        fleet.threads = self.threads;
        fleet.preemption_stride = self.preemption_stride;
        fleet.checkpoint_every = self.checkpoint_every;
        fleet.oracle = self.oracle.clone();
        fleet.session_memory_budget = self.session_memory_budget;
        fleet
    }
}

/// What a drained daemon left behind.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Requests parked mid-search (checkpoints persisted; resubmitting
    /// the same configs over the same store resumes bit-identically).
    pub parked: Vec<u64>,
    /// Per-tenant slice accounting at shutdown.
    pub tenants: Vec<TenantUsage>,
}

/// Commands the connection threads forward to the engine.
// Submit carries whole task/search configs; commands are one-shot.
#[allow(clippy::large_enum_variant)]
enum Command {
    Submit {
        request_id: u64,
        conn: u64,
        tenant: String,
        priority: u8,
        /// The request task's `k` and class count, for the report.
        k: usize,
        classes: usize,
        specs: Vec<ShardSpec>,
    },
    Attach {
        request_id: u64,
        conn: u64,
        tenant: String,
        from_seq: u64,
    },
    Disconnect {
        conn: u64,
    },
    Shutdown,
}

/// State shared between the server handle, connection threads and the
/// engine.
struct Shared {
    cfg: ServeConfig,
    store: ArtifactStore,
    /// Drain flag: wired into the engine ([`Engine::with_stop`]) and
    /// polled by the accept loop.
    stop: Arc<AtomicBool>,
    next_request: AtomicU64,
    next_conn: AtomicU64,
    conns: Mutex<HashMap<u64, Arc<dyn Transport>>>,
}

/// Engine-side per-request state.
struct RequestState {
    tenant: String,
    specs: Vec<ShardSpec>,
    k: usize,
    classes: usize,
    /// The connection currently streaming this request's events, if any.
    conn: Option<u64>,
    /// Next event sequence number. Equals `events.len()` until the final
    /// frame reaches an attached connection, which empties `events`.
    seq: u64,
    /// Every event frame emitted so far, encoded once; index == seq. Kept
    /// for replay to re-attaching clients until the final frame reaches an
    /// attached connection; a later attach gets the final frame alone.
    events: Vec<Vec<u8>>,
    /// The final Report (or terminal Rejected) frame once produced.
    report_frame: Option<Vec<u8>>,
    rounds: u64,
    /// Shards that already ran to completion in an earlier round, by
    /// request-local index. Later rounds schedule only the `None` slots,
    /// so a request with more shards than `slices_per_round` still
    /// converges: finished shards are never re-run (or re-charged) just
    /// to re-announce their outcome.
    finished: Vec<Option<ShardResult>>,
}

impl RequestState {
    /// Keeps the request's final frame for late attachers and sends it to
    /// `transport`; once it is sent without error, the buffered events go.
    fn finish(&mut self, frame: Vec<u8>, transport: Option<&dyn Transport>) {
        if transport.is_some_and(|t| t.send(&frame).is_ok()) {
            self.events = Vec::new();
        }
        self.report_frame = Some(frame);
    }
}

/// A running search daemon. Start one over an [`ArtifactStore`], connect
/// in-process clients with [`Server::connect`] (or remote ones via
/// [`Server::listen`]), and stop it with [`Server::shutdown`] — in-flight
/// requests park at the next slice boundary with checkpoints persisted.
///
/// # Examples
///
/// ```no_run
/// use hgnas_core::{SearchConfig, TaskConfig};
/// use hgnas_device::DeviceKind;
/// use hgnas_fleet::ArtifactStore;
/// use hgnas_serve::{ServeConfig, Server};
/// use std::time::Duration;
///
/// let store = ArtifactStore::open("serve-artifacts").unwrap();
/// let server = Server::start(store, ServeConfig::default());
/// let mut client = server.connect();
/// client.hello("alice", 2, Duration::from_secs(5)).unwrap();
/// let (request, _shards) = client
///     .submit(
///         &TaskConfig::tiny(1),
///         &SearchConfig::fast(DeviceKind::Rtx3080),
///         &[DeviceKind::Rtx3080],
///         Duration::from_secs(5),
///     )
///     .unwrap();
/// let report = client
///     .wait_report(request, Duration::from_secs(600), |_seq, _event| {})
///     .unwrap();
/// println!("{} shard(s) done", report.shards.len());
/// drop(client);
/// server.shutdown();
/// ```
pub struct Server {
    shared: Arc<Shared>,
    cmd_tx: Sender<Command>,
    engine: Option<JoinHandle<DrainReport>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    listeners: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Starts the engine thread over `store`.
    pub fn start(store: ArtifactStore, cfg: ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            cfg,
            store,
            stop: Arc::new(AtomicBool::new(false)),
            // 0 is reserved for connection-level Rejected frames.
            next_request: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
            conns: Mutex::new(HashMap::new()),
        });
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let engine = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || engine_loop(&shared, &cmd_rx))
        };
        Server {
            shared,
            cmd_tx,
            engine: Some(engine),
            conn_threads: Arc::new(Mutex::new(Vec::new())),
            listeners: Mutex::new(Vec::new()),
        }
    }

    /// Connects an in-process client over a duplex transport pair.
    pub fn connect(&self) -> SearchClient {
        let (client_end, server_end) = duplex();
        serve_transport(
            &self.shared,
            &self.cmd_tx,
            &self.conn_threads,
            Arc::new(server_end),
        );
        SearchClient::new(Box::new(client_end))
    }

    /// Binds a TCP listener and serves every accepted connection. Returns
    /// the bound address (use port 0 to let the OS pick).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn listen(&self, addr: SocketAddr) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::clone(&self.shared);
        let cmd_tx = self.cmd_tx.clone();
        let conn_threads = Arc::clone(&self.conn_threads);
        let handle = std::thread::spawn(move || loop {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if let Ok(transport) = TcpTransport::new(stream) {
                        serve_transport(&shared, &cmd_tx, &conn_threads, Arc::new(transport));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
        });
        self.listeners.lock().unwrap().push(handle);
        Ok(local)
    }

    /// Gracefully drains the daemon: the in-flight round parks at its
    /// next slice boundary (checkpoints persisted), every connection
    /// receives a [`ServerFrame::Drain`] listing parked requests, and all
    /// daemon threads are joined.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.cmd_tx.send(Command::Shutdown);
        let report = self
            .engine
            .take()
            .map(|h| h.join().expect("engine thread panicked"))
            .unwrap_or_else(|| DrainReport {
                parked: Vec::new(),
                tenants: Vec::new(),
            });
        // Unblock and join every connection reader, then the accept loops
        // (their nonblocking polls notice `stop` within one tick).
        for (_, t) in self.shared.conns.lock().unwrap().drain() {
            t.close();
        }
        for h in self.conn_threads.lock().unwrap().drain(..) {
            let _ = h.join();
        }
        for h in self.listeners.lock().unwrap().drain(..) {
            let _ = h.join();
        }
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Not a graceful drain (no Drain frames are guaranteed): wake
        // everything so threads can exit; `shutdown` is the real path.
        if self.engine.is_some() {
            self.shared.stop.store(true, Ordering::SeqCst);
            let _ = self.cmd_tx.send(Command::Shutdown);
            for (_, t) in self.shared.conns.lock().unwrap().drain() {
                t.close();
            }
        }
    }
}

/// Registers a transport as a served connection and spawns its reader
/// thread.
fn serve_transport(
    shared: &Arc<Shared>,
    cmd_tx: &Sender<Command>,
    conn_threads: &Mutex<Vec<JoinHandle<()>>>,
    transport: Arc<dyn Transport>,
) {
    let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    shared
        .conns
        .lock()
        .unwrap()
        .insert(conn_id, Arc::clone(&transport));
    let (shared, cmd_tx) = (Arc::clone(shared), cmd_tx.clone());
    let handle = std::thread::spawn(move || conn_loop(&shared, &cmd_tx, conn_id, &transport));
    conn_threads.lock().unwrap().push(handle);
}

/// Per-connection reader: decodes frames, answers handshakes inline, and
/// forwards scheduling work to the engine.
fn conn_loop(
    shared: &Arc<Shared>,
    cmd_tx: &Sender<Command>,
    conn_id: u64,
    transport: &Arc<dyn Transport>,
) {
    let mut tenant: Option<(String, u8)> = None;
    let mut interests = 0usize;
    let reject = |request_id: u64, reason: &str| {
        let _ = transport.send(&wire::encode_server(&ServerFrame::Rejected {
            request_id,
            reason: reason.to_string(),
        }));
    };
    loop {
        match transport.recv_timeout(shared.cfg.idle_timeout) {
            Ok(frame) => match wire::decode_client(&frame) {
                Ok(ClientFrame::Hello {
                    tenant: name,
                    priority,
                }) => {
                    tenant = Some((name, priority));
                    let _ = transport.send(&wire::encode_server(&ServerFrame::HelloAck {
                        protocol: PROTOCOL_VERSION,
                    }));
                }
                Ok(ClientFrame::Submit {
                    task,
                    config,
                    devices,
                    scenarios,
                }) => {
                    let Some((name, priority)) = tenant.clone() else {
                        reject(0, "hello required before submit");
                        continue;
                    };
                    let specs = shard_specs(&task, &config, &devices, &scenarios);
                    if specs.is_empty() {
                        reject(0, "submit names no devices or scenarios");
                        continue;
                    }
                    // Every task and search config the request names is
                    // checked before it can reach the engine that holds
                    // everyone's sessions (each shard's config, so a
                    // persona meets the device its shard overrides).
                    let invalid = std::iter::once(&task)
                        .chain(specs.iter().map(|s| &s.task))
                        .find_map(|t| t.validate().err())
                        .map(|e| format!("invalid task: {e}"))
                        .or_else(|| {
                            std::iter::once(&config)
                                .chain(specs.iter().map(|s| &s.config))
                                .find_map(|c| c.validate().err())
                                .map(|e| format!("invalid search config: {e}"))
                        });
                    if let Some(reason) = invalid {
                        reject(0, &reason);
                        continue;
                    }
                    let request_id = shared.next_request.fetch_add(1, Ordering::SeqCst);
                    let _ = transport.send(&wire::encode_server(&ServerFrame::Accepted {
                        request_id,
                        shards: specs.len(),
                    }));
                    interests += 1;
                    if cmd_tx
                        .send(Command::Submit {
                            request_id,
                            conn: conn_id,
                            tenant: name,
                            priority,
                            k: task.k,
                            classes: task.classes(),
                            specs,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                Ok(ClientFrame::Attach {
                    request_id,
                    tenant: name,
                    from_seq,
                }) => {
                    if tenant.is_none() {
                        reject(request_id, "hello required before attach");
                        continue;
                    }
                    interests += 1;
                    if cmd_tx
                        .send(Command::Attach {
                            request_id,
                            conn: conn_id,
                            tenant: name,
                            from_seq,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                Ok(ClientFrame::Bye) => break,
                Err(e) => {
                    // Version skew, corruption, or a server frame echoed
                    // back: refuse and drop the connection — resynchronising
                    // an untrusted stream is not worth the ambiguity.
                    reject(0, &e.to_string());
                    break;
                }
            },
            Err(TransportError::Timeout) => {
                // Reap only connections with nothing at stake: half-open
                // sockets that never authenticated or never submitted.
                if tenant.is_none() || interests == 0 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    shared.conns.lock().unwrap().remove(&conn_id);
    let _ = cmd_tx.send(Command::Disconnect { conn: conn_id });
    transport.close();
}

/// The engine: admission rounds, event fan-out, idle GC, drain.
fn engine_loop(shared: &Arc<Shared>, cmd_rx: &Receiver<Command>) -> DrainReport {
    let mut requests: HashMap<u64, RequestState> = HashMap::new();
    let mut admission = AdmissionController::new();
    let mut engine = Engine::new(&shared.cfg.fleet_config(), Some(shared.store.clone()))
        .with_stop(Arc::clone(&shared.stop));
    let mut gc_pending = false;
    let mut draining = false;
    loop {
        // Absorb every queued command between rounds so attach/disconnect
        // land before the next round picks its streaming target.
        while let Ok(cmd) = cmd_rx.try_recv() {
            if handle_command(shared, &mut requests, &mut admission, cmd) {
                draining = true;
            }
        }
        if draining || shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if let Some(id) = admission.next() {
            run_round(shared, &mut engine, &mut requests, &mut admission, id);
            if !admission.has_pending() {
                gc_pending = true;
            }
            continue;
        }
        if gc_pending {
            run_gc(shared, &requests);
            gc_pending = false;
        }
        match cmd_rx.recv_timeout(Duration::from_millis(200)) {
            Ok(cmd) => {
                if handle_command(shared, &mut requests, &mut admission, cmd) {
                    draining = true;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Drain: tell every connection which requests parked.
    let parked = admission.pending();
    let frame = wire::encode_server(&ServerFrame::Drain {
        parked: parked.clone(),
    });
    for t in shared.conns.lock().unwrap().values() {
        let _ = t.send(&frame);
    }
    DrainReport {
        parked,
        tenants: admission.tenant_usage(),
    }
}

/// Applies one command; returns `true` when the engine should drain.
fn handle_command(
    shared: &Arc<Shared>,
    requests: &mut HashMap<u64, RequestState>,
    admission: &mut AdmissionController,
    cmd: Command,
) -> bool {
    match cmd {
        Command::Submit {
            request_id,
            conn,
            tenant,
            priority,
            k,
            classes,
            specs,
        } => {
            admission.admit(request_id, &tenant, priority);
            requests.insert(
                request_id,
                RequestState {
                    tenant,
                    finished: specs.iter().map(|_| None).collect(),
                    specs,
                    k,
                    classes,
                    conn: Some(conn),
                    seq: 0,
                    events: Vec::new(),
                    report_frame: None,
                    rounds: 0,
                },
            );
        }
        Command::Attach {
            request_id,
            conn,
            tenant,
            from_seq,
        } => {
            let transport = shared.conns.lock().unwrap().get(&conn).cloned();
            let Some(transport) = transport else {
                return false;
            };
            let reject = |reason: &str| {
                let _ = transport.send(&wire::encode_server(&ServerFrame::Rejected {
                    request_id,
                    reason: reason.to_string(),
                }));
            };
            match requests.get_mut(&request_id) {
                None => reject("unknown request"),
                Some(req) if req.tenant != tenant => reject("tenant mismatch"),
                Some(req) => {
                    req.conn = Some(conn);
                    let start = usize::try_from(from_seq).unwrap_or(usize::MAX);
                    for frame in req.events.iter().skip(start.min(req.events.len())) {
                        let _ = transport.send(frame);
                    }
                    if let Some(report) = &req.report_frame {
                        if transport.send(report).is_ok() {
                            req.events = Vec::new();
                        }
                    }
                }
            }
        }
        Command::Disconnect { conn } => {
            for req in requests.values_mut() {
                if req.conn == Some(conn) {
                    req.conn = None;
                }
            }
        }
        Command::Shutdown => return true,
    }
    false
}

/// Runs one admission round for `request_id`: a budgeted engine call over
/// the request's unfinished shards, streaming + buffering every event.
fn run_round(
    shared: &Arc<Shared>,
    engine: &mut Engine,
    requests: &mut HashMap<u64, RequestState>,
    admission: &mut AdmissionController,
    request_id: u64,
) {
    let Some(req) = requests.get_mut(&request_id) else {
        admission.complete(request_id);
        return;
    };
    if req.report_frame.is_some() {
        admission.complete(request_id);
        return;
    }
    // Only shards without a finished result get scheduled: a finished
    // shard's outcome is carried in `req.finished`, so re-running it from
    // its final checkpoint would burn round budget without progress —
    // with more shards than `slices_per_round` that burn is unbounded
    // (no round could ever re-finish them all at once).
    let pending: Vec<ShardId> = req
        .finished
        .iter()
        .enumerate()
        .filter_map(|(i, f)| f.is_none().then_some(i))
        .collect();
    if pending.is_empty() {
        admission.complete(request_id);
        return;
    }
    let grant = (shared.cfg.preemption_stride > 0).then(|| shared.cfg.slices_per_round.max(1));
    let transport = req
        .conn
        .and_then(|c| shared.conns.lock().unwrap().get(&c).cloned());
    let (tx, rx) = event_channel();
    let result = {
        let specs = &req.specs;
        let pending = &pending;
        std::thread::scope(|s| {
            let handle = s.spawn(move || engine.run(request_id, specs, pending, grant, Some(tx)));
            for event in rx.iter() {
                let frame = wire::encode_server(&ServerFrame::Event {
                    request_id,
                    seq: req.seq,
                    event,
                });
                req.seq += 1;
                if let Some(t) = &transport {
                    // A dead connection is just a detached client; the
                    // buffer keeps its place for re-attach.
                    let _ = t.send(&frame);
                }
                req.events.push(frame);
            }
            handle.join().expect("engine thread panicked")
        })
    };
    req.rounds += 1;
    match result {
        Err(e) => {
            // Store failure: terminal for the request, reported like a
            // rejection and replayed to late attachers.
            let frame = wire::encode_server(&ServerFrame::Rejected {
                request_id,
                reason: format!("artifact store error: {e}"),
            });
            req.finish(frame, transport.as_deref());
            admission.complete(request_id);
        }
        Ok(report) => {
            admission.charge(request_id, report.slices);
            for s in report.shards.into_iter().filter(|s| s.outcome.is_some()) {
                let i = s.shard;
                req.finished[i] = Some(s);
            }
            if req.finished.iter().all(Option::is_some) {
                // Engine counters are cumulative across rounds, so each
                // finished result already carries the shard's totals.
                // Scenario shards may differ from the request-level task,
                // so each carries its own decode geometry.
                let shards = req
                    .finished
                    .iter_mut()
                    .zip(&req.specs)
                    .map(|(f, spec)| {
                        let s = f.take().expect("checked finished");
                        WireShardReport {
                            scenario: s.scenario,
                            k: spec.task.k,
                            out_classes: spec.task.out_classes(),
                            device: s.device,
                            outcome: s.outcome.expect("checked finished"),
                            pareto: s.pareto,
                            warm_predictor: s.warm_predictor,
                            resumed_from_generation: s.resumed_from_generation,
                            slices: s.slices,
                            prefix_builds: s.prefix_builds,
                        }
                    })
                    .collect();
                let frame = wire::encode_server(&ServerFrame::Report {
                    request_id,
                    report: WireReport {
                        k: req.k,
                        classes: req.classes,
                        shards,
                        rounds: req.rounds,
                        slices: admission.charged(request_id),
                    },
                });
                req.finish(frame, transport.as_deref());
                admission.complete(request_id);
            }
        }
    }
}

/// Idle-loop GC: sweep fingerprints no request owns, prune to the byte
/// budget, broadcast the combined report.
fn run_gc(shared: &Arc<Shared>, requests: &HashMap<u64, RequestState>) {
    let Some(budget) = shared.cfg.store_budget_bytes else {
        return;
    };
    let mut live = Vec::new();
    let mut live_sessions = Vec::new();
    for req in requests.values() {
        for spec in &req.specs {
            live.push(ArtifactKey {
                device: spec.config.device,
                fingerprint: search_fingerprint(&spec.task, &spec.config),
            });
            live.push(ArtifactKey {
                device: spec.config.device,
                fingerprint: persona_predictor_fingerprint(
                    &spec.task.predictor_context(),
                    &spec.config.predictor,
                    spec.config.persona.as_ref(),
                ),
            });
            live_sessions.push(PrefixKey {
                fingerprint: prefix_fingerprint(&spec.task, &spec.config),
            });
        }
    }
    let mut total = PruneReport::default();
    if let Ok(r) = shared.store.sweep_stale(&live, &live_sessions) {
        total.removed_files += r.removed_files;
        total.removed_bytes += r.removed_bytes;
        total.retained_bytes = r.retained_bytes;
    }
    if let Ok(r) = shared.store.prune(budget) {
        total.removed_files += r.removed_files;
        total.removed_bytes += r.removed_bytes;
        total.retained_bytes = r.retained_bytes;
    }
    let frame = wire::encode_server(&ServerFrame::Pruned { report: total });
    for t in shared.conns.lock().unwrap().values() {
        let _ = t.send(&frame);
    }
}
