//! The daemon: connection lifecycle, the admission-driven engine loop,
//! idle-loop store GC, and graceful drain.
//!
//! # Architecture
//!
//! One **engine thread** owns all scheduling state: the request table and
//! the admission controller. Each connection gets a **reader thread** that
//! decodes client frames and forwards commands to the engine thread; an
//! optional **accept thread** feeds TCP connections into the same path, so
//! in-process and remote clients are indistinguishable past the transport.
//! One channel into the engine thread carries the connections' commands,
//! every round's events tagged with its request, and each round's
//! completion, which arrives after its last event.
//!
//! The engine thread keeps one [`Engine`] for the daemon's lifetime and
//! keeps up to `threads` admission *rounds* in flight on it, each for a
//! different request. A round is one budgeted `Engine::run` call over the
//! request's unfinished shards under a `slices_per_round` grant against the
//! shared artifact store, on a scoped thread of its own that is the call's
//! worker 0. When a kernel thread is free, the fair-share controller picks
//! among the requests with no round in flight, and the round takes its
//! share of the free threads as its kernel budget: all of them when no
//! other request waits, else an even split among the waiting requests, so
//! the budgets in flight never sum past `threads` and a lone client runs
//! exactly as with one round at a time. Unfinished shards park inside the
//! engine with their in-memory checkpoints and predictors, and the
//! engine's session cache keeps their deterministic prefixes warm, so a
//! request sliced into many rounds builds each prefix once, exactly like a
//! direct `run_fleet`.
//! Every slice boundary still persists a checkpoint, so a drained daemon's
//! successor resumes from the store. Every
//! [`FleetEvent`](hgnas_fleet::FleetEvent) is encoded once on the engine
//! thread, buffered (for re-attach after a disconnect) and streamed to the
//! attached connection; the buffer goes once the request's final frame
//! reaches a connection, and the engine thread forgets a delivered
//! request once 64 later ones were delivered.
//! The report a request eventually gets is bit-identical to `run_fleet` of
//! the same configs — however many rounds contention sliced it into, and
//! whatever ran beside them.
//!
//! Submits are validated at the door: a task the search would panic on is
//! answered with `Rejected` and never reaches the shared engine.

use crate::admission::{AdmissionController, TenantUsage};
use crate::client::SearchClient;
use crate::transport::{duplex, TcpTransport, Transport, TransportError};
use hgnas_fleet::wire::{self, ClientFrame, ServerFrame, WireReport, WireShardReport};
use hgnas_fleet::{
    persona_predictor_fingerprint, prefix_fingerprint, search_fingerprint, shard_specs,
    ArtifactKey, ArtifactStore, Engine, EngineReport, FleetConfig, FleetEvent, OracleConfig,
    PrefixKey, PruneReport, ShardId, ShardResult, ShardSpec, StoreError, PROTOCOL_VERSION,
};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Kernel-thread budget of the daemon's engine (0 is treated as 1),
    /// shared by the rounds in flight: each round of a different request
    /// takes its share when it starts, so up to `threads` requests run at
    /// once.
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
    /// on. Smaller grants interleave tenants more finely when more
    /// requests are runnable than `threads` lets run at once; the grant's
    /// slices are charged to the owning tenant's fair-share account.
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

/// What reaches the engine thread, all over its one channel, so the
/// request table and the admission controller have a single owner.
// Submit carries whole task/search configs; messages are one-shot.
#[allow(clippy::large_enum_variant)]
enum Msg {
    /// A connection's command.
    Command(Command),
    /// An event of the round in flight for `request_id`.
    Event { request_id: u64, event: FleetEvent },
    /// The round for `request_id`, which held `budget` kernel threads,
    /// ended; it arrives after the round's last event. A panic in the round
    /// is carried here, and the engine thread re-raises it.
    RoundDone {
        request_id: u64,
        budget: usize,
        result: std::thread::Result<Result<EngineReport, StoreError>>,
    },
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

/// How many delivered requests the engine thread remembers. A client
/// whose connection dropped just as its report went out re-attaches
/// within moments, while dozens of other requests finish in that time at
/// most; remembering every delivered request instead grows the daemon by
/// its final frame for its whole lifetime.
const RETAINED_REPORTS: usize = 64;

/// Engine-side per-request state.
struct RequestState {
    tenant: String,
    /// The connection currently streaming this request's events, if any.
    conn: Option<(u64, Arc<dyn Transport>)>,
    /// Next event sequence number. Equals `events.len()` until the final
    /// frame reaches an attached connection, which empties `events`.
    seq: u64,
    /// Every event frame emitted so far, encoded once; index == seq. Kept
    /// for replay to re-attaching clients until the final frame reaches an
    /// attached connection; a later attach gets the final frame alone.
    events: Vec<Vec<u8>>,
    /// The artifact and session keys of the request's shards, computed at
    /// submit: what the idle GC keeps while the request is remembered.
    keys: (Vec<ArtifactKey>, Vec<PrefixKey>),
    progress: Progress,
}

/// How far a request has got.
enum Progress {
    /// Unfinished: what its next round needs.
    Running(Work),
    /// The final Report (or terminal Rejected) frame, and whether it has
    /// reached a connection.
    Done { frame: Vec<u8>, delivered: bool },
}

/// An unfinished request's shards and results so far.
struct Work {
    specs: Arc<[ShardSpec]>,
    /// The request task's `k` and class count, for the report.
    k: usize,
    classes: usize,
    rounds: u64,
    /// Shards that already ran to completion in an earlier round, by
    /// request-local index. Later rounds schedule only the `None` slots,
    /// so a request with more shards than `slices_per_round` still
    /// converges: finished shards are never re-run (or re-charged) just
    /// to re-announce their outcome.
    finished: Vec<Option<ShardResult>>,
}

impl RequestState {
    /// Sends `frame` to the attached connection; whether it got there. A
    /// dead connection is just a detached client.
    fn send(&self, frame: &[u8]) -> bool {
        self.conn
            .as_ref()
            .is_some_and(|(_, t)| t.send(frame).is_ok())
    }

    /// Numbers, buffers and streams one event of the request.
    fn stream(&mut self, request_id: u64, event: FleetEvent) {
        let frame = wire::encode_server(&ServerFrame::Event {
            request_id,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        self.send(&frame);
        self.events.push(frame);
    }
}

/// The requests the engine thread knows: the unfinished ones, the finished
/// ones whose final frame has not reached a connection yet (kept until one
/// attaches), and the last [`RETAINED_REPORTS`] whose final frame has.
#[derive(Default)]
struct Requests {
    map: HashMap<u64, RequestState>,
    /// Delivered requests, oldest first.
    delivered: VecDeque<u64>,
}

impl Requests {
    /// Ends request `id` with its final frame and sends it to the attached
    /// connection, if any.
    fn finish(&mut self, id: u64, frame: Vec<u8>) {
        let Some(req) = self.map.get_mut(&id) else {
            return;
        };
        let sent = req.send(&frame);
        req.progress = Progress::Done {
            frame,
            delivered: false,
        };
        if sent {
            self.deliver(id);
        }
    }

    /// Records that `id`'s final frame reached a connection: its buffered
    /// events go, and past [`RETAINED_REPORTS`] delivered requests the
    /// oldest is forgotten, so a later attach to it is `unknown request`.
    fn deliver(&mut self, id: u64) {
        let Some(req) = self.map.get_mut(&id) else {
            return;
        };
        req.events = Vec::new();
        match &mut req.progress {
            Progress::Done { delivered, .. } if !*delivered => *delivered = true,
            _ => return,
        }
        self.delivered.push_back(id);
        if self.delivered.len() > RETAINED_REPORTS {
            if let Some(old) = self.delivered.pop_front() {
                self.map.remove(&old);
            }
        }
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
    cmd_tx: Sender<Msg>,
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
            let (shared, tx) = (Arc::clone(&shared), cmd_tx.clone());
            std::thread::spawn(move || engine_loop(&shared, &cmd_rx, &tx))
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

    /// Gracefully drains the daemon: every round in flight parks at its
    /// next slice boundary (checkpoints persisted), every connection
    /// receives a [`ServerFrame::Drain`] listing parked requests, and all
    /// daemon threads are joined.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.cmd_tx.send(Msg::Command(Command::Shutdown));
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
            let _ = self.cmd_tx.send(Msg::Command(Command::Shutdown));
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
    cmd_tx: &Sender<Msg>,
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
    cmd_tx: &Sender<Msg>,
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
                    // The engine thread sends `Accepted` once the request is
                    // in its table, so no attach can beat the request there.
                    let request_id = shared.next_request.fetch_add(1, Ordering::SeqCst);
                    interests += 1;
                    if cmd_tx
                        .send(Msg::Command(Command::Submit {
                            request_id,
                            conn: conn_id,
                            tenant: name,
                            priority,
                            k: task.k,
                            classes: task.classes(),
                            specs,
                        }))
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
                        .send(Msg::Command(Command::Attach {
                            request_id,
                            conn: conn_id,
                            tenant: name,
                            from_seq,
                        }))
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
    let _ = cmd_tx.send(Msg::Command(Command::Disconnect { conn: conn_id }));
    transport.close();
}

/// The engine: admission rounds, event fan-out, idle GC, drain.
///
/// Rounds run on scoped threads, one per round in flight, each taking its
/// share of the kernel budget when it starts: the whole free budget when
/// no other request waits, else an even split of it among the waiting
/// requests. The budgets of the rounds in flight never sum past `threads`.
fn engine_loop(shared: &Arc<Shared>, rx: &Receiver<Msg>, tx: &Sender<Msg>) -> DrainReport {
    let mut requests = Requests::default();
    let mut admission = AdmissionController::new();
    let engine = Engine::new(&shared.cfg.fleet_config(), Some(shared.store.clone()))
        .with_stop(Arc::clone(&shared.stop));
    let threads = shared.cfg.threads.max(1);
    // Kernel threads no round in flight holds.
    let mut free = threads;
    let mut gc_pending = false;
    let mut draining = false;
    std::thread::scope(|scope| loop {
        if !draining {
            while free > 0 {
                let Some(id) = admission.next() else { break };
                let Some((specs, pending)) = requests.map.get(&id).and_then(next_round) else {
                    admission.complete(id);
                    continue;
                };
                let budget = free.div_ceil(admission.waiting().min(free));
                admission.start(id);
                free -= budget;
                let grant =
                    (shared.cfg.preemption_stride > 0).then(|| shared.cfg.slices_per_round.max(1));
                let (engine, tx) = (&engine, tx.clone());
                scope.spawn(move || {
                    let emit = |event| {
                        let _ = tx.send(Msg::Event {
                            request_id: id,
                            event,
                        });
                    };
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        engine.run_with_sink(id, &specs, &pending, grant, budget, Some(&emit))
                    }));
                    let _ = tx.send(Msg::RoundDone {
                        request_id: id,
                        budget,
                        result,
                    });
                });
            }
        } else if free == threads {
            // Draining, and every round in flight has parked.
            break;
        }
        if gc_pending && !admission.has_pending() {
            run_gc(shared, &requests);
            gc_pending = false;
        }
        let Ok(first) = rx.recv_timeout(Duration::from_millis(200)) else {
            draining |= shared.stop.load(Ordering::SeqCst);
            continue;
        };
        // Absorb every queued message before the next pick, so the budget
        // is shared among every request submitted so far.
        for msg in std::iter::once(first).chain(rx.try_iter()) {
            match msg {
                Msg::Command(cmd) => {
                    draining |= handle_command(shared, &mut requests, &mut admission, cmd);
                }
                Msg::Event { request_id, event } => {
                    if let Some(req) = requests.map.get_mut(&request_id) {
                        req.stream(request_id, event);
                    }
                }
                Msg::RoundDone {
                    request_id,
                    budget,
                    result,
                } => {
                    free += budget;
                    // A round that panicked ends the engine loop.
                    let result = result.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    end_round(&mut requests, &mut admission, request_id, result);
                    gc_pending |= !admission.has_pending();
                }
            }
        }
        draining |= shared.stop.load(Ordering::SeqCst);
    });
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

/// The shards and the unfinished shard indices of a request's next
/// round; `None` when it has nothing left to run.
fn next_round(req: &RequestState) -> Option<(Arc<[ShardSpec]>, Vec<ShardId>)> {
    let Progress::Running(work) = &req.progress else {
        return None;
    };
    // Only shards without a finished result get scheduled: a finished
    // shard's outcome is carried in `work.finished`, so re-running it from
    // its final checkpoint would burn round budget without progress —
    // with more shards than `slices_per_round` that burn is unbounded
    // (no round could ever re-finish them all at once).
    let pending: Vec<ShardId> = work
        .finished
        .iter()
        .enumerate()
        .filter_map(|(i, f)| f.is_none().then_some(i))
        .collect();
    (!pending.is_empty()).then(|| (Arc::clone(&work.specs), pending))
}

/// The artifact and session keys of `specs`' shards: what the idle GC must
/// not sweep while their request is remembered.
fn live_keys(specs: &[ShardSpec]) -> (Vec<ArtifactKey>, Vec<PrefixKey>) {
    let mut artifacts = Vec::with_capacity(2 * specs.len());
    let mut sessions = Vec::with_capacity(specs.len());
    for spec in specs {
        artifacts.push(ArtifactKey {
            device: spec.config.device,
            fingerprint: search_fingerprint(&spec.task, &spec.config),
        });
        artifacts.push(ArtifactKey {
            device: spec.config.device,
            fingerprint: persona_predictor_fingerprint(
                &spec.task.predictor_context(),
                &spec.config.predictor,
                spec.config.persona.as_ref(),
            ),
        });
        sessions.push(PrefixKey {
            fingerprint: prefix_fingerprint(&spec.task, &spec.config),
        });
    }
    (artifacts, sessions)
}

/// Applies one command; returns `true` when the engine should drain.
fn handle_command(
    shared: &Arc<Shared>,
    requests: &mut Requests,
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
            let transport = shared
                .conns
                .lock()
                .expect("the connection table is only held for map updates")
                .get(&conn)
                .cloned();
            if let Some(t) = &transport {
                let _ = t.send(&wire::encode_server(&ServerFrame::Accepted {
                    request_id,
                    shards: specs.len(),
                }));
            }
            requests.map.insert(
                request_id,
                RequestState {
                    tenant,
                    conn: transport.map(|t| (conn, t)),
                    seq: 0,
                    events: Vec::new(),
                    keys: live_keys(&specs),
                    progress: Progress::Running(Work {
                        finished: specs.iter().map(|_| None).collect(),
                        specs: specs.into(),
                        k,
                        classes,
                        rounds: 0,
                    }),
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
            match requests.map.get_mut(&request_id) {
                None => reject("unknown request"),
                Some(req) if req.tenant != tenant => reject("tenant mismatch"),
                Some(req) => {
                    let start = usize::try_from(from_seq).unwrap_or(usize::MAX);
                    for frame in req.events.iter().skip(start.min(req.events.len())) {
                        let _ = transport.send(frame);
                    }
                    req.conn = Some((conn, Arc::clone(&transport)));
                    if let Progress::Done { frame, .. } = &req.progress {
                        if transport.send(frame).is_ok() {
                            requests.deliver(request_id);
                        }
                    }
                }
            }
        }
        Command::Disconnect { conn } => {
            for req in requests.map.values_mut() {
                if req.conn.as_ref().is_some_and(|(c, _)| *c == conn) {
                    req.conn = None;
                }
            }
        }
        Command::Shutdown => return true,
    }
    false
}

/// Folds a finished round of `request_id` into its request: records the
/// shards it finished and, once every shard has, builds the report.
fn end_round(
    requests: &mut Requests,
    admission: &mut AdmissionController,
    request_id: u64,
    result: Result<EngineReport, StoreError>,
) {
    let Some(RequestState {
        progress: Progress::Running(work),
        ..
    }) = requests.map.get_mut(&request_id)
    else {
        admission.complete(request_id);
        return;
    };
    work.rounds += 1;
    let frame = match result {
        // Store failure: terminal for the request, reported like a
        // rejection and replayed to late attachers.
        Err(e) => wire::encode_server(&ServerFrame::Rejected {
            request_id,
            reason: format!("artifact store error: {e}"),
        }),
        Ok(report) => {
            admission.charge(request_id, report.slices);
            for s in report.shards.into_iter().filter(|s| s.outcome.is_some()) {
                let i = s.shard;
                work.finished[i] = Some(s);
            }
            if work.finished.iter().any(Option::is_none) {
                return;
            }
            // Engine counters are cumulative across rounds, so each
            // finished result already carries the shard's totals. Scenario
            // shards may differ from the request-level task, so each
            // carries its own decode geometry.
            let shards = work
                .finished
                .iter_mut()
                .zip(work.specs.iter())
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
            wire::encode_server(&ServerFrame::Report {
                request_id,
                report: WireReport {
                    k: work.k,
                    classes: work.classes,
                    shards,
                    rounds: work.rounds,
                    slices: admission.charged(request_id),
                },
            })
        }
    };
    admission.complete(request_id);
    requests.finish(request_id, frame);
}

/// Idle-loop GC: sweep fingerprints no remembered request owns, prune to
/// the byte budget, broadcast the combined report.
fn run_gc(shared: &Arc<Shared>, requests: &Requests) {
    let Some(budget) = shared.cfg.store_budget_bytes else {
        return;
    };
    let mut live = Vec::new();
    let mut live_sessions = Vec::new();
    for req in requests.map.values() {
        live.extend_from_slice(&req.keys.0);
        live_sessions.extend_from_slice(&req.keys.1);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(conn: Option<(u64, Arc<dyn Transport>)>) -> RequestState {
        RequestState {
            tenant: "t".to_string(),
            conn,
            seq: 1,
            events: vec![vec![1]],
            keys: (Vec::new(), Vec::new()),
            progress: Progress::Running(Work {
                specs: Arc::new([]),
                k: 0,
                classes: 0,
                rounds: 1,
                finished: Vec::new(),
            }),
        }
    }

    /// The engine thread remembers the last `RETAINED_REPORTS` delivered
    /// requests; an older one is forgotten, so attaching to it is answered
    /// `unknown request`, while a report no connection has received yet
    /// stays however many others are delivered.
    #[test]
    fn a_delivered_request_past_the_bound_is_forgotten() {
        let (client, server_end) = duplex();
        let server_end: Arc<dyn Transport> = Arc::new(server_end);
        let mut requests = Requests::default();
        requests.map.insert(1, finished(None));
        requests.finish(1, vec![7]);
        let last = RETAINED_REPORTS as u64 + 2;
        for id in 2..=last {
            requests
                .map
                .insert(id, finished(Some((9, Arc::clone(&server_end)))));
            requests.finish(id, vec![7]);
            assert!(requests.map[&id].events.is_empty(), "delivered: events go");
            assert_eq!(client.recv_timeout(Duration::from_secs(5)), Ok(vec![7]));
        }
        assert!(!requests.map.contains_key(&2), "the oldest delivered went");
        assert!((3..=last).all(|id| requests.map.contains_key(&id)));
        assert!(
            requests.map.contains_key(&1),
            "an undelivered report waits for an attach"
        );
        assert_eq!(requests.map[&1].events, vec![vec![1]]);

        let dir =
            std::env::temp_dir().join(format!("hgnas-serve-retention-{}", std::process::id()));
        let shared = Arc::new(Shared {
            cfg: ServeConfig::default(),
            store: ArtifactStore::open(&dir).expect("store dir"),
            stop: Arc::default(),
            next_request: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
            conns: Mutex::new(HashMap::from([(9, server_end)])),
        });
        let mut admission = AdmissionController::new();
        let mut attach = |requests: &mut Requests, request_id| {
            let cmd = Command::Attach {
                request_id,
                conn: 9,
                tenant: "t".to_string(),
                from_seq: 0,
            };
            handle_command(&shared, requests, &mut admission, cmd);
        };
        attach(&mut requests, 2);
        let frame = client.recv_timeout(Duration::from_secs(5)).expect("answer");
        match wire::decode_server(&frame).expect("server frame") {
            ServerFrame::Rejected { reason, .. } => assert_eq!(reason, "unknown request"),
            other => panic!("expected a rejection, got {other:?}"),
        }
        // The undelivered request gets its buffered event and its final
        // frame, so it now counts as delivered, and the oldest remembered
        // delivered request goes.
        attach(&mut requests, 1);
        assert_eq!(client.recv_timeout(Duration::from_secs(5)), Ok(vec![1]));
        assert_eq!(client.recv_timeout(Duration::from_secs(5)), Ok(vec![7]));
        assert!(requests.map[&1].events.is_empty());
        assert!(!requests.map.contains_key(&3));
        assert_eq!(requests.map.len(), RETAINED_REPORTS);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
