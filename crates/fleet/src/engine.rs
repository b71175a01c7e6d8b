//! The fleet engine: multiplex search shards over one host's kernel
//! thread budget with generation-granular preemptive time slices, and keep
//! everything warm across calls.
//!
//! Shards wait in a shared ready queue; a bounded pool of workers pulls
//! the next ready shard (work-stealing at shard granularity — an idle
//! worker always takes the oldest runnable shard), runs it for a *time
//! slice* of [`FleetConfig::preemption_stride`] generations, checkpoints it
//! at the boundary, and re-queues it behind its peers. The caller of
//! [`Engine::run`] is worker 0 and scoped threads run the others, so a
//! one-shard call spawns no thread; a worker that panics stops the others
//! and its panic reaches the caller. Because
//! checkpoint/resume is bit-identical (the core contract every prior PR
//! locked in), preemption is transparent: any (shard count × thread budget
//! × stride) cell produces per-shard results bit-identical to a serial
//! [`Hgnas::run_with`] of the same options. Each worker hands its slice its
//! [`share`] of the call's kernel thread budget, so shards across workers
//! and matmuls inside a shard never oversubscribe the budget;
//! `eval_threads` is bit-transparent, so the split never changes results
//! either.
//!
//! An [`Engine`] lives across calls. Each [`Engine::run`] serves shards of
//! one request under its own kernel budget, optionally under a slice
//! grant, and calls for different requests may run at once from different
//! threads: they share the session cache, the oracles and the parked
//! shards, and each call's workers take only its own shards. Shards a
//! grant does not finish **park inside the engine** — in-memory
//! checkpoint, latency predictor and counters, keyed by (request, shard
//! index) — and the next call resumes them without a store round-trip.
//! The engine also owns the measurement oracles (one per device profile)
//! and the **session cache**: each deterministic prefix (dataset, Stage 1
//! and supernet pre-training), keyed by [`prefix_fingerprint`], so every
//! shard whose prefix-relevant inputs match — whatever its device,
//! objective weights or Stage-2 seed, and whichever call runs it — shares
//! one resident (or spilled) session. Builds are **single-flight**: while
//! one worker builds a prefix, any other slice wanting it defers — it
//! parks on the build (its budget unit refunded) until the build lands and
//! re-queues it, and its worker takes other work, so a prefix build
//! overlaps other shards' search slices instead of serialising the fleet.
//! At the end of every call the engine drops the sessions and oracles that
//! no parked shard and no shard of another call in flight still needs.
//! Checkpoints still reach the artifact store at every slice boundary, so
//! a fresh engine over the same store resumes a parked shard
//! bit-identically (daemon drain, mid-run kill).
//!
//! [`crate::run_fleet`] is a fresh engine serving one request to
//! completion under [`FleetConfig::threads`]; the `hgnas-serve` daemon
//! keeps one engine for its lifetime and runs each admission round as one
//! budgeted call, rounds of different requests at once. Progress streams
//! out as [`FleetEvent`]s numbered by the request's own shard indices.

use crate::artifacts::{
    persona_predictor_fingerprint, prefix_fingerprint, search_fingerprint, ArtifactKey,
    ArtifactStore, PrefixKey, StoreError,
};
use crate::codec::CodecError;
use crate::driver::{FleetConfig, ParetoPoint};
use crate::events::{FleetEvent, SessionAction, ShardId};
use crate::oracle::{MeasurementOracle, OracleConfig, OracleStats};
use hgnas_core::{
    pareto_front_nd, Checkpoint, Genome, Hgnas, LatencyMode, MeasureBackend, PretrainedPredictor,
    RunOptions, ScoredCandidate, SearchConfig, SearchOutcome, SessionState, Strategy, TaskConfig,
};
use hgnas_device::{DeviceKind, DeviceProfile};
use hgnas_ops::OpType;
use hgnas_predictor::LatencyPredictor;
use hgnas_tensor::threads::{share, with_kernel_threads};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError};

/// One unit of schedulable work: a full HGNAS search of `task` under
/// `config` (the device and seed live inside the config, so a fleet can
/// queue many shards per device — different seeds, tasks, constraint
/// sets).
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Display label for reports (scenario name; defaults to the config's
    /// persona/device label).
    pub scenario: String,
    /// The task to search.
    pub task: TaskConfig,
    /// The search configuration (device, seed, EA budgets, ...).
    pub config: SearchConfig,
    /// A prior run's score cache to warm-start the shard's Stage-2
    /// evaluator with (see `hgnas_core::RunOptions::imported_cache` for
    /// the bit-identity contract). Multi-stage shards only.
    pub imported_cache: Option<Vec<(Vec<OpType>, ScoredCandidate)>>,
}

impl ShardSpec {
    /// A shard with no warm-start import, labelled by its persona/device.
    pub fn new(task: TaskConfig, config: SearchConfig) -> Self {
        ShardSpec {
            scenario: config.device_label(),
            task,
            config,
            imported_cache: None,
        }
    }

    /// Overrides the shard's report label.
    pub fn with_scenario(mut self, label: impl Into<String>) -> Self {
        self.scenario = label.into();
        self
    }
}

/// Aggregate counters of the engine's session cache since the engine
/// started. `hits`, `builds` and `restores` are **disjoint**: every
/// executed slice claims its session through exactly one of the three, so
/// they sum to the executed slice count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionCacheStats {
    /// Slices that reused a resident session (no prefix work at all).
    pub hits: u64,
    /// Sessions computed from scratch (Stage 1 + supernet pre-training
    /// for multi-stage shards). One per distinct *prefix* means
    /// preemption never replayed the expensive work — shards differing
    /// only in non-prefix fields share a single build.
    pub builds: u64,
    /// Sessions reloaded from an artifact-store spill (weights decoded,
    /// nothing retrained).
    pub restores: u64,
    /// Sessions evicted under the memory budget.
    pub evictions: u64,
    /// Evictions that wrote a spill artifact (the remainder were dropped:
    /// one-stage sessions, or no store attached).
    pub spills: u64,
    /// Slices deferred because their prefix was already being built (or
    /// spilled) by another worker (single-flight): no duplicate work, no
    /// budget consumed — each waited, parked, until the build landed, while
    /// its worker went on to other shards.
    pub deferrals: u64,
    /// One-shot accuracies scored, summed over every session the engine
    /// held ([`SessionState::accuracy_scored`]): one per distinct valid
    /// genome per session build or restore, however many shards share it.
    pub accuracy_scored: u64,
    /// Accuracy lookups the sessions' memos served without scoring
    /// ([`SessionState::accuracy_reused`]).
    pub accuracy_reused: u64,
}

/// Coarse wall-clock breakdown of an engine's calls, aggregated across all
/// workers and shards (phases running on two workers at once both count,
/// so the sum can exceed the wall-clock).
///
/// This is the re-profiling instrument for the perf roadmap: after each
/// optimisation lands, the fleet bench records these numbers so the next
/// bottleneck is measured, not guessed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseTimings {
    /// Cold latency-predictor training (zero when every shard warm-started
    /// from the artifact store).
    pub predictor_train_ms: f64,
    /// Deterministic-prefix builds (dataset + Stage 1 + supernet
    /// pre-training) the session cache could not avoid.
    pub session_build_ms: f64,
    /// Sessions decoded from artifact-store spills.
    pub session_restore_ms: f64,
    /// The search itself (`Hgnas::run_with`), minus checkpoint-sink
    /// persistence performed inside it.
    pub search_ms: f64,
    /// Artifact-store writes: checkpoint sink, predictor snapshots, score
    /// caches.
    pub persist_ms: f64,
}

/// Lock-free nanosecond accumulators behind [`PhaseTimings`]; workers add
/// into these concurrently.
#[derive(Default)]
struct PhaseClock {
    predictor_train: AtomicU64,
    session_build: AtomicU64,
    session_restore: AtomicU64,
    search: AtomicU64,
    persist: AtomicU64,
}

impl PhaseClock {
    /// Runs `f`, adding its wall-clock to `slot`.
    fn time<R>(slot: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let t = std::time::Instant::now();
        let out = f();
        slot.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn snapshot(&self) -> PhaseTimings {
        let ms = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e6;
        PhaseTimings {
            predictor_train_ms: ms(&self.predictor_train),
            session_build_ms: ms(&self.session_build),
            session_restore_ms: ms(&self.session_restore),
            search_ms: ms(&self.search),
            persist_ms: ms(&self.persist),
        }
    }
}

/// A shard's identity across engine calls: its request and its index in
/// that request's report order.
type ShardKey = (u64, ShardId);

/// The shard whose slice built a session. The session can outlive the
/// call that built it, so evictions are attributed by the stable key, not
/// by a position in some call's shard list.
#[derive(Debug, Clone, Copy)]
struct Owner {
    key: ShardKey,
    device: DeviceKind,
}

/// A session the engine holds. When its last handle drops, its accuracy
/// counters move into the cache's totals, so [`SessionCacheStats`] sums
/// over every session the engine ever held.
struct HeldSession {
    session: SessionState,
    released: Arc<AccuracyTotals>,
}

impl Drop for HeldSession {
    fn drop(&mut self) {
        let s = &self.session;
        let r = &self.released;
        r.scored.fetch_add(s.accuracy_scored(), Ordering::Relaxed);
        r.reused.fetch_add(s.accuracy_reused(), Ordering::Relaxed);
    }
}

/// Accuracy counters of the sessions the engine has dropped.
#[derive(Default)]
struct AccuracyTotals {
    scored: AtomicU64,
    reused: AtomicU64,
}

/// One resident session.
struct SessionEntry {
    owner: Owner,
    session: Arc<HeldSession>,
    bytes: u64,
    /// Whether a spill artifact for this session already exists — a
    /// session's spillable image never changes, so one write is enough for
    /// any number of evictions.
    on_disk: bool,
}

/// The budgeted LRU of [`SessionState`]s the engine keeps across time
/// slices and calls, keyed by **prefix fingerprint** so every shard
/// sharing a deterministic prefix (same task, strategy, Stage-1 EA, epoch
/// counts, seed, eval budget — whatever its device, Stage-2 seed or
/// objective weights) shares one resident session.
///
/// Builds are **single-flight**: [`SessionCache::claim`] hands exactly
/// one caller a [`BuildGuard`] per missing key; every other slice wanting
/// that key while the build is in flight gets [`SessionClaim::Deferred`]
/// and parks on the key instead of building a duplicate — which is also
/// what lets a prefix build overlap other shards' search slices on the
/// worker budget. The key re-queues its parked slices when it lands: when
/// the build publishes or aborts, or when an evicted session's spill is
/// written.
struct SessionCache {
    budget: Option<u64>,
    inner: Mutex<SessionCacheState>,
    released: Arc<AccuracyTotals>,
}

#[derive(Default)]
struct SessionCacheState {
    /// Resident sessions by prefix fingerprint — O(1) lookups however
    /// many shards the fleet multiplexes.
    entries: HashMap<u64, SessionEntry>,
    /// LRU order over `entries` keys: front is the least recently used.
    /// Kept separately so eviction order is exactly the old Vec cache's
    /// (insertion order, refreshed on hit).
    order: Vec<u64>,
    /// Total resident bytes (maintained incrementally).
    resident_bytes: u64,
    /// Prefix fingerprints some worker is currently building, or spilling
    /// after an eviction, each with the deferred slices parked on it.
    in_flight: HashMap<u64, Vec<Waiter>>,
    stats: SessionCacheStats,
}

impl SessionCacheState {
    /// Ends `fp`'s build or spill, handing back the slices parked on it.
    fn land(&mut self, fp: u64) -> Vec<Waiter> {
        self.in_flight.remove(&fp).unwrap_or_default()
    }
}

/// A deferred slice parked on an in-flight prefix: the ready queue of the
/// call it belongs to, and its index there.
struct Waiter {
    queue: Sender<Job>,
    job: usize,
}

/// Re-queues parked slices behind the call's other ready slices.
fn wake(waiters: Vec<Waiter>) {
    for w in waiters {
        // A queue whose workers are gone has nothing left to run.
        let _ = w.queue.send(Job::Slice(w.job));
    }
}

/// What [`SessionCache::claim`] resolved to.
enum SessionClaim<'a> {
    /// A resident session; the LRU position was refreshed and the hit
    /// counted.
    Ready(Arc<HeldSession>),
    /// The key is absent and the caller is now its only builder: restore
    /// or build the session, then [`BuildGuard::fulfil`]. Dropping the
    /// guard un-fulfilled (store error, panic) releases the key so
    /// another worker can claim it.
    Build(BuildGuard<'a>),
    /// Another worker is building (or spilling) the key right now; the
    /// slice is parked on it and re-queued when it lands, and the caller
    /// should refund the slice's budget unit and take other work.
    Deferred,
}

/// Exclusive build permission for one prefix key (see
/// [`SessionClaim::Build`]).
struct BuildGuard<'a> {
    cache: &'a SessionCache,
    key: PrefixKey,
    fulfilled: bool,
}

impl BuildGuard<'_> {
    /// Publishes the built/restored session, releases the in-flight
    /// claim, re-queues the slices parked on it, and applies the byte
    /// budget (spilling evicted sessions to `store` when possible, and
    /// re-queueing the slices parked on a victim once its spill lands).
    /// Returns `(owner, spilled)` per eviction for event emission.
    fn fulfil(
        mut self,
        owner: Owner,
        session: Arc<HeldSession>,
        on_disk: bool,
        store: Option<&ArtifactStore>,
    ) -> Result<Vec<(Owner, bool)>, StoreError> {
        self.fulfilled = true;
        let bytes = session.session.approx_bytes();
        let fp = self.key.fingerprint;
        // Evictions are decided under the lock but *spilled* outside it:
        // serializing supernet weights to disk under the only cache mutex
        // would stall every other worker's slice boundary. Until its spill
        // lands, a victim stays marked in flight, so a racing claimant
        // parks and then restores it instead of building it again.
        let mut to_spill = Vec::new();
        let parked = {
            let mut st = self.cache.inner.lock().unwrap();
            let parked = st.land(fp);
            if let std::collections::hash_map::Entry::Vacant(slot) = st.entries.entry(fp) {
                slot.insert(SessionEntry {
                    owner,
                    session,
                    bytes,
                    on_disk,
                });
                st.order.push(fp);
                st.resident_bytes += bytes;
            }
            if let Some(budget) = self.cache.budget {
                while st.resident_bytes > budget && !st.order.is_empty() {
                    let victim = st.order.remove(0);
                    let e = st.entries.remove(&victim).expect("order tracks entries");
                    st.resident_bytes -= e.bytes;
                    st.stats.evictions += 1;
                    let spill = store.is_some() && !e.on_disk;
                    if spill {
                        st.in_flight.insert(victim, Vec::new());
                    }
                    to_spill.push((victim, e, spill));
                }
            }
            parked
        };
        wake(parked);
        let mut evicted = Vec::new();
        let mut spills = 0;
        let mut result = Ok(());
        for (victim, e, spill) in &mut to_spill {
            if *spill && result.is_ok() {
                if let (Some(store), Some(snap)) = (store, e.session.session.export()) {
                    let key = PrefixKey {
                        fingerprint: *victim,
                    };
                    result = store.save_session(&key, &snap).map(|_| ());
                    e.on_disk = result.is_ok();
                    spills += u64::from(e.on_disk);
                }
            }
            evicted.push((e.owner, e.on_disk));
        }
        let mut st = self.cache.inner.lock().unwrap();
        st.stats.spills += spills;
        let mut parked = Vec::new();
        for (victim, _, spill) in &to_spill {
            if *spill {
                parked.extend(st.land(*victim));
            }
        }
        drop(st);
        wake(parked);
        result?;
        Ok(evicted)
    }
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if !self.fulfilled {
            // No panic in a drop: a worker that panicked under the lock
            // left every entry whole, and the parked slices must still run.
            let mut st = self
                .cache
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let parked = st.land(self.key.fingerprint);
            drop(st);
            wake(parked);
        }
    }
}

impl SessionCache {
    fn new(budget: Option<u64>) -> Self {
        SessionCache {
            budget,
            inner: Mutex::default(),
            released: Arc::default(),
        }
    }

    /// Wraps a built or restored session for the cache to hold.
    fn hold(&self, session: SessionState) -> Arc<HeldSession> {
        Arc::new(HeldSession {
            session,
            released: Arc::clone(&self.released),
        })
    }

    /// Resolves `key` to a resident session, a build permission, or a
    /// deferral (see [`SessionClaim`]); a deferred slice, job `job` of the
    /// call whose ready queue is `queue`, is parked on the key.
    fn claim(&self, key: PrefixKey, queue: &Sender<Job>, job: usize) -> SessionClaim<'_> {
        let fp = key.fingerprint;
        let mut guard = self.inner.lock().unwrap();
        let st = &mut *guard;
        if let Some(entry) = st.entries.get(&fp) {
            let session = Arc::clone(&entry.session);
            // Refresh the LRU position (same order discipline as the
            // pre-map Vec cache: move-to-back on hit).
            let pos = st.order.iter().position(|&f| f == fp).expect("order");
            st.order.remove(pos);
            st.order.push(fp);
            st.stats.hits += 1;
            return SessionClaim::Ready(session);
        }
        match st.in_flight.entry(fp) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Vec::new());
                SessionClaim::Build(BuildGuard {
                    cache: self,
                    key,
                    fulfilled: false,
                })
            }
            // Someone else is building this prefix: rather than block a
            // worker on another worker's build, park the slice until the
            // build lands.
            std::collections::hash_map::Entry::Occupied(mut parked) => {
                parked.get_mut().push(Waiter {
                    queue: queue.clone(),
                    job,
                });
                st.stats.deferrals += 1;
                SessionClaim::Deferred
            }
        }
    }

    /// Drops every resident session whose prefix is not in `keep`.
    fn retain(&self, keep: &HashSet<u64>) {
        let mut st = self.inner.lock().unwrap();
        let SessionCacheState {
            entries,
            order,
            resident_bytes,
            ..
        } = &mut *st;
        order.retain(|fp| keep.contains(fp));
        entries.retain(|fp, e| {
            let kept = keep.contains(fp);
            if !kept {
                *resident_bytes -= e.bytes;
            }
            kept
        });
    }

    fn note(&self, count: impl FnOnce(&mut SessionCacheStats)) {
        count(&mut self.inner.lock().unwrap().stats);
    }

    fn stats(&self) -> SessionCacheStats {
        let st = self.inner.lock().unwrap();
        let resident = |count: fn(&SessionState) -> u64| -> u64 {
            st.entries.values().map(|e| count(&e.session.session)).sum()
        };
        SessionCacheStats {
            accuracy_scored: self.released.scored.load(Ordering::Relaxed)
                + resident(SessionState::accuracy_scored),
            accuracy_reused: self.released.reused.load(Ordering::Relaxed)
                + resident(SessionState::accuracy_reused),
            ..st.stats
        }
    }
}

/// Where one shard stands after an engine call.
#[derive(Debug)]
pub struct ShardResult {
    /// The shard's index in its request's report order.
    pub shard: ShardId,
    /// Its scenario label (from the spec).
    pub scenario: String,
    /// Its target device.
    pub device: DeviceKind,
    /// The search outcome — bit-identical to a serial
    /// [`Hgnas::run_with`] of the same options. `None` while the shard is
    /// parked (the call's slice grant ran out first, or a drain stopped
    /// it).
    pub outcome: Option<SearchOutcome>,
    /// Latency/accuracy Pareto front over every constraint-satisfying
    /// candidate the shard scored so far, fastest first.
    pub pareto: Vec<ParetoPoint>,
    /// Predictor-training epochs the engine actually executed for this
    /// shard (0 on a warm start from the artifact store).
    pub predictor_epochs_run: usize,
    /// Whether the predictor came from the artifact store.
    pub warm_predictor: bool,
    /// The generation a persisted checkpoint resumed the shard from when
    /// the engine first picked it up.
    pub resumed_from_generation: Option<usize>,
    /// Time slices the shard consumed across every call so far (deferred
    /// slices are not counted — they did no work and their budget unit
    /// was refunded).
    pub slices: u64,
    /// How many times this shard's slices computed the deterministic
    /// prefix from scratch (Stage 1 + supernet pre-training for
    /// multi-stage shards). With an adequate session memory budget, at
    /// most 1 across **all shards sharing the prefix** — every extra unit
    /// is a replay the budget forced.
    pub prefix_builds: u64,
    /// Slices that reused a *resident* session. Disjoint from
    /// `session_restores` and `prefix_builds`; the three sum to `slices`.
    pub session_hits: u64,
    /// Slices that reloaded a spilled session from the artifact store
    /// (weights decoded, nothing retrained). Counted separately from
    /// `session_hits` so hit-rates reflect true cache residency.
    pub session_restores: u64,
    /// Slices deferred because another worker was already building this
    /// shard's prefix (single-flight). Not part of the `slices` sum.
    pub session_deferrals: u64,
}

/// What one [`Engine::run`] call produced.
#[derive(Debug)]
pub struct EngineReport {
    /// The call's shards, in the order they were passed.
    pub shards: Vec<ShardResult>,
    /// Slices executed by this call — what a budgeted host charges.
    pub slices: u64,
    /// Counters of the engine's oracles, summed since each oracle
    /// started (`None` when no parked or running shard measured).
    pub oracle_stats: Option<OracleStats>,
    /// Session-cache counters since the engine started.
    pub session_stats: SessionCacheStats,
    /// Where the engine's wall-clock went since it started, summed across
    /// workers.
    pub phase_timings: PhaseTimings,
}

/// Mutable per-shard state carried between time slices — and, parked,
/// between calls.
#[derive(Default)]
struct ShardState {
    predictor: Option<PretrainedPredictor>,
    warm_predictor: bool,
    predictor_epochs_run: usize,
    /// In-memory checkpoint between slices (faster than a store
    /// round-trip and present even without a store).
    checkpoint: Option<Checkpoint>,
    /// Whether the store has been probed for a resume checkpoint.
    store_probed: bool,
    resumed_from_generation: Option<usize>,
    started: bool,
    slices: u64,
    prefix_builds: u64,
    session_hits: u64,
    session_restores: u64,
    session_deferrals: u64,
    /// The prefix fingerprint and (measured shards) the device profile
    /// the shard needs: what a parked shard keeps alive in the engine.
    prefix: Option<u64>,
    measured: Option<DeviceProfile>,
    /// `(latency bits, accuracy bits)` signature of the last announced
    /// Pareto front, for change detection.
    last_front: Vec<(u64, u64)>,
    finished: Option<ShardResult>,
}

impl ShardState {
    /// The result of a shard that has not finished (yet).
    fn parked_result(&self, shard: ShardId, spec: &ShardSpec) -> ShardResult {
        ShardResult {
            shard,
            scenario: spec.scenario.clone(),
            device: spec.config.device,
            outcome: None,
            pareto: self
                .checkpoint
                .as_ref()
                .map(checkpoint_pareto)
                .unwrap_or_default(),
            predictor_epochs_run: self.predictor_epochs_run,
            warm_predictor: self.warm_predictor,
            resumed_from_generation: self.resumed_from_generation,
            slices: self.slices,
            prefix_builds: self.prefix_builds,
            session_hits: self.session_hits,
            session_restores: self.session_restores,
            session_deferrals: self.session_deferrals,
        }
    }
}

/// What the ready queue carries.
enum Job {
    /// Run one slice of the call's `i`-th shard.
    Slice(usize),
    /// Worker shutdown pill.
    Stop,
}

/// Runs its closure when dropped while its thread unwinds.
struct OnUnwind<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnUnwind<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            (self.0)();
        }
    }
}

/// What one call to `run_slice` did.
enum SliceOutcome {
    /// The shard ran to completion.
    Finished,
    /// The slice expired; the shard re-queues behind its peers with its
    /// checkpoint retained.
    Preempted,
    /// Another worker was building this shard's prefix (single-flight):
    /// nothing ran, the shard is parked on the build, which re-queues it
    /// when it lands, and the consumed budget unit is refunded.
    Deferred,
}

/// The long-lived fleet engine. See the module docs.
pub struct Engine {
    /// Generations per time slice; `0` runs every shard unpreempted.
    preemption_stride: usize,
    /// Checkpoint cadence within a slice (0 is treated as 1).
    checkpoint_every: usize,
    oracle: OracleConfig,
    store: Option<ArtifactStore>,
    stop: Option<Arc<AtomicBool>>,
    sessions: SessionCache,
    /// What the calls share besides the session cache. Taken before the
    /// cache's own lock wherever both are held.
    live: Mutex<Live>,
    phases: PhaseClock,
}

/// What locking [`Engine::live`] expects: it is held only to look up and
/// update its maps, so no panic leaves it poisoned.
const LIVE_LOCK: &str = "the engine's live state is only held for map updates";

/// The engine's state shared by the calls in flight.
#[derive(Default)]
struct Live {
    /// Oracles by device profile, started on first use.
    oracles: Vec<(DeviceProfile, MeasurementOracle)>,
    /// Unfinished shards between calls.
    parked: HashMap<ShardKey, ShardState>,
    /// The prefix fingerprints and measured profiles of the shards of each
    /// call in flight, by request: what another call's end must keep.
    running: HashMap<u64, (Vec<u64>, Vec<DeviceProfile>)>,
}

/// Builds the Pareto front from a checkpoint's score cache: every valid
/// scored candidate competes on (latency, accuracy), with energy and
/// peak-memory axes joining exactly when the shard's objective priced
/// them (then any candidate carries them). With only the two classic
/// axes, [`pareto_front_nd`] membership matches the 2-D
/// [`hgnas_core::pareto_front`] exactly, so legacy fronts are
/// bit-identical.
fn checkpoint_pareto(cp: &Checkpoint) -> Vec<ParetoPoint> {
    let entries: Vec<(&[OpType], &ScoredCandidate)> = match cp {
        Checkpoint::MultiStage(cp) => cp.cache.iter().map(|(g, c)| (g.ops(), c)).collect(),
        Checkpoint::OneStage(cp) => cp.cache.iter().map(|(g, c)| (g.ops(), c)).collect(),
    };
    let valid: Vec<_> = entries.into_iter().filter(|(_, c)| c.valid).collect();
    let has_energy = valid.iter().any(|(_, c)| c.energy_mj.is_some());
    let has_mem = valid.iter().any(|(_, c)| c.peak_mem_mb.is_some());
    let mut maximize = vec![false, true];
    let points: Vec<Vec<f64>> = valid
        .iter()
        .map(|(_, c)| {
            let mut p = vec![c.latency_ms, c.accuracy];
            if has_energy {
                p.push(c.energy_mj.unwrap_or(0.0));
            }
            if has_mem {
                p.push(c.peak_mem_mb.unwrap_or(0.0));
            }
            p
        })
        .collect();
    if has_energy {
        maximize.push(false);
    }
    if has_mem {
        maximize.push(false);
    }
    let mut front: Vec<ParetoPoint> = pareto_front_nd(&points, &maximize)
        .into_iter()
        .map(|i| ParetoPoint {
            latency_ms: valid[i].1.latency_ms,
            accuracy: valid[i].1.accuracy,
            energy_mj: valid[i].1.energy_mj,
            peak_mem_mb: valid[i].1.peak_mem_mb,
            genome: valid[i].0.to_vec(),
        })
        .collect();
    front.sort_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms));
    front
}

/// Where a call's workers hand their events, if anywhere.
type Sink<'a> = Option<&'a (dyn Fn(FleetEvent) + Sync)>;

fn emit(events: Sink<'_>, ev: FleetEvent) {
    if let Some(sink) = events {
        sink(ev);
    }
}

impl Engine {
    /// An engine with `fleet`'s preemption stride, checkpoint cadence,
    /// oracle tuning and session memory budget (the fleet's thread budget,
    /// device and scenario lists are per call, see [`Engine::run`]).
    /// `store` enables predictor/checkpoint/score-cache persistence,
    /// session spills and store-based resume.
    pub fn new(fleet: &FleetConfig, store: Option<ArtifactStore>) -> Self {
        Engine {
            preemption_stride: fleet.preemption_stride,
            checkpoint_every: fleet.checkpoint_every,
            oracle: fleet.oracle.clone(),
            store,
            stop: None,
            sessions: SessionCache::new(fleet.session_memory_budget),
            live: Mutex::default(),
            phases: PhaseClock::default(),
        }
    }

    /// Wires in an external drain flag: once set, workers stop picking up
    /// new slices at the next boundary — *before* charging the grant — and
    /// unfinished shards park exactly as if the grant had run out. The
    /// `hgnas-serve` daemon uses this for graceful shutdown.
    pub fn with_stop(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Runs the `pending` shards of request `request` (indices into
    /// `specs`, the request's shards in report order) with a kernel budget
    /// of `threads` (0 is treated as 1) until each finishes or, with a
    /// `grant`, until `grant` slices have run. Unfinished shards park in
    /// the engine and resume from there on a later call with the same
    /// request id; results come back in `pending` order. `events` streams
    /// [`FleetEvent`]s, numbered by `specs` index, to a consumer on another
    /// thread.
    ///
    /// Calls for different requests may run at once, each on its own
    /// thread and under its own budget; see [`Engine::run_with_sink`].
    ///
    /// # Errors
    ///
    /// The first [`StoreError`] any shard hit; the remaining shards stop at
    /// their next slice boundary and the call's shards are dropped rather
    /// than parked.
    ///
    /// # Panics
    ///
    /// Panics if `pending` is empty or names a shard outside `specs`, or if
    /// another call for `request` is in flight, and re-raises a worker's
    /// panic once the other workers have stopped.
    pub fn run(
        &self,
        request: u64,
        specs: &[ShardSpec],
        pending: &[ShardId],
        grant: Option<u64>,
        threads: usize,
        events: Option<Sender<FleetEvent>>,
    ) -> Result<EngineReport, StoreError> {
        let send = events.map(|tx| {
            move |ev| {
                // A consumer that hung up is not the engine's problem.
                let _ = tx.send(ev);
            }
        });
        let sink = send.as_ref().map(|f| f as &(dyn Fn(FleetEvent) + Sync));
        self.run_with_sink(request, specs, pending, grant, threads, sink)
    }

    /// [`Engine::run`] handing each event to `sink` instead of a channel,
    /// from whichever of the call's workers emitted it: the daemon tags
    /// each event with its request there.
    ///
    /// Concurrent calls share the session cache (a prefix one call is
    /// building parks the other call's slices that want it), the oracles
    /// and the parked shards. A call's end keeps what any shard parked or
    /// in another call in flight needs, so no call rebuilds its prefix or
    /// loses its oracle because another call ended.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`].
    ///
    /// # Panics
    ///
    /// As [`Engine::run`].
    pub fn run_with_sink(
        &self,
        request: u64,
        specs: &[ShardSpec],
        pending: &[ShardId],
        grant: Option<u64>,
        threads: usize,
        sink: Option<&(dyn Fn(FleetEvent) + Sync)>,
    ) -> Result<EngineReport, StoreError> {
        assert!(
            !pending.is_empty(),
            "an engine call needs at least one shard"
        );
        let needs = (
            pending
                .iter()
                .map(|&i| prefix_fingerprint(&specs[i].task, &specs[i].config))
                .collect::<Vec<_>>(),
            pending
                .iter()
                .map(|&i| &specs[i].config)
                .filter(|cfg| cfg.latency_mode == LatencyMode::Measured)
                .map(SearchConfig::device_profile)
                .collect::<Vec<_>>(),
        );
        let states: Vec<Mutex<ShardState>> = {
            let mut live = self.live.lock().expect(LIVE_LOCK);
            for p in &needs.1 {
                if !live.oracles.iter().any(|o| o.0 == *p) {
                    let oracle =
                        MeasurementOracle::start_profiles(std::slice::from_ref(p), &self.oracle);
                    live.oracles.push((p.clone(), oracle));
                }
            }
            assert!(
                live.running.insert(request, needs).is_none(),
                "one call per request at a time"
            );
            pending
                .iter()
                .map(|&i| Mutex::new(live.parked.remove(&(request, i)).unwrap_or_default()))
                .collect()
        };
        // A call that unwinds is no longer in flight.
        let _unregister = OnUnwind(|| {
            let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
            live.running.remove(&request);
        });
        let n = pending.len();
        let threads = threads.max(1);
        let workers = threads.min(n);
        let (tx, rx) = mpsc::channel();
        for j in 0..n {
            let _ = tx.send(Job::Slice(j));
        }
        let rx = Mutex::new(rx);
        let remaining = AtomicUsize::new(n);
        let executed = AtomicU64::new(0);
        let budget = grant.map(AtomicU64::new);
        let failure: Mutex<Option<StoreError>> = Mutex::new(None);
        let abort = AtomicBool::new(false);
        let stop_workers = || {
            for _ in 0..workers {
                let _ = tx.send(Job::Stop);
            }
        };
        let finish_one = || {
            if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                stop_workers();
            }
        };
        let work = |kernel_budget: usize| {
            // A worker that unwinds stops the others, so its panic reaches
            // the caller instead of leaving them blocked on the queue.
            let _on_unwind = OnUnwind(|| {
                abort.store(true, Ordering::SeqCst);
                stop_workers();
            });
            loop {
                // Its own statement, so the queue lock is released before
                // the slice runs and idle workers wait on it meanwhile.
                let job = rx.lock().expect("held only around recv").recv();
                // Exit on a Stop pill or channel teardown alike.
                let Ok(Job::Slice(j)) = job else { break };
                // Locked before the budget is charged: a deferred slice can
                // be re-queued before its worker has refunded its unit, and
                // that worker holds this lock until it has.
                let mut st = states[j].lock().unwrap();
                // The drain flag is checked *before* the budget decrement so
                // a drained call leaves the remaining grant intact (nothing
                // is charged for slices that never ran).
                let stopping = abort.load(Ordering::SeqCst)
                    || self.stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst));
                let budget_left = !stopping
                    && budget.as_ref().is_none_or(|b| {
                        b.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                            .is_ok()
                    });
                if stopping || !budget_left {
                    // Parked: leaves the rotation with its latest checkpoint
                    // persisted/retained.
                    finish_one();
                    continue;
                }
                let i = pending[j];
                let ran = self.run_slice(
                    (request, i),
                    (&tx, j),
                    &specs[i],
                    &mut st,
                    kernel_budget,
                    sink,
                );
                match ran {
                    Ok(SliceOutcome::Finished) => {
                        drop(st);
                        executed.fetch_add(1, Ordering::SeqCst);
                        finish_one();
                    }
                    Ok(SliceOutcome::Preempted) => {
                        drop(st);
                        executed.fetch_add(1, Ordering::SeqCst);
                        let _ = tx.send(Job::Slice(j));
                    }
                    Ok(SliceOutcome::Deferred) => {
                        // The slice did no work and waits, parked, for its
                        // prefix: hand its budget unit back before releasing
                        // its state, so a deferral can never starve a
                        // budgeted call of real slices.
                        if let Some(b) = budget.as_ref() {
                            b.fetch_add(1, Ordering::SeqCst);
                        }
                        drop(st);
                    }
                    Err(e) => {
                        emit(
                            sink,
                            FleetEvent::ShardFailed {
                                shard: i,
                                device: specs[i].config.device,
                                error: e.to_string(),
                            },
                        );
                        failure.lock().unwrap().get_or_insert(e);
                        abort.store(true, Ordering::SeqCst);
                        drop(st);
                        finish_one();
                    }
                }
            }
        };
        // The calling thread is worker 0; workers <= threads, so every
        // share is >= 1.
        std::thread::scope(|s| {
            let work = &work;
            let handles: Vec<_> = (1..workers)
                .map(|w| s.spawn(move || work(share(threads, workers, w))))
                .collect();
            work(share(threads, workers, 0));
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        let failure = failure.into_inner().unwrap();
        let mut live = self.live.lock().expect(LIVE_LOCK);
        let oracle_stats = live
            .oracles
            .iter()
            .map(|(_, o)| o.stats())
            .reduce(|a, b| OracleStats {
                requests: a.requests + b.requests,
                retries: a.retries + b.retries,
                injected_faults: a.injected_faults + b.injected_faults,
            });
        live.running.remove(&request);
        let mut shards = Vec::with_capacity(n);
        for (&i, st) in pending.iter().zip(states) {
            let st = st.into_inner().unwrap();
            if let Some(done) = st.finished {
                shards.push(done);
            } else if failure.is_none() {
                shards.push(st.parked_result(i, &specs[i]));
                live.parked.insert((request, i), st);
            }
        }
        // Keep only what a parked shard will resume with or another call in
        // flight is running with. Still under the lock, so a call starting
        // meanwhile either is in `running` already or finds the cache
        // already trimmed.
        let Live {
            oracles,
            parked,
            running,
        } = &mut *live;
        let keep: HashSet<u64> = parked
            .values()
            .filter_map(|s| s.prefix)
            .chain(running.values().flat_map(|r| r.0.iter().copied()))
            .collect();
        self.sessions.retain(&keep);
        oracles.retain(|(p, _)| {
            parked.values().any(|s| s.measured.as_ref() == Some(p))
                || running.values().any(|r| r.1.contains(p))
        });
        drop(live);
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(EngineReport {
            shards,
            slices: executed.into_inner(),
            oracle_stats,
            session_stats: self.sessions.stats(),
            phase_timings: self.phases.snapshot(),
        })
    }

    /// Runs one time slice of shard `key`, job `job.1` on the call's ready
    /// queue `job.0` (where a deferral parks it). See [`SliceOutcome`] for
    /// the three ways it can return.
    fn run_slice(
        &self,
        key: ShardKey,
        job: (&Sender<Job>, usize),
        spec: &ShardSpec,
        st: &mut ShardState,
        kernel_budget: usize,
        events: Sink<'_>,
    ) -> Result<SliceOutcome, StoreError> {
        let shard = key.1;
        let store = self.store.as_ref();
        let phases = &self.phases;
        let mut cfg = spec.config.clone();
        // Bit-transparent by the evaluator contract, so the engine is free
        // to re-split the budget as the worker pool shrinks.
        cfg.eval_threads = kernel_budget;
        let device = cfg.device;

        // Predictor: once per shard, reused across every later slice
        // (artifact store first, training second — exactly the serial
        // path, so warm or cold the outcome is unchanged).
        if cfg.latency_mode == LatencyMode::Predictor && st.predictor.is_none() {
            let key = ArtifactKey {
                device,
                fingerprint: persona_predictor_fingerprint(
                    &spec.task.predictor_context(),
                    &cfg.predictor,
                    cfg.persona.as_ref(),
                ),
            };
            let mut pretrained = None;
            if let Some(store) = store {
                if let Some(snap) = store.load_predictor(&key)? {
                    let (p, stats) = LatencyPredictor::from_snapshot(&snap);
                    pretrained = Some(PretrainedPredictor {
                        predictor: Arc::new(p),
                        stats,
                    });
                    st.warm_predictor = true;
                }
            }
            if pretrained.is_none() {
                let (p, stats) = PhaseClock::time(&phases.predictor_train, || {
                    with_kernel_threads(cfg.eval_threads, || {
                        LatencyPredictor::train_with_profile(
                            &cfg.device_profile(),
                            &spec.task.predictor_context(),
                            &cfg.predictor,
                        )
                    })
                });
                st.predictor_epochs_run = cfg.predictor.epochs;
                if let Some(store) = store {
                    PhaseClock::time(&phases.persist, || {
                        store.save_predictor(&key, &p.snapshot(&stats))
                    })?;
                }
                pretrained = Some(PretrainedPredictor {
                    predictor: Arc::new(p),
                    stats,
                });
            }
            st.predictor = pretrained;
        }

        let search_key = ArtifactKey {
            device,
            fingerprint: search_fingerprint(&spec.task, &cfg),
        };

        // Resume source: the in-memory checkpoint from the previous slice,
        // else (first slice only) whatever the store persisted.
        let resume = match st.checkpoint.take() {
            Some(cp) => Some(cp),
            None if !st.store_probed => {
                st.store_probed = true;
                match store {
                    Some(store) => {
                        let cp = store.load_checkpoint(&search_key)?;
                        // The search fingerprint covers the strategy, so
                        // only a planted file or a hash collision puts the
                        // other strategy's checkpoint in this slot; resuming
                        // it would panic the search.
                        if cp.as_ref().is_some_and(|cp| cp.strategy() != cfg.strategy) {
                            return Err(StoreError::Codec(CodecError::Invalid(
                                "checkpoint of another search strategy",
                            )));
                        }
                        st.resumed_from_generation = cp.as_ref().map(Checkpoint::generation);
                        cp
                    }
                    None => None,
                }
            }
            None => None,
        };

        if !st.started {
            st.started = true;
            emit(
                events,
                FleetEvent::ShardStarted {
                    shard,
                    device,
                    resumed_from: st.resumed_from_generation,
                    warm_predictor: st.warm_predictor,
                },
            );
        }

        // Session: the shard's deterministic prefix (dataset, Stage-1
        // winners, pre-trained supernet), resident across slices and calls
        // AND shared across every shard with the same prefix fingerprint,
        // so a resumed slice skips straight to its checkpointed generation.
        // Cache → store spill → fresh build, in that order; every path is
        // bit-identical, later ones just pay more. Builds are
        // single-flight: a second shard wanting an in-flight prefix
        // parks its slice on the build instead of duplicating the work.
        let prefix_key = PrefixKey {
            fingerprint: prefix_fingerprint(&spec.task, &cfg),
        };
        st.prefix = Some(prefix_key.fingerprint);
        let hgnas = Hgnas::new(spec.task.clone(), cfg);
        let session = match self.sessions.claim(prefix_key, job.0, job.1) {
            SessionClaim::Ready(session) => {
                st.session_hits += 1;
                emit(
                    events,
                    FleetEvent::SessionCache {
                        shard,
                        device,
                        action: SessionAction::Hit,
                    },
                );
                session
            }
            SessionClaim::Deferred => {
                // Put the resume checkpoint back untouched — the deferred
                // slice re-runs from exactly this state later.
                st.checkpoint = resume;
                st.session_deferrals += 1;
                emit(
                    events,
                    FleetEvent::SessionCache {
                        shard,
                        device,
                        action: SessionAction::Deferred,
                    },
                );
                return Ok(SliceOutcome::Deferred);
            }
            SessionClaim::Build(guard) => {
                let mut restored = None;
                if let Some(store) = store {
                    if let Some(snap) = store.load_session(&prefix_key)? {
                        restored = Some(PhaseClock::time(&phases.session_restore, || {
                            self.sessions.hold(SessionState::restore(
                                spec.task.clone(),
                                hgnas.config().clone(),
                                snap,
                            ))
                        }));
                    }
                }
                let on_disk = restored.is_some();
                let (session, action) = match restored {
                    Some(session) => {
                        st.session_restores += 1;
                        self.sessions.note(|s| s.restores += 1);
                        (session, SessionAction::Restored)
                    }
                    None => {
                        st.prefix_builds += 1;
                        self.sessions.note(|s| s.builds += 1);
                        let built = PhaseClock::time(&phases.session_build, || {
                            self.sessions.hold(hgnas.prepare_session())
                        });
                        (built, SessionAction::Built)
                    }
                };
                emit(
                    events,
                    FleetEvent::SessionCache {
                        shard,
                        device,
                        action,
                    },
                );
                let me = Owner { key, device };
                let evicted = guard.fulfil(me, Arc::clone(&session), on_disk, store)?;
                // Evictions of another request's session would be numbered
                // in that request's shard order; they count in the cache
                // stats but are not streamed to this request.
                for (owner, spilled) in evicted.into_iter().filter(|(o, _)| o.key.0 == key.0) {
                    emit(
                        events,
                        FleetEvent::SessionCache {
                            shard: owner.key.1,
                            device: owner.device,
                            action: SessionAction::Evicted { spilled },
                        },
                    );
                }
                session
            }
        };

        let start_gen = resume.as_ref().map(Checkpoint::generation).unwrap_or(0);
        let iterations = hgnas.config().ea_stage2.iterations;
        let abort_after = (self.preemption_stride > 0)
            .then(|| start_gen + self.preemption_stride)
            .filter(|&g| g < iterations);

        let mut sink_err: Option<StoreError> = None;
        // Local persist accumulator: `phases.persist` is shared with the
        // other workers, so a cross-run delta of it would charge *their*
        // store writes against *this* shard's search time.
        let mut sink_persist_ns: u64 = 0;
        let mut sink = |cp: &Checkpoint| {
            if sink_err.is_none() {
                if let Some(store) = store {
                    let t = std::time::Instant::now();
                    let r = match cp {
                        Checkpoint::MultiStage(cp) => {
                            store.save_checkpoint(&search_key, &spec.task, cp)
                        }
                        Checkpoint::OneStage(cp) => {
                            store.save_checkpoint(&search_key, &spec.task, cp)
                        }
                    };
                    let ns = t.elapsed().as_nanos() as u64;
                    sink_persist_ns += ns;
                    phases.persist.fetch_add(ns, Ordering::Relaxed);
                    if let Err(e) = r {
                        sink_err = Some(e);
                    }
                }
            }
            emit(
                events,
                FleetEvent::GenerationDone {
                    shard,
                    device,
                    generation: cp.generation(),
                    iterations,
                    best_score: cp.best_score(),
                    clock_hours: cp.clock_ms() / 3.6e6,
                },
            );
        };
        let want_sink = store.is_some() || events.is_some();
        // The import is only needed on the shard's first slice: from then
        // on the un-promoted remainder rides in the resume checkpoint's
        // warm cache, so re-cloning the donor every slice would be pure
        // overhead (re-importing is idempotent but not free).
        let imported = match (&spec.imported_cache, hgnas.config().strategy, st.slices) {
            (Some(c), Strategy::MultiStage, 0) => Some(c.clone()),
            _ => None,
        };
        // Measured shards go through their profile's oracle, which `run`
        // started for them.
        let mut backend: Option<Arc<dyn MeasureBackend>> = None;
        if hgnas.config().latency_mode == LatencyMode::Measured {
            let profile = hgnas.config().device_profile();
            let client = {
                let live = self.live.lock().expect(LIVE_LOCK);
                let (_, oracle) = live
                    .oracles
                    .iter()
                    .find(|(p, _)| *p == profile)
                    .expect("run starts an oracle per measured profile");
                oracle.client_for(&profile)
            };
            backend = Some(Arc::new(client));
            st.measured = Some(profile);
        }
        // Search time is run_with's wall-clock minus whatever the sink
        // spent persisting checkpoints inside it.
        let search_t = std::time::Instant::now();
        let out = hgnas.run_with(RunOptions {
            backend,
            predictor: st.predictor.clone(),
            resume,
            checkpoint_sink: want_sink.then_some(&mut sink as &mut dyn FnMut(&Checkpoint)),
            checkpoint_every: self.checkpoint_every,
            abort_after_generation: abort_after,
            imported_cache: imported,
            session: Some(&session.session),
        });
        let search_ns = (search_t.elapsed().as_nanos() as u64).saturating_sub(sink_persist_ns);
        phases.search.fetch_add(search_ns, Ordering::Relaxed);
        if let Some(e) = sink_err {
            return Err(e);
        }
        st.slices += 1;

        // Announce front changes at every slice boundary.
        if let Some(cp) = &out.checkpoint {
            if events.is_some() {
                let front = checkpoint_pareto(cp);
                let sig: Vec<(u64, u64)> = front
                    .iter()
                    .map(|p| (p.latency_ms.to_bits(), p.accuracy.to_bits()))
                    .collect();
                if sig != st.last_front {
                    st.last_front = sig;
                    emit(
                        events,
                        FleetEvent::ParetoUpdated {
                            shard,
                            device,
                            front,
                        },
                    );
                }
            }
        }

        match out.outcome {
            None => {
                emit(
                    events,
                    FleetEvent::ShardPreempted {
                        shard,
                        device,
                        generation: out.checkpoint.as_ref().map_or(0, Checkpoint::generation),
                    },
                );
                st.checkpoint = out.checkpoint;
                Ok(SliceOutcome::Preempted)
            }
            Some(outcome) => {
                // Final persistence: the sink already wrote the last
                // checkpoint; multi-stage runs also publish their score
                // cache for future warm starts.
                if let (Some(store), Some(Checkpoint::MultiStage(cp))) =
                    (store, out.checkpoint.as_ref())
                {
                    PhaseClock::time(&phases.persist, || {
                        store.save_score_cache(&search_key, &spec.task, cp.functions, &cp.cache)
                    })?;
                }
                st.checkpoint = out.checkpoint;
                let stats = outcome.eval_stats;
                emit(
                    events,
                    FleetEvent::ShardFinished {
                        shard,
                        device,
                        latency_ms: outcome.best.latency_ms,
                        accuracy: outcome.best.supernet_accuracy,
                        score: outcome.best.score,
                        reference_ms: outcome.reference_ms,
                        search_hours: outcome.search_hours,
                        hit_pct: stats.map_or(0.0, |e| {
                            100.0 * (e.hits + e.imported) as f64 / e.submitted.max(1) as f64
                        }),
                        imported: stats.map_or(0, |e| e.imported),
                    },
                );
                let mut result = st.parked_result(shard, spec);
                result.outcome = Some(outcome);
                st.finished = Some(result);
                Ok(SliceOutcome::Finished)
            }
        }
    }
}
