//! Streaming fleet reports: the event stream the engine publishes and an
//! incremental Table-1-style renderer consuming it.
//!
//! The engine emits a [`FleetEvent`] whenever a shard makes observable
//! progress (started, generation boundary, Pareto-front change, preempted,
//! finished, failed). Events travel over a `std::sync::mpsc` channel
//! whose sender every worker of the call borrows; the caller of
//! [`crate::Engine::run`] is worker 0, so a live consumer runs on another
//! thread (or drains the unbounded queue after the call returns). Calls of
//! different requests may run at once on one engine, each with its own
//! stream; [`crate::Engine::run_with_sink`] hands events to a callback
//! instead, which the daemon uses to tag each event with its request on
//! one channel shared by every round in flight.
//! [`StreamingReporter`] is the built-in consumer, folding events into
//! per-shard rows and rendering a live snapshot table at any point — the
//! streaming counterpart of [`crate::FleetReport::summary_table`].

use crate::driver::ParetoPoint;
use hgnas_device::DeviceKind;
use std::fmt::Write as _;
use std::sync::mpsc::{self, Receiver, Sender};

/// An unbounded [`FleetEvent`] channel: hand the sender to
/// [`crate::run_fleet_with_events`] (or [`crate::Engine::run`]) and drain
/// the receiver from a consumer thread. The stream ends when the fleet run
/// returns and drops its sender.
pub fn channel() -> (Sender<FleetEvent>, Receiver<FleetEvent>) {
    mpsc::channel()
}

/// Index of a shard in its request's spec list — the report order, and
/// the numbering of every event [`crate::Engine::run`] streams.
pub type ShardId = usize;

/// What the engine's session cache did at a slice boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionAction {
    /// The shard's deterministic prefix (Stage 1 + supernet pre-training
    /// for multi-stage shards) was computed and cached. Exactly one of
    /// these per shard means preemption never replayed the prefix; more
    /// than one means the memory budget forced replays.
    Built,
    /// A resident session was reused — the slice skipped the prefix
    /// entirely and resumed straight at its checkpointed generation.
    Hit,
    /// A session spilled to the artifact store was reloaded (weights
    /// decoded, nothing retrained).
    Restored,
    /// Another shard was already building the same prefix, so this slice
    /// stepped aside: it parked on the build (budget refunded) until the
    /// build landed and re-queued it, and its worker moved on to other
    /// ready shards meanwhile — the overlap that keeps single-flight dedup
    /// from serialising the fleet.
    Deferred,
    /// The session memory budget pushed this shard's session out of the
    /// cache; `spilled` says whether it went to the artifact store (a
    /// later slice restores it) or was dropped (a later slice replays —
    /// today's degraded path, bit-identical either way).
    Evicted {
        /// Whether the evicted session was persisted to the store.
        spilled: bool,
    },
}

/// One observable step of a fleet run.
#[derive(Debug, Clone)]
pub enum FleetEvent {
    /// A shard ran its first time slice.
    ShardStarted {
        /// The shard.
        shard: ShardId,
        /// Its target device.
        device: DeviceKind,
        /// The generation a persisted checkpoint resumed it from, if any.
        resumed_from: Option<usize>,
        /// Whether its latency predictor came from the artifact store.
        warm_predictor: bool,
    },
    /// A generation boundary of a shard's main search loop (emitted at
    /// the engine's checkpoint stride, plus slice ends).
    GenerationDone {
        /// The shard.
        shard: ShardId,
        /// Its target device.
        device: DeviceKind,
        /// Completed generations.
        generation: usize,
        /// The configured generation budget.
        iterations: usize,
        /// Best objective score so far, if anything has been scored.
        best_score: Option<f64>,
        /// Simulated search time so far, hours.
        clock_hours: f64,
    },
    /// A shard's latency/accuracy Pareto front changed at a slice
    /// boundary.
    ParetoUpdated {
        /// The shard.
        shard: ShardId,
        /// Its target device.
        device: DeviceKind,
        /// The new front, fastest first.
        front: Vec<ParetoPoint>,
    },
    /// A shard's time slice expired; it re-queued behind the other ready
    /// shards and will resume from its checkpoint.
    ShardPreempted {
        /// The shard.
        shard: ShardId,
        /// Its target device.
        device: DeviceKind,
        /// Completed generations at preemption.
        generation: usize,
    },
    /// A shard ran to completion.
    ShardFinished {
        /// The shard.
        shard: ShardId,
        /// Its target device.
        device: DeviceKind,
        /// Found-model latency on the device, ms.
        latency_ms: f64,
        /// Found-model one-shot accuracy.
        accuracy: f64,
        /// Found-model objective score.
        score: f64,
        /// DGCNN reference latency, ms.
        reference_ms: f64,
        /// Simulated search time, hours.
        search_hours: f64,
        /// Evaluator cache hit rate (hits + imported over submissions), %.
        hit_pct: f64,
        /// Candidates served from an imported warm-start cache.
        imported: u64,
    },
    /// A shard died on an artifact-store error; the fleet run will report
    /// the error after draining.
    ShardFailed {
        /// The shard.
        shard: ShardId,
        /// Its target device.
        device: DeviceKind,
        /// The error, stringified.
        error: String,
    },
    /// Session-cache activity: built / hit / restored / deferred when a
    /// slice resumed, evicted when the memory budget pushed a parked
    /// shard's session out.
    SessionCache {
        /// The shard the session belongs to.
        shard: ShardId,
        /// Its target device.
        device: DeviceKind,
        /// What happened.
        action: SessionAction,
    },
}

impl FleetEvent {
    /// The shard the event belongs to.
    pub fn shard(&self) -> ShardId {
        match self {
            FleetEvent::ShardStarted { shard, .. }
            | FleetEvent::GenerationDone { shard, .. }
            | FleetEvent::ParetoUpdated { shard, .. }
            | FleetEvent::ShardPreempted { shard, .. }
            | FleetEvent::ShardFinished { shard, .. }
            | FleetEvent::ShardFailed { shard, .. }
            | FleetEvent::SessionCache { shard, .. } => *shard,
        }
    }
}

/// Per-shard row state the reporter accumulates.
#[derive(Debug, Clone)]
struct Row {
    device: DeviceKind,
    generation: usize,
    iterations: usize,
    best_score: Option<f64>,
    clock_hours: f64,
    front_size: usize,
    preemptions: u64,
    session_builds: u64,
    session_hits: u64,
    session_restores: u64,
    session_deferrals: u64,
    session_evictions: u64,
    resumed_from: Option<usize>,
    warm_predictor: bool,
    finished: Option<Finished>,
    failed: Option<String>,
}

#[derive(Debug, Clone)]
struct Finished {
    latency_ms: f64,
    accuracy: f64,
    score: f64,
    reference_ms: f64,
    search_hours: f64,
    hit_pct: f64,
    imported: u64,
}

/// Folds [`FleetEvent`]s into per-shard progress rows and renders
/// incremental snapshot tables (the paper's Table 1 shape, grown a status
/// column). Feed it from a channel:
///
/// ```ignore
/// let mut rep = StreamingReporter::new(fleet.devices.len());
/// for ev in rx.iter() {
///     rep.observe(&ev);
///     println!("{}", rep.snapshot());
/// }
/// ```
#[derive(Debug)]
pub struct StreamingReporter {
    rows: Vec<Option<Row>>,
    events_seen: u64,
}

impl StreamingReporter {
    /// A reporter expecting `shards` shards (rows render in shard order).
    pub fn new(shards: usize) -> Self {
        StreamingReporter {
            rows: vec![None; shards],
            events_seen: 0,
        }
    }

    /// Folds one event in.
    pub fn observe(&mut self, ev: &FleetEvent) {
        self.events_seen += 1;
        let shard = ev.shard();
        if shard >= self.rows.len() {
            self.rows.resize(shard + 1, None);
        }
        let device = match ev {
            FleetEvent::ShardStarted { device, .. }
            | FleetEvent::GenerationDone { device, .. }
            | FleetEvent::ParetoUpdated { device, .. }
            | FleetEvent::ShardPreempted { device, .. }
            | FleetEvent::ShardFinished { device, .. }
            | FleetEvent::ShardFailed { device, .. }
            | FleetEvent::SessionCache { device, .. } => *device,
        };
        let row = self.rows[shard].get_or_insert(Row {
            device,
            generation: 0,
            iterations: 0,
            best_score: None,
            clock_hours: 0.0,
            front_size: 0,
            preemptions: 0,
            session_builds: 0,
            session_hits: 0,
            session_restores: 0,
            session_deferrals: 0,
            session_evictions: 0,
            resumed_from: None,
            warm_predictor: false,
            finished: None,
            failed: None,
        });
        match ev {
            FleetEvent::ShardStarted {
                resumed_from,
                warm_predictor,
                ..
            } => {
                row.resumed_from = *resumed_from;
                row.warm_predictor = *warm_predictor;
            }
            FleetEvent::GenerationDone {
                generation,
                iterations,
                best_score,
                clock_hours,
                ..
            } => {
                row.generation = row.generation.max(*generation);
                row.iterations = *iterations;
                if best_score.is_some() {
                    row.best_score = *best_score;
                }
                row.clock_hours = *clock_hours;
            }
            FleetEvent::ParetoUpdated { front, .. } => row.front_size = front.len(),
            FleetEvent::ShardPreempted { generation, .. } => {
                row.preemptions += 1;
                row.generation = row.generation.max(*generation);
            }
            FleetEvent::ShardFinished {
                latency_ms,
                accuracy,
                score,
                reference_ms,
                search_hours,
                hit_pct,
                imported,
                ..
            } => {
                row.finished = Some(Finished {
                    latency_ms: *latency_ms,
                    accuracy: *accuracy,
                    score: *score,
                    reference_ms: *reference_ms,
                    search_hours: *search_hours,
                    hit_pct: *hit_pct,
                    imported: *imported,
                });
            }
            FleetEvent::ShardFailed { error, .. } => row.failed = Some(error.clone()),
            // Hits, restores and builds are three *disjoint* outcomes of
            // claiming a session at a slice boundary; deferrals are the
            // fourth (the slice stepped aside and will claim again).
            FleetEvent::SessionCache { action, .. } => match action {
                SessionAction::Built => row.session_builds += 1,
                SessionAction::Hit => row.session_hits += 1,
                SessionAction::Restored => row.session_restores += 1,
                SessionAction::Deferred => row.session_deferrals += 1,
                SessionAction::Evicted { .. } => row.session_evictions += 1,
            },
        }
    }

    /// Prefix computations (session builds) per shard so far — the
    /// "supernet pre-training ran N times" counter. With an adequate
    /// session memory budget this stays at 1 per shard no matter how
    /// finely the engine slices.
    pub fn session_builds(&self, shard: ShardId) -> u64 {
        self.rows
            .get(shard)
            .and_then(Option::as_ref)
            .map_or(0, |r| r.session_builds)
    }

    /// Slices of `shard` that resumed from a session restored off the
    /// artifact store (disjoint from hits and builds).
    pub fn session_restores(&self, shard: ShardId) -> u64 {
        self.rows
            .get(shard)
            .and_then(Option::as_ref)
            .map_or(0, |r| r.session_restores)
    }

    /// Slices of `shard` that stepped aside while another shard built the
    /// shared prefix (each re-queued and ran later).
    pub fn session_deferrals(&self, shard: ShardId) -> u64 {
        self.rows
            .get(shard)
            .and_then(Option::as_ref)
            .map_or(0, |r| r.session_deferrals)
    }

    /// Events folded so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Shards that have reported a terminal event (finished or failed).
    pub fn terminal_shards(&self) -> usize {
        self.rows
            .iter()
            .flatten()
            .filter(|r| r.finished.is_some() || r.failed.is_some())
            .count()
    }

    /// Whether every expected shard has reported a terminal event.
    pub fn is_complete(&self) -> bool {
        !self.rows.is_empty()
            && self.rows.iter().all(|r| {
                r.as_ref()
                    .is_some_and(|r| r.finished.is_some() || r.failed.is_some())
            })
    }

    /// Renders the current state as an incremental Table-1-style snapshot:
    /// one row per shard with search progress, best-so-far numbers and a
    /// status column.
    pub fn snapshot(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<6} {:<14} {:>9} {:>10} {:>8} {:>7} {:>7} {:>6} {:>7}  Status",
            "Shard", "Device", "Gen", "Found ms", "Speedup", "Acc", "Score", "Hit %", "Front",
        );
        for (i, row) in self.rows.iter().enumerate() {
            let Some(r) = row else {
                let _ = writeln!(
                    s,
                    "{:<6} {:<14} {:>9} {:>10} {:>8} {:>7} {:>7} {:>6} {:>7}  queued",
                    i, "-", "-", "-", "-", "-", "-", "-", "-"
                );
                continue;
            };
            let gen = format!("{}/{}", r.generation, r.iterations.max(r.generation));
            if let Some(f) = &r.finished {
                let _ = writeln!(
                    s,
                    "{:<6} {:<14} {:>9} {:>10.2} {:>7.1}x {:>7.3} {:>7.3} {:>5.1}% {:>7}  done in {:.2} h{}",
                    i,
                    r.device.name(),
                    gen,
                    f.latency_ms,
                    f.reference_ms / f.latency_ms.max(1e-9),
                    f.accuracy,
                    f.score,
                    f.hit_pct,
                    r.front_size,
                    f.search_hours,
                    if f.imported > 0 {
                        format!(" ({} imported)", f.imported)
                    } else {
                        String::new()
                    }
                );
            } else if let Some(e) = &r.failed {
                let _ = writeln!(
                    s,
                    "{:<6} {:<14} {:>9} {:>10} {:>8} {:>7} {:>7} {:>6} {:>7}  FAILED: {e}",
                    i,
                    r.device.name(),
                    gen,
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    r.front_size
                );
            } else {
                let best = r
                    .best_score
                    .map_or_else(|| "-".to_string(), |b| format!("{b:.3}"));
                let mut status = if r.preemptions > 0 {
                    format!("searching ({}x preempted)", r.preemptions)
                } else {
                    "searching".to_string()
                };
                // More than one build means the memory budget forced the
                // prefix (Stage 1 + pre-training) to replay.
                if r.session_builds > 1 {
                    let _ = write!(status, " [{}x prefix replay]", r.session_builds - 1);
                }
                let _ = writeln!(
                    s,
                    "{:<6} {:<14} {:>9} {:>10} {:>8} {:>7} {:>7} {:>6} {:>7}  {status}",
                    i,
                    r.device.name(),
                    gen,
                    "-",
                    "-",
                    "-",
                    best,
                    "-",
                    r.front_size
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reporter_folds_a_shard_lifecycle() {
        let mut rep = StreamingReporter::new(2);
        assert!(!rep.is_complete());
        rep.observe(&FleetEvent::ShardStarted {
            shard: 0,
            device: DeviceKind::Rtx3080,
            resumed_from: None,
            warm_predictor: false,
        });
        rep.observe(&FleetEvent::GenerationDone {
            shard: 0,
            device: DeviceKind::Rtx3080,
            generation: 2,
            iterations: 8,
            best_score: Some(0.5),
            clock_hours: 0.1,
        });
        rep.observe(&FleetEvent::ShardPreempted {
            shard: 0,
            device: DeviceKind::Rtx3080,
            generation: 2,
        });
        // Session-cache lifecycle: a deferral behind another shard's
        // build, one build, one hit, one restore off the store, then a
        // budget eviction forcing a second build — a prefix replay.
        for action in [
            SessionAction::Deferred,
            SessionAction::Built,
            SessionAction::Hit,
            SessionAction::Restored,
            SessionAction::Evicted { spilled: false },
            SessionAction::Built,
        ] {
            rep.observe(&FleetEvent::SessionCache {
                shard: 0,
                device: DeviceKind::Rtx3080,
                action,
            });
        }
        assert_eq!(rep.session_builds(0), 2);
        assert_eq!(rep.session_restores(0), 1, "restores counted apart");
        assert_eq!(rep.session_deferrals(0), 1);
        assert_eq!(rep.session_builds(1), 0, "untouched shard");
        let snap = rep.snapshot();
        assert!(snap.contains("2/8"), "snapshot: {snap}");
        assert!(snap.contains("preempted"), "snapshot: {snap}");
        assert!(snap.contains("1x prefix replay"), "snapshot: {snap}");
        assert!(snap.contains("queued"), "shard 1 not yet started: {snap}");

        rep.observe(&FleetEvent::ShardFinished {
            shard: 0,
            device: DeviceKind::Rtx3080,
            latency_ms: 2.0,
            accuracy: 0.8,
            score: 0.9,
            reference_ms: 6.0,
            search_hours: 1.5,
            hit_pct: 25.0,
            imported: 3,
        });
        rep.observe(&FleetEvent::ShardFailed {
            shard: 1,
            device: DeviceKind::JetsonTx2,
            error: "disk on fire".into(),
        });
        assert_eq!(rep.terminal_shards(), 2);
        assert!(rep.is_complete());
        let snap = rep.snapshot();
        assert!(snap.contains("3.0x"), "speedup rendered: {snap}");
        assert!(snap.contains("(3 imported)"), "imports rendered: {snap}");
        assert!(snap.contains("FAILED: disk on fire"), "snapshot: {snap}");
        assert_eq!(rep.events_seen(), 11);
    }
}
