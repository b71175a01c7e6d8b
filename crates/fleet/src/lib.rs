//! `hgnas-fleet` — the multi-device HGNAS search service.
//!
//! The paper's headline result is one architecture *per hardware target*;
//! this crate turns the single-device library into a service that searches
//! a whole device fleet at once:
//!
//! - [`oracle`]: the **measurement oracle** — measured-mode latency
//!   queries answered on the calling thread for each device profile, with
//!   deterministic per-request RNG streams, a fault-injection hook, and
//!   retries of transient [`hgnas_device::MeasureError`]s. Noise comes
//!   from the caller's generator state, advanced only when an attempt
//!   resolves, so routing a search through the oracle is bit-transparent.
//! - [`engine`]: the **fleet engine** — a long-lived [`Engine`] that
//!   multiplexes search shards (possibly many per device: seeds, tasks,
//!   constraint sets) over a bounded kernel-thread budget with
//!   work-stealing, generation-granular preemptive time slices.
//!   Checkpoint/resume at slice boundaries makes preemption transparent:
//!   every cell of (shard count × thread budget × stride) is bit-identical
//!   to serial runs. Unfinished shards park inside the engine between
//!   calls (checkpoint, predictor, counters), and a budgeted **session
//!   cache** ([`FleetConfig::session_memory_budget`]) keeps each
//!   deterministic prefix — Stage-1 winners plus the pre-trained supernet
//!   — resident across slices and calls, keyed by [`prefix_fingerprint`]
//!   so every shard sharing a prefix (same task + Stage-1 parameters, any
//!   device/objective/Stage-2 seed) shares one session. Builds are
//!   single-flight: concurrent claimants of the same prefix defer and run
//!   other shards while one build proceeds. Evicted sessions spill to the
//!   artifact store and restore without retraining.
//! - [`events`]: **streaming fleet reports** — the engine publishes
//!   [`FleetEvent`]s (shard started / generation done / Pareto updated /
//!   preempted / finished) over a channel; [`StreamingReporter`] folds
//!   them into incremental Table-1-style snapshots.
//! - [`driver`]: the **fleet driver** — the blocking API, a fresh engine
//!   serving one request ([`run_fleet`]), merging per-shard outcomes into
//!   a report with Pareto fronts and a cross-device summary table (the
//!   paper's Table 1 shape). [`shard_specs`] turns a device list or
//!   scenario list into shards for both the driver and the daemon.
//! - [`artifacts`] + [`codec`]: the **cross-run artifact store** — a small
//!   versioned binary codec (no serde; the shims stay offline) in which
//!   every persisted, sent or fingerprinted type is described once
//!   ([`codec::Wire`]), persisting predictor weights, evaluator score
//!   caches and search checkpoints (multi-stage *and* one-stage), so a
//!   killed search resumes
//!   bit-identically, a second run on the same device skips predictor
//!   training entirely, and a later run can warm-start its evaluator from
//!   a prior run's score cache (`eval_stats.imported`) without changing
//!   the searched Pareto front.
//! - [`wire`]: the **serve wire protocol** — typed client/server frames
//!   (hello, submit, attach, streamed events, final reports) over the
//!   same CRC-sealed codec, with a one-byte protocol version checked
//!   before any payload is believed. The `hgnas-serve` daemon speaks
//!   this over an in-process duplex transport or TCP.
//!
//! # Example
//!
//! ```no_run
//! use hgnas_core::{SearchConfig, TaskConfig};
//! use hgnas_device::DeviceKind;
//! use hgnas_fleet::{run_fleet, ArtifactStore, FleetConfig};
//!
//! let task = TaskConfig::tiny(42);
//! let base = SearchConfig::fast(DeviceKind::Rtx3080);
//! let fleet = FleetConfig::new(vec![
//!     DeviceKind::Rtx3080,
//!     DeviceKind::JetsonTx2,
//!     DeviceKind::RaspberryPi3B,
//! ]);
//! let store = ArtifactStore::open("fleet-artifacts").unwrap();
//! let report = run_fleet(&task, &base, &fleet, Some(&store)).unwrap();
//! println!("{}", report.summary_table());
//! ```

pub mod artifacts;
pub mod codec;
pub mod driver;
pub mod engine;
pub mod events;
pub mod oracle;
pub mod wire;

pub use artifacts::{
    persona_predictor_fingerprint, predictor_fingerprint, prefix_fingerprint, search_fingerprint,
    ArtifactKey, ArtifactStore, PrefixKey, PruneReport, StoreError, FINGERPRINT_SCHEMA,
};
pub use codec::{ArtifactKind, CodecError, FrameKind, PROTOCOL_VERSION, WIRE_MAGIC};
pub use driver::{
    cross_scenarios, run_fleet, run_fleet_with_events, shard_specs, DeviceReport, FleetConfig,
    FleetError, FleetReport, ObjectiveSpec, ParetoPoint, ScenarioSpec,
};
pub use engine::{Engine, EngineReport, PhaseTimings, SessionCacheStats, ShardResult, ShardSpec};
pub use events::{channel as event_channel, FleetEvent, SessionAction, ShardId, StreamingReporter};
pub use oracle::{MeasurementOracle, OracleClient, OracleConfig, OracleStats, Ticket};
pub use wire::{ClientFrame, ServerFrame, WireReport, WireShardReport};
