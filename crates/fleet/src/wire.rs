//! Typed messages of the `hgnas-serve` wire protocol, serialized through
//! the artifact codec's frame layer ([`crate::codec::Encoder::frame`] /
//! [`crate::codec::Decoder::open_frame`]).
//!
//! The protocol is deliberately small: a client says [`ClientFrame::Hello`]
//! (tenant + priority), submits searches, and can re-[`ClientFrame::Attach`]
//! to a running request after a disconnect. The server streams every
//! [`FleetEvent`] back as a `(request, seq)`-tagged [`ServerFrame::Event`]
//! and closes each request with a [`ServerFrame::Report`] carrying the same
//! outcomes `run_fleet` would have produced — bit-identical, which is what
//! the daemon equivalence tests pin.
//!
//! Everything rides the no-serde codec: integers little-endian, floats as
//! raw IEEE-754 bits, strings as length-prefixed UTF-8, the whole frame
//! CRC-sealed. A [`SearchOutcome`]'s architecture is not serialized — like
//! on-disk checkpoints, the genome plus function sets rebuild it at decode
//! time, so the wire stays minimal and canonical.

use crate::artifacts::{
    put_device, put_ea_config, put_eval_stats, put_function_set, put_genome, put_opt_f64,
    put_train_stats, take_device, take_ea_config, take_eval_stats, take_function_set, take_genome,
    take_opt_f64, take_train_stats, PruneReport,
};
use crate::codec::{CodecError, Decoder, Encoder, FrameKind};
use crate::driver::{ParetoPoint, ScenarioSpec};
use crate::events::{FleetEvent, SessionAction};
use hgnas_core::{LatencyMode, SearchConfig, SearchOutcome, SearchedModel, Strategy, TaskConfig};
use hgnas_device::{ClassRates, DeviceKind, DevicePersona, DeviceProfile};
use hgnas_ops::Architecture;
use hgnas_pointcloud::{DatasetConfig, TaskKind};
use hgnas_predictor::PredictorConfig;

/// A client→server message.
///
/// # Examples
///
/// ```
/// use hgnas_fleet::wire::{decode_client, encode_client, ClientFrame};
///
/// let hello = ClientFrame::Hello {
///     tenant: "alice".into(),
///     priority: 3,
/// };
/// let bytes = encode_client(&hello);
/// match decode_client(&bytes).unwrap() {
///     ClientFrame::Hello { tenant, priority } => {
///         assert_eq!(tenant, "alice");
///         assert_eq!(priority, 3);
///     }
///     other => panic!("unexpected frame {other:?}"),
/// }
/// ```
// Submit carries whole task/search configs; frames are transient
// one-shot values, so the size skew is harmless and not worth boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ClientFrame {
    /// Introduce this connection: tenant name plus scheduling priority
    /// (clamped to ≥ 1 server-side; higher is more slice share).
    Hello {
        /// Tenant name (an accounting label, not a secret).
        tenant: String,
        /// Fair-share weight: a priority-3 tenant receives 3× the slices
        /// of a priority-1 tenant under contention.
        priority: u8,
    },
    /// Submit one search: a task, a search config, and either target
    /// devices (one engine shard per device, mirroring `run_fleet`'s
    /// legacy shape) or explicit {task × objective × persona} scenarios
    /// (one shard each; scenarios win when both are given).
    Submit {
        /// Dataset + supernet geometry (the base task on the scenario
        /// path — each scenario carries its own).
        task: TaskConfig,
        /// Search settings; `device` is overridden per shard.
        config: SearchConfig,
        /// Target devices, one shard each (legacy path).
        devices: Vec<DeviceKind>,
        /// Explicit scenarios, one shard each; overrides `devices` when
        /// non-empty.
        scenarios: Vec<ScenarioSpec>,
    },
    /// Re-attach to a request submitted earlier (same tenant), replaying
    /// buffered events from `from_seq` — the disconnect/resume path.
    Attach {
        /// The id from [`ServerFrame::Accepted`].
        request_id: u64,
        /// Must match the submitting tenant.
        tenant: String,
        /// First sequence number to replay (0 replays everything).
        from_seq: u64,
    },
    /// Polite goodbye; the server closes the connection.
    Bye,
}

/// A server→client message.
#[derive(Debug, Clone)]
pub enum ServerFrame {
    /// The Hello was accepted; the server speaks `protocol`.
    HelloAck {
        /// The server's [`crate::codec::PROTOCOL_VERSION`].
        protocol: u8,
    },
    /// A Submit was admitted.
    Accepted {
        /// Id for attaching and for matching events/reports.
        request_id: u64,
        /// Shard count (= submitted device count).
        shards: usize,
    },
    /// A frame was refused. `request_id` 0 means the refusal is
    /// connection-level (bad hello, undecodable frame), otherwise it names
    /// the request the refusal belongs to.
    Rejected {
        /// The refused request, or 0.
        request_id: u64,
        /// Human-readable cause.
        reason: String,
    },
    /// One streamed engine event. `seq` increases by exactly 1 per
    /// event within a request, so a resumed client can detect gaps.
    Event {
        /// The request the event belongs to.
        request_id: u64,
        /// Per-request sequence number, from 0.
        seq: u64,
        /// The engine event.
        event: FleetEvent,
    },
    /// The request finished; carries outcomes for every shard.
    Report {
        /// The finished request.
        request_id: u64,
        /// Outcomes, fronts, and accounting.
        report: WireReport,
    },
    /// The idle-loop garbage collector ran over the artifact store.
    Pruned {
        /// What was deleted and what remains.
        report: PruneReport,
    },
    /// The daemon is shutting down; listed requests were parked with
    /// checkpoints persisted and can be resubmitted to a future daemon
    /// over the same store to resume bit-identically.
    Drain {
        /// Requests parked mid-search.
        parked: Vec<u64>,
    },
}

/// One shard's slice of a [`WireReport`] — the wire twin of
/// `DeviceReport`, plus the admission accounting the daemon adds.
#[derive(Debug, Clone)]
pub struct WireShardReport {
    /// The shard's scenario label (device name on the legacy path).
    pub scenario: String,
    /// Neighbour fanout of this shard's task (scenario shards may differ
    /// from the request-level [`WireReport::k`]).
    pub k: usize,
    /// Model output width of this shard's task (segmentation shards emit
    /// per-point part logits, not the dataset's class count).
    pub out_classes: usize,
    /// The shard's target device.
    pub device: DeviceKind,
    /// The finished search outcome (bit-identical to `run_fleet`).
    pub outcome: SearchOutcome,
    /// The shard's final latency/accuracy Pareto front, fastest first.
    pub pareto: Vec<ParetoPoint>,
    /// Whether the final round warm-started the latency predictor from
    /// the artifact store.
    pub warm_predictor: bool,
    /// The checkpoint generation the final round resumed from, if any.
    pub resumed_from_generation: Option<usize>,
    /// Engine slices this shard consumed across every round.
    pub slices: u64,
    /// Deterministic-prefix builds across every round.
    pub prefix_builds: u64,
}

/// The final answer to one daemon request.
#[derive(Debug, Clone)]
pub struct WireReport {
    /// Neighbour fanout of the submitted task (rebuilds architectures at
    /// decode time).
    pub k: usize,
    /// Class count of the submitted task (ditto).
    pub classes: usize,
    /// One entry per submitted device, in submission order.
    pub shards: Vec<WireShardReport>,
    /// Admission rounds the request took (1 when uncontended).
    pub rounds: u64,
    /// Total slices charged to the owning tenant for this request.
    pub slices: u64,
}

// ---- value encoders/decoders -------------------------------------------

fn put_dataset(e: &mut Encoder, c: &DatasetConfig) {
    e.put_usize(c.classes);
    e.put_usize(c.points);
    e.put_usize(c.train_per_class);
    e.put_usize(c.test_per_class);
    e.put_f32(c.noise);
    e.put_u64(c.seed);
}

fn take_dataset(d: &mut Decoder) -> Result<DatasetConfig, CodecError> {
    Ok(DatasetConfig {
        classes: d.take_usize()?,
        points: d.take_usize()?,
        train_per_class: d.take_usize()?,
        test_per_class: d.take_usize()?,
        noise: d.take_f32()?,
        seed: d.take_u64()?,
    })
}

fn put_task(e: &mut Encoder, t: &TaskConfig) {
    e.put_u8(t.task_kind.code());
    put_dataset(e, &t.dataset);
    e.put_usize(t.positions);
    e.put_usize(t.k);
    e.put_usize(t.supernet_hidden);
    e.put_usize_slice(&t.head_hidden);
    e.put_u64(t.seed);
}

fn take_task(d: &mut Decoder) -> Result<TaskConfig, CodecError> {
    Ok(TaskConfig {
        task_kind: TaskKind::from_code(d.take_u8()?)
            .ok_or(CodecError::Invalid("task kind code"))?,
        dataset: take_dataset(d)?,
        positions: d.take_usize()?,
        k: d.take_usize()?,
        supernet_hidden: d.take_usize()?,
        head_hidden: d.take_usize_vec()?,
        seed: d.take_u64()?,
    })
}

fn put_predictor_config(e: &mut Encoder, c: &PredictorConfig) {
    e.put_usize(c.train_samples);
    e.put_usize(c.val_samples);
    e.put_usize(c.epochs);
    e.put_f32(c.lr);
    e.put_usize_slice(&c.gcn_dims);
    e.put_usize_slice(&c.mlp_hidden);
    e.put_u64(c.seed);
    e.put_bool(c.global_node);
    e.put_usize(c.batch);
}

fn take_predictor_config(d: &mut Decoder) -> Result<PredictorConfig, CodecError> {
    Ok(PredictorConfig {
        train_samples: d.take_usize()?,
        val_samples: d.take_usize()?,
        epochs: d.take_usize()?,
        lr: d.take_f32()?,
        gcn_dims: d.take_usize_vec()?,
        mlp_hidden: d.take_usize_vec()?,
        seed: d.take_u64()?,
        global_node: d.take_bool()?,
        batch: d.take_usize()?,
    })
}

fn put_opt_usize(e: &mut Encoder, v: Option<usize>) {
    e.put_bool(v.is_some());
    if let Some(v) = v {
        e.put_usize(v);
    }
}

fn take_opt_usize(d: &mut Decoder) -> Result<Option<usize>, CodecError> {
    Ok(if d.take_bool()? {
        Some(d.take_usize()?)
    } else {
        None
    })
}

fn put_profile(e: &mut Encoder, p: &DeviceProfile) {
    put_device(e, p.kind);
    for r in &p.rates {
        e.put_f64(r.gflops);
        e.put_f64(r.gbps);
    }
    e.put_f64(p.overhead_us);
    e.put_f64(p.base_mem_mb);
    e.put_f64(p.mem_factor);
    e.put_f64(p.avail_mem_mb);
    e.put_f64(p.noise_sigma);
    e.put_f64(p.measurement_roundtrip_ms);
    e.put_f64(p.power_w);
}

fn take_profile(d: &mut Decoder) -> Result<DeviceProfile, CodecError> {
    let kind = take_device(d)?;
    let mut rates = [ClassRates {
        gflops: 0.0,
        gbps: 0.0,
    }; 4];
    for r in &mut rates {
        r.gflops = d.take_f64()?;
        r.gbps = d.take_f64()?;
    }
    Ok(DeviceProfile {
        kind,
        rates,
        overhead_us: d.take_f64()?,
        base_mem_mb: d.take_f64()?,
        mem_factor: d.take_f64()?,
        avail_mem_mb: d.take_f64()?,
        noise_sigma: d.take_f64()?,
        measurement_roundtrip_ms: d.take_f64()?,
        power_w: d.take_f64()?,
    })
}

fn put_persona(e: &mut Encoder, p: &DevicePersona) {
    e.put_str(&p.name);
    put_profile(e, &p.profile);
}

fn take_persona(d: &mut Decoder) -> Result<DevicePersona, CodecError> {
    Ok(DevicePersona {
        name: d.take_string()?,
        profile: take_profile(d)?,
    })
}

fn put_search_config(e: &mut Encoder, c: &SearchConfig) {
    put_device(e, c.device);
    e.put_bool(c.persona.is_some());
    if let Some(p) = &c.persona {
        put_persona(e, p);
    }
    e.put_f64(c.alpha);
    e.put_f64(c.beta);
    e.put_f64(c.gamma);
    e.put_f64(c.delta);
    put_opt_f64(e, c.constraint_ms);
    put_opt_f64(e, c.max_size_mb);
    put_opt_f64(e, c.max_energy_mj);
    put_opt_f64(e, c.max_peak_mem_mb);
    put_ea_config(e, &c.ea_stage1);
    put_ea_config(e, &c.ea_stage2);
    e.put_usize(c.epochs_stage1);
    e.put_usize(c.epochs_stage2);
    e.put_u8(match c.latency_mode {
        LatencyMode::Predictor => 0,
        LatencyMode::Measured => 1,
    });
    e.put_u8(match c.strategy {
        Strategy::MultiStage => 0,
        Strategy::OneStage => 1,
    });
    put_predictor_config(e, &c.predictor);
    e.put_usize(c.eval_clouds);
    e.put_usize(c.eval_threads);
    e.put_u64(c.seed);
}

fn take_search_config(d: &mut Decoder) -> Result<SearchConfig, CodecError> {
    Ok(SearchConfig {
        device: take_device(d)?,
        persona: if d.take_bool()? {
            Some(take_persona(d)?)
        } else {
            None
        },
        alpha: d.take_f64()?,
        beta: d.take_f64()?,
        gamma: d.take_f64()?,
        delta: d.take_f64()?,
        constraint_ms: take_opt_f64(d)?,
        max_size_mb: take_opt_f64(d)?,
        max_energy_mj: take_opt_f64(d)?,
        max_peak_mem_mb: take_opt_f64(d)?,
        ea_stage1: take_ea_config(d)?,
        ea_stage2: take_ea_config(d)?,
        epochs_stage1: d.take_usize()?,
        epochs_stage2: d.take_usize()?,
        latency_mode: match d.take_u8()? {
            0 => LatencyMode::Predictor,
            1 => LatencyMode::Measured,
            _ => return Err(CodecError::Invalid("latency mode code")),
        },
        strategy: match d.take_u8()? {
            0 => Strategy::MultiStage,
            1 => Strategy::OneStage,
            _ => return Err(CodecError::Invalid("strategy code")),
        },
        predictor: take_predictor_config(d)?,
        eval_clouds: d.take_usize()?,
        eval_threads: d.take_usize()?,
        seed: d.take_u64()?,
    })
}

fn put_pareto_point(e: &mut Encoder, p: &ParetoPoint) {
    e.put_f64(p.latency_ms);
    e.put_f64(p.accuracy);
    put_opt_f64(e, p.energy_mj);
    put_opt_f64(e, p.peak_mem_mb);
    put_genome(e, &p.genome);
}

fn take_pareto_point(d: &mut Decoder) -> Result<ParetoPoint, CodecError> {
    Ok(ParetoPoint {
        latency_ms: d.take_f64()?,
        accuracy: d.take_f64()?,
        energy_mj: take_opt_f64(d)?,
        peak_mem_mb: take_opt_f64(d)?,
        genome: take_genome(d)?,
    })
}

fn put_session_action(e: &mut Encoder, a: SessionAction) {
    match a {
        SessionAction::Built => e.put_u8(0),
        SessionAction::Hit => e.put_u8(1),
        SessionAction::Restored => e.put_u8(2),
        SessionAction::Deferred => e.put_u8(3),
        SessionAction::Evicted { spilled } => {
            e.put_u8(4);
            e.put_bool(spilled);
        }
    }
}

fn take_session_action(d: &mut Decoder) -> Result<SessionAction, CodecError> {
    Ok(match d.take_u8()? {
        0 => SessionAction::Built,
        1 => SessionAction::Hit,
        2 => SessionAction::Restored,
        3 => SessionAction::Deferred,
        4 => SessionAction::Evicted {
            spilled: d.take_bool()?,
        },
        _ => return Err(CodecError::Invalid("session action code")),
    })
}

fn put_event(e: &mut Encoder, ev: &FleetEvent) {
    match ev {
        FleetEvent::ShardStarted {
            shard,
            device,
            resumed_from,
            warm_predictor,
        } => {
            e.put_u8(0);
            e.put_usize(*shard);
            put_device(e, *device);
            put_opt_usize(e, *resumed_from);
            e.put_bool(*warm_predictor);
        }
        FleetEvent::GenerationDone {
            shard,
            device,
            generation,
            iterations,
            best_score,
            clock_hours,
        } => {
            e.put_u8(1);
            e.put_usize(*shard);
            put_device(e, *device);
            e.put_usize(*generation);
            e.put_usize(*iterations);
            put_opt_f64(e, *best_score);
            e.put_f64(*clock_hours);
        }
        FleetEvent::ParetoUpdated {
            shard,
            device,
            front,
        } => {
            e.put_u8(2);
            e.put_usize(*shard);
            put_device(e, *device);
            e.put_usize(front.len());
            for p in front {
                put_pareto_point(e, p);
            }
        }
        FleetEvent::ShardPreempted {
            shard,
            device,
            generation,
        } => {
            e.put_u8(3);
            e.put_usize(*shard);
            put_device(e, *device);
            e.put_usize(*generation);
        }
        FleetEvent::ShardFinished {
            shard,
            device,
            latency_ms,
            accuracy,
            score,
            reference_ms,
            search_hours,
            hit_pct,
            imported,
        } => {
            e.put_u8(4);
            e.put_usize(*shard);
            put_device(e, *device);
            e.put_f64(*latency_ms);
            e.put_f64(*accuracy);
            e.put_f64(*score);
            e.put_f64(*reference_ms);
            e.put_f64(*search_hours);
            e.put_f64(*hit_pct);
            e.put_u64(*imported);
        }
        FleetEvent::ShardFailed {
            shard,
            device,
            error,
        } => {
            e.put_u8(5);
            e.put_usize(*shard);
            put_device(e, *device);
            e.put_str(error);
        }
        FleetEvent::SessionCache {
            shard,
            device,
            action,
        } => {
            e.put_u8(6);
            e.put_usize(*shard);
            put_device(e, *device);
            put_session_action(e, *action);
        }
    }
}

fn take_event(d: &mut Decoder) -> Result<FleetEvent, CodecError> {
    let code = d.take_u8()?;
    let shard = d.take_usize()?;
    let device = take_device(d)?;
    Ok(match code {
        0 => FleetEvent::ShardStarted {
            shard,
            device,
            resumed_from: take_opt_usize(d)?,
            warm_predictor: d.take_bool()?,
        },
        1 => FleetEvent::GenerationDone {
            shard,
            device,
            generation: d.take_usize()?,
            iterations: d.take_usize()?,
            best_score: take_opt_f64(d)?,
            clock_hours: d.take_f64()?,
        },
        2 => FleetEvent::ParetoUpdated {
            shard,
            device,
            front: {
                let n = d.take_usize()?;
                (0..n)
                    .map(|_| take_pareto_point(d))
                    .collect::<Result<_, _>>()?
            },
        },
        3 => FleetEvent::ShardPreempted {
            shard,
            device,
            generation: d.take_usize()?,
        },
        4 => FleetEvent::ShardFinished {
            shard,
            device,
            latency_ms: d.take_f64()?,
            accuracy: d.take_f64()?,
            score: d.take_f64()?,
            reference_ms: d.take_f64()?,
            search_hours: d.take_f64()?,
            hit_pct: d.take_f64()?,
            imported: d.take_u64()?,
        },
        5 => FleetEvent::ShardFailed {
            shard,
            device,
            error: d.take_string()?,
        },
        6 => FleetEvent::SessionCache {
            shard,
            device,
            action: take_session_action(d)?,
        },
        _ => return Err(CodecError::Invalid("event code")),
    })
}

fn put_outcome(e: &mut Encoder, o: &SearchOutcome) {
    // Architecture is rebuilt from (genome, functions, k, classes) at
    // decode time, exactly like on-disk checkpoints.
    put_function_set(e, &o.best.functions.0);
    put_function_set(e, &o.best.functions.1);
    put_genome(e, &o.best.genome);
    e.put_f64(o.best.score);
    e.put_f64(o.best.supernet_accuracy);
    e.put_f64(o.best.latency_ms);
    e.put_usize(o.history.len());
    for &(t, s) in &o.history {
        e.put_f64(t);
        e.put_f64(s);
    }
    e.put_f64(o.search_hours);
    e.put_bool(o.predictor_stats.is_some());
    if let Some(s) = &o.predictor_stats {
        put_train_stats(e, s);
    }
    e.put_bool(o.eval_stats.is_some());
    if let Some(s) = &o.eval_stats {
        put_eval_stats(e, s);
    }
    e.put_bool(o.stage1_stats.is_some());
    if let Some(s) = &o.stage1_stats {
        put_eval_stats(e, s);
    }
    e.put_f64(o.reference_ms);
    e.put_f64(o.constraint_ms);
}

fn take_outcome(d: &mut Decoder, k: usize, classes: usize) -> Result<SearchOutcome, CodecError> {
    let upper = take_function_set(d)?;
    let lower = take_function_set(d)?;
    let genome = take_genome(d)?;
    if genome.is_empty() {
        return Err(CodecError::Invalid("empty outcome genome"));
    }
    let architecture = Architecture::from_genome(&genome, upper, lower, k, classes);
    let best = SearchedModel {
        architecture,
        genome,
        functions: (upper, lower),
        score: d.take_f64()?,
        supernet_accuracy: d.take_f64()?,
        latency_ms: d.take_f64()?,
    };
    let h = d.take_usize()?;
    let history = (0..h)
        .map(|_| Ok((d.take_f64()?, d.take_f64()?)))
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(SearchOutcome {
        best,
        history,
        search_hours: d.take_f64()?,
        predictor_stats: if d.take_bool()? {
            Some(take_train_stats(d)?)
        } else {
            None
        },
        eval_stats: if d.take_bool()? {
            Some(take_eval_stats(d)?)
        } else {
            None
        },
        stage1_stats: if d.take_bool()? {
            Some(take_eval_stats(d)?)
        } else {
            None
        },
        reference_ms: d.take_f64()?,
        constraint_ms: d.take_f64()?,
    })
}

fn put_prune_report(e: &mut Encoder, r: &PruneReport) {
    e.put_usize(r.removed_files);
    e.put_u64(r.removed_bytes);
    e.put_u64(r.retained_bytes);
}

fn take_prune_report(d: &mut Decoder) -> Result<PruneReport, CodecError> {
    Ok(PruneReport {
        removed_files: d.take_usize()?,
        removed_bytes: d.take_u64()?,
        retained_bytes: d.take_u64()?,
    })
}

// ---- frame entry points ------------------------------------------------

/// Encodes a client frame into sealed wire bytes.
pub fn encode_client(frame: &ClientFrame) -> Vec<u8> {
    match frame {
        ClientFrame::Hello { tenant, priority } => {
            let mut e = Encoder::frame(FrameKind::Hello);
            e.put_str(tenant);
            e.put_u8(*priority);
            e.finish()
        }
        ClientFrame::Submit {
            task,
            config,
            devices,
            scenarios,
        } => {
            let mut e = Encoder::frame(FrameKind::Submit);
            put_task(&mut e, task);
            put_search_config(&mut e, config);
            e.put_usize(devices.len());
            for &d in devices {
                put_device(&mut e, d);
            }
            e.put_usize(scenarios.len());
            for s in scenarios {
                e.put_str(&s.label);
                put_task(&mut e, &s.task);
                put_search_config(&mut e, &s.config);
            }
            e.finish()
        }
        ClientFrame::Attach {
            request_id,
            tenant,
            from_seq,
        } => {
            let mut e = Encoder::frame(FrameKind::Attach);
            e.put_u64(*request_id);
            e.put_str(tenant);
            e.put_u64(*from_seq);
            e.finish()
        }
        ClientFrame::Bye => Encoder::frame(FrameKind::Bye).finish(),
    }
}

/// Decodes a client frame (the server's inbound path).
///
/// # Errors
///
/// Any [`CodecError`] from the frame layer, plus
/// [`CodecError::Invalid`] when the frame kind is server→client or a
/// payload value is out of domain.
pub fn decode_client(bytes: &[u8]) -> Result<ClientFrame, CodecError> {
    let (kind, mut d) = Decoder::open_frame(bytes)?;
    let frame = match kind {
        FrameKind::Hello => ClientFrame::Hello {
            tenant: d.take_string()?,
            priority: d.take_u8()?,
        },
        FrameKind::Submit => ClientFrame::Submit {
            task: take_task(&mut d)?,
            config: take_search_config(&mut d)?,
            devices: {
                let n = d.take_usize()?;
                (0..n)
                    .map(|_| take_device(&mut d))
                    .collect::<Result<_, _>>()?
            },
            scenarios: {
                let n = d.take_usize()?;
                (0..n)
                    .map(|_| {
                        Ok(ScenarioSpec {
                            label: d.take_string()?,
                            task: take_task(&mut d)?,
                            config: take_search_config(&mut d)?,
                        })
                    })
                    .collect::<Result<_, CodecError>>()?
            },
        },
        FrameKind::Attach => ClientFrame::Attach {
            request_id: d.take_u64()?,
            tenant: d.take_string()?,
            from_seq: d.take_u64()?,
        },
        FrameKind::Bye => ClientFrame::Bye,
        _ => return Err(CodecError::Invalid("server frame on client path")),
    };
    if !d.is_exhausted() {
        return Err(CodecError::Invalid("trailing bytes in client frame"));
    }
    Ok(frame)
}

/// Encodes a server frame into sealed wire bytes.
pub fn encode_server(frame: &ServerFrame) -> Vec<u8> {
    match frame {
        ServerFrame::HelloAck { protocol } => {
            let mut e = Encoder::frame(FrameKind::HelloAck);
            e.put_u8(*protocol);
            e.finish()
        }
        ServerFrame::Accepted { request_id, shards } => {
            let mut e = Encoder::frame(FrameKind::Accepted);
            e.put_u64(*request_id);
            e.put_usize(*shards);
            e.finish()
        }
        ServerFrame::Rejected { request_id, reason } => {
            let mut e = Encoder::frame(FrameKind::Rejected);
            e.put_u64(*request_id);
            e.put_str(reason);
            e.finish()
        }
        ServerFrame::Event {
            request_id,
            seq,
            event,
        } => {
            let mut e = Encoder::frame(FrameKind::Event);
            e.put_u64(*request_id);
            e.put_u64(*seq);
            put_event(&mut e, event);
            e.finish()
        }
        ServerFrame::Report { request_id, report } => {
            let mut e = Encoder::frame(FrameKind::Report);
            e.put_u64(*request_id);
            e.put_usize(report.k);
            e.put_usize(report.classes);
            e.put_u64(report.rounds);
            e.put_u64(report.slices);
            e.put_usize(report.shards.len());
            for s in &report.shards {
                e.put_str(&s.scenario);
                e.put_usize(s.k);
                e.put_usize(s.out_classes);
                put_device(&mut e, s.device);
                put_outcome(&mut e, &s.outcome);
                e.put_usize(s.pareto.len());
                for p in &s.pareto {
                    put_pareto_point(&mut e, p);
                }
                e.put_bool(s.warm_predictor);
                put_opt_usize(&mut e, s.resumed_from_generation);
                e.put_u64(s.slices);
                e.put_u64(s.prefix_builds);
            }
            e.finish()
        }
        ServerFrame::Pruned { report } => {
            let mut e = Encoder::frame(FrameKind::Pruned);
            put_prune_report(&mut e, report);
            e.finish()
        }
        ServerFrame::Drain { parked } => {
            let mut e = Encoder::frame(FrameKind::Drain);
            e.put_usize(parked.len());
            for &id in parked {
                e.put_u64(id);
            }
            e.finish()
        }
    }
}

/// Decodes a server frame (the client's inbound path).
///
/// # Errors
///
/// Any [`CodecError`] from the frame layer, plus
/// [`CodecError::Invalid`] when the frame kind is client→server or a
/// payload value is out of domain.
pub fn decode_server(bytes: &[u8]) -> Result<ServerFrame, CodecError> {
    let (kind, mut d) = Decoder::open_frame(bytes)?;
    let frame = match kind {
        FrameKind::HelloAck => ServerFrame::HelloAck {
            protocol: d.take_u8()?,
        },
        FrameKind::Accepted => ServerFrame::Accepted {
            request_id: d.take_u64()?,
            shards: d.take_usize()?,
        },
        FrameKind::Rejected => ServerFrame::Rejected {
            request_id: d.take_u64()?,
            reason: d.take_string()?,
        },
        FrameKind::Event => ServerFrame::Event {
            request_id: d.take_u64()?,
            seq: d.take_u64()?,
            event: take_event(&mut d)?,
        },
        FrameKind::Report => {
            let request_id = d.take_u64()?;
            let k = d.take_usize()?;
            let classes = d.take_usize()?;
            let rounds = d.take_u64()?;
            let slices = d.take_u64()?;
            let n = d.take_usize()?;
            let shards = (0..n)
                .map(|_| {
                    let scenario = d.take_string()?;
                    let shard_k = d.take_usize()?;
                    let out_classes = d.take_usize()?;
                    Ok(WireShardReport {
                        scenario,
                        k: shard_k,
                        out_classes,
                        device: take_device(&mut d)?,
                        outcome: take_outcome(&mut d, shard_k, out_classes)?,
                        pareto: {
                            let m = d.take_usize()?;
                            (0..m)
                                .map(|_| take_pareto_point(&mut d))
                                .collect::<Result<_, _>>()?
                        },
                        warm_predictor: d.take_bool()?,
                        resumed_from_generation: take_opt_usize(&mut d)?,
                        slices: d.take_u64()?,
                        prefix_builds: d.take_u64()?,
                    })
                })
                .collect::<Result<Vec<_>, CodecError>>()?;
            ServerFrame::Report {
                request_id,
                report: WireReport {
                    k,
                    classes,
                    shards,
                    rounds,
                    slices,
                },
            }
        }
        FrameKind::Pruned => ServerFrame::Pruned {
            report: take_prune_report(&mut d)?,
        },
        FrameKind::Drain => ServerFrame::Drain {
            parked: {
                let n = d.take_usize()?;
                (0..n).map(|_| d.take_u64()).collect::<Result<_, _>>()?
            },
        },
        _ => return Err(CodecError::Invalid("client frame on server path")),
    };
    if !d.is_exhausted() {
        return Err(CodecError::Invalid("trailing bytes in server frame"));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgnas_core::SearchConfig;

    #[test]
    fn submit_round_trips_task_and_config() {
        let task = TaskConfig::tiny(9);
        let mut cfg = SearchConfig::fast(DeviceKind::JetsonTx2);
        cfg.constraint_ms = Some(4.5);
        cfg.eval_threads = 3;
        let frame = ClientFrame::Submit {
            task: task.clone(),
            config: cfg.clone(),
            devices: vec![DeviceKind::Rtx3080, DeviceKind::RaspberryPi3B],
            scenarios: Vec::new(),
        };
        let bytes = encode_client(&frame);
        match decode_client(&bytes).unwrap() {
            ClientFrame::Submit {
                task: t,
                config: c,
                devices,
                scenarios,
            } => {
                assert_eq!(t, task);
                assert_eq!(c.device, cfg.device);
                assert_eq!(c.constraint_ms, cfg.constraint_ms);
                assert_eq!(c.eval_threads, 3);
                assert_eq!(c.predictor, cfg.predictor);
                assert_eq!(c.seed, cfg.seed);
                assert_eq!(
                    devices,
                    vec![DeviceKind::Rtx3080, DeviceKind::RaspberryPi3B]
                );
                assert!(scenarios.is_empty());
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn scenario_submit_round_trips_every_new_axis() {
        use hgnas_device::{DevicePersona, DeviceProfile};
        let task = {
            let mut t = TaskConfig::tiny(9);
            t.task_kind = TaskKind::Segmentation;
            t
        };
        let mut cfg = SearchConfig::fast(DeviceKind::JetsonTx2);
        cfg.gamma = 0.25;
        cfg.delta = 0.1;
        cfg.max_energy_mj = Some(12.5);
        cfg.max_peak_mem_mb = Some(64.0);
        let mut profile = DeviceProfile::builtin(DeviceKind::JetsonTx2);
        profile.overhead_us *= 1.5;
        cfg = cfg.with_persona(DevicePersona {
            name: "tx2-throttled".into(),
            profile,
        });
        let frame = ClientFrame::Submit {
            task: TaskConfig::tiny(9),
            config: SearchConfig::fast(DeviceKind::JetsonTx2),
            devices: Vec::new(),
            scenarios: vec![ScenarioSpec::new(
                "seg/energy/tx2-throttled",
                task.clone(),
                cfg.clone(),
            )],
        };
        let bytes = encode_client(&frame);
        match decode_client(&bytes).unwrap() {
            ClientFrame::Submit { scenarios, .. } => {
                assert_eq!(scenarios.len(), 1);
                let s = &scenarios[0];
                assert_eq!(s.label, "seg/energy/tx2-throttled");
                assert_eq!(s.task, task);
                assert_eq!(s.task.task_kind, TaskKind::Segmentation);
                assert_eq!(s.config.gamma.to_bits(), cfg.gamma.to_bits());
                assert_eq!(s.config.delta.to_bits(), cfg.delta.to_bits());
                assert_eq!(s.config.max_energy_mj, cfg.max_energy_mj);
                assert_eq!(s.config.max_peak_mem_mb, cfg.max_peak_mem_mb);
                assert_eq!(s.config.persona, cfg.persona);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn every_event_variant_round_trips() {
        let front = vec![ParetoPoint {
            latency_ms: 1.5,
            accuracy: 0.75,
            energy_mj: Some(3.25),
            peak_mem_mb: None,
            genome: vec![hgnas_ops::OpType::ALL[0]; 4],
        }];
        let events = vec![
            FleetEvent::ShardStarted {
                shard: 1,
                device: DeviceKind::Rtx3080,
                resumed_from: Some(3),
                warm_predictor: true,
            },
            FleetEvent::GenerationDone {
                shard: 0,
                device: DeviceKind::JetsonTx2,
                generation: 2,
                iterations: 8,
                best_score: None,
                clock_hours: 0.25,
            },
            FleetEvent::ParetoUpdated {
                shard: 2,
                device: DeviceKind::V100,
                front: front.clone(),
            },
            FleetEvent::ShardPreempted {
                shard: 0,
                device: DeviceKind::I78700K,
                generation: 5,
            },
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
            FleetEvent::ShardFailed {
                shard: 1,
                device: DeviceKind::Rtx3080,
                error: "store offline".into(),
            },
            FleetEvent::SessionCache {
                shard: 0,
                device: DeviceKind::JetsonTx2,
                action: SessionAction::Evicted { spilled: true },
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let bytes = encode_server(&ServerFrame::Event {
                request_id: 40 + i as u64,
                seq: i as u64,
                event: event.clone(),
            });
            match decode_server(&bytes).unwrap() {
                ServerFrame::Event {
                    request_id,
                    seq,
                    event: got,
                } => {
                    assert_eq!(request_id, 40 + i as u64);
                    assert_eq!(seq, i as u64);
                    assert_eq!(format!("{got:?}"), format!("{event:?}"));
                }
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn client_and_server_paths_reject_each_other() {
        let hello = encode_client(&ClientFrame::Hello {
            tenant: "t".into(),
            priority: 1,
        });
        assert_eq!(
            decode_server(&hello).unwrap_err(),
            CodecError::Invalid("client frame on server path")
        );
        let ack = encode_server(&ServerFrame::HelloAck { protocol: 1 });
        assert_eq!(
            decode_client(&ack).unwrap_err(),
            CodecError::Invalid("server frame on client path")
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut e = Encoder::frame(FrameKind::Bye);
        e.put_u8(0xff);
        assert_eq!(
            decode_client(&e.finish()).unwrap_err(),
            CodecError::Invalid("trailing bytes in client frame")
        );
    }
}
