//! Typed messages of the `hgnas-serve` wire protocol, serialized through
//! the codec's frame layer ([`crate::codec::Encoder::frame`] /
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
//! Every payload is [`Wire`] values in a row, and every layout is written
//! down once: each frame variant's fields below (the variant's
//! [`FrameKind`] rides in the header), each event variant's fields under
//! its one-byte code, and each struct's field list — shared with the
//! artifact store and the fingerprints for the task and search configs.
//! To add a field, append it to its list and bump
//! [`crate::codec::PROTOCOL_VERSION`]. A [`SearchOutcome`]'s architecture
//! is not serialized — like on-disk checkpoints, the genome plus function
//! sets rebuild it at decode time, so the wire stays minimal and
//! canonical.

use crate::artifacts::{Geometry, PruneReport, Stored};
use crate::codec::{wire_enum, wire_struct, CodecError, Decoder, Encoder, FrameKind, Sink, Wire};
use crate::driver::{ParetoPoint, ScenarioSpec};
use crate::events::{FleetEvent, SessionAction};
use hgnas_core::{JointGenome, SearchConfig, SearchOutcome, TaskConfig};
use hgnas_device::DeviceKind;

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

// ---- layouts -------------------------------------------------------------

wire_struct! {
    ScenarioSpec { label, task, config }
    ParetoPoint { latency_ms, accuracy, energy_mj, peak_mem_mb, genome }
    PruneReport { removed_files, removed_bytes, retained_bytes }
    WireReport { k, classes, rounds, slices, shards }
}

wire_enum! {
    SessionAction: "session action code" {
        Built = 0 {},
        Hit = 1 {},
        Restored = 2 {},
        Deferred = 3 {},
        Evicted = 4 { spilled },
    }
    FleetEvent: "event code" {
        ShardStarted = 0 { shard, device, resumed_from, warm_predictor },
        GenerationDone = 1 { shard, device, generation, iterations, best_score, clock_hours },
        ParetoUpdated = 2 { shard, device, front },
        ShardPreempted = 3 { shard, device, generation },
        ShardFinished = 4 {
            shard, device, latency_ms, accuracy, score, reference_ms, search_hours, hit_pct,
            imported
        },
        ShardFailed = 5 { shard, device, error },
        SessionCache = 6 { shard, device, action },
    }
}

/// A shard report: the shard's own `k` and output width come first, so
/// the outcome's architecture can be rebuilt from them.
impl Wire for WireShardReport {
    fn put(&self, s: &mut impl Sink) {
        self.scenario.put(s);
        self.k.put(s);
        self.out_classes.put(s);
        self.device.put(s);
        self.outcome.store(s);
        self.pareto.put(s);
        self.warm_predictor.put(s);
        self.resumed_from_generation.put(s);
        self.slices.put(s);
        self.prefix_builds.put(s);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let scenario = String::take(d)?;
        let (k, out_classes, device) = Wire::take(d)?;
        Ok(WireShardReport {
            scenario,
            k,
            out_classes,
            device,
            outcome: Stored::load(d, &Geometry::new(k, out_classes, None))?,
            pareto: Wire::take(d)?,
            warm_predictor: Wire::take(d)?,
            resumed_from_generation: Wire::take(d)?,
            slices: Wire::take(d)?,
            prefix_builds: Wire::take(d)?,
        })
    }
}

/// An outcome: the best model in joint form (function sets, then genome),
/// then the run's trace and accounting.
impl Stored<JointGenome> for SearchOutcome {
    fn store(&self, s: &mut impl Sink) {
        Stored::<JointGenome>::store(&self.best, s);
        self.history.put(s);
        self.search_hours.put(s);
        self.predictor_stats.put(s);
        self.eval_stats.put(s);
        self.stage1_stats.put(s);
        self.reference_ms.put(s);
        self.constraint_ms.put(s);
    }

    fn load(d: &mut Decoder<'_>, geo: &Geometry) -> Result<Self, CodecError> {
        Ok(SearchOutcome {
            best: Stored::<JointGenome>::load(d, geo)?,
            history: Wire::take(d)?,
            search_hours: Wire::take(d)?,
            predictor_stats: Wire::take(d)?,
            eval_stats: Wire::take(d)?,
            stage1_stats: Wire::take(d)?,
            reference_ms: Wire::take(d)?,
            constraint_ms: Wire::take(d)?,
        })
    }
}

// ---- frame entry points ------------------------------------------------

/// Declares an encode/decode pair for a frame enum from each variant's
/// fields in wire order. Variants are named like their [`FrameKind`],
/// which rides in the frame header; the decoder refuses the other
/// direction's kinds and trailing payload bytes.
macro_rules! frame_codec {
    (
        $(#[$enc_doc:meta])* $enc:ident,
        $(#[$dec_doc:meta])* $dec:ident,
        $t:ident, $wrong_direction:literal, $trailing:literal,
        { $($v:ident { $($f:ident),* }),* $(,)? }
    ) => {
        $(#[$enc_doc])*
        pub fn $enc(frame: &$t) -> Vec<u8> {
            match frame {
                $($t::$v { $($f),* } => {
                    #[allow(unused_mut)] // field-less variants write no payload
                    let mut e = Encoder::frame(FrameKind::$v);
                    $($f.put(&mut e);)*
                    e.finish()
                })*
            }
        }

        $(#[$dec_doc])*
        pub fn $dec(bytes: &[u8]) -> Result<$t, CodecError> {
            let (kind, mut d) = Decoder::open_frame(bytes)?;
            let frame = match kind {
                $(FrameKind::$v => $t::$v { $($f: Wire::take(&mut d)?),* },)*
                _ => return Err(CodecError::Invalid($wrong_direction)),
            };
            if !d.is_exhausted() {
                return Err(CodecError::Invalid($trailing));
            }
            Ok(frame)
        }
    };
}

frame_codec! {
    /// Encodes a client frame into sealed wire bytes.
    encode_client,
    /// Decodes a client frame (the server's inbound path).
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] from the frame layer, plus
    /// [`CodecError::Invalid`] when the frame kind is server→client or a
    /// payload value is out of domain.
    decode_client,
    ClientFrame, "server frame on client path", "trailing bytes in client frame",
    {
        Hello { tenant, priority },
        Submit { task, config, devices, scenarios },
        Attach { request_id, tenant, from_seq },
        Bye {},
    }
}

frame_codec! {
    /// Encodes a server frame into sealed wire bytes.
    encode_server,
    /// Decodes a server frame (the client's inbound path).
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] from the frame layer, plus
    /// [`CodecError::Invalid`] when the frame kind is client→server or a
    /// payload value is out of domain.
    decode_server,
    ServerFrame, "client frame on server path", "trailing bytes in server frame",
    {
        HelloAck { protocol },
        Accepted { request_id, shards },
        Rejected { request_id, reason },
        Event { request_id, seq, event },
        Report { request_id, report },
        Pruned { report },
        Drain { parked },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgnas_pointcloud::TaskKind;

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
        0xffu8.put(&mut e);
        assert_eq!(
            decode_client(&e.finish()).unwrap_err(),
            CodecError::Invalid("trailing bytes in client frame")
        );
    }
}
