//! Property tests for the artifact codec (via the offline proptest shim):
//! arbitrary payloads round-trip bit-exactly, and arbitrary single-byte
//! corruption or truncation is always rejected with an error — never a
//! wrong decode that could warm-start a search from garbage.
//!
//! The same guarantees hold for the serve wire frames: round trips are
//! exact, truncation/corruption always reject, and a foreign protocol
//! version is refused even under a valid CRC.
//!
//! One generic property covers every [`Wire`] type and both frame
//! directions: randomized values (IEEE corner-case floats, `None` and
//! `Some`, empty and non-empty vectors, every enum code) decode and
//! re-encode to the same bytes, and every strict prefix of an encoding
//! fails to decode without panicking.

use hgnas_core::Strategy as SearchStrategy;
use hgnas_core::{
    EaConfig, EaSnapshot, EvalStats, JointGenome, LatencyMode, SearchConfig, SearchOutcome,
    SearchedModel, SessionSnapshot, TaskConfig,
};
use hgnas_device::{ClassRates, DeviceKind, DevicePersona, DeviceProfile};
use hgnas_fleet::codec::{
    crc32, ArtifactKind, CodecError, Decoder, Encoder, FrameKind, Sink, Wire, PROTOCOL_VERSION,
};
use hgnas_fleet::wire::{decode_client, decode_server, encode_client, encode_server};
use hgnas_fleet::{
    ClientFrame, FleetEvent, ParetoPoint, PruneReport, ScenarioSpec, ServerFrame, SessionAction,
    WireReport, WireShardReport,
};
use hgnas_ops::{Aggregator, Architecture, ConnectFn, FunctionSet, MessageType, OpType, SampleFn};
use hgnas_pointcloud::{DatasetConfig, TaskKind};
use hgnas_predictor::{PredictorConfig, PredictorContext, PredictorSnapshot, TrainStats};
use hgnas_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Encodes an opaque byte payload as a sealed artifact.
fn encode(kind: ArtifactKind, payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new(kind);
    for &b in payload {
        b.put(&mut e);
    }
    e.finish()
}

/// Strategy for an arbitrary payload (possibly empty).
fn payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u32..256, 0usize..160)
        .prop_map(|v| v.into_iter().map(|x| x as u8).collect())
}

/// Strategy for an artifact kind.
fn kind() -> impl Strategy<Value = ArtifactKind> {
    (0usize..4).prop_map(|i| {
        [
            ArtifactKind::Predictor,
            ArtifactKind::Checkpoint,
            ArtifactKind::ScoreCache,
            ArtifactKind::Session,
        ][i]
    })
}

/// Encodes an opaque byte payload as a sealed wire frame.
fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::frame(kind);
    for &b in payload {
        b.put(&mut e);
    }
    e.finish()
}

/// Strategy for a wire frame kind.
fn frame_kind() -> impl Strategy<Value = FrameKind> {
    (0usize..11).prop_map(|i| {
        [
            FrameKind::Hello,
            FrameKind::Submit,
            FrameKind::Attach,
            FrameKind::Bye,
            FrameKind::HelloAck,
            FrameKind::Accepted,
            FrameKind::Rejected,
            FrameKind::Event,
            FrameKind::Report,
            FrameKind::Pruned,
            FrameKind::Drain,
        ][i]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_payloads_round_trip(p in (kind(), payload())) {
        let (kind, payload) = p;
        let bytes = encode(kind, &payload);
        let mut d = Decoder::open(&bytes, kind).unwrap();
        for &b in &payload {
            prop_assert_eq!(u8::take(&mut d).unwrap(), b);
        }
        prop_assert!(d.is_exhausted());
    }

    #[test]
    fn mixed_primitives_round_trip_bit_exactly(
        v in (0u64..u64::MAX, 0u32..u32::MAX, 0usize..1_000_000)
    ) {
        let (a, b, n) = v;
        let mut e = Encoder::new(ArtifactKind::Checkpoint);
        a.put(&mut e);
        // Arbitrary bit patterns (including NaNs and negative zero) must
        // survive the float round-trip exactly.
        f64::from_bits(a).put(&mut e);
        f32::from_bits(b).put(&mut e);
        n.put(&mut e);
        (n % 2 == 0).put(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::open(&bytes, ArtifactKind::Checkpoint).unwrap();
        prop_assert_eq!(u64::take(&mut d).unwrap(), a);
        prop_assert_eq!(f64::take(&mut d).unwrap().to_bits(), a);
        prop_assert_eq!(f32::take(&mut d).unwrap().to_bits(), b);
        prop_assert_eq!(usize::take(&mut d).unwrap(), n);
        prop_assert_eq!(bool::take(&mut d).unwrap(), n % 2 == 0);
        prop_assert!(d.is_exhausted());
    }

    #[test]
    fn single_byte_corruption_is_always_rejected(
        c in (kind(), payload(), 0usize..4096, 1u32..256)
    ) {
        let (kind, payload, pos, flip) = c;
        let bytes = encode(kind, &payload);
        let mut bad = bytes.clone();
        let pos = pos % bad.len();
        bad[pos] ^= flip as u8; // flip != 0: the byte genuinely changes
        prop_assert!(
            Decoder::open(&bad, kind).is_err(),
            "flip 0x{:02x} at byte {} of {} accepted",
            flip,
            pos,
            bad.len()
        );
    }

    #[test]
    fn truncation_is_always_rejected(c in (kind(), payload(), 0usize..4096)) {
        let (kind, payload, cut) = c;
        let bytes = encode(kind, &payload);
        let cut = cut % bytes.len(); // strictly shorter than the artifact
        prop_assert!(
            Decoder::open(&bytes[..cut], kind).is_err(),
            "truncation to {} of {} bytes accepted",
            cut,
            bytes.len()
        );
    }

    #[test]
    fn foreign_kind_is_always_rejected(c in (kind(), payload())) {
        let (kind, payload) = c;
        let bytes = encode(kind, &payload);
        let other = match kind {
            ArtifactKind::Predictor => ArtifactKind::Checkpoint,
            ArtifactKind::Checkpoint => ArtifactKind::ScoreCache,
            ArtifactKind::ScoreCache => ArtifactKind::Session,
            ArtifactKind::Session => ArtifactKind::Predictor,
        };
        prop_assert!(Decoder::open(&bytes, other).is_err());
    }

    #[test]
    fn arbitrary_frame_payloads_round_trip(p in (frame_kind(), payload())) {
        let (kind, payload) = p;
        let bytes = encode_frame(kind, &payload);
        let (got_kind, mut d) = Decoder::open_frame(&bytes).unwrap();
        prop_assert_eq!(got_kind, kind);
        for &b in &payload {
            prop_assert_eq!(u8::take(&mut d).unwrap(), b);
        }
        prop_assert!(d.is_exhausted());
    }

    #[test]
    fn frame_truncation_is_always_rejected(c in (frame_kind(), payload(), 0usize..4096)) {
        let (kind, payload, cut) = c;
        let bytes = encode_frame(kind, &payload);
        let cut = cut % bytes.len(); // strictly shorter than the frame
        prop_assert!(
            Decoder::open_frame(&bytes[..cut]).is_err(),
            "truncation to {} of {} bytes accepted",
            cut,
            bytes.len()
        );
    }

    #[test]
    fn frame_single_byte_corruption_is_always_rejected(
        c in (frame_kind(), payload(), 0usize..4096, 1u32..256)
    ) {
        let (kind, payload, pos, flip) = c;
        let bytes = encode_frame(kind, &payload);
        let mut bad = bytes.clone();
        let pos = pos % bad.len();
        bad[pos] ^= flip as u8; // flip != 0: the byte genuinely changes
        prop_assert!(
            Decoder::open_frame(&bad).is_err(),
            "flip 0x{:02x} at byte {} of {} accepted",
            flip,
            pos,
            bad.len()
        );
    }

    #[test]
    fn frame_foreign_protocol_version_is_always_rejected(
        c in (frame_kind(), payload(), 1u32..256)
    ) {
        let (kind, payload, bump) = c;
        // Patch the protocol byte to any *other* value and re-seal the
        // CRC, so only the version check can object.
        let sealed = encode_frame(kind, &payload);
        let mut bad = sealed[..sealed.len() - 4].to_vec();
        bad[4] = PROTOCOL_VERSION.wrapping_add(bump as u8);
        let crc = crc32(&bad);
        bad.extend_from_slice(&crc.to_le_bytes());
        match Decoder::open_frame(&bad) {
            Err(hgnas_fleet::CodecError::UnsupportedProtocol(v)) => {
                prop_assert_eq!(v, bad[4]);
            }
            other => prop_assert!(false, "expected UnsupportedProtocol, got {:?}", other.is_ok()),
        }
    }
}

// ---- every Wire type ------------------------------------------------------

/// Random values for the generic property: floats favour the IEEE corner
/// cases, options and vectors take both shapes, enums draw every code.
struct Gen(StdRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 0
    }

    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn usize(&mut self) -> usize {
        if self.coin() {
            self.below(8)
        } else {
            self.u64() as usize
        }
    }

    fn f64(&mut self) -> f64 {
        let corners = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling-NaN payload
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        if self.coin() {
            self.pick(&corners)
        } else {
            f64::from_bits(self.u64())
        }
    }

    fn f32(&mut self) -> f32 {
        let corners = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        if self.coin() {
            self.pick(&corners)
        } else {
            f32::from_bits(self.u64() as u32)
        }
    }

    fn string(&mut self) -> String {
        self.pick(&["", "a", "tx2-throttled", "θ-persona ✓"])
            .to_string()
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.coin() {
            Some(f(self))
        } else {
            None
        }
    }

    fn vec<T>(&mut self, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.below(4);
        (0..n).map(|_| f(self)).collect()
    }

    fn pick<T: Copy>(&mut self, all: &[T]) -> T {
        all[self.below(all.len())]
    }

    fn genome(&mut self) -> Vec<OpType> {
        let mut ops = self.vec(|g| g.pick(&OpType::ALL));
        ops.push(self.pick(&OpType::ALL));
        ops
    }

    fn functions(&mut self) -> FunctionSet {
        FunctionSet {
            aggregator: self.pick(&Aggregator::ALL),
            message: self.pick(&MessageType::ALL),
            sample: self.pick(&SampleFn::ALL),
            connect: self.pick(&ConnectFn::ALL),
            combine_dim: self.usize(),
        }
    }

    fn joint(&mut self) -> JointGenome {
        (self.functions(), self.functions(), self.genome())
    }

    fn task(&mut self) -> TaskConfig {
        TaskConfig {
            task_kind: self.pick(&TaskKind::ALL),
            dataset: DatasetConfig {
                classes: self.usize(),
                points: self.usize(),
                train_per_class: self.usize(),
                test_per_class: self.usize(),
                noise: self.f32(),
                seed: self.u64(),
            },
            positions: self.usize(),
            k: self.usize(),
            supernet_hidden: self.usize(),
            head_hidden: self.vec(Gen::usize),
            seed: self.u64(),
        }
    }

    fn ea(&mut self) -> EaConfig {
        EaConfig {
            population: self.usize(),
            iterations: self.usize(),
            elite_fraction: self.f64(),
            mutation_prob: self.f64(),
            seed: self.u64(),
        }
    }

    fn predictor(&mut self) -> PredictorConfig {
        PredictorConfig {
            train_samples: self.usize(),
            val_samples: self.usize(),
            epochs: self.usize(),
            lr: self.f32(),
            gcn_dims: self.vec(Gen::usize),
            mlp_hidden: self.vec(Gen::usize),
            seed: self.u64(),
            global_node: self.coin(),
            batch: self.usize(),
        }
    }

    fn profile(&mut self) -> DeviceProfile {
        DeviceProfile {
            kind: self.pick(&DeviceKind::ALL),
            rates: std::array::from_fn(|_| ClassRates {
                gflops: self.f64(),
                gbps: self.f64(),
            }),
            overhead_us: self.f64(),
            base_mem_mb: self.f64(),
            mem_factor: self.f64(),
            avail_mem_mb: self.f64(),
            noise_sigma: self.f64(),
            measurement_roundtrip_ms: self.f64(),
            power_w: self.f64(),
        }
    }

    fn persona(&mut self) -> DevicePersona {
        DevicePersona {
            name: self.string(),
            profile: self.profile(),
        }
    }

    fn search(&mut self) -> SearchConfig {
        SearchConfig {
            device: self.pick(&DeviceKind::ALL),
            persona: self.opt(Gen::persona),
            alpha: self.f64(),
            beta: self.f64(),
            gamma: self.f64(),
            delta: self.f64(),
            constraint_ms: self.opt(Gen::f64),
            max_size_mb: self.opt(Gen::f64),
            max_energy_mj: self.opt(Gen::f64),
            max_peak_mem_mb: self.opt(Gen::f64),
            ea_stage1: self.ea(),
            ea_stage2: self.ea(),
            epochs_stage1: self.usize(),
            epochs_stage2: self.usize(),
            latency_mode: self.pick(&[LatencyMode::Predictor, LatencyMode::Measured]),
            strategy: self.pick(&[SearchStrategy::MultiStage, SearchStrategy::OneStage]),
            predictor: self.predictor(),
            eval_clouds: self.usize(),
            eval_threads: self.usize(),
            seed: self.u64(),
        }
    }

    fn eval_stats(&mut self) -> EvalStats {
        EvalStats {
            hits: self.u64(),
            misses: self.u64(),
            imported: self.u64(),
            validated: self.u64(),
            rejected: self.u64(),
            batches: self.u64(),
            submitted: self.u64(),
        }
    }

    fn train_stats(&mut self) -> TrainStats {
        TrainStats {
            train_mape: self.f64(),
            val_mape: self.f64(),
            val_within_10pct: self.f64(),
            train_size: self.usize(),
        }
    }

    fn context(&mut self) -> PredictorContext {
        PredictorContext {
            positions: self.usize(),
            points: self.usize(),
            k: self.usize(),
            classes: self.usize(),
            head_hidden: self.vec(Gen::usize),
        }
    }

    fn tensor(&mut self) -> Tensor {
        let dims = self.vec(|g| 1 + g.below(3));
        let data = (0..dims.iter().product::<usize>())
            .map(|_| self.f32())
            .collect();
        Tensor::from_vec(data, &dims)
    }

    fn rng(&mut self) -> StdRng {
        StdRng::from_state([self.u64() | 1, self.u64(), self.u64(), self.u64()])
    }

    fn ea_snapshot<G>(&mut self, mut genome: impl FnMut(&mut Self) -> G) -> EaSnapshot<G> {
        EaSnapshot {
            rng: self.rng(),
            scored: self.vec(|g| (genome(g), g.f64())),
            best: (genome(self), self.f64()),
            evaluations: self.usize(),
            history: self.vec(|g| (g.usize(), g.f64())),
            generation: self.usize(),
        }
    }

    fn pareto(&mut self) -> ParetoPoint {
        ParetoPoint {
            latency_ms: self.f64(),
            accuracy: self.f64(),
            energy_mj: self.opt(Gen::f64),
            peak_mem_mb: self.opt(Gen::f64),
            genome: self.vec(|g| g.pick(&OpType::ALL)),
        }
    }

    fn session_action(&mut self) -> SessionAction {
        let spilled = self.coin();
        self.pick(&[
            SessionAction::Built,
            SessionAction::Hit,
            SessionAction::Restored,
            SessionAction::Deferred,
            SessionAction::Evicted { spilled },
        ])
    }

    fn event(&mut self) -> FleetEvent {
        let (shard, device) = (self.usize(), self.pick(&DeviceKind::ALL));
        match self.below(7) {
            0 => FleetEvent::ShardStarted {
                shard,
                device,
                resumed_from: self.opt(Gen::usize),
                warm_predictor: self.coin(),
            },
            1 => FleetEvent::GenerationDone {
                shard,
                device,
                generation: self.usize(),
                iterations: self.usize(),
                best_score: self.opt(Gen::f64),
                clock_hours: self.f64(),
            },
            2 => FleetEvent::ParetoUpdated {
                shard,
                device,
                front: self.vec(Gen::pareto),
            },
            3 => FleetEvent::ShardPreempted {
                shard,
                device,
                generation: self.usize(),
            },
            4 => FleetEvent::ShardFinished {
                shard,
                device,
                latency_ms: self.f64(),
                accuracy: self.f64(),
                score: self.f64(),
                reference_ms: self.f64(),
                search_hours: self.f64(),
                hit_pct: self.f64(),
                imported: self.u64(),
            },
            5 => FleetEvent::ShardFailed {
                shard,
                device,
                error: self.string(),
            },
            _ => FleetEvent::SessionCache {
                shard,
                device,
                action: self.session_action(),
            },
        }
    }

    /// A shard report; its outcome's architecture is rebuilt on decode,
    /// so the geometry and genome must be ones an architecture can have.
    fn shard_report(&mut self) -> WireShardReport {
        let (k, out_classes) = (1 + self.below(20), 1 + self.below(40));
        let (upper, lower, genome) = self.joint();
        WireShardReport {
            scenario: self.string(),
            k,
            out_classes,
            device: self.pick(&DeviceKind::ALL),
            outcome: SearchOutcome {
                best: SearchedModel {
                    architecture: Architecture::from_genome(&genome, upper, lower, k, out_classes),
                    genome,
                    functions: (upper, lower),
                    score: self.f64(),
                    supernet_accuracy: self.f64(),
                    latency_ms: self.f64(),
                },
                history: self.vec(|g| (g.f64(), g.f64())),
                search_hours: self.f64(),
                predictor_stats: self.opt(Gen::train_stats),
                eval_stats: self.opt(Gen::eval_stats),
                stage1_stats: self.opt(Gen::eval_stats),
                reference_ms: self.f64(),
                constraint_ms: self.f64(),
            },
            pareto: self.vec(Gen::pareto),
            warm_predictor: self.coin(),
            resumed_from_generation: self.opt(Gen::usize),
            slices: self.u64(),
            prefix_builds: self.u64(),
        }
    }

    fn scenario(&mut self) -> ScenarioSpec {
        ScenarioSpec::new(self.string(), self.task(), self.search())
    }

    fn client_frame(&mut self) -> ClientFrame {
        match self.below(4) {
            0 => ClientFrame::Hello {
                tenant: self.string(),
                priority: self.u64() as u8,
            },
            1 => ClientFrame::Submit {
                task: self.task(),
                config: self.search(),
                devices: self.vec(|g| g.pick(&DeviceKind::ALL)),
                scenarios: self.vec(Gen::scenario),
            },
            2 => ClientFrame::Attach {
                request_id: self.u64(),
                tenant: self.string(),
                from_seq: self.u64(),
            },
            _ => ClientFrame::Bye,
        }
    }

    fn server_frame(&mut self) -> ServerFrame {
        match self.below(7) {
            0 => ServerFrame::HelloAck {
                protocol: self.u64() as u8,
            },
            1 => ServerFrame::Accepted {
                request_id: self.u64(),
                shards: self.usize(),
            },
            2 => ServerFrame::Rejected {
                request_id: self.u64(),
                reason: self.string(),
            },
            3 => ServerFrame::Event {
                request_id: self.u64(),
                seq: self.u64(),
                event: self.event(),
            },
            4 => ServerFrame::Report {
                request_id: self.u64(),
                report: WireReport {
                    k: self.usize(),
                    classes: self.usize(),
                    shards: self.vec(Gen::shard_report),
                    rounds: self.u64(),
                    slices: self.u64(),
                },
            },
            5 => ServerFrame::Pruned {
                report: PruneReport {
                    removed_files: self.usize(),
                    removed_bytes: self.u64(),
                    retained_bytes: self.u64(),
                },
            },
            _ => ServerFrame::Drain {
                parked: self.vec(Gen::u64),
            },
        }
    }
}

const KIND: ArtifactKind = ArtifactKind::Checkpoint;

/// `payload` sealed as an artifact.
fn sealed(payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new(KIND);
    e.bytes(payload);
    e.finish()
}

/// The generic property for one value: decoding its encoding consumes
/// every byte and re-encodes to the same bytes, and every strict prefix
/// of the encoding fails to decode (a panic fails the test).
fn check<T: Wire>(name: &str, value: &T) {
    let mut e = Encoder::new(KIND);
    value.put(&mut e);
    let bytes = e.finish();
    let mut d = Decoder::open(&bytes, KIND).unwrap();
    let back = T::take(&mut d).unwrap_or_else(|err| panic!("{name}: {err}"));
    assert!(d.is_exhausted(), "{name}: bytes left over");
    let mut e = Encoder::new(KIND);
    back.put(&mut e);
    assert_eq!(e.finish(), bytes, "{name}: re-encoding changed the bytes");
    let payload = &bytes[8..bytes.len() - 4];
    for cut in 0..payload.len() {
        let prefix = sealed(&payload[..cut]);
        let mut d = Decoder::open(&prefix, KIND).unwrap();
        assert!(
            T::take(&mut d).is_err(),
            "{name}: a {cut}-byte prefix of {} decoded",
            payload.len()
        );
    }
}

/// The same property for a frame codec: the payload after the 7-byte
/// header is what strict prefixes cut.
fn check_frame(
    name: &str,
    bytes: &[u8],
    round_trip: impl Fn(&[u8]) -> Result<Vec<u8>, CodecError>,
) {
    let again = round_trip(bytes).unwrap_or_else(|err| panic!("{name}: {err}"));
    assert_eq!(again, bytes, "{name}: re-encoding changed the bytes");
    let (kind, _) = Decoder::open_frame(bytes).unwrap();
    let payload = &bytes[7..bytes.len() - 4];
    for cut in 0..payload.len() {
        let mut e = Encoder::frame(kind);
        e.bytes(&payload[..cut]);
        assert!(
            round_trip(&e.finish()).is_err(),
            "{name}: a {cut}-byte prefix of {} decoded",
            payload.len()
        );
    }
}

/// Every byte value of a one-byte code table decodes exactly when it is
/// below the table length, and re-encodes to itself.
fn check_codes<T: Wire>(name: &str, len: usize) {
    for b in 0..=u8::MAX {
        let bytes = sealed(&[b]);
        let mut d = Decoder::open(&bytes, KIND).unwrap();
        match T::take(&mut d) {
            Ok(v) => {
                assert!(usize::from(b) < len, "{name}: code {b} decoded");
                let mut e = Encoder::new(KIND);
                v.put(&mut e);
                assert_eq!(e.finish(), bytes, "{name}: code {b} re-encoded differently");
            }
            Err(err) => {
                assert!(usize::from(b) >= len, "{name}: code {b} rejected: {err}");
                assert!(matches!(err, CodecError::Invalid(_)), "{name}: {err}");
            }
        }
    }
}

#[test]
fn every_code_table_decodes_exactly_its_codes() {
    check_codes::<bool>("bool", 2);
    check_codes::<DeviceKind>("DeviceKind", DeviceKind::ALL.len());
    check_codes::<OpType>("OpType", OpType::ALL.len());
    check_codes::<Aggregator>("Aggregator", Aggregator::ALL.len());
    check_codes::<MessageType>("MessageType", MessageType::ALL.len());
    check_codes::<SampleFn>("SampleFn", SampleFn::ALL.len());
    check_codes::<ConnectFn>("ConnectFn", ConnectFn::ALL.len());
    check_codes::<TaskKind>("TaskKind", TaskKind::ALL.len());
    check_codes::<LatencyMode>("LatencyMode", 2);
    check_codes::<SearchStrategy>("Strategy", 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_wire_type_round_trips_and_rejects_every_prefix(seed in 0u64..u64::MAX) {
        let g = &mut Gen(StdRng::seed_from_u64(seed));
        check("u8", &(g.u64() as u8));
        check("u16", &(g.u64() as u16));
        check("u32", &(g.u64() as u32));
        check("u64", &g.u64());
        check("usize", &g.usize());
        check("bool", &g.coin());
        check("f32", &g.f32());
        check("f64", &g.f64());
        check("String", &g.string());
        check("Option<f64>", &g.opt(Gen::f64));
        check("Option<String>", &g.opt(Gen::string));
        check("Vec<u64>", &g.vec(Gen::u64));
        check("Vec<String>", &g.vec(Gen::string));
        check("[u64; 4]", &[g.u64(), g.u64(), g.u64(), g.u64()]);
        check("2-tuple", &(g.coin(), g.f32()));
        check("5-tuple", &(g.u64() as u8, g.u64() as u16, g.u64() as u32, g.usize(), g.f64()));
        check("DeviceKind", &g.pick(&DeviceKind::ALL));
        check("OpType", &g.pick(&OpType::ALL));
        check("TaskKind", &g.pick(&TaskKind::ALL));
        check("FunctionSet", &g.functions());
        check("JointGenome", &g.joint());
        let task = g.task();
        check("TaskConfig", &task);
        check("DatasetConfig", &task.dataset);
        check("EaConfig", &g.ea());
        check("PredictorConfig", &g.predictor());
        check("DeviceProfile", &g.profile());
        check("DevicePersona", &g.persona());
        let search = g.search();
        check("SearchConfig", &search);
        check("LatencyMode", &search.latency_mode);
        check("Strategy", &search.strategy);
        check("PrefixParams", &search.prefix_params());
        check("ClassRates", &g.profile().rates[g.below(4)]);
        check("EvalStats", &g.eval_stats());
        check("TrainStats", &g.train_stats());
        check("PredictorContext", &g.context());
        check("Tensor", &g.tensor());
        check("StdRng", &g.rng());
        check("PredictorSnapshot", &PredictorSnapshot {
            device: g.pick(&DeviceKind::ALL),
            context: g.context(),
            global_node: g.coin(),
            gcn_dims: g.vec(Gen::usize),
            mlp_hidden: g.vec(Gen::usize),
            scale_ms: g.f64(),
            stats: g.train_stats(),
            weights: g.vec(Gen::tensor),
        });
        check("SessionSnapshot", &SessionSnapshot {
            functions: (g.functions(), g.functions()),
            stage1_stats: g.eval_stats(),
            clock_ms: g.f64(),
            weights: g.vec(Gen::tensor),
        });
        check("EaSnapshot<ops>", &g.ea_snapshot(Gen::genome));
        check("EaSnapshot<joint>", &g.ea_snapshot(Gen::joint));
        check("ParetoPoint", &g.pareto());
        check("PruneReport", &PruneReport {
            removed_files: g.usize(),
            removed_bytes: g.u64(),
            retained_bytes: g.u64(),
        });
        check("ScenarioSpec", &g.scenario());
        check("SessionAction", &g.session_action());
        check("FleetEvent", &g.event());
        check("WireShardReport", &g.shard_report());
        check("WireReport", &WireReport {
            k: g.usize(),
            classes: g.usize(),
            shards: g.vec(Gen::shard_report),
            rounds: g.u64(),
            slices: g.u64(),
        });
        check_frame("ClientFrame", &encode_client(&g.client_frame()), |b| {
            decode_client(b).map(|f| encode_client(&f))
        });
        check_frame("ServerFrame", &encode_server(&g.server_frame()), |b| {
            decode_server(b).map(|f| encode_server(&f))
        });
    }
}
