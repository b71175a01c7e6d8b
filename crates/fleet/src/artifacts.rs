//! The cross-run artifact store: predictor weights, search checkpoints and
//! evaluator score caches persisted to a directory via the versioned
//! binary [`crate::codec`].
//!
//! Most artifacts are keyed by `(device, configuration fingerprint)` so a
//! store can hold many tasks and search configurations side by side;
//! writes go through a temp file + rename, so a kill mid-write can never
//! leave a half-written artifact under a live name (and the codec's
//! checksum rejects any other corruption at load time).
//!
//! # Fingerprints: prefix vs. search
//!
//! Two structured fingerprints partition the configuration space:
//!
//! - [`search_fingerprint`] covers **everything that shapes a search
//!   outcome** (minus the bit-transparent thread budget). Checkpoints,
//!   score caches and one-stage checkpoints are keyed by it, per device:
//!   two shards share a checkpoint slot only when they would run the
//!   byte-identical search.
//! - [`prefix_fingerprint`] covers **exactly the inputs
//!   `Hgnas::prepare_session` consumes**: the task, the strategy, the
//!   Stage-1 EA settings, the Stage-1/Stage-2 epoch counts, the base seed
//!   (the prefix RNG derivations all flow from it) and the eval-cloud
//!   budget. It deliberately excludes the device (Stage-1 scoring never
//!   reads it — clock costing uses a fixed reference profile), α/β
//!   weights, constraints, the Stage-2 EA, the latency mode and the
//!   predictor settings, because the session a prefix build produces is
//!   bit-identical across all of them. [`ArtifactKind::Session`] spills
//!   and the engine's resident session LRU are keyed by it (via
//!   [`PrefixKey`]), so N shards differing only in Stage-2 seed, α/β, or
//!   eval budget share **one** pre-trained supernet instead of N.
//!
//! The session-sharing rule, in one line: a session may serve any shard
//! whose `(task, SearchConfig::prefix_params())` matches the builder's —
//! which is exactly what `SessionState::validate` re-checks at run time.
//!
//! Fingerprints are *structured*, not Debug-string hashes: every field is
//! folded with a stable numeric tag and type code through [`FieldHasher`],
//! so a pure Rust field rename (or doc churn) never re-keys a warm store,
//! while adding or removing a hashed field — or bumping
//! [`FINGERPRINT_SCHEMA`] — always does (a cache miss, never a wrong hit).
//! Golden-value tests pin the exact values.

use crate::codec::{ArtifactKind, CodecError, Decoder, Encoder};
use hgnas_core::{
    EaConfig, EaSnapshot, EvalStats, JointGenome, LatencyMode, OneStageCheckpoint, ScoredCandidate,
    SearchCheckpoint, SearchConfig, SearchedModel, SessionSnapshot, Strategy, TaskConfig,
};
use hgnas_device::{DeviceKind, DevicePersona, DeviceProfile};
use hgnas_ops::{Aggregator, Architecture, ConnectFn, FunctionSet, MessageType, OpType, SampleFn};
use hgnas_predictor::{PredictorConfig, PredictorContext, PredictorSnapshot, TrainStats};
use hgnas_tensor::Tensor;
use rand::rngs::StdRng;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Errors the store surfaces.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// The artifact exists but failed to decode (truncated/corrupt/foreign).
    Codec(CodecError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "artifact store I/O error: {e}"),
            StoreError::Codec(e) => write!(f, "artifact decode error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Identifies one artifact slot: a device plus a configuration
/// fingerprint (see [`predictor_fingerprint`] / [`search_fingerprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactKey {
    /// The device the artifact belongs to.
    pub device: DeviceKind,
    /// Configuration fingerprint disambiguating tasks/configs.
    pub fingerprint: u64,
}

impl ArtifactKey {
    /// The `-{device}-{fingerprint}.hgart` suffix every artifact of this
    /// key's slots carries, whatever the kind prefix — what the
    /// stale-fingerprint sweep matches on.
    fn file_suffix(&self) -> String {
        let slug: String = self
            .device
            .name()
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        format!("-{slug}-{:016x}.hgart", self.fingerprint)
    }

    fn file_name(&self, prefix: &str) -> String {
        format!("{prefix}{}", self.file_suffix())
    }
}

/// Identifies one *shared* session slot: the device-free prefix
/// fingerprint (see [`prefix_fingerprint`]). [`ArtifactKind::Session`]
/// spills and the engine's resident session LRU use this key, so
/// shards that agree on the deterministic prefix share one supernet
/// whatever their device, Stage-2 seed, or objective weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefixKey {
    /// The prefix fingerprint.
    pub fingerprint: u64,
}

impl PrefixKey {
    /// The `-shared-{fingerprint}.hgart` suffix of this key's session
    /// artifact. "shared" can never collide with a device slug
    /// (device names are alphanumeric, and none slugifies to it), so the
    /// stale sweep can tell prefix-keyed files from device-keyed ones.
    fn file_suffix(&self) -> String {
        format!("-shared-{:016x}.hgart", self.fingerprint)
    }

    fn file_name(&self) -> String {
        format!("session{}", self.file_suffix())
    }
}

/// Version of the fingerprint *schema* — the tag assignment and field
/// coverage below. Folded into every fingerprint, so bumping it re-keys
/// every artifact at once (the escape hatch when coverage must change
/// without any Rust field changing).
///
/// History: v2 added the task-kind code to the hashed task fields and
/// the multi-metric objective fields (γ/δ weights, energy/peak-memory
/// caps) plus the optional device persona to [`search_fingerprint`].
pub const FINGERPRINT_SCHEMA: u16 = 2;

/// Incremental FNV-1a hasher folding `(tag, type-code, payload)` triples.
///
/// This is what makes the fingerprints *structural* rather than textual:
/// field **names never enter the hash** — only the stable numeric tag the
/// caller assigns (protobuf-style) plus a type code and the value's
/// little-endian bytes. Renaming a Rust field therefore keeps its
/// fingerprint, while adding a field (a new tag) or changing a value
/// always changes it. Each fingerprint function below owns a tag
/// namespace; tags are append-only and must never be reused for a
/// different meaning — retire a field's tag with the field.
#[derive(Debug, Clone)]
pub struct FieldHasher {
    hash: u64,
}

impl FieldHasher {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher for one fingerprint domain (e.g. `"prefix"`); the domain
    /// string and [`FINGERPRINT_SCHEMA`] are folded first, so equal field
    /// sequences in different domains can never collide by construction.
    pub fn new(domain: &str) -> Self {
        let mut h = FieldHasher {
            hash: Self::FNV_OFFSET,
        };
        h.raw(&FINGERPRINT_SCHEMA.to_le_bytes());
        h.raw(domain.as_bytes());
        h
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(Self::FNV_PRIME);
        }
    }

    fn field(&mut self, tag: u16, type_code: u8, payload: &[u8]) {
        self.raw(&tag.to_le_bytes());
        self.raw(&[type_code]);
        self.raw(payload);
    }

    /// Folds an unsigned integer field (usize values widen losslessly).
    pub fn uint(&mut self, tag: u16, v: u64) {
        self.field(tag, 1, &v.to_le_bytes());
    }

    /// Folds an `f64` field by IEEE-754 bit pattern.
    pub fn float64(&mut self, tag: u16, v: f64) {
        self.field(tag, 2, &v.to_bits().to_le_bytes());
    }

    /// Folds an `f32` field by IEEE-754 bit pattern.
    pub fn float32(&mut self, tag: u16, v: f32) {
        self.field(tag, 3, &v.to_bits().to_le_bytes());
    }

    /// Folds a bool field.
    pub fn boolean(&mut self, tag: u16, v: bool) {
        self.field(tag, 4, &[u8::from(v)]);
    }

    /// Folds an enum discriminant. Callers must pass a *stable* code (an
    /// explicit match, or an index into a frozen table) — never a compiler
    /// discriminant that variant reordering could move.
    pub fn code(&mut self, tag: u16, v: u32) {
        self.field(tag, 5, &v.to_le_bytes());
    }

    /// Folds an optional `f64` (presence byte, then the bits if present).
    pub fn opt_float64(&mut self, tag: u16, v: Option<f64>) {
        match v {
            None => self.field(tag, 6, &[0]),
            Some(x) => {
                let mut payload = [0u8; 9];
                payload[0] = 1;
                payload[1..].copy_from_slice(&x.to_bits().to_le_bytes());
                self.field(tag, 6, &payload);
            }
        }
    }

    /// Folds a length-prefixed UTF-8 string (persona names and other
    /// user-chosen labels; the length prefix keeps adjacent text fields
    /// unambiguous).
    pub fn text(&mut self, tag: u16, v: &str) {
        let mut payload = Vec::with_capacity(8 + v.len());
        payload.extend_from_slice(&(v.len() as u64).to_le_bytes());
        payload.extend_from_slice(v.as_bytes());
        self.field(tag, 8, &payload);
    }

    /// Folds a length-prefixed slice of unsigned integers.
    pub fn uint_slice(&mut self, tag: u16, v: &[usize]) {
        let mut payload = Vec::with_capacity(8 * (v.len() + 1));
        payload.extend_from_slice(&(v.len() as u64).to_le_bytes());
        for &x in v {
            payload.extend_from_slice(&(x as u64).to_le_bytes());
        }
        self.field(tag, 7, &payload);
    }

    /// The finished fingerprint.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// Tags 1–6: the dataset; 10–14: the supernet geometry; 15: the task
/// kind. Shared by the prefix and search fingerprints (same tags — the
/// task means the same thing in both domains).
fn hash_task(h: &mut FieldHasher, task: &TaskConfig) {
    h.uint(1, task.dataset.classes as u64);
    h.uint(2, task.dataset.points as u64);
    h.uint(3, task.dataset.train_per_class as u64);
    h.uint(4, task.dataset.test_per_class as u64);
    h.float32(5, task.dataset.noise);
    h.uint(6, task.dataset.seed);
    h.uint(10, task.positions as u64);
    h.uint(11, task.k as u64);
    h.uint(12, task.supernet_hidden as u64);
    h.uint_slice(13, &task.head_hidden);
    h.uint(14, task.seed);
    h.code(15, u32::from(task.task_kind.code()));
}

/// Folds one EA config at tags `base..base+4`.
fn hash_ea(h: &mut FieldHasher, base: u16, ea: &EaConfig) {
    h.uint(base, ea.population as u64);
    h.uint(base + 1, ea.iterations as u64);
    h.float64(base + 2, ea.elite_fraction);
    h.float64(base + 3, ea.mutation_prob);
    h.uint(base + 4, ea.seed);
}

/// Stable wire code for a strategy (not the compiler discriminant).
fn strategy_code(s: Strategy) -> u32 {
    match s {
        Strategy::MultiStage => 0,
        Strategy::OneStage => 1,
    }
}

/// Fingerprint of exactly the inputs `Hgnas::prepare_session` consumes —
/// see the module docs for the field inventory and the sharing rule it
/// encodes. Two configurations with equal prefix fingerprints build
/// bit-identical [`hgnas_core::SessionState`]s, so either can use a
/// session the other built, resident or spilled.
pub fn prefix_fingerprint(task: &TaskConfig, cfg: &SearchConfig) -> u64 {
    let mut h = FieldHasher::new("prefix");
    hash_task(&mut h, task);
    let p = cfg.prefix_params();
    h.code(20, strategy_code(p.strategy));
    hash_ea(&mut h, 30, &p.ea_stage1);
    h.uint(40, p.epochs_stage1 as u64);
    h.uint(41, p.epochs_stage2 as u64);
    h.uint(42, p.seed);
    h.uint(43, p.eval_clouds as u64);
    h.finish()
}

/// Fingerprint of everything that shapes a search outcome: the task and
/// the search configuration *minus* the thread budget, which is
/// bit-transparent by construction and must not split the artifact space.
/// (The device is hashed too even though the key carries it — the
/// fingerprint alone identifies the configuration.)
pub fn search_fingerprint(task: &TaskConfig, cfg: &SearchConfig) -> u64 {
    let mut h = FieldHasher::new("search");
    hash_task(&mut h, task);
    h.code(20, strategy_code(cfg.strategy));
    hash_ea(&mut h, 30, &cfg.ea_stage1);
    hash_ea(&mut h, 35, &cfg.ea_stage2);
    h.uint(40, cfg.epochs_stage1 as u64);
    h.uint(41, cfg.epochs_stage2 as u64);
    h.uint(42, cfg.seed);
    h.uint(43, cfg.eval_clouds as u64);
    h.code(50, cfg.device.index() as u32);
    h.float64(51, cfg.alpha);
    h.float64(52, cfg.beta);
    h.opt_float64(53, cfg.constraint_ms);
    h.opt_float64(54, cfg.max_size_mb);
    h.code(
        55,
        match cfg.latency_mode {
            LatencyMode::Predictor => 0,
            LatencyMode::Measured => 1,
        },
    );
    h.float64(56, cfg.gamma);
    h.float64(57, cfg.delta);
    h.opt_float64(58, cfg.max_energy_mj);
    h.opt_float64(59, cfg.max_peak_mem_mb);
    hash_predictor_config(&mut h, 60, &cfg.predictor);
    // Tags 70+: the optional device persona. A calibrated/spec-loaded
    // persona changes every predicted latency, so it must re-key the
    // search artifacts; a `None` persona hashes as plain absence, keeping
    // builtin-device configs on their own stable fingerprints.
    h.boolean(70, cfg.persona.is_some());
    if let Some(p) = &cfg.persona {
        h.text(71, &p.name);
        hash_profile(&mut h, 72, &p.profile);
    }
    h.finish()
}

/// Folds a device profile at tags `base..base+15`: the base device code,
/// then every roofline parameter by bit pattern.
fn hash_profile(h: &mut FieldHasher, base: u16, p: &DeviceProfile) {
    h.code(base, p.kind.index() as u32);
    for (i, r) in p.rates.iter().enumerate() {
        h.float64(base + 1 + 2 * i as u16, r.gflops);
        h.float64(base + 2 + 2 * i as u16, r.gbps);
    }
    h.float64(base + 9, p.overhead_us);
    h.float64(base + 10, p.base_mem_mb);
    h.float64(base + 11, p.mem_factor);
    h.float64(base + 12, p.avail_mem_mb);
    h.float64(base + 13, p.noise_sigma);
    h.float64(base + 14, p.measurement_roundtrip_ms);
    h.float64(base + 15, p.power_w);
}

/// Folds a predictor config at tags `base..base+8`.
fn hash_predictor_config(h: &mut FieldHasher, base: u16, cfg: &PredictorConfig) {
    h.uint(base, cfg.train_samples as u64);
    h.uint(base + 1, cfg.val_samples as u64);
    h.uint(base + 2, cfg.epochs as u64);
    h.float32(base + 3, cfg.lr);
    h.uint_slice(base + 4, &cfg.gcn_dims);
    h.uint_slice(base + 5, &cfg.mlp_hidden);
    h.uint(base + 6, cfg.seed);
    h.boolean(base + 7, cfg.global_node);
    h.uint(base + 8, cfg.batch as u64);
}

/// Fingerprint of everything that shapes predictor training: the task
/// context and the full predictor configuration. Two runs with equal
/// fingerprints train bit-identical predictors, so one can reuse the
/// other's weights (the target device lives in the [`ArtifactKey`]).
pub fn predictor_fingerprint(ctx: &PredictorContext, cfg: &PredictorConfig) -> u64 {
    let mut h = FieldHasher::new("predictor");
    h.uint(1, ctx.positions as u64);
    h.uint(2, ctx.points as u64);
    h.uint(3, ctx.k as u64);
    h.uint(4, ctx.classes as u64);
    h.uint_slice(5, &ctx.head_hidden);
    hash_predictor_config(&mut h, 10, cfg);
    h.finish()
}

/// Persona-aware predictor fingerprint: the plain
/// [`predictor_fingerprint`] when no persona is pinned (or the persona's
/// profile is exactly its base kind's builtin), re-keyed by the calibrated
/// profile otherwise. Predictors learn the *profile's* latencies, so two
/// personas sharing a base [`DeviceKind`] must never share weights, while
/// a persona that merely names the builtin profile keeps the device-keyed
/// artifacts warm.
pub fn persona_predictor_fingerprint(
    ctx: &PredictorContext,
    cfg: &PredictorConfig,
    persona: Option<&DevicePersona>,
) -> u64 {
    let base = predictor_fingerprint(ctx, cfg);
    match persona {
        Some(p) if p.profile != DeviceProfile::builtin(p.profile.kind) => {
            let mut h = FieldHasher::new("predictor-persona");
            h.uint(1, base);
            hash_profile(&mut h, 10, &p.profile);
            h.finish()
        }
        _ => base,
    }
}

/// A directory of HGNAS artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Temp files younger than this survive [`ArtifactStore::prune`]: they
    /// may belong to a concurrent writer between its `write` and `rename`.
    /// Any real write completes in well under a minute; anything older is
    /// a torn write's leftover.
    pub const TMP_GC_AGE: std::time::Duration = std::time::Duration::from_secs(60);

    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(root.as_ref())?;
        Ok(ArtifactStore {
            root: root.as_ref().to_path_buf(),
        })
    }

    /// The store's directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<PathBuf> {
        // The temp name is unique per writer: concurrent shards (e.g. a
        // fleet configured with the same device twice) may persist the
        // same artifact slot at the same time, and interleaved writes to
        // one shared temp file would rename torn bytes into place.
        static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let w = WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let final_path = self.root.join(name);
        let tmp = self
            .root
            .join(format!("{name}.{}-{w}.tmp", std::process::id()));
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, &final_path)?;
        Ok(final_path)
    }

    fn read_optional(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.root.join(name)) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Opens a decoder over `bytes`, mapping a version mismatch to `None`:
    /// an artifact written by an older (or newer) format is a safe cold
    /// start for its slot — the documented versioning contract — not a
    /// run-killing error. Anything else (corruption, wrong kind) still
    /// fails loudly.
    fn open_current<'a>(
        bytes: &'a [u8],
        kind: ArtifactKind,
    ) -> Result<Option<Decoder<'a>>, StoreError> {
        match Decoder::open(bytes, kind) {
            Ok(d) => Ok(Some(d)),
            Err(CodecError::UnsupportedVersion(_)) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Persists trained predictor weights.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save_predictor(
        &self,
        key: &ArtifactKey,
        snap: &PredictorSnapshot,
    ) -> Result<PathBuf, StoreError> {
        let mut e = Encoder::new(ArtifactKind::Predictor);
        put_predictor(&mut e, snap);
        Ok(self.write_atomic(&key.file_name("predictor"), &e.finish())?)
    }

    /// Loads predictor weights if the slot holds any.
    ///
    /// # Errors
    ///
    /// Filesystem failures, or [`StoreError::Codec`] when the artifact is
    /// corrupt (a missing artifact is `Ok(None)`, not an error).
    pub fn load_predictor(
        &self,
        key: &ArtifactKey,
    ) -> Result<Option<PredictorSnapshot>, StoreError> {
        let Some(bytes) = self.read_optional(&key.file_name("predictor"))? else {
            return Ok(None);
        };
        let Some(mut d) = Self::open_current(&bytes, ArtifactKind::Predictor)? else {
            return Ok(None);
        };
        Ok(Some(take_predictor(&mut d)?))
    }

    /// Persists a Stage-2 search checkpoint. `task` supplies the
    /// architecture-rebuild parameters (`k`, classes) the compact encoding
    /// needs at load time, plus a fingerprint cross-check.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save_checkpoint(
        &self,
        key: &ArtifactKey,
        task: &TaskConfig,
        cp: &SearchCheckpoint,
    ) -> Result<PathBuf, StoreError> {
        let mut e = Encoder::new(ArtifactKind::Checkpoint);
        put_checkpoint(&mut e, task, cp);
        Ok(self.write_atomic(&key.file_name("checkpoint"), &e.finish())?)
    }

    /// Loads a search checkpoint if the slot holds one.
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::load_predictor`].
    pub fn load_checkpoint(
        &self,
        key: &ArtifactKey,
    ) -> Result<Option<SearchCheckpoint>, StoreError> {
        let Some(bytes) = self.read_optional(&key.file_name("checkpoint"))? else {
            return Ok(None);
        };
        let Some(mut d) = Self::open_current(&bytes, ArtifactKind::Checkpoint)? else {
            return Ok(None);
        };
        Ok(Some(take_checkpoint(&mut d)?))
    }

    /// Persists a one-stage (joint baseline) checkpoint. The counterpart
    /// of [`ArtifactStore::save_checkpoint`] for `Strategy::OneStage`
    /// runs; the two kinds live in separate slots and can never be
    /// mistaken for each other (distinct [`ArtifactKind`]s).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save_one_stage_checkpoint(
        &self,
        key: &ArtifactKey,
        task: &TaskConfig,
        cp: &OneStageCheckpoint,
    ) -> Result<PathBuf, StoreError> {
        let mut e = Encoder::new(ArtifactKind::OneStageCheckpoint);
        put_one_stage_checkpoint(&mut e, task, cp);
        Ok(self.write_atomic(&key.file_name("onestage"), &e.finish())?)
    }

    /// Loads a one-stage checkpoint if the slot holds one.
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::load_predictor`].
    pub fn load_one_stage_checkpoint(
        &self,
        key: &ArtifactKey,
    ) -> Result<Option<OneStageCheckpoint>, StoreError> {
        let Some(bytes) = self.read_optional(&key.file_name("onestage"))? else {
            return Ok(None);
        };
        let Some(mut d) = Self::open_current(&bytes, ArtifactKind::OneStageCheckpoint)? else {
            return Ok(None);
        };
        Ok(Some(take_one_stage_checkpoint(&mut d)?))
    }

    /// Persists a finished run's evaluator score cache as a standalone
    /// artifact. These are what [`hgnas_core::RunOptions::imported_cache`]
    /// warm starts consume: a later run with the same configuration
    /// fingerprint can promote the stored scores instead of recomputing
    /// them, even when its checkpoint is gone.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save_score_cache(
        &self,
        key: &ArtifactKey,
        task: &TaskConfig,
        functions: (FunctionSet, FunctionSet),
        entries: &[(Vec<OpType>, ScoredCandidate)],
    ) -> Result<PathBuf, StoreError> {
        let mut e = Encoder::new(ArtifactKind::ScoreCache);
        e.put_usize(task.k);
        e.put_usize(task.classes());
        put_function_set(&mut e, &functions.0);
        put_function_set(&mut e, &functions.1);
        put_cache_entries(&mut e, entries);
        Ok(self.write_atomic(&key.file_name("scorecache"), &e.finish())?)
    }

    /// Loads a score cache if the slot holds one.
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::load_predictor`].
    #[allow(clippy::type_complexity)]
    pub fn load_score_cache(
        &self,
        key: &ArtifactKey,
    ) -> Result<Option<Vec<(Vec<OpType>, ScoredCandidate)>>, StoreError> {
        let Some(bytes) = self.read_optional(&key.file_name("scorecache"))? else {
            return Ok(None);
        };
        let Some(mut d) = Self::open_current(&bytes, ArtifactKind::ScoreCache)? else {
            return Ok(None);
        };
        let k = d.take_usize()?;
        let classes = d.take_usize()?;
        let upper = take_function_set(&mut d)?;
        let lower = take_function_set(&mut d)?;
        Ok(Some(take_cache_entries(&mut d, upper, lower, k, classes)?))
    }

    /// Persists a spilled session (`hgnas_core::SessionState::export`):
    /// the Stage-1 outcome plus the pre-trained supernet weights. What the
    /// engine's session cache writes when a memory budget evicts a
    /// parked shard's session, so the next slice restores it instead of
    /// replaying Stage 1 + pre-training. Keyed by [`PrefixKey`] — no
    /// device — so any shard sharing the prefix restores it (see the
    /// module docs for the sharing rule).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save_session(
        &self,
        key: &PrefixKey,
        snap: &SessionSnapshot,
    ) -> Result<PathBuf, StoreError> {
        let mut e = Encoder::new(ArtifactKind::Session);
        put_function_set(&mut e, &snap.functions.0);
        put_function_set(&mut e, &snap.functions.1);
        put_eval_stats(&mut e, &snap.stage1_stats);
        e.put_f64(snap.clock_ms);
        e.put_usize(snap.weights.len());
        for w in &snap.weights {
            put_tensor(&mut e, w);
        }
        Ok(self.write_atomic(&key.file_name(), &e.finish())?)
    }

    /// Loads a spilled session if the slot holds one.
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::load_predictor`].
    pub fn load_session(&self, key: &PrefixKey) -> Result<Option<SessionSnapshot>, StoreError> {
        let Some(bytes) = self.read_optional(&key.file_name())? else {
            return Ok(None);
        };
        let Some(mut d) = Self::open_current(&bytes, ArtifactKind::Session)? else {
            return Ok(None);
        };
        let upper = take_function_set(&mut d)?;
        let lower = take_function_set(&mut d)?;
        let stage1_stats = take_eval_stats(&mut d)?;
        let clock_ms = d.take_f64()?;
        let n = d.take_usize()?;
        let weights = (0..n)
            .map(|_| take_tensor(&mut d))
            .collect::<Result<_, _>>()?;
        Ok(Some(SessionSnapshot {
            functions: (upper, lower),
            stage1_stats,
            clock_ms,
            weights,
        }))
    }

    /// Deletes leftover temp files (torn writes) and then the
    /// oldest-modified artifacts until the store holds at most `max_bytes`
    /// — the size-budget half of the GC story for long-lived fleet hosts,
    /// whose stores otherwise only grow. Dropping an artifact is always
    /// safe: the next run that wants it cold-starts that slot. Only temp
    /// files older than [`ArtifactStore::TMP_GC_AGE`] are touched, so a GC
    /// pass can run alongside a live fleet without racing an in-flight
    /// `write → rename` out of its temp file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn prune(&self, max_bytes: u64) -> Result<PruneReport, StoreError> {
        let now = std::time::SystemTime::now();
        let mut report = PruneReport::default();
        let mut artifacts: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let path = entry.path();
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                // A torn write's leftovers are garbage at any budget — but
                // a *young* temp file may be a concurrent writer mid
                // `write → rename`; deleting it would fail that save.
                let stale = now
                    .duration_since(meta.modified()?)
                    .is_ok_and(|age| age >= Self::TMP_GC_AGE);
                if stale {
                    fs::remove_file(&path)?;
                    report.removed_files += 1;
                    report.removed_bytes += meta.len();
                }
            } else if name.ends_with(".hgart") {
                artifacts.push((path, meta.len(), meta.modified()?));
            }
        }
        // Oldest first; the name tie-break keeps the order deterministic
        // under coarse filesystem mtime granularity.
        artifacts.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut total: u64 = artifacts.iter().map(|a| a.1).sum();
        for (path, len, _) in &artifacts {
            if total <= max_bytes {
                break;
            }
            fs::remove_file(path)?;
            report.removed_files += 1;
            report.removed_bytes += len;
            total -= len;
        }
        report.retained_bytes = total;
        Ok(report)
    }

    /// Deletes every artifact (all kinds) whose `(device, fingerprint)`
    /// key is not in `live` and whose prefix key is not in
    /// `live_sessions` — the stale-fingerprint sweep: a task or
    /// configuration change re-fingerprints its slots and strands the old
    /// artifacts forever, since nothing will ever look them up again.
    /// Session artifacts are device-free ([`PrefixKey`]), hence the
    /// second live list.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn sweep_stale(
        &self,
        live: &[ArtifactKey],
        live_sessions: &[PrefixKey],
    ) -> Result<PruneReport, StoreError> {
        let mut suffixes: Vec<String> = live.iter().map(ArtifactKey::file_suffix).collect();
        suffixes.extend(live_sessions.iter().map(PrefixKey::file_suffix));
        let mut report = PruneReport::default();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let path = entry.path();
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !name.ends_with(".hgart") {
                continue;
            }
            if suffixes.iter().any(|s| name.ends_with(s.as_str())) {
                report.retained_bytes += meta.len();
            } else {
                fs::remove_file(&path)?;
                report.removed_files += 1;
                report.removed_bytes += meta.len();
            }
        }
        Ok(report)
    }
}

/// What a GC pass ([`ArtifactStore::prune`] / [`ArtifactStore::sweep_stale`])
/// removed and kept.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruneReport {
    /// Files deleted.
    pub removed_files: usize,
    /// Bytes reclaimed.
    pub removed_bytes: u64,
    /// Artifact bytes still in the store after the pass.
    pub retained_bytes: u64,
}

// ---- value encoders/decoders -------------------------------------------

pub(crate) fn put_device(e: &mut Encoder, d: DeviceKind) {
    e.put_u8(d.index() as u8);
}

pub(crate) fn take_device(d: &mut Decoder) -> Result<DeviceKind, CodecError> {
    let i = usize::from(d.take_u8()?);
    DeviceKind::ALL
        .get(i)
        .copied()
        .ok_or(CodecError::Invalid("device index"))
}

pub(crate) fn put_opt_f64(e: &mut Encoder, v: Option<f64>) {
    e.put_bool(v.is_some());
    if let Some(v) = v {
        e.put_f64(v);
    }
}

pub(crate) fn take_opt_f64(d: &mut Decoder) -> Result<Option<f64>, CodecError> {
    Ok(if d.take_bool()? {
        Some(d.take_f64()?)
    } else {
        None
    })
}

pub(crate) fn put_genome(e: &mut Encoder, genome: &[OpType]) {
    e.put_usize(genome.len());
    for &op in genome {
        e.put_u8(op.index() as u8);
    }
}

pub(crate) fn take_genome(d: &mut Decoder) -> Result<Vec<OpType>, CodecError> {
    let n = d.take_usize()?;
    (0..n)
        .map(|_| {
            let i = usize::from(d.take_u8()?);
            OpType::ALL
                .get(i)
                .copied()
                .ok_or(CodecError::Invalid("op type index"))
        })
        .collect()
}

pub(crate) fn put_function_set(e: &mut Encoder, fs: &FunctionSet) {
    e.put_u8(fs.aggregator.index() as u8);
    e.put_u8(fs.message.index() as u8);
    e.put_u8(fs.sample.index() as u8);
    e.put_u8(fs.connect.index() as u8);
    e.put_usize(fs.combine_dim);
}

pub(crate) fn take_function_set(d: &mut Decoder) -> Result<FunctionSet, CodecError> {
    fn pick<T: Copy>(table: &[T], i: u8, what: &'static str) -> Result<T, CodecError> {
        table
            .get(usize::from(i))
            .copied()
            .ok_or(CodecError::Invalid(what))
    }
    Ok(FunctionSet {
        aggregator: pick(&Aggregator::ALL, d.take_u8()?, "aggregator index")?,
        message: pick(&MessageType::ALL, d.take_u8()?, "message index")?,
        sample: pick(&SampleFn::ALL, d.take_u8()?, "sample index")?,
        connect: pick(&ConnectFn::ALL, d.take_u8()?, "connect index")?,
        combine_dim: d.take_usize()?,
    })
}

fn put_tensor(e: &mut Encoder, t: &Tensor) {
    e.put_usize_slice(t.dims());
    e.put_usize(t.data().len());
    for &v in t.data() {
        e.put_f32(v);
    }
}

fn take_tensor(d: &mut Decoder) -> Result<Tensor, CodecError> {
    let dims = d.take_usize_vec()?;
    let n = d.take_usize()?;
    if n != dims.iter().product::<usize>() {
        return Err(CodecError::Invalid("tensor element count"));
    }
    let data = (0..n)
        .map(|_| d.take_f32())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Tensor::from_vec(data, &dims))
}

pub(crate) fn put_train_stats(e: &mut Encoder, s: &TrainStats) {
    e.put_f64(s.train_mape);
    e.put_f64(s.val_mape);
    e.put_f64(s.val_within_10pct);
    e.put_usize(s.train_size);
}

pub(crate) fn take_train_stats(d: &mut Decoder) -> Result<TrainStats, CodecError> {
    Ok(TrainStats {
        train_mape: d.take_f64()?,
        val_mape: d.take_f64()?,
        val_within_10pct: d.take_f64()?,
        train_size: d.take_usize()?,
    })
}

fn put_context(e: &mut Encoder, c: &PredictorContext) {
    e.put_usize(c.positions);
    e.put_usize(c.points);
    e.put_usize(c.k);
    e.put_usize(c.classes);
    e.put_usize_slice(&c.head_hidden);
}

fn take_context(d: &mut Decoder) -> Result<PredictorContext, CodecError> {
    Ok(PredictorContext {
        positions: d.take_usize()?,
        points: d.take_usize()?,
        k: d.take_usize()?,
        classes: d.take_usize()?,
        head_hidden: d.take_usize_vec()?,
    })
}

fn put_predictor(e: &mut Encoder, s: &PredictorSnapshot) {
    put_device(e, s.device);
    put_context(e, &s.context);
    e.put_bool(s.global_node);
    e.put_usize_slice(&s.gcn_dims);
    e.put_usize_slice(&s.mlp_hidden);
    e.put_f64(s.scale_ms);
    put_train_stats(e, &s.stats);
    e.put_usize(s.weights.len());
    for w in &s.weights {
        put_tensor(e, w);
    }
}

fn take_predictor(d: &mut Decoder) -> Result<PredictorSnapshot, CodecError> {
    Ok(PredictorSnapshot {
        device: take_device(d)?,
        context: take_context(d)?,
        global_node: d.take_bool()?,
        gcn_dims: d.take_usize_vec()?,
        mlp_hidden: d.take_usize_vec()?,
        scale_ms: d.take_f64()?,
        stats: take_train_stats(d)?,
        weights: {
            let n = d.take_usize()?;
            (0..n).map(|_| take_tensor(d)).collect::<Result<_, _>>()?
        },
    })
}

pub(crate) fn put_ea_config(e: &mut Encoder, c: &EaConfig) {
    e.put_usize(c.population);
    e.put_usize(c.iterations);
    e.put_f64(c.elite_fraction);
    e.put_f64(c.mutation_prob);
    e.put_u64(c.seed);
}

pub(crate) fn take_ea_config(d: &mut Decoder) -> Result<EaConfig, CodecError> {
    Ok(EaConfig {
        population: d.take_usize()?,
        iterations: d.take_usize()?,
        elite_fraction: d.take_f64()?,
        mutation_prob: d.take_f64()?,
        seed: d.take_u64()?,
    })
}

pub(crate) fn put_eval_stats(e: &mut Encoder, s: &EvalStats) {
    e.put_u64(s.hits);
    e.put_u64(s.misses);
    e.put_u64(s.imported);
    e.put_u64(s.validated);
    e.put_u64(s.rejected);
    e.put_u64(s.batches);
    e.put_u64(s.submitted);
}

pub(crate) fn take_eval_stats(d: &mut Decoder) -> Result<EvalStats, CodecError> {
    Ok(EvalStats {
        hits: d.take_u64()?,
        misses: d.take_u64()?,
        imported: d.take_u64()?,
        validated: d.take_u64()?,
        rejected: d.take_u64()?,
        batches: d.take_u64()?,
        submitted: d.take_u64()?,
    })
}

fn put_rng(e: &mut Encoder, rng: &StdRng) {
    for w in rng.state() {
        e.put_u64(w);
    }
}

fn take_rng(d: &mut Decoder) -> Result<StdRng, CodecError> {
    let mut s = [0u64; 4];
    for w in &mut s {
        *w = d.take_u64()?;
    }
    if s.iter().all(|&w| w == 0) {
        return Err(CodecError::Invalid("all-zero rng state"));
    }
    Ok(StdRng::from_state(s))
}

/// Encodes an EA snapshot; `put_g` encodes one genome (the snapshot is
/// generic over it: op genomes for Stage 2, joint genomes for one-stage).
fn put_ea_with<G>(e: &mut Encoder, ea: &EaSnapshot<G>, put_g: impl Fn(&mut Encoder, &G)) {
    put_rng(e, &ea.rng);
    e.put_usize(ea.scored.len());
    for (g, f) in &ea.scored {
        put_g(e, g);
        e.put_f64(*f);
    }
    put_g(e, &ea.best.0);
    e.put_f64(ea.best.1);
    e.put_usize(ea.evaluations);
    e.put_usize(ea.history.len());
    for &(i, f) in &ea.history {
        e.put_usize(i);
        e.put_f64(f);
    }
    e.put_usize(ea.generation);
}

fn take_ea_with<G>(
    d: &mut Decoder,
    take_g: impl Fn(&mut Decoder) -> Result<G, CodecError>,
) -> Result<EaSnapshot<G>, CodecError> {
    let rng = take_rng(d)?;
    let n = d.take_usize()?;
    let scored = (0..n)
        .map(|_| Ok((take_g(d)?, d.take_f64()?)))
        .collect::<Result<Vec<_>, CodecError>>()?;
    let best = (take_g(d)?, d.take_f64()?);
    let evaluations = d.take_usize()?;
    let h = d.take_usize()?;
    let history = (0..h)
        .map(|_| Ok((d.take_usize()?, d.take_f64()?)))
        .collect::<Result<Vec<_>, CodecError>>()?;
    let generation = d.take_usize()?;
    Ok(EaSnapshot {
        rng,
        scored,
        best,
        evaluations,
        history,
        generation,
    })
}

fn put_joint_genome(e: &mut Encoder, g: &JointGenome) {
    put_function_set(e, &g.0);
    put_function_set(e, &g.1);
    put_genome(e, &g.2);
}

fn take_joint_genome(d: &mut Decoder) -> Result<JointGenome, CodecError> {
    let upper = take_function_set(d)?;
    let lower = take_function_set(d)?;
    let genome = take_genome(d)?;
    if genome.is_empty() {
        return Err(CodecError::Invalid("empty joint genome"));
    }
    Ok((upper, lower, genome))
}

/// Cache entries are stored without their `Architecture`: the genome plus
/// the run's function sets and task geometry rebuild it exactly
/// (`Architecture::from_genome` is how the search built it in the first
/// place), which keeps checkpoints compact.
fn put_cache_entries(e: &mut Encoder, entries: &[(Vec<OpType>, ScoredCandidate)]) {
    e.put_usize(entries.len());
    for (genome, c) in entries {
        put_genome(e, genome);
        e.put_f64(c.score);
        e.put_f64(c.accuracy);
        e.put_f64(c.latency_ms);
        e.put_f64(c.cost_ms);
        e.put_bool(c.valid);
        put_opt_f64(e, c.energy_mj);
        put_opt_f64(e, c.peak_mem_mb);
    }
}

fn take_cache_entries(
    d: &mut Decoder,
    upper: FunctionSet,
    lower: FunctionSet,
    k: usize,
    classes: usize,
) -> Result<Vec<(Vec<OpType>, ScoredCandidate)>, CodecError> {
    let n = d.take_usize()?;
    (0..n)
        .map(|_| {
            let genome = take_genome(d)?;
            if genome.is_empty() {
                return Err(CodecError::Invalid("empty genome"));
            }
            let candidate = ScoredCandidate {
                architecture: Architecture::from_genome(&genome, upper, lower, k, classes),
                score: d.take_f64()?,
                accuracy: d.take_f64()?,
                latency_ms: d.take_f64()?,
                cost_ms: d.take_f64()?,
                valid: d.take_bool()?,
                energy_mj: take_opt_f64(d)?,
                peak_mem_mb: take_opt_f64(d)?,
            };
            Ok((genome, candidate))
        })
        .collect()
}

fn put_checkpoint(e: &mut Encoder, task: &TaskConfig, cp: &SearchCheckpoint) {
    e.put_u64(cp.seed);
    put_device(e, cp.device);
    e.put_usize(task.k);
    e.put_usize(task.classes());
    put_function_set(e, &cp.functions.0);
    put_function_set(e, &cp.functions.1);
    put_ea_config(e, &cp.ea_config);
    e.put_usize(cp.generation);
    put_ea_with(e, &cp.ea, |e, g: &Vec<OpType>| put_genome(e, g));
    put_eval_stats(e, &cp.eval_stats);
    put_cache_entries(e, &cp.cache);
    put_cache_entries(e, &cp.warm_cache);
    e.put_f64(cp.clock_ms);
    e.put_usize(cp.history.len());
    for &(t, s) in &cp.history {
        e.put_f64(t);
        e.put_f64(s);
    }
    match &cp.best {
        None => e.put_bool(false),
        Some((model, valid)) => {
            e.put_bool(true);
            put_genome(e, &model.genome);
            e.put_f64(model.score);
            e.put_f64(model.supernet_accuracy);
            e.put_f64(model.latency_ms);
            e.put_bool(*valid);
        }
    }
}

fn take_checkpoint(d: &mut Decoder) -> Result<SearchCheckpoint, CodecError> {
    let seed = d.take_u64()?;
    let device = take_device(d)?;
    let k = d.take_usize()?;
    let classes = d.take_usize()?;
    let upper = take_function_set(d)?;
    let lower = take_function_set(d)?;
    let ea_config = take_ea_config(d)?;
    let generation = d.take_usize()?;
    let ea = take_ea_with(d, take_genome)?;
    let eval_stats = take_eval_stats(d)?;
    let cache = take_cache_entries(d, upper, lower, k, classes)?;
    let warm_cache = take_cache_entries(d, upper, lower, k, classes)?;
    let clock_ms = d.take_f64()?;
    let h = d.take_usize()?;
    let history = (0..h)
        .map(|_| Ok((d.take_f64()?, d.take_f64()?)))
        .collect::<Result<Vec<_>, CodecError>>()?;
    let best = if d.take_bool()? {
        let genome = take_genome(d)?;
        if genome.is_empty() {
            return Err(CodecError::Invalid("empty best genome"));
        }
        let architecture = Architecture::from_genome(&genome, upper, lower, k, classes);
        let model = SearchedModel {
            architecture,
            genome,
            functions: (upper, lower),
            score: d.take_f64()?,
            supernet_accuracy: d.take_f64()?,
            latency_ms: d.take_f64()?,
        };
        let valid = d.take_bool()?;
        Some((model, valid))
    } else {
        None
    };
    Ok(SearchCheckpoint {
        seed,
        device,
        functions: (upper, lower),
        ea_config,
        generation,
        ea,
        eval_stats,
        cache,
        warm_cache,
        clock_ms,
        history,
        best,
    })
}

/// One-stage cache entries carry each candidate's own function sets (the
/// joint genome), which is also what rebuilds the architecture at load
/// time.
fn put_joint_cache_entries(e: &mut Encoder, entries: &[(JointGenome, ScoredCandidate)]) {
    e.put_usize(entries.len());
    for (genome, c) in entries {
        put_joint_genome(e, genome);
        e.put_f64(c.score);
        e.put_f64(c.accuracy);
        e.put_f64(c.latency_ms);
        e.put_f64(c.cost_ms);
        e.put_bool(c.valid);
        put_opt_f64(e, c.energy_mj);
        put_opt_f64(e, c.peak_mem_mb);
    }
}

fn take_joint_cache_entries(
    d: &mut Decoder,
    k: usize,
    classes: usize,
) -> Result<Vec<(JointGenome, ScoredCandidate)>, CodecError> {
    let n = d.take_usize()?;
    (0..n)
        .map(|_| {
            let genome = take_joint_genome(d)?;
            let candidate = ScoredCandidate {
                architecture: Architecture::from_genome(&genome.2, genome.0, genome.1, k, classes),
                score: d.take_f64()?,
                accuracy: d.take_f64()?,
                latency_ms: d.take_f64()?,
                cost_ms: d.take_f64()?,
                valid: d.take_bool()?,
                energy_mj: take_opt_f64(d)?,
                peak_mem_mb: take_opt_f64(d)?,
            };
            Ok((genome, candidate))
        })
        .collect()
}

fn put_one_stage_checkpoint(e: &mut Encoder, task: &TaskConfig, cp: &OneStageCheckpoint) {
    e.put_u64(cp.seed);
    put_device(e, cp.device);
    e.put_usize(task.k);
    e.put_usize(task.classes());
    put_ea_config(e, &cp.ea_config);
    e.put_usize(cp.generation);
    put_ea_with(e, &cp.ea, put_joint_genome);
    put_eval_stats(e, &cp.eval_stats);
    put_joint_cache_entries(e, &cp.cache);
    e.put_f64(cp.clock_ms);
    e.put_usize(cp.history.len());
    for &(t, s) in &cp.history {
        e.put_f64(t);
        e.put_f64(s);
    }
    match &cp.best {
        None => e.put_bool(false),
        Some((model, valid)) => {
            e.put_bool(true);
            // The one-stage best carries its own function sets (every
            // candidate evolves them), unlike the Stage-2 best which
            // shares the checkpoint-level pair.
            put_function_set(e, &model.functions.0);
            put_function_set(e, &model.functions.1);
            put_genome(e, &model.genome);
            e.put_f64(model.score);
            e.put_f64(model.supernet_accuracy);
            e.put_f64(model.latency_ms);
            e.put_bool(*valid);
        }
    }
}

fn take_one_stage_checkpoint(d: &mut Decoder) -> Result<OneStageCheckpoint, CodecError> {
    let seed = d.take_u64()?;
    let device = take_device(d)?;
    let k = d.take_usize()?;
    let classes = d.take_usize()?;
    let ea_config = take_ea_config(d)?;
    let generation = d.take_usize()?;
    let ea = take_ea_with(d, take_joint_genome)?;
    let eval_stats = take_eval_stats(d)?;
    let cache = take_joint_cache_entries(d, k, classes)?;
    let clock_ms = d.take_f64()?;
    let h = d.take_usize()?;
    let history = (0..h)
        .map(|_| Ok((d.take_f64()?, d.take_f64()?)))
        .collect::<Result<Vec<_>, CodecError>>()?;
    let best = if d.take_bool()? {
        let upper = take_function_set(d)?;
        let lower = take_function_set(d)?;
        let genome = take_genome(d)?;
        if genome.is_empty() {
            return Err(CodecError::Invalid("empty best genome"));
        }
        let architecture = Architecture::from_genome(&genome, upper, lower, k, classes);
        let model = SearchedModel {
            architecture,
            genome,
            functions: (upper, lower),
            score: d.take_f64()?,
            supernet_accuracy: d.take_f64()?,
            latency_ms: d.take_f64()?,
        };
        let valid = d.take_bool()?;
        Some((model, valid))
    } else {
        None
    };
    Ok(OneStageCheckpoint {
        seed,
        device,
        ea_config,
        generation,
        ea,
        eval_stats,
        cache,
        clock_ms,
        history,
        best,
    })
}
