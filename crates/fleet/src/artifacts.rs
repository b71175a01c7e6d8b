//! The cross-run artifact store: predictor weights, search checkpoints,
//! evaluator score caches and spilled sessions persisted to a directory
//! through the versioned binary [`crate::codec`].
//!
//! Most artifacts are keyed by `(device, configuration fingerprint)` so a
//! store can hold many tasks and search configurations side by side;
//! writes go through a temp file + rename, so a kill mid-write can never
//! leave a half-written artifact under a live name (and the codec's
//! checksum rejects any other corruption at load time).
//!
//! # Layouts
//!
//! Every artifact is [`Wire`] values in a row, each type's layout written
//! down once: predictor weights are a [`PredictorSnapshot`] and a spilled
//! session a [`SessionSnapshot`], each declared by its field list. Scored
//! candidates (checkpoint caches, score caches, best models) are stored
//! without their architecture: the genome plus the task geometry and
//! function sets rebuild it exactly on load (`Architecture::from_genome`
//! is how the search built it in the first place), which keeps
//! checkpoints compact. One candidate codec and one checkpoint layout,
//! generic over [`Genome`], serve both strategies: Stage-2 op genomes
//! share the artifact's function-set pair, and one-stage joint genomes
//! carry their own (the genome trait is the one place that knows which).
//! A checkpoint opens with its [`Strategy`] code, so one slot can hold
//! either strategy's and the load hands back a [`Checkpoint`] of the
//! right kind. To add a field, append it to its type's list and bump
//! [`crate::codec::VERSION`]; if the type feeds a fingerprint, bump
//! [`FINGERPRINT_SCHEMA`] too.
//!
//! # Fingerprints: prefix, search, predictor
//!
//! Each fingerprint is FNV-1a over a domain name, [`FINGERPRINT_SCHEMA`]
//! and the self-delimiting [`Wire`] encoding of exactly what it covers, so
//! a key covers the same fields the codec writes and cannot drift from it:
//!
//! - [`search_fingerprint`] covers **everything that shapes a search
//!   outcome**: the task and the whole [`SearchConfig`] except
//!   `eval_threads`. Checkpoints of either strategy and score caches are
//!   keyed by it, per device: two shards share a checkpoint slot only
//!   when they would run the byte-identical search, so a slot never holds
//!   the other strategy's checkpoint unless a file is planted there. The
//!   thread budget is bit-transparent, and the engine re-splits it per
//!   slice while the idle GC keys live requests by each spec's own value,
//!   so a thread-sensitive key would let the stale sweep delete live
//!   checkpoints.
//! - [`prefix_fingerprint`] covers the task plus
//!   [`SearchConfig::prefix_params`]: **exactly the inputs
//!   `Hgnas::prepare_session` consumes** — the strategy, the Stage-1 EA
//!   settings, the Stage-1/Stage-2 epoch counts, the base seed (the prefix
//!   RNG derivations all flow from it) and the eval-cloud budget. It
//!   deliberately excludes the device (Stage-1 scoring never reads it —
//!   clock costing uses a fixed reference profile), α/β/γ/δ weights,
//!   constraints, the Stage-2 EA, the latency mode and the predictor
//!   settings, because the session a prefix build produces is
//!   bit-identical across all of them. [`ArtifactKind::Session`] spills
//!   and the engine's resident session LRU are keyed by it (via
//!   [`PrefixKey`]), so N shards differing only in Stage-2 seed, α/β, or
//!   eval budget share **one** pre-trained supernet instead of N.
//! - [`predictor_fingerprint`] covers the predictor context and the
//!   predictor config; [`persona_predictor_fingerprint`] adds a calibrated
//!   persona's profile.
//!
//! The session-sharing rule, in one line: a session may serve any shard
//! whose `(task, SearchConfig::prefix_params())` matches the builder's —
//! which is exactly what `SessionState::validate` re-checks at run time.
//!
//! Field *names* never enter a fingerprint, so a pure Rust field rename
//! (or doc churn) never re-keys a warm store, while adding or removing a
//! field in a covered list — or bumping [`FINGERPRINT_SCHEMA`] — always
//! does (a cache miss, never a wrong hit). Golden-value tests pin the
//! exact values.

use crate::codec::{wire_struct, ArtifactKind, CodecError, Decoder, Encoder, Fnv1a, Sink, Wire};
use hgnas_core::{
    Checkpoint, EaSnapshot, Genome, JointGenome, ScoredCandidate, SearchCheckpoint, SearchConfig,
    SearchedModel, SessionSnapshot, Strategy, TaskConfig,
};
use hgnas_device::{DeviceKind, DevicePersona, DeviceProfile};
use hgnas_ops::{Architecture, FunctionSet, OpType};
use hgnas_predictor::{PredictorConfig, PredictorContext, PredictorSnapshot};
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

/// Version of the fingerprint *schema*: how a fingerprint is derived and
/// what each one covers. Folded into every fingerprint, so bumping it
/// re-keys every artifact at once (the escape hatch when coverage must
/// change without any Rust field changing).
///
/// History: v2 added the task-kind code to the hashed task fields and
/// the multi-metric objective fields (γ/δ weights, energy/peak-memory
/// caps) plus the optional device persona to [`search_fingerprint`]; v3
/// derives every fingerprint from the codec's own field lists — FNV-1a
/// over the domain, the schema and the [`Wire`] encoding — instead of a
/// second, hand-tagged list per type (coverage unchanged).
pub const FINGERPRINT_SCHEMA: u16 = 3;

/// FNV-1a over `domain`, [`FINGERPRINT_SCHEMA`] and whatever `fold`
/// writes. The domain is length-prefixed like any string, so one encoding
/// under two domains is two different inputs to the hash.
fn fingerprint(domain: &str, fold: impl FnOnce(&mut Fnv1a)) -> u64 {
    let mut h = Fnv1a::default();
    domain.put(&mut h);
    FINGERPRINT_SCHEMA.put(&mut h);
    fold(&mut h);
    h.finish()
}

/// Fingerprint of exactly the inputs `Hgnas::prepare_session` consumes:
/// the task and [`SearchConfig::prefix_params`] — see the module docs for
/// the field inventory and the sharing rule it encodes. Two
/// configurations with equal prefix fingerprints build bit-identical
/// [`hgnas_core::SessionState`]s, so either can use a session the other
/// built, resident or spilled.
pub fn prefix_fingerprint(task: &TaskConfig, cfg: &SearchConfig) -> u64 {
    fingerprint("prefix", |h| {
        task.put(h);
        cfg.prefix_params().put(h);
    })
}

/// Fingerprint of everything that shapes a search outcome: the task and
/// the search configuration *minus* the thread budget, which is
/// bit-transparent by construction and must not split the artifact space
/// (`eval_threads` is folded as 0). The device is covered too even though
/// the key carries it — the fingerprint alone identifies the
/// configuration.
pub fn search_fingerprint(task: &TaskConfig, cfg: &SearchConfig) -> u64 {
    let cfg = SearchConfig {
        eval_threads: 0,
        ..cfg.clone()
    };
    fingerprint("search", |h| {
        task.put(h);
        cfg.put(h);
    })
}

/// Fingerprint of everything that shapes predictor training: the task
/// context and the full predictor configuration. Two runs with equal
/// fingerprints train bit-identical predictors, so one can reuse the
/// other's weights (the target device lives in the [`ArtifactKey`]).
pub fn predictor_fingerprint(ctx: &PredictorContext, cfg: &PredictorConfig) -> u64 {
    fingerprint("predictor", |h| {
        ctx.put(h);
        cfg.put(h);
    })
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
    match persona {
        Some(p) if p.profile != DeviceProfile::builtin(p.profile.kind) => {
            fingerprint("predictor-persona", |h| {
                ctx.put(h);
                cfg.put(h);
                p.profile.put(h);
            })
        }
        _ => predictor_fingerprint(ctx, cfg),
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

    /// Seals what `payload` writes as an artifact of `kind` and writes it
    /// atomically under `name`.
    fn save(
        &self,
        name: &str,
        kind: ArtifactKind,
        payload: impl FnOnce(&mut Encoder),
    ) -> Result<PathBuf, StoreError> {
        let mut e = Encoder::new(kind);
        payload(&mut e);
        Ok(self.write_atomic(name, &e.finish())?)
    }

    /// Reads the artifact under `name` through `payload`; a missing file
    /// is `None`. So is a version mismatch: an artifact written by an
    /// older (or newer) format is a safe cold start for its slot — the
    /// documented versioning contract — not a run-killing error. Anything
    /// else (corruption, wrong kind, an out-of-domain value, trailing
    /// bytes) still fails loudly.
    fn load<T>(
        &self,
        name: &str,
        kind: ArtifactKind,
        payload: impl FnOnce(&mut Decoder<'_>) -> Result<T, CodecError>,
    ) -> Result<Option<T>, StoreError> {
        let bytes = match fs::read(self.root.join(name)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut d = match Decoder::open(&bytes, kind) {
            Ok(d) => d,
            Err(CodecError::UnsupportedVersion(_)) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let value = payload(&mut d)?;
        if !d.is_exhausted() {
            return Err(CodecError::Invalid("trailing bytes in artifact").into());
        }
        Ok(Some(value))
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
        self.save(&key.file_name("predictor"), ArtifactKind::Predictor, |e| {
            snap.put(e)
        })
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
        self.load(
            &key.file_name("predictor"),
            ArtifactKind::Predictor,
            PredictorSnapshot::take,
        )
    }

    /// Persists a search checkpoint of either strategy: its [`Strategy`]
    /// code, then one layout for both genomes. `task` supplies the
    /// architecture-rebuild parameters (`k`, classes) the compact encoding
    /// needs at load time.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save_checkpoint<G: Genome + Wire>(
        &self,
        key: &ArtifactKey,
        task: &TaskConfig,
        cp: &SearchCheckpoint<G>,
    ) -> Result<PathBuf, StoreError>
    where
        G::Functions: Wire,
    {
        self.save(
            &key.file_name("checkpoint"),
            ArtifactKind::Checkpoint,
            |e| {
                G::STRATEGY.put(e);
                (cp.seed, cp.device, task.k, task.classes()).put(e);
                (cp.functions, cp.ea_config, cp.generation).put(e);
                Stored::<G>::store(&cp.ea, e);
                cp.eval_stats.put(e);
                Stored::<G>::store(&cp.cache, e);
                Stored::<G>::store(&cp.warm_cache, e);
                cp.clock_ms.put(e);
                cp.history.put(e);
                Stored::<G>::store(&cp.best, e);
            },
        )
    }

    /// Loads the search checkpoint the slot holds, of whichever strategy
    /// wrote it.
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::load_predictor`].
    pub fn load_checkpoint(&self, key: &ArtifactKey) -> Result<Option<Checkpoint>, StoreError> {
        self.load(
            &key.file_name("checkpoint"),
            ArtifactKind::Checkpoint,
            |d| match Strategy::take(d)? {
                Strategy::MultiStage => take_checkpoint::<Vec<OpType>>(d),
                Strategy::OneStage => take_checkpoint::<JointGenome>(d),
            },
        )
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
        self.save(
            &key.file_name("scorecache"),
            ArtifactKind::ScoreCache,
            |e| {
                (task.k, task.classes(), functions).put(e);
                Stored::<Vec<OpType>>::store(entries, e);
            },
        )
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
        self.load(
            &key.file_name("scorecache"),
            ArtifactKind::ScoreCache,
            |d| {
                let (k, classes, functions) = Wire::take(d)?;
                Stored::<Vec<OpType>>::load(d, &Geometry::new(k, classes, Some(functions)))
            },
        )
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
        self.save(&key.file_name(), ArtifactKind::Session, |e| snap.put(e))
    }

    /// Loads a spilled session if the slot holds one.
    ///
    /// # Errors
    ///
    /// As [`ArtifactStore::load_predictor`].
    pub fn load_session(&self, key: &PrefixKey) -> Result<Option<SessionSnapshot>, StoreError> {
        self.load(
            &key.file_name(),
            ArtifactKind::Session,
            SessionSnapshot::take,
        )
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

// ---- layouts -------------------------------------------------------------

wire_struct! {
    PredictorSnapshot {
        device, context, global_node, gcn_dims, mlp_hidden, scale_ms, stats, weights
    }
    SessionSnapshot { functions, stage1_stats, clock_ms, weights }
    EaSnapshot<G> { rng, scored, best, evaluations, history, generation }
}

/// A tensor: its dims, element count and elements. Every dim must be
/// positive (as `Tensor` requires), and the count must equal the dims'
/// product, which must not overflow.
impl Wire for Tensor {
    fn put(&self, s: &mut impl Sink) {
        self.dims().put(s);
        self.data().put(s);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let dims = Vec::<usize>::take(d)?;
        let n = usize::take(d)?;
        if dims.contains(&0) {
            return Err(CodecError::Invalid("zero tensor dimension"));
        }
        if dims.iter().try_fold(1usize, |a, &b| a.checked_mul(b)) != Some(n) {
            return Err(CodecError::Invalid("tensor element count"));
        }
        let data = (0..n).map(|_| f32::take(d)).collect::<Result<_, _>>()?;
        Ok(Tensor::from_vec(data, &dims))
    }
}

/// A generator's xoshiro256++ state; the all-zero state is invalid.
impl Wire for StdRng {
    fn put(&self, s: &mut impl Sink) {
        self.state().put(s);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let state = <[u64; 4]>::take(d)?;
        if state == [0; 4] {
            return Err(CodecError::Invalid("all-zero rng state"));
        }
        Ok(StdRng::from_state(state))
    }
}

/// The rest of a checkpoint [`ArtifactStore::save_checkpoint`] wrote for
/// `G` genomes.
fn take_checkpoint<G: Genome + Wire>(d: &mut Decoder<'_>) -> Result<Checkpoint, CodecError>
where
    G::Functions: Wire,
{
    let (seed, device, k, classes) = Wire::take(d)?;
    let (functions, ea_config, generation) = Wire::take(d)?;
    let geo = Geometry::new(k, classes, G::shared(functions));
    Ok(G::checkpoint(SearchCheckpoint {
        seed,
        device,
        functions,
        ea_config,
        generation,
        ea: Stored::<G>::load(d, &geo)?,
        eval_stats: Wire::take(d)?,
        cache: Stored::<G>::load(d, &geo)?,
        warm_cache: Stored::<G>::load(d, &geo)?,
        clock_ms: Wire::take(d)?,
        history: Wire::take(d)?,
        best: Stored::<G>::load(d, &geo)?,
    }))
}

/// What rebuilds a stored candidate's architecture: the task's `k` and
/// class count, written ahead of an artifact's candidates, and the
/// function-set pair its op genomes share.
pub(crate) struct Geometry {
    k: usize,
    classes: usize,
    shared: Option<(FunctionSet, FunctionSet)>,
}

impl Geometry {
    pub(crate) fn new(
        k: usize,
        classes: usize,
        shared: Option<(FunctionSet, FunctionSet)>,
    ) -> Self {
        Geometry { k, classes, shared }
    }

    /// `genome`'s function sets and architecture, as the search built
    /// them. Rejects an empty genome and a geometry no architecture has.
    fn rebuild(
        &self,
        genome: &impl Genome,
    ) -> Result<((FunctionSet, FunctionSet), Architecture), CodecError> {
        let (upper, lower) = genome
            .functions()
            .or(self.shared)
            .ok_or(CodecError::Invalid("genome without function sets"))?;
        if genome.ops().is_empty() {
            return Err(CodecError::Invalid("empty genome"));
        }
        if self.k == 0 || self.classes == 0 {
            return Err(CodecError::Invalid("zero k or class count"));
        }
        let arch = Architecture::from_genome(genome.ops(), upper, lower, self.k, self.classes);
        Ok(((upper, lower), arch))
    }
}

/// Values holding `G` genomes whose architectures are not stored: `store`
/// writes one, `load` reads it back and rebuilds every architecture
/// through a [`Geometry`].
pub(crate) trait Stored<G> {
    fn store(&self, s: &mut impl Sink);

    fn load(d: &mut Decoder<'_>, geo: &Geometry) -> Result<Self, CodecError>
    where
        Self: Sized;
}

impl<G, T: Stored<G>> Stored<G> for [T] {
    fn store(&self, s: &mut impl Sink) {
        self.len().put(s);
        for v in self {
            v.store(s);
        }
    }
}

impl<G, T: Stored<G>> Stored<G> for Vec<T> {
    fn store(&self, s: &mut impl Sink) {
        Stored::<G>::store(self.as_slice(), s);
    }

    fn load(d: &mut Decoder<'_>, geo: &Geometry) -> Result<Self, CodecError> {
        let n = usize::take(d)?;
        (0..n).map(|_| T::load(d, geo)).collect()
    }
}

impl<G, T: Stored<G>> Stored<G> for Option<T> {
    fn store(&self, s: &mut impl Sink) {
        self.is_some().put(s);
        if let Some(v) = self {
            v.store(s);
        }
    }

    fn load(d: &mut Decoder<'_>, geo: &Geometry) -> Result<Self, CodecError> {
        Ok(if bool::take(d)? {
            Some(T::load(d, geo)?)
        } else {
            None
        })
    }
}

/// A best model with its constraint-validity flag.
impl<G, T: Stored<G>> Stored<G> for (T, bool) {
    fn store(&self, s: &mut impl Sink) {
        self.0.store(s);
        self.1.put(s);
    }

    fn load(d: &mut Decoder<'_>, geo: &Geometry) -> Result<Self, CodecError> {
        Ok((T::load(d, geo)?, bool::take(d)?))
    }
}

/// A cache entry: the genome, then the candidate's scores.
impl<G: Genome + Wire> Stored<G> for (G, ScoredCandidate) {
    fn store(&self, s: &mut impl Sink) {
        let (genome, c) = self;
        genome.put(s);
        (c.score, c.accuracy, c.latency_ms, c.cost_ms, c.valid).put(s);
        (c.energy_mj, c.peak_mem_mb).put(s);
    }

    fn load(d: &mut Decoder<'_>, geo: &Geometry) -> Result<Self, CodecError> {
        let genome = G::take(d)?;
        let (score, accuracy, latency_ms, cost_ms, valid) = Wire::take(d)?;
        let (energy_mj, peak_mem_mb) = Wire::take(d)?;
        let (_, architecture) = geo.rebuild(&genome)?;
        let candidate = ScoredCandidate {
            architecture,
            score,
            accuracy,
            latency_ms,
            cost_ms,
            valid,
            energy_mj,
            peak_mem_mb,
        };
        Ok((genome, candidate))
    }
}

/// A searched model: its genome in `G`'s form, then its scores.
impl<G: Genome + Wire> Stored<G> for SearchedModel {
    fn store(&self, s: &mut impl Sink) {
        G::of(self).put(s);
        (self.score, self.supernet_accuracy, self.latency_ms).put(s);
    }

    fn load(d: &mut Decoder<'_>, geo: &Geometry) -> Result<Self, CodecError> {
        let genome = G::take(d)?;
        let (score, supernet_accuracy, latency_ms) = Wire::take(d)?;
        let (functions, architecture) = geo.rebuild(&genome)?;
        Ok(SearchedModel {
            architecture,
            genome: genome.ops().to_vec(),
            functions,
            score,
            supernet_accuracy,
            latency_ms,
        })
    }
}

/// An EA mid-run: its [`Wire`] layout, with every genome checked
/// non-empty on load.
impl<G: Genome + Wire> Stored<G> for EaSnapshot<G> {
    fn store(&self, s: &mut impl Sink) {
        self.put(s);
    }

    fn load(d: &mut Decoder<'_>, _: &Geometry) -> Result<Self, CodecError> {
        let ea = EaSnapshot::<G>::take(d)?;
        let genomes = ea.scored.iter().map(|(g, _)| g).chain([&ea.best.0]);
        if genomes.map(G::ops).any(<[OpType]>::is_empty) {
            return Err(CodecError::Invalid("empty genome"));
        }
        Ok(ea)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `value` into a sealed artifact and decodes it back as a `T`.
    fn reload<T>(
        put: impl FnOnce(&mut Encoder),
        take: impl FnOnce(&mut Decoder<'_>) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let mut e = Encoder::new(ArtifactKind::Checkpoint);
        put(&mut e);
        let bytes = e.finish();
        take(&mut Decoder::open(&bytes, ArtifactKind::Checkpoint)?)
    }

    fn candidate(genome: Vec<OpType>) -> (Vec<OpType>, ScoredCandidate) {
        let fs = FunctionSet::dgcnn_like(32);
        let arch = Architecture::from_genome(&[OpType::ALL[0]], fs, fs, 4, 3);
        let c = ScoredCandidate {
            architecture: arch,
            score: 0.5,
            accuracy: 0.25,
            latency_ms: 1.0,
            cost_ms: 2.0,
            valid: true,
            energy_mj: None,
            peak_mem_mb: Some(-0.0),
        };
        (genome, c)
    }

    #[test]
    fn candidates_rebuild_their_architecture_and_reject_empty_genomes() {
        let fs = FunctionSet::dgcnn_like(32);
        let genome = vec![OpType::ALL[0], OpType::ALL[2], OpType::ALL[1]];
        let entries = vec![candidate(genome.clone())];
        let geo = Geometry::new(4, 3, Some((fs, fs)));
        let back: Vec<(Vec<OpType>, ScoredCandidate)> = reload(
            |e| Stored::<Vec<OpType>>::store(&entries, e),
            |d| Stored::<Vec<OpType>>::load(d, &geo),
        )
        .unwrap();
        let arch = Architecture::from_genome(&genome, fs, fs, 4, 3);
        assert_eq!(back[0].1.architecture, arch);

        let empty = vec![candidate(Vec::new())];
        let got: Result<Vec<(Vec<OpType>, ScoredCandidate)>, _> = reload(
            |e| Stored::<Vec<OpType>>::store(&empty, e),
            |d| Stored::<Vec<OpType>>::load(d, &geo),
        );
        assert_eq!(got.unwrap_err(), CodecError::Invalid("empty genome"));

        for (k, classes) in [(0, 3), (4, 0)] {
            let got: Result<Vec<(Vec<OpType>, ScoredCandidate)>, _> = reload(
                |e| Stored::<Vec<OpType>>::store(&entries, e),
                |d| Stored::<Vec<OpType>>::load(d, &Geometry::new(k, classes, Some((fs, fs)))),
            );
            assert_eq!(
                got.unwrap_err(),
                CodecError::Invalid("zero k or class count")
            );
        }
    }

    #[test]
    fn ea_snapshots_reject_empty_genomes_and_all_zero_rng_state() {
        use rand::SeedableRng;
        let fs = FunctionSet::dgcnn_like(32);
        let geo = Geometry::new(4, 3, None);
        let ea = |best: Vec<OpType>| EaSnapshot::<JointGenome> {
            rng: StdRng::seed_from_u64(7),
            scored: vec![((fs, fs, vec![OpType::ALL[1]]), 0.5)],
            best: ((fs, fs, best), 0.5),
            evaluations: 1,
            history: vec![(1, 0.5)],
            generation: 0,
        };
        let load = |snap: &EaSnapshot<JointGenome>| {
            reload(
                |e| Stored::<JointGenome>::store(snap, e),
                |d| <EaSnapshot<JointGenome> as Stored<JointGenome>>::load(d, &geo),
            )
        };
        assert!(load(&ea(vec![OpType::ALL[3]])).is_ok());
        assert_eq!(
            load(&ea(Vec::new())).unwrap_err(),
            CodecError::Invalid("empty genome")
        );
        let zero = reload(|e| [0u64; 4].put(e), StdRng::take);
        assert_eq!(zero.unwrap_err(), CodecError::Invalid("all-zero rng state"));
    }
}
