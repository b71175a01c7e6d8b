//! The one binary codec behind on-disk artifacts, `hgnas-serve` wire
//! frames and configuration fingerprints.
//!
//! No serde — the shims stay offline. Every type that is persisted, sent
//! or fingerprinted implements [`Wire`] once: `put` writes it into a
//! [`Sink`], `take` reads it back from a [`Decoder`] and checks it. A plain
//! struct is declared once, as its field list in wire order
//! (`wire_struct!`), and an enum as its one-byte codes (`wire_enum!`), so
//! the artifact store, the wire protocol and the fingerprints all read the
//! same list and cannot drift apart.
//!
//! The encoding: integers little-endian, `usize` as u64, floats as raw
//! IEEE-754 bits (round trips are bit-exact, the property the resume and
//! warm-start guarantees rest on), `bool` as one byte, `Option` as a
//! presence `bool` then the value, `Vec` and `String` as a u64 length then
//! the elements, tuples, fixed-size arrays and structs as their parts in
//! order with no framing, and enums as a one-byte code from a frozen
//! table. Every encoding is self-delimiting, so a sequence of values
//! encodes unambiguously — which is what lets a fingerprint be FNV-1a over
//! an encoding ([`Fnv1a`] is the second [`Sink`]).
//!
//! Every artifact is
//!
//! ```text
//! magic "HGNA" · version u16 · kind u16 · payload · crc32(all preceding)
//! ```
//!
//! and every wire frame
//!
//! ```text
//! magic "HGNW" · protocol u8 · kind u16 · payload · crc32(all preceding)
//! ```
//!
//! built by [`Encoder::new`] / [`Encoder::frame`] and validated by
//! [`Decoder::open`] / [`Decoder::open_frame`]. The trailing CRC makes
//! truncated or corrupted bytes fail loudly at open time instead of
//! resuming a search from garbage; distinct magics keep the two namespaces
//! apart, and the version is checked before anything in the payload is
//! believed.
//!
//! # Changing a layout
//!
//! To add a field, append it to its type's list and bump [`VERSION`] (a
//! type stored in artifacts) or [`PROTOCOL_VERSION`] (a type sent in
//! frames). If the type feeds a fingerprint, bump
//! [`crate::FINGERPRINT_SCHEMA`] too.

use hgnas_core::{
    EaConfig, EvalStats, LatencyMode, PrefixParams, SearchConfig, Strategy, TaskConfig,
};
use hgnas_device::{ClassRates, DeviceKind, DevicePersona, DeviceProfile};
use hgnas_ops::{Aggregator, ConnectFn, FunctionSet, MessageType, OpType, SampleFn};
use hgnas_pointcloud::{DatasetConfig, TaskKind};
use hgnas_predictor::{PredictorConfig, PredictorContext, TrainStats};
use std::fmt;

/// File magic: "HGNA".
pub const MAGIC: [u8; 4] = *b"HGNA";

/// Current format version. Readers reject anything else.
///
/// History: v2 added `EvalStats::imported`, the warm-start remainder in
/// Stage-2 checkpoints, and one-stage checkpoints; v3 added the
/// warm-import validation counters (`EvalStats::validated`/`rejected`)
/// and the [`ArtifactKind::Session`] spill (pre-trained supernet weights
/// plus the Stage-1 outcome); v4 re-keyed [`ArtifactKind::Session`]
/// spills by the device-free *prefix* fingerprint (structured
/// field-tagged hashing replaced the Debug-string FNV throughout), so
/// shards sharing a deterministic prefix share one spilled supernet; v5
/// added the multi-metric axes — cached candidates carry optional
/// energy/peak-memory metrics, tasks carry a task-kind code, and search
/// configs carry the energy/memory objective weights plus an optional
/// device persona; v6 gave both search strategies one checkpoint layout
/// that opens with its [`Strategy`] code: one-stage checkpoints carry
/// the (always empty) warm-start remainder and use the
/// [`ArtifactKind::Checkpoint`] kind and slot, and kind code 4 (the v2–v5
/// one-stage checkpoint) is retired. Old artifacts are rejected as
/// [`CodecError::UnsupportedVersion`] — a safe cold start, never a wrong
/// decode.
pub const VERSION: u16 = 6;

/// What an artifact contains (stored in the header so a predictor file can
/// never be mistaken for a checkpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Trained latency-predictor weights.
    Predictor,
    /// A mid-search checkpoint of either strategy's main loop.
    Checkpoint,
    /// A standalone evaluator score cache.
    ScoreCache,
    /// A spilled search session: the Stage-1 outcome plus pre-trained
    /// supernet weights, so an evicted session resumes without replaying
    /// the deterministic prefix.
    Session,
}

/// Codes are part of the format: never reuse a retired number (4 held
/// one-stage checkpoints up to v5).
impl ArtifactKind {
    fn code(self) -> u16 {
        match self {
            ArtifactKind::Predictor => 1,
            ArtifactKind::Checkpoint => 2,
            ArtifactKind::ScoreCache => 3,
            ArtifactKind::Session => 5,
        }
    }

    fn from_code(code: u16) -> Option<Self> {
        match code {
            1 => Some(ArtifactKind::Predictor),
            2 => Some(ArtifactKind::Checkpoint),
            3 => Some(ArtifactKind::ScoreCache),
            5 => Some(ArtifactKind::Session),
            _ => None,
        }
    }
}

/// Wire-frame magic: "HGNW". Distinct from the artifact [`MAGIC`] so a
/// frame pasted into the store (or an artifact replayed at a socket) is
/// rejected by the first four bytes, before any payload is trusted.
pub const WIRE_MAGIC: [u8; 4] = *b"HGNW";

/// Current wire-protocol version, carried as a single byte in every frame
/// header. Readers reject anything else as
/// [`CodecError::UnsupportedProtocol`] — a daemon never half-decodes a
/// frame from a newer client.
pub const PROTOCOL_VERSION: u8 = 1;

/// What a wire frame carries (stored in the frame header, mirroring
/// [`ArtifactKind`] for on-disk artifacts).
///
/// Codes 1–4 are client→server, 5–11 server→client. Codes are part of the
/// protocol: never reuse a retired number.
///
/// # Examples
///
/// ```
/// use hgnas_fleet::codec::{Decoder, Encoder, FrameKind, Wire};
///
/// let mut e = Encoder::frame(FrameKind::Hello);
/// 3u8.put(&mut e); // priority
/// let bytes = e.finish();
/// let (kind, mut payload) = Decoder::open_frame(&bytes).unwrap();
/// assert_eq!(kind, FrameKind::Hello);
/// assert_eq!(u8::take(&mut payload), Ok(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client introduces itself: tenant name + priority.
    Hello,
    /// Client submits a search request.
    Submit,
    /// Client re-attaches to an earlier request after a disconnect.
    Attach,
    /// Client is done; the server may close the connection.
    Bye,
    /// Server accepts a Hello.
    HelloAck,
    /// Server accepted a Submit and assigned a request id.
    Accepted,
    /// Server refused a frame (bad tenant, unknown request, drain, …).
    Rejected,
    /// One streamed `FleetEvent`, tagged with request id + sequence number.
    Event,
    /// The final per-request report (outcomes + Pareto fronts).
    Report,
    /// The idle-loop garbage collector ran; carries the `PruneReport`.
    Pruned,
    /// The daemon is draining: lists the request ids parked at shutdown.
    Drain,
}

impl FrameKind {
    fn code(self) -> u16 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Submit => 2,
            FrameKind::Attach => 3,
            FrameKind::Bye => 4,
            FrameKind::HelloAck => 5,
            FrameKind::Accepted => 6,
            FrameKind::Rejected => 7,
            FrameKind::Event => 8,
            FrameKind::Report => 9,
            FrameKind::Pruned => 10,
            FrameKind::Drain => 11,
        }
    }

    fn from_code(code: u16) -> Option<Self> {
        match code {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Submit),
            3 => Some(FrameKind::Attach),
            4 => Some(FrameKind::Bye),
            5 => Some(FrameKind::HelloAck),
            6 => Some(FrameKind::Accepted),
            7 => Some(FrameKind::Rejected),
            8 => Some(FrameKind::Event),
            9 => Some(FrameKind::Report),
            10 => Some(FrameKind::Pruned),
            11 => Some(FrameKind::Drain),
            _ => None,
        }
    }
}

/// Why an artifact failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream ended mid-value (truncated file).
    UnexpectedEof,
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// A wire frame's protocol byte is not [`PROTOCOL_VERSION`].
    UnsupportedProtocol(u8),
    /// A wire frame's kind code is not in the [`FrameKind`] table.
    UnknownFrame(u16),
    /// The header names a different artifact kind than the caller expected.
    WrongKind {
        /// What the caller asked for.
        expected: u16,
        /// What the header says.
        found: u16,
    },
    /// The trailing CRC does not match the content (corruption).
    BadChecksum,
    /// A decoded value is out of its domain (e.g. an enum index past the
    /// table, a length that cannot fit).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "artifact truncated"),
            CodecError::BadMagic => write!(f, "not an HGNAS artifact (bad magic)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported artifact version {v}"),
            CodecError::UnsupportedProtocol(v) => {
                write!(f, "unsupported wire protocol version {v}")
            }
            CodecError::UnknownFrame(code) => write!(f, "unknown wire frame kind {code}"),
            CodecError::WrongKind { expected, found } => {
                write!(f, "artifact kind {found} where {expected} was expected")
            }
            CodecError::BadChecksum => write!(f, "artifact checksum mismatch (corrupted)"),
            CodecError::Invalid(what) => write!(f, "invalid artifact field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Where [`Wire::put`] writes: the artifact/frame [`Encoder`], or the
/// [`Fnv1a`] state fingerprints are folded into.
pub trait Sink {
    /// Appends raw bytes.
    fn bytes(&mut self, bytes: &[u8]);
}

/// A type's one binary layout (see the module docs for the encoding).
/// Unsized types (`str`, slices) are write-only: they encode exactly like
/// the `String` or `Vec` they are read back as.
pub trait Wire {
    /// Writes `self` into `s`.
    fn put(&self, s: &mut impl Sink);

    /// Reads one value back, checking it against its type's domain.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] past the payload end, and
    /// [`CodecError::Invalid`] for a value outside its domain (an enum
    /// code past its table, a bool other than 0 or 1, a length that does
    /// not fit a `usize`, non-UTF-8 text, …).
    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError>
    where
        Self: Sized;
}

/// Append-only artifact writer.
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Starts an artifact of the given kind (header written immediately).
    pub fn new(kind: ArtifactKind) -> Self {
        let mut e = Encoder { buf: Vec::new() };
        (MAGIC, VERSION, kind.code()).put(&mut e);
        e
    }

    /// Starts a wire frame of the given kind: `WIRE_MAGIC · protocol u8 ·
    /// kind u16 · payload · crc32`, sealed by the same [`Encoder::finish`]
    /// as artifacts.
    pub fn frame(kind: FrameKind) -> Self {
        let mut e = Encoder { buf: Vec::new() };
        (WIRE_MAGIC, PROTOCOL_VERSION, kind.code()).put(&mut e);
        e
    }

    /// Seals the artifact: appends the CRC and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        crc.put(&mut self);
        self.buf
    }
}

impl Sink for Encoder {
    fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Checked artifact reader over a validated payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Checks the length floor and the trailing CRC, and positions a
    /// reader at the header.
    fn sealed(bytes: &'a [u8], min_len: usize) -> Result<Self, CodecError> {
        if bytes.len() < min_len {
            return Err(CodecError::UnexpectedEof);
        }
        let (content, crc) = bytes.split_at(bytes.len() - 4);
        if crc32(content).to_le_bytes() != crc {
            return Err(CodecError::BadChecksum);
        }
        Ok(Decoder {
            bytes: content,
            pos: 0,
        })
    }

    /// Validates header + checksum and positions the reader at the payload.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] the header/trailer checks produce.
    pub fn open(bytes: &'a [u8], kind: ArtifactKind) -> Result<Self, CodecError> {
        // magic(4) + version(2) + kind(2) + crc(4)
        let mut d = Self::sealed(bytes, 12)?;
        if <[u8; 4]>::take(&mut d)? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = u16::take(&mut d)?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let code = u16::take(&mut d)?;
        match ArtifactKind::from_code(code) {
            Some(k) if k == kind => Ok(d),
            _ => Err(CodecError::WrongKind {
                expected: kind.code(),
                found: code,
            }),
        }
    }

    /// Validates a wire frame (CRC, magic, protocol byte, kind table) and
    /// returns its kind plus a reader positioned at the payload.
    ///
    /// Unlike [`Decoder::open`], the kind is returned instead of demanded:
    /// a connection loop dispatches on whatever arrives.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`]/[`CodecError::BadChecksum`] on
    /// truncation or corruption, [`CodecError::BadMagic`] when the frame
    /// does not start with [`WIRE_MAGIC`],
    /// [`CodecError::UnsupportedProtocol`] on a foreign protocol byte, and
    /// [`CodecError::UnknownFrame`] on an unassigned kind code.
    pub fn open_frame(bytes: &'a [u8]) -> Result<(FrameKind, Self), CodecError> {
        // magic(4) + protocol(1) + kind(2) + crc(4)
        let mut d = Self::sealed(bytes, 11)?;
        if <[u8; 4]>::take(&mut d)? != WIRE_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let protocol = u8::take(&mut d)?;
        if protocol != PROTOCOL_VERSION {
            return Err(CodecError::UnsupportedProtocol(protocol));
        }
        let code = u16::take(&mut d)?;
        let kind = FrameKind::from_code(code).ok_or(CodecError::UnknownFrame(code))?;
        Ok((kind, d))
    }

    /// Whether every payload byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// The next `n` raw bytes.
    fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::UnexpectedEof)?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or(CodecError::UnexpectedEof)?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.raw(N)?.try_into().expect("exactly N bytes"))
    }
}

/// FNV-1a 64-bit state: the [`Sink`] the store's configuration
/// fingerprints fold [`Wire`] encodings into.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The FNV-1a offset basis.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The hash of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Sink for Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(bytes);
    h.finish()
}

// ---- primitives and containers -----------------------------------------

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, s: &mut impl Sink) {
                s.bytes(&self.to_le_bytes());
            }

            fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(d.array()?))
            }
        }
    )*};
}

wire_le!(u8, u16, u32, u64);

impl Wire for usize {
    fn put(&self, s: &mut impl Sink) {
        (*self as u64).put(s);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        usize::try_from(u64::take(d)?).map_err(|_| CodecError::Invalid("usize overflow"))
    }
}

impl Wire for bool {
    fn put(&self, s: &mut impl Sink) {
        u8::from(*self).put(s);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match u8::take(d)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool out of range")),
        }
    }
}

impl Wire for f32 {
    fn put(&self, s: &mut impl Sink) {
        self.to_bits().put(s);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(f32::from_bits(u32::take(d)?))
    }
}

impl Wire for f64 {
    fn put(&self, s: &mut impl Sink) {
        self.to_bits().put(s);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::take(d)?))
    }
}

/// Nothing: the function sets a one-stage run's genomes share.
impl Wire for () {
    fn put(&self, _: &mut impl Sink) {}

    fn take(_: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl Wire for str {
    fn put(&self, s: &mut impl Sink) {
        self.len().put(s);
        s.bytes(self.as_bytes());
    }
}

impl Wire for String {
    fn put(&self, s: &mut impl Sink) {
        self.as_str().put(s);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = usize::take(d)?;
        String::from_utf8(d.raw(n)?.to_vec()).map_err(|_| CodecError::Invalid("non-UTF-8 string"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, s: &mut impl Sink) {
        self.is_some().put(s);
        if let Some(v) = self {
            v.put(s);
        }
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(if bool::take(d)? {
            Some(T::take(d)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for [T] {
    fn put(&self, s: &mut impl Sink) {
        self.len().put(s);
        for v in self {
            v.put(s);
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, s: &mut impl Sink) {
        self.as_slice().put(s);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = usize::take(d)?;
        (0..n).map(|_| T::take(d)).collect()
    }
}

/// Fixed-size arrays carry no length: `N` is part of the type.
impl<T: Wire, const N: usize> Wire for [T; N] {
    fn put(&self, s: &mut impl Sink) {
        for v in self {
            v.put(s);
        }
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let v = (0..N).map(|_| T::take(d)).collect::<Result<Vec<_>, _>>()?;
        Ok(v.try_into()
            .unwrap_or_else(|_| unreachable!("exactly N elements")))
    }
}

macro_rules! wire_tuple {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, s: &mut impl Sink) {
                $(self.$i.put(s);)+
            }

            fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
                Ok(($($t::take(d)?,)+))
            }
        }
    )*};
}

wire_tuple! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

// ---- code tables ---------------------------------------------------------

/// Enums stored as one byte: their index into the type's frozen `ALL`
/// table.
macro_rules! wire_table {
    ($($t:ty => $what:literal),* $(,)?) => {$(
        impl Wire for $t {
            fn put(&self, s: &mut impl Sink) {
                (self.index() as u8).put(s);
            }

            fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
                <$t>::ALL
                    .get(usize::from(u8::take(d)?))
                    .copied()
                    .ok_or(CodecError::Invalid($what))
            }
        }
    )*};
}

wire_table! {
    DeviceKind => "device index",
    OpType => "op type index",
    Aggregator => "aggregator index",
    MessageType => "message index",
    SampleFn => "sample index",
    ConnectFn => "connect index",
}

impl Wire for TaskKind {
    fn put(&self, s: &mut impl Sink) {
        self.code().put(s);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        TaskKind::from_code(u8::take(d)?).ok_or(CodecError::Invalid("task kind code"))
    }
}

/// Implements [`Wire`] for an enum from its variants' one-byte codes
/// (stable protocol numbers, never the compiler's discriminants), each
/// followed by the variant's fields in wire order:
///
/// ```text
/// wire_enum! {
///     SessionAction: "session action code" {
///         Built = 0 {},
///         Evicted = 4 { spilled },
///     }
/// }
/// ```
macro_rules! wire_enum {
    ($($t:ident: $what:literal { $($v:ident = $code:literal { $($f:ident),* }),* $(,)? })*) => {$(
        impl $crate::codec::Wire for $t {
            fn put(&self, s: &mut impl $crate::codec::Sink) {
                match self {
                    $($t::$v { $($f),* } => {
                        let code: u8 = $code;
                        $crate::codec::Wire::put(&code, s);
                        $($crate::codec::Wire::put($f, s);)*
                    })*
                }
            }

            fn take(
                d: &mut $crate::codec::Decoder<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(match <u8 as $crate::codec::Wire>::take(d)? {
                    $($code => $t::$v { $($f: $crate::codec::Wire::take(d)?),* },)*
                    _ => return Err($crate::codec::CodecError::Invalid($what)),
                })
            }
        }
    )*};
}

pub(crate) use wire_enum;

wire_enum! {
    LatencyMode: "latency mode code" { Predictor = 0 {}, Measured = 1 {} }
    Strategy: "strategy code" { MultiStage = 0 {}, OneStage = 1 {} }
}

// ---- plain structs -------------------------------------------------------

/// Implements [`Wire`] for a plain struct from its field list in wire
/// order. Every field must be listed (the generated struct literal does
/// not compile otherwise), so a new field cannot silently stay off the
/// wire — or out of a fingerprint.
macro_rules! wire_struct {
    ($($t:ident $(<$g:ident>)? { $($f:ident),* $(,)? })*) => {$(
        impl$(<$g: $crate::codec::Wire>)? $crate::codec::Wire for $t$(<$g>)? {
            fn put(&self, s: &mut impl $crate::codec::Sink) {
                $($crate::codec::Wire::put(&self.$f, s);)*
            }

            fn take(
                d: &mut $crate::codec::Decoder<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($t { $($f: $crate::codec::Wire::take(d)?,)* })
            }
        }
    )*};
}

pub(crate) use wire_struct;

wire_struct! {
    DatasetConfig { classes, points, train_per_class, test_per_class, noise, seed }
    TaskConfig { task_kind, dataset, positions, k, supernet_hidden, head_hidden, seed }
    EaConfig { population, iterations, elite_fraction, mutation_prob, seed }
    PredictorConfig {
        train_samples, val_samples, epochs, lr, gcn_dims, mlp_hidden, seed, global_node, batch
    }
    ClassRates { gflops, gbps }
    DeviceProfile {
        kind, rates, overhead_us, base_mem_mb, mem_factor, avail_mem_mb, noise_sigma,
        measurement_roundtrip_ms, power_w
    }
    DevicePersona { name, profile }
    SearchConfig {
        device, persona, alpha, beta, gamma, delta, constraint_ms, max_size_mb, max_energy_mj,
        max_peak_mem_mb, ea_stage1, ea_stage2, epochs_stage1, epochs_stage2, latency_mode,
        strategy, predictor, eval_clouds, eval_threads, seed
    }
    PrefixParams { strategy, ea_stage1, epochs_stage1, epochs_stage2, eval_clouds, seed }
    FunctionSet { aggregator, message, sample, connect, combine_dim }
    EvalStats { hits, misses, imported, validated, rejected, batches, submitted }
    TrainStats { train_mape, val_mape, val_within_10pct, train_size }
    PredictorContext { positions, points, k, classes, head_hidden }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut e = Encoder::new(ArtifactKind::ScoreCache);
        7u8.put(&mut e);
        300u16.put(&mut e);
        70_000u32.put(&mut e);
        (1u64 << 40).put(&mut e);
        99usize.put(&mut e);
        true.put(&mut e);
        (-0.0f32).put(&mut e);
        f64::MIN_POSITIVE.put(&mut e);
        vec![1usize, 2, 3].put(&mut e);
        let bytes = e.finish();

        let mut d = Decoder::open(&bytes, ArtifactKind::ScoreCache).unwrap();
        assert_eq!(u8::take(&mut d).unwrap(), 7);
        assert_eq!(u16::take(&mut d).unwrap(), 300);
        assert_eq!(u32::take(&mut d).unwrap(), 70_000);
        assert_eq!(u64::take(&mut d).unwrap(), 1 << 40);
        assert_eq!(usize::take(&mut d).unwrap(), 99);
        assert!(bool::take(&mut d).unwrap());
        assert_eq!(f32::take(&mut d).unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(f64::take(&mut d).unwrap(), f64::MIN_POSITIVE);
        assert_eq!(Vec::<usize>::take(&mut d).unwrap(), vec![1, 2, 3]);
        assert!(d.is_exhausted());
    }

    #[test]
    fn corruption_detected_at_every_byte() {
        let mut e = Encoder::new(ArtifactKind::Predictor);
        (0xdead_beefu64, 1.25f64).put(&mut e);
        let bytes = e.finish();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Decoder::open(&bad, ArtifactKind::Predictor).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let mut e = Encoder::new(ArtifactKind::Checkpoint);
        42u64.put(&mut e);
        let bytes = e.finish();
        for len in 0..bytes.len() {
            assert!(
                Decoder::open(&bytes[..len], ArtifactKind::Checkpoint).is_err(),
                "truncation to {len} bytes went unnoticed"
            );
        }
    }

    #[test]
    fn wrong_kind_rejected() {
        let bytes = Encoder::new(ArtifactKind::Predictor).finish();
        match Decoder::open(&bytes, ArtifactKind::Checkpoint) {
            Err(CodecError::WrongKind { expected, found }) => {
                assert_eq!(expected, 2);
                assert_eq!(found, 1);
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn reading_past_payload_is_eof_not_panic() {
        let bytes = Encoder::new(ArtifactKind::ScoreCache).finish();
        let mut d = Decoder::open(&bytes, ArtifactKind::ScoreCache).unwrap();
        assert_eq!(u64::take(&mut d), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn frame_round_trips_kind_and_payload() {
        let mut e = Encoder::frame(FrameKind::Submit);
        "tenant-a".put(&mut e);
        42u64.put(&mut e);
        let bytes = e.finish();
        let (kind, mut d) = Decoder::open_frame(&bytes).unwrap();
        assert_eq!(kind, FrameKind::Submit);
        assert_eq!(String::take(&mut d).unwrap(), "tenant-a");
        assert_eq!(u64::take(&mut d).unwrap(), 42);
        assert!(d.is_exhausted());
    }

    #[test]
    fn frame_kind_codes_round_trip() {
        for kind in [
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
        ] {
            assert_eq!(FrameKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(FrameKind::from_code(0), None);
        assert_eq!(FrameKind::from_code(12), None);
    }

    #[test]
    fn frame_rejects_foreign_protocol_version() {
        let bytes = Encoder::frame(FrameKind::Hello).finish();
        // Patch the protocol byte (offset 4) and re-seal the CRC so only
        // the version check can object.
        let mut bad = bytes[..bytes.len() - 4].to_vec();
        bad[4] = PROTOCOL_VERSION + 1;
        let crc = crc32(&bad);
        bad.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Decoder::open_frame(&bad).unwrap_err(),
            CodecError::UnsupportedProtocol(PROTOCOL_VERSION + 1)
        );
    }

    #[test]
    fn frame_rejects_unknown_kind_code() {
        let bytes = Encoder::frame(FrameKind::Hello).finish();
        let mut bad = bytes[..bytes.len() - 4].to_vec();
        bad[5..7].copy_from_slice(&999u16.to_le_bytes());
        let crc = crc32(&bad);
        bad.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Decoder::open_frame(&bad).unwrap_err(),
            CodecError::UnknownFrame(999)
        );
    }

    #[test]
    fn frame_and_artifact_magics_are_mutually_exclusive() {
        let mut e = Encoder::frame(FrameKind::Report);
        0u64.put(&mut e); // payload so the frame clears the artifact min length
        let frame = e.finish();
        assert_eq!(
            Decoder::open(&frame, ArtifactKind::Checkpoint).unwrap_err(),
            CodecError::BadMagic
        );
        let artifact = Encoder::new(ArtifactKind::Checkpoint).finish();
        assert_eq!(
            Decoder::open_frame(&artifact).unwrap_err(),
            CodecError::BadMagic
        );
    }

    #[test]
    fn blob_truncation_is_eof_not_panic() {
        let mut e = Encoder::frame(FrameKind::Hello);
        (1usize << 40).put(&mut e); // declared string length far past the payload
        let bytes = e.finish();
        let (_, mut d) = Decoder::open_frame(&bytes).unwrap();
        assert_eq!(String::take(&mut d), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (IEEE test vector).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn fnv_distinguishes_inputs() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
