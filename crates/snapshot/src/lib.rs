//! Versioned, checksummed serialization substrate for checkpoint/restore.
//!
//! Every stateful component of the simulated machine — physical frames,
//! allocators, TLBs, clocks, RNG streams, and the fusion engines — can
//! save itself into a [`Writer`] and reload from a [`Reader`]. The crate
//! deliberately has **zero dependencies** (it sits below `mem` in the
//! workspace graph) and defines only the byte-level encoding plus the two
//! traits the rest of the workspace implements:
//!
//! * [`Snapshot`] — object-safe save/load-in-place, implemented by every
//!   serializable struct. Load is *into* an existing value because restore
//!   always targets a freshly constructed machine of the same shape.
//! * [`EngineState`] — marker refinement for fusion engines (KSM, WPF,
//!   VUsion). It adds a stable textual tag written into snapshots so a
//!   bundle recorded under one engine cannot be silently replayed into
//!   another.
//!
//! # Wire format
//!
//! A sealed snapshot is
//!
//! ```text
//! "VSNP" | version: u32 LE | payload bytes... | xxh64(header+payload): u64 LE
//! ```
//!
//! The trailing [`xxh64`] checksum covers magic, version and payload, so a
//! truncated or bit-flipped bundle is rejected before any field decodes.
//! Inside the payload, all integers are little-endian; `usize` travels as
//! `u64`; `f64` travels as its IEEE-754 bit pattern; strings and blobs are
//! length-prefixed. Maps are always written in sorted key order so that
//! two snapshots of identical logical state are byte-identical.

use std::fmt;

/// Current snapshot wire-format version. Bump on any incompatible layout
/// change; [`unseal`] rejects mismatches with [`SnapshotError::BadVersion`].
/// v2: pressure-governor state in the system frame, `budget_used` in scan
/// totals, and resumable-pass cursors in the engine blobs.
/// v3: failure bundles gained a side-channel surface sidecar slot
/// (`surface_tail`) in their sealed wire format.
/// v4: the journal event vocabulary gained `Clflush` (wire tag 13), so a
/// v3 reader would reject journals recorded by v4 code.
/// v5: the seal checksum became [`xxh64`], and so did the page content
/// hash whose values engine `HashIndex` entries store — a v4 blob restored
/// into v5 code would keep stale FNV-1a entries, and `may_contain`'s
/// definitive "no" would then silently skip merges.
pub const FORMAT_VERSION: u32 = 5;

/// Magic bytes opening every sealed snapshot or failure bundle.
pub const MAGIC: &[u8; 4] = b"VSNP";

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the expected field.
    Truncated,
    /// The leading magic bytes are not `VSNP`.
    BadMagic,
    /// The format version does not match [`FORMAT_VERSION`].
    BadVersion {
        /// Version found in the stream.
        found: u32,
    },
    /// The trailing [`xxh64`] checksum does not match the content.
    ChecksumMismatch,
    /// A field decoded to a value that cannot describe a real machine
    /// (unknown enum tag, mismatched geometry, out-of-range index, ...).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::BadMagic => write!(f, "snapshot magic is not VSNP"),
            Self::BadVersion { found } => {
                write!(f, "snapshot version {found} (expected {FORMAT_VERSION})")
            }
            Self::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            Self::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over a byte slice. Kept for short identity strings (campaign
/// signatures and churn seeds, repro and trace digests), whose values seed
/// or name persisted artifacts; bulk data goes through [`xxh64`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One lane update: `rotl(acc + w·P2, 31)·P1`.
const fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Folds one finished lane into the running hash.
const fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// Little-endian `u64` at byte `i` of a stripe.
const fn word(stripe: &[u8; 32], i: usize) -> u64 {
    u64::from_le_bytes([
        stripe[i],
        stripe[i + 1],
        stripe[i + 2],
        stripe[i + 3],
        stripe[i + 4],
        stripe[i + 5],
        stripe[i + 6],
        stripe[i + 7],
    ])
}

/// XXH64 (seed 0): the lane-parallel word hash behind page content hashes
/// and the snapshot seal.
///
/// Inputs of 32 bytes or more run four independent lanes, each updated
/// once per 32-byte stripe by `acc = rotl(acc + w·P2, 31)·P1`, so the
/// four multiply chains overlap instead of serializing like a byte-wise
/// hash. The lanes are then folded with distinct rotations plus one merge
/// round each; shorter inputs start from `P5` instead. The length is
/// added, the tail is absorbed eight bytes, then four, then one at a
/// time, and an xor-shift/multiply avalanche finishes. Loads are
/// `from_le_bytes`, so values are identical on every host.
///
/// Why a one-word change (a flipped bit, say) shows in the result: each
/// round is a bijection of its lane for a fixed word and of the word for a
/// fixed lane, so the changed word's lane ends with a different
/// accumulator; each tail step is likewise a bijection of the running
/// hash and of its own word, and so is the avalanche. The one step that
/// is not a bijection per lane is the fold, which mixes a lane in twice
/// (rotated, then through its merge round); the golden tests flip every
/// bit of a page to check it. Equal hashes never prove equal content —
/// callers that merge pages confirm with a byte compare.
pub const fn xxh64(bytes: &[u8]) -> u64 {
    let mut rest = bytes;
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        while let Some((stripe, r)) = rest.split_first_chunk::<32>() {
            v[0] = round(v[0], word(stripe, 0));
            v[1] = round(v[1], word(stripe, 8));
            v[2] = round(v[2], word(stripe, 16));
            v[3] = round(v[3], word(stripe, 24));
            rest = r;
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        h = merge(h, v[0]);
        h = merge(h, v[1]);
        h = merge(h, v[2]);
        merge(h, v[3])
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    while let Some((w, r)) = rest.split_first_chunk::<8>() {
        h = (h ^ round(0, u64::from_le_bytes(*w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        rest = r;
    }
    if let Some((w, r)) = rest.split_first_chunk::<4>() {
        h = (h ^ (u32::from_le_bytes(*w) as u64).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = r;
    }
    while let Some((&b, r)) = rest.split_first() {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
        rest = r;
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Append-only byte sink for serialization.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts an empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the raw (unsealed) payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes raw bytes with no length prefix (caller knows the length).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed byte blob.
    pub fn blob(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.bytes(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.blob(v.as_bytes());
    }

    /// Writes a length-prefixed slice of `u64`s.
    pub fn u64s(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x);
        }
    }
}

/// Cursor over a payload produced by [`Writer`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `usize` written by [`Writer::usize`], rejecting values that
    /// do not fit the host.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("usize overflow"))
    }

    /// Reads a bool, rejecting bytes other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool out of range")),
        }
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// Reads a length-prefixed blob.
    pub fn blob(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let b = self.blob()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapshotError::Corrupt("invalid utf-8"))
    }

    /// Reads a length-prefixed slice of `u64`s.
    pub fn u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.usize()?;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }
}

/// Seals a payload: magic + version + payload + trailing [`xxh64`] checksum.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(payload);
    let sum = xxh64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates magic, version and checksum, returning the inner payload.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(SnapshotError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if &body[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut vb = [0u8; 4];
    vb.copy_from_slice(&body[4..8]);
    let version = u32::from_le_bytes(vb);
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion { found: version });
    }
    let mut sb = [0u8; 8];
    sb.copy_from_slice(tail);
    if xxh64(body) != u64::from_le_bytes(sb) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(&body[8..])
}

/// Object-safe save/load-in-place serialization.
///
/// `load` mutates `self` rather than constructing a new value because the
/// restore path always starts from a freshly built machine of the same
/// configuration; this keeps the trait usable through `dyn` (e.g. boxed
/// fusion policies).
pub trait Snapshot {
    /// Appends this value's full state to `w`.
    fn save(&self, w: &mut Writer);
    /// Overwrites `self` with state previously written by [`Self::save`].
    fn load(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError>;
}

/// A fusion engine whose complete scan/merge state can be checkpointed.
///
/// The tag is written into every snapshot and verified on restore, so a
/// KSM bundle cannot be replayed into a VUsion system by mistake.
pub trait EngineState: Snapshot {
    /// Stable identifier for this engine's snapshot payload.
    fn engine_tag(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.usize(12345);
        w.bool(true);
        w.bool(false);
        w.f64(0.25);
        w.str("hello snapshot");
        w.blob(&[1, 2, 3]);
        w.u64s(&[9, 8, 7]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 3));
        assert_eq!(r.usize(), Ok(12345));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.bool(), Ok(false));
        assert_eq!(r.f64(), Ok(0.25));
        assert_eq!(r.str().as_deref(), Ok("hello snapshot"));
        assert_eq!(r.blob(), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.u64s(), Ok(vec![9, 8, 7]));
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error() {
        let mut w = Writer::new();
        w.u32(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u64(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn seal_and_unseal() {
        let mut w = Writer::new();
        w.str("payload");
        let sealed = seal(&w.into_bytes());
        let inner = unseal(&sealed).expect("unseal");
        let mut r = Reader::new(inner);
        assert_eq!(r.str().as_deref(), Ok("payload"));
    }

    #[test]
    fn unseal_rejects_corruption() {
        let sealed = seal(b"abc");
        // Magic.
        let mut bad = sealed.clone();
        bad[0] = b'X';
        assert_eq!(unseal(&bad), Err(SnapshotError::BadMagic));
        // Version.
        let mut bad = sealed.clone();
        bad[4] = 0xff;
        assert!(matches!(
            unseal(&bad),
            Err(SnapshotError::BadVersion { .. })
        ));
        // Payload flip.
        let mut bad = sealed.clone();
        bad[9] ^= 1;
        assert_eq!(unseal(&bad), Err(SnapshotError::ChecksumMismatch));
        // Truncation.
        assert_eq!(unseal(&sealed[..10]), Err(SnapshotError::Truncated));
    }

    #[test]
    fn xxh64_matches_published_vectors() {
        // Reference values of XXH64 with seed 0.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(SnapshotError::Truncated.to_string(), "snapshot truncated");
        assert_eq!(
            SnapshotError::BadVersion { found: 9 }.to_string(),
            format!("snapshot version 9 (expected {FORMAT_VERSION})")
        );
        assert!(SnapshotError::Corrupt("x").to_string().contains("x"));
    }
}
