#![warn(missing_docs)]
//! # bvl-snap — versioned deterministic checkpoint encoding
//!
//! The checkpoint layer underneath `bvl_sim`'s `SysState` (DESIGN.md
//! §4.11). Every ticked component of the simulator serializes its mutable
//! state through the [`Snap`] trait into a flat byte stream, and the
//! top-level blob is framed with a magic number, a format version and a
//! checksum so that a stale or corrupted checkpoint fails with a typed
//! [`SnapError`] instead of a panic or a silently wrong restore.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — the same state must encode to the same bytes,
//!    always. Writers must not iterate unordered containers directly
//!    (sort first); there is no floating-point canonicalization because
//!    the simulator state machine is integer-only (wall time is derived
//!    at the end of a run, never stored).
//! 2. **Saving cannot fail** — [`Snap::save`] is infallible by
//!    construction; only [`Snap::load`] returns a `Result`, because only
//!    a load confronts untrusted bytes.
//! 3. **No foreign dependencies** — the vendored `serde` subset is
//!    serialize-only, so this crate hand-rolls a little-endian binary
//!    codec instead. It has zero dependencies and every simulator crate
//!    can implement [`Snap`] for its own types without orphan-rule
//!    friction.
//!
//! The framing (magic `BVLS`, version, payload, checksum) lives in
//! [`frame_with`] / [`unframe`]; `bvl_sim::SysState` is a framed blob plus a
//! parsed header.

use std::collections::VecDeque;
use std::fmt;

/// Current checkpoint format version. Bump on ANY encoding change — a
/// restore across versions is a [`SnapError::VersionMismatch`], never a
/// best-effort decode.
pub const SNAP_VERSION: u32 = 2;

/// Leading magic bytes of a framed checkpoint blob.
pub const SNAP_MAGIC: [u8; 4] = *b"BVLS";

/// Bytes of frame ahead of the payload: magic, version, payload length.
const FRAME_HEADER: usize = 16;

/// Typed failure modes of snap decoding (checkpoints, wire frames).
///
/// The text names no payload kind; a caller that knows what it decoded
/// says so. Every variant is a *diagnosis*: corrupted input must map to
/// one of these, never to a panic (the proptest corruption suite in
/// `crates/snap/tests` enforces this).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The reader ran out of bytes mid-field.
    UnexpectedEof {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Bytes the field needed.
        wanted: usize,
        /// Bytes left in the buffer.
        have: usize,
    },
    /// The blob does not start with [`SNAP_MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The blob was written by a different format version.
    VersionMismatch {
        /// Version recorded in the blob.
        found: u32,
        /// Version this build understands ([`SNAP_VERSION`]).
        expected: u32,
    },
    /// The payload checksum does not match — bytes were corrupted.
    ChecksumMismatch {
        /// Checksum recorded in the blob.
        found: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// An enum discriminant tag is out of range for its type.
    BadTag {
        /// Type being decoded.
        ty: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A decoded value is structurally impossible (bad length, index out
    /// of range, fingerprint mismatch, …).
    Corrupt {
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { at, wanted, have } => write!(
                f,
                "unexpected end of data at byte {at}: wanted {wanted} bytes, {have} left"
            ),
            SnapError::BadMagic { found } => {
                write!(f, "not a snap-framed blob (magic {found:02x?})")
            }
            SnapError::VersionMismatch { found, expected } => write!(
                f,
                "snap format version {found}, this build reads version {expected}"
            ),
            SnapError::ChecksumMismatch { found, computed } => write!(
                f,
                "checksum mismatch (recorded {found:#018x}, computed {computed:#018x})"
            ),
            SnapError::BadTag { ty, tag } => {
                write!(f, "invalid discriminant {tag} while decoding {ty}")
            }
            SnapError::Corrupt { what } => write!(f, "corrupt encoding: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a over `bytes` — the fingerprint of simulation parameters and
/// workloads (also used by the sweep harness for cache keys; the
/// constants are the standard 64-bit ones).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The frame checksum: xor in the next little-endian 8-byte word (the
/// last one zero-padded), multiply by an odd constant, fold the high half
/// into the low half. One dependent multiply per eight bytes, where
/// [`fnv1a`] takes one per byte. Every step is a bijection of the running
/// sum, so corruption confined to one word always changes it.
fn checksum(bytes: &[u8]) -> u64 {
    let step = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    };
    let mut words = bytes.chunks_exact(8);
    let h = (&mut words).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().expect("len 8")))
    });
    let tail = words.remainder();
    if tail.is_empty() {
        return h;
    }
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    step(h, u64::from_le_bytes(last))
}

/// Append-only little-endian byte sink for [`Snap::save`].
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the raw (unframed) payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Makes room for at least `additional` more bytes, so a writer whose
    /// output size is known up front fills one allocation instead of
    /// copying itself as it grows.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, little-endian.
    ///
    /// Bit-exact by construction: the value read back compares equal at
    /// the bit level (NaN payloads included), which is what the fabric's
    /// byte-identical-result contract needs for `wall_ns`. Checkpoint
    /// writers still avoid floats entirely — this exists for the *wire*
    /// protocol, where measured results (not simulator state) travel.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `usize` as a `u64` (the format is 64-bit regardless of
    /// host width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian reader for [`Snap::load`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Reads from the raw (unframed) payload `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Errors unless every byte was consumed — trailing garbage means the
    /// blob does not encode what the caller thinks it does.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt {
                what: format!("{} trailing bytes after decode", self.remaining()),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof {
                at: self.pos,
                wanted: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern. Every 64-bit pattern
    /// is a valid `f64`, so this cannot itself reject corruption — the
    /// frame checksum is what guards float fields.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt {
            what: format!("usize value {v} exceeds host width"),
        })
    }

    /// Reads a bool; any byte other than 0/1 is [`SnapError::BadTag`].
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag {
                ty: "bool",
                tag: u64::from(t),
            }),
        }
    }

    /// Reads a collection length written by [`SnapWriter::usize`],
    /// rejecting lengths that could not possibly fit in the remaining
    /// bytes (each element needs ≥ `min_elem_bytes`). This bounds
    /// allocation on corrupt input — a flipped length byte must not turn
    /// into a multi-gigabyte `Vec::with_capacity`.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.usize()?;
        let floor = min_elem_bytes.max(1);
        if n > self.remaining() / floor {
            return Err(SnapError::Corrupt {
                what: format!(
                    "length {n} impossible with {} bytes remaining",
                    self.remaining()
                ),
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Corrupt {
            what: "string is not UTF-8".into(),
        })
    }
}

/// Deterministic binary snapshot encoding for one type.
///
/// `save` must write exactly what `load` reads, in the same order, and
/// `load(save(x)) == x` for every reachable state (the restore-equivalence
/// suite checks this transitively through the whole simulator). Saving is
/// infallible; loading reports corruption through [`SnapError`].
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! snap_prim {
    ($ty:ty, $wm:ident, $rm:ident) => {
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.$wm(*self);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$rm()
            }
        }
    };
}

snap_prim!(u8, u8, u8);
snap_prim!(u16, u16, u16);
snap_prim!(u32, u32, u32);
snap_prim!(u64, u64, u64);
snap_prim!(i64, i64, i64);
snap_prim!(usize, usize, usize);
snap_prim!(bool, bool, bool);
snap_prim!(f64, f64, f64);

impl Snap for i32 {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(*self as u32);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.u32()? as i32)
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            t => Err(SnapError::BadTag {
                ty: "Option",
                tag: u64::from(t),
            }),
        }
    }
}

/// How many `T`s to reserve for a decoded length of `n`: no more than the
/// bytes left in `r` could fill, so a hostile length costs at most an
/// allocation the size of the input. A vector whose elements decode to
/// more memory than they encode to grows past it as they arrive.
fn capacity_for<T>(n: usize, r: &SnapReader<'_>) -> usize {
    n.min(r.remaining() / std::mem::size_of::<T>().max(1))
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len(1)?;
        let mut v = Vec::with_capacity(capacity_for::<T>(n, r));
        for _ in 0..n {
            v.push(T::load(r)?);
        }
        Ok(v)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len(1)?;
        let mut v = VecDeque::with_capacity(capacity_for::<T>(n, r));
        for _ in 0..n {
            v.push_back(T::load(r)?);
        }
        Ok(v)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        // Decode into a Vec first: arrays have no fallible collect.
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::load(r)?);
        }
        v.try_into().map_err(|_| SnapError::Corrupt {
            what: "array length mismatch".into(),
        })
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap, D: Snap> Snap for (A, B, C, D) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
        self.3.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?, D::load(r)?))
    }
}

/// Implements [`Snap`] for a struct by saving/loading its named fields in
/// declaration order. The struct must be constructible from those fields
/// alone (use it from the defining module for private fields):
///
/// ```
/// # use bvl_snap::{snap_struct, Snap, SnapWriter, SnapReader};
/// struct Point { x: u64, y: u64 }
/// snap_struct!(Point { x, y });
/// ```
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                $($crate::Snap::save(&self.$field, w);)+
            }
            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok($ty { $($field: $crate::Snap::load(r)?),+ })
            }
        }
    };
}

/// Builds a framed blob — magic, version, payload length, payload, a
/// checksum over everything before the checksum — in one buffer: the
/// header is reserved up front, `payload` writes straight after it, and
/// the length and checksum are filled in once it returns, so the payload
/// is never copied into a second buffer.
///
/// The blob starts after `lead` zero bytes that belong to the caller, for
/// an outer prefix it patches in afterwards (the fabric's `u32` length);
/// the checksum does not cover them. [`unframe`] takes the blob without
/// the lead.
pub fn frame_with(lead: usize, payload: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter { buf: vec![0; lead] };
    w.buf.extend_from_slice(&SNAP_MAGIC);
    w.u32(SNAP_VERSION);
    w.u64(0); // payload length, patched below
    payload(&mut w);
    let mut out = w.buf;
    let len = (out.len() - lead - FRAME_HEADER) as u64;
    out[lead + 8..lead + FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(&out[lead..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates a framed blob and returns its payload slice.
///
/// Checks, in order: magic, version, length, checksum — so the error
/// names the outermost problem (a truncated blob of another version
/// reports the version, not the truncation).
pub fn unframe(blob: &[u8]) -> Result<&[u8], SnapError> {
    let mut r = SnapReader::new(blob);
    let magic = r.take(4)?;
    if magic != SNAP_MAGIC {
        return Err(SnapError::BadMagic {
            found: magic.try_into().expect("len 4"),
        });
    }
    let version = r.u32()?;
    if version != SNAP_VERSION {
        return Err(SnapError::VersionMismatch {
            found: version,
            expected: SNAP_VERSION,
        });
    }
    let len = r.usize()?;
    if r.remaining() != len + 8 {
        return Err(SnapError::Corrupt {
            what: format!(
                "payload length {len} + 8-byte checksum != {} remaining bytes",
                r.remaining()
            ),
        });
    }
    let payload = r.take(len)?;
    let recorded = r.u64()?;
    let computed = checksum(&blob[..blob.len() - 8]);
    if recorded != computed {
        return Err(SnapError::ChecksumMismatch {
            found: recorded,
            computed,
        });
    }
    Ok(payload)
}

/// Convenience: saves one [`Snap`] value into a framed blob.
pub fn to_framed<T: Snap>(value: &T) -> Vec<u8> {
    frame_with(0, |w| value.save(w))
}

/// Convenience: validates a framed blob and decodes one [`Snap`] value,
/// requiring the payload to be fully consumed.
pub fn from_framed<T: Snap>(blob: &[u8]) -> Result<T, SnapError> {
    let payload = unframe(blob)?;
    let mut r = SnapReader::new(payload);
    let v = T::load(&mut r)?;
    r.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        0xABu8.save(&mut w);
        0xBEEFu16.save(&mut w);
        0xDEAD_BEEFu32.save(&mut w);
        u64::MAX.save(&mut w);
        (-42i64).save(&mut w);
        true.save(&mut w);
        usize::MAX.save(&mut w);
        1234.5f64.save(&mut w);
        f64::from_bits(0x7ff8_dead_beef_0001).save(&mut w); // NaN payload
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(u8::load(&mut r).unwrap(), 0xAB);
        assert_eq!(u16::load(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::load(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::load(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::load(&mut r).unwrap(), -42);
        assert!(bool::load(&mut r).unwrap());
        assert_eq!(usize::load(&mut r).unwrap(), usize::MAX);
        assert_eq!(f64::load(&mut r).unwrap(), 1234.5);
        assert_eq!(
            f64::load(&mut r).unwrap().to_bits(),
            0x7ff8_dead_beef_0001,
            "NaN bit patterns survive the round trip"
        );
        r.finish().unwrap();
    }

    #[test]
    fn containers_round_trip() {
        type T = (Vec<u32>, Option<u64>, VecDeque<(u8, bool)>, [u64; 3]);
        let v: T = (
            vec![1, 2, 3],
            Some(99),
            VecDeque::from([(1, true), (2, false)]),
            [7, 8, 9],
        );
        let blob = to_framed(&v);
        let back: T = from_framed(&blob).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn snap_struct_macro_round_trips_private_fields() {
        #[derive(Debug, PartialEq)]
        struct S {
            a: u64,
            b: Vec<u8>,
            c: Option<bool>,
        }
        snap_struct!(S { a, b, c });
        let s = S {
            a: 5,
            b: vec![1, 2],
            c: Some(false),
        };
        let blob = to_framed(&s);
        assert_eq!(from_framed::<S>(&blob).unwrap(), s);
    }

    #[test]
    fn truncation_is_typed_eof() {
        let blob = to_framed(&vec![1u64, 2, 3]);
        for cut in 0..blob.len() {
            let err = from_framed::<Vec<u64>>(&blob[..cut]).unwrap_err();
            // Any prefix must fail loudly with *some* typed error.
            match err {
                SnapError::UnexpectedEof { .. }
                | SnapError::BadMagic { .. }
                | SnapError::VersionMismatch { .. }
                | SnapError::Corrupt { .. }
                | SnapError::ChecksumMismatch { .. } => {}
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn checksum_sees_every_bit_and_every_tail_length() {
        let bytes: Vec<u8> = (0..29u8).map(|b| b.wrapping_mul(37)).collect();
        for len in 0..bytes.len() {
            let sum = checksum(&bytes[..len]);
            for bit in 0..len * 8 {
                let mut bad = bytes[..len].to_vec();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&bad), sum, "flip of bit {bit} of {len} bytes");
            }
        }
        // The same high bit flipped in two words must not cancel out.
        let mut two = vec![0u8; 16];
        let sum = checksum(&two);
        two[7] ^= 0x80;
        two[15] ^= 0x80;
        assert_ne!(checksum(&two), sum);
    }

    #[test]
    fn bad_magic_detected() {
        let mut blob = to_framed(&7u64);
        blob[0] ^= 0xFF;
        assert!(matches!(
            from_framed::<u64>(&blob),
            Err(SnapError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_mismatch_detected() {
        let mut blob = to_framed(&7u64);
        blob[4] = SNAP_VERSION as u8 + 1;
        assert_eq!(
            from_framed::<u64>(&blob),
            Err(SnapError::VersionMismatch {
                found: SNAP_VERSION + 1,
                expected: SNAP_VERSION
            })
        );
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let blob = to_framed(&vec![1u64, 2, 3]);
        // Flip one bit in every payload byte position in turn.
        for i in 16..blob.len() - 8 {
            let mut bad = blob.clone();
            bad[i] ^= 0x01;
            assert!(
                matches!(
                    from_framed::<Vec<u64>>(&bad),
                    Err(SnapError::ChecksumMismatch { .. })
                ),
                "flip at {i} not caught"
            );
        }
    }

    #[test]
    fn absurd_length_rejected_without_allocation() {
        // A payload claiming a 2^60-element vector must be rejected by the
        // remaining-bytes guard, not die trying to allocate.
        let mut w = SnapWriter::new();
        w.u64(1 << 60);
        let payload = w.into_bytes();
        let mut r = SnapReader::new(&payload);
        assert!(matches!(
            Vec::<u64>::load(&mut r),
            Err(SnapError::Corrupt { .. })
        ));
    }

    #[test]
    fn bool_rejects_junk() {
        let payload = [7u8];
        let mut r = SnapReader::new(&payload);
        assert_eq!(
            bool::load(&mut r),
            Err(SnapError::BadTag { ty: "bool", tag: 7 })
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let blob = frame_with(0, |w| {
            5u64.save(w);
            0u8.save(w);
        });
        assert!(matches!(
            from_framed::<u64>(&blob),
            Err(SnapError::Corrupt { .. })
        ));
    }

    #[test]
    fn frame_with_writes_in_place_after_the_lead() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        let payload = w.into_bytes();
        let blob = to_framed(&vec![1u64, 2, 3]);
        assert_eq!(unframe(&blob).unwrap(), &payload[..]);

        let led = frame_with(4, |w| vec![1u64, 2, 3].save(w));
        assert_eq!(&led[..4], &[0; 4], "the lead is left to the caller");
        assert_eq!(&led[4..], &blob[..], "the checksum skips the lead");
    }

    #[test]
    fn errors_display_cleanly() {
        let e = SnapError::VersionMismatch {
            found: 9,
            expected: 1,
        };
        assert!(e.to_string().contains("version 9"));
    }
}
