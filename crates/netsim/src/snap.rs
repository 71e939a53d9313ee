//! Versioned, integrity-checked binary snapshot codec.
//!
//! Checkpoint/restore needs a format that is (a) deterministic — the same
//! simulation state always serialises to the same bytes, (b) self-checking —
//! a truncated or corrupted file must fail loudly at load, never restore a
//! subtly wrong state, and (c) dependency-free — the build environment is
//! offline, so no serde. [`SnapWriter`] and [`SnapReader`] provide exactly
//! that: little-endian primitives behind a fixed header of
//!
//! ```text
//! magic   [u8; 4]   b"MWSN"
//! version u32       bumped on any layout change
//! length  u64       payload bytes following the header
//! check   u64       FNV-1a over the payload
//! payload ...
//! ```
//!
//! Floats travel as raw IEEE-754 bits ([`f64::to_bits`]) so restore is
//! bit-identical, including negative zero and NaN payloads. There is no
//! schema: writer and reader must agree on the field sequence, which is why
//! every snapshotting type owns both its `save` and its `load`.
//!
//! # Example
//!
//! ```
//! use netsim::snap::{SnapReader, SnapWriter, SNAP_VERSION};
//!
//! let mut w = SnapWriter::new();
//! w.u64(42);
//! w.f64(0.1 + 0.2);
//! w.bytes(b"trailer");
//! let buf = w.finish();
//!
//! let mut r = SnapReader::new(&buf).unwrap();
//! assert_eq!(r.u64().unwrap(), 42);
//! assert_eq!(r.f64().unwrap(), 0.1 + 0.2);
//! assert_eq!(r.bytes().unwrap(), b"trailer");
//! r.finish().unwrap();
//! ```

/// Current snapshot layout version; bump on any field-sequence change.
///
/// History: v1 — initial layout; v2 — scheduler-zoo fields (global
/// `v_time`/`v_cycle`/`v_served`, per-VC DRR deficit), best-effort
/// source fractional-gap carry, and workload policer state; v3 —
/// `RunningStats` non-finite sample counter and per-stream real-time
/// message latency maxima (the delay-bound audit's observations); v4 —
/// message-level NI queues (one head flit plus a send cursor per waiting
/// message), staged messages as their head flit, and no router allocator
/// diagnostics; v5 — scheduler stamps as runs, staged messages as
/// `{at, src, head}` with no option tag, a real-time stream's frame
/// position as its flits left, and no per-stream delivery statistics;
/// v6 — one injection-calendar entry per source carrying that source's
/// next message (`at`, `seq`, source, `src`, head), no separate staged
/// messages, and no per-link utilisation counters; v7 — flits without a
/// kind tag or frame index (the role follows from `seq_in_msg` and
/// `msg_len`), and no per-stream outstanding-message FIFO.
pub const SNAP_VERSION: u32 = 7;

const MAGIC: [u8; 4] = *b"MWSN";
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an incompatible layout version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The header-declared payload length disagrees with the buffer.
    BadLength {
        /// Length declared in the header.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload checksum does not match the header.
    BadChecksum,
    /// A read ran past the end of the payload.
    Underrun,
    /// The payload had bytes left after the final field was read.
    TrailingBytes {
        /// Unread payload bytes.
        remaining: usize,
    },
    /// A field held a value the reader cannot map back (e.g. an enum tag).
    BadValue(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion { found } => {
                write!(f, "snapshot version {found} != supported {SNAP_VERSION}")
            }
            SnapError::BadLength { declared, actual } => {
                write!(
                    f,
                    "snapshot declares {declared} payload bytes, found {actual}"
                )
            }
            SnapError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapError::Underrun => write!(f, "snapshot payload ended mid-field"),
            SnapError::TrailingBytes { remaining } => {
                write!(f, "snapshot has {remaining} unread trailing bytes")
            }
            SnapError::BadValue(what) => write!(f, "snapshot field out of range: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Serialises a field sequence into a checksummed snapshot buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    payload: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.payload.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its raw IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.payload.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends an `Option` tag byte, then `f(self)` if `Some`.
    pub fn option<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut SnapWriter, T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }

    /// Finalises the snapshot: header (magic, version, length, FNV-1a
    /// checksum) followed by the payload.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Validates a snapshot buffer and reads its field sequence back.
#[derive(Debug)]
pub struct SnapReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Validates magic, version, length and checksum, and positions the
    /// reader at the start of the payload.
    ///
    /// # Errors
    ///
    /// Returns the specific [`SnapError`] for any header or integrity
    /// failure.
    pub fn new(buf: &'a [u8]) -> Result<SnapReader<'a>, SnapError> {
        if buf.len() < HEADER_LEN || buf[..4] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion { found: version });
        }
        let declared = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        let payload = &buf[HEADER_LEN..];
        if declared != payload.len() as u64 {
            return Err(SnapError::BadLength {
                declared,
                actual: payload.len() as u64,
            });
        }
        let check = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        if fnv1a(payload) != check {
            return Err(SnapError::BadChecksum);
        }
        Ok(SnapReader { payload, pos: 0 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.payload.len() - self.pos < n {
            return Err(SnapError::Underrun);
        }
        let s = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`] if the value does not fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::BadValue("usize overflow"))
    }

    /// Reads an `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`] on any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::BadValue("bool tag")),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`] if the bytes are not valid UTF-8.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::BadValue("utf-8 string"))
    }

    /// Reads an `Option` tag byte, then `f(self)` if it was `Some`.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`] on any tag other than 0 or 1, or whatever
    /// `f` returns.
    pub fn option<T>(
        &mut self,
        f: impl FnOnce(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(SnapError::BadValue("option tag")),
        }
    }

    /// Asserts the whole payload has been consumed.
    ///
    /// # Errors
    ///
    /// [`SnapError::TrailingBytes`] if any payload bytes remain unread.
    pub fn finish(self) -> Result<(), SnapError> {
        let remaining = self.payload.len() - self.pos;
        if remaining != 0 {
            return Err(SnapError::TrailingBytes { remaining });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(12345);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.bytes(&[1, 2, 3]);
        w.str("déjà");
        w.option(Some(9u64), |w, v| w.u64(v));
        w.option(None::<u64>, |w, v| w.u64(v));
        w.finish()
    }

    #[test]
    fn round_trip_is_exact() {
        let buf = sample();
        let mut r = SnapReader::new(&buf).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "déjà");
        assert_eq!(r.option(|r| r.u64()).unwrap(), Some(9));
        assert_eq!(r.option(|r| r.u64()).unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn deterministic_bytes() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = sample();
        buf[0] ^= 0xFF;
        assert_eq!(SnapReader::new(&buf).unwrap_err(), SnapError::BadMagic);
        assert_eq!(SnapReader::new(&[]).unwrap_err(), SnapError::BadMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = sample();
        buf[4] = 0xFE;
        assert!(matches!(
            SnapReader::new(&buf).unwrap_err(),
            SnapError::BadVersion { .. }
        ));
    }

    #[test]
    fn truncation_rejected() {
        let buf = sample();
        let cut = &buf[..buf.len() - 1];
        assert!(matches!(
            SnapReader::new(cut).unwrap_err(),
            SnapError::BadLength { .. }
        ));
    }

    #[test]
    fn corruption_rejected() {
        let mut buf = sample();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert_eq!(SnapReader::new(&buf).unwrap_err(), SnapError::BadChecksum);
    }

    #[test]
    fn underrun_and_trailing_detected() {
        let mut w = SnapWriter::new();
        w.u32(5);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf).unwrap();
        assert_eq!(r.u64().unwrap_err(), SnapError::Underrun);

        let mut w = SnapWriter::new();
        w.u64(5);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf).unwrap();
        assert_eq!(r.u32().unwrap(), 5);
        assert_eq!(
            r.finish().unwrap_err(),
            SnapError::TrailingBytes { remaining: 4 }
        );
    }
}
