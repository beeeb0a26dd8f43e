//! The binary wire format used by the collector RPC daemons.
//!
//! A stand-in for ZeroC ICE's encoding: little-endian fixed-width scalars,
//! length-prefixed strings and float arrays, and a `u32` length prefix per
//! message. The format exists so the reproduction can *account bytes
//! faithfully* for the paper's Table 4 (RPC bandwidth per collector type);
//! it is also exercised end-to-end by the collectors, which decode every
//! message they "receive".

pub use bytes::Bytes;

/// The wire protocol version this build speaks.
///
/// The first payload byte of every session [`Handshake`] carries the
/// sender's version; a receiver that sees any other value rejects the
/// session with [`WireError::VersionMismatch`] before touching the rest of
/// the frame, so the encoding after the version byte is free to evolve.
pub const WIRE_VERSION: u8 = 1;

/// An error while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value's encoded length.
    UnexpectedEof,
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// A message length prefix disagreed with the available bytes.
    BadLength {
        /// Bytes the prefix promised.
        expected: usize,
        /// Bytes actually present.
        available: usize,
    },
    /// A float array held other than the number of values its reader
    /// expected (the width of a schema announced at handshake).
    ArrayLength {
        /// Values the reader expected.
        expected: usize,
        /// Values the array held.
        got: usize,
    },
    /// A session handshake announced a protocol version this build does
    /// not speak.
    VersionMismatch {
        /// The version this build speaks ([`WIRE_VERSION`]).
        ours: u8,
        /// The version the peer announced.
        theirs: u8,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof => f.write_str("unexpected end of message"),
            WireError::InvalidUtf8 => f.write_str("invalid UTF-8 in string field"),
            WireError::BadLength {
                expected,
                available,
            } => write!(
                f,
                "message length prefix promised {expected} bytes but {available} are available"
            ),
            WireError::ArrayLength { expected, got } => {
                write!(f, "array holds {got} values, {expected} expected")
            }
            WireError::VersionMismatch { ours, theirs } => write!(
                f,
                "peer speaks wire version {theirs} but this build speaks version {ours}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// The session-opening handshake: a version byte plus the tenant id.
///
/// A monitored cluster ("tenant") opens its stream to the serve daemon
/// with exactly one handshake frame; everything after it is collector
/// data. The version byte travels first so that a future incompatible
/// encoding only needs the receiver to read one byte before rejecting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handshake {
    /// Protocol version the sender speaks.
    pub version: u8,
    /// The tenant (monitored cluster) this session belongs to.
    pub tenant: String,
}

impl Handshake {
    /// A handshake at this build's [`WIRE_VERSION`] for `tenant`.
    pub fn new(tenant: impl Into<String>) -> Self {
        Handshake {
            version: WIRE_VERSION,
            tenant: tenant.into(),
        }
    }

    /// Encodes the handshake as one framed wire message.
    pub fn encode(&self) -> Bytes {
        let mut b = MessageBuilder::new();
        b.put_u8(self.version);
        b.put_str(&self.tenant);
        b.finish()
    }

    /// Decodes and validates a handshake frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::VersionMismatch`] (naming both versions) when
    /// the peer's version byte differs from [`WIRE_VERSION`]; framing and
    /// string errors propagate as the usual [`WireError`] variants.
    pub fn decode(framed: Bytes) -> Result<Self, WireError> {
        let mut r = MessageReader::new(framed)?;
        let version = r.get_u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::VersionMismatch {
                ours: WIRE_VERSION,
                theirs: version,
            });
        }
        let tenant = r.get_str()?;
        Ok(Handshake { version, tenant })
    }
}

/// Bytes of the `u32` length prefix in front of every message payload.
const FRAME_PREFIX: usize = 4;

/// Incrementally builds one wire message.
///
/// The buffer starts with the four bytes of the `u32` frame prefix reserved,
/// so [`MessageBuilder::finish`] patches the length in place instead of
/// copying the payload behind a fresh prefix.
#[derive(Debug)]
pub struct MessageBuilder {
    buf: Vec<u8>,
}

impl Default for MessageBuilder {
    fn default() -> Self {
        MessageBuilder::new()
    }
}

impl MessageBuilder {
    /// Starts an empty message.
    pub fn new() -> Self {
        MessageBuilder::reusing(Vec::new())
    }

    /// Starts an empty message in `buf`'s allocation (its contents are
    /// discarded), so a caller that keeps the buffer of
    /// [`MessageBuilder::into_frame`] builds every later message without
    /// allocating.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.extend_from_slice(&[0; FRAME_PREFIX]);
        MessageBuilder { buf }
    }

    /// Appends an unsigned byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u16`-length-prefixed UTF-8 string.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds 65535 bytes.
    pub fn put_str(&mut self, s: &str) -> &mut Self {
        let len = u16::try_from(s.len()).expect("wire strings are short");
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends a `u32`-length-prefixed array of `f64`.
    pub fn put_f64_slice(&mut self, vals: &[f64]) -> &mut Self {
        self.buf.reserve(4 + 8 * vals.len());
        self.buf
            .extend_from_slice(&(vals.len() as u32).to_le_bytes());
        // Grown once and filled in place: one capacity check for the
        // array, not one per value, and a loop that compiles to a copy.
        let at = self.buf.len();
        self.buf.resize(at + 8 * vals.len(), 0);
        for (bytes, v) in self.buf[at..].chunks_exact_mut(8).zip(vals) {
            bytes.copy_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Finishes the message as the framed bytes in the builder's own
    /// buffer: the `u32` payload length, then the payload.
    pub fn into_frame(mut self) -> Vec<u8> {
        let len = self.len() as u32;
        self.buf[..FRAME_PREFIX].copy_from_slice(&len.to_le_bytes());
        self.buf
    }

    /// Finishes the message, prefixing the payload with its `u32` length.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.into_frame())
    }

    /// Current payload size (excluding the frame prefix).
    pub fn len(&self) -> usize {
        self.buf.len() - FRAME_PREFIX
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reads one framed wire message out of a borrowed buffer.
///
/// This is the one decoder: [`MessageReader`] is the same reader over a
/// buffer it owns. Every accessor checks that the bytes it needs are there
/// before touching them, so arbitrary input yields a [`WireError`], never a
/// panic.
#[derive(Debug)]
pub struct FrameReader<'a> {
    buf: &'a [u8],
}

impl<'a> FrameReader<'a> {
    /// Validates the frame prefix and positions the reader at the payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadLength`] when the prefix disagrees with the
    /// data, [`WireError::UnexpectedEof`] when there is no prefix at all.
    pub fn new(framed: &'a [u8]) -> Result<Self, WireError> {
        let Some((prefix, payload)) = framed.split_first_chunk::<FRAME_PREFIX>() else {
            return Err(WireError::UnexpectedEof);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if payload.len() != len {
            return Err(WireError::BadLength {
                expected: len,
                available: payload.len(),
            });
        }
        Ok(FrameReader { buf: payload })
    }

    /// Consumes the next `n` bytes, or fails without consuming any.
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self
            .buf
            .split_at_checked(n)
            .ok_or(WireError::UnexpectedEof)?;
        self.buf = rest;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(WireError::UnexpectedEof)?;
        self.buf = rest;
        Ok(*head)
    }

    /// Reads an unsigned byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        self.take_array().map(f64::from_le_bytes)
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        let len = u16::from_le_bytes(self.take_array()?) as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::InvalidUtf8)
    }

    /// Consumes a `u32`-length-prefixed array of `f64`: its bytes, once
    /// they are checked to be present.
    fn take_f64s(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        self.take(len.checked_mul(8).ok_or(WireError::UnexpectedEof)?)
    }

    /// Reads a `u32`-length-prefixed array of `f64` into a new collection,
    /// the announced length checked against the bytes present first. An
    /// `Arc<[f64]>`, the payload a sample carries, is allocated once at its
    /// final size and filled straight from the wire.
    pub fn get_f64s<C: FromIterator<f64>>(&mut self) -> Result<C, WireError> {
        Ok(self.take_f64s()?.chunks_exact(8).map(f64_of).collect())
    }

    /// Reads a `u32`-length-prefixed array of exactly `out.len()` values
    /// into `out`: a decode with no buffer of its own.
    ///
    /// # Errors
    ///
    /// [`WireError::ArrayLength`] for an array of any other length, and
    /// `out` is left alone; [`WireError::UnexpectedEof`] as for any field.
    pub fn get_f64_slice_to(&mut self, out: &mut [f64]) -> Result<(), WireError> {
        let raw = self.take_f64s()?;
        if raw.len() / 8 != out.len() {
            return Err(WireError::ArrayLength {
                expected: out.len(),
                got: raw.len() / 8,
            });
        }
        for (x, bytes) in out.iter_mut().zip(raw.chunks_exact(8)) {
            *x = f64_of(bytes);
        }
        Ok(())
    }

    /// Bytes left unread in the payload.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }
}

/// The little-endian `f64` in an 8-byte chunk.
fn f64_of(bytes: &[u8]) -> f64 {
    f64::from_le_bytes(bytes.try_into().expect("chunks of 8"))
}

/// Reads one framed wire message it owns: [`FrameReader`] plus the buffer.
#[derive(Debug)]
pub struct MessageReader {
    buf: Bytes,
    /// Offset of the first unread payload byte in `buf`.
    pos: usize,
}

impl MessageReader {
    /// Validates the frame prefix and positions the reader at the payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadLength`] when the prefix disagrees with the
    /// data, [`WireError::UnexpectedEof`] when there is no prefix at all.
    pub fn new(framed: Bytes) -> Result<Self, WireError> {
        FrameReader::new(&framed)?;
        Ok(MessageReader {
            buf: framed,
            pos: FRAME_PREFIX,
        })
    }

    /// Runs one [`FrameReader`] accessor over the unread payload and
    /// advances past what it consumed.
    fn read<T>(
        &mut self,
        f: impl FnOnce(&mut FrameReader<'_>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut r = FrameReader {
            buf: &self.buf[self.pos..],
        };
        let v = f(&mut r)?;
        self.pos = self.buf.len() - r.remaining();
        Ok(v)
    }

    /// Reads an unsigned byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.read(|r| r.get_u8())
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.read(|r| r.get_u32())
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.read(|r| r.get_u64())
    }

    /// Reads a little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        self.read(|r| r.get_f64())
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        self.read(|r| r.get_str().map(str::to_owned))
    }

    /// Reads a `u32`-length-prefixed array of `f64`.
    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>, WireError> {
        self.read(|r| r.get_f64s())
    }

    /// Bytes left unread in the payload.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut b = MessageBuilder::new();
        b.put_u8(7)
            .put_u32(0xdead_beef)
            .put_u64(u64::MAX - 1)
            .put_f64(2.5)
            .put_str("slave03")
            .put_f64_slice(&[1.0, -2.0, 3.5]);
        let framed = b.finish();

        let mut r = MessageReader::new(framed).unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert_eq!(r.get_str().unwrap(), "slave03");
        assert_eq!(r.get_f64_slice().unwrap(), vec![1.0, -2.0, 3.5]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn frame_length_is_validated() {
        let framed = MessageBuilder::new().finish();
        assert_eq!(framed.len(), 4); // empty payload
        assert!(MessageReader::new(framed).is_ok());

        let err = MessageReader::new(Bytes::from_static(&[5, 0, 0, 0, 1])).unwrap_err();
        assert!(matches!(
            err,
            WireError::BadLength {
                expected: 5,
                available: 1
            }
        ));

        let err = MessageReader::new(Bytes::from_static(&[1, 0])).unwrap_err();
        assert_eq!(err, WireError::UnexpectedEof);
    }

    #[test]
    fn truncated_fields_error_cleanly() {
        let mut b = MessageBuilder::new();
        b.put_u32(1);
        let mut r = MessageReader::new(b.finish()).unwrap();
        assert_eq!(r.get_u64().unwrap_err(), WireError::UnexpectedEof);

        let mut b = MessageBuilder::new();
        b.put_u8(0);
        let mut r = MessageReader::new(b.finish()).unwrap();
        r.get_u8().unwrap();
        assert_eq!(r.get_str().unwrap_err(), WireError::UnexpectedEof);
    }

    #[test]
    fn invalid_utf8_is_reported() {
        // Hand-roll a string field with bad UTF-8: u16 length, two bytes.
        let framed = Bytes::from(vec![4, 0, 0, 0, 2, 0, 0xff, 0xfe]);
        let mut r = MessageReader::new(framed).unwrap();
        assert_eq!(r.get_str().unwrap_err(), WireError::InvalidUtf8);
    }

    #[test]
    fn empty_f64_slice_round_trips() {
        let mut b = MessageBuilder::new();
        b.put_f64_slice(&[]);
        let mut r = MessageReader::new(b.finish()).unwrap();
        assert_eq!(r.get_f64_slice().unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn handshake_round_trips() {
        let hello = Handshake::new("tenant-03");
        assert_eq!(hello.version, WIRE_VERSION);
        let decoded = Handshake::decode(hello.encode()).unwrap();
        assert_eq!(decoded, hello);
        assert_eq!(decoded.tenant, "tenant-03");
    }

    #[test]
    fn handshake_rejects_unknown_version_naming_both() {
        let mut b = MessageBuilder::new();
        b.put_u8(WIRE_VERSION + 41);
        b.put_str("tenant-x");
        let err = Handshake::decode(b.finish()).unwrap_err();
        assert_eq!(
            err,
            WireError::VersionMismatch {
                ours: WIRE_VERSION,
                theirs: WIRE_VERSION + 41
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains(&WIRE_VERSION.to_string())
                && msg.contains(&(WIRE_VERSION + 41).to_string()),
            "message must name both versions: {msg}"
        );
    }

    #[test]
    fn handshake_rejects_truncated_frames() {
        let mut b = MessageBuilder::new();
        b.put_u8(WIRE_VERSION); // version byte but no tenant string
        assert_eq!(
            Handshake::decode(b.finish()).unwrap_err(),
            WireError::UnexpectedEof
        );
    }

    #[test]
    fn builder_len_tracks_payload() {
        let mut b = MessageBuilder::new();
        assert!(b.is_empty());
        b.put_u64(0);
        assert_eq!(b.len(), 8);
        b.put_str("ab");
        assert_eq!(b.len(), 12);
    }

    #[test]
    fn reused_buffer_builds_the_same_frames_without_regrowing() {
        let vals = [1.0, -2.0, 3.5];
        let mut fresh = MessageBuilder::new();
        fresh.put_u64(9).put_f64_slice(&vals);
        let fresh = fresh.finish();

        let mut b = MessageBuilder::reusing(vec![0xaa; 64]);
        assert!(b.is_empty(), "old contents are discarded");
        b.put_u64(9).put_f64_slice(&vals);
        let frame = b.into_frame();
        assert_eq!(frame, fresh.to_vec());
        let cap = frame.capacity();
        let mut b = MessageBuilder::reusing(frame);
        b.put_u64(10).put_f64_slice(&vals);
        assert_eq!(b.into_frame().capacity(), cap);
    }

    #[test]
    fn frame_reader_decodes_into_a_reused_vector() {
        let mut b = MessageBuilder::new();
        b.put_u8(7).put_str("slave03").put_f64_slice(&[1.0, -2.0]);
        b.put_f64_slice(&[0.5, 4.0]);
        let frame = b.into_frame();
        let mut r = FrameReader::new(&frame).unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_str().unwrap(), "slave03");
        let mut row = [9.0; 2];
        r.get_f64_slice_to(&mut row).unwrap();
        assert_eq!(row, [1.0, -2.0]);
        let shared: std::sync::Arc<[f64]> = r.get_f64s().unwrap();
        assert_eq!(*shared, [0.5, 4.0]);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.get_u8().unwrap_err(), WireError::UnexpectedEof);
    }

    #[test]
    fn an_array_decodes_into_a_row_of_its_width_and_nothing_else() {
        let mut b = MessageBuilder::new();
        b.put_f64_slice(&[1.0, -2.0, 3.5]);
        let frame = b.into_frame();
        let mut frame_row = [9.0; 5];
        FrameReader::new(&frame)
            .unwrap()
            .get_f64_slice_to(&mut frame_row[1..4])
            .unwrap();
        assert_eq!(frame_row, [9.0, 1.0, -2.0, 3.5, 9.0]);
        for width in [2, 4] {
            let mut row = vec![7.0; width];
            let err = FrameReader::new(&frame)
                .unwrap()
                .get_f64_slice_to(&mut row)
                .unwrap_err();
            assert_eq!(
                err,
                WireError::ArrayLength {
                    expected: width,
                    got: 3
                }
            );
            assert!(err.to_string().contains(&format!("{width} expected")));
            assert_eq!(row, vec![7.0; width], "a mismatch writes nothing");
        }
    }

    #[test]
    fn lying_array_length_is_an_error_and_leaves_the_output_alone() {
        // The array claims u32::MAX entries; four bytes follow.
        let mut frame = vec![8, 0, 0, 0];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0; 4]);
        let mut out = [1.0];
        let mut r = FrameReader::new(&frame).unwrap();
        assert_eq!(
            r.get_f64_slice_to(&mut out).unwrap_err(),
            WireError::UnexpectedEof
        );
        assert_eq!(out, [1.0]);
        let mut r = FrameReader::new(&frame).unwrap();
        assert_eq!(
            r.get_f64s::<Vec<f64>>().unwrap_err(),
            WireError::UnexpectedEof
        );
    }
}
