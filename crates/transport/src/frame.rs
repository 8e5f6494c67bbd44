//! The wire frame: every message between a device and the server travels
//! as one length-prefixed, checksummed frame.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "FSCW"
//!      4     2  version      protocol version (currently 1)
//!      6     1  kind         0 Hello / 1 HelloAck / 2 Uplink / 3 Downlink
//!      7     1  flags        bit 0 = timed handshake (clock-offset
//!                            estimation); other bits reserved, must be 0
//!      8     8  device       sender/addressee device id
//!     16     8  seq          per-link sequence / attempt number
//!     24     4  payload_len  bytes of payload that follow the header
//!     28     4  crc32        CRC-32 (IEEE) over the frame with this
//!                            field zeroed — header *and* payload
//!     32     …  payload      opaque bytes (e.g. an encoded UplinkMessage)
//! ```
//!
//! The checksum covers the header too (with the CRC field itself zeroed),
//! so *any* single-bit corruption — in the payload, the length, the
//! sequence number, or the checksum itself — is detected; decoding returns
//! `Err` and never panics on adversarial input.

use crate::error::{io_error, Result, TransportError};
use bytes::{BufMut, Bytes, BytesMut};
use std::io::{Read, Write};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"FSCW";
/// Protocol version this build speaks.
pub const VERSION: u16 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;
/// Flag bit 0: a timed handshake. A Hello with this bit asks the server
/// to answer with a HelloAck carrying `[t1, t2]` receive/transmit
/// timestamps (two little-endian u64 nanoseconds) so the device can run
/// the midpoint clock-offset estimator. All other flag bits are reserved.
pub const FLAG_TIMED: u8 = 0x01;
/// Upper bound on a single frame's payload (defends length-field
/// corruption slipping past the magic check from allocating wildly; the
/// CRC would still catch it, but only after the allocation).
pub const MAX_PAYLOAD: usize = 1 << 30;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Device → server: connection opener announcing the device id.
    Hello,
    /// Server → device: handshake acknowledgement.
    HelloAck,
    /// Device → server: one encoded `UplinkMessage`.
    Uplink,
    /// Server → device: one encoded `DownlinkMessage`.
    Downlink,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::HelloAck => 1,
            FrameKind::Uplink => 2,
            FrameKind::Downlink => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self> {
        match b {
            0 => Ok(FrameKind::Hello),
            1 => Ok(FrameKind::HelloAck),
            2 => Ok(FrameKind::Uplink),
            3 => Ok(FrameKind::Downlink),
            _ => Err(TransportError::Malformed("unknown frame kind")),
        }
    }
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind.
    pub kind: FrameKind,
    /// Flag bits (see [`FLAG_TIMED`]); 0 for ordinary frames.
    pub flags: u8,
    /// Device id the frame is from (uplink) or for (downlink).
    pub device: u64,
    /// Per-link sequence / attempt number (diagnostic; receivers dedup by
    /// device id, not seq).
    pub seq: u64,
    /// Opaque payload.
    pub payload: Bytes,
}

impl Frame {
    /// A payload-free frame (handshakes).
    pub fn control(kind: FrameKind, device: u64) -> Self {
        Frame {
            kind,
            flags: 0,
            device,
            seq: 0,
            payload: Bytes::new(),
        }
    }

    /// Sets flag bits (builder style).
    pub fn with_flags(mut self, flags: u8) -> Self {
        self.flags = flags;
        self
    }

    /// Total on-the-wire size of this frame.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Serializes to wire bytes, computing the checksum.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_slice(&MAGIC);
        buf.put_slice(&VERSION.to_le_bytes());
        buf.put_slice(&[self.kind.to_byte(), self.flags]);
        buf.put_u64_le(self.device);
        buf.put_u64_le(self.seq);
        buf.put_u32_le(self.payload.len() as u32);
        buf.put_u32_le(0); // CRC placeholder, patched below.
        buf.put_slice(self.payload.as_slice());
        let mut bytes = buf.freeze().to_vec();
        let crc = crc32(&bytes);
        bytes[28..32].copy_from_slice(&crc.to_le_bytes());
        Bytes::from(bytes)
    }

    /// Decodes one whole frame from `bytes`. Rejects bad magic, foreign
    /// versions, unknown kinds, nonzero reserved flags, length mismatches,
    /// and checksum failures; never panics.
    ///
    /// The checksum is verified **before** the structural header fields:
    /// a bit flip landing on the version, kind, or flags byte must classify
    /// as transient corruption ([`TransportError::ChecksumMismatch`]) and
    /// be absorbed by the sender's retry budget — the terminal
    /// `VersionMismatch` / `Malformed` errors are reserved for frames a
    /// peer genuinely produced (valid CRC over foreign field values).
    pub fn decode(bytes: &[u8]) -> Result<Frame> {
        if bytes.len() < HEADER_LEN {
            return Err(TransportError::Truncated {
                needed: HEADER_LEN,
                got: bytes.len(),
            });
        }
        if bytes[0..4] != MAGIC {
            return Err(TransportError::BadMagic);
        }
        let le64 = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(b)
        };
        let le32 = |at: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[at..at + 4]);
            u32::from_le_bytes(b)
        };
        // The CRC covers the whole buffer with its own field zeroed, so it
        // needs no trusted length field: verify it first.
        let stored_crc = le32(28);
        let computed = crc32_of_frame(bytes);
        if computed != stored_crc {
            crate::metrics::CRC_REJECTS.inc();
            return Err(TransportError::ChecksumMismatch {
                expected: stored_crc,
                got: computed,
            });
        }
        let payload_len = le32(24) as usize;
        if payload_len > MAX_PAYLOAD {
            return Err(TransportError::Oversize { len: payload_len });
        }
        let total = HEADER_LEN + payload_len;
        if bytes.len() != total {
            return Err(TransportError::Truncated {
                needed: total,
                got: bytes.len(),
            });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(TransportError::VersionMismatch {
                ours: VERSION,
                theirs: version,
            });
        }
        if bytes[7] & !FLAG_TIMED != 0 {
            return Err(TransportError::Malformed("reserved flags set"));
        }
        let kind = FrameKind::from_byte(bytes[6])?;
        Ok(Frame {
            kind,
            flags: bytes[7],
            device: le64(8),
            seq: le64(16),
            payload: Bytes::from(bytes[HEADER_LEN..].to_vec()),
        })
    }
}

/// CRC over a full frame buffer with the CRC field (bytes 28..32) zeroed.
fn crc32_of_frame(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&bytes[..28]);
    crc.update(&[0, 0, 0, 0]);
    crc.update(&bytes[HEADER_LEN..]);
    crc.finish()
}

/// Reads one frame from a blocking reader (the caller must have armed a
/// read timeout on the underlying socket — `cargo xtask audit` enforces
/// that every `TcpStream` user does). Returns the frame and its wire size.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(Frame, usize)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)
        .map_err(|e| io_error("read frame header", &e))?;
    // Validate the prefix before trusting the length field.
    if header[0..4] != MAGIC {
        return Err(TransportError::BadMagic);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(TransportError::VersionMismatch {
            ours: VERSION,
            theirs: version,
        });
    }
    let payload_len = u32::from_le_bytes([header[24], header[25], header[26], header[27]]) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(TransportError::Oversize { len: payload_len });
    }
    let mut whole = vec![0u8; HEADER_LEN + payload_len];
    whole[..HEADER_LEN].copy_from_slice(&header);
    r.read_exact(&mut whole[HEADER_LEN..])
        .map_err(|e| io_error("read frame payload", &e))?;
    let frame = Frame::decode(&whole)?;
    Ok((frame, whole.len()))
}

/// Writes one frame to a blocking writer (write timeout armed by the
/// caller). Returns the wire size written.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<usize> {
    let bytes = frame.encode();
    w.write_all(bytes.as_slice())
        .map_err(|e| io_error("write frame", &e))?;
    w.flush().map_err(|e| io_error("flush frame", &e))?;
    Ok(bytes.len())
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the ubiquitous
/// zlib/Ethernet checksum, implemented here because the build container has
/// no crates.io access.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Incremental CRC-32 state.
struct Crc32 {
    state: u32,
}

impl Crc32 {
    fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    fn update(&mut self, data: &[u8]) {
        for &b in data {
            let idx = ((self.state ^ b as u32) & 0xFF) as usize;
            self.state = (self.state >> 8) ^ CRC_TABLE[idx];
        }
    }

    fn finish(&self) -> u32 {
        !self.state
    }
}

/// Byte-at-a-time lookup table for the reflected IEEE polynomial.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = Frame {
            kind: FrameKind::Uplink,
            flags: 0,
            device: 7,
            seq: 3,
            payload: Bytes::from(vec![1, 2, 3, 4, 5]),
        };
        let bytes = f.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 5);
        assert_eq!(Frame::decode(bytes.as_slice()).ok(), Some(f));
    }

    #[test]
    fn control_frames_have_empty_payload() {
        let f = Frame::control(FrameKind::Hello, 12);
        let back = Frame::decode(f.encode().as_slice()).ok();
        assert_eq!(back, Some(f));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let f = Frame {
            kind: FrameKind::Downlink,
            flags: 0,
            device: 2,
            seq: 9,
            payload: Bytes::from(vec![0xAB; 24]),
        };
        let clean = f.encode().to_vec();
        for bit in 0..clean.len() * 8 {
            let mut dirty = clean.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Frame::decode(&dirty).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let f = Frame {
            kind: FrameKind::Uplink,
            flags: 0,
            device: 0,
            seq: 0,
            payload: Bytes::from(vec![9; 16]),
        };
        let clean = f.encode().to_vec();
        for cut in 0..clean.len() {
            assert!(
                Frame::decode(&clean[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    /// Re-stamps a hand-mutated frame's CRC, as a genuine (if foreign)
    /// peer would.
    fn restamp_crc(bytes: &mut [u8]) {
        bytes[28..32].copy_from_slice(&[0; 4]);
        let crc = crc32(bytes);
        bytes[28..32].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn foreign_version_rejected() {
        let f = Frame::control(FrameKind::Hello, 1);
        let mut bytes = f.encode().to_vec();
        bytes[4] = 0x2A; // version 42, with a valid CRC: a real v42 peer.
        bytes[5] = 0;
        restamp_crc(&mut bytes);
        assert_eq!(
            Frame::decode(&bytes),
            Err(TransportError::VersionMismatch {
                ours: VERSION,
                theirs: 42
            })
        );
    }

    #[test]
    fn corrupted_version_byte_is_transient_not_version_mismatch() {
        // A bit flip on the version byte without a matching CRC is line
        // corruption: it must classify as a retryable checksum failure,
        // never as a terminal protocol mismatch.
        let f = Frame::control(FrameKind::Hello, 1);
        let mut bytes = f.encode().to_vec();
        bytes[4] ^= 0x08;
        let err = Frame::decode(&bytes).expect_err("corruption detected");
        assert!(
            matches!(err, TransportError::ChecksumMismatch { .. }) && err.is_transient(),
            "{err}"
        );
        // Same for the kind and reserved-flags bytes.
        for at in [6usize, 7] {
            let mut bytes = f.encode().to_vec();
            bytes[at] ^= 0x80;
            let err = Frame::decode(&bytes).expect_err("corruption detected");
            assert!(err.is_transient(), "byte {at}: {err}");
        }
    }

    #[test]
    fn reader_writer_round_trip() {
        let f = Frame {
            kind: FrameKind::Uplink,
            flags: 0,
            device: 4,
            seq: 1,
            payload: Bytes::from(vec![7; 100]),
        };
        let mut buf: Vec<u8> = Vec::new();
        let n = write_frame(&mut buf, &f).expect("write to Vec");
        assert_eq!(n, f.wire_len());
        let mut cursor = std::io::Cursor::new(buf);
        let (back, read) = read_frame(&mut cursor).expect("read back");
        assert_eq!(back, f);
        assert_eq!(read, n);
    }

    #[test]
    fn timed_flag_round_trips_but_reserved_bits_do_not() {
        // Bit 0 is the sanctioned timed-handshake flag.
        let f = Frame::control(FrameKind::Hello, 3).with_flags(FLAG_TIMED);
        let back = Frame::decode(f.encode().as_slice()).expect("timed flag is legal");
        assert_eq!(back.flags, FLAG_TIMED);
        // A genuine peer (valid CRC) setting any reserved bit is malformed.
        let mut bytes = Frame::control(FrameKind::Hello, 3).encode().to_vec();
        bytes[7] = 0x02;
        restamp_crc(&mut bytes);
        assert_eq!(
            Frame::decode(&bytes),
            Err(TransportError::Malformed("reserved flags set"))
        );
    }

    #[test]
    fn oversize_length_field_rejected_before_allocation() {
        let f = Frame::control(FrameKind::Hello, 1);
        let mut bytes = f.encode().to_vec();
        bytes[24..28].copy_from_slice(&(u32::MAX).to_le_bytes());
        restamp_crc(&mut bytes);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(TransportError::Oversize { .. })
        ));
    }
}
