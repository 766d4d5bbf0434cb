//! Length-prefixed, versioned wire framing.
//!
//! Every message on a socket transport is one *frame*:
//!
//! ```text
//! +----------------+=====================+
//! | len: u32 LE    | payload (len bytes) |
//! +----------------+=====================+
//! ```
//!
//! and every connection opens with a symmetric 6-byte *handshake* before
//! the first frame (each side writes, then reads and validates):
//!
//! ```text
//! +-------------------+----------------+
//! | magic "IRNM" (4B) | version u32→u16 LE |
//! +-------------------+----------------+
//! ```
//!
//! Versioning rule: the version is bumped whenever the frame layout or the
//! `proto` opcodes change incompatibly; peers with different versions
//! refuse the connection at handshake time rather than misparse frames.
//! Malformed-input hardening: frames longer than [`MAX_FRAME_LEN`] are
//! rejected before any allocation, truncated streams surface as
//! [`FrameError::Truncated`], and a bad magic aborts the handshake — none
//! of these panic.

use ironman_ot::channel::ChannelError;
use std::fmt;
use std::io::{self, Read, Write};

/// Connection magic: identifies the Ironman wire protocol.
pub const MAGIC: [u8; 4] = *b"IRNM";

/// Current wire-format version.
///
/// History: **1** — initial one-shot protocol (`Hello`/`RequestCot`/
/// `Stats`/`Shutdown`); **2** — streaming subscriptions with credit-based
/// backpressure (`Subscribe`/`Credit`/`Unsubscribe`, `CotChunk`/
/// `StreamEnd`) and the per-shard `Stats` reply layout; **3** — the
/// `Stats` reply grew the hot-path observability counters
/// (scratch-buffer reuse/allocation and session-registration failures);
/// **4** — dynamic cluster membership: `Hello` carries the client's
/// directory epoch, an epoch-keyed request/reply pair (`0x08`/`0x88`,
/// removed in 10) exchanges membership deltas, stale-epoch requests are
/// fenced with `WrongEpoch`, a refill-steering request/reply pair
/// (`0x09`/`0x89`, removed in 11), and the `Stats` reply carries the
/// directory epoch, pending streamed demand, and per-shard demand/refill
/// counters; **5** — per-shard `Stats` entries grew the raw-supply
/// pressure counters (pipelined-session extensions and staging-buffer
/// stalls), making "demand outruns the extension rate" observable;
/// **6** — fleet telemetry: the `Stats` reply carries log-bucketed
/// latency histogram snapshots (request→first-byte, chunk-push,
/// extension, stall) per shard and merged service-wide, and the new
/// `Trace`/`TraceDump` pair returns the server's recent event log;
/// **7** — observability plane: the `Stats` reply carries the server's
/// monotonic `uptime_nanos`, so a scraper deriving rates from the
/// cumulative counters can detect a restart (uptime went *down*) instead
/// of computing negative rates; **8** — graceful degradation: the new
/// `Unavailable{retry_after_ms}` response lets a degraded (e.g.
/// supply-starved) server decline work with a retry hint instead of
/// hanging or hard-failing clients, and the `Stats` reply grew the
/// robustness counters (timed-out ops, evicted slow subscribers,
/// unavailable rejections, injected faults); **9** — replicated
/// directories: membership records carry per-origin version stamps
/// (`weight`/`origin`/`version` joined the member layout), directory
/// deltas carry the sender's per-origin epoch vector, the server↔server
/// `Gossip`/`GossipDelta` pair runs anti-entropy convergence between
/// directory replicas, and a draining server announces its ring
/// successor in-stream with the `DrainHandoff` push so failover costs
/// the client zero extra roundtrips; **10** — one membership protocol:
/// opcodes `0x08`/`0x88` are unassigned and the directory-delta layout
/// lost its snapshot-flag byte, so `Gossip`/`GossipDelta` is the only
/// delta carrier; **11** — refill is server-local: opcodes `0x09`/`0x89`
/// are unassigned, nothing refills a pool over the wire.
pub const VERSION: u16 = 11;

/// Per-frame header size (the `u32` length prefix).
pub const FRAME_HEADER_LEN: usize = 4;

/// Handshake size in bytes (magic + version).
pub const HANDSHAKE_LEN: usize = 6;

/// Upper bound on one frame's payload (1 GiB): a corrupt or hostile
/// length prefix must not drive a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Errors of the wire codec.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying stream failure.
    Io(io::Error),
    /// The stream ended inside a header or payload.
    Truncated,
    /// The peer's handshake did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks an incompatible wire version.
    VersionMismatch {
        /// Our version ([`VERSION`]).
        ours: u16,
        /// The peer's advertised version.
        theirs: u16,
    },
    /// A frame declared a payload longer than [`MAX_FRAME_LEN`].
    Oversized {
        /// Declared payload length.
        len: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Truncated => write!(f, "stream truncated mid-frame"),
            FrameError::BadMagic(m) => write!(f, "bad connection magic {m:02x?}"),
            FrameError::VersionMismatch { ours, theirs } => {
                write!(f, "wire version mismatch: ours {ours}, peer {theirs}")
            }
            FrameError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds limit {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

impl From<FrameError> for ChannelError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io_err) => ChannelError::from(io_err),
            FrameError::Truncated => ChannelError::Disconnected,
            other => ChannelError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                other.to_string(),
            )),
        }
    }
}

/// Writes one frame (header + payload). Does not flush.
///
/// # Errors
///
/// [`FrameError::Oversized`] when the payload exceeds [`MAX_FRAME_LEN`];
/// otherwise propagates stream errors.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(FrameError::Oversized {
            len: payload.len() as u32,
        });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame's payload (blocking).
///
/// # Errors
///
/// [`FrameError::Truncated`] on EOF mid-frame, [`FrameError::Oversized`]
/// on a hostile length prefix, [`FrameError::Io`] on stream failure.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    read_frame_into(r, &mut payload)?;
    Ok(payload)
}

/// Starts building a frame in place: clears `buf` and reserves the
/// 4-byte length prefix. Append the payload directly to `buf`, then call
/// [`finish_frame`] to patch the prefix — the zero-copy alternative to
/// encoding a payload `Vec` and wrapping it with [`encode_frame`].
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
}

/// Completes a frame started with [`begin_frame`] by writing the payload
/// length into the reserved prefix. The buffer then holds exactly one
/// wire-ready frame (header + payload).
///
/// # Errors
///
/// [`FrameError::Oversized`] when the payload exceeds [`MAX_FRAME_LEN`].
///
/// # Panics
///
/// Panics if `buf` is shorter than the reserved prefix (i.e. it was not
/// started with [`begin_frame`]).
pub fn finish_frame(buf: &mut [u8]) -> Result<(), FrameError> {
    let payload_len = buf
        .len()
        .checked_sub(FRAME_HEADER_LEN)
        .expect("frame started with begin_frame");
    if payload_len > MAX_FRAME_LEN as usize {
        return Err(FrameError::Oversized {
            len: payload_len as u32,
        });
    }
    buf[..FRAME_HEADER_LEN].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(())
}

/// Completes a frame started with [`begin_frame`] whose payload
/// *continues beyond* `head` in separately owned slices (a vectored
/// send): patches the length prefix to `head`'s payload plus `tail_len`
/// upcoming bytes. The caller then hands `head` and the tail slices to
/// `StreamTransport::send_frame_parts`, which puts them on the wire with
/// one `write_vectored` — no concatenation buffer.
///
/// # Errors
///
/// [`FrameError::Oversized`] when the combined payload exceeds
/// [`MAX_FRAME_LEN`].
///
/// # Panics
///
/// Panics if `head` is shorter than the reserved prefix (i.e. it was not
/// started with [`begin_frame`]).
pub fn finish_frame_with_tail(head: &mut [u8], tail_len: usize) -> Result<(), FrameError> {
    let payload_len = head
        .len()
        .checked_sub(FRAME_HEADER_LEN)
        .expect("frame started with begin_frame")
        .checked_add(tail_len)
        .ok_or(FrameError::Oversized { len: u32::MAX })?;
    if payload_len > MAX_FRAME_LEN as usize {
        return Err(FrameError::Oversized {
            len: payload_len.min(u32::MAX as usize) as u32,
        });
    }
    head[..FRAME_HEADER_LEN].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(())
}

/// Reads one frame's payload into a caller-retained buffer (blocking),
/// reusing its allocation — the buffer-reusing form of [`read_frame`].
/// On success `buf` holds exactly the payload.
///
/// # Errors
///
/// Same failure classes as [`read_frame`].
pub fn read_frame_into<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> Result<(), FrameError> {
    let len = read_frame_header(r)?;
    // Grow-only zeroing: the buffer is zero-initialized only when it has
    // never been this large; steady-state receives just shrink the view.
    if buf.len() < len {
        buf.resize(len, 0);
    }
    buf.truncate(len);
    r.read_exact(buf)?;
    Ok(())
}

/// Reads one frame's length prefix (blocking) and returns the payload
/// length, which the caller must then consume in full.
///
/// # Errors
///
/// [`FrameError::Truncated`] on EOF inside the prefix,
/// [`FrameError::Oversized`] on a length above [`MAX_FRAME_LEN`],
/// [`FrameError::Io`] on stream failure.
pub fn read_frame_header<R: Read>(r: &mut R) -> Result<usize, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    Ok(len as usize)
}

/// Encodes one frame into a standalone byte vector (header + payload).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes one frame from the front of `bytes`, returning the payload and
/// the total bytes consumed.
///
/// # Errors
///
/// Same failure classes as [`read_frame`], on in-memory input.
pub fn decode_frame(bytes: &[u8]) -> Result<(Vec<u8>, usize), FrameError> {
    let mut cursor = bytes;
    let payload = read_frame(&mut cursor)?;
    Ok((payload, bytes.len() - cursor.len()))
}

/// Runs the symmetric handshake: sends our magic+version, then validates
/// the peer's. Returns the peer's version (equal to ours on success).
///
/// # Errors
///
/// [`FrameError::BadMagic`] / [`FrameError::VersionMismatch`] on protocol
/// disagreement; stream errors otherwise.
pub fn handshake<S: Read + Write>(stream: &mut S) -> Result<u16, FrameError> {
    let mut ours = [0u8; HANDSHAKE_LEN];
    ours[..4].copy_from_slice(&MAGIC);
    ours[4..].copy_from_slice(&VERSION.to_le_bytes());
    stream.write_all(&ours)?;
    stream.flush()?;

    let mut theirs = [0u8; HANDSHAKE_LEN];
    stream.read_exact(&mut theirs)?;
    let magic: [u8; 4] = theirs[..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(theirs[4..].try_into().expect("2-byte slice"));
    if version != VERSION {
        return Err(FrameError::VersionMismatch {
            ours: VERSION,
            theirs: version,
        });
    }
    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let payload = b"hello ironman".to_vec();
        let encoded = encode_frame(&payload);
        let (decoded, consumed) = decode_frame(&encoded).unwrap();
        assert_eq!(decoded, payload);
        assert_eq!(consumed, encoded.len());
    }

    #[test]
    fn in_place_frame_matches_encode_frame() {
        let payload = b"zero copy".to_vec();
        let mut buf = vec![0xAA; 3]; // stale content must be cleared
        begin_frame(&mut buf);
        buf.extend_from_slice(&payload);
        finish_frame(&mut buf).unwrap();
        assert_eq!(buf, encode_frame(&payload));
    }

    #[test]
    fn tail_finished_frame_matches_contiguous_header() {
        let payload = b"head-bytes then tail-bytes".to_vec();
        let split = 10;
        let mut whole = Vec::new();
        begin_frame(&mut whole);
        whole.extend_from_slice(&payload);
        finish_frame(&mut whole).unwrap();

        let mut head = Vec::new();
        begin_frame(&mut head);
        head.extend_from_slice(&payload[..split]);
        finish_frame_with_tail(&mut head, payload.len() - split).unwrap();
        // The prefix declares head payload *plus* the upcoming tail, so
        // concatenating head + tail reproduces the contiguous frame.
        assert_eq!(head[..FRAME_HEADER_LEN], whole[..FRAME_HEADER_LEN]);
        let mut glued = head.clone();
        glued.extend_from_slice(&payload[split..]);
        assert_eq!(glued, whole);
    }

    #[test]
    fn tail_finished_frame_rejects_oversize() {
        let mut head = Vec::new();
        begin_frame(&mut head);
        assert!(matches!(
            finish_frame_with_tail(&mut head, MAX_FRAME_LEN as usize + 1),
            Err(FrameError::Oversized { .. })
        ));
        assert!(matches!(
            finish_frame_with_tail(&mut head, usize::MAX),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn read_frame_into_reuses_buffer() {
        let big = encode_frame(&[7u8; 100]);
        let small = encode_frame(b"abc");
        let mut buf = Vec::new();
        read_frame_into(&mut big.as_slice(), &mut buf).unwrap();
        assert_eq!(buf.len(), 100);
        let cap = buf.capacity();
        read_frame_into(&mut small.as_slice(), &mut buf).unwrap();
        assert_eq!(buf, b"abc");
        assert_eq!(buf.capacity(), cap, "smaller frame must not reallocate");
    }

    #[test]
    fn read_frame_into_rejects_oversized_and_truncated() {
        let mut buf = Vec::new();
        let hostile = u32::MAX.to_le_bytes();
        assert!(matches!(
            read_frame_into(&mut hostile.as_slice(), &mut buf),
            Err(FrameError::Oversized { .. })
        ));
        let mut truncated = encode_frame(b"abcdef");
        truncated.truncate(truncated.len() - 2);
        assert!(matches!(
            read_frame_into(&mut truncated.as_slice(), &mut buf),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn empty_frame_round_trip() {
        let (decoded, consumed) = decode_frame(&encode_frame(&[])).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(consumed, FRAME_HEADER_LEN);
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(matches!(decode_frame(&[1, 2]), Err(FrameError::Truncated)));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut bytes = encode_frame(b"abcdef");
        bytes.truncate(bytes.len() - 2);
        assert!(matches!(decode_frame(&bytes), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let bytes = u32::MAX.to_le_bytes().to_vec();
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Oversized { .. })
        ));
    }

    /// In-memory duplex: reads come from a pre-loaded peer script, writes
    /// land in `outgoing`.
    struct Loopback {
        incoming: std::io::Cursor<Vec<u8>>,
        outgoing: Vec<u8>,
    }

    impl Loopback {
        fn scripted(peer_bytes: Vec<u8>) -> Self {
            Loopback {
                incoming: std::io::Cursor::new(peer_bytes),
                outgoing: Vec::new(),
            }
        }
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.incoming.read(buf)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.outgoing.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn handshake_matches_itself() {
        let mut hello = MAGIC.to_vec();
        hello.extend_from_slice(&VERSION.to_le_bytes());
        let mut peer = Loopback::scripted(hello);
        assert_eq!(handshake(&mut peer).unwrap(), VERSION);
        assert_eq!(peer.outgoing.len(), HANDSHAKE_LEN);
    }

    #[test]
    fn handshake_rejects_bad_magic() {
        let mut peer = Loopback::scripted(b"XXXX\x01\x00".to_vec());
        assert!(matches!(handshake(&mut peer), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn handshake_rejects_version_mismatch() {
        // Pinned: the opcode table is v11's, and a v10 peer (which could
        // still send `Warm`) is refused here, not misparsed later.
        assert_eq!(VERSION, 11);
        for other in [VERSION + 1, 10] {
            let mut hello = MAGIC.to_vec();
            hello.extend_from_slice(&other.to_le_bytes());
            let mut peer = Loopback::scripted(hello);
            assert!(matches!(
                handshake(&mut peer),
                Err(FrameError::VersionMismatch { theirs, .. }) if theirs == other
            ));
        }
    }
}
