//! Byte-counting duplex channels and a two-thread protocol executor.
//!
//! Every protocol in this workspace speaks through [`Transport`], so the
//! bytes and round trips of each execution are measured directly. The
//! paper's Fig. 7(b–c) (communication/latency vs. tree arity) and Fig. 16
//! (unified-architecture communication reduction) are regenerated from
//! these counters combined with the `ironman-perf` network model.

use ironman_prg::Block;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::mpsc;

/// Error type for channel operations.
#[derive(Debug)]
pub enum ChannelError {
    /// The peer hung up before the expected message arrived.
    Disconnected,
    /// A received message had an unexpected length.
    Malformed {
        /// Expected byte length.
        expected: usize,
        /// Actual byte length.
        actual: usize,
    },
    /// An underlying socket/stream failure (networked transports).
    Io(std::io::Error),
    /// The peer answered with a service-level rejection (the connection
    /// itself is healthy; retrying elsewhere would hit the same answer).
    Service(String),
    /// A request asked for more than the peer (or a client-side limit)
    /// can serve in one message; split it instead of sending it.
    RequestTooLarge {
        /// Largest size one request may carry.
        max: u64,
        /// Size actually requested.
        requested: u64,
    },
    /// The peer fenced a request made under a stale cluster-membership
    /// epoch: the caller's routing view is out of date. Sync the
    /// directory delta, re-resolve, and retry — the server is healthy.
    WrongEpoch {
        /// The peer's current directory epoch.
        current: u64,
    },
    /// An operation hit its deadline (`SO_RCVTIMEO`/`SO_SNDTIMEO` or a
    /// connect timeout) before the peer answered. Distinct from hard IO
    /// errors: the peer may be alive but slow, so callers back off or
    /// fail over rather than treating the session as corrupt.
    TimedOut,
    /// The peer is up but degraded (e.g. supply-starved) and declined to
    /// serve; it hints when a retry is worth attempting. Honoring the
    /// hint instead of hammering is what keeps a brownout from becoming
    /// a retry storm.
    Unavailable {
        /// Suggested minimum wait before retrying this peer, in
        /// milliseconds.
        retry_after_ms: u64,
    },
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::Disconnected => write!(f, "channel peer disconnected"),
            ChannelError::Malformed { expected, actual } => {
                write!(
                    f,
                    "malformed message: expected {expected} bytes, got {actual}"
                )
            }
            ChannelError::Io(e) => write!(f, "channel I/O error: {e}"),
            ChannelError::Service(msg) => write!(f, "service error: {msg}"),
            ChannelError::RequestTooLarge { max, requested } => {
                write!(f, "request of {requested} exceeds per-request limit {max}")
            }
            ChannelError::WrongEpoch { current } => {
                write!(f, "request fenced: peer is at directory epoch {current}")
            }
            ChannelError::TimedOut => write!(f, "operation timed out before the peer answered"),
            ChannelError::Unavailable { retry_after_ms } => {
                write!(f, "peer unavailable; retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for ChannelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChannelError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ChannelError {
    fn from(e: std::io::Error) -> Self {
        // A peer closing its socket surfaces as EOF/broken-pipe; fold those
        // into the logical Disconnected case the protocols already handle.
        // Socket deadlines surface as TimedOut on some platforms and
        // WouldBlock on others (Unix read timeouts): both mean "deadline
        // hit", neither means the stream is corrupt.
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => ChannelError::Disconnected,
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ChannelError::TimedOut,
            _ => ChannelError::Io(e),
        }
    }
}

/// Packs a bit vector into the canonical framing shared by every transport:
/// an 8-byte little-endian bit count followed by the LSB-first packed bits.
///
/// [`Transport::send_bits`] and the `ironman-net` wire codec both use this
/// layout, so local and socket paths serialize identically.
pub fn encode_bits(bits: &[bool]) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_bits_into(bits, &mut bytes);
    bytes
}

/// Appending form of [`encode_bits`] for serialization hot paths: writes
/// the identical framing onto the end of `out`, reusing its allocation.
/// Eight bools fold into a byte at a time, with no data-dependent branch.
pub fn encode_bits_into(bits: &[bool], out: &mut Vec<u8>) {
    out.reserve(8 + bits.len().div_ceil(8));
    out.extend_from_slice(&(bits.len() as u64).to_le_bytes());
    let (octets, rest) = bits.as_chunks::<8>();
    out.extend(octets.iter().map(pack_octet));
    if !rest.is_empty() {
        let mut last = [false; 8];
        last[..rest.len()].copy_from_slice(rest);
        out.push(pack_octet(&last));
    }
}

/// Packs eight bools LSB-first into one byte: each bool is a 0/1 byte of
/// a little-endian `u64`, and one multiply gathers byte `i`'s bit into bit
/// `56 + i` (the partial products never overlap, so nothing carries).
#[inline]
fn pack_octet(bits: &[bool; 8]) -> u8 {
    let spread = u64::from_le_bytes(bits.map(u8::from));
    (spread.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// Expands one byte into eight bools, LSB first: the byte is broadcast to
/// every lane, lane `i` keeps only bit `i`, and adding `0x7F` per lane
/// carries any set bit into the lane's top bit without crossing lanes.
#[inline]
fn unpack_octet(byte: u8) -> [bool; 8] {
    let lanes = (byte as u64).wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
    let ones = ((lanes + 0x7F7F_7F7F_7F7F_7F7F) >> 7) & 0x0101_0101_0101_0101;
    ones.to_le_bytes().map(|b| b != 0)
}

/// [`decode_bits_into`] into a fresh vector.
fn decode_bits(bytes: &[u8]) -> Result<Vec<bool>, ChannelError> {
    let mut bits = Vec::new();
    decode_bits_into(bytes, &mut bits)?;
    Ok(bits)
}

/// Inverse of [`encode_bits`] into a reused buffer: clears `out` and fills
/// it with the decoded bits, keeping its allocation (a byte expands into
/// eight bools at a time, with no data-dependent branch).
///
/// # Errors
///
/// Returns [`ChannelError::Malformed`] when the header is truncated or the
/// payload length disagrees with the declared bit count.
pub fn decode_bits_into(bytes: &[u8], out: &mut Vec<bool>) -> Result<(), ChannelError> {
    if bytes.len() < 8 {
        return Err(ChannelError::Malformed {
            expected: 8,
            actual: bytes.len(),
        });
    }
    let len = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte header")) as usize;
    if bytes.len() != len.div_ceil(8) + 8 {
        return Err(ChannelError::Malformed {
            expected: len.div_ceil(8) + 8,
            actual: bytes.len(),
        });
    }
    out.clear();
    out.resize(len, false);
    let (octets, rest) = out.as_chunks_mut::<8>();
    let packed = &bytes[8..];
    for (dst, &byte) in octets.iter_mut().zip(packed) {
        *dst = unpack_octet(byte);
    }
    if !rest.is_empty() {
        let n = rest.len();
        rest.copy_from_slice(&unpack_octet(packed[packed.len() - 1])[..n]);
    }
    Ok(())
}

/// Communication statistics of one endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Bytes sent by this endpoint.
    pub bytes_sent: u64,
    /// Bytes received by this endpoint.
    pub bytes_received: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Communication rounds: number of send→receive direction switches
    /// observed at this endpoint (a proxy for RTT count).
    pub rounds: u64,
}

impl ChannelStats {
    /// Total traffic through this endpoint in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// A duplex message transport with accounting.
///
/// Blanket helpers serialize [`Block`] vectors and bit vectors; all
/// protocol messages go through [`Transport::send_bytes`] /
/// [`Transport::recv_bytes`] so accounting is exact.
pub trait Transport {
    /// Sends one message.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::Disconnected`] if the peer is gone.
    fn send_bytes(&mut self, bytes: Vec<u8>) -> Result<(), ChannelError>;

    /// Receives one message (blocking).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::Disconnected`] if the peer is gone.
    fn recv_bytes(&mut self) -> Result<Vec<u8>, ChannelError>;

    /// Accounting snapshot.
    fn stats(&self) -> ChannelStats;

    /// Sends a slice of blocks as one message.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    fn send_blocks(&mut self, blocks: &[Block]) -> Result<(), ChannelError> {
        let mut bytes = Vec::with_capacity(blocks.len() * 16);
        for b in blocks {
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        self.send_bytes(bytes)
    }

    /// Receives a block vector sent with [`Transport::send_blocks`].
    ///
    /// # Errors
    ///
    /// Fails on disconnect or if the payload is not a multiple of 16 bytes.
    fn recv_blocks(&mut self) -> Result<Vec<Block>, ChannelError> {
        let bytes = self.recv_bytes()?;
        if bytes.len() % 16 != 0 {
            return Err(ChannelError::Malformed {
                expected: bytes.len().div_ceil(16) * 16,
                actual: bytes.len(),
            });
        }
        Ok(bytes
            .chunks_exact(16)
            .map(|c| Block::from_le_bytes(c.try_into().expect("16-byte chunk")))
            .collect())
    }

    /// Sends a packed bit vector.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    fn send_bits(&mut self, bits: &[bool]) -> Result<(), ChannelError> {
        self.send_bytes(encode_bits(bits))
    }

    /// Receives a packed bit vector.
    ///
    /// # Errors
    ///
    /// Fails on disconnect or malformed framing.
    fn recv_bits(&mut self) -> Result<Vec<bool>, ChannelError> {
        decode_bits(&self.recv_bytes()?)
    }
}

/// In-memory transport endpoint (one half of a duplex pair).
#[derive(Debug)]
pub struct LocalChannel {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    stats: ChannelStats,
    sent_since_recv: bool,
}

impl LocalChannel {
    /// Creates a connected duplex pair.
    ///
    /// # Example
    ///
    /// ```
    /// use ironman_ot::channel::{LocalChannel, Transport};
    /// use ironman_prg::Block;
    ///
    /// let (mut a, mut b) = LocalChannel::pair();
    /// a.send_blocks(&[Block::from(7u128)]).unwrap();
    /// assert_eq!(b.recv_blocks().unwrap(), [Block::from(7u128)]);
    /// ```
    pub fn pair() -> (LocalChannel, LocalChannel) {
        let (tx_ab, rx_ab) = mpsc::channel();
        let (tx_ba, rx_ba) = mpsc::channel();
        (
            LocalChannel {
                tx: tx_ab,
                rx: rx_ba,
                stats: ChannelStats::default(),
                sent_since_recv: false,
            },
            LocalChannel {
                tx: tx_ba,
                rx: rx_ab,
                stats: ChannelStats::default(),
                sent_since_recv: false,
            },
        )
    }
}

impl Transport for LocalChannel {
    fn send_bytes(&mut self, bytes: Vec<u8>) -> Result<(), ChannelError> {
        self.stats.bytes_sent += bytes.len() as u64;
        self.stats.messages_sent += 1;
        self.sent_since_recv = true;
        self.tx.send(bytes).map_err(|_| ChannelError::Disconnected)
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, ChannelError> {
        let bytes = self.rx.recv().map_err(|_| ChannelError::Disconnected)?;
        self.stats.bytes_received += bytes.len() as u64;
        if self.sent_since_recv {
            self.stats.rounds += 1;
            self.sent_since_recv = false;
        }
        Ok(bytes)
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }
}

/// Runs a two-party protocol: `sender_fn` and `receiver_fn` execute on their
/// own threads with connected channel endpoints, and the results plus both
/// endpoints' communication statistics are returned as
/// `(sender_out, receiver_out, sender_stats, receiver_stats)`.
///
/// # Panics
///
/// Panics if either party panics (the panic is propagated).
pub fn run_protocol<S, R, FS, FR>(
    sender_fn: FS,
    receiver_fn: FR,
) -> (S, R, ChannelStats, ChannelStats)
where
    S: Send,
    R: Send,
    FS: FnOnce(&mut LocalChannel) -> S + Send,
    FR: FnOnce(&mut LocalChannel) -> R + Send,
{
    let (cs, cr) = LocalChannel::pair();
    run_protocol_over(cs, cr, sender_fn, receiver_fn)
}

/// Runs a two-party protocol over an arbitrary pre-connected transport
/// pair — in-process channels, TCP sockets, unix sockets — returning
/// `(sender_out, receiver_out, sender_stats, receiver_stats)`.
///
/// This is the transport-generic form of [`run_protocol`]; the two
/// endpoints need not even be the same transport type (e.g. one side over
/// a socket, a loopback harness on the other).
///
/// # Panics
///
/// Panics if either party panics (the panic is propagated).
pub fn run_protocol_over<TS, TR, S, R, FS, FR>(
    mut sender_ch: TS,
    mut receiver_ch: TR,
    sender_fn: FS,
    receiver_fn: FR,
) -> (S, R, ChannelStats, ChannelStats)
where
    TS: Transport + Send,
    TR: Transport + Send,
    S: Send,
    R: Send,
    FS: FnOnce(&mut TS) -> S + Send,
    FR: FnOnce(&mut TR) -> R + Send,
{
    std::thread::scope(|scope| {
        let sender_handle = scope.spawn(move || {
            let out = sender_fn(&mut sender_ch);
            (out, sender_ch.stats())
        });
        let receiver_handle = scope.spawn(move || {
            let out = receiver_fn(&mut receiver_ch);
            (out, receiver_ch.stats())
        });
        let (s_out, s_stats) = sender_handle.join().expect("sender thread panicked");
        let (r_out, r_stats) = receiver_handle.join().expect("receiver thread panicked");
        (s_out, r_out, s_stats, r_stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_round_trip() {
        let (mut a, mut b) = LocalChannel::pair();
        let v = vec![Block::from(1u128), Block::from(2u128), Block::from(3u128)];
        a.send_blocks(&v).unwrap();
        assert_eq!(b.recv_blocks().unwrap(), v);
    }

    #[test]
    fn bits_round_trip() {
        let (mut a, mut b) = LocalChannel::pair();
        let bits = vec![true, false, true, true, false, false, false, true, true];
        a.send_bits(&bits).unwrap();
        assert_eq!(b.recv_bits().unwrap(), bits);
    }

    #[test]
    fn empty_bits_round_trip() {
        let (mut a, mut b) = LocalChannel::pair();
        a.send_bits(&[]).unwrap();
        assert_eq!(b.recv_bits().unwrap(), Vec::<bool>::new());
    }

    #[test]
    fn byte_accounting() {
        let (mut a, mut b) = LocalChannel::pair();
        a.send_blocks(&[Block::ZERO]).unwrap();
        b.recv_blocks().unwrap();
        assert_eq!(a.stats().bytes_sent, 16);
        assert_eq!(b.stats().bytes_received, 16);
        assert_eq!(a.stats().messages_sent, 1);
    }

    #[test]
    fn round_counting() {
        let (mut a, mut b) = LocalChannel::pair();
        // a: send, send, recv => 1 round.
        a.send_bits(&[true]).unwrap();
        a.send_bits(&[false]).unwrap();
        b.recv_bits().unwrap();
        b.recv_bits().unwrap();
        b.send_bits(&[true]).unwrap();
        a.recv_bits().unwrap();
        assert_eq!(a.stats().rounds, 1);
    }

    #[test]
    fn disconnect_detected() {
        let (mut a, b) = LocalChannel::pair();
        drop(b);
        assert!(matches!(a.recv_bytes(), Err(ChannelError::Disconnected)));
    }

    #[test]
    fn run_protocol_exchanges() {
        let (s, r, ss, rs) = run_protocol(
            |ch| {
                ch.send_blocks(&[Block::from(5u128)]).unwrap();
                ch.recv_blocks().unwrap()
            },
            |ch| {
                let x = ch.recv_blocks().unwrap();
                ch.send_blocks(&[x[0] ^ Block::from(1u128)]).unwrap();
                x
            },
        );
        assert_eq!(r, [Block::from(5u128)]);
        assert_eq!(s, [Block::from(4u128)]);
        assert_eq!(ss.bytes_sent, 16);
        assert_eq!(rs.bytes_sent, 16);
    }

    #[test]
    fn malformed_block_detected() {
        let (mut a, mut b) = LocalChannel::pair();
        a.send_bytes(vec![0u8; 3]).unwrap();
        assert!(matches!(
            b.recv_blocks(),
            Err(ChannelError::Malformed { .. })
        ));
    }
}
