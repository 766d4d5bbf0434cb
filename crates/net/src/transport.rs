//! Socket-backed [`Transport`] implementations.
//!
//! [`StreamTransport`] wraps any split `Read`/`Write` pair in
//! `BufReader`/`BufWriter` with **write coalescing**: sends only fill the
//! write buffer, and the buffer is flushed lazily — on the first receive
//! after a send (a direction switch, which is also when the round counter
//! ticks) or explicitly. A protocol that sends ten messages before
//! listening therefore pays one syscall, not ten, matching how production
//! OT libraries batch their socket writes.
//!
//! Accounting: [`ChannelStats`] counts *payload* bytes — identical
//! semantics to `LocalChannel`, so a protocol run over TCP reports the
//! same `bytes_sent` as the same run in-process. The extra wire bytes
//! (4-byte frame headers and the 6-byte handshake) are tracked separately
//! via [`StreamTransport::wire_bytes_sent`].

use crate::frame::{self, FrameError, FRAME_HEADER_LEN, HANDSHAKE_LEN};
use ironman_ot::channel::{ChannelError, ChannelStats, Transport};
use std::io::{BufReader, BufWriter, IoSlice, Read, Take, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;

/// Most parts [`StreamTransport::send_frame_parts`] takes: a batch frame's
/// head, two `z` runs, two `y` runs and its tail.
const MAX_FRAME_PARTS: usize = 6;

/// A framed, buffered transport over a split byte stream.
#[derive(Debug)]
pub struct StreamTransport<R: Read, W: Write> {
    reader: BufReader<R>,
    writer: BufWriter<W>,
    stats: ChannelStats,
    sent_since_recv: bool,
    pending_flush: bool,
    wire_sent: u64,
    wire_received: u64,
}

impl<R: Read, W: Write> StreamTransport<R, W> {
    /// Wraps a pre-connected reader/writer pair and runs the
    /// magic/version handshake.
    ///
    /// # Errors
    ///
    /// Fails when the peer is not speaking the Ironman wire protocol (bad
    /// magic / version) or on stream errors.
    pub fn from_split(reader: R, writer: W) -> Result<Self, FrameError> {
        let mut t = StreamTransport {
            reader: BufReader::new(reader),
            writer: BufWriter::new(writer),
            stats: ChannelStats::default(),
            sent_since_recv: false,
            pending_flush: false,
            wire_sent: 0,
            wire_received: 0,
        };
        t.run_handshake()?;
        Ok(t)
    }

    fn run_handshake(&mut self) -> Result<(), FrameError> {
        // The symmetric handshake, inlined over the split halves: write
        // ours, flush, then validate theirs.
        struct Duplex<'a, R: Read, W: Write>(&'a mut BufReader<R>, &'a mut BufWriter<W>);
        impl<R: Read, W: Write> Read for Duplex<'_, R, W> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.0.read(buf)
            }
        }
        impl<R: Read, W: Write> Write for Duplex<'_, R, W> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.1.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.1.flush()
            }
        }
        frame::handshake(&mut Duplex(&mut self.reader, &mut self.writer))?;
        self.wire_sent += HANDSHAKE_LEN as u64;
        self.wire_received += HANDSHAKE_LEN as u64;
        Ok(())
    }

    /// Forces any coalesced writes onto the wire.
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    pub fn flush(&mut self) -> Result<(), ChannelError> {
        if self.pending_flush {
            self.writer.flush()?;
            self.pending_flush = false;
        }
        Ok(())
    }

    /// Sends one pre-built frame (header + payload, as produced by
    /// [`frame::begin_frame`]/[`frame::finish_frame`]) with a single
    /// `write_all` and **no intermediate allocation** — the zero-copy
    /// counterpart of [`Transport::send_bytes`]. Accounting is identical:
    /// the payload bytes count toward [`ChannelStats`], the header toward
    /// the wire totals. Like `send_bytes`, the write is coalesced (frames
    /// at least as large as the internal buffer go straight to the
    /// socket); call [`StreamTransport::flush`] to force it out.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Malformed`] when `framed` is shorter than a frame
    /// header (it was not built with `begin_frame`/`finish_frame`);
    /// propagates stream errors otherwise.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the header's declared length matches the
    /// payload actually present.
    pub fn send_frame(&mut self, framed: &[u8]) -> Result<(), ChannelError> {
        let payload_len =
            framed
                .len()
                .checked_sub(FRAME_HEADER_LEN)
                .ok_or(ChannelError::Malformed {
                    expected: FRAME_HEADER_LEN,
                    actual: framed.len(),
                })?;
        debug_assert_eq!(
            u32::from_le_bytes(
                framed[..FRAME_HEADER_LEN]
                    .try_into()
                    .expect("4-byte header")
            ),
            payload_len as u32,
            "frame not finished with finish_frame"
        );
        self.writer.write_all(framed)?;
        self.stats.bytes_sent += payload_len as u64;
        self.stats.messages_sent += 1;
        self.wire_sent += framed.len() as u64;
        self.sent_since_recv = true;
        self.pending_flush = true;
        Ok(())
    }

    /// Sends one frame whose bytes live in several non-contiguous slices
    /// — `parts[0]` starts with the patched header (see
    /// [`frame::finish_frame_with_tail`]), the remaining parts are
    /// payload continuation (e.g. COT blocks borrowed straight from a
    /// pool's ring) — using **one `write_vectored` pass** instead of
    /// concatenating into a scratch buffer first. This deletes the last
    /// ring→scratch copy on the serving path: the kernel (or the
    /// `BufWriter`, for frames smaller than its buffer) gathers the
    /// slices itself.
    ///
    /// Accounting matches [`StreamTransport::send_frame`]: payload bytes
    /// (total minus header) count toward [`ChannelStats`], the full frame
    /// toward the wire totals, and the write is coalesced until the next
    /// direction switch or [`StreamTransport::flush`].
    ///
    /// # Errors
    ///
    /// [`ChannelError::Malformed`] when `parts[0]` is shorter than a
    /// frame header; propagates stream errors otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `parts` has more than six entries: a head, two `z` runs,
    /// two `y` runs and a tail, the most a batch frame has. The slices
    /// are gathered in a fixed array, not a per-frame allocation.
    /// Debug-asserts that the header's declared length matches the total
    /// payload actually present across all parts.
    pub fn send_frame_parts(&mut self, parts: &[&[u8]]) -> Result<(), ChannelError> {
        assert!(
            parts.len() <= MAX_FRAME_PARTS,
            "{} frame parts, at most {MAX_FRAME_PARTS} fit",
            parts.len()
        );
        let head = parts.first().copied().unwrap_or(&[]);
        if head.len() < FRAME_HEADER_LEN {
            return Err(ChannelError::Malformed {
                expected: FRAME_HEADER_LEN,
                actual: head.len(),
            });
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let payload_len = total - FRAME_HEADER_LEN;
        debug_assert_eq!(
            u32::from_le_bytes(head[..FRAME_HEADER_LEN].try_into().expect("4-byte header")),
            payload_len as u32,
            "frame not finished with finish_frame_with_tail"
        );
        let mut gathered = [IoSlice::new(&[]); MAX_FRAME_PARTS];
        let mut used = 0;
        for part in parts.iter().filter(|p| !p.is_empty()) {
            gathered[used] = IoSlice::new(part);
            used += 1;
        }
        let mut slices = &mut gathered[..used];
        while !slices.is_empty() {
            match self.writer.write_vectored(slices) {
                Ok(0) => {
                    return Err(ChannelError::from(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "vectored frame write made no progress",
                    )))
                }
                Ok(n) => IoSlice::advance_slices(&mut slices, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ChannelError::from(e)),
            }
        }
        self.stats.bytes_sent += payload_len as u64;
        self.stats.messages_sent += 1;
        self.wire_sent += total as u64;
        self.sent_since_recv = true;
        self.pending_flush = true;
        Ok(())
    }

    /// Receives one frame's payload into a caller-retained buffer,
    /// reusing its allocation — the zero-copy counterpart of
    /// [`Transport::recv_bytes`] (same flush-on-direction-switch and
    /// accounting semantics).
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    pub fn recv_bytes_into(&mut self, buf: &mut Vec<u8>) -> Result<(), ChannelError> {
        self.flush()?;
        frame::read_frame_into(&mut self.reader, buf).map_err(ChannelError::from)?;
        self.count_received(buf.len());
        Ok(())
    }

    /// Receives one frame whose payload the caller reads in parts — into
    /// whatever buffers it likes, e.g. straight into a batch's block
    /// storage. The length prefix is read and checked against
    /// [`frame::MAX_FRAME_LEN`] here; `read_payload` then gets a reader
    /// limited to exactly the payload (its `limit()` is the payload
    /// length). Anything it leaves unread is drained before returning, so
    /// the stream stays framed whatever the payload held. Same
    /// flush-on-direction-switch and accounting as
    /// [`StreamTransport::recv_bytes_into`].
    ///
    /// # Errors
    ///
    /// The frame-layer failures of [`StreamTransport::recv_bytes_into`]
    /// (EOF anywhere in the frame is [`ChannelError::Disconnected`]), and
    /// whatever `read_payload` returns.
    pub fn recv_frame_with<T>(
        &mut self,
        read_payload: impl FnOnce(&mut Take<&mut BufReader<R>>) -> Result<T, ChannelError>,
    ) -> Result<T, ChannelError> {
        self.flush()?;
        let len = frame::read_frame_header(&mut self.reader)?;
        let mut payload = (&mut self.reader).take(len as u64);
        let out = read_payload(&mut payload)?;
        std::io::copy(&mut payload, &mut std::io::sink())?;
        self.count_received(len);
        Ok(out)
    }

    /// Accounts one received frame of `payload_len` bytes: payload and
    /// wire totals, and a round on the first receive after a send.
    fn count_received(&mut self, payload_len: usize) {
        self.stats.bytes_received += payload_len as u64;
        self.wire_received += (FRAME_HEADER_LEN + payload_len) as u64;
        if self.sent_since_recv {
            self.stats.rounds += 1;
            self.sent_since_recv = false;
        }
    }

    /// Bytes actually written to the wire (payload + frame headers +
    /// handshake).
    pub fn wire_bytes_sent(&self) -> u64 {
        self.wire_sent
    }

    /// Bytes actually read off the wire (payload + frame headers +
    /// handshake).
    pub fn wire_bytes_received(&self) -> u64 {
        self.wire_received
    }
}

impl<R: Read, W: Write> Transport for StreamTransport<R, W> {
    fn send_bytes(&mut self, bytes: Vec<u8>) -> Result<(), ChannelError> {
        frame::write_frame(&mut self.writer, &bytes).map_err(ChannelError::from)?;
        self.stats.bytes_sent += bytes.len() as u64;
        self.stats.messages_sent += 1;
        self.wire_sent += (FRAME_HEADER_LEN + bytes.len()) as u64;
        self.sent_since_recv = true;
        self.pending_flush = true;
        Ok(())
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, ChannelError> {
        // Direction switch: everything coalesced so far must hit the wire
        // before we block on the peer (who may be waiting on it).
        self.flush()?;
        let payload = frame::read_frame(&mut self.reader).map_err(ChannelError::from)?;
        self.count_received(payload.len());
        Ok(payload)
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }
}

/// [`StreamTransport`] over a TCP socket.
pub type TcpTransport = StreamTransport<TcpStream, TcpStream>;

impl TcpTransport {
    /// Wraps an accepted/connected socket (enables `TCP_NODELAY`; the
    /// transport does its own coalescing) and handshakes.
    ///
    /// # Errors
    ///
    /// Propagates socket and handshake failures.
    pub fn from_stream(stream: TcpStream) -> Result<Self, FrameError> {
        stream.set_nodelay(true).map_err(FrameError::Io)?;
        let reader = stream.try_clone().map_err(FrameError::Io)?;
        StreamTransport::from_split(reader, stream)
    }

    /// Connects to a listening peer and handshakes.
    ///
    /// # Errors
    ///
    /// Propagates connection and handshake failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, FrameError> {
        Self::from_stream(TcpStream::connect(addr).map_err(FrameError::Io)?)
    }

    /// Accepts one connection from `listener` and handshakes.
    ///
    /// # Errors
    ///
    /// Propagates accept and handshake failures.
    pub fn accept(listener: &TcpListener) -> Result<Self, FrameError> {
        let (stream, _) = listener.accept().map_err(FrameError::Io)?;
        Self::from_stream(stream)
    }
}

/// [`StreamTransport`] over a unix domain socket.
#[cfg(unix)]
pub type UnixTransport = StreamTransport<UnixStream, UnixStream>;

#[cfg(unix)]
impl UnixTransport {
    /// Wraps a connected unix socket and handshakes.
    ///
    /// # Errors
    ///
    /// Propagates socket and handshake failures.
    pub fn from_stream(stream: UnixStream) -> Result<Self, FrameError> {
        let reader = stream.try_clone().map_err(FrameError::Io)?;
        StreamTransport::from_split(reader, stream)
    }

    /// Creates a connected, handshaked transport pair over an anonymous
    /// unix socketpair.
    ///
    /// # Errors
    ///
    /// Propagates socket and handshake failures.
    pub fn pair() -> Result<(Self, Self), FrameError> {
        let (a, b) = UnixStream::pair().map_err(FrameError::Io)?;
        // Each handshake writes, then blocks reading the peer's hello, so
        // the two ends must run concurrently.
        let b_thread = std::thread::spawn(move || Self::from_stream(b));
        let ta = Self::from_stream(a)?;
        let tb = b_thread.join().expect("handshake thread panicked")?;
        Ok((ta, tb))
    }
}

/// Creates a connected, handshaked TCP transport pair over a loopback
/// listener (for tests and benchmarks).
///
/// # Errors
///
/// Propagates socket and handshake failures.
pub fn tcp_loopback_pair() -> Result<(TcpTransport, TcpTransport), FrameError> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(FrameError::Io)?;
    let addr = listener.local_addr().map_err(FrameError::Io)?;
    // Connect-side handshake bytes sit in kernel buffers until the accept
    // side drains them, so a single thread can set up both ends.
    let connect_thread = std::thread::spawn(move || TcpTransport::connect(addr));
    let accepted = TcpTransport::accept(&listener)?;
    let connected = connect_thread.join().expect("connect thread panicked")?;
    Ok((accepted, connected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironman_prg::Block;

    #[test]
    fn tcp_round_trip_and_accounting() {
        let (mut a, mut b) = tcp_loopback_pair().unwrap();
        a.send_blocks(&[Block::from(0xfeedu128)]).unwrap();
        a.flush().unwrap();
        assert_eq!(b.recv_blocks().unwrap(), [Block::from(0xfeedu128)]);
        // Payload accounting matches LocalChannel semantics...
        assert_eq!(a.stats().bytes_sent, 16);
        assert_eq!(b.stats().bytes_received, 16);
        // ...while wire accounting includes header + handshake.
        assert_eq!(
            a.wire_bytes_sent(),
            16 + FRAME_HEADER_LEN as u64 + HANDSHAKE_LEN as u64
        );
    }

    #[test]
    fn tcp_coalesced_sends_arrive_in_order() {
        let (mut a, mut b) = tcp_loopback_pair().unwrap();
        for i in 0..100u128 {
            a.send_blocks(&[Block::from(i)]).unwrap();
        }
        a.flush().unwrap();
        for i in 0..100u128 {
            assert_eq!(b.recv_blocks().unwrap(), [Block::from(i)]);
        }
    }

    #[test]
    fn tcp_disconnect_detected() {
        let (mut a, b) = tcp_loopback_pair().unwrap();
        drop(b);
        assert!(matches!(a.recv_bytes(), Err(ChannelError::Disconnected)));
    }

    #[test]
    fn tcp_round_counting_matches_local_semantics() {
        let (mut a, mut b) = tcp_loopback_pair().unwrap();
        a.send_bits(&[true]).unwrap();
        a.send_bits(&[false]).unwrap();
        let t = std::thread::spawn(move || {
            b.recv_bits().unwrap();
            b.recv_bits().unwrap();
            b.send_bits(&[true]).unwrap();
            b.flush().unwrap();
            b.stats()
        });
        a.recv_bits().unwrap();
        assert_eq!(a.stats().rounds, 1);
        // b never received after sending, so its direction-switch counter
        // stays at zero — the same as LocalChannel's round_counting test.
        let b_stats = t.join().unwrap();
        assert_eq!(b_stats.rounds, 0);
    }

    #[cfg(unix)]
    #[test]
    fn unix_round_trip() {
        let (mut a, mut b) = UnixTransport::pair().unwrap();
        let blocks = vec![Block::from(1u128), Block::from(2u128)];
        a.send_blocks(&blocks).unwrap();
        a.flush().unwrap();
        assert_eq!(b.recv_blocks().unwrap(), blocks);
    }

    #[test]
    fn vectored_send_matches_contiguous_send() {
        let (mut a, mut b) = tcp_loopback_pair().unwrap();
        let payload: Vec<u8> = (0..=255u8).collect();

        // Contiguous reference frame.
        let mut whole = Vec::new();
        frame::begin_frame(&mut whole);
        whole.extend_from_slice(&payload);
        frame::finish_frame(&mut whole).unwrap();
        a.send_frame(&whole).unwrap();
        let (payload_sent, wire_sent) = (a.stats().bytes_sent, a.wire_bytes_sent());

        // The same payload scattered across head + two tail slices
        // (with an empty part, which the writer must skip).
        let mut head = Vec::new();
        frame::begin_frame(&mut head);
        head.extend_from_slice(&payload[..100]);
        frame::finish_frame_with_tail(&mut head, payload.len() - 100).unwrap();
        a.send_frame_parts(&[&head, &payload[100..200], &[], &payload[200..]])
            .unwrap();
        a.flush().unwrap();

        // Identical accounting per frame on both paths.
        assert_eq!(a.stats().bytes_sent, 2 * payload_sent);
        assert_eq!(
            a.wire_bytes_sent() - wire_sent,
            wire_sent - HANDSHAKE_LEN as u64
        );
        assert_eq!(a.stats().messages_sent, 2);

        // Identical bytes on the receiving end.
        let mut first = Vec::new();
        b.recv_bytes_into(&mut first).unwrap();
        let mut second = Vec::new();
        b.recv_bytes_into(&mut second).unwrap();
        assert_eq!(first, payload);
        assert_eq!(second, payload);
    }

    #[test]
    fn part_wise_receive_keeps_framing_and_accounting() {
        let (mut a, mut b) = tcp_loopback_pair().unwrap();
        a.send_bytes(b"0123456789".to_vec()).unwrap();
        a.send_bytes(b"next".to_vec()).unwrap();
        a.flush().unwrap();
        // Read only part of the first payload: the rest is drained, so
        // the second frame still arrives intact.
        let head = b
            .recv_frame_with(|payload| {
                assert_eq!(payload.limit(), 10);
                let mut head = [0u8; 3];
                payload.read_exact(&mut head)?;
                Ok(head)
            })
            .unwrap();
        assert_eq!(&head, b"012");
        assert_eq!(b.recv_bytes().unwrap(), b"next");
        assert_eq!(b.stats().bytes_received, 14);
        assert_eq!(
            b.wire_bytes_received(),
            (HANDSHAKE_LEN + 2 * FRAME_HEADER_LEN + 14) as u64
        );
    }

    #[test]
    fn vectored_send_rejects_short_head() {
        let (mut a, _b) = tcp_loopback_pair().unwrap();
        // A head that cannot even hold the length prefix was not started
        // with begin_frame — refuse before touching the socket.
        assert!(matches!(
            a.send_frame_parts(&[&[0u8; 2]]),
            Err(ChannelError::Malformed { .. })
        ));
        assert!(matches!(
            a.send_frame_parts(&[]),
            Err(ChannelError::Malformed { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "7 frame parts, at most 6 fit")]
    fn vectored_send_bounds_its_parts() {
        let (mut a, _b) = tcp_loopback_pair().unwrap();
        let mut head = Vec::new();
        frame::begin_frame(&mut head);
        frame::finish_frame_with_tail(&mut head, 6).unwrap();
        let parts: [&[u8]; 7] = [&head, b"a", b"b", b"c", b"d", b"e", b"f"];
        let _ = a.send_frame_parts(&parts);
    }

    #[test]
    fn bits_serialize_identically_to_local_channel() {
        use ironman_ot::channel::LocalChannel;
        let bits = vec![true, false, true, true, false, true, false, false, true];
        let (mut la, mut lb) = LocalChannel::pair();
        la.send_bits(&bits).unwrap();
        let (mut ta, mut tb) = tcp_loopback_pair().unwrap();
        ta.send_bits(&bits).unwrap();
        ta.flush().unwrap();
        assert_eq!(lb.recv_bits().unwrap(), tb.recv_bits().unwrap());
        // Same payload byte count on both paths: shared encode_bits framing.
        assert_eq!(la.stats().bytes_sent, ta.stats().bytes_sent);
    }
}
