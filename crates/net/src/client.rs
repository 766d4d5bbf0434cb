//! The client half of the COT service: [`CotClient`], one session
//! against a [`CotService`](crate::CotService), and [`CotSubscription`],
//! the client side of a credit-controlled stream.

use crate::proto::{
    recv_response_into, DirectoryDelta, HotResponse, Request, Response, ServiceStats, EPOCH_UNAWARE,
};
use crate::retry::OpTimeouts;
use crate::transport::TcpTransport;
use ironman_ot::channel::{ChannelError, ChannelStats, Transport};
use ironman_ot::CotBatch;
use ironman_telemetry::TraceEvent;
use std::net::{TcpStream, ToSocketAddrs};

/// A client session against a [`CotService`](crate::CotService).
///
/// Every receive ([`CotClient::request_cots_into`],
/// [`CotSubscription::next_chunk_into`]) reads a batch's `z` and `y` from
/// the socket straight into a caller-retained [`CotBatch`]; the client
/// retains one frame buffer for the session's lifetime that holds only a
/// batch frame's head and packed choice bits (and control frames whole),
/// so a steady-state consumer allocates nothing per batch.
#[derive(Debug)]
pub struct CotClient {
    pub(crate) ch: TcpTransport,
    max_request: u64,
    /// Retained frame buffer: a batch frame's head and bit tail, or a
    /// control frame whole.
    recv_buf: Vec<u8>,
}

impl CotClient {
    /// Connects, handshakes, and exchanges `Hello`/`Welcome` as an
    /// epoch-unaware session (never fenced) with the
    /// [`OpTimeouts::default`] deadlines — connect, read, and write all
    /// bounded, so no caller hangs forever on a blackholed peer by
    /// accident; an expired deadline surfaces as the typed
    /// [`ChannelError::TimedOut`]. Fleet-aware sessions and callers that
    /// need different bounds use [`CotClient::connect_with`].
    ///
    /// # Errors
    ///
    /// Fails on connection/handshake errors or an unexpected first
    /// response.
    pub fn connect<A: ToSocketAddrs>(addr: A, name: &str) -> Result<CotClient, ChannelError> {
        Self::connect_with(addr, name, EPOCH_UNAWARE, OpTimeouts::default())
    }

    /// The fully explicit connect. `epoch` is the caller's directory
    /// epoch: the server fences correlation-serving requests with
    /// [`ChannelError::WrongEpoch`] once its directory moves past it
    /// (resync with [`CotClient::gossip`]); [`EPOCH_UNAWARE`] opts out.
    /// Every resolved address candidate is tried with
    /// `timeouts.connect`, and the session socket carries
    /// `timeouts.read`/`timeouts.write` as its per-op deadlines
    /// (`SO_RCVTIMEO`/`SO_SNDTIMEO`) thereafter — background controllers
    /// (gossip, the fleet observer) pass
    /// [`OpTimeouts::uniform`] so one blackholed server costs them a
    /// short timeout.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CotClient::connect`], plus
    /// [`ChannelError::TimedOut`] when a deadline expires.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        name: &str,
        epoch: u64,
        timeouts: OpTimeouts,
    ) -> Result<CotClient, ChannelError> {
        let mut last_err: Option<std::io::Error> = None;
        for candidate in addr.to_socket_addrs().map_err(ChannelError::from)? {
            match TcpStream::connect_timeout(&candidate, timeouts.connect) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(timeouts.read))
                        .map_err(ChannelError::from)?;
                    stream
                        .set_write_timeout(Some(timeouts.write))
                        .map_err(ChannelError::from)?;
                    let ch = TcpTransport::from_stream(stream).map_err(ChannelError::from)?;
                    return Self::open_session(ch, name, epoch);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.map_or_else(
            || {
                ChannelError::Io(std::io::Error::new(
                    std::io::ErrorKind::AddrNotAvailable,
                    "address resolved to no candidates",
                ))
            },
            ChannelError::from,
        ))
    }

    /// The shared `Hello`/`Welcome` exchange over an already-handshaken
    /// transport.
    fn open_session(
        mut ch: TcpTransport,
        name: &str,
        epoch: u64,
    ) -> Result<CotClient, ChannelError> {
        ch.send_bytes(
            Request::Hello {
                name: name.to_string(),
                epoch,
            }
            .encode(),
        )?;
        match Response::decode(&ch.recv_bytes()?)? {
            Response::Welcome { max_request, .. } => Ok(CotClient {
                ch,
                max_request,
                recv_buf: Vec::new(),
            }),
            other => Err(reject(other)),
        }
    }

    /// Largest batch one [`CotClient::request_cots_into`] call, or one
    /// chunk of a [`CotClient::subscribe`] stream, may ask for.
    pub fn max_request(&self) -> u64 {
        self.max_request
    }

    /// Anti-entropy pull (v9): presents `vector` (this side's per-origin
    /// epoch vector, `from` identifying the pulling replica —
    /// `u64::MAX` for unattributed pullers like clients) and returns
    /// every membership record the vector does not cover. Also brings
    /// this session current for the server's epoch fence.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, on a server without a directory, or
    /// an unexpected response.
    pub fn gossip(
        &mut self,
        from: u64,
        vector: Vec<(u64, u64)>,
    ) -> Result<DirectoryDelta, ChannelError> {
        self.ch
            .send_bytes(Request::Gossip { from, vector }.encode())?;
        match Response::decode(&self.ch.recv_bytes()?)? {
            Response::GossipDelta(delta) => Ok(delta),
            other => Err(reject(other)),
        }
    }

    /// Fetches `n` fresh correlations into a caller-retained batch,
    /// reusing its allocations (`z` and `y` are read from the socket
    /// straight into `out`). On error `out`'s contents are unspecified.
    ///
    /// # Errors
    ///
    /// Fails fast with [`ChannelError::RequestTooLarge`] — before any
    /// bytes hit the wire — when `n` is zero or exceeds the server's
    /// advertised [`CotClient::max_request`] (callers that want
    /// transparent splitting go through `ironman-cluster`'s
    /// `ClusterClient`); otherwise fails on transport errors or a
    /// server-side [`Response::Error`].
    pub fn request_cots_into(&mut self, n: usize, out: &mut CotBatch) -> Result<(), ChannelError> {
        if n == 0 || n as u64 > self.max_request {
            return Err(ChannelError::RequestTooLarge {
                max: self.max_request,
                requested: n as u64,
            });
        }
        self.ch
            .send_bytes(Request::RequestCot { n: n as u64 }.encode())?;
        match recv_response_into(&mut self.ch, &mut self.recv_buf, out)? {
            HotResponse::Cots => Ok(()),
            HotResponse::Other(other) => Err(reject(*other)),
            HotResponse::CotChunk { seq } => Err(stream_violation(&format!(
                "chunk seq {seq} outside a subscription"
            ))),
        }
    }

    /// Fetches a service statistics snapshot.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn stats(&mut self) -> Result<ServiceStats, ChannelError> {
        self.ch.send_bytes(Request::Stats.encode())?;
        match Response::decode(&self.ch.recv_bytes()?)? {
            Response::Stats(s) => Ok(*s),
            other => Err(reject(other)),
        }
    }

    /// Fetches the server's recent trace events (newest `max_events`,
    /// its service-level ring merged with every pool shard's by
    /// timestamp; the server caps the reply size on its side).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn trace(&mut self, max_events: u64) -> Result<Vec<TraceEvent>, ChannelError> {
        self.ch.send_bytes(Request::Trace { max_events }.encode())?;
        match Response::decode(&self.ch.recv_bytes()?)? {
            Response::TraceDump(events) => Ok(events),
            other => Err(reject(other)),
        }
    }

    /// Asks the server to shut down and consumes this session.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn shutdown_server(mut self) -> Result<(), ChannelError> {
        self.ch.send_bytes(Request::Shutdown.encode())?;
        match Response::decode(&self.ch.recv_bytes()?)? {
            Response::Goodbye => Ok(()),
            other => Err(reject(other)),
        }
    }

    /// This session's transport accounting.
    pub fn transport_stats(&self) -> ChannelStats {
        self.ch.stats()
    }

    /// Opens a credit-controlled stream of exactly `chunks` batches of
    /// `batch` correlations each (the streaming analogue of calling
    /// [`CotClient::request_cots_into`] `chunks` times, minus the
    /// per-request round trip: the server pushes ahead of demand, up to
    /// the credit window).
    ///
    /// # Errors
    ///
    /// Fails fast with [`ChannelError::RequestTooLarge`] when `batch`
    /// exceeds [`CotClient::max_request`] (or is zero), and on transport
    /// errors.
    pub fn subscribe(
        &mut self,
        batch: usize,
        chunks: u64,
    ) -> Result<CotSubscription<'_>, ChannelError> {
        if batch == 0 || batch as u64 > self.max_request {
            return Err(ChannelError::RequestTooLarge {
                max: self.max_request,
                requested: batch as u64,
            });
        }
        let window = CotSubscription::CREDIT_WINDOW;
        // Only ever grant credits we intend to consume: the grant total
        // across the subscription's lifetime is exactly `chunks`, so the
        // stream ends with zero credits outstanding and no discarded work.
        let initial = window.min(chunks);
        self.ch.send_bytes(
            Request::Subscribe {
                batch: batch as u64,
                credits: initial,
            }
            .encode(),
        )?;
        Ok(CotSubscription {
            client: self,
            batch: batch as u64,
            remaining: chunks,
            granted: initial,
            next_seq: 0,
            cots_received: 0,
            ended: false,
            handoff: None,
        })
    }
}

/// Final accounting of a completed [`CotSubscription`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamSummary {
    /// Chunks the server pushed (including any drained unconsumed ones).
    pub chunks: u64,
    /// Correlations the server pushed.
    pub cots: u64,
}

/// An active streaming subscription on a [`CotClient`] session.
///
/// Pull chunks with [`CotSubscription::next_chunk_into`]; the
/// subscription manages the credit window itself, topping the server up
/// *before* blocking on the next chunk so the server's push pipeline
/// never drains between grants. Credits are accounted exactly: the
/// subscription only ever grants what it will consume, and a server
/// chunk that arrives without a matching credit is a protocol error, not
/// a negative balance.
#[derive(Debug)]
pub struct CotSubscription<'a> {
    client: &'a mut CotClient,
    batch: u64,
    /// Chunks not yet received.
    remaining: u64,
    /// Credits granted whose chunks have not yet arrived (`granted <=
    /// remaining` is the subscription invariant).
    granted: u64,
    next_seq: u64,
    cots_received: u64,
    ended: bool,
    /// The draining server's announced successor `(id, addr, name)`,
    /// recorded when a `DrainHandoff` push arrives mid-stream (v9).
    handoff: Option<(u64, String, String)>,
}

impl CotSubscription<'_> {
    /// Credit window: chunks the server may have in flight at once. Deep
    /// enough to hide a refill behind in-flight chunks, small enough that
    /// a slow consumer holds back the pool drain.
    pub const CREDIT_WINDOW: u64 = 8;

    /// Credits currently granted but not yet consumed by an arrived chunk.
    pub fn credits_outstanding(&self) -> u64 {
        self.granted
    }

    /// The drain handoff `(successor id, addr, name)` the server
    /// announced mid-stream, if any — the zero-roundtrip failover hint a
    /// fleet client resumes the stream at.
    pub fn handoff(&self) -> Option<&(u64, String, String)> {
        self.handoff.as_ref()
    }

    /// Chunks still expected by this subscription.
    pub fn chunks_remaining(&self) -> u64 {
        self.remaining
    }

    /// Receives the next chunk into a caller-retained batch, reusing its
    /// allocations (`z` and `y` are read from the socket straight into
    /// `out`). Returns `false` once the stream is over — either the
    /// subscribed count arrived, or the server ended the stream early
    /// (e.g. it is shutting down); in both cases the accounting trailer
    /// has been received and verified, and `out`'s contents are
    /// unspecified. Compare [`CotSubscription::chunks_remaining`] against
    /// zero (or check the [`CotSubscription::finish`] summary) to tell
    /// the two apart.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, a server-side error, or any accounting
    /// violation (out-of-order sequence, wrong chunk size, a chunk without
    /// a granted credit, or a trailer that disagrees with what arrived).
    pub fn next_chunk_into(&mut self, out: &mut CotBatch) -> Result<bool, ChannelError> {
        if self.ended || self.remaining == 0 {
            self.close()?;
            return Ok(false);
        }
        // Top up the window before blocking: grants ride the full-duplex
        // socket while earlier chunks are still in flight, so the server
        // sees them before its balance reaches zero.
        let half = Self::CREDIT_WINDOW.div_ceil(2);
        if self.granted <= half && self.granted < self.remaining {
            let add = Self::CREDIT_WINDOW.min(self.remaining) - self.granted;
            if add > 0 {
                self.client
                    .ch
                    .send_bytes(Request::Credit { n: add }.encode())?;
                self.granted += add;
            }
        }
        // The server may end the stream early (shutdown): `remaining` is
        // then deliberately left non-zero so the truncation is observable
        // through `chunks_remaining`.
        let Some(seq) = self.recv_chunk(out)? else {
            return Ok(false);
        };
        if out.len() as u64 != self.batch {
            return Err(stream_violation(&format!(
                "chunk of {} correlations, subscribed for {}",
                out.len(),
                self.batch
            )));
        }
        self.account_chunk(seq, out.len() as u64)?;
        Ok(true)
    }

    /// Ends the subscription (early or after completion), drains any
    /// in-flight chunks, and returns the server's accounting trailer.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a trailer that disagrees with the
    /// chunks actually observed.
    pub fn finish(mut self) -> Result<StreamSummary, ChannelError> {
        self.close()?;
        Ok(StreamSummary {
            chunks: self.next_seq,
            cots: self.cots_received,
        })
    }

    /// Reads frames until the next chunk lands in `out` (`Some(seq)`) or
    /// the stream ends (`None`, trailer verified) — the one dispatch of
    /// the consume and drain paths. A `DrainHandoff` is recorded and
    /// reading goes on: the push consumed no credit and carries no
    /// payload, and a caller tearing the stream down is usually about to
    /// resume it at that successor.
    fn recv_chunk(&mut self, out: &mut CotBatch) -> Result<Option<u64>, ChannelError> {
        loop {
            let client = &mut *self.client;
            let other = match recv_response_into(&mut client.ch, &mut client.recv_buf, out)? {
                HotResponse::CotChunk { seq } => return Ok(Some(seq)),
                HotResponse::Other(other) => other,
                HotResponse::Cots => {
                    return Err(stream_violation(
                        "one-shot Cots response inside a subscription",
                    ))
                }
            };
            match *other {
                // The trailer must agree with every chunk this side
                // observed.
                Response::StreamEnd { chunks, cots } => {
                    self.ended = true;
                    self.verify_trailer(chunks, cots)?;
                    return Ok(None);
                }
                // A fenced Subscribe never started the stream, so there is
                // no trailer to wait for: surface the typed error and mark
                // the subscription over, so the session stays in lockstep
                // for the caller's resync.
                Response::WrongEpoch { epoch } => {
                    self.ended = true;
                    return Err(ChannelError::WrongEpoch { current: epoch });
                }
                Response::DrainHandoff { id, addr, name } => {
                    self.handoff = Some((id, addr, name));
                }
                other => return Err(reject(other)),
            }
        }
    }

    /// The shared per-chunk bookkeeping of the consume and drain paths:
    /// sequence order, credit consumption (a chunk without a granted
    /// credit is the "negative credits" case this subscription exists to
    /// rule out), and the running totals.
    fn account_chunk(&mut self, seq: u64, len: u64) -> Result<(), ChannelError> {
        if seq != self.next_seq {
            return Err(stream_violation(&format!(
                "chunk out of order: got seq {seq}, expected {}",
                self.next_seq
            )));
        }
        self.granted = self
            .granted
            .checked_sub(1)
            .ok_or_else(|| stream_violation("server pushed a chunk without a granted credit"))?;
        self.next_seq += 1;
        self.remaining = self.remaining.saturating_sub(1);
        self.cots_received += len;
        Ok(())
    }

    /// Byte-exact accounting: the server's trailer must agree with every
    /// chunk this side observed.
    fn verify_trailer(&self, chunks: u64, cots: u64) -> Result<(), ChannelError> {
        if chunks != self.next_seq || cots != self.cots_received {
            return Err(stream_violation(&format!(
                "trailer claims {chunks} chunks/{cots} cots, observed {}/{}",
                self.next_seq, self.cots_received
            )));
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), ChannelError> {
        if self.ended {
            return Ok(());
        }
        self.client.ch.send_bytes(Request::Unsubscribe.encode())?;
        // Chunks covered by already-granted credits may still be in
        // flight ahead of the trailer; drain and count them (into one
        // reused batch — drained payloads are accounted, not kept).
        let mut drained = CotBatch::default();
        while let Some(seq) = self.recv_chunk(&mut drained)? {
            self.account_chunk(seq, drained.len() as u64)?;
        }
        Ok(())
    }
}

impl Drop for CotSubscription<'_> {
    /// A dropped subscription still unsubscribes and drains, so the
    /// underlying session stays usable for one-shot requests afterwards
    /// (errors are swallowed: the transport may already be gone).
    fn drop(&mut self) {
        if !self.ended {
            let _ = self.close();
        }
    }
}

/// Maps a non-success response to its typed error: service rejections,
/// epoch fences, and everything else as a protocol violation.
fn reject(resp: Response) -> ChannelError {
    match resp {
        Response::Error(msg) => ChannelError::Service(msg),
        Response::WrongEpoch { epoch } => ChannelError::WrongEpoch { current: epoch },
        Response::Unavailable { retry_after_ms } => ChannelError::Unavailable { retry_after_ms },
        other => ChannelError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected response: {other:?}"),
        )),
    }
}

fn stream_violation(msg: &str) -> ChannelError {
    ChannelError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("subscription protocol violation: {msg}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::VERSION;
    use ironman_prg::Block;
    use std::io::ErrorKind;
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;

    /// An `n`-correlation batch that satisfies `z = y ⊕ x·Δ`.
    fn batch(n: usize) -> CotBatch {
        let delta = Block::from(0x0123_4567_89ab_cdefu128 | 1);
        let y: Vec<Block> = (0..n)
            .map(|i| Block::from(i as u128 * 0x9e37 + 5))
            .collect();
        let x: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let z = y
            .iter()
            .zip(&x)
            .map(|(&y, &x)| y ^ delta.and_bit(x))
            .collect();
        CotBatch { delta, z, x, y }
    }

    /// One step of a scripted server: a request the client must send
    /// next, or a frame payload to push.
    enum Step {
        Expect(Request),
        Send(Vec<u8>),
    }

    fn send(resp: Response) -> Step {
        Step::Send(resp.encode())
    }

    /// A `DrainHandoff` push, encoded by hand: opcode `0x8D`, `u64 id`,
    /// then the length-prefixed `addr` and `name`.
    fn handoff() -> Step {
        let mut frame = vec![0x8D];
        frame.extend_from_slice(&7u64.to_le_bytes());
        for field in ["127.0.0.1:9", "successor"] {
            frame.extend_from_slice(&(field.len() as u64).to_le_bytes());
            frame.extend_from_slice(field.as_bytes());
        }
        Step::Send(frame)
    }

    /// A server that accepts one session, handshakes, answers its
    /// `Hello`, then plays `script` and closes. The script must expect
    /// every request the client sends, so the close never races one.
    fn scripted_peer(script: Vec<Step>) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut ch = TcpTransport::accept(&listener).unwrap();
            let hello = Request::decode(&ch.recv_bytes().unwrap()).unwrap();
            assert!(matches!(hello, Request::Hello { .. }), "got {hello:?}");
            let welcome = Response::Welcome {
                version: VERSION,
                max_request: 1024,
                epoch: 0,
            };
            let mut steps = vec![send(welcome)];
            steps.extend(script);
            for step in steps {
                match step {
                    Step::Expect(want) => {
                        assert_eq!(Request::decode(&ch.recv_bytes().unwrap()).unwrap(), want);
                    }
                    Step::Send(payload) => {
                        ch.send_bytes(payload).unwrap();
                        ch.flush().unwrap();
                    }
                }
            }
        });
        (addr, peer)
    }

    #[test]
    fn mid_stream_handoff_is_recorded_and_the_next_chunk_arrives() {
        let (addr, peer) = scripted_peer(vec![
            Step::Expect(Request::Subscribe {
                batch: 4,
                credits: 2,
            }),
            send(Response::CotChunk {
                seq: 0,
                batch: batch(4),
            }),
            handoff(),
            send(Response::CotChunk {
                seq: 1,
                batch: batch(4),
            }),
            Step::Expect(Request::Unsubscribe),
            send(Response::StreamEnd { chunks: 2, cots: 8 }),
        ]);
        let mut client = CotClient::connect(addr, "scripted").unwrap();
        let mut out = CotBatch::default();
        let mut sub = client.subscribe(4, 2).unwrap();
        assert!(sub.next_chunk_into(&mut out).unwrap());
        assert!(sub.handoff().is_none());
        assert!(sub.next_chunk_into(&mut out).unwrap());
        out.verify().unwrap();
        let expected = (7, "127.0.0.1:9".to_string(), "successor".to_string());
        assert_eq!(sub.handoff(), Some(&expected));
        assert!(!sub.next_chunk_into(&mut out).unwrap());
        let summary = sub.finish().unwrap();
        assert_eq!(summary, StreamSummary { chunks: 2, cots: 8 });
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn handoff_racing_the_unsubscribe_is_consumed() {
        let (addr, peer) = scripted_peer(vec![
            Step::Expect(Request::Subscribe {
                batch: 4,
                credits: 3,
            }),
            send(Response::CotChunk {
                seq: 0,
                batch: batch(4),
            }),
            Step::Expect(Request::Unsubscribe),
            send(Response::CotChunk {
                seq: 1,
                batch: batch(4),
            }),
            handoff(),
            send(Response::StreamEnd { chunks: 2, cots: 8 }),
            Step::Expect(Request::RequestCot { n: 5 }),
            send(Response::Cots(batch(5))),
        ]);
        let mut client = CotClient::connect(addr, "scripted").unwrap();
        let mut out = CotBatch::default();
        let mut sub = client.subscribe(4, 3).unwrap();
        assert!(sub.next_chunk_into(&mut out).unwrap());
        let summary = sub.finish().unwrap();
        assert_eq!(summary, StreamSummary { chunks: 2, cots: 8 });
        // The drain left the session in lockstep for one-shot requests.
        client.request_cots_into(5, &mut out).unwrap();
        assert_eq!(out.len(), 5);
        out.verify().unwrap();
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn one_shot_cots_inside_a_subscription_is_invalid_data() {
        let (addr, peer) = scripted_peer(vec![
            Step::Expect(Request::Subscribe {
                batch: 4,
                credits: 1,
            }),
            send(Response::Cots(batch(4))),
            // Dropping the failed subscription still unsubscribes.
            Step::Expect(Request::Unsubscribe),
        ]);
        let mut client = CotClient::connect(addr, "scripted").unwrap();
        let mut out = CotBatch::default();
        let mut sub = client.subscribe(4, 1).unwrap();
        match sub.next_chunk_into(&mut out) {
            Err(ChannelError::Io(e)) => assert_eq!(e.kind(), ErrorKind::InvalidData),
            other => panic!("expected InvalidData, got {other:?}"),
        }
        drop(sub);
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn fenced_subscribe_is_wrong_epoch_and_the_session_still_serves() {
        let (addr, peer) = scripted_peer(vec![
            Step::Expect(Request::Subscribe {
                batch: 4,
                credits: 2,
            }),
            send(Response::WrongEpoch { epoch: 9 }),
            Step::Expect(Request::RequestCot { n: 6 }),
            send(Response::Cots(batch(6))),
        ]);
        let mut client = CotClient::connect(addr, "scripted").unwrap();
        let mut out = CotBatch::default();
        let mut sub = client.subscribe(4, 2).unwrap();
        assert!(matches!(
            sub.next_chunk_into(&mut out),
            Err(ChannelError::WrongEpoch { current: 9 })
        ));
        // The fence ended the stream: dropping it sends no Unsubscribe.
        drop(sub);
        client.request_cots_into(6, &mut out).unwrap();
        assert_eq!(out.len(), 6);
        out.verify().unwrap();
        drop(client);
        peer.join().unwrap();
    }
}
