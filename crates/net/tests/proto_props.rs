//! Property-based round-trips for the COT service protocol (proptest):
//! every `Request`/`Response` message — including the v2 streaming
//! `Subscribe`/`Credit`/`Unsubscribe` and `CotChunk`/`StreamEnd` — must
//! survive encode/decode bit-exactly, and the decoders must never panic
//! on arbitrary input — including input mangled by the seeded fault
//! injector (v8): bit flips, truncating resets, and partial writes
//! driven through `FaultyStream` must surface as typed errors (or a
//! clean round-trip when the corruption missed), never a panic. The
//! client's one-copy socket reader (`recv_response_into`) is held to the
//! byte-slice decoder on the same bytes, and the bit codec to a per-bit
//! reference.

use ironman_net::frame::{encode_frame, read_frame_into, write_frame, FRAME_HEADER_LEN};
use ironman_net::proto::{
    self, DirectoryDelta, HotResponse, LatencyStats, MemberRecord, MemberWireState, Request,
    Response, ServiceStats, ShardStat,
};
use ironman_net::{FaultInjector, FaultPlan, StreamTransport, MAGIC, VERSION};
use ironman_ot::channel::{decode_bits_into, encode_bits_into, ChannelError, Transport};
use ironman_ot::CotBatch;
use ironman_prg::Block;
use ironman_telemetry::{EventKind, Histogram, TraceEvent};
use proptest::prelude::*;
use std::io::{Cursor, Read, Sink};

/// The server side of a client transport, scripted: its handshake, then
/// `bytes`. With `max_read > 0` every read hands out between 1 and
/// `max_read` bytes (sizes from a seeded xorshift), the way a socket
/// splits a frame; with 0 a read takes all it asks for.
struct ScriptedPeer {
    bytes: Vec<u8>,
    pos: usize,
    rng: u64,
    max_read: usize,
}

impl Read for ScriptedPeer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut n = buf.len().min(self.bytes.len() - self.pos);
        if self.max_read > 0 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            n = n.min(1 + (self.rng % self.max_read as u64) as usize);
        }
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A handshaken client transport whose peer sends `frames` (already
/// framed), then EOF.
fn client_reading(
    frames: &[u8],
    seed: u64,
    max_read: usize,
) -> StreamTransport<ScriptedPeer, Sink> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(frames);
    let peer = ScriptedPeer {
        bytes,
        pos: 0,
        rng: seed | 1,
        max_read,
    };
    StreamTransport::from_split(peer, std::io::sink()).unwrap()
}

/// A comparable rendering of one receive: the value (with the batch it
/// filled, for the hot cases) or the error. `batch` is only meaningful on
/// a hot success, so it is left out everywhere else.
fn outcome(result: Result<HotResponse, ChannelError>, batch: &CotBatch) -> String {
    match result {
        Ok(HotResponse::Cots) => format!("Cots {batch:?}"),
        Ok(HotResponse::CotChunk { seq }) => format!("CotChunk {seq} {batch:?}"),
        Ok(HotResponse::Other(resp)) => format!("{resp:?}"),
        Err(e) => format!("error {e:?}"),
    }
}

/// What the byte-slice decoder makes of `payload`, into a batch as dirty
/// as the reader's.
fn decoded(payload: &[u8], prior: usize) -> String {
    let mut batch = dirty_batch(prior);
    let result = proto::decode_response_into(payload, &mut batch);
    outcome(result, &batch)
}

/// A caller-retained batch left over from a previous `prior`-COT
/// payload.
fn dirty_batch(prior: usize) -> CotBatch {
    CotBatch {
        delta: Block::from(0xD1u128),
        z: vec![Block::from(2u128); prior],
        x: vec![true; prior],
        y: vec![Block::from(3u128); prior],
    }
}

/// The encoded payload of a `Cots` (or, `chunked`, a `CotChunk`) response
/// carrying the first `n` entries of the random columns.
fn batch_payload(
    chunked: bool,
    seq: u64,
    delta: u128,
    n: usize,
    z: &[u128],
    y: &[u128],
    x: &[bool],
) -> Vec<u8> {
    let batch = CotBatch {
        delta: Block::from(delta),
        z: z[..n].iter().copied().map(Block::from).collect(),
        x: x[..n].to_vec(),
        y: y[..n].iter().copied().map(Block::from).collect(),
    };
    let mut payload = Vec::new();
    if chunked {
        proto::encode_cot_chunk_into(&mut payload, seq, batch.as_slice());
    } else {
        proto::encode_cots_into(&mut payload, batch.as_slice());
    }
    payload
}

/// The pre-PR-25 per-bit packer, the reference for the bit codec.
fn reference_encode_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = (bits.len() as u64).to_le_bytes().to_vec();
    out.resize(8 + bits.len().div_ceil(8), 0);
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[8 + i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// A `LatencyStats` built by recording `words` (split four ways) into
/// real histograms — the only way snapshots are produced in production.
/// Under the telemetry `noop` feature this degenerates to four empty
/// snapshots, which still exercises the wire layout.
fn latency_from(words: &[u64]) -> LatencyStats {
    let fill = |vals: &[u64]| {
        let h = Histogram::new();
        for &v in vals {
            h.record(v);
        }
        h.snapshot()
    };
    let q = words.len() / 4;
    LatencyStats {
        request_first_byte: fill(&words[..q]),
        chunk_push: fill(&words[q..2 * q]),
        extension: fill(&words[2 * q..3 * q]),
        stall: fill(&words[3 * q..4 * q]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request variant round-trips, whatever its field values.
    #[test]
    fn requests_round_trip(
        variant in 0usize..9,
        a in any::<u64>(),
        b in any::<u64>(),
        name in proptest::collection::vec(any::<u8>(), 0..32),
        vector_seeds in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        // The vendored proptest has no tuple strategies; derive the
        // (origin, version) pairs from one seed vector instead.
        let vector: Vec<(u64, u64)> = vector_seeds
            .iter()
            .map(|&s| (s, s.rotate_left(31) ^ 0x9E37_79B9))
            .collect();
        let req = match variant {
            0 => Request::Hello {
                name: String::from_utf8_lossy(&name).into_owned(),
                epoch: b,
            },
            1 => Request::RequestCot { n: a },
            2 => Request::Stats,
            3 => Request::Shutdown,
            4 => Request::Subscribe { batch: a, credits: b },
            5 => Request::Credit { n: a },
            6 => Request::Trace { max_events: a },
            7 => Request::Gossip { from: a, vector },
            _ => Request::Unsubscribe,
        };
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    /// Batch-carrying responses (`Cots` and the streaming `CotChunk`)
    /// round-trip for arbitrary batch contents and sizes.
    #[test]
    fn cot_responses_round_trip(
        chunked in any::<bool>(),
        seq in any::<u64>(),
        delta in any::<u128>(),
        n in 0usize..40,
        z in proptest::collection::vec(any::<u128>(), 40..41),
        y in proptest::collection::vec(any::<u128>(), 40..41),
        x in proptest::collection::vec(any::<bool>(), 40..41),
    ) {
        let batch = CotBatch {
            delta: Block::from(delta),
            z: z[..n].iter().copied().map(Block::from).collect(),
            x: x[..n].to_vec(),
            y: y[..n].iter().copied().map(Block::from).collect(),
        };
        let resp = if chunked {
            Response::CotChunk { seq, batch }
        } else {
            Response::Cots(batch)
        };
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    /// The per-shard stats reply round-trips for any shard count
    /// (including zero shards) with arbitrary latency histograms (v6).
    #[test]
    fn stats_round_trip(
        fixed in proptest::collection::vec(any::<u64>(), 15..16),
        shard_words in proptest::collection::vec(any::<u64>(), 0..33),
        lat_words in proptest::collection::vec(any::<u64>(), 0..48),
    ) {
        let shard_stats: Vec<ShardStat> = shard_words
            .chunks_exact(6)
            .enumerate()
            .map(|(i, c)| ShardStat {
                available: c[0],
                extensions_run: c[1],
                taken: c[2],
                warm_refills: c[3],
                session_extensions: c[4],
                session_stalls: c[5],
                latency: latency_from(&lat_words[..lat_words.len() - (i % (lat_words.len().max(1)))]),
            })
            .collect();
        let resp = Response::Stats(Box::new(ServiceStats {
            clients_served: fixed[0],
            cots_served: fixed[1],
            extensions_run: fixed[2],
            available: fixed[3],
            shards: fixed[4],
            warmup_refills: fixed[5],
            scratch_reuses: fixed[6],
            scratch_allocs: fixed[7],
            register_failures: fixed[8],
            directory_epoch: fixed[9],
            pending_stream_cots: fixed[10],
            uptime_nanos: fixed[11],
            subscribers_evicted: fixed[12],
            unavailable_sent: fixed[13],
            faults_injected: fixed[14],
            latency: latency_from(&lat_words),
            shard_stats,
        }));
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    /// Trace dumps round-trip for arbitrary event sequences covering
    /// every event kind (v6).
    #[test]
    fn trace_dumps_round_trip(seeds in proptest::collection::vec(any::<u64>(), 0..64)) {
        let events: Vec<TraceEvent> = seeds
            .iter()
            .map(|&s| TraceEvent {
                at_nanos: s,
                kind: EventKind::ALL[(s % EventKind::ALL.len() as u64) as usize],
                arg: s.rotate_left(17),
            })
            .collect();
        let resp = Response::TraceDump(events);
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    /// The remaining fixed-shape responses round-trip.
    #[test]
    fn control_responses_round_trip(
        variant in 0usize..5,
        a in any::<u64>(),
        b in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let resp = match variant {
            0 => Response::Welcome {
                version: a as u16,
                max_request: b,
                epoch: a ^ b,
            },
            1 => Response::Goodbye,
            2 => Response::StreamEnd { chunks: a, cots: b },
            3 => Response::WrongEpoch { epoch: a },
            _ => Response::Error(String::from_utf8_lossy(&msg).into_owned()),
        };
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    /// Membership deltas round-trip for arbitrary member sets, states,
    /// stamps, weights, epoch vectors, and (possibly non-UTF-8 /
    /// non-address) payload strings.
    #[test]
    fn directory_updates_round_trip(
        epoch in any::<u64>(),
        seeds in proptest::collection::vec(any::<u64>(), 0..6),
        vector_seeds in proptest::collection::vec(any::<u64>(), 0..6),
        raw in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let vector: Vec<(u64, u64)> = vector_seeds
            .iter()
            .map(|&s| (s, s.rotate_left(31) ^ 0x9E37_79B9))
            .collect();
        let members: Vec<MemberRecord> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| MemberRecord {
                id: seed,
                state: match seed % 4 {
                    0 => MemberWireState::Up,
                    1 => MemberWireState::Draining,
                    2 => MemberWireState::Suspect,
                    _ => MemberWireState::Left,
                },
                weight: seed as u32,
                origin: seed.rotate_left(7),
                version: seed.rotate_right(13),
                addr: format!("10.0.0.{i}:{}", 7000 + (seed % 1000)),
                name: String::from_utf8_lossy(&raw).into_owned(),
            })
            .collect();
        let resp = Response::GossipDelta(DirectoryDelta { epoch, vector, members });
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    /// Arbitrary bytes never panic either decoder — they parse or they
    /// error, and hostile counts must not allocate past the payload.
    #[test]
    fn arbitrary_input_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// The zero-copy batch encoder is byte-identical to the original
    /// element-wise layout (reference re-implemented here) for arbitrary
    /// batches, and its output decodes back through the buffer-reusing
    /// hot path — with the scratch and batch buffers dirty from a
    /// previous, differently-sized message.
    #[test]
    fn bulk_batch_encoder_matches_reference_and_round_trips(
        chunked in any::<bool>(),
        seq in any::<u64>(),
        delta in any::<u128>(),
        n in 0usize..48,
        z in proptest::collection::vec(any::<u128>(), 48..49),
        y in proptest::collection::vec(any::<u128>(), 48..49),
        x in proptest::collection::vec(any::<bool>(), 48..49),
        prior in 0usize..48,
    ) {
        let batch = CotBatch {
            delta: Block::from(delta),
            z: z[..n].iter().copied().map(Block::from).collect(),
            x: x[..n].to_vec(),
            y: y[..n].iter().copied().map(Block::from).collect(),
        };
        // Reference: the pre-zero-copy element-wise encoder.
        let mut reference = Vec::new();
        if chunked {
            reference.push(0x85); // OP_COT_CHUNK
            reference.extend_from_slice(&seq.to_le_bytes());
        } else {
            reference.push(0x82); // OP_COTS
        }
        reference.extend_from_slice(&batch.delta.to_le_bytes());
        reference.extend_from_slice(&(batch.len() as u64).to_le_bytes());
        for b in &batch.z {
            reference.extend_from_slice(&b.to_le_bytes());
        }
        for b in &batch.y {
            reference.extend_from_slice(&b.to_le_bytes());
        }
        reference.extend_from_slice(&ironman_ot::channel::encode_bits(&batch.x));

        // Reuse shape: the scratch buffer arrives already sized by a
        // previous, differently-sized encode (the per-session retained
        // buffer's steady state) and the new encoding must come out
        // byte-identical to a fresh one.
        let mut scratch = Vec::new();
        proto::encode_cots_into(&mut scratch, batch.as_slice()); // prior use
        scratch.clear();
        if chunked {
            proto::encode_cot_chunk_into(&mut scratch, seq, batch.as_slice());
        } else {
            proto::encode_cots_into(&mut scratch, batch.as_slice());
        }
        prop_assert_eq!(&scratch, &reference);

        // Decode back through the buffer-reusing path, into a batch that
        // already holds a previous (differently sized) payload.
        let mut reused = CotBatch {
            delta: Block::from(1u128),
            z: vec![Block::from(2u128); prior],
            x: vec![true; prior],
            y: vec![Block::from(3u128); prior],
        };
        match proto::decode_response_into(&scratch, &mut reused).unwrap() {
            proto::HotResponse::Cots => prop_assert!(!chunked),
            proto::HotResponse::CotChunk { seq: got } => {
                prop_assert!(chunked);
                prop_assert_eq!(got, seq);
            }
            other => prop_assert!(false, "unexpected {other:?}"),
        }
        prop_assert_eq!(reused, batch);
    }

    /// A disarmed `FaultyStream` is transparent: framed messages written
    /// through the wrapper (even under a partial-write cap, which
    /// `write_all` must absorb) read back bit-exact and decode to the
    /// original message.
    #[test]
    fn fault_wrapper_disarmed_and_partial_writes_stay_bit_exact(
        seed in any::<u64>(),
        cap in 1usize..7,
        n in 1u64..1_000_000,
        name in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let req = Request::Hello {
            name: String::from_utf8_lossy(&name).into_owned(),
            epoch: n,
        };
        let injector = FaultInjector::new(seed);
        injector.set_plan(FaultPlan {
            partial_write_cap: Some(cap),
            ..FaultPlan::default()
        });
        let mut writer = injector.wrap(Vec::new());
        write_frame(&mut writer, &req.encode()).unwrap();
        write_frame(&mut writer, &Request::RequestCot { n }.encode()).unwrap();
        let written = writer.get_ref().clone();

        // Reads back through a *disarmed* wrapper: the fast path must
        // not perturb a single byte.
        injector.clear();
        let mut reader = injector.wrap(Cursor::new(written));
        let mut buf = Vec::new();
        read_frame_into(&mut reader, &mut buf).unwrap();
        prop_assert_eq!(Request::decode(&buf).unwrap(), req);
        read_frame_into(&mut reader, &mut buf).unwrap();
        prop_assert_eq!(Request::decode(&buf).unwrap(), Request::RequestCot { n });
    }

    /// Bit-flipped frames never panic the codec: reading a framed
    /// message through a `FaultyStream` that flips one bit per read
    /// either fails typed at the frame layer (a mangled length header)
    /// or hands the protocol decoder a corrupt payload it must survive.
    #[test]
    fn bit_flipped_frames_fail_typed_never_panic(
        seed in any::<u64>(),
        variant in 0usize..4,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let resp = match variant {
            0 => Response::Welcome { version: a as u16, max_request: b, epoch: a ^ b },
            1 => Response::StreamEnd { chunks: a, cots: b },
            2 => Response::WrongEpoch { epoch: a },
            _ => Response::Unavailable { retry_after_ms: a },
        };
        let framed = encode_frame(&resp.encode());
        let injector = FaultInjector::new(seed);
        injector.set_plan(FaultPlan {
            flip_probability: 1.0,
            ..FaultPlan::default()
        });
        let mut reader = injector.wrap(Cursor::new(framed));
        let mut buf = Vec::new();
        match read_frame_into(&mut reader, &mut buf) {
            // Flips landed in the payload (or cancelled out): the typed
            // decoder must parse or error, never panic or hang.
            Ok(()) => { let _ = Response::decode(&buf); }
            // A flipped length header surfaces at the frame layer as a
            // typed error (oversized claim or short read), not a panic
            // and not an unbounded allocation.
            Err(e) => { let _ = format!("{e}"); }
        }
        prop_assert!(injector.injected() > 0, "flip plan never fired");
    }

    /// A connection reset mid-frame (the fault injector's truncating
    /// reset) surfaces as a typed frame error — a short read never
    /// yields a partially-filled "successful" frame. The byte budget is
    /// enforced per I/O call, so the cut is placed within the header
    /// read: the payload read then finds the budget spent and resets.
    #[test]
    fn reset_mid_frame_is_a_typed_error(
        seed in any::<u64>(),
        cut in 1u64..5,
        n in 0u64..u32::MAX as u64,
    ) {
        let framed = encode_frame(&Request::RequestCot { n }.encode());
        let injector = FaultInjector::new(seed);
        injector.set_plan(FaultPlan {
            reset_after_bytes: Some(cut),
            ..FaultPlan::default()
        });
        let mut reader = injector.wrap(Cursor::new(framed));
        let mut buf = Vec::new();
        prop_assert!(
            read_frame_into(&mut reader, &mut buf).is_err(),
            "a frame cut at byte {} must not read back whole",
            cut
        );
    }

    /// The one-copy socket reader agrees with the byte-slice decoder on
    /// `Cots`/`CotChunk` frames of every size up to 300 COTs — read in
    /// 1–7-byte pieces or whole, into a batch dirty from a payload of
    /// another length — and a second frame right behind the first still
    /// decodes, with the transport's accounting exact.
    #[test]
    fn recv_response_into_matches_decode_response_into(
        chunked in any::<bool>(),
        seq in any::<u64>(),
        delta in any::<u128>(),
        n in 0usize..301,
        second in 0usize..301,
        z in proptest::collection::vec(any::<u128>(), 300..301),
        y in proptest::collection::vec(any::<u128>(), 300..301),
        x in proptest::collection::vec(any::<bool>(), 300..301),
        prior in 0usize..301,
        seed in any::<u64>(),
        short_reads in any::<bool>(),
    ) {
        let first = batch_payload(chunked, seq, delta, n, &z, &y, &x);
        let next = batch_payload(!chunked, seq ^ 1, !delta, second, &y, &z, &x);
        let mut frames = encode_frame(&first);
        frames.extend_from_slice(&encode_frame(&next));

        let mut ch = client_reading(&frames, seed, if short_reads { 7 } else { 0 });
        let (mut buf, mut batch) = (Vec::new(), dirty_batch(prior));
        for payload in [&first, &next] {
            let got = proto::recv_response_into(&mut ch, &mut buf, &mut batch);
            prop_assert_eq!(outcome(got, &batch), decoded(payload, prior));
        }
        let payload_bytes = (first.len() + next.len()) as u64;
        prop_assert_eq!(ch.stats().bytes_received, payload_bytes);
        prop_assert_eq!(
            ch.wire_bytes_received(),
            6 + 2 * FRAME_HEADER_LEN as u64 + payload_bytes
        );
    }

    /// A batch frame whose head disagrees with its frame length — a wrong
    /// `n`, trailing garbage, or bytes missing off the end — is read
    /// whole and fails exactly as the byte-slice decoder fails
    /// (`Malformed`), and the frame behind it still decodes.
    #[test]
    fn recv_response_into_rejects_miscounted_frames_like_decode(
        chunked in any::<bool>(),
        n in 1usize..64,
        z in proptest::collection::vec(any::<u128>(), 64..65),
        y in proptest::collection::vec(any::<u128>(), 64..65),
        x in proptest::collection::vec(any::<bool>(), 64..65),
        tweak in 0usize..4,
        amount in 1usize..40,
        seed in any::<u64>(),
        short_reads in any::<bool>(),
    ) {
        let mut bad = batch_payload(chunked, 5, 7, n, &z, &y, &x);
        let n_at = if chunked { 1 + 8 + 16 } else { 1 + 16 };
        match tweak {
            0 => bad[n_at..n_at + 8].copy_from_slice(&((n + amount) as u64).to_le_bytes()),
            1 => bad[n_at..n_at + 8].copy_from_slice(&u64::MAX.to_le_bytes()),
            2 => bad.extend(std::iter::repeat_n(0xA5, amount)),
            _ => bad.truncate(bad.len() - amount),
        }
        let good = batch_payload(chunked, 6, 8, n, &y, &z, &x);
        let mut frames = encode_frame(&bad);
        frames.extend_from_slice(&encode_frame(&good));

        let mut ch = client_reading(&frames, seed, if short_reads { 7 } else { 0 });
        let (mut buf, mut batch) = (Vec::new(), dirty_batch(n));
        let got = proto::recv_response_into(&mut ch, &mut buf, &mut batch);
        prop_assert!(matches!(got, Err(ChannelError::Malformed { .. })), "{:?}", got);
        prop_assert_eq!(outcome(got, &batch), decoded(&bad, n));
        let got = proto::recv_response_into(&mut ch, &mut buf, &mut batch);
        prop_assert_eq!(outcome(got, &batch), decoded(&good, n));
    }

    /// The peer hanging up anywhere inside a batch frame — its head, `z`,
    /// `y` or the bit tail — is `Disconnected`, never a short batch.
    #[test]
    fn recv_response_into_eof_mid_frame_is_disconnected(
        chunked in any::<bool>(),
        n in 1usize..64,
        z in proptest::collection::vec(any::<u128>(), 64..65),
        y in proptest::collection::vec(any::<u128>(), 64..65),
        x in proptest::collection::vec(any::<bool>(), 64..65),
        region in 0usize..4,
        at in any::<u64>(),
        seed in any::<u64>(),
        short_reads in any::<bool>(),
    ) {
        let payload = batch_payload(chunked, 1, 2, n, &z, &y, &x);
        let head = if chunked { 1 + 8 + 16 + 8 } else { 1 + 16 + 8 };
        let (start, len) = match region {
            0 => (0, head),
            1 => (head, 16 * n),
            2 => (head + 16 * n, 16 * n),
            _ => (head + 32 * n, payload.len() - head - 32 * n),
        };
        let mut frame = encode_frame(&payload);
        frame.truncate(FRAME_HEADER_LEN + start + (at % len as u64) as usize);

        let mut ch = client_reading(&frame, seed, if short_reads { 7 } else { 0 });
        let (mut buf, mut batch) = (Vec::new(), dirty_batch(n));
        let got = proto::recv_response_into(&mut ch, &mut buf, &mut batch);
        prop_assert!(matches!(got, Err(ChannelError::Disconnected)), "{:?}", got);
    }

    /// The branch-free bit codec is byte- and bit-identical to the
    /// per-bit reference for every length up to 130, appending after
    /// existing bytes and decoding into a dirty buffer of another length
    /// (with the last byte's unused high bits set, which both ignore).
    #[test]
    fn bit_codec_matches_per_bit_reference(
        len in 0usize..131,
        bits in proptest::collection::vec(any::<bool>(), 130..131),
        junk in any::<u8>(),
        prior in 0usize..131,
    ) {
        let bits = &bits[..len];
        let reference = reference_encode_bits(bits);
        let mut out = vec![junk; 3];
        encode_bits_into(bits, &mut out);
        prop_assert_eq!(&out[..3], &[junk; 3][..]);
        prop_assert_eq!(&out[3..], reference.as_slice());

        let mut padded = reference.clone();
        if len % 8 != 0 {
            *padded.last_mut().unwrap() |= junk << (len % 8);
        }
        let mut decoded = vec![true; prior];
        decode_bits_into(&padded, &mut decoded).unwrap();
        prop_assert_eq!(decoded.as_slice(), bits);
    }
}

/// An oversized length prefix on the client is rejected exactly as the
/// whole-frame reader rejects it, before allocating for it.
#[test]
fn recv_response_into_rejects_oversized_prefix() {
    let hostile = u32::MAX.to_le_bytes();
    let mut buf = Vec::new();
    let mut batch = CotBatch::default();
    let got = proto::recv_response_into(&mut client_reading(&hostile, 1, 0), &mut buf, &mut batch);
    let whole = client_reading(&hostile, 1, 0).recv_bytes_into(&mut buf);
    assert_eq!(
        format!("{got:?}"),
        format!("{:?}", whole.map(|()| HotResponse::Cots))
    );
    assert!(matches!(got, Err(ChannelError::Io(_))), "{got:?}");
    assert_eq!(buf.capacity(), 0, "no allocation for the hostile length");
}
