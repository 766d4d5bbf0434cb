//! Property-based round-trips for the COT service protocol (proptest):
//! every `Request`/`Response` message — including the v2 streaming
//! `Subscribe`/`Credit`/`Unsubscribe` and `CotChunk`/`StreamEnd` — must
//! survive encode/decode bit-exactly, and the decoders must never panic
//! on arbitrary input — including input mangled by the seeded fault
//! injector (v8): bit flips, truncating resets, and partial writes
//! driven through `FaultyStream` must surface as typed errors (or a
//! clean round-trip when the corruption missed), never a panic.

use ironman_core::CotBatch;
use ironman_net::frame::{encode_frame, read_frame_into, write_frame};
use ironman_net::proto::{
    self, DirectoryDelta, LatencyStats, MemberRecord, MemberWireState, Request, Response,
    ServiceStats, ShardStat,
};
use ironman_net::{FaultInjector, FaultPlan};
use ironman_prg::Block;
use ironman_telemetry::{EventKind, Histogram, TraceEvent};
use proptest::prelude::*;
use std::io::Cursor;

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
}
