//! End-to-end: FERRET COT extension over a real TCP loopback socket, and
//! the multi-client COT service.
//!
//! This is the serving on-ramp the ROADMAP's "millions of users" north
//! star needs: the same protocol bytes that cross `LocalChannel` in-process
//! cross a kernel socket here, with identical payload accounting.

use ironman_net::frame::{FRAME_HEADER_LEN, HANDSHAKE_LEN};
use ironman_net::{tcp_loopback_pair, CotClient, CotService, CotServiceConfig, TcpTransport};
use ironman_ot::channel::Transport;
use ironman_ot::ferret::{run_extensions, run_extensions_over, FerretConfig};
use ironman_ot::params::FerretParams;
use ironman_ot::CotBatch;

fn toy_cfg() -> FerretConfig {
    FerretConfig::new(FerretParams::toy())
}

/// One full FERRET extension across a kernel TCP socket produces exactly
/// the outputs of the in-process run, and the transport's payload
/// accounting matches `LocalChannel` to the byte (the wire adds only the
/// 4-byte frame header per message plus the 6-byte handshake).
#[test]
fn ferret_over_tcp_matches_local_channel() {
    let cfg = toy_cfg();
    let seed = 0xA11CE;

    let local = run_extensions(&cfg, seed, 2);
    let (sender_ch, receiver_ch) = tcp_loopback_pair().expect("loopback pair");
    let tcp = run_extensions_over(&cfg, seed, 2, sender_ch, receiver_ch);

    assert_eq!(local.len(), tcp.len());
    for (l, t) in local.iter().zip(&tcp) {
        t.cots.verify().unwrap();
        // Determinism: the socket changes nothing about the protocol.
        assert_eq!(l.cots, t.cots);
        // Byte accounting: payload-identical in both directions, and the
        // message/round structure is the same.
        assert_eq!(l.sender_stats.bytes_sent, t.sender_stats.bytes_sent);
        assert_eq!(l.sender_stats.bytes_received, t.sender_stats.bytes_received);
        assert_eq!(l.sender_stats.messages_sent, t.sender_stats.messages_sent);
        assert_eq!(l.receiver_stats.bytes_sent, t.receiver_stats.bytes_sent);
        assert_eq!(
            l.receiver_stats.messages_sent,
            t.receiver_stats.messages_sent
        );
        assert_eq!(l.sender_stats.rounds, t.sender_stats.rounds);
        assert_eq!(l.receiver_stats.rounds, t.receiver_stats.rounds);
    }
}

/// The wire cost above the payload is exactly known: header bytes per
/// message plus the handshake, nothing hidden.
#[test]
fn tcp_wire_overhead_is_exactly_frame_headers() {
    let (mut a, mut b) = tcp_loopback_pair().expect("loopback pair");
    let payloads: &[usize] = &[1, 16, 1000, 0, 37];
    let echo = std::thread::spawn(move || {
        for _ in payloads {
            let bytes = b.recv_bytes().unwrap();
            b.send_bytes(bytes).unwrap();
        }
        (b.stats(), b.wire_bytes_sent())
    });
    for &len in payloads {
        a.send_bytes(vec![0xAB; len]).unwrap();
        assert_eq!(a.recv_bytes().unwrap().len(), len);
    }
    let payload_total: u64 = payloads.iter().map(|&l| l as u64).sum();
    let expected_wire =
        payload_total + (payloads.len() * FRAME_HEADER_LEN) as u64 + HANDSHAKE_LEN as u64;
    assert_eq!(a.stats().bytes_sent, payload_total);
    assert_eq!(a.wire_bytes_sent(), expected_wire);
    let (b_stats, b_wire) = echo.join().unwrap();
    assert_eq!(b_stats.bytes_received, payload_total);
    assert_eq!(b_wire, expected_wire);
}

/// The serving substrate end to end: one server (sharded pool, FERRET
/// replenishment on demand) and 6 concurrent client sessions over real TCP
/// loopback sockets, every returned batch verified.
#[test]
fn cot_service_serves_concurrent_clients() {
    const CLIENTS: usize = 6;
    const REQUESTS_PER_CLIENT: usize = 4;
    const BATCH: usize = 300;

    let service = CotService::serve(
        "127.0.0.1:0",
        &toy_cfg(),
        CotServiceConfig {
            shards: 3,
            seed: 0xBEEF,
            ..CotServiceConfig::default()
        },
    )
    .expect("bind loopback service");
    let addr = service.addr();

    let client_threads: Vec<_> = (0..CLIENTS)
        .map(|id| {
            std::thread::spawn(move || -> Vec<CotBatch> {
                let mut client =
                    CotClient::connect(addr, &format!("e2e-client-{id}")).expect("connect");
                (0..REQUESTS_PER_CLIENT)
                    .map(|_| {
                        let mut batch = CotBatch::default();
                        client
                            .request_cots_into(BATCH, &mut batch)
                            .expect("request");
                        batch
                    })
                    .collect()
            })
        })
        .collect();

    let mut total = 0usize;
    for t in client_threads {
        for batch in t.join().expect("client thread") {
            assert_eq!(batch.len(), BATCH);
            batch.verify().unwrap();
            total += batch.len();
        }
    }
    assert_eq!(total, CLIENTS * REQUESTS_PER_CLIENT * BATCH);

    let stats = service.shutdown();
    assert_eq!(stats.cots_served, total as u64);
    assert_eq!(stats.clients_served, CLIENTS as u64);
    assert!(stats.extensions_run >= 1);
}

/// A client session can also ride the raw transport: protocol code written
/// against `Transport` cannot tell a service socket from a local pair.
#[test]
fn iknp_runs_unmodified_over_tcp() {
    use ironman_ot::dealer::Dealer;
    use ironman_ot::iknp::{iknp_recv, iknp_send, setup_base};

    let mut dealer = Dealer::new(99);
    let delta = dealer.random_delta();
    let (seeds, pairs) = setup_base(&mut dealer, delta);
    let n = 256;
    let choice: Vec<bool> = (0..n).map(|j| j % 3 == 0).collect();

    let (sender_ch, receiver_ch) = tcp_loopback_pair().expect("loopback pair");
    let (s_out, r_out, _, _) = ironman_ot::channel::run_protocol_over(
        sender_ch,
        receiver_ch,
        move |ch: &mut TcpTransport| iknp_send(ch, delta, &seeds, n).unwrap(),
        move |ch: &mut TcpTransport| iknp_recv(ch, &pairs, &choice).unwrap(),
    );
    for j in 0..n {
        let expect = r_out.rb()[j] ^ delta.and_bit(r_out.bits()[j]);
        assert_eq!(s_out.r0()[j], expect);
    }
}
