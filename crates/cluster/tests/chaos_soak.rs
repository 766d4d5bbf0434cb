//! Seeded chaos soak: the v8 fault-tolerance invariants proven
//! end-to-end against a live loopback fleet under a scripted
//! [`ChaosSchedule`] — injected stalls, connection resets, corrupt
//! frames, a fleet-wide supply starvation, and a heal.
//!
//! Invariants under test:
//!
//! 1. **Consume-once accounting** — every streaming call either
//!    delivers exactly what it promised or fails typed with its partial
//!    progress visible; the consumer never sees a correlation twice.
//! 2. **Bounded blocking** — with the whole fleet blackholed, a client
//!    call fails typed within its deadlines plus one backoff step, and
//!    the fleet recovers promptly after heal.
//! 3. **Graceful degradation** — a starved fleet declines with
//!    `Unavailable { retry_after_ms }` hints (honored by the client),
//!    the supply SLO fires during the outage and resolves after heal.
//! 4. **Slow-consumer guard** — a stuck subscriber is evicted within
//!    the push write deadline without disturbing a healthy stream on
//!    the same server.
//!
//! Run by `scripts/ci.sh`; `CHAOS_SOAK_SECS` stretches the scripted
//! soak (default 2 s — the CI quick mode).

mod common;

use common::converged_fleet;
use ironman_cluster::{
    AlertState, BurnWindows, ChaosAction, ChaosSchedule, ClusterClient, ClusterServerConfig,
    FleetObserverConfig, SloKind, SloSpec, WarmupConfig,
};
use ironman_net::{CotServiceConfig, FaultPlan, OpTimeouts, Request, RetryPolicy, TcpTransport};
use ironman_ot::channel::{ChannelError, Transport};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn warm_cfg(seed: u64) -> ClusterServerConfig {
    ClusterServerConfig {
        service: CotServiceConfig {
            shards: 2,
            seed,
            ..CotServiceConfig::default()
        },
        warmup: Some(WarmupConfig::default()),
    }
}

/// The scripted soak length: `CHAOS_SOAK_SECS` (clamped to [1, 600]),
/// defaulting to the 2 s CI quick mode.
fn soak_duration() -> Duration {
    let secs = std::env::var("CHAOS_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2.0);
    Duration::from_secs_f64(secs.clamp(1.0, 600.0))
}

/// Invariant 1: exact consume-once accounting through the full chaos
/// script — stalls past the read deadline, resets at a byte budget,
/// bit-flipped frames, a rolling fleet-wide starvation, then heal.
#[test]
fn seeded_chaos_soak_keeps_consume_once_accounting() {
    let mut cluster = converged_fleet(3, &warm_cfg(0xC405));
    let ids = cluster.server_ids();
    let (a, b, c) = (ids[0], ids[1], ids[2]);
    let t = soak_duration();
    let frac = |x: f64| t.mul_f64(x);

    // Stalls longer than the client's 500 ms read deadline surface as
    // typed timeouts; resets as IO errors; bit flips as malformed
    // frames. All three are connectivity-class: fail over, not hang.
    // Every plan also carries a benign 1 ms read latency so that ANY
    // traffic on a faulted server counts an injection — the client's
    // consistent-hash home is seed-dependent, and the no-op check below
    // must not hinge on which server it lands on.
    let jitter = Duration::from_millis(1);
    let stall_plan = FaultPlan {
        read_latency: jitter,
        stall_probability: 0.05,
        stall: Duration::from_millis(700),
        ..FaultPlan::default()
    };
    let reset_plan = FaultPlan {
        read_latency: jitter,
        reset_after_bytes: Some(96 * 1024),
        ..FaultPlan::default()
    };
    let flip_plan = FaultPlan {
        read_latency: jitter,
        flip_probability: 0.0005,
        ..FaultPlan::default()
    };
    let mut schedule = ChaosSchedule::new()
        .at(frac(0.10), ChaosAction::Faults(a, stall_plan))
        .at(frac(0.20), ChaosAction::Faults(b, reset_plan))
        .at(frac(0.40), ChaosAction::HealAll)
        .at(frac(0.50), ChaosAction::Faults(c, flip_plan))
        // Rolling starvation: briefly the whole fleet declines with
        // retry hints, which the client must honor (cooldown, failover,
        // at most one budgeted backoff per call).
        .at(frac(0.60), ChaosAction::Starve(a, frac(0.15)))
        .at(frac(0.62), ChaosAction::Starve(b, frac(0.12)))
        .at(frac(0.64), ChaosAction::Starve(c, frac(0.10)))
        .at(frac(0.85), ChaosAction::HealAll);

    let mut client = ClusterClient::connect(cluster.directory(), "chaos-soak").expect("connect");
    client.set_op_timeouts(OpTimeouts::uniform(Duration::from_millis(500)));
    client.set_failover_cooldown(Duration::from_millis(50));
    client.set_retry_policy(RetryPolicy::new(
        Duration::from_millis(10),
        Duration::from_millis(250),
        0xC405,
    ));

    let mut ok_calls = 0u64;
    let mut failed_calls = 0u64;
    let hard_stop = Instant::now() + t + Duration::from_secs(120);
    // Runs to the end of the script AND at least ten clean calls: under
    // heavy CPU contention the wall-clock script can elapse within a
    // handful of slow calls, and the post-heal tail must still prove
    // the fleet serves. The hard stop above bounds a genuine wedge.
    while !schedule.is_done() || schedule.elapsed() < t || ok_calls < 10 {
        schedule.step(&mut cluster);
        let want = 240u64;
        let mut delta = 0u64;
        let started = Instant::now();
        let outcome = client.stream_cots(want, 40, |chunk| delta += chunk.len() as u64);
        let spent = started.elapsed();
        assert!(
            spent < Duration::from_secs(30),
            "a chaos-era call must stay bounded, took {spent:?}"
        );
        match outcome {
            Ok(summary) => {
                // Nothing lost: the callback saw exactly the promised
                // total, and the summary agrees.
                assert_eq!(summary.cots, want, "stream accounting drifted");
                assert_eq!(delta, want, "consume-once: callback total");
                ok_calls += 1;
            }
            Err(e) => {
                // Nothing duplicated: a failed call's partial progress
                // never exceeds what was asked for.
                assert!(delta <= want, "duplicated correlations under {e}");
                failed_calls += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        assert!(
            Instant::now() < hard_stop,
            "soak wedged (ok={ok_calls} failed={failed_calls})"
        );
    }

    assert!(
        ok_calls >= 10,
        "the fleet must keep serving through chaos (ok={ok_calls}, failed={failed_calls})"
    );

    // Chaos plumbing end-to-end, decoupled from script timing: under
    // CPU contention a short script's arm/heal offsets can collapse
    // into one `step()` batch with no traffic in between, so counter
    // checks must not hinge on the scripted windows. Arm a benign
    // latency fault fleet-wide, serve through it — every read on every
    // server now counts an injection.
    for id in cluster.server_ids() {
        assert!(cluster.inject_faults(
            id,
            FaultPlan {
                read_latency: jitter,
                ..FaultPlan::default()
            }
        ));
    }
    let mut tail = 0u64;
    client
        .stream_cots(40, 40, |chunk| tail += chunk.len() as u64)
        .expect("latency-only faults must not break serving");
    assert_eq!(tail, 40);
    // A server thread already parked in a read when the plan armed
    // completes that read un-gated, so one exchange can legitimately
    // count zero injections — keep serving until the counter moves.
    let faults_by = Instant::now() + Duration::from_secs(20);
    loop {
        let faults: u64 = cluster
            .server_ids()
            .iter()
            .map(|&id| cluster.server(id).expect("live").stats().faults_injected)
            .sum();
        if faults > 0 {
            break;
        }
        assert!(
            Instant::now() < faults_by,
            "no faults fired — the injection gate is dead"
        );
        client
            .request_cots_with(8, |_| {})
            .expect("latency-only faults must not break serving");
    }

    // And the degradation path: starve the whole fleet, watch the
    // typed decline arrive and get honored (counted, hinted cooldown).
    for id in cluster.server_ids() {
        assert!(cluster.starve_server(id, Duration::from_secs(600)));
    }
    let _ = client.request_cots_with(8, |_| {});
    let unavailable: u64 = cluster
        .server_ids()
        .iter()
        .map(|&id| cluster.server(id).expect("live").stats().unavailable_sent)
        .sum();
    assert!(
        unavailable > 0 && client.unavailable_seen() > 0,
        "starvation declines were sent ({unavailable}) and honored ({})",
        client.unavailable_seen()
    );
    cluster.heal_all();
    cluster.shutdown();
}

/// Invariant 2: with every server blackholed, a client call fails
/// *typed* within its deadlines plus one backoff step — and after heal
/// the fleet serves again promptly.
#[test]
fn blackholed_fleet_fails_typed_within_deadline_and_recovers() {
    let cluster = converged_fleet(2, &warm_cfg(0xB1AC));
    let mut client =
        ClusterClient::connect(cluster.directory(), "blackhole-probe").expect("connect");
    client.set_op_timeouts(OpTimeouts::uniform(Duration::from_millis(300)));
    client.set_failover_cooldown(Duration::from_millis(50));
    client.set_retry_policy(RetryPolicy::new(
        Duration::from_millis(10),
        Duration::from_millis(200),
        7,
    ));
    client
        .request_cots_with(16, |_| {})
        .expect("healthy fleet serves");

    for id in cluster.server_ids() {
        assert!(cluster.inject_faults(
            id,
            FaultPlan {
                blackhole: true,
                ..FaultPlan::default()
            }
        ));
    }
    // A server thread already blocked in a read when the plan arms
    // completes that read clean, so the first exchange after arming may
    // still serve; loop until the blackhole bites.
    let mut first_err = None;
    for _ in 0..50 {
        let started = Instant::now();
        match client.request_cots_with(16, |_| {}) {
            Ok(_) => continue,
            Err(e) => {
                let spent = started.elapsed();
                // Worst case: 2 servers x (read deadline, then redial:
                // connect + handshake read) x 2 sweeps + one capped
                // backoff — all 300 ms units, well under 6 s.
                assert!(
                    spent < Duration::from_secs(6),
                    "call blocked past deadline + one backoff: {spent:?}"
                );
                first_err = Some(e);
                break;
            }
        }
    }
    let e = first_err.expect("a blackholed fleet must fail");
    assert!(
        matches!(
            e,
            ChannelError::TimedOut | ChannelError::Io(_) | ChannelError::Disconnected
        ),
        "blackhole must surface typed, got {e}"
    );
    assert!(client.timeouts_seen() > 0, "deadline expiries are counted");
    assert!(
        client.retries_spent() >= 1,
        "one budgeted backoff sweep was spent"
    );
    assert!(
        client.retry_backoff().count() >= 1,
        "the backoff sleep was recorded"
    );

    cluster.heal_all();
    client.heal();
    let recovered_by = Instant::now() + Duration::from_secs(30);
    loop {
        if client.request_cots_with(16, |_| {}).is_ok() {
            break;
        }
        assert!(
            Instant::now() < recovered_by,
            "fleet never recovered after heal"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown();
}

/// Invariant 3: a fleet-wide *starvation* outage (servers alive but
/// declining with `Unavailable` hints) burns the supply SLO into
/// `Firing`, and it resolves after the heal — the injected-outage
/// variant of the kill-based SLO e2e.
#[test]
fn supply_slo_fires_during_starvation_and_resolves_after_heal() {
    let mut cluster = converged_fleet(2, &warm_cfg(0x510B));
    cluster.enable_observer(FleetObserverConfig {
        interval: Duration::from_millis(20),
        slos: vec![SloSpec::new(
            "supply-floor",
            SloKind::SupplyRate {
                min_cots_per_sec: 1000.0,
            },
        )
        .with_windows(BurnWindows {
            fast: Duration::from_secs(1),
            slow: Duration::from_secs(3),
            clear_for: Duration::from_secs(1),
        })],
        ..FleetObserverConfig::default()
    });
    let handle = cluster.observer_handle().expect("observer running");

    // Outage-tolerant load: keeps pools draining so supply is
    // demand-driven, and rides the starvation on typed declines. It
    // raises `declined` on its first `Unavailable`.
    let stop = Arc::new(AtomicBool::new(false));
    let declined = Arc::new(AtomicBool::new(false));
    let worker = {
        let directory = cluster.directory();
        let (stop, declined) = (Arc::clone(&stop), Arc::clone(&declined));
        std::thread::spawn(move || {
            let mut client = ClusterClient::connect(directory, "soak-load").expect("connect");
            client.set_failover_cooldown(Duration::from_millis(20));
            while !stop.load(Ordering::SeqCst) {
                if client.request_cots_with(300, |_| {}).is_err() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                if client.unavailable_seen() > 0 {
                    declined.store(true, Ordering::SeqCst);
                }
            }
        })
    };

    let state_of = |handle: &ironman_cluster::FleetHandle| {
        handle
            .alerts()
            .into_iter()
            .find(|a| a.slo == "supply-floor")
            .map(|a| a.state)
    };
    let await_state = |want: AlertState, deadline: Duration, why: &str| {
        let by = Instant::now() + deadline;
        while state_of(&handle) != Some(want) {
            assert!(
                Instant::now() < by,
                "{why}: stuck in {:?}, want {want:?}",
                state_of(&handle)
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    // Healthy first: the alert must evaluate and stay quiet under load.
    let healthy_by = Instant::now() + Duration::from_secs(30);
    while state_of(&handle) != Some(AlertState::Inactive) {
        assert!(
            Instant::now() < healthy_by,
            "supply alert never evaluated on the healthy fleet"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Injected outage: both servers decline serving (control ops — the
    // observer's Stats scrapes — still answer). Demand stops draining
    // pools, extensions stop, supply collapses, the alert fires.
    for id in cluster.server_ids() {
        assert!(cluster.starve_server(id, Duration::from_secs(600)));
    }
    await_state(
        AlertState::Firing,
        Duration::from_secs(30),
        "starvation outage",
    );
    // The alert reads only the extension rate, which collapses just as
    // well while the worker is between requests (descheduled, or asleep
    // in a backoff): heal only once the worker has been declined.
    let declined_by = Instant::now() + Duration::from_secs(30);
    while !declined.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < declined_by,
            "the load client never observed an Unavailable decline"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Heal: declines lift, load drains pools again, supply recovers,
    // and the alert resolves after the hysteresis window.
    cluster.heal_all();
    await_state(AlertState::Resolved, Duration::from_secs(60), "heal");

    stop.store(true, Ordering::SeqCst);
    worker.join().expect("load worker");
    let unavailable_sent: u64 = cluster
        .server_ids()
        .iter()
        .map(|&id| cluster.server(id).expect("live").stats().unavailable_sent)
        .sum();
    assert!(unavailable_sent > 0, "servers never declined while starved");
    cluster.shutdown();
}

/// Invariant 4: a stuck subscriber (huge credit grant, never reads) is
/// evicted within the push write deadline while a healthy stream on the
/// same server delivers its full total undisturbed.
#[test]
fn stuck_subscriber_eviction_leaves_healthy_streams_undisturbed() {
    let cluster = converged_fleet(1, &warm_cfg(0x5709));
    let id = cluster.server_ids()[0];
    let server = cluster.server(id).expect("live server");
    server
        .service()
        .set_subscriber_write_timeout(Duration::from_millis(150));

    // The stuck subscriber, over the raw wire: a huge up-front credit
    // grant keeps the server pushing until the socket buffers fill and
    // the write deadline evicts it. Never reads a byte.
    let max = server.pool().max_request() as u64;
    let stream = TcpStream::connect(server.addr()).expect("connect raw");
    let mut raw = TcpTransport::from_stream(stream).expect("handshake");
    raw.send_bytes(
        Request::Subscribe {
            batch: max,
            credits: 10_000,
        }
        .encode(),
    )
    .expect("send subscribe");
    raw.flush().expect("flush subscribe");

    // A healthy stream on the same server, concurrent with the stuck
    // one, must deliver exactly its total.
    let mut client = ClusterClient::connect(cluster.directory(), "healthy-peer").expect("connect");
    let mut consumed = 0u64;
    let summary = client
        .stream_cots(500, 50, |chunk| consumed += chunk.len() as u64)
        .expect("healthy stream rides out the eviction");
    assert_eq!(summary.cots, 500);
    assert_eq!(consumed, 500, "healthy stream disturbed");

    let by = Instant::now() + Duration::from_secs(30);
    while server.stats().subscribers_evicted == 0 {
        assert!(
            Instant::now() < by,
            "stuck subscriber never evicted past the write deadline"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = server.stats();
    assert_eq!(
        stats.subscribers_evicted, 1,
        "exactly the stuck subscriber was evicted"
    );
    // Keep the raw handle alive until after the eviction was observed,
    // so the close is the server's doing, not ours.
    drop(raw);
    cluster.shutdown();
}
