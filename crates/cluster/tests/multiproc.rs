//! Multi-process replication survival (wire v9): real `fleet_server`
//! child processes — each carrying its own [`Directory`] replica,
//! converged by anti-entropy gossip — driven through a partition-capable
//! TCP proxy built on `ironman-net`'s [`FaultInjector`] blackhole
//! primitive.
//!
//! The churn test partitions one member (its advertised address is the
//! proxy; blackholing the proxy makes it SYN-accepting-but-silent to
//! the whole fleet), mutates membership on **both** sides of the cut —
//! the majority island admits a brand-new member and health-evicts the
//! unreachable victim; the victim island evicts a majority member — then
//! heals and requires every replica to converge to one per-origin epoch
//! vector and one membership, with the conflicting evictions resolved by
//! the deterministic merge rule plus gossip self-rejoin. A client
//! streams correlations throughout and must see zero errors and exact
//! consume-once accounting.
//!
//! The failover test runs in-process on the configuration that is
//! served — a replicated fleet of default (pipelined) services with no
//! refiller at all — and asserts that a crash-failover target serves
//! its first request from the look-ahead its sessions staged since
//! boot: fully, and without one supply stall.

use ironman_cluster::{
    ClusterClient, ClusterServerConfig, Directory, Gossiper, GossiperConfig, LocalCluster,
    ServerId, UNATTRIBUTED,
};
use ironman_net::{
    CotClient, FaultInjector, FaultPlan, MemberWireState, OpTimeouts, EPOCH_UNAWARE,
};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Convergence/propagation wait ceiling: `MULTIPROC_WAIT_SECS` (the CI
/// runtime bound — a wedged fleet fails within a few multiples of it),
/// default 30. Generous because CI containers stall; the waits exit as
/// soon as their condition holds, so the happy path never sees it.
fn wait() -> Duration {
    let secs = std::env::var("MULTIPROC_WAIT_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    Duration::from_secs(secs)
}

fn wait_until(what: &str, ok: impl FnMut() -> bool) {
    poll_every(Duration::from_millis(10), what, ok);
}

fn poll_every(pause: Duration, what: &str, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + wait();
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(pause);
    }
}

// ---------------------------------------------------------------------
// The partition-capable TCP proxy.
// ---------------------------------------------------------------------

/// A loopback TCP proxy whose pumps read through a shared
/// [`FaultInjector`]: arming `blackhole` makes the proxied server
/// SYN-accepting-but-silent (connects succeed, bytes vanish) — the
/// failure shape of a network partition, delivered to an unmodified
/// child process.
struct Proxy {
    addr: SocketAddr,
    injector: FaultInjector,
    upstream: Arc<Mutex<Option<SocketAddr>>>,
    stop: Arc<AtomicBool>,
}

impl Proxy {
    fn spawn() -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        listener.set_nonblocking(true).expect("nonblocking accept");
        let addr = listener.local_addr().expect("proxy addr");
        let injector = FaultInjector::new(0xB1AC_401E);
        let upstream: Arc<Mutex<Option<SocketAddr>>> = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        {
            let injector = injector.clone();
            let upstream = Arc::clone(&upstream);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    Ok((conn, _)) => {
                        let Some(up) = *upstream.lock().unwrap_or_else(|p| p.into_inner()) else {
                            continue; // upstream not wired yet: refuse by drop
                        };
                        let Ok(back) = TcpStream::connect(up) else {
                            continue;
                        };
                        let (c2, b2) = match (conn.try_clone(), back.try_clone()) {
                            (Ok(c), Ok(b)) => (c, b),
                            _ => continue,
                        };
                        let inj = injector.clone();
                        let s = Arc::clone(&stop);
                        std::thread::spawn(move || pump(conn, back, &inj, &s));
                        let inj = injector.clone();
                        let s = Arc::clone(&stop);
                        std::thread::spawn(move || pump(b2, c2, &inj, &s));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => return,
                }
            });
        }
        Proxy {
            addr,
            injector,
            upstream,
            stop,
        }
    }

    fn set_upstream(&self, addr: SocketAddr) {
        *self.upstream.lock().unwrap_or_else(|p| p.into_inner()) = Some(addr);
    }

    /// Drops the cut: every proxied byte stream goes silent (reads
    /// block, writes vanish) until [`Proxy::heal`]. Returns once the cut
    /// is complete: a pump already parked in `read()` when the plan arms
    /// finishes that one read un-gated (and would carry one more gossip
    /// exchange across), so wait out one pump read timeout, after which
    /// every pump's next read goes through the armed injector.
    fn partition(&self) {
        self.injector.set_plan(FaultPlan {
            blackhole: true,
            ..FaultPlan::default()
        });
        std::thread::sleep(PUMP_READ_TIMEOUT + Duration::from_millis(20));
    }

    /// Lifts the cut. Connections that lived through the blackhole are
    /// torn down (their frame state is garbage); fresh dials flow clean.
    fn heal(&self) {
        self.injector.clear();
    }

    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// How long a proxy pump sits in one socket read before it re-checks
/// `stop` — and so the longest a read can outlive [`Proxy::partition`].
const PUMP_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// One proxy direction: bytes from `src` (read through the injector) to
/// `dst`. Socket read timeouts keep the thread responsive to `stop`;
/// injected `TimedOut` (a blackhole hitting its cap, or healing
/// mid-read) closes the connection — the peers redial clean.
fn pump(src: TcpStream, mut dst: TcpStream, injector: &FaultInjector, stop: &AtomicBool) {
    let _ = src.set_read_timeout(Some(PUMP_READ_TIMEOUT));
    let mut faulty = injector.wrap(src);
    let mut buf = [0u8; 16 * 1024];
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match faulty.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if dst.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => break,
        }
    }
    let _ = faulty.get_ref().shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------------
// Child-process management.
// ---------------------------------------------------------------------

/// One `fleet_server` child process plus its stdin control channel.
struct FleetProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// The address the child actually bound (dial this to bypass any
    /// proxy it advertises).
    bound: SocketAddr,
}

impl FleetProc {
    fn spawn(id: u64, extra: &[&str]) -> FleetProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fleet_server"))
            .args(["--id", &id.to_string(), "--gossip-ms", "10", "--health"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn fleet_server");
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read LISTENING line");
        let bound = line
            .trim()
            .strip_prefix("LISTENING ")
            .expect("LISTENING prefix")
            .parse()
            .expect("bound address");
        FleetProc {
            child,
            stdin,
            stdout,
            bound,
        }
    }

    /// Sends one control line and asserts the child's acknowledgement.
    fn control(&mut self, cmd: &str, expect: &str) {
        writeln!(self.stdin, "{cmd}").expect("write control line");
        self.stdin.flush().expect("flush control line");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("read ack");
        assert_eq!(line.trim(), expect, "unexpected ack for {cmd:?}");
    }

    /// Graceful shutdown: close the control pipe, reap the child.
    fn stop(mut self) {
        drop(self.stdin);
        let _ = self.child.wait();
    }
}

/// A replica's per-origin epoch vector plus its live member ids.
type ReplicaView = (Vec<(u64, u64)>, BTreeSet<u64>);

/// One direct (proxy-bypassing) anti-entropy probe of a child's replica:
/// its per-origin epoch vector and live member ids.
fn probe_replica(bound: SocketAddr) -> Option<ReplicaView> {
    let timeouts = OpTimeouts::uniform(Duration::from_millis(500));
    let mut client = CotClient::connect_with(bound, "probe", EPOCH_UNAWARE, timeouts).ok()?;
    let delta = client.gossip(UNATTRIBUTED, Vec::new()).ok()?;
    let live: BTreeSet<u64> = delta
        .members
        .iter()
        .filter(|m| m.state != MemberWireState::Left)
        .map(|m| m.id)
        .collect();
    Some((delta.vector, live))
}

// ---------------------------------------------------------------------
// The partition/heal churn test.
// ---------------------------------------------------------------------

#[test]
fn multiprocess_fleet_survives_partition_and_heals_to_one_vector() {
    // The victim (id 2) advertises the proxy; everyone reaches it only
    // through the blackhole-capable path. Its own dials go out direct —
    // an asymmetric cut, the nastier shape for convergence because the
    // victim keeps merging the majority's writes while none of its own
    // escape.
    let proxy = Proxy::spawn();
    let mut a = FleetProc::spawn(0, &[]);
    let mut b = FleetProc::spawn(1, &[]);
    let proxy_addr = proxy.addr.to_string();
    let mut victim = FleetProc::spawn(2, &["--advertise", &proxy_addr]);
    proxy.set_upstream(victim.bound);
    // D's *process* starts now so its address can sit in everyone's
    // rendezvous list (pull-only gossip: a member is only discovered by
    // being pulled from, so the list must cover future joiners). It
    // stays a non-member — serving but never announcing — until its own
    // SEEDS line arrives mid-partition; pulls from it until then merge
    // an empty delta.
    let mut d = FleetProc::spawn(3, &[]);

    // Every member needs the full rendezvous list, and the parent only
    // has it once every child has bound — hence the stdin handshake
    // rather than spawn-time flags.
    let seeds = format!("{},{},{},{}", a.bound, b.bound, proxy.addr, d.bound);
    a.control(&format!("SEEDS {seeds}"), "READY");
    b.control(&format!("SEEDS {seeds}"), "READY");
    victim.control(&format!("SEEDS {seeds}"), "READY");

    for p in [&a, &b, &victim] {
        wait_until("initial 3-member convergence", || {
            probe_replica(p.bound).is_some_and(|(_, live)| live == BTreeSet::from([0, 1, 2]))
        });
    }

    // The test's own fleet view: an observer gossiper over the majority
    // seeds (never announces, so the fleet never sees a phantom member).
    let view = Arc::new(Directory::new());
    let observer = Gossiper::spawn(
        Arc::clone(&view),
        GossiperConfig {
            interval: Duration::from_millis(10),
            timeout: Duration::from_millis(300),
            seeds: vec![a.bound, b.bound],
            ..GossiperConfig::default()
        },
    );
    wait_until("observer view convergence", || view.snapshot().len() == 3);

    // Client load across the whole churn: streamed subscriptions with
    // exact consume-once accounting, failing over through the cut
    // without surfacing a single error.
    let consumed = Arc::new(AtomicU64::new(0));
    let requested = Arc::new(AtomicU64::new(0));
    let stop_load = Arc::new(AtomicBool::new(false));
    let load = {
        let view = Arc::clone(&view);
        let consumed = Arc::clone(&consumed);
        let requested = Arc::clone(&requested);
        let stop_load = Arc::clone(&stop_load);
        std::thread::spawn(move || -> Result<(), String> {
            let mut client = ClusterClient::connect(view, "churn-load")
                .map_err(|e| format!("connect: {e:?}"))?;
            client.set_op_timeouts(OpTimeouts::uniform(Duration::from_millis(300)));
            client.set_failover_cooldown(Duration::from_millis(150));
            while !stop_load.load(Ordering::SeqCst) {
                let total = 1024u64;
                let summary = client
                    .stream_cots(total, 128, |batch| {
                        consumed.fetch_add(batch.len() as u64, Ordering::SeqCst);
                    })
                    .map_err(|e| format!("stream_cots: {e:?}"))?;
                if summary.cots != total {
                    return Err(format!("short stream: {} of {total}", summary.cots));
                }
                requested.fetch_add(total, Ordering::SeqCst);
            }
            Ok(())
        })
    };
    // Let the load establish itself before the cut.
    wait_until("pre-partition progress", || {
        requested.load(Ordering::SeqCst) >= 2048
    });

    // ----- Partition. -----
    proxy.partition();

    // Majority-side mutation #1: a brand-new member joins the fleet
    // (D's process was up all along; only now does it announce).
    let majority_seeds = format!("{},{}", a.bound, b.bound);
    d.control(&format!("SEEDS {majority_seeds}"), "READY");

    // Minority-side mutation: the victim island evicts majority member 1
    // (from where it sits, B went silent too). Observe it applied right
    // away: the tombstone is an LWW record like any other, so a
    // concurrent majority-side restamp of member 1 (say a suspect/up
    // flap under load) may legitimately override it later through the
    // victim's still-working outbound pulls — the conflict rule, not a
    // bug — and post-heal convergence below is correct either way.
    victim.control("LEAVE 1", "OK");
    wait_until("victim island applied its own eviction of 1", || {
        probe_replica(victim.bound).is_some_and(|(_, live)| !live.contains(&1))
    });

    // Majority-side mutation #2 arrives on its own: the gossipers'
    // failed pulls strike the blackholed victim out, and the eviction is
    // issued by the lease holder (lowest live id) alone.
    wait_until("the joiner reaches the majority replicas", || {
        probe_replica(a.bound).is_some_and(|(_, live)| live.contains(&3))
    });
    wait_until("majority evicts the victim", || {
        probe_replica(a.bound).is_some_and(|(_, live)| !live.contains(&2))
    });

    // ----- Heal. -----
    proxy.heal();

    // Convergence: one epoch vector, one membership, on every replica —
    // the victim re-announced itself over its own tombstone, member 1
    // re-announced over the victim's, and the late joiner spread
    // everywhere.
    let bounds = [a.bound, b.bound, victim.bound, d.bound];
    wait_until("post-heal convergence to one vector", || {
        let mut probes = Vec::new();
        for bound in bounds {
            match probe_replica(bound) {
                Some(p) => probes.push(p),
                None => return false,
            }
        }
        let (v0, live0) = &probes[0];
        *live0 == BTreeSet::from([0, 1, 2, 3])
            && probes.iter().all(|(v, live)| v == v0 && live == live0)
    });

    // The load lived through the whole churn without a visible error and
    // the accounting is exact: every correlation requested was consumed
    // exactly once.
    wait_until("post-heal progress", || {
        requested.load(Ordering::SeqCst) >= 6144
    });
    stop_load.store(true, Ordering::SeqCst);
    load.join()
        .expect("load thread")
        .expect("churn load saw a client-visible error");
    assert_eq!(
        consumed.load(Ordering::SeqCst),
        requested.load(Ordering::SeqCst),
        "consume-once accounting broke across failovers"
    );

    observer.stop();
    proxy.stop();
    for p in [a, b, victim, d] {
        p.stop();
    }
}

// ---------------------------------------------------------------------
// Failover onto a target nobody warmed.
// ---------------------------------------------------------------------

fn session_stalls(cluster: &LocalCluster, id: ServerId) -> u64 {
    let pool = cluster.server(id).expect("target running").pool();
    pool.shard_stats().iter().map(|s| s.session_stalls).sum()
}

/// Supply is local to the shard: each pipelined session stages
/// extensions ahead of demand from boot, so the server a killed home's
/// sessions fail over to needs no refiller and no pre-warming to serve
/// its first request without waiting on an extension.
#[test]
fn failover_target_serves_first_request_from_staged_lookahead() {
    let mut cluster = LocalCluster::spawn_replicated(
        3,
        &FerretConfig::new(FerretParams::toy()),
        &ClusterServerConfig {
            warmup: None,
            ..ClusterServerConfig::default()
        },
        GossiperConfig {
            interval: Duration::from_millis(5),
            ..GossiperConfig::default()
        },
    )
    .expect("spawn replicated fleet");
    let directory = cluster.directory();
    // In-process state, so polling is cheap: a 1 ms pause, no fixed wait.
    let pause = Duration::from_millis(1);
    poll_every(pause, "the observer view to converge", || {
        directory.snapshot().len() == 3
    });

    // A session whose ring-order failover target is its home's ring
    // successor (the successor inherits the *most* arcs, not
    // necessarily this one).
    let snapshot = directory.snapshot();
    let (session, home, target) = (0..)
        .map(|i| format!("failover-probe-{i}"))
        .find_map(|s| {
            let route = snapshot.route(&s);
            let home = *route.first()?;
            let successor = snapshot.successor(home)?;
            (route.get(1) == Some(&successor)).then_some((s, home, successor))
        })
        .expect("some session fails over onto the ring successor");

    poll_every(pause, "every target shard to stage an extension", || {
        let pool = cluster.server(target).expect("target running").pool();
        pool.shard_stats().iter().all(|s| s.session_extensions >= 1)
    });
    let stalls_before = session_stalls(&cluster, target);

    let mut client = ClusterClient::connect(directory, &session).expect("connect");
    client.set_failover_cooldown(Duration::from_millis(100));
    assert_eq!(client.home(), Some(home));

    cluster.kill_server(home);
    let mut served = 0u64;
    client
        .request_cots_with(2048, |b| served += b.len() as u64)
        .expect("post-failover request");
    assert_eq!(served, 2048, "failover request short-changed");
    assert!(
        client.served_for(target) >= 2048,
        "failover missed the ring successor"
    );
    assert_eq!(
        session_stalls(&cluster, target),
        stalls_before,
        "the first post-failover request waited on an extension"
    );
    cluster.shutdown();
}
