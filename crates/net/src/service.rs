//! The multi-client COT service: a thread-per-connection server over a
//! shared, sharded pool (the matching client is in [`crate::client`]).
//!
//! The server plays the paper's host-side role: FERRET extensions refill
//! a [`SharedCotPool`], and any number of concurrent PPML consumers drain
//! it over TCP sessions speaking the [`crate::proto`] protocol. Sessions
//! are independent: a slow client never blocks another except through
//! pool-shard contention, which the lock-stealing `take` keeps off the
//! fast path.

use crate::fault::{FaultInjector, FaultPlan, FaultyStream};
use crate::frame::{self, VERSION};
use crate::proto::{
    encode_cot_chunk_split, encode_cots_split, encode_error_into, DirectoryDelta, LatencyStats,
    MemberRecord, Request, Response, ServiceStats, ShardStat, EPOCH_UNAWARE,
};
use crate::transport::StreamTransport;
use ironman_ot::channel::ChannelError;
use ironman_ot::ferret::FerretConfig;
use ironman_ot::{CotSlice, SharedCotPool};
use ironman_telemetry::{
    merge_dumps, now_nanos, EventKind, Histogram, Stopwatch, TraceEvent, TraceLog,
    DEFAULT_TRACE_CAPACITY,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard server-side cap on the events one [`Request::Trace`] reply may
/// carry, whatever the client asked for (17 bytes each on the wire, so
/// this bounds the reply near 1 MiB).
const TRACE_REPLY_CAP: usize = 65_536;

/// Default write deadline on session sockets — the slow-consumer guard
/// (v8). A subscriber that stops draining its pushes stalls the server's
/// `write_all` once the socket buffers fill; the deadline turns that
/// stall into a typed timeout and the session into a tracked close,
/// instead of pinning a serving thread forever. Tunable at runtime via
/// [`CotService::set_subscriber_write_timeout`].
const DEFAULT_PUSH_TIMEOUT: Duration = Duration::from_secs(2);

/// The seed behind every service's [`FaultInjector`]: fixed so a chaos
/// scenario replays identically run after run (schedules that need
/// divergent servers perturb their plans, not the seed).
const FAULT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The server side of a session: a TCP stream with the service's fault
/// injector layered *under* the framing, so an armed chaos plan corrupts
/// live links mid-session and a heal restores them without reconnecting.
type SessionTransport = StreamTransport<FaultyStream<TcpStream>, FaultyStream<TcpStream>>;

/// The service's read-only view of an epoch-versioned membership
/// directory. `ironman-cluster`'s `Directory` implements it; a service
/// constructed without one (the plain single-server shape) never fences
/// requests and reports epoch 0.
///
/// These are the three questions the serve path asks: `epoch` tells it
/// whether a session's announced epoch is stale, `gossip_delta` answers
/// the `Gossip` pull that brings a session (or a peer replica) current
/// again, and `successor_for` names the drain-handoff successor a
/// subscription push loop should announce.
pub trait DirectoryView: Send + Sync + std::fmt::Debug {
    /// The directory's current epoch (monotonically increasing).
    fn epoch(&self) -> u64;

    /// The answer to a peer presenting its per-origin epoch `vector`:
    /// every record the vector does not cover.
    fn gossip_delta(&self, vector: &[(u64, u64)]) -> DirectoryDelta;

    /// The `Up` member a draining server `self_id` should hand
    /// `session`'s stream to — `Some` only while `self_id` is actually
    /// draining, so one call per push doubles as the drain check.
    fn successor_for(&self, session: &str, self_id: u64) -> Option<MemberRecord>;
}

/// The service's own latency sinks (v6): per-shard serving-path
/// histograms plus the service-level trace ring. The extension and stall
/// distributions live with the pool (`SharedCotPool::shard_telemetry`);
/// together the two sides fill a [`LatencyStats`].
///
/// Recording is lock-free (relaxed atomic bucket bumps) and the whole
/// thing compiles to no-ops under `ironman-telemetry`'s `noop` feature —
/// the hot path pays nothing when telemetry is off, and CI holds the
/// instrumented build to within 3% of the no-op one.
#[derive(Debug)]
struct ServiceTelemetry {
    /// Request→first-byte latency per shard: frame decoded → response
    /// bytes handed to the kernel, for one-shot `RequestCot`s.
    request_first_byte: Vec<Histogram>,
    /// Per-chunk push latency per shard (subscription streams).
    chunk_push: Vec<Histogram>,
    /// Service-level events (chunk pushes, credit waits, epoch fences);
    /// extension/stall events live in the pool's per-shard rings. Shared
    /// (`Arc`) with the fault injector so injected faults land in the
    /// same timeline.
    trace: Arc<TraceLog>,
}

impl ServiceTelemetry {
    fn new(shards: usize) -> Self {
        ServiceTelemetry {
            request_first_byte: (0..shards).map(|_| Histogram::new()).collect(),
            chunk_push: (0..shards).map(|_| Histogram::new()).collect(),
            trace: Arc::new(TraceLog::new(DEFAULT_TRACE_CAPACITY)),
        }
    }
}

/// The `Stats` counters the service bumps itself; the rest of
/// [`ServiceStats`] is derived when the snapshot is taken.
#[derive(Debug, Default)]
struct Counters {
    clients_served: AtomicU64,
    cots_served: AtomicU64,
    scratch_reuses: AtomicU64,
    scratch_allocs: AtomicU64,
    register_failures: AtomicU64,
    /// Correlations promised to active subscriptions but not yet pushed
    /// (granted credits × chunk size) — the demand backlog `Stats`
    /// reports.
    pending_stream_cots: AtomicU64,
    /// Subscribers evicted by the slow-consumer write deadline (v8).
    subscribers_evicted: AtomicU64,
    /// Requests declined with `Unavailable{retry_after_ms}` while the
    /// server was degraded (v8).
    unavailable_sent: AtomicU64,
}

/// A session's retained response scratch: one frame buffer, reused by
/// every response, plus the reuse accounting that makes the zero-copy
/// claim observable through `Stats`. Both send paths finish their socket
/// write before returning, so the next [`Scratch::begin`] may overwrite
/// the frame just sent.
///
/// Two send paths, split by what the frame carries. Control frames
/// (everything without correlations) are encoded whole into the frame
/// buffer and go out through [`Scratch::finish_and_send`]. Batch frames
/// go only through [`Scratch::send_batch_vectored`]: the frame buffer
/// then holds just the fixed-size head (header, opcode, `delta`, `n`),
/// the packed choice bits land in the retained `tail`, and the bulk
/// `z`/`y` block runs are written to the socket straight from the pool
/// ring.
#[derive(Debug, Default)]
struct Scratch {
    buf: Vec<u8>,
    cap_before: usize,
    /// Packed choice bits of the in-flight batch (the only payload piece
    /// the vectored path still serializes, at 1 bit per correlation).
    tail: Vec<u8>,
    /// Big-endian fallback staging for `z`/`y`; stays empty (and
    /// unallocated) on little-endian targets, where the wire views alias
    /// the pool ring directly.
    staging: [Vec<u8>; 2],
}

impl Scratch {
    /// Starts a frame in `buf`, discarding the previous one.
    fn begin(&mut self) {
        self.cap_before = self.buf.capacity();
        frame::begin_frame(&mut self.buf);
    }

    /// Finishes the current control frame and writes it to the socket
    /// (one `write_all`, then flush). Control frames stay out of the
    /// reuse counters, which therefore measure exactly the correlation
    /// payload path and can *falsify* the zero-copy claim.
    fn finish_and_send<R: Read, W: Write>(
        &mut self,
        ch: &mut StreamTransport<R, W>,
    ) -> Result<(), ChannelError> {
        frame::finish_frame(&mut self.buf).map_err(ChannelError::from)?;
        ch.send_frame(&self.buf)?;
        ch.flush()
    }

    /// Encodes and sends one batch-carrying response as a scatter-gather
    /// frame: `[head, z, y, tail]` through one `write_vectored` loop,
    /// with the `z`/`y` block runs borrowed from the pool ring (see
    /// [`crate::proto::encode_cot_batch_split`]). Must be called with
    /// the borrow of the shard's ring still live — i.e. inside the
    /// pool's `take_with_shard` closure — so the socket write still
    /// happens under the shard lock; that is the deliberate trade for
    /// deleting the megabyte-scale ring→scratch copy. Other takes route
    /// around the held shard, and `Stats` does not take the lock at all
    /// (it reads the shard's lock-free counters), so a write blocked on a
    /// slow consumer delays neither.
    ///
    /// `seq` selects the chunk (`Some`) vs one-shot (`None`) opcode.
    /// Wire bytes are identical to the contiguous encoders
    /// [`crate::proto::encode_cots_into`] /
    /// [`crate::proto::encode_cot_chunk_into`], which no serving path
    /// calls: they are the reference the split encoders are tested
    /// against byte for byte. A response counts as a scratch reuse only
    /// if neither retained buffer (head frame, bit tail) had to grow.
    fn send_batch_vectored<R: Read, W: Write>(
        &mut self,
        ch: &mut StreamTransport<R, W>,
        seq: Option<u64>,
        slice: CotSlice<'_>,
        counters: &Counters,
    ) -> Result<(), ChannelError> {
        let cap_before = self.cap_before;
        let tail_cap_before = self.tail.capacity();
        let head = &mut self.buf;
        let [zs, ys] = &mut self.staging;
        let (z, y) = match seq {
            Some(seq) => encode_cot_chunk_split(head, &mut self.tail, zs, ys, seq, slice),
            None => encode_cots_split(head, &mut self.tail, zs, ys, slice),
        };
        frame::finish_frame_with_tail(head, z.len() + y.len() + self.tail.len())
            .map_err(ChannelError::from)?;
        if cap_before > 0
            && head.capacity() == cap_before
            && tail_cap_before > 0
            && self.tail.capacity() == tail_cap_before
        {
            counters.scratch_reuses.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.scratch_allocs.fetch_add(1, Ordering::Relaxed);
        }
        ch.send_frame_parts(&[head.as_slice(), z, y, &self.tail])?;
        ch.flush()
    }
}

/// State shared by the accept loop, every session thread, and the
/// [`CotService`] handle.
#[derive(Debug)]
struct ServiceShared {
    addr: SocketAddr,
    /// Construction time: the monotonic anchor behind the v7
    /// `uptime_nanos` stats field (restart detection for scrapers).
    started: std::time::Instant,
    stop: AtomicBool,
    counters: Counters,
    pool: Arc<SharedCotPool>,
    telemetry: ServiceTelemetry,
    sessions: Mutex<HashMap<u64, TcpStream>>,
    /// The membership directory this server is attached to (`None` for a
    /// plain standalone service: no fencing, epoch 0).
    directory: Option<Arc<dyn DirectoryView>>,
    /// The service-wide fault injector every session's link is wrapped
    /// with (disarmed ⇒ one relaxed load per buffered I/O call).
    faults: FaultInjector,
    /// Graceful-degradation gate: a [`now_nanos`] deadline before which
    /// correlation-serving requests are declined with
    /// `Unavailable{retry_after_ms}` (0 = serving normally).
    unavailable_until: AtomicU64,
    /// Write deadline applied to session sockets, in milliseconds (the
    /// slow-consumer guard).
    push_timeout_ms: AtomicU64,
    /// This server's own member id in the attached directory
    /// (`u64::MAX` = unset, e.g. a standalone service) —
    /// what the drain-handoff check asks the directory about.
    self_id: AtomicU64,
}

impl ServiceShared {
    /// Stops the service from any thread: raises the flag, kicks every
    /// live session out of its blocking read, and pokes the listener so
    /// the accept loop observes the flag. Idempotent.
    fn initiate_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for stream in self.sessions.lock().expect("session stream lock").values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr);
    }

    /// The attached directory's epoch, or 0 for a standalone service.
    fn dir_epoch(&self) -> u64 {
        self.directory.as_ref().map_or(0, |d| d.epoch())
    }

    /// While the degradation gate is closed, the `retry_after_ms` hint to
    /// decline serving requests with; `None` when serving normally (the
    /// hot-path cost is this one relaxed load). An expired gate clears
    /// itself.
    fn unavailable_ms(&self) -> Option<u64> {
        let until = self.unavailable_until.load(Ordering::Relaxed);
        if until == 0 {
            return None;
        }
        let now = now_nanos();
        if now >= until {
            self.unavailable_until.store(0, Ordering::Relaxed);
            return None;
        }
        Some(((until - now) / 1_000_000).max(1))
    }

    fn stats(&self) -> ServiceStats {
        let shard_stats: Vec<ShardStat> = self
            .pool
            .shard_stats()
            .into_iter()
            .enumerate()
            .map(|(i, snap)| ShardStat {
                available: snap.available,
                extensions_run: snap.extensions_run,
                taken: snap.taken_cots,
                warm_refills: snap.warm_refills,
                session_extensions: snap.session_extensions,
                session_stalls: snap.session_stalls,
                latency: LatencyStats {
                    request_first_byte: self.telemetry.request_first_byte[i].snapshot(),
                    chunk_push: self.telemetry.chunk_push[i].snapshot(),
                    extension: snap.extension_latency,
                    stall: snap.stall_latency,
                },
            })
            .collect();
        // The service-wide view is the merge of the per-shard ones — the
        // same roll-up a fleet observer performs across servers.
        let mut latency = LatencyStats::default();
        for shard in &shard_stats {
            latency.merge(&shard.latency);
        }
        ServiceStats {
            clients_served: self.counters.clients_served.load(Ordering::Relaxed),
            cots_served: self.counters.cots_served.load(Ordering::Relaxed),
            extensions_run: shard_stats.iter().map(|s| s.extensions_run).sum(),
            available: shard_stats.iter().map(|s| s.available).sum(),
            shards: self.pool.shard_count() as u64,
            warmup_refills: shard_stats.iter().map(|s| s.warm_refills).sum(),
            scratch_reuses: self.counters.scratch_reuses.load(Ordering::Relaxed),
            scratch_allocs: self.counters.scratch_allocs.load(Ordering::Relaxed),
            register_failures: self.counters.register_failures.load(Ordering::Relaxed),
            directory_epoch: self.dir_epoch(),
            pending_stream_cots: self.counters.pending_stream_cots.load(Ordering::Relaxed),
            uptime_nanos: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            subscribers_evicted: self.counters.subscribers_evicted.load(Ordering::Relaxed),
            unavailable_sent: self.counters.unavailable_sent.load(Ordering::Relaxed),
            faults_injected: self.faults.injected(),
            latency,
            shard_stats,
        }
    }

    /// The service's recent trace events: its own ring merged with every
    /// pool shard's, newest `max_events` kept (capped server-side).
    fn trace_dump(&self, max_events: u64) -> Vec<TraceEvent> {
        let shard_telemetry = self.pool.shard_telemetry();
        let mut dumps = Vec::with_capacity(1 + shard_telemetry.len());
        dumps.push(self.telemetry.trace.dump());
        dumps.extend(shard_telemetry.iter().map(|t| t.trace.dump()));
        let cap = usize::try_from(max_events)
            .unwrap_or(usize::MAX)
            .min(TRACE_REPLY_CAP);
        merge_dumps(&dumps, cap)
    }
}

/// Configuration of a [`CotService`].
#[derive(Clone, Debug)]
pub struct CotServiceConfig {
    /// Pool shard count (concurrent refill lanes).
    pub shards: usize,
    /// Seed for the per-shard FERRET sessions.
    pub seed: u64,
    /// Pipelined supply (the default): each shard keeps one persistent
    /// FERRET session extending ahead of demand on its own thread,
    /// with a fixed per-shard `Δ` and remnant-merging refills, so a
    /// request under the shard lock is a cursor bump — never a session
    /// bootstrap. `false` restores the PR-1 shape (a fresh session per
    /// refill, inline on the demand path).
    pub pipelined: bool,
}

impl Default for CotServiceConfig {
    fn default() -> Self {
        CotServiceConfig {
            shards: 4,
            seed: 1,
            pipelined: true,
        }
    }
}

impl CotServiceConfig {
    /// Builds the [`SharedCotPool`] this configuration describes (the
    /// single dispatch point on `pipelined`, shared by [`CotService`]
    /// and `ironman-cluster`'s server composition).
    pub fn build_pool(&self, ferret: &FerretConfig) -> SharedCotPool {
        if self.pipelined {
            SharedCotPool::new_pipelined(ferret, self.shards, self.seed)
        } else {
            SharedCotPool::new(ferret, self.shards, self.seed)
        }
    }
}

/// A running COT server; dropping the handle does **not** stop it — call
/// [`CotService::shutdown`] (or send [`Request::Shutdown`] from a client).
#[derive(Debug)]
pub struct CotService {
    shared: Arc<ServiceShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl CotService {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), builds a
    /// sharded pool over `ferret`, and starts accepting sessions.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve<A: ToSocketAddrs>(
        addr: A,
        ferret: &FerretConfig,
        cfg: CotServiceConfig,
    ) -> std::io::Result<CotService> {
        let listener = TcpListener::bind(addr)?;
        let pool = Arc::new(cfg.build_pool(ferret));
        Ok(Self::serve_on(listener, pool))
    }

    /// Starts the accept loop on an already-bound listener over an
    /// existing pool (lets tests and embedders share pools across
    /// services).
    pub fn serve_on(listener: TcpListener, pool: Arc<SharedCotPool>) -> CotService {
        Self::serve_on_with(listener, pool, None)
    }

    /// Like [`CotService::serve_on`], but attaches an epoch-versioned
    /// membership directory: epoch-aware sessions whose announced epoch
    /// falls behind the directory's are fenced with
    /// [`Response::WrongEpoch`] and brought current through a
    /// `Gossip` pull.
    pub fn serve_on_with(
        listener: TcpListener,
        pool: Arc<SharedCotPool>,
        directory: Option<Arc<dyn DirectoryView>>,
    ) -> CotService {
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let telemetry = ServiceTelemetry::new(pool.shard_count());
        let faults = FaultInjector::new(FAULT_SEED);
        faults.set_trace(Arc::clone(&telemetry.trace));
        let shared = Arc::new(ServiceShared {
            addr,
            started: std::time::Instant::now(),
            stop: AtomicBool::new(false),
            counters: Counters::default(),
            pool,
            telemetry,
            sessions: Mutex::new(HashMap::new()),
            directory,
            faults,
            unavailable_until: AtomicU64::new(0),
            push_timeout_ms: AtomicU64::new(DEFAULT_PUSH_TIMEOUT.as_millis() as u64),
            self_id: AtomicU64::new(u64::MAX),
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        CotService {
            shared,
            accept_thread: Some(accept_thread),
        }
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Tells the service which member of the attached directory it *is*
    /// (a replicated server's own id). With this set, the push loop of
    /// every subscription checks the directory for a drain of this
    /// member and announces the ring successor in-stream with one
    /// `DrainHandoff` push — the cooperative-drain half of wire v9.
    pub fn set_self_id(&self, id: u64) {
        self.shared.self_id.store(id, Ordering::Relaxed);
    }

    /// The shared pool backing this service.
    pub fn pool(&self) -> &Arc<SharedCotPool> {
        &self.shared.pool
    }

    /// Current statistics snapshot (same data a [`Request::Stats`] gets).
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Closes the degradation gate for `window`: correlation-serving
    /// requests (`RequestCot`/`Subscribe`) are declined with
    /// [`Response::Unavailable`] carrying the remaining wait as its
    /// `retry_after_ms` hint, instead of hanging or hard-failing clients.
    /// Control ops (`Stats`, `Gossip`, `Shutdown`, `Trace`) keep
    /// working — a degraded server stays observable. The gate reopens by
    /// itself when the window elapses, or early via
    /// [`CotService::clear_unavailable`].
    pub fn set_unavailable_for(&self, window: Duration) {
        let until =
            now_nanos().saturating_add(u64::try_from(window.as_nanos()).unwrap_or(u64::MAX));
        self.shared
            .unavailable_until
            .store(until.max(1), Ordering::Relaxed);
    }

    /// Reopens the degradation gate immediately.
    pub fn clear_unavailable(&self) {
        self.shared.unavailable_until.store(0, Ordering::Relaxed);
    }

    /// Arms `plan` on every current and future session of this service.
    pub fn set_faults(&self, plan: FaultPlan) {
        self.shared.faults.set_plan(plan);
    }

    /// Heals this service's links: disarms the fault plan everywhere.
    pub fn clear_faults(&self) {
        self.shared.faults.clear();
    }

    /// Sets the slow-consumer write deadline (default 2 s) — applied to
    /// every live session socket immediately and to new sessions at
    /// accept. A subscriber that cannot drain its pushes within the
    /// deadline is evicted via tracked close (counted in
    /// `subscribers_evicted`, traced as `SubscriberEvicted`).
    pub fn set_subscriber_write_timeout(&self, deadline: Duration) {
        let ms = u64::try_from(deadline.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        self.shared.push_timeout_ms.store(ms, Ordering::Relaxed);
        for stream in self
            .shared
            .sessions
            .lock()
            .expect("session stream lock")
            .values()
        {
            let _ = stream.set_write_timeout(Some(Duration::from_millis(ms)));
        }
    }

    /// Stops accepting, waits for the accept loop (and through it all
    /// session threads) to finish, and returns the final statistics.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shared.initiate_shutdown();
        if let Some(t) = self.accept_thread.take() {
            t.join().expect("accept thread panicked");
        }
        self.stats()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServiceShared>) {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut next_session_id = 0u64;
    let mut consecutive_errors = 0u32;
    while !shared.stop.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                consecutive_errors = 0;
                stream
            }
            // Transient failures (ECONNABORTED, fd exhaustion under load)
            // must not kill the whole service; only a persistent error
            // storm does.
            Err(_) => {
                consecutive_errors += 1;
                if consecutive_errors >= 100 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break; // the shutdown poke itself
        }
        // Register a handle to the raw socket so a shutdown can unblock
        // this session's reads. A session that cannot be registered is
        // refused (dropping the stream closes it — the tracked close
        // path): serving it would leave a thread no shutdown can reach,
        // and the old silent-skip did exactly that.
        let session_id = next_session_id;
        next_session_id += 1;
        match stream.try_clone() {
            Ok(raw) => {
                shared
                    .sessions
                    .lock()
                    .expect("session stream lock")
                    .insert(session_id, raw);
            }
            Err(e) => {
                shared
                    .counters
                    .register_failures
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "ironman-net: refusing session {session_id}: socket handle clone failed ({e})"
                );
                continue;
            }
        }
        shared
            .counters
            .clients_served
            .fetch_add(1, Ordering::Relaxed);
        // The slow-consumer guard: every write this session performs is
        // bounded by the push deadline, so a subscriber that stops
        // draining costs one timeout, not a pinned serving thread.
        let push_timeout = Duration::from_millis(shared.push_timeout_ms.load(Ordering::Relaxed));
        let _ = stream.set_write_timeout(Some(push_timeout));
        // Reap finished sessions so `threads` tracks live connections, not
        // the server's lifetime total.
        threads.retain(|t| !t.is_finished());
        let shared = Arc::clone(shared);
        threads.push(std::thread::spawn(move || {
            // A client that fails its handshake (or drops mid-session) only
            // kills its own session thread.
            if let Ok(transport) = session_transport(stream, &shared.faults) {
                let _ = serve_session(transport, &shared);
            }
            // Deregister (dropping the last socket handle closes the fd,
            // so a departed session's peer sees EOF immediately).
            shared
                .sessions
                .lock()
                .expect("session stream lock")
                .remove(&session_id);
        }));
    }
    // A session accepted concurrently with a shutdown may have registered
    // after the initiator's sweep; sweeping again here (the accept thread
    // runs strictly after every registration it performed) guarantees no
    // session thread is left blocked before the joins below.
    for stream in shared
        .sessions
        .lock()
        .expect("session stream lock")
        .values()
    {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    for handle in threads {
        let _ = handle.join();
    }
}

/// Builds a session's server-side transport: `TCP_NODELAY` plus the
/// service's fault injector layered under the framing on both halves
/// (the v8 chaos plane; transparent while the injector is disarmed).
fn session_transport(
    stream: TcpStream,
    faults: &FaultInjector,
) -> Result<SessionTransport, frame::FrameError> {
    stream.set_nodelay(true).map_err(frame::FrameError::Io)?;
    let reader = stream.try_clone().map_err(frame::FrameError::Io)?;
    StreamTransport::from_split(faults.wrap(reader), faults.wrap(stream))
}

/// Whether a correlation-serving request from this session must be
/// fenced: the session is epoch-aware, a directory is attached, and the
/// directory has moved past the epoch the session last announced.
/// Returns the current epoch to report when fencing.
fn fence_epoch(shared: &ServiceShared, session_epoch: Option<u64>) -> Option<u64> {
    let directory = shared.directory.as_ref()?;
    let announced = session_epoch?;
    let current = directory.epoch();
    if announced < current {
        shared.telemetry.trace.push(EventKind::EpochFence, current);
        Some(current)
    } else {
        None
    }
}

/// The admission chain of a correlation-serving request (`RequestCot`'s
/// batch or `Subscribe`'s chunk, `size` correlations, named by `what` in
/// the error text): the degradation gate, then the epoch fence, then the
/// `1..=max_request` range. Returns `true` when the request may be
/// served; otherwise its control reply is left in `scratch`.
///
/// A closed gate answers with a machine-usable retry hint (v8) instead
/// of hanging or hard-failing the client, counted and traced so the
/// outage is observable fleet-wide.
fn admit(
    shared: &ServiceShared,
    session_epoch: Option<u64>,
    size: u64,
    what: &str,
    scratch: &mut Scratch,
) -> bool {
    let max_request = shared.pool.max_request() as u64;
    let reply = if let Some(retry_after_ms) = shared.unavailable_ms() {
        shared
            .counters
            .unavailable_sent
            .fetch_add(1, Ordering::Relaxed);
        shared
            .telemetry
            .trace
            .push(EventKind::Unavailable, retry_after_ms);
        Response::Unavailable { retry_after_ms }
    } else if let Some(current) = fence_epoch(shared, session_epoch) {
        Response::WrongEpoch { epoch: current }
    } else if size == 0 || size > max_request {
        Response::Error(format!("{what} {size} outside 1..={max_request}"))
    } else {
        return true;
    };
    scratch.begin();
    reply.encode_into(&mut scratch.buf);
    false
}

/// The one push path for correlations: takes `n` from the pool and
/// writes them as one batch frame straight from the shard's ring (see
/// [`Scratch::send_batch_vectored`]; `seq` picks chunk vs one-shot).
///
/// Once it returns, `cots_served` counts only completed writes, so a
/// batch that was taken but never delivered — an evicted subscriber's
/// last chunk — is visible as `Σ taken − cots_served`. The count goes up
/// *before* the write and comes back down if the push fails: `Stats`
/// takes no lock that would order it after the write, so counting
/// afterwards would let a client that already holds the batch scrape a
/// total that lacks it.
///
/// Returns the serving shard and the write's outcome, or `None` if the
/// take panicked. A panic lands before the vectored write (the take
/// itself failed), so the socket is clean; the frame buffer then holds
/// the "internal pool failure" reply, for the caller to send.
fn push_batch<R: Read, W: Write>(
    ch: &mut StreamTransport<R, W>,
    shared: &ServiceShared,
    scratch: &mut Scratch,
    seq: Option<u64>,
    n: usize,
) -> Option<(usize, Result<(), ChannelError>)> {
    scratch.begin();
    let served = &shared.counters.cots_served;
    served.fetch_add(n as u64, Ordering::Relaxed);
    let mut sent = Ok(());
    let take = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.pool.take_with_shard(n, |slice, shard| {
            sent = scratch.send_batch_vectored(ch, seq, slice, &shared.counters);
            shard
        })
    }));
    if take.is_err() || sent.is_err() {
        served.fetch_sub(n as u64, Ordering::Relaxed);
    }
    let Ok(shard) = take else {
        scratch.begin(); // the batch frame may be half-written
        encode_error_into(&mut scratch.buf, "internal pool failure");
        return None;
    };
    Some((shard, sent))
}

fn serve_session<R: Read, W: Write>(
    mut ch: StreamTransport<R, W>,
    shared: &ServiceShared,
) -> Result<(), ChannelError> {
    let max_request = shared.pool.max_request() as u64;
    // The directory epoch this session last announced (`Hello`) or was
    // brought to by a `Gossip` pull; `None` for epoch-unaware sessions,
    // which are never fenced.
    let mut session_epoch: Option<u64> = None;
    // The session name from `Hello` — the ring-placement key the drain
    // handoff resolves the successor of.
    let mut session_name = String::new();
    // Per-session retained buffers: requests land in `recv`, responses
    // are encoded in place into the `scratch` frame buffer.
    // After the first few exchanges size them, the session's steady state
    // allocates nothing per request (observable via `Stats`).
    let mut recv = Vec::new();
    let mut scratch = Scratch::default();
    loop {
        ch.recv_bytes_into(&mut recv)?;
        let request = match Request::decode(&recv) {
            Ok(r) => r,
            Err(e) => {
                // Answer garbage with an Error frame, then drop the session.
                scratch.begin();
                encode_error_into(&mut scratch.buf, &e.to_string());
                let _ = scratch.finish_and_send(&mut ch);
                return Err(e);
            }
        };
        // Request→first-byte timer: decode done → response bytes handed
        // to the kernel. A `Stopwatch` is a ZST under the telemetry
        // `noop` feature, so starting it unconditionally costs nothing
        // when telemetry is compiled out.
        let first_byte_watch = Stopwatch::start();
        match request {
            Request::Hello { name, epoch } => {
                session_name = name;
                session_epoch = (epoch != EPOCH_UNAWARE).then_some(epoch);
                scratch.begin();
                Response::Welcome {
                    version: VERSION,
                    max_request,
                    epoch: shared.dir_epoch(),
                }
                .encode_into(&mut scratch.buf);
            }
            Request::RequestCot { n } => {
                if admit(shared, session_epoch, n, "batch size", &mut scratch) {
                    if let Some((shard, sent)) =
                        push_batch(&mut ch, shared, &mut scratch, None, n as usize)
                    {
                        sent?;
                        shared.telemetry.request_first_byte[shard].record_elapsed(first_byte_watch);
                        continue; // response already on the wire
                    }
                }
                // Every other branch, a panicked take included, left a
                // control reply in the frame buffer: a panicking take
                // answers this client instead of killing its session
                // silently (and through the hung socket, the client).
            }
            Request::Stats => {
                scratch.begin();
                Response::Stats(Box::new(shared.stats())).encode_into(&mut scratch.buf);
            }
            Request::Shutdown => {
                // Answer first (the requester deserves its Goodbye), then
                // actually stop the server: flag + session sweep + listener
                // poke, exactly as CotService::shutdown does.
                scratch.begin();
                Response::Goodbye.encode_into(&mut scratch.buf);
                scratch.finish_and_send(&mut ch)?;
                shared.initiate_shutdown();
                return Ok(());
            }
            Request::Subscribe { batch, credits } => {
                if admit(shared, session_epoch, batch, "chunk size", &mut scratch) {
                    serve_subscription(
                        &mut ch,
                        shared,
                        batch as usize,
                        credits,
                        &session_name,
                        &mut recv,
                        &mut scratch,
                    )?;
                    continue; // StreamEnd already sent; back to one-shot mode
                }
            }
            // Flow-control messages are only meaningful inside a
            // subscription; outside one they are a client bug, answered
            // (session kept) rather than dropped.
            Request::Credit { .. } | Request::Unsubscribe => {
                scratch.begin();
                encode_error_into(&mut scratch.buf, "no active subscription");
            }
            Request::Gossip { from: _, vector } => {
                // Anti-entropy pull: answer the peer's epoch vector with
                // every record it has not seen. The delta brings the
                // session to the directory's current epoch; record it so
                // a resyncing client's next serving request passes the
                // fence without a second round trip.
                scratch.begin();
                match &shared.directory {
                    Some(directory) => {
                        let delta = directory.gossip_delta(&vector);
                        session_epoch = Some(delta.epoch);
                        Response::GossipDelta(delta).encode_into(&mut scratch.buf);
                    }
                    None => encode_error_into(&mut scratch.buf, "no directory attached"),
                }
            }
            Request::Trace { max_events } => {
                scratch.begin();
                Response::TraceDump(shared.trace_dump(max_events)).encode_into(&mut scratch.buf);
            }
        }
        // Control responses; the batch path sent vectored and continued
        // above.
        scratch.finish_and_send(&mut ch)?;
    }
}

/// Exit-safe tracking of one subscription's promised-but-unpushed
/// correlations in the service-wide backlog counter: grants raise it,
/// pushes lower it, and whatever is still outstanding when the
/// subscription ends (any exit path, including errors) is released by
/// `Drop`, so the counter never leaks a dead stream's demand.
struct PendingCots<'a> {
    counter: &'a AtomicU64,
    outstanding: u64,
}

impl<'a> PendingCots<'a> {
    fn new(counter: &'a AtomicU64) -> Self {
        PendingCots {
            counter,
            outstanding: 0,
        }
    }

    fn grant(&mut self, cots: u64) {
        // The shared counter moves by exactly what `outstanding` records
        // (both saturate together), so Drop's release always balances —
        // a hostile credit flood cannot leak phantom backlog into the
        // fleet-wide demand signal.
        let grown = self.outstanding.saturating_add(cots);
        self.counter
            .fetch_add(grown - self.outstanding, Ordering::Relaxed);
        self.outstanding = grown;
    }

    fn push(&mut self, cots: u64) {
        let n = cots.min(self.outstanding);
        self.outstanding -= n;
        self.counter.fetch_sub(n, Ordering::Relaxed);
    }
}

impl Drop for PendingCots<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(self.outstanding, Ordering::Relaxed);
    }
}

/// Runs one credit-controlled subscription to completion: pushes a
/// [`Response::CotChunk`] per granted credit, blocks for `Credit`/
/// `Unsubscribe` when the grant is exhausted, and closes with the
/// [`Response::StreamEnd`] accounting trailer.
///
/// The credit discipline is the stream's backpressure: the server never
/// has more chunks in flight than the client granted, so a slow consumer
/// bounds pool drain and socket buffering instead of being buried — the
/// serving-side analogue of the Ironman PU streaming extension outputs at
/// the rate the compute side absorbs them.
///
/// Chunks take the one push path ([`push_batch`]):
/// the `z`/`y` block runs are written to the socket straight from the
/// shard's ring, so a push serializes only the fixed head and the packed
/// choice bits (`write_vectored` returns once the socket buffer holds
/// the frame, not once the peer read it — transmission still overlaps
/// the next take).
fn serve_subscription<R: Read, W: Write>(
    ch: &mut StreamTransport<R, W>,
    shared: &ServiceShared,
    batch: usize,
    mut credits: u64,
    session: &str,
    recv: &mut Vec<u8>,
    scratch: &mut Scratch,
) -> Result<(), ChannelError> {
    let mut chunks = 0u64;
    let mut cots = 0u64;
    let mut handoff_sent = false;
    let self_id = shared.self_id.load(Ordering::Relaxed);
    let mut pending = PendingCots::new(&shared.counters.pending_stream_cots);
    pending.grant(credits.saturating_mul(batch as u64));
    loop {
        // Cooperative drain (v9): once this server is marked draining,
        // announce the session's ring successor in-stream — one push,
        // no credit consumed — so the client can fail over without a
        // single discovery round trip. `successor_for` is `Some` only
        // while the member is actually draining, so the steady-state
        // cost is one relaxed load and one snapshot read per chunk.
        if !handoff_sent && self_id != u64::MAX {
            if let Some(succ) = shared
                .directory
                .as_ref()
                .and_then(|d| d.successor_for(session, self_id))
            {
                scratch.begin();
                Response::DrainHandoff {
                    id: succ.id,
                    addr: succ.addr,
                    name: succ.name,
                }
                .encode_into(&mut scratch.buf);
                scratch.finish_and_send(ch)?;
                handoff_sent = true;
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            // Server-initiated shutdown ends the stream cleanly: the
            // trailer tells the client exactly what it was sent.
            scratch.begin();
            Response::StreamEnd { chunks, cots }.encode_into(&mut scratch.buf);
            return scratch.finish_and_send(ch);
        }
        if credits == 0 {
            // Grant exhausted: block until the client extends or ends the
            // stream (its grants ride the full-duplex socket, so they are
            // usually already queued by the time we look). The wait is
            // traced: a stream stalling on credits is consumer-bound, the
            // mirror image of a pool stalling on extensions.
            let credit_watch = Stopwatch::start();
            ch.recv_bytes_into(recv)?;
            match Request::decode(recv) {
                Ok(Request::Credit { n }) => {
                    shared
                        .telemetry
                        .trace
                        .push(EventKind::CreditWait, credit_watch.elapsed_nanos());
                    credits = credits.saturating_add(n);
                    pending.grant(n.saturating_mul(batch as u64));
                }
                Ok(Request::Unsubscribe) => {
                    scratch.begin();
                    Response::StreamEnd { chunks, cots }.encode_into(&mut scratch.buf);
                    return scratch.finish_and_send(ch);
                }
                Ok(other) => {
                    let msg = format!("unexpected {other:?} inside a subscription");
                    scratch.begin();
                    encode_error_into(&mut scratch.buf, &msg);
                    let _ = scratch.finish_and_send(ch);
                    return Err(ChannelError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        msg,
                    )));
                }
                Err(e) => {
                    scratch.begin();
                    encode_error_into(&mut scratch.buf, &e.to_string());
                    let _ = scratch.finish_and_send(ch);
                    return Err(e);
                }
            }
        } else {
            // Zero-copy push (see push_batch — the z/y runs never land
            // in the frame buffer).
            let push_watch = Stopwatch::start();
            let Some((shard, sent)) = push_batch(ch, shared, scratch, Some(chunks), batch) else {
                let _ = scratch.finish_and_send(ch);
                return Err(ChannelError::Io(std::io::Error::other(
                    "pool take panicked mid-subscription",
                )));
            };
            if let Err(e) = sent {
                // The write deadline fired: this subscriber stopped
                // draining its pushes. Evict it via tracked close (the
                // session thread deregisters the socket on return) —
                // counted and traced, with the stream's still-promised
                // correlations as the trace arg.
                if matches!(e, ChannelError::TimedOut) {
                    shared
                        .counters
                        .subscribers_evicted
                        .fetch_add(1, Ordering::Relaxed);
                    shared
                        .telemetry
                        .trace
                        .push(EventKind::SubscriberEvicted, pending.outstanding);
                }
                return Err(e);
            }
            shared.telemetry.chunk_push[shard].record_elapsed(push_watch);
            shared
                .telemetry
                .trace
                .push(EventKind::ChunkPush, batch as u64);
            chunks += 1;
            cots += batch as u64;
            credits -= 1;
            pending.push(batch as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CotClient, CotSubscription};
    use ironman_ot::channel::Transport;
    use ironman_ot::params::FerretParams;
    use ironman_ot::CotBatch;

    /// One one-shot request of `n` on `client`, its batch verified.
    fn request_verified(client: &mut CotClient, n: usize) {
        let mut batch = CotBatch::default();
        client.request_cots_into(n, &mut batch).unwrap();
        batch.verify().unwrap();
    }

    fn toy_service(shards: usize) -> CotService {
        let cfg = CotServiceConfig {
            shards,
            seed: 11,
            ..CotServiceConfig::default()
        };
        let ferret = FerretConfig::new(FerretParams::toy());
        CotService::serve("127.0.0.1:0", &ferret, cfg).expect("bind loopback")
    }

    #[test]
    fn single_client_session() {
        let service = toy_service(1);
        let mut client = CotClient::connect(service.addr(), "t1").unwrap();
        assert!(client.max_request() > 0);
        let mut batch = CotBatch::default();
        client.request_cots_into(64, &mut batch).unwrap();
        assert_eq!(batch.len(), 64);
        batch.verify().unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.cots_served, 64);
        assert_eq!(stats.clients_served, 1);
        let final_stats = service.shutdown();
        assert_eq!(final_stats.cots_served, 64);
    }

    #[test]
    fn scratch_reuse_counters_make_zero_copy_observable() {
        let service = toy_service(2);
        let mut client = CotClient::connect(service.addr(), "reuser").unwrap();
        let mut reused = CotBatch::default();
        for _ in 0..20 {
            client.request_cots_into(500, &mut reused).unwrap();
            assert_eq!(reused.len(), 500);
            reused.verify().unwrap();
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.cots_served, 20 * 500);
        // Only the 20 batch-carrying Cots responses are accounted: the
        // scratch buffers grow on the first batch, then every
        // steady-state batch reuses them.
        assert_eq!(stats.scratch_allocs + stats.scratch_reuses, 20);
        assert!(
            stats.scratch_reuses >= 15,
            "expected steady-state buffer reuse, got {} reuses / {} allocs",
            stats.scratch_reuses,
            stats.scratch_allocs
        );
        assert_eq!(stats.register_failures, 0);
        service.shutdown();
    }

    #[test]
    fn oversized_request_fails_fast_client_side() {
        let service = toy_service(1);
        let mut client = CotClient::connect(service.addr(), "greedy").unwrap();
        let max = client.max_request();
        let sent_before = client.transport_stats().messages_sent;
        // Regression: an oversized request is rejected with the typed
        // error *before* any bytes hit the wire, not by a server error.
        let err = client
            .request_cots_into(max as usize + 1, &mut CotBatch::default())
            .unwrap_err();
        assert!(matches!(
            err,
            ChannelError::RequestTooLarge { max: m, requested } if m == max && requested == max + 1
        ));
        assert_eq!(client.transport_stats().messages_sent, sent_before);
        // Session survives the rejected request.
        request_verified(&mut client, 8);
        service.shutdown();
    }

    #[test]
    fn streaming_subscription_delivers_exact_accounting() {
        let service = toy_service(2);
        let mut client = CotClient::connect(service.addr(), "streamer").unwrap();
        const BATCH: usize = 100;
        const CHUNKS: u64 = 25;
        let mut sub = client.subscribe(BATCH, CHUNKS).unwrap();
        let mut got = 0u64;
        let mut batch = CotBatch::default();
        while sub.next_chunk_into(&mut batch).unwrap() {
            assert_eq!(batch.len(), BATCH);
            batch.verify().unwrap();
            got += 1;
            // The credit discipline is enforced every step: outstanding
            // grants never exceed the window or the chunks still owed.
            assert!(sub.credits_outstanding() <= CotSubscription::CREDIT_WINDOW);
            assert!(sub.credits_outstanding() <= sub.chunks_remaining());
        }
        assert_eq!(got, CHUNKS);
        let summary = sub.finish().unwrap();
        assert_eq!(summary.chunks, CHUNKS);
        assert_eq!(summary.cots, CHUNKS * BATCH as u64);
        // The session drops back to one-shot mode afterwards.
        request_verified(&mut client, 8);
        let stats = client.stats().unwrap();
        assert_eq!(stats.cots_served, CHUNKS * BATCH as u64 + 8);
        // Streamed chunks ride the retained scratch buffers: after they
        // size themselves, every push is a reuse.
        assert!(
            stats.scratch_reuses >= CHUNKS - 4,
            "expected streamed chunks to reuse scratch buffers, got {} reuses",
            stats.scratch_reuses
        );
        service.shutdown();
    }

    #[test]
    fn early_finish_drains_in_flight_chunks() {
        let service = toy_service(1);
        let mut client = CotClient::connect(service.addr(), "quitter").unwrap();
        let mut sub = client.subscribe(64, 1000).unwrap();
        // Take a few chunks, then bail with most of the stream unread.
        let mut batch = CotBatch::default();
        for _ in 0..3 {
            assert!(sub.next_chunk_into(&mut batch).unwrap());
            batch.verify().unwrap();
        }
        let summary = sub.finish().unwrap();
        // The trailer covers everything pushed, consumed or drained.
        assert!(summary.chunks >= 3);
        assert_eq!(summary.cots, summary.chunks * 64);
        // Session still usable.
        request_verified(&mut client, 8);
        service.shutdown();
    }

    #[test]
    fn server_still_rejects_oversized_requests_on_the_wire() {
        // The client fails fast now, but the server's own bound check is
        // the only defense against non-conforming peers — exercise it by
        // writing raw frames past the client-side check.
        let service = toy_service(1);
        let mut client = CotClient::connect(service.addr(), "hostile").unwrap();
        let max = client.max_request();
        for bad_n in [0u64, max + 1, u64::MAX] {
            client
                .ch
                .send_bytes(Request::RequestCot { n: bad_n }.encode())
                .unwrap();
            match Response::decode(&client.ch.recv_bytes().unwrap()).unwrap() {
                Response::Error(msg) => assert!(msg.contains("outside")),
                other => panic!("expected Error for n={bad_n}, got {other:?}"),
            }
        }
        // The session survives every rejection.
        request_verified(&mut client, 8);
        service.shutdown();
    }

    #[test]
    fn dropped_subscription_leaves_session_usable() {
        let service = toy_service(1);
        let mut client = CotClient::connect(service.addr(), "dropper").unwrap();
        {
            let mut sub = client.subscribe(64, 100).unwrap();
            let mut batch = CotBatch::default();
            assert!(sub.next_chunk_into(&mut batch).unwrap());
            batch.verify().unwrap();
            // Dropped here without finish(): Drop must unsubscribe and
            // drain so the session below is not desynchronized.
        }
        request_verified(&mut client, 8);
        service.shutdown();
    }

    #[test]
    fn oversized_subscription_batch_fails_fast() {
        let service = toy_service(1);
        let mut client = CotClient::connect(service.addr(), "greedy-stream").unwrap();
        let max = client.max_request();
        assert!(matches!(
            client.subscribe(max as usize + 1, 4).unwrap_err(),
            ChannelError::RequestTooLarge { .. }
        ));
        assert!(matches!(
            client.subscribe(0, 4).unwrap_err(),
            ChannelError::RequestTooLarge { .. }
        ));
        service.shutdown();
    }

    #[test]
    fn credit_outside_subscription_is_answered_not_fatal() {
        let service = toy_service(1);
        let mut client = CotClient::connect(service.addr(), "confused").unwrap();
        client
            .ch
            .send_bytes(Request::Credit { n: 3 }.encode())
            .unwrap();
        match Response::decode(&client.ch.recv_bytes().unwrap()).unwrap() {
            Response::Error(msg) => assert!(msg.contains("no active subscription")),
            other => panic!("unexpected response: {other:?}"),
        }
        // Session survives the stray flow-control message.
        request_verified(&mut client, 8);
        service.shutdown();
    }

    #[test]
    fn unassigned_opcodes_are_answered_with_error_then_dropped() {
        // 0x08 + u64 was `Sync{epoch}` through wire v9 and 0x09 + u64 +
        // u64 was the `Warm` refill RPC through v10. The server must
        // treat each like any unknown opcode: one Error frame, then EOF.
        let service = toy_service(1);
        for (opcode, fields) in [(0x08u8, 1), (0x09, 2)] {
            let mut client = CotClient::connect(service.addr(), "old-habits").unwrap();
            let mut payload = vec![opcode];
            for _ in 0..fields {
                payload.extend_from_slice(&0u64.to_le_bytes());
            }
            client.ch.send_bytes(payload).unwrap();
            match Response::decode(&client.ch.recv_bytes().unwrap()).unwrap() {
                Response::Error(_) => {}
                other => panic!("unexpected response to {opcode:#04x}: {other:?}"),
            }
            assert!(
                client.ch.recv_bytes().is_err(),
                "the session must be dropped after {opcode:#04x}"
            );
            // Only that session: the server keeps serving others.
            let mut next = CotClient::connect(service.addr(), "v11").unwrap();
            request_verified(&mut next, 8);
        }
        service.shutdown();
    }

    /// The v6 observability surface end to end: latency histograms in
    /// `Stats` (per shard and merged service-wide) and a `Trace` dump
    /// carrying the pool's extension events. Skipped in substance under
    /// the telemetry `noop` feature (everything legitimately reads
    /// empty), but the wire paths still run.
    #[test]
    fn stats_carry_latency_histograms_and_traces() {
        let service = toy_service(2);
        let mut client = CotClient::connect(service.addr(), "observer").unwrap();
        const REQUESTS: u64 = 12;
        let mut batch = CotBatch::default();
        for _ in 0..REQUESTS {
            client.request_cots_into(64, &mut batch).unwrap();
        }
        let mut sub = client.subscribe(50, 6).unwrap();
        while sub.next_chunk_into(&mut batch).unwrap() {}
        sub.finish().unwrap();

        let stats = client.stats().unwrap();
        let measuring = !stats.latency.request_first_byte.is_empty();
        if measuring {
            // Every one-shot request landed in exactly one shard's
            // request→first-byte histogram; the service-wide view is
            // their merge.
            let shard_total: u64 = stats
                .shard_stats
                .iter()
                .map(|s| s.latency.request_first_byte.count())
                .sum();
            assert_eq!(shard_total, REQUESTS);
            assert_eq!(stats.latency.request_first_byte.count(), REQUESTS);
            assert_eq!(stats.latency.chunk_push.count(), 6);
            // Quantiles are readable and ordered.
            let p50 = stats.latency.request_first_byte.p50();
            let p99 = stats.latency.request_first_byte.p99();
            assert!(0 < p50 && p50 <= p99);
            // The pipelined pool ran extensions; their durations are in
            // the merged extension histogram.
            assert!(stats.latency.extension.count() > 0);

            let events = client.trace(1024).unwrap();
            assert!(!events.is_empty());
            assert!(events.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos));
            assert!(events
                .iter()
                .any(|e| e.kind == ironman_telemetry::EventKind::ExtensionEnd));
            assert!(events
                .iter()
                .any(|e| e.kind == ironman_telemetry::EventKind::ChunkPush));
        }
        service.shutdown();
    }

    #[test]
    fn unavailable_gate_declines_with_hint_then_reopens() {
        let service = toy_service(1);
        let mut client = CotClient::connect(service.addr(), "degraded-consumer").unwrap();
        service.set_unavailable_for(Duration::from_secs(30));
        // Serving requests are declined with a usable hint...
        let err = client
            .request_cots_into(8, &mut CotBatch::default())
            .unwrap_err();
        match err {
            ChannelError::Unavailable { retry_after_ms } => {
                assert!((1..=30_000).contains(&retry_after_ms));
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert!(matches!(
            client
                .subscribe(8, 2)
                .unwrap()
                .next_chunk_into(&mut CotBatch::default())
                .unwrap_err(),
            ChannelError::Unavailable { .. }
        ));
        // ...while control ops keep working: a degraded server stays
        // observable, and the decline itself is counted.
        let stats = client.stats().unwrap();
        assert!(stats.unavailable_sent >= 2);
        // The gate reopens on clear and the same session serves again.
        service.clear_unavailable();
        request_verified(&mut client, 8);
        service.shutdown();
    }

    #[test]
    fn armed_faults_fail_typed_and_heal_cleanly() {
        let service = toy_service(1);
        let mut client = CotClient::connect_with(
            service.addr(),
            "corrupted",
            EPOCH_UNAWARE,
            crate::retry::OpTimeouts::uniform(Duration::from_millis(500)),
        )
        .unwrap();
        // Corrupt every read the server performs: the session must fail
        // with a typed error (never a panic, never an unbounded hang).
        // The server's in-flight blocking read passed the fault gate
        // before the plan armed, so the first request may still serve
        // cleanly — keep requesting until a later (corrupted) read kills
        // the session.
        service.set_faults(crate::fault::FaultPlan {
            flip_probability: 1.0,
            ..crate::fault::FaultPlan::default()
        });
        let mut observed = None;
        for _ in 0..50 {
            match client.request_cots_into(8, &mut CotBatch::default()) {
                Ok(_) => continue,
                Err(e) => {
                    observed = Some(e);
                    break;
                }
            }
        }
        let err = observed.expect("a fully corrupted link must surface an error");
        assert!(
            matches!(
                err,
                ChannelError::Service(_)
                    | ChannelError::Malformed { .. }
                    | ChannelError::Io(_)
                    | ChannelError::Disconnected
                    | ChannelError::TimedOut
            ),
            "corrupt link must surface typed, got {err:?}"
        );
        // Heal: new sessions serve normally and the injected faults were
        // counted into the stats surface.
        service.clear_faults();
        let mut healed = CotClient::connect(service.addr(), "healed").unwrap();
        request_verified(&mut healed, 8);
        let stats = service.stats();
        assert!(stats.faults_injected > 0);
        service.shutdown();
    }

    #[test]
    fn blackholed_server_times_out_within_deadline() {
        let service = toy_service(1);
        let deadline = Duration::from_millis(300);
        let mut client = CotClient::connect_with(
            service.addr(),
            "deadline-bound",
            EPOCH_UNAWARE,
            crate::retry::OpTimeouts::uniform(deadline),
        )
        .unwrap();
        service.set_faults(crate::fault::FaultPlan {
            blackhole: true,
            ..crate::fault::FaultPlan::default()
        });
        let started = std::time::Instant::now();
        let err = client
            .request_cots_into(8, &mut CotBatch::default())
            .unwrap_err();
        assert!(matches!(err, ChannelError::TimedOut), "got {err:?}");
        // The call was bounded by the deadline, not the outage.
        assert!(started.elapsed() < deadline + Duration::from_secs(2));
        // Heal before shutdown so the blackholed session thread unblocks.
        service.clear_faults();
        service.shutdown();
    }

    #[test]
    fn stuck_subscriber_is_evicted_within_write_deadline() {
        let service = toy_service(1);
        service.set_subscriber_write_timeout(Duration::from_millis(150));
        let mut client = CotClient::connect(service.addr(), "stuck").unwrap();
        let max = client.max_request();
        // Subscribe with a deep grant and then never read a byte: the
        // server pushes until the socket buffers fill, its write deadline
        // fires, and the session is evicted via tracked close.
        client
            .ch
            .send_bytes(
                Request::Subscribe {
                    batch: max,
                    credits: 10_000,
                }
                .encode(),
            )
            .unwrap();
        client.ch.flush().unwrap();
        let started = std::time::Instant::now();
        while service.stats().subscribers_evicted == 0 {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "subscriber never evicted"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = service.stats();
        assert_eq!(stats.subscribers_evicted, 1);
        // The eviction released the dead stream's promised backlog.
        assert_eq!(stats.pending_stream_cots, 0);
        // Only completed writes count as served: the pool handed out
        // exactly one chunk more than reached the socket — the one whose
        // write timed out.
        let taken: u64 = stats.shard_stats.iter().map(|s| s.taken).sum();
        assert_eq!(taken - stats.cots_served, max);
        // Other sessions are untouched.
        let mut healthy = CotClient::connect(service.addr(), "healthy").unwrap();
        request_verified(&mut healthy, 8);
        service.shutdown();
    }

    #[test]
    fn stats_never_wait_on_a_blocked_chunk_write() {
        // A deep-credit subscriber drains chunks one at a time and scrapes
        // `Stats` — in process and over a second session — between them.
        // The server's push loop writes each chunk under the shard lock,
        // and while the consumer is busy scraping, that write can block on
        // a full socket. A scrape that waited for the lock would wait for
        // the write, the write for the consumer, and the consumer for the
        // scrape, until the write deadline evicted the subscriber.
        let service = toy_service(1);
        service.set_subscriber_write_timeout(Duration::from_secs(1));
        let mut consumer = CotClient::connect(service.addr(), "consumer").unwrap();
        let mut scraper = CotClient::connect(service.addr(), "scraper").unwrap();
        let max = consumer.max_request();
        consumer
            .ch
            .send_bytes(
                Request::Subscribe {
                    batch: max,
                    credits: 10_000,
                }
                .encode(),
            )
            .unwrap();
        consumer.ch.flush().unwrap();
        let mut frame = Vec::new();
        let mut slowest = Duration::ZERO;
        let started = std::time::Instant::now();
        while started.elapsed() < Duration::from_millis(2500) {
            if consumer.ch.recv_bytes_into(&mut frame).is_err() {
                break; // evicted: the assertions below say so
            }
            let call = std::time::Instant::now();
            service.stats();
            let in_process = call.elapsed();
            let call = std::time::Instant::now();
            scraper.stats().unwrap();
            slowest = slowest.max(in_process).max(call.elapsed());
        }
        assert!(
            slowest < Duration::from_millis(200),
            "a Stats call took {slowest:?}"
        );
        assert_eq!(service.stats().subscribers_evicted, 0);
        service.shutdown();
    }

    #[test]
    fn client_shutdown_request_stops_server() {
        let service = toy_service(1);
        let addr = service.addr();
        // An idle session must not keep the server alive past a shutdown
        // request: the sweep kicks its blocked read.
        let mut idle = CotClient::connect(addr, "idle").unwrap();
        let client = CotClient::connect(addr, "admin").unwrap();
        client.shutdown_server().unwrap();
        service.shutdown(); // idempotent: already stopping
        assert!(CotClient::connect(addr, "late").is_err());
        assert!(idle.request_cots_into(8, &mut CotBatch::default()).is_err());
    }
}
