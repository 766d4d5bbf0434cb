//! # `ironman-net` — real networked transports and the COT service layer
//!
//! Everything else in this workspace speaks through the abstract
//! [`Transport`](ironman_ot::channel::Transport) trait; this crate makes
//! that trait real over the operating system's sockets and adds a serving
//! substrate on top, so the workspace can hand correlations to processes
//! that are not in this address space:
//!
//! * [`frame`] — the length-prefixed, versioned wire codec and the
//!   magic/version handshake.
//! * [`transport`] — [`TcpTransport`] / `UnixTransport`: buffered,
//!   write-coalescing socket transports with exact byte/round accounting.
//!   Every protocol in `ironman-ot` (IKNP, SPCOT, FERRET) runs over them
//!   unmodified.
//! * [`proto`] — the request/response protocol of the COT service:
//!   one-shot (`Hello`, `RequestCot{n}`, `Stats`, `Shutdown`), the v2
//!   streaming mode (`Subscribe{batch, credits}`, `Credit{n}`,
//!   `Unsubscribe` answered by pushed `CotChunk`s and a `StreamEnd`
//!   accounting trailer) with credit-based backpressure, and the
//!   membership ops (the `WrongEpoch` fence and `Gossip{from, vector}`
//!   answered by `GossipDelta`).
//! * [`service`] — [`CotService`]: a thread-per-connection server over a
//!   mutex-sharded [`SharedCotPool`](ironman_ot::SharedCotPool) that
//!   replenishes via FERRET extension on demand, optionally attached to
//!   an epoch-versioned membership [`DirectoryView`].
//! * [`client`] — [`CotClient`], one session against a service, and
//!   [`CotSubscription`] (the client half of a stream: it manages the
//!   credit window and enforces exact chunk/credit/byte accounting).
//!
//! One process serving many sockets is the smallest deployment; the
//! fleet-shaped one — an epoch-versioned membership directory of these
//! services with client-side consistent-hash routing, gossip-driven
//! failure detection, failover, and per-server pool warm-up — lives in
//! `ironman-cluster`
//! and speaks exactly this protocol:
//!
//! ```text
//!   ClusterClient ──┬─> CotService ──┐ DirectoryView (epoch fence,
//!   (routing,       ├─> CotService ──┤  membership deltas; the cluster
//!    failover,      └─> CotService ──┘  crate's Directory implements it)
//!    epoch resync)
//! ```
//!
//! # The hot path: the vectored-write contract
//!
//! Correlation payloads cross this crate with **zero serialization
//! copies** of their bulk: a request borrows the pool shard's queued
//! batches as one or two [`CotSlice`](ironman_ot::CotSlice) runs
//! ([`SharedCotPool::take_with_shard`](ironman_ot::SharedCotPool::take_with_shard);
//! two when the take crosses a batch boundary) and the server
//! scatter-gathers the response onto the socket with one
//! `write_vectored` loop ([`StreamTransport::send_frame_parts`]). The
//! frame is split into parts — a fixed-size *head* (length prefix
//! reserved by [`frame::begin_frame`], opcode, `delta`, the total `n`),
//! each run's `z` then each run's `y` block run **aliased straight from
//! pool storage** (on little-endian targets
//! [`Block::wire_bytes`](ironman_prg::Block::wire_bytes) is a pointer
//! cast), and a *tail* of the runs' choice bits packed as one — by
//! [`proto::encode_cot_runs_split`], then
//! [`frame::finish_frame_with_tail`] patches the length prefix to cover
//! them all: four parts for one run, six for two, and the same bytes as
//! one contiguous batch either way. Batch frames go out only this way;
//! control frames are encoded whole into the session's frame buffer and
//! sent with [`StreamTransport::send_frame`]. The contiguous batch
//! encoders ([`proto::encode_cot_batch_into`] and its
//! `encode_cots_into` / `encode_cot_chunk_into` wrappers) are on no
//! serving path: they back [`proto::Response::encode`], are the
//! reference the split encoders are tested against byte for byte, and
//! build the frame `benchmark/`'s decode stage times. Because the
//! gather references the pool's batches, the write happens while the
//! shard's take is still borrowed — i.e. under the shard lock, for as
//! long as the consumer's socket makes it block.
//! Nothing but another take waits on that lock: the lock-stealing router
//! keeps concurrent clients on other shards, and a `Stats` reply reads
//! each shard's counters from its lock-free
//! [`SessionTelemetry`](ironman_ot::session::SessionTelemetry) instead.
//! `cots_served` goes up before the write and back down if it fails, so
//! a scrape never lags a delivered batch, and once pushes settle
//! `Σ taken − cots_served` is exactly what was taken and never delivered.
//! On the client every receive lands in a caller-retained batch: the
//! one-shot [`CotClient::request_cots_into`] and the stream's
//! [`CotSubscription::next_chunk_into`] are the only receive calls, and
//! they mirror the split: [`proto::recv_response_into`] reads a batch frame's
//! head into the session's retained frame buffer, checks its `n` against
//! the frame length, then reads `z` and `y` from the socket **straight
//! into** the caller-retained [`CotBatch`](ironman_ot::CotBatch)'s
//! block storage ([`Block::fill_from_le_bytes`](ironman_prg::Block::fill_from_le_bytes)
//! is the receive-side view) — one copy, kernel → batch — and only the
//! packed choice bits into the frame buffer. Control frames, and a batch
//! frame whose length disagrees with its count, are read whole and
//! decoded by [`proto::decode_response_into`].
//!
//! Ownership rules:
//!
//! * **Server scratch buffers** belong to the session thread. Each
//!   session keeps one frame buffer, reused by every response; batch
//!   responses additionally retain a bit-tail buffer. Every send
//!   completes its socket write before returning, so the next response
//!   may overwrite the frame and pool borrows never outlive the take.
//! * **The client frame buffer** belongs to the `CotClient` and holds a
//!   batch frame's head and bit tail only (a control frame whole); it is
//!   valid between a receive and the next call on the same session.
//! * **Caller-retained batches** (the `*_into` targets) are resized and
//!   overwritten on every call (a no-op resize for a same-size batch);
//!   on error their contents are unspecified.
//!   Consumers that keep a batch past the next call clone it.
//!
//! Steady state therefore allocates nothing per request on either side,
//! and the claim is *observable*, not just benchmarked: the service
//! counts scratch-buffer reuse hits vs. growths per response
//! ([`ServiceStats::scratch_reuses`] / [`ServiceStats::scratch_allocs`]),
//! readable from any session via a `Stats` request. `benchmark/` times
//! each stage at Table-4 scale: `core.take_ns_per_cot`,
//! `net.encode_ns_per_cot`, `net.decode_ns_per_cot`,
//! `net.rtt_1cot_p50_us`, and the `serve_burst` /
//! `serve_stream` workloads for the whole pipe.
//!
//! # Wire format
//!
//! A connection begins with one symmetric 6-byte handshake; every message
//! after it is a length-prefixed frame:
//!
//! ```text
//! handshake   +--------------------+----------------+
//! (once)      | magic "IRNM" (4 B) | version u16 LE |
//!             +--------------------+----------------+
//!
//! frame       +---------------+==========================+
//! (repeated)  | len u32 LE    | payload (len bytes)      |
//!             +---------------+==========================+
//! ```
//!
//! **Versioning rules:** the version is bumped on any incompatible change
//! to the frame layout or the `proto` opcodes; peers advertising
//! different versions refuse the connection during the handshake instead
//! of misparsing frames. Version **2** added the streaming subscription
//! opcodes and the per-shard `Stats` reply layout; version **3** added
//! the hot-path observability counters (scratch reuse/allocation,
//! registration failures) to the `Stats` reply; version **4** added
//! dynamic-membership epochs — see below; version **5** added the
//! per-shard raw-supply pressure counters (`session_extensions` /
//! `session_stalls`) so an extension-bound shard is distinguishable
//! from a serving-bound one; version **6** added the latency histogram
//! snapshots to the `Stats` reply and the `Trace`/`TraceDump` event-log
//! ops — see *Telemetry (v6)* below; version **7** added the server's
//! monotonic `uptime_nanos` to the `Stats` reply — see *Observability
//! plane (v7)* below; version **8** added graceful degradation — the
//! `Unavailable{retry_after_ms}` decline and the robustness counters
//! (evicted subscribers, unavailable declines, injected faults) in the
//! `Stats` reply — see *Deadlines, retries & fault injection (v8)*
//! below; version **9** added directory replication — the
//! `Gossip`/`GossipDelta` anti-entropy exchange, per-origin stamps and
//! epoch vectors on membership records, the pushed `DrainHandoff`, and
//! the server's replica epoch in the `Stats` reply — see *Directory
//! replication (v9)* below. **Hardening:** frames above
//! [`frame::MAX_FRAME_LEN`] (1 GiB) are rejected before allocation,
//! truncation and bad magic are errors (never panics), and a session that
//! sends garbage gets an error response and its connection — only its
//! connection — closed.
//!
//! Payload-byte accounting is identical to the in-process
//! `LocalChannel`, so a protocol run over TCP reports the same
//! `bytes_sent`; the real wire adds exactly 4 bytes per message plus the
//! 6-byte handshake (see [`StreamTransport::wire_bytes_sent`]).
//!
//! # Membership epochs (v4)
//!
//! A server attached to a [`DirectoryView`] carries an epoch-versioned
//! view of its fleet's membership; the epoch increases monotonically on
//! every join/leave/drain/suspect transition. The protocol keeps clients'
//! routing views honest:
//!
//! * `Hello{name, epoch}` announces the client's directory epoch
//!   ([`EPOCH_UNAWARE`] opts plain clients out entirely — they are never
//!   fenced); `Welcome{…, epoch}` answers with the server's.
//! * A correlation-serving request (`RequestCot`/`Subscribe`) made under
//!   a stale epoch is **fenced** with `WrongEpoch{epoch}` instead of
//!   served: the client's view predates a membership change, and serving
//!   it could hide a drain or route work to a corpse. Control ops
//!   (`Stats`, `Gossip`, `Shutdown`) are never fenced.
//! * `Gossip{from, vector}` answers with `GossipDelta{epoch, vector,
//!   members}` — every record the client's per-origin epoch vector does
//!   not cover, each at its latest state (`Left` records are removal
//!   tombstones). After the pull the session is current and passes the
//!   fence until the directory moves again. Replicas converge through
//!   the same exchange (see [`proto`]'s replication section).
//! * Refill is server-local (since v11 no op refills a pool over the
//!   wire); the `Stats` reply's `pending_stream_cots` backlog and
//!   per-shard demand/refill counters are how it is observed.
//!
//! # Where a `Stats` counter is declared
//!
//! Every `u64` counter of the `Stats` reply is written once, in wire
//! order, in one table in `proto.rs` (one for [`ServiceStats`], one for
//! [`ShardStat`]). A row names the field, documents it and, when the
//! counter is exported, gives its `/metrics` family: name, type and help
//! text. The struct fields, the reply's encode and decode and the
//! exported families ([`ServiceStats::METRICS`], which `ironman-cluster`'s
//! exporter renders per server) all come from that table. Adding a
//! counter takes two steps:
//!
//! 1. a row in the table;
//! 2. its producer: the value [`CotService`]'s snapshot puts in the field.
//!    A service-owned count is an atomic in the service's counters plus
//!    the site that bumps it; a derived one (a sum over shards, the
//!    uptime) is computed where the snapshot is taken.
//!
//! The latency histograms ([`LatencyStats`]) are still listed by hand.
//!
//! # Telemetry (v6)
//!
//! Wire version 6 makes the serving stack's *latency distributions*
//! observable, not just its counters. Every `Stats` reply carries four
//! log-bucketed histogram snapshots per shard and merged service-wide
//! ([`proto::LatencyStats`]): request→first-byte for one-shot requests,
//! per-chunk push latency for streams, FERRET extension wall time, and
//! consumer-stall time (how long drains blocked on the extension
//! pipeline). A new `Trace{max_events}` / `TraceDump` pair returns the
//! server's recent event ring — extension start/end (with the SPCOT/LPN
//! phase split packed into the end event's argument), stall start/end,
//! chunk pushes, credit waits, epoch fences — merged by timestamp across
//! the service and every pool shard.
//!
//! Two contracts make this usable in production:
//!
//! * **Overhead.** Recording is lock-free and allocation-free: one
//!   relaxed atomic increment per histogram sample, a bounded ring behind
//!   a short mutex for trace events, and *zero* work — including the
//!   clock reads, since `Stopwatch` becomes a ZST — when the
//!   `ironman-telemetry/noop` feature compiles telemetry out. CI runs the
//!   serving hot path head-to-head in both configurations and fails if
//!   the instrumented build falls more than 3% below the no-op one
//!   (`telemetry_overhead` in `crates/bench`, run by `scripts/ci.sh`).
//! * **Quantile error.** Histograms bucket values at 16 sub-buckets per
//!   octave: quantiles read from a snapshot (p50/p90/p99/p999) are upper
//!   bucket bounds within 6.25% of the true sample quantile (exact below
//!   32 ns), the recorded maximum is exact, and merging snapshots —
//!   shards into a service, servers into a fleet — never moves a merged
//!   quantile outside the range its inputs span.
//!
//! The fleet-level roll-up (scraping every member's `Stats` on the
//! gossip cadence and merging into one `FleetSnapshot`) lives in
//! `ironman-cluster`'s `FleetObserver`.
//!
//! # Observability plane (v7)
//!
//! Wire version 7 turns the v6 raw telemetry into an operable plane.
//! The wire change itself is one field — [`ServiceStats::uptime_nanos`],
//! the server's *monotonic* age. Everything a scraper derives over a
//! window (rates from cumulative counters, windowed histograms via
//! `HistogramSnapshot::delta`) needs restart detection: a later scrape
//! whose uptime went *down* proves the counters restarted from zero, so
//! the deriver degrades to a since-restart rate instead of a negative
//! one.
//!
//! The plane built on top (in `ironman-cluster`, serving through this
//! crate's [`http`] module — a hand-rolled HTTP/1.0 endpoint with a
//! nonblocking accept loop, in the same no-crates.io vendored style as
//! the rest of the workspace):
//!
//! * **Exporter format.** `GET /metrics` answers Prometheus text
//!   exposition (`text/plain`): each family is one group, its
//!   `# HELP`/`# TYPE` comment pair followed by all of its
//!   `family{label="value"} number` samples. Families are prefixed
//!   `ironman_`; per-server samples carry a `server="<id>"` label;
//!   cumulative counters end in `_total`; windowed gauges state their
//!   window in a `window` label. `GET /fleet` renders the same snapshot
//!   as a human-readable page.
//! * **SLO spec grammar.** An SLO is `(name, objective, windows)` where
//!   the objective is one of `ChunkPushP99 { max_nanos }` (windowed p99
//!   of the chunk-push histogram must stay under the bound),
//!   `SupplyRate { min_cots_per_sec }` (fleet COT supply derived from
//!   extension counters must stay above the floor), or
//!   `StallRatio { max_ratio }` (windowed consumer-stall time per second
//!   of wall time must stay under the bound). Evaluation is multi-window
//!   burn-rate: a violation over the *fast* window (default 5 s) arms
//!   the alert (`pending`); the *slow* window (default 60 s) agreeing
//!   promotes it to `firing`; both windows staying clear for a
//!   hysteresis interval resolves it. Short-lived spikes never fire,
//!   real burns fire within the fast window, and flapping cannot
//!   re-fire through hysteresis.
//! * **Headroom semantics.** For each server the exporter feeds live
//!   `Stats` into the perf crate's roofline + network models to get a
//!   *predicted* supply ceiling (COTs/s at the machine's memory-bandwidth
//!   bound, optionally capped by the modeled link), and derives the
//!   *measured* supply rate from windowed extension counters. Exported
//!   gauges: `predicted` (the model), `utilization` = measured/predicted
//!   (how close to the modeled ceiling the server runs), and `drift` =
//!   measured − predicted headroom error, which is the model-validation
//!   signal: sustained utilization near 1.0 with positive drift means
//!   the model under-predicts; utilization far below 1.0 under load
//!   means the fleet is serving-bound, not extension-bound.
//!
//! # Deadlines, retries & fault injection (v8)
//!
//! Wire version 8 chaos-hardens the serving stack. Three planes, one
//! contract: every failure mode is *typed, bounded, and observable*.
//!
//! * **Deadlines.** Every data-path session is born with
//!   [`OpTimeouts`] deadlines — connect, read, and write all bounded
//!   (defaults via [`CotClient::connect`]; explicit via
//!   [`CotClient::connect_with`]). An expired deadline
//!   surfaces as the typed `ChannelError::TimedOut`, distinct from hard
//!   IO errors, so failover logic can treat "slow" differently from
//!   "gone". Server-side, session sockets carry a write deadline (the
//!   slow-consumer guard): a subscriber that stops draining its pushes
//!   is **evicted via tracked close** within the deadline — counted
//!   ([`ServiceStats::subscribers_evicted`]), traced
//!   (`SubscriberEvicted`), and without disturbing other streams.
//! * **Retries.** [`RetryPolicy`] yields exponential backoff with
//!   decorrelated jitter from a seeded PRNG (deterministic under test,
//!   desynchronized in a fleet), and [`RetryBudget`] is a token bucket
//!   that bounds retry volume — when the budget is dry, failures
//!   propagate instead of amplifying an outage into a retry storm.
//!   `ironman-cluster`'s `ClusterClient` wires both into its failover
//!   sweep.
//! * **Graceful degradation.** A supply-starved server closes its gate
//!   ([`CotService::set_unavailable_for`]) and answers serving requests
//!   with `Unavailable{retry_after_ms}` — a machine-usable hint, not a
//!   hang or a hard error; control ops keep working so the degraded
//!   server stays observable. Clients surface it as
//!   `ChannelError::Unavailable` and honor the hint as a cooldown.
//! * **Fault injection.** [`FaultPlan`] / [`FaultInjector`] /
//!   [`FaultyStream`] inject seeded, deterministic faults *under* the
//!   framing layer: added latency, stalls, partial writes, connection
//!   resets at byte N, bit-flipped reads, blackhole-after-accept. Every
//!   server session is wrapped (transparent while disarmed: one relaxed
//!   atomic load per buffered I/O call), so a chaos schedule can corrupt
//!   and heal **live** links mid-session; injected faults are counted
//!   into [`ServiceStats::faults_injected`] and traced (`FaultInjected`).
//!
//! # Directory replication (v9)
//!
//! Through v8 a fleet's membership lived in **one** in-process
//! directory that every server shared. Wire version 9 gives each server
//! its *own* replica and makes the replicas converge over this
//! protocol, so membership survives process and network boundaries:
//!
//! * **Stamped records.** Every [`MemberRecord`] carries a last-writer
//!   stamp — `origin` (the replica that wrote it) and a per-origin
//!   Lamport `version` — plus its routing `weight` and `addr`/`name`.
//!   [`DirectoryDelta`] carries the sender's per-origin epoch `vector`
//!   alongside the scalar epoch. The merge rule is deterministic on
//!   every replica: higher version wins, ties go to the lower origin,
//!   removals persist as tombstones, and an unknown record already
//!   covered by the receiver's vector is rejected rather than
//!   resurrected.
//! * **Anti-entropy pull.** `Gossip{from, vector}` presents a replica's
//!   epoch vector; the answer `GossipDelta(delta)` contains exactly the
//!   records that vector does not cover, never a full-snapshot claim —
//!   anti-entropy merges record by record so concurrent writes on the
//!   receiver survive. Each server pulls every peer once per sweep over a
//!   cached session (`ironman-cluster`'s `Gossiper`, whose pulls double as
//!   the failure detector's probes); a client can present
//!   `from = u64::MAX` to sync its routing view without announcing
//!   itself. After a gossip exchange the session is epoch-current, like
//!   a v4 `Sync`.
//! * **Membership writes** stay local to a replica and spread by being
//!   pulled: joins self-announce (a member that finds its own record
//!   evicted re-announces over the tombstone with a winning stamp),
//!   evictions are gated on a leader lease (lowest live id), and
//!   conflicting writes from a partition resolve by the stamp rule the
//!   moment the islands can pull from each other again.
//! * **Drain handoff.** A draining server pushes `DrainHandoff{id,
//!   addr, name}` — its ring successor for the subscriber's session —
//!   once per subscription, costing no credits. The client fails over
//!   to the named successor directly instead of burning a probe on
//!   rediscovery.
//! * **Gossip lag.** `Stats` carries the serving replica's
//!   [`ServiceStats::directory_epoch`] so observers can chart gossip
//!   lag as the spread between replicas' epochs.
//!
//! # Quickstart
//!
//! ```
//! use ironman_net::{CotClient, CotService, CotServiceConfig};
//! use ironman_ot::ferret::FerretConfig;
//! use ironman_ot::params::FerretParams;
//! use ironman_ot::CotBatch;
//!
//! let ferret = FerretConfig::new(FerretParams::toy());
//! let service = CotService::serve("127.0.0.1:0", &ferret, CotServiceConfig::default()).unwrap();
//!
//! let mut client = CotClient::connect(service.addr(), "ppml-worker-0").unwrap();
//! // One batch, retained across calls: every receive reuses its storage.
//! let mut batch = CotBatch::default();
//! client.request_cots_into(1024, &mut batch).unwrap();
//! batch.verify().unwrap();
//! // A credit-controlled stream lands in the same batch, chunk by chunk.
//! let mut stream = client.subscribe(256, 4).unwrap();
//! while stream.next_chunk_into(&mut batch).unwrap() {
//!     batch.verify().unwrap();
//! }
//! assert_eq!(stream.finish().unwrap().cots, 4 * 256);
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod frame;
pub mod http;
pub mod proto;
pub mod retry;
pub mod service;
pub mod transport;

pub use client::{CotClient, CotSubscription, StreamSummary};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultyStream};
pub use frame::{FrameError, MAGIC, MAX_FRAME_LEN, VERSION};
pub use http::{http_get, HttpRequest, HttpResponse, HttpServer};
pub use proto::{
    DirectoryDelta, LatencyStats, MemberRecord, MemberWireState, Request, Response, ServiceStats,
    ShardStat, EPOCH_UNAWARE,
};
pub use retry::{OpTimeouts, RetryBudget, RetryPolicy};
pub use service::{CotService, CotServiceConfig, DirectoryView};
#[cfg(unix)]
pub use transport::UnixTransport;
pub use transport::{tcp_loopback_pair, StreamTransport, TcpTransport};
