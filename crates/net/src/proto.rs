//! The COT service's request/response protocol.
//!
//! One request frame, one response frame, both `opcode || fields` with
//! little-endian integers. Blocks are 16-byte little-endian; bit vectors
//! use the same `encode_bits` framing as every transport helper, so a
//! message parses identically whether it crossed a socket or an
//! in-process channel.
//!
//! ```text
//! requests                              responses
//! 0x01 Hello     { name: lp-bytes,      0x81 Welcome   { version: u16, max_request: u64,
//!                  epoch: u64 }                          epoch: u64 }
//! 0x02 Request   { n: u64 }             0x82 Cots      { batch }
//! 0x03 Stats                            0x83 Stats     { 15 × u64, latency,
//! 0x04 Shutdown                                          s, s × shard }
//! 0x05 Subscribe { batch: u64,          0x84 Goodbye
//!                  credits: u64 }       0x85 CotChunk  { seq: u64, batch }
//! 0x06 Credit    { n: u64 }             0x86 StreamEnd { chunks: u64, cots: u64 }
//! 0x07 Unsubscribe                      0x87 WrongEpoch{ epoch: u64 }
//! 0x0A Trace     { max_events: u64 }    0x8A TraceDump { e, e × event }
//! 0x0B Gossip    { from: u64,           0x8B Unavail   { retry_after_ms: u64 }
//!                  v, v × vec-entry }   0x8C GossipDelta { delta }
//!                                       0x8D DrainHandoff { id: u64, addr: lp-bytes,
//!                                                           name: lp-bytes }
//!                                       0xFF Error     { message: lp-bytes }
//! ```
//!
//! (`lp-bytes` = `u64` length + raw bytes; `batch` = `delta, n, z[n],
//! y[n], bits(x)` with the shared [`ironman_ot::channel::encode_bits`]
//! layout; `shard` =
//! `{avail, ext, taken, warm, sess_ext, sess_stall} × u64 ‖ latency`;
//! `latency` = 4 histogram snapshots (request→first-byte, chunk-push,
//! extension, stall — each `count, sum, max: u64, e: u16, e × {index:
//! u16, count: u64}`); `member` = `{id: u64, state: u8, weight: u32,
//! origin: u64, version: u64, addr: lp-bytes, name: lp-bytes}`;
//! `vec-entry` = `{origin: u64, version: u64}`; `delta` = `{epoch: u64,
//! v, v × vec-entry, m, m × member}`; `event` = `{at: u64, kind: u8,
//! arg: u64}`. `0x08`/`0x88` and `0x09`/`0x89` are unassigned: such a
//! request is answered like any unknown opcode, with `Error` and a
//! dropped session.)
//!
//! # Streaming subscriptions (v2)
//!
//! `Subscribe{batch, credits}` switches the session into streaming mode:
//! the server pushes one `CotChunk{seq, ..}` of `batch` correlations per
//! *credit* and blocks when the granted credits run out. The client
//! extends the stream by sending `Credit{n}` grants (a full-duplex
//! transport lets it do so while chunks are still in flight) and ends it
//! with `Unsubscribe`, which the server acknowledges with a
//! `StreamEnd{chunks, cots}` accounting trailer. Credits are the
//! backpressure: the server can never have more chunks in flight than the
//! client has explicitly granted, so a slow consumer bounds server-side
//! work and socket buffering instead of being buried.
//!
//! # Membership epochs (v4)
//!
//! A fleet-attached server carries an epoch-versioned membership
//! directory. `Hello` announces the client's directory epoch
//! ([`EPOCH_UNAWARE`] opts a plain client out of fencing entirely);
//! `Welcome` answers with the server's. A correlation-serving request
//! (`RequestCot`/`Subscribe`) made under a stale epoch is *fenced* with
//! `WrongEpoch{epoch}` instead of served — the client's routing view is
//! out of date, and serving it could hide a drain or a dead home. The
//! client then pulls what it is missing with `Gossip` (next section),
//! applies it, re-resolves, and retries.
//!
//! # Directory replication (v9)
//!
//! Each server carries its *own* directory replica; replicas converge
//! through pull-based anti-entropy, and a fenced client catches up with
//! the same pull — `Gossip`/`GossipDelta` is the only way a membership
//! delta crosses the wire. Every membership record carries a stamp
//! `(origin, version)` naming which replica wrote it and at what
//! per-origin version; a replica's summary of everything it has seen is
//! its *epoch vector* (`origin → highest version`). `Gossip{from,
//! vector}` presents the requester's vector; the responder answers with
//! `GossipDelta` carrying exactly the records whose stamps the vector
//! has not covered (removals travel as [`MemberWireState::Left`]
//! tombstones, never as a snapshot that replaces the receiver's view —
//! that would erase concurrent writes the responder hasn't seen). The
//! merge rule is last-writer-wins on the stamp: higher `version` wins,
//! ties break to the *lower* `origin` — deterministic, commutative, and
//! idempotent, so any gossip order converges every replica to the same
//! membership.
//! `DrainHandoff{id, addr, name}` is a server-initiated push inside an
//! active subscription: a draining server names the session's ring
//! successor so the client fails over directly, spending zero extra
//! roundtrips discovering where its stream went.

use crate::transport::StreamTransport;
use ironman_ot::channel::{decode_bits_into, encode_bits_into, ChannelError};
use ironman_ot::{CotBatch, CotSlice};
use ironman_prg::Block;
use ironman_telemetry::{EventKind, HistogramSnapshot, TraceEvent};
use std::io::{Read, Take, Write};

/// The `Hello.epoch` value of a client with no directory: such sessions
/// are never epoch-fenced (they opted out of membership routing, so
/// there is no stale view to protect them from).
pub const EPOCH_UNAWARE: u64 = u64::MAX;

/// Client → server messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Opens a session (client self-identification, for server logs/stats).
    Hello {
        /// Client display name.
        name: String,
        /// The client's directory epoch ([`EPOCH_UNAWARE`] for clients
        /// without a membership view; they are never fenced).
        epoch: u64,
    },
    /// Asks for `n` fresh correlations.
    RequestCot {
        /// Batch size.
        n: u64,
    },
    /// Asks for a service statistics snapshot.
    Stats,
    /// Asks the server to stop accepting new sessions and exit.
    Shutdown,
    /// Opens a credit-controlled stream of correlation chunks.
    Subscribe {
        /// Correlations per pushed [`Response::CotChunk`].
        batch: u64,
        /// Initial credit grant (chunks the server may push immediately).
        credits: u64,
    },
    /// Grants `n` further chunk credits to the active subscription.
    Credit {
        /// Additional chunks the server may push.
        n: u64,
    },
    /// Ends the active subscription; the server answers with
    /// [`Response::StreamEnd`] once it has stopped pushing.
    Unsubscribe,
    /// Asks for the server's recent trace events (v6): the service-level
    /// and per-shard trace rings merged by timestamp; answered with
    /// [`Response::TraceDump`].
    Trace {
        /// Largest number of events the reply may carry (the newest are
        /// kept; a server-side cap applies on top).
        max_events: u64,
    },
    /// Anti-entropy pull (v9): presents the requester's per-origin epoch
    /// vector; answered with [`Response::GossipDelta`] carrying every
    /// membership record the vector has not covered.
    Gossip {
        /// The requesting replica's server id (its stamp origin).
        from: u64,
        /// The requester's epoch vector: `(origin, highest version
        /// seen)`, ascending by origin.
        vector: Vec<(u64, u64)>,
    },
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Session accepted.
    Welcome {
        /// Server wire version.
        version: u16,
        /// Largest `RequestCot::n` one request may carry.
        max_request: u64,
        /// The server's directory epoch (0 when the server carries no
        /// membership directory).
        epoch: u64,
    },
    /// A correlation batch (trusted-dealer style: both endpoints' shares).
    Cots(CotBatch),
    /// Service statistics snapshot (boxed: the v7 stats header plus
    /// four histograms dwarf every hot variant, and `Stats` is off the
    /// serving path).
    Stats(Box<ServiceStats>),
    /// Acknowledges a shutdown; the connection closes after this.
    Goodbye,
    /// One pushed chunk of an active subscription.
    CotChunk {
        /// Zero-based chunk sequence number within the subscription.
        seq: u64,
        /// The correlations (same layout as [`Response::Cots`]).
        batch: CotBatch,
    },
    /// Accounting trailer ending a subscription.
    StreamEnd {
        /// Chunks pushed over the subscription's lifetime.
        chunks: u64,
        /// Correlations pushed over the subscription's lifetime.
        cots: u64,
    },
    /// The request was fenced: it was made under a directory epoch older
    /// than the server's. Pull the delta ([`Request::Gossip`]),
    /// re-resolve, retry.
    WrongEpoch {
        /// The server's current directory epoch.
        epoch: u64,
    },
    /// The recent event log answering a [`Request::Trace`] (v6).
    TraceDump(
        /// Events in ascending timestamp order, newest last. Timestamps
        /// are the *server's* monotonic nanoseconds — comparable within
        /// one dump, not across servers.
        Vec<TraceEvent>,
    ),
    /// The server is up but degraded (v8; e.g. supply-starved or
    /// administratively browned out) and declined a correlation-serving
    /// request. Unlike [`Response::Error`], this carries a machine-usable
    /// retry hint so clients back off instead of hammering.
    Unavailable {
        /// Suggested minimum wait before retrying this server, in
        /// milliseconds.
        retry_after_ms: u64,
    },
    /// The anti-entropy delta answering a [`Request::Gossip`] (v9):
    /// every record whose stamp the requester's vector had not covered,
    /// plus the responder's own vector.
    GossipDelta(DirectoryDelta),
    /// A server-initiated push inside an active subscription (v9): this
    /// server is draining and the named member is the session's ring
    /// successor. The client should finish the stream there; the push
    /// consumes no credit and carries no chunk.
    DrainHandoff {
        /// The successor's stable server id.
        id: u64,
        /// The successor's listening address.
        addr: String,
        /// The successor's display name.
        name: String,
    },
    /// The request could not be served.
    Error(
        /// Human-readable reason.
        String,
    ),
}

/// A fleet member's state as carried on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberWireState {
    /// Serving and routable.
    Up,
    /// Finishing existing sessions; receives no new homes.
    Draining,
    /// Failed recent gossip pulls; deprioritized for routing.
    Suspect,
    /// Removed from the membership (only meaningful inside a delta).
    Left,
}

impl MemberWireState {
    fn to_u8(self) -> u8 {
        match self {
            MemberWireState::Up => 0,
            MemberWireState::Draining => 1,
            MemberWireState::Suspect => 2,
            MemberWireState::Left => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ChannelError> {
        Ok(match v {
            0 => MemberWireState::Up,
            1 => MemberWireState::Draining,
            2 => MemberWireState::Suspect,
            3 => MemberWireState::Left,
            other => return Err(malformed(3, other as usize)),
        })
    }
}

/// One fleet member (or membership change) inside a
/// [`DirectoryDelta`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberRecord {
    /// Stable server id (assigned at join; survives state changes).
    pub id: u64,
    /// The member's state at the delta's epoch.
    pub state: MemberWireState,
    /// Relative ring weight (v9): a weight-`w` member takes `w×` the
    /// base member's share of virtual ring nodes. 1 for homogeneous
    /// fleets; 0 decodes but is clamped up by the directory.
    pub weight: u32,
    /// Stamp origin (v9): the replica (server id) that wrote this
    /// record's current value. [`u64::MAX`] for unattributed writers
    /// (plain clients), which lose every stamp tie.
    pub origin: u64,
    /// Stamp version (v9): the writing origin's per-origin mutation
    /// counter at write time. Higher version wins a merge; equal
    /// versions break to the lower origin.
    pub version: u64,
    /// Listening address, as a parseable socket-address string.
    pub addr: String,
    /// Display name.
    pub name: String,
}

/// A membership update: every record the requester's epoch vector did
/// not cover, merged by the receiver one record at a time
/// ([`MemberWireState::Left`] records are removal tombstones).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectoryDelta {
    /// The epoch this update brings the receiver to.
    pub epoch: u64,
    /// The sender's per-origin epoch vector, ascending by origin; a
    /// receiver folds it in by pointwise maximum.
    pub vector: Vec<(u64, u64)>,
    /// The records the requester had not seen.
    pub members: Vec<MemberRecord>,
}

/// One exported row of a counter table ([`ServiceStats::METRICS`]): the
/// Prometheus family it feeds and how to read its value from a snapshot.
#[derive(Clone, Copy, Debug)]
pub struct CounterMetric<S> {
    /// Family name.
    pub name: &'static str,
    /// Prometheus type: `counter` or `gauge`.
    pub kind: &'static str,
    /// The family's `# HELP` text.
    pub help: &'static str,
    /// The sample value, in the family's unit.
    pub value: fn(&S) -> f64,
}

/// Declares a `Stats` struct whose `u64` counters are written once, in
/// wire order, and derives from that one list the struct's fields, the
/// counters' encode and decode, and the struct's `METRICS` catalogue.
/// A row is `field` or `field => kind "family" [/ divisor]: "help"` for
/// an exported one (the sample is `field / divisor`). The fields after
/// the `counters` group are declared as written and coded by hand.
macro_rules! counters {
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            counters {
                $(
                    $(#[$fattr:meta])*
                    $field:ident $(=> $kind:ident $metric:literal $(/ $per:literal)?: $help:literal)?,
                )*
            }
            $($(#[$tattr:meta])* pub $tail:ident: $tty:ty,)*
        }
    ) => {
        $(#[$attr])*
        pub struct $name {
            $($(#[$fattr])* pub $field: u64,)*
            $($(#[$tattr])* pub $tail: $tty,)*
        }

        impl $name {
            /// The counters exported to `/metrics`, in wire order.
            pub const METRICS: &'static [CounterMetric<$name>] = &[$($(CounterMetric {
                name: $metric,
                kind: stringify!($kind),
                help: $help,
                value: |s| s.$field as f64 $(/ $per)?,
            },)?)*];

            /// Wire bytes of the counters.
            const COUNTERS_LEN: usize = 8 * [$(stringify!($field)),*].len();

            fn encode_counters(&self, out: &mut Vec<u8>) {
                out.reserve(Self::COUNTERS_LEN);
                $(out.extend_from_slice(&self.$field.to_le_bytes());)*
            }

            /// The counters, with every later field at its default.
            fn decode_counters(r: &mut Reader<'_>) -> Result<$name, ChannelError> {
                Ok($name {
                    $($field: r.u64()?,)*
                    ..$name::default()
                })
            }
        }
    };
}

counters! {
    /// A point-in-time view of the service's counters.
    ///
    /// The counters are declared once, in wire order, in the table below:
    /// it gives each its field, its place in the `Stats` reply and, when
    /// exported, its `/metrics` family ([`ServiceStats::METRICS`]). Adding
    /// a counter takes two steps: a row here, and its producer in
    /// [`CotService`](crate::CotService)'s snapshot (for a service-owned
    /// count, an atomic in its counters and the site that bumps it).
    ///
    /// The aggregate fields (`available`, `extensions_run`, `shards`) are the
    /// server's own sums over `shard_stats`, carried denormalized for cheap
    /// consumption; the decoder does not re-derive or cross-check them, so a
    /// misbehaving server could send disagreeing values — treat `shard_stats`
    /// as the source of truth when both are read.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ServiceStats {
        counters {
            /// Sessions accepted since start.
            clients_served,
            /// Correlations handed out since start.
            cots_served => counter "ironman_server_cots_served_total":
                "Correlations handed out since server start.",
            /// FERRET extensions executed across all pool shards.
            extensions_run => counter "ironman_server_extensions_total":
                "FERRET extensions run since server start.",
            /// Correlations currently buffered across all shards.
            available => gauge "ironman_server_available_cots":
                "Correlations buffered on this server.",
            /// Pool shard count.
            shards,
            /// Refills performed by the warm-up sweep (extensions run *before*
            /// demand arrived, rather than inline on a client's request): the
            /// sum of the per-shard [`ShardStat::warm_refills`] in this reply.
            warmup_refills,
            /// Batch-carrying responses (`Cots`/`CotChunk` — only those; control
            /// and error replies are not counted) served from an already-sized
            /// per-session scratch buffer, i.e. with no allocation between pool
            /// storage and the socket write — the observable half of the
            /// zero-copy claim.
            scratch_reuses,
            /// Batch-carrying responses that had to grow a per-session scratch
            /// buffer (a session's first batches, or a larger batch than any
            /// before it). Steady state is `scratch_allocs ≪ scratch_reuses`.
            scratch_allocs,
            /// Sessions refused because their socket handle could not be
            /// registered for shutdown tracking (`try_clone` failure): serving an
            /// untracked session would leave its thread unreachable at shutdown.
            register_failures,
            /// The server's directory epoch at snapshot time (0 when the server
            /// carries no membership directory) — how tests and operators observe
            /// that a membership change propagated to every survivor.
            directory_epoch => gauge "ironman_server_directory_epoch":
                "The server's own directory-replica epoch at scrape time (v9).",
            /// Correlations promised to active subscriptions but not yet pushed
            /// (granted credits × chunk size, summed over live streams): the
            /// demand backlog an observer sees building on this server.
            pending_stream_cots,
            /// Nanoseconds since this server process constructed its service
            /// (v7) — a *monotonic* age, not wall-clock time. A scraper deriving
            /// rates from the cumulative counters compares uptimes across two
            /// snapshots: a later scrape reporting a *smaller* uptime proves the
            /// process restarted in between, so the counters restarted from
            /// zero and a naive subtraction would go negative.
            uptime_nanos => gauge "ironman_server_uptime_seconds" / 1e9:
                "Monotonic seconds since this server's service constructed.",
            /// Subscribers evicted by the slow-consumer guard (v8): their socket
            /// would not accept a pushed chunk within the service's write
            /// deadline, so the session was closed (tracked, traced) instead of
            /// pinning a serving thread on a zero-window reader.
            subscribers_evicted => counter "ironman_server_subscribers_evicted_total":
                "Stuck streaming subscribers evicted past the push write deadline.",
            /// Correlation-serving requests declined with
            /// [`Response::Unavailable`] while the server was degraded (v8).
            unavailable_sent => counter "ironman_server_unavailable_sent_total":
                "Unavailable{retry_after_ms} declines sent while degraded.",
            /// Faults fired by an attached fault-injection plan (v8; always 0 in
            /// production — the counter proves chaos tests actually injected).
            faults_injected => counter "ironman_server_faults_injected_total":
                "Faults the server's injector fired into its own data path (chaos drills).",
        }
        /// Service-wide latency distributions (v6): the per-shard extension
        /// and stall histograms merged across shards, plus the serving path's
        /// request→first-byte and chunk-push timings (those two are recorded
        /// per shard and merged the same way). Like the aggregate counters,
        /// this is denormalized — the decoder does not cross-check it against
        /// `shard_stats`.
        pub latency: LatencyStats,
        /// Per-shard occupancy and refill counters (in shard order); the
        /// spread across shards is what makes warm-up effectiveness and
        /// routing skew observable from a plain `Stats` request.
        pub shard_stats: Vec<ShardStat>,
    }
}

/// The four serving-path latency distributions carried by a v6 `Stats`
/// reply, each as a compact log-bucketed histogram snapshot (values are
/// nanoseconds; quantiles read from these carry at most the bucket's
/// 6.25% relative error — see `ironman-telemetry`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Request arrival (frame decoded) → first response byte handed to
    /// the transport, for correlation-serving requests.
    pub request_first_byte: HistogramSnapshot,
    /// Per-chunk push latency of streaming subscriptions: pool drain →
    /// chunk bytes handed to the transport.
    pub chunk_push: HistogramSnapshot,
    /// FERRET extension wall time (pipelined session threads and inline
    /// refills both land here).
    pub extension: HistogramSnapshot,
    /// Consumer-stall time: how long pool drains blocked waiting on the
    /// extension pipeline's staging buffer.
    pub stall: HistogramSnapshot,
}

impl LatencyStats {
    /// Smallest wire footprint of one `LatencyStats` (four empty
    /// snapshots).
    pub const ENCODED_MIN_LEN: usize = 4 * ironman_telemetry::ENCODED_MIN_LEN;

    /// Folds `other`'s distributions into `self` (bucket counts add,
    /// maxima take the larger side) — how per-shard and per-server
    /// summaries roll up into service- and fleet-wide ones.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.request_first_byte.merge(&other.request_first_byte);
        self.chunk_push.merge(&other.chunk_push);
        self.extension.merge(&other.extension);
        self.stall.merge(&other.stall);
    }

    /// The windowed difference `self − earlier`, distribution by
    /// distribution (`HistogramSnapshot::delta`): quantiles read from
    /// the result describe only the samples recorded between the two
    /// snapshots. Each histogram independently falls back to its later
    /// cumulative self if the earlier one is not a pointwise lower bound
    /// (the recording process restarted), so counts never go negative.
    pub fn delta(&self, earlier: &LatencyStats) -> LatencyStats {
        LatencyStats {
            request_first_byte: self.request_first_byte.delta(&earlier.request_first_byte),
            chunk_push: self.chunk_push.delta(&earlier.chunk_push),
            extension: self.extension.delta(&earlier.extension),
            stall: self.stall.delta(&earlier.stall),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.request_first_byte.encode_into(out);
        self.chunk_push.encode_into(out);
        self.extension.encode_into(out);
        self.stall.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<LatencyStats, ChannelError> {
        Ok(LatencyStats {
            request_first_byte: r.histogram()?,
            chunk_push: r.histogram()?,
            extension: r.histogram()?,
            stall: r.histogram()?,
        })
    }
}

counters! {
    /// One pool shard's occupancy, demand, and refill counters. The server
    /// reads each from the shard's lock-free counters independently, so two
    /// fields may reflect instants a take apart. None is exported to
    /// `/metrics` yet.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ShardStat {
        counters {
            /// Correlations buffered in this shard, as of its last take or
            /// refill.
            available,
            /// Extensions this shard has executed (inline or warm-up).
            extensions_run,
            /// Correlations drained from this shard since start (demand),
            /// including any whose write then failed: summed over shards, the
            /// excess over [`ServiceStats::cots_served`] never reached a client.
            taken,
            /// Refills this shard received through the warm-up path.
            warm_refills,
            /// Extensions completed by the shard's pipelined FERRET session
            /// threads ahead of demand (0 for inline shards). Interpretation:
            /// this is *supply-side* throughput — it growing while
            /// `session_stalls` stays flat means the extension pipeline is
            /// keeping ahead of demand (serving-bound, the healthy state); read
            /// the two together to tell which side of the shard is bound.
            session_extensions,
            /// Times a drain blocked on the session's staging buffer because it
            /// was empty — the raw-supply pressure signal (v5): a shard whose
            /// `session_stalls` grows under load is extension-bound, not
            /// serving-bound. The v6 `latency.stall` histogram adds *how long*
            /// each of those blocks lasted.
            session_stalls,
        }
        /// This shard's latency distributions (v6); the service-wide
        /// [`ServiceStats::latency`] is the merge of these across shards.
        pub latency: LatencyStats,
    }
}

const OP_HELLO: u8 = 0x01;
const OP_REQUEST_COT: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;
const OP_SUBSCRIBE: u8 = 0x05;
const OP_CREDIT: u8 = 0x06;
const OP_UNSUBSCRIBE: u8 = 0x07;
const OP_TRACE: u8 = 0x0A;
const OP_GOSSIP: u8 = 0x0B;
const OP_WELCOME: u8 = 0x81;
const OP_COTS: u8 = 0x82;
const OP_STATS_REPLY: u8 = 0x83;
const OP_GOODBYE: u8 = 0x84;
const OP_COT_CHUNK: u8 = 0x85;
const OP_STREAM_END: u8 = 0x86;
const OP_WRONG_EPOCH: u8 = 0x87;
const OP_TRACE_DUMP: u8 = 0x8A;
const OP_UNAVAILABLE: u8 = 0x8B;
const OP_GOSSIP_DELTA: u8 = 0x8C;
const OP_DRAIN_HANDOFF: u8 = 0x8D;
const OP_ERROR: u8 = 0xFF;

/// Wire footprint of one [`TraceEvent`] (`at: u64, kind: u8, arg: u64`).
const TRACE_EVENT_LEN: usize = 17;

/// Wire footprint of one epoch-vector entry (`origin: u64, version:
/// u64`).
const VECTOR_ENTRY_LEN: usize = 16;

/// Smallest wire footprint of one [`MemberRecord`] (`id: u64, state: u8,
/// weight: u32, origin: u64, version: u64` plus two empty `lp-bytes`
/// fields).
const MEMBER_RECORD_MIN_LEN: usize = 8 + 1 + 4 + 8 + 8 + 16;

fn put_lp_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ChannelError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| ChannelError::Malformed {
                expected: self.pos.saturating_add(n),
                actual: self.bytes.len(),
            })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, ChannelError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }

    fn u32(&mut self) -> Result<u32, ChannelError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }

    fn u16(&mut self) -> Result<u16, ChannelError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2-byte slice"),
        ))
    }

    fn u8(&mut self) -> Result<u8, ChannelError> {
        Ok(self.take(1)?[0])
    }

    fn block(&mut self) -> Result<Block, ChannelError> {
        Ok(Block::from_le_bytes(
            self.take(16)?.try_into().expect("16-byte slice"),
        ))
    }

    /// Bulk block read into a caller-retained vector (cleared first),
    /// decoding 16-byte words without per-element `Result` plumbing.
    fn blocks_into(&mut self, n: usize, out: &mut Vec<Block>) -> Result<(), ChannelError> {
        let raw = self.take(n * Block::BYTES)?;
        out.clear();
        Block::extend_from_le_bytes(raw, out);
        Ok(())
    }

    fn lp_bytes(&mut self) -> Result<&'a [u8], ChannelError> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    /// One histogram snapshot, delegating validation (canonical sparse
    /// encoding, hostile entry counts) to the telemetry decoder.
    fn histogram(&mut self) -> Result<HistogramSnapshot, ChannelError> {
        let (snap, used) =
            HistogramSnapshot::decode_from(&self.bytes[self.pos..]).ok_or_else(|| {
                malformed(
                    self.pos + ironman_telemetry::ENCODED_MIN_LEN,
                    self.bytes.len(),
                )
            })?;
        self.pos += used;
        Ok(snap)
    }

    fn finish(self) -> Result<(), ChannelError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ChannelError::Malformed {
                expected: self.pos,
                actual: self.bytes.len(),
            })
        }
    }
}

fn malformed(expected: usize, actual: usize) -> ChannelError {
    ChannelError::Malformed { expected, actual }
}

/// Appends an epoch vector (`count, count × {origin, version}`).
fn put_vector(out: &mut Vec<u8>, vector: &[(u64, u64)]) {
    out.extend_from_slice(&(vector.len() as u64).to_le_bytes());
    for (origin, version) in vector {
        out.extend_from_slice(&origin.to_le_bytes());
        out.extend_from_slice(&version.to_le_bytes());
    }
}

/// Parses an epoch vector with the usual hostile-count guard.
fn read_vector(r: &mut Reader<'_>, rest: &[u8]) -> Result<Vec<(u64, u64)>, ChannelError> {
    let count = r.u64()? as usize;
    let remaining = rest.len().saturating_sub(r.pos);
    if count
        .checked_mul(VECTOR_ENTRY_LEN)
        .is_none_or(|need| need > remaining)
    {
        return Err(malformed(count.saturating_mul(VECTOR_ENTRY_LEN), remaining));
    }
    (0..count).map(|_| Ok((r.u64()?, r.u64()?))).collect()
}

/// Appends the [`DirectoryDelta`] layout (`epoch, vector, m, m ×
/// member`).
fn encode_delta_into(out: &mut Vec<u8>, delta: &DirectoryDelta) {
    out.extend_from_slice(&delta.epoch.to_le_bytes());
    put_vector(out, &delta.vector);
    out.extend_from_slice(&(delta.members.len() as u64).to_le_bytes());
    for m in &delta.members {
        out.extend_from_slice(&m.id.to_le_bytes());
        out.push(m.state.to_u8());
        out.extend_from_slice(&m.weight.to_le_bytes());
        out.extend_from_slice(&m.origin.to_le_bytes());
        out.extend_from_slice(&m.version.to_le_bytes());
        put_lp_bytes(out, m.addr.as_bytes());
        put_lp_bytes(out, m.name.as_bytes());
    }
}

/// Parses the [`DirectoryDelta`] layout. A hostile member count
/// must not drive allocation past the actual payload
/// ([`MEMBER_RECORD_MIN_LEN`] bytes is the smallest member record).
fn read_delta<'a>(r: &mut Reader<'a>, rest: &'a [u8]) -> Result<DirectoryDelta, ChannelError> {
    let epoch = r.u64()?;
    let vector = read_vector(r, rest)?;
    let count = r.u64()? as usize;
    let remaining = rest.len().saturating_sub(r.pos);
    if count
        .checked_mul(MEMBER_RECORD_MIN_LEN)
        .is_none_or(|need| need > remaining)
    {
        return Err(malformed(
            count.saturating_mul(MEMBER_RECORD_MIN_LEN),
            remaining,
        ));
    }
    let members = (0..count)
        .map(|_| {
            Ok(MemberRecord {
                id: r.u64()?,
                state: MemberWireState::from_u8(r.u8()?)?,
                weight: r.u32()?,
                origin: r.u64()?,
                version: r.u64()?,
                addr: String::from_utf8_lossy(r.lp_bytes()?).into_owned(),
                name: String::from_utf8_lossy(r.lp_bytes()?).into_owned(),
            })
        })
        .collect::<Result<Vec<_>, ChannelError>>()?;
    Ok(DirectoryDelta {
        epoch,
        vector,
        members,
    })
}

/// Appends the shared batch layout (`delta, n, z[n], y[n], bits(x)`) used
/// by both [`Response::Cots`] and [`Response::CotChunk`]: one exact
/// reservation, then bulk little-endian word writes straight into `out`.
/// No serving path calls it — servers send batches with
/// [`encode_cot_batch_split`] — it backs [`Response::encode`] and is the
/// contiguous reference the split encoders are tested against.
pub fn encode_cot_batch_into(out: &mut Vec<u8>, batch: CotSlice<'_>) {
    out.reserve(16 + 8 + 32 * batch.len() + batch.len().div_ceil(8) + 8);
    out.extend_from_slice(&batch.delta.to_le_bytes());
    out.extend_from_slice(&(batch.len() as u64).to_le_bytes());
    Block::extend_le_bytes(batch.z, out);
    Block::extend_le_bytes(batch.y, out);
    encode_bits_into(batch.x, out);
}

/// Appends a complete [`Response::Cots`] payload built from a borrowed
/// batch view (no intermediate `CotBatch` or `Vec` materialization).
pub fn encode_cots_into(out: &mut Vec<u8>, batch: CotSlice<'_>) {
    out.push(OP_COTS);
    encode_cot_batch_into(out, batch);
}

/// Appends a complete [`Response::CotChunk`] payload built from a
/// borrowed batch view.
pub fn encode_cot_chunk_into(out: &mut Vec<u8>, seq: u64, batch: CotSlice<'_>) {
    out.push(OP_COT_CHUNK);
    out.extend_from_slice(&seq.to_le_bytes());
    encode_cot_batch_into(out, batch);
}

/// Splits the shared batch layout across a scatter-gather send: the
/// fixed-size prefix (`delta, n`) is appended to `head`, the packed
/// choice bits to `tail` (cleared first), and the bulk `z`/`y` block
/// runs are **borrowed** from pool storage via [`Block::wire_bytes`] —
/// zero-copy on little-endian targets; the staging vectors exist only
/// for the big-endian fallback and stay empty otherwise.
///
/// Writing the returned views in `[head-suffix, z, y, tail]` order
/// reproduces [`encode_cot_batch_into`]'s bytes exactly: the wire
/// format is identical, only the number of copies differs. Callers
/// hand all four parts to
/// [`StreamTransport::send_frame_parts`](crate::transport::StreamTransport::send_frame_parts)
/// so the block runs go from the pool ring to the socket without ever
/// landing in a scratch buffer.
pub fn encode_cot_batch_split<'a>(
    head: &mut Vec<u8>,
    tail: &mut Vec<u8>,
    z_staging: &'a mut Vec<u8>,
    y_staging: &'a mut Vec<u8>,
    batch: CotSlice<'a>,
) -> (&'a [u8], &'a [u8]) {
    head.extend_from_slice(&batch.delta.to_le_bytes());
    head.extend_from_slice(&(batch.len() as u64).to_le_bytes());
    tail.clear();
    encode_bits_into(batch.x, tail);
    (
        Block::wire_bytes(batch.z, z_staging),
        Block::wire_bytes(batch.y, y_staging),
    )
}

/// [`encode_cots_into`] in split form: the [`Response::Cots`] opcode
/// joins the fixed prefix in `head`; everything else as
/// [`encode_cot_batch_split`].
pub fn encode_cots_split<'a>(
    head: &mut Vec<u8>,
    tail: &mut Vec<u8>,
    z_staging: &'a mut Vec<u8>,
    y_staging: &'a mut Vec<u8>,
    batch: CotSlice<'a>,
) -> (&'a [u8], &'a [u8]) {
    head.push(OP_COTS);
    encode_cot_batch_split(head, tail, z_staging, y_staging, batch)
}

/// [`encode_cot_chunk_into`] in split form: opcode and sequence number
/// join the fixed prefix in `head`; everything else as
/// [`encode_cot_batch_split`].
pub fn encode_cot_chunk_split<'a>(
    head: &mut Vec<u8>,
    tail: &mut Vec<u8>,
    z_staging: &'a mut Vec<u8>,
    y_staging: &'a mut Vec<u8>,
    seq: u64,
    batch: CotSlice<'a>,
) -> (&'a [u8], &'a [u8]) {
    head.push(OP_COT_CHUNK);
    head.extend_from_slice(&seq.to_le_bytes());
    encode_cot_batch_split(head, tail, z_staging, y_staging, batch)
}

/// Appends a complete [`Response::Error`] payload from a borrowed
/// message (error paths should not clone strings just to encode them).
pub fn encode_error_into(out: &mut Vec<u8>, message: &str) {
    out.push(OP_ERROR);
    put_lp_bytes(out, message.as_bytes());
}

/// Parses the fixed head of the shared batch layout: `(delta, n)`.
fn read_batch_head(r: &mut Reader<'_>) -> Result<(Block, usize), ChannelError> {
    Ok((r.block()?, r.u64()? as usize))
}

/// Decodes the batch's closing field, the packed choice bits, which must
/// carry exactly `n` bits.
fn read_batch_bits(tail: &[u8], n: usize, x: &mut Vec<bool>) -> Result<(), ChannelError> {
    decode_bits_into(tail, x)?;
    if x.len() != n {
        return Err(malformed(n, x.len()));
    }
    Ok(())
}

/// Parses the shared batch layout into a caller-retained batch, reusing
/// its allocations; the batch is always a message's final field, so the
/// bit vector consumes the remainder of `rest`.
fn read_batch_into<'a>(
    r: &mut Reader<'a>,
    rest: &'a [u8],
    out: &mut CotBatch,
) -> Result<(), ChannelError> {
    let (delta, n) = read_batch_head(r)?;
    // A hostile count must not drive allocation past the actual payload:
    // n blocks of z and y still have to fit.
    let remaining = rest.len().saturating_sub(r.pos);
    if n.checked_mul(32).is_none_or(|need| need > remaining) {
        return Err(malformed(n.saturating_mul(32), remaining));
    }
    out.delta = delta;
    r.blocks_into(n, &mut out.z)?;
    r.blocks_into(n, &mut out.y)?;
    read_batch_bits(r.take(rest.len() - r.pos)?, n, &mut out.x)
}

/// Parses the shared batch layout into a fresh [`CotBatch`].
fn read_batch<'a>(r: &mut Reader<'a>, rest: &'a [u8]) -> Result<CotBatch, ChannelError> {
    let mut batch = CotBatch::default();
    read_batch_into(r, rest, &mut batch)?;
    Ok(batch)
}

impl Request {
    /// Serializes to one message payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Hello { name, epoch } => {
                let mut out = vec![OP_HELLO];
                put_lp_bytes(&mut out, name.as_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                out
            }
            Request::RequestCot { n } => {
                let mut out = vec![OP_REQUEST_COT];
                out.extend_from_slice(&n.to_le_bytes());
                out
            }
            Request::Stats => vec![OP_STATS],
            Request::Shutdown => vec![OP_SHUTDOWN],
            Request::Subscribe { batch, credits } => {
                let mut out = vec![OP_SUBSCRIBE];
                out.extend_from_slice(&batch.to_le_bytes());
                out.extend_from_slice(&credits.to_le_bytes());
                out
            }
            Request::Credit { n } => {
                let mut out = vec![OP_CREDIT];
                out.extend_from_slice(&n.to_le_bytes());
                out
            }
            Request::Unsubscribe => vec![OP_UNSUBSCRIBE],
            Request::Trace { max_events } => {
                let mut out = vec![OP_TRACE];
                out.extend_from_slice(&max_events.to_le_bytes());
                out
            }
            Request::Gossip { from, vector } => {
                let mut out = vec![OP_GOSSIP];
                out.extend_from_slice(&from.to_le_bytes());
                put_vector(&mut out, vector);
                out
            }
        }
    }

    /// Parses one message payload.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Malformed`] on unknown opcodes, truncation, or
    /// trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<Request, ChannelError> {
        let (&op, rest) = bytes.split_first().ok_or_else(|| malformed(1, 0))?;
        let mut r = Reader::new(rest);
        let req = match op {
            OP_HELLO => Request::Hello {
                name: String::from_utf8_lossy(r.lp_bytes()?).into_owned(),
                epoch: r.u64()?,
            },
            OP_REQUEST_COT => Request::RequestCot { n: r.u64()? },
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            OP_SUBSCRIBE => Request::Subscribe {
                batch: r.u64()?,
                credits: r.u64()?,
            },
            OP_CREDIT => Request::Credit { n: r.u64()? },
            OP_UNSUBSCRIBE => Request::Unsubscribe,
            OP_TRACE => Request::Trace {
                max_events: r.u64()?,
            },
            OP_GOSSIP => Request::Gossip {
                from: r.u64()?,
                vector: read_vector(&mut r, rest)?,
            },
            _ => return Err(malformed(OP_HELLO as usize, op as usize)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes to one message payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends this message's payload to `out` (reusing its allocation);
    /// byte-identical to [`Response::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Welcome {
                version,
                max_request,
                epoch,
            } => {
                out.push(OP_WELCOME);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&max_request.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Response::Cots(batch) => encode_cots_into(out, batch.as_slice()),
            Response::Stats(s) => {
                out.push(OP_STATS_REPLY);
                s.encode_counters(out);
                s.latency.encode_into(out);
                out.extend_from_slice(&(s.shard_stats.len() as u64).to_le_bytes());
                for shard in &s.shard_stats {
                    shard.encode_counters(out);
                    shard.latency.encode_into(out);
                }
            }
            Response::Goodbye => out.push(OP_GOODBYE),
            Response::CotChunk { seq, batch } => encode_cot_chunk_into(out, *seq, batch.as_slice()),
            Response::StreamEnd { chunks, cots } => {
                out.push(OP_STREAM_END);
                out.extend_from_slice(&chunks.to_le_bytes());
                out.extend_from_slice(&cots.to_le_bytes());
            }
            Response::WrongEpoch { epoch } => {
                out.push(OP_WRONG_EPOCH);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Response::GossipDelta(delta) => {
                out.push(OP_GOSSIP_DELTA);
                encode_delta_into(out, delta);
            }
            Response::DrainHandoff { id, addr, name } => {
                out.push(OP_DRAIN_HANDOFF);
                out.extend_from_slice(&id.to_le_bytes());
                put_lp_bytes(out, addr.as_bytes());
                put_lp_bytes(out, name.as_bytes());
            }
            Response::TraceDump(events) => {
                out.push(OP_TRACE_DUMP);
                out.extend_from_slice(&(events.len() as u64).to_le_bytes());
                for e in events {
                    out.extend_from_slice(&e.at_nanos.to_le_bytes());
                    out.push(e.kind.as_u8());
                    out.extend_from_slice(&e.arg.to_le_bytes());
                }
            }
            Response::Unavailable { retry_after_ms } => {
                out.push(OP_UNAVAILABLE);
                out.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            Response::Error(msg) => encode_error_into(out, msg),
        }
    }

    /// Parses one message payload.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Malformed`] on unknown opcodes, truncation,
    /// trailing garbage, or an inconsistent COT batch.
    pub fn decode(bytes: &[u8]) -> Result<Response, ChannelError> {
        let (&op, rest) = bytes.split_first().ok_or_else(|| malformed(1, 0))?;
        let mut r = Reader::new(rest);
        let resp = match op {
            OP_WELCOME => Response::Welcome {
                version: r.u16()?,
                max_request: r.u64()?,
                epoch: r.u64()?,
            },
            OP_COTS => Response::Cots(read_batch(&mut r, rest)?),
            OP_STATS_REPLY => {
                let mut stats = ServiceStats::decode_counters(&mut r)?;
                stats.latency = LatencyStats::decode(&mut r)?;
                let count = r.u64()? as usize;
                // A hostile shard count must not drive allocation past the
                // actual payload (the counters plus four empty histograms is
                // the smallest shard entry).
                const SHARD_MIN: usize = ShardStat::COUNTERS_LEN + LatencyStats::ENCODED_MIN_LEN;
                let remaining = rest.len().saturating_sub(r.pos);
                if count
                    .checked_mul(SHARD_MIN)
                    .is_none_or(|need| need > remaining)
                {
                    return Err(malformed(count.saturating_mul(SHARD_MIN), remaining));
                }
                stats.shard_stats = (0..count)
                    .map(|_| {
                        let mut shard = ShardStat::decode_counters(&mut r)?;
                        shard.latency = LatencyStats::decode(&mut r)?;
                        Ok(shard)
                    })
                    .collect::<Result<Vec<_>, ChannelError>>()?;
                Response::Stats(Box::new(stats))
            }
            OP_GOODBYE => Response::Goodbye,
            OP_COT_CHUNK => {
                let seq = r.u64()?;
                Response::CotChunk {
                    seq,
                    batch: read_batch(&mut r, rest)?,
                }
            }
            OP_STREAM_END => Response::StreamEnd {
                chunks: r.u64()?,
                cots: r.u64()?,
            },
            OP_WRONG_EPOCH => Response::WrongEpoch { epoch: r.u64()? },
            OP_GOSSIP_DELTA => Response::GossipDelta(read_delta(&mut r, rest)?),
            OP_DRAIN_HANDOFF => Response::DrainHandoff {
                id: r.u64()?,
                addr: String::from_utf8_lossy(r.lp_bytes()?).into_owned(),
                name: String::from_utf8_lossy(r.lp_bytes()?).into_owned(),
            },
            OP_UNAVAILABLE => Response::Unavailable {
                retry_after_ms: r.u64()?,
            },
            OP_TRACE_DUMP => {
                let count = r.u64()? as usize;
                // A hostile event count must not drive allocation past the
                // actual payload.
                let remaining = rest.len().saturating_sub(r.pos);
                if count
                    .checked_mul(TRACE_EVENT_LEN)
                    .is_none_or(|need| need > remaining)
                {
                    return Err(malformed(count.saturating_mul(TRACE_EVENT_LEN), remaining));
                }
                let events = (0..count)
                    .map(|_| {
                        let at_nanos = r.u64()?;
                        let raw_kind = r.u8()?;
                        let kind = EventKind::from_u8(raw_kind)
                            .ok_or_else(|| malformed(EventKind::ALL.len(), raw_kind as usize))?;
                        Ok(TraceEvent {
                            at_nanos,
                            kind,
                            arg: r.u64()?,
                        })
                    })
                    .collect::<Result<Vec<_>, ChannelError>>()?;
                Response::TraceDump(events)
            }
            OP_ERROR => Response::Error(String::from_utf8_lossy(r.lp_bytes()?).into_owned()),
            _ => return Err(malformed(OP_WELCOME as usize, op as usize)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// What [`recv_response_into`] (or [`decode_response_into`]) found: the
/// batch-carrying hot cases land in the caller's reused [`CotBatch`],
/// everything else arrives as an owned [`Response`].
#[derive(Debug)]
pub enum HotResponse {
    /// A [`Response::Cots`] payload; the batch is in the caller's buffer.
    Cots,
    /// A [`Response::CotChunk`] payload; the batch is in the caller's
    /// buffer.
    CotChunk {
        /// Zero-based chunk sequence number within the subscription.
        seq: u64,
    },
    /// Any non-batch response, decoded the ordinary (allocating) way.
    /// Boxed so the hot variants stay register-sized — this arm is the
    /// cold path, where one allocation is already happening anyway.
    Other(Box<Response>),
}

/// Decodes one response payload already in memory, steering the
/// batch-carrying hot cases (`Cots`/`CotChunk`) into `batch` — reusing
/// its allocations — and falling back to [`Response::decode`] for
/// everything else. No client receive path calls it on a batch frame:
/// [`recv_response_into`] reads those from the socket straight into the
/// batch, and hands only the frames it does not take apart itself to
/// this decoder. It is the byte-slice reference that reader is tested
/// against, and what `benchmark/` times as the decode stage. On error (or
/// a non-batch response) `batch`'s contents are unspecified.
///
/// # Errors
///
/// Same failure modes as [`Response::decode`].
pub fn decode_response_into(
    bytes: &[u8],
    batch: &mut CotBatch,
) -> Result<HotResponse, ChannelError> {
    let (&op, rest) = bytes.split_first().ok_or_else(|| malformed(1, 0))?;
    match op {
        OP_COTS => {
            let mut r = Reader::new(rest);
            read_batch_into(&mut r, rest, batch)?;
            r.finish()?;
            Ok(HotResponse::Cots)
        }
        OP_COT_CHUNK => {
            let mut r = Reader::new(rest);
            let seq = r.u64()?;
            read_batch_into(&mut r, rest, batch)?;
            r.finish()?;
            Ok(HotResponse::CotChunk { seq })
        }
        _ => Response::decode(bytes).map(|resp| HotResponse::Other(Box::new(resp))),
    }
}

/// Payload bytes of a [`Response::Cots`] frame before its `z` run:
/// opcode, `delta`, `n`.
const COTS_HEAD_LEN: usize = 1 + Block::BYTES + 8;

/// Payload bytes of a [`Response::CotChunk`] frame before its `z` run:
/// opcode, `seq`, `delta`, `n`.
const COT_CHUNK_HEAD_LEN: usize = 1 + 8 + Block::BYTES + 8;

/// Receives one response frame from `ch`, reading a batch-carrying frame
/// (`Cots`/`CotChunk`) from the socket **straight into** `batch`: the
/// fixed head (opcode, `seq`, `delta`, `n`) lands in `buf`, is checked
/// against the frame length (`32·n + 8 + ⌈n/8⌉` payload bytes past the
/// head), then `z` and `y` are read into the batch's own block storage —
/// one copy, kernel → batch — and the packed choice bits into `buf`.
/// Every other opcode, and any batch frame whose length disagrees with
/// its count, is read whole into `buf` and handed to
/// [`decode_response_into`], so the result — value or error — is exactly
/// that decoder's on the same bytes, and the stream stays framed either
/// way. `buf` is the caller's retained frame buffer; on error (or a
/// non-batch response) `batch`'s contents are unspecified.
///
/// # Errors
///
/// The frame-layer failures of
/// [`StreamTransport::recv_frame_with`] (EOF anywhere in the frame is
/// [`ChannelError::Disconnected`]) and the decode failures of
/// [`decode_response_into`].
pub fn recv_response_into<R: Read, W: Write>(
    ch: &mut StreamTransport<R, W>,
    buf: &mut Vec<u8>,
    batch: &mut CotBatch,
) -> Result<HotResponse, ChannelError> {
    match ch.recv_frame_with(|payload| read_batch_frame(payload, buf, batch))? {
        Some(hot) => {
            read_batch_bits(buf, batch.z.len(), &mut batch.x)?;
            Ok(hot)
        }
        None => decode_response_into(buf, batch),
    }
}

/// The socket half of [`recv_response_into`]: reads one whole frame
/// payload. A well-formed batch frame leaves `delta`, `z` and `y` in
/// `batch` and the bit tail in `buf`, and returns its kind; anything else
/// leaves the whole payload in `buf` and returns `None`.
fn read_batch_frame<Rd: Read>(
    payload: &mut Take<Rd>,
    buf: &mut Vec<u8>,
    batch: &mut CotBatch,
) -> Result<Option<HotResponse>, ChannelError> {
    let len = payload.limit() as usize;
    buf.clear();
    read_appending(payload, len.min(1), buf)?;
    let head_len = match buf.first() {
        Some(&OP_COTS) => COTS_HEAD_LEN,
        Some(&OP_COT_CHUNK) => COT_CHUNK_HEAD_LEN,
        _ => len,
    };
    if len <= head_len {
        read_appending(payload, len - buf.len(), buf)?;
        return Ok(None);
    }
    read_appending(payload, head_len - 1, buf)?;
    let mut r = Reader::new(&buf[1..]);
    let hot = match buf[0] {
        OP_COT_CHUNK => HotResponse::CotChunk { seq: r.u64()? },
        _ => HotResponse::Cots,
    };
    let (delta, n) = read_batch_head(&mut r)?;
    let tail_len = 8 + n.div_ceil(8);
    let body = n
        .checked_mul(2 * Block::BYTES)
        .and_then(|zy| zy.checked_add(tail_len));
    if body != Some(len - head_len) {
        read_appending(payload, len - head_len, buf)?;
        return Ok(None);
    }
    batch.delta = delta;
    for blocks in [&mut batch.z, &mut batch.y] {
        blocks.resize(n, Block::ZERO);
        Block::fill_from_le_bytes(blocks, |bytes| payload.read_exact(bytes))?;
    }
    buf.clear();
    read_appending(payload, tail_len, buf)?;
    Ok(Some(hot))
}

/// Reads exactly `n` more bytes from `r` onto the end of `buf`.
fn read_appending(r: &mut impl Read, n: usize, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let start = buf.len();
    buf.resize(start + n, 0);
    r.read_exact(&mut buf[start..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    /// A `LatencyStats` with distinguishable content per field. Under the
    /// telemetry `noop` feature all four snapshots come back empty, which
    /// still exercises the (degenerate) wire layout.
    fn sample_latency(seed: u64) -> LatencyStats {
        let fill = |scale: u64| {
            let h = ironman_telemetry::Histogram::new();
            for i in 1..=16u64 {
                h.record(seed.wrapping_add(i * scale));
            }
            h.snapshot()
        };
        LatencyStats {
            request_first_byte: fill(3),
            chunk_push: fill(97),
            extension: fill(12_041),
            stall: fill(1_000_003),
        }
    }

    fn round_trip_response(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello {
            name: "resnet-worker-3".into(),
            epoch: 12,
        });
        round_trip_request(Request::Hello {
            name: "legacy".into(),
            epoch: EPOCH_UNAWARE,
        });
        round_trip_request(Request::RequestCot { n: 1 << 20 });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Subscribe {
            batch: 4096,
            credits: 8,
        });
        round_trip_request(Request::Credit { n: 3 });
        round_trip_request(Request::Unsubscribe);
        round_trip_request(Request::Trace { max_events: 256 });
        round_trip_request(Request::Gossip {
            from: 3,
            vector: vec![(1, 4), (2, 9), (u64::MAX, 1)],
        });
        round_trip_request(Request::Gossip {
            from: 0,
            vector: Vec::new(),
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Welcome {
            version: 1,
            max_request: 9000,
            epoch: 17,
        });
        round_trip_response(Response::Goodbye);
        round_trip_response(Response::Error("pool exhausted".into()));
        round_trip_response(Response::WrongEpoch { epoch: 18 });
        round_trip_response(Response::Unavailable {
            retry_after_ms: 250,
        });
        let delta = DirectoryDelta {
            epoch: 9,
            vector: vec![(1, 5), (5, 4)],
            members: vec![
                MemberRecord {
                    id: 2,
                    state: MemberWireState::Left,
                    weight: 1,
                    origin: 1,
                    version: 5,
                    addr: "10.0.0.2:7000".into(),
                    name: "cot-2".into(),
                },
                MemberRecord {
                    id: 5,
                    state: MemberWireState::Up,
                    weight: 4,
                    origin: 5,
                    version: 3,
                    addr: "10.0.0.5:7000".into(),
                    name: "cot-5".into(),
                },
            ],
        };
        round_trip_response(Response::GossipDelta(delta));
        round_trip_response(Response::GossipDelta(DirectoryDelta {
            epoch: 1,
            vector: Vec::new(),
            members: Vec::new(),
        }));
        round_trip_response(Response::DrainHandoff {
            id: 7,
            addr: "10.0.0.7:7000".into(),
            name: "cot-7".into(),
        });
        round_trip_response(Response::Stats(Box::new(ServiceStats {
            clients_served: 4,
            cots_served: 1 << 22,
            extensions_run: 3,
            available: 77,
            shards: 2,
            warmup_refills: 5,
            scratch_reuses: 990,
            scratch_allocs: 6,
            register_failures: 1,
            directory_epoch: 13,
            pending_stream_cots: 16_000,
            uptime_nanos: 987_654_321,
            subscribers_evicted: 2,
            unavailable_sent: 9,
            faults_injected: 31,
            latency: sample_latency(7),
            shard_stats: vec![
                ShardStat {
                    available: 40,
                    extensions_run: 2,
                    taken: 900,
                    warm_refills: 2,
                    session_extensions: 6,
                    session_stalls: 1,
                    latency: sample_latency(11),
                },
                ShardStat {
                    available: 37,
                    extensions_run: 1,
                    taken: 400,
                    warm_refills: 0,
                    session_extensions: 5,
                    session_stalls: 0,
                    latency: LatencyStats::default(),
                },
            ],
        })));
        round_trip_response(Response::TraceDump(Vec::new()));
        round_trip_response(Response::TraceDump(
            EventKind::ALL
                .iter()
                .enumerate()
                .map(|(i, &kind)| TraceEvent {
                    at_nanos: 1_000 * i as u64,
                    kind,
                    arg: u64::MAX - i as u64,
                })
                .collect(),
        ));
        round_trip_response(Response::StreamEnd {
            chunks: 12,
            cots: 12 * 4096,
        });
        let batch = CotBatch {
            delta: Block::from(0xD5u128),
            z: vec![Block::from(1u128), Block::from(2u128), Block::from(3u128)],
            x: vec![true, false, true],
            y: vec![Block::from(4u128), Block::from(5u128), Block::from(6u128)],
        };
        round_trip_response(Response::CotChunk {
            seq: 7,
            batch: batch.clone(),
        });
        round_trip_response(Response::Cots(batch));
    }

    /// A v11 `Stats` reply as the wire carries it, frozen: every counter
    /// and both shards' counters are distinct, so a layout change that
    /// swaps two fields on both the encode and the decode side (which a
    /// round trip cannot see) changes these bytes. The latency
    /// histograms are empty, so the vector holds with telemetry compiled
    /// out too.
    const FROZEN_STATS_V11: [&str; 41] = [
        "83",                                                   // opcode
        "0101000000000000",                                     // clients_served
        "0201000000000000",                                     // cots_served
        "0301000000000000",                                     // extensions_run
        "0401000000000000",                                     // available
        "0501000000000000",                                     // shards
        "0601000000000000",                                     // warmup_refills
        "0701000000000000",                                     // scratch_reuses
        "0801000000000000",                                     // scratch_allocs
        "0901000000000000",                                     // register_failures
        "0a01000000000000",                                     // directory_epoch
        "0b01000000000000",                                     // pending_stream_cots
        "0c01000000000000",                                     // uptime_nanos
        "0d01000000000000",                                     // subscribers_evicted
        "0e01000000000000",                                     // unavailable_sent
        "0f01000000000000",                                     // faults_injected
        "0000000000000000000000000000000000000000000000000000", // request_first_byte
        "0000000000000000000000000000000000000000000000000000", // chunk_push
        "0000000000000000000000000000000000000000000000000000", // extension
        "0000000000000000000000000000000000000000000000000000", // stall
        "0200000000000000",                                     // shard count
        "0102000000000000",                                     // shard 0: available
        "0202000000000000",                                     // extensions_run
        "0302000000000000",                                     // taken
        "0402000000000000",                                     // warm_refills
        "0502000000000000",                                     // session_extensions
        "0602000000000000",                                     // session_stalls
        "0000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000",
        "0103000000000000", // shard 1: available
        "0203000000000000", // extensions_run
        "0303000000000000", // taken
        "0403000000000000", // warm_refills
        "0503000000000000", // session_extensions
        "0603000000000000", // session_stalls
        "0000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000",
    ];

    #[test]
    fn stats_reply_matches_the_frozen_v11_bytes() {
        let hex: String = FROZEN_STATS_V11.concat();
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        let shard = |base: u64| ShardStat {
            available: base + 1,
            extensions_run: base + 2,
            taken: base + 3,
            warm_refills: base + 4,
            session_extensions: base + 5,
            session_stalls: base + 6,
            latency: LatencyStats::default(),
        };
        let stats = Response::Stats(Box::new(ServiceStats {
            clients_served: 0x101,
            cots_served: 0x102,
            extensions_run: 0x103,
            available: 0x104,
            shards: 0x105,
            warmup_refills: 0x106,
            scratch_reuses: 0x107,
            scratch_allocs: 0x108,
            register_failures: 0x109,
            directory_epoch: 0x10a,
            pending_stream_cots: 0x10b,
            uptime_nanos: 0x10c,
            subscribers_evicted: 0x10d,
            unavailable_sent: 0x10e,
            faults_injected: 0x10f,
            latency: LatencyStats::default(),
            shard_stats: vec![shard(0x200), shard(0x300)],
        }));
        assert_eq!(Response::decode(&bytes).unwrap(), stats);
        assert_eq!(stats.encode(), bytes);
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(Request::decode(&[0x7E]).is_err());
        assert!(Response::decode(&[0x7E]).is_err());
    }

    #[test]
    fn empty_payload_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Request::Stats.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn hostile_cot_count_rejected_without_allocation() {
        for op in [OP_COTS, OP_COT_CHUNK] {
            let mut bytes = vec![op];
            if op == OP_COT_CHUNK {
                bytes.extend_from_slice(&0u64.to_le_bytes()); // seq
            }
            bytes.extend_from_slice(&Block::ZERO.to_le_bytes());
            bytes.extend_from_slice(&u64::MAX.to_le_bytes());
            assert!(Response::decode(&bytes).is_err());
        }
    }

    #[test]
    fn hostile_shard_count_rejected_without_allocation() {
        let mut bytes = vec![OP_STATS_REPLY];
        for _ in 0..15 {
            bytes.extend_from_slice(&0u64.to_le_bytes());
        }
        LatencyStats::default().encode_into(&mut bytes); // service-wide
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Response::decode(&bytes).is_err());
    }

    #[test]
    fn hostile_event_count_rejected_without_allocation() {
        let mut bytes = vec![OP_TRACE_DUMP];
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Response::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_event_kind_rejected() {
        let mut bytes = vec![OP_TRACE_DUMP];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&42u64.to_le_bytes()); // at_nanos
        bytes.push(EventKind::ALL.len() as u8); // one past the last kind
        bytes.extend_from_slice(&0u64.to_le_bytes()); // arg
        assert!(Response::decode(&bytes).is_err());
    }

    #[test]
    fn truncated_stats_histogram_rejected() {
        let good = Response::Stats(Box::new(ServiceStats {
            shards: 1,
            latency: sample_latency(3),
            shard_stats: vec![ShardStat {
                latency: sample_latency(5),
                ..ShardStat::default()
            }],
            ..ServiceStats::default()
        }))
        .encode();
        // Chop the tail off: every truncation point must be rejected, not
        // silently decoded as fewer/emptier histograms.
        for cut in 1..=LatencyStats::ENCODED_MIN_LEN {
            assert!(Response::decode(&good[..good.len() - cut]).is_err());
        }
    }

    #[test]
    fn hostile_member_count_rejected_without_allocation() {
        let mut bytes = vec![OP_GOSSIP_DELTA];
        bytes.extend_from_slice(&7u64.to_le_bytes()); // epoch
        bytes.extend_from_slice(&0u64.to_le_bytes()); // empty vector
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // member count
        assert!(Response::decode(&bytes).is_err());
    }

    #[test]
    fn hostile_vector_count_rejected_without_allocation() {
        let mut gossip = vec![OP_GOSSIP];
        gossip.extend_from_slice(&1u64.to_le_bytes()); // from
        gossip.extend_from_slice(&u64::MAX.to_le_bytes()); // vector count
        assert!(Request::decode(&gossip).is_err());

        let mut delta = vec![OP_GOSSIP_DELTA];
        delta.extend_from_slice(&7u64.to_le_bytes()); // epoch
        delta.extend_from_slice(&u64::MAX.to_le_bytes()); // vector count
        assert!(Response::decode(&delta).is_err());
    }

    #[test]
    fn decode_response_into_reuses_the_batch() {
        let batch = CotBatch {
            delta: Block::from(0xD5u128),
            z: vec![Block::from(1u128), Block::from(2u128)],
            x: vec![true, false],
            y: vec![Block::from(4u128), Block::from(5u128)],
        };
        let mut reused = CotBatch::default();
        match decode_response_into(&Response::Cots(batch.clone()).encode(), &mut reused).unwrap() {
            HotResponse::Cots => assert_eq!(reused, batch),
            other => panic!("unexpected {other:?}"),
        }
        let chunk = Response::CotChunk {
            seq: 9,
            batch: batch.clone(),
        };
        match decode_response_into(&chunk.encode(), &mut reused).unwrap() {
            HotResponse::CotChunk { seq } => {
                assert_eq!(seq, 9);
                assert_eq!(reused, batch);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Non-batch responses pass through untouched.
        match decode_response_into(&Response::Goodbye.encode(), &mut reused).unwrap() {
            HotResponse::Other(other) => assert_eq!(*other, Response::Goodbye),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn borrowed_encoders_match_owned_encoding() {
        let batch = CotBatch {
            delta: Block::from(7u128),
            z: vec![Block::from(1u128); 5],
            x: vec![true, false, true, false, true],
            y: vec![Block::from(2u128); 5],
        };
        let mut buf = Vec::new();
        encode_cots_into(&mut buf, batch.as_slice());
        assert_eq!(buf, Response::Cots(batch.clone()).encode());
        buf.clear();
        encode_cot_chunk_into(&mut buf, 3, batch.as_slice());
        assert_eq!(
            buf,
            Response::CotChunk {
                seq: 3,
                batch: batch.clone()
            }
            .encode()
        );
        buf.clear();
        encode_error_into(&mut buf, "nope");
        assert_eq!(buf, Response::Error("nope".into()).encode());
    }

    #[test]
    fn split_encoders_reassemble_to_contiguous_bytes() {
        let batch = CotBatch {
            delta: Block::from(0xd3317au128),
            z: (0..13).map(|i| Block::from(i as u128 * 3 + 1)).collect(),
            x: (0..13).map(|i| i % 3 == 0).collect(),
            y: (0..13).map(|i| Block::from(i as u128 * 7 + 2)).collect(),
        };
        for seq in [None, Some(41u64)] {
            let mut contiguous = Vec::new();
            match seq {
                Some(s) => encode_cot_chunk_into(&mut contiguous, s, batch.as_slice()),
                None => encode_cots_into(&mut contiguous, batch.as_slice()),
            }

            let (mut head, mut tail) = (Vec::new(), Vec::new());
            let (mut zs, mut ys) = (Vec::new(), Vec::new());
            let (z, y) = match seq {
                Some(s) => encode_cot_chunk_split(
                    &mut head,
                    &mut tail,
                    &mut zs,
                    &mut ys,
                    s,
                    batch.as_slice(),
                ),
                None => encode_cots_split(&mut head, &mut tail, &mut zs, &mut ys, batch.as_slice()),
            };
            // [head, z, y, tail] in order is the contiguous encoding.
            let glued: Vec<u8> = [head.as_slice(), z, y, &tail].concat();
            assert_eq!(glued, contiguous);
            // On little-endian targets the block runs alias pool storage:
            // nothing was staged.
            if cfg!(target_endian = "little") {
                assert!(zs.is_empty() && ys.is_empty());
            }
        }
    }
}
