//! # `ironman-cluster` — a dynamic fleet of COT pools
//!
//! `ironman-net` (PR 1) made one process serve correlations over sockets;
//! PR 2 made a fleet of them behave like one elastic pool; this crate now
//! gives that fleet a **control plane**, so membership is dynamic:
//! servers join, drain, stop answering gossip, die, and get replaced while
//! clients keep serving. It is the serving-layer translation of the
//! Ironman paper's core idea — keep extension output streaming toward the
//! consumer instead of computing it on the demand path — at datacenter
//! shape:
//!
//! * [`Directory`] — the epoch-versioned membership: `join_as`/`leave`/
//!   `drain` mutations bump a monotonic epoch and publish copy-on-write
//!   [`RingSnapshot`]s (consistent-hash ring over the routable members),
//!   so the request path routes lock-free while membership churns. A
//!   `Gossip` pull presenting an epoch vector is answered with exactly
//!   the records that vector has not covered.
//! * [`Gossiper`] — the one background loop per server: it pulls every
//!   peer's `GossipDelta` over a cached session to converge the server's
//!   own directory replica, and with a [`HealthConfig`] each pull is also
//!   the peer's health probe — repeat offenders are marked suspect (out
//!   of the ring, still members) and the lease holder evicts the dead,
//!   each an ordinary epoch bump.
//! * [`ClusterClient`] — one handle that routes demand, with one call
//!   per operation: [`ClusterClient::request_cots_with`] for one-shot
//!   demand and [`ClusterClient::stream_cots`] for streams, each handing
//!   every batch to the caller by borrow from one reused buffer.
//!   Consistent-hash home first, transparent splitting of oversized
//!   requests with least-outstanding spill, failure *cooldowns* (a dead
//!   server is skipped, not re-dialed, until the cooldown or an epoch
//!   bump clears it), and epoch awareness: a `WrongEpoch` fence pulls
//!   the `GossipDelta` its epoch vector is missing, re-resolves, and
//!   retries — including **mid-stream**, resuming a subscription on the
//!   new home server with exact accounting.
//! * [`Warmup`] — the refill scheduler, one per server: supply is local
//!   to the shard (each shard's pipelined session stages extensions
//!   ahead of demand), so a thread tops its own pool's rings up from
//!   that staged output on an adaptive cadence (bounded exponential
//!   back-off while everything is above watermark) and nothing refills
//!   over the wire.
//! * [`FleetObserver`] — the telemetry roll-up, now an observability
//!   plane (v7): scrapes every member's `Stats` latency histograms on a
//!   jittered cadence, merges them into model-ready [`FleetSnapshot`]s
//!   (per-server observations plus their exact bucket-level fleet-wide
//!   merge), **retains** them in a bounded [`TimeSeries`], and derives
//!   restart-aware windowed rates/quantiles ([`FleetWindow`]) from any
//!   two retained points.
//! * [`SloEngine`] — declarative [`SloSpec`]s (latency p99 ceilings,
//!   supply-rate floors, stall-ratio ceilings) evaluated against the
//!   retained series with multi-window burn-rate semantics: a fast
//!   window arms an alert, fast **and** slow windows fire it, and a
//!   hysteresis period resolves it.
//! * [`FleetExporter`] — a scrape endpoint over the vendored HTTP/1.0
//!   server: `/metrics` in Prometheus text exposition (fleet and
//!   per-server gauges, counters, SLO states) and `/fleet` for humans.
//! * [`HeadroomModel`] — model-vs-measured: each server's live windowed
//!   supply rate compared against the roofline prediction of its
//!   supply ceiling (utilization, headroom, and the drift the CPU-model
//!   drift check reads).
//! * [`ClusterServer`] / [`LocalCluster`] — service, replica, gossip,
//!   warm-up, and observation composed; a whole dynamic loopback fleet
//!   in a few calls for tests and benches. The client drives every
//!   session under v8 data-path deadlines with a token-budgeted,
//!   jittered retry sweep, and honors `Unavailable { retry_after_ms }`
//!   declines from supply-starved servers with hint-length cooldowns.
//! * [`ChaosSchedule`] — deterministic scripted chaos against a
//!   [`LocalCluster`]: seeded fault plans (stalls, resets, bit flips,
//!   blackholes via `ironman-net`'s `FaultInjector`), degradation
//!   windows, kills, and heals fired at fixed offsets — the harness the
//!   chaos soak proves the fault-tolerance invariants with.
//!
//! # Topology
//!
//! ```text
//!                                               ClusterClient(s)
//!                                               (route on the observer
//!                                                view; on WrongEpoch:
//!                                                Gossip pull, re-resolve,
//!                                                resume streams)
//!                                                       |
//!     =====+=================+=================+========+=====  TCP, framed v11
//!          v                 v                 v
//!     +---------+       +---------+       +---------+
//!     | CotSvc  |       | CotSvc  |       | CotSvc  |   (members; each
//!     | shards: |       | shards: |       | shards: |    an independent
//!     | [p0..p3]|       | [p0..p3]|       | [p0..p3]|    FERRET dealer,
//!     | Warmup  |       | Warmup  |       | Warmup  |    refilled locally)
//!     | replica |       | replica |       | replica |   (epoch-versioned
//!     | Gossiper|<----->| Gossiper|<----->| Gossiper|    Directory; pulls
//!     +---------+       +---------+       +---------+    double as probes:
//!                                                        suspect, evict)
//! ```
//!
//! Each server is an independent FERRET dealer (its own `Δ` stream per
//! pool shard); a batch therefore never straddles servers, and a split
//! request visits one Δ-homogeneous batch per contacted server.
//!
//! # Quickstart
//!
//! ```
//! use ironman_cluster::{
//!     ClusterClient, ClusterServerConfig, GossiperConfig, LocalCluster, WarmupConfig,
//! };
//! use ironman_ot::ferret::FerretConfig;
//! use ironman_ot::params::FerretParams;
//! use std::time::Duration;
//!
//! let mut cluster = LocalCluster::spawn_replicated(
//!     3,
//!     &FerretConfig::new(FerretParams::toy()),
//!     &ClusterServerConfig {
//!         warmup: Some(WarmupConfig::default()),
//!         ..ClusterServerConfig::default()
//!     },
//!     GossiperConfig::default(),
//! )
//! .unwrap();
//! assert!(cluster.wait_converged(Duration::from_secs(30)));
//!
//! let mut client = ClusterClient::connect(cluster.directory(), "ppml-worker-0").unwrap();
//! // Every batch is lent to the visitor from one reused buffer.
//! client
//!     .request_cots_with(1024, |batch| batch.verify().unwrap())
//!     .unwrap();
//! // Membership is dynamic: kill a server, join a replacement — the
//! // client re-resolves through the epoch fence and keeps serving.
//! let victim = cluster.server_ids()[0];
//! cluster.kill_server(victim);
//! cluster.control_directory().leave(victim);
//! cluster.spawn_server().unwrap();
//! let summary = client
//!     .stream_cots(4 * 256, 256, |batch| batch.verify().unwrap())
//!     .unwrap();
//! assert_eq!(summary.cots, 4 * 256);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod background;
pub mod chaos;
pub mod client;
pub mod directory;
pub mod exporter;
pub mod gossip;
pub mod headroom;
pub mod observe;
pub mod server;
pub mod slo;
pub mod warmup;

pub use chaos::{ChaosAction, ChaosEvent, ChaosOutcome, ChaosSchedule};
pub use client::{ClusterClient, FAILOVER_COOLDOWN};
pub use directory::{
    Directory, Member, MemberState, RingSnapshot, ServerId, Stamp, MAX_WEIGHT, TOMBSTONE_CAP,
    UNATTRIBUTED, VIRTUAL_NODES,
};
pub use exporter::{FleetExporter, FleetExporterConfig};
pub use gossip::{GossipIdentity, GossipStats, Gossiper, GossiperConfig, HealthConfig};
pub use headroom::{HeadroomModel, ServerHeadroom};
pub use ironman_telemetry::TimeSeries;
pub use observe::{
    FleetHandle, FleetObserver, FleetObserverConfig, FleetSnapshot, FleetWindow, ServerObservation,
    ServerWindow, WindowBaseline,
};
pub use server::{ClusterServer, ClusterServerConfig, LocalCluster};
pub use slo::{AlertState, AlertView, BurnWindows, SloEngine, SloKind, SloSpec};
pub use warmup::{Warmup, WarmupConfig};
