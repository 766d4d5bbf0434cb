//! Cluster-side server composition: a [`CotService`] attached to its
//! own [`Directory`] replica (so it can fence stale epochs and answer
//! gossip pulls), plus the [`LocalCluster`] helper that runs a whole
//! *dynamic* fleet in one process for tests, benches, and demos —
//! servers join, drain, die, and get replaced while clients keep
//! serving.

use crate::directory::{Directory, ServerId};
use crate::exporter::{FleetExporter, FleetExporterConfig};
use crate::gossip::{GossipIdentity, Gossiper, GossiperConfig, HealthConfig};
use crate::observe::{FleetHandle, FleetObserver, FleetObserverConfig};
use crate::warmup::{Warmup, WarmupConfig};
use ironman_net::{CotService, CotServiceConfig, DirectoryView, FaultPlan, ServiceStats};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::SharedCotPool;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one [`ClusterServer`].
#[derive(Clone, Debug, Default)]
pub struct ClusterServerConfig {
    /// The underlying service configuration (shards, seed).
    pub service: CotServiceConfig,
    /// Per-server warm-up refiller, the only refill scheduler there is;
    /// `None` serves from the sessions' staged look-ahead only (each
    /// take tops its shard's ring up on demand).
    pub warmup: Option<WarmupConfig>,
}

/// One member of the fleet: a running COT service (directory-attached
/// when spawned with one) with an optional per-server warm-up refiller.
#[derive(Debug)]
pub struct ClusterServer {
    service: CotService,
    warmup: Option<Warmup>,
}

impl ClusterServer {
    /// Binds `addr` and starts the service (and, if configured, its
    /// warm-up refiller). With a directory attached, the service fences
    /// stale-epoch sessions and answers `Gossip` with membership deltas;
    /// registering the server *in* that directory is the caller's move
    /// (bind first, then [`Directory::join_as`] with the bound address —
    /// a [`Gossiper`] with an identity does it).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        ferret: &FerretConfig,
        cfg: ClusterServerConfig,
        directory: Option<Arc<Directory>>,
    ) -> std::io::Result<ClusterServer> {
        let listener = TcpListener::bind(addr)?;
        let pool = Arc::new(cfg.service.build_pool(ferret));
        let view = directory.map(|d| d as Arc<dyn DirectoryView>);
        let service = CotService::serve_on_with(listener, Arc::clone(&pool), view);
        let warmup = cfg.warmup.map(|wcfg| Warmup::spawn(pool, wcfg));
        Ok(ClusterServer { service, warmup })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.service.addr()
    }

    /// The pool backing this server.
    pub fn pool(&self) -> &Arc<SharedCotPool> {
        self.service.pool()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// The underlying running service — the chaos and degradation hooks
    /// (`set_faults`, `set_unavailable_for`, subscriber write deadlines)
    /// live there.
    pub fn service(&self) -> &CotService {
        &self.service
    }

    /// Tells the service which directory member it is (see
    /// [`CotService::set_self_id`]) — required for the v9 drain-handoff
    /// announcement on replicated servers.
    pub fn set_self_id(&self, id: ServerId) {
        self.service.set_self_id(id.0);
    }

    /// Stops the warm-up refiller (if any) and the service; returns the
    /// final statistics.
    pub fn shutdown(self) -> ServiceStats {
        if let Some(warmup) = self.warmup {
            warmup.stop();
        }
        self.service.shutdown()
    }
}

/// One running member of a [`LocalCluster`]: its server, its own
/// directory replica, and the gossiper converging (and, with health
/// enabled, probing) through it.
#[derive(Debug)]
struct Node {
    server: ClusterServer,
    replica: Arc<Directory>,
    gossiper: Gossiper,
}

impl Node {
    /// Stops the gossiper with the server: a dead server must not keep
    /// re-announcing itself, nor striking its peers, from beyond the
    /// grave.
    fn stop(self) -> ServiceStats {
        self.gossiper.stop();
        self.server.shutdown()
    }
}

/// A whole dynamic fleet on loopback: N [`ClusterServer`]s (each an
/// independent FERRET dealer with its own `Δ` stream), each carrying its
/// own [`Directory`] replica converged by a per-server [`Gossiper`] —
/// the one background loop per server, which is also the failure
/// detector once [`LocalCluster::enable_health`] installs the strike
/// policy. Servers are keyed by their stable [`ServerId`]; killing one
/// and joining a replacement is the membership-churn scenario the epoch
/// fence exists for.
#[derive(Debug)]
pub struct LocalCluster {
    /// The pull-only observer view clients route on.
    directory: Arc<Directory>,
    view_gossiper: Gossiper,
    nodes: HashMap<ServerId, Node>,
    ferret: FerretConfig,
    cfg: ClusterServerConfig,
    /// Servers spawned so far: the next id, and the per-server seed
    /// derivation (a replacement never shares a correlation stream with
    /// any earlier server).
    spawned: u64,
    /// Gossip rendezvous: every server address ever spawned (static
    /// seeds survive mutual eviction).
    seeds: Vec<SocketAddr>,
    /// Gossip cadence template for every member.
    gossip_cfg: GossiperConfig,
    /// The strike policy, once enabled, installed on later members too.
    health: Option<HealthConfig>,
    observer: Option<FleetObserver>,
    exporter: Option<FleetExporter>,
}

impl LocalCluster {
    /// Spawns `n` servers on ephemeral loopback ports. Each announces
    /// itself into its own replica with [`Directory::join_as`] and
    /// converges through its gossiper, with every server address —
    /// including later joiners' — as a rendezvous seed.
    /// [`LocalCluster::directory`] is a pull-only *observer view* that
    /// clients route on; [`LocalCluster::wait_converged`] blocks until it
    /// and every replica agree. Server `i` uses `cfg.service.seed` offset
    /// by a per-spawn multiplier, so no two servers — original or
    /// replacement — share a correlation stream.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn spawn_replicated(
        n: usize,
        ferret: &FerretConfig,
        cfg: &ClusterServerConfig,
        gossip: GossiperConfig,
    ) -> std::io::Result<Self> {
        assert!(n > 0, "cluster needs at least one server");
        let directory = Arc::new(Directory::new());
        let view_gossiper = Gossiper::spawn(
            Arc::clone(&directory),
            GossiperConfig {
                identity: None,
                seeds: Vec::new(),
                ..gossip.clone()
            },
        );
        let mut cluster = LocalCluster {
            directory,
            view_gossiper,
            nodes: HashMap::new(),
            ferret: ferret.clone(),
            cfg: cfg.clone(),
            spawned: 0,
            seeds: Vec::new(),
            gossip_cfg: gossip,
            health: None,
            observer: None,
            exporter: None,
        };
        for _ in 0..n {
            cluster.spawn_server()?;
        }
        Ok(cluster)
    }

    /// The directory membership mutations should be issued against: the
    /// lease holder's replica, or the lowest running server's when the
    /// observer view names no running holder yet; gossip spreads the
    /// write. Falls back to the observer view when no server runs.
    pub fn control_directory(&self) -> Arc<Directory> {
        let holder = self
            .directory
            .lease_holder()
            .filter(|id| self.nodes.contains_key(id));
        holder
            .or_else(|| self.server_ids().first().copied())
            .and_then(|id| self.replica(id))
            .unwrap_or_else(|| Arc::clone(&self.directory))
    }

    /// Server `id`'s own directory replica, while it runs.
    pub fn replica(&self, id: ServerId) -> Option<Arc<Directory>> {
        self.nodes.get(&id).map(|node| Arc::clone(&node.replica))
    }

    /// Spawns one more server: a fresh replica that self-announces via
    /// `join_as` and converges through its gossiper (an epoch bump every
    /// client observes once it spreads) — the "replacement joins" half
    /// of membership churn. Returns its stable id (`spawned - 1`,
    /// operator-assigned — gossip has no central id allocator).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn_server(&mut self) -> std::io::Result<ServerId> {
        let mut server_cfg = self.cfg.clone();
        server_cfg.service.seed = self
            .cfg
            .service
            .seed
            .wrapping_add(0x517c_c1b7_2722_0a95u64.wrapping_mul(self.spawned + 1));
        let id = ServerId(self.spawned);
        self.spawned += 1;
        let name = format!("local-{}", id.0);
        let replica = Arc::new(Directory::new_replica(id));
        let server = ClusterServer::spawn(
            "127.0.0.1:0",
            &self.ferret,
            server_cfg,
            Some(Arc::clone(&replica)),
        )?;
        server.set_self_id(id);
        let addr = server.addr();
        self.seeds.push(addr);
        // Introduce the newcomer to every gossiper already running
        // (members and the observer view). Pull-only anti-entropy never
        // discovers a peer nobody points at: without this the first
        // server's gossiper — whose seed snapshot predates the rest of
        // the fleet — would pull from no one and its replica would never
        // converge, and late joiners would stay invisible to incumbents.
        self.view_gossiper.add_seed(addr);
        for node in self.nodes.values() {
            node.gossiper.add_seed(addr);
        }
        let gossiper = Gossiper::spawn(
            Arc::clone(&replica),
            GossiperConfig {
                identity: Some(GossipIdentity {
                    id,
                    addr,
                    name,
                    weight: 1,
                }),
                seeds: self.seeds.clone(),
                ..self.gossip_cfg.clone()
            },
        );
        if let Some(health) = self.health {
            gossiper.enable_health(health);
        }
        self.nodes.insert(
            id,
            Node {
                server,
                replica,
                gossiper,
            },
        );
        Ok(id)
    }

    /// The observer view: a directory converged by its own pull-only
    /// gossiper, never written locally. Clients route on it.
    pub fn directory(&self) -> Arc<Directory> {
        Arc::clone(&self.directory)
    }

    /// Stable ids of the currently running servers, sorted.
    pub fn server_ids(&self) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The running server with id `id`, if any.
    pub fn server(&self, id: ServerId) -> Option<&ClusterServer> {
        self.nodes.get(&id).map(|node| &node.server)
    }

    /// Starts failure detection: installs the strike policy on every
    /// member's gossiper, and on every server spawned later. Each
    /// replica marks unreachable peers suspect; only the lease holder
    /// evicts.
    pub fn enable_health(&mut self, cfg: HealthConfig) {
        self.health = Some(cfg);
        for node in self.nodes.values() {
            node.gossiper.enable_health(cfg);
        }
    }

    /// Starts the fleet telemetry scraper (see [`FleetObserver`]): every
    /// member's v6 `Stats` latency histograms merged into one
    /// [`crate::FleetSnapshot`] on the configured cadence, readable via
    /// [`LocalCluster::observer`].
    pub fn enable_observer(&mut self, cfg: FleetObserverConfig) {
        self.observer
            .get_or_insert_with(|| FleetObserver::spawn(Arc::clone(&self.directory), cfg));
    }

    /// The running fleet observer, if [`LocalCluster::enable_observer`]
    /// started one.
    pub fn observer(&self) -> Option<&FleetObserver> {
        self.observer.as_ref()
    }

    /// A cloneable read handle onto the observer's retained state
    /// (snapshots, windows, alerts), if the observer is running.
    pub fn observer_handle(&self) -> Option<FleetHandle> {
        self.observer.as_ref().map(FleetObserver::handle)
    }

    /// Starts the scrape exporter on an ephemeral loopback port, serving
    /// `/metrics` and `/fleet` from the observer's retained state.
    /// Requires [`LocalCluster::enable_observer`] first; returns the
    /// bound address.
    ///
    /// # Errors
    ///
    /// Bind failures, and `InvalidInput` when no observer is running.
    pub fn enable_exporter(&mut self, cfg: FleetExporterConfig) -> std::io::Result<SocketAddr> {
        if let Some(exporter) = &self.exporter {
            return Ok(exporter.addr());
        }
        let handle = self.observer_handle().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "enable_observer before enable_exporter",
            )
        })?;
        let exporter = FleetExporter::spawn("127.0.0.1:0", handle, cfg)?;
        let addr = exporter.addr();
        self.exporter = Some(exporter);
        Ok(addr)
    }

    /// The running exporter's address, if one was started.
    pub fn exporter_addr(&self) -> Option<SocketAddr> {
        self.exporter.as_ref().map(FleetExporter::addr)
    }

    /// Kills a server **without telling the directory** — crash
    /// semantics: clients discover it through connect failures and the
    /// peers' gossipers (with health enabled) evict it. Its gossiper
    /// dies with it. Returns its final statistics.
    ///
    /// # Panics
    ///
    /// Panics if no server with `id` is running.
    pub fn kill_server(&mut self, id: ServerId) -> ServiceStats {
        self.nodes.remove(&id).expect("server not running").stop()
    }

    /// Marks a server draining (it keeps serving existing sessions but
    /// receives no new homes). The server keeps running until
    /// [`LocalCluster::kill_server`].
    /// The drain lands on the lease holder's replica and gossip spreads
    /// it — including to the drained server itself, whose push loops
    /// then announce `DrainHandoff` in-stream.
    pub fn drain_server(&self, id: ServerId) {
        self.control_directory().drain(id);
    }

    /// Arms a seeded fault plan on every session server `id` accepts —
    /// data path, peers' gossip pulls and scrapes alike (see
    /// `ironman-net`'s `FaultInjector`). Returns `false` if the server is
    /// not running.
    pub fn inject_faults(&self, id: ServerId, plan: FaultPlan) -> bool {
        self.server(id).is_some_and(|s| {
            s.service().set_faults(plan);
            true
        })
    }

    /// Disarms fault injection on server `id` (in-flight injected
    /// stalls unwind on their own). Returns `false` if not running.
    pub fn heal_faults(&self, id: ServerId) -> bool {
        self.server(id).is_some_and(|s| {
            s.service().clear_faults();
            true
        })
    }

    /// Puts server `id` into graceful degradation for `window`: serving
    /// requests are declined with `Unavailable { retry_after_ms }`
    /// (control ops still answer). Returns `false` if not running.
    pub fn starve_server(&self, id: ServerId, window: Duration) -> bool {
        self.server(id).is_some_and(|s| {
            s.service().set_unavailable_for(window);
            true
        })
    }

    /// Lifts a [`LocalCluster::starve_server`] window early. Returns
    /// `false` if the server is not running.
    pub fn unstarve_server(&self, id: ServerId) -> bool {
        self.server(id).is_some_and(|s| {
            s.service().clear_unavailable();
            true
        })
    }

    /// Heals every running server: disarms fault injection and lifts
    /// degradation windows fleet-wide (the chaos-drill "all clear").
    pub fn heal_all(&self) {
        for node in self.nodes.values() {
            node.server.service().clear_faults();
            node.server.service().clear_unavailable();
        }
    }

    /// Blocks until every running server's pool holds at least
    /// `per_server` buffered correlations, or `timeout` passes. Returns
    /// whether the fleet got warm.
    pub fn wait_warm(&self, per_server: usize, timeout: Duration) -> bool {
        poll(timeout, || {
            self.nodes
                .values()
                .all(|node| node.server.pool().available() >= per_server)
        })
    }

    /// Blocks until every running server's replica and the observer view
    /// hold one epoch vector, or `timeout` passes. Returns whether the
    /// fleet converged. A write the observer pulled from a server that
    /// died before any running replica pulled it (with health enabled, a
    /// dying server's last strike marks) keeps the vectors apart for
    /// good.
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        poll(timeout, || {
            let view = self.directory.epoch_vector();
            self.nodes
                .values()
                .all(|node| node.replica.epoch_vector() == view)
        })
    }

    /// Shuts the whole fleet down (controllers first, then every
    /// running server); returns the final statistics of the servers
    /// that were still live.
    pub fn shutdown(self) -> Vec<ServiceStats> {
        if let Some(exporter) = self.exporter {
            exporter.stop();
        }
        self.view_gossiper.stop();
        if let Some(observer) = self.observer {
            observer.stop();
        }
        let mut nodes: Vec<(ServerId, Node)> = self.nodes.into_iter().collect();
        nodes.sort_unstable_by_key(|&(id, _)| id);
        nodes.into_iter().map(|(_, node)| node.stop()).collect()
    }
}

/// Polls `done` every 2 ms until it holds (`true`) or `timeout` passes
/// (`false`).
fn poll(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}
