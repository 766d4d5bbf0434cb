//! Cluster-side server composition: a [`CotService`] attached to the
//! shared [`Directory`] (so it can fence stale epochs and answer
//! membership syncs), plus the [`LocalCluster`] helper that runs a whole
//! *dynamic* fleet in one process for tests, benches, and demos —
//! servers join, drain, die, and get replaced while clients keep
//! serving.

use crate::directory::{Directory, ServerId};
use crate::exporter::{FleetExporter, FleetExporterConfig};
use crate::gossip::{GossipIdentity, Gossiper, GossiperConfig};
use crate::health::{HealthChecker, HealthConfig};
use crate::observe::{FleetHandle, FleetObserver, FleetObserverConfig};
use crate::warmup::{Warmup, WarmupConfig};
use ironman_core::{Engine, SharedCotPool};
use ironman_net::{CotService, CotServiceConfig, DirectoryView, FaultPlan, ServiceStats};
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
    /// (bind first, then [`Directory::join`] with the bound address).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        engine: &Engine,
        cfg: ClusterServerConfig,
        directory: Option<Arc<Directory>>,
    ) -> std::io::Result<ClusterServer> {
        let listener = TcpListener::bind(addr)?;
        let pool = Arc::new(cfg.service.build_pool(engine));
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

/// A whole dynamic fleet on loopback: N [`ClusterServer`]s (each an
/// independent FERRET dealer with its own `Δ` stream) registered in one
/// shared [`Directory`], plus optional health checking. Servers are
/// keyed by their stable [`ServerId`]; killing one and joining a
/// replacement is the membership-churn scenario the epoch fence exists
/// for.
#[derive(Debug)]
pub struct LocalCluster {
    directory: Arc<Directory>,
    servers: HashMap<ServerId, ClusterServer>,
    engine: Engine,
    cfg: ClusterServerConfig,
    /// Servers spawned so far (drives per-server seed derivation, so a
    /// replacement never shares a correlation stream with any earlier
    /// server).
    spawned: u64,
    health: Vec<HealthChecker>,
    observer: Option<FleetObserver>,
    exporter: Option<FleetExporter>,
    /// Replicated mode (v9): each server's own directory replica, keyed
    /// by id. Empty = shared-directory mode (`self.directory` is the one
    /// truth); non-empty = `self.directory` is a pull-only observer view
    /// converged by its own gossiper.
    replicas: HashMap<ServerId, Arc<Directory>>,
    /// Running anti-entropy loops, one per replica. A killed server's
    /// gossiper is stopped with it — a dead server must not keep
    /// re-announcing itself from beyond the grave.
    gossipers: HashMap<ServerId, Gossiper>,
    /// The observer view's own pull loop (replicated mode).
    view_gossiper: Option<Gossiper>,
    /// Gossip rendezvous: every server address ever spawned in
    /// replicated mode (static seeds survive mutual eviction).
    seeds: Vec<SocketAddr>,
    /// Gossip cadence template for replicated spawns.
    gossip_cfg: GossiperConfig,
}

impl LocalCluster {
    /// Spawns `n` servers on ephemeral loopback ports, all joined into a
    /// fresh shared directory (epoch `n` afterwards). Server `i` uses
    /// `cfg.service.seed` offset by a per-spawn multiplier, so no two
    /// servers — original or replacement — share a correlation stream.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn spawn(n: usize, engine: &Engine, cfg: &ClusterServerConfig) -> std::io::Result<Self> {
        assert!(n > 0, "cluster needs at least one server");
        let mut cluster = Self::empty(engine, cfg);
        for _ in 0..n {
            cluster.spawn_server()?;
        }
        Ok(cluster)
    }

    /// Like [`LocalCluster::spawn`], but **replicated** (v9): each
    /// server carries its own [`Directory`] replica, announced through
    /// [`Directory::join_as`] and converged by a per-server [`Gossiper`]
    /// (anti-entropy pulls against every peer, with all server addresses
    /// — including later joiners' — as rendezvous seeds). `self.directory()` then returns a pull-only
    /// *observer view* — a directory converged by its own gossiper but
    /// never written locally — which clients route on exactly as they
    /// would the shared one. Membership mutations issued through the
    /// cluster handle ([`LocalCluster::drain_server`] etc.) are applied
    /// to the lease holder's replica and spread by gossip.
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
        engine: &Engine,
        cfg: &ClusterServerConfig,
        gossip: GossiperConfig,
    ) -> std::io::Result<Self> {
        assert!(n > 0, "cluster needs at least one server");
        let mut cluster = Self::empty(engine, cfg);
        cluster.gossip_cfg = gossip;
        for _ in 0..n {
            cluster.spawn_replicated_server()?;
        }
        // The observer view: converges through pulls from the seeds, so
        // the coordinator (and clients bootstrapping off it) sees the
        // merged fleet without being a member.
        cluster.view_gossiper = Some(Gossiper::spawn(
            Arc::clone(&cluster.directory),
            GossiperConfig {
                identity: None,
                seeds: cluster.seeds.clone(),
                ..cluster.gossip_cfg.clone()
            },
        ));
        Ok(cluster)
    }

    fn empty(engine: &Engine, cfg: &ClusterServerConfig) -> Self {
        LocalCluster {
            directory: Arc::new(Directory::new()),
            servers: HashMap::new(),
            engine: engine.clone(),
            cfg: cfg.clone(),
            spawned: 0,
            health: Vec::new(),
            observer: None,
            exporter: None,
            replicas: HashMap::new(),
            gossipers: HashMap::new(),
            view_gossiper: None,
            seeds: Vec::new(),
            gossip_cfg: GossiperConfig::default(),
        }
    }

    /// Whether this cluster runs per-server directory replicas (v9)
    /// rather than one shared directory.
    pub fn is_replicated(&self) -> bool {
        !self.replicas.is_empty()
    }

    /// The directory membership mutations should be issued against: in
    /// shared mode the one directory; in replicated mode the lease
    /// holder's replica (gossip spreads the write). Falls back to any
    /// replica when the observer view has not converged yet.
    pub fn control_directory(&self) -> Arc<Directory> {
        if self.replicas.is_empty() {
            return Arc::clone(&self.directory);
        }
        self.directory
            .lease_holder()
            .and_then(|holder| self.replicas.get(&holder))
            .or_else(|| {
                let mut ids: Vec<&ServerId> = self.replicas.keys().collect();
                ids.sort_unstable();
                ids.first().and_then(|id| self.replicas.get(id))
            })
            .map(Arc::clone)
            .expect("replicated cluster has at least one replica")
    }

    /// Server `id`'s own directory replica (replicated mode only).
    pub fn replica(&self, id: ServerId) -> Option<Arc<Directory>> {
        self.replicas.get(&id).map(Arc::clone)
    }

    fn next_server_cfg(&mut self) -> ClusterServerConfig {
        let mut server_cfg = self.cfg.clone();
        server_cfg.service.seed = self
            .cfg
            .service
            .seed
            .wrapping_add(0x517c_c1b7_2722_0a95u64.wrapping_mul(self.spawned + 1));
        self.spawned += 1;
        server_cfg
    }

    /// Spawns one more server in replicated mode: a fresh replica that
    /// self-announces via `join_as` and converges through its gossiper.
    /// Returns its stable id (`spawned - 1`, operator-assigned — gossip
    /// has no central id allocator).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn_replicated_server(&mut self) -> std::io::Result<ServerId> {
        let server_cfg = self.next_server_cfg();
        let id = ServerId(self.spawned - 1);
        let name = format!("local-{}", id.0);
        let replica = Arc::new(Directory::new_replica(id));
        let server = ClusterServer::spawn(
            "127.0.0.1:0",
            &self.engine,
            server_cfg,
            Some(Arc::clone(&replica)),
        )?;
        server.set_self_id(id);
        let addr = server.addr();
        replica.join_as(id, addr, &name, 1);
        self.seeds.push(addr);
        // Introduce the newcomer to every gossiper already running
        // (members and the observer view). Pull-only anti-entropy never
        // discovers a peer nobody points at: without this the first
        // server's gossiper — whose seed snapshot predates the rest of
        // the fleet — would pull from no one and its replica would never
        // converge, and late joiners would stay invisible to incumbents.
        for gossiper in self.gossipers.values() {
            gossiper.add_seed(addr);
        }
        if let Some(view) = &self.view_gossiper {
            view.add_seed(addr);
        }
        self.gossipers.insert(
            id,
            Gossiper::spawn(
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
            ),
        );
        self.replicas.insert(id, replica);
        self.servers.insert(id, server);
        Ok(id)
    }

    /// Spawns one more server and joins it into the directory (an epoch
    /// bump every client observes) — the "replacement joins" half of
    /// membership churn. Returns its stable id.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn_server(&mut self) -> std::io::Result<ServerId> {
        assert!(
            self.replicas.is_empty(),
            "use spawn_replicated_server on a replicated cluster"
        );
        let server_cfg = self.next_server_cfg();
        let server = ClusterServer::spawn(
            "127.0.0.1:0",
            &self.engine,
            server_cfg,
            Some(Arc::clone(&self.directory)),
        )?;
        let id = self
            .directory
            .join(server.addr(), &format!("local-{}", self.spawned - 1));
        self.servers.insert(id, server);
        Ok(id)
    }

    /// The shared control-plane directory (clients and the health
    /// checker hold the same one).
    pub fn directory(&self) -> Arc<Directory> {
        Arc::clone(&self.directory)
    }

    /// Stable ids of the currently running servers, sorted.
    pub fn server_ids(&self) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = self.servers.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The running server with id `id`, if any.
    pub fn server(&self, id: ServerId) -> Option<&ClusterServer> {
        self.servers.get(&id)
    }

    /// Starts health checking: in shared mode one checker over the
    /// fleet directory; in replicated mode one checker *per replica*,
    /// each gated so only the lease holder evicts (suspect marks stay
    /// ungated — they are how the lease expires). Idempotent.
    pub fn enable_health(&mut self, cfg: HealthConfig) {
        if !self.health.is_empty() {
            return;
        }
        if self.replicas.is_empty() {
            self.health
                .push(HealthChecker::spawn(Arc::clone(&self.directory), cfg));
            return;
        }
        for (&id, replica) in &self.replicas {
            self.health.push(HealthChecker::spawn(
                Arc::clone(replica),
                HealthConfig {
                    self_id: Some(id),
                    ..cfg
                },
            ));
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
    /// health checker (if running) evicts it. Returns its final
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if no server with `id` is running.
    pub fn kill_server(&mut self, id: ServerId) -> ServiceStats {
        // In replicated mode the dead server's gossiper dies with it:
        // its job was announcing and converging that replica, and a
        // ghost that keeps re-announcing an evicted member would fight
        // the health checker forever. The replica itself stays in the
        // map so post-mortem inspection (tests asserting convergence)
        // still works.
        if let Some(gossiper) = self.gossipers.remove(&id) {
            gossiper.stop();
        }
        self.servers
            .remove(&id)
            .expect("server not running")
            .shutdown()
    }

    /// Gracefully removes a server: [`Directory::drain`] first (no new
    /// homes), then shutdown, then [`Directory::leave`]. Returns its
    /// final statistics.
    ///
    /// # Panics
    ///
    /// Panics if no server with `id` is running.
    pub fn remove_server(&mut self, id: ServerId) -> ServiceStats {
        self.control_directory().drain(id);
        if let Some(gossiper) = self.gossipers.remove(&id) {
            gossiper.stop();
        }
        let stats = self
            .servers
            .remove(&id)
            .expect("server not running")
            .shutdown();
        self.replicas.remove(&id);
        self.control_directory().leave(id);
        stats
    }

    /// Marks a server draining (it keeps serving existing sessions but
    /// receives no new homes). The server keeps running until
    /// [`LocalCluster::kill_server`]/[`LocalCluster::remove_server`].
    /// In replicated mode the drain lands on the lease holder's replica
    /// and gossip spreads it — including to the drained server itself,
    /// whose push loops then announce `DrainHandoff` in-stream.
    pub fn drain_server(&self, id: ServerId) {
        self.control_directory().drain(id);
    }

    /// Arms a seeded fault plan on server `id`'s data-path sessions (see
    /// `ironman-net`'s `FaultInjector`). Returns `false` if the server
    /// is not running.
    pub fn inject_faults(&self, id: ServerId, plan: FaultPlan) -> bool {
        self.servers.get(&id).is_some_and(|s| {
            s.service().set_faults(plan);
            true
        })
    }

    /// Disarms fault injection on server `id` (in-flight injected
    /// stalls unwind on their own). Returns `false` if not running.
    pub fn heal_faults(&self, id: ServerId) -> bool {
        self.servers.get(&id).is_some_and(|s| {
            s.service().clear_faults();
            true
        })
    }

    /// Puts server `id` into graceful degradation for `window`: serving
    /// requests are declined with `Unavailable { retry_after_ms }`
    /// (control ops still answer). Returns `false` if not running.
    pub fn starve_server(&self, id: ServerId, window: Duration) -> bool {
        self.servers.get(&id).is_some_and(|s| {
            s.service().set_unavailable_for(window);
            true
        })
    }

    /// Lifts a [`LocalCluster::starve_server`] window early. Returns
    /// `false` if the server is not running.
    pub fn unstarve_server(&self, id: ServerId) -> bool {
        self.servers.get(&id).is_some_and(|s| {
            s.service().clear_unavailable();
            true
        })
    }

    /// Heals every running server: disarms fault injection and lifts
    /// degradation windows fleet-wide (the chaos-drill "all clear").
    pub fn heal_all(&self) {
        for server in self.servers.values() {
            server.service().clear_faults();
            server.service().clear_unavailable();
        }
    }

    /// Blocks until every running server's pool holds at least
    /// `per_server` buffered correlations, or `timeout` passes. Returns
    /// whether the fleet got warm.
    pub fn wait_warm(&self, per_server: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self
                .servers
                .values()
                .all(|s| s.pool().available() >= per_server)
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Shuts the whole fleet down (controllers first, then every
    /// running server); returns the final statistics of the servers
    /// that were still live.
    pub fn shutdown(mut self) -> Vec<ServiceStats> {
        if let Some(exporter) = self.exporter.take() {
            exporter.stop();
        }
        for health in self.health.drain(..) {
            health.stop();
        }
        if let Some(gossiper) = self.view_gossiper.take() {
            gossiper.stop();
        }
        for (_, gossiper) in self.gossipers.drain() {
            gossiper.stop();
        }
        if let Some(observer) = self.observer.take() {
            observer.stop();
        }
        let mut ids: Vec<ServerId> = self.servers.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                self.servers
                    .remove(&id)
                    .expect("listed id is running")
                    .shutdown()
            })
            .collect()
    }
}
