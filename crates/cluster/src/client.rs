//! The fleet-aware client: one handle that routes COT demand across the
//! live membership of a shared [`Directory`].
//!
//! Routing policy, in order:
//!
//! 1. **Consistent-hash home** — the first chunk of every request goes to
//!    the session's home server in the *current ring snapshot* (sticky
//!    routing keeps one `Δ` stream per consumer where possible).
//! 2. **Least-outstanding spill** — a request larger than one server's
//!    `max_request` is transparently split, and the spill chunks go to
//!    whichever healthy servers have served this session the fewest
//!    correlations so far.
//! 3. **Failover with cooldown** — a connect or I/O error puts the server
//!    in a *failure cooldown*: requests skip it without re-paying the
//!    connect timeout until the cooldown expires, a membership epoch bump
//!    clears the marks, or [`ClusterClient::heal`] is called. Semantic
//!    errors are *not* failed over: they would recur on every server.
//!
//! # Deadlines, retries & degradation (v8)
//!
//! Every server session is dialed and driven under [`OpTimeouts`]
//! deadlines (see [`ClusterClient::set_op_timeouts`]), so a blackholed
//! or stalled member costs one bounded timeout — surfaced as the typed
//! `ChannelError::TimedOut` and treated as a connectivity failure
//! (cooldown + failover), never an indefinite hang. A corrupt link
//! (`Malformed` frames) fails over the same way: garbage from one
//! server says nothing about the others.
//!
//! When a *whole* routing sweep fails on connectivity, the client may
//! sleep **one** [`RetryPolicy`] backoff step (decorrelated jitter),
//! heal, and sweep again — but only while the [`RetryBudget`] token
//! bucket has credit, so a fleet-wide outage degrades to fast typed
//! failures instead of a retry storm. One backoff per call, budget or
//! not: no call blocks longer than its deadlines plus one backoff step.
//!
//! A server answering `Unavailable { retry_after_ms }` (supply-starved,
//! wire v8) is *honored*: it is cooled down for exactly the hinted
//! window — not the generic failure cooldown — while requests fail over
//! to healthy members; if the whole fleet is starved the hint also
//! bounds the single backoff sleep. Timeouts seen, retries spent,
//! unavailable hints honored, and the backoff-sleep distribution are
//! all observable ([`ClusterClient::timeouts_seen`] and friends).
//!
//! # Epoch handling
//!
//! The client announces its directory epoch at connect and keeps each
//! server session current: when the membership changes, a stale session
//! is fenced with `WrongEpoch`, the client presents its per-origin epoch
//! vector in a `Gossip` exchange (v9 — scalar epochs from different
//! replicas of a replicated fleet are incomparable, vectors name exactly
//! which writes we hold), merges the returned delta into its
//! [`Directory`], re-resolves against the fresh ring snapshot, and
//! retries — transparently to the caller. Streams do the same
//! mid-flight: [`ClusterClient::stream_cots`] resumes a stream cut short
//! by a dead or draining server on the new home with exact accounting
//! (every correlation is consumed exactly once; nothing is lost or
//! replayed) — and when the draining server announced its successor
//! in-stream (`DrainHandoff`, v9), the resume goes straight there, zero
//! extra roundtrips.

use crate::directory::{Directory, RingSnapshot, ServerId, UNATTRIBUTED};
use ironman_net::{CotClient, OpTimeouts, RetryBudget, RetryPolicy, ServiceStats, StreamSummary};
use ironman_ot::channel::ChannelError;
use ironman_ot::CotBatch;
use ironman_telemetry::{Histogram, HistogramSnapshot, Stopwatch};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connect/IO failure keeps a server out of this client's
/// routing before it may be retried (an epoch bump or
/// [`ClusterClient::heal`] clears the mark earlier).
pub const FAILOVER_COOLDOWN: Duration = Duration::from_millis(250);

/// Bound on fence→resync→retry rounds per request: each round means the
/// membership moved *again* while we were retrying; past this the fleet
/// is churning too fast to route and the caller should see the error.
const MAX_EPOCH_RETRIES: usize = 8;

/// Hard ceiling on how long an `Unavailable { retry_after_ms }` hint may
/// cool a server down — a buggy or hostile hint must not bench a member
/// for hours.
const MAX_UNAVAILABLE_HINT: Duration = Duration::from_secs(30);

#[derive(Debug, Default)]
struct Slot {
    client: Option<CotClient>,
    /// Correlations this session has received from this server.
    served: u64,
    /// When this server last failed (connect or I/O); requests skip it
    /// until [`FAILOVER_COOLDOWN`] elapses.
    failed_at: Option<Instant>,
    /// Cooldown from an `Unavailable { retry_after_ms }` hint: requests
    /// skip this server until the hinted instant (the session itself is
    /// kept — the server is healthy, just starved).
    unavailable_until: Option<Instant>,
    /// The directory epoch this server session last announced (`Hello`)
    /// or was brought to by a `Gossip` pull; lagging behind the snapshot triggers a proactive
    /// resync before the server has to fence us.
    epoch_synced: u64,
}

/// A session's view of the fleet: the shared control-plane directory, a
/// routing snapshot, and lazily connected per-server sessions keyed by
/// stable [`ServerId`].
#[derive(Debug)]
pub struct ClusterClient {
    directory: Arc<Directory>,
    session: String,
    snapshot: Arc<RingSnapshot>,
    slots: HashMap<ServerId, Slot>,
    cooldown: Duration,
    /// Deadlines applied to every server session (connect, read, write).
    timeouts: OpTimeouts,
    /// Backoff generator for the one budgeted retry sweep per call.
    retry: RetryPolicy,
    /// Token bucket bounding retries per unit time across calls.
    budget: RetryBudget,
    /// `TimedOut` failures observed on this client's sessions.
    timeouts_seen: u64,
    /// Budgeted backoff sweeps actually slept.
    retries_spent: u64,
    /// `Unavailable { retry_after_ms }` hints honored.
    unavailable_seen: u64,
    /// Distribution of backoff sleeps actually taken.
    retry_backoff: Histogram,
}

impl ClusterClient {
    /// Creates a client for `session` over the shared `directory` and
    /// connects to its home server (or, if the home is down, the first
    /// reachable server in ring order).
    ///
    /// # Errors
    ///
    /// Fails only when *no* member of the directory is reachable (or the
    /// directory is empty).
    pub fn connect(directory: Arc<Directory>, session: &str) -> Result<Self, ChannelError> {
        let snapshot = directory.snapshot();
        // Seed the backoff jitter from the session name: deterministic
        // for a given consumer (replayable tests), decorrelated across
        // differently-named consumers (no synchronized retry herd).
        let seed = fnv1a(session.as_bytes());
        let mut client = ClusterClient {
            directory,
            session: session.to_string(),
            snapshot,
            slots: HashMap::new(),
            cooldown: FAILOVER_COOLDOWN,
            timeouts: OpTimeouts::default(),
            retry: RetryPolicy::default_with_seed(seed),
            budget: RetryBudget::default_serving(),
            timeouts_seen: 0,
            retries_spent: 0,
            unavailable_seen: 0,
            retry_backoff: Histogram::new(),
        };
        client.first_available(None)?;
        Ok(client)
    }

    /// Overrides the failure cooldown (tests mostly; the default is
    /// [`FAILOVER_COOLDOWN`]).
    pub fn set_failover_cooldown(&mut self, cooldown: Duration) {
        self.cooldown = cooldown;
    }

    /// Overrides the per-operation deadlines for every server session.
    /// Existing sessions are dropped so the next request redials under
    /// the new deadlines; in-flight calls on other handles are
    /// unaffected (each `ClusterClient` owns its sessions).
    pub fn set_op_timeouts(&mut self, timeouts: OpTimeouts) {
        self.timeouts = timeouts;
        for slot in self.slots.values_mut() {
            slot.client = None;
        }
    }

    /// Replaces the backoff policy for budgeted retry sweeps.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// `TimedOut` failures this client has observed on its sessions.
    pub fn timeouts_seen(&self) -> u64 {
        self.timeouts_seen
    }

    /// Budgeted backoff sweeps this client has slept.
    pub fn retries_spent(&self) -> u64 {
        self.retries_spent
    }

    /// `Unavailable { retry_after_ms }` declines this client has
    /// honored with a hint-length cooldown.
    pub fn unavailable_seen(&self) -> u64 {
        self.unavailable_seen
    }

    /// The distribution of backoff sleeps actually taken (nanoseconds).
    pub fn retry_backoff(&self) -> HistogramSnapshot {
        self.retry_backoff.snapshot()
    }

    /// The session's current home server, per the latest ring snapshot
    /// this client has observed (`None` on an empty fleet).
    pub fn home(&self) -> Option<ServerId> {
        self.snapshot.home(&self.session)
    }

    /// The membership epoch this client currently routes under.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Correlations served to this session per server, sorted by id —
    /// the observable effect of the routing policy. Includes servers
    /// that have since left the fleet.
    pub fn served_per_server(&self) -> Vec<(ServerId, u64)> {
        let mut out: Vec<(ServerId, u64)> =
            self.slots.iter().map(|(id, s)| (*id, s.served)).collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Correlations served to this session by one server.
    pub fn served_for(&self, id: ServerId) -> u64 {
        self.slots.get(&id).map_or(0, |s| s.served)
    }

    /// Total correlations served to this session across the fleet.
    pub fn served_total(&self) -> u64 {
        self.slots.values().map(|s| s.served).sum()
    }

    /// The most conservative single-server request limit: the minimum
    /// `max_request` across currently-connected servers (`None` before
    /// any connection succeeds). The value can tighten as split requests
    /// connect more servers of a heterogeneous fleet; requests above it
    /// are still served — they split.
    pub fn max_request(&self) -> Option<u64> {
        self.slots
            .values()
            .filter_map(|s| s.client.as_ref())
            .map(CotClient::max_request)
            .min()
    }

    /// Fetches `n` correlations, transparently splitting requests larger
    /// than one server's `max_request` across the fleet. Every split
    /// chunk lands in **one reused batch** handed to `visit` by borrow,
    /// so an oversized request crossing the whole fleet allocates
    /// nothing per chunk. Each chunk is homogeneous in `Δ` (chunks from
    /// different servers carry different `Δ`s; that is inherent to a
    /// sharded fleet). Returns the number of chunks visited. Consumers
    /// that keep a batch past the next chunk clone it explicitly.
    ///
    /// # Errors
    ///
    /// Fails when every server is unreachable, on a semantic
    /// (non-connectivity) server error, or when the membership churns
    /// faster than the client can resync. Chunks already visited stay
    /// visited (the visitor is not replayed).
    pub fn request_cots_with(
        &mut self,
        n: usize,
        mut visit: impl FnMut(&CotBatch),
    ) -> Result<u64, ChannelError> {
        let mut reused = CotBatch::default();
        let mut chunks = 0u64;
        let mut remaining = n as u64;
        while remaining > 0 {
            self.issue_into(chunks == 0, remaining, &mut reused)?;
            remaining -= reused.len() as u64;
            chunks += 1;
            visit(&reused);
        }
        Ok(chunks)
    }

    /// Streams `total` correlations in chunks of `batch` through
    /// credit-controlled subscriptions (plus one one-shot request for
    /// any remainder), invoking `consume` on every batch. Returns the
    /// exact accounting. This is the fleet's only stream: streamed load
    /// feeds the per-server counters spill routing reads
    /// ([`ClusterClient::served_per_server`]).
    ///
    /// Zero-copy receive: every chunk is decoded into **one reused
    /// batch** (and each session's retained frame buffer), so `consume`
    /// borrows it for the duration of the call — a steady-state stream
    /// allocates nothing per chunk.
    ///
    /// **Resumes across membership changes.** Server choice follows the
    /// routing policy; when the serving server dies mid-stream, ends the
    /// stream early (drain/shutdown), or fences a stale epoch, the
    /// client re-resolves against the updated membership and continues
    /// the stream on the new home for exactly the correlations still
    /// owed. `consume` sees every correlation exactly once — nothing
    /// lost, nothing replayed. Only accounting violations and semantic
    /// errors abort the stream.
    ///
    /// # Errors
    ///
    /// Fails when no server is reachable, on accounting violations or
    /// semantic errors, and with [`ChannelError::Disconnected`] when the
    /// whole fleet stops making progress before `total` is delivered
    /// (`consume` saw exactly what arrived).
    pub fn stream_cots(
        &mut self,
        total: u64,
        batch: usize,
        mut consume: impl FnMut(&CotBatch),
    ) -> Result<StreamSummary, ChannelError> {
        if total == 0 {
            return Ok(StreamSummary { chunks: 0, cots: 0 });
        }
        if batch == 0 {
            // Same typed rejection CotClient::subscribe gives this
            // misuse, raised before the chunk-count division below.
            return Err(ChannelError::RequestTooLarge {
                max: self.max_request().unwrap_or(0),
                requested: 0,
            });
        }
        let mut progress = StreamProgress::default();
        let mut reused = CotBatch::default();
        let mut dry_attempts = 0usize;
        let mut epoch_retries = 0usize;
        let mut retried = false;
        while progress.cots < total {
            let preferred = progress.handoff.take();
            let id = match self.first_available(preferred) {
                Ok(id) => id,
                // Nobody reachable (or everybody cooling down): one
                // budgeted backoff sweep, then the failure surfaces.
                Err(e) if !retried && is_connectivity(&e) && self.backoff_once(None) => {
                    retried = true;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let remaining = total - progress.cots;
            let chunks = remaining / batch as u64;
            let remainder = (remaining % batch as u64) as usize;
            let before = progress.cots;
            let client = self
                .slots
                .get_mut(&id)
                .and_then(|s| s.client.as_mut())
                .expect("first_available leaves a connected slot");
            let outcome = stream_on(
                client,
                batch,
                chunks,
                remainder,
                &mut reused,
                &mut progress,
                &mut consume,
            );
            let gained = progress.cots - before;
            if let Some(slot) = self.slots.get_mut(&id) {
                slot.served += gained;
            }
            // Every arm below treats a failure before the first chunk and
            // one mid-stream alike: whatever was consumed is counted, and
            // only the remainder moves.
            match outcome {
                // A clean-but-short stream is the server bowing out
                // (drain or shutdown): cool it down and resume the
                // remainder elsewhere.
                Ok(()) if progress.cots < total => self.mark_failed(id),
                Ok(()) => {}
                Err(ChannelError::WrongEpoch { .. }) => {
                    // Fenced: the membership moved. Resync and re-route;
                    // progress so far is preserved.
                    epoch_retries += 1;
                    if epoch_retries > MAX_EPOCH_RETRIES {
                        return Err(ChannelError::Disconnected);
                    }
                    self.resync(id)?;
                    continue;
                }
                // Starved server: honor the hint.
                Err(ChannelError::Unavailable { retry_after_ms }) => {
                    self.mark_unavailable(id, retry_after_ms);
                }
                // The server is unreachable or died.
                Err(e) if is_connectivity(&e) => {
                    self.note_failure(&e);
                    self.mark_failed(id);
                }
                Err(e) => return Err(e),
            }
            // Bound attempts that deliver nothing: once every member has
            // had a dry turn, the fleet is not making progress. Progress
            // resets both counters — the bounds exist to catch a fleet
            // churning faster than the client can resync, not to cap how
            // many membership changes a long-lived stream may ride out.
            if gained == 0 {
                dry_attempts += 1;
                if dry_attempts > self.snapshot.len().max(1) {
                    return Err(ChannelError::Disconnected);
                }
            } else {
                dry_attempts = 0;
                epoch_retries = 0;
            }
        }
        Ok(StreamSummary {
            chunks: progress.chunks,
            cots: progress.cots,
        })
    }

    /// Fetches a statistics snapshot from every current member (`None`
    /// for members that are failed, unreachable, or inside their failure
    /// cooldown — a dead member costs one connect attempt per cooldown,
    /// not one per call).
    pub fn stats_all(&mut self) -> Vec<(ServerId, SocketAddr, Option<ServiceStats>)> {
        self.refresh();
        let members: Vec<(ServerId, SocketAddr)> = self
            .snapshot
            .members()
            .iter()
            .map(|m| (m.id, m.addr))
            .collect();
        members
            .into_iter()
            .map(|(id, addr)| {
                if self.cooled(id) {
                    return (id, addr, None);
                }
                if self.ensure_connected(id).is_err() {
                    self.mark_failed(id);
                    return (id, addr, None);
                }
                let stats = self
                    .slots
                    .get_mut(&id)
                    .and_then(|s| s.client.as_mut())
                    .and_then(|c| c.stats().ok());
                if stats.is_none() {
                    self.mark_failed(id);
                }
                (id, addr, stats)
            })
            .collect()
    }

    /// Clears failure cooldowns and re-pulls the ring snapshot, letting
    /// previously failed servers be retried immediately (e.g. after an
    /// operator restarted one).
    pub fn heal(&mut self) {
        for slot in self.slots.values_mut() {
            slot.failed_at = None;
            slot.unavailable_until = None;
        }
        self.snapshot = self.directory.snapshot();
    }

    /// Re-pulls the ring snapshot when the directory has moved. An epoch
    /// bump clears every failure cooldown (the marks were made under a
    /// membership that no longer exists — a rejoined server must not
    /// inherit its predecessor's cooldown) and drops connections to
    /// members that left.
    fn refresh(&mut self) {
        if self.directory.epoch() == self.snapshot.epoch() {
            return;
        }
        let current = self.directory.snapshot();
        for (id, slot) in self.slots.iter_mut() {
            slot.failed_at = None;
            slot.unavailable_until = None;
            if current.member(*id).is_none() {
                slot.client = None;
            }
        }
        self.snapshot = current;
    }

    /// Whether `id` is inside its failure cooldown (or an honored
    /// `Unavailable` hint window) right now.
    fn cooled(&self, id: ServerId) -> bool {
        self.slots.get(&id).is_some_and(|s| {
            s.failed_at.is_some_and(|at| at.elapsed() < self.cooldown)
                || s.unavailable_until
                    .is_some_and(|until| Instant::now() < until)
        })
    }

    /// Issues one chunk of at most `want` correlations into `out`
    /// (reusing its allocations), preferring the home server for a
    /// request's first chunk and the least-served healthy server for
    /// spill chunks, walking the ring order on connectivity failures and
    /// resyncing through epoch fences. Returns the serving server.
    fn issue_into(
        &mut self,
        first_chunk: bool,
        want: u64,
        out: &mut CotBatch,
    ) -> Result<ServerId, ChannelError> {
        self.refresh();
        let mut retried = false;
        for _ in 0..=MAX_EPOCH_RETRIES {
            let route = self.snapshot.route(&self.session);
            let preferred = if first_chunk {
                self.home()
            } else {
                self.least_served_healthy(&route)
            };
            let start = preferred
                .and_then(|p| route.iter().position(|&id| id == p))
                .unwrap_or(0);
            let mut last_err: Option<ChannelError> = None;
            let mut fenced = false;
            for k in 0..route.len() {
                let id = route[(start + k) % route.len()];
                if self.cooled(id) {
                    continue;
                }
                if let Err(e) = self.ensure_connected(id) {
                    self.note_failure(&e);
                    self.mark_failed(id);
                    last_err = Some(e);
                    continue;
                }
                let client = self
                    .slots
                    .get_mut(&id)
                    .and_then(|s| s.client.as_mut())
                    .expect("connected slot");
                let chunk = want.min(client.max_request()).max(1);
                match client.request_cots_into(chunk as usize, out) {
                    Ok(()) => {
                        let slot = self.slots.get_mut(&id).expect("slot exists");
                        slot.served += out.len() as u64;
                        return Ok(id);
                    }
                    Err(ChannelError::WrongEpoch { .. }) => {
                        self.resync(id)?;
                        fenced = true;
                        break;
                    }
                    Err(ChannelError::Unavailable { retry_after_ms }) => {
                        // Supply-starved, not broken: honor the hint and
                        // keep walking to a healthy member.
                        self.mark_unavailable(id, retry_after_ms);
                        last_err = Some(ChannelError::Unavailable { retry_after_ms });
                    }
                    Err(e) if is_connectivity(&e) => {
                        self.note_failure(&e);
                        self.mark_failed(id);
                        last_err = Some(e);
                    }
                    Err(e) => return Err(e),
                }
            }
            if !fenced {
                let err = last_err.unwrap_or(ChannelError::Disconnected);
                let hint = match &err {
                    ChannelError::Unavailable { retry_after_ms } => Some(*retry_after_ms),
                    _ => None,
                };
                // The whole sweep failed: one budgeted backoff, then one
                // more sweep. `retried` bounds this call to a single
                // backoff step regardless of budget.
                if !retried && (hint.is_some() || is_connectivity(&err)) && self.backoff_once(hint)
                {
                    retried = true;
                    continue;
                }
                return Err(err);
            }
        }
        Err(ChannelError::Disconnected)
    }

    /// The healthy server that has served this session the least (ties
    /// break toward ring order) — the spill target for split requests.
    fn least_served_healthy(&self, route: &[ServerId]) -> Option<ServerId> {
        route
            .iter()
            .copied()
            .filter(|&id| !self.cooled(id))
            .min_by_key(|&id| self.served_for(id))
            .or_else(|| route.first().copied())
    }

    /// First reachable server, connecting as needed: `preferred` first
    /// while it is a routable member and not cooling down, then ring
    /// order. The preference is the drain-handoff resume path (v9): the
    /// draining server already told us who inherits this session's arc,
    /// so the stream resumes there with zero extra roundtrips instead of
    /// walking ring order.
    fn first_available(&mut self, preferred: Option<ServerId>) -> Result<ServerId, ChannelError> {
        self.refresh();
        let preferred = preferred.filter(|&id| self.snapshot.member(id).is_some());
        let route = self.snapshot.route(&self.session);
        let mut last_err: Option<ChannelError> = None;
        for id in preferred.into_iter().chain(route) {
            if self.cooled(id) {
                continue;
            }
            match self.ensure_connected(id) {
                Ok(()) => return Ok(id),
                Err(e) => {
                    self.note_failure(&e);
                    self.mark_failed(id);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or(ChannelError::Disconnected))
    }

    /// Connects the slot if needed (announcing the current epoch) and
    /// proactively resyncs a session whose announced epoch fell behind
    /// the snapshot, so the server does not have to fence it.
    fn ensure_connected(&mut self, id: ServerId) -> Result<(), ChannelError> {
        let member = self
            .snapshot
            .member(id)
            .cloned()
            .ok_or(ChannelError::Disconnected)?;
        let epoch = self.snapshot.epoch();
        let slot = self.slots.entry(id).or_default();
        if slot.client.is_none() {
            let name = format!("{}@{}", self.session, member.name);
            slot.client = Some(CotClient::connect_with(
                member.addr,
                &name,
                epoch,
                self.timeouts,
            )?);
            slot.epoch_synced = epoch;
            slot.failed_at = None;
        }
        if slot.epoch_synced < epoch {
            self.resync(id)?;
            // The resync itself may have found the server dead (it cools
            // the slot down and drops the connection rather than
            // erroring, so the caller's walk moves on): only report
            // connected if a live client actually remains.
            if self
                .slots
                .get(&id)
                .and_then(|s| s.client.as_ref())
                .is_none()
            {
                return Err(ChannelError::Disconnected);
            }
        }
        Ok(())
    }

    /// Pulls the membership delta from server `id` via the v9 gossip
    /// exchange — presenting our per-origin epoch vector, not the scalar
    /// epoch, because in a replicated fleet scalar epochs from different
    /// replicas are incomparable (each counts its own lineage of merges)
    /// while vectors name exactly which writes we have — applies it to
    /// the local directory, records the session as current, and re-pulls
    /// the routing snapshot. Connectivity failures cool the server down
    /// (the caller's walk moves on); semantic failures surface.
    fn resync(&mut self, id: ServerId) -> Result<(), ChannelError> {
        let have = self.directory.epoch();
        let vector = self.directory.epoch_vector();
        if let Some(client) = self.slots.get_mut(&id).and_then(|s| s.client.as_mut()) {
            match client.gossip(UNATTRIBUTED, vector) {
                Ok(delta) => {
                    self.directory.apply_delta(&delta);
                    if let Some(slot) = self.slots.get_mut(&id) {
                        slot.epoch_synced = delta.epoch.max(have);
                    }
                }
                Err(e) if is_connectivity(&e) => self.mark_failed(id),
                Err(e) => return Err(e),
            }
        }
        // Unconditional re-pull: the delta (or another actor) may have
        // moved the directory past our snapshot.
        let current = self.directory.snapshot();
        if current.epoch() != self.snapshot.epoch() {
            self.refresh();
        }
        Ok(())
    }

    fn mark_failed(&mut self, id: ServerId) {
        let slot = self.slots.entry(id).or_default();
        slot.failed_at = Some(Instant::now());
        slot.client = None;
    }

    /// Books a connectivity failure's *kind*: a deadline expiry is
    /// counted separately from hard IO errors (same failover treatment,
    /// different diagnosis).
    fn note_failure(&mut self, e: &ChannelError) {
        if matches!(e, ChannelError::TimedOut) {
            self.timeouts_seen += 1;
        }
    }

    /// Honors an `Unavailable { retry_after_ms }` decline: cools the
    /// server for exactly the hinted window (clamped to
    /// [`MAX_UNAVAILABLE_HINT`]) while keeping its session — the server
    /// is healthy, just starved — and books the hint.
    fn mark_unavailable(&mut self, id: ServerId, retry_after_ms: u64) {
        self.unavailable_seen += 1;
        let hint = Duration::from_millis(retry_after_ms.max(1)).min(MAX_UNAVAILABLE_HINT);
        let slot = self.slots.entry(id).or_default();
        slot.unavailable_until = Some(Instant::now() + hint);
    }

    /// One budgeted backoff sweep: spends a retry token, sleeps one
    /// [`RetryPolicy`] step (stretched to a fleet-wide `Unavailable`
    /// hint when one is in play, still capped by the policy), heals the
    /// cooldowns, and reports `true`. A dry budget refuses — the caller
    /// surfaces the failure instead of amplifying an outage.
    fn backoff_once(&mut self, hint_ms: Option<u64>) -> bool {
        if !self.budget.try_spend() {
            return false;
        }
        let mut sleep = self.retry.next_backoff();
        if let Some(ms) = hint_ms {
            sleep = sleep.max(Duration::from_millis(ms)).min(self.retry.cap());
        }
        self.retries_spent += 1;
        let watch = Stopwatch::start();
        std::thread::sleep(sleep);
        self.retry_backoff.record_elapsed(watch);
        self.heal();
        true
    }
}

/// Connectivity failures trigger failover; anything else would recur on
/// every server and is surfaced instead. Deadline expiries (`TimedOut`)
/// and corrupt frames (`Malformed`) are per-link conditions — a stalled
/// or garbling server says nothing about the rest of the fleet.
fn is_connectivity(e: &ChannelError) -> bool {
    matches!(
        e,
        ChannelError::Io(_)
            | ChannelError::Disconnected
            | ChannelError::TimedOut
            | ChannelError::Malformed { .. }
    )
}

/// FNV-1a over `bytes` — the session-name hash seeding backoff jitter.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Consumed-so-far accounting carried across stream attempts.
#[derive(Debug, Default)]
struct StreamProgress {
    /// Correlations consumed (chunks + remainder one-shots).
    cots: u64,
    /// Subscription chunks consumed (remainder one-shots not counted).
    chunks: u64,
    /// The successor a draining server announced in-stream
    /// (`DrainHandoff`, v9) — the zero-roundtrip failover hint the next
    /// attempt resumes at.
    handoff: Option<ServerId>,
}

/// One streaming attempt against one server: subscription, chunk loop,
/// trailer, and the one-shot remainder. Every consumed chunk updates
/// `progress` *before* anything can fail, so the caller resumes from the
/// exact correlation where this attempt stopped. `Ok(())` with
/// `progress` short of the target means the server ended the stream
/// early (cleanly); the caller decides where to resume.
fn stream_on(
    client: &mut CotClient,
    batch: usize,
    chunks: u64,
    remainder: usize,
    reused: &mut CotBatch,
    progress: &mut StreamProgress,
    consume: &mut impl FnMut(&CotBatch),
) -> Result<(), ChannelError> {
    // A total below one chunk needs no subscription at all — the
    // remainder one-shot below covers it in a single round trip.
    if chunks > 0 {
        let mut sub = client.subscribe(batch, chunks)?;
        loop {
            let got = sub.next_chunk_into(reused);
            // A draining server announces its successor in-stream (v9);
            // remember it, even when the read failed, so the resume lands
            // there without rediscovering the new home the hard way.
            if let Some(&(id, _, _)) = sub.handoff() {
                progress.handoff = Some(ServerId(id));
            }
            if !got? {
                break;
            }
            progress.cots += reused.len() as u64;
            progress.chunks += 1;
            consume(reused);
        }
        let ended_early = sub.chunks_remaining() > 0;
        sub.finish()?;
        if ended_early {
            return Ok(()); // partial but clean; the caller resumes elsewhere
        }
    }
    if remainder > 0 {
        // Served one-shot, so it does not count toward `chunks` (that
        // field means subscription chunks).
        client.request_cots_into(remainder, reused)?;
        progress.cots += reused.len() as u64;
        consume(reused);
    }
    Ok(())
}
