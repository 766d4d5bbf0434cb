//! Bounded ring-buffer event tracing for the serving stack.
//!
//! A [`TraceLog`] holds the last `capacity` [`TraceEvent`]s — extension
//! and stall edges, chunk pushes, credit waits, refills, epoch fences,
//! failovers — each stamped on one process-wide monotonic clock
//! ([`now_nanos`]) so events from different components (session threads,
//! serving threads, cluster controllers) interleave meaningfully in one
//! dump. Pushing takes a short mutex on a preallocated ring; with the
//! crate's `noop` feature [`TraceLog::push`] compiles to an empty body,
//! keeping the hot path clean in the baseline build.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Default ring capacity: enough for several seconds of serving events
/// without measurable memory cost (a few hundred KiB per log).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Nanoseconds since the process-wide trace epoch (the first call
/// anywhere in the process). All [`TraceLog`]s stamp on this one clock.
pub fn now_nanos() -> u64 {
    static ANCHOR: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What happened. The `u8` discriminants are the wire encoding (v6
/// `TraceDump` replies) and must stay stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A FERRET extension began (arg: extension ordinal).
    ExtensionStart = 0,
    /// A FERRET extension finished. The arg packs the per-phase split —
    /// SPCOT nanoseconds in the high 32 bits, LPN nanoseconds in the
    /// low 32 (each saturating at `u32::MAX`); the total duration is
    /// this event's timestamp minus the matching
    /// [`EventKind::ExtensionStart`]'s.
    ExtensionEnd = 1,
    /// A consumer found the staging buffer empty and blocked.
    StallStart = 2,
    /// The blocked consumer was handed a batch (arg: nanoseconds
    /// spent stalled).
    StallEnd = 3,
    /// A streaming chunk was pushed to a subscriber (arg: COTs in the
    /// chunk).
    ChunkPush = 4,
    /// A streaming session ran out of credit and blocked waiting for
    /// more (arg: nanoseconds spent waiting).
    CreditWait = 5,
    /// A pool shard refilled from its supply (arg: COTs added).
    Refill = 6,
    /// A request was fenced for carrying a stale membership epoch
    /// (arg: the server's current epoch).
    EpochFence = 7,
    /// A cluster client failed over away from a server (arg: the
    /// server id it abandoned).
    Failover = 8,
    /// An operation hit its data-path deadline before the peer answered
    /// (arg: the deadline in nanoseconds).
    Timeout = 9,
    /// A client retried after backoff under its retry budget (arg: the
    /// backoff slept in nanoseconds).
    Retry = 10,
    /// A subscriber too slow to drain its pushes was evicted via tracked
    /// close (arg: COTs still pending for the stream at eviction).
    SubscriberEvicted = 11,
    /// A deterministic fault-injection layer fired (arg: a
    /// fault-kind discriminant; see `ironman-net`'s `FaultKind`).
    FaultInjected = 12,
    /// A server declined to serve while degraded (arg: the
    /// `retry_after_ms` hint it sent).
    Unavailable = 13,
}

impl EventKind {
    /// Every kind, in wire order.
    pub const ALL: [EventKind; 14] = [
        EventKind::ExtensionStart,
        EventKind::ExtensionEnd,
        EventKind::StallStart,
        EventKind::StallEnd,
        EventKind::ChunkPush,
        EventKind::CreditWait,
        EventKind::Refill,
        EventKind::EpochFence,
        EventKind::Failover,
        EventKind::Timeout,
        EventKind::Retry,
        EventKind::SubscriberEvicted,
        EventKind::FaultInjected,
        EventKind::Unavailable,
    ];

    /// The wire discriminant.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes a wire discriminant; `None` for unknown values.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }

    /// A short human-readable label (trace dumps, demos).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::ExtensionStart => "ext-start",
            EventKind::ExtensionEnd => "ext-end",
            EventKind::StallStart => "stall-start",
            EventKind::StallEnd => "stall-end",
            EventKind::ChunkPush => "chunk-push",
            EventKind::CreditWait => "credit-wait",
            EventKind::Refill => "refill",
            EventKind::EpochFence => "epoch-fence",
            EventKind::Failover => "failover",
            EventKind::Timeout => "timeout",
            EventKind::Retry => "retry",
            EventKind::SubscriberEvicted => "sub-evicted",
            EventKind::FaultInjected => "fault",
            EventKind::Unavailable => "unavailable",
        }
    }
}

/// Packs an extension's per-phase split into an
/// [`EventKind::ExtensionEnd`] arg: SPCOT nanoseconds high, LPN
/// nanoseconds low, each saturating at `u32::MAX` (~4.3 s — orders of
/// magnitude above any real extension phase).
pub fn pack_phase_split(spcot_nanos: u64, lpn_nanos: u64) -> u64 {
    (spcot_nanos.min(u64::from(u32::MAX)) << 32) | lpn_nanos.min(u64::from(u32::MAX))
}

/// Unpacks [`pack_phase_split`]: `(SPCOT, LPN)` nanoseconds.
pub fn unpack_phase_split(arg: u64) -> (u64, u64) {
    (arg >> 32, arg & u64::from(u32::MAX))
}

/// One timestamped event: when (on the [`now_nanos`] clock), what, and a
/// kind-specific argument (see [`EventKind`] variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened, in [`now_nanos`] time.
    pub at_nanos: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific argument (duration, size, ordinal, id).
    pub arg: u64,
}

/// A bounded ring of recent [`TraceEvent`]s. Full ⇒ the oldest event is
/// evicted; the log never blocks or grows. Dumpable on demand (locally
/// or over the wire via the v6 `Trace` RPC).
#[derive(Debug)]
pub struct TraceLog {
    events: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

impl TraceLog {
    /// An empty log retaining the most recent `capacity` events
    /// (clamped to ≥ 1).
    pub fn new(capacity: usize) -> TraceLog {
        let capacity = capacity.max(1);
        TraceLog {
            events: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an event stamped [`now_nanos`]. Empty body under the
    /// `noop` feature.
    #[inline]
    pub fn push(&self, kind: EventKind, arg: u64) {
        #[cfg(not(feature = "noop"))]
        self.push_at(now_nanos(), kind, arg);
        #[cfg(feature = "noop")]
        let _ = (kind, arg);
    }

    /// Records an event with an explicit timestamp: [`push`](Self::push)'s
    /// body, and the tests' way to stamp events deterministically. Unused
    /// outside tests under `noop`, where `push` records nothing.
    #[cfg_attr(feature = "noop", allow(dead_code))]
    fn push_at(&self, at_nanos: u64, kind: EventKind, arg: u64) {
        let mut events = self.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(TraceEvent {
            at_nanos,
            kind,
            arg,
        });
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Copies the retained events out, oldest first.
    pub fn dump(&self) -> Vec<TraceEvent> {
        self.lock().iter().copied().collect()
    }

    /// Drops all retained events.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// A recording panicked mid-push at worst leaves a complete ring;
    /// keep serving rather than poisoning every later dump.
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<TraceEvent>> {
        self.events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl Default for TraceLog {
    fn default() -> TraceLog {
        TraceLog::new(DEFAULT_TRACE_CAPACITY)
    }
}

/// Merges several dumps into one timeline, sorted by timestamp and
/// truncated to the **most recent** `max_events` — what the v6 `Trace`
/// RPC returns when a server combines its per-shard and service logs.
pub fn merge_dumps(dumps: &[Vec<TraceEvent>], max_events: usize) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = dumps.iter().flatten().copied().collect();
    all.sort_by_key(|e| e.at_nanos);
    if all.len() > max_events {
        all.drain(..all.len() - max_events);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_most_recent() {
        let log = TraceLog::new(3);
        for i in 0..5u64 {
            log.push_at(i, EventKind::Refill, i * 10);
        }
        let events = log.dump();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at_nanos, 2);
        assert_eq!(events[2].arg, 40);
    }

    #[test]
    fn kinds_round_trip_through_wire_discriminants() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(EventKind::from_u8(EventKind::ALL.len() as u8), None);
        assert_eq!(EventKind::from_u8(u8::MAX), None);
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn push_stamps_the_shared_clock() {
        let log = TraceLog::default();
        let before = now_nanos();
        log.push(EventKind::ChunkPush, 128);
        let after = now_nanos();
        let events = log.dump();
        assert_eq!(events.len(), 1);
        assert!(events[0].at_nanos >= before && events[0].at_nanos <= after);
    }

    #[test]
    fn merge_dumps_sorts_and_truncates() {
        let a = vec![
            TraceEvent {
                at_nanos: 5,
                kind: EventKind::Refill,
                arg: 0,
            },
            TraceEvent {
                at_nanos: 9,
                kind: EventKind::ChunkPush,
                arg: 0,
            },
        ];
        let b = vec![TraceEvent {
            at_nanos: 7,
            kind: EventKind::StallStart,
            arg: 0,
        }];
        let merged = merge_dumps(&[a, b], 2);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].at_nanos, 7);
        assert_eq!(merged[1].at_nanos, 9);
    }
}
