//! Seeded, deterministic fault injection for socket transports (v8).
//!
//! A [`FaultPlan`] describes *what* to inject — added latency, read/write
//! stalls, partial writes, a connection reset at byte N, bit-flipped
//! reads, blackhole-after-accept — and a [`FaultInjector`] owns the plan
//! plus a seeded xorshift64 PRNG, so the same seed replays the same fault
//! sequence run after run. [`FaultyStream`] wraps any `Read`/`Write`
//! half below the framing layer; the [`crate::service::CotService`]
//! wraps every accepted session this way, sharing one injector, so a
//! fleet-level chaos schedule can corrupt or heal a *live* server's
//! links without reconnecting anything.
//!
//! The production cost is one relaxed atomic load per buffered I/O call
//! while no plan is armed — the same class of overhead as the serving
//! counters, held to the bench floors and the telemetry gate in CI.

use ironman_telemetry::{EventKind, TraceLog};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a blackholed read sleeps per poll of the (possibly healed)
/// plan. Small enough that a heal frees the pinned thread promptly.
const BLACKHOLE_POLL: Duration = Duration::from_millis(5);

/// Hard bound on one blackholed read: after this the read fails with
/// `TimedOut` so a server thread is never pinned forever by a plan
/// nobody heals.
const BLACKHOLE_CAP: Duration = Duration::from_secs(30);

/// The injectable fault classes, used for per-kind counters and as the
/// `FaultInjected` trace-event argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultKind {
    /// Fixed added latency on an I/O call.
    Latency = 0,
    /// A probabilistic one-shot stall (sleep) on an I/O call.
    Stall = 1,
    /// A write truncated to the plan's partial-write cap (the caller's
    /// `write_all` loop survives it; the kernel sees many small writes).
    PartialWrite = 2,
    /// A connection reset once the byte budget is spent.
    Reset = 3,
    /// A bit flipped in received bytes (corrupt frame on the wire).
    BitFlip = 4,
    /// Reads hang (bounded) and writes vanish: the peer accepted the
    /// connection and went silent.
    Blackhole = 5,
}

/// What to inject. `Default` injects nothing; arm only the fields a
/// scenario needs. All probabilities are per I/O call in `[0, 1]`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Fixed latency added to every read.
    pub read_latency: Duration,
    /// Fixed latency added to every write.
    pub write_latency: Duration,
    /// Probability that an I/O call stalls for [`FaultPlan::stall`].
    pub stall_probability: f64,
    /// Stall duration when a stall fires.
    pub stall: Duration,
    /// Cap writes at this many bytes per call (partial writes).
    pub partial_write_cap: Option<usize>,
    /// Fail with `ConnectionReset` once this many bytes (reads + writes
    /// combined) have crossed the wrapper since the plan was armed.
    pub reset_after_bytes: Option<u64>,
    /// Probability that a read's bytes get one bit flipped.
    pub flip_probability: f64,
    /// Blackhole: reads block (bounded, heal-aware) and writes are
    /// silently discarded — the SYN-accepting-but-silent server.
    pub blackhole: bool,
}

impl FaultPlan {
    /// Whether this plan injects anything at all.
    fn is_noop(&self) -> bool {
        *self == FaultPlan::default()
    }
}

#[derive(Debug)]
struct FaultState {
    /// Fast-path gate: a single relaxed load decides "no plan armed".
    enabled: AtomicBool,
    plan: Mutex<FaultPlan>,
    /// Seeded xorshift64 state (never zero).
    rng: Mutex<u64>,
    /// Bytes through the wrapper since the current plan was armed
    /// (drives `reset_after_bytes`).
    bytes_since_armed: AtomicU64,
    injected: AtomicU64,
    /// Faults fired per kind, indexed by discriminant.
    per_kind: [AtomicU64; FaultKind::Blackhole as usize + 1],
    /// Optional trace sink: each fired fault is pushed as a
    /// `FaultInjected` event (arg: the fault-kind discriminant). Only
    /// consulted while a plan is armed, so the disarmed fast path never
    /// touches it.
    trace: Mutex<Option<Arc<TraceLog>>>,
}

/// A shared, live-reconfigurable fault source. Cloning shares the plan,
/// PRNG, and counters; every [`FaultyStream`] wrapped from one injector
/// draws from the same deterministic sequence.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    state: Arc<FaultState>,
}

impl FaultInjector {
    /// A disarmed injector with a seeded PRNG.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            state: Arc::new(FaultState {
                enabled: AtomicBool::new(false),
                plan: Mutex::new(FaultPlan::default()),
                rng: Mutex::new(seed | 1),
                bytes_since_armed: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                per_kind: Default::default(),
                trace: Mutex::new(None),
            }),
        }
    }

    /// Arms `plan` on every stream wrapped from this injector — live
    /// ones included. Resets the byte budget so `reset_after_bytes`
    /// counts from now.
    pub fn set_plan(&self, plan: FaultPlan) {
        let enable = !plan.is_noop();
        *self.lock_plan() = plan;
        self.state.bytes_since_armed.store(0, Ordering::Relaxed);
        self.state.enabled.store(enable, Ordering::Release);
    }

    /// Heals: disarms the plan on every wrapped stream.
    pub fn clear(&self) {
        self.set_plan(FaultPlan::default());
    }

    /// Total faults fired since construction.
    pub fn injected(&self) -> u64 {
        self.state.injected.load(Ordering::Relaxed)
    }

    /// Faults of one kind fired since construction.
    #[cfg(test)]
    fn injected_of(&self, kind: FaultKind) -> u64 {
        self.state.per_kind[kind as usize].load(Ordering::Relaxed)
    }

    /// Attaches a trace sink: every fired fault is recorded as a
    /// `FaultInjected` event with its kind discriminant as the argument.
    pub fn set_trace(&self, trace: Arc<TraceLog>) {
        *self
            .state
            .trace
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(trace);
    }

    /// Wraps one `Read`/`Write` half; all wrapped halves share this
    /// injector's plan, PRNG, and counters.
    pub fn wrap<S>(&self, inner: S) -> FaultyStream<S> {
        FaultyStream {
            inner,
            state: Arc::clone(&self.state),
        }
    }

    fn lock_plan(&self) -> std::sync::MutexGuard<'_, FaultPlan> {
        self.state
            .plan
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl FaultState {
    fn fire(&self, kind: FaultKind) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.per_kind[kind as usize].fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = self
            .trace
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .as_ref()
        {
            trace.push(EventKind::FaultInjected, kind as u64);
        }
    }

    /// One xorshift64 step (same generator as the observer's jitter).
    fn next_rand(&self) -> u64 {
        let mut rng = self.rng.lock().unwrap_or_else(|p| p.into_inner());
        let mut x = *rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x;
        x
    }

    /// Deterministic Bernoulli draw.
    fn chance(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Compare in the integer domain: keeps the draw exact under the
        // same seed regardless of float rounding on the threshold side.
        ((self.next_rand() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    fn plan_snapshot(&self) -> FaultPlan {
        self.plan
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// The shared pre-op gate: latency, stall, byte-budget reset. Returns
    /// the plan for the caller's op-specific faults, or `None` when the
    /// injector is disarmed.
    fn before_op(&self, is_read: bool) -> io::Result<Option<FaultPlan>> {
        if !self.enabled.load(Ordering::Acquire) {
            return Ok(None);
        }
        let plan = self.plan_snapshot();
        if let Some(budget) = plan.reset_after_bytes {
            if self.bytes_since_armed.load(Ordering::Relaxed) >= budget {
                self.fire(FaultKind::Reset);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected connection reset",
                ));
            }
        }
        let latency = if is_read {
            plan.read_latency
        } else {
            plan.write_latency
        };
        if !latency.is_zero() {
            self.fire(FaultKind::Latency);
            std::thread::sleep(latency);
        }
        if self.chance(plan.stall_probability) && !plan.stall.is_zero() {
            self.fire(FaultKind::Stall);
            std::thread::sleep(plan.stall);
        }
        Ok(Some(plan))
    }

    /// Blackhole read: block in short heal-aware polls, bounded so a
    /// forgotten plan cannot pin a thread forever.
    fn blackhole_read(&self) -> io::Result<usize> {
        self.fire(FaultKind::Blackhole);
        let mut waited = Duration::ZERO;
        while waited < BLACKHOLE_CAP {
            std::thread::sleep(BLACKHOLE_POLL);
            waited += BLACKHOLE_POLL;
            if !self.enabled.load(Ordering::Acquire) || !self.plan_snapshot().blackhole {
                // Healed mid-read: report a retryable timeout rather than
                // inventing bytes.
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "blackhole healed mid-read",
                ));
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "injected blackhole read",
        ))
    }
}

/// One `Read`/`Write` half with faults injected per its injector's
/// armed [`FaultPlan`]. Transparent (one relaxed load per call) while
/// the injector is disarmed.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    state: Arc<FaultState>,
}

impl<S> FaultyStream<S> {
    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(plan) = self.state.before_op(true)? else {
            return self.inner.read(buf);
        };
        if plan.blackhole {
            return self.state.blackhole_read();
        }
        let n = self.inner.read(buf)?;
        self.state
            .bytes_since_armed
            .fetch_add(n as u64, Ordering::Relaxed);
        if n > 0 && self.state.chance(plan.flip_probability) {
            let bit = self.state.next_rand() as usize % (n * 8);
            buf[bit / 8] ^= 1 << (bit % 8);
            self.state.fire(FaultKind::BitFlip);
        }
        Ok(n)
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(plan) = self.state.before_op(false)? else {
            return self.inner.write(buf);
        };
        if plan.blackhole {
            // Claim success, deliver nothing: the classic silent peer.
            self.state.fire(FaultKind::Blackhole);
            return Ok(buf.len());
        }
        let cap = plan.partial_write_cap.unwrap_or(usize::MAX).max(1);
        let slice = if buf.len() > cap {
            self.state.fire(FaultKind::PartialWrite);
            &buf[..cap]
        } else {
            buf
        };
        let n = self.inner.write(slice)?;
        self.state
            .bytes_since_armed
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.state.enabled.load(Ordering::Acquire) && self.state.plan_snapshot().blackhole {
            return Ok(());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory sink that records everything written.
    #[derive(Default)]
    struct Sink(Vec<u8>);
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disarmed_injector_is_transparent() {
        let injector = FaultInjector::new(7);
        let mut reader = injector.wrap(io::Cursor::new(vec![1u8, 2, 3, 4]));
        let mut out = [0u8; 4];
        reader.read_exact(&mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        let mut writer = injector.wrap(Sink::default());
        writer.write_all(b"hello").unwrap();
        assert_eq!(writer.get_ref().0, b"hello");
        assert_eq!(injector.injected(), 0);
    }

    #[test]
    fn same_seed_replays_the_same_flips() {
        let flips = |seed: u64| {
            let injector = FaultInjector::new(seed);
            injector.set_plan(FaultPlan {
                flip_probability: 0.5,
                ..FaultPlan::default()
            });
            let mut reader = injector.wrap(io::Cursor::new(vec![0u8; 256]));
            let mut out = vec![0u8; 256];
            reader.read_exact(&mut out).unwrap();
            (out, injector.injected_of(FaultKind::BitFlip))
        };
        // Seeds land in distinct odd PRNG states (`seed | 1` maps even
        // seeds onto their odd neighbor, so 42/43 would collide).
        let (a, fa) = flips(41);
        let (b, fb) = flips(41);
        let (c, _) = flips(1041);
        assert_eq!(a, b, "same seed must corrupt identically");
        assert_eq!(fa, fb);
        assert!(fa > 0, "p=0.5 over many reads must flip something");
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn reset_fires_at_the_byte_budget() {
        let injector = FaultInjector::new(1);
        injector.set_plan(FaultPlan {
            reset_after_bytes: Some(4),
            ..FaultPlan::default()
        });
        let mut writer = injector.wrap(Sink::default());
        writer.write_all(b"abcd").unwrap();
        let err = writer.write_all(b"e").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(injector.injected_of(FaultKind::Reset), 1);
    }

    #[test]
    fn partial_writes_truncate_but_write_all_survives() {
        let injector = FaultInjector::new(1);
        injector.set_plan(FaultPlan {
            partial_write_cap: Some(3),
            ..FaultPlan::default()
        });
        let mut writer = injector.wrap(Sink::default());
        writer.write_all(b"0123456789").unwrap();
        assert_eq!(writer.get_ref().0, b"0123456789");
        assert!(injector.injected_of(FaultKind::PartialWrite) >= 3);
    }

    #[test]
    fn blackhole_discards_writes_and_heals() {
        let injector = FaultInjector::new(1);
        injector.set_plan(FaultPlan {
            blackhole: true,
            ..FaultPlan::default()
        });
        let mut writer = injector.wrap(Sink::default());
        writer.write_all(b"gone").unwrap();
        assert!(writer.get_ref().0.is_empty());
        // A blackholed read unblocks promptly when the plan heals.
        let mut reader = injector.wrap(io::Cursor::new(vec![9u8; 8]));
        let healer = {
            let injector = injector.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                injector.clear();
            })
        };
        let mut out = [0u8; 8];
        let err = reader.read(&mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        healer.join().unwrap();
        // Healed: the next read goes through untouched.
        reader.read_exact(&mut out).unwrap();
        assert_eq!(out, [9u8; 8]);
    }

    #[test]
    fn rearming_resets_the_byte_budget() {
        let injector = FaultInjector::new(5);
        injector.set_plan(FaultPlan {
            reset_after_bytes: Some(2),
            ..FaultPlan::default()
        });
        let mut writer = injector.wrap(Sink::default());
        writer.write_all(b"ab").unwrap();
        assert!(writer.write(b"c").is_err());
        injector.set_plan(FaultPlan {
            reset_after_bytes: Some(2),
            ..FaultPlan::default()
        });
        writer.write_all(b"de").unwrap();
        assert!(writer.write(b"f").is_err());
    }
}
