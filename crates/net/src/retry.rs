//! Data-path deadlines and retry discipline (v8).
//!
//! [`OpTimeouts`] is the one knob for how long any data-path operation
//! may block: connect, read, write. [`CotClient::connect`] applies the
//! defaults, so no caller hangs forever on a silent peer by accident.
//!
//! [`RetryPolicy`] produces exponential backoff with *decorrelated
//! jitter* (`sleep = min(cap, rand(base, prev * 3))`, per the AWS
//! architecture blog) from a seeded xorshift64 PRNG — deterministic
//! under test, storm-free in a fleet. [`RetryBudget`] is a token bucket
//! that caps how many retries a client may spend per unit time: when
//! the budget is dry, failures surface immediately instead of amplifying
//! an outage with synchronized re-sends.
//!
//! [`CotClient::connect`]: crate::client::CotClient::connect

use std::time::{Duration, Instant};

/// Per-operation deadlines for the data path.
///
/// `read`/`write` become `SO_RCVTIMEO`/`SO_SNDTIMEO` on the session
/// socket; an expired deadline surfaces as the typed
/// `ChannelError::TimedOut`, which feeds failover/cooldown rather than
/// being conflated with hard IO errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpTimeouts {
    /// TCP connect deadline (per resolved address candidate).
    pub connect: Duration,
    /// Socket read deadline for one blocking `recv`.
    pub read: Duration,
    /// Socket write deadline for one blocking `send`.
    pub write: Duration,
}

impl Default for OpTimeouts {
    /// Generous serving defaults: tight enough that a blackholed peer
    /// cannot pin a caller, loose enough that a debug-build extension
    /// under load never trips them.
    fn default() -> OpTimeouts {
        OpTimeouts {
            connect: Duration::from_secs(2),
            read: Duration::from_secs(10),
            write: Duration::from_secs(10),
        }
    }
}

impl OpTimeouts {
    /// One uniform deadline for all three operations.
    pub fn uniform(d: Duration) -> OpTimeouts {
        OpTimeouts {
            connect: d,
            read: d,
            write: d,
        }
    }
}

/// Exponential backoff with decorrelated jitter.
///
/// Each step draws uniformly from `[base, prev * 3]`, clamped to
/// `[base, cap]` — successive sleeps grow roughly exponentially but
/// desynchronize across clients, so a healed server is not hit by a
/// thundering herd. Seeded: the same seed replays the same sleeps.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: u64,
}

impl RetryPolicy {
    /// A policy sleeping between `base` and `cap` per step.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> RetryPolicy {
        let base = base.max(Duration::from_micros(1));
        RetryPolicy {
            base,
            cap: cap.max(base),
            prev: base,
            rng: seed | 1,
        }
    }

    /// Sensible data-path defaults: 25 ms base, 1 s cap.
    pub fn default_with_seed(seed: u64) -> RetryPolicy {
        RetryPolicy::new(Duration::from_millis(25), Duration::from_secs(1), seed)
    }

    /// The largest sleep one step can produce.
    pub fn cap(&self) -> Duration {
        self.cap
    }

    /// The next backoff to sleep. Grows (jittered) until [`reset`]
    /// after a success.
    ///
    /// [`reset`]: RetryPolicy::reset
    pub fn next_backoff(&mut self) -> Duration {
        let hi = self
            .prev
            .saturating_mul(3)
            .min(self.cap)
            .max(self.base)
            .as_nanos() as u64;
        let lo = self.base.as_nanos() as u64;
        let span = hi.saturating_sub(lo);
        let draw = if span == 0 {
            lo
        } else {
            lo + self.next_rand() % (span + 1)
        };
        self.prev = Duration::from_nanos(draw);
        self.prev
    }

    /// Collapses back to the base sleep after a success.
    pub fn reset(&mut self) {
        self.prev = self.base;
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

/// A token-bucket retry budget: `capacity` tokens, refilled at
/// `per_second` tokens per second. Each retry spends one token; when
/// the bucket is dry the caller must surface the failure instead of
/// retrying — the circuit breaker against retry storms.
#[derive(Clone, Debug)]
pub struct RetryBudget {
    capacity: f64,
    per_second: f64,
    tokens: f64,
    last_refill: Instant,
}

impl RetryBudget {
    /// A full bucket.
    pub fn new(capacity: u32, per_second: f64) -> RetryBudget {
        let capacity = f64::from(capacity.max(1));
        RetryBudget {
            capacity,
            per_second: per_second.max(0.0),
            tokens: capacity,
            last_refill: Instant::now(),
        }
    }

    /// Serving default: 10 retries burst, 1 earned back per second.
    pub fn default_serving() -> RetryBudget {
        RetryBudget::new(10, 1.0)
    }

    /// Spends one token if available. `false` means the budget is
    /// exhausted and the failure must propagate.
    pub fn try_spend(&mut self) -> bool {
        self.refill();
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Whole tokens currently available.
    pub fn available(&mut self) -> u32 {
        self.refill();
        self.tokens as u32
    }

    fn refill(&mut self) {
        let now = Instant::now();
        let dt = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.per_second).min(self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_stays_within_bounds_and_grows() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let mut policy = RetryPolicy::new(base, cap, 99);
        let mut prev = base;
        for _ in 0..50 {
            let next = policy.next_backoff();
            assert!(next >= base, "below base: {next:?}");
            assert!(next <= cap, "above cap: {next:?}");
            assert!(
                next <= prev.saturating_mul(3).min(cap).max(base),
                "grew faster than 3x"
            );
            prev = next;
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut p = RetryPolicy::default_with_seed(seed);
            (0..8).map(|_| p.next_backoff()).collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn reset_collapses_to_base() {
        let mut policy = RetryPolicy::new(Duration::from_millis(10), Duration::from_secs(1), 3);
        for _ in 0..10 {
            policy.next_backoff();
        }
        policy.reset();
        assert!(policy.next_backoff() <= Duration::from_millis(30));
    }

    #[test]
    fn budget_exhausts_then_refills() {
        let mut budget = RetryBudget::new(3, 1000.0);
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        // 1000 tokens/s refills fast enough that this never flakes; the
        // interesting edge (dry bucket) needs a zero refill rate.
        let mut dry = RetryBudget::new(2, 0.0);
        assert!(dry.try_spend());
        assert!(dry.try_spend());
        assert!(!dry.try_spend(), "dry bucket must refuse");
        assert!(!dry.try_spend());
        std::thread::sleep(Duration::from_millis(5));
        let mut fast = budget;
        assert!(fast.try_spend(), "high refill rate must recover");
    }

    #[test]
    fn default_timeouts_are_finite() {
        let t = OpTimeouts::default();
        assert!(t.connect > Duration::ZERO);
        assert!(t.read > Duration::ZERO);
        assert!(t.write > Duration::ZERO);
        let u = OpTimeouts::uniform(Duration::from_millis(250));
        assert_eq!(u.connect, u.read);
        assert_eq!(u.read, u.write);
    }
}
