//! A lock-free, allocation-free log-bucketed latency histogram.
//!
//! [`Histogram::record`] is a handful of relaxed atomic adds on a fixed
//! bucket array — no locks, no allocation, no branches beyond the bucket
//! index — cheap enough for the serving hot path. Buckets follow an
//! HDR-style log-linear layout with 16 sub-buckets per octave: values
//! below 32 land in exact single-value buckets, and every wider bucket
//! spans at most 1/16 of its lower bound, so any quantile read off the
//! histogram overstates the true value by at most 6.25% (and is exact
//! under 32). [`HistogramSnapshot`] is the passive view: sparse,
//! mergeable (fleet aggregation is a merge-join of sorted bucket lists),
//! and wire-encodable for `Stats` replies.
//!
//! With the crate's `noop` feature, [`Histogram::record`] compiles to an
//! empty body and [`Stopwatch`] to a zero-sized type, so instrumented
//! call sites vanish entirely — the baseline side of the telemetry
//! overhead head-to-head in CI.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^4 = 16 sub-buckets per octave, bounding the
/// relative width of any bucket (and so the quantile error) at 1/16.
const SUB_BITS: u32 = 4;

/// Total bucket count: 32 exact buckets for values `0..32`, then 16
/// sub-buckets for each octave up to `u64::MAX` (60 octave groups).
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// Minimum encoded size of a [`HistogramSnapshot`] (empty histogram):
/// count, sum, and max as `u64` plus a `u16` sparse-bucket count.
pub const ENCODED_MIN_LEN: usize = 3 * 8 + 2;

/// Bytes per sparse bucket entry on the wire: `u16` index + `u64` count.
const ENTRY_LEN: usize = 2 + 8;

/// The bucket index recording `value`: the identity for `value < 32`,
/// log-linear above (highest set bit picks the octave, the next
/// `SUB_BITS` = 4 bits pick the sub-bucket).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < 32 {
        value as usize
    } else {
        let h = 63 - value.leading_zeros() as usize; // >= 5
        ((h - 3) << SUB_BITS) + ((value >> (h - SUB_BITS as usize)) & 15) as usize
    }
}

/// The smallest value landing in bucket `index` (inverse of
/// [`bucket_index`] on bucket boundaries).
///
/// # Panics
///
/// Panics if `index >= NUM_BUCKETS`.
#[inline]
pub fn bucket_floor(index: usize) -> u64 {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    if index < 32 {
        index as u64
    } else {
        let g = (index >> SUB_BITS) as u32; // >= 2
        (16 + (index & 15) as u64) << (g - 1)
    }
}

/// The largest value landing in bucket `index` — what quantile reads
/// report, making them overestimates by at most the bucket width
/// (6.25% relative, exact below 32).
///
/// # Panics
///
/// Panics if `index >= NUM_BUCKETS`.
#[inline]
pub fn bucket_ceiling(index: usize) -> u64 {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    if index + 1 < NUM_BUCKETS {
        bucket_floor(index + 1) - 1
    } else {
        u64::MAX
    }
}

/// A started wall-clock timer for latency recording. With the `noop`
/// feature this is a zero-sized type and [`Stopwatch::elapsed_nanos`]
/// returns 0, so call sites pay nothing — not even the `Instant::now()`
/// read.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    #[cfg(not(feature = "noop"))]
    started: std::time::Instant,
}

impl Stopwatch {
    /// Starts the timer.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch {
            #[cfg(not(feature = "noop"))]
            started: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since [`Stopwatch::start`] (0 under `noop`),
    /// saturating at `u64::MAX`.
    #[inline]
    pub fn elapsed_nanos(&self) -> u64 {
        #[cfg(not(feature = "noop"))]
        {
            u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
        #[cfg(feature = "noop")]
        0
    }
}

impl Default for Stopwatch {
    fn default() -> Stopwatch {
        Stopwatch::start()
    }
}

/// A lock-free log-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, by convention). Concurrent [`Histogram::record`] calls
/// never lose samples: each is one relaxed `fetch_add` per touched
/// atomic, so a snapshot taken after all recorders quiesce holds exact
/// per-bucket counts.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample: three relaxed atomic RMWs (bucket, sum, max).
    /// Compiles to nothing with the `noop` feature.
    #[inline]
    pub fn record(&self, value: u64) {
        #[cfg(not(feature = "noop"))]
        {
            self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(value, Ordering::Relaxed);
            self.max.fetch_max(value, Ordering::Relaxed);
        }
        #[cfg(feature = "noop")]
        let _ = value;
    }

    /// Records the elapsed nanoseconds of `sw` (a no-op under `noop`,
    /// where the stopwatch never read the clock in the first place).
    #[inline]
    pub fn record_elapsed(&self, sw: Stopwatch) {
        #[cfg(not(feature = "noop"))]
        self.record(sw.elapsed_nanos());
        #[cfg(feature = "noop")]
        let _ = sw;
    }

    /// A passive snapshot of the current contents. The snapshot's count
    /// is derived from the bucket array (not a separate counter), so it
    /// is always internally consistent even against in-flight recorders.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                count += n;
                buckets.push((i as u16, n));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count())
            .field("max", &snap.max())
            .field("p50", &snap.p50())
            .field("p99", &snap.p99())
            .finish()
    }
}

/// A passive, mergeable view of a [`Histogram`]: sparse sorted
/// `(bucket index, count)` pairs plus the sample count, sum, and exact
/// maximum. This is what travels in wire-v6 `Stats` replies and what
/// the fleet observer merges across servers.
///
/// Quantiles report the **bucket ceiling** of the first bucket whose
/// cumulative count reaches `ceil(q · count)`. That makes quantile
/// extraction exactly order-preserving under merging — a merged
/// quantile always lies between the minimum and maximum of the inputs'
/// quantiles — at the cost of overstating the true sample by at most
/// one bucket width (6.25% relative; exact below 32).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    count: u64,
    sum: u64,
    max: u64,
    /// Sorted by bucket index; counts are nonzero.
    buckets: Vec<(u16, u64)>,
}

impl HistogramSnapshot {
    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (wrapping on overflow, like the
    /// underlying relaxed counter).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The sparse `(bucket index, count)` pairs, sorted by index.
    pub fn buckets(&self) -> &[(u16, u64)] {
        &self.buckets
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket ceiling — an
    /// overestimate of the true sample by at most 6.25% (exact below
    /// 32). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return bucket_ceiling(i as usize);
            }
        }
        // Unreachable for internally consistent snapshots (count is the
        // bucket total); fall back to the last bucket's ceiling.
        self.buckets
            .last()
            .map_or(0, |&(i, _)| bucket_ceiling(i as usize))
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Folds `other` into `self` (a merge-join of the sorted sparse
    /// bucket lists). Merging then extracting a quantile brackets the
    /// inputs: `merged.quantile(q)` lies in
    /// `[min, max]` of the inputs' `quantile(q)`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let mut a = self.buckets.iter().copied().peekable();
        let mut b = other.buckets.iter().copied().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&(ia, na)), Some(&(ib, nb))) => {
                    if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, nb));
                        b.next();
                    } else {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(a.by_ref());
                    break;
                }
                (None, Some(_)) => {
                    merged.extend(b.by_ref());
                    break;
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The windowed difference `self − earlier`: the samples recorded
    /// between the moment `earlier` was taken and the moment `self`
    /// was, so quantiles extracted from the result describe the last
    /// window instead of process lifetime.
    ///
    /// The subtraction is monotone-checked bucket by bucket. When
    /// `earlier` is not a pointwise lower bound of `self` — some bucket
    /// shrank, which for a cumulative histogram can only mean the
    /// recording process restarted between the two snapshots — the
    /// method falls back to returning `self` unchanged: the window then
    /// covers "since the restart", which is the longest span the later
    /// snapshot can truthfully describe. Counts therefore never go
    /// negative.
    ///
    /// The result's `max()` is an upper bound, not an exact sample: the
    /// lifetime maximum may predate the window, so the window max is
    /// capped at the ceiling of the highest bucket that actually grew
    /// (and at the lifetime max). Quantiles keep their usual contract —
    /// ceilings that bound the true windowed samples from above by at
    /// most one bucket width.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        if earlier.count == 0 {
            return self.clone();
        }
        let mut buckets = Vec::with_capacity(self.buckets.len());
        let mut old = earlier.buckets.iter().copied().peekable();
        for &(i, n) in &self.buckets {
            if old.peek().is_some_and(|&(io, _)| io < i) {
                // `earlier` holds a bucket `self` lost entirely: reset.
                return self.clone();
            }
            let was = match old.peek() {
                Some(&(io, no)) if io == i => {
                    old.next();
                    no
                }
                _ => 0,
            };
            if was > n {
                return self.clone();
            }
            if n > was {
                buckets.push((i, n - was));
            }
        }
        if old.peek().is_some() {
            return self.clone();
        }
        if buckets.is_empty() {
            // Nothing recorded in the window; sums of canonical
            // snapshots agree, so report a clean empty histogram.
            return HistogramSnapshot::default();
        }
        let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
        let top = bucket_ceiling(buckets.last().map_or(0, |&(i, _)| i as usize));
        HistogramSnapshot {
            count,
            sum: self.sum.wrapping_sub(earlier.sum),
            max: self.max.min(top),
            buckets,
        }
    }

    /// Appends the compact wire encoding: count, sum, max (`u64` LE), a
    /// `u16` sparse-entry count, then `(u16 index, u64 count)` per
    /// entry. The encoding is canonical (sorted, nonzero, in-range
    /// entries whose counts total `count`), so encode→decode is the
    /// identity.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        out.extend_from_slice(&(self.buckets.len() as u16).to_le_bytes());
        for &(i, n) in &self.buckets {
            out.extend_from_slice(&i.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
    }

    /// Decodes one snapshot from the front of `bytes`, returning it and
    /// the bytes consumed. Returns `None` on truncation or any
    /// non-canonical form — entry count over [`NUM_BUCKETS`], indices
    /// out of range or not strictly increasing, zero or overflowing
    /// counts, or a stated count that disagrees with the bucket total —
    /// so a hostile peer can neither force large allocations nor forge
    /// an inconsistent histogram.
    pub fn decode_from(bytes: &[u8]) -> Option<(HistogramSnapshot, usize)> {
        if bytes.len() < ENCODED_MIN_LEN {
            return None;
        }
        let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let count = u64_at(0);
        let sum = u64_at(8);
        let max = u64_at(16);
        let entries = u16::from_le_bytes(bytes[24..26].try_into().unwrap()) as usize;
        if entries > NUM_BUCKETS {
            return None;
        }
        let need = entries.checked_mul(ENTRY_LEN)?;
        if need > bytes.len() - ENCODED_MIN_LEN {
            return None;
        }
        let mut buckets = Vec::with_capacity(entries);
        let mut total = 0u64;
        let mut prev: Option<u16> = None;
        let mut off = ENCODED_MIN_LEN;
        for _ in 0..entries {
            let i = u16::from_le_bytes(bytes[off..off + 2].try_into().unwrap());
            let n = u64_at(off + 2);
            off += ENTRY_LEN;
            if (i as usize) >= NUM_BUCKETS || n == 0 || prev.is_some_and(|p| i <= p) {
                return None;
            }
            total = total.checked_add(n)?;
            prev = Some(i);
            buckets.push((i, n));
        }
        if total != count {
            return None;
        }
        Some((
            HistogramSnapshot {
                count,
                sum,
                max,
                buckets,
            },
            off,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
            assert_eq!(bucket_ceiling(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every value lands between its bucket's floor and ceiling, and
        // boundaries invert exactly.
        for &v in &[0u64, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_floor(i) <= v, "floor({i}) > {v}");
            assert!(v <= bucket_ceiling(i), "ceiling({i}) < {v}");
        }
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "floor of {i}");
            assert_eq!(bucket_index(bucket_ceiling(i)), i, "ceiling of {i}");
        }
    }

    #[test]
    fn bucket_error_bound_holds() {
        // Relative bucket width (the quantile error bound): <= 1/16.
        for i in 32..NUM_BUCKETS - 1 {
            let lo = bucket_floor(i);
            let hi = bucket_ceiling(i);
            assert!((hi - lo) as f64 / lo as f64 <= 1.0 / 16.0, "bucket {i}");
        }
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn quantiles_track_recorded_values() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max(), 1000);
        // Bucket-ceiling quantiles overestimate by at most 6.25%.
        for (q, expect) in [(0.50, 500u64), (0.90, 900), (0.99, 990), (1.0, 1000)] {
            let got = s.quantile(q);
            assert!(got >= expect, "q{q}: {got} < {expect}");
            assert!(
                got as f64 <= expect as f64 * (1.0 + 1.0 / 16.0) + 1.0,
                "q{q}: {got}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        let mut out = Vec::new();
        s.encode_into(&mut out);
        assert_eq!(out.len(), ENCODED_MIN_LEN);
        let (back, used) = HistogramSnapshot::decode_from(&out).unwrap();
        assert_eq!(back, s);
        assert_eq!(used, out.len());
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v);
            b.record(v * 1000);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 200);
        assert_eq!(m.max(), 99_000);
        // The merged median sits between the two inputs' medians.
        let (pa, pb) = (a.snapshot().p50(), b.snapshot().p50());
        let pm = m.p50();
        assert!(pa.min(pb) <= pm && pm <= pa.max(pb), "{pa} {pm} {pb}");
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn concurrent_recording_loses_nothing() {
        // Relaxed increments are still atomic RMWs: per-bucket counts
        // after all threads join are exact, not approximate.
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000_000 + i % 128);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 40_000);
        let per_bucket: u64 = s.buckets().iter().map(|&(_, n)| n).sum();
        assert_eq!(per_bucket, 40_000);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn delta_describes_the_window() {
        let h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let earlier = h.snapshot();
        for v in 0..50u64 {
            h.record(v * 1000);
        }
        let window = h.snapshot().delta(&earlier);
        assert_eq!(window.count(), 50);
        // The window holds only the large samples; its median must sit
        // far above the cumulative one.
        assert!(window.p50() >= 20_000, "p50 {}", window.p50());
        assert!(window.max() <= h.snapshot().max());
    }

    #[test]
    fn delta_against_reset_falls_back_to_later() {
        // A restarted process re-records from zero: the "later" snapshot
        // no longer dominates the earlier one, so delta returns it
        // unchanged rather than going negative.
        let before = {
            let h = Histogram::new();
            for _ in 0..100 {
                h.record(500);
            }
            h.snapshot()
        };
        let after_restart = {
            let h = Histogram::new();
            h.record(7);
            h.snapshot()
        };
        let window = after_restart.delta(&before);
        assert_eq!(window, after_restart);
    }

    #[test]
    fn delta_of_identical_snapshots_is_empty() {
        let h = Histogram::new();
        h.record(42);
        h.record(4242);
        let s = h.snapshot();
        let window = s.delta(&s);
        assert!(window.is_empty());
        assert_eq!(window, HistogramSnapshot::default());
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn decode_rejects_hostile_encodings() {
        let h = Histogram::new();
        h.record(7);
        h.record(700);
        let mut good = Vec::new();
        h.snapshot().encode_into(&mut good);

        // Truncated.
        assert!(HistogramSnapshot::decode_from(&good[..good.len() - 1]).is_none());
        // Entry count over the bucket table with no bytes behind it.
        let mut huge = good.clone();
        huge[24..26].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(HistogramSnapshot::decode_from(&huge).is_none());
        // Count that disagrees with the bucket total.
        let mut lied = good.clone();
        lied[0..8].copy_from_slice(&999u64.to_le_bytes());
        assert!(HistogramSnapshot::decode_from(&lied).is_none());
    }
}
