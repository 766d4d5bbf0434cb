//! A registry of named histograms and counters.
//!
//! Components that can't thread dedicated histogram handles through
//! their construction (background controllers, probes) grab them from a
//! shared [`Recorder`] by name instead. Lookup takes a mutex, so the
//! contract is: call [`Recorder::histogram`]/[`Recorder::counter`]
//! **once at setup** and cache the returned `Arc` — only the cached
//! handle's relaxed atomics may run on a hot path.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A named monotonic counter (relaxed increments; `noop`-gated like
/// [`Histogram::record`]).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`. Empty body under the `noop` feature.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(not(feature = "noop"))]
        self.0.fetch_add(n, Ordering::Relaxed);
        #[cfg(feature = "noop")]
        let _ = n;
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Registry {
    histograms: BTreeMap<String, Arc<Histogram>>,
    counters: BTreeMap<String, Arc<Counter>>,
}

/// Named histograms + counters, cheap to share (`Arc` it) and cheap to
/// read from. Creation is get-or-create: two callers asking for the
/// same name share one instrument.
#[derive(Debug, Default)]
pub struct Recorder {
    registry: Mutex<Registry>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// The histogram named `name`, created empty on first use. Cache
    /// the handle; don't call this per-sample.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut reg = self.lock();
        if let Some(h) = reg.histograms.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        reg.histograms.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut reg = self.lock();
        if let Some(c) = reg.counters.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        reg.counters.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Snapshots of every registered histogram, sorted by name.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        self.lock()
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect()
    }

    /// Current values of every registered counter, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.lock()
            .counters
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    fn lock(&self) -> MutexGuard<'_, Registry> {
        // Registration never panics mid-mutation in a way that corrupts
        // the maps; recover rather than poisoning every later lookup.
        self.registry
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_one_instrument() {
        let rec = Recorder::new();
        let a = rec.histogram("scrape_rtt");
        let b = rec.histogram("scrape_rtt");
        assert!(Arc::ptr_eq(&a, &b));
        let c1 = rec.counter("sweeps");
        let c2 = rec.counter("sweeps");
        assert!(Arc::ptr_eq(&c1, &c2));
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn snapshots_list_by_name() {
        let rec = Recorder::new();
        rec.histogram("b_second").record(10);
        rec.histogram("a_first").record(20);
        rec.counter("hits").add(3);
        let snaps = rec.histogram_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, "a_first");
        assert_eq!(snaps[1].1.count(), 1);
        assert_eq!(rec.counter_values(), vec![("hits".to_string(), 3)]);
    }
}
