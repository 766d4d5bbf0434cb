//! In-memory spans recorded from the harness's own files, around its
//! calls into each crate's public functions (choosing-metrics §4). A
//! span is `(name, start, end, parent)`; a layer's **self time** is its
//! spans' duration minus the part their child spans cover. Spans stay in
//! memory and are written out once, when the run ends; the recorder is
//! switched off for the segments that measure end-to-end rates.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// Individual spans kept for the trace file; beyond this only the
/// per-name totals keep accumulating (a 4·10⁵-request run would
/// otherwise write tens of megabytes nobody reads).
const MAX_KEPT: usize = 20_000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span among the kept spans, if any.
    pub parent: Option<usize>,
}

/// Duration and self time of every span recorded under one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    kept_index: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    enabled: bool,
    open: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, NameTotal>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            enabled: false,
            open: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Turns recording on or off. Only legal between spans (no span may
    /// be open), so an enter and its exit always agree.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.enabled = enabled;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span (a child of whichever span is open); a no-op with
    /// recording off. Pair every call with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            let start_ns = self.now_ns();
            self.enter_at(name, start_ns);
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.exit_at(end_ns);
        }
    }

    fn enter_at(&mut self, name: &'static str, start_ns: u64) {
        let kept_index = if self.kept.len() < MAX_KEPT {
            let parent = self.open.last().and_then(|o| o.kept_index);
            self.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            Some(self.kept.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.open.push(Open {
            name,
            start_ns,
            children_ns: 0,
            kept_index,
        });
    }

    fn exit_at(&mut self, end_ns: u64) {
        let closed = self.open.pop().expect("exit without a matching enter");
        let duration = end_ns.saturating_sub(closed.start_ns);
        if let Some(index) = closed.kept_index {
            self.kept[index].end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.children_ns += duration;
        }
        let total = self.totals.entry(closed.name).or_default();
        total.count += 1;
        total.total_ns += duration;
        total.self_ns += duration.saturating_sub(closed.children_ns);
    }

    /// What recording one span costs on this host right now, in
    /// nanoseconds: a scratch recorder timed over nested enter/exit pairs.
    pub fn cost_per_span_ns() -> f64 {
        const PAIRS: u32 = 50_000;
        let mut scratch = Spans::new();
        scratch.set_enabled(true);
        let t = Instant::now();
        for _ in 0..PAIRS {
            scratch.enter("outer");
            scratch.enter("inner");
            scratch.exit();
            scratch.exit();
        }
        t.elapsed().as_nanos() as f64 / f64::from(2 * PAIRS)
    }

    /// Per-name duration and self-time totals.
    pub fn totals(&self) -> &BTreeMap<&'static str, NameTotal> {
        &self.totals
    }

    /// Summed self time of every span whose name starts with `prefix`.
    pub fn self_ns_with_prefix(&self, prefix: &str) -> u64 {
        self.totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// The trace file: every kept span plus the per-name totals.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .kept
            .iter()
            .map(|s| {
                obj([
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    ),
                    ("workload", Json::from(workload)),
                ])
            })
            .collect();
        let totals = self.totals.iter().map(|(name, t)| {
            (
                *name,
                obj([
                    ("count", Json::from(t.count)),
                    ("total_ns", Json::from(t.total_ns)),
                    ("self_ns", Json::from(t.self_ns)),
                ]),
            )
        });
        obj([
            ("workload", Json::from(workload)),
            ("spans_kept", Json::from(self.kept.len() as u64)),
            ("spans_dropped", Json::from(self.dropped)),
            ("self_time_by_name", obj(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay(tree: &[(&'static str, u64, u64, usize)]) -> Spans {
        // (name, start, end, depth), in start order: close every open
        // span at least as deep before opening the next.
        let mut spans = Spans::new();
        spans.set_enabled(true);
        let mut ends: Vec<u64> = Vec::new();
        for &(name, start, end, depth) in tree {
            while ends.len() > depth {
                let e = ends.pop().unwrap();
                spans.exit_at(e);
            }
            spans.enter_at(name, start);
            ends.push(end);
        }
        while let Some(e) = ends.pop() {
            spans.exit_at(e);
        }
        spans
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100
        //   a 10..60
        //     b 20..30
        //     b 35..50
        //   a 70..90
        let spans = replay(&[
            ("root", 0, 100, 0),
            ("a", 10, 60, 1),
            ("b", 20, 30, 2),
            ("b", 35, 50, 2),
            ("a", 70, 90, 1),
        ]);
        let t = spans.totals();
        assert_eq!(
            t["root"],
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["a"],
            NameTotal {
                count: 2,
                total_ns: 70,
                self_ns: 45
            }
        );
        assert_eq!(
            t["b"],
            NameTotal {
                count: 2,
                total_ns: 25,
                self_ns: 25
            }
        );
        // Self times partition the root's duration exactly.
        let all_self: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(all_self, 100);
        assert_eq!(
            spans.self_ns_with_prefix("a") + spans.self_ns_with_prefix("b"),
            70
        );
    }

    #[test]
    fn parents_point_at_enclosing_span() {
        let spans = replay(&[("root", 0, 10, 0), ("kid", 1, 5, 1), ("kid", 6, 9, 1)]);
        assert_eq!(spans.kept[0].parent, None);
        assert_eq!(spans.kept[1].parent, Some(0));
        assert_eq!(spans.kept[2].parent, Some(0));
        assert_eq!(spans.kept[2].end_ns, 9);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new();
        spans.enter("x");
        spans.enter("y");
        spans.exit();
        spans.exit();
        assert!(spans.totals().is_empty());
        assert!(spans.kept.is_empty());
    }

    #[test]
    fn live_scopes_nest() {
        let mut spans = Spans::new();
        spans.set_enabled(true);
        spans.enter("outer");
        spans.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.exit();
        spans.exit();
        let t = spans.totals();
        assert!(t["outer"].total_ns >= t["inner"].total_ns);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
    }

    #[test]
    fn span_cost_is_small_and_positive() {
        let cost = Spans::cost_per_span_ns();
        assert!(cost > 0.0 && cost < 100_000.0, "{cost} ns per span");
    }

    #[test]
    fn totals_survive_the_kept_cap() {
        let mut spans = Spans::new();
        spans.set_enabled(true);
        for i in 0..(MAX_KEPT as u64 + 5) {
            spans.enter_at("req", i * 10);
            spans.exit_at(i * 10 + 4);
        }
        assert_eq!(spans.kept.len(), MAX_KEPT);
        assert_eq!(spans.dropped, 5);
        assert_eq!(spans.totals()["req"].count, MAX_KEPT as u64 + 5);
        assert_eq!(spans.totals()["req"].self_ns, 4 * (MAX_KEPT as u64 + 5));
        let json = spans.to_json("w");
        assert_eq!(json.get("spans_dropped").and_then(Json::as_f64), Some(5.0));
    }
}
