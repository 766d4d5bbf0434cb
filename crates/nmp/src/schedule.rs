//! Hardware GGM expansion schedules and the pipelined-PRG cycle model.
//!
//! §4.3 of the paper compares three ways of feeding GGM expansions into a
//! fully pipelined ChaCha core (8 pipeline stages):
//!
//! * **Depth-first** — minimal `O(m·log_m ℓ)` node buffer, but each call
//!   depends on the previous one, so the pipeline stalls for
//!   `stages − 1 = 7` bubbles between dependent calls (Fig. 8a).
//! * **Breadth-first** — full pipeline utilization once a level is wide
//!   enough, but `O(ℓ)` buffering and delayed leaf readiness.
//! * **Hybrid** — depth-first-style buffering plus breadth-first issue
//!   within a level *and* inter-tree parallelism to fill the remaining
//!   bubbles; with at least `stages` trees in flight it reaches 100%
//!   utilization (Fig. 8b).
//!
//! The model here is a cycle-accurate discrete simulation of a single
//! in-order issue port feeding an `S`-stage pipeline: one PRG call may be
//! issued per cycle, its children become available `S` cycles later.
//! [`crate::dimm`] runs the Hybrid schedule on a sample of each core's
//! trees; the software trees of `ironman-ggm` issue the same level order
//! with SIMD lanes standing in for pipeline stages.

use ironman_ggm::Arity;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which traversal order feeds the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExpansionSchedule {
    /// Strict depth-first, one tree at a time.
    DepthFirst,
    /// Strict breadth-first (level order), one tree at a time.
    BreadthFirst,
    /// Breadth-first within a tree, round-robin across trees when the
    /// current tree has no issuable call (the paper's Hybrid strategy).
    Hybrid,
}

impl ExpansionSchedule {
    /// All schedules, in paper order.
    pub const ALL: [ExpansionSchedule; 3] = [
        ExpansionSchedule::DepthFirst,
        ExpansionSchedule::BreadthFirst,
        ExpansionSchedule::Hybrid,
    ];

    /// Display label used in bench output.
    pub fn label(self) -> &'static str {
        match self {
            ExpansionSchedule::DepthFirst => "depth-first",
            ExpansionSchedule::BreadthFirst => "breadth-first",
            ExpansionSchedule::Hybrid => "hybrid",
        }
    }
}

impl fmt::Display for ExpansionSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The pipelined PRG core being modeled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineModel {
    /// Pipeline depth in cycles (8 for the paper's ChaCha8 core: one stage
    /// per double round).
    pub stages: usize,
    /// Child blocks produced per call (4 for ChaCha, 1 for AES).
    pub blocks_per_call: usize,
}

impl Default for PipelineModel {
    fn default() -> Self {
        PipelineModel::CHACHA8
    }
}

impl PipelineModel {
    /// The paper's ChaCha8 core: 8 stages, 512-bit (4-block) output.
    pub const CHACHA8: PipelineModel = PipelineModel {
        stages: 8,
        blocks_per_call: 4,
    };
    /// A pipelined AES core: 10 stages (one per round), 1 block per call.
    pub const AES: PipelineModel = PipelineModel {
        stages: 10,
        blocks_per_call: 1,
    };
}

/// Outcome of simulating a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// Total cycles until the last call's results are available.
    pub cycles: u64,
    /// PRG calls issued.
    pub calls: u64,
    /// Cycles in which no call could be issued while work remained.
    pub bubbles: u64,
    /// Peak number of live (produced, not yet fully consumed) non-leaf node
    /// values — the node-buffer requirement.
    pub peak_buffer: usize,
}

impl ScheduleReport {
    /// Issue-port utilization over the issue window: `calls / (calls + bubbles)`.
    pub fn utilization(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.calls as f64 / (self.calls + self.bubbles) as f64
    }
}

/// One PRG call: expands segment `segment` of the parent node at
/// `(level, parent)` within its tree; level 0 is the root. The owning tree
/// is implied by which per-tree stream the call sits in.
#[derive(Clone, Copy, Debug)]
struct Call {
    level: usize,
    parent: usize,
    segment: usize,
}

/// Per-tree static description derived from arity/leaves.
struct TreeDesc {
    fanouts: Vec<usize>,
    widths: Vec<usize>,
    segs_per_parent: Vec<usize>,
}

impl TreeDesc {
    fn new(arity: Arity, leaves: usize, blocks_per_call: usize) -> Self {
        let fanouts = arity.level_fanouts(leaves);
        let mut widths = Vec::with_capacity(fanouts.len());
        let mut w = 1;
        for f in &fanouts {
            w *= f;
            widths.push(w);
        }
        let segs_per_parent = fanouts
            .iter()
            .map(|f| f.div_ceil(blocks_per_call))
            .collect();
        TreeDesc {
            fanouts,
            widths,
            segs_per_parent,
        }
    }

    fn depth(&self) -> usize {
        self.fanouts.len()
    }

    fn parent_width(&self, level: usize) -> usize {
        if level == 0 {
            1
        } else {
            self.widths[level - 1]
        }
    }
}

/// Generates the per-tree call order for a schedule.
fn call_order(desc: &TreeDesc, schedule: ExpansionSchedule) -> Vec<Call> {
    let mut calls = Vec::new();
    match schedule {
        ExpansionSchedule::BreadthFirst => {
            for level in 0..desc.depth() {
                for parent in 0..desc.parent_width(level) {
                    for segment in 0..desc.segs_per_parent[level] {
                        calls.push(Call {
                            level,
                            parent,
                            segment,
                        });
                    }
                }
            }
        }
        ExpansionSchedule::DepthFirst | ExpansionSchedule::Hybrid => {
            // Depth-first order keeps the node buffer at O(m·depth); Hybrid
            // uses the same order per tree but interleaves trees at issue
            // time to fill dependency bubbles (§4.3).
            fn visit(desc: &TreeDesc, level: usize, idx: usize, out: &mut Vec<Call>) {
                if level == desc.depth() {
                    return; // leaf
                }
                for segment in 0..desc.segs_per_parent[level] {
                    out.push(Call {
                        level,
                        parent: idx,
                        segment,
                    });
                }
                for child in 0..desc.fanouts[level] {
                    visit(desc, level + 1, idx * desc.fanouts[level] + child, out);
                }
            }
            visit(desc, 0, 0, &mut calls);
        }
    }
    calls
}

/// Simulates expanding `trees` GGM trees of shape `(arity, leaves)` through
/// the pipeline, returning cycle counts, bubbles and buffer occupancy.
///
/// For [`ExpansionSchedule::DepthFirst`] and
/// [`ExpansionSchedule::BreadthFirst`], trees are processed one after
/// another through a single in-order call stream; the Hybrid schedule may
/// interleave call streams of different trees.
///
/// # Example
///
/// ```
/// use ironman_ggm::Arity;
/// use ironman_nmp::schedule::{simulate, ExpansionSchedule, PipelineModel};
///
/// let df = simulate(ExpansionSchedule::DepthFirst, PipelineModel::CHACHA8, 4, Arity::QUAD, 64);
/// let hy = simulate(ExpansionSchedule::Hybrid, PipelineModel::CHACHA8, 4, Arity::QUAD, 64);
/// assert!(hy.cycles < df.cycles);
/// assert!(hy.utilization() > df.utilization());
/// ```
pub fn simulate(
    schedule: ExpansionSchedule,
    pipeline: PipelineModel,
    trees: usize,
    arity: Arity,
    leaves: usize,
) -> ScheduleReport {
    assert!(trees > 0, "need at least one tree");
    let desc = TreeDesc::new(arity, leaves, pipeline.blocks_per_call);
    let depth = desc.depth();
    let stages = pipeline.stages as u64;

    // Per-tree in-order call streams.
    let streams: Vec<Vec<Call>> = (0..trees).map(|_| call_order(&desc, schedule)).collect();
    let mut cursors = vec![0usize; trees];
    let total_calls: u64 = streams.iter().map(|s| s.len() as u64).sum();

    // ready[tree][level][idx] = cycle at which node value is available
    // (u64::MAX = not yet produced). Level 0 here = root.
    let mut ready: Vec<Vec<Vec<u64>>> = (0..trees)
        .map(|_| {
            let mut v = vec![vec![0u64]]; // root ready at cycle 0
            for &w in &desc.widths {
                v.push(vec![u64::MAX; w]);
            }
            v
        })
        .collect();

    // Remaining unissued segments per (tree, level, idx) of non-leaf nodes;
    // when it reaches zero the node value can be dropped from the buffer.
    let mut pending_segs: Vec<Vec<Vec<usize>>> = (0..trees)
        .map(|_| {
            (0..depth)
                .map(|level| vec![desc.segs_per_parent[level]; desc.parent_width(level)])
                .collect()
        })
        .collect();

    // Completion events: (cycle, tree, level(child), start_idx, count),
    // min-ordered by completion cycle.
    type CompletionEvent = std::cmp::Reverse<(u64, usize, usize, usize, usize)>;
    let mut events: std::collections::BinaryHeap<CompletionEvent> =
        std::collections::BinaryHeap::new();

    let mut cycle = 0u64;
    let mut issued = 0u64;
    let mut bubbles = 0u64;
    let mut alive = trees; // roots
    let mut peak = alive;
    let mut rr = 0usize; // round-robin pointer for Hybrid
    let mut last_completion = 0u64;

    let sequential = matches!(
        schedule,
        ExpansionSchedule::DepthFirst | ExpansionSchedule::BreadthFirst
    );

    while issued < total_calls {
        // Drain completions up to the current cycle.
        while let Some(&std::cmp::Reverse((t, tree, level, start, count))) = events.peek() {
            if t > cycle {
                break;
            }
            events.pop();
            for slot in ready[tree][level].iter_mut().skip(start).take(count) {
                *slot = t;
            }
            // Only non-leaf children occupy the node buffer.
            if level < depth {
                alive += count;
            }
            peak = peak.max(alive);
        }

        // Pick an issuable call.
        let pick: Option<usize> = if sequential {
            // Single global stream: first tree with remaining calls.
            let t = (0..trees)
                .find(|&t| cursors[t] < streams[t].len())
                .expect("work remains");
            let call = streams[t][cursors[t]];
            let parent_ready = ready[t][call.level][call.parent];
            if parent_ready <= cycle && parent_ready != u64::MAX {
                Some(t)
            } else {
                None
            }
        } else {
            // Hybrid: round-robin over trees, pick the first issuable.
            let mut found = None;
            for off in 0..trees {
                let t = (rr + off) % trees;
                if cursors[t] >= streams[t].len() {
                    continue;
                }
                let call = streams[t][cursors[t]];
                let parent_ready = ready[t][call.level][call.parent];
                if parent_ready <= cycle && parent_ready != u64::MAX {
                    found = Some(t);
                    break;
                }
            }
            found
        };

        match pick {
            Some(t) => {
                let call = streams[t][cursors[t]];
                cursors[t] += 1;
                rr = (t + 1) % trees;
                issued += 1;
                // Children indices covered by this segment.
                let fanout = desc.fanouts[call.level];
                let start_child = call.parent * fanout + call.segment * pipeline.blocks_per_call;
                let count = (fanout - call.segment * pipeline.blocks_per_call)
                    .min(pipeline.blocks_per_call);
                let done = cycle + stages;
                last_completion = last_completion.max(done);
                events.push(std::cmp::Reverse((
                    done,
                    t,
                    call.level + 1,
                    start_child,
                    count,
                )));
                // Parent consumed one more segment.
                pending_segs[t][call.level][call.parent] -= 1;
                if pending_segs[t][call.level][call.parent] == 0 {
                    alive = alive.saturating_sub(1);
                }
            }
            None => {
                bubbles += 1;
            }
        }
        cycle += 1;
    }

    ScheduleReport {
        cycles: last_completion,
        calls: issued,
        bubbles,
        peak_buffer: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_first_has_pipeline_bubbles() {
        // One binary tree with AES: every call depends on the previous
        // level; with 1 block/call each parent needs 2 calls, the second of
        // which is issuable back-to-back, so utilization is low but nonzero.
        let r = simulate(
            ExpansionSchedule::DepthFirst,
            PipelineModel::CHACHA8,
            1,
            Arity::QUAD,
            256,
        );
        assert!(r.bubbles > 0, "DF on a single tree must stall: {r:?}");
        assert!(r.utilization() < 0.5);
    }

    #[test]
    fn hybrid_fills_bubbles_with_trees() {
        let df = simulate(
            ExpansionSchedule::DepthFirst,
            PipelineModel::CHACHA8,
            8,
            Arity::QUAD,
            256,
        );
        let hy = simulate(
            ExpansionSchedule::Hybrid,
            PipelineModel::CHACHA8,
            8,
            Arity::QUAD,
            256,
        );
        assert_eq!(df.calls, hy.calls, "schedules issue the same work");
        assert!(hy.cycles < df.cycles);
        assert!(
            hy.utilization() > 0.9,
            "hybrid with 8 trees ≈ full utilization: {hy:?}"
        );
    }

    #[test]
    fn breadth_first_uses_more_buffer() {
        let bf = simulate(
            ExpansionSchedule::BreadthFirst,
            PipelineModel::CHACHA8,
            1,
            Arity::QUAD,
            1024,
        );
        let hy = simulate(
            ExpansionSchedule::Hybrid,
            PipelineModel::CHACHA8,
            8,
            Arity::QUAD,
            1024,
        );
        let df = simulate(
            ExpansionSchedule::DepthFirst,
            PipelineModel::CHACHA8,
            1,
            Arity::QUAD,
            1024,
        );
        assert!(
            bf.peak_buffer > df.peak_buffer,
            "BF buffer {} should exceed DF buffer {}",
            bf.peak_buffer,
            df.peak_buffer
        );
        // Hybrid's buffer grows with tree count but stays far below BF's O(ℓ).
        assert!(hy.peak_buffer < bf.peak_buffer);
    }

    #[test]
    fn cycles_lower_bounded_by_work() {
        for s in ExpansionSchedule::ALL {
            let r = simulate(s, PipelineModel::CHACHA8, 4, Arity::QUAD, 256);
            assert!(
                r.cycles >= r.calls,
                "{s}: cycles {} < calls {}",
                r.cycles,
                r.calls
            );
        }
    }

    #[test]
    fn call_counts_match_formula() {
        // 4-ary ChaCha: (ℓ-1)/3 calls per tree for exact 4-power ℓ.
        let r = simulate(
            ExpansionSchedule::Hybrid,
            PipelineModel::CHACHA8,
            3,
            Arity::QUAD,
            1024,
        );
        assert_eq!(r.calls, 3 * (1024 - 1) / 3);
    }

    #[test]
    fn aes_pipeline_models_more_calls() {
        let aes = simulate(
            ExpansionSchedule::Hybrid,
            PipelineModel::AES,
            4,
            Arity::QUAD,
            256,
        );
        let cc = simulate(
            ExpansionSchedule::Hybrid,
            PipelineModel::CHACHA8,
            4,
            Arity::QUAD,
            256,
        );
        // AES issues one call per child: 4x the ChaCha quad calls.
        assert_eq!(aes.calls, 4 * cc.calls);
    }

    #[test]
    fn utilization_bounds() {
        for s in ExpansionSchedule::ALL {
            let r = simulate(s, PipelineModel::CHACHA8, 2, Arity::BINARY, 64);
            let u = r.utilization();
            assert!((0.0..=1.0).contains(&u), "{s}: utilization {u}");
        }
    }

    #[test]
    fn report_is_deterministic() {
        let a = simulate(
            ExpansionSchedule::Hybrid,
            PipelineModel::CHACHA8,
            4,
            Arity::QUAD,
            256,
        );
        let b = simulate(
            ExpansionSchedule::Hybrid,
            PipelineModel::CHACHA8,
            4,
            Arity::QUAD,
            256,
        );
        assert_eq!(a, b);
    }
}
