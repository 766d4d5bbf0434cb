//! The *m*-output PRG abstraction used by GGM tree expansion.
//!
//! §2.3.1 of the paper instantiates the double-length PRG with two AES keys:
//! `G(s) = (AES_{k0}(s) ⊕ s, AES_{k1}(s) ⊕ s)`. §4.1 generalizes to an
//! m-output PRG for m-ary trees (m AES keys, or a single ChaCha call per
//! four children). [`TreePrg`] captures exactly that interface and reports
//! the primitive-call count of every expansion so the m-ary / ChaCha
//! operation-reduction claims can be measured.
//!
//! # Lanes as pipeline stages
//!
//! The paper's hardware keeps one pipelined ChaCha8 core full by issuing
//! the independent parents of a level back to back (§4.3's breadth-first
//! and Hybrid schedules, modelled cycle by cycle in
//! `ironman_nmp::schedule`). [`TreePrg::expand_level`] is the software
//! form of that issue order: the GGM layer hands over a whole level, and
//! [`ChaChaTreePrg`] runs it sixteen parents per AVX-512 vector, or eight
//! per AVX2 vector ([`crate::level`]) — each SIMD lane playing one
//! pipeline stage's in-flight parent. **Bit-identity contract:** `expand_level` writes
//! exactly what calling [`TreePrg::expand`] on each parent in turn would
//! write, child `j` of parent `p` at `children[p·fanout + j]`, and
//! returns the same call count, on every dispatch tier.

use crate::chacha::CHACHA_BLOCKS_PER_CALL;
use crate::level::{self, LevelTier};
use crate::{Aes128, Block, ChaCha};

/// Which PRG family instantiates the GGM expansion.
///
/// These are the four cells of the paper's Fig. 6 / Fig. 13(a) ablation grid
/// (combined with the tree arity, which lives in `ironman-ggm`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrgKind {
    /// AES-128 based: one block-cipher call per child.
    Aes,
    /// ChaCha based: one call per four children.
    ChaCha {
        /// Round count (the paper uses ChaCha8).
        rounds: u32,
    },
}

impl PrgKind {
    /// The paper's hardware PRG of choice.
    pub const CHACHA8: PrgKind = PrgKind::ChaCha { rounds: 8 };

    /// Blocks produced per primitive call.
    pub fn blocks_per_call(self) -> usize {
        match self {
            PrgKind::Aes => 1,
            PrgKind::ChaCha { .. } => CHACHA_BLOCKS_PER_CALL,
        }
    }

    /// Human-readable label used by bench output.
    pub fn label(self) -> &'static str {
        match self {
            PrgKind::Aes => "AES",
            PrgKind::ChaCha { rounds: 8 } => "ChaCha8",
            PrgKind::ChaCha { rounds: 12 } => "ChaCha12",
            PrgKind::ChaCha { rounds: 20 } => "ChaCha20",
            PrgKind::ChaCha { .. } => "ChaCha",
        }
    }
}

/// An *m*-output length-expanding PRG over 128-bit blocks.
///
/// Implementations must be deterministic: the same parent always expands to
/// the same children. Both the sender's local expansion and the receiver's
/// tree reconstruction (§2.3.1) rely on this.
pub trait TreePrg {
    /// Maximum children obtainable from one primitive call.
    fn blocks_per_call(&self) -> usize;

    /// Expands `parent` into `children.len()` child blocks, returning the
    /// number of primitive calls consumed.
    ///
    /// Child `j` must depend only on `(parent, j)`, so that a receiver who
    /// learns `parent` can recompute any subset of children.
    fn expand(&self, parent: Block, children: &mut [Block]) -> u64;

    /// Expands every parent of one tree level: child `j` of `parents[p]`
    /// lands at `children[p * fanout + j]`, exactly as [`Self::expand`] on
    /// each parent in turn would write it, and the total primitive calls
    /// are returned. Implementations override this to issue the level's
    /// independent parents together (see [`ChaChaTreePrg`]); the default
    /// is the per-parent loop.
    ///
    /// # Panics
    ///
    /// Panics if `fanout == 0` or `children.len() != parents.len() * fanout`.
    fn expand_level(&self, parents: &[Block], fanout: usize, children: &mut [Block]) -> u64 {
        assert_eq!(
            children.len(),
            parents.len() * fanout,
            "children must hold fanout slots per parent"
        );
        parents
            .iter()
            .zip(children.chunks_exact_mut(fanout))
            .map(|(parent, chunk)| self.expand(*parent, chunk))
            .sum()
    }

    /// Primitive calls needed to produce `count` children (without running
    /// the expansion).
    fn calls_for(&self, count: usize) -> u64 {
        (count as u64).div_ceil(self.blocks_per_call() as u64)
    }

    /// Which family this PRG belongs to (for counter bookkeeping).
    fn kind(&self) -> PrgKind;
}

/// AES-based m-output PRG: child `j` is `AES_{k_j}(parent) ⊕ parent`.
///
/// With two keys this is exactly the paper's baseline double-length PRG;
/// with `m` keys it is the m-ary generalization of Fig. 6(b).
///
/// # Example
///
/// ```
/// use ironman_prg::{AesTreePrg, Block, TreePrg};
///
/// let prg = AesTreePrg::new(Block::from(1u128), 2);
/// let mut kids = [Block::ZERO; 2];
/// let calls = prg.expand(Block::from(5u128), &mut kids);
/// assert_eq!(calls, 2); // one AES call per child
/// assert_ne!(kids[0], kids[1]);
/// ```
#[derive(Clone, Debug)]
pub struct AesTreePrg {
    keys: Vec<Aes128>,
}

impl AesTreePrg {
    /// Derives `arity` round-key schedules from a session key.
    ///
    /// # Panics
    ///
    /// Panics if `arity == 0`.
    pub fn new(session_key: Block, arity: usize) -> Self {
        assert!(arity > 0, "PRG arity must be positive");
        let keys = (0..arity as u128)
            .map(|j| Aes128::new(session_key ^ Block::from(j.wrapping_mul(0x9e37_79b9_7f4a_7c15))))
            .collect();
        AesTreePrg { keys }
    }

    /// Number of derived keys (the maximum supported arity).
    pub fn arity(&self) -> usize {
        self.keys.len()
    }
}

impl TreePrg for AesTreePrg {
    fn blocks_per_call(&self) -> usize {
        1
    }

    fn expand(&self, parent: Block, children: &mut [Block]) -> u64 {
        assert!(
            children.len() <= self.keys.len(),
            "requested {} children but PRG has {} keys",
            children.len(),
            self.keys.len()
        );
        for (child, key) in children.iter_mut().zip(self.keys.iter()) {
            *child = key.encrypt_block(parent) ^ parent;
        }
        children.len() as u64
    }

    fn kind(&self) -> PrgKind {
        PrgKind::Aes
    }
}

/// ChaCha-based m-output PRG: children come from the keystream of
/// `ChaCha_k(counter‖nonce = parent ⊕ segment)`, four per call.
///
/// # Example
///
/// ```
/// use ironman_prg::{Block, ChaChaTreePrg, TreePrg};
///
/// let prg = ChaChaTreePrg::new(Block::from(1u128), 8);
/// let mut kids = [Block::ZERO; 8];
/// let calls = prg.expand(Block::from(5u128), &mut kids);
/// assert_eq!(calls, 2); // eight children = two ChaCha calls
/// ```
#[derive(Clone, Debug)]
pub struct ChaChaTreePrg {
    cipher: ChaCha,
}

impl ChaChaTreePrg {
    /// Creates the PRG from a 128-bit session key and a round count
    /// (the paper's core uses 8).
    pub fn new(session_key: Block, rounds: u32) -> Self {
        ChaChaTreePrg {
            cipher: ChaCha::from_session_key(session_key, rounds),
        }
    }

    /// Round count of the underlying permutation.
    pub fn rounds(&self) -> u32 {
        self.cipher.rounds()
    }

    /// [`TreePrg::expand_level`] on an explicit dispatch tier (the trait
    /// method uses [`LevelTier::detect`]); lets equivalence tests cover
    /// every tier in one process.
    ///
    /// # Panics
    ///
    /// Panics if `fanout == 0` or `children.len() != parents.len() * fanout`.
    pub fn expand_level_on(
        &self,
        tier: LevelTier,
        parents: &[Block],
        fanout: usize,
        children: &mut [Block],
    ) -> u64 {
        level::expand_level(&self.cipher, tier, parents, fanout, children)
    }
}

/// Wraps an already-keyed cipher (any 256-bit key and round count, e.g.
/// a published test vector's) instead of deriving one from a session key.
impl From<ChaCha> for ChaChaTreePrg {
    fn from(cipher: ChaCha) -> Self {
        ChaChaTreePrg { cipher }
    }
}

impl TreePrg for ChaChaTreePrg {
    fn blocks_per_call(&self) -> usize {
        CHACHA_BLOCKS_PER_CALL
    }

    fn expand(&self, parent: Block, children: &mut [Block]) -> u64 {
        level::expand_parent(&self.cipher, parent, children)
    }

    fn expand_level(&self, parents: &[Block], fanout: usize, children: &mut [Block]) -> u64 {
        self.expand_level_on(LevelTier::detect(), parents, fanout, children)
    }

    fn kind(&self) -> PrgKind {
        PrgKind::ChaCha {
            rounds: self.cipher.rounds(),
        }
    }
}

/// Builds a boxed [`TreePrg`] for a given kind and arity — the factory used
/// by the GGM layer and the ablation benches.
pub fn build_tree_prg(kind: PrgKind, session_key: Block, arity: usize) -> Box<dyn TreePrg> {
    match kind {
        PrgKind::Aes => Box::new(AesTreePrg::new(session_key, arity)),
        PrgKind::ChaCha { rounds } => Box::new(ChaChaTreePrg::new(session_key, rounds)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aes_expand_matches_paper_formula() {
        let prg = AesTreePrg::new(Block::from(9u128), 4);
        let mut kids = [Block::ZERO; 4];
        assert_eq!(prg.expand(Block::from(1u128), &mut kids), 4);
        // child_j = AES_{k_j}(s) ⊕ s
        let k0 = Aes128::new(Block::from(9u128));
        assert_eq!(
            kids[0],
            k0.encrypt_block(Block::from(1u128)) ^ Block::from(1u128)
        );
    }

    #[test]
    fn chacha_call_counting() {
        let prg = ChaChaTreePrg::new(Block::from(2u128), 8);
        assert_eq!(prg.calls_for(1), 1);
        assert_eq!(prg.calls_for(4), 1);
        assert_eq!(prg.calls_for(5), 2);
        assert_eq!(prg.calls_for(32), 8);
    }

    #[test]
    fn expansion_is_deterministic() {
        for kind in [PrgKind::Aes, PrgKind::CHACHA8] {
            let prg = build_tree_prg(kind, Block::from(5u128), 4);
            let mut a = [Block::ZERO; 4];
            let mut b = [Block::ZERO; 4];
            prg.expand(Block::from(77u128), &mut a);
            prg.expand(Block::from(77u128), &mut b);
            assert_eq!(a, b, "{kind:?} expansion must be deterministic");
        }
    }

    #[test]
    fn children_depend_on_parent() {
        for kind in [PrgKind::Aes, PrgKind::CHACHA8] {
            let prg = build_tree_prg(kind, Block::from(5u128), 2);
            let mut a = [Block::ZERO; 2];
            let mut b = [Block::ZERO; 2];
            prg.expand(Block::from(1u128), &mut a);
            prg.expand(Block::from(2u128), &mut b);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn chacha_segments_are_distinct() {
        let prg = ChaChaTreePrg::new(Block::from(1u128), 8);
        let mut kids = [Block::ZERO; 16];
        let calls = prg.expand(Block::from(3u128), &mut kids);
        assert_eq!(calls, 4);
        for i in 0..16 {
            for j in i + 1..16 {
                assert_ne!(kids[i], kids[j], "children {i} and {j} collide");
            }
        }
    }

    #[test]
    fn prefix_consistency_across_widths() {
        // Expanding 2 children must agree with the first 2 of an 8-child
        // expansion (the receiver reconstructs partial levels).
        let prg = ChaChaTreePrg::new(Block::from(6u128), 8);
        let mut two = [Block::ZERO; 2];
        let mut eight = [Block::ZERO; 8];
        prg.expand(Block::from(10u128), &mut two);
        prg.expand(Block::from(10u128), &mut eight);
        assert_eq!(two[..], eight[..2]);
    }

    #[test]
    #[should_panic(expected = "children")]
    fn aes_overflow_arity_panics() {
        let prg = AesTreePrg::new(Block::from(1u128), 2);
        let mut kids = [Block::ZERO; 3];
        prg.expand(Block::ZERO, &mut kids);
    }

    #[test]
    fn labels() {
        assert_eq!(PrgKind::Aes.label(), "AES");
        assert_eq!(PrgKind::CHACHA8.label(), "ChaCha8");
    }
}
