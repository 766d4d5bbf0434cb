//! Validated tree arity and level-shape computation.

use std::fmt;

/// The branching factor of a GGM tree.
///
/// The paper sweeps `m ∈ {2, 4, 8, 16, 32}` (Fig. 7) and selects `m = 4`
/// because it matches the ChaCha quad-output exactly while keeping the
/// online communication low. Arities must be powers of two so that the
/// (m−1)-out-of-m OT can be built from `log2(m)` base COTs (§4.2).
///
/// # Example
///
/// ```
/// use ironman_ggm::Arity;
///
/// let m = Arity::new(4).unwrap();
/// assert_eq!(m.get(), 4);
/// assert_eq!(m.log2(), 2);
/// assert!(Arity::new(3).is_err());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Arity(usize);

/// Error returned when constructing an invalid [`Arity`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidArityError(usize);

impl fmt::Display for InvalidArityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid GGM arity {}: must be a power of two in 2..=32",
            self.0
        )
    }
}

impl std::error::Error for InvalidArityError {}

impl Arity {
    /// The classic binary GGM tree (the paper's CPU baseline).
    pub const BINARY: Arity = Arity(2);
    /// The paper's selected 4-ary expansion.
    pub const QUAD: Arity = Arity(4);

    /// All arities evaluated in Fig. 7.
    pub const SWEEP: [Arity; 5] = [Arity(2), Arity(4), Arity(8), Arity(16), Arity(32)];

    /// Creates an arity, validating that it is a power of two in `2..=32`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidArityError`] for non-powers-of-two or out-of-range
    /// values.
    pub fn new(m: usize) -> Result<Self, InvalidArityError> {
        if m.is_power_of_two() && (2..=32).contains(&m) {
            Ok(Arity(m))
        } else {
            Err(InvalidArityError(m))
        }
    }

    /// The raw branching factor.
    #[inline]
    pub fn get(self) -> usize {
        self.0
    }

    /// `log2(m)` — the number of base COTs one (m−1)-out-of-m OT consumes.
    #[inline]
    pub fn log2(self) -> u32 {
        self.0.trailing_zeros()
    }

    /// The per-level branching factors for a tree with `leaves` leaves.
    ///
    /// Levels are full `m`-ary while possible; because both `leaves` and `m`
    /// are powers of two, any remainder forms one final level of smaller
    /// (power-of-two) fan-out. E.g. `m = 4, ℓ = 8192 = 4^6·2` yields six
    /// 4-ary levels and one binary level.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is not a power of two or is `< 2`.
    pub fn level_fanouts(self, leaves: usize) -> Vec<usize> {
        assert!(
            leaves.is_power_of_two() && leaves >= 2,
            "leaf count must be a power of two >= 2"
        );
        let total_bits = leaves.trailing_zeros();
        let per_level = self.log2();
        let full = (total_bits / per_level) as usize;
        let rem = total_bits % per_level;
        let mut fanouts = vec![self.0; full];
        if rem > 0 {
            fanouts.push(1 << rem);
        }
        fanouts
    }

    /// Theoretical PRG *block* demand for expanding `leaves` leaves: the
    /// paper's `m(ℓ−1)/(m−1)` for exact m-ary trees, computed exactly from
    /// the level shape otherwise.
    pub fn expansion_blocks(self, leaves: usize) -> u64 {
        let mut width = 1u64;
        let mut blocks = 0u64;
        for f in self.level_fanouts(leaves) {
            width *= f as u64;
            blocks += width;
        }
        blocks
    }
}

impl fmt::Display for Arity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-ary", self.0)
    }
}

impl TryFrom<usize> for Arity {
    type Error = InvalidArityError;
    fn try_from(m: usize) -> Result<Self, Self::Error> {
        Arity::new(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_arities() {
        for m in [2usize, 4, 8, 16, 32] {
            assert_eq!(Arity::new(m).unwrap().get(), m);
        }
    }

    #[test]
    fn invalid_arities() {
        for m in [0usize, 1, 3, 6, 64, 33] {
            assert!(Arity::new(m).is_err(), "{m} should be invalid");
        }
    }

    #[test]
    fn fanouts_exact_power() {
        assert_eq!(Arity::QUAD.level_fanouts(4096), vec![4; 6]);
        assert_eq!(Arity::BINARY.level_fanouts(8), vec![2, 2, 2]);
    }

    #[test]
    fn fanouts_with_remainder() {
        // 8192 = 4^6 * 2
        let f = Arity::QUAD.level_fanouts(8192);
        assert_eq!(f, vec![4, 4, 4, 4, 4, 4, 2]);
        assert_eq!(f.iter().product::<usize>(), 8192);
    }

    #[test]
    fn fanouts_product_is_leaf_count() {
        for m in Arity::SWEEP {
            for log_l in 1..=14u32 {
                let l = 1usize << log_l;
                let f = m.level_fanouts(l);
                assert_eq!(f.iter().product::<usize>(), l, "m={m} l={l}");
            }
        }
    }

    #[test]
    fn expansion_blocks_matches_paper_formula() {
        // Exact m-ary tree: m(ℓ−1)/(m−1) blocks.
        let l = 4096u64;
        assert_eq!(Arity::QUAD.expansion_blocks(4096), 4 * (l - 1) / 3);
        assert_eq!(Arity::BINARY.expansion_blocks(4096), 2 * (l - 1));
    }

    #[test]
    fn log2_matches() {
        assert_eq!(Arity::BINARY.log2(), 1);
        assert_eq!(Arity::new(32).unwrap().log2(), 5);
    }

    #[test]
    fn error_display() {
        let e = Arity::new(3).unwrap_err();
        assert!(e.to_string().contains("3"));
    }
}
