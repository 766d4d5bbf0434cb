//! Primitive-call accounting.
//!
//! The paper's SPCOT argument (Fig. 6, Fig. 7a, §4.1) is entirely about
//! *counts*: a 2-ary AES tree needs `2ℓ − 2` calls for `ℓ` leaves, an m-ary
//! tree needs `m(ℓ−1)/(m−1)`, and ChaCha divides the call count by up to 4.
//! Instead of trusting those formulas, every expansion in this workspace
//! tallies its primitive invocations into a [`PrgCounter`] so the benches
//! can *measure* the reduction factors.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign};

/// Tally of PRG primitive invocations.
///
/// # Example
///
/// ```
/// use ironman_prg::PrgCounter;
///
/// let mut c = PrgCounter::default();
/// c.add_aes(6);
/// c.add_chacha(1);
/// assert_eq!(c.total(), 7);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrgCounter {
    /// Number of AES-128 block encryptions.
    pub aes_calls: u64,
    /// Number of ChaCha block-function invocations.
    pub chacha_calls: u64,
}

impl PrgCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` AES calls.
    #[inline]
    pub fn add_aes(&mut self, n: u64) {
        self.aes_calls += n;
    }

    /// Records `n` ChaCha calls.
    #[inline]
    pub fn add_chacha(&mut self, n: u64) {
        self.chacha_calls += n;
    }

    /// Total primitive calls, irrespective of kind.
    #[inline]
    pub fn total(&self) -> u64 {
        self.aes_calls + self.chacha_calls
    }
}

impl Add for PrgCounter {
    type Output = PrgCounter;
    fn add(self, rhs: PrgCounter) -> PrgCounter {
        PrgCounter {
            aes_calls: self.aes_calls + rhs.aes_calls,
            chacha_calls: self.chacha_calls + rhs.chacha_calls,
        }
    }
}

impl AddAssign for PrgCounter {
    fn add_assign(&mut self, rhs: PrgCounter) {
        self.aes_calls += rhs.aes_calls;
        self.chacha_calls += rhs.chacha_calls;
    }
}

impl fmt::Display for PrgCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} AES + {} ChaCha calls",
            self.aes_calls, self.chacha_calls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_combines() {
        let a = PrgCounter {
            aes_calls: 3,
            chacha_calls: 1,
        };
        let b = PrgCounter {
            aes_calls: 2,
            chacha_calls: 4,
        };
        let c = a + b;
        assert_eq!(c.aes_calls, 5);
        assert_eq!(c.chacha_calls, 5);
        assert_eq!(c.total(), 10);
    }
}
