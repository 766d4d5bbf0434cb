//! Output checking, done inside the timed window on every delivery: the
//! correlation `z = y ⊕ x·Δ` on every COT, the delivered length, and a
//! fingerprint that catches a correlation batch being served twice
//! (consume-once is the accounting invariant the serving stack exists to
//! keep). Accounting cross-checks (client vs server vs stream trailer)
//! land here too, so `failed / attempted` is one number.

use ironman_core::CotSlice;
use ironman_prg::Block;
use std::collections::HashSet;

/// Why operations failed, for the one line printed when any did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// Deliveries with the wrong number of correlations.
    pub short: u64,
    /// Deliveries containing a COT that violates `z = y ⊕ x·Δ`.
    pub broken: u64,
    /// Deliveries whose fingerprint was seen before.
    pub replayed: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Accounting cross-checks that disagreed.
    pub mismatches: u64,
}

#[derive(Debug, Default)]
pub struct Checker {
    /// Operations attempted: deliveries, plus accounting cross-checks.
    pub attempted: u64,
    /// Operations that failed any check (each counted once).
    pub failed: u64,
    /// COTs that passed verification.
    pub verified_cots: u64,
    pub why: Failures,
    seen: HashSet<u64>,
}

/// Folds a delivery's first, middle and last `z` block and its length
/// into 64 bits. `z` blocks are pseudorandom 128-bit strings, so two
/// honest deliveries collide with negligible probability while a
/// replayed one collides surely.
fn fingerprint(z: &[Block]) -> u64 {
    let n = z.len();
    if n == 0 {
        return 0;
    }
    z[0].mix()
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(z[n / 2].mix())
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(z[n - 1].mix())
        ^ (n as u64)
}

impl Checker {
    /// One delivery of correlations: passes only if it has exactly
    /// `expected_len` COTs, every one satisfies `z = y ⊕ x·Δ`, and it was
    /// not delivered before. Returns whether it passed.
    pub fn delivery(&mut self, batch: CotSlice<'_>, expected_len: usize) -> bool {
        self.attempted += 1;
        let full = [batch.z.len(), batch.x.len(), batch.y.len()] == [expected_len; 3];
        if !full {
            self.why.short += 1;
        } else if batch.verify().is_err() {
            self.why.broken += 1;
        } else if !self.seen.insert(fingerprint(batch.z)) {
            self.why.replayed += 1;
        } else {
            self.verified_cots += expected_len as u64;
            return true;
        }
        self.failed += 1;
        false
    }

    /// An operation that returned `Err` (or never delivered).
    pub fn op_failed(&mut self) {
        self.attempted += 1;
        self.failed += 1;
        self.why.errors += 1;
    }

    /// One accounting cross-check (`ok` = the two books agree).
    pub fn accounting(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.why.mismatches += 1;
        }
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironman_core::CotBatch;

    fn batch(seed: u128, n: usize) -> CotBatch {
        let delta = Block::from(0xdead_beef_u128 | 1);
        let y: Vec<Block> = (0..n as u128)
            .map(|i| {
                Block::from((seed + i).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835))
            })
            .collect();
        let x: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let z = y
            .iter()
            .zip(&x)
            .map(|(&y, &x)| y ^ delta.and_bit(x))
            .collect();
        CotBatch { delta, z, x, y }
    }

    #[test]
    fn honest_deliveries_pass() {
        let mut c = Checker::default();
        assert!(c.delivery(batch(1, 64).as_slice(), 64));
        assert!(c.delivery(batch(1000, 64).as_slice(), 64));
        assert_eq!((c.attempted, c.failed, c.verified_cots), (2, 0, 128));
        assert_eq!(c.failed_share(), 0.0);
    }

    #[test]
    fn planted_duplicate_chunk_raises_failed_share() {
        let mut c = Checker::default();
        let chunk = batch(5, 32);
        assert!(c.delivery(chunk.as_slice(), 32));
        assert!(c.delivery(batch(77, 32).as_slice(), 32));
        // The same correlations served again: a consume-once violation.
        assert!(!c.delivery(chunk.as_slice(), 32));
        assert_eq!((c.attempted, c.failed), (3, 1));
        assert_eq!(c.why.replayed, 1);
        assert!(c.failed_share() > 0.0);
        assert_eq!(c.verified_cots, 64);
    }

    #[test]
    fn broken_correlation_and_short_delivery_fail() {
        let mut c = Checker::default();
        let mut bad = batch(9, 16);
        bad.z[7] ^= Block::from(1u128);
        assert!(!c.delivery(bad.as_slice(), 16));
        assert!(!c.delivery(batch(10, 15).as_slice(), 16));
        c.op_failed();
        c.accounting(true);
        c.accounting(false);
        assert_eq!((c.attempted, c.failed), (5, 4));
        assert_eq!(
            c.why,
            Failures {
                short: 1,
                broken: 1,
                replayed: 0,
                errors: 1,
                mismatches: 1
            }
        );
    }
}
