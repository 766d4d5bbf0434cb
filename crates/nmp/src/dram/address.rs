//! Physical-address decomposition for the rank simulator.
//!
//! Addresses are byte addresses within one rank's capacity. The interleave
//! order is `row : column : bank : bank-group : offset` (bank-group bits
//! lowest so that consecutive lines rotate across bank groups — the
//! standard BG-interleaved mapping that lets back-to-back reads use the
//! shorter `tCCD_S`).

use super::DramConfig;

/// A decoded rank-local address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DecodedAddr {
    /// Bank group index.
    pub(crate) group: usize,
    /// Bank index within the group.
    pub(crate) bank: usize,
    /// Row index within the bank.
    pub(crate) row: u64,
}

impl DecodedAddr {
    /// Flat bank identifier (`group * banks_per_group + bank`).
    pub(crate) fn flat_bank(&self, cfg: &DramConfig) -> usize {
        self.group * cfg.banks_per_group + self.bank
    }
}

impl DramConfig {
    /// Decodes a byte address into (group, bank, row). The column bits
    /// select nothing the timing depends on.
    pub(crate) fn decode(&self, addr: u64) -> DecodedAddr {
        let line = addr / self.access_bytes as u64;
        let lines_per_row = (self.row_bytes / self.access_bytes) as u64;
        let group = (line % self.bank_groups as u64) as usize;
        let line = line / self.bank_groups as u64;
        let bank = (line % self.banks_per_group as u64) as usize;
        let line = line / self.banks_per_group as u64;
        DecodedAddr {
            group,
            bank,
            row: line / lines_per_row,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_lines_rotate_groups() {
        let m = DramConfig::ddr4_2400();
        let a = m.decode(0);
        let b = m.decode(64);
        let c = m.decode(128);
        assert_eq!(a.group, 0);
        assert_eq!(b.group, 1);
        assert_eq!(c.group, 2);
    }

    #[test]
    fn same_line_same_decode() {
        let m = DramConfig::ddr4_2400();
        assert_eq!(m.decode(100), m.decode(64)); // both in line 1
    }

    #[test]
    fn row_changes_after_full_stripe() {
        let m = DramConfig::ddr4_2400();
        // One full row across all banks: 16 banks × 128 lines/row × 64 B.
        let stride = (m.banks() * (m.row_bytes / m.access_bytes) * m.access_bytes) as u64;
        let a = m.decode(0);
        let b = m.decode(stride);
        assert_eq!(a.group, b.group);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.row, a.row + 1);
    }

    #[test]
    fn flat_bank_unique() {
        let m = DramConfig::ddr4_2400();
        let mut seen = std::collections::HashSet::new();
        for i in 0..m.banks() as u64 {
            let d = m.decode(i * 64);
            assert!(seen.insert(d.flat_bank(&m)));
        }
    }
}
