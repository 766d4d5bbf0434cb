//! Online conversions: COT → random OT → chosen-message OT (Fig. 2).
//!
//! The pre-processing phase (the extension) yields COT correlations whose
//! algebraic structure (`z = y ⊕ x·Δ`) would leak across uses; the online
//! phase hashes them with the correlation-robust hash into independent
//! random-OT pads, then uses the pads to transfer actual messages.

use ironman_ot::cot::CotSlice;
use ironman_prg::{Block, Crhf};

/// The sender's random-OT pads: one `(H(z), H(z ⊕ Δ))` pair per OT.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RotSender {
    pads: Vec<(Block, Block)>,
}

/// The receiver's random-OT share: the choice bit and its pad.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RotReceiver {
    choices: Vec<bool>,
    pads: Vec<Block>,
}

impl RotSender {
    /// Hashes a COT batch into sender pads.
    fn from_cots(delta: Block, z: &[Block], tweak_base: u64) -> Self {
        let crhf = Crhf::new();
        let pads = z
            .iter()
            .enumerate()
            .map(|(i, &zi)| {
                let t = tweak_base + i as u64;
                (crhf.hash(t, zi), crhf.hash(t, zi ^ delta))
            })
            .collect();
        RotSender { pads }
    }

    /// Number of OTs available.
    pub fn len(&self) -> usize {
        self.pads.len()
    }

    /// Whether no OTs remain.
    pub fn is_empty(&self) -> bool {
        self.pads.is_empty()
    }

    /// Masks message pairs: `y_j = (m0 ⊕ pad0, m1 ⊕ pad1)`, to be sent with
    /// the receiver's derandomization bits applied (see
    /// [`RotReceiver::derandomize`]).
    ///
    /// # Panics
    ///
    /// Panics if more messages than pads are supplied.
    pub fn mask(&self, messages: &[(Block, Block)], flips: &[bool]) -> Vec<(Block, Block)> {
        assert!(messages.len() <= self.pads.len(), "not enough OT pads");
        assert_eq!(messages.len(), flips.len());
        messages
            .iter()
            .zip(self.pads.iter())
            .zip(flips.iter())
            .map(|((&(m0, m1), &(p0, p1)), &d)| {
                let (q0, q1) = if d { (p1, p0) } else { (p0, p1) };
                (m0 ^ q0, m1 ^ q1)
            })
            .collect()
    }
}

impl RotReceiver {
    /// Hashes the receiver's COT batch into `(choice, pad)` pairs.
    fn from_cots(x: &[bool], y: &[Block], tweak_base: u64) -> Self {
        assert_eq!(x.len(), y.len());
        let crhf = Crhf::new();
        let pads = y
            .iter()
            .enumerate()
            .map(|(i, &yi)| crhf.hash(tweak_base + i as u64, yi))
            .collect();
        RotReceiver {
            choices: x.to_vec(),
            pads,
        }
    }

    /// Number of OTs available.
    pub fn len(&self) -> usize {
        self.pads.len()
    }

    /// Whether no OTs remain.
    pub fn is_empty(&self) -> bool {
        self.pads.is_empty()
    }

    /// The random choice bits.
    pub fn choices(&self) -> &[bool] {
        &self.choices
    }

    /// Derandomization bits aligning the random choices with the desired
    /// ones: `d_j = b_j ⊕ c_j` (sent to the sender in the clear).
    ///
    /// # Panics
    ///
    /// Panics if `desired.len()` exceeds the available OTs.
    pub fn derandomize(&self, desired: &[bool]) -> Vec<bool> {
        assert!(desired.len() <= self.choices.len(), "not enough OTs");
        desired
            .iter()
            .zip(self.choices.iter())
            .map(|(&c, &b)| c ^ b)
            .collect()
    }

    /// Unmasks the chosen message of each pair.
    ///
    /// # Panics
    ///
    /// Panics if `masked.len()` exceeds the available OTs.
    pub fn unmask(&self, masked: &[(Block, Block)], desired: &[bool]) -> Vec<Block> {
        assert!(masked.len() <= self.pads.len(), "not enough OT pads");
        masked
            .iter()
            .zip(desired.iter())
            .zip(self.pads.iter())
            .map(|((&(y0, y1), &c), &pad)| if c { y1 ^ pad } else { y0 ^ pad })
            .collect()
    }
}

/// Converts verified COTs (an extension's output or a pool take) into
/// matched random-OT halves.
pub fn rot_from_extension(cots: CotSlice<'_>, tweak_base: u64) -> (RotSender, RotReceiver) {
    (
        RotSender::from_cots(cots.delta, cots.z, tweak_base),
        RotReceiver::from_cots(cots.x, cots.y, tweak_base),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironman_ot::ferret::{run_extension, FerretConfig};
    use ironman_ot::params::FerretParams;

    fn rots() -> (RotSender, RotReceiver) {
        let out = run_extension(&FerretConfig::new(FerretParams::toy()), 77);
        rot_from_extension(out.cots.as_slice(), 1000)
    }

    #[test]
    fn receiver_pad_matches_senders_chosen_pad() {
        let (s, r) = rots();
        for i in 0..64 {
            let (p0, p1) = s.pads[i];
            let expect = if r.choices[i] { p1 } else { p0 };
            assert_eq!(r.pads[i], expect, "pad {i}");
        }
    }

    #[test]
    fn pads_look_uncorrelated() {
        let (s, _) = rots();
        for i in 0..64 {
            let (p0, p1) = s.pads[i];
            assert_ne!(p0, p1);
            // XOR of pads must not equal any fixed offset across OTs.
            if i > 0 {
                assert_ne!(s.pads[i - 1].0 ^ s.pads[i - 1].1, p0 ^ p1);
            }
        }
    }

    #[test]
    fn chosen_message_transfer_end_to_end() {
        let (s, r) = rots();
        let n = 32;
        let messages: Vec<(Block, Block)> = (0..n as u128)
            .map(|i| (Block::from(i * 2), Block::from(i * 2 + 1)))
            .collect();
        let desired: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let flips = r.derandomize(&desired);
        let masked = s.mask(&messages, &flips);
        let got = r.unmask(&masked, &desired);
        for i in 0..n {
            let expect = if desired[i] {
                messages[i].1
            } else {
                messages[i].0
            };
            assert_eq!(got[i], expect, "OT {i}");
        }
    }

    #[test]
    fn wrong_choice_gets_garbage() {
        // Security smoke test: decrypting with the wrong choice bit yields
        // neither message.
        let (s, r) = rots();
        let messages = vec![(Block::from(111u128), Block::from(222u128))];
        let desired = vec![false];
        let flips = r.derandomize(&desired);
        let masked = s.mask(&messages, &flips);
        let wrong = masked[0].1 ^ r.pads[0];
        assert_ne!(wrong, messages[0].0);
        assert_ne!(wrong, messages[0].1);
    }

    #[test]
    fn lengths_consistent() {
        let (s, r) = rots();
        assert_eq!(s.len(), r.len());
        assert!(!s.is_empty());
    }
}
