//! IKNP-style OT extension — the pre-PCG baseline (paper §2.3).
//!
//! The paper motivates PCG-style OTE by contrast with IKNP \[49\]: IKNP
//! needs `λ` bits of communication **per output COT** (linear), while
//! PCG-style extension is sub-linear; in exchange PCG costs >4.3× more
//! computation. We implement semi-honest IKNP faithfully so that trade-off
//! can be *measured* (see `tests::pcg_beats_iknp_on_communication` and
//! `paper comm` in `crates/bench`).
//!
//! Protocol sketch (COT functionality, sender offset `Δ`):
//!
//! 1. **Base phase (reversed roles):** the sender acts as base-OT receiver
//!    with choice bits `Δ_1..Δ_λ`, obtaining one seed per column; the
//!    receiver owns both seeds of every column pair.
//! 2. The receiver expands each seed pair into `n`-bit columns
//!    `t_i^0, t_i^1` and sends `u_i = t_i^0 ⊕ t_i^1 ⊕ x` (its choice
//!    vector `x` masked into every column).
//! 3. The sender computes `q_i = t_i^{Δ_i} ⊕ Δ_i·u_i = t_i^0 ⊕ Δ_i·x`.
//! 4. Transposing the bit matrix gives per-row blocks
//!    `q_j = t_j ⊕ x_j·Δ`: exactly a COT batch with `r0 = t_j`.

use crate::channel::{ChannelError, Transport};
use crate::cot::{CotReceiver, CotSender};
use crate::dealer::Dealer;
use ironman_prg::{Aes128, Block};

/// Bit-matrix with `columns` of `n` bits each, stored column-major as
/// 64-bit words.
struct BitColumns {
    words_per_col: usize,
    n: usize,
    data: Vec<u64>,
}

impl BitColumns {
    fn new(n: usize, cols: usize) -> Self {
        let words_per_col = n.div_ceil(64);
        BitColumns {
            words_per_col,
            n,
            data: vec![0; words_per_col * cols],
        }
    }

    fn col_mut(&mut self, c: usize) -> &mut [u64] {
        &mut self.data[c * self.words_per_col..(c + 1) * self.words_per_col]
    }

    fn col(&self, c: usize) -> &[u64] {
        &self.data[c * self.words_per_col..(c + 1) * self.words_per_col]
    }

    /// Extracts row `j` as a 128-bit block (bit `i` of the block = bit `j`
    /// of column `i`).
    fn row_block(&self, j: usize) -> Block {
        let word = j / 64;
        let bit = j % 64;
        let mut out = 0u128;
        for c in 0..128 {
            let b = (self.col(c)[word] >> bit) & 1;
            out |= (b as u128) << c;
        }
        Block::from(out)
    }

    /// Fills column `c` with a PRG keystream derived from `seed`.
    fn fill_from_seed(&mut self, c: usize, seed: Block) {
        let aes = Aes128::new(seed);
        let words_per_col = self.words_per_col;
        let tail = self.n % 64;
        let col = self.col_mut(c);
        for (w, word) in col.iter_mut().enumerate().take(words_per_col) {
            let block = aes.encrypt_block(Block::from(w as u128));
            *word = block.to_halves().1;
        }
        // Mask tail bits beyond n for cleanliness.
        if tail != 0 {
            col[words_per_col - 1] &= (1u64 << tail) - 1;
        }
    }
}

/// Sender side of IKNP COT extension: produces `n` correlations under the
/// `Δ` encoded in its base choice bits.
///
/// `base_seeds[i]` is the seed the sender learned for column `i` (i.e.
/// seed `Δ_i` of the receiver's pair) — dealt by [`setup_base`].
///
/// # Errors
///
/// Propagates channel failures, and returns [`ChannelError::Malformed`]
/// if a column message is not `8·⌈n/64⌉` bytes long.
pub fn iknp_send<T: Transport + ?Sized>(
    ch: &mut T,
    delta: Block,
    base_seeds: &[Block; 128],
    n: usize,
) -> Result<CotSender, ChannelError> {
    let mut q = BitColumns::new(n, 128);
    for (c, &seed) in base_seeds.iter().enumerate() {
        q.fill_from_seed(c, seed);
    }
    // Receive the masked columns and fold them in where Δ_i = 1. Every
    // column comes from the peer, so its length is checked, not trusted.
    let delta_bits = u128::from(delta);
    let words_per_col = q.words_per_col;
    for c in 0..128 {
        let u_bytes = ch.recv_bytes()?;
        if u_bytes.len() != 8 * words_per_col {
            return Err(ChannelError::Malformed {
                expected: 8 * words_per_col,
                actual: u_bytes.len(),
            });
        }
        if (delta_bits >> c) & 1 == 1 {
            let col = q.col_mut(c);
            for w in 0..words_per_col {
                let mut word = [0u8; 8];
                word.copy_from_slice(&u_bytes[8 * w..8 * w + 8]);
                col[w] ^= u64::from_le_bytes(word);
            }
        }
    }
    let r0: Vec<Block> = (0..n).map(|j| q.row_block(j)).collect();
    Ok(CotSender::new(delta, r0))
}

/// Receiver side of IKNP COT extension with choice bits `x`.
///
/// `base_pairs[i]` is the receiver's seed pair for column `i`.
///
/// # Errors
///
/// Propagates channel failures.
pub fn iknp_recv<T: Transport + ?Sized>(
    ch: &mut T,
    base_pairs: &[(Block, Block); 128],
    x: &[bool],
) -> Result<CotReceiver, ChannelError> {
    let n = x.len();
    // Pack x into words once.
    let words_per_col = n.div_ceil(64);
    let mut x_words = vec![0u64; words_per_col];
    for (j, &b) in x.iter().enumerate() {
        if b {
            x_words[j / 64] |= 1 << (j % 64);
        }
    }
    let mut t0 = BitColumns::new(n, 128);
    let mut t1 = BitColumns::new(n, 128);
    for (c, &(s0, s1)) in base_pairs.iter().enumerate() {
        t0.fill_from_seed(c, s0);
        t1.fill_from_seed(c, s1);
        // u = t0 ⊕ t1 ⊕ x, sent per column.
        let mut u_bytes = Vec::with_capacity(words_per_col * 8);
        for (w, &xw) in x_words.iter().enumerate().take(words_per_col) {
            let u = t0.col(c)[w] ^ t1.col(c)[w] ^ xw;
            u_bytes.extend_from_slice(&u.to_le_bytes());
        }
        ch.send_bytes(u_bytes)?;
    }
    let rb: Vec<Block> = (0..n).map(|j| t0.row_block(j)).collect();
    Ok(CotReceiver::new(x.to_vec(), rb))
}

/// Deals the IKNP base material: the receiver's 128 seed pairs and the
/// sender's per-column chosen seed (selected by the bits of `Δ`). In a
/// deployment this is 128 public-key OTs with the roles reversed; here the
/// ideal dealer stands in, exactly as for the Ferret init phase.
#[allow(clippy::type_complexity)]
pub fn setup_base(
    dealer: &mut Dealer,
    delta: Block,
) -> (Box<[Block; 128]>, Box<[(Block, Block); 128]>) {
    let mut sender_seeds = Box::new([Block::ZERO; 128]);
    let mut pairs = Box::new([(Block::ZERO, Block::ZERO); 128]);
    let delta_bits = u128::from(delta);
    for c in 0..128 {
        let s0 = dealer.random_block();
        let s1 = dealer.random_block();
        pairs[c] = (s0, s1);
        sender_seeds[c] = if (delta_bits >> c) & 1 == 1 { s1 } else { s0 };
    }
    (sender_seeds, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::run_protocol;
    use crate::cot::CotSlice;

    /// The two halves checked as one batch.
    fn check(s: &CotSender, r: &CotReceiver) -> Result<(), usize> {
        CotSlice {
            delta: s.delta(),
            z: s.r0(),
            x: r.bits(),
            y: r.rb(),
        }
        .verify()
    }

    fn run_iknp(n: usize, seed: u64) -> (CotSender, CotReceiver, u64) {
        let mut dealer = Dealer::new(seed);
        let delta = dealer.random_delta();
        let (sender_seeds, pairs) = setup_base(&mut dealer, delta);
        let x: Vec<bool> = (0..n).map(|j| dealer.random_bit() ^ (j % 7 == 0)).collect();
        let (s, (r, bytes), _, _) = run_protocol(
            move |ch| iknp_send(ch, delta, &sender_seeds, n).unwrap(),
            move |ch| {
                let out = iknp_recv(ch, &pairs, &x).unwrap();
                (out, ch.stats().bytes_sent)
            },
        );
        (s, r, bytes)
    }

    #[test]
    fn a_short_column_is_malformed() {
        // The columns come from the peer (a TCP client, say): one byte
        // short is an error, not a panic. Dealt deltas are odd, so
        // column 0 is one the sender folds in.
        let n = 256;
        let mut dealer = Dealer::new(7);
        let delta = dealer.random_delta();
        let (sender_seeds, _) = setup_base(&mut dealer, delta);
        let (sent, (), _, _) = run_protocol(
            move |ch| iknp_send(ch, delta, &sender_seeds, n).map(|_| ()),
            |ch| ch.send_bytes(vec![0; n / 8 - 1]).unwrap(),
        );
        assert!(matches!(sent, Err(ChannelError::Malformed { .. })));
    }

    #[test]
    fn iknp_correlation_holds() {
        let (s, r, _) = run_iknp(500, 1);
        check(&s, &r).expect("IKNP output must be a valid COT batch");
    }

    #[test]
    fn iknp_larger_batch() {
        let (s, r, _) = run_iknp(4096, 2);
        check(&s, &r).unwrap();
        assert_eq!(s.len(), 4096);
    }

    #[test]
    fn iknp_communication_is_linear() {
        // λ bits per OT: n=1024 → 128 columns × 16 words × 8 bytes = 16 KB.
        let (_, _, bytes_1k) = run_iknp(1024, 3);
        let (_, _, bytes_4k) = run_iknp(4096, 3);
        assert_eq!(bytes_1k, 128 * (1024 / 64) * 8);
        assert!((bytes_4k as f64 / bytes_1k as f64 - 4.0).abs() < 0.01);
    }

    #[test]
    fn pcg_beats_iknp_on_communication() {
        // The paper's §2.3 motivation, measured: per-OT bytes.
        let (_, _, iknp_bytes) = run_iknp(4096, 4);
        let iknp_per_ot = iknp_bytes as f64 / 4096.0;

        let cfg = crate::ferret::FerretConfig::new(crate::params::FerretParams::toy());
        let out = crate::ferret::run_extension(&cfg, 4);
        let pcg_per_ot = (out.sender_stats.bytes_sent + out.receiver_stats.bytes_sent) as f64
            / out.cots.len() as f64;
        assert!(
            pcg_per_ot < iknp_per_ot / 2.0,
            "PCG {pcg_per_ot:.2} B/OT should be well below IKNP {iknp_per_ot:.2} B/OT"
        );
    }

    #[test]
    fn choice_bits_recovered_in_output() {
        let (_, r, _) = run_iknp(256, 5);
        // The receiver's declared bits are exactly its inputs (x), and the
        // correlation test above guarantees rb matches them.
        assert_eq!(r.len(), 256);
    }

    #[test]
    fn non_multiple_of_64_width() {
        let (s, r, _) = run_iknp(100, 6);
        check(&s, &r).unwrap();
    }
}
