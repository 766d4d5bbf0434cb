//! A from-scratch ChaCha permutation with a configurable round count.
//!
//! The paper replaces the AES-based PRG with ChaCha8 in hardware (Table 2):
//! one fully pipelined ChaCha8 core emits a 512-bit keystream block — four
//! 128-bit GGM children — per call, at lower area than an AES core. We
//! implement the ChaCha block function exactly (verified against the RFC
//! 8439 ChaCha20 vector; ChaCha8/12 reuse the same quarter-round network
//! with fewer double rounds, as in the original ChaCha specification).

use crate::Block;

/// Bytes produced by one ChaCha block-function invocation (512 bits).
pub const CHACHA_BLOCK_BYTES: usize = 64;

/// Number of 128-bit [`Block`]s in one ChaCha output (the "quad-length PRG"
/// property the m-ary expansion exploits, §4.1).
pub const CHACHA_BLOCKS_PER_CALL: usize = 4;

pub(crate) const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A keyed ChaCha instance with `rounds ∈ {8, 12, 20}`.
///
/// # Example
///
/// ```
/// use ironman_prg::ChaCha;
///
/// let c = ChaCha::new([0u8; 32], 8);
/// let out = c.block(0, [0u8; 12]);
/// assert_eq!(out.len(), 64);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaCha {
    key: [u32; 8],
    rounds: u32,
}

impl ChaCha {
    /// Creates a ChaCha instance from a 256-bit key.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is not even or is zero. (The original ChaCha family
    /// is defined for even round counts; the paper uses ChaCha8.)
    pub fn new(key: [u8; 32], rounds: u32) -> Self {
        assert!(
            rounds > 0 && rounds.is_multiple_of(2),
            "ChaCha round count must be even and nonzero"
        );
        let mut words = [0u32; 8];
        for (i, word) in words.iter_mut().enumerate() {
            *word = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
        }
        ChaCha { key: words, rounds }
    }

    /// Builds a 256-bit ChaCha key by doubling a 128-bit session key. The
    /// GGM layer uses a per-session key; the parent node value is injected
    /// through the counter/nonce words, making the block function a PRG in
    /// the node value.
    pub fn from_session_key(key: Block, rounds: u32) -> Self {
        let half = key.to_le_bytes();
        let mut full = [0u8; 32];
        full[..16].copy_from_slice(&half);
        full[16..].copy_from_slice(&half);
        // Break the symmetry between the two halves so the key is not a
        // degenerate repetition.
        for b in full[16..].iter_mut() {
            *b = b.wrapping_add(0x5a);
        }
        ChaCha::new(full, rounds)
    }

    /// Number of double rounds executed per block call.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The session key as the eight state words 4..12 (what the lane-parallel
    /// level kernel broadcasts).
    pub(crate) fn key_words(&self) -> &[u32; 8] {
        &self.key
    }

    /// The ChaCha block function on words: the sixteen output words for
    /// input words 12..16 (`counter`, then the three nonce words). Output
    /// word `i` is bytes `4i..4i+4` of the keystream block, little-endian.
    #[inline]
    pub(crate) fn block_words(&self, input: [u32; 4]) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12..].copy_from_slice(&input);
        let mut working = state;
        for _ in 0..self.rounds / 2 {
            // Column round.
            quarter(&mut working, 0, 4, 8, 12);
            quarter(&mut working, 1, 5, 9, 13);
            quarter(&mut working, 2, 6, 10, 14);
            quarter(&mut working, 3, 7, 11, 15);
            // Diagonal round.
            quarter(&mut working, 0, 5, 10, 15);
            quarter(&mut working, 1, 6, 11, 12);
            quarter(&mut working, 2, 7, 8, 13);
            quarter(&mut working, 3, 4, 9, 14);
        }
        for (w, s) in working.iter_mut().zip(state) {
            *w = w.wrapping_add(s);
        }
        working
    }

    /// The ChaCha block function: 64 bytes of keystream for a given
    /// 32-bit counter and 96-bit nonce.
    pub fn block(&self, counter: u32, nonce: [u8; 12]) -> [u8; CHACHA_BLOCK_BYTES] {
        let mut input = [counter, 0, 0, 0];
        for (word, chunk) in input[1..].iter_mut().zip(nonce.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let mut out = [0u8; CHACHA_BLOCK_BYTES];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.block_words(input)) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Runs the block function with a 128-bit input block packed into the
    /// `(counter, nonce)` words, returning four 128-bit output blocks.
    ///
    /// This is the quad-length PRG of §4.1: `PRG(s)` with `s` a GGM node.
    /// The block's little-endian bytes are the state's little-endian
    /// words, so the words move straight between `u128` and the state
    /// without a byte buffer.
    #[inline]
    pub fn expand_block(&self, input: Block) -> [Block; CHACHA_BLOCKS_PER_CALL] {
        let v = input.0;
        let words = self.block_words([
            v as u32,
            (v >> 32) as u32,
            (v >> 64) as u32,
            (v >> 96) as u32,
        ]);
        std::array::from_fn(|j| {
            let w = &words[4 * j..4 * j + 4];
            Block(
                u128::from(w[0])
                    | u128::from(w[1]) << 32
                    | u128::from(w[2]) << 64
                    | u128::from(w[3]) << 96,
            )
        })
    }
}

#[inline]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.3.2 ChaCha20 block function test vector.
    #[test]
    fn rfc8439_chacha20_block() {
        let mut key = [0u8; 32];
        for (i, byte) in key.iter_mut().enumerate() {
            *byte = i as u8;
        }
        let nonce = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let c = ChaCha::new(key, 20);
        let out = c.block(1, nonce);
        let expected_start = [0x10u8, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15];
        let expected_end = [0x3cu8, 0x4e];
        assert_eq!(&out[..8], &expected_start);
        assert_eq!(&out[62..], &expected_end);
        // Full first row of the expected keystream.
        let expected_row0 = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4,
        ];
        assert_eq!(&out[..16], &expected_row0);
    }

    #[test]
    fn quarter_round_rfc8439_vector() {
        // RFC 8439 §2.1.1 quarter-round test vector.
        let mut s = [0u32; 16];
        s[0] = 0x1111_1111;
        s[1] = 0x0102_0304;
        s[2] = 0x9b8d_6f43;
        s[3] = 0x0123_4567;
        quarter(&mut s, 0, 1, 2, 3);
        assert_eq!(s[0], 0xea2a_92f4);
        assert_eq!(s[1], 0xcb1c_f8ce);
        assert_eq!(s[2], 0x4581_472e);
        assert_eq!(s[3], 0x5881_c4bb);
    }

    #[test]
    fn round_counts_differ() {
        let key = [7u8; 32];
        let c8 = ChaCha::new(key, 8);
        let c20 = ChaCha::new(key, 20);
        assert_ne!(c8.block(0, [0u8; 12]), c20.block(0, [0u8; 12]));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_rounds_rejected() {
        let _ = ChaCha::new([0u8; 32], 7);
    }

    #[test]
    fn expand_block_is_deterministic_and_injective_looking() {
        let c = ChaCha::from_session_key(Block::from(3u128), 8);
        let a = c.expand_block(Block::from(1u128));
        let b = c.expand_block(Block::from(2u128));
        assert_eq!(a, c.expand_block(Block::from(1u128)));
        assert_ne!(a, b);
        // The four children of one expansion are all distinct.
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(a[i], a[j]);
            }
        }
    }

    #[test]
    fn session_key_halves_not_symmetric() {
        let c = ChaCha::from_session_key(Block::from(0u128), 8);
        // Key words 0..4 and 4..8 must differ after symmetry breaking.
        assert_ne!(&c.key[..4], &c.key[4..]);
    }
}
